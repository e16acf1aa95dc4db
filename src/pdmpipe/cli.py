"""Command-line front end.

Four subcommands cover the pipeline: ``simulate`` writes telemetry and
ground truth, ``preprocess`` writes a curated dataset, ``evaluate``
scores one scenario, ``compare`` runs baseline and both scenarios side
by side. All take the same YAML configuration; outputs with the same
configuration are byte-identical. Exit codes: 0 success, 2 bad usage or
configuration, 3 pipeline failure. Set PDM_LOG to change verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from .config import ConfigError, PipelineConfig, load_config
from .evaluation import compare, run_scenario, write_comparison, write_report
from .features import build_dataset
from .knowledge import default_kb, load_kb
from .simulator import _check_onsets, inject_missing, inject_outliers, simulate
from .timeseries import _write_json, write_csv

log = logging.getLogger(__name__)


def _knowledge(config: PipelineConfig):
    if config.kb is None:
        return default_kb()
    return load_kb(config.kb)


def _generate(config: PipelineConfig, kb):
    frame, gt = simulate(config.sim, kb)
    frame, gt = inject_missing(frame, gt, config.missing)
    frame, gt = inject_outliers(frame, gt, config.outliers)
    return frame, gt


def cmd_simulate(config: PipelineConfig, kb, out_dir: str) -> int:
    frame, gt = _generate(config, kb)
    os.makedirs(out_dir, exist_ok=True)
    schema = write_csv(frame, os.path.join(out_dir, "telemetry.csv"))
    _write_json(os.path.join(out_dir, "telemetry_schema.json"), schema)
    _write_json(os.path.join(out_dir, "ground_truth.json"), gt)
    print(f"simulated {config.sim.cycles} cycles, {len(frame)} rows, "
          f"{len(gt.events)} events ({len(gt.logged_events())} logged) -> {out_dir}")
    return 0


def cmd_preprocess(config: PipelineConfig, kb, scenario: str, out_dir: str) -> int:
    # No name here holds the raw frame. CPython 3.11 and later hand a call's
    # arguments to the callee, so build_dataset frees it once it has a cleaned copy.
    ds = build_dataset(_generate(config, kb)[0], kb, scenario, config.preprocess,
                       config.split[0])
    os.makedirs(out_dir, exist_ok=True)
    ds.to_files(os.path.join(out_dir, f"curated_{scenario}.csv"),
                os.path.join(out_dir, f"curated_{scenario}.json"))
    print(f"curated {scenario}: {len(ds)} rows x {ds.X.shape[1]} features, "
          f"{int(np.sum(ds.y))} positive -> {out_dir}")
    return 0


def cmd_evaluate(config: PipelineConfig, kb, scenario: str, out_dir: str) -> int:
    frame, gt = _generate(config, kb)
    report = run_scenario(frame, gt, kb, scenario, config)
    write_report(report, out_dir)
    best = report.best
    if best:
        print(f"{scenario}: best {best.model} at {best.horizon_minutes} min, "
              f"test F1 {best.test.f1:.3f}, accuracy {best.test.accuracy:.3f} -> {out_dir}")
    else:
        print(f"{scenario}: no model passed selection ({report.reason}) -> {out_dir}")
    return 0


def cmd_compare(config: PipelineConfig, kb, out_dir: str) -> int:
    frame, gt = _generate(config, kb)
    result = compare(frame, gt, kb, config)
    write_comparison(result, out_dir)
    for row in result["comparison"]:
        if row["best_model"] is None:
            print(f"{row['scenario']}: no selection ({row['reason']})")
        else:
            print(f"{row['scenario']}: {row['best_model']} at "
                  f"{row['best_horizon_minutes']} min, "
                  f"F1 {row['f1']:.3f}, accuracy {row['accuracy']:.3f}")
    print(f"reports -> {out_dir}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pdm", description="knowledge-informed predictive maintenance pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--out", default=None, help="output directory override")

    p_sim = sub.add_parser("simulate", help="write telemetry and ground truth")
    common(p_sim)
    p_pre = sub.add_parser("preprocess", help="write a curated dataset")
    common(p_pre)
    p_pre.add_argument("--scenario", required=True, choices=("s1", "s2"))
    p_eval = sub.add_parser("evaluate", help="score one scenario")
    common(p_eval)
    p_eval.add_argument("--scenario", required=True,
                        choices=("baseline", "s1", "s2"))
    p_cmp = sub.add_parser("compare", help="run baseline and both scenarios")
    common(p_cmp)

    args = parser.parse_args(argv)
    if args.out == "":
        parser.error("argument --out: must be a path, got ''")
    logging.basicConfig(
        level=os.environ.get("PDM_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s")

    try:
        config = load_config(args.config)
        kb = _knowledge(config)   # KB problems are configuration errors
        _check_onsets(kb)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    out_dir = config.out if args.out is None else args.out
    try:
        if args.command == "simulate":
            return cmd_simulate(config, kb, out_dir)
        if args.command == "preprocess":
            return cmd_preprocess(config, kb, args.scenario, out_dir)
        if args.command == "evaluate":
            return cmd_evaluate(config, kb, args.scenario, out_dir)
        if args.command == "compare":
            return cmd_compare(config, kb, out_dir)
        raise AssertionError(f"unhandled command {args.command}")
    except Exception as exc:   # noqa: BLE001 - boundary: report and exit 3
        log.exception("pipeline failure")
        print(f"pipeline error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
