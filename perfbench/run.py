"""pdmpipe benchmark: runs one workload through ``pdmpipe.cli.main`` and checks its outputs.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 30 --trace 0

Run it from anywhere; it works on the checkout that holds it and builds
nothing (the package runs from ``src`` on PYTHONPATH). ``--workload all``
runs every workload in turn.

Every execution of a workload is a fresh interpreter (``worker.py``) that
times set-up, then runs the workload's commands. Workload inputs are made
from ``--seed`` in a temporary directory under ``.perfbench/`` and removed
afterwards. Executions repeat while they fit in ``--seconds`` (at least
one). Set-up is also timed in separate set-up-only interpreters, so that
``setup_s`` is a median of ``SETUP_SAMPLES`` values or more.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
without tracing. ``--trace 1`` adds one traced execution and reports the
per-layer metrics from its spans; ``trace.overhead_s`` is its wall time
minus the untraced median.

Correctness: every command must exit 0, its outputs must pass
``checks.py``, and each output file must have the same sha256 in every
execution of the invocation, traced or not. A command that fails any of
these counts in ``failed``, and the benchmark exits 1. The digests, the
environment and, for ``reference``, the headline and whether the bytes
match the recorded contract go to ``.perfbench/results/``. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from checks import CHECKS, digests
from workloads import REFERENCE_DIGESTS, REFERENCE_HEADLINE, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
STATE = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 2
WORKER_TIMEOUT_S = 160


def _worker(spec: dict, work: str, tag: str):
    """Run worker.py on ``spec``; returns (result, None) or (None, reason)."""
    spec_path = os.path.join(work, f"{tag}-spec.json")
    result_path = os.path.join(work, f"{tag}-result.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"{tag}: worker exceeded {WORKER_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"{tag}: worker exited {proc.returncode}"
    with open(result_path) as fh:
        return json.load(fh), None


def _execute(commands, setup_config: str, work: str, tag: str, trace: bool) -> dict:
    """One execution: run the commands in a fresh worker, then check and hash the outputs."""
    out_dirs = [os.path.join(work, tag, f"cmd{i}") for i in range(len(commands))]
    spec = {"setup_config": setup_config, "trace": trace, "setup_only": False,
            "commands": [[*argv, "--out", out] for argv, out in zip(commands, out_dirs)]}
    result, error = _worker(spec, work, tag)
    ex = {"tag": tag, "trace": trace, "result": result,
          "problems": [[error] if error else [] for _ in commands], "digests": []}
    if result is None:
        return ex
    for i, (argv, out) in enumerate(zip(commands, out_dirs)):
        if result["exit_codes"][i] != 0:
            ex["problems"][i].append(f"{argv[0]} exited {result['exit_codes'][i]}")
            ex["digests"].append({})
            continue
        try:
            ex["problems"][i] += CHECKS[argv[0]](out, result["stdout"][i])
            ex["digests"].append(digests(out))
        except (OSError, ValueError, LookupError, StopIteration) as exc:
            ex["problems"][i].append(f"{argv[0]} outputs unreadable: {exc!r}")
            ex["digests"].append({})
    shutil.rmtree(os.path.join(work, tag))
    return ex


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    workload = WORKLOADS[name]
    os.makedirs(STATE, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"work-{name}-", dir=STATE)
    try:
        commands = workload.build(ROOT, seed, work)
        setup_config = commands[0][2]
        setups = []
        for i in range(SETUP_SAMPLES - 1):
            result, _ = _worker({"setup_config": setup_config, "trace": False,
                                 "setup_only": True, "commands": []}, work, f"setup{i}")
            if result is not None:
                setups.append(result["setup_s"])
        executions = []
        start = time.perf_counter()
        while True:
            executions.append(_execute(commands, setup_config, work,
                                       f"ex{len(executions)}", False))
            spent = time.perf_counter() - start
            if spent + spent / len(executions) > seconds:
                break
        if trace:
            executions.append(_execute(commands, setup_config, work, "traced", True))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # an output file must read the same in every execution
    for i in range(len(commands)):
        seen = [ex["digests"][i] for ex in executions if ex["result"] and ex["digests"][i]]
        for ex in executions:
            if ex["result"] and ex["digests"][i] and ex["digests"][i] != seen[0]:
                ex["problems"][i].append(f"{commands[i][0]} outputs differ between executions")

    clean = [ex for ex in executions
             if not ex["trace"] and ex["result"] and not any(ex["problems"])]
    plain = [ex["result"] for ex in clean]
    setups += [r["setup_s"] for r in plain]
    failed = sum(1 for ex in executions for p in ex["problems"] if p)
    metrics = {}
    if plain:
        metrics.update(
            wall_s=statistics.median(r["wall_s"] for r in plain),
            setup_s=statistics.median(setups),
            peak_rss_mb=statistics.median(r["peak_rss_mb"] for r in plain))
    traced = next((ex["result"] for ex in executions if ex["trace"]), None)
    if plain and traced and not failed:
        metrics.update(traced["layers"])
        metrics["process.cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
        metrics["trace.overhead_s"] = traced["wall_s"] - metrics["wall_s"]

    record = {
        "workload": name, "why": workload.why, "seed": seed, "seconds": seconds,
        "trace": trace, "commands": commands,
        "env": next((ex["result"]["env"] for ex in executions if ex["result"]), None),
        "setup_samples_s": setups,
        "executions": [{
            "tag": ex["tag"], "trace": ex["trace"], "problems": ex["problems"],
            "digests": ex["digests"],
            **({k: ex["result"][k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb",
                                             "exit_codes", "stdout")}
               if ex["result"] else {}),
        } for ex in executions],
        "attempted": len(executions) * len(commands), "failed": failed,
        "metrics": metrics,
    }
    if name == "reference" and clean:
        record["headline"] = clean[0]["result"]["stdout"][0].splitlines()[:3]
        record["contract"] = {
            "headline_matches": tuple(record["headline"]) == REFERENCE_HEADLINE,
            "digests_match": clean[0]["digests"][0] == REFERENCE_DIGESTS,
        }
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    stem = os.path.join(STATE, "results", f"{name}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    if traced:
        with open(stem + "-spans.json", "w") as fh:
            json.dump(traced["spans"], fh)
    record["record_path"] = os.path.relpath(stem + ".json", ROOT)
    return record


def report(record: dict, units: dict) -> None:
    """Human-readable summary of one workload."""
    n = record["attempted"]
    print(f"workload {record['workload']} (seed {record['seed']}): "
          f"{len(record['executions'])} execution(s), {len(record['setup_samples_s'])} "
          f"set-up sample(s)")
    for name, value in record["metrics"].items():
        print(f"  {name:38s} {value:14.6f} {units[name]}")
    print(f"  {'error_rate':38s} {record['failed'] / n:14.6f} ratio "
          f"({record['failed']}/{n} commands)")
    env = record["env"]
    if env:
        threads = {k: v for k, v in env["blas_threads"].items() if v is not None}
        print(f"  env: nproc {env['nproc']}, {env['machine']}, Python {env['python']}, "
              f"numpy {env['numpy']}, scipy {env['scipy']}, BLAS threads {threads or 'unset'}")
    if "contract" in record:
        print("  headline: " + " | ".join(record["headline"]))
        print(f"  reference contract: headline {record['contract']['headline_matches']}, "
              f"output bytes {record['contract']['digests_match']}")
    for ex in record["executions"]:
        for problems in ex["problems"]:
            for problem in problems:
                print(f"  FAILED {ex['tag']}: {problem}")
    print(f"  record -> {record['record_path']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    program = [os.path.join(ROOT, "src", "pdmpipe", "cli.py"),
               os.path.join(ROOT, "configs", "default.yaml")]
    absent = [p for p in program if not os.path.isfile(p)]
    if absent:
        print(f"benchmark: program not found: {', '.join(absent)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    # the result line carries the end-to-end metrics, or with --trace 1 the per-layer ones
    wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    metrics = {}
    for record in records:
        report(record, units)
        prefix = "" if len(records) == 1 else f"{record['workload']}."
        metrics.update({prefix + k: {"value": record["metrics"][k], "unit": units[k]}
                        for k in wanted if k in record["metrics"]})
    failed = sum(r["failed"] for r in records)
    correct = failed == 0 and all(set(wanted) <= set(r["metrics"]) for r in records)
    print(json.dumps({"correct": correct, "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
