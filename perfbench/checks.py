"""Output checks for one pdm command: each returns a list of problems, empty when correct.

The checks hold for any inputs, not only the reference run: the files a
command must write exist and parse, the counts its summary line prints
agree with the files, and every reported rate follows from its confusion
counts.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re

COMPARE_FILES = ("comparison.json", "comparison.csv",
                 *(f"{s}_{kind}" for s in ("baseline", "s1", "s2")
                   for kind in ("report.json", "cells.csv")))


def digests(out_dir: str) -> dict:
    result = {}
    for name in sorted(os.listdir(out_dir)):
        h = hashlib.sha256()
        with open(os.path.join(out_dir, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        result[name] = h.hexdigest()
    return result


def _count_lines(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b""))


def _rates_problems(where: str, m: dict) -> list:
    tp, fp, fn, tn = m["tp"], m["fp"], m["fn"], m["tn"]
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    expected = {
        "accuracy": (tp + tn) / (tp + fp + fn + tn),
        "precision": precision,
        "recall": recall,
        "f1": 2 * precision * recall / (precision + recall) if precision + recall else 0.0,
    }
    return [f"{where}: {k} {m[k]!r} does not follow from the confusion counts"
            for k, v in expected.items() if not math.isclose(m[k], v, abs_tol=1e-12)]


def check_compare(out_dir: str, stdout: str) -> list:
    missing = [f for f in COMPARE_FILES if not os.path.exists(os.path.join(out_dir, f))]
    if missing:
        return [f"compare wrote no {', '.join(missing)}"]
    with open(os.path.join(out_dir, "comparison.json")) as fh:
        payload = json.load(fh)
    problems = []
    headline = []
    for row in payload["comparison"]:
        report = payload["reports"][row["scenario"]]
        best = report["best"]
        if (best or {}).get("model") != row["best_model"]:
            problems.append(f"{row['scenario']}: comparison row disagrees with its report")
        parts = 0
        for cell in report["cells"]:
            for part in ("validation", "test"):
                if cell.get(part) is not None:
                    parts += 1
                    problems += _rates_problems(
                        f"{row['scenario']} {cell['model']} {cell['horizon_minutes']} {part}",
                        cell[part])
        cells_csv = os.path.join(out_dir, f"{row['scenario']}_cells.csv")
        if _count_lines(cells_csv) != parts + 1:
            problems.append(f"{row['scenario']}_cells.csv does not hold one row per scored part")
        if row["best_model"] is None:
            headline.append(f"{row['scenario']}: no selection ({row['reason']})")
        else:
            headline.append(f"{row['scenario']}: {row['best_model']} at "
                            f"{row['best_horizon_minutes']} min, F1 {row['f1']:.3f}, "
                            f"accuracy {row['accuracy']:.3f}")
    if stdout.splitlines()[:len(headline)] != headline:
        problems.append("printed headline disagrees with comparison.json")
    return problems


def check_simulate(out_dir: str, stdout: str) -> list:
    match = re.match(r"simulated (\d+) cycles, (\d+) rows", stdout)
    if not match:
        return ["simulate printed no summary line"]
    with open(os.path.join(out_dir, "telemetry_schema.json")) as fh:
        schema = json.load(fh)
    with open(os.path.join(out_dir, "ground_truth.json")) as fh:
        json.load(fh)
    path = os.path.join(out_dir, "telemetry.csv")
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    problems = []
    if sorted(header[1:]) != sorted([*schema["channels"], *schema["logs"]]):
        problems.append("telemetry.csv columns disagree with telemetry_schema.json")
    if _count_lines(path) != int(match.group(2)) + 1:
        problems.append("telemetry.csv row count disagrees with the printed summary")
    return problems


def check_preprocess(out_dir: str, stdout: str) -> list:
    match = re.match(r"curated (s[12]): (\d+) rows x (\d+) features, (\d+) positive", stdout)
    if not match:
        return ["preprocess printed no summary line"]
    scenario, rows, features, positive = match.group(1), *map(int, match.groups()[1:])
    with open(os.path.join(out_dir, f"curated_{scenario}.json")) as fh:
        meta = json.load(fh)
    with open(os.path.join(out_dir, f"curated_{scenario}.csv"), newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        targets = [int(rec[-1]) for rec in reader]
    problems = []
    if header != ["timestamp", "cycle", "sequence", *meta["feature_names"], "target"]:
        problems.append(f"curated_{scenario}.csv header disagrees with its metadata")
    if (len(targets), len(meta["feature_names"]), sum(targets)) != (rows, features, positive):
        problems.append(f"curated_{scenario}.csv disagrees with the printed summary")
    return problems


CHECKS = {"compare": check_compare, "simulate": check_simulate,
          "preprocess": check_preprocess}
