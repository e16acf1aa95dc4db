#!/usr/bin/env python3
"""The whole experiment in one go: rules vs logged-label learning vs
knowledge-informed learning, on a reduced 40-cycle run so it finishes
in seconds. `pdm compare --config configs/default.yaml` does the same
thing at full scale from the shipped configuration.
"""

import time

from pdmpipe import (
    compare,
    default_kb,
    inject_missing,
    inject_outliers,
    make_config,
    simulate,
)

config = make_config(
    20250827,
    sim={"cycles": 40, "logging_probability": 0.25},
    models={
        "forest": [{"trees": 30, "max_depth": 10}],
        "gbdt": [{"iterations": 60, "learning_rate": 0.1, "max_depth": 3}],
        "svm": [{"reg": 0.001}],
    },
    missing={"non_use": True,
             "blanket": [{"cycle": 7, "start_minute": 1500, "minutes": 180}],
             "dropout": [{"cycle": 12, "channel": "temp_external_a",
                          "start_minute": 200, "minutes": 120}]},
    outliers=[{"cycle": 9, "channel": "pressure_internal_b", "minute": 1900,
               "kind": "FalseSpike", "delta": 500.0},
              {"cycle": 17, "channel": "temp_external_c", "minute": 400,
               "kind": "TrueIrrelevant", "delta": 60.0}],
)

kb = default_kb()
started = time.perf_counter()
frame, gt = simulate(config.sim, kb)
frame, gt = inject_missing(frame, gt, config.missing)
frame, gt = inject_outliers(frame, gt, config.outliers)
result = compare(frame, gt, kb, config)
elapsed = time.perf_counter() - started

print(f"{'scenario':<10} {'best model':<12} {'horizon':>8} "
      f"{'accuracy':>9} {'F1':>7}")
for row in result["comparison"]:
    if row["best_model"] is None:
        print(f"{row['scenario']:<10} none ({row['reason']})")
        continue
    print(f"{row['scenario']:<10} {row['best_model']:<12} "
          f"{row['best_horizon_minutes']:>7}m "
          f"{row['accuracy']:>9.3f} {row['f1']:>7.3f}")

print(f"\n{elapsed:.1f}s total")
print("\nwhy the gap: the logged-label scenario trains on the few faults")
print("the automation layer wrote down; the knowledge-informed scenario")
print("rebuilds its target from the monitoring rules and FMECA fields,")
print("so it sees every blocking fault and holds up at long horizons.")
