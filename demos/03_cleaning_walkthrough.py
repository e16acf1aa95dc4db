#!/usr/bin/env python3
"""Walk one dirty run through gap handling and outlier verification."""

from collections import Counter

from pdmpipe import (
    SimConfig,
    apply_verdicts,
    classify_gaps,
    default_kb,
    drop_intervals,
    impute_single_sensor,
    inject_missing,
    inject_outliers,
    simulate,
    verify_outliers,
)
from pdmpipe.cleaning import detrended_iqr_flags, ics_flags
from pdmpipe.simulator import Blanket, Dropout, MissingScenario, Outlier

kb = default_kb()
config = SimConfig(seed=77, cycles=8, logging_probability=1.0)
frame, gt = simulate(config, kb)

# dirty it up: one maintenance blackout, one sensor dropout, idle blanks,
# and two spikes
frame, gt = inject_missing(frame, gt, MissingScenario(
    non_use=True,
    blanket=(Blanket(cycle=3, start_minute=1500, minutes=120),),
    dropout=(Dropout(cycle=5, channel="temp_external_a", start_minute=300, minutes=90),),
))
frame, gt = inject_outliers(frame, gt, [
    Outlier(cycle=2, channel="pressure_internal_b", minute=1900,
            kind="FalseSpike", delta=400.0),
    Outlier(cycle=4, channel="temp_external_c", minute=700,
            kind="TrueIrrelevant", delta=80.0),
])

report = classify_gaps(frame, reconstruct=True)   # the knowledge-informed disposition
print("gaps found:")
for gap in report.intervals:
    channel = gap.channel or "all channels"
    print(f"  {gap.cause:<20} {gap.disposition:<12} {channel:<16}"
          f" {gap.start} .. {gap.end}")

# the screens take a complete frame: rebuild the reconstruct-class gaps,
# then drop the delete-class ones
frame = impute_single_sensor(frame, report)
frame = drop_intervals(frame, report)
print(f"\nafter dropping delete-class intervals: {len(frame)} rows")

flags = detrended_iqr_flags(frame, k=4.0) + ics_flags(frame, m=2, alpha=2e-5)
print(f"\nscreening flagged {len(flags)} suspect points")

verdicts = verify_outliers(frame, flags, kb, [g.event for g in gt.events])
counts = Counter(v.verdict for v in verdicts)
for verdict, n in counts.most_common():
    print(f"  {verdict:<24} {n}")
print("\nchannel-level verdicts in detail:")
for v in verdicts:
    if v.channel is not None:
        print(f"  {v.verdict:<24} {v.channel:<20} at {frame.timestamps[v.index]}")

cleaned = apply_verdicts(frame, verdicts)
print(f"\ncleaned frame: {len(cleaned)} rows "
      f"({len(frame) - len(cleaned)} dropped by verdict)")
