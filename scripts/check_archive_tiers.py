#!/usr/bin/env python3
"""Gate the tiered-archive benchmark (machine-independent).

bench_archive_tiers sizes the same simulator archive in the v4 spill
format and in the uncompressed columnar layout (the retired v3 format,
computed in closed form) and reports both byte counts, plus correctness
booleans from its tiered-vs-exact differential Explain run. Byte counts
and booleans do not depend on hardware speed, so this gate runs on any
machine; the wall-clock speedups in the JSON are informational here
(the bench binary itself gates them in full mode, where the workload is
large enough for timing to be stable).

Checks, in order:
  1. Correctness: ``abnormal_series_identical`` is true — tiered
     reference scans must never change the abnormal-interval features —
     and ``tier_segments_served`` > 0 (the tiered pass really answered
     from tiers; a zero means the timing compared identical code paths).
  2. Compression: ``compression_ratio_v3_over_v4`` >= --min-ratio
     (default 5.0 — the v4 acceptance floor; pass a lower floor for
     reduced smoke workloads only if their ratio genuinely differs).
  3. Optionally, against a committed baseline JSON (--baseline): the
     current ratio may not regress below --regression x the baseline
     ratio (default 0.9), catching codec regressions that still clear
     the absolute floor.

Usage:
  check_archive_tiers.py BENCH_archive_tiers.json [--min-ratio 5.0]
      [--baseline bench/baselines/BENCH_archive_tiers_smoke.json]
      [--regression 0.9]
"""

import argparse
import json
import sys


def fail(msg: str) -> None:
    print(f"FAIL: {msg}")
    sys.exit(1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="BENCH_archive_tiers.json to check")
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=5.0,
        help="minimum v3/v4 on-disk compression ratio",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="committed baseline JSON to compare the ratio against",
    )
    parser.add_argument(
        "--regression",
        type=float,
        default=0.9,
        help="minimum current/baseline compression-ratio quotient",
    )
    args = parser.parse_args()

    with open(args.current, "r", encoding="utf-8") as f:
        cur = json.load(f)

    if cur.get("bench") != "archive_tiers":
        fail(f"{args.current} is not an archive_tiers benchmark result")

    for key in (
        "v3_bytes",
        "v4_bytes",
        "compression_ratio_v3_over_v4",
        "tier_segments_served",
        "abnormal_series_identical",
        "explain_speedup",
    ):
        if key not in cur:
            fail(f"missing field {key!r} in {args.current}")

    failures = []

    if not cur["abnormal_series_identical"]:
        failures.append(
            "tiered Explain changed the abnormal-interval feature series — "
            "tiers must only ever answer reference-side scans"
        )
    if cur["tier_segments_served"] <= 0:
        failures.append(
            "tiered pass served no tier segments — the comparison never "
            "exercised the tier path"
        )

    ratio = cur["compression_ratio_v3_over_v4"]
    print(
        f"spill size: v3 {cur['v3_bytes']} B, v4 {cur['v4_bytes']} B "
        f"(ratio {ratio:.2f}x, floor {args.min_ratio:.2f}x)"
    )
    print(
        f"explain speedup {cur['explain_speedup']:.2f}x "
        f"(informational; gated by the bench binary in full mode)"
    )
    if ratio < args.min_ratio:
        failures.append(
            f"compression ratio {ratio:.2f}x below floor {args.min_ratio:.2f}x"
        )

    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as f:
            base = json.load(f)
        base_ratio = base["compression_ratio_v3_over_v4"]
        quotient = ratio / base_ratio if base_ratio > 0 else 0.0
        print(
            f"baseline ratio {base_ratio:.2f}x, current/baseline "
            f"{quotient:.3f} (floor {args.regression:.3f})"
        )
        if quotient < args.regression:
            failures.append(
                f"compression ratio regressed to {quotient:.3f} of the "
                f"committed baseline ({ratio:.2f}x vs {base_ratio:.2f}x)"
            )

    if failures:
        for f_ in failures:
            print(f"FAIL: {f_}")
        sys.exit(1)
    mode = "smoke" if cur.get("smoke") else "full"
    print(
        f"PASS: archive tiering gate ({mode} run, "
        f"{cur.get('events_total', '?')} events)"
    )


if __name__ == "__main__":
    main()
