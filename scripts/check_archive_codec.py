#!/usr/bin/env python3
"""Gate the archive codec benchmark (machine-independent).

bench_archive_codec sizes the same simulator archive in the compressed
event frame (`EXS5`, the v4 spill format) and in the uncompressed
columnar layout (the retired v3 format, computed in closed form) and
reports both byte counts. Byte counts do not depend on hardware speed,
so this gate runs on any machine.

Checks, in order:
  1. Compression: ``compression_ratio_v3_over_v4`` >= --min-ratio
     (default 5.0 — the v4 acceptance floor; pass a lower floor for
     reduced smoke workloads only if their ratio genuinely differs).
  2. Optionally, against a committed baseline JSON (--baseline): the
     current ratio may not regress below --regression x the baseline
     ratio (default 0.9), catching codec regressions that still clear
     the absolute floor.

Usage:
  check_archive_codec.py BENCH_archive_codec.json [--min-ratio 5.0]
      [--baseline bench/baselines/BENCH_archive_codec_smoke.json]
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
    parser.add_argument("current", help="BENCH_archive_codec.json to check")
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

    if cur.get("bench") != "archive_codec":
        fail(f"{args.current} is not an archive_codec benchmark result")

    for key in ("v3_bytes", "v4_bytes", "compression_ratio_v3_over_v4"):
        if key not in cur:
            fail(f"missing field {key!r} in {args.current}")

    failures = []

    ratio = cur["compression_ratio_v3_over_v4"]
    print(
        f"spill size: v3 {cur['v3_bytes']} B, v4 {cur['v4_bytes']} B "
        f"(ratio {ratio:.2f}x, floor {args.min_ratio:.2f}x)"
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
        f"PASS: archive codec gate ({mode} run, "
        f"{cur.get('events_total', '?')} events)"
    )


if __name__ == "__main__":
    main()
