#!/usr/bin/env python3
"""Gate the continuous-serving Explain benchmark (machine-independent).

bench_explain_qps runs one explanation through two feature paths
(incremental tails, columnar archive scan), checks the annotation's
features built through the tails against the row-folding reference
oracle, and reports bit-identity booleans, the single-flight computation count for
concurrent callers of one cold key, and the cached/uncached and
incremental/scan speed ratios. The booleans and the computation count do
not depend on hardware speed, so this gate runs on any machine. The
speed *ratios* are mostly machine-independent too (both sides run on the
same box), so they are gated here against conservative floors and,
optionally, a committed baseline; absolute wall-clock numbers are
informational only.

Checks, in order:
  1. Correctness: ``incremental_identical`` and ``oracle_identical`` are
     true (the serving layer must never change an explanation, and its
     features must equal the oracle's), and
     ``tail_full_hits + tail_partial_hits`` > 0 (the incremental pass
     really answered from the tails).
  2. Single-flight: ``single_flight_computations`` == 1 — concurrent
     callers of one cold key must share one computation.
  3. Ratios, full runs only: ``cached_speedup`` >= --min-cached-speedup
     (default 20) and ``incremental_speedup`` >= --min-incremental-speedup
     (default 2). Smoke workloads are too small to amortize the tail
     path's per-call overhead, so for them the floors are informational
     and only the baseline-regression check below applies (the bench
     binary itself enforces the floors in full mode).
  4. Optionally, against a committed baseline JSON (--baseline):
     ``incremental_speedup`` may not regress below --regression x its
     baseline value (default 0.5 — ratios on tiny smoke workloads are
     noisier than the archive codec byte counts, so the regression floor
     is looser). The cached path is gated on its own counts instead:
     ``cache_misses`` and the lookups the cache served
     (``cache_hits + cache_single_flight_waits``) must equal the
     baseline's. A ratio over the uncached time would fall whenever the
     uncached Explain got faster, although the cache did not change; the
     counts repeat exactly run to run (the hit/wait split alone does not:
     a single-flight caller that arrives after the computation counts as a
     hit), and a lookup that stops serving repeats turns hits into misses.
     ``cached_speedup``'s quotient is still printed.

Usage:
  check_explain_qps.py BENCH_explain_qps.json
      [--min-cached-speedup 20] [--min-incremental-speedup 2]
      [--baseline bench/baselines/BENCH_explain_qps_smoke.json]
      [--regression 0.5]
"""

import argparse
import json
import sys


def fail(msg: str) -> None:
    print(f"FAIL: {msg}")
    sys.exit(1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="BENCH_explain_qps.json to check")
    parser.add_argument(
        "--min-cached-speedup",
        type=float,
        default=20.0,
        help="minimum cached-repeat / uncached Explain speedup",
    )
    parser.add_argument(
        "--min-incremental-speedup",
        type=float,
        default=2.0,
        help="minimum incremental / cold-archive feature-build speedup",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="committed baseline JSON to compare the ratios against",
    )
    parser.add_argument(
        "--regression",
        type=float,
        default=0.5,
        help="minimum current/baseline quotient for each ratio",
    )
    args = parser.parse_args()

    with open(args.current, "r", encoding="utf-8") as f:
        cur = json.load(f)

    if cur.get("bench") != "explain_qps":
        fail(f"{args.current} is not an explain_qps benchmark result")

    for key in (
        "incremental_identical",
        "oracle_identical",
        "single_flight_computations",
        "cached_speedup",
        "incremental_speedup",
        "tail_full_hits",
        "tail_partial_hits",
        "cache_hits",
        "cache_misses",
        "cache_single_flight_waits",
    ):
        if key not in cur:
            fail(f"missing field {key!r} in {args.current}")

    failures = []

    if not cur["incremental_identical"]:
        failures.append(
            "incremental-tail explanation diverged from the archive scan — "
            "the serving layer must be bit-identical"
        )
    if not cur["oracle_identical"]:
        failures.append(
            "features built through the tails diverged from the reference "
            "oracle's"
        )
    if cur["tail_full_hits"] + cur["tail_partial_hits"] <= 0:
        failures.append(
            "incremental pass never touched the tails — the comparison "
            "never exercised the incremental path"
        )
    if cur["single_flight_computations"] != 1:
        failures.append(
            f"{cur['single_flight_computations']} computations for one cold "
            "key (want exactly 1 — single-flight dedup broken)"
        )

    cached = cur["cached_speedup"]
    incremental = cur["incremental_speedup"]
    smoke = bool(cur.get("smoke"))
    print(
        f"cached repeat {cached:.1f}x uncached "
        f"(floor {args.min_cached_speedup:.1f}x); incremental build "
        f"{incremental:.2f}x cold scan "
        f"(floor {args.min_incremental_speedup:.2f}x)"
        + (" [smoke: floors informational, baseline-regression only]"
           if smoke else "")
    )
    # The hard speedup floors describe the full workload; the smoke workload
    # is too small to amortize the tail path's per-call overhead, so smoke
    # runs are held only to the baseline-regression quotient below (the
    # full-mode wall-clock gates live in the bench binary itself).
    if not smoke:
        if cached < args.min_cached_speedup:
            failures.append(
                f"cached speedup {cached:.1f}x below floor "
                f"{args.min_cached_speedup:.1f}x"
            )
        if incremental < args.min_incremental_speedup:
            failures.append(
                f"incremental speedup {incremental:.2f}x below floor "
                f"{args.min_incremental_speedup:.2f}x"
            )

    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as f:
            base = json.load(f)
        for name, cur_val, gated in (
            ("cached_speedup", cached, False),
            ("incremental_speedup", incremental, True),
        ):
            base_val = base[name]
            quotient = cur_val / base_val if base_val > 0 else 0.0
            print(
                f"baseline {name} {base_val:.2f}x, current/baseline "
                f"{quotient:.3f} "
                + (f"(floor {args.regression:.3f})" if gated
                   else "(informational)")
            )
            if gated and quotient < args.regression:
                failures.append(
                    f"{name} regressed to {quotient:.3f} of the committed "
                    f"baseline ({cur_val:.2f}x vs {base_val:.2f}x)"
                )

        def served(d):
            return d["cache_hits"] + d["cache_single_flight_waits"]

        for name, cur_val, base_val in (
            ("cache_misses", cur["cache_misses"], base["cache_misses"]),
            ("cache_hits + cache_single_flight_waits", served(cur),
             served(base)),
        ):
            print(f"{name} {cur_val} (baseline {base_val})")
            if cur_val != base_val:
                failures.append(
                    f"{name} is {cur_val}, the committed baseline {base_val} "
                    "— the cache no longer serves the repeats it did"
                )

    if failures:
        for f_ in failures:
            print(f"FAIL: {f_}")
        sys.exit(1)
    mode = "smoke" if cur.get("smoke") else "full"
    print(
        f"PASS: explain serving gate ({mode} run, "
        f"{cur.get('events_total', '?')} events, "
        f"{cur.get('cached_qps', 0):.0f} cached QPS)"
    )


if __name__ == "__main__":
    main()
