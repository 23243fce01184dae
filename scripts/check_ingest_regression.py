#!/usr/bin/env python3
"""CI regression gate for bench_ingest_throughput.

Compares a fresh bench run against the committed baseline using only
machine-independent quantities, so a baseline recorded on one host gates runs
on any other:

  * merge speedup ratio — merged batched ev/s divided by no-merge (the
    per-query reference oracle) ev/s at the top query count, each measured
    *within its own run*. Hardware speed
    cancels out of the ratio; a >threshold drop (default 10%) fails.
  * match rows — the benches are seeded and deterministic, so every config
    must produce exactly the baseline's match rows on any machine.
  * merge groups — the planner must collapse the replicated query set into no
    more groups than the baseline did.

Absolute events/sec are printed for context but never gated: cross-machine
absolute throughput with a fixed threshold would produce false verdicts as
runner hardware varies.

Both runs must use the same bench configuration (same --smoke flag); the
script refuses to compare a smoke run against a full baseline.

Usage:
  check_ingest_regression.py BASELINE.json CURRENT.json [--threshold 0.10]
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def pick(results, queries, mode):
    for r in results:
        if r["queries"] == queries and r["mode"] == mode:
            return r
    return None


def merge_speedup(results, queries, failures, label):
    """Within-run merged/no-merge throughput ratio at `queries`."""
    merged = pick(results, queries, "batched")
    plain = pick(results, queries, "no-merge")
    if merged is None or plain is None:
        failures.append(f"{label}: missing batched/no-merge @ {queries} queries")
        return None
    if plain["events_per_sec"] <= 0:
        failures.append(f"{label}: no-merge @ {queries} queries ran at 0 ev/s")
        return None
    return merged["events_per_sec"] / plain["events_per_sec"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="max tolerated fractional drop in the merge speedup "
                         "ratio (default 0.10)")
    args = ap.parse_args()

    base = load(args.baseline)
    cur = load(args.current)

    if base.get("smoke") != cur.get("smoke"):
        print(f"FAIL: config mismatch: baseline smoke={base.get('smoke')}, "
              f"current smoke={cur.get('smoke')}")
        return 1
    if base.get("batch_size") != cur.get("batch_size"):
        print(f"FAIL: batch_size mismatch: {base.get('batch_size')} vs "
              f"{cur.get('batch_size')}")
        return 1

    top_queries = max(r["queries"] for r in base["results"])
    failures = []

    # Informational only — absolute ev/s depend on the host and are not gated.
    for mode in ("batched", "no-merge"):
        b = pick(base["results"], top_queries, mode)
        c = pick(cur["results"], top_queries, mode)
        if b is not None and c is not None:
            print(f"{mode:>9} @ {top_queries}q: baseline "
                  f"{b['events_per_sec']:,.0f} ev/s, current "
                  f"{c['events_per_sec']:,.0f} ev/s (informational)")

    # Throughput gate: the within-run merge speedup ratio. Both sides of the
    # ratio ran on the same machine seconds apart, so the comparison against
    # the baseline's ratio is hardware-independent.
    b_ratio = merge_speedup(base["results"], top_queries, failures, "baseline")
    c_ratio = merge_speedup(cur["results"], top_queries, failures, "current")
    if b_ratio is not None and c_ratio is not None:
        floor = b_ratio * (1.0 - args.threshold)
        verdict = "OK" if c_ratio >= floor else "REGRESSED"
        print(f"merge speedup @ {top_queries}q: baseline {b_ratio:,.1f}x, "
              f"current {c_ratio:,.1f}x, floor {floor:,.1f}x -> {verdict}")
        if verdict != "OK":
            failures.append(
                f"merge speedup @ {top_queries} queries dropped "
                f"{(1.0 - c_ratio / b_ratio) * 100.0:.1f}% "
                f"(> {args.threshold * 100.0:.0f}% allowed)")

    # Work-equivalence cross-check: every config must produce the same match
    # rows as its baseline counterpart — the benches are seeded, so this is
    # exact on any machine, and a throughput "win" that skips work is a
    # correctness bug, not a speedup.
    for b in base["results"]:
        c = pick(cur["results"], b["queries"], b["mode"])
        if c is not None and c["match_rows"] != b["match_rows"]:
            failures.append(
                f"{b['mode']} @ {b['queries']} queries: "
                f"match_rows {c['match_rows']} != baseline {b['match_rows']}")

    # Merge-plan gate: the optimizer must still collapse the replicated query
    # set into as few groups as the baseline did.
    b = pick(base["results"], top_queries, "batched")
    c = pick(cur["results"], top_queries, "batched")
    if b is not None and c is not None:
        print(f"merge groups @ {top_queries}q: baseline {b['merge_groups']}, "
              f"current {c['merge_groups']} (compression "
              f"{c['merge_compression']:.1f}x)")
        if c["merge_groups"] > b["merge_groups"]:
            failures.append(
                f"merge planner regressed: {c['merge_groups']} groups @ "
                f"{top_queries} queries, baseline had {b['merge_groups']}")

    if failures:
        print("\nFAIL:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nPASS: no ingest regression (ratio-gated; absolute ev/s not compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
