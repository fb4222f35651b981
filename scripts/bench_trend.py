#!/usr/bin/env python3
"""Compare a fresh `experiments --bench-json` record against the
committed quick-scale baseline in BENCH_experiments.json.

Usage:
    scripts/bench_trend.py CURRENT.json [--baseline BENCH_experiments.json]
                           [--section quick] [--factor 2.0] [--floor-ms 50]

Per experiment, the current wall-clock may not exceed
`factor * max(baseline_ms, floor_ms)` — the floor keeps sub-noise
timings (a 1 ms experiment jittering to 3 ms) from tripping the gate,
while a genuine perf regression (>2x on anything that takes real time)
fails CI. Row counts are deterministic at a fixed scale and must match
exactly; a drop means an experiment silently lost coverage.

Exit status: 0 clean, 1 regression(s) found, 2 usage/shape error.
Stdlib only; no third-party dependencies.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_trend: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def by_id(record, side):
    entries = {}
    for position, entry in enumerate(record.get("experiments", [])):
        if "id" not in entry:
            print(
                f"bench_trend: records incomparable — the {side} record's "
                f"experiment at position {position} has no `id` key",
                file=sys.stderr,
            )
            sys.exit(2)
        entries[entry["id"]] = entry
    return entries


def field(entry, exp_id, side, key):
    """A required key, or a shape error naming which side is missing it."""
    if key not in entry:
        print(
            f"bench_trend: records incomparable — the {side} record's "
            f"`{exp_id}` entry has no `{key}` key",
            file=sys.stderr,
        )
        sys.exit(2)
    return entry[key]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("current", help="bench json written by `experiments --bench-json`")
    ap.add_argument("--baseline", default="BENCH_experiments.json")
    ap.add_argument("--section", default="quick",
                    help="top-level key of the baseline file holding the reference record")
    ap.add_argument("--factor", type=float, default=2.0,
                    help="fail when current > factor * max(baseline, floor)")
    ap.add_argument("--floor-ms", type=float, default=50.0,
                    help="noise floor: baselines below this compare against the floor")
    args = ap.parse_args()

    current = load(args.current)
    baseline_file = load(args.baseline)
    baseline = baseline_file.get(args.section)
    if baseline is None:
        print(f"bench_trend: no `{args.section}` section in {args.baseline}", file=sys.stderr)
        sys.exit(2)

    if current.get("scale") != baseline.get("scale"):
        print(
            f"bench_trend: scale mismatch — current `{current.get('scale')}` "
            f"vs baseline `{baseline.get('scale')}`; comparison is meaningless",
            file=sys.stderr,
        )
        sys.exit(2)

    base, cur = by_id(baseline, "baseline"), by_id(current, "current")
    missing = sorted(set(base) - set(cur))
    if missing:
        print(f"bench_trend: experiments missing from current run: {', '.join(missing)}",
              file=sys.stderr)
        sys.exit(2)

    failures = []
    machine = baseline.get("machine") or baseline_file.get("machine", "unknown machine")
    print(f"baseline `{args.section}` at {baseline.get('git_revision', '?')}, "
          f"{baseline.get('threads', '?')} thread(s) on {machine}")
    print(f"{'id':>10}  {'base ms':>8}  {'cur ms':>8}  {'limit':>8}  {'rows':>9}  verdict")
    for exp_id, b in sorted(base.items()):
        c = cur[exp_id]
        base_wall = field(b, exp_id, "baseline", "wall_clock_ms")
        limit = args.factor * max(float(base_wall), args.floor_ms)
        wall = float(field(c, exp_id, "current", "wall_clock_ms"))
        row_note = ""
        ok = True
        if wall > limit:
            ok = False
            failures.append(f"{exp_id}: {wall:.0f} ms > {limit:.0f} ms limit")
        if "rows" in b and c.get("rows") != b["rows"]:
            ok = False
            row_note = f" rows {c.get('rows')}≠{b['rows']}"
            failures.append(f"{exp_id}: row count {c.get('rows')} != baseline {b['rows']}")
        rows = f"{c.get('rows', '?')}/{b.get('rows', '?')}"
        print(f"{exp_id:>10}  {base_wall:>8}  {wall:>8.0f}  {limit:>8.0f}  "
              f"{rows:>9}  {'ok' if ok else 'FAIL' + row_note}")

    extra = sorted(set(cur) - set(base))
    if extra:
        print(f"note: experiments not in baseline (unchecked): {', '.join(extra)}")

    if failures:
        print(f"\nbench_trend: {len(failures)} regression(s):", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        sys.exit(1)
    print("\nbench_trend: all experiments within budget")


if __name__ == "__main__":
    main()
