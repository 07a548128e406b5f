#!/usr/bin/env python3
"""A/B comparison of two sets of mlid_perf run records (stdlib only).

    python3 bench/perf/compare.py PARENT CHANGE [--bench BENCHMARK.json]

PARENT and CHANGE are each a directory of run records (run.sh --runs-dir)
or a baseline file holding a "runs" list, such as baselines/4core.json.
Untraced runs pair up per workload in the order they started; take at least
ten per side and alternate which commit runs first.

For every workload and end-to-end metric the script prints each side's
median and quartiles and one verdict:

  REGRESSION  the change's median is worse than the parent's by more than
              the metric's bound (setup_s: the bound or 5 ms, whichever
              is larger)
  gain        at least 10 pairs, the change wins at least 9/10 of them
              (ties count for neither) and the medians differ by more than
              the parent's interquartile range
  unresolved  either side's interquartile range exceeds the bound and not
              every change run beats every parent run
  same        none of the above

fail_frac (failed / attempted operations over all runs) regresses on any
increase.  It also prints the ft16 shard speed-up, wall_s(ft16-1shard) /
wall_s(ft16-4shard), with its quartiles.  Exits 1 on any regression.
"""

import argparse
import json
import pathlib
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent
ABSOLUTE_FLOOR = {"setup_s": 0.005}  # seconds a set-up may always add
MIN_PAIRS_FOR_GAIN = 10


def load_runs(path):
    """Untraced run records, by workload, from a directory or baseline file."""
    path = pathlib.Path(path)
    if path.is_dir():
        records = [json.loads(p.read_text())
                   for p in sorted(path.glob("*.json"))]
    elif path.is_file():
        records = json.loads(path.read_text())["runs"]
    else:
        sys.exit(f"error: {path} is neither a directory nor a file")
    runs = {}
    for r in sorted(records, key=lambda r: r["started_unix"]):
        if not r["traced"]:
            runs.setdefault(r["workload"], []).append(r)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fmt(v):
    return f"{v:.0f}" if abs(v) >= 1e4 else f"{v:.4g}"


def verdict(parent, change, better, bound, floor):
    """One comparison of two lists of values; returns (verdict, detail)."""
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    spread = max((p3 - p1) / abs(pm) if pm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    every_run_better = all(sign * (c - p) < 0 for p in parent for c in change)
    if sign * (cm - pm) > max(bound * abs(pm), floor):
        result = "REGRESSION"
    elif (len(pairs) >= MIN_PAIRS_FOR_GAIN and wins >= 0.9 * len(pairs)
          and abs(cm - pm) > p3 - p1):
        result = "gain"
    elif spread > bound and not every_run_better:
        result = "unresolved"
    else:
        result = "same"
    delta = (cm - pm) / abs(pm) if pm else 0.0
    detail = (f"{fmt(pm)} [{fmt(p1)}, {fmt(p3)}]",
              f"{fmt(cm)} [{fmt(c1)}, {fmt(c3)}]",
              f"{delta:+.1%}", f"{wins}/{len(pairs)}", f"{spread:.1%}")
    return result, detail


def print_table(title, header, rows):
    print(title)
    widths = [max(len(str(x)) for x in col) for col in zip(header, *rows)]
    for row in [header, *rows]:
        print("  " + "  ".join(str(x).ljust(w) for x, w in zip(row, widths)))
    print()


def speedup(runs):
    one, four = runs.get("ft16-1shard", []), runs.get("ft16-4shard", [])
    ratios = [a["metrics"]["wall_s"]["value"] / b["metrics"]["wall_s"]["value"]
              for a, b in zip(one, four)]
    if not ratios:
        return "n/a (needs ft16-1shard and ft16-4shard runs)"
    q1, qm, q3 = quartiles(ratios)
    return f"{qm:.2f}x [{q1:.2f}, {q3:.2f}] over {len(ratios)} pairs"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--bench", default=HERE.parent.parent / "BENCHMARK.json",
                    help="BENCHMARK.json with the metrics' bounds")
    args = ap.parse_args()
    metrics = json.loads(pathlib.Path(args.bench).read_text())["end_to_end"]
    parent, change = load_runs(args.parent), load_runs(args.change)
    workloads = [w for w in parent if w in change]
    for w in sorted(set(parent) ^ set(change)):
        print(f"note: {w} has runs on one side only; skipped")
    if not workloads:
        sys.exit("error: no workload has runs on both sides")

    regressions = 0
    header = ["workload", "parent median [q1, q3]", "change median [q1, q3]",
              "delta", "pairs won", "IQR/median", "verdict"]
    for m in metrics:
        rows = []
        for w in workloads:
            values = [[r["metrics"][m["name"]]["value"] for r in side[w]]
                      for side in (parent, change)]
            result, detail = verdict(*values, m["better"], m["bound"],
                                     ABSOLUTE_FLOOR.get(m["name"], 0.0))
            regressions += result == "REGRESSION"
            rows.append([w, *detail, result])
        print_table(f"{m['name']} ({m['unit']}, {m['better']} is better, "
                    f"bound {m['bound']:.0%})", header, rows)

    rows = []
    for w in workloads:
        fracs = [sum(r["failed"] for r in side[w]) /
                 sum(r["attempted"] for r in side[w])
                 for side in (parent, change)]
        result = "REGRESSION" if fracs[1] > fracs[0] else "same"
        regressions += result == "REGRESSION"
        rows.append([w, f"{fracs[0]:.4g}", f"{fracs[1]:.4g}", result])
    print_table("fail_frac (failed / attempted ops, any increase regresses)",
                ["workload", "parent", "change", "verdict"], rows)

    print(f"ft16 shard speed-up, parent: {speedup(parent)}")
    print(f"ft16 shard speed-up, change: {speedup(change)}")
    if regressions:
        print(f"\n{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
