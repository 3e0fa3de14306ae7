#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark results.

Usage::

    python3 benchmarks/e2e/compare.py --base a.jsonl [more ...] \\
        --head b.jsonl [more ...]

Each file holds the JSON records ``run.py --out`` appends, one per
workload run; traced records are skipped.  For every workload and
end-to-end metric the comparison prints each side's median and quartiles,
how many of the paired runs (the i-th base run against the i-th head run)
the head side won, and a verdict against the metric's bound from
``BENCHMARK.json`` (metrics it does not name take their bound from the
benchmark's catalogue):

* ``worse``: the head median is worse than the base median by more
  than the bound;
* ``improved``: the head wins at least nine tenths of the pairs and its
  median beats the base median by more than the distance between the
  base quartiles;
* ``unresolved``: the base spread (quartile distance over median) is
  wider than the bound and not every head run beats every base run;
* ``no worse``: otherwise.

Runs of one side with the same workload, seed, budget and scale must
share a digest; a mismatch is flagged.  Exit status 1 when any metric is
worse or a digest mismatches, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent.parent / "BENCHMARK.json"


def load(paths) -> list[dict]:
    """Untraced records from ``paths``, in file order."""
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            records.extend(json.loads(line) for line in fh if line.strip())
    return [record for record in records if not record.get("trace")]


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base, head, better: str, bound: float) -> tuple[str, int, int]:
    """(verdict, head wins, pairs) of one metric's two samples."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = min(len(base), len(head))
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    q1, base_median, q3 = quartiles(base)
    gain = sign * (statistics.median(head) - base_median)
    scale = abs(base_median)
    if scale:
        worse_by, spread = -gain / scale, (q3 - q1) / scale
    else:
        worse_by, spread = (0.0 if gain >= 0 else float("inf")), 0.0
    if worse_by > bound:
        return "worse", wins, pairs
    if gain > 0 and gain > q3 - q1 and wins >= 0.9 * pairs:
        return "improved", wins, pairs
    all_better = min(sign * h for h in head) > max(sign * b for b in base)
    if spread > bound and not all_better:
        return "unresolved", wins, pairs
    return "no worse", wins, pairs


def digest_mismatches(records) -> list[str]:
    """Workload/seed groups of one side whose runs disagree on output."""
    digests = defaultdict(set)
    for r in records:
        key = (r["workload"], r["seed"], r["seconds"], r["scale"])
        digests[key].add(r["digest"])
    return [
        f"{workload} seed {seed}: {sorted(found)}"
        for (workload, seed, _, _), found in sorted(digests.items())
        if len(found) > 1
    ]


def _summary(values) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def compare(base_records, head_records, bounds, catalogue):
    """Report lines, and whether the comparison passes.

    Args:
        base_records: records of the base side.
        head_records: records of the head side.
        bounds: metric name → bound.
        catalogue: metric name → ``(unit, better)``, in report order.
    """
    ok = True
    lines = []
    for side, records in (("base", base_records), ("head", head_records)):
        for mismatch in digest_mismatches(records):
            lines.append(f"DIGEST MISMATCH ({side}) {mismatch}")
            ok = False
    lines.append(
        f"{'workload':24} {'metric':18} {'base median [q1, q3]':>34} "
        f"{'head median [q1, q3]':>34} {'wins':7} verdict"
    )
    workloads = {r["workload"] for r in base_records}
    workloads &= {r["workload"] for r in head_records}
    for workload in sorted(workloads):
        base = [r["metrics"] for r in base_records if r["workload"] == workload]
        head = [r["metrics"] for r in head_records if r["workload"] == workload]
        for name, (unit, better) in catalogue.items():
            base_values = [m[name] for m in base if name in m]
            head_values = [m[name] for m in head if name in m]
            if not base_values or not head_values:
                continue
            result, wins, pairs = verdict(
                base_values, head_values, better, bounds[name]
            )
            ok = ok and result != "worse"
            lines.append(
                f"{workload:24} {name:18} {_summary(base_values):>34} "
                f"{_summary(head_values):>34} {wins:>3}/{pairs:<3} "
                f"{result} ({unit})"
            )
    return lines, ok


def main(argv=None) -> int:
    """Compare result files; return the exit status."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    from metrics import END_TO_END

    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    bounds = {m.name: m.bound for m in END_TO_END}
    bounds.update({m["name"]: m["bound"] for m in bench["end_to_end"]})
    catalogue = {m.name: (m.unit, m.better) for m in END_TO_END}
    lines, ok = compare(load(args.base), load(args.head), bounds, catalogue)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
