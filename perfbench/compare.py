"""Compare two result sets of the benchmark, metric by metric.

From the repository root::

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the lines ``run.py --out FILE`` appends, one per run.
The untraced runs of each workload present in both sets make one row:
for every end-to-end metric, the change of the medians in percent and a
mark, judged against the metric's bound in ``BENCHMARK.json``:

* ``better`` - the change wins at least nine tenths of the runs paired
  by seed (or, with no pairs, every run beats every parent run), and
  the medians differ by more than the parent's own spread;
* ``unresolved`` - the spread between runs (quartile distance over the
  median) of either side is wider than the bound, and not every run of
  the change beats every run of the parent;
* ``worse`` - the median got worse by more than the bound;
* ``within bound`` - anything else.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path) -> dict:
    """{workload: {metric: [(seed, value), ...]}} of the untraced runs."""
    runs: dict = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            row = json.loads(line)
            if row.get("trace"):
                continue
            for metric, cell in row["result"]["metrics"].items():
                runs[row["workload"]][metric].append(
                    (row["seed"], cell["value"]))
    return runs


def spread(values) -> float:
    """Quartile distance as a share of the median (inf below 2 runs)."""
    if len(values) < 2:
        return float("inf")
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else float("inf")


def judge(parent, change, bound: float, better: str) -> tuple[float, str]:
    """(relative change of the medians, mark) for one metric.

    ``parent``/``change`` are lists of (seed, value); ``better`` is
    ``"lower"`` or ``"higher"``.
    """
    sign = 1.0 if better == "higher" else -1.0
    old = [value for _, value in parent]
    new = [value for _, value in change]
    old_median, new_median = statistics.median(old), statistics.median(new)
    delta = (new_median - old_median) / abs(old_median)
    gain = sign * delta
    dominates = min(sign * v for v in new) > max(sign * v for v in old)
    old_by_seed = dict(parent)
    pairs = [(old_by_seed[seed], value) for seed, value in change
             if seed in old_by_seed]
    if pairs:
        wins = sum(sign * (b - a) > 0 for a, b in pairs) / len(pairs)
    else:
        wins = 1.0 if dominates else 0.0
    if wins >= 0.9 and gain > 0 and gain > spread(old):
        return delta, "better"
    if max(spread(old), spread(new)) > bound and not dominates:
        return delta, "unresolved"
    if -gain > bound:
        return delta, "worse"
    return delta, "within bound"


def compare(parent_path, change_path) -> list[dict]:
    """One row per workload present in both sets."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    parent, change = load_runs(parent_path), load_runs(change_path)
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in parent or workload not in change:
            continue
        cells = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            old, new = parent[workload].get(name), change[workload].get(name)
            if not old or not new:
                continue
            delta, mark = judge(old, new, metric["bound"], metric["better"])
            cells[name] = {"delta": delta, "mark": mark,
                           "runs": [len(old), len(new)]}
        rows.append({"workload": workload, "metrics": cells})
    return rows


def render(rows) -> str:
    lines = []
    for row in rows:
        cells = "  ".join(
            f"{name} {cell['delta']:+.1%} {cell['mark']}"
            for name, cell in row["metrics"].items()
        )
        lines.append(f"{row['workload']:<12} {cells}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    rows = compare(args.parent, args.change)
    print(json.dumps(rows, indent=2) if args.json else render(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
