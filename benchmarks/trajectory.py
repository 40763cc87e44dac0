"""Append perfbench results to the checked-in performance trajectory.

Each call runs ``perfbench/run.py`` in a checkout, takes the row it
writes with ``--out`` and appends it to ``benchmarks/trajectory.jsonl``
tagged with what was measured and where::

    python3 benchmarks/trajectory.py --workload paper-sweep --seed 0
    python3 benchmarks/trajectory.py --checkout ../parent --label parent \\
        --workload functional

Tags: ``commit`` and ``parent``: on a clean checkout its ``HEAD`` and
``HEAD^``; when tracked files differ from ``HEAD`` (``dirty``), the row
measures an uncommitted change, so ``parent`` is ``HEAD`` and ``commit``
is ``git stash create``'s commit of the working tree on top of it (it
touches neither the index nor the files; each call makes its own, and
git keeps it only while it keeps unreachable objects).  The log itself
is left out of the check, so appending a row never makes a committed
tree dirty.  Also ``label``, ``nproc``, ``python``, ``utc``, the
workload and the seed; every run uses perfbench's own run length.
The perfbench row itself is kept unchanged under ``row``.  Rows are
only ever appended, so the file is the history of every measured
change; compare two labels' rows with ``perfbench/compare.py`` after
extracting them (``--extract LABEL`` prints one label's rows in
perfbench's own format).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LOG_PATH = "benchmarks/trajectory.jsonl"
LOG = ROOT / LOG_PATH
WORKLOADS = ("paper-sweep", "functional", "fleet-cold")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="repeatable; default: all three")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--checkout", default=str(ROOT),
                        help="the tree to measure (default: this one)")
    parser.add_argument("--label", default="",
                        help="free text, such as parent or change")
    parser.add_argument("--log", default=str(LOG))
    parser.add_argument("--extract", metavar="LABEL",
                        help="print the rows of LABEL as perfbench rows "
                             "and exit")
    return parser.parse_args(argv)


def git(checkout: str, *args: str) -> str:
    """Output of a git command in ``checkout``; empty if it fails."""
    done = subprocess.run(["git", "-C", checkout, *args],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else ""


def tags(checkout: str, label: str) -> dict:
    """What the rows of one call measured: the tree, machine, interpreter."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    head = git(checkout, "rev-parse", "--short=12", "HEAD")
    dirty = bool(git(checkout, "status", "--porcelain", "--untracked-files=no",
                     "--", ".", f":(exclude){LOG_PATH}"))
    if dirty:
        commit, parent = git(checkout, "stash", "create")[:12], head
    else:
        commit, parent = head, git(checkout, "rev-parse", "--short=12",
                                   "HEAD^")
    return {"commit": commit, "parent": parent, "dirty": dirty,
            "label": label, "nproc": nproc,
            "python": platform.python_version()}


def run_once(checkout: str, workload: str, seed: int) -> dict:
    """One untraced perfbench run in ``checkout``; its ``--out`` row."""
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "row.jsonl"
        subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--out", str(out)],
            cwd=checkout, check=True, stdout=subprocess.DEVNULL,
        )
        return json.loads(out.read_text(encoding="utf-8").splitlines()[-1])


def extract(log: str, label: str) -> int:
    with open(log, encoding="utf-8") as handle:
        for line in handle:
            entry = json.loads(line)
            if entry["label"] == label:
                print(json.dumps(entry["row"]))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.extract is not None:
        return extract(args.log, args.extract)
    measured = tags(args.checkout, args.label)
    for workload in args.workload or WORKLOADS:
        row = run_once(args.checkout, workload, args.seed)
        entry = {**measured,
                 "utc": datetime.now(timezone.utc).isoformat(
                     timespec="seconds"),
                 "workload": workload, "seed": args.seed, "row": row}
        with open(args.log, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry) + "\n")
        metrics = row["result"]["metrics"]
        print(f"{entry['label'] or entry['commit']} {workload} "
              f"seed={args.seed} correct={row['result']['correct']} "
              + " ".join(f"{name}={value['value']:.4g}"
                         for name, value in metrics.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
