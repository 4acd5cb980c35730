#!/usr/bin/env python3
"""Alternating parent/change pairs of one end-to-end workload.

    python3 benchmarks/pairs.py --parent ../parent --workload gwrite_chain \\
        --pairs 10 --first-seed 301

``--parent`` is a second checkout of the commit the change is measured
against (``git archive`` or a clone). Pair ``i`` runs
``benchmarks/e2e/run.py --workload W --seed first_seed+i`` once in each
tree, in a fresh process each time, the parent first in even pairs and
the change first in odd ones, so a slow spell of the host does not land
on one side only. Nothing here measures anything itself: every number
is the last JSON line ``run.py`` prints.

For every end-to-end metric of ``BENCHMARK.json`` it prints the pairs
run, then each side's median and quartiles, how many pairs the change
won (ties count for neither side) and a verdict:

* ``identical``: every pair read the same on both sides;
* ``gain``: the change won at least nine tenths of the pairs and its
  median is better than the parent's by more than the parent's
  interquartile range, with every run correct and no more operations
  failed on the change's side than on the parent's (otherwise ``gain
  void``);
* ``worse than bound``: the change's median is worse than the parent's
  by more than the metric's bound;
* ``unresolved``: the parent's own spread (IQR over median) is wider
  than the bound, and not every change run beats every parent run;
* ``within bound``: none of the above.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
CHANGE = HERE.parent


def run_once(tree: Path, workload: str, seed: int) -> Dict:
    """One ``run.py`` run in ``tree``, at ``BENCHMARK.json``'s run
    length; returns its JSON contract line."""
    command = [sys.executable, str(tree / "benchmarks" / "e2e" / "run.py"),
               "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{tree}: run.py printed nothing\n{done.stderr}")
    return json.loads(lines[-1])


def quartiles(values: List[float]):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(metric: Dict, parent: List[float], change: List[float], sound: bool) -> str:
    """``sound`` is false when the change's runs failed more operations
    than the parent's, or any run was not correct: no gain counts then."""
    if parent == change:
        return "identical"
    lower = metric["better"] == "lower"

    def better(a: float, b: float) -> bool:
        return a < b if lower else a > b

    wins = sum(better(c, p) for p, c in zip(parent, change))
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    if wins >= 0.9 * len(parent) and better(cmed, pmed) and abs(cmed - pmed) > p3 - p1:
        return "gain" if sound else "gain void"
    worse_by = (cmed - pmed) if lower else (pmed - cmed)
    if worse_by > metric["bound"] * abs(pmed):
        return "worse than bound"
    if (p3 - p1) > metric["bound"] * abs(pmed):
        if all(better(c, p) for c in change for p in parent):
            return "within bound"
        return "unresolved"
    return "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=301)
    args = parser.parse_args(argv)

    parent_tree = args.parent.resolve()
    if not (parent_tree / "benchmarks" / "e2e" / "run.py").is_file():
        parser.error(f"{parent_tree} has no benchmarks/e2e/run.py")
    with open(CHANGE / "BENCHMARK.json") as handle:
        metrics = json.load(handle)["end_to_end"]

    runs = {"parent": [], "change": []}
    for index in range(args.pairs):
        seed = args.first_seed + index
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            tree = parent_tree if side == "parent" else CHANGE
            runs[side].append(run_once(tree, args.workload, seed))
        row = "  ".join(
            f"{side} {runs[side][-1]['metrics']['cpu_us_per_op']['value']:.1f}"
            for side in ("parent", "change")
        )
        print(f"pair {index + 1}/{args.pairs} seed {seed} ({order[0]} first): "
              f"cpu_us_per_op {row}", flush=True)

    seeds = [args.first_seed + index for index in range(args.pairs)]
    print(f"\n== {args.workload}: {args.pairs} pairs, seeds {seeds[0]}-{seeds[-1]}, "
          f"parent {parent_tree}")
    failed, correct = {}, {}
    for side in ("parent", "change"):
        attempted = sum(run["attempted"] for run in runs[side])
        failed[side] = sum(run["failed"] for run in runs[side])
        correct[side] = sum(bool(run["correct"]) for run in runs[side])
        print(f"   {side:<7} correct {correct[side]}/{args.pairs}  "
              f"failed {failed[side]}/{attempted}")
    sound = (failed["change"] <= failed["parent"]
             and correct["parent"] == correct["change"] == args.pairs)
    print("\n   per pair (parent / change):")
    print("   " + f"{'seed':>6}" + "".join(f"{m['name']:>18}" for m in metrics))
    for index, seed in enumerate(seeds):
        cells = "".join(
            f"{runs['parent'][index]['metrics'][m['name']]['value']:>10.5g}/"
            f"{runs['change'][index]['metrics'][m['name']]['value']:<7.5g}"
            for m in metrics
        )
        print(f"   {seed:>6}{cells}")
    print()
    print(f"   {'metric':<16}{'parent median [q1, q3]':>34}{'change median [q1, q3]':>34}"
          f"{'change':>9}{'wins':>7}  verdict")
    for metric in metrics:
        name = metric["name"]
        parent = [run["metrics"][name]["value"] for run in runs["parent"]]
        change = [run["metrics"][name]["value"] for run in runs["change"]]
        lower = metric["better"] == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        p1, pmed, p3 = quartiles(parent)
        c1, cmed, c3 = quartiles(change)
        moved = (cmed - pmed) / pmed * 100 if pmed else 0.0
        print(f"   {name:<16}{pmed:>14.4f} [{p1:>8.4f}, {p3:>8.4f}]"
              f"{cmed:>14.4f} [{c1:>8.4f}, {c3:>8.4f}]"
              f"{moved:>+8.1f}%{wins:>4}/{len(parent)}  {verdict(metric, parent, change, sound)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
