"""Alternating benchmark pairs of two source trees.

Usage, from the root of a source checkout::

    python3 tools/pairs.py --parent PARENT_TREE --new NEW_TREE \\
        --workload exact-probemax --seeds 2011-2020 \\
        --workload ptas-e2e --seeds 2021-2023 --seconds 20 --out pairs.json

Each ``--workload`` takes the ``--seeds`` given after it, one pair per
seed.  A pair runs ``bench/run.py --workload W --seed S --seconds T
--trace 0`` once from each tree, one process at a time; even pairs run the
parent first, odd pairs the new tree first, so a drift in machine speed
does not favour one side.  The output holds every run, with its result
and comment lines, and per workload and end-to-end metric the medians of
both sides, the parent's interquartile range (numpy's linear 75th minus
25th percentile) and the number of pairs in which the new tree is strictly
better, in the direction ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "new")


def parse_seeds(text: str) -> list[int]:
    """``"5"``, ``"5,7"`` or ``"5-9"`` (inclusive), and commas of these."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark process in ``tree``: its exit code, the JSON object on
    its last line (``None`` if there is none) and its comment lines."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    comments = [line for line in lines if line.startswith("#")]
    comments += [line for line in proc.stderr.splitlines() if line.startswith("#")]
    return {"returncode": proc.returncode, "result": result, "comments": comments}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per end-to-end metric: both medians, the parent's IQR, new wins."""
    by_pair: dict[int, dict[str, dict]] = {}
    for run in runs:
        if run["result"] is not None:
            by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]["metrics"]
    pairs = [sides for sides in by_pair.values() if len(sides) == 2]
    summary = {}
    for name, direction in better.items():
        values = [(sides["parent"][name]["value"], sides["new"][name]["value"])
                  for sides in pairs if name in sides["parent"] and name in sides["new"]]
        if not values:
            continue
        parent, new = np.array(values).T
        q1, q3 = np.percentile(parent, [25, 75])
        wins = new > parent if direction == "higher" else new < parent
        summary[name] = {"parent_median": float(np.median(parent)),
                         "new_median": float(np.median(new)),
                         "parent_iqr": float(q3 - q1), "new_wins": int(wins.sum()),
                         "pairs": len(values), "better": direction}
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's source tree")
    parser.add_argument("--new", type=Path, required=True, help="the changed source tree")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", action="append", required=True, type=parse_seeds,
                        help="seeds of the preceding --workload, one pair each: 5,7 or 5-9")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if len(args.workload) != len(args.seeds):
        parser.error("give one --seeds after each --workload")
    if len(set(args.workload)) != len(args.workload):
        parser.error("give each --workload once")
    trees = {"parent": args.parent.resolve(), "new": args.new.resolve()}
    for side, tree in trees.items():
        if not (tree / "bench" / "run.py").is_file():
            parser.error(f"--{side} {tree} has no bench/run.py")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    better = {metric["name"]: metric["better"] for metric in declared}

    runs = []
    for workload, seeds in zip(args.workload, args.seeds):
        for pair, seed in enumerate(seeds):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                run = {"side": side, "workload": workload, "seed": seed, "pair": pair,
                       "first": order[0], "seconds": args.seconds, "trace": 0,
                       **run_once(trees[side], workload, seed, args.seconds)}
                runs.append(run)
                print(f"# {workload} pair {pair} seed {seed} {side}: "
                      f"exit {run['returncode']}", file=sys.stderr)

    doc = {
        "command": (f"python3 bench/run.py --workload W --seed S --seconds {args.seconds:g} "
                    "--trace 0, run from each side's source tree"),
        "protocol": ("alternating pairs: even pairs run the parent first, odd pairs the "
                     "new tree first; one process at a time; parent_iqr is numpy's linear "
                     "75th minus 25th percentile of the parent's runs; new_wins counts "
                     "pairs where the new tree is strictly better"),
        "machine": {"cpu": _cpu(), "cpus": os.cpu_count(),
                    "python": platform.python_version(), "numpy": np.__version__,
                    "os": platform.system()},
        "seeds": {w: s for w, s in zip(args.workload, args.seeds)},
        "summary": {w: summarize([r for r in runs if r["workload"] == w], better)
                    for w in args.workload},
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    failed = [r for r in runs if r["returncode"] != 0 or r["result"] is None]
    return 1 if failed else 0


def _cpu() -> str:
    """The processor's model name, where the system reports it."""
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


if __name__ == "__main__":
    sys.exit(main())
