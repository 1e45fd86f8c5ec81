"""PTAS guard shapes, timed from two source trees.

Usage, from the root of a source checkout::

    python3 tools/ladder.py --parent PARENT_TREE --new NEW_TREE \\
        [--shape ladder-12/4 --shape target-star-13 ...] [--repeats 5] [--out ladder.json]

The benchmark's PTAS workloads are all depth-2 stars of few leaf keys at
block budget 4 or 6.  Next to a ptas-wide input, these shapes are not:
the Probemax ladder 12/4 and 16/6 at depth 3; a star of 13 leaf keys on a
target kernel; and two Probemax stars of many covers at block budget 6,
with six outcomes per item, one on the 13-level greedy grid (a union star
of 8 nodes) and one on 12 levels (a union star of 12).  Each repeat
solves every shape once from each
tree, each solve in a process of its own that imports ``stochprobe`` from
that tree's ``src``; even repeats run the parent first, odd repeats the
new tree first.  A process builds its input, then times one
``solve_ptas`` with ``perf_counter`` and reads its peak RSS
(``ru_maxrss``) after it.

Printed (and written to ``--out``), one JSON object: per shape and side
the median wall time and median peak RSS over the repeats, the solve's
``dp_runs`` and ``states_explored``, and a digest of (value, tree repr,
``best_topology``, ``best_surrogate``, ``candidates``, ``materialized``);
and whether every run of both sides gave the same digest.  Exits 1 when
a run fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "new")

#: Shape name -> (kind, arguments), smallest first.  A "greedy" Probemax
#: is on the 13-level greedy grid, seeded as ``bench/workloads._probemax(0,
#: label, 0, n, m)`` where a label is given; "levels12" is a Probemax on 12
#: levels.
SHAPES = {
    "wide-star": ("greedy", {"label": "ptas-wide", "n": 4, "m": 2, "support": 3,
                             "levels": 8, "budget": 4}),
    "support6-star": ("greedy", {"seed": 2, "n": 4, "m": 2, "support": 6, "levels": 10,
                                 "budget": 6}),
    "support6-star-12": ("levels12", {"seed": 3, "n": 4, "m": 2, "support": 6,
                                      "budget": 6}),
    "target-star-13": ("target", {"n": 6, "m": 2, "budget": 4}),
    "ladder-12/4": ("greedy", {"label": "cross", "n": 12, "m": 4, "support": 3,
                               "levels": 8, "budget": 4}),
    "ladder-16/6": ("greedy", {"label": "cross", "n": 16, "m": 6, "support": 3,
                               "levels": 8, "budget": 4}),
}


def build(name: str):
    """The (instance, knobs) of shape ``name``, from the ``stochprobe`` on
    ``sys.path``.  The knobs are the ROADMAP ladder's: grid 0.125, eps
    0.3, depth 3, top_k 32."""
    from stochprobe import PtasKnobs, build_probemax, build_target
    from stochprobe.harness import GenParams, gen_random
    from stochprobe.harness.gen import stream

    kind, args = SHAPES[name]
    if kind == "target":
        seed = int(stream(0, "target-x", args["n"]).integers(0, 2 ** 63))
        spec = gen_random(seed, GenParams(kind="target", n=args["n"], m=args["m"], support=3,
                                          q=8, step=0.04, eps=0.2, lossless=False))
        instance, _ = build_target(spec)
        hint = "terminal_bound"
    elif kind == "levels12":
        spec = gen_random(args["seed"], GenParams(kind="probemax", n=args["n"], m=args["m"],
                                                  support=args["support"], levels=12, q=8,
                                                  step=1.0))
        instance, _ = build_probemax(spec, step=1.0, theta=11.0)
        hint = "exact"
    else:
        seed = args.get("seed")
        if seed is None:
            seed = int(stream(0, args["label"], 0).integers(0, 2 ** 63))
        spec = gen_random(seed, GenParams(kind="probemax", n=args["n"], m=args["m"],
                                          support=args["support"], levels=args["levels"],
                                          q=8, step=1.0, eps=0.3))
        instance, _ = build_probemax(spec)
        hint = "greedy_probemax"
    knobs = PtasKnobs(eps=0.3, grid=0.125, block_budget=args["budget"], depth_limit=3,
                      top_k=32, max_hint=hint)
    return instance, knobs


def child(name: str, src: Path) -> dict:
    """Solve shape ``name`` once with the ``stochprobe`` under ``src``."""
    sys.path.insert(0, str(src))
    import stochprobe
    from stochprobe import solve_ptas

    if not Path(stochprobe.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"stochprobe imported from {stochprobe.__file__}, not {src}")
    instance, knobs = build(name)
    start = time.perf_counter()
    result = solve_ptas(instance, knobs)
    wall = time.perf_counter() - start
    d = result.diagnostics
    answer = (result.value, repr(result.tree), d.best_topology, d.best_surrogate,
              d.candidates, d.materialized)
    return {"wall_s": wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "dp_runs": d.dp_runs, "states_explored": d.states_explored,
            "digest": hashlib.sha256(repr(answer).encode()).hexdigest()[:16]}


def run_once(tree: Path, name: str) -> dict:
    """One child process solving ``name`` from ``tree``: its exit code and
    the JSON object on its last line (None if there is none)."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child", name,
                           "--src", str(tree / "src")],
                          capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return {"returncode": proc.returncode, "result": result,
            "stderr": proc.stderr.strip().splitlines()[-3:]}


def summarize(runs: list[dict]) -> dict:
    """Per side: median wall time and peak RSS, the counts, the digest."""
    out: dict = {}
    digests = set()
    for side in SIDES:
        results = [r["result"] for r in runs if r["side"] == side and r["result"]]
        if not results:
            continue
        digests.update(r["digest"] for r in results)
        out[side] = {"wall_s": statistics.median(r["wall_s"] for r in results),
                     "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
                     "dp_runs": results[0]["dp_runs"],
                     "states_explored": results[0]["states_explored"],
                     "digest": results[0]["digest"], "runs": len(results)}
    both = len(out) == len(SIDES)
    if both:
        out["wall_ratio"] = out["new"]["wall_s"] / out["parent"]["wall_s"]
    out["digests_agree"] = both and len(digests) == 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="the parent's source tree")
    parser.add_argument("--new", type=Path, help="the changed source tree")
    parser.add_argument("--shape", action="append", choices=sorted(SHAPES),
                        help="a shape to run (repeatable; default: all)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--child", choices=sorted(SHAPES), help=argparse.SUPPRESS)
    parser.add_argument("--src", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.child, args.src)))
        return 0
    if args.parent is None or args.new is None:
        parser.error("give --parent and --new")
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    trees = {"parent": args.parent.resolve(), "new": args.new.resolve()}
    for side, tree in trees.items():
        if not (tree / "src" / "stochprobe").is_dir():
            parser.error(f"--{side} {tree} has no src/stochprobe")
    names = [name for name in SHAPES if name in (args.shape or SHAPES)]

    runs = []
    for repeat in range(args.repeats):
        order = SIDES if repeat % 2 == 0 else SIDES[::-1]
        for name in names:
            for side in order:
                run = {"shape": name, "side": side, "repeat": repeat,
                       **run_once(trees[side], name)}
                runs.append(run)
                print(f"# {name} repeat {repeat} {side}: exit {run['returncode']}",
                      file=sys.stderr)
    doc = {
        "command": "python3 tools/ladder.py " + " ".join(sys.argv[1:] if argv is None else argv),
        "protocol": ("one solve_ptas per process; even repeats run the parent first, odd "
                     "repeats the new tree first; medians over the repeats"),
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "os": platform.system()},
        "shapes": {name: summarize([r for r in runs if r["shape"] == name]) for name in names},
        "runs": runs,
    }
    text = json.dumps(doc, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    return 1 if any(r["returncode"] != 0 or r["result"] is None for r in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
