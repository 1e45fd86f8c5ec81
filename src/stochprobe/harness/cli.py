"""Command-line front end.

Subcommands cover the full workflow: generate a spec, compile and solve
it exactly, run the approximation pipeline, score baselines, replay a
policy by sampling, run an acceptance suite, and validate a document.
``simulate`` checks a policy document with ``validate_policy_tree``
before it replays it, so an infeasible policy exits 2; a block document
gets only the checks of the block walk.
Exit codes: 0 success, 1 failed assertion or non-compliant input, 2
usage, malformed input or any other package error (a
``StochprobeError``), such as a refused ``suite --set`` override, an
unwritable ``--out`` path, a non-finite number in a document or a
scale or result that overflows to inf; 3 capacity overrun, such as a
builder past ``problems.LEVEL_CAP`` or an sbk spec whose scale estimate
(``sbk_opt_exact``) passes ``problems.REFERENCE_CAP``, including input
nested deeper than Python's recursion limit (a RecursionError from JSON
decoding).
Policy and block documents are flat tables, so only nested non-tree
JSON, such as a deeply nested ``meta``, gets there.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from ..exact import optimal_policy, solve
from ..exceptions import CapacityError, ParameterError, StochprobeError, UsageError
from ..model import (Instance, PolicyNode, evaluate_policy, validate_instance,
                     validate_policy_tree)
from ..problems import (KINDS, LEVEL_CAP, ProblemSpec, _on_grid, build_committed,
                        build_probemax, build_probetopk, build_sbk, build_target,
                        expected_max, greedy_probemax, sbk_from_skp, skp_kernel,
                        weitzman)
from ..ptas import PtasKnobs, solve_ptas
from .gen import GenParams, gen_random
from .io import (parse_instance, parse_policy_or_block, serialize_block_tree,
                 serialize_instance, serialize_spec)
from .sim import simulate
from .suites import SUITES, RunConfig, _write_text, run_suite

__all__ = ["main"]


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from exc


def _write_out(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    _write_text(path, text)


def _emit(doc: dict[str, object]) -> None:
    try:
        text = json.dumps(doc, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise StochprobeError("the result holds a number that is not finite") from exc
    sys.stdout.write(text + "\n")


def _build_kernel(spec: ProblemSpec) -> Instance:
    """Compile a problem spec with its default knobs.  Probemax-family
    specs whose greedy reference value is zero fall back to a unit grid
    so degenerate inputs still compile."""
    if spec.kind in ("probemax", "probetopk"):
        build = build_probemax if spec.kind == "probemax" else build_probetopk
        if expected_max(list(spec.items)) <= 0.0:
            return build(spec, step=1.0, theta=1.0)[0]
        return build(spec)[0]
    if spec.kind in ("committed_probetopk", "committed_pandora"):
        return build_committed(spec)
    if spec.kind == "target":
        return build_target(spec)[0]
    return build_sbk(spec)[0]


def _load_kernel(path: str) -> Instance:
    obj = parse_instance(_read(path))
    if isinstance(obj, Instance):
        return obj
    return _build_kernel(obj)


def _cmd_gen(args: argparse.Namespace) -> int:
    params = GenParams(kind=args.kind, n=args.n, m=args.m, k=args.k,
                       support=args.support, levels=args.levels, q=args.q,
                       step=args.step, eps=args.eps, lossless=args.lossless)
    spec = gen_random(args.seed, params)
    _write_out(serialize_spec(spec), args.out)
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    instance = _load_kernel(args.path)
    value, stats = solve(instance)
    _emit({"optimal_value": value, **dataclasses.asdict(stats)})
    return 0


def _cmd_ptas(args: argparse.Namespace) -> int:
    instance = _load_kernel(args.path)
    knobs = PtasKnobs(eps=args.eps, grid=args.grid, block_budget=args.blocks,
                      depth_limit=args.depth, top_k=args.topk)
    result = solve_ptas(instance, knobs)
    if args.out:
        _write_out(serialize_block_tree(result.tree), args.out)
    diag = result.diagnostics
    _emit({"value": result.value, **dataclasses.asdict(diag), "partial": diag.partial})
    return 0


def _sbk14_step(spec: ProblemSpec) -> float:
    """The size grid of an sbk spec's knapsack kernel: the step ``capacity /
    k`` of the smallest ``k`` of at least ``ceil(capacity / eps^2)`` that
    puts the capacity and every size at or below it on the grid.  The
    kernel is exact on any grid that holds every size, so its values do
    not depend on ``k``.  A grid past ``LEVEL_CAP`` levels (``k`` plus the
    empty and overflow levels) raises ``CapacityError``."""
    capacity = spec.capacity or 1.0
    sizes = {capacity} | {x for pmf in spec.items for x, _p in pmf.support()
                          if x <= capacity}
    for k in range(math.ceil(capacity / (spec.eps * spec.eps)), LEVEL_CAP - 1):
        try:
            for x in sizes:
                _on_grid(x, capacity / k)
        except ParameterError:
            continue
        return capacity / k
    raise CapacityError(f"the sbk14 size grid needs more than {LEVEL_CAP} levels")


def _cmd_baseline(args: argparse.Namespace) -> int:
    obj = parse_instance(_read(args.path))
    if args.algo == "greedy":
        if not isinstance(obj, ProblemSpec) or obj.kind != "probemax":
            raise UsageError("baseline greedy needs a probemax problem spec")
        picks, value = greedy_probemax(obj)
        _emit({"algo": "greedy", "picks": list(picks), "value": value})
        return 0
    if args.algo == "weitzman":
        if not isinstance(obj, ProblemSpec) or obj.costs is None:
            raise UsageError("baseline weitzman needs a pandora problem spec with costs")
        order, value = weitzman(obj.costs, obj.items)
        _emit({"algo": "weitzman", "order": [box for box, _cap in order],
               "caps": [cap for _box, cap in order], "value": value})
        return 0
    if isinstance(obj, ProblemSpec):
        if obj.kind != "sbk":
            raise UsageError("baseline sbk14 needs an sbk spec or a knapsack kernel")
        kernel = skp_kernel(obj.items, obj.profits, capacity=obj.capacity or 1.0,
                            step=_sbk14_step(obj))
    else:
        kernel = obj
        if kernel.meta.get("kind") != "skp":
            raise UsageError("baseline sbk14 needs an sbk spec or a knapsack kernel")
    tree = optimal_policy(kernel)
    skp_value = evaluate_policy(kernel, tree)
    _stree, sbk_value = sbk_from_skp(kernel, tree)
    _emit({"algo": "sbk14", "skp_value": skp_value, "sbk_value": sbk_value})
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    instance = _load_kernel(args.path)
    policy = parse_policy_or_block(_read(args.policy))
    if isinstance(policy, PolicyNode):
        validate_policy_tree(instance, policy)
    result = simulate(instance, policy, seed=args.seed, trials=args.trials)
    _emit({"mean": result.mean, "half_width": result.half_width,
           "trials": result.trials})
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    overrides = {}
    for item in args.set or []:
        key, sep, raw = item.partition("=")
        if not sep:
            raise UsageError(f"override {item!r} is not of the form key=value")
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw
    config = RunConfig(suite=args.name, seed=args.seed, trials=args.trials,
                       out=args.out, overrides=overrides)
    report = run_suite(config)
    sys.stdout.write(report.to_table())
    sys.stdout.write(f"wall time: {report.wall_seconds:.2f}s\n")
    return 0 if report.passed else 1


def _cmd_check(args: argparse.Namespace) -> int:
    report = validate_instance(_load_kernel(args.path))
    _emit({"compliant": report.compliant, "violations": list(report.violations)})
    return 0 if report.compliant else 1


def _in_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--in", dest="path", required=True,
                     help="input document (problem or kernel form JSON)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochprobe",
        description="Finite-horizon stochastic probing: exact solving, "
                    "block-policy approximation, baselines, and invariant suites.")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate a random problem spec")
    gen.add_argument("--kind", default="probemax", choices=KINDS)
    gen.add_argument("--n", type=int, default=5)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--m", type=int, default=None)
    gen.add_argument("--k", type=int, default=None)
    gen.add_argument("--support", type=int, default=3)
    gen.add_argument("--levels", type=int, default=4)
    gen.add_argument("--q", type=int, default=8, help="probability denominator")
    gen.add_argument("--step", type=float, default=1.0)
    gen.add_argument("--eps", type=float, default=0.3)
    gen.add_argument("--off-grid", dest="lossless", action="store_false",
                     help="draw outcomes off the step lattice")
    gen.add_argument("--out", default=None)
    gen.set_defaults(handler=_cmd_gen)

    exact = subs.add_parser("exact", help="exact optimum of an instance, with solver stats")
    _in_arg(exact)
    exact.set_defaults(handler=_cmd_exact)

    ptas = subs.add_parser("ptas", help="run the approximation pipeline")
    _in_arg(ptas)
    ptas.add_argument("--eps", type=float, default=0.3)
    ptas.add_argument("--grid", type=float, default=0.05)
    ptas.add_argument("--blocks", type=int, default=4, help="block budget per tree")
    ptas.add_argument("--depth", type=int, default=3)
    ptas.add_argument("--topk", type=int, default=32,
                      help="exactly rescored candidates per topology")
    ptas.add_argument("--out", default=None, help="write the chosen block tree here")
    ptas.set_defaults(handler=_cmd_ptas)

    baseline = subs.add_parser("baseline", help="score a baseline algorithm")
    _in_arg(baseline)
    baseline.add_argument("--algo", required=True,
                          choices=["greedy", "weitzman", "sbk14"])
    baseline.set_defaults(handler=_cmd_baseline)

    sim = subs.add_parser("simulate", help="Monte-Carlo replay of a policy")
    _in_arg(sim)
    sim.add_argument("--policy", required=True, help="policy or block tree JSON")
    sim.add_argument("--trials", type=int, default=10_000)
    sim.add_argument("--seed", type=int, default=0)
    sim.set_defaults(handler=_cmd_simulate)

    suite = subs.add_parser("suite", help="run an acceptance suite")
    suite.add_argument("--name", required=True, choices=sorted(SUITES))
    suite.add_argument("--seed", type=int, default=0)
    suite.add_argument("--trials", type=int, default=100_000)
    suite.add_argument("--out", default=None, help="JSONL report path")
    suite.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="suite knob override, repeatable")
    suite.set_defaults(handler=_cmd_suite)

    check = subs.add_parser("check", help="validate an instance document")
    _in_arg(check)
    check.set_defaults(handler=_cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (CapacityError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except StochprobeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
