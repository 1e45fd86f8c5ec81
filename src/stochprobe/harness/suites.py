"""Acceptance suites: seeded end-to-end checks with deterministic reports.

Each suite draws its instances from counter-based streams keyed by
``(seed, suite, index)``, so a config maps to one exact report.  Reports
serialize as JSON lines plus a fixed-width table; wall-clock time is kept
out of both renderings (it is console information) so identical configs
produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable

from ..block import (BlockNode, batch_masses_exact, block_leaf, block_profit_approx,
                     block_profit_exact, block_risk_mass, blockify,
                     check_block_properties)
from ..exact import max_over_starts, optimal_policy, optimal_value
from ..exceptions import ParameterError, UsageError
from ..model import (ActionSpec, Instance, Pmf, PolicyNode, TransitionRow, ValueSpace,
                     evaluate_policy, leaf_node, truncate_policy, truncation_cut_set,
                     walk_policy, walk_reach)
from ..problems import (ProblemSpec, build_committed, build_probemax, build_target,
                        discretize_size_li, discretize_value, expected_max,
                        greedy_probemax, pandora_uncommitted_kernel, sbk_from_skp,
                        sbk_value_of, skp_kernel, target_opt_exact, weitzman)
from ..ptas import PtasKnobs, solve_ptas
from .gen import GenParams, gen_random, gen_random_kernel, gen_random_policy, stream
from .sim import Z99, simulate

__all__ = ["Report", "RunConfig", "SUITES", "run_suite"]

Row = dict[str, object]


@dataclass(frozen=True)
class RunConfig:
    suite: str
    seed: int = 0
    trials: int = 100_000
    out: str | None = None
    overrides: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ParameterError("trials must be at least 1")


@dataclass
class Report:
    """Suite outcome.  ``wall_seconds`` is set by the runner but kept out
    of the serialized renderings so report bytes depend only on the
    config."""

    suite: str
    seed: int
    rows: list[Row]
    summary: dict[str, object]
    passed: bool
    wall_seconds: float = 0.0

    def to_jsonl(self) -> str:
        head = {"kind": "report", "suite": self.suite, "seed": self.seed,
                "passed": self.passed, "summary": self.summary}
        lines = [json.dumps(head, sort_keys=True, allow_nan=False)]
        for row in self.rows:
            lines.append(json.dumps({"kind": "row", **row}, sort_keys=True,
                                    allow_nan=False))
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        def fmt(value: object) -> str:
            if isinstance(value, bool):
                return "yes" if value else "no"
            if isinstance(value, float):
                return f"{value:.6g}"
            if value is None:
                return "-"
            return str(value)

        lines = []
        if self.rows:
            cols = list(self.rows[0].keys())
            cells = [[fmt(row.get(c)) for c in cols] for row in self.rows]
            widths = [max(len(c), *(len(r[i]) for r in cells))
                      for i, c in enumerate(cols)]
            lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
            lines.append("  ".join("-" * w for w in widths))
            for r in cells:
                lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
        failures = sum(1 for row in self.rows if not row.get("pass", True))
        parts = [f"suite={self.suite}", f"seed={self.seed}",
                 f"rows={len(self.rows)}", f"failures={failures}",
                 f"passed={'yes' if self.passed else 'no'}"]
        for key in sorted(self.summary):
            parts.append(f"{key}={fmt(self.summary[key])}")
        lines.append(" ".join(parts))
        return "\n".join(lines) + "\n"


def _ratio(value: float, opt: float) -> float:
    """Solver-over-oracle ratio; both sides zero count as a full score."""
    if abs(opt) <= 1e-12:
        return 1.0
    return value / opt


def _count(config: RunConfig, default: int) -> int:
    return config.overrides.get("count", default)


def _child(g) -> int:
    return int(g.integers(0, 2 ** 63))


def _suite_oracle(config: RunConfig) -> tuple[list[Row], dict[str, object]]:
    """Exact-solver identity: the policy the DP extracts must evaluate to
    the DP's own value."""
    rows: list[Row] = []
    for i in range(_count(config, 200)):
        g = stream(config.seed, "oracle", i)
        n = 1 + int(g.integers(0, 8))
        K = 1 + int(g.integers(0, 4))
        T = int(g.integers(0, 7))
        inst = gen_random_kernel(_child(g), GenParams(n=n, levels=K, horizon=T, q=8))
        opt = optimal_value(inst)
        tree = optimal_policy(inst)
        got = evaluate_policy(inst, tree)
        rows.append({"index": i, "n": n, "levels": K, "horizon": T,
                     "oracle": opt, "solver": got, "ratio": _ratio(got, opt),
                     "pass": abs(got - opt) <= 1e-9})
    return rows, {}


def _random_block_tree(inst: Instance, g, eps: float, depth: int) -> BlockNode:
    """A random block tree whose multi-item batches keep their summed
    leave-probability within eps^2, with children for every reachable
    level."""

    # Drawn in preorder like ``gen.gen_random_policy``.
    top: dict[int, BlockNode] = {}
    stack = [(inst.start_level, depth, frozenset(), top)]
    while stack:
        level, left, used_groups, siblings = stack.pop()
        avail = [spec for spec in inst.actions
                 if spec.group not in used_groups and spec.rows.get(level) is not None]
        if left == 0 or not avail or g.random() < 0.3:
            siblings[level] = block_leaf(level)
            continue
        size = 1 + int(g.integers(0, min(3, len(avail))))
        picks = sorted(int(j) for j in g.choice(len(avail), size=size, replace=False))
        batch = [avail[j].id for j in picks]
        while len(batch) > 1 and \
                block_risk_mass(inst, BlockNode(tuple(batch), level, {})) > eps * eps:
            batch.pop()
        used = used_groups | {inst.action(a).group for a in batch}
        up, flat, _profit = batch_masses_exact(inst, BlockNode(tuple(batch), level, {}))
        children: dict[int, BlockNode] = {}
        siblings[level] = BlockNode(tuple(batch), level, children)
        reached = [j for j in sorted(up) if up[j] > 0.0] + ([level] if flat > 0.0 else [])
        stack.extend((j, left - 1, used, children) for j in reversed(reached))
    return top[inst.start_level]


def _suite_lemma31(config: RunConfig) -> tuple[list[Row], dict[str, object]]:
    """Order-free batch scoring brackets the exact block value: the approx
    profit under-counts by at most one risk factor per level and
    over-counts by at most one overall."""
    eps = float(config.overrides.get("eps", 0.3))
    rows: list[Row] = []
    for i in range(_count(config, 500)):
        g = stream(config.seed, "lemma31", i)
        n = 3 + int(g.integers(0, 4))
        K = 2 + int(g.integers(0, 3))
        inst = gen_random_kernel(_child(g),
                                 GenParams(n=n, levels=K, q=8, flat_bias=0.75))
        depth = 1 + int(g.integers(0, 3))
        tree = _random_block_tree(inst, g, eps, depth)
        report = check_block_properties(inst, tree, eps, depth)
        exact = block_profit_exact(inst, tree)
        approx = block_profit_approx(inst, tree)
        lower_ok = exact >= (1.0 - eps * eps) * approx - 1e-9
        upper_ok = approx >= (1.0 - eps * eps) ** K * exact - 1e-9
        rows.append({"index": i, "levels": K, "exact": exact, "approx": approx,
                     "pass": bool(report.p1_ok and lower_ok and upper_ok)})
    return rows, {}


def _suite_alg1(config: RunConfig) -> tuple[list[Row], dict[str, object]]:
    """Blockifying the optimal policy keeps the small-risk batch property
    and loses at most K*eps^2*MAX value; truncating it loses exactly the
    cut-set mass times the cut subtree surpluses and leaves every internal
    prefix under the risk budget."""
    eps = float(config.overrides.get("eps", 0.3))
    budget = 1.0 / eps

    def check(index: int | str, inst: Instance, deep: PolicyNode) -> Row:
        K = len(inst.terminal)
        opt = optimal_value(inst)
        tree = optimal_policy(inst)
        max_ref = max_over_starts(inst)
        btree = blockify(inst, tree, eps, max_ref)
        report = check_block_properties(inst, btree, eps, inst.horizon)
        bval = block_profit_exact(inst, btree)
        bound_ok = bval >= opt - K * eps * eps * max_ref - 1e-9

        dval = evaluate_policy(inst, deep)
        trunc = truncate_policy(inst, deep, eps)
        tval = evaluate_policy(inst, trunc)
        cut = truncation_cut_set(inst, deep, eps)
        expected_loss = math.fsum(
            phi * (evaluate_policy(inst, node) - inst.terminal[node.level])
            for node, phi, _mu in cut)
        loss_ok = abs((dval - tval) - expected_loss) <= 1e-9
        prefix_ok = all(node.is_leaf or mu < budget
                        for node, _phi, mu, _acc in walk_reach(inst, trunc))
        return {"index": index, "n": len(inst.actions), "levels": K,
                "horizon": inst.horizon,
                "oracle": opt, "solver": bval, "ratio": _ratio(bval, opt),
                "p1": bool(report.p1_ok), "cut_nodes": len(cut),
                "truncated": tval,
                "pass": bool(report.p1_ok and bound_ok and loss_ok and prefix_ok)}

    rows: list[Row] = []
    for i in range(_count(config, 100)):
        g = stream(config.seed, "alg1", i)
        K = 2 + int(g.integers(0, 3))
        if i % 2 == 0:
            n = 4 + int(g.integers(0, 3))
            T = 3 + int(g.integers(0, 4))
            bias = 0.6
        else:
            n = 7 + int(g.integers(0, 3))
            T = 7 + int(g.integers(0, 3))
            bias = 0.0
        inst = gen_random_kernel(_child(g),
                                 GenParams(n=n, levels=K, horizon=T, q=8,
                                           flat_bias=bias))
        rows.append(check(i, inst, gen_random_policy(inst, _child(g), stop=0.05)))
    rows.append(check("flat_chain", *_flat_chain()))
    fired = sum(1 for r in rows if r["cut_nodes"] > 0)
    return rows, {"cut_rows": fired}


def _flat_chain() -> tuple[Instance, PolicyNode]:
    """An instance and policy whose all-flat branch provably crosses the
    risk budget 1/0.3: eight probes of risk 7/8 each, so the prefix mass
    passes 10/3 at the fifth node."""
    row = TransitionRow(((0, 0.125), (1, 0.875)), 0.25)
    actions = tuple(ActionSpec(f"c{j}", f"cg{j}", {0: row}) for j in range(8))
    inst = Instance(ValueSpace(2), 8, actions, (0.0, 1.0))
    tree = leaf_node(0, 8)
    for j in reversed(range(8)):
        tree = PolicyNode(f"c{j}", 0, j, {0: tree, 1: leaf_node(1, j + 1)})
    return inst, tree


def _unit_max_kernel(g) -> tuple[Instance, float]:
    """A two-level kernel with nonzero profits whose best start value is
    exactly 1.0, so a grid of min(1/8, profit) rounds nothing."""
    n = 1 + int(g.integers(0, 3))
    T = 1 + int(g.integers(0, 3))
    ps = [int(g.integers(1, 4)) / 4 for _ in range(n)]

    def build(gamma: float) -> Instance:
        actions = tuple(
            ActionSpec(f"a{i}", f"g{i}",
                       {0: TransitionRow(((0, 1.0 - p), (1, p)), gamma)})
            for i, p in enumerate(ps))
        return Instance(ValueSpace(2), T, actions, (0.0, 1.0))

    gamma = 0.125
    inst = build(gamma)
    for _ in range(80):
        if max_over_starts(inst) == 1.0:
            return inst, gamma
        gamma /= 2.0
        inst = build(gamma)
    return build(0.0), 0.0


def _suite_signatures(config: RunConfig) -> tuple[list[Row], dict[str, object]]:
    """Completeness at zero rounding loss: when every transition mass and
    profit sits on the grid, the configuration search with full coverage
    budgets reproduces the exact optimum."""
    rows: list[Row] = []
    count = _count(config, 60)
    zero_profit_rows = (2 * count) // 3
    for i in range(count):
        g = stream(config.seed, "signatures", i)
        if i < zero_profit_rows:
            n = 1 + int(g.integers(0, 4))
            K = 1 + int(g.integers(0, 2))
            T = int(g.integers(0, 4))
            inst = gen_random_kernel(
                _child(g), GenParams(n=n, levels=K, horizon=T, q=4, zero_profit=True))
            if max(inst.terminal) == 0.0:
                terminal = inst.terminal[:-1] + (1.0,)
                inst = Instance(inst.values, inst.horizon, inst.actions, terminal,
                                meta=inst.meta)
            grid = 0.125
        else:
            inst, gamma = _unit_max_kernel(g)
            grid = min(0.125, gamma) if gamma > 0.0 else 0.125
        opt = optimal_value(inst)
        knobs = PtasKnobs(eps=0.5, grid=grid, block_budget=6, depth_limit=3,
                          top_k=10 ** 9, max_hint="exact")
        res = solve_ptas(inst, knobs)
        rows.append({"index": i, "n": len(inst.actions),
                     "levels": inst.values.level_count, "horizon": inst.horizon,
                     "oracle": opt, "solver": res.value,
                     "ratio": _ratio(res.value, opt),
                     "pass": abs(res.value - opt) <= 1e-9})
    return rows, {}


def _suite_ptas_e2e(config: RunConfig) -> tuple[list[Row], dict[str, object]]:
    """The headline pipeline ratio on lossless-grid instances: every run
    must clear 0.75 of the oracle and keep the small-risk property P1 at
    the solve's eps, and the mean must clear 0.90."""
    rows: list[Row] = []
    ratios: list[float] = []
    for i in range(_count(config, 50)):
        g = stream(config.seed, "ptas_e2e", i)
        if i % 5 == 4:
            m, K, q = 3, 3, 4
            n = 4 + (i // 5) % 2
        else:
            m = 2
            n = 5 + i % 4
            K = 3 + (i % 2)
            q = 4 if (i // 2) % 2 else 8
        spec = gen_random(_child(g), GenParams(
            kind="probemax", n=n, m=m, support=3, levels=K, q=q, step=1.0,
            lossless=True))
        inst, _maps = build_probemax(spec, step=1.0, theta=float(K - 1))
        opt = optimal_value(inst)
        knobs = PtasKnobs(eps=0.3, grid=1.0 / q, block_budget=6, depth_limit=4,
                          top_k=32, max_hint="exact")
        res = solve_ptas(inst, knobs)
        ratio = _ratio(res.value, opt)
        ratios.append(ratio)
        p1 = check_block_properties(inst, res.tree, knobs.eps,
                                    knobs.depth_limit).p1_ok
        rows.append({"index": i, "n": n, "m": m, "levels": K, "q": q,
                     "oracle": opt, "solver": res.value, "ratio": ratio,
                     "topologies": res.diagnostics.topologies,
                     "states": res.diagnostics.states_explored, "p1": p1,
                     "pass": ratio >= 0.75 - 1e-9 and p1})
    mean_ratio = math.fsum(ratios) / len(ratios) if ratios else 1.0
    summary = {"mean_ratio": mean_ratio, "min_ratio": min(ratios, default=1.0),
               "pass": mean_ratio >= 0.90}
    return rows, summary


def _suite_discretization(config: RunConfig) -> tuple[list[Row], dict[str, object]]:
    """Mass conservation, the top-level tail identity, value shrinkage, and
    exact small-part mean preservation on random distributions."""
    rows: list[Row] = []
    for i in range(_count(config, 1000)):
        g = stream(config.seed, "discretization", i)
        s = 2 + int(g.integers(0, 4))
        if i % 2 == 0:
            draws = sorted(g.uniform(0.0, 10.0, size=s))
            outcomes = [round(float(x), 6) + j * 1e-6 for j, x in enumerate(draws)]
            weights = g.random(s)
            probs = [float(w) / float(sum(weights)) for w in weights]
            pmf = Pmf(tuple(zip(outcomes, probs)))
            step = 0.5
            k = 1
            while pmf.tail_partial_mean(k * step) > k * step:
                k += 1
            theta = k * step
            _img, dmap = discretize_value(pmf, theta, step)
            top_mass = dmap.level_masses().get(len(dmap.representatives) - 1, 0.0)
            identity = abs(theta * top_mass - pmf.tail_partial_mean(theta))
            shrink_ok = dmap.image_pmf().mean() <= pmf.mean() + 1e-12
            ok = dmap.mass_error() <= 1e-12 and identity <= 1e-12 and shrink_ok
            rows.append({"index": i, "op": "value", "support": s,
                         "mass_error": dmap.mass_error(), "identity_gap": identity,
                         "pass": bool(ok)})
        else:
            draws = sorted(g.uniform(0.0, 1.2, size=s))
            outcomes = [round(float(x), 6) + j * 1e-7 for j, x in enumerate(draws)]
            weights = g.random(s)
            probs = [float(w) / float(sum(weights)) for w in weights]
            pmf = Pmf(tuple(zip(outcomes, probs)))
            small_cut, step = 0.1, 0.05
            _img, dmap = discretize_size_li(pmf, small_cut, step)
            src_small = math.fsum(o * p for o, p in pmf.entries if o <= small_cut)
            img_small = math.fsum(
                m * dmap.representatives[lvl]
                for outcome, parts in dmap.image if outcome <= small_cut
                for lvl, m in parts)
            gap = abs(src_small - img_small)
            shrink_ok = dmap.image_pmf().mean() <= pmf.mean() + 1e-12
            ok = dmap.mass_error() <= 1e-12 and gap <= 1e-12 and shrink_ok
            rows.append({"index": i, "op": "size", "support": s,
                         "mass_error": dmap.mass_error(), "identity_gap": gap,
                         "pass": bool(ok)})
    return rows, {}


def _suite_committed(config: RunConfig) -> tuple[list[Row], dict[str, object]]:
    """Committed selection can never beat the index policy, and the index
    policy value equals the exact optimum of the uncommitted kernel."""
    rows: list[Row] = []
    for i in range(_count(config, 100)):
        g = stream(config.seed, "committed", i)
        n = 1 + int(g.integers(0, 6))
        support = 2 + int(g.integers(0, 2))
        spec = gen_random(_child(g), GenParams(
            kind="committed_pandora", n=n, support=support, levels=5, q=8))
        inst = build_committed(spec)
        committed = optimal_value(inst)
        _order, index_value = weitzman(spec.costs, spec.items)
        kernel = pandora_uncommitted_kernel(spec.costs, spec.items)
        uncommitted = optimal_value(kernel)
        ok = committed <= index_value + 1e-9 and abs(index_value - uncommitted) <= 1e-9
        rows.append({"index": i, "n": n, "committed": committed,
                     "weitzman": index_value, "uncommitted": uncommitted,
                     "ratio": _ratio(committed, index_value), "pass": bool(ok)})
    return rows, {}


def _replay_target(inst: Instance, maps, tree: PolicyNode) -> tuple[float, float]:
    """Couple the kernel policy with the true size draws: returns (total
    path mass, mass of paths whose true and grid totals differ by at least
    2*eps, both capped at the grid top).

    Each node's state is (true size sum, path mass).  A node's draws are
    visited in reverse image order: the float sums depend on the order the
    leaves come in, and the suite's report bytes on those sums."""
    step = float(inst.meta["step"])
    threshold = 1.0 - float(inst.meta["relaxed_target"])
    top = inst.values.level_count - 1
    top_rep = inst.values.value_of(top)

    def draws(node: PolicyNode, _row, _children, state: tuple[float, float]) -> list:
        true_sum, mass = state
        dmap = maps[int(inst.action(node.action).meta["item"])]
        out = []
        for outcome, parts in dmap.image:
            for lvl, m in parts:
                if m > 0.0:
                    add = int(round(dmap.representatives[lvl] / step))
                    out.append((node.children[min(node.level + add, top)],
                                (true_sum + outcome, mass * m)))
        return out[::-1]

    total = 0.0
    deviating = 0.0
    for node, row, _children, (true_sum, mass) in walk_policy(inst, tree, (0.0, 1.0), draws):
        if row is None:
            total += mass
            rep = inst.values.value_of(node.level)
            if abs(min(true_sum, top_rep) - rep) >= threshold - 1e-12:
                deviating += mass
    return total, deviating


def _suite_target(config: RunConfig) -> tuple[list[Row], dict[str, object]]:
    """Relaxed-threshold kernel against the true optimum: the value gap is
    reported, deviation mass is reported, and only mass accounting is a
    hard assertion."""
    eps = float(config.overrides.get("eps", 0.2))
    rows: list[Row] = []
    worst_dev = 0.0
    for i in range(_count(config, 50)):
        g = stream(config.seed, "target", i)
        n = 2 + int(g.integers(0, 4))
        m = 1 + int(g.integers(0, min(3, n)))
        spec = gen_random(_child(g), GenParams(
            kind="target", n=n, m=min(m, n), support=2 + int(g.integers(0, 2)),
            q=8, step=eps * eps, eps=eps, lossless=i % 5 == 4))
        inst, maps = build_target(spec)
        kernel_value = optimal_value(inst)
        true_value = target_opt_exact(spec)
        slack = max(0.0, true_value - kernel_value)
        tree = optimal_policy(inst)
        total, deviating = _replay_target(inst, maps, tree)
        map_error = max((d.mass_error() for d in maps), default=0.0)
        mass_ok = abs(total - 1.0) <= 1e-9 and map_error <= 1e-12
        worst_dev = max(worst_dev, deviating)
        rows.append({"index": i, "n": n, "m": min(m, n), "kernel": kernel_value,
                     "exact": true_value, "slack": slack, "deviating": deviating,
                     "pass": bool(mass_ok)})
    return rows, {"max_deviating": worst_dev, "deviating_le_half": worst_dev <= 0.5}


def _suite_sbk(config: RunConfig) -> tuple[list[Row], dict[str, object]]:
    """Profit-truncation surgery on knapsack policies keeps at least a
    quarter of the value once overflow forfeits the bank."""
    rows: list[Row] = []
    for i in range(_count(config, 100)):
        g = stream(config.seed, "sbk", i)
        n = 2 + int(g.integers(0, 4))
        spec = gen_random(_child(g), GenParams(
            kind="sbk", n=n, support=2 + int(g.integers(0, 2)), q=8, step=0.125))
        kernel = skp_kernel(spec.items, spec.profits, capacity=1.0, step=0.125)
        tree = gen_random_policy(kernel, _child(g), stop=0.2)
        skp_value = evaluate_policy(kernel, tree)
        stree, sbk_value = sbk_from_skp(kernel, tree)
        consistent = abs(sbk_value_of(kernel, stree) - sbk_value) <= 1e-9
        ok = sbk_value >= skp_value / 4.0 - 1e-9 and consistent
        rows.append({"index": i, "n": n, "name": f"random_{i}",
                     "skp": skp_value, "sbk": sbk_value,
                     "ratio": _ratio(sbk_value, max(skp_value, sbk_value)),
                     "pass": bool(ok)})

    kernel = skp_kernel((Pmf(((0.0, 1.0),)), Pmf(((0.0, 1.0),))), (3.0, 3.0),
                        capacity=1.0, step=0.5)
    tree = optimal_policy(kernel)
    skp_value = evaluate_policy(kernel, tree)
    _stree, sbk_value = sbk_from_skp(kernel, tree)
    rows.append({"index": len(rows), "n": 2, "name": "two_zero_size",
                 "skp": skp_value, "sbk": sbk_value,
                 "ratio": _ratio(sbk_value, skp_value),
                 "pass": abs(skp_value - 6.0) <= 1e-9 and abs(sbk_value - 3.0) <= 1e-9})

    kernel = skp_kernel((Pmf(((0.5, 1.0),)),), (2.0,), capacity=1.0, step=0.5)
    tree = optimal_policy(kernel)
    skp_value = evaluate_policy(kernel, tree)
    _stree, sbk_value = sbk_from_skp(kernel, tree)
    rows.append({"index": len(rows), "n": 1, "name": "single_always_fits",
                 "skp": skp_value, "sbk": sbk_value,
                 "ratio": _ratio(sbk_value, skp_value),
                 "pass": abs(sbk_value - skp_value) <= 1e-9})
    return rows, {}


def _witness_rows() -> list[Row]:
    spec = ProblemSpec("probemax", (
        Pmf(((0.0, 0.5), (4.0, 0.5))),
        Pmf(((3.0, 1.0),)),
        Pmf(((0.0, 0.9), (10.0, 0.1))),
    ), m=2)
    inst, _maps = build_probemax(spec, step=1.0, theta=10.0)
    adaptive = optimal_value(inst)
    best_pair = max(
        expected_max([spec.items[a], spec.items[b]])
        for a in range(3) for b in range(a + 1, 3))
    _picks, greedy_value = greedy_probemax(spec)
    return [
        {"index": 0, "name": "witness_adaptive", "exact": 3.8, "estimate": adaptive,
         "bound": 1e-9, "pass": abs(adaptive - 3.8) <= 1e-9},
        {"index": 1, "name": "witness_nonadaptive", "exact": 3.7, "estimate": best_pair,
         "bound": 1e-9, "pass": abs(best_pair - 3.7) <= 1e-9},
        {"index": 2, "name": "witness_greedy", "exact": 3.7, "estimate": greedy_value,
         "bound": 1e-9, "pass": abs(greedy_value - 3.7) <= 1e-9},
    ]


def _deterministic_pairs() -> list[tuple[str, Instance, PolicyNode]]:
    chain = Instance(
        ValueSpace(3), 2,
        (ActionSpec("a", "a", {0: TransitionRow(((1, 1.0),), 0.5)}),
         ActionSpec("b", "b", {1: TransitionRow(((2, 1.0),), 0.25)})),
        (0.0, 0.0, 2.0))
    policy = PolicyNode("a", 0, 1, {1: PolicyNode("b", 1, 2, {2: leaf_node(2, 3)})})
    idle = Instance(ValueSpace(2), 0, (), (1.5, 2.0))
    return [("sim_det_chain", chain, policy), ("sim_det_idle", idle, leaf_node(0, 1))]


def _suite_baselines(config: RunConfig) -> tuple[list[Row], dict[str, object]]:
    """The three-item adaptivity-gap numbers, then sampled replays of
    policies and block trees against their exact values."""
    rows = _witness_rows()
    pairs: list[tuple[str, Instance, PolicyNode | BlockNode, float]] = []
    for name, inst, tree in _deterministic_pairs():
        pairs.append((name, inst, tree, evaluate_policy(inst, tree)))
    for j in range(14):
        g = stream(config.seed, "baselines", j)
        n = 2 + int(g.integers(0, 5))
        K = 2 + int(g.integers(0, 3))
        T = 1 + int(g.integers(0, 4))
        inst = gen_random_kernel(_child(g), GenParams(n=n, levels=K, horizon=T, q=8))
        if j % 2 == 0:
            tree: PolicyNode | BlockNode = optimal_policy(inst)
        else:
            tree = gen_random_policy(inst, _child(g), stop=0.3)
        pairs.append((f"sim_kernel_{j}", inst, tree, evaluate_policy(inst, tree)))
    for j in range(4):
        g = stream(config.seed, "baselines_block", j)
        n = 3 + int(g.integers(0, 3))
        K = 2 + int(g.integers(0, 3))
        T = 2 + int(g.integers(0, 3))
        inst = gen_random_kernel(_child(g), GenParams(n=n, levels=K, horizon=T, q=8))
        btree = blockify(inst, optimal_policy(inst), 0.4, max_over_starts(inst))
        pairs.append((f"sim_block_{j}", inst, btree, block_profit_exact(inst, btree)))

    for idx, (name, inst, tree, exact) in enumerate(pairs):
        g = stream(config.seed, "baselines_sim", idx)
        result = simulate(inst, tree, seed=_child(g), trials=config.trials)
        bound = 4.0 * result.half_width / Z99 + 1e-9
        rows.append({"index": len(rows), "name": name, "exact": exact,
                     "estimate": result.mean, "bound": bound,
                     "pass": abs(result.mean - exact) <= bound})
    return rows, {}


SUITES: dict[str, Callable[[RunConfig], tuple[list[Row], dict[str, object]]]] = {
    "oracle": _suite_oracle,
    "lemma31": _suite_lemma31,
    "alg1": _suite_alg1,
    "signatures": _suite_signatures,
    "ptas_e2e": _suite_ptas_e2e,
    "discretization": _suite_discretization,
    "committed": _suite_committed,
    "target": _suite_target,
    "sbk": _suite_sbk,
    "baselines": _suite_baselines,
}

#: The overrides each suite reads.
_READS = {**dict.fromkeys(SUITES, ("count",)), "baselines": (),
          **dict.fromkeys(("lemma31", "alg1", "target"), ("count", "eps"))}


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path``; ``UsageError`` where it cannot."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from exc


def run_suite(config: RunConfig) -> Report:
    """Run one suite and optionally write the JSONL report (at ``out``)
    and the rendered table (at ``out`` + ".txt").  Overrides the suite
    does not read, a ``count`` below 1 or not an integer and an ``eps``
    outside (0, 1] are refused before it runs."""
    fn = SUITES.get(config.suite)
    if fn is None:
        raise UsageError(f"unknown suite {config.suite!r}; choose from "
                         + ", ".join(sorted(SUITES)))
    reads = _READS[config.suite]
    for key, value in config.overrides.items():
        if key not in reads:
            raise UsageError(f"suite {config.suite} reads no override {key!r}; it reads: "
                             + (", ".join(reads) or "none"))
        if key == "count" and not (type(value) is int and value >= 1):
            raise ParameterError(f"count must be an integer of at least 1, got {value!r}")
        if key == "eps" and not (type(value) in (int, float) and 0.0 < value <= 1.0):
            raise ParameterError(f"eps must be a number in (0, 1], got {value!r}")
    start = time.perf_counter()
    rows, summary = fn(config)
    wall = time.perf_counter() - start
    passed = all(bool(row.get("pass", True)) for row in rows) \
        and bool(summary.get("pass", True))
    report = Report(suite=config.suite, seed=config.seed, rows=rows,
                    summary=summary, passed=passed, wall_seconds=wall)
    if config.out:
        _write_text(config.out, report.to_jsonl())
        _write_text(config.out + ".txt", report.to_table())
    return report
