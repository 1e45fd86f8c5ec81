"""Exact finite-horizon solver: oracle identities and state-space limits."""

import itertools
import math
import random
import sys
import threading
import time
import tracemalloc
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from stochprobe import (
    ActionSpec,
    CapacityError,
    ParameterError,
    Pmf,
    PolicyNode,
    ProblemSpec,
    TransitionRow,
    build_probemax,
    evaluate_policy,
    expected_max,
    max_over_starts,
    optimal_policy,
    optimal_value,
    subtree_values,
    walk_reach,
)
from stochprobe import exact
from stochprobe.exact import CELL_CAP, ExactStats, _Kernel, solve
from stochprobe.harness import GenParams, gen_random, gen_random_kernel
from stochprobe.harness.gen import stream
from stochprobe.model import leaf_node

from conftest import act, kernel

COIN_10 = Pmf(((0.0, 0.5), (10.0, 0.5)))
DET_6 = Pmf(((6.0, 1.0),))


def test_single_coin_value_is_its_mean():
    spec = ProblemSpec("probemax", (COIN_10,), m=1)
    inst, _ = build_probemax(spec, step=1.0, theta=10.0)
    assert optimal_value(inst) == pytest.approx(5.0, abs=1e-9)


def test_one_probe_prefers_the_sure_six():
    spec = ProblemSpec("probemax", (COIN_10, DET_6), m=1)
    inst, _ = build_probemax(spec, step=1.0, theta=10.0)
    assert optimal_value(inst) == pytest.approx(6.0, abs=1e-9)


def test_adaptivity_witness_value(witness_spec):
    # Probing the 0/4 coin first and reacting earns
    # 0.5*(0.1*10 + 0.9*4) + 0.5*(0.1*10 + 0.9*3) = 3.8,
    # while the best fixed pair {sure 3, long shot} gets only 3.7.
    inst, _ = build_probemax(witness_spec, step=1.0, theta=10.0)
    assert optimal_value(inst) == pytest.approx(3.8, abs=1e-9)
    best_pair = max(
        expected_max([witness_spec.items[i], witness_spec.items[j]])
        for i in range(3) for j in range(i + 1, 3))
    assert best_pair == pytest.approx(3.7, abs=1e-9)


def test_witness_policy_probes_coin_then_reacts(witness_spec):
    inst, _ = build_probemax(witness_spec, step=1.0, theta=10.0)
    tree = optimal_policy(inst)
    assert tree.action == "i0"
    assert tree.children[4].action == "i2"
    assert tree.children[0].action == "i1"
    assert evaluate_policy(inst, tree) == pytest.approx(3.8, abs=1e-9)


def test_policy_matches_value_on_random_kernels():
    for seed in range(40):
        inst = gen_random_kernel(seed, GenParams(n=5, levels=4, horizon=5))
        tree = optimal_policy(inst)
        assert evaluate_policy(inst, tree) == pytest.approx(
            optimal_value(inst), abs=1e-9)


def test_ties_break_to_lowest_action_id():
    spec = ProblemSpec("probemax", (COIN_10, COIN_10), m=1)
    inst, _ = build_probemax(spec, step=1.0, theta=10.0)
    assert optimal_policy(inst).action == "i0"


def test_ties_break_to_first_group_in_action_list_order():
    row = {0: ((0, 0.5), (1, 0.5))}
    inst = kernel([act("b", "gb", row), act("a", "ga", row)], [0.0, 4.0], 1)
    assert optimal_policy(inst).action == "b"


def test_identical_items_swap_invariant():
    spec = ProblemSpec("probemax", (COIN_10, COIN_10), m=1)
    inst, _ = build_probemax(spec, step=1.0, theta=10.0)
    assert optimal_value(inst) == pytest.approx(5.0, abs=1e-9)


def test_no_actions_returns_terminal():
    inst = kernel([], [0.0, 2.5], 3, start_level=1)
    assert optimal_value(inst) == pytest.approx(2.5, abs=1e-12)


def test_start_level_parameter():
    inst = kernel([act("a", "g", {0: ((0, 0.5), (1, 0.5))})], [0.0, 4.0], 1)
    assert optimal_value(replace(inst, start_level=1)) == pytest.approx(4.0, abs=1e-12)
    assert optimal_value(replace(inst, start_level=0)) == pytest.approx(2.0, abs=1e-12)


def test_start_level_outside_the_levels_raises():
    inst = kernel([act("a", "g", {0: ((0, 0.5), (1, 0.5))})], [0.0, 4.0], 1)
    for start in (-1, 2):
        with pytest.raises(ParameterError):
            replace(inst, start_level=start)


def test_max_over_starts_monotone_terminal():
    inst = kernel([act("a", "g", {0: ((0, 0.5), (1, 0.5))})], [0.0, 4.0], 1)
    assert max_over_starts(inst) == pytest.approx(4.0, abs=1e-12)


def test_max_over_starts_no_op_kernel():
    inst = kernel([act("a", "g", {0: ((0, 1.0),), 1: ((1, 1.0),)})], [0.0, 3.0], 2)
    assert max_over_starts(inst) == pytest.approx(3.0, abs=1e-12)


def test_adding_profitable_action_never_hurts():
    for seed in range(15):
        inst = gen_random_kernel(seed, GenParams(n=4, levels=3, horizon=4))
        base = optimal_value(inst)
        extra = act("zz_extra", "zz_extra", {0: ((0, 1.0),)}, profit=0.25)
        grown = kernel(list(inst.actions) + [extra], inst.terminal, inst.horizon)
        assert optimal_value(grown) >= base - 1e-9


def test_every_subtree_value_at_most_max():
    for seed in range(15):
        inst = gen_random_kernel(seed, GenParams(n=4, levels=3, horizon=4))
        cap = max_over_starts(inst)
        tree = optimal_policy(inst)
        values = subtree_values(inst, tree)
        for node, _phi, _mu, _acc in walk_reach(inst, tree):
            assert values[id(node)] <= cap + 1e-9


def test_group_cap_overflow_raises():
    # 64 groups at horizon 1 are only 65 cells, but a group mask is an
    # int64 word with room for 63 bits.
    acts = [act(f"a{i}", f"g{i}", {0: ((0, 1.0),)}, profit=0.1) for i in range(64)]
    inst = kernel(acts, [0.0], 1)
    for solve in (optimal_value, max_over_starts, optimal_policy):
        with pytest.raises(CapacityError):
            solve(inst)


def test_horizon_far_beyond_recursion_limit():
    inst = kernel([act("a", "g", {0: ((1, 1.0),)}, profit=0.5)], [0.0, 2.0], 10_000)
    assert optimal_value(inst) == 2.5
    assert max_over_starts(inst) == 2.5
    tree = optimal_policy(inst)
    assert tree == PolicyNode("a", 0, 1, {1: leaf_node(1, 2)})


def _climbers(profits):
    """One single-action group per profit, each row one level up (level 12
    stays), over 13 levels at horizon 24."""
    acts = [act(f"a{i}", f"g{i}", {lvl: ((min(lvl + 1, 12), 1.0),) for lvl in range(13)},
                profit=profit) for i, profit in enumerate(profits)]
    return kernel(acts, [float(h) for h in range(13)], 24)


def test_table_cap_raises_before_allocating():
    # Distinct profits keep the 24 groups in 24 classes: 2^24 count vectors.
    inst = _climbers([(i + 1) / 64 for i in range(24)])
    assert 13 * 2 ** 24 > CELL_CAP
    entries = dict(exact._SHAPES)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        for solve in (optimal_value, max_over_starts, optimal_policy):
            with pytest.raises(CapacityError):
                solve(inst)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 1 << 20
    assert exact._SHAPES == entries


def test_identical_groups_past_the_mask_cap_solve_as_one_class():
    # The same 24 groups with equal rows are one class of 24: 25 count
    # vectors of 13 levels, where their masks would pass CELL_CAP.
    inst = _climbers([0.0] * 24)
    value, stats = solve(inst)
    assert 13 * 2 ** 24 > CELL_CAP
    assert (stats.groups, stats.classes, stats.layers, stats.cells) == (24, 1, 25, 325)
    assert value == max_over_starts(inst) == 12.0
    # Each step takes the first unused group in action-list order; at level
    # 12 staying ties the terminal payoff, which the policy takes.
    tree, path = optimal_policy(inst), []
    while tree.action is not None:
        path.append((tree.action, tree.level))
        (tree,) = tree.children.values()
    assert path == [(f"a{i}", min(i, 12)) for i in range(24)]


class _Reference:
    """Memoised backward induction over (t, level, mask) with a no-op filler
    step, the way the solver was first written; the sweep must match it."""

    def __init__(self, inst):
        groups = inst.groups()
        self.inst = inst
        self.full = (1 << len(groups)) - 1
        self.order = [(1 << i, sorted((s for s in inst.actions if s.group == g),
                                      key=lambda s: s.id))
                      for i, g in enumerate(groups)]
        self.memo = {}

    def q_values(self, t, level, mask):
        for bit, members in self.order:
            if mask & bit:
                for spec in members:
                    row = spec.rows.get(level)
                    if row is not None:
                        q = row.profit
                        for j, p in row.probs:
                            if p > 0.0:
                                q += p * self.value(t + 1, j, mask & ~bit)
                        yield spec, bit, q

    def value(self, t, level, mask):
        if t == self.inst.horizon + 1:
            return self.inst.terminal[level]
        key = (t, level, mask)
        if key not in self.memo:
            best = self.value(t + 1, level, mask)
            for _spec, _bit, q in self.q_values(t, level, mask):
                if q > best:
                    best = q
            self.memo[key] = best
        return self.memo[key]

    def policy(self, t, level, mask):
        if t == self.inst.horizon + 1:
            return leaf_node(level, t)
        best = None
        for choice in self.q_values(t, level, mask):
            if best is None or choice[2] > best[2]:
                best = choice
        if best is None or best[2] < self.value(t + 1, level, mask):
            return leaf_node(level, t)
        spec, bit, _ = best
        return PolicyNode(spec.id, level, t,
                          {j: self.policy(t + 1, j, mask & ~bit)
                           for j, p in spec.rows[level].probs if p > 0.0})


def _shape(node):
    """A tree as nested tuples, children in dict order."""
    return (node.action, node.level, node.t,
            tuple((j, _shape(child)) for j, child in node.children.items()))


def _flipped(inst):
    """Negated profits and a reversed terminal vector."""
    acts = [ActionSpec(s.id, s.group, {lvl: TransitionRow(row.probs, -row.profit)
                                       for lvl, row in s.rows.items()})
            for s in inst.actions]
    return kernel(acts, inst.terminal[::-1], inst.horizon, inst.start_level)


def test_sweep_matches_reference_recursion_exactly():
    seen = set()
    count = 0
    for seed in range(40):
        # Masses k/q with q not a power of two round, so reordered sums show.
        base = gen_random_kernel(seed, GenParams(n=5 + seed % 3, levels=3 + seed % 3,
                                                 q=7 + seed % 4))
        groups = len(base.groups())
        if groups < len(base.actions):
            seen.add("shared group")
        if any(len(s.rows) < len(base.terminal) for s in base.actions):
            seen.add("missing row")
        for horizon in (groups - 2, groups, groups + 1):
            inst = kernel(base.actions, base.terminal, max(horizon, 0))
            for variant in (inst, _flipped(inst)):
                ref = _Reference(variant)
                assert optimal_value(variant) == ref.value(1, 0, ref.full)
                assert max_over_starts(variant) == max(
                    ref.value(1, level, ref.full) for level in range(len(variant.terminal)))
                assert _shape(optimal_policy(variant)) == _shape(ref.policy(1, 0, ref.full))
                seen.add((horizon > groups) - (horizon < groups))
                count += 1
    assert count >= 200
    assert seen == {-1, 0, 1, "shared group", "missing row"}


def test_wide_group_counts_match_reference_recursion_exactly():
    # Group counts from 25 to 63 are limited by table cells alone.
    cases = []
    for seed, n in enumerate((34, 42, 50, 58, 66, 74)):
        base = gen_random_kernel(seed, GenParams(n=n, levels=3 + seed % 2, q=7 + seed % 4))
        assert 25 <= len(base.groups()) <= 63
        cases += [kernel(base.actions, base.terminal, horizon) for horizon in (1, 2)]
    row = {0: ((0, 0.5), (1, 0.25), (2, 0.25)), 1: ((1, 0.75), (2, 0.25))}
    widest = [act(f"a{i}", f"g{i}", row, profit=(i % 5) / 7) for i in range(63)]
    cases += [kernel(widest, [0.0, 1.0, 3.0], horizon) for horizon in (1, 2)]
    for inst in cases:
        ref = _Reference(inst)
        assert optimal_value(inst) == ref.value(1, 0, ref.full)
        assert max_over_starts(inst) == max(
            ref.value(1, level, ref.full) for level in range(len(inst.terminal)))
        assert _shape(optimal_policy(inst)) == _shape(ref.policy(1, 0, ref.full))
    assert len(cases[-1].groups()) == 63


# --- the sweep before dominated rows were pruned, kept verbatim as the
# reference for the tables of the pruned, level-restricted sweep.

class _Rows:
    """One action's rows, term-major for the sweep.

    Rows are ordered by support size, largest first, so the rows that have
    a ``k``-th positive-mass outcome are a prefix; ``terms[k]`` holds its
    length and those outcomes' levels and masses.
    """

    def __init__(self, spec: ActionSpec):
        rows = sorted(spec.rows.items(), key=lambda item: -len(item[1].support))
        self.levels = np.array([level for level, _ in rows], dtype=np.intp)
        self.profit = np.array([row.profit for _, row in rows], dtype=float)[:, None]
        self.terms = []
        for k in range(len(rows[0][1].support) if rows else 0):
            live = [row.support[k] for _, row in rows if len(row.support) > k]
            self.terms.append((len(live), np.array([j for j, _ in live], dtype=np.intp),
                               np.array([p for _, p in live], dtype=float)[:, None]))

    def improve(self, best: np.ndarray, child: np.ndarray) -> None:
        """Raise ``best`` (levels x masks) to this action's values where they
        are strictly larger, given the child rows (levels x masks, or levels
        x 1 when every mask has the same child row)."""
        if not len(self.levels):
            return
        q = np.repeat(self.profit, child.shape[1], axis=1)
        for m, targets, probs in self.terms:
            term = child[targets]
            term *= probs
            q[:m] += term
        old = best[self.levels]
        best[self.levels] = np.where(q > old, q, old)


def _sweep(kernel: _Kernel):
    """Yield the value table of every layer, bottom layer first, as a
    (levels x masks) array whose columns follow the layer's masks."""
    terminal = np.array(kernel.terminal, dtype=float)[:, None]
    groups = [(bit, [_Rows(spec) for spec in members]) for bit, members in kernel.groups]
    layers, depth = kernel.layers, kernel.depth
    # The bottom layer, the widest, is terminal in every column: it is kept
    # as a read-only broadcast and never gathered from.
    table = np.broadcast_to(terminal, (len(terminal), len(layers[depth])))
    yield table
    for u in range(depth - 1, -1, -1):
        child = table
        used = layers[u]
        table = np.repeat(terminal, len(used), axis=1)
        for bit, members in groups:
            sel = np.flatnonzero((used & bit) == 0)
            if not len(sel):
                continue
            if u + 1 == depth:
                rows = terminal
            else:
                rows = child[:, np.searchsorted(layers[u + 1], used[sel] | bit)]
            best = table[:, sel]
            for member in members:
                member.improve(best, rows)
            table[:, sel] = best
        yield table


# --- the mask sweep from before classes of groups, kept verbatim (but for
# its names) as the reference for the count-vector sweep: a state names
# every used group in a bitmask, and the tables run over the masks.

class _MaskShape:
    """The mask layers ``0..depth`` of ``groups`` groups, and each block's
    group flags and child columns found by a search, independently of the
    solver's shapes."""

    def __init__(self, groups, depth):
        self.layers = _concatenated_layers(groups, depth)
        self.bits = (np.int64(1) << np.arange(groups, dtype=np.int64))[:, None]
        self.taken = None

    def block(self, u, lo, stop):
        masks = self.layers[u][lo:stop]
        taken = (masks & self.bits) != 0
        if u + 2 >= len(self.layers):
            return taken, None
        child = self.layers[u + 1]
        columns = np.minimum(child.searchsorted(masks | self.bits), len(child) - 1)
        return taken, columns.astype(np.int32)


def _mask_kernel(inst):
    """The solver's kernel with every group in a class of its own, read
    through the names and mask layers the verbatim sweep expects; the
    solver's shape cache is left as it was."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact, "_signature", lambda rows: None)
        patch.setattr(exact, "_SHAPES", type(exact._SHAPES)())
        kernel = exact._Kernel(inst)
    assert kernel.sizes == (1,) * len(kernel.groups)
    shape = _MaskShape(len(kernel.groups), kernel.depth)
    return SimpleNamespace(**vars(kernel), pair_group=kernel.pair_class,
                           row_group=kernel.row_class, mask_shape=shape)


def _mask_tables(inst):
    """Every layer's table from the verbatim mask sweep, bottom first."""
    kernel = _mask_kernel(inst)
    kernel.shape, kernel.layers = kernel.mask_shape, kernel.mask_shape.layers
    with np.errstate(over="ignore", invalid="ignore"):
        return list(_mask_sweep(kernel))


def _mask_row_values(kernel: _Kernel, values: np.ndarray) -> np.ndarray:
    """Every kept row's value, ``profit + sum_k p_k * child_k`` added in
    outcome order, given a value block (pairs + 1, masks or 1)."""
    pair, mass = kernel.terms[0]
    q = values.take(pair, axis=0)
    q *= mass
    q += kernel.profit
    for pair, mass in kernel.terms[1:]:
        term = values.take(pair, axis=0)
        term *= mass
        q += term
    return q


def _mask_child_values(kernel: _Kernel, child: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """The value block of some masks of a layer, given their child columns
    (``columns``, groups x masks): row 0 is -0.0, and row 1 + i holds pair
    i's child value for every mask."""
    at = columns.take(kernel.pair_group, axis=0)
    at += (kernel.pair_target * child.shape[1]).astype(np.int32)[:, None]
    values = np.empty((len(at) + 1, columns.shape[1]))
    values[0] = -0.0
    child.ravel().take(at, out=values[1:], mode="clip")
    return values


def _mask_ranked(kernel: _Kernel, table: np.ndarray) -> None:
    """Fill the layer above the bottom, ``table`` (levels x masks, the
    terminal payoff in every cell), from each level's rows ranked once (see
    the module docstring)."""
    u, shape = kernel.depth - 1, kernel.shape
    bottom = np.concatenate([[-0.0], kernel.terminal[kernel.pair_target, 0]])
    same = _mask_row_values(kernel, bottom[:, None])[:, 0].tolist()
    group = kernel.row_group.tolist()
    chains = []
    for level, floor, run in zip(kernel.levels.tolist(), kernel.floor[:, 0].tolist(),
                                 kernel.runs):
        # The rows that beat the floor (never a NaN), highest first with
        # ties in row order, and the first of each group.
        picks: dict[int, float] = {}
        for r in sorted((r for r in range(run.start, run.stop) if same[r] > floor),
                        key=lambda r: -same[r]):
            picks.setdefault(group[r], same[r])
        if picks:
            chains.append((level, list(picks.items())[:u + 1]))
    tested = sorted({g for _, picks in chains for g, _ in picks[:u]})
    for lo in range(0, table.shape[1], exact._BLOCK_CELLS):
        if shape.taken is not None:
            taken = shape.taken[u][:, lo:lo + exact._BLOCK_CELLS]
        else:
            # Only the flags of the groups some level tests, one row each.
            masks = kernel.layers[u][lo:lo + exact._BLOCK_CELLS]
            taken = {g: (masks & (1 << g)) != 0 for g in tested}
        for level, picks in chains:
            # A mask holds u groups, so one of u + 1 picked groups is free.
            v = picks[u][1] if len(picks) > u else table[level, lo:lo + exact._BLOCK_CELLS]
            for g, q in reversed(picks[:u]):
                v = np.where(taken[g], v, q)
            table[level, lo:lo + exact._BLOCK_CELLS] = v


def _mask_sweep(kernel: _Kernel):
    """Yield the value table of every layer, bottom layer first, as a
    (levels x masks) array whose columns follow the layer's masks.

    Callers run the whole sweep under one ``np.errstate(over="ignore",
    invalid="ignore")``, so a value past the float range becomes inf
    without a warning, as it does in Python floats.  The setting is not
    made in here: a generator's context stays entered across its yields,
    so it would leak into the caller between them."""
    terminal, levels, floor, runs = kernel.terminal, kernel.levels, kernel.floor, kernel.runs
    layers, depth, shape = kernel.layers, kernel.depth, kernel.shape
    G = len(kernel.groups)
    signed_zeros = bool((floor < 0.0).any())
    step = max(1, exact._BLOCK_CELLS // max(G, len(kernel.pair_group) + 1, len(kernel.row_group)))
    # The bottom layer, the widest, is terminal in every column: it is kept
    # as a read-only broadcast and never gathered from.
    table = np.broadcast_to(terminal, (len(terminal), len(layers[depth])))
    yield table
    for u in range(depth - 1, -1, -1):
        child, used = table, layers[u]
        table = terminal.repeat(len(used), axis=1)
        if u + 1 == depth:
            _mask_ranked(kernel, table)
            yield table
            continue
        for lo in range(0, len(used), step):
            taken, columns = shape.block(u, lo, lo + step)
            q = _mask_row_values(kernel, _mask_child_values(kernel, child, columns))
            q = np.where(taken.take(kernel.row_group, axis=0), -np.inf, q)
            best = np.empty((len(levels), taken.shape[1]))
            for i, run in enumerate(runs):
                np.fmax.reduce(q[run], axis=0, out=best[i])
            if signed_zeros:
                # max may return either zero; the sequential fold keeps the
                # first, which only shows where it beats a negative floor.
                tie = (best == 0.0) & (floor < 0.0)
                for i in np.flatnonzero(tie.any(axis=1)):
                    cols = np.flatnonzero(tie[i])
                    run = q[runs[i], cols]
                    best[i, cols] = run[(run == 0.0).argmax(axis=0), np.arange(len(cols))]
            table[levels, lo:lo + taken.shape[1]] = np.where(best > floor, best, floor)
        yield table


def _reference_tables(inst):
    """Every layer's table from the reference sweep, on the mask layers."""
    kernel = exact._Kernel(inst)
    return list(_sweep(SimpleNamespace(
        groups=kernel.groups, terminal=inst.terminal,
        layers=_concatenated_layers(len(kernel.groups), kernel.depth), depth=kernel.depth)))


def _on_masks(kernel, table, masks):
    """A count-vector table read at each mask's vector: (levels x masks).

    A swept layer must hold exactly the vectors of the masks, ascending;
    the bottom one, terminal in every column, keeps only their number."""
    place = kernel.shape.place[:, 0][kernel.group_class]
    bits = (masks[:, None] >> np.arange(len(place), dtype=np.int64)) & 1
    codes = bits @ place if len(place) else np.zeros(len(masks), dtype=np.int64)
    vectors = np.unique(codes)
    assert table.shape[1] == len(vectors)
    u = int(bits[0].sum())
    if u == kernel.depth:
        return table[:, np.zeros(len(masks), dtype=np.intp)]
    assert np.array_equal(kernel.layers[u], vectors)
    return table[:, vectors.searchsorted(codes)]


def _assert_tables_match_reference(inst):
    """Every layer's table, read at each mask's vector, equals the reference
    sweep's and the verbatim mask sweep's bit for bit; returns the number
    of rows the sweep pruned."""
    kernel = exact._Kernel(inst)
    with np.errstate(over="ignore", invalid="ignore"):
        tables = list(exact._sweep(kernel))
    reference = _reference_tables(inst)
    verbatim = _mask_tables(inst)
    masks = _concatenated_layers(len(kernel.groups), kernel.depth)
    assert len(tables) == len(reference) == len(verbatim) == kernel.depth + 1
    for table, want, mask_table, used in zip(tables, reference, verbatim, masks[::-1]):
        assert want.shape == mask_table.shape == (len(inst.terminal), len(used))
        expanded = _on_masks(kernel, table, used)
        assert np.array_equal(expanded.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(expanded.view(np.uint64), mask_table.view(np.uint64))
    return kernel.rows_pruned


def _probemax13(seed, n, m):
    """Probemax on the default greedy-tied grid, 13 levels at eps 0.3."""
    spec = gen_random(seed, GenParams(kind="probemax", n=n, m=m, support=3, levels=8,
                                      q=8, step=1.0, eps=0.3))
    inst, _ = build_probemax(spec)
    assert len(inst.terminal) == 13
    return inst


def _with_duplicates(base, seed):
    """``base`` with copies of some of its groups, each a new group of the
    same members' rows under new ids, and the action list shuffled."""
    rng = random.Random(seed)
    groups = base.groups()
    extra = [ActionSpec(f"{spec.id}~{k}", f"{group}~{k}", spec.rows)
             for k in range(1 + seed % 4) for group in [rng.choice(groups)]
             for spec in base.actions if spec.group == group]
    actions = [*base.actions, *extra]
    rng.shuffle(actions)
    return kernel(actions, base.terminal, base.horizon + 1 + seed % 3,
                  seed % len(base.terminal))


def _duplicate_cases():
    """Random kernels with forced duplicate groups, some of several
    members, some with missing rows."""
    return [_with_duplicates(gen_random_kernel(seed, GenParams(
        n=4 + seed % 4, levels=3 + seed % 4, q=5 + seed % 5, flat_bias=0.5 + 0.3 * (seed % 2))),
        seed) for seed in range(16)]


def _sweep_cases():
    """Probemax cases first (six of them), then random kernels, the last
    ones with forced duplicate groups."""
    cases = [_probemax13(seed, n, m)
             for seed in (501, 502) for n, m in ((10, 3), (12, 4), (16, 4))]
    for seed in range(24):
        for bias in (0.5, 0.8):
            cases.append(gen_random_kernel(seed, GenParams(
                n=5 + seed % 4, levels=3 + seed % 4, q=5 + seed % 5, flat_bias=bias)))
    return cases + _duplicate_cases()[::4]


def test_pruned_sweep_tables_match_the_reference_bit_for_bit():
    cases = _sweep_cases()
    pruned = {"probemax": 0, "kernel": 0}
    for k, base in enumerate(cases):
        for inst in (base, _flipped(base)):
            pruned["probemax" if k < 6 else "kernel"] += _assert_tables_match_reference(inst)
    # Pruning must really happen on both kinds, or the test compares nothing.
    assert pruned["probemax"] >= 1000
    assert pruned["kernel"] >= 200


@pytest.mark.parametrize("cells", [1, 200])
def test_block_edges_inside_a_layer_keep_the_reference_tables(monkeypatch, cells):
    # One column per block, then blocks of a few columns: layers span many
    # blocks and the last block of a layer is partial.
    monkeypatch.setattr(exact, "_BLOCK_CELLS", cells)
    cases = _sweep_cases()
    assert max(len(layer) for layer in exact._Kernel(cases[5]).layers) > cells
    for base in cases:
        exact._SHAPES.clear()
        for inst in (base, _flipped(base)):
            _assert_tables_match_reference(inst)


@pytest.mark.parametrize("cells", [1, 200])
def test_block_edges_read_shapes_built_at_the_default_block_size(monkeypatch, cells):
    # The cached arrays do not depend on the block size, so a sweep in
    # small blocks reads the ones built in default blocks.
    for base in _sweep_cases():
        exact._SHAPES.clear()
        shape = exact._Kernel(base).shape
        with monkeypatch.context() as patch:
            patch.setattr(exact, "_BLOCK_CELLS", cells)
            for inst in (base, _flipped(base)):
                _assert_tables_match_reference(inst)
        assert list(exact._SHAPES.values()) == [shape]


def test_cold_and_warm_shapes_keep_the_reference_tables():
    for base in _sweep_cases():
        for inst in (base, _flipped(base)):
            exact._SHAPES.clear()
            _assert_tables_match_reference(inst)
            shapes = list(exact._SHAPES.values())
            assert len(shapes) == 1
            _assert_tables_match_reference(inst)
            assert list(exact._SHAPES.values()) == shapes


def _cold(inst):
    """Value, policy and tables, each from a solve that builds its shape."""
    exact._SHAPES.clear()
    value, stats = solve(inst)
    assert not stats.shape_reused
    exact._SHAPES.clear()
    tree = _shape(optimal_policy(inst))
    exact._SHAPES.clear()
    return value, tree, list(exact._sweep(exact._Kernel(inst)))


def test_interleaved_instances_of_one_shape_match_cold_solves():
    # Two Probemax instances whose groups fall into classes of the same
    # sizes, (2, 2, 1, ..., 1).
    pairs = [(_probemax13(505, 16, 4), _probemax13(506, 16, 4))]
    pairs.append((_flipped(pairs[0][0]), pairs[0][1]))
    base = gen_random_kernel(3, GenParams(n=6, levels=4, q=7))
    other = gen_random_kernel(4, GenParams(n=6, levels=4, q=7))
    pairs.append((base, kernel(other.actions, other.terminal, base.horizon)))
    for a, b in pairs:
        kernels = exact._Kernel(a), exact._Kernel(b)
        assert (kernels[0].sizes, kernels[0].depth) == (kernels[1].sizes, kernels[1].depth)
        assert not np.array_equal(kernels[0].profit, kernels[1].profit)
        want = {id(a): _cold(a), id(b): _cold(b)}
        exact._SHAPES.clear()
        for k, inst in enumerate((a, b, a, b, b, a)):
            value, stats = solve(inst)
            assert stats.shape_reused == (k > 0)
            cold_value, cold_tree, cold_tables = want[id(inst)]
            assert value == cold_value
            assert _shape(optimal_policy(inst)) == cold_tree
            for table, cold in zip(exact._sweep(exact._Kernel(inst)), cold_tables, strict=True):
                assert np.array_equal(table.view(np.uint64), cold.view(np.uint64))
        assert len(exact._SHAPES) == 1


def test_cached_shape_arrays_are_read_only():
    for sizes in ((1,) * 6, (3, 2, 1)):
        shape, _ = exact._shape(sizes, 4)
        arrays = [shape.place, shape.radix, *shape.layers, *shape.taken, *shape.columns]
        assert len(arrays) == 2 + 4 + 4 + 3
        for array in arrays:
            with pytest.raises(ValueError):
                array[0] = 1


def _vector_codes(sizes, u):
    """The codes of the count vectors of the classes that sum to ``u``,
    ascending, by brute force; a class's place value is the product of
    the digit bases below it."""
    place = [math.prod(size + 1 for size in sizes[:c]) for c in range(len(sizes))]
    return np.array(sorted(sum(d * p for d, p in zip(digits, place))
                           for digits in itertools.product(*(range(s + 1) for s in sizes))
                           if sum(digits) == u), dtype=np.int64)


#: Class sizes with more than one group in some class, largest first.
_CLASS_SIZES = [(2,), (3, 1), (2, 2, 1), (3, 3, 3), (4, 2, 2, 1, 1), (2, 2, 2, 2, 1, 1, 1),
                (4, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1)]


@pytest.mark.parametrize("cells", [1, 7, 1 << 14])
def test_cached_group_flags_and_child_columns_match_a_search(monkeypatch, cells):
    monkeypatch.setattr(exact, "_BLOCK_CELLS", cells)
    shapes = [((1,) * g, d) for g in range(8) for d in range(g + 1)]
    shapes += [((1,) * 20, 4), ((1,) * 63, 3), ((1,) * 63, 4)]
    shapes += [(sizes, d) for sizes in _CLASS_SIZES for d in range(min(sum(sizes), 6) + 1)]
    for sizes, depth in shapes:
        exact._SHAPES.clear()
        shape, reused = exact._shape(sizes, depth)
        assert not reused
        assert len(shape.layers) == len(shape.taken) == depth
        assert len(shape.columns) == max(depth - 1, 0)
        masks = _concatenated_layers(len(sizes), depth) if set(sizes) <= {1} else None
        place, size = shape.place, shape.radix - 1
        for u, used in enumerate(shape.layers):
            want = masks[u] if masks is not None else _vector_codes(sizes, u)
            assert np.array_equal(used, want)
            digits = used // place % shape.radix
            taken = digits == size
            assert np.array_equal(shape.taken[u], taken)
            if u + 1 == depth:
                continue
            columns, child = shape.columns[u], shape.layers[u + 1]
            assert columns.dtype == (np.int16 if len(child) <= 1 << 15 else np.int32)
            assert ((0 <= columns) & (columns < len(child))).all()
            free = ~taken
            want = np.searchsorted(child, (used + place)[free])
            assert np.array_equal(child[want], (used + place)[free])
            assert np.array_equal(columns[free], want)
    # Columns into a layer past 2^15 codes take int32.
    assert exact._shape((1,) * 63, 4)[0].columns[2].dtype == np.int32


def _searched_policy(instance):
    """``optimal_policy`` as it was before child columns were cached: one
    search and one column read per (node, unused group), in the tables of
    the verbatim mask sweep."""
    kernel = _mask_kernel(instance)
    tables = _mask_tables(instance)[::-1]
    layers, terminal = kernel.mask_shape.layers, instance.terminal
    holder = {}
    stack = [(holder, None, 0, instance.start_level, 0)]
    while stack:
        parent, key, u, level, used = stack.pop()
        node = None
        if u < kernel.depth:
            best, best_q, best_used = None, 0.0, 0
            for bit, members in kernel.groups:
                if used & bit:
                    continue
                nxt = used | bit
                col = tables[u + 1][:, np.searchsorted(layers[u + 1], nxt)].tolist()
                for spec in members:
                    row = spec.rows.get(level)
                    if row is None:
                        continue
                    q = row.profit
                    for j, p in row.support:
                        q += p * col[j]
                    if best is None or q > best_q:
                        best, best_q, best_used = spec, q, nxt
            if best is not None and not best_q < terminal[level]:
                children = dict.fromkeys(j for j, _ in best.rows[level].support)
                node = PolicyNode(best.id, level, u + 1, children)
                stack.extend((children, j, u + 1, j, best_used) for j in children)
        parent[key] = leaf_node(level, u + 1) if node is None else node
    return holder[None]


def test_policy_trees_match_the_searched_columns():
    cases = _sweep_cases() + [_probemax13(504, 20, 6), _probemax13(505, 18, 5)]
    for base in cases:
        for inst in (base, _flipped(base)):
            for start in {0, inst.start_level, len(inst.terminal) - 1}:
                started = kernel(inst.actions, inst.terminal, inst.horizon, start)
                assert optimal_policy(started) == _searched_policy(started)


def test_shape_cache_is_bounded_in_bytes(monkeypatch):
    ones = [(0, 0), (3, 1), (6, 4), (16, 4), (20, 6), (63, 3), (63, 4)]
    for sizes, depth in [((1,) * g, d) for g, d in ones] + [(s, 4) for s in _CLASS_SIZES]:
        shape = exact._build(sizes, depth)
        arrays = [shape.place, shape.radix, *shape.layers, *shape.taken, *shape.columns]
        assert sum(a.nbytes for a in arrays) == exact._shape_bytes(sizes, depth)
    a, b, c, d = ((1,) * 16, 4), ((1,) * 18, 5), ((1,) * 12, 3), ((1,) * 20, 6)
    monkeypatch.setattr(exact, "_SHAPES", type(exact._SHAPES)())
    monkeypatch.setattr(exact, "_SHAPE_BYTES", exact._shape_bytes(*a) + exact._shape_bytes(*b))
    assert not exact._shape(*a)[1] and not exact._shape(*b)[1]
    assert exact._shape(*a)[1]
    # A third shape drops the least recently used one.
    assert not exact._shape(*c)[1]
    assert list(exact._SHAPES) == [a, c]
    # A shape past the budget alone is neither built nor cached.
    for _ in range(2):
        shape, reused = exact._shape(*d)
        assert not reused and shape.taken is None and shape.columns is None
    assert list(exact._SHAPES) == [a, c]


def test_threads_share_the_shape_cache_within_its_byte_budget(monkeypatch):
    shapes = [(6, 2), (8, 3), (10, 3), (12, 4)]
    insts = [_probemax13(510 + i, n, m) for i, (n, m) in enumerate(shapes)]
    want = [optimal_value(inst) for inst in insts]
    keys = [(k.sizes, k.depth) for k in map(exact._Kernel, insts)]
    assert len(set(keys)) == 4
    monkeypatch.setattr(exact, "_SHAPES", type(exact._SHAPES)())
    # Room for about two of the four shapes, so threads keep evicting.
    budget = exact._shape_bytes(*keys[3]) + exact._shape_bytes(*keys[2])
    monkeypatch.setattr(exact, "_SHAPE_BYTES", budget)
    wrong, errors = [], []

    def work(k):
        try:
            for i in range(24):
                j = (k + i) % len(insts)
                if optimal_value(insts[j]) != want[j]:
                    wrong.append(j)
        except Exception as err:  # reported by the assert below
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and wrong == []
    assert sum(exact._shape_bytes(*key) for key in exact._SHAPES) <= budget


@pytest.mark.parametrize("cells", [1, 200, 1 << 14])
def test_uncached_shapes_keep_the_reference_tables_and_trees(monkeypatch, cells):
    monkeypatch.setattr(exact, "_SHAPES", type(exact._SHAPES)())
    monkeypatch.setattr(exact, "_SHAPE_BYTES", 0)
    monkeypatch.setattr(exact, "_BLOCK_CELLS", cells)
    for base in _sweep_cases():
        for inst in (base, _flipped(base)):
            _assert_tables_match_reference(inst)
            assert not solve(inst)[1].shape_reused
            assert optimal_policy(inst) == _searched_policy(inst)
    assert not exact._SHAPES


def test_wide_few_level_shapes_past_the_budget_keep_their_memory_to_the_tables(monkeypatch):
    # One level and 20 groups: the group flags and child columns would
    # outweigh the value tables, so a shape past the budget must not build
    # them; the solve holds only the mask layers, two tables and block
    # temporaries.
    acts = [act(f"a{i}", f"g{i}", {0: ((0, 1.0),)}, profit=0.1 * (i + 1)) for i in range(20)]
    inst = kernel(acts, [0.0], 7)
    layers = exact._frame((1,) * 20, 7)[0].layers
    held = 8 * (len(layers[6]) + len(layers[5]))
    want = optimal_value(inst)
    monkeypatch.setattr(exact, "_SHAPES", type(exact._SHAPES)())
    monkeypatch.setattr(exact, "_SHAPE_BYTES", exact._shape_bytes((1,) * 20, 7) - 1)
    tracemalloc.start()
    try:
        value = optimal_value(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == want
    assert not exact._SHAPES
    assert peak < sum(layer.nbytes for layer in layers) + held + 16 * 8 * exact._BLOCK_CELLS
    assert peak < exact._shape_bytes((1,) * 20, 7)


def _check_against_reference(inst):
    ref = _Reference(inst)
    assert optimal_value(inst) == ref.value(1, inst.start_level, ref.full)
    assert _shape(optimal_policy(inst)) == _shape(ref.policy(1, inst.start_level, ref.full))
    _assert_tables_match_reference(inst)
    return exact._Kernel(inst)


def test_a_stay_row_with_positive_profit_is_kept():
    stay = act("s", "gs", {1: ((1, 1.0),)}, profit=0.25)
    move = act("b", "gb", {0: ((0, 0.5), (1, 0.5))})
    kernel_ = _check_against_reference(kernel([stay, move], [0.0, 2.0], 2, start_level=1))
    assert (kernel_.rows_swept, kernel_.rows_pruned) == (2, 0)
    assert optimal_value(kernel([stay, move], [0.0, 2.0], 2, start_level=1)) == 2.25


def test_a_stay_row_with_zero_mass_entries_is_pruned():
    stay = act("s", "gs", {1: ((1, 1.0), (0, 0.0), (2, 0.0))})
    move = act("b", "gb", {0: ((0, 0.5), (1, 0.5)), 1: ((1, 0.5), (2, 0.5))})
    for start in (0, 1):
        kernel_ = _check_against_reference(kernel([stay, move], [0.0, 1.0, 3.0], 2, start))
        assert (kernel_.rows_swept, kernel_.rows_pruned) == (2, 1)


def test_a_lone_stay_mass_below_one_is_kept():
    # Not a compliant row (its masses sum to 3/4), so the pruning rule does
    # not apply, even though the row never leaves its level.
    stay = act("s", "gs", {1: ((1, 0.75),)}, profit=-0.5)
    move = act("b", "gb", {0: ((0, 0.5), (1, 0.5))})
    kernel_ = _check_against_reference(kernel([stay, move], [0.0, 2.0], 2))
    assert (kernel_.rows_swept, kernel_.rows_pruned) == (2, 0)


def test_a_pruned_row_that_ties_the_optimum_keeps_the_reference_tree():
    # From level 0 with two steps, staying first (worth the one step of b
    # left afterwards, 1.0) ties probing b first (0.5 * 0 + 0.5 * 2).  The
    # stay row's group comes first in the action list, so both the solver
    # and the reference recursion take it, then b.
    stay = act("s", "ga", {0: ((0, 1.0),)})
    move = act("b", "gb", {0: ((0, 0.5), (2, 0.5))})
    inst = kernel([stay, move], [0.0, 1.0, 2.0], 2)
    kernel_ = _check_against_reference(inst)
    assert kernel_.rows_pruned == 1
    tree = optimal_policy(inst)
    assert (tree.action, tree.children[0].action) == ("s", "b")
    assert optimal_value(inst) == 1.0


def test_solve_returns_the_value_and_its_stats():
    inst = _probemax13(503, 12, 4)
    value, stats = solve(inst)
    assert isinstance(stats, ExactStats)
    assert value == optimal_value(inst)
    started = replace(inst, start_level=5)
    assert solve(started)[0] == optimal_value(started)
    kernel_ = exact._Kernel(inst)
    groups, K = len(inst.groups()), len(inst.terminal)
    assert (stats.groups, stats.layers) == (groups, 5)
    # Cells count the distinct count vectors of the groups' classes.
    classes = kernel_.group_class
    assert stats.classes == len(set(classes)) < groups
    assert stats.cells == K * sum(
        len({tuple(sorted(classes[g] for g in used)) for used in itertools.combinations(
            range(groups), u)}) for u in range(5))
    dominated = sum(row.profit <= 0.0 and row.support == ((level, 1.0),)
                    for spec in inst.actions for level, row in spec.rows.items())
    assert dominated > 0
    assert stats.rows_pruned == dominated == kernel_.rows_pruned
    assert stats.rows_swept == sum(len(spec.rows) for spec in inst.actions) - dominated
    # The layer being filled plus the one it reads; the bottom layer is a
    # broadcast of the terminal column.
    tables = list(exact._sweep(kernel_))
    held = [t.shape[1] for t in tables[1:]] + [1]
    assert stats.peak_table_bytes == 8 * K * max(a + b for a, b in zip(held[1:], held))
    assert stats.seconds > 0.0
    with pytest.raises(ParameterError):
        solve(replace(inst, start_level=K))


def test_solve_stats_on_a_horizon_zero_instance():
    inst = kernel([act("a", "g", {0: ((1, 1.0),)}, profit=0.5)], [0.0, 2.0], 0)
    value, stats = solve(inst)
    assert value == 0.0
    assert (stats.groups, stats.layers, stats.cells) == (1, 1, 2)
    assert (stats.rows_swept, stats.rows_pruned, stats.peak_table_bytes) == (1, 0, 16)
    assert [f.name for f in fields(ExactStats)] == [
        "groups", "classes", "layers", "cells", "rows_swept", "rows_pruned", "peak_table_bytes",
        "seconds", "layer_seconds", "shape_reused"]


def _sign(x):
    return math.copysign(1.0, x)


#: Ten groups whose only row is pruned: they widen every layer, so each
#: level's maximum runs over many masks at once.
_FILLERS = [act(f"z{i}", f"gz{i}", {1: ((1, 1.0),)}) for i in range(10)]


def test_members_of_one_group_at_one_level_tie_to_the_lower_id():
    # Into a -0.0 terminal, a's row is worth -0.0 and b's +0.0; both beat
    # the -1.0 terminal, and the lower id, listed last, keeps its zero.
    b = act("b", "g", {0: ((1, 1.0),)}, profit=0.0)
    a = act("a", "g", {0: ((1, 1.0),)}, profit=-0.0)
    for horizon in (1, 2):
        inst = kernel([b, a, *_FILLERS], [-1.0, -0.0], horizon)
        _check_against_reference(inst)
        assert _sign(optimal_value(inst)) == -1.0
        assert optimal_policy(inst).action == "a"


def test_a_signed_zero_tie_between_groups_keeps_the_first_group():
    neg = act("n", "gn", {0: ((1, 1.0),)}, profit=-0.0)
    pos = act("p", "gp", {0: ((1, 1.0),)}, profit=0.0)
    # Never chosen (worth -8.0); its two outcomes pad the rows above with
    # a second term, which must leave their zeros as they are.
    low = act("w", "gw", {0: ((1, 0.5), (2, 0.5))}, profit=-9.0)
    for order, sign in (([neg, pos], -1.0), ([pos, neg], 1.0)):
        for horizon in (1, 2, 3):
            inst = kernel([*order, low, *_FILLERS], [-1.0, -0.0, 2.0], horizon)
            _check_against_reference(inst)
            assert _sign(optimal_value(inst)) == sign


def test_a_zero_row_leaves_the_other_zero_terminal_alone():
    # A row worth the zero of the other sign ties the terminal payoff and
    # does not replace it.
    for zero in (-0.0, 0.0):
        row = act("r", "gr", {0: ((1, 1.0),)}, profit=-zero)
        for fillers in ([], _FILLERS):
            for horizon in (1, 2):
                inst = kernel([row, *fillers], [zero, -zero], horizon)
                _check_against_reference(inst)
                assert _sign(optimal_value(inst)) == _sign(zero)


def test_a_used_group_stays_out_above_a_minus_inf_terminal():
    # Once a is taken, nothing can act at level 0, whose terminal is -inf.
    a = act("a", "ga", {0: ((0, 0.5), (1, 0.5))})
    h = act("h", "gh", {1: ((1, 1.0),)}, profit=1.0)
    for horizon in (1, 2):
        _check_against_reference(kernel([a, h, *_FILLERS], [-math.inf, 0.0], horizon))


def test_a_kept_row_with_an_empty_support_is_worth_its_profit():
    # All of e's mass is zero: taking it earns 0.5 and ends the path, while
    # b first and then e from level 0 earns 0.5 * 0.5 + 0.5 * 1.0.
    empty = act("e", "ge", {0: ((1, 0.0),)}, profit=0.5)
    move = act("b", "gb", {0: ((0, 0.5), (1, 0.5))})
    inst = kernel([empty, move], [0.0, 1.0], 2)
    kernel_ = _check_against_reference(inst)
    assert (kernel_.rows_swept, kernel_.rows_pruned) == (2, 0)
    assert optimal_value(inst) == 0.75
    assert optimal_value(kernel([empty, move], [0.0, 1.0], 1)) == 0.5


def test_a_nan_valued_row_is_never_chosen():
    # A profit of +inf into a -inf terminal is worth inf - inf = NaN.
    nan = act("n", "gn", {0: ((1, 1.0),)}, profit=math.inf)
    finite = act("f", "gf", {0: ((0, 1.0),)}, profit=1.0)
    with np.errstate(invalid="ignore"):
        for order in ([nan, finite], [finite, nan]):
            inst = kernel(order, [0.0, -math.inf], 1)
            _check_against_reference(inst)
            assert optimal_value(inst) == 1.0
        assert optimal_value(kernel([nan], [0.0, -math.inf], 1)) == 0.0


def _ranked_cases():
    """Kernels for the layer above the bottom, in two group orders.

    Into a -0.0 terminal at level 1, level 0 has four groups worth a zero:
    g0 through its members a (-0.0) and b (+0.0, listed first, higher id),
    g1 and g3 at +0.0, g2 at -0.0; g4 is worth -3.0, below the -1.0
    terminal.  Level 1 has one row that beats its terminal, one that does
    not, and one worth +0.0, which ties it; no row beats the terminal of
    level 2.  Horizons run past the five groups, so the last layers have
    every group but one used.
    """
    a = act("a", "g0", {0: ((1, 1.0),)}, profit=-0.0)
    b = act("b", "g0", {0: ((1, 1.0),)}, profit=0.0)
    c = act("c", "g1", {0: ((1, 1.0),), 2: ((1, 0.5), (2, 0.5))}, profit=0.0)
    d = act("d", "g2", {0: ((1, 1.0),), 1: ((2, 0.5), (0, 0.5))}, profit=-0.0)
    e = act("e", "g3", {0: ((1, 1.0),), 1: ((0, 1.0),)}, profit=0.0)
    f = act("f", "g4", {0: ((1, 1.0),), 2: ((0, 1.0),)}, profit=-3.0)
    h = act("h", "g4", {1: ((0, 1.0),)}, profit=1.0)
    terminal = [-1.0, -0.0, 5.0]
    cases = []
    for order in ([b, a, c, d, e, f, h], [e, d, c, b, a, f, h]):
        cases += [kernel(order, terminal, horizon) for horizon in (1, 2, 3, 5, 7)]
        cases += [kernel([*order, *_FILLERS], terminal, horizon) for horizon in (1, 2, 3)]
    return cases


def _groups_above_the_terminal(inst):
    """The most groups with a row that beats its level's terminal payoff in
    the layer above the bottom, over all levels."""
    beat = {}
    for spec in inst.actions:
        for level, row in spec.rows.items():
            q = row.profit
            for j, p in row.support:
                q += p * inst.terminal[j]
            if q > inst.terminal[level]:
                beat.setdefault(level, set()).add(spec.group)
    return max(map(len, beat.values()), default=0)


@pytest.mark.parametrize("shape_bytes", [exact._SHAPE_BYTES, 0])
@pytest.mark.parametrize("cells", [1, 200, 1 << 14])
def test_the_ranked_layer_above_the_bottom_keeps_the_reference(monkeypatch, cells,
                                                               shape_bytes):
    monkeypatch.setattr(exact, "_SHAPES", type(exact._SHAPES)())
    monkeypatch.setattr(exact, "_SHAPE_BYTES", shape_bytes)
    monkeypatch.setattr(exact, "_BLOCK_CELLS", cells)
    cases = _ranked_cases()
    for inst in cases:
        _check_against_reference(inst)
    # A mask of that layer has used depth - 1 groups, so the sweep keeps
    # the best row of at most depth groups per level; the cut must bite.
    assert any(_groups_above_the_terminal(inst) > exact._Kernel(inst).depth
               for inst in cases)
    assert any(inst.horizon >= len(inst.groups()) for inst in cases)
    # At horizon 1 the first of equal zeros wins, in group order, then in
    # member id.
    first = cases[0], cases[len(cases) // 2]
    assert [_sign(optimal_value(inst)) for inst in first] == [-1.0, 1.0]
    assert [optimal_policy(inst).action for inst in first] == ["a", "e"]


def test_layer_seconds_time_every_swept_layer():
    inst = _probemax13(503, 12, 4)
    _, stats = solve(inst)
    assert len(stats.layer_seconds) == stats.layers - 1 == 4
    assert all(s > 0.0 for s in stats.layer_seconds)
    assert sum(stats.layer_seconds) <= stats.seconds
    empty = kernel([act("a", "g", {0: ((1, 1.0),)}, profit=0.5)], [0.0, 2.0], 0)
    assert solve(empty)[1].layer_seconds == ()


def _concatenated_layers(groups, depth):
    """The mask layers built one piece per group bit, the way the solver
    first built them."""
    layer = np.zeros(1, dtype=np.int64)
    top = np.full(1, -1)
    layers = [layer]
    for _ in range(depth):
        counts = np.searchsorted(top, np.arange(groups))
        layer = np.concatenate([layer[:n] | (1 << b) for b, n in enumerate(counts)])
        top = np.repeat(np.arange(groups), counts)
        layers.append(layer)
    return layers


def test_mask_layers_match_the_concatenated_reference():
    # Classes of one group each: the codes are the masks.
    for groups, depth in [(g, d) for g in range(9) for d in range(g + 1)] + [(20, 6), (63, 2)]:
        layers = exact._frame((1,) * groups, depth + 1)[0].layers
        want = _concatenated_layers(groups, depth)
        assert len(layers) == len(want) == depth + 1
        for layer, ref in zip(layers, want):
            assert layer.dtype == ref.dtype == np.int64
            assert np.array_equal(layer, ref)


# --- classes of interchangeable groups against the mask reference.

def _assert_matches_masks(inst, recursion=False):
    """Values, every layer table and the policy tree from several start
    levels equal the mask references'; returns the kernel's class sizes."""
    _assert_tables_match_reference(inst)
    top = _mask_tables(inst)[-1][:, 0].tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        values = exact._root(inst)[0]
    assert np.array_equal(np.array(values).view(np.uint64), np.array(top).view(np.uint64))
    for start in {0, inst.start_level, len(inst.terminal) - 1}:
        started = kernel(inst.actions, inst.terminal, inst.horizon, start)
        with np.errstate(over="ignore", invalid="ignore"):
            assert optimal_policy(started) == _searched_policy(started)
        if recursion:
            ref = _Reference(started)
            assert optimal_value(started) == ref.value(1, start, ref.full)
            assert _shape(optimal_policy(started)) == _shape(ref.policy(1, start, ref.full))
    return exact._Kernel(inst).sizes


def test_forced_duplicate_groups_match_the_mask_references():
    seen = set()
    for base in _duplicate_cases():
        for inst in (base, _flipped(base)):
            sizes = _assert_matches_masks(inst, recursion=len(inst.groups()) <= 9)
            if len(sizes) < len(inst.groups()):
                seen.add("merged")
            if any(len(spec.rows) < len(inst.terminal) for spec in inst.actions):
                seen.add("missing row")
            if len(inst.groups()) < len(inst.actions):
                seen.add("shared group")
            if max(sizes) > 2:
                seen.add("class of three")
    assert seen == {"merged", "missing row", "shared group", "class of three"}


def _bits(word):
    """The float with the given 64-bit pattern."""
    return np.array([word], dtype=np.uint64).view(float)[0].item()


def test_rows_of_signed_zeros_never_merge():
    # Into the +0.0 payoff of level 1, a +0.0 and a -0.0 profit are worth
    # zeros of their own signs; zero masses of either sign sit in the rows.
    rows = {0: ((1, 1.0),), 1: ((1, 0.5), (2, 0.5))}
    acts = []
    for k, zero in enumerate((0.0, -0.0, 0.0, -0.0)):
        acts.append(act(f"p{k}", f"gp{k}", rows, profit=zero))
        acts.append(act(f"m{k}", f"gm{k}", {2: ((2, 0.75), (0, zero), (1, 0.25))}))
    for horizon in (1, 2, 3, 5):
        inst = kernel(acts, [0.0, 0.0, 3.0], horizon)
        sizes = _assert_matches_masks(inst, recursion=True)
        assert sizes == (2, 2, 2, 2)
    # The +0.0 groups, listed first, come first among classes of two.
    assert exact._Kernel(inst).group_class == [0, 1, 2, 3, 0, 1, 2, 3]


def test_nan_rows_merge_only_with_their_own_payload():
    quiet, other = math.nan, _bits(0x7FF8000000000001)
    assert math.isnan(other) and np.array([quiet, other]).view(np.uint64)[0] == 0x7FF8 << 48
    acts = [act(f"n{k}", f"g{k}", {0: ((1, 0.5), (0, 0.5)), 1: ((0, 1.0),)}, profit=profit)
            for k, profit in enumerate((quiet, 1.0, other, quiet, 1.0, other))]
    with np.errstate(invalid="ignore"):
        for horizon in (1, 2, 4):
            inst = kernel(acts, [0.0, 2.0], horizon)
            assert _assert_matches_masks(inst, recursion=True) == (2, 2, 2)
            assert optimal_value(inst) == optimal_value(kernel(acts[1::3], [0.0, 2.0], horizon))


def test_rows_with_numpy_numbers_keep_their_groups_alone():
    # marshal writes plain ints and floats only; a group with a numpy
    # number in its rows is a class of its own, and the values stay.
    plain = [act(f"a{k}", f"g{k}", {0: ((1, 0.5), (0, 0.5))}, profit=0.5) for k in range(3)]
    mixed = [*plain[:2], act("a2", "g2", {0: ((1, np.float64(0.5)), (0, 0.5))},
                             profit=np.float64(0.5))]
    for horizon in (1, 2, 3):
        assert _assert_matches_masks(kernel(plain, [0.0, 2.0], horizon)) == (3,)
        assert _assert_matches_masks(kernel(mixed, [0.0, 2.0], horizon)) == (2, 1)
        assert optimal_value(kernel(mixed, [0.0, 2.0], horizon)) == optimal_value(
            kernel(plain, [0.0, 2.0], horizon))


def test_negative_terminal_floors_keep_every_group_alone():
    # Equal groups merge unless some level with a kept row pays less than
    # zero at the end; a negative payoff where no row acts does not count.
    row = {0: ((1, 0.5), (2, 0.5)), 1: ((2, 1.0),)}
    acts = [act(f"a{k}", f"g{k}", row, profit=-0.0 if k % 2 else 0.0) for k in range(6)]
    for terminal, sizes in (([-1.0, -0.0, 1.0], (1,) * 6), ([0.0, -0.0, -1.0], (3, 3)),
                            ([0.0, -2.0, 1.0], (1,) * 6)):
        for horizon in (1, 2, 3, 7):
            inst = kernel(acts, terminal, horizon)
            assert _assert_matches_masks(inst, recursion=True) == sizes


def test_a_negative_floor_keeps_the_first_zero_in_group_order():
    # Into the -0.0 payoff of level 1, n is worth -0.0 and p1, p2 (equal
    # rows) +0.0, and both zeros beat the -1.0 of level 0.  The fold over
    # groups keeps n's zero; had p1 and p2 merged, their class of two would
    # come first and give +0.0.
    n = act("n", "gn", {0: ((1, 1.0),)}, profit=-0.0)
    p1, p2 = (act(f"p{k}", f"gp{k}", {0: ((1, 1.0),)}, profit=0.0) for k in (1, 2))
    for fillers in ([], _FILLERS):
        for horizon in (1, 2, 3):
            inst = kernel([n, p1, p2, *fillers], [-1.0, -0.0], horizon)
            assert _assert_matches_masks(inst, recursion=True) == (1,) * (3 + len(fillers))
            assert _sign(optimal_value(inst)) == -1.0
            assert optimal_policy(inst).action == "n"


def _exact_probemax(seed, index, n, m):
    """Input ``index`` of the exact-probemax benchmark workload at ``seed``:
    Probemax n/m on the 13-level greedy grid."""
    child = int(stream(seed, "exact-probemax", index).integers(0, 2 ** 63))
    spec = gen_random(child, GenParams(kind="probemax", n=n, m=m, support=3, levels=8, q=8,
                                       step=1.0, eps=0.3))
    return build_probemax(spec)[0]


def test_exact_probemax_seed0_inputs_match_the_mask_reference():
    rungs = ((16, 4), (18, 5), (20, 6))
    merged = 0
    for index in range(72):
        inst = _exact_probemax(0, index, *rungs[index % 3])
        sizes = _assert_matches_masks(inst)
        merged += len(sizes) < len(inst.groups())
    assert merged >= 60
