"""Exact finite-horizon solver: oracle identities and state-space limits."""

import math
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


def test_table_cap_raises_before_allocating():
    acts = [act(f"a{i}", f"g{i}", {lvl: ((min(lvl + 1, 12), 1.0),) for lvl in range(13)})
            for i in range(24)]
    inst = kernel(acts, [float(h) for h in range(13)], 24)
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


def _reference_tables(inst):
    """Every layer's table from the reference sweep, on the solver's masks."""
    kernel = exact._Kernel(inst)
    return list(_sweep(SimpleNamespace(groups=kernel.groups, terminal=inst.terminal,
                                       layers=kernel.layers, depth=kernel.depth)))


def _assert_tables_match_reference(inst):
    """Every layer's table equals the reference bit for bit; returns the
    number of rows the sweep pruned."""
    kernel = exact._Kernel(inst)
    tables = list(exact._sweep(kernel))
    reference = _reference_tables(inst)
    assert len(tables) == len(reference) == kernel.depth + 1
    for table, want in zip(tables, reference):
        assert table.shape == want.shape
        assert np.array_equal(table.view(np.uint64), want.view(np.uint64))
    return kernel.rows_pruned


def _probemax13(seed, n, m):
    """Probemax on the default greedy-tied grid, 13 levels at eps 0.3."""
    spec = gen_random(seed, GenParams(kind="probemax", n=n, m=m, support=3, levels=8,
                                      q=8, step=1.0, eps=0.3))
    inst, _ = build_probemax(spec)
    assert len(inst.terminal) == 13
    return inst


def _sweep_cases():
    """Probemax cases first (six of them), then random kernels."""
    cases = [_probemax13(seed, n, m)
             for seed in (501, 502) for n, m in ((10, 3), (12, 4), (16, 4))]
    for seed in range(24):
        for bias in (0.5, 0.8):
            cases.append(gen_random_kernel(seed, GenParams(
                n=5 + seed % 4, levels=3 + seed % 4, q=5 + seed % 5, flat_bias=bias)))
    return cases


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
    assert max(len(layer) for layer in exact._Kernel(cases[5]).layers[:-1]) > cells
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
    pairs = [(_probemax13(501, 16, 4), _probemax13(502, 16, 4))]
    pairs.append((_flipped(pairs[0][0]), pairs[0][1]))
    base = gen_random_kernel(3, GenParams(n=6, levels=4, q=7))
    other = gen_random_kernel(4, GenParams(n=6, levels=4, q=7))
    pairs.append((base, kernel(other.actions, other.terminal, base.horizon)))
    for a, b in pairs:
        kernels = exact._Kernel(a), exact._Kernel(b)
        assert (len(kernels[0].groups), kernels[0].depth) == (
            len(kernels[1].groups), kernels[1].depth)
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
    shape, _ = exact._shape(6, 4)
    arrays = [*shape.layers, *shape.taken, *shape.columns]
    assert len(arrays) == 5 + 4 + 3
    for array in arrays:
        with pytest.raises(ValueError):
            array[0] = 1


@pytest.mark.parametrize("cells", [1, 7, 1 << 14])
def test_cached_group_flags_and_child_columns_match_a_search(monkeypatch, cells):
    monkeypatch.setattr(exact, "_BLOCK_CELLS", cells)
    for groups, depth in [(g, d) for g in range(8) for d in range(g + 1)] + [(20, 4), (63, 3)]:
        exact._SHAPES.clear()
        shape, reused = exact._shape(groups, depth)
        assert not reused
        assert len(shape.layers) == depth + 1
        assert len(shape.taken) == depth and len(shape.columns) == max(depth - 1, 0)
        for u, used in enumerate(shape.layers[:-1]):
            bits = np.int64(1) << np.arange(groups, dtype=np.int64)
            taken = (used & bits[:, None]) != 0
            assert np.array_equal(shape.taken[u], taken)
            if u + 1 == depth:
                continue
            columns = shape.columns[u]
            assert columns.dtype == np.int32
            assert ((0 <= columns) & (columns < len(shape.layers[u + 1]))).all()
            free = ~taken
            want = np.searchsorted(shape.layers[u + 1], (used | bits[:, None])[free])
            assert np.array_equal(columns[free], want)


def _searched_policy(instance):
    """``optimal_policy`` as it was before child columns were cached: one
    search and one column read per (node, unused group)."""
    kernel = exact._Kernel(instance)
    tables = list(exact._sweep(kernel))[::-1]
    layers, terminal = kernel.layers, instance.terminal
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
    for groups, depth in [(0, 0), (3, 1), (6, 4), (16, 4), (20, 6), (63, 3)]:
        shape = exact._build(groups, depth)
        arrays = [*shape.layers, *shape.taken, *shape.columns]
        assert sum(a.nbytes for a in arrays) == exact._shape_bytes(groups, depth)
    monkeypatch.setattr(exact, "_SHAPES", type(exact._SHAPES)())
    monkeypatch.setattr(exact, "_SHAPE_BYTES",
                        exact._shape_bytes(16, 4) + exact._shape_bytes(18, 5))
    assert not exact._shape(16, 4)[1] and not exact._shape(18, 5)[1]
    assert exact._shape(16, 4)[1]
    # A third shape drops the least recently used one.
    assert not exact._shape(12, 3)[1]
    assert list(exact._SHAPES) == [(16, 4), (12, 3)]
    # A shape past the budget alone is neither built nor cached.
    for _ in range(2):
        shape, reused = exact._shape(20, 6)
        assert not reused and shape.taken is None and shape.columns is None
    assert list(exact._SHAPES) == [(16, 4), (12, 3)]


def test_threads_share_the_shape_cache_within_its_byte_budget(monkeypatch):
    shapes = [(6, 2), (8, 3), (10, 3), (12, 4)]
    insts = [_probemax13(510 + i, n, m) for i, (n, m) in enumerate(shapes)]
    want = [optimal_value(inst) for inst in insts]
    monkeypatch.setattr(exact, "_SHAPES", type(exact._SHAPES)())
    # Room for about two of the four shapes, so threads keep evicting.
    budget = exact._shape_bytes(12, 4) + exact._shape_bytes(10, 3)
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
    layers = exact._mask_layers(20, 7)
    held = 8 * (len(layers[6]) + len(layers[5]))
    want = optimal_value(inst)
    monkeypatch.setattr(exact, "_SHAPES", type(exact._SHAPES)())
    monkeypatch.setattr(exact, "_SHAPE_BYTES", exact._shape_bytes(20, 7) - 1)
    tracemalloc.start()
    try:
        value = optimal_value(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == want
    assert not exact._SHAPES
    assert peak < sum(layer.nbytes for layer in layers) + held + 16 * 8 * exact._BLOCK_CELLS
    assert peak < exact._shape_bytes(20, 7)


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
    assert stats.cells == sum(math.comb(groups, u) for u in range(5)) * K
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
        "groups", "layers", "cells", "rows_swept", "rows_pruned", "peak_table_bytes",
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
    for groups, depth in [(g, d) for g in range(9) for d in range(g + 1)] + [(20, 6), (63, 2)]:
        layers = exact._mask_layers(groups, depth)
        want = _concatenated_layers(groups, depth)
        assert len(layers) == len(want) == depth + 1
        for layer, ref in zip(layers, want):
            assert layer.dtype == ref.dtype == np.int64
            assert np.array_equal(layer, ref)
