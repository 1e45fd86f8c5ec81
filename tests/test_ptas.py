"""Approximation pipeline: signatures, topologies, the placement DP, search."""

import dataclasses
import hashlib
import math
import struct
import time
import warnings
from itertools import product

import numpy as np
import pytest

from stochprobe import (
    BlockNode,
    CapacityError,
    HintError,
    ParameterError,
    PtasKnobs,
    StructuralError,
    Topology,
    action_signature,
    batch_masses_exact,
    block_leaf,
    block_profit_approx,
    block_profit_exact,
    build_probemax,
    check_block_properties,
    enumerate_topologies,
    estimate_max,
    level_reach,
    max_over_starts,
    optimal_value,
    solve_ptas,
    validate_instance,
)
from stochprobe import ptas
from stochprobe.harness import GenParams, gen_random, gen_random_kernel
from stochprobe.harness.gen import stream
from stochprobe.ptas import (
    ConfigDpResult,
    _SolveTable,
    _compile_surrogate,
    config_dp,
    materialize,
)

from conftest import act, kernel


#: Tolerances the configuration-DP tests cycle through: at 0.6 and 1.0 small
#: leave masses share a node's risk budget, at 0.3 few items fit beside another.
EPS_CYCLE = (0.3, 0.6, 1.0)


def all_levels(level_count):
    """Reach table of the full level enumeration: every key at or above."""
    return tuple(tuple(range(level, level_count)) for level in range(level_count))


def capped(instance, caps):
    """``instance`` with its horizon cut to ``caps``: the per-path cap the
    configuration DP reads."""
    return dataclasses.replace(instance, horizon=min(caps, instance.horizon))


def block_signature(instance, action_ids, level, grid, max_ref):
    """Entrywise sum of the batch's action signatures."""
    units = [0] * (instance.values.level_count + 1)
    for action_id in action_ids:
        for i, u in enumerate(action_signature(instance, action_id, level, grid, max_ref)):
            units[i] += u
    return tuple(units)


def _units(run, ranked, nodes=None):
    """The per-node unit sums of the candidates ``ranked`` (final state ids
    of ``run``) in table order, the order they were found; with ``nodes``,
    on the nodes it maps into the run's topology."""
    units = run.sums[run.sum_ids[np.sort(ranked)]]
    return units if nodes is None else units[:, nodes]


def _traces(run, ranked, nodes=None):
    """The same candidates traced back into their batches in table order,
    on ``nodes``'s topology when it is given."""
    return [run.batches(state, nodes) for state in np.sort(ranked).tolist()]


def _winner(top, run, ranked, nodes, top_k):
    """The rescoring of ``top`` read off ``run`` through the node map
    ``nodes`` (None for the run's own topology), as (tree, value,
    surrogate): the first ``top_k`` of ``ranked`` valued in one
    ``exact_values`` pass, and the first with the strictly best value
    materialized on ``top``, checked to score its value; with no
    candidates, the do-nothing policy and no surrogate."""
    instance = run.table.instance
    states = ranked[:top_k].tolist()
    if not states:
        return block_leaf(instance.start_level), instance.terminal[instance.start_level], None
    values = run.exact_values(states)
    best = max(range(len(states)), key=values.__getitem__)
    state, value = states[best], values[best]
    tree = materialize(run.table, top, run.batches(state, nodes))
    assert block_profit_exact(instance, tree) == value
    return tree, value, float(run.surrogates[run.sum_ids[state]])


def _exact_value(table, topology, batches):
    """The per-state reference of ``ConfigDpResult.exact_values``: the
    exact block value of the tree ``materialize`` builds from ``batches``,
    computed over the reversed preorder table without building it.  Each
    node adds mass times child value to its batch profit, outcome by
    outcome, as ``block_profit_exact`` does; a key without a topology
    child takes its terminal payoff, so a node without children takes the
    batch's stopped value."""
    nodes = topology.nodes
    terminal = table.instance.terminal
    values = [0.0] * len(nodes)
    for idx in range(len(nodes) - 1, -1, -1):
        profit, edges, _keys, stopped = table.outcomes(nodes[idx][0], batches[idx])
        kids = topology.child_index[idx]
        if not kids:
            values[idx] = stopped
            continue
        for j, mass in edges:
            ci = kids.get(j)
            profit += mass * (terminal[j] if ci is None else values[ci])
        values[idx] = profit
    return values[0]


def _bits(values):
    """Each float's IEEE bits, so -0.0 and 0.0 differ."""
    return [struct.pack("<d", v) for v in values]


def _spy_exact_values(monkeypatch, valued):
    """Wrap ``ConfigDpResult.exact_values`` so that every call checks its
    values against ``_exact_value`` of each state's batches, float bits
    included, and appends (run, state, batches, value) per state to
    ``valued``."""
    exact_values = ConfigDpResult.exact_values

    def checked(run, states):
        got = exact_values(run, states)
        traced = [run.batches(state) for state in states]
        want = [_exact_value(run.table, run.topology, batches) for batches in traced]
        assert _bits(got) == _bits(want)
        valued.extend(zip([run] * len(states), states, traced, got))
        return got

    monkeypatch.setattr(ConfigDpResult, "exact_values", checked)


@pytest.fixture
def two_probe_kernel():
    return kernel(
        [act("a1", "g1", {0: ((0, 0.5), (1, 0.5))}),
         act("a2", "g2", {0: ((0, 0.75), (1, 0.25))})],
        [0.0, 1.0], 2)


def test_signature_floors_off_grid_mass():
    inst = kernel([act("a", "g", {0: ((0, 0.863), (1, 0.137))})], [0.0, 1.0], 1)
    assert action_signature(inst, "a", 0, 0.0625, 1.0) == (13, 2, 0)


def test_signature_keeps_lattice_points_exact():
    inst = kernel([act("a", "g", {0: ((0, 0.75), (1, 0.25))})], [0.0, 1.0], 1)
    assert action_signature(inst, "a", 0, 0.0625, 1.0) == (12, 4, 0)


def test_signature_zero_profit_entry():
    inst = kernel([act("a", "g", {0: ((1, 1.0),)})], [0.0, 1.0], 1)
    assert action_signature(inst, "a", 0, 0.25, 1.0)[-1] == 0


def test_signature_rejects_bad_grid():
    inst = kernel([act("a", "g", {0: ((0, 1.0),)})], [0.0], 1)
    with pytest.raises(ParameterError):
        action_signature(inst, "a", 0, 0.0, 1.0)


def test_signature_rounding_loss_under_one_grid_step():
    inst = kernel([act("a", "g", {0: ((0, 0.863), (1, 0.137))}, profit=0.33)],
                  [0.0, 1.0], 1)
    grid, max_ref = 0.0625, 2.0
    units = action_signature(inst, "a", 0, grid, max_ref)
    assert 0.0 <= 0.137 - units[1] * grid < grid
    assert 0.0 <= 0.33 - units[-1] * grid * max_ref < grid * max_ref


def test_block_signature_is_entrywise_sum():
    inst = kernel(
        [act("a", "ga", {0: ((0, 0.863), (1, 0.137))}, profit=0.2),
         act("b", "gb", {0: ((0, 0.9), (1, 0.1))}, profit=0.3)],
        [0.0, 1.0], 2)
    sa = action_signature(inst, "a", 0, 0.0625, 1.0)
    sb = action_signature(inst, "b", 0, 0.0625, 1.0)
    sab = block_signature(inst, ("a", "b"), 0, 0.0625, 1.0)
    assert sab == tuple(x + y for x, y in zip(sa, sb))


def test_topologies_single_level_are_chains():
    assert len(enumerate_topologies(all_levels(1), 3, 2, 0)) == 2
    assert len(enumerate_topologies(all_levels(1), 5, 5, 0)) == 5


def test_topologies_single_block_two_levels():
    tops = enumerate_topologies(all_levels(2), 1, 2, 0)
    assert len(tops) == 1
    assert len(tops[0].nodes) == 1


def test_topologies_two_blocks_two_levels():
    # Root plus either a flat child, an up child, or both.
    assert len(enumerate_topologies(all_levels(2), 2, 2, 0)) == 3


def test_topologies_deterministic_order():
    a = enumerate_topologies(all_levels(3), 4, 3, 0)
    b = enumerate_topologies(all_levels(3), 4, 3, 0)
    assert a == b


def test_topologies_count_cap_overflow(monkeypatch):
    monkeypatch.setattr(ptas, "TOPOLOGY_CAP", 10)
    with pytest.raises(CapacityError):
        enumerate_topologies(all_levels(4), 8, 6, 0)


def _recursive_topologies(reach, block_budget, depth_limit, start_level):
    """Reference enumeration: a depth-first search over each node's keys in
    ascending order, memoized per (level, nodes, depth), that checks the
    cap only as complete topologies come out."""
    if block_budget < 1 or depth_limit < 1:
        raise ParameterError("block_budget and depth_limit must be at least 1")
    memo = {}
    result = []

    def exact(level, nodes, depth):
        key = (level, nodes, depth)
        hit = memo.get(key)
        if hit is not None:
            return hit
        out = []
        if nodes >= 1 and depth >= 1:
            keys = reach[level]

            def assign(i, remaining, acc):
                if i == len(keys):
                    if remaining == 0:
                        out.append(Topology(level, tuple(acc)))
                    return
                assign(i + 1, remaining, acc)
                if remaining > 0 and depth > 1:
                    for size in range(1, remaining + 1):
                        for sub in exact(keys[i], size, depth - 1):
                            acc.append((keys[i], sub))
                            assign(i + 1, remaining - size, acc)
                            acc.pop()

            assign(0, nodes - 1, [])
        memo[key] = tuple(out)
        return memo[key]

    for n in range(1, block_budget + 1):
        for topo in exact(start_level, n, depth_limit):
            result.append(topo)
            if len(result) > ptas.TOPOLOGY_CAP:
                raise CapacityError("topology enumeration exceeded the cap",
                                    states_explored=len(result))
    return tuple(result)


def _enumerated_or_capped(enumerate_, *args):
    try:
        return enumerate_(*args)
    except CapacityError:
        return "capacity"


def test_topologies_match_the_recursive_reference(monkeypatch):
    rng = np.random.default_rng(23)
    cases = []
    for _ in range(300):
        K = int(rng.integers(1, 8))
        reach = tuple(tuple(j for j in range(level, K) if rng.random() < 0.6)
                      for level in range(K))
        cases.append((reach, int(rng.integers(1, 7)), int(rng.integers(1, 8)),
                      int(rng.integers(0, K))))
    cases += [(all_levels(K), budget, depth, 0)
              for K in (1, 3, 5) for budget in (1, 4, 6) for depth in (1, 3, 7)]
    suite = [_e2e_shaped(seed, *shape)[0]
             for seed, shape in enumerate(((5, 2, 4, 8), (6, 2, 3, 4), (4, 3, 3, 4)))]
    suite += [_probemax_13(seed)[0] for seed in range(3)]
    suite += [gen_random_kernel(seed, GenParams(n=3, levels=4, q=7)) for seed in range(3)]
    cases += [(level_reach(inst), budget, depth, inst.start_level)
              for inst in suite for budget, depth in ((6, 4), (4, 3), (3, 5))]
    capped_some = False
    for case in cases:
        want = _recursive_topologies(*case)
        assert enumerate_topologies(*case) == want
        # A cap just under the count must stop both; at the count neither.
        for cap in {max(1, len(want) - 1), len(want)}:
            monkeypatch.setattr(ptas, "TOPOLOGY_CAP", cap)
            got = _enumerated_or_capped(enumerate_topologies, *case)
            assert got == _enumerated_or_capped(_recursive_topologies, *case)
            capped_some |= got == "capacity"
        monkeypatch.undo()
    assert capped_some


def test_topologies_of_a_row_reaching_1200_levels():
    # One node with more child keys than Python's recursion limit.
    n = 1200
    inst = kernel([act("a", "g", {0: tuple((j, 1 / n) for j in range(n))})],
                  list(range(n)), 1)
    res = solve_ptas(inst, PtasKnobs(eps=0.3, grid=2 ** -11, block_budget=1,
                                     depth_limit=1))
    assert res.value == 599.5
    assert res.value == block_profit_exact(inst, res.tree)
    assert enumerate_topologies(level_reach(inst), 2, 2, 0)[1:] == tuple(
        Topology(0, ((j, Topology(j)),)) for j in reversed(range(n)))


@pytest.mark.parametrize("reach, block_budget, depth_limit", [
    # One level whose pairs of children pass the cap.
    ((tuple(range(150)),) + ((),) * 149, 3, 2),
    # A hundred levels one depth down, each with fewer subtrees than the
    # cap, but more than it together.
    ((tuple(range(1, 101)),) + tuple(tuple(range(level, 101)) for level in range(1, 101)),
     3, 3),
])
def test_topology_cap_raises_before_the_topologies_are_built(monkeypatch, reach,
                                                             block_budget, depth_limit):
    built = []

    class Counted(Topology):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(ptas, "Topology", Counted)
    monkeypatch.setattr(ptas, "TOPOLOGY_CAP", 200)
    with pytest.raises(CapacityError):
        enumerate_topologies(reach, block_budget, depth_limit, 0)
    assert 0 < len(built) < 3 * 200


def test_config_dp_single_block_unit_cap(two_probe_kernel):
    top = enumerate_topologies(all_levels(2), 1, 1, 0)[0]
    result = config_dp(_SolveTable(capped(two_probe_kernel, 1), 0.25, 1.0, 0.3), top)
    assert len(result.candidates) == 3  # empty, {a1}, {a2}
    sizes = sorted(sum(map(len, batches)) for batches in _traces(result, result.candidates))
    assert sizes == [0, 1, 1]


def test_config_dp_zero_caps_only_empty(two_probe_kernel):
    top = enumerate_topologies(all_levels(2), 1, 1, 0)[0]
    result = config_dp(_SolveTable(capped(two_probe_kernel, 0), 0.25, 1.0, 0.3), top)
    assert len(result.candidates) == 1
    assert all(not p for p in _traces(result, result.candidates)[0])


def test_config_dp_coarse_grid_collapses_signatures(two_probe_kernel):
    # Grid 2.0 floors every mass and profit to zero, so all placements
    # share the single zero configuration.
    top = enumerate_topologies(all_levels(2), 1, 1, 0)[0]
    result = config_dp(_SolveTable(two_probe_kernel, 2.0, 1.0, 1.0), top)
    assert len(result.candidates) == 1


def test_config_dp_state_cap_overflow(two_probe_kernel):
    top = enumerate_topologies(all_levels(2), 2, 2, 0)[0]
    with pytest.raises(CapacityError):
        config_dp(_SolveTable(two_probe_kernel, 0.015625, 1.0, 1.0), top, state_cap=1)


def test_config_dp_placements_reproduce_signatures(two_probe_kernel):
    # Re-summing each node's batch of action signatures must land exactly
    # on the unit tuples the DP recorded.
    top = enumerate_topologies(all_levels(2), 2, 2, 0)[0]
    levels = [level for level, _, _ in top.nodes]
    run = config_dp(_SolveTable(two_probe_kernel, 0.25, 1.0, 1.0), top)
    units = _units(run, run.candidates).tolist()
    for i, batches in enumerate(_traces(run, run.candidates)):
        for node_idx, sig_units in enumerate(units[i]):
            rebuilt = block_signature(two_probe_kernel, batches[node_idx],
                                      levels[node_idx], 0.25, 1.0)
            assert rebuilt == tuple(sig_units)


def test_config_dp_skip_keeps_its_traceback():
    # Skipping gb from {a} and placing b on the empty start reach the same
    # state; the skip comes later but wins, so the traceback names a.
    row = {0: ((0, 0.75), (1, 0.25))}
    inst = kernel([act("a", "ga", row, profit=0.25), act("b", "gb", row, profit=0.25)],
                  [0.0, 1.0], 2)
    run = config_dp(_SolveTable(inst, 0.25, 1.0, 1.0), Topology(0))
    traces = _traces(run, run.candidates)
    one_item = [batches for batches in traces if sum(map(len, batches)) == 1]
    assert one_item == [(("a",),)]


def _reference_risk_share(instance, action_id, level, eps):
    """The item's share of a node's small-risk budget: its leave mass in
    units of eps^2 / ``ptas._RISK_UNITS``, rounded up, or one unit more than
    the whole budget when the mass exceeds eps^2."""
    mu = instance.action(action_id).rows[level].risk_mass(level)
    units = ptas._RISK_UNITS
    if mu > eps * eps:
        return units + 1
    return min(math.ceil(mu * units / (eps * eps)), units)


def _unwind(chain, group_count, node_count):
    """A traceback chain unwound into per-group placements, then regrouped
    into each node's items in group order."""
    trace = [None] * group_count
    while chain is not None:
        g, placement, chain = chain
        trace[g] = placement
    batches = [()] * node_count
    for placement in trace:
        for node_idx, action_id in placement or ():
            batches[node_idx] += (action_id,)
    return tuple(batches)


def _reference_config_dp(instance, topology, grid, max_ref, eps, *,
                         state_cap=ptas.DEFAULT_STATE_CAP, park=False):
    """The configuration DP as it was before the fitting-placement lists:
    every placement is tried on every state, and one guard bit per caps
    slot catches a placement that takes a path below zero.  A state also
    carries each node's spent risk shares, None while the node is empty; a
    placement fits a node only while the shares there sum to at most
    ``ptas._RISK_UNITS``.

    With ``park`` a state with no cap left is parked: carried no further,
    counted against the state cap beside each stage's states, and kept
    ahead of the last stage's states among the candidates, as the DP did
    before covers shared their runs.  Returns the kept configurations as
    ``_run_data`` gives a run's."""
    cap = instance.horizon
    levels = [level for level, _, _ in topology.nodes]
    n_nodes = len(levels)
    ancestors = []
    for _level, parent, _key in topology.nodes:
        ancestors.append(() if parent < 0 else ancestors[parent] + (parent,))
    inner = {parent for _, parent, _ in topology.nodes}
    paths = [ancestors[i] + (i,) for i in range(n_nodes) if i not in inner]
    width = instance.values.level_count + 1
    node_paths = [frozenset(j for j, path in enumerate(paths) if i in path)
                  for i in range(n_nodes)]
    groups = {}
    for spec in sorted(instance.actions, key=lambda s: s.id):
        groups.setdefault(spec.group, []).append(spec.id)
    group_order = sorted(groups, key=lambda g: groups[g][0])
    sigs = {}
    for spec in instance.actions:
        for level in spec.rows:
            sigs[spec.id, level] = action_signature(instance, spec.id, level, grid, max_ref)

    cb = cap.bit_length() + 2
    caps_bits = len(paths) * cb
    caps_all = (1 << caps_bits) - 1
    guard = init_key = 0
    for j in range(len(paths)):
        guard |= 1 << (j * cb + cb - 1)
        init_key |= cap << (j * cb)
    used = {(a, levels[i]) for i in range(n_nodes) for g in group_order
            for a in groups[g] if (a, levels[i]) in sigs}
    unit_max = max((max(sigs[k]) for k in used), default=0)
    sum_bits = (cap * unit_max).bit_length()
    slot_dtype = np.dtype(f"<u{next(b for b in (1, 2, 4, 8) if 8 * b >= sum_bits)}")
    sb = 8 * slot_dtype.itemsize

    deltas_by_group = []
    for g in group_order:
        deltas = []
        for chain in ptas._antichains(n_nodes, ancestors):
            cells = [[(i, a) for a in groups[g] if (a, levels[i]) in sigs] for i in chain]
            if not all(cells):
                continue
            covered = frozenset().union(*(node_paths[i] for i in chain))
            for combo in product(*cells):
                d = 0
                for i, a in combo:
                    for w, uw in enumerate(sigs[a, levels[i]]):
                        d += uw << (caps_bits + (i * width + w) * sb)
                for j in covered:
                    d -= 1 << (j * cb)
                shares = [(i, _reference_risk_share(instance, a, levels[i], eps))
                          for i, a in combo]
                deltas.append((d, combo, shares))
        deltas_by_group.append(deltas)

    def spend(risk, shares):
        """Per-node risk after the shares, or None if some node overflows."""
        risk = list(risk)
        for i, share in shares:
            if risk[i] is not None and risk[i] + share > ptas._RISK_UNITS:
                return None
            risk[i] = share if risk[i] is None else risk[i] + share
        return tuple(risk)

    start = (init_key, (None,) * n_nodes)
    prev, frozen, explored = {start: None}, {}, 1
    for g, deltas in enumerate(deltas_by_group):
        nxt = {}
        for state, chain in prev.items():
            key, risk = state
            if park and key & caps_all == 0:
                if state not in frozen:
                    frozen[state] = chain
                continue
            nxt[state] = chain
            for d, placement, shares in deltas:
                new_key = key + d
                if new_key & guard:
                    continue
                new_risk = spend(risk, shares)
                if new_risk is None:
                    continue
                if (new_key, new_risk) not in nxt:
                    nxt[new_key, new_risk] = (g, placement, chain)
            if len(nxt) + len(frozen) > state_cap:
                raise CapacityError("state cap", states_explored=explored + len(nxt))
        explored += len(nxt)
        prev = nxt

    kept = {}
    for states in (frozen, prev):
        for (key, _risk), chain in states.items():
            kept.setdefault(key >> caps_bits, chain)
    sum_bytes = n_nodes * width * slot_dtype.itemsize
    raw = b"".join(sums.to_bytes(sum_bytes, "little") for sums in kept)
    units = np.frombuffer(raw, slot_dtype).reshape(len(kept), n_nodes, width)
    return (units.dtype, units.tolist(),
            [_unwind(chain, len(group_order), n_nodes) for chain in kept.values()],
            explored)


def test_config_dp_candidates_are_the_p1_feasible_configurations():
    # eps 0.5 splits the budget eps^2 = 1/4 into risk units of 1/32, and
    # every leave mass here is a multiple of 1/32, so rounding shares up
    # loses nothing: the DP keeps exactly the configurations whose
    # multi-item nodes leave with at most 1/4 in total.  a, a2, b and c
    # leave with 1/32 to 1/4, d with 1/2, and e never leaves.
    def rows(mu):
        return {0: ((0, 1.0 - mu), (1, mu)), 1: ((1, 1.0 - mu), (2, mu))}

    inst = kernel([act("a", "ga", rows(1 / 32), profit=0.25),
                   act("a2", "ga", rows(3 / 32), profit=0.5),
                   act("b", "gb", rows(1 / 8), profit=0.125),
                   act("c", "gc", rows(1 / 4), profit=0.375),
                   act("d", "gd", rows(1 / 2), profit=0.0625),
                   act("e", "ge", {0: ((0, 1.0),), 1: ((1, 1.0),)}, profit=0.5)],
                  [0.0, 1.0, 2.0], 3)
    eps, grid, caps = 0.5, 1 / 32, 2
    top = Topology(0, ((0, Topology(0)), (1, Topology(1))))
    levels = [level for level, _, _ in top.nodes]
    paths = ((0, 1), (0, 2))
    members = (("a", "a2"), ("b",), ("c",), ("d",), ("e",))
    options = [[None] + [tuple(zip(chain, picks)) for chain in ((0,), (1,), (2,), (1, 2))
                         for picks in product(group, repeat=len(chain))]
               for group in members]
    feasible, infeasible, shared = set(), set(), 0
    for choice in product(*options):
        placed = [p for p in choice if p]
        if any(sum(any(i in path for i, _a in p) for p in placed) > caps
               for path in paths):
            continue
        items = [[] for _ in levels]
        for p in placed:
            for i, a in p:
                items[i].append(a)
        mus = [[inst.action(a).rows[levels[i]].risk_mass(levels[i]) for a in its]
               for i, its in enumerate(items)]
        ok = all(len(m) < 2 or sum(m) <= eps * eps for m in mus)
        sums = tuple(block_signature(inst, its, levels[i], grid, 1.0)
                     for i, its in enumerate(items))
        (feasible if ok else infeasible).add(sums)
        shared += ok and any(sum(mu > 0.0 for mu in m) > 1 for m in mus)
    solve_table = _SolveTable(capped(inst, caps), grid, 1.0, eps)
    run = config_dp(solve_table, top)
    got = [tuple(map(tuple, units)) for units in _units(run, run.candidates).tolist()]
    assert len(set(got)) == len(got)
    assert set(got) == feasible
    assert shared > 0 and infeasible - feasible
    for batches in _traces(run, run.candidates):
        tree = materialize(solve_table, top, batches)
        assert check_block_properties(inst, tree, eps, 2).p1_ok


def _run_data(table, top, **kwargs):
    """A DP run as comparable data: its candidates' unit sums and
    tracebacks in table order, then its states explored."""
    run = config_dp(table, top, **kwargs)
    units = _units(run, run.candidates)
    return (units.dtype, units.tolist(), _traces(run, run.candidates), run.states_explored)


def _outcome(dp, *args, **kwargs):
    """``dp``'s data, or the point where it hit the state cap."""
    try:
        return dp(*args, **kwargs)
    except CapacityError as err:
        return ("capacity", err.states_explored)


def test_config_dp_matches_guard_bit_reference():
    # Masses k/q with q = 7..10 put off-lattice unit sums in the states.
    # Leave masses k/q up to eps^2 = 0.36 share a node at eps 0.6; at 0.3
    # almost every item takes a node alone.
    cases = errors = same_sums = reordered = 0
    for seed in range(24):
        q = 7 + seed % 4
        inst = gen_random_kernel(seed, GenParams(n=3 + seed % 3, levels=2 + seed % 3,
                                                 horizon=1 + seed % 3, q=q))
        grid, max_ref, eps = 1.0 / q, 1.3, EPS_CYCLE[seed % 3]
        reach = all_levels(inst.values.level_count)
        for top in enumerate_topologies(reach, 3, 2, inst.start_level):
            for caps in (inst.horizon, 0, 1, 2):
                sub = capped(inst, caps)
                table = _SolveTable(sub, grid, max_ref, eps)
                for state_cap in (ptas.DEFAULT_STATE_CAP, 3, 10, 40):
                    want = _outcome(_reference_config_dp, sub, top, grid, max_ref, eps,
                                    state_cap=state_cap)
                    got = _outcome(_run_data, table, top, state_cap=state_cap)
                    assert got == want
                    cases += 1
                    errors += want[0] == "capacity"
                    # Parking changes the order and the state counts, so
                    # also where the state cap stops a run, but not which
                    # unit sums are reachable.
                    parked = _outcome(_reference_config_dp, sub, top, grid, max_ref,
                                      eps, state_cap=state_cap, park=True)
                    if "capacity" not in (parked[0], want[0]):
                        assert sorted(parked[1]) == sorted(want[1])
                        same_sums += 1
                        reordered += parked[1] != want[1]
    assert cases >= 2000
    assert cases // 4 <= errors <= 3 * cases // 4
    assert same_sums >= cases // 2 and reordered >= cases // 4


def test_topology_preorder_table():
    top = Topology(0, ((0, Topology(0)),
                       (1, Topology(1, ((1, Topology(1)),)))))
    assert top.nodes == ((0, -1, -1), (0, 0, 0), (1, 0, 1), (1, 2, 1))
    assert len(top.nodes) == 4


def test_deep_flat_chain_topology():
    # 1100 flat nodes nest deeper than Python's recursion limit.
    inst = kernel([act("a", "g", {0: ((0, 0.5), (1, 0.5))})], [0.0, 1.0], 1)
    top = Topology(0)
    for _ in range(1099):
        top = Topology(0, ((0, top),))
    started = time.perf_counter()
    table = _SolveTable(inst, 0.25, 1.0, 0.3)
    result = config_dp(table, top)
    tree, value, _surrogate = _winner(top, result, result.candidates, None, 32)
    assert time.perf_counter() - started < 5.0
    assert len(result.candidates) == 1101
    assert tree.items == ("a",)
    assert value == pytest.approx(optimal_value(inst), abs=1e-12)


def _reference_surrogate(instance, topology, grid, profit_grid):
    """Scalar surrogate of one candidate's per-node unit tuples: the
    children-first program evaluated one configuration at a time."""
    K = instance.values.level_count
    terminal = instance.terminal
    nodes = topology.nodes
    child_at = [{} for _ in nodes]
    for idx, (_level, parent, key) in enumerate(nodes):
        if parent >= 0:
            child_at[parent][key] = idx
    prog = []
    for idx in range(len(nodes) - 1, -1, -1):
        level = nodes[idx][0]
        kids = child_at[idx]
        prog.append((idx, level, tuple((j, kids.get(j)) for j in range(level + 1, K)),
                     kids.get(level)))

    def score(sigs):
        vals = [0.0] * len(nodes)
        for idx, level, ups, flat_child in prog:
            u = sigs[idx]
            total = u[K] * profit_grid
            up_total = 0.0
            for j, ci in ups:
                uj = u[j]
                if uj:
                    pj = uj * grid
                    if pj > 1.0:
                        pj = 1.0
                    up_total += pj
                    total += pj * (terminal[j] if ci is None else vals[ci])
            flat = 1.0 - up_total
            if flat > 0.0:
                total += flat * (terminal[level] if flat_child is None
                                 else vals[flat_child])
            vals[idx] = total
        return vals[0]

    return score


def test_batched_surrogate_matches_scalar_reference(monkeypatch):
    # Masses k/q with q = 7..10 are off the binary lattice, so a reordered
    # sum would change some surrogate in its last bits.  Every exact value
    # equals the per-state reference bit for bit: on each topology's own
    # run, and in whole solves on the covers the topologies are read off,
    # most of them not stars, and on the members that run their own DP
    # where their cover stops at a small state cap.
    valued = []
    _spy_exact_values(monkeypatch, valued)
    cases = ties = non_star = fallbacks = 0
    for seed in range(40):
        q = 7 + seed % 4
        inst = gen_random_kernel(seed, GenParams(n=3 + seed % 3, levels=2 + seed % 3,
                                                 horizon=1 + seed % 3, q=q))
        grid, max_ref, eps = 1.0 / q, 1.3, EPS_CYCLE[seed % 3]
        solve_tables = [_SolveTable(capped(inst, caps), grid, max_ref, eps)
                        for caps in (inst.horizon, 1, 2)]
        reach = all_levels(inst.values.level_count)
        for top in enumerate_topologies(reach, 3, 3, inst.start_level):
            for solve_table in solve_tables:
                result = config_dp(solve_table, top)
                units = _units(result, result.candidates)
                ref = _reference_surrogate(inst, top, grid, grid * max_ref)
                want = [ref(sigs) for sigs in units.tolist()]
                got = _compile_surrogate(solve_table, top)(units)
                assert got.tolist() == want
                order = sorted(range(len(want)), key=lambda i: -want[i])
                valued.clear()
                _winner(top, result, result.candidates, None, len(want))
                traces = _traces(result, result.candidates)
                assert [batches for _run, _state, batches, _value in valued] == [
                    traces[i] for i in order]
                cases += 1
                ties += len(set(want)) < len(want)
        tops = enumerate_topologies(level_reach(inst), 3, 3, inst.start_level)
        members = {tops[ti] for ti, (ci, _nodes) in enumerate(ptas._covers(tops)) if ci != ti}
        for state_cap in (ptas.DEFAULT_STATE_CAP, 40):
            valued.clear()
            diag = solve_ptas(inst, PtasKnobs(eps=eps, grid=grid, block_budget=3, depth_limit=3,
                                              top_k=8, max_hint="exact",
                                              state_cap=state_cap)).diagnostics
            assert diag.valued == len(valued) <= diag.materialized
            runs = {run.topology for run, _state, _batches, _value in valued}
            non_star += any(child.children for top in runs for _key, child in top.children)
            fallbacks += bool(runs & members)
    assert cases >= 1500
    assert ties >= 500
    assert non_star >= 15 and fallbacks >= 40


def _signed_zero_kernel():
    """A compliant kernel whose profits and some terminal payoffs are -0.0."""
    return kernel([act("a", "ga", {0: ((0, 0.5), (1, 0.5)), 1: ((1, 0.75), (2, 0.25))},
                       profit=-0.0),
                   act("b", "gb", {0: ((0, 0.875), (2, 0.125)), 1: ((1, 1.0),)}, profit=-0.0),
                   act("c", "gc", {0: ((0, 0.9375), (1, 0.0625))}, profit=-0.0)],
                  [-0.0, -0.0, 2.0], 3)


def test_tree_free_rescoring_matches_materialized_trees(monkeypatch):
    # Every ranked candidate's exact value, computed from its batches,
    # equals the value of the tree materialize builds from them, and the
    # per-state reference bit for bit.  Flat-heavy rows put several items
    # on one node, so batch prefixes matter.  Whole star solves read their
    # topologies off one masked run over the union star.  The last kernel
    # has -0.0 terminal payoffs and profits.
    scored = []
    _spy_exact_values(monkeypatch, scored)
    cases = ties = multi = unions = 0
    instances = [(7 + seed % 4, gen_random_kernel(seed, GenParams(
        n=3 + seed % 3, levels=2 + seed % 3, horizon=1 + seed % 3, q=7 + seed % 4,
        flat_bias=0.5 * (seed % 2)))) for seed in range(100, 116)]
    instances.append((4, _signed_zero_kernel()))
    assert validate_instance(instances[-1][1]).compliant
    for q, inst in instances:
        # At eps 1 the risk budget lets the most items share a node.
        grid, max_ref, eps = 1.0 / q, 1.3, 1.0
        solve_tables = [_SolveTable(capped(inst, caps), grid, max_ref, eps)
                        for caps in (inst.horizon, 2)]
        tops = enumerate_topologies(level_reach(inst), 3, 2, inst.start_level)
        for top in tops:
            for solve_table in solve_tables:
                result = config_dp(solve_table, top)
                count = len(result.candidates)
                scored.clear()
                tree, value, _surrogate = _winner(top, result, result.candidates, None,
                                                  count)
                assert len(scored) == count
                for _run, _state, batches, got in scored:
                    built = materialize(solve_table, top, batches)
                    want = block_profit_exact(inst, built)
                    assert got == want
                    multi += max(map(len, batches)) > 1
                assert value == max(got for *_, got in scored)
                cases += 1
                units = _units(result, result.candidates)
                surrogates = _compile_surrogate(solve_table, top)(units)
                ties += len(set(surrogates.tolist())) < count
        scored.clear()
        diag = solve_ptas(inst, PtasKnobs(eps=eps, grid=grid, block_budget=3, depth_limit=2,
                                          top_k=8, max_hint="exact")).diagnostics
        assert diag.valued == len(scored) <= diag.materialized
        unions += diag.dp_runs == 1 < len({ci for ci, _nodes in ptas._covers(tops)})
    assert cases >= 200
    assert ties >= 150
    assert multi >= 5000
    assert unions >= 10


def test_rescoring_rejects_a_changed_unit_row(two_probe_kernel):
    top = enumerate_topologies(all_levels(2), 2, 2, 0)[0]
    solve_table = _SolveTable(two_probe_kernel, 0.25, 1.0, 1.0)
    result = config_dp(solve_table, top)
    for i in range(len(result.sums)):
        sums = result.sums.copy()
        sums[i, 0, 1] += 1
        changed = ConfigDpResult(solve_table, top, sums, result.sum_ids, result.chains,
                                 result.words, result.word_ids, result.states_explored)
        with pytest.raises(StructuralError):
            _winner(top, changed, changed.candidates, None, len(result.sums))


def test_rescoring_rejects_an_action_at_a_level_without_its_row(two_probe_kernel):
    # Both actions have rows at level 0 only.  A chain that places a1 on the
    # level-1 node must fail the signature check, not value the tree.
    top = Topology(0, ((1, Topology(1)),))
    solve_table = _SolveTable(two_probe_kernel, 0.25, 1.0, 1.0)
    result = config_dp(solve_table, top)
    chains = list(result.chains)
    chains[0] = (0, ((1, "a1"),), None)
    changed = ConfigDpResult(solve_table, top, result.sums, result.sum_ids, chains,
                             result.words, result.word_ids, result.states_explored)
    with pytest.raises(StructuralError, match="no row at level 1"):
        changed.exact_values([0])
    assert result.exact_values([0]) == [0.0]


def test_reconstruct_single_candidate(two_probe_kernel):
    top = enumerate_topologies(all_levels(2), 1, 1, 0)[0]
    run = config_dp(_SolveTable(capped(two_probe_kernel, 0), 0.25, 1.0, 0.3), top)
    tree, value, _surrogate = _winner(top, run, run.candidates, None, 32)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_reconstruct_empty_candidates_is_noop(two_probe_kernel):
    top = enumerate_topologies(all_levels(2), 1, 1, 0)[0]
    run = config_dp(_SolveTable(two_probe_kernel, 0.25, 1.0, 0.3), top)
    tree, value, _surrogate = _winner(top, run, np.zeros(0, np.intp), None, 32)
    assert value == pytest.approx(two_probe_kernel.terminal[0], abs=1e-12)


def test_reconstruct_exact_rescoring_beats_surrogate_order():
    # Candidate "a" hides almost a full grid step of mass and profit from
    # the surrogate; with top_k=1 the on-grid "b" wins, with top_k=2 the
    # exact rescoring recovers "a".
    inst = kernel(
        [act("a", "ga", {0: ((0, 0.7501), (1, 0.2499))}, profit=0.2499),
         act("b", "gb", {0: ((0, 0.8125), (1, 0.1875))}, profit=0.25)],
        [0.0, 1.0], 1)
    top = enumerate_topologies(all_levels(2), 1, 1, 0)[0]
    table = _SolveTable(inst, 0.0625, 1.0, 0.3)
    result = config_dp(table, top)
    tree1, value1, _surrogate1 = _winner(top, result, result.candidates, None, 1)
    assert tree1.items == ("b",)
    assert value1 == pytest.approx(0.4375, abs=1e-12)
    tree2, value2, _surrogate2 = _winner(top, result, result.candidates, None, 2)
    assert tree2.items == ("a",)
    assert value2 == pytest.approx(0.4998, abs=1e-12)


def test_signature_equal_trees_score_close():
    # Same topology, equal per-node signatures: the order-free scores
    # differ by less than one effective grid step per block and level.
    inst = kernel(
        [act("a", "ga", {0: ((0, 0.861), (1, 0.139))}),
         act("b", "gb", {0: ((0, 0.870), (1, 0.130))})],
        [0.0, 1.0], 1)
    grid, max_ref = 0.0625, 1.0
    assert action_signature(inst, "a", 0, grid, max_ref) == \
        action_signature(inst, "b", 0, grid, max_ref)
    ta = BlockNode(("a",), 0, {0: block_leaf(0), 1: block_leaf(1)})
    tb = BlockNode(("b",), 0, {0: block_leaf(0), 1: block_leaf(1)})
    K = 2
    bound = 1 * (1 + 3 * K) * grid * max_ref
    assert abs(block_profit_approx(inst, ta)
               - block_profit_approx(inst, tb)) <= bound


def test_estimate_max_delegates_to_oracle(two_probe_kernel):
    assert estimate_max(two_probe_kernel, "exact") == pytest.approx(
        max_over_starts(two_probe_kernel), abs=1e-12)


def test_estimate_max_greedy_needs_probemax(two_probe_kernel):
    with pytest.raises(HintError):
        estimate_max(two_probe_kernel, "greedy_probemax")


def test_estimate_max_terminal_bound():
    inst = kernel([act("a", "g", {0: ((0, 1.0),)})], [0.0, 3.0], 1)
    assert estimate_max(inst, "terminal_bound") == pytest.approx(3.0, abs=1e-12)


def test_solve_single_action_matches_oracle():
    inst = kernel([act("a", "g", {0: ((0, 0.5), (1, 0.5))})], [0.0, 1.0], 1)
    knobs = PtasKnobs(eps=0.5, grid=0.25, block_budget=1, depth_limit=1)
    res = solve_ptas(inst, knobs)
    assert res.value == pytest.approx(optimal_value(inst), abs=1e-9)
    assert res.diagnostics.completed == res.diagnostics.topologies
    assert not res.diagnostics.partial


def test_solve_witness_with_lossless_grid(witness_spec):
    inst, _ = build_probemax(witness_spec, step=1.0, theta=10.0)
    knobs = PtasKnobs(eps=0.3, grid=0.1, block_budget=6, depth_limit=4, top_k=32)
    res = solve_ptas(inst, knobs)
    assert res.value == pytest.approx(3.8, abs=1e-9)


def test_solve_witness_enumerates_reachable_topologies(witness_spec):
    inst, _ = build_probemax(witness_spec, step=1.0, theta=10.0)
    knobs = PtasKnobs(eps=0.3, grid=0.1, block_budget=6, depth_limit=4, top_k=32)
    assert solve_ptas(inst, knobs).diagnostics.topologies == 16


def _positive_moves(inst):
    return {(level, j) for spec in inst.actions for level, row in spec.rows.items()
            for j, p in row.probs if p > 0.0}


def test_reachable_topologies_filter_the_full_enumeration(witness_spec):
    witness, _ = build_probemax(witness_spec, step=1.0, theta=10.0)
    instances = [witness] + [gen_random_kernel(seed, GenParams(n=3, levels=4, q=7))
                             for seed in range(6)]
    pruned_some = False
    for inst in instances:
        moves = _positive_moves(inst)
        full = enumerate_topologies(all_levels(inst.values.level_count), 5, 3,
                                    inst.start_level)
        want = tuple(top for top in full
                     if all((top.nodes[parent][0], key) in moves
                            for _level, parent, key in top.nodes[1:]))
        assert enumerate_topologies(level_reach(inst), 5, 3, inst.start_level) == want
        pruned_some |= len(want) < len(full)
    assert pruned_some


def test_reachable_topologies_keep_value_and_tree_on_probemax():
    # Against a search over the unpruned level enumeration with the same
    # first-strictly-better rule.
    for seed in range(20):
        spec = gen_random(seed, GenParams(kind="probemax", n=3, m=2, support=3,
                                          levels=8, q=8, step=1.0, eps=0.3))
        inst, _ = build_probemax(spec)
        K = inst.values.level_count
        assert K >= 8
        knobs = PtasKnobs(eps=0.3, grid=0.125, block_budget=3, depth_limit=2,
                          max_hint="greedy_probemax")
        res = solve_ptas(inst, knobs)
        table = _SolveTable(inst, knobs.grid, estimate_max(inst, knobs.max_hint), knobs.eps)
        start = inst.start_level
        best_tree, best_value = block_leaf(start), inst.terminal[start]
        full = enumerate_topologies(all_levels(K), knobs.block_budget,
                                    min(knobs.depth_limit, inst.horizon), start)
        for top in full:
            run = config_dp(table, top)
            tree, value, _surrogate = _winner(top, run, run.candidates, None, knobs.top_k)
            if value > best_value:
                best_tree, best_value = tree, value
        assert res.diagnostics.topologies < len(full)
        assert res.value == best_value
        assert repr(res.tree) == repr(best_tree)


def test_solve_reports_stage_seconds(witness_spec):
    inst, _ = build_probemax(witness_spec, step=1.0, theta=10.0)
    knobs = PtasKnobs(eps=0.3, grid=0.1, block_budget=6, depth_limit=4, top_k=32)
    seconds = solve_ptas(inst, knobs).diagnostics.seconds
    assert list(seconds) == ["enumerate", "dp", "rank", "rescore", "materialize"]
    assert all(s >= 0.0 for s in seconds.values())
    assert seconds["dp"] > 0.0


def test_solve_topology_cap_raises(witness_spec, monkeypatch):
    monkeypatch.setattr(ptas, "TOPOLOGY_CAP", 10)
    inst, _ = build_probemax(witness_spec, step=1.0, theta=10.0)
    knobs = PtasKnobs(eps=0.3, grid=0.1, block_budget=6, depth_limit=4)
    with pytest.raises(CapacityError):
        solve_ptas(inst, knobs)


def test_solve_zero_caps_is_noop(witness_spec):
    inst, _ = build_probemax(witness_spec, step=1.0, theta=10.0)
    knobs = PtasKnobs(eps=0.3, grid=0.1, block_budget=6, depth_limit=4)
    res = solve_ptas(dataclasses.replace(inst, horizon=0), knobs)
    assert res.value == pytest.approx(inst.terminal[0], abs=1e-12)


@pytest.mark.parametrize("horizon, knob, value", [
    (None, "top_k", 0), (0, "top_k", 0), (None, "block_budget", 0), (0, "block_budget", 0),
    (None, "depth_limit", 0), (0, "depth_limit", -1), (None, "state_cap", 0),
    (0, "state_cap", 0), (None, "eps", 0.0), (None, "grid", 0.0)])
def test_solve_checks_every_knob_before_any_work(witness_spec, monkeypatch, horizon, knob,
                                                  value):
    inst, _ = build_probemax(witness_spec, step=1.0, theta=10.0)
    if horizon is not None:
        inst = dataclasses.replace(inst, horizon=horizon)

    def no_work(*_args, **_kwargs):
        raise AssertionError("work started before every knob was checked")

    monkeypatch.setattr(ptas, "estimate_max", no_work)
    monkeypatch.setattr(ptas, "config_dp", no_work)
    knobs = dataclasses.replace(
        PtasKnobs(eps=0.3, grid=0.1, block_budget=6, depth_limit=4), **{knob: value})
    with pytest.raises(ParameterError):
        solve_ptas(inst, knobs)


def test_solve_survives_per_topology_capacity_errors(witness_spec):
    inst, _ = build_probemax(witness_spec, step=1.0, theta=10.0)
    knobs = PtasKnobs(eps=0.3, grid=0.1, block_budget=6, depth_limit=4,
                      top_k=32, state_cap=200)
    res = solve_ptas(inst, knobs)
    assert res.diagnostics.partial
    assert res.diagnostics.capacity_errors > 0
    assert res.value >= inst.terminal[0] - 1e-12


def test_solve_recovers_exact_optimum_on_grid_kernels():
    # Zero-profit dyadic kernels with every mass on the 1/8 lattice: the
    # placement DP loses nothing, so full-depth search returns the oracle.
    for seed in range(3):
        inst = gen_random_kernel(
            seed, GenParams(n=3, levels=2, horizon=3, q=4, zero_profit=True))
        if all(h == 0.0 for h in inst.terminal):
            continue
        knobs = PtasKnobs(eps=0.5, grid=0.125, block_budget=6, depth_limit=3,
                          top_k=10 ** 9, max_hint="exact")
        res = solve_ptas(inst, knobs)
        assert res.value == pytest.approx(optimal_value(inst), abs=1e-9)


def test_materialized_trees_validate(two_probe_kernel):
    top = enumerate_topologies(all_levels(2), 2, 2, 0)[0]
    solve_table = _SolveTable(two_probe_kernel, 0.25, 1.0, 1.0)
    run = config_dp(solve_table, top)
    for batches in _traces(run, run.candidates):
        tree = materialize(solve_table, top, batches)
        assert block_profit_exact(two_probe_kernel, tree) >= -1e-12


def test_materialize_keeps_leaves_for_outcomes_that_underflow():
    # b moves to level 2 only after a stayed flat with mass 1e-200, so the
    # batch's mass there underflows to 0.0: the outcomes drop that edge,
    # but the tree keeps a leaf for it.
    inst = kernel([act("a", "ga", {0: ((0, 1e-200), (1, 1.0))}),
                   act("b", "gb", {0: ((0, 1.0), (2, 1e-200))})], [0.0, 1.0, 2.0], 2)
    assert batch_masses_exact(inst, BlockNode(("a", "b"), 0))[0] == {1: 1.0, 2: 0.0}
    assert [j for j, _mass in ptas._outcomes(inst, 0, ("a", "b"))[1]] == [1, 0]
    tree = materialize(_SolveTable(inst, 0.25, 1.0, 0.3), Topology(0), (("a", "b"),))
    assert list(tree.children) == [1, 2, 0]
    leaves = {j: block_leaf(j) for j in (1, 2, 0)}
    assert repr(tree) == repr(BlockNode(("a", "b"), 0, leaves))


def test_a_node_holding_two_groups_sees_them_in_group_order():
    # Group gz holds a, the smallest action id, so it is folded in before ga
    # although its name sorts after.  Both items share the root, read off a
    # cover whose other node stays empty; the batch probes a, then b, and
    # the reversed batch is worth less.
    inst = kernel([act("a", "gz", {0: ((0, 0.75), (1, 0.25))}, profit=0.5),
                   act("b", "ga", {0: ((0, 0.5), (2, 0.5))}, profit=0.25)],
                  [0.0, 1.0, 2.0], 2)
    table = _SolveTable(inst, 0.25, 1.0, 1.0)
    assert table.members == (("a",), ("b",))
    run = config_dp(table, Topology(0, ((2, Topology(2)),)))
    state = next(s for s in range(len(run.chains)) if sum(map(len, run.batches(s))) == 2)
    assert run.batches(state) == (("a", "b"), ())
    top = Topology(0)
    batches = run.batches(state, (0,))
    assert batches == (("a", "b"),)
    tree = materialize(table, top, batches)
    assert tree.items == ("a", "b")
    value = _exact_value(table, top, batches)
    assert value == block_profit_exact(inst, tree) == run.exact_values([state])[0]
    assert value > _exact_value(table, top, (("b", "a"),))


def test_topology_child_index():
    top = Topology(0, ((0, Topology(0)),
                       (1, Topology(1, ((1, Topology(1)),)))))
    assert top.child_index == ({0: 1, 1: 2}, {}, {1: 3}, {})


def _probemax_13(seed, n=3):
    """Probemax n, m 2 on the 13-level greedy grid, with its greedy scale."""
    spec = gen_random(seed, GenParams(kind="probemax", n=n, m=2, support=3,
                                      levels=8, q=8, step=1.0, eps=0.3))
    inst, _ = build_probemax(spec)
    assert inst.values.level_count == 13
    return inst, 0.125, estimate_max(inst, "greedy_probemax")


def _topology_run(table, top, state_cap):
    """One topology through the DP and the rescoring, as comparable data:
    candidates, order, tracebacks and states explored, then the winner; or
    the point where the DP hit its state cap."""
    try:
        result = config_dp(table, top, state_cap=state_cap)
    except CapacityError as err:
        return ("capacity", err.states_explored)
    tree, value, surrogate = _winner(top, result, result.candidates, None, 32)
    units = _units(result, result.candidates)
    return (units.dtype, units.tolist(), _traces(result, result.candidates),
            result.states_explored, repr(tree), value, surrogate)


def test_shared_solve_table_matches_fresh_tables():
    # Every topology of a solve, in enumeration order and reversed, through
    # one table per horizon and pass, against a fresh table for each call.
    # Small state caps make some topologies stop at the cap; the horizons
    # the instances are cut to and the levels each topology spans give
    # some tables more than one slot width to pack for.
    cases = []
    for seed in range(8):
        q = 7 + seed % 4
        inst = gen_random_kernel(seed, GenParams(n=3 + seed % 2, levels=2 + seed % 3,
                                                 horizon=1 + seed % 3, q=q))
        # A small scale puts profit units past one byte on some caps only.
        cases.append((inst, 1.0 / q, 1.3 if seed % 2 else 0.02, EPS_CYCLE[seed % 3], 3, 2))
    for seed in range(3):
        cases.append((*_probemax_13(seed), 0.3, 4, 3))
    settings = [(40, ptas.DEFAULT_STATE_CAP), (1, 40), (2, 12), (40, 200)]
    runs = errors = 0
    for inst, grid, max_ref, eps, budget, depth in cases:
        tops = enumerate_topologies(level_reach(inst), budget,
                                    min(depth, inst.horizon), inst.start_level)

        def table(caps):
            return _SolveTable(capped(inst, caps), grid, max_ref, eps)

        jobs = [(top, caps, cap) for top in tops for caps, cap in settings]
        want = [_topology_run(table(caps), top, cap) for top, caps, cap in jobs]
        forward = {caps: table(caps) for caps, _cap in settings}
        got = [_topology_run(forward[caps], top, cap) for top, caps, cap in jobs]
        assert got == want
        backward = {caps: table(caps) for caps, _cap in settings}
        got = [_topology_run(backward[caps], top, cap) for top, caps, cap in reversed(jobs)]
        assert got[::-1] == want
        runs += len(jobs)
        errors += sum(w[0] == "capacity" for w in want)
    assert runs >= 300
    assert runs // 10 <= errors <= runs // 2


def test_solve_table_rejects_bad_grid_max_ref_or_eps(two_probe_kernel):
    for grid, max_ref, eps in ((0.0, 1.0, 0.3), (-0.25, 1.0, 0.3), (0.25, 0.0, 0.3),
                               (0.25, -1.0, 0.3), (0.25, 1.0, 0.0), (0.25, 1.0, 1.5)):
        with pytest.raises(ParameterError):
            _SolveTable(two_probe_kernel, grid, max_ref, eps)
    _SolveTable(two_probe_kernel, 0.25, 1.0, 1.0)


def test_solve_runs_the_dp_per_cover_and_builds_one_tree_per_solve(witness_spec,
                                                                   monkeypatch):
    # Without a binding state cap one run serves all 16 topologies.  A
    # small cap stops the cover's run, so each member runs its own and
    # some of those stop too; only the others reach the rescoring.  Either
    # way only the solve's winner is built and checked, once.  At state
    # cap 1 no run completes, so the do-nothing policy wins and no tree is
    # built.
    calls = dict.fromkeys(("config_dp", "materialize", "block_profit_exact"), 0)
    for name in calls:
        original = getattr(ptas, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(ptas, name, counted)
    inst, _ = build_probemax(witness_spec, step=1.0, theta=10.0)
    knobs = PtasKnobs(eps=0.3, grid=0.1, block_budget=6, depth_limit=4)
    diag = solve_ptas(inst, knobs).diagnostics
    assert (diag.dp_runs, diag.completed, diag.topologies) == (1, 16, 16)
    assert calls == {"config_dp": 1, "materialize": 1, "block_profit_exact": 1}
    calls.update(dict.fromkeys(calls, 0))
    diag = solve_ptas(inst, dataclasses.replace(knobs, state_cap=200)).diagnostics
    assert 0 < diag.completed < diag.topologies
    assert 1 < diag.dp_runs <= diag.topologies
    assert diag.best_topology >= 0
    assert calls == {"config_dp": diag.dp_runs, "materialize": 1, "block_profit_exact": 1}
    calls.update(dict.fromkeys(calls, 0))
    res = solve_ptas(inst, dataclasses.replace(knobs, state_cap=1))
    diag = res.diagnostics
    assert (diag.completed, diag.capacity_errors, diag.best_topology) == (0, 16, -1)
    assert repr(res.tree) == repr(block_leaf(inst.start_level))
    assert diag.seconds["materialize"] == 0.0
    assert calls == {"config_dp": diag.dp_runs, "materialize": 0, "block_profit_exact": 0}


def test_solve_checks_the_tree_it_returns(witness_spec, monkeypatch):
    # The one tree built is still checked against its rescored value.
    exact = ptas.block_profit_exact
    monkeypatch.setattr(ptas, "block_profit_exact",
                        lambda instance, tree: exact(instance, tree) + 1.0)
    inst, _ = build_probemax(witness_spec, step=1.0, theta=10.0)
    knobs = PtasKnobs(eps=0.3, grid=0.1, block_budget=6, depth_limit=4)
    with pytest.raises(StructuralError, match="does not score its rescored value"):
        solve_ptas(inst, knobs)


def test_rescoring_beats_the_surrogate_winner_off_grid():
    # Small-risk kernels whose masses are fifths, on the 1/8 grid: the
    # surrogate's first choice is not the best exact value of its top 32.
    # Seeds 0, 10 and 11 gain 6.5%, 7.9% and 9.4% from the rescoring.
    values = {}
    for seed in range(12):
        inst = gen_random_kernel(seed, GenParams(n=5, levels=4, horizon=3, q=5,
                                                 flat_bias=0.5))
        for top_k in (1, 32):
            knobs = PtasKnobs(eps=0.5, grid=0.125, block_budget=4, depth_limit=3,
                              top_k=top_k, max_hint="exact")
            values[seed, top_k] = solve_ptas(inst, knobs).value
    assert all(values[seed, 32] >= values[seed, 1] for seed in range(12))
    assert all(values[seed, 32] > values[seed, 1] for seed in (0, 10, 11))


def test_solve_computes_each_signature_and_batch_once(monkeypatch):
    signatures, batches = [], []
    signature, outcomes = ptas.action_signature, ptas._outcomes
    monkeypatch.setattr(ptas, "action_signature",
                        lambda inst, a, level, grid, max_ref: signatures.append((a, level))
                        or signature(inst, a, level, grid, max_ref))
    monkeypatch.setattr(ptas, "_outcomes",
                        lambda inst, level, items: batches.append((level, items))
                        or outcomes(inst, level, items))
    inst, grid, _max_ref = _probemax_13(4)
    knobs = PtasKnobs(eps=0.3, grid=grid, block_budget=4, depth_limit=3,
                      max_hint="greedy_probemax")
    first = solve_ptas(inst, knobs)
    assert first.diagnostics.completed > 1
    assert signatures and len(set(signatures)) == len(signatures)
    assert batches and len(set(batches)) == len(batches)
    once = sorted(signatures), sorted(batches)
    signatures.clear()
    batches.clear()
    # Nothing is kept between solves: the second computes it all again.
    second = solve_ptas(inst, knobs)
    assert (sorted(signatures), sorted(batches)) == once
    assert (second.value, repr(second.tree)) == (first.value, repr(first.tree))


def test_max_ref_source_exact(two_probe_kernel):
    diag = solve_ptas(two_probe_kernel, PtasKnobs(grid=0.25, max_hint="exact")).diagnostics
    assert diag.max_ref_source == "exact"
    assert diag.max_ref == max_over_starts(two_probe_kernel)


def test_max_ref_source_greedy_probemax():
    inst, grid, max_ref = _probemax_13(0)
    knobs = PtasKnobs(grid=grid, block_budget=2, depth_limit=2, max_hint="greedy_probemax")
    diag = solve_ptas(inst, knobs).diagnostics
    assert (diag.max_ref_source, diag.max_ref) == ("greedy_probemax", max_ref)


def test_max_ref_source_terminal_bound():
    inst = kernel([act("a", "g", {0: ((0, 0.5), (1, 0.5))})], [0.0, 3.0], 1)
    diag = solve_ptas(inst, PtasKnobs(grid=0.25, max_hint="terminal_bound")).diagnostics
    assert (diag.max_ref_source, diag.max_ref) == ("terminal_bound", 3.0)


def test_max_ref_source_fallback():
    # Nothing pays anywhere, so every estimate is 0 and the scale falls back.
    inst = kernel([act("a", "g", {0: ((0, 0.5), (1, 0.5))})], [0.0, 0.0], 1)
    assert estimate_max(inst, "terminal_bound") == 0.0
    diag = solve_ptas(inst, PtasKnobs(grid=0.25, max_hint="terminal_bound")).diagnostics
    assert (diag.max_ref_source, diag.max_ref) == ("fallback", 1.0)


def test_solve_refuses_a_scale_that_is_not_finite():
    # max terminal plus horizon times best profit overflows to inf; the
    # solve stops before any surrogate multiplies it.
    inst = kernel([act("a", "g", {0: ((1, 1.0),)}, profit=1.7e308)], [0.0, 1.7e308], 1)
    assert estimate_max(inst, "terminal_bound") == math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="max_hint 'terminal_bound'"):
            solve_ptas(inst, PtasKnobs(grid=0.25, max_hint="terminal_bound"))


def test_solve_winners_keep_p1_on_wide_probemax():
    # Probemax n 4, m 2 on the 13-level greedy grid: every returned tree
    # keeps the small-risk property at the solve's eps, and its surrogate
    # gap is the winner's surrogate less its exact value.
    gaps = []
    for seed in range(8):
        inst, grid, _max_ref = _probemax_13(seed, n=4)
        knobs = PtasKnobs(eps=0.3, grid=grid, block_budget=4, depth_limit=3,
                          max_hint="greedy_probemax")
        res = solve_ptas(inst, knobs)
        assert check_block_properties(inst, res.tree, knobs.eps, knobs.depth_limit).p1_ok
        diag = res.diagnostics
        assert diag.surrogate_gap == diag.best_surrogate - res.value
        gaps.append(diag.surrogate_gap)
    assert None not in gaps


def test_surrogate_gap_is_none_for_the_do_nothing_policy(witness_spec):
    inst, _ = build_probemax(witness_spec, step=1.0, theta=10.0)
    knobs = PtasKnobs(eps=0.3, grid=0.1, block_budget=6, depth_limit=4)
    diag = solve_ptas(dataclasses.replace(inst, horizon=0), knobs).diagnostics
    assert (diag.best_topology, diag.best_surrogate, diag.surrogate_gap) == (-1, None, None)


def _per_topology_solve(inst, knobs):
    """``solve_ptas`` as the loop it was before covers: every topology
    through its own ``config_dp`` and rescoring, the first strictly
    better exact value winning.  Returns the fields the solve must
    reproduce, and the indices of the topologies whose run hit the state
    cap."""
    max_ref = estimate_max(inst, knobs.max_hint)
    if max_ref <= 0.0:
        max_ref = 1.0
    table = _SolveTable(inst, knobs.grid, max_ref, knobs.eps)
    start = inst.start_level
    tops = enumerate_topologies(level_reach(inst), knobs.block_budget,
                                min(knobs.depth_limit, inst.horizon), start)
    value, tree, best_topology, best_surrogate = inst.terminal[start], block_leaf(start), -1, None
    completed = candidates = materialized = 0
    failed = []
    for ti, top in enumerate(tops):
        try:
            run = config_dp(table, top, state_cap=knobs.state_cap)
        except CapacityError:
            failed.append(ti)
            continue
        cands = run.candidates
        got_tree, got_value, surrogate = _winner(top, run, cands, None, knobs.top_k)
        completed += 1
        candidates += len(cands)
        materialized += min(knobs.top_k, len(cands))
        if got_value > value:
            value, tree, best_topology, best_surrogate = got_value, got_tree, ti, surrogate
    fields = (value, repr(tree), best_topology, best_surrogate, completed, candidates,
              materialized, len(failed))
    return fields, failed, tops


def _union_runs(inst, knobs, tops, dp_runs, states_explored):
    """``dp_runs`` and ``states_explored`` of the solve, given those of its
    runs per cover: a star solve within the union bound runs ``config_dp``
    once over its union star instead, and runs its covers after it only
    when that run hits the state cap.  A cover equal to the failed union
    star is not run again: the union's failed run stands in for its own."""
    star = ptas._union_star(tops)
    if star is None:
        return dp_runs, states_explored
    max_ref = estimate_max(inst, knobs.max_hint)
    table = _SolveTable(inst, knobs.grid, max_ref if max_ref > 0.0 else 1.0, knobs.eps)
    try:
        run = config_dp(table, star[0], state_cap=knobs.state_cap, cover_masks=star[2])
    except CapacityError as err:
        if any(tops[ci] == star[0] for ci, _nodes in ptas._covers(tops)):
            return dp_runs, states_explored
        return 1 + dp_runs, err.states_explored + states_explored
    return 1, run.states_explored


def _flat_chain_kernel(horizon):
    """One level and two items that never leave it: with a block budget
    past 63 the topologies are chains of up to that many nodes, all of
    them members of the longest."""
    return kernel([act("a", "ga", {0: ((0, 1.0),)}, profit=0.25),
                   act("b", "gb", {0: ((0, 1.0),)}, profit=0.5)], [1.0], horizon)


def _e2e_shaped(seed, n, m, levels, q):
    """An input of the ``ptas_e2e`` suite's shape, with its knobs."""
    spec = gen_random(seed, GenParams(kind="probemax", n=n, m=m, support=3, levels=levels,
                                      q=q, step=1.0, lossless=True))
    inst, _ = build_probemax(spec, step=1.0, theta=float(levels - 1))
    return inst, PtasKnobs(eps=0.3, grid=1.0 / q, block_budget=6, depth_limit=4, top_k=32,
                           max_hint="exact")


def test_solve_reads_every_topology_off_its_cover_like_a_per_topology_loop():
    cases = []
    for seed in range(12):
        q = 7 + seed % 4
        inst = gen_random_kernel(seed, GenParams(n=3 + seed % 3, levels=2 + seed % 3,
                                                 horizon=1 + seed % 3, q=q,
                                                 flat_bias=0.5 * (seed % 2)))
        cases.append((inst, PtasKnobs(eps=EPS_CYCLE[seed % 3], grid=1.0 / q, block_budget=4,
                                      depth_limit=3, top_k=(1, 4, 32)[seed % 3],
                                      max_hint="exact")))
    for seed in range(4):
        inst, grid, _max_ref = _probemax_13(seed, n=3 + seed % 2)
        cases.append((inst, PtasKnobs(eps=0.3, grid=grid, block_budget=4, depth_limit=3,
                                      max_hint="greedy_probemax")))
    for seed, shape in enumerate(((5, 2, 4, 8), (6, 2, 3, 4), (8, 2, 4, 4), (4, 3, 3, 4),
                                  (5, 3, 3, 4))):
        cases.append(_e2e_shaped(seed, *shape))
    cases.append((_flat_chain_kernel(70), PtasKnobs(eps=0.3, grid=0.125, block_budget=65,
                                                    depth_limit=70,
                                                    max_hint="terminal_bound")))
    # Small state caps stop some covers, whose members then run their own
    # DP, and some of those members too.
    cases += [(inst, dataclasses.replace(knobs, state_cap=cap))
              for inst, knobs in cases[12:21:2] for cap in (60, 400)]
    fallbacks = member_errors = shared = largest = 0
    for inst, knobs in cases:
        want, failed, tops = _per_topology_solve(inst, knobs)
        diag = (res := solve_ptas(inst, knobs)).diagnostics
        got = (res.value, repr(res.tree), diag.best_topology, diag.best_surrogate,
               diag.completed, diag.candidates, diag.materialized, diag.capacity_errors)
        assert got == want
        # One run per cover, plus one per member of a cover whose run
        # stopped at the state cap; or one over a star solve's union.
        covers = [ci for ci, _nodes in ptas._covers(tops)]
        fallback = [ti for ti, ci in enumerate(covers) if ci != ti and ci in failed]
        assert diag.dp_runs == _union_runs(inst, knobs, tops,
                                           len(set(covers)) + len(fallback), 0)[0]
        fallbacks += bool(fallback)
        member_errors += any(covers[ti] != ti for ti in failed)
        shared += diag.dp_runs < diag.topologies
        largest = max(largest, max(len(top.nodes) for top in tops))
    assert largest > 63
    assert fallbacks >= 3 and member_errors >= 3
    assert shared >= len(cases) // 2


def test_projected_candidates_match_each_members_own_run():
    # Every member's candidates read off its cover's run (units, order and
    # tracebacks) equal its own run's.  Grid 1 floors every mass below one
    # to zero, so nodes hold items and sum to zero: only their occupancy
    # bits keep those states out of a member that lacks the node.
    cases = []
    for seed in range(8):
        q = 7 + seed % 4
        inst = gen_random_kernel(seed, GenParams(n=3 + seed % 2, levels=2 + seed % 3,
                                                 horizon=1 + seed % 3, q=q))
        for grid in (1.0 / q, 1.0):
            cases.append((inst, grid, 1.3, EPS_CYCLE[seed % 3],
                          all_levels(inst.values.level_count), 4, 3))
    inst, grid, max_ref = _probemax_13(0)
    cases.append((inst, grid, max_ref, 0.3, level_reach(inst), 4, 3))
    cases.append((_flat_chain_kernel(66), 0.125, 1.0, 0.3, ((0,),), 66, 66))
    members = zero_items = 0
    for inst, grid, max_ref, eps, reach, budget, depth in cases:
        tops = enumerate_topologies(reach, budget, min(depth, inst.horizon),
                                    inst.start_level)
        covers = ptas._covers(tops)
        for sub in (inst, capped(inst, 1)):
            table = _SolveTable(sub, grid, max_ref, eps)
            runs = {ci: config_dp(table, tops[ci]) for ci in {ci for ci, _nodes in covers}}
            for run in runs.values():
                occupied = [[(word >> i & 1) for i in range(len(run.topology.nodes))]
                            for word in run.words]
                zero_items += any(occupied[w][i] and not run.sums[s, i].any()
                                  for s, w in zip(run.sum_ids, run.word_ids)
                                  for i in range(len(run.topology.nodes)))
            for ti, (top, (ci, nodes)) in enumerate(zip(tops, covers)):
                got = runs[ci].project(nodes)
                own = config_dp(table, top)
                assert np.array_equal(_units(runs[ci], got, nodes),
                                      _units(own, own.candidates))
                assert _traces(runs[ci], got, nodes) == _traces(own, own.candidates)
                members += ci != ti
    assert members >= 400
    assert zero_items >= 10


def _project_reference(run, nodes):
    """``ConfigDpResult.project`` as it was before the run ranked its final
    states once: a member's candidates in table order."""
    outside = ~sum(1 << c for c in nodes)
    inside = np.array([not word & outside for word in run.words], bool)
    states = np.flatnonzero(inside[run.word_ids])
    _ids, first = np.unique(run.sum_ids[states], return_index=True)
    return states[np.sort(first)]


def _rank_reference(run, states):
    """The rescoring's per-topology ranking as it was: ``states`` by
    descending surrogate, ties in table order (a stable sort)."""
    surrogates = run.surrogates[run.sum_ids[states]]
    return states[np.argsort(-surrogates, kind="stable")]


def _check_signature_sums(levels, traced, sums_want, signature):
    """Every traceback in ``traced`` must reproduce its configuration's
    per-node unit sums, the matching row of ``sums_want``, exactly;
    ``signature(action_id, level)`` gives one action's units, and raises
    ``StructuralError`` where it has no row.  The sums of all of them are
    added up in one numpy pass and compared as integers."""
    n_nodes = len(levels)
    rows: list[int] = []
    keys: dict[tuple[str, int], int] = {}  # (action, level) -> its signature row
    cols: list[int] = []
    for r, batches in enumerate(traced):
        for node_idx, items in enumerate(batches):
            for action_id in items:
                rows.append(r * n_nodes + node_idx)
                cols.append(keys.setdefault((action_id, levels[node_idx]), len(keys)))
    width = sums_want.shape[-1]
    sigs = [signature(*key) for key in keys]
    sums = np.zeros((len(traced) * n_nodes, width), np.int64)
    np.add.at(sums, np.array(rows, np.intp),
              np.array(sigs, np.int64).reshape(-1, width)[cols])
    if sums.tolist() != sums_want.reshape(-1, width).tolist():
        raise StructuralError("traceback signature sums do not match the "
                              "configuration")


def _winner_reference(table, top, run, ranked, nodes, top_k):
    """The rescoring as it was: the ``top_k`` of ``ranked`` traced back,
    checked in one numpy pass and valued; the first strictly best is
    materialized on ``top``.  Returns (tree repr, value, surrogate)."""
    if len(ranked) == 0:
        start = table.instance.start_level
        return repr(block_leaf(start)), table.instance.terminal[start], None
    states = ranked[:top_k].tolist()
    traced = [run.batches(state) for state in states]
    _check_signature_sums([level for level, _, _ in run.topology.nodes], traced,
                          run.sums[run.sum_ids[states]], table.signature)
    best, best_value = -1, float("-inf")
    for i, batches in enumerate(traced):
        value = _exact_value(table, run.topology, batches)
        if value > best_value:
            best, best_value = i, value
    tree = materialize(table, top, tuple(traced[best][c] for c in nodes))
    return (repr(tree), best_value,
            float(run.surrogates[run.sum_ids[states[best]]]))


def _members_read_off_covers(inst, knobs, reference):
    """Every topology of a solve read off its cover's run, or off its own
    run where the cover's hits the state cap, as ``solve_ptas`` reads
    them: per topology its ranked final states and winner (None where no
    run completed), and the solve's diagnostics rebuilt from those.  With
    ``reference`` the candidates are projected, ranked and rescored as
    before the run ranked its states once."""
    max_ref = estimate_max(inst, knobs.max_hint)
    table = _SolveTable(inst, knobs.grid, max_ref if max_ref > 0.0 else 1.0, knobs.eps)
    start = inst.start_level
    tops = enumerate_topologies(level_reach(inst), knobs.block_budget,
                                min(knobs.depth_limit, inst.horizon), start)
    runs, members = {}, []
    dp_runs = states_explored = 0

    def run_dp(top):
        nonlocal dp_runs, states_explored
        dp_runs += 1
        try:
            result = config_dp(table, top, state_cap=knobs.state_cap)
        except CapacityError as err:
            states_explored += err.states_explored
            return None
        states_explored += result.states_explored
        return result

    for ti, (ci, nodes) in enumerate(ptas._covers(tops)):
        if ci not in runs:
            runs[ci] = run_dp(tops[ci])
        run = runs[ci]
        if run is None and ci != ti:
            run, nodes = run_dp(tops[ti]), tuple(range(len(tops[ti].nodes)))
        if run is None:
            members.append(None)
            continue
        if reference:
            ranked = _rank_reference(run, _project_reference(run, nodes))
            winner = _winner_reference(table, tops[ti], run, ranked, nodes, knobs.top_k)
        else:
            ranked = run.project(nodes)
            tree, value, surrogate = _winner(tops[ti], run, ranked, nodes, knobs.top_k)
            winner = (repr(tree), value, surrogate)
        members.append((ranked.tolist(), len(ranked), winner))
    value, tree = inst.terminal[start], repr(block_leaf(start))
    best_topology, best_surrogate = -1, None
    for ti, member in enumerate(members):
        if member is not None and member[2][1] > value:
            (tree, value, best_surrogate), best_topology = member[2], ti
    done = [m for m in members if m is not None]
    diagnostics = (value, tree, best_topology, best_surrogate, len(done),
                   sum(m[1] for m in done), sum(min(knobs.top_k, m[1]) for m in done),
                   len(members) - len(done), dp_runs, states_explored)
    return members, diagnostics


def _cover_grid():
    """The inputs of the cover tests: random kernels (off-lattice masses,
    flat-heavy rows), wide Probemax, ``ptas_e2e`` shapes, a 70-node flat
    chain, kernels on grid 1 (where items sum to zero), and small state
    caps that stop some covers and some of their members."""
    cases = []
    for seed in range(12):
        q = 7 + seed % 4
        inst = gen_random_kernel(seed, GenParams(n=3 + seed % 3, levels=2 + seed % 3,
                                                 horizon=1 + seed % 3, q=q,
                                                 flat_bias=0.5 * (seed % 2)))
        cases.append((inst, PtasKnobs(eps=EPS_CYCLE[seed % 3], grid=1.0 / q, block_budget=4,
                                      depth_limit=3, top_k=(1, 4, 32)[seed % 3],
                                      max_hint="exact")))
    for seed in range(4):
        inst, grid, _max_ref = _probemax_13(seed, n=3 + seed % 2)
        cases.append((inst, PtasKnobs(eps=0.3, grid=grid, block_budget=4, depth_limit=3,
                                      max_hint="greedy_probemax")))
    for seed, shape in enumerate(((5, 2, 4, 8), (6, 2, 3, 4), (8, 2, 4, 4), (4, 3, 3, 4))):
        cases.append(_e2e_shaped(seed, *shape))
    cases.append((_flat_chain_kernel(70), PtasKnobs(eps=0.3, grid=0.125, block_budget=65,
                                                    depth_limit=70,
                                                    max_hint="terminal_bound")))
    for seed in range(4):
        inst = gen_random_kernel(seed, GenParams(n=3 + seed % 2, levels=2 + seed % 3,
                                                 horizon=1 + seed % 3, q=7 + seed % 4))
        cases.append((inst, PtasKnobs(eps=EPS_CYCLE[seed % 3], grid=1.0, block_budget=4,
                                      depth_limit=3, max_hint="exact")))
    cases += [(inst, dataclasses.replace(knobs, state_cap=cap))
              for inst, knobs in cases[12:20:2] for cap in (60, 400)]
    return cases


def test_each_member_ranks_off_its_cover_as_its_own_ranking_did():
    # Ranked candidates, their count, the winner and the diagnostics of
    # every member equal those of the projection, stable argsort and
    # numpy signature check they replace.
    fallbacks = 0
    for inst, knobs in _cover_grid():
        want, diagnostics = _members_read_off_covers(inst, knobs, reference=True)
        got, got_diagnostics = _members_read_off_covers(inst, knobs, reference=False)
        assert got == want
        assert got_diagnostics == diagnostics
        diag = (res := solve_ptas(inst, knobs)).diagnostics
        tops = enumerate_topologies(level_reach(inst), knobs.block_budget,
                                    min(knobs.depth_limit, inst.horizon), inst.start_level)
        assert (res.value, repr(res.tree), diag.best_topology, diag.best_surrogate,
                diag.completed, diag.candidates, diag.materialized, diag.capacity_errors,
                diag.dp_runs, diag.states_explored
                ) == diagnostics[:8] + _union_runs(inst, knobs, tops, *diagnostics[8:])
        fallbacks += diagnostics[8] > len({ci for ci, _ in ptas._covers(tops)})
    assert fallbacks >= 3


def _zero_signature_kernel():
    """Grid 1 is coarser than every mass of ``z``'s row, and ``z`` pays
    nothing, so its signature is all zeros: a node holding only ``z`` sums
    to what an empty node sums to."""
    return kernel([act("a", "ga", {0: ((0, 0.5), (1, 0.5))}, profit=0.5),
                   act("b", "gb", {0: ((1, 1.0),)}, profit=0.25),
                   act("z", "gz", {0: ((0, 0.6), (1, 0.4))}),
                   act("y", "gy", {1: ((1, 1.0),)}, profit=1.0)],
                  [0.0, 1.0], 2)


def test_states_with_equal_sums_and_other_occupancy_rank_like_the_reference():
    inst = _zero_signature_kernel()
    knobs = PtasKnobs(eps=1.0, grid=1.0, block_budget=4, depth_limit=2, top_k=3,
                      max_hint="terminal_bound")
    table = _SolveTable(inst, knobs.grid, estimate_max(inst, knobs.max_hint), knobs.eps)
    assert action_signature(inst, "z", 0, table.grid, table.max_ref) == (0, 0, 0)
    tops = enumerate_topologies(level_reach(inst), knobs.block_budget, knobs.depth_limit,
                                inst.start_level)
    covers = ptas._covers(tops)
    shared = 0
    for ci in {ci for ci, _nodes in covers}:
        # Some unit sums are held under two occupancy words.
        run = config_dp(table, tops[ci])
        pairs = set(zip(run.sum_ids.tolist(), run.word_ids.tolist()))
        assert len(run.ranked) == len(run.sum_ids)
        shared += len(run.sums) < len(pairs)
    assert shared > 0
    want, diagnostics = _members_read_off_covers(inst, knobs, reference=True)
    got, got_diagnostics = _members_read_off_covers(inst, knobs, reference=False)
    assert got == want and got_diagnostics == diagnostics
    assert any(ci != ti for ti, (ci, _nodes) in enumerate(covers))


def test_the_traceback_check_does_not_read_the_dps_packed_words(two_probe_kernel,
                                                                monkeypatch):
    # One packed word off by a unit makes the DP's sums wrong for every
    # state that places that action; the check packs its own signatures.
    packed = ptas._packed_cells

    def off_by_one(cells, level, slot_bits):
        packed_cells = packed(cells, level, slot_bits)
        (action_id, word), *rest = packed_cells[0]
        return ((action_id, word + 1), *rest), *packed_cells[1:]

    top = enumerate_topologies(all_levels(2), 2, 2, 0)[0]
    table = _SolveTable(two_probe_kernel, 0.25, 1.0, 1.0)
    run = config_dp(table, top)
    assert len(_winner(top, run, run.candidates, None, 32)[0].items) > 0
    monkeypatch.setattr(ptas, "_packed_cells", off_by_one)
    table = _SolveTable(two_probe_kernel, 0.25, 1.0, 1.0)
    result = config_dp(table, top)
    with pytest.raises(StructuralError):
        _winner(top, result, result.candidates, None, len(result.candidates))


def test_the_traceback_check_bounds_each_nodes_items_by_the_horizon():
    # Two items whose signatures are all zeros sum to the empty state's
    # row on any node; at horizon 1 a chain placing both on the root must
    # still fail, since only a bounded item count keeps slots from carrying.
    inst = kernel([act("z", "gz", {0: ((0, 0.6), (1, 0.4))}),
                   act("x", "gx", {0: ((0, 0.7), (1, 0.3))})], [0.0, 1.0], 1)
    top = Topology(0)
    table = _SolveTable(inst, 1.0, 1.0, 1.0)
    result = config_dp(table, top)
    assert result.chains[0] is None and not result.sums[result.sum_ids[0]].any()
    chains = list(result.chains)
    chains[0] = (1, ((0, "z"),), (0, ((0, "x"),), None))
    changed = ConfigDpResult(table, top, result.sums, result.sum_ids, chains,
                             result.words, result.word_ids, result.states_explored)
    with pytest.raises(StructuralError):
        changed.exact_values([0])
    chains[0] = (1, ((0, "z"),), None)
    changed = ConfigDpResult(table, top, result.sums, result.sum_ids, chains,
                             result.words, result.word_ids, result.states_explored)
    assert changed.exact_values([0]) == [_exact_value(table, top, (("z",),))]


def test_the_traceback_check_needs_slots_that_hold_horizon_times_each_unit(
        two_probe_kernel):
    # On the 1/256 grid a1 takes 128 units of each level's mass, and the
    # run holds its sums in two bytes a slot.  Read in one byte a slot, a
    # lone a1 still matches its row, but two items could carry, so the
    # check refuses the narrower slots.
    top = Topology(0)
    table = _SolveTable(two_probe_kernel, 1 / 256, 1.0, 1.0)
    result = config_dp(table, top)
    assert result.sums.dtype == np.dtype("<u2")
    state = next(s for s in range(len(result.chains))
                 if result.batches(s) == (("a1",),))
    narrow = ConfigDpResult(table, top, result.sums.astype("<u1"), result.sum_ids,
                            result.chains, result.words, result.word_ids,
                            result.states_explored)
    with pytest.raises(StructuralError, match="does not fit"):
        narrow.exact_values([state])
    assert result.exact_values([state]) == [
        _exact_value(table, top, (("a1",),))]


def _recursive_antichains(n, ancestors):
    """``ptas._antichains`` as it was, growing each antichain recursively."""
    comparable = [set(anc) for anc in ancestors]
    for i, anc in enumerate(ancestors):
        for a in anc:
            comparable[a].add(i)
    out = []

    def grow(start, chosen, blocked):
        for i in range(start, n):
            if i in blocked:
                continue
            sel = chosen + (i,)
            out.append(sel)
            grow(i + 1, sel, blocked | comparable[i] | {i})

    grow(0, (), frozenset())
    return out


def test_antichains_match_the_recursive_reference():
    # Every topology of up to seven nodes over three levels, stars of up to
    # twelve leaves and a 40-node chain: the same antichains in the same order.
    tops = list(enumerate_topologies(all_levels(3), 7, 7, 0))
    tops += [Topology(0, tuple((j, Topology(j)) for j in range(leaves)))
             for leaves in range(13)]
    tops += enumerate_topologies(((0,),), 40, 40, 0)[-1:]
    for top in tops:
        ancestors = []
        for _level, parent, _key in top.nodes:
            ancestors.append(() if parent < 0 else ancestors[parent] + (parent,))
        want = _recursive_antichains(len(ancestors), ancestors)
        assert ptas._antichains(len(ancestors), ancestors) == want
    assert len(tops) > 1000
    assert len(want) == 40


def _ptas_wide(seed, index):
    """Input ``index`` of the ptas-wide benchmark workload at ``seed``:
    Probemax n 4, m 2 on the 13-level greedy grid, with its knobs."""
    child = int(stream(seed, "ptas-wide", index).integers(0, 2 ** 63))
    spec = gen_random(child, GenParams(kind="probemax", n=4, m=2, support=3, levels=8, q=8,
                                       step=1.0, eps=0.3))
    inst, _ = build_probemax(spec)
    return inst, PtasKnobs(eps=0.3, grid=0.125, block_budget=4, depth_limit=3, top_k=32,
                           max_hint="greedy_probemax")


def _support6_star():
    """A 12-level Probemax whose three items have six outcomes each: a star
    solve of many covers whose union star has 11 nodes, past the bound."""
    spec = gen_random(0, GenParams(kind="probemax", n=3, m=2, support=6, levels=12, q=8,
                                   step=1.0, lossless=False))
    inst, _ = build_probemax(spec, step=1.0, theta=11.0)
    assert inst.values.level_count == 12
    return inst, PtasKnobs(eps=0.3, grid=0.125, block_budget=4, depth_limit=3, top_k=32,
                           max_hint="exact")


def _union_cases():
    return [_ptas_wide(seed, index) for seed in range(4) for index in range(4)] + [
        _support6_star()]


def _star_solve(inst, knobs):
    """The solve's table, topologies and covers (in the solve's order)."""
    max_ref = estimate_max(inst, knobs.max_hint)
    table = _SolveTable(inst, knobs.grid, max_ref, knobs.eps)
    tops = enumerate_topologies(level_reach(inst), knobs.block_budget,
                                min(knobs.depth_limit, inst.horizon), inst.start_level)
    return table, tops, list(dict.fromkeys(ci for ci, _nodes in ptas._covers(tops)))


def test_every_topology_reads_off_the_union_run_as_off_its_own(monkeypatch):
    # Ranked batches, surrogates and exact values of every topology of a
    # star solve read off one masked run over the union star equal those
    # of its own run.  The masks keep fewer states than the covers' runs
    # hold in all, and fewer than an unmasked union run.
    monkeypatch.setattr(ptas, "_UNION_STAR_NODES", 12)
    sizes = []
    for inst, knobs in _union_cases():
        table, tops, covers = _star_solve(inst, knobs)
        star, maps, masks = ptas._union_star(tops)
        union = config_dp(table, star, cover_masks=masks)
        if len(star.nodes) <= 8:
            assert union.states_explored < config_dp(table, star).states_explored
        assert union.states_explored < sum(config_dp(table, tops[ci]).states_explored
                                           for ci in covers)
        for top, nodes in zip(tops, maps):
            own = config_dp(table, top)
            got, want = union.project(nodes), own.candidates
            assert [union.batches(s, nodes) for s in got] == [own.batches(s) for s in want]
            assert (union.surrogates[union.sum_ids[got]].tolist()
                    == own.surrogates[own.sum_ids[want]].tolist())
            assert (union.exact_values(got[:2 * knobs.top_k].tolist())
                    == own.exact_values(want[:2 * knobs.top_k].tolist()))
        sizes.append(len(star.nodes))
    assert len(covers) > 50 and sizes[-1] == 11
    assert 4 <= min(sizes[:-1]) and max(sizes[:-1]) <= 8


def _solve_fields(inst, knobs):
    res = solve_ptas(inst, knobs)
    diag = res.diagnostics
    return ((res.value, repr(res.tree), diag.best_topology, diag.best_surrogate,
             diag.completed, diag.candidates, diag.materialized, diag.capacity_errors),
            diag.dp_runs, diag.states_explored)


def test_star_solves_on_the_union_match_the_cover_path(monkeypatch):
    # Each solve returns what the cover path returns, from one DP run.  The
    # support-6 star's union is past the bound, so it keeps its covers
    # unless the bound is lifted.
    for inst, knobs in _union_cases():
        _table, tops, covers = _star_solve(inst, knobs)
        with monkeypatch.context() as patch:
            patch.setattr(ptas, "_union_star", lambda *_args: None)
            want, cover_runs, cover_states = _solve_fields(inst, knobs)
        assert cover_runs == len(covers) > 1
        with monkeypatch.context() as patch:
            if inst.values.level_count == 12:
                assert _solve_fields(inst, knobs) == (want, cover_runs, cover_states)
                patch.setattr(ptas, "_UNION_STAR_NODES", 12)
            got, runs, states = _solve_fields(inst, knobs)
        assert got == want
        assert runs == 1 and states < cover_states


def test_a_union_run_at_the_state_cap_leaves_the_covers_to_finish(monkeypatch):
    # Where the union run stops at the state cap, the covers run after it
    # exactly as the cover path runs them, their members too where a cover
    # stops; the failed union run adds one run and its states.
    seen = set()
    for inst, knobs in [_ptas_wide(seed, 0) for seed in (0, 3)]:
        table, tops, _ = _star_solve(inst, knobs)
        star, _maps, masks = ptas._union_star(tops)
        for cap in (40, 160, 340):
            capped_knobs = dataclasses.replace(knobs, state_cap=cap)
            try:
                config_dp(table, star, state_cap=cap, cover_masks=masks)
                continue
            except CapacityError as err:
                union_states = err.states_explored
            with monkeypatch.context() as patch:
                patch.setattr(ptas, "_union_star", lambda *_args: None)
                want, cover_runs, cover_states = _solve_fields(inst, capped_knobs)
            got, runs, states = _solve_fields(inst, capped_knobs)
            assert got == want
            assert (runs, states) == (1 + cover_runs, union_states + cover_states)
            seen.add(want[-1] > 0)
    # Some covers stop too at the smaller caps, none at the larger.
    assert seen == {False, True}


def test_one_cover_star_solves_run_the_union_without_listing_covers(monkeypatch):
    # On ptas_e2e shapes every topology is a star inside one cover, which
    # is the union star.  The solve runs one masked DP over it and never
    # lists covers, and returns what the cover path returns.  Where that
    # run stops at the state cap, the cover is not run again: its members
    # run their own DPs, as on the cover path.
    def no_covers(_topologies):
        raise AssertionError("a star solve within the union bound lists no covers")

    def fields(inst, knobs):
        res = solve_ptas(inst, knobs)
        diag = res.diagnostics
        return (res.value, repr(res.tree), diag.best_topology, diag.best_surrogate,
                diag.candidates, diag.materialized, diag.valued, diag.dp_runs,
                diag.states_explored, diag.capacity_errors)

    for seed, shape in enumerate(((5, 2, 4, 8), (6, 2, 4, 4), (8, 2, 4, 4), (7, 2, 4, 8))):
        inst, knobs = _e2e_shaped(seed, *shape)
        tops = enumerate_topologies(level_reach(inst), knobs.block_budget,
                                    min(knobs.depth_limit, inst.horizon), inst.start_level)
        (cover,) = {ci for ci, _nodes in ptas._covers(tops)}
        assert tops[cover] == ptas._union_star(tops)[0]
        for cap in (ptas.DEFAULT_STATE_CAP, 500):
            capped = dataclasses.replace(knobs, state_cap=cap)
            with monkeypatch.context() as patch:
                patch.setattr(ptas, "_union_star", lambda *_args: None)
                want = fields(inst, capped)
            with monkeypatch.context() as patch:
                if cap == ptas.DEFAULT_STATE_CAP:
                    patch.setattr(ptas, "_covers", no_covers)
                got = fields(inst, capped)
            assert got == want
            if cap == ptas.DEFAULT_STATE_CAP:
                assert want[7] == 1 and want[-1] == 0
            else:
                # The union run stopped, and some members finished.
                assert want[7] == len(tops) and 0 < want[-1] < len(tops)


def _ladder_8_3():
    """Probemax 8/3 on the 13-level greedy grid, seeded as the ladder's
    ``cross`` rungs are, at block budget 4 and depth 3."""
    seed = int(stream(0, "cross", 0).integers(0, 2 ** 63))
    spec = gen_random(seed, GenParams(kind="probemax", n=8, m=3, support=3, levels=8, q=8,
                                      step=1.0, eps=0.3))
    inst, _ = build_probemax(spec)
    return inst, PtasKnobs(eps=0.3, grid=0.125, block_budget=4, depth_limit=3, top_k=32,
                           max_hint="greedy_probemax")


def test_pinned_solves_keep_their_answers():
    # A ptas-wide solve whose 10 covers share one masked union run, and a
    # depth-3 solve of 65 topologies read off 44 runs.  Any change to the
    # DP's states, their order, tie-breaks or the rescoring moves a digest.
    pins = [
        (_ptas_wide(0, 0), (26, 1, 1902),
         "335a1838a24f6094093514f5cff498c38020f81f62c309ea32267e4a53038163"),
        (_ladder_8_3(), (65, 44, 182_654),
         "36773730d6b2263ef21f9f74e8abb1b683ff78d325c869fc5ca472524666cda8"),
    ]
    for (inst, knobs), counts, digest in pins:
        res = solve_ptas(inst, knobs)
        d = res.diagnostics
        assert (d.topologies, d.dp_runs, d.states_explored) == counts
        fields = (res.value.hex(), repr(res.tree), d.best_topology, d.best_surrogate,
                  d.candidates, d.materialized, d.capacity_errors, d.dp_runs,
                  d.states_explored)
        assert hashlib.sha256(repr(fields).encode()).hexdigest() == digest
