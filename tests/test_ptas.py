"""Approximation pipeline: signatures, topologies, the placement DP, search."""

import time
from itertools import product

import numpy as np
import pytest

from stochprobe import (
    BlockNode,
    CandidateTable,
    CapacityError,
    ConfigDpResult,
    HintError,
    ParameterError,
    PtasKnobs,
    StructuralError,
    Topology,
    action_signature,
    block_leaf,
    block_profit_approx,
    block_profit_exact,
    build_probemax,
    config_dp,
    enumerate_topologies,
    estimate_max,
    level_reach,
    materialize,
    max_over_starts,
    optimal_value,
    reconstruct_and_score,
    solve_ptas,
)
from stochprobe import ptas
from stochprobe.harness import GenParams, gen_random, gen_random_kernel
from stochprobe.ptas import _compile_surrogate

from conftest import act, kernel


def all_levels(level_count):
    """Reach table of the full level enumeration: every key at or above."""
    return tuple(tuple(range(level, level_count)) for level in range(level_count))


def block_signature(instance, action_ids, level, grid, max_ref):
    """Entrywise sum of the batch's action signatures."""
    units = [0] * (instance.values.level_count + 1)
    for action_id in action_ids:
        for i, u in enumerate(action_signature(instance, action_id, level, grid, max_ref)):
            units[i] += u
    return tuple(units)


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


def test_topologies_count_cap_overflow():
    with pytest.raises(CapacityError):
        enumerate_topologies(all_levels(4), 8, 6, 0, count_cap=10)


def test_config_dp_single_block_unit_cap(two_probe_kernel):
    top = enumerate_topologies(all_levels(2), 1, 1, 0)[0]
    result = config_dp(two_probe_kernel, top, 0.25, 1.0, caps=1)
    assert len(result.candidates) == 3  # empty, {a1}, {a2}
    table = result.candidates
    sizes = sorted(sum(len(p) for p in table.placements(i) if p is not None)
                   for i in range(len(table)))
    assert sizes == [0, 1, 1]


def test_config_dp_zero_caps_only_empty(two_probe_kernel):
    top = enumerate_topologies(all_levels(2), 1, 1, 0)[0]
    result = config_dp(two_probe_kernel, top, 0.25, 1.0, caps=0)
    assert len(result.candidates) == 1
    assert all(not p for p in result.candidates.placements(0))


def test_config_dp_coarse_grid_collapses_signatures(two_probe_kernel):
    # Grid 2.0 floors every mass and profit to zero, so all placements
    # share the single zero configuration.
    top = enumerate_topologies(all_levels(2), 1, 1, 0)[0]
    result = config_dp(two_probe_kernel, top, 2.0, 1.0, caps=2)
    assert len(result.candidates) == 1


def test_config_dp_state_cap_overflow(two_probe_kernel):
    top = enumerate_topologies(all_levels(2), 2, 2, 0)[0]
    with pytest.raises(CapacityError):
        config_dp(two_probe_kernel, top, 0.015625, 1.0, caps=2, state_cap=1)


def test_config_dp_placements_reproduce_signatures(two_probe_kernel):
    # Regrouping the per-group placements by node and re-summing the action
    # signatures must land exactly on the unit tuples the DP recorded.
    top = enumerate_topologies(all_levels(2), 2, 2, 0)[0]
    levels = [level for level, _, _ in top.nodes]
    table = config_dp(two_probe_kernel, top, 0.25, 1.0, caps=2).candidates
    for i in range(len(table)):
        per_node: dict[int, list[str]] = {}
        for placed in table.placements(i):
            for node_idx, action_id in placed or ():
                per_node.setdefault(node_idx, []).append(action_id)
        for node_idx, sig_units in enumerate(table.units[i].tolist()):
            rebuilt = block_signature(
                two_probe_kernel, per_node.get(node_idx, []),
                levels[node_idx], 0.25, 1.0)
            assert rebuilt == tuple(sig_units)


def test_config_dp_skip_keeps_its_traceback():
    # Skipping gb from {a} and placing b on the empty start reach the same
    # state; the skip comes later but wins, so the traceback names a.
    row = {0: ((0, 0.75), (1, 0.25))}
    inst = kernel([act("a", "ga", row, profit=0.25), act("b", "gb", row, profit=0.25)],
                  [0.0, 1.0], 2)
    table = config_dp(inst, Topology(0), 0.25, 1.0, caps=2).candidates
    traces = [table.placements(i) for i in range(len(table))]
    one_item = [trace for trace in traces if sum(len(p) for p in trace if p) == 1]
    assert one_item == [(((0, "a"),), None)]


def _reference_config_dp(instance, topology, grid, max_ref, caps=None, *,
                         state_cap=ptas.DEFAULT_STATE_CAP):
    """The configuration DP as it was before the fitting-placement lists:
    every placement is tried on every state, and one guard bit per caps
    slot catches a placement that takes a path below zero."""
    cap = instance.horizon if caps is None else min(caps, instance.horizon)
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
                deltas.append((d, combo))
        deltas_by_group.append(deltas)

    prev, frozen, explored = {init_key: None}, {}, 1
    for g, deltas in enumerate(deltas_by_group):
        nxt = {}
        for key, chain in prev.items():
            if key & caps_all == 0:
                if key not in frozen:
                    frozen[key] = chain
                continue
            nxt[key] = chain
            for d, placement in deltas:
                new_key = key + d
                if new_key & guard:
                    continue
                if new_key not in nxt:
                    nxt[new_key] = (g, placement, chain)
            if len(nxt) + len(frozen) > state_cap:
                raise CapacityError("state cap", states_explored=explored + len(nxt))
        explored += len(nxt)
        prev = nxt

    kept = {}
    for states in (frozen, prev):
        for key, chain in states.items():
            kept.setdefault(key >> caps_bits, chain)
    sum_bytes = n_nodes * width * slot_dtype.itemsize
    raw = b"".join(sums.to_bytes(sum_bytes, "little") for sums in kept)
    units = np.frombuffer(raw, slot_dtype).reshape(len(kept), n_nodes, width)
    return ConfigDpResult(CandidateTable(units, list(kept.values()), len(group_order)),
                          explored)


def _outcome(dp, *args, **kwargs):
    """A DP run as comparable data: its candidates in order, or the point
    where it hit the state cap."""
    try:
        result = dp(*args, **kwargs)
    except CapacityError as err:
        return ("capacity", err.states_explored)
    table = result.candidates
    return (table.units.dtype, table.units.tolist(),
            [table.placements(i) for i in range(len(table))], result.states_explored)


def test_config_dp_matches_guard_bit_reference():
    # Masses k/q with q = 7..10 put off-lattice unit sums in the states.
    cases = errors = 0
    for seed in range(24):
        q = 7 + seed % 4
        inst = gen_random_kernel(seed, GenParams(n=3 + seed % 3, levels=2 + seed % 3,
                                                 horizon=1 + seed % 3, q=q))
        grid, max_ref = 1.0 / q, 1.3
        reach = all_levels(inst.values.level_count)
        for top in enumerate_topologies(reach, 3, 2, inst.start_level):
            for caps in (None, 0, 1, 2):
                for state_cap in (ptas.DEFAULT_STATE_CAP, 3, 10, 40):
                    args = (inst, top, grid, max_ref, caps)
                    want = _outcome(_reference_config_dp, *args, state_cap=state_cap)
                    assert _outcome(config_dp, *args, state_cap=state_cap) == want
                    cases += 1
                    errors += want[0] == "capacity"
    assert cases >= 2000
    assert cases // 4 <= errors <= 3 * cases // 4


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
    result = config_dp(inst, top, 0.25, 1.0)
    tree, value, _surrogate = reconstruct_and_score(inst, top, result, 0.25, 1.0)
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
    # sum would change some surrogate in its last bits.
    ranked = []
    exact_value = ptas._exact_value
    monkeypatch.setattr(ptas, "_exact_value",
                        lambda inst, top, placements, outcomes: ranked.append(placements)
                        or exact_value(inst, top, placements, outcomes))
    cases = ties = 0
    for seed in range(40):
        q = 7 + seed % 4
        inst = gen_random_kernel(seed, GenParams(n=3 + seed % 3, levels=2 + seed % 3,
                                                 horizon=1 + seed % 3, q=q))
        grid, max_ref = 1.0 / q, 1.3
        reach = all_levels(inst.values.level_count)
        for top in enumerate_topologies(reach, 3, 3, inst.start_level):
            for caps in (None, 1, 2):
                result = config_dp(inst, top, grid, max_ref, caps)
                table = result.candidates
                ref = _reference_surrogate(inst, top, grid, grid * max_ref)
                want = [ref(sigs) for sigs in table.units.tolist()]
                got = _compile_surrogate(inst, top, grid, grid * max_ref)(table.units)
                assert got.tolist() == want
                order = sorted(range(len(want)), key=lambda i: -want[i])
                ranked.clear()
                reconstruct_and_score(inst, top, result, grid, max_ref, top_k=len(table))
                assert ranked == [table.placements(i) for i in order]
                cases += 1
                ties += len(set(want)) < len(want)
    assert cases >= 1500
    assert ties >= 500


def test_tree_free_rescoring_matches_materialized_trees(monkeypatch):
    # Every ranked candidate's exact value, computed from its placements,
    # equals the value of the tree materialize builds from them.  Flat-heavy
    # rows put several items on one node, so batch prefixes matter.
    scored = []
    exact_value = ptas._exact_value
    monkeypatch.setattr(ptas, "_exact_value",
                        lambda inst, top, placements, outcomes: scored.append(
                            (placements, exact_value(inst, top, placements, outcomes)))
                        or scored[-1][1])
    cases = ties = multi = 0
    for seed in range(100, 116):
        q = 7 + seed % 4
        inst = gen_random_kernel(seed, GenParams(n=3 + seed % 3, levels=2 + seed % 3,
                                                 horizon=1 + seed % 3, q=q,
                                                 flat_bias=0.5 * (seed % 2)))
        grid, max_ref = 1.0 / q, 1.3
        for top in enumerate_topologies(level_reach(inst), 3, 2, inst.start_level):
            for caps in (None, 2):
                result = config_dp(inst, top, grid, max_ref, caps)
                table = result.candidates
                scored.clear()
                tree, value, _surrogate = reconstruct_and_score(
                    inst, top, result, grid, max_ref, top_k=len(table))
                assert len(scored) == len(table)
                for placements, got in scored:
                    want = block_profit_exact(inst, materialize(inst, top, placements))
                    assert got == want
                    placed = [i for p in placements if p for i, _action in p]
                    multi += len(placed) > len(set(placed))
                assert value == max(got for _, got in scored)
                cases += 1
                surrogates = _compile_surrogate(inst, top, grid, grid * max_ref)(table.units)
                ties += len(set(surrogates.tolist())) < len(table)
    assert cases >= 200
    assert ties >= 150
    assert multi >= 5000


def test_rescoring_rejects_a_changed_unit_row(two_probe_kernel):
    top = enumerate_topologies(all_levels(2), 2, 2, 0)[0]
    result = config_dp(two_probe_kernel, top, 0.25, 1.0, caps=2)
    table = result.candidates
    for i in range(len(table)):
        units = table.units.copy()
        units[i, 0, 1] += 1
        changed = ConfigDpResult(CandidateTable(units, table.chains, table.group_count),
                                 result.states_explored)
        with pytest.raises(StructuralError):
            reconstruct_and_score(two_probe_kernel, top, changed, 0.25, 1.0,
                                  top_k=len(table))


def test_reconstruct_single_candidate(two_probe_kernel):
    top = enumerate_topologies(all_levels(2), 1, 1, 0)[0]
    result = config_dp(two_probe_kernel, top, 0.25, 1.0, caps=0)
    tree, value, _surrogate = reconstruct_and_score(
        two_probe_kernel, top, result, 0.25, 1.0)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_reconstruct_empty_candidates_is_noop(two_probe_kernel):
    empty = ConfigDpResult(CandidateTable(np.zeros((0, 1, 3), np.uint8), [], 2), 0)
    top = enumerate_topologies(all_levels(2), 1, 1, 0)[0]
    tree, value, _surrogate = reconstruct_and_score(two_probe_kernel, top, empty, 0.25, 1.0)
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
    result = config_dp(inst, top, 0.0625, 1.0, caps=1)
    tree1, value1, _surrogate1 = reconstruct_and_score(inst, top, result, 0.0625, 1.0, top_k=1)
    assert tree1.items == ("b",)
    assert value1 == pytest.approx(0.4375, abs=1e-12)
    tree2, value2, _surrogate2 = reconstruct_and_score(inst, top, result, 0.0625, 1.0, top_k=2)
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
        max_ref = estimate_max(inst, knobs.max_hint)
        start = inst.start_level
        best_tree, best_value = block_leaf(start), inst.terminal[start]
        full = enumerate_topologies(all_levels(K), knobs.block_budget,
                                    min(knobs.depth_limit, inst.horizon), start)
        for top in full:
            result = config_dp(inst, top, knobs.grid, max_ref, knobs.caps)
            tree, value, _surrogate = reconstruct_and_score(
                inst, top, result, knobs.grid, max_ref, knobs.top_k)
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


def test_solve_topology_cap_raises(witness_spec):
    inst, _ = build_probemax(witness_spec, step=1.0, theta=10.0)
    knobs = PtasKnobs(eps=0.3, grid=0.1, block_budget=6, depth_limit=4,
                      topology_cap=10)
    with pytest.raises(CapacityError):
        solve_ptas(inst, knobs)


def test_solve_zero_caps_is_noop(witness_spec):
    inst, _ = build_probemax(witness_spec, step=1.0, theta=10.0)
    knobs = PtasKnobs(eps=0.3, grid=0.1, block_budget=6, depth_limit=4, caps=0)
    res = solve_ptas(inst, knobs)
    assert res.value == pytest.approx(inst.terminal[0], abs=1e-12)


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
    table = config_dp(two_probe_kernel, top, 0.25, 1.0, caps=2).candidates
    for i in range(len(table)):
        tree = materialize(two_probe_kernel, top, table.placements(i))
        assert block_profit_exact(two_probe_kernel, tree) >= -1e-12
