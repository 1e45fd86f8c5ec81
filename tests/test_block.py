"""Block trees: batch masses, exact vs order-free profit, the policy transform."""

import itertools
import math

import pytest

from stochprobe import (
    BlockNode,
    PolicyNode,
    batch_masses_approx,
    batch_masses_exact,
    block_leaf,
    block_profit_approx,
    block_profit_exact,
    block_risk_mass,
    blockify,
    check_block_properties,
    evaluate_policy,
    iter_blocks,
    leaf_node,
    max_over_starts,
    optimal_policy,
    optimal_value,
    build_probemax,
)
from stochprobe.harness import GenParams, gen_random_kernel

from conftest import act, kernel


@pytest.fixture
def two_item_kernel():
    """Two low-risk probes at level 0 of a two-level space, unit top payoff."""
    return kernel(
        [act("a", "ga", {0: ((0, 0.9), (1, 0.1))}),
         act("b", "gb", {0: ((0, 0.95), (1, 0.05))})],
        [0.0, 1.0], 2)


def pair_block(level=0):
    return BlockNode(("a", "b"), level,
                     {0: block_leaf(0), 1: block_leaf(1)})


def test_exact_masses_stop_at_first_mover(two_item_kernel):
    # First a (up 0.1), then b only if a stayed flat: 0.1 + 0.9*0.05 = 0.145.
    up, flat, _profit = batch_masses_exact(two_item_kernel, pair_block())
    assert up[1] == pytest.approx(0.145, abs=1e-12)
    assert flat == pytest.approx(0.855, abs=1e-12)


def test_exact_profit_equals_up_mass_here(two_item_kernel):
    assert block_profit_exact(two_item_kernel, pair_block()) == pytest.approx(
        0.145, abs=1e-12)


def test_reversed_order_same_single_up_level(two_item_kernel):
    rev = BlockNode(("b", "a"), 0, {0: block_leaf(0), 1: block_leaf(1)})
    assert block_profit_exact(two_item_kernel, rev) == pytest.approx(
        0.145, abs=1e-12)


def test_approx_masses_weight_by_all_other_flats(two_item_kernel):
    # 0.95*0.1 + 0.9*0.05 = 0.14, flat 0.9*0.95 = 0.855.
    up, flat, _profit = batch_masses_approx(two_item_kernel, pair_block())
    assert up[1] == pytest.approx(0.14, abs=1e-12)
    assert flat == pytest.approx(0.855, abs=1e-12)
    assert block_profit_approx(two_item_kernel, pair_block()) == pytest.approx(
        0.14, abs=1e-12)


def test_singleton_block_equals_policy_node(two_item_kernel):
    single = BlockNode(("a",), 0, {0: block_leaf(0), 1: block_leaf(1)})
    tree = PolicyNode("a", 0, 0, {0: leaf_node(0, 1), 1: leaf_node(1, 1)})
    exact = block_profit_exact(two_item_kernel, single)
    assert exact == pytest.approx(
        evaluate_policy(two_item_kernel, tree), abs=1e-12)
    assert block_profit_approx(two_item_kernel, single) == pytest.approx(
        exact, abs=1e-12)


def test_all_flat_block_adds_profit_and_descends():
    inst = kernel(
        [act("a", "ga", {0: ((0, 1.0),)}, profit=0.5),
         act("b", "gb", {0: ((0, 1.0),)}, profit=0.25)],
        [0.0], 2)
    tree = BlockNode(("a", "b"), 0, {0: block_leaf(0)})
    assert block_profit_approx(inst, tree) == pytest.approx(0.75, abs=1e-12)
    assert block_profit_exact(inst, tree) == pytest.approx(0.75, abs=1e-12)


def test_risk_mass_sums_item_risks(two_item_kernel):
    assert block_risk_mass(two_item_kernel, pair_block()) == pytest.approx(
        0.15, abs=1e-12)


def test_approx_invariant_under_item_order():
    inst = kernel(
        [act("a", "ga", {0: ((0, 0.9), (1, 0.06), (2, 0.04))}, profit=0.3),
         act("b", "gb", {0: ((0, 0.95), (2, 0.05))}, profit=0.1),
         act("c", "gc", {0: ((0, 0.97), (1, 0.03))})],
        [0.0, 0.5, 1.0], 3)
    children = {0: block_leaf(0), 1: block_leaf(1), 2: block_leaf(2)}
    base = block_profit_approx(inst, BlockNode(("a", "b", "c"), 0, children))
    for perm in itertools.permutations(("a", "b", "c")):
        assert block_profit_approx(
            inst, BlockNode(perm, 0, children)) == base


def test_exact_order_variation_stays_in_envelope():
    inst = kernel(
        [act("a", "ga", {0: ((0, 0.96), (1, 0.04))}, profit=0.3),
         act("b", "gb", {0: ((0, 0.97), (1, 0.03))}, profit=0.1)],
        [0.0, 1.0], 2)
    eps = 0.3
    children = {0: block_leaf(0), 1: block_leaf(1)}
    approx = block_profit_approx(inst, BlockNode(("a", "b"), 0, children))
    for perm in itertools.permutations(("a", "b")):
        exact = block_profit_exact(inst, BlockNode(perm, 0, children))
        assert exact >= (1.0 - eps * eps) * approx - 1e-9
        assert approx >= (1.0 - eps * eps) ** 2 * exact - 1e-9


def test_mass_accounting_exact_sums_to_one():
    for seed in range(10):
        inst = gen_random_kernel(seed, GenParams(n=3, levels=3, q=8))
        ids = [a.id for a in inst.actions if a.rows.get(0) is not None]
        if len(ids) < 2:
            continue
        node = BlockNode(tuple(ids[:2]), 0, {})
        up, flat, _ = batch_masses_exact(inst, node)
        assert math.fsum(up.values()) + flat == pytest.approx(1.0, abs=1e-9)
        aup, aflat, _ = batch_masses_approx(inst, node)
        assert math.fsum(aup.values()) + aflat <= 1.0 + 1e-9


def test_properties_singletons_exempt_from_risk_cap():
    inst = kernel([act("a", "g", {0: ((1, 1.0),)})], [0.0, 1.0], 1)
    tree = BlockNode(("a",), 0, {1: block_leaf(1)})
    report = check_block_properties(inst, tree, 0.1, 5)
    assert report.p1_ok


def test_properties_pair_risk_at_the_boundary(two_item_kernel):
    # mu = 0.15 against eps^2 = 0.16: inside the budget.
    report = check_block_properties(two_item_kernel, pair_block(), 0.4, 5)
    assert report.p1_ok
    assert report.block_mus == (pytest.approx(0.15, abs=1e-12),)
    # eps^2 = 0.09: the same pair now violates the cap.
    assert not check_block_properties(two_item_kernel, pair_block(), 0.3, 5).p1_ok


def test_properties_path_budget_counts_blocks():
    inst = kernel(
        [act(f"a{i}", f"g{i}", {0: ((0, 1.0),)}) for i in range(5)],
        [0.0], 5)
    tree = block_leaf(0)
    for i in reversed(range(5)):
        tree = BlockNode((f"a{i}",), 0, {0: tree})
    assert check_block_properties(inst, tree, 0.5, 5).p2_ok
    report = check_block_properties(inst, tree, 0.5, 4)
    assert not report.p2_ok
    assert report.max_path_blocks == 5


def test_blockify_merges_uniform_no_risk_chain():
    # Zero-profit stay-put probes leave every flat continuation worth the
    # terminal 2.0, so neither the spread rule nor the risk budget ever
    # closes the segment and the whole chain lands in one block.
    inst = kernel(
        [act(f"a{i}", f"g{i}", {0: ((0, 1.0),)}) for i in range(3)],
        [2.0], 3)
    tree = leaf_node(0, 3)
    for i in reversed(range(3)):
        tree = PolicyNode(f"a{i}", 0, i, {0: tree})
    btree = blockify(inst, tree, 0.5, 1.0)
    assert btree.items == ("a0", "a1", "a2")
    assert block_profit_exact(inst, btree) == pytest.approx(2.0, abs=1e-12)


def test_blockify_splits_flat_chain_on_collected_profit():
    # The spread window covers the flat continuation too.  Each probe pays
    # 1.0, so the continuation values 2.0, 1.0, 0.0 differ by more than
    # eps^2 * max_ref = 0.25 and every node becomes its own block.  Flat
    # fall-through is exact, so no profit is lost to the extra cuts.
    inst = kernel(
        [act(f"a{i}", f"g{i}", {0: ((0, 1.0),)}, profit=1.0) for i in range(3)],
        [0.0], 3)
    tree = leaf_node(0, 3)
    for i in reversed(range(3)):
        tree = PolicyNode(f"a{i}", 0, i, {0: tree})
    btree = blockify(inst, tree, 0.5, 1.0)
    assert btree.items == ("a0",)
    assert btree.children[0].items == ("a1",)
    assert btree.children[0].children[0].items == ("a2",)
    assert block_profit_exact(inst, btree) == pytest.approx(3.0, abs=1e-12)


def test_blockify_splits_on_up_child_value_spread():
    # Up-children worth 1.0, 0.9, 0.5; spread cap eps^2 * max_ref = 0.15
    # keeps {1.0, 0.9} together and opens a new segment at 0.5.
    def up_sub(tag, t):
        return PolicyNode(tag, 1, t, {1: leaf_node(1, t + 1)})

    probes = [act(f"a{i}", f"g{i}", {0: ((0, 0.99), (1, 0.01))})
              for i in (1, 2, 3)]
    payers = [act(tag, f"cg{tag}", {1: ((1, 1.0),)}, profit=g)
              for tag, g in (("c_hi", 1.0), ("c_mid", 0.9), ("c_lo", 0.5))]
    inst = kernel(probes + payers, [0.0, 0.0], 6)
    tree = leaf_node(0, 3)
    tree = PolicyNode("a3", 0, 2, {0: tree, 1: up_sub("c_lo", 3)})
    tree = PolicyNode("a2", 0, 1, {0: tree, 1: up_sub("c_mid", 2)})
    tree = PolicyNode("a1", 0, 0, {0: tree, 1: up_sub("c_hi", 1)})
    btree = blockify(inst, tree, 0.5, 0.6)
    assert btree.items == ("a1", "a2")
    assert btree.children[0].items == ("a3",)


def test_blockify_loss_bound_on_witness(witness_spec):
    inst, _ = build_probemax(witness_spec, step=1.0, theta=10.0)
    opt = optimal_value(inst)
    max_ref = max_over_starts(inst)
    eps = 0.4
    btree = blockify(inst, optimal_policy(inst), eps, max_ref)
    K = len(inst.terminal)
    value = block_profit_exact(inst, btree)
    assert value >= opt - K * eps * eps * max_ref - 1e-9
    assert check_block_properties(inst, btree, eps, inst.horizon).p1_ok


def test_blockify_output_satisfies_risk_cap_on_randoms():
    for seed in range(15):
        inst = gen_random_kernel(
            seed, GenParams(n=5, levels=3, horizon=5, flat_bias=0.6))
        eps = 0.3
        max_ref = max_over_starts(inst)
        if max_ref <= 0.0:
            continue
        btree = blockify(inst, optimal_policy(inst), eps, max_ref)
        assert check_block_properties(inst, btree, eps, inst.horizon).p1_ok
        assert block_profit_exact(inst, btree) >= optimal_value(
            inst) - len(inst.terminal) * eps * eps * max_ref - 1e-9


def test_iter_blocks_walks_every_node(two_item_kernel):
    tree = BlockNode(("a",), 0, {0: BlockNode(("b",), 0, {
        0: block_leaf(0), 1: block_leaf(1)}), 1: block_leaf(1)})
    nodes = list(iter_blocks(tree))
    assert len(nodes) == 2
    assert [n.items for n, _depth in nodes] == [("a",), ("b",)]


def test_blockify_walks_a_1200_step_staircase():
    # Action c{j} moves level j to j + 1, so every block starts a new chain
    # and the block tree is as deep as the policy.
    depth = 1200
    inst = kernel([act(f"c{j}", f"g{j}", {j: ((j + 1, 1.0),)}, profit=0.125)
                   for j in range(depth)], [0.0] * depth + [1.0], depth)
    tree = leaf_node(depth, depth + 1)
    for j in reversed(range(depth)):
        tree = PolicyNode(f"c{j}", j, j + 1, {j + 1: tree})
    assert evaluate_policy(inst, tree) == 151.0
    btree = blockify(inst, tree, 0.3, 1.0)
    assert [n.items for n, _depth in iter_blocks(btree)] == [(f"c{j}",) for j in range(depth)]
    assert block_profit_exact(inst, btree) == 151.0
