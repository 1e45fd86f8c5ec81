"""Kernel model: policy evaluation, reach statistics, truncation, validation."""

import math

import pytest

from stochprobe import (
    ActionSpec,
    BlockNode,
    Instance,
    PolicyNode,
    StructuralError,
    TransitionRow,
    UnknownActionError,
    ValueSpace,
    block_leaf,
    block_profit_approx,
    block_profit_exact,
    blockify,
    evaluate_policy,
    leaf_node,
    optimal_policy,
    optimal_value,
    sbk_from_skp,
    sbk_value_of,
    subtree_values,
    truncate_by_profit,
    truncate_policy,
    truncation_cut_set,
    validate_instance,
    validate_policy_tree,
    walk_reach,
)
from stochprobe.harness import GenParams, gen_random_kernel, gen_random_policy, simulate

from conftest import act, kernel


def chain_policy(action_ids, level, horizon, up_level=None):
    """A flat chain probing the ids in order, with leaf up-branches."""
    tree = leaf_node(level, len(action_ids))
    for t in reversed(range(len(action_ids))):
        children = {level: tree}
        if up_level is not None:
            children[up_level] = leaf_node(up_level, t + 1)
        tree = PolicyNode(action_ids[t], level, t, children)
    return tree


def node_sum_profit(instance, tree):
    """Policy value as the reach-weighted sum of node profits and leaf
    payoffs: a second accounting form of ``evaluate_policy``."""
    total = 0.0
    for node, phi, _mu, _acc in walk_reach(instance, tree):
        if node.is_leaf:
            total += phi * instance.terminal[node.level]
        else:
            total += phi * instance.action(node.action).rows[node.level].profit
    return total


def path_stats(instance, tree, node_path):
    """The (reach probability, prefix risk mass, prefix profit) that
    ``walk_reach`` yields for the node the realized levels lead to."""
    node = tree
    for j in node_path:
        node = node.children[j]
    return next((phi, mu, acc) for visited, phi, mu, acc in walk_reach(instance, tree)
                if visited is node)


def test_evaluate_single_profit_node():
    inst = kernel([act("a", "g", {0: ((0, 1.0),)}, profit=5.0)], [0.0], 1)
    tree = PolicyNode("a", 0, 0, {0: leaf_node(0, 1)})
    assert evaluate_policy(inst, tree) == pytest.approx(5.0, abs=1e-12)


def test_evaluate_coin_flip_terminal():
    inst = kernel([act("a", "g", {0: ((0, 0.5), (1, 0.5))})], [0.0, 10.0], 1)
    tree = PolicyNode("a", 0, 0, {0: leaf_node(0, 1), 1: leaf_node(1, 1)})
    assert evaluate_policy(inst, tree) == pytest.approx(5.0, abs=1e-12)


def test_evaluate_matches_node_sum_on_random_trees():
    for seed in range(30):
        inst = gen_random_kernel(seed, GenParams(n=4, levels=3, horizon=4))
        tree = gen_random_policy(inst, seed + 1000)
        a = evaluate_policy(inst, tree)
        b = node_sum_profit(inst, tree)
        assert a == pytest.approx(b, abs=1e-9)


def test_path_stats_empty_path_is_root():
    inst = kernel([act("a", "g", {0: ((0, 1.0),)})], [0.0], 1)
    tree = PolicyNode("a", 0, 0, {0: leaf_node(0, 1)})
    phi, mu, acc = path_stats(inst, tree, ())
    assert phi == 1.0
    assert mu == 0.0
    assert acc == 0.0


def test_path_stats_single_edge():
    inst = kernel([act("a", "g", {0: ((0, 0.3), (1, 0.7))})], [0.0, 1.0], 1)
    tree = PolicyNode("a", 0, 0, {0: leaf_node(0, 1), 1: leaf_node(1, 1)})
    phi, mu, _acc = path_stats(inst, tree, (0,))
    assert phi == pytest.approx(0.3, abs=1e-12)
    assert mu == pytest.approx(0.7, abs=1e-12)


def test_path_stats_two_step_product_and_sum():
    # Flat-flat path: edges 0.9 then 0.95, node risks 0.1 and 0.05.
    inst = kernel(
        [act("a", "ga", {0: ((0, 0.9), (1, 0.1))}),
         act("b", "gb", {0: ((0, 0.95), (1, 0.05))})],
        [0.0, 1.0], 2)
    tree = PolicyNode("a", 0, 0, {
        0: PolicyNode("b", 0, 1, {0: leaf_node(0, 2), 1: leaf_node(1, 2)}),
        1: leaf_node(1, 1),
    })
    phi, mu, _acc = path_stats(inst, tree, (0, 0))
    assert phi == pytest.approx(0.855, abs=1e-12)
    assert mu == pytest.approx(0.15, abs=1e-12)


def test_reach_weighted_risk_bounded_by_level_count():
    # E[final level] <= K-1, so the reach-weighted path risk never beats it.
    for seed in range(25):
        inst = gen_random_kernel(seed, GenParams(n=5, levels=4, horizon=5))
        tree = gen_random_policy(inst, seed + 500)
        total = math.fsum(phi * mu for node, phi, mu, _ in walk_reach(inst, tree)
                          if node.is_leaf)
        assert total <= len(inst.terminal) - 1 + 1e-9


def test_truncation_no_risk_tree_unchanged():
    inst = kernel([act(f"a{i}", f"g{i}", {0: ((0, 1.0),)}, profit=1.0)
                   for i in range(3)], [0.0], 3)
    tree = chain_policy([f"a{i}" for i in range(3)], 0, 3)
    assert truncate_policy(inst, tree, 0.5) == tree
    assert truncation_cut_set(inst, tree, 0.5) == []


def test_truncation_chain_below_budget_unchanged():
    # Three probes of risk 0.6 each: prefixes 0, 0.6, 1.2 all below 1/0.5 = 2.
    inst = kernel([act(f"a{i}", f"g{i}", {0: ((0, 0.4), (1, 0.6))})
                   for i in range(3)], [0.0, 1.0], 3)
    tree = chain_policy([f"a{i}" for i in range(3)], 0, 3, up_level=1)
    assert truncate_policy(inst, tree, 0.5) == tree


def test_truncation_unit_risk_chain_cuts_at_second_node():
    # Every probe moves up with certainty, so the prefix hits 1/eps = 1
    # exactly at the second node and the tail collapses to a dummy leaf.
    acts = [ActionSpec(f"b{i}", f"h{i}", {i: TransitionRow(((i + 1, 1.0),), 0.0)})
            for i in range(3)]
    inst = kernel(acts, [0.0, 0.0, 0.0, 1.0], 3)
    tree = leaf_node(3, 3)
    for i in reversed(range(3)):
        tree = PolicyNode(f"b{i}", i, i, {i + 1: tree})
    cut = truncation_cut_set(inst, tree, 1.0)
    assert [node.action for node, _, _ in cut] == ["b1"]
    out = truncate_policy(inst, tree, 1.0)
    assert out.action == "b0" and out.children[1].is_leaf


def test_truncation_loss_matches_cut_surplus_exactly():
    for seed in range(25):
        inst = gen_random_kernel(seed, GenParams(n=7, levels=3, horizon=7))
        tree = gen_random_policy(inst, seed + 77, stop=0.05)
        eps = 0.3
        loss = evaluate_policy(inst, tree) - evaluate_policy(
            inst, truncate_policy(inst, tree, eps))
        surplus = math.fsum(
            phi * (evaluate_policy(inst, node) - inst.terminal[node.level])
            for node, phi, _mu in truncation_cut_set(inst, tree, eps))
        assert loss == pytest.approx(surplus, abs=1e-9)


def test_truncation_internal_prefixes_stay_under_budget():
    for seed in range(10):
        inst = gen_random_kernel(seed, GenParams(n=7, levels=3, horizon=7))
        tree = gen_random_policy(inst, seed + 7, stop=0.05)
        out = truncate_policy(inst, tree, 0.3)
        for node, _phi, mu, _acc in walk_reach(inst, out):
            if not node.is_leaf:
                assert mu < 1.0 / 0.3


def test_truncation_rejects_bad_eps():
    inst = kernel([act("a", "g", {0: ((0, 1.0),)})], [0.0], 1)
    tree = PolicyNode("a", 0, 0, {0: leaf_node(0, 1)})
    from stochprobe import ParameterError
    with pytest.raises(ParameterError):
        truncate_policy(inst, tree, 0.0)
    with pytest.raises(ParameterError):
        truncate_policy(inst, tree, 1.5)


def _rebuilt_truncation(inst, tree, eps):
    """``truncate_policy`` as it was: every kept internal node rebuilt with
    its children in row order, each cut child replaced by a dummy leaf."""
    budget = 1.0 / eps

    def build(node, spent):
        if node.is_leaf:
            return node
        row = inst.action(node.action).rows[node.level]
        spent += row.risk_mass(node.level)
        cut = spent >= budget
        return PolicyNode(node.action, node.level, node.t, {
            j: leaf_node(j, node.children[j].t) if cut else build(node.children[j], spent)
            for j, _p in row.support})

    return build(tree, 0.0)


def test_truncation_keeps_untouched_subtrees_as_they_are():
    # The result reads like the tree rebuilt node by node, and shares each
    # subtree that has no cut, no zero-mass child and its children in row
    # order; every other node is new.
    inst = kernel([act("a", "ga", {0: ((0, 0.5), (1, 0.5), (2, 0.0))}),
                   act("b", "gb", {0: ((0, 0.5), (1, 0.5)), 1: ((1, 0.5), (2, 0.5))}),
                   act("c", "gc", {1: ((1, 0.5), (2, 0.5))})], [0.0, 1.0, 2.0], 3)
    up = PolicyNode("c", 1, 2, {2: leaf_node(2, 3), 1: leaf_node(1, 3)})  # out of row order
    stray = PolicyNode("a", 0, 2, {0: leaf_node(0, 3), 1: leaf_node(1, 3), 2: leaf_node(2, 3)})
    handmade = PolicyNode("b", 0, 1, {0: stray, 1: up})
    cases = [(inst, handmade, 1.0), (inst, handmade, 0.6)]
    for seed in range(24):
        random_inst = gen_random_kernel(seed, GenParams(n=7, levels=3, horizon=7))
        cases.append((random_inst, gen_random_policy(random_inst, seed + 7, stop=0.05),
                      (0.3, 0.6)[seed % 2]))
    shared = rebuilt = 0
    for inst, tree, eps in cases:
        out = truncate_policy(inst, tree, eps)
        assert repr(out) == repr(_rebuilt_truncation(inst, tree, eps))
        cut = {id(node) for node, _phi, _mu in truncation_cut_set(inst, tree, eps)}

        def touched(orig, new):
            nonlocal shared, rebuilt
            if id(orig) in cut:
                assert new.is_leaf and new is not orig
                return True
            below = [touched(orig.children[j], child) for j, child in new.children.items()]
            changed = any(below) or list(new.children) != list(orig.children)
            assert (new is orig) is not changed
            shared += not changed and not orig.is_leaf
            rebuilt += changed
            return changed

        touched(tree, out)
    assert shared >= 200 and rebuilt >= 60


def test_subtree_values_match_reevaluation():
    inst = gen_random_kernel(3, GenParams(n=4, levels=3, horizon=4))
    tree = gen_random_policy(inst, 4)
    values = subtree_values(inst, tree)
    for node, _phi, _mu, _acc in walk_reach(inst, tree):
        assert values[id(node)] == pytest.approx(
            evaluate_policy(inst, node), abs=1e-9)


def test_validate_policy_tree_missing_child():
    inst = kernel([act("a", "g", {0: ((0, 0.5), (1, 0.5))})], [0.0, 1.0], 1)
    tree = PolicyNode("a", 0, 0, {0: leaf_node(0, 1)})
    with pytest.raises(StructuralError):
        validate_policy_tree(inst, tree)


def test_validate_policy_tree_group_repeat():
    inst = kernel(
        [act("a", "shared", {0: ((0, 1.0),)}), act("b", "shared", {0: ((0, 1.0),)})],
        [0.0], 2)
    tree = PolicyNode("a", 0, 0, {0: PolicyNode("b", 0, 1, {0: leaf_node(0, 2)})})
    with pytest.raises(StructuralError):
        validate_policy_tree(inst, tree)


def test_validate_policy_tree_horizon_overflow():
    inst = kernel(
        [act("a", "ga", {0: ((0, 1.0),)}), act("b", "gb", {0: ((0, 1.0),)})],
        [0.0], 1)
    tree = PolicyNode("a", 0, 0, {0: PolicyNode("b", 0, 1, {0: leaf_node(0, 2)})})
    with pytest.raises(StructuralError):
        validate_policy_tree(inst, tree)


def test_evaluate_unknown_action():
    inst = kernel([act("a", "g", {0: ((0, 1.0),)})], [0.0], 1)
    tree = PolicyNode("zz", 0, 0, {0: leaf_node(0, 1)})
    with pytest.raises(UnknownActionError):
        evaluate_policy(inst, tree)


def test_validate_instance_clean():
    inst = kernel([act("a", "g", {0: ((0, 0.5), (1, 0.5))})], [0.0, 1.0], 1)
    report = validate_instance(inst)
    assert report.compliant and report.violations == ()


def test_validate_instance_flags_value_decrease():
    inst = kernel([act("a", "g", {1: ((0, 0.2), (1, 0.8))})], [0.0, 1.0], 1)
    report = validate_instance(inst)
    assert not report.compliant
    assert any("value decreases" in v for v in report.violations)


def test_validate_instance_flags_negative_profit():
    inst = kernel([act("a", "g", {0: ((0, 1.0),)}, profit=-2.0)], [0.0], 1)
    report = validate_instance(inst)
    assert not report.compliant
    assert any("negative expected profit" in v for v in report.violations)
    # The exact solver must still run on flagged instances.
    assert optimal_value(inst) == pytest.approx(0.0, abs=1e-12)


def test_group_discipline_on_generated_trees():
    for seed in range(20):
        inst = gen_random_kernel(seed, GenParams(n=5, levels=3, horizon=5))
        tree = gen_random_policy(inst, seed)
        validate_policy_tree(inst, tree)


def test_optimal_policy_paths_respect_groups():
    inst = gen_random_kernel(11, GenParams(n=5, levels=3, horizon=5))
    validate_policy_tree(inst, optimal_policy(inst))


# --- one checked walk per tree kind -------------------------------------------

#: Every walker over policy trees, applied to (instance, tree).  The
#: knapsack walkers read the ``profit`` annotation the kernels below carry.
POLICY_WALKERS = {
    "evaluate_policy": evaluate_policy,
    "walk_reach": lambda inst, tree: list(walk_reach(inst, tree)),
    "node_sum_profit": node_sum_profit,
    "subtree_values": subtree_values,
    "truncation_cut_set": lambda inst, tree: truncation_cut_set(inst, tree, 0.3),
    "truncate_policy": lambda inst, tree: truncate_policy(inst, tree, 0.3),
    "validate_policy_tree": validate_policy_tree,
    "simulate": lambda inst, tree: simulate(inst, tree, trials=1000),
    "sbk_value_of": sbk_value_of,
    "truncate_by_profit": lambda inst, tree: truncate_by_profit(inst, tree, 100.0),
    "sbk_from_skp": sbk_from_skp,
}

BLOCK_WALKERS = {
    "block_profit_exact": block_profit_exact,
    "block_profit_approx": block_profit_approx,
    "simulate": lambda inst, tree: simulate(inst, tree, trials=1000),
}


def annotated_act(aid, group, rows, profit):
    spec = act(aid, group, rows, profit=profit)
    return ActionSpec(spec.id, spec.group, spec.rows, {"profit": profit})


def coin_kernel():
    """One coin from level 0 to levels 0 and 1, zero terminal payoffs."""
    return kernel([annotated_act("a", "ga", {0: ((0, 0.5), (1, 0.5))}, 1.0)],
                  [0.0, 0.0, 0.0], 1)


POLICY_DEFECTS = {
    "missing child": {0: leaf_node(0, 2)},
    "wrong entry level": {0: leaf_node(0, 2), 1: leaf_node(0, 2)},
    "stray key": {0: leaf_node(0, 2), 1: leaf_node(1, 2), 2: leaf_node(2, 2)},
}

BLOCK_DEFECTS = {
    "missing up-child": {0: block_leaf(0)},
    "missing flat child": {1: block_leaf(1)},
    "wrong entry level": {0: block_leaf(0), 1: block_leaf(0)},
}


@pytest.mark.parametrize("walker", POLICY_WALKERS)
def test_policy_walkers_accept_the_sound_tree(walker):
    tree = PolicyNode("a", 0, 1, {0: leaf_node(0, 2), 1: leaf_node(1, 2)})
    POLICY_WALKERS[walker](coin_kernel(), tree)


@pytest.mark.parametrize("defect", POLICY_DEFECTS)
@pytest.mark.parametrize("walker", POLICY_WALKERS)
def test_policy_walkers_reject_malformed_children(walker, defect):
    tree = PolicyNode("a", 0, 1, POLICY_DEFECTS[defect])
    with pytest.raises(StructuralError):
        POLICY_WALKERS[walker](coin_kernel(), tree)


@pytest.mark.parametrize("walker", BLOCK_WALKERS)
def test_block_walkers_accept_the_sound_tree(walker):
    tree = BlockNode(("a",), 0, {0: block_leaf(0), 1: block_leaf(1)})
    BLOCK_WALKERS[walker](coin_kernel(), tree)


@pytest.mark.parametrize("defect", BLOCK_DEFECTS)
@pytest.mark.parametrize("walker", BLOCK_WALKERS)
def test_block_walkers_reject_malformed_children(walker, defect):
    tree = BlockNode(("a",), 0, BLOCK_DEFECTS[defect])
    with pytest.raises(StructuralError):
        BLOCK_WALKERS[walker](coin_kernel(), tree)


def deep_chain(depth):
    """A two-level kernel of ``depth`` single-action groups and the flat
    chain probing them in order, built bottom-up without recursion."""
    actions = []
    for j in range(depth):
        risk = (1 + j % 4) / 64
        actions.append(annotated_act(f"c{j}", f"g{j}", {0: ((0, 1.0 - risk), (1, risk))},
                                     (j % 9) / 8))
    inst = kernel(actions, [0.0, 0.0], depth)
    tree = leaf_node(0, depth + 1)
    for j in reversed(range(depth)):
        tree = PolicyNode(f"c{j}", 0, j + 1, {0: tree, 1: leaf_node(1, j + 2)})
    return inst, tree


def test_walkers_have_no_depth_limit():
    inst, tree = deep_chain(5000)
    for walker in POLICY_WALKERS.values():
        walker(inst, tree)
    block_tree = blockify(inst, tree, 0.3, 1.0)
    for walker in BLOCK_WALKERS.values():
        walker(inst, block_tree)
    value = evaluate_policy(inst, tree)
    assert value == subtree_values(inst, tree)[id(tree)]
    assert value == pytest.approx(node_sum_profit(inst, tree), abs=1e-9)
