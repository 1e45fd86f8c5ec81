"""Application adapters: discretization, compilation to kernels, baselines."""

from __future__ import annotations

import numpy as np
import pytest

from stochprobe import (
    ActionSpec,
    ClampError,
    DiscretizationMap,
    Instance,
    ParameterError,
    Pmf,
    ProblemSpec,
    StructuralError,
    PolicyNode,
    TransitionRow,
    ValueSpace,
    build_committed,
    build_probemax,
    build_probetopk,
    build_sbk,
    build_target,
    discretize_size_li,
    discretize_value,
    evaluate_policy,
    expected_max,
    fair_cap,
    greedy_probemax,
    leaf_node,
    optimal_policy,
    optimal_value,
    pandora_uncommitted_kernel,
    replay_probemax_canonical,
    sbk_from_skp,
    sbk_opt_exact,
    sbk_value_of,
    skp_kernel,
    target_opt_exact,
    truncate_by_profit,
    weitzman,
)
from stochprobe.exceptions import CapacityError
from stochprobe.harness import GenParams, gen_random, gen_random_policy

from conftest import act, kernel


def pmf(*entries: tuple[float, float]) -> Pmf:
    return Pmf(tuple(entries))


# --- value discretization ----------------------------------------------------


def test_discretize_value_splits_tail_mass_exactly():
    # Tail mass 0.5 at 12 lands on the top level with mass 0.5 * 12 / 10,
    # and the below-theta outcome 4 keeps the complementary share.
    image, dmap = discretize_value(pmf((4.0, 0.5), (12.0, 0.5)), 10.0, 2.0)
    assert dict(image.entries) == {
        4.0: pytest.approx(0.4, abs=1e-12),
        10.0: pytest.approx(0.6, abs=1e-12),
    }
    top_mass = dict(image.entries)[10.0]
    assert 10.0 * top_mass == pytest.approx(0.5 * 12.0, abs=1e-12)
    assert dmap.scale == pytest.approx(0.8, abs=1e-12)
    assert dmap.mass_error() <= 1e-12


def test_discretize_value_identity_when_all_mass_on_grid_below_theta():
    src = pmf((0.0, 0.5), (4.0, 0.5))
    image, dmap = discretize_value(src, 10.0, 2.0)
    assert image.entries == src.entries
    assert dmap.scale == pytest.approx(1.0, abs=1e-15)


def test_discretize_value_point_mass_at_theta():
    image, _dmap = discretize_value(pmf((10.0, 1.0)), 10.0, 2.0)
    assert image.entries == ((10.0, 1.0),)


def test_discretize_value_rejects_overweight_top():
    # A point mass at 100 would need top-level mass 100/10 = 10.
    with pytest.raises(ClampError):
        discretize_value(pmf((100.0, 1.0)), 10.0, 2.0)


def test_discretize_value_rejects_bad_grid():
    with pytest.raises(ParameterError):
        discretize_value(pmf((1.0, 1.0)), 10.0, 0.0)
    with pytest.raises(ParameterError):
        discretize_value(pmf((1.0, 1.0)), 7.0, 2.0)


def test_discretize_value_shrinks_mean_and_conserves_mass():
    g = np.random.default_rng(11)
    for _ in range(30):
        n = int(g.integers(1, 5))
        outcomes = sorted(set(float(x) for x in g.uniform(0.0, 12.0, size=n)))
        raw = g.uniform(0.1, 1.0, size=len(outcomes))
        probs = raw / raw.sum()
        src = Pmf(tuple(zip(outcomes, (float(p) for p in probs))))
        try:
            image, dmap = discretize_value(src, 8.0, 0.5)
        except ClampError:
            continue
        assert image.mean() <= src.mean() + 1e-12
        assert dmap.mass_error() <= 1e-12


# --- size discretization -----------------------------------------------------


def test_discretize_size_li_splits_small_outcomes():
    # Outcome 0.01 sits below the cut 0.1, so it splits 0.1-vs-0.9 between
    # the cut and zero; the big outcome 0.5 is already on the grid.
    image, dmap = discretize_size_li(
        pmf((0.01, 0.5), (0.5, 0.5)), 0.1, 0.05)
    assert dict(image.entries) == {
        0.0: pytest.approx(0.45, abs=1e-12),
        0.1: pytest.approx(0.05, abs=1e-12),
        0.5: pytest.approx(0.5, abs=1e-12),
    }
    # The small part keeps its unconditional mean: 0.1 * 0.05 = 0.01 * 0.5.
    assert 0.1 * 0.05 == pytest.approx(0.01 * 0.5, abs=1e-15)
    assert dmap.mass_error() <= 1e-12


def test_discretize_size_li_identity_on_lattice():
    src = pmf((0.0, 0.25), (0.1, 0.25), (0.5, 0.5))
    image, _dmap = discretize_size_li(src, 0.1, 0.05)
    assert dict(image.entries) == pytest.approx(dict(src.entries), abs=1e-15)


def test_discretize_size_li_point_mass_zero():
    image, _dmap = discretize_size_li(pmf((0.0, 1.0)), 0.1, 0.05)
    assert image.entries == ((0.0, 1.0),)


def test_discretize_size_li_rejects_step_over_cut():
    with pytest.raises(ParameterError):
        discretize_size_li(pmf((0.5, 1.0)), 0.1, 0.2)


def test_discretize_size_li_preserves_small_part_mean():
    g = np.random.default_rng(17)
    cut, step = 0.25, 0.05
    for _ in range(30):
        n = int(g.integers(1, 5))
        outcomes = sorted(set(float(x) for x in g.uniform(0.0, 1.2, size=n)))
        raw = g.uniform(0.1, 1.0, size=len(outcomes))
        probs = raw / raw.sum()
        src = Pmf(tuple(zip(outcomes, (float(p) for p in probs))))
        _image, dmap = discretize_size_li(src, cut, step)
        small_src = sum(o * p for o, p in src.entries if o <= cut)
        small_img = sum(
            dmap.representatives[lvl] * m
            for outcome, parts in dmap.image if outcome <= cut
            for lvl, m in parts)
        assert small_img == pytest.approx(small_src, abs=1e-12)
        assert dmap.mass_error() <= 1e-12


# --- expected_max and the greedy baseline ------------------------------------


def test_expected_max_basics():
    assert expected_max([]) == 0.0
    got = expected_max([pmf((0.0, 0.5), (4.0, 0.5)), pmf((3.0, 1.0))])
    # max(X, 3) is 4 with probability 0.5, else 3.
    assert got == pytest.approx(3.5, abs=1e-12)


def test_greedy_probemax_prefers_sure_six():
    spec = ProblemSpec(
        "probemax", (pmf((0.0, 0.5), (10.0, 0.5)), pmf((6.0, 1.0))), m=1)
    assert greedy_probemax(spec) == ((1,), pytest.approx(6.0, abs=1e-12))


def test_greedy_probemax_full_budget_takes_everything():
    spec = ProblemSpec(
        "probemax", (pmf((0.0, 0.5), (10.0, 0.5)), pmf((6.0, 1.0))), m=2)
    picks, value = greedy_probemax(spec)
    assert sorted(picks) == [0, 1]
    # max(coin, 6) pays 10 on heads and 6 on tails.
    assert value == pytest.approx(8.0, abs=1e-12)


def test_greedy_probemax_on_three_item_spec(witness_spec):
    # Singleton E[max] favors the sure 3; the rare 10 then adds more on the
    # margin (3.7) than the fair coin does (3.5).
    picks, value = greedy_probemax(witness_spec)
    assert picks == (1, 2)
    assert value == pytest.approx(3.7, abs=1e-12)


def test_greedy_probemax_identical_items_value_is_set_free():
    coin = pmf((0.0, 0.5), (4.0, 0.5))
    spec = ProblemSpec("probemax", (coin, coin, coin), m=2)
    picks, value = greedy_probemax(spec)
    assert len(set(picks)) == 2
    assert value == pytest.approx(expected_max([coin, coin]), abs=1e-12)


# --- probemax compilation ----------------------------------------------------


def test_build_probemax_deterministic_item():
    spec = ProblemSpec("probemax", (pmf((6.0, 1.0)),), m=1)
    inst, _maps = build_probemax(spec, step=2.0, theta=6.0)
    assert optimal_value(inst) == pytest.approx(6.0, abs=1e-12)


def test_build_probemax_lossless_grid_matches_adaptive_oracle(witness_spec):
    inst, _maps = build_probemax(witness_spec, step=1.0, theta=10.0)
    assert optimal_value(inst) == pytest.approx(3.8, abs=1e-9)


def test_build_probemax_identical_items_share_rows():
    coin = pmf((0.0, 0.5), (4.0, 0.5))
    spec = ProblemSpec("probemax", (coin, coin), m=1)
    inst, _maps = build_probemax(spec, step=1.0, theta=4.0)
    assert inst.action("i0").rows == inst.action("i1").rows


def test_build_probemax_default_grid_ties_to_greedy(witness_spec):
    inst, _maps = build_probemax(witness_spec)
    step = inst.meta["step"]
    theta = inst.meta["theta"]
    assert step == pytest.approx(witness_spec.eps * 3.7, abs=1e-12)
    assert theta / step == pytest.approx(round(theta / step), abs=1e-9)
    assert theta >= 3.7 / witness_spec.eps - 1e-9


def test_build_probemax_level_cap(witness_spec):
    with pytest.raises(CapacityError):
        build_probemax(witness_spec, level_cap=4)


# --- probetop-k compilation ---------------------------------------------------


def test_build_probetopk_k1_is_probemax(witness_spec):
    from dataclasses import replace

    topk = replace(witness_spec, kind="probetopk", k=1)
    inst_k, _ = build_probetopk(topk, step=1.0, theta=10.0)
    inst_m, _ = build_probemax(witness_spec, step=1.0, theta=10.0)
    assert inst_k == inst_m


def test_build_probetopk_two_deterministic_items():
    spec = ProblemSpec(
        "probetopk", (pmf((3.0, 1.0)), pmf((4.0, 1.0))), m=2, k=2)
    inst, _maps = build_probetopk(spec, step=1.0, theta=4.0)
    assert optimal_value(inst) == pytest.approx(7.0, abs=1e-12)


def test_build_probetopk_pair_of_coins_sums_means():
    coin = pmf((0.0, 0.5), (4.0, 0.5))
    spec = ProblemSpec("probetopk", (coin, coin), m=2, k=2)
    inst, _maps = build_probetopk(spec, step=4.0, theta=4.0)
    # Both probes always count toward the top two, so the payoff is the sum
    # of the two means.
    assert optimal_value(inst) == pytest.approx(4.0, abs=1e-12)


def test_build_probetopk_tuple_cap():
    coin = pmf((0.0, 0.5), (4.0, 0.5))
    spec = ProblemSpec("probetopk", (coin, coin), m=2, k=2)
    with pytest.raises(CapacityError):
        build_probetopk(spec, step=1.0, theta=4.0, tuple_cap=2)


def test_build_probetopk_deep_k_builds_without_recursion():
    # 1501 sorted tuples of two levels, well under the tuple cap, nested
    # deeper than Python's recursion limit when built one entry at a time.
    spec = ProblemSpec("probetopk", (pmf((0.0, 0.5), (1.0, 0.5)),), m=1, k=1500)
    inst, _maps = build_probetopk(spec, step=1.0, theta=1.0)
    assert inst.values.level_count == 1501


# --- committed compilation ----------------------------------------------------


def test_build_committed_pandora_single_box():
    spec = ProblemSpec(
        "committed_pandora", (pmf((10.0, 1.0)),), costs=(2.0,), k=1)
    inst = build_committed(spec)
    assert len(inst.actions) == 1
    assert optimal_value(inst) == pytest.approx(8.0, abs=1e-12)


def test_build_committed_probetopk_equal_thresholds():
    spec = ProblemSpec(
        "committed_probetopk", (pmf((0.0, 0.5), (10.0, 0.5)),), m=1, k=1)
    inst = build_committed(spec)
    # Accept-anything banks E[X] = 5; accept-only-10 banks 0.5 * 10 = 5.
    assert len(inst.actions) == 2
    assert optimal_value(inst) == pytest.approx(5.0, abs=1e-12)


def test_build_committed_pandora_drops_hopeless_box():
    spec = ProblemSpec(
        "committed_pandora", (pmf((1.0, 1.0)),), costs=(5.0,), k=1)
    inst = build_committed(spec)
    assert inst.actions == ()
    assert optimal_value(inst) == pytest.approx(0.0, abs=1e-15)


def test_build_committed_saturated_level_is_noop():
    spec = ProblemSpec(
        "committed_probetopk", (pmf((0.0, 0.5), (10.0, 0.5)),), m=1, k=1)
    inst = build_committed(spec)
    for action in inst.actions:
        row = action.rows[1]
        assert row.probs == ((1, 1.0),)
        assert row.profit == 0.0


# --- target compilation -------------------------------------------------------


def test_build_target_two_coins():
    coin = pmf((0.0, 0.5), (1.0, 0.5))
    spec = ProblemSpec("target", (coin, coin), m=2, target=1.0, eps=0.01)
    inst, _maps = build_target(spec, small_cut=0.5, step=0.5)
    # The total reaches 1 unless both draws are 0.
    assert optimal_value(inst) == pytest.approx(0.75, abs=1e-12)
    assert target_opt_exact(spec) == pytest.approx(0.75, abs=1e-12)


def test_build_target_point_mass_hits():
    spec = ProblemSpec(
        "target", (pmf((1.0, 1.0)),), m=1, target=1.0, eps=0.01)
    inst, _maps = build_target(spec, small_cut=0.5, step=0.5)
    assert optimal_value(inst) == pytest.approx(1.0, abs=1e-12)


def test_build_target_zero_budget():
    spec = ProblemSpec(
        "target", (pmf((1.0, 1.0)),), m=0, target=1.0, eps=0.01)
    inst, _maps = build_target(spec, small_cut=0.5, step=0.5)
    assert optimal_value(inst) == pytest.approx(0.0, abs=1e-15)


def test_build_target_requires_unit_target():
    spec = ProblemSpec(
        "target", (pmf((1.0, 1.0)),), m=1, target=2.0, eps=0.01)
    with pytest.raises(ParameterError):
        build_target(spec, small_cut=0.5, step=0.5)


# --- blackjack knapsack compilation -------------------------------------------


def test_build_sbk_single_zero_size_item():
    spec = ProblemSpec(
        "sbk", (pmf((0.0, 1.0)),), profits=(0.5,), capacity=1.0, eps=0.5)
    inst, _maps = build_sbk(spec, step=0.25)
    # One coin of bias p / theta3 paying theta3 nets exactly p.
    assert optimal_value(inst) == pytest.approx(0.5, abs=1e-12)


def test_build_sbk_pair_of_zero_size_items():
    spec = ProblemSpec(
        "sbk", (pmf((0.0, 1.0)), pmf((0.0, 1.0))), profits=(0.5, 0.5),
        capacity=1.0, eps=0.5)
    inst, _maps = build_sbk(spec, theta3=2.0, step=0.25)
    # Two independent coins of bias 0.25 paying 2.0 on either:
    # 2 * (1 - 0.75^2) = 2p - p^2 / theta3.
    assert optimal_value(inst) == pytest.approx(0.875, abs=1e-12)


def test_build_sbk_coin_product_identity():
    spec = ProblemSpec(
        "sbk", (pmf((0.0, 1.0)),) * 3, profits=(0.2, 0.3, 0.4),
        capacity=1.0, eps=0.5)
    inst, _maps = build_sbk(spec, theta3=2.0, step=0.25)
    want = 2.0 * (1.0 - (1.0 - 0.1) * (1.0 - 0.15) * (1.0 - 0.2))
    assert optimal_value(inst) == pytest.approx(want, abs=1e-12)


def test_build_sbk_always_overflowing_item():
    spec = ProblemSpec(
        "sbk", (pmf((2.5, 1.0)),), profits=(0.5,), capacity=1.0, eps=0.5)
    inst, _maps = build_sbk(spec, max_ref_est=0.5, step=0.25)
    assert optimal_value(inst) == pytest.approx(0.0, abs=1e-15)


def test_build_sbk_caps_huge_profits():
    spec = ProblemSpec(
        "sbk", (pmf((0.0, 1.0)),), profits=(1.0,), capacity=1.0, eps=0.5)
    inst, _maps = build_sbk(spec, max_ref_est=0.25, step=0.25)
    # theta2 = 0.25 / 0.25 = 1, so the profit is capped there and the whole
    # fitting mass survives the rescale (scale factor exactly 1).
    assert inst.action("i0").meta["profit_hat"] == pytest.approx(1.0, abs=1e-12)
    assert optimal_value(inst) == pytest.approx(1.0, abs=1e-12)


def test_build_sbk_rejects_impossible_rescale():
    spec = ProblemSpec(
        "sbk", (pmf((0.0, 1.0)),), profits=(1.0,), capacity=1.0, eps=0.5)
    with pytest.raises(ClampError):
        build_sbk(spec, max_ref_est=0.125, step=0.25)


def test_build_sbk_requires_unit_capacity():
    spec = ProblemSpec(
        "sbk", (pmf((0.0, 1.0)),), profits=(0.5,), capacity=2.0, eps=0.5)
    with pytest.raises(ParameterError):
        build_sbk(spec, step=0.25)


def test_sbk_opt_exact_banks_zero_size_profits():
    one = ProblemSpec(
        "sbk", (pmf((0.0, 1.0)),), profits=(0.5,), capacity=1.0, eps=0.5)
    two = ProblemSpec(
        "sbk", (pmf((0.0, 1.0)), pmf((0.0, 1.0))), profits=(0.5, 0.5),
        capacity=1.0, eps=0.5)
    assert sbk_opt_exact(one) == pytest.approx(0.5, abs=1e-12)
    assert sbk_opt_exact(two) == pytest.approx(1.0, abs=1e-12)


# --- Pandora baselines ---------------------------------------------------------


def test_fair_cap_values():
    assert fair_cap(pmf((10.0, 1.0)), 2.0) == pytest.approx(8.0, abs=1e-12)
    # Only the heads branch pays: 0.5 * (10 - sigma) = 1 at sigma = 8.
    assert fair_cap(pmf((0.0, 0.5), (10.0, 0.5)), 1.0) == pytest.approx(8.0, abs=1e-12)
    assert fair_cap(pmf((7.0, 1.0)), 0.0) == pytest.approx(7.0, abs=1e-15)
    with pytest.raises(ParameterError):
        fair_cap(pmf((1.0, 1.0)), -1.0)


def test_weitzman_single_deterministic_box():
    policy, value = weitzman((2.0,), (pmf((10.0, 1.0)),))
    assert policy == ((0, pytest.approx(8.0, abs=1e-12)),)
    assert value == pytest.approx(8.0, abs=1e-12)


def test_weitzman_two_boxes():
    costs = (1.0, 0.5)
    boxes = (pmf((0.0, 0.5), (10.0, 0.5)), pmf((4.0, 1.0)))
    policy, value = weitzman(costs, boxes)
    assert [i for i, _cap in policy] == [0, 1]
    assert policy[0][1] == pytest.approx(8.0, abs=1e-12)
    assert policy[1][1] == pytest.approx(3.5, abs=1e-12)
    # Heads stops at 10; tails falls through to the sure 4 for 3.5 net.
    assert value == pytest.approx(5.75, abs=1e-12)


def test_weitzman_skips_worthless_box():
    policy, value = weitzman((4.0,), (pmf((0.0, 1.0)),))
    assert policy == ((0, pytest.approx(-4.0, abs=1e-12)),)
    assert value == pytest.approx(0.0, abs=1e-15)


def _weitzman_reference_value(costs, pmfs):
    """``weitzman``'s value as the memoized outcome recursion computed it."""
    caps = [fair_cap(p, c) for c, p in zip(costs, pmfs)]
    order = sorted(range(len(pmfs)), key=lambda i: (-caps[i], i))
    memo = {}

    def value(stage, best):
        if stage == len(order) or caps[order[stage]] <= best:
            return best
        if (stage, best) not in memo:
            i = order[stage]
            out = -costs[i]
            for x, p in pmfs[i].support():
                out += p * value(stage + 1, max(best, x))
            memo[stage, best] = out
        return memo[stage, best]

    return value(0, 0.0)


def test_weitzman_matches_the_outcome_recursion():
    # Outcomes drawn from a few values repeat across boxes, so stages are
    # entered with shared best values; some caps fall below zero.
    g = np.random.default_rng(7)
    for _ in range(200):
        n = int(g.integers(1, 7))
        costs = tuple(float(c) for c in g.uniform(0.0, 3.0, size=n))
        boxes = []
        for _i in range(n):
            outcomes = sorted({float(x) for x in g.choice([0.0, 1.5, 4.0, 7.25, 10.0], 3)})
            raw = g.uniform(0.1, 1.0, size=len(outcomes))
            boxes.append(Pmf(tuple(zip(outcomes, (raw / raw.sum()).tolist()))))
        assert weitzman(costs, boxes)[1] == _weitzman_reference_value(costs, boxes)


def test_weitzman_many_boxes_without_recursion():
    # Every box has cap 0.98: open until a 1 shows, about two boxes.
    policy, value = weitzman((0.01,) * 1500, (pmf((0.0, 0.5), (1.0, 0.5)),) * 1500)
    assert len(policy) == 1500
    assert value == pytest.approx(0.98, abs=1e-12)


def test_pandora_uncommitted_kernel_matches_weitzman():
    costs = (1.0, 0.5)
    boxes = (pmf((0.0, 0.5), (10.0, 0.5)), pmf((4.0, 1.0)))
    inst = pandora_uncommitted_kernel(costs, boxes)
    _policy, value = weitzman(costs, boxes)
    assert optimal_value(inst) == pytest.approx(value, abs=1e-9)


def test_committed_pandora_never_beats_weitzman():
    g = np.random.default_rng(23)
    for _ in range(20):
        n = int(g.integers(1, 4))
        boxes = []
        costs = []
        for _i in range(n):
            outcomes = sorted(set(float(x) for x in g.uniform(0.0, 10.0, size=2)))
            raw = g.uniform(0.1, 1.0, size=len(outcomes))
            probs = raw / raw.sum()
            boxes.append(Pmf(tuple(zip(outcomes, (float(p) for p in probs)))))
            costs.append(float(g.uniform(0.0, 3.0)))
        spec = ProblemSpec(
            "committed_pandora", tuple(boxes), costs=tuple(costs), k=1)
        committed = optimal_value(build_committed(spec))
        _policy, uncommitted = weitzman(costs, boxes)
        assert committed <= uncommitted + 1e-9


# --- knapsack reduction ---------------------------------------------------------


def chain_tree(inst, order):
    """Probe ``order`` front to back, branching on every realized level."""

    def grow(t, level, todo):
        if not todo:
            return leaf_node(level, t)
        aid = todo[0]
        row = inst.action(aid).rows.get(level)
        if row is None:
            return leaf_node(level, t)
        children = {j: grow(t + 1, j, todo[1:]) for j, _p in row.probs}
        return PolicyNode(aid, level, t, children)

    return grow(0, 0, list(order))


def test_skp_kernel_value_is_knapsack_value():
    inst = skp_kernel(
        (pmf((0.0, 1.0)), pmf((0.0, 1.0))), (3.0, 3.0), step=0.5)
    tree = chain_tree(inst, ["i0", "i1"])
    assert evaluate_policy(inst, tree) == pytest.approx(6.0, abs=1e-12)


def test_sbk_from_skp_truncates_at_half_value():
    inst = skp_kernel(
        (pmf((0.0, 1.0)), pmf((0.0, 1.0))), (3.0, 3.0), step=0.5)
    tree = chain_tree(inst, ["i0", "i1"])
    cut, value = sbk_from_skp(inst, tree)
    # Banked profit reaches the threshold 3 after the first item, so the
    # second probe is cut and the surviving bank is 3 >= 6 / 4.
    assert cut.action == "i0"
    assert all(child.is_leaf for child in cut.children.values())
    assert value == pytest.approx(3.0, abs=1e-12)
    assert value >= 6.0 / 4.0


def test_sbk_from_skp_single_fitting_item_is_lossless():
    inst = skp_kernel((pmf((0.5, 1.0)),), (2.0,), step=0.5)
    tree = chain_tree(inst, ["i0"])
    skp_value = evaluate_policy(inst, tree)
    _cut, value = sbk_from_skp(inst, tree)
    assert skp_value == pytest.approx(2.0, abs=1e-12)
    assert value == pytest.approx(skp_value, abs=1e-12)


def test_sbk_value_of_forfeits_overflowing_paths():
    inst = skp_kernel(
        (pmf((0.0, 1.0)), pmf((1.5, 1.0))), (1.0, 2.0), step=0.5)
    tree = chain_tree(inst, ["i0", "i1"])
    # The second item always lands past the capacity, wiping the bank.
    assert sbk_value_of(inst, tree) == pytest.approx(0.0, abs=1e-15)
    cut, value = sbk_from_skp(inst, tree)
    assert cut.action == "i0"
    assert value == pytest.approx(1.0, abs=1e-12)


def test_sbk_from_skp_quarter_bound_on_random_instances():
    g = np.random.default_rng(29)
    for _ in range(20):
        n = int(g.integers(1, 4))
        pmfs = []
        profits = []
        for _i in range(n):
            sizes = sorted(set(
                float(x) * 0.25 for x in g.integers(0, 6, size=2)))
            raw = g.uniform(0.1, 1.0, size=len(sizes))
            probs = raw / raw.sum()
            pmfs.append(Pmf(tuple(zip(sizes, (float(p) for p in probs)))))
            profits.append(float(g.integers(1, 5)))
        inst = skp_kernel(tuple(pmfs), tuple(profits), step=0.25)
        tree = optimal_policy(inst)
        skp_value = evaluate_policy(inst, tree)
        cut, value = sbk_from_skp(inst, tree)
        assert value >= skp_value / 4.0 - 1e-9
        assert value == pytest.approx(sbk_value_of(inst, cut), abs=1e-12)


def test_truncate_by_profit_cuts_once_bank_reaches_threshold():
    inst = skp_kernel(
        (pmf((0.0, 1.0)),) * 3, (1.0, 1.0, 1.0), step=0.5)
    tree = chain_tree(inst, ["i0", "i1", "i2"])
    cut = truncate_by_profit(inst, tree, 2.0)
    second = cut.children[0]
    assert cut.action == "i0" and second.action == "i1"
    assert all(child.is_leaf for child in second.children.values())
    untouched = truncate_by_profit(inst, tree, 100.0)
    assert evaluate_policy(inst, untouched) == pytest.approx(
        evaluate_policy(inst, tree), abs=1e-12)


def test_truncate_by_profit_requires_profit_annotations():
    inst = kernel([act("a0", "g0", {0: ((0, 1.0),)})], [0.0], 1)
    tree = PolicyNode("a0", 0, 0, {0: leaf_node(0, 1)})
    with pytest.raises(StructuralError):
        truncate_by_profit(inst, tree, 1.0)


# --- canonical replay -----------------------------------------------------------


def test_replay_matches_value_on_lossless_grid(witness_spec):
    inst, maps = build_probemax(witness_spec, step=1.0, theta=10.0)
    tree = optimal_policy(inst)
    replayed = replay_probemax_canonical(inst, maps, tree)
    assert replayed == pytest.approx(3.8, abs=1e-9)


def test_replay_dominates_discretized_value_on_lossy_grid(witness_spec):
    inst, maps = build_probemax(witness_spec, step=2.0, theta=4.0)
    tree = optimal_policy(inst)
    quantized = evaluate_policy(inst, tree)
    replayed = replay_probemax_canonical(inst, maps, tree)
    assert replayed >= quantized - 1e-9


def replay_recursive(instance, maps, tree):
    """Reference replay: one recursive call per positive-mass image part."""

    def go(node, best):
        if node.is_leaf:
            return best
        dmap = maps[instance.action(node.action).meta["item"]]
        total = 0.0
        for outcome, parts in dmap.image:
            for lvl, mass in parts:
                if mass > 0.0:
                    total += mass * go(node.children[max(node.level, lvl)], max(best, outcome))
        return total

    return go(tree, 0.0)


def test_replay_equals_recursive_reference_on_random_policies():
    # theta 4 on outcomes up to 5 splits some outcomes into two image parts.
    params = GenParams(kind="probemax", n=4, m=3, support=3, levels=6)
    for seed in range(20):
        inst, maps = build_probemax(gen_random(seed, params), step=1.0, theta=4.0)
        for tree in (optimal_policy(inst), gen_random_policy(inst, seed, stop=0.1)):
            assert replay_probemax_canonical(inst, maps, tree) == \
                replay_recursive(inst, maps, tree)


def test_replay_walks_a_1200_deep_chain():
    # Two levels, item j a 0/1 coin with P[1] = 1/64: the chain probes
    # the items in order while the draws stay 0.
    depth, r = 1200, 1 / 64
    dmap = DiscretizationMap(pmf((0.0, 1 - r), (1.0, r)),
                             ((0.0, ((0, 1 - r),)), (1.0, ((1, r),))), (0.0, 1.0))
    rows = {0: TransitionRow(((0, 1 - r), (1, r)), 0.0), 1: TransitionRow(((1, 1.0),), 0.0)}
    actions = tuple(ActionSpec(f"i{j}", f"i{j}", rows, meta={"item": j})
                    for j in range(depth))
    inst = Instance(ValueSpace(2, (0.0, 1.0)), depth, actions, (0.0, 1.0),
                    meta={"kind": "probemax"})
    tree = leaf_node(0, depth + 1)
    for j in reversed(range(depth)):
        tree = PolicyNode(f"i{j}", 0, j + 1, {0: tree, 1: leaf_node(1, j + 2)})
    replayed = replay_probemax_canonical(inst, [dmap] * depth, tree)
    assert replayed == pytest.approx(1.0 - (1.0 - r) ** depth, rel=1e-12)
    assert replayed == pytest.approx(evaluate_policy(inst, tree), rel=1e-12)


def test_replay_rejects_foreign_instances():
    spec = ProblemSpec(
        "target", (pmf((1.0, 1.0)),), m=1, target=1.0, eps=0.01)
    inst, _maps = build_target(spec, small_cut=0.5, step=0.5)
    with pytest.raises(ParameterError):
        replay_probemax_canonical(inst, (), leaf_node(0, 0))


# --- spec validation ------------------------------------------------------------


def test_problem_spec_validation():
    coin = pmf((0.0, 0.5), (4.0, 0.5))
    with pytest.raises(ParameterError):
        ProblemSpec("lottery", (coin,))
    with pytest.raises(ParameterError):
        ProblemSpec("probemax", (coin,), m=2)
    with pytest.raises(ParameterError):
        ProblemSpec("probetopk", (coin,), m=1, k=0)
    with pytest.raises(ParameterError):
        ProblemSpec("probemax", (coin,), m=1, eps=1.0)
    with pytest.raises(ParameterError):
        ProblemSpec("sbk", (coin,), capacity=1.0)
    with pytest.raises(ParameterError):
        ProblemSpec("committed_pandora", (coin,), k=1)
    with pytest.raises(ParameterError):
        ProblemSpec("probemax", (pmf((-1.0, 1.0)),), m=1)
