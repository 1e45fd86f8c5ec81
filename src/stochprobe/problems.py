"""Application adapters, discretizations, and baselines.

Each builder compiles one probing problem onto the level kernel: Probemax
and ProbeTop-k track the best values seen, the committed variants count
accepted items and route value through action profits, the target problem
tracks total size against a goal, and the blackjack knapsack encodes profit
as a Bernoulli coin ORed across insertions.  Discretizations are expressed
as per-outcome stochastic maps so mass accounting and canonical replay are
mechanical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations_with_replacement
from typing import Sequence

from .exceptions import CapacityError, ClampError, ParameterError, StructuralError
from .model import (
    ActionSpec,
    Instance,
    PolicyNode,
    Pmf,
    TransitionRow,
    ValueSpace,
    cut_policy,
    evaluate_policy,
    leaf_node,
    subtree_values,
    walk_policy,
    walk_policy_reversed,
)

KINDS = ("probemax", "probetopk", "committed_probetopk", "committed_pandora",
         "target", "sbk")

#: Tolerance for grid-alignment checks (theta on step, capacity on step).
_GRID_TOL = 1e-9

#: Most levels any builder compiles; more raise ``CapacityError``.
LEVEL_CAP = 4096

#: Most sorted k-tuples of levels ``build_probetopk`` compiles; more raise
#: ``CapacityError``.
TUPLE_CAP = 20_000

#: Most memoized states ``target_opt_exact`` and ``sbk_opt_exact`` keep;
#: a search past it raises ``CapacityError``.
REFERENCE_CAP = 1 << 17


@dataclass(frozen=True)
class ProblemSpec:
    """One application instance in its native terms.

    ``items`` are the value (or size) distributions; ``costs`` pair with
    committed_pandora and ``profits`` with sbk.  ``m`` is the probe budget,
    ``k`` the choose budget, ``target`` and ``capacity`` the goal scalars.
    """

    kind: str
    items: tuple[Pmf, ...]
    costs: tuple[float, ...] | None = None
    profits: tuple[float, ...] | None = None
    m: int | None = None
    k: int | None = None
    target: float | None = None
    capacity: float | None = None
    eps: float = 0.3

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ParameterError(f"unknown problem kind {self.kind!r}")
        n = len(self.items)
        if self.m is not None and not (0 <= self.m <= n):
            raise ParameterError(f"probe budget m={self.m} out of range for {n} items")
        if self.k is not None and self.k < 1:
            raise ParameterError("choose budget k must be at least 1")
        if self.target is not None and self.target <= 0.0:
            raise ParameterError("target must be positive")
        if self.capacity is not None and self.capacity <= 0.0:
            raise ParameterError("capacity must be positive")
        if not (0.0 < self.eps < 1.0):
            raise ParameterError("eps must lie in (0, 1)")
        if self.kind == "committed_pandora":
            if self.costs is None or len(self.costs) != n:
                raise ParameterError("committed_pandora needs one cost per item")
        if self.kind == "sbk":
            if self.profits is None or len(self.profits) != n:
                raise ParameterError("sbk needs one profit per item")
        for pmf in self.items:
            for outcome, _ in pmf.entries:
                if outcome < 0.0:
                    raise ParameterError("item outcomes must be nonnegative")


@dataclass(frozen=True)
class DiscretizationMap:
    """Per-outcome stochastic map from raw outcomes to grid levels.

    ``image`` lists, for each source outcome, the (level, mass) pairs it
    splits into; masses are unconditional, so each outcome's image sums to
    its source probability and the whole image sums to 1.
    """

    source: Pmf
    image: tuple[tuple[float, tuple[tuple[int, float], ...]], ...]
    representatives: tuple[float, ...]
    scale: float = 1.0

    def level_masses(self) -> dict[int, float]:
        out: dict[int, float] = {}
        for _outcome, parts in self.image:
            for level, mass in parts:
                if mass > 0.0:
                    out[level] = out.get(level, 0.0) + mass
        return out

    def image_pmf(self) -> Pmf:
        masses = self.level_masses()
        return Pmf(tuple((self.representatives[lvl], masses[lvl])
                         for lvl in sorted(masses)))

    def mass_error(self) -> float:
        """Largest per-outcome conservation violation, plus the total drift."""
        worst = 0.0
        total = 0.0
        probs = dict(self.source.entries)
        for outcome, parts in self.image:
            got = sum(m for _lvl, m in parts)
            worst = max(worst, abs(got - probs[outcome]))
            total += got
        return max(worst, abs(total - 1.0))


def _units(x: float, step: float) -> float:
    """``x / step``, which must be finite, else ``ParameterError``."""
    units = x / step
    if not math.isfinite(units):
        raise ParameterError(f"{x!r} over the step {step!r} is not a finite number")
    return units


def _on_grid(x: float, step: float) -> int:
    units = _units(x, step)
    nearest = round(units)
    if abs(units - nearest) > _GRID_TOL * max(1.0, abs(units)):
        raise ParameterError(f"{x!r} is not a multiple of the step {step!r}")
    return int(nearest)


def discretize_value(pmf: Pmf, theta: float, step: float) -> tuple[Pmf, DiscretizationMap]:
    """Quantize a value distribution onto {0, step, ..., theta}.

    Outcomes at or above theta collapse to the top level; outcomes below it
    floor to the grid but keep only a (1 - p_top)/Pr[X < theta] share, the
    rest riding to the top so that the top mass times theta equals the true
    tail mean exactly.
    """
    if step <= 0.0 or theta <= 0.0:
        raise ParameterError("theta and step must be positive")
    top = _on_grid(theta, step)
    p_tail = pmf.tail_prob(theta)
    tail_mean = pmf.tail_partial_mean(theta)
    p_top = tail_mean / theta
    if p_top > 1.0 + 1e-12:
        raise ClampError(
            f"top-level mass {p_top!r} exceeds 1; theta {theta!r} is too small "
            "for this distribution")
    p_top = min(p_top, 1.0)
    p_below = 1.0 - p_tail
    scale = 1.0 if p_below <= 0.0 else min(1.0, max(0.0, (1.0 - p_top) / p_below))
    image: list[tuple[float, tuple[tuple[int, float], ...]]] = []
    for outcome, prob in pmf.entries:
        if outcome >= theta:
            parts: tuple[tuple[int, float], ...] = ((top, prob),)
        else:
            lvl = int(math.floor(_units(outcome, step) + _GRID_TOL))
            ride = prob * (1.0 - scale)
            if ride > 0.0:
                parts = ((lvl, prob * scale), (top, ride))
            else:
                parts = ((lvl, prob),)
        image.append((outcome, parts))
    reps = tuple(i * step for i in range(top + 1))
    dmap = DiscretizationMap(pmf, tuple(image), reps, scale=scale)
    return dmap.image_pmf(), dmap


def discretize_size_li(pmf: Pmf, small_cut: float,
                       step: float) -> tuple[Pmf, DiscretizationMap]:
    """Quantize a size distribution: floor big outcomes, split small ones.

    Outcomes above ``small_cut`` floor to the step grid.  Each outcome x at
    or below it splits between 0 and small_cut with odds x/small_cut, which
    preserves its conditional mean exactly, atom splits included.
    """
    if step <= 0.0 or small_cut <= 0.0:
        raise ParameterError("small_cut and step must be positive")
    if step > small_cut + _GRID_TOL:
        raise ParameterError("step must not exceed small_cut")
    values: list[float] = [0.0, small_cut]
    prelim: list[tuple[float, list[tuple[float, float]]]] = []
    for outcome, prob in pmf.entries:
        if outcome > small_cut:
            v = math.floor(_units(outcome, step) + _GRID_TOL) * step
            prelim.append((outcome, [(v, prob)]))
            values.append(v)
        else:
            q = outcome / small_cut
            parts = [(small_cut, prob * q), (0.0, prob * (1.0 - q))]
            prelim.append((outcome, [(v, m) for v, m in parts if m > 0.0]))
    reps = tuple(sorted(set(values)))
    level_of = {v: i for i, v in enumerate(reps)}
    image = tuple((outcome, tuple((level_of[v], m) for v, m in parts))
                  for outcome, parts in prelim)
    dmap = DiscretizationMap(pmf, image, reps, scale=1.0)
    return dmap.image_pmf(), dmap


# --- probemax and probetop-k -------------------------------------------------


def expected_max(pmfs: Sequence[Pmf]) -> float:
    """Exact expectation of the maximum of independent draws (0 if empty)."""
    if not pmfs:
        return 0.0
    outcomes = sorted({o for pmf in pmfs for o, p in pmf.support()} | {0.0})
    total = 0.0
    prev_cdf = 0.0
    for v in outcomes:
        cdf = 1.0
        for pmf in pmfs:
            cdf *= sum(p for o, p in pmf.entries if o <= v)
        total += v * (cdf - prev_cdf)
        prev_cdf = cdf
    return total


def greedy_probemax(spec: ProblemSpec) -> tuple[tuple[int, ...], float]:
    """Greedily grow the probe set by marginal E[max]; ties pick the lowest
    index.  Returns the chosen indices in pick order and the set's exact
    E[max]."""
    if spec.kind != "probemax":
        raise ParameterError("greedy_probemax expects a probemax spec")
    m = spec.m if spec.m is not None else len(spec.items)
    chosen: list[int] = []
    chosen_pmfs: list[Pmf] = []
    remaining = list(range(len(spec.items)))
    for _ in range(m):
        best_idx = -1
        best_val = float("-inf")
        for i in remaining:
            val = expected_max(chosen_pmfs + [spec.items[i]])
            if val > best_val + 1e-15:
                best_idx, best_val = i, val
        chosen.append(best_idx)
        chosen_pmfs.append(spec.items[best_idx])
        remaining.remove(best_idx)
    return tuple(chosen), expected_max(chosen_pmfs)


def _level_rows_from_map(dmap: DiscretizationMap, level_count: int) -> dict[int, float]:
    masses = dmap.level_masses()
    if any(not (0 <= lvl < level_count) for lvl in masses):
        raise StructuralError("discretized level outside the instance grid")
    return masses


def _value_grid(eps: float, w_greedy: float, step: float | None,
                theta: float | None) -> tuple[float, float, int]:
    """The value grid (step, theta, top level) of a Probemax-style build.

    By default it ties to the greedy set value W: step eps*W and theta
    W/eps rounded up onto the grid; ``step``/``theta`` override either.
    A grid past ``LEVEL_CAP`` levels raises ``CapacityError``.
    """
    if step is None or theta is None:
        if w_greedy <= 0.0:
            raise ParameterError(
                "greedy set value is 0; the default grid is degenerate "
                "(pass step and theta explicitly)")
        if step is None:
            step = eps * w_greedy
        if theta is None:
            theta = math.ceil(_units(w_greedy / eps, step) - _GRID_TOL) * step
    top = _on_grid(theta, step)
    if top + 1 > LEVEL_CAP:
        raise CapacityError(
            f"value grid needs {top + 1} levels, over the cap {LEVEL_CAP}; "
            "try a coarser eps")
    return step, theta, top


def build_probemax(spec: ProblemSpec, *, step: float | None = None,
                   theta: float | None = None) -> tuple[Instance, tuple[DiscretizationMap, ...]]:
    """Compile Probemax: levels are the value grid, probing an item lifts the
    level to the max of the current one and the quantized draw, and the
    terminal payoff is the level's value.

    The default grid ties to the greedy set value W (step eps*W, top W/eps
    rounded up to the grid); pass ``step``/``theta`` to override, e.g. for a
    lossless grid in tests.
    """
    if spec.kind != "probemax":
        raise ParameterError("build_probemax expects a probemax spec")
    if spec.m is None:
        raise ParameterError("probemax needs a probe budget m")
    chosen, w_greedy = greedy_probemax(spec)
    step, theta, top = _value_grid(spec.eps, w_greedy, step, theta)
    reps = tuple(i * step for i in range(top + 1))
    maps: list[DiscretizationMap] = []
    actions: list[ActionSpec] = []
    for idx, pmf in enumerate(spec.items):
        _img, dmap = discretize_value(pmf, theta, step)
        maps.append(dmap)
        masses = _level_rows_from_map(dmap, top + 1)
        rows: dict[int, TransitionRow] = {}
        for level in range(top + 1):
            stay = sum(p for lvl, p in masses.items() if lvl <= level)
            entries = [(lvl, p) for lvl, p in sorted(masses.items()) if lvl > level]
            if stay > 0.0:
                entries.insert(0, (level, stay))
            rows[level] = TransitionRow(tuple(entries), 0.0)
        actions.append(ActionSpec(f"i{idx}", f"i{idx}", rows, meta={"item": idx}))
    instance = Instance(
        ValueSpace(top + 1, reps), spec.m, tuple(actions), reps,
        meta={"kind": "probemax", "greedy_value": w_greedy, "greedy_set": chosen,
              "step": step, "theta": theta})
    return instance, tuple(maps)


def build_probetopk(spec: ProblemSpec, *, step: float | None = None,
                    theta: float | None = None) -> tuple[Instance, tuple[DiscretizationMap, ...]]:
    """Compile ProbeTop-k: states are sorted k-tuples of grid levels ordered
    by (value sum, lexicographic); a draw is inserted and the minimum
    dropped; the terminal payoff is the tuple's value sum.

    k=1 delegates to build_probemax, so the two agree exactly there.
    """
    if spec.kind != "probetopk":
        raise ParameterError("build_probetopk expects a probetopk spec")
    if spec.m is None or spec.k is None:
        raise ParameterError("probetopk needs both m and k")
    if spec.k == 1:
        return build_probemax(replace(spec, kind="probemax"), step=step, theta=theta)
    base = replace(spec, kind="probemax")
    chosen, w_greedy = greedy_probemax(base)
    step, theta, top = _value_grid(spec.eps, w_greedy, step, theta)
    n_tuples = math.comb(top + spec.k, spec.k)
    if n_tuples > TUPLE_CAP:
        raise CapacityError(
            f"k-tuple space has {n_tuples} states, over the cap {TUPLE_CAP}")
    base_reps = tuple(i * step for i in range(top + 1))
    states = sorted(combinations_with_replacement(range(top + 1), spec.k),
                    key=lambda s: (sum(base_reps[l] for l in s), s))
    index_of = {s: i for i, s in enumerate(states)}
    reps = tuple(sum(base_reps[l] for l in s) for s in states)
    maps: list[DiscretizationMap] = []
    actions: list[ActionSpec] = []
    for idx, pmf in enumerate(spec.items):
        _img, dmap = discretize_value(pmf, theta, step)
        maps.append(dmap)
        masses = _level_rows_from_map(dmap, top + 1)
        rows: dict[int, TransitionRow] = {}
        for si, state in enumerate(states):
            targets: dict[int, float] = {}
            for lvl, p in masses.items():
                if lvl <= state[0]:
                    nxt = si
                else:
                    nxt = index_of[tuple(sorted(state[1:] + (lvl,)))]
                targets[nxt] = targets.get(nxt, 0.0) + p
            rows[si] = TransitionRow(tuple(sorted(targets.items())), 0.0)
        actions.append(ActionSpec(f"i{idx}", f"i{idx}", rows, meta={"item": idx}))
    instance = Instance(
        ValueSpace(len(states), reps), spec.m, tuple(actions), reps,
        meta={"kind": "probetopk", "greedy_value": w_greedy, "greedy_set": chosen,
              "step": step, "theta": theta, "level_tuples": tuple(states)})
    return instance, tuple(maps)


# --- committed models ---------------------------------------------------------


def build_committed(spec: ProblemSpec) -> Instance:
    """Compile the committed models: the level counts accepted items, one
    action per distinct item threshold accepts any draw at or above it.

    Expected value (minus the opening cost for the Pandora flavor) flows
    through action profits; the terminal payoff is zero.  Actions at the
    saturated level are exact no-ops, and Pandora threshold actions whose
    expected profit is negative are dropped outright.
    """
    if spec.kind not in ("committed_probetopk", "committed_pandora"):
        raise ParameterError("build_committed expects a committed spec")
    pandora = spec.kind == "committed_pandora"
    if spec.k is None:
        raise ParameterError("committed models need a choose budget k")
    k = spec.k
    if k + 1 > LEVEL_CAP:
        raise CapacityError(f"{k + 1} levels over the cap {LEVEL_CAP}")
    if pandora:
        horizon = len(spec.items)
    else:
        if spec.m is None:
            raise ParameterError("committed_probetopk needs a probe budget m")
        horizon = spec.m
    actions: list[ActionSpec] = []
    for idx, pmf in enumerate(spec.items):
        cost = spec.costs[idx] if pandora else 0.0
        seen: set[tuple[float, float]] = set()
        kept = 0
        for threshold in sorted({o for o, p in pmf.support()}):
            p_acc = pmf.tail_prob(threshold)
            gain = pmf.tail_partial_mean(threshold)
            key = (p_acc, gain)
            if key in seen:
                continue
            seen.add(key)
            profit = gain - cost if pandora else gain
            if pandora and profit < 0.0:
                continue
            rows: dict[int, TransitionRow] = {}
            for level in range(k):
                entries: list[tuple[int, float]] = [(level + 1, p_acc)]
                if p_acc < 1.0:
                    entries.insert(0, (level, 1.0 - p_acc))
                rows[level] = TransitionRow(tuple(entries), profit)
            rows[k] = TransitionRow(((k, 1.0),), 0.0)
            actions.append(ActionSpec(
                f"i{idx}t{kept}", f"i{idx}", rows,
                meta={"item": idx, "threshold": threshold, "accept_prob": p_acc}))
            kept += 1
    return Instance(
        ValueSpace(k + 1, None), horizon, tuple(actions),
        tuple(0.0 for _ in range(k + 1)),
        meta={"kind": spec.kind})


# --- stochastic target --------------------------------------------------------


def build_target(spec: ProblemSpec, *, small_cut: float | None = None,
                 step: float | None = None) -> tuple[Instance, tuple[DiscretizationMap, ...]]:
    """Compile the target problem: levels are total size on a grid with a
    saturating top, insertion adds the quantized draw, and the terminal
    payoff is the indicator of reaching the relaxed target 1 - 2*eps.

    Defaults quantize with small_cut = step = eps^2; the literal
    eps-power grids are far below desk scale.
    """
    if spec.kind != "target":
        raise ParameterError("build_target expects a target spec")
    if spec.target is None or abs(spec.target - 1.0) > _GRID_TOL:
        raise ParameterError("target must be normalized to 1")
    if spec.m is None:
        raise ParameterError("target needs a probe budget m")
    eps = spec.eps
    if small_cut is None:
        small_cut = eps * eps
    if step is None:
        step = small_cut
    top = int(math.ceil(_units(1.0, step) - _GRID_TOL))
    if top + 1 > LEVEL_CAP:
        raise CapacityError(
            f"size grid needs {top + 1} levels, over the cap {LEVEL_CAP}")
    _on_grid(small_cut, step)
    reps = tuple(i * step for i in range(top + 1))
    relaxed = 1.0 - 2.0 * eps
    terminal = tuple(1.0 if rep >= relaxed - _GRID_TOL else 0.0 for rep in reps)
    maps: list[DiscretizationMap] = []
    actions: list[ActionSpec] = []
    for idx, pmf in enumerate(spec.items):
        _img, dmap = discretize_size_li(pmf, small_cut, step)
        maps.append(dmap)
        add_levels: dict[int, float] = {}
        for v, p in dmap.image_pmf().entries:
            add_levels[_on_grid(v, step)] = p
        rows: dict[int, TransitionRow] = {}
        for level in range(top + 1):
            targets: dict[int, float] = {}
            for add, p in add_levels.items():
                j = min(level + add, top)
                targets[j] = targets.get(j, 0.0) + p
            rows[level] = TransitionRow(tuple(sorted(targets.items())), 0.0)
        actions.append(ActionSpec(f"i{idx}", f"i{idx}", rows, meta={"item": idx}))
    instance = Instance(
        ValueSpace(top + 1, reps), spec.m, tuple(actions), terminal,
        meta={"kind": "target", "step": step, "small_cut": small_cut,
              "relaxed_target": relaxed})
    return instance, tuple(maps)


def _memoize(memo: dict, key: tuple, value: float, name: str) -> float:
    """Store ``value`` under ``key`` and return it; the state past
    ``REFERENCE_CAP`` raises ``CapacityError``."""
    memo[key] = value
    if len(memo) > REFERENCE_CAP:
        raise CapacityError(
            f"{name} memoized {len(memo)} states, over the cap {REFERENCE_CAP}",
            states_explored=len(memo))
    return value


def target_opt_exact(spec: ProblemSpec) -> float:
    """Adaptive optimum of Pr[total >= target] on the true distributions,
    by exhaustive recursion; reference oracle for desk-scale instances,
    capped at ``REFERENCE_CAP`` memoized states."""
    if spec.kind != "target":
        raise ParameterError("target_opt_exact expects a target spec")
    goal = spec.target if spec.target is not None else 1.0
    m = spec.m if spec.m is not None else len(spec.items)
    items = spec.items
    memo: dict[tuple[frozenset[int], int, float], float] = {}

    def best(remaining: frozenset[int], left: int, total: float) -> float:
        if total >= goal - _GRID_TOL:
            return 1.0
        if left == 0 or not remaining:
            return 0.0
        key = (remaining, left, round(total, 12))
        hit = memo.get(key)
        if hit is not None:
            return hit
        out = 0.0
        for i in remaining:
            rest = remaining - {i}
            val = sum(p * best(rest, left - 1, total + x)
                      for x, p in items[i].support())
            out = max(out, val)
        return _memoize(memo, key, out, "target_opt_exact")

    return best(frozenset(range(len(items))), m, 0.0)


# --- stochastic blackjack knapsack --------------------------------------------


def sbk_opt_exact(spec: ProblemSpec) -> float:
    """Adaptive blackjack-knapsack optimum on the true distributions.

    Overflow forfeits everything banked so far, so the banked amount is part
    of the state and stopping early is always an option.  Exhaustive
    recursion; reference oracle for desk-scale instances, capped at
    ``REFERENCE_CAP`` memoized states.
    """
    if spec.kind != "sbk":
        raise ParameterError("sbk_opt_exact expects an sbk spec")
    cap = spec.capacity if spec.capacity is not None else 1.0
    items = spec.items
    profits = spec.profits
    assert profits is not None
    memo: dict[tuple[frozenset[int], float, float], float] = {}

    def best(remaining: frozenset[int], used: float, banked: float) -> float:
        key = (remaining, round(used, 12), round(banked, 12))
        hit = memo.get(key)
        if hit is not None:
            return hit
        out = banked
        for i in remaining:
            rest = remaining - {i}
            val = 0.0
            for x, p in items[i].support():
                if used + x <= cap + _GRID_TOL:
                    val += p * best(rest, used + x, banked + profits[i])
            out = max(out, val)
        return _memoize(memo, key, out, "sbk_opt_exact")

    return best(frozenset(range(len(items))), 0.0, 0.0)


def build_sbk(spec: ProblemSpec, *, max_ref_est: float | None = None,
              theta3: float | None = None,
              small_cut: float | None = None,
              step: float | None = None) -> tuple[Instance, tuple[DiscretizationMap, ...]]:
    """Compile the blackjack knapsack onto a (size grid) x (profit coin)
    level space.

    Huge-profit items (profit >= theta2 = est/eps^2) have their fitting
    mass rescaled by profit/theta2 with the remainder pushed past capacity,
    and their profit capped at theta2.  Sizes then quantize like the target
    problem.  Each insertion adds its size level and ORs a coin of bias
    profit/theta3; the terminal pays theta3 on a set coin within the relaxed
    capacity 1+2*eps, floored onto the size grid.  theta3 defaults to
    est/eps^3, the next rung of the est/eps power ladder; the literal
    eps-power size grids are far below desk scale.

    est defaults to ``sbk_opt_exact``, run only after the grid and
    ``LEVEL_CAP`` checks pass; a non-finite est, theta2 or theta3 raises
    ``ParameterError``.
    """
    if spec.kind != "sbk":
        raise ParameterError("build_sbk expects an sbk spec")
    if spec.capacity is None or abs(spec.capacity - 1.0) > _GRID_TOL:
        raise ParameterError("capacity must be normalized to 1")
    eps = spec.eps
    if small_cut is None:
        small_cut = eps * eps
    if step is None:
        step = small_cut
    # Within _on_grid's tolerance of a multiple counts as on it.
    units = _units(1.0 + 2.0 * eps, step)
    fit_top = math.floor(units + _GRID_TOL * max(1.0, abs(units)))
    bust = fit_top + 1
    n_size = bust + 1
    if 2 * n_size > LEVEL_CAP:
        raise CapacityError(
            f"size/coin space needs {2 * n_size} levels, over the cap {LEVEL_CAP}")
    _on_grid(small_cut, step)
    est = max_ref_est if max_ref_est is not None else sbk_opt_exact(spec)
    if est <= 0.0:
        raise ParameterError("optimum estimate is 0; nothing to scale against")
    theta2 = est / (eps * eps)
    if theta3 is None:
        theta3 = est / (eps * eps * eps)
    if not all(map(math.isfinite, (est, theta2, theta3))):
        raise ParameterError(
            f"optimum estimate {est!r}, theta2 {theta2!r} and theta3 {theta3!r} "
            "must all be finite")
    size_reps = tuple(i * step for i in range(n_size - 1)) + (1.0 + 4.0 * eps,)
    assert spec.profits is not None
    maps: list[DiscretizationMap] = []
    actions: list[ActionSpec] = []
    for idx, pmf in enumerate(spec.items):
        profit = spec.profits[idx]
        if profit >= theta2 - 1e-12:
            scaled = [(o, p * profit / theta2) for o, p in pmf.support() if o <= 1.0]
            kept = sum(p for _o, p in scaled)
            if kept > 1.0 + 1e-12:
                raise ClampError(
                    f"item {idx} rescaled fitting mass {kept!r} exceeds 1; "
                    "the optimum estimate is too small")
            entries = list(scaled)
            entries.append((1.0 + 4.0 * eps, 1.0 - min(kept, 1.0)))
            size_pmf = Pmf(tuple(entries))
            p_hat = theta2
        else:
            size_pmf = pmf
            p_hat = profit
        _img, dmap = discretize_size_li(size_pmf, small_cut, step)
        maps.append(dmap)
        add_levels: dict[int, float] = {}
        for v, p in dmap.image_pmf().entries:
            lvl = bust if v > 1.0 + 2.0 * eps + _GRID_TOL else _on_grid(v, step)
            add_levels[lvl] = add_levels.get(lvl, 0.0) + p
        bias = p_hat / theta3
        if bias > 1.0 + 1e-12:
            raise ClampError(f"item {idx} coin bias {bias!r} exceeds 1")
        bias = min(bias, 1.0)
        rows: dict[int, TransitionRow] = {}
        for size_level in range(n_size):
            for coin in (0, 1):
                level = 2 * size_level + coin
                targets: dict[int, float] = {}
                for add, p in add_levels.items():
                    nxt_size = min(size_level + add, bust)
                    if coin == 1:
                        targets[2 * nxt_size + 1] = targets.get(2 * nxt_size + 1, 0.0) + p
                    else:
                        targets[2 * nxt_size + 1] = targets.get(2 * nxt_size + 1, 0.0) + p * bias
                        targets[2 * nxt_size] = targets.get(2 * nxt_size, 0.0) + p * (1.0 - bias)
                entries = tuple((j, p) for j, p in sorted(targets.items()) if p > 0.0)
                rows[level] = TransitionRow(entries, 0.0)
        actions.append(ActionSpec(f"i{idx}", f"i{idx}", rows,
                                  meta={"item": idx, "coin_bias": bias,
                                        "profit_hat": p_hat}))
    terminal = []
    for size_level in range(n_size):
        fits = size_level <= fit_top
        terminal.append(0.0)
        terminal.append(theta3 if fits else 0.0)
    instance = Instance(
        ValueSpace(2 * n_size, None), len(spec.items), tuple(actions),
        tuple(terminal),
        meta={"kind": "sbk", "theta2": theta2, "theta3": theta3,
              "opt_estimate": est, "step": step, "small_cut": small_cut,
              "fit_top": fit_top, "size_reps": size_reps})
    return instance, tuple(maps)


# --- baselines ----------------------------------------------------------------


def fair_cap(pmf: Pmf, cost: float) -> float:
    """The cap sigma solving E[(X - sigma)^+] = cost, found exactly on the
    piecewise-linear segments between outcomes."""
    if cost < 0.0:
        raise ParameterError("cost must be nonnegative")
    outcomes = sorted({o for o, p in pmf.support()}, reverse=True)
    if not outcomes or cost == 0.0:
        return outcomes[0] if outcomes else 0.0
    # Walking down from the top outcome, E[(X - s)^+] grows linearly with
    # slope Pr[X > s] on each segment.
    excess = 0.0
    tail = 0.0
    upper = outcomes[0]
    for o in outcomes:
        p = sum(pp for oo, pp in pmf.entries if oo == o)
        seg = tail * (upper - o)
        if excess + seg >= cost:
            return upper - (cost - excess) / tail
        excess += seg
        tail += p
        upper = o
    # Still short below the smallest outcome: extend the last segment.
    return upper - (cost - excess) / tail


def weitzman(costs: Sequence[float], pmfs: Sequence[Pmf]) -> tuple[tuple[tuple[int, float], ...], float]:
    """The index policy for uncommitted Pandora: open boxes in decreasing
    fair-cap order, stop once the best seen value reaches the next cap.

    Returns the opening order with caps, and the policy's exact expected
    value (best value seen minus costs paid), computed without recursion:
    a forward pass collects the best values each stage is entered with and
    opens at, and a backward pass values them, stage by stage.  A stage
    entered where it stops is worth the best value seen.
    """
    if len(costs) != len(pmfs):
        raise ParameterError("need one cost per box")
    caps = [fair_cap(pmf, c) for c, pmf in zip(costs, pmfs)]
    order = sorted(range(len(pmfs)), key=lambda i: (-caps[i], i))
    # Per stage, the best values it opens its box at, then their values.
    opens: list[dict[float, float]] = [{} for _ in range(len(order) + 1)]
    if order and caps[order[0]] > 0.0:
        opens[0][0.0] = 0.0
    for stage in range(len(order) - 1):
        cap = caps[order[stage + 1]]
        for best in opens[stage]:
            for x, _p in pmfs[order[stage]].support():
                nxt = max(best, x)
                if cap > nxt:
                    opens[stage + 1].setdefault(nxt, 0.0)
    for stage in range(len(order) - 1, -1, -1):
        i = order[stage]
        after = opens[stage + 1]
        for best in opens[stage]:
            out = -costs[i]
            for x, p in pmfs[i].support():
                nxt = max(best, x)
                out += p * after.get(nxt, nxt)
            opens[stage][best] = out
    return tuple((i, caps[i]) for i in order), opens[0].get(0.0, 0.0)


def pandora_uncommitted_kernel(costs: Sequence[float], pmfs: Sequence[Pmf]) -> Instance:
    """Uncommitted Pandora as a kernel: the level is the best value seen,
    opening box i pays -c_i and lifts the level, terminal pays the level's
    value.  Deliberately outside the nonnegative-profit assumptions; only
    the exact solver should consume it."""
    if len(costs) != len(pmfs):
        raise ParameterError("need one cost per box")
    reps = tuple(sorted({0.0} | {o for pmf in pmfs for o, p in pmf.support()}))
    level_of = {v: i for i, v in enumerate(reps)}
    actions: list[ActionSpec] = []
    for idx, (cost, pmf) in enumerate(zip(costs, pmfs)):
        rows: dict[int, TransitionRow] = {}
        for level, rep in enumerate(reps):
            targets: dict[int, float] = {}
            for x, p in pmf.support():
                j = level_of[max(rep, x)] if x > rep else level
                targets[j] = targets.get(j, 0.0) + p
            rows[level] = TransitionRow(tuple(sorted(targets.items())), -cost)
        actions.append(ActionSpec(f"b{idx}", f"b{idx}", rows, meta={"box": idx}))
    return Instance(
        ValueSpace(len(reps), reps), len(pmfs), tuple(actions), reps,
        meta={"kind": "pandora_uncommitted"})


# --- SKP to SBK reduction -----------------------------------------------------


def skp_kernel(pmfs: Sequence[Pmf], profits: Sequence[float], *,
               capacity: float = 1.0, step: float) -> Instance:
    """Stochastic knapsack as a kernel: levels are total size on a grid plus
    an absorbing overflow level with no actions; a row's profit is the item
    profit times its fit probability from that level, so policy evaluation
    is the exact knapsack value.  Item profits ride along in action meta."""
    if len(pmfs) != len(profits):
        raise ParameterError("need one profit per item")
    fit_top = _on_grid(capacity, step)
    bust = fit_top + 1
    reps = tuple(i * step for i in range(bust)) + (capacity + step,)
    actions: list[ActionSpec] = []
    for idx, (pmf, profit) in enumerate(zip(pmfs, profits)):
        if profit < 0.0:
            raise ParameterError("item profits must be nonnegative")
        adds: dict[int, float] = {}
        for x, p in pmf.support():
            lvl = bust if x > capacity + _GRID_TOL else _on_grid(x, step)
            adds[lvl] = adds.get(lvl, 0.0) + p
        rows: dict[int, TransitionRow] = {}
        for level in range(fit_top + 1):
            targets: dict[int, float] = {}
            fit_mass = 0.0
            for add, p in adds.items():
                j = level + add
                if j <= fit_top:
                    fit_mass += p
                else:
                    j = bust
                targets[j] = targets.get(j, 0.0) + p
            rows[level] = TransitionRow(tuple(sorted(targets.items())),
                                        profit * fit_mass)
        actions.append(ActionSpec(f"i{idx}", f"i{idx}", rows,
                                  meta={"item": idx, "profit": profit}))
    return Instance(
        ValueSpace(bust + 1, reps), len(pmfs), tuple(actions),
        tuple(0.0 for _ in range(bust + 1)),
        meta={"kind": "skp", "fit_level": fit_top, "step": step})


def _action_profit(instance: Instance, action_id: str) -> float:
    meta = instance.action(action_id).meta
    profit = meta.get("profit")
    if not isinstance(profit, (int, float)):
        raise StructuralError(
            f"action {action_id!r} carries no profit annotation")
    return float(profit)


def truncate_by_profit(instance: Instance, tree: PolicyNode,
                       theta: float) -> PolicyNode:
    """Cut every subtree whose path has already banked profit >= theta
    (prefix excludes the node's own action; ties cut)."""
    return cut_policy(instance, tree, lambda node, row: _action_profit(instance, node.action),
                      theta - 1e-12)


def sbk_value_of(instance: Instance, tree: PolicyNode) -> float:
    """Blackjack value of a knapsack policy: each path pays its banked item
    profits, forfeited entirely if the path ends past the fit level."""
    fit_level = instance.meta.get("fit_level", instance.values.level_count - 1)

    def step(node, row, children, banked):
        profit = _action_profit(instance, node.action)
        return [(child, banked + (profit if child.level <= fit_level else 0.0))
                for child in children]

    values: list[float] = []
    for node, row, banked in walk_policy_reversed(instance, tree, 0.0, step):
        if row is None:
            values.append(banked if node.level <= fit_level else 0.0)
            continue
        total = 0.0
        for _, p in row.support:
            total += p * values.pop()
        values.append(total)
    return values[0]


def sbk_from_skp(instance: Instance, tree: PolicyNode) -> tuple[PolicyNode, float]:
    """Turn a knapsack policy into a blackjack one by profit truncation.

    After hoisting the best standalone subtree (so no continuation is worth
    more than the whole), the tree is cut once banked profit reaches half
    its knapsack value; the result's blackjack value is at least a quarter
    of the knapsack value.
    """
    if any(h != 0.0 for h in instance.terminal):
        raise StructuralError(
            "knapsack kernels must carry zero terminal payoffs")
    best_tree = tree
    best_value = evaluate_policy(instance, tree)
    values = subtree_values(instance, tree)
    for node, _row, _children, _ in walk_policy(instance, tree):
        if values[id(node)] > best_value + 1e-12:
            best_tree = node
            best_value = values[id(node)]
    if best_value <= 0.0:
        cut = leaf_node(best_tree.level, best_tree.t)
        return cut, sbk_value_of(instance, cut)
    truncated = truncate_by_profit(instance, best_tree, best_value / 2.0)
    return truncated, sbk_value_of(instance, truncated)


# --- canonical replay ---------------------------------------------------------


def replay_probemax_canonical(instance: Instance, maps: Sequence[DiscretizationMap],
                              tree: PolicyNode) -> float:
    """Replay a discretized-Probemax policy on the true distributions.

    Branching follows the quantized draw (through each item's map) while
    the collected value is the true running maximum; the result is the
    policy's value on the real instance.
    """
    if instance.meta.get("kind") != "probemax":
        raise ParameterError("replay needs a probemax-built instance")

    def parts(node: PolicyNode) -> list[tuple[int, float, float]]:
        """(realized level, mass, outcome) of every positive-mass image part."""
        item = instance.action(node.action).meta.get("item")
        if not isinstance(item, int):
            raise StructuralError(
                f"action {node.action!r} carries no item annotation")
        return [(max(node.level, lvl), mass, outcome)
                for outcome, image in maps[item].image
                for lvl, mass in image if mass > 0.0]

    def step(node, row, children, best):
        return [(node.children[j], max(best, outcome)) for j, _mass, outcome in parts(node)]

    # The values of a node's children pop off in image order, so the sum
    # runs in the same order as a recursive replay would.
    values: list[float] = []
    for node, row, best in walk_policy_reversed(instance, tree, 0.0, step):
        if row is None:
            values.append(best)
            continue
        total = 0.0
        for _j, mass, _outcome in parts(node):
            total += mass * values.pop()
        values.append(total)
    return values[0]
