"""Kernel instances and adaptive policy trees.

An instance is a finite-horizon stochastic program over an ordered set of
value levels: probing an action moves the current level according to a
per-level transition row, pays that row's expected profit, and after the
last step the terminal payoff of the final level is collected.  Policies
are decision trees whose nodes name the action probed and whose edges are
the realized levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import eq, itemgetter
from typing import Callable, Iterator, Mapping, Sequence

from .exceptions import ParameterError, StructuralError, UnknownActionError

#: Tolerance for probability-mass accounting.
PROB_TOL = 1e-9

#: The key of a (key, mass) pair.
_first = itemgetter(0)


@dataclass(frozen=True)
class ValueSpace:
    """Ordered value levels 0..level_count-1 with optional raw payoffs per level."""

    level_count: int
    rep: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.level_count < 1:
            raise ParameterError("level_count must be at least 1")
        if self.rep is not None:
            if len(self.rep) != self.level_count:
                raise ParameterError("rep length must equal level_count")
            for lo, hi in zip(self.rep, self.rep[1:]):
                if hi < lo:
                    raise ParameterError("rep must be nondecreasing in level")

    def value_of(self, level: int) -> float:
        """Raw value the level stands for (the index itself when rep is absent)."""
        return float(level) if self.rep is None else self.rep[level]


@dataclass(frozen=True)
class Pmf:
    """Finite distribution over raw nonnegative-probability outcomes."""

    entries: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        seen = set()
        total = 0.0
        for outcome, prob in self.entries:
            if outcome in seen:
                raise ParameterError(f"duplicate outcome {outcome!r} in pmf")
            seen.add(outcome)
            if prob < 0.0:
                raise ParameterError(f"negative probability {prob!r} for outcome {outcome!r}")
            total += prob
        if abs(total - 1.0) > PROB_TOL:
            raise ParameterError(f"pmf mass sums to {total!r}, not 1")

    def support(self) -> tuple[tuple[float, float], ...]:
        return tuple((o, p) for o, p in self.entries if p > 0.0)

    def mean(self) -> float:
        return sum(o * p for o, p in self.entries)

    def tail_prob(self, threshold: float) -> float:
        """Mass at or above ``threshold``."""
        return sum(p for o, p in self.entries if o >= threshold)

    def tail_partial_mean(self, threshold: float) -> float:
        """Unconditional mean restricted to outcomes at or above ``threshold``."""
        return sum(o * p for o, p in self.entries if o >= threshold)


@dataclass(frozen=True)
class TransitionRow:
    """Behavior of one action from one level: transition masses and expected profit."""

    probs: tuple[tuple[int, float], ...]
    profit: float

    def flat_mass(self, level: int) -> float:
        """Probability of staying at ``level``."""
        return self.mass_at.get(level, 0.0)

    def risk_mass(self, level: int) -> float:
        """Probability of leaving ``level``; the per-node risk budget unit."""
        return 1.0 - self.flat_mass(level)

    @cached_property
    def mass_at(self) -> dict[int, float]:
        """Transition mass by target level."""
        return dict(self.probs)

    @cached_property
    def support(self) -> tuple[tuple[int, float], ...]:
        """The (level, mass) pairs of positive mass, in row order."""
        return tuple((j, p) for j, p in self.probs if p > 0.0)


@dataclass(frozen=True)
class ActionSpec:
    """One probeable action; actions sharing a group are mutually exclusive."""

    id: str
    group: str
    rows: Mapping[int, TransitionRow]
    meta: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Instance:
    """A complete finite-horizon probing program."""

    values: ValueSpace
    horizon: int
    actions: tuple[ActionSpec, ...]
    terminal: tuple[float, ...]
    start_level: int = 0
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        K = self.values.level_count
        if self.horizon < 0:
            raise ParameterError("horizon must be nonnegative")
        if len(self.terminal) != K:
            raise ParameterError("terminal payoff vector length must equal level_count")
        if not (0 <= self.start_level < K):
            raise ParameterError("start_level out of range")
        by_id: dict[str, ActionSpec] = {}
        for spec in self.actions:
            if spec.id in by_id:
                raise ParameterError(f"duplicate action id {spec.id!r}")
            by_id[spec.id] = spec
            for level, row in spec.rows.items():
                if not (0 <= level < K):
                    raise ParameterError(f"action {spec.id!r} has a row at level {level}, out of range")
                seen = set()
                for j, p in row.probs:
                    if not (0 <= j < K):
                        raise ParameterError(f"action {spec.id!r} row {level} targets level {j}, out of range")
                    if j in seen:
                        raise ParameterError(f"action {spec.id!r} row {level} repeats target level {j}")
                    seen.add(j)
                    if p < 0.0:
                        raise ParameterError(f"action {spec.id!r} row {level} has negative mass at {j}")
        object.__setattr__(self, "_by_id", by_id)

    def action(self, action_id: str) -> ActionSpec:
        spec = self._by_id.get(action_id)  # type: ignore[attr-defined]
        if spec is None:
            raise UnknownActionError(f"unknown action id {action_id!r}")
        return spec

    def groups(self) -> tuple[str, ...]:
        """Group tokens in order of their first appearance in the action list."""
        out: list[str] = []
        for spec in self.actions:
            if spec.group not in out:
                out.append(spec.group)
        return tuple(out)


@dataclass(frozen=True)
class PolicyNode:
    """One decision-tree node; ``action is None`` marks a terminal dummy leaf."""

    action: str | None
    level: int
    t: int
    children: Mapping[int, "PolicyNode"] = field(default_factory=dict)

    @property
    def is_leaf(self) -> bool:
        return self.action is None


def leaf_node(level: int, t: int) -> PolicyNode:
    """A dummy leaf collecting the terminal payoff of ``level``."""
    return PolicyNode(None, level, t, {})


@dataclass(frozen=True)
class ComplianceReport:
    violations: tuple[str, ...]
    compliant: bool


def _violations(instance: Instance) -> list[str]:
    out: list[str] = []
    for spec in instance.actions:
        for level in sorted(spec.rows):
            row = spec.rows[level]
            for j, p in row.probs:
                if j < level and p > 0.0:
                    out.append(f"action {spec.id!r} row {level}: value decreases to {j}")
            total = sum(p for _, p in row.probs)
            if abs(total - 1.0) > PROB_TOL:
                out.append(f"action {spec.id!r} row {level}: mass sums to {total!r}")
            if row.profit < 0.0:
                out.append(f"action {spec.id!r} row {level}: negative expected profit")
    for level, h in enumerate(instance.terminal):
        if h < 0.0:
            out.append(f"terminal payoff at level {level} is negative")
    return out


def validate_instance(instance: Instance) -> ComplianceReport:
    """Report standing-assumption violations without rejecting the instance."""
    found = _violations(instance)
    return ComplianceReport(tuple(found), not found)


def walk_policy(instance: Instance, tree: PolicyNode, state: object = None,
                step: Callable | None = None
                ) -> Iterator[tuple[PolicyNode, TransitionRow | None, Sequence[PolicyNode], object]]:
    """Checked preorder walk of a policy tree, without recursion.

    Yields (node, row, children, state) for every node the walk reaches;
    a leaf has row None and no children.  An internal node's
    ``children[i]`` follows the outcome ``row.support[i]``.  By default
    every child is visited, in row order, and the state stays None.
    ``step(node, row, children, state)`` instead returns the (child,
    state) pairs to visit next, in visiting order; a child it leaves out
    is not visited.

    This is where policy trees are checked, on every node: the row must
    exist, every positive-mass outcome needs a child whose entry level
    equals its key, and no child may sit at a level outside the row.
    Children at zero-mass outcomes of the row are allowed and never
    visited.  The walk looks up each distinct action's rows once, in a
    dict that lives as long as the walk; nothing is kept across calls.
    """
    rows_of: dict[str, Mapping[int, TransitionRow]] = {}
    stack = [(tree, state)]
    push = stack.append
    while stack:
        node, state = stack.pop()
        action = node.action
        if action is None:
            yield node, None, (), state
            continue
        rows = rows_of.get(action)
        if rows is None:
            rows = rows_of[action] = instance.action(action).rows
        row = rows.get(node.level)
        if row is None:
            raise StructuralError(f"action {action!r} has no row at level {node.level}")
        children = node.children
        reached = []
        for j, _ in row.support:
            child = children.get(j)
            if child is None:
                raise StructuralError(
                    f"node probing {action!r} at level {node.level} lacks a child for level {j}")
            if child.level != j:
                raise StructuralError(f"child keyed {j} carries entry level {child.level}")
            reached.append(child)
        if len(children) > len(reached):
            for j in children:
                if j not in row.mass_at:
                    raise StructuralError(
                        f"node probing {action!r} at level {node.level} has a stray child at level {j}")
        yield node, row, reached, state
        if step is None:
            for child in reversed(reached):
                push((child, None))
        else:
            stack.extend(reversed(step(node, row, reached, state)))


def walk_policy_reversed(instance: Instance, tree: PolicyNode, state: object = None,
                         step: Callable | None = None
                         ) -> Iterator[tuple[PolicyNode, TransitionRow | None, object]]:
    """``walk_policy`` read backwards, as (node, row, state).

    Every child comes before its parent and a node's first child last, so
    a fold that pushes each node's value on a stack pops the values of a
    node's children in row order.  Only references are kept between the
    two passes, which spares the garbage collector.
    """
    nodes, rows, states = [], [], []
    for node, row, _children, node_state in walk_policy(instance, tree, state, step):
        nodes.append(node)
        rows.append(row)
        states.append(node_state)
    return zip(reversed(nodes), reversed(rows), reversed(states))


def evaluate_policy(instance: Instance, tree: PolicyNode) -> float:
    """Expected total profit of the policy: profits along the way plus the
    terminal payoff of the level reached when the tree bottoms out."""
    terminal = instance.terminal
    values: list[float] = []
    for node, row, _ in walk_policy_reversed(instance, tree):
        if row is None:
            if node.t > instance.horizon + 1:
                raise StructuralError("leaf sits past the end of the horizon")
            values.append(terminal[node.level])
            continue
        if node.t > instance.horizon:
            raise StructuralError(f"internal node at t={node.t} exceeds horizon {instance.horizon}")
        total = row.profit
        for _, p in row.support:
            total += p * values.pop()
        values.append(total)
    return values[0]


def walk_reach(instance: Instance, tree: PolicyNode) -> Iterator[tuple[PolicyNode, float, float, float]]:
    """Preorder walk, children by ascending level, yielding (node, reach
    probability, prefix risk mass, prefix expected profit), prefixes
    excluding the node itself."""

    def step(node, row, children, state):
        phi, mu, acc = state
        mu += row.risk_mass(node.level)
        acc += row.profit
        return [(child, (phi * p, mu, acc))
                for (_, p), child in sorted(zip(row.support, children))]

    for node, _row, _children, (phi, mu, acc) in walk_policy(instance, tree, (1.0, 0.0, 0.0), step):
        yield node, phi, mu, acc


def subtree_values(instance: Instance, tree: PolicyNode) -> dict[int, float]:
    """Map id(node) to the expected value of the subtree hanging at that node."""
    terminal = instance.terminal
    out: dict[int, float] = {}
    values: list[float] = []
    for node, row, _ in walk_policy_reversed(instance, tree):
        if row is None:
            v = terminal[node.level]
        else:
            v = row.profit
            for _, p in row.support:
                v += p * values.pop()
        values.append(v)
        out[id(node)] = v
    return out


def truncation_cut_set(instance: Instance, tree: PolicyNode, eps: float) -> list[tuple[PolicyNode, float, float]]:
    """Nodes where truncation at risk budget 1/eps first bites, with their
    reach probability and prefix risk mass."""
    if not (0.0 < eps <= 1.0):
        raise ParameterError("eps must lie in (0, 1]")
    budget = 1.0 / eps
    cut: list[tuple[PolicyNode, float, float]] = []

    def step(node, row, children, state):
        phi, mu = state
        mu += row.risk_mass(node.level)
        reached = zip(row.support, children)
        if mu < budget:
            return [(child, (phi * p, mu)) for (_, p), child in reached]
        cut.extend((child, phi * p, mu) for (_, p), child in reached)
        return []

    for _ in walk_policy(instance, tree, (1.0, 0.0), step):
        pass
    return cut


def cut_policy(instance: Instance, tree: PolicyNode, cost: Callable[[PolicyNode, TransitionRow], float],
               limit: float) -> PolicyNode:
    """Replace by a dummy leaf every subtree whose path has spent ``limit``
    or more before reaching it, summing ``cost(node, row)`` over the
    actions taken strictly before the subtree's root (ties are cut).

    Children at zero-mass outcomes are dropped.  A subtree in which
    nothing is cut or dropped, and whose children follow the row's
    support order, is returned as it is, not rebuilt."""
    if 0.0 >= limit:
        return leaf_node(tree.level, tree.t)
    stopped: set[int] = set()

    def step(node, row, children, spent):
        spent += cost(node, row)
        if spent >= limit:
            stopped.add(id(node))
            return []
        return [(child, spent) for child in children]

    built: list[PolicyNode] = []
    # The positions in ``built`` of results that are not their original
    # subtree, ascending.
    fresh: list[int] = []
    for node, row, _ in walk_policy_reversed(instance, tree, 0.0, step):
        if row is None:
            built.append(node)
            continue
        children = node.children
        support = row.support
        # The children's results, first child on top, unless the node is cut.
        top = len(built) - len(support)
        if id(node) in stopped:
            kept = {j: leaf_node(j, children[j].t) for j, _ in support}
        elif ((fresh and fresh[-1] >= top) or len(children) != len(support)
              or not all(map(eq, children, map(_first, support)))):
            while fresh and fresh[-1] >= top:
                fresh.pop()
            kept = {j: built.pop() for j, _ in support}
        else:
            del built[top:]
            built.append(node)
            continue
        fresh.append(len(built))
        built.append(PolicyNode(node.action, node.level, node.t, kept))
    return built[0]


def truncate_policy(instance: Instance, tree: PolicyNode, eps: float) -> PolicyNode:
    """Stop the policy on every path once its accumulated risk mass reaches
    1/eps, replacing the remaining subtree by a dummy leaf.

    The prefix is measured over the actions already taken, so the root is
    never cut, and ties at exactly 1/eps are cut.
    """
    if not (0.0 < eps <= 1.0):
        raise ParameterError("eps must lie in (0, 1]")
    return cut_policy(instance, tree, lambda node, row: row.risk_mass(node.level), 1.0 / eps)


def validate_policy_tree(instance: Instance, tree: PolicyNode) -> None:
    """Raise if the tree is structurally unsound for the instance.

    Checks child keys against row supports, entry levels, time indexing,
    horizon depth, and the one-action-per-group discipline along paths.
    """
    if tree.level != instance.start_level:
        raise StructuralError(f"root entry level {tree.level} differs from start level {instance.start_level}")
    if tree.t != 1:
        raise StructuralError("root must sit at t=1")
    # (action, group) of the internal nodes above the current one.  A node's
    # time index was checked against its parent's before the walk reaches
    # it, so it gives the node's depth.
    path: list[tuple[str, str]] = []
    used_actions: set[str] = set()
    used_groups: set[str] = set()
    for node, row, children, _ in walk_policy(instance, tree):
        while len(path) >= node.t:
            action, group = path.pop()
            used_actions.remove(action)
            used_groups.remove(group)
        if row is None:
            if node.children:
                raise StructuralError("leaf carries children")
            if node.t > instance.horizon + 1:
                raise StructuralError("leaf sits past the end of the horizon")
            continue
        if node.t > instance.horizon:
            raise StructuralError(f"internal node at t={node.t} exceeds horizon {instance.horizon}")
        if node.action in used_actions:
            raise StructuralError(f"action {node.action!r} repeats along a path")
        group = instance.action(node.action).group
        if group in used_groups:
            raise StructuralError(f"group {group!r} repeats along a path")
        for child in children:
            if child.t != node.t + 1:
                raise StructuralError("child time index must increase by one")
        path.append((node.action, group))
        used_actions.add(node.action)
        used_groups.add(group)
