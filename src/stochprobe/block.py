"""Block-adaptive policies: batched probing with shared continuations.

A block node carries an ordered batch of actions.  The batch is probed one
item at a time until the level first moves, at which point the whole block
routes to the child keyed by the realized level; if every item stays flat
the block routes to its flat child.  Exact transition masses therefore
weight each item by the probability that all items before it stayed flat,
while the order-free approximation weights each item by the flat masses of
all the other items and adds profits unweighted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

from .exceptions import ParameterError, StructuralError
from .model import Instance, PolicyNode, TransitionRow, subtree_values

@dataclass(frozen=True)
class BlockNode:
    """A batch of action ids probed from a common entry level.

    A node without children is a dummy leaf collecting the terminal payoff
    of its level; such leaves carry no items.  A childless batch is
    malformed and rejected during evaluation.
    """

    items: tuple[str, ...]
    level: int
    children: Mapping[int, "BlockNode"] = field(default_factory=dict)

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class BlockReport:
    """Per-block risk masses (preorder) and path statistics for the two
    structural properties the approximation pipeline relies on."""

    block_mus: tuple[float, ...]
    max_path_blocks: int
    p1_ok: bool
    p2_ok: bool


def block_leaf(level: int) -> BlockNode:
    return BlockNode((), level, {})


def _rows(instance: Instance, node: BlockNode) -> list[TransitionRow]:
    rows = []
    for item in node.items:
        spec = instance.action(item)
        row = spec.rows.get(node.level)
        if row is None:
            raise StructuralError(f"action {item!r} has no row at level {node.level}")
        rows.append(row)
    return rows


def batch_masses_exact(instance: Instance, node: BlockNode) -> tuple[dict[int, float], float, float]:
    """Order-dependent up-masses, flat mass, and expected batch profit.

    Item k's contribution is weighted by the product of the flat masses of
    the items probed before it; the flat mass of the batch is the full
    product.  An empty batch is a pure pass-through: flat mass one, profit
    zero.
    """
    rows = _rows(instance, node)
    level = node.level
    up: dict[int, float] = {}
    prefix = 1.0
    profit = 0.0
    for row in rows:
        profit += prefix * row.profit
        for j, p in row.probs:
            if j != level and p > 0.0:
                up[j] = up.get(j, 0.0) + prefix * p
        prefix *= row.flat_mass(level)
    return up, prefix, profit


def batch_masses_approx(instance: Instance, node: BlockNode) -> tuple[dict[int, float], float, float]:
    """Order-free counterparts: profits added unweighted, each item's
    up-masses weighted by the flat masses of all the other items.

    Items are folded in sorted-id order so the result is bit-identical
    under batch reordering.
    """
    order = sorted(range(len(node.items)), key=lambda i: node.items[i])
    rows = _rows(instance, node)
    level = node.level
    flats = [rows[i].flat_mass(level) for i in order]
    n = len(flats)
    before = [1.0] * (n + 1)
    for i in range(n):
        before[i + 1] = before[i] * flats[i]
    after = [1.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        after[i] = after[i + 1] * flats[i]
    up: dict[int, float] = {}
    profit = 0.0
    for pos, i in enumerate(order):
        row = rows[i]
        profit += row.profit
        weight = before[pos] * after[pos + 1]
        for j, p in row.probs:
            if j != level and p > 0.0:
                up[j] = up.get(j, 0.0) + weight * p
    return up, before[n], profit


def batch_outcomes(instance: Instance, node: BlockNode, masses: Callable
                   ) -> tuple[float, list[tuple[int, float]], list[tuple[int, float]]]:
    """The batch profit of ``node``'s items under ``masses``
    (``batch_masses_exact`` or ``batch_masses_approx``); its (key, mass)
    outcomes in edge order: the up-levels ascending, then the flat key if
    its mass is positive, with zero masses dropped; and the same outcomes
    before the zero masses are dropped (the same list when none is).  An
    up-mass can underflow to zero, and a block tree may still hold a child
    for its key."""
    up, flat, profit = masses(instance, node)
    outcomes = sorted(up.items())
    if flat > 0.0:
        outcomes.append((node.level, flat))
    if 0.0 in up.values():
        return profit, [(j, mass) for j, mass in outcomes if mass != 0.0], outcomes
    return profit, outcomes, outcomes


def block_edges(instance: Instance, node: BlockNode, masses: Callable
                ) -> tuple[float, list[tuple[float, BlockNode]]]:
    """The batch profit of an internal block and its (mass, child) edges
    under ``masses``, in ``batch_outcomes`` order.

    This is where block trees are checked: every outcome of positive mass
    needs a child whose entry level equals its key.  Children no outcome
    reaches are allowed, since materialized topologies keep them.
    """
    profit, outcomes, _all = batch_outcomes(instance, node, masses)
    edges = []
    for j, mass in outcomes:
        child = node.children.get(j)
        if child is None:
            raise StructuralError(f"block at level {node.level} lacks a child for level {j}")
        if child.level != j:
            raise StructuralError(f"block child keyed {j} carries entry level {child.level}")
        edges.append((mass, child))
    return profit, edges


def walk_blocks(instance: Instance, tree: BlockNode, masses: Callable, state: object = None,
                step: Callable | None = None
                ) -> Iterator[tuple[BlockNode, float | None, list[tuple[float, BlockNode]], object]]:
    """Checked preorder walk of a block tree, without recursion.

    Yields (node, profit, edges, state) for every node the walk reaches,
    with ``profit`` and ``edges`` as ``block_edges`` gives them; a leaf has
    profit None and no edges.  ``state`` and ``step`` work as in
    ``model.walk_policy``, except that ``step(node, profit, edges, state)``
    may also return the node itself, which is then visited again with the
    same edges.
    """
    stack: list = [(tree, state, None)]
    push = stack.append
    while stack:
        node, state, known = stack.pop()
        if node.is_leaf:
            if node.items:
                raise StructuralError("batch node without children")
            yield node, None, (), state
            continue
        profit, edges = known or block_edges(instance, node, masses)
        yield node, profit, edges, state
        if step is None:
            for _, child in reversed(edges):
                push((child, None, None))
        else:
            for child, child_state in reversed(step(node, profit, edges, state)):
                push((child, child_state, (profit, edges) if child is node else None))


def _profit(instance: Instance, tree: BlockNode, masses: Callable) -> float:
    """Fold the walk backwards: every child comes before its parent and a
    block's first edge last, so the child values pop off in edge order."""
    terminal = instance.terminal
    values: list[float] = []
    for node, profit, edges, _ in reversed(list(walk_blocks(instance, tree, masses))):
        if profit is None:
            values.append(terminal[node.level])
            continue
        for mass, _ in edges:
            profit += mass * values.pop()
        values.append(profit)
    return values[0]


def block_profit_exact(instance: Instance, tree: BlockNode) -> float:
    """Expected profit of the block policy under exact, order-aware masses."""
    return _profit(instance, tree, batch_masses_exact)


def block_profit_approx(instance: Instance, tree: BlockNode) -> float:
    """Expected profit under the order-free mass and profit surrogates."""
    return _profit(instance, tree, batch_masses_approx)


def block_risk_mass(instance: Instance, node: BlockNode) -> float:
    """Sum of the items' individual leave-the-level masses."""
    return sum(row.risk_mass(node.level) for row in _rows(instance, node))


def iter_blocks(tree: BlockNode) -> Iterator[tuple[BlockNode, int]]:
    """Preorder walk yielding (node, path block count including the node)."""
    stack = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        if node.is_leaf:
            continue
        yield node, depth + 1
        for j in sorted(node.children, reverse=True):
            stack.append((node.children[j], depth + 1))


def check_block_properties(instance: Instance, tree: BlockNode, eps: float,
                           block_budget: int) -> BlockReport:
    """Check the small-risk property for multi-item batches and the per-path
    block budget; single-item batches carry no risk constraint."""
    if not (0.0 < eps <= 1.0):
        raise ParameterError("eps must lie in (0, 1]")
    mus: list[float] = []
    p1_ok = True
    deepest = 0
    for node, depth in iter_blocks(tree):
        mu = block_risk_mass(instance, node)
        mus.append(mu)
        deepest = max(deepest, depth)
        if len(node.items) > 1 and mu > eps * eps + 1e-12:
            p1_ok = False
    return BlockReport(tuple(mus), deepest, p1_ok, deepest <= block_budget)


def blockify(instance: Instance, policy_tree: PolicyNode, eps: float, max_ref: float) -> BlockNode:
    """Compress a policy tree into a block tree by segmenting its flat chains.

    Walking from the root and from every strictly-increasing child, the run
    of flat-transition nodes is split greedily into segments so that within
    a segment (a) the spread of same-level child subtree values stays within
    eps^2 * max_ref and (b) the summed risk mass stays within eps^2.  Each
    segment becomes one block; an up-transition out of the block routes to
    the deepest in-segment child at that level, and flat exhaustion falls
    through to the next segment.
    """
    if not (0.0 < eps <= 1.0):
        raise ParameterError("eps must lie in (0, 1]")
    if max_ref <= 0.0:
        raise ParameterError("max_ref must be positive")
    values = subtree_values(instance, policy_tree)
    spread_cap = eps * eps * max_ref
    mu_cap = eps * eps

    # Chain starts in discovery order: the root, then the up-children each
    # start's segments route to (``starts`` grows as the loop runs).  A
    # start's plan is its level, the level of the leaf ending its flat
    # chain (None if the chain just stops), and per segment its items and
    # the start index of each up-child.  Every up-child is discovered after
    # its start, so building the blocks backwards builds children first.
    starts = [policy_tree]
    plans = []
    for start in starts:
        level = start.level
        chain: list[PolicyNode] = []
        node = start
        while node is not None and not node.is_leaf:
            chain.append(node)
            node = node.children.get(level)
        segments = []
        for seg in _segment(instance, chain, values, level, spread_cap, mu_cap):
            targets: dict[int, PolicyNode] = {}
            for u in seg:  # later nodes overwrite: deepest wins
                for j, child in u.children.items():
                    if j != level:
                        targets[j] = child
            up = {}
            for j, target in targets.items():
                up[j] = len(starts)
                starts.append(target)
            segments.append((tuple(u.action for u in seg), up))
        plans.append((level, None if node is None else node.level, segments))

    blocks: list[BlockNode | None] = [None] * len(starts)
    for k in reversed(range(len(starts))):
        level, tail, segments = plans[k]
        block = None if tail is None else block_leaf(tail)
        for items, up in reversed(segments):
            children = {} if block is None else {level: block}
            for j, index in up.items():
                children[j] = blocks[index]
            block = BlockNode(items, level, children)
        blocks[k] = block
    return blocks[0]


def _segment(instance: Instance, chain: list[PolicyNode], values: dict[int, float],
             level: int, spread_cap: float, mu_cap: float) -> list[list[PolicyNode]]:
    segments: list[list[PolicyNode]] = []
    lo: dict[int, float] = {}
    hi: dict[int, float] = {}
    mu = 0.0
    for u in chain:
        row = instance.action(u.action).rows[level]
        mu_u = row.risk_mass(level)
        child_vals = {j: values[id(c)] for j, c in u.children.items()}
        if segments:
            ok = mu + mu_u <= mu_cap
            if ok:
                for j, v in child_vals.items():
                    new_lo = min(lo.get(j, v), v)
                    new_hi = max(hi.get(j, v), v)
                    if new_hi - new_lo > spread_cap:
                        ok = False
                        break
            if ok:
                segments[-1].append(u)
                mu += mu_u
                for j, v in child_vals.items():
                    lo[j] = min(lo.get(j, v), v)
                    hi[j] = max(hi.get(j, v), v)
                continue
        segments.append([u])
        mu = mu_u
        lo = dict(child_vals)
        hi = dict(child_vals)
    return segments
