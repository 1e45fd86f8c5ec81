"""The tree walkers and tree document codec as they were before each walk
kept its per-call lookup tables, kept verbatim as the reference that
``test_tree_walk_reference.py`` compares the package against.

Nothing here is imported by the package.  The walkers look up their
helpers in this module, so a test that patches these functions into the
package's modules runs the whole reference path.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Mapping, Sequence

from stochprobe.block import BlockNode, batch_outcomes, block_leaf
from stochprobe.exceptions import ParameterError, StructuralError
from stochprobe.harness.io import _dumps, _fail, _int, _list, _str
from stochprobe.model import Instance, PolicyNode, TransitionRow, subtree_values


# --- stochprobe.model --------------------------------------------------------


def policy_edges(instance: Instance, node: PolicyNode) -> tuple[TransitionRow, list[PolicyNode]]:
    """The row of an internal node and the children it reaches:
    ``children[i]`` follows the outcome ``row.support[i]``.

    This is where policy trees are checked: the row must exist, every
    positive-mass outcome needs a child whose entry level equals its key,
    and no child may sit at a level outside the row.  Children at
    zero-mass outcomes of the row are allowed and never visited.
    """
    row = instance.action(node.action).rows.get(node.level)
    if row is None:
        raise StructuralError(f"action {node.action!r} has no row at level {node.level}")
    children = node.children
    reached = []
    for j, _ in row.support:
        child = children.get(j)
        if child is None:
            raise StructuralError(
                f"node probing {node.action!r} at level {node.level} lacks a child for level {j}")
        if child.level != j:
            raise StructuralError(f"child keyed {j} carries entry level {child.level}")
        reached.append(child)
    if len(children) > len(reached):
        for j in children:
            if j not in row.mass_at:
                raise StructuralError(
                    f"node probing {node.action!r} at level {node.level} has a stray child at level {j}")
    return row, reached


def walk_policy(instance: Instance, tree: PolicyNode, state: object = None,
                step: Callable | None = None
                ) -> Iterator[tuple[PolicyNode, TransitionRow | None, Sequence[PolicyNode], object]]:
    """Checked preorder walk of a policy tree, without recursion.

    Yields (node, row, children, state) for every node the walk reaches,
    with ``row`` and ``children`` as ``policy_edges`` gives them; a leaf
    has row None and no children.  By default every child is visited, in
    row order, and the state stays None.  ``step(node, row, children,
    state)`` instead returns the (child, state) pairs to visit next, in
    visiting order; a child it leaves out is not visited.
    """
    stack = [(tree, state)]
    push = stack.append
    while stack:
        node, state = stack.pop()
        if node.action is None:
            yield node, None, (), state
            continue
        row, children = policy_edges(instance, node)
        yield node, row, children, state
        if step is None:
            for child in reversed(children):
                push((child, None))
        else:
            stack.extend(reversed(step(node, row, children, state)))


# --- stochprobe.block --------------------------------------------------------


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


# --- stochprobe.harness.io ---------------------------------------------------


def _policy_node(row: list, where: str, children: dict[int, PolicyNode]) -> PolicyNode:
    if row[0] is not None:
        _str(row[0], f"{where}.action")
    return PolicyNode(row[0], _int(row[1], f"{where}.level"), _int(row[2], f"{where}.t"),
                      children)


def _block_node(row: list, where: str, children: dict[int, BlockNode]) -> BlockNode:
    items = _list(row[0], f"{where}.items", _str, "action ids")
    return BlockNode(items, _int(row[1], f"{where}.level"), children)


#: Per tree kind: the document key, the node fields a row holds before its
#: parent's row index, and the parser that makes the node of a row.
_TREES: dict[type, tuple[str, tuple[str, ...], Callable]] = {
    PolicyNode: ("policy", ("action", "level", "t"), _policy_node),
    BlockNode: ("blocks", ("items", "level"), _block_node),
}


def _serialize_tree(tree: PolicyNode | BlockNode, kind: type) -> str:
    key, fields, _ = _TREES[kind]
    rows: list[list[object]] = []
    stack = [(tree, -1)]
    while stack:
        node, parent = stack.pop()
        rows.append([getattr(node, name) for name in fields] + [parent])
        for j, child in sorted(node.children.items(), reverse=True):
            if child.level != j:
                raise StructuralError(f"child keyed {j} carries entry level {child.level}")
            stack.append((child, len(rows) - 1))
    return _dumps({key: rows})


def _parse_tree(obj: Mapping[str, object], kind: type) -> Any:
    """Rows after the first go into their parent's children, keyed by entry level."""
    key, fields, node_of = _TREES[kind]
    unknown = sorted(set(obj) - {key})
    if unknown:
        _fail(unknown[0], "unknown field")
    rows = obj.get(key)
    if not isinstance(rows, list) or not rows:
        _fail(key, "expected a non-empty list of rows")
    kids: list[dict[int, Any]] = []
    for i, row in enumerate(rows):
        where = f"{key}[{i}]"
        if not isinstance(row, list) or len(row) != len(fields) + 1:
            _fail(where, f"expected [{', '.join(fields)}, parent]")
        parent = _int(row[-1], f"{where}.parent")
        if not (parent == -1 if i == 0 else 0 <= parent < i):
            _fail(f"{where}.parent", f"expected {-1 if i == 0 else 'an earlier row'}, got {parent}")
        kids.append({})
        node = node_of(row, where, kids[-1])
        if i == 0:
            root = node
        elif node.level in kids[parent]:
            _fail(f"{where}.level", f"row {parent} already has a child at level {node.level}")
        else:
            kids[parent][node.level] = node
    return root

