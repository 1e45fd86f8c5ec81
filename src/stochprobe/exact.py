"""Exact solver: a bottom-up sweep over (groups used, level).

A state is the set of groups already used, kept as a bitmask, and the
current level.  A policy that never idles has used ``u`` groups after
``u`` steps, so the steps left, ``horizon - u``, follow from the mask and
time is not a state coordinate.  Layer ``u`` holds the ``C(G, u)`` masks
with ``u`` of the ``G`` groups used, for ``u = 0..min(horizon, G)``, and
the value table ``W`` is filled one layer at a time from the bottom::

    W(mask, l) = max(terminal[l],
                     max over actions a of unused groups with a row at l of
                         profit_a(l) + sum_j p_a(l, j) * W(mask + bit_a, j))

The bottom layer, with no steps or no groups left, is ``terminal``.

Why idling can be dropped.  Backward induction over (t, level, mask) with
a no-op step that keeps the level and pays nothing gives, with ``s`` steps
left, ``V_s = max(V_{s-1}, Q(V_{s-1}))`` and ``V_0 = terminal``, where
``Q(X)`` is the best action value against continuation values ``X``.  So
``V_s >= V_{s-1}``, and because every transition mass is nonnegative and
float rounding is monotone, ``Q`` is monotone too: ``Q(V_{s-1}) >=
Q(V_{s-2})``.  Unrolling the no-op once, ``V_s = max(terminal,
Q(V_{s-2}), Q(V_{s-1})) = max(terminal, Q(V_{s-1}))``, which is the
recurrence above.  ``W`` at layer ``u`` therefore equals the old
``V(t = u + 1)`` as floats, from the same IEEE operations in the same
order, with no assumption on the signs of profits or terminal payoffs.

Why dominated stay-put rows can be dropped.  Take a row of group ``g`` at
level ``l`` whose positive-mass support is exactly ``((l, 1.0),)`` and
whose profit is at most 0 (in Probemax, an item probed at a level at or
above its largest value).  From mask ``A`` it is worth ``q = profit +
1.0 * W(A + g, l) <= W(A + g, l)``.  Follow the options that realize
``W(A + g, l)`` through any further such rows.  The chain ends at
``terminal[l]``, where ``W(A, l)`` starts, or at a kept action ``a`` of a
group ``h`` taken from some mask ``C`` that contains ``A + g``, so ``h`` is
not in ``A`` and ``h != g``.  Fewer groups used means more steps left and
more options, so ``W(A + h, j) >= W(C + h, j)`` for every ``j`` (the same
monotonicity as above), and ``a`` taken from ``A`` is worth at least ``a``
taken from ``C``, hence at least ``q``.  ``A``'s other options thus already
reach ``q``, and replacement is a strict ``>``, so every table is the same
with or without the row; only the sign of a zero could differ, which needs
a ``-0.0`` in the input.  ``optimal_policy`` still takes its argmax over
every row, so trees and tie-breaks do not depend on the pruning.

The sweep gathers, per layer and group, the child rows of every mask that
can still use the group, restricted to the levels the group's kept rows
lead to, and adds ``p * W`` one outcome at a time in row order with
elementwise numpy operations; a matrix product would reorder the sums.
Each action reads and writes back only the levels where it has a kept
row, and a group with no kept row is skipped.  The tables of all layers
together are capped in cells, and masks are int64 words, so at most 63
groups fit; both limits are checked before anything is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .exceptions import CapacityError, ParameterError
from .model import ActionSpec, Instance, PolicyNode, TransitionRow, leaf_node

#: Hard cap on the (mask, level) cells of all layers together, the sum over
#: ``u`` of ``C(groups, u) * levels``; 2^25 cells are 256 MiB of floats.
CELL_CAP = 1 << 25


@dataclass(frozen=True)
class ExactStats:
    """What one exact solve did.

    ``layers`` counts the value tables, the terminal bottom layer included,
    and ``cells`` their (mask, level) cells, the figure ``CELL_CAP`` bounds.
    ``rows_swept`` counts the (action, level) rows evaluated in every layer
    above the bottom and ``rows_pruned`` the dominated stay-put rows left
    out.  ``peak_table_bytes`` is the most the tables hold at once: the
    layer being filled plus the layer it reads.
    """

    groups: int
    layers: int
    cells: int
    rows_swept: int
    rows_pruned: int
    peak_table_bytes: int
    seconds: float


def _dominated(level: int, row: TransitionRow) -> bool:
    """A stay-put row without profit, which the sweep may drop (see the
    module docstring)."""
    return row.profit <= 0.0 and row.support == ((level, 1.0),)


class _Kernel:
    """The instance as the sweep sees it: group bits, members, layers and
    each group's kept rows."""

    def __init__(self, instance: Instance):
        groups = instance.groups()
        G = len(groups)
        if G > 63:
            raise CapacityError(
                f"{G} groups do not fit the 63 bits of an int64 group mask")
        K = instance.values.level_count
        self.depth = min(instance.horizon, G)
        self.cells = sum(math.comb(G, u) for u in range(self.depth + 1)) * K
        if self.cells > CELL_CAP:
            raise CapacityError(
                f"{self.cells} table cells ({G} groups, horizon {instance.horizon}, "
                f"{K} levels) exceed the solver cap of {CELL_CAP}")
        by_group: dict[str, list[ActionSpec]] = {g: [] for g in groups}
        for spec in instance.actions:
            by_group[spec.group].append(spec)
        for members in by_group.values():
            members.sort(key=lambda s: s.id)
        #: (bit, members by id) per group, groups in action-list order.
        self.groups = [(1 << i, by_group[g]) for i, g in enumerate(groups)]
        self.terminal = np.array(instance.terminal, dtype=float)[:, None]
        self.layers = _mask_layers(G, self.depth)
        #: The groups with a kept row, in the same order.
        self.live: list[_Group] = []
        self.rows_swept = self.rows_pruned = 0
        for bit, members in self.groups:
            kept = [[(level, row) for level, row in spec.rows.items()
                     if not _dominated(level, row)] for spec in members]
            swept = sum(map(len, kept))
            self.rows_swept += swept
            self.rows_pruned += sum(len(spec.rows) for spec in members) - swept
            if swept:
                self.live.append(_Group(bit, kept, self.terminal))


def _mask_layers(groups: int, depth: int) -> list[np.ndarray]:
    """Layer ``u`` for ``u = 0..depth``: the masks with ``u`` bits, ascending.

    Layer ``u + 1`` extends every mask of layer ``u`` by each bit above its
    highest.  Ascending masks of one size have nondecreasing highest bits,
    so the masks extended by bit ``b`` form a prefix, and concatenating the
    extensions by ``b = 0, 1, ...`` yields the next layer already sorted.
    """
    layer = np.zeros(1, dtype=np.int64)
    top = np.full(1, -1)
    layers = [layer]
    for _ in range(depth):
        counts = np.searchsorted(top, np.arange(groups))
        layer = np.concatenate([layer[:n] | (1 << b) for b, n in enumerate(counts)])
        top = np.repeat(np.arange(groups), counts)
        layers.append(layer)
    return layers


class _Group:
    """One group's kept rows and the levels they lead to.

    ``targets`` holds those levels ascending, as a column, so that indexing
    the child table with it and the child columns gathers just the rows the
    members read; the members' outcomes index into it.
    """

    def __init__(self, bit: int, members: list[list[tuple[int, TransitionRow]]],
                 terminal: np.ndarray):
        self.bit = bit
        targets = sorted({j for rows in members for _, row in rows for j, _ in row.support})
        self.targets = np.array(targets, dtype=np.intp)[:, None]
        self.terminal = terminal[targets]
        at_target = {j: i for i, j in enumerate(targets)}
        self.members = [_Rows(rows, at_target) for rows in members if rows]


class _Rows:
    """One action's kept rows, term-major for the sweep.

    Rows are ordered by support size, largest first, so the rows that have
    a ``k``-th positive-mass outcome are a prefix; ``terms[k]`` holds its
    length and those outcomes' target indices and masses.
    """

    def __init__(self, rows: list[tuple[int, TransitionRow]], at_target: dict[int, int]):
        rows = sorted(rows, key=lambda item: -len(item[1].support))
        self.levels = np.array([level for level, _ in rows], dtype=np.intp)[:, None]
        self.profit = np.array([row.profit for _, row in rows], dtype=float)[:, None]
        self.terms = []
        for k in range(len(rows[0][1].support)):
            live = [row.support[k] for _, row in rows if len(row.support) > k]
            self.terms.append((len(live), np.array([at_target[j] for j, _ in live], dtype=np.intp),
                               np.array([p for _, p in live], dtype=float)[:, None]))

    def improve(self, table: np.ndarray, sel: np.ndarray, child: np.ndarray) -> None:
        """Raise the table's cells at this action's levels and the columns
        ``sel`` to its values where they are strictly larger, given the
        child rows (group targets x ``sel``, or targets x 1 when every
        column has the same child row)."""
        q = self.profit.repeat(child.shape[1], axis=1)
        for m, targets, probs in self.terms:
            term = child.take(targets, axis=0)
            term *= probs
            q[:m] += term
        old = table[self.levels, sel]
        table[self.levels, sel] = np.where(q > old, q, old)


def _sweep(kernel: _Kernel):
    """Yield the value table of every layer, bottom layer first, as a
    (levels x masks) array whose columns follow the layer's masks."""
    terminal = kernel.terminal
    layers, depth = kernel.layers, kernel.depth
    # The bottom layer, the widest, is terminal in every column: it is kept
    # as a read-only broadcast and never gathered from.
    table = np.broadcast_to(terminal, (len(terminal), len(layers[depth])))
    yield table
    for u in range(depth - 1, -1, -1):
        child = table
        used = layers[u]
        table = terminal.repeat(len(used), axis=1)
        for group in kernel.live:
            sel = ((used & group.bit) == 0).nonzero()[0]
            if u + 1 == depth:
                rows = group.terminal
            else:
                rows = child[group.targets, layers[u + 1].searchsorted(used[sel] | group.bit)]
            for member in group.members:
                member.improve(table, sel, rows)
        yield table


def _root(instance: Instance) -> tuple[list[float], ExactStats]:
    """Optimal value from every start level with all groups unused, and
    what the solve did."""
    start = perf_counter()
    kernel = _Kernel(instance)
    for table in _sweep(kernel):
        pass
    # Every layer above the bottom is a full table; the bottom is one column.
    widths = [len(layer) for layer in kernel.layers[:-1]] + [1]
    held = max((a + b for a, b in zip(widths, widths[1:])), default=1)
    stats = ExactStats(len(kernel.groups), len(kernel.layers), kernel.cells,
                       kernel.rows_swept, kernel.rows_pruned,
                       held * table.shape[0] * table.itemsize, perf_counter() - start)
    return table[:, 0].tolist(), stats


def solve(instance: Instance, start_level: int | None = None) -> tuple[float, ExactStats]:
    """Optimal expected profit from (start_level, t=1) with all actions
    available, and what the solve did."""
    start = instance.start_level if start_level is None else start_level
    K = instance.values.level_count
    if not 0 <= start < K:
        raise ParameterError(f"start_level {start} is outside the levels 0..{K - 1}")
    values, stats = _root(instance)
    return values[start], stats


def optimal_value(instance: Instance, start_level: int | None = None) -> float:
    """Optimal expected profit from (start_level, t=1) with all actions available."""
    return solve(instance, start_level)[0]


def max_over_starts(instance: Instance) -> float:
    """Largest optimal value over all possible start levels; the global
    reference scale for loss bounds and signature grids."""
    return max(_root(instance)[0])


def optimal_policy(instance: Instance) -> PolicyNode:
    """An optimal decision tree.

    At each state the best real action is kept when it at least matches
    the terminal payoff of the current level, which is what stopping earns;
    otherwise the policy stops with a dummy leaf.  Argmax ties go to the
    first group in action-list order, then to the lowest action id within
    the group, and zero-probability branches are omitted.
    """
    kernel = _Kernel(instance)
    tables = list(_sweep(kernel))[::-1]
    layers, terminal = kernel.layers, instance.terminal
    holder: dict[None, PolicyNode] = {}
    # (children dict, key, groups used, level, used mask); a parent's dict is
    # keyed in row order before its children are built, so filling it in
    # any order keeps that order.
    stack: list[tuple[dict, object, int, int, int]] = [
        (holder, None, 0, instance.start_level, 0)]
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
