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

The sweep.  The kept rows form one flat table, built once per solve:
every (action, level) row not dropped above, ordered by level, then group
in action-list order, then member id, with each outcome's target level
and mass.  A layer is filled in blocks of masks, one pass per block over
the whole table.  The child values of every (group, target level) pair the
rows read are gathered once per block; then one (rows x masks) array gets
every row's value, ``profit + p_1 * W_1 + p_2 * W_2 + ...`` added one
outcome at a time in row order with elementwise numpy operations (a matrix
product would reorder the sums).  A row with fewer outcomes than the
longest adds ``1.0 * -0.0``, which leaves every float as it is.  Masks that
already used a row's group get ``-inf`` in that row.  Each level's run of
rows is reduced to its maximum, and a cell takes it only where it is
strictly greater than the terminal payoff.  The layer above the bottom
reads ``terminal`` for every mask, so there each row has one value,
computed once.

Why the per-level maximum is the recurrence's fold.  The recurrence is
evaluated as ``best = q if q > best`` over the options in (group, member
id) order, starting from ``terminal[l]``.  When some option is larger
than the terminal payoff, the fold ends on the first option that reaches
the largest value; otherwise it keeps the terminal payoff.  It never takes
a NaN, since every comparison with a NaN is false.  The block takes the
same bits: ``np.fmax``
skips NaNs (a run of NaNs and ``-inf`` keeps the terminal payoff, as the
fold does), equal floats share their bits except ``+0.0`` and ``-0.0``,
and where the largest value is a zero the block takes the first row of the
run that reaches it, as ``np.fmax`` may return either zero.  A zero can
only replace a negative terminal payoff, so only such levels check.

Child columns without a search.  The masks of one layer, ascending, are in
colexicographic order: the mask with bits ``b_0 < b_1 < ...`` sits at
column ``sum_i C(b_i, i + 1)``.  Adding a bit ``g`` above ``k`` of its bits
keeps the first ``k`` terms, adds ``C(g, k + 1)`` and moves every later bit
one place up, so the child column is the mask's own column plus
``C(g, k + 1)`` plus ``C(b_i, i + 2) - C(b_i, i + 1)`` for every bit
``b_i`` above ``g``.  A block reads ``k`` off a running count of the mask's
bits over the group bits, and the last sum off a running sum of those
differences.

Memory.  Each temporary of a block holds at most ``_BLOCK_CELLS`` cells
(or one column, if a column is wider), so a layer's working memory past
the table it fills and the table it reads does not grow with the layer.
The tables of all layers together are capped in cells, and masks are
int64 words, so at most 63 groups fit; both limits are checked before
anything is allocated.
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

#: The most cells a block of one layer puts in each of its temporaries, so
#: that a layer's working memory does not grow with its width.
_BLOCK_CELLS = 1 << 14

#: Flat tables, rows 64 apart, of ``C(b, k + 1)`` and ``C(b, k + 1) - C(b, k)``
#: for every mask bit ``b`` and ``k = 0..63``: the sweep's column arithmetic.
_COMB = np.array([[math.comb(b, k) for k in range(65)] for b in range(63)], dtype=np.int64)
_RANKS, _MOVES = _COMB[:, 1:].ravel(), np.diff(_COMB, axis=1).ravel()


@dataclass(frozen=True)
class ExactStats:
    """What one exact solve did.

    ``layers`` counts the value tables, the terminal bottom layer included,
    and ``cells`` their (mask, level) cells, the figure ``CELL_CAP`` bounds.
    ``rows_swept`` counts the (action, level) rows evaluated in every layer
    above the bottom and ``rows_pruned`` the dominated stay-put rows left
    out.  ``peak_table_bytes`` is the most the tables hold at once: the
    layer being filled plus the layer it reads.  ``layer_seconds`` holds the
    wall seconds of each swept layer, in sweep order (the layer above the
    bottom first), one entry per layer above the bottom.
    """

    groups: int
    layers: int
    cells: int
    rows_swept: int
    rows_pruned: int
    peak_table_bytes: int
    seconds: float
    layer_seconds: tuple[float, ...]


def _dominated(level: int, row: TransitionRow) -> bool:
    """A stay-put row without profit, which the sweep may drop (see the
    module docstring)."""
    return row.profit <= 0.0 and row.support == ((level, 1.0),)


class _Kernel:
    """The instance as the sweep sees it: group bits, members, layers and
    the flat table of kept row-actions."""

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
        # The kept (action, level) rows, by level, then group, then member
        # id: a stable sort by level of the group-major list.
        rows = [(level, g, row) for g, (_, members) in enumerate(self.groups)
                for spec in members for level, row in spec.rows.items()
                if not _dominated(level, row)]
        rows.sort(key=lambda item: item[0])
        self.rows_swept = len(rows)
        self.rows_pruned = sum(len(spec.rows) for spec in instance.actions) - len(rows)
        # The (group, target level) pairs the rows read: the sweep gathers
        # each pair's child values once, into row 1 + its index of a value
        # block whose row 0 is -0.0.
        pairs = sorted({(g, j) for _, g, row in rows for j, _ in row.support})
        at_pair = {pair: i for i, pair in enumerate(pairs, 1)}
        self.pair_group = np.array([g for g, _ in pairs], dtype=np.intp)
        self.pair_target = np.array([j for _, j in pairs], dtype=np.intp)
        #: Per outcome position: each row's value-block row and mass.  A
        #: row with fewer outcomes reads row 0 at mass 1.0, and adding
        #: 1.0 * -0.0 leaves every float as it is, -0.0 included.
        width = max([1, *(len(row.support) for _, _, row in rows)])
        outcomes = [[(at_pair[g, j], p) for j, p in row.support]
                    + [(0, 1.0)] * (width - len(row.support)) for _, g, row in rows]
        reads = np.array([[i for i, _ in row] for row in outcomes], dtype=np.intp)
        masses = np.array([[p for _, p in row] for row in outcomes], dtype=float)
        self.terms = list(zip(reads.reshape(-1, width).T.copy(),
                              masses.reshape(-1, width).T.copy()[:, :, None]))
        self.profit = np.array([row.profit for _, _, row in rows], dtype=float)[:, None]
        self.row_group = np.array([g for _, g, _ in rows], dtype=np.intp)
        #: The levels with a kept row, their terminal values, and each
        #: one's run of rows.
        levels = [level for level, _, _ in rows]
        self.levels = np.array(sorted(set(levels)), dtype=np.intp)
        self.floor = self.terminal[self.levels]
        starts = np.searchsorted(levels, self.levels).tolist()
        self.runs = [slice(a, b) for a, b in zip(starts, starts[1:] + [len(rows)])]


def _mask_layers(groups: int, depth: int) -> list[np.ndarray]:
    """Layer ``u`` for ``u = 0..depth``: the masks with ``u`` bits, ascending.

    Layer ``u + 1`` extends every mask of layer ``u`` by each bit above its
    highest.  Ascending masks of one size have nondecreasing highest bits,
    so the masks extended by bit ``b`` form a prefix, of length ``counts[b]``,
    and listing the extensions by ``b = 0, 1, ...`` yields the next layer
    already sorted.
    """
    bits = np.arange(groups)
    layer = np.zeros(1, dtype=np.int64)
    top = np.full(1, -1)
    layers = [layer]
    for _ in range(depth):
        counts = top.searchsorted(bits)
        top = bits.repeat(counts)
        offsets = (counts.cumsum() - counts).repeat(counts)
        layer = layer.take(np.arange(len(top)) - offsets) | (1 << top)
        layers.append(layer)
    return layers


def _row_values(kernel: _Kernel, values: np.ndarray) -> np.ndarray:
    """Every kept row's value, ``profit + sum_k p_k * child_k`` added in
    outcome order, given a value block (pairs + 1, masks or 1)."""
    pair, mass = kernel.terms[0]
    q = values.take(pair, axis=0)
    q *= mass
    q += kernel.profit
    for pair, mass in kernel.terms[1:]:
        term = values.take(pair, axis=0)
        term *= mass
        q += term
    return q


def _child_values(kernel: _Kernel, child: np.ndarray, lo: int, taken: np.ndarray) -> np.ndarray:
    """The value block of the masks ``lo, lo + 1, ...`` of a layer, given
    which group bits each one holds (``taken``, groups x masks): row 0 is
    -0.0, and row 1 + i holds pair i's child value for every mask.

    Child columns come from the rank arithmetic of the module docstring:
    ``k`` indexes the flat tables at each group bit's row, in the column
    that counts the mask's bits up to that bit.  A mask that already used
    the group reads a stand-in (clipped into range), which the sweep then
    sets to -inf.
    """
    k = taken.cumsum(axis=0, dtype=np.uint8) + np.arange(0, 64 * len(taken), 64)[:, None]
    moved = _MOVES.take(k)
    moved *= taken
    moved = moved.cumsum(axis=0)
    at = _RANKS.take(k)
    at += moved[-1]
    at -= moved
    at += np.arange(lo, lo + taken.shape[1])
    at = at.take(kernel.pair_group, axis=0)
    at += (kernel.pair_target * child.shape[1])[:, None]
    values = np.empty((len(at) + 1, taken.shape[1]))
    values[0] = -0.0
    child.ravel().take(at, out=values[1:], mode="clip")
    return values


def _sweep(kernel: _Kernel):
    """Yield the value table of every layer, bottom layer first, as a
    (levels x masks) array whose columns follow the layer's masks."""
    terminal, levels, floor, runs = kernel.terminal, kernel.levels, kernel.floor, kernel.runs
    layers, depth = kernel.layers, kernel.depth
    G = len(kernel.groups)
    bits = (np.int64(1) << np.arange(G, dtype=np.int64))[:, None]
    signed_zeros = bool((floor < 0.0).any())
    step = max(1, _BLOCK_CELLS // max(G, len(kernel.pair_group) + 1, len(kernel.row_group)))
    # The bottom layer, the widest, is terminal in every column: it is kept
    # as a read-only broadcast and never gathered from.
    table = np.broadcast_to(terminal, (len(terminal), len(layers[depth])))
    yield table
    for u in range(depth - 1, -1, -1):
        child, used = table, layers[u]
        if u + 1 == depth:
            # Every mask reads the same child rows, so every row has one value.
            bottom = np.concatenate([[-0.0], terminal[kernel.pair_target, 0]])
            same = _row_values(kernel, bottom[:, None])
        table = terminal.repeat(len(used), axis=1)
        for lo in range(0, len(used), step):
            block = used[lo:lo + step]
            taken = (block & bits) != 0
            if u + 1 == depth:
                q = same
            else:
                q = _row_values(kernel, _child_values(kernel, child, lo, taken))
            q = np.where(taken.take(kernel.row_group, axis=0), -np.inf, q)
            best = np.empty((len(levels), len(block)))
            for i, run in enumerate(runs):
                np.fmax.reduce(q[run], axis=0, out=best[i])
            if signed_zeros:
                # max may return either zero; the sequential fold keeps the
                # first, which only shows where it beats a negative floor.
                tie = (best == 0.0) & (floor < 0.0)
                for i in np.flatnonzero(tie.any(axis=1)):
                    cols = np.flatnonzero(tie[i])
                    run = q[runs[i], cols]
                    best[i, cols] = run[(run == 0.0).argmax(axis=0), np.arange(len(cols))]
            table[levels, lo:lo + len(block)] = np.where(best > floor, best, floor)
        yield table


def _root(instance: Instance) -> tuple[list[float], ExactStats]:
    """Optimal value from every start level with all groups unused, and
    what the solve did."""
    start = perf_counter()
    kernel = _Kernel(instance)
    marks = []
    for table in _sweep(kernel):
        marks.append(perf_counter())
    # Every layer above the bottom is a full table; the bottom is one column.
    widths = [len(layer) for layer in kernel.layers[:-1]] + [1]
    held = max((a + b for a, b in zip(widths, widths[1:])), default=1)
    stats = ExactStats(len(kernel.groups), len(kernel.layers), kernel.cells,
                       kernel.rows_swept, kernel.rows_pruned,
                       held * table.shape[0] * table.itemsize, perf_counter() - start,
                       tuple(b - a for a, b in zip(marks, marks[1:])))
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
