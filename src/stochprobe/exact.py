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
and mass.  Every layer above the one over the bottom is filled in blocks
of masks, one pass per block over the whole table.  The child values of
every (group, target level) pair the rows read are gathered once per
block; then one (rows x masks) array gets every row's value, ``profit +
p_1 * W_1 + p_2 * W_2 + ...`` added one outcome at a time in row order
with elementwise numpy operations (a matrix product would reorder the
sums).  A row with fewer outcomes than the
longest adds ``1.0 * -0.0``, which leaves every float as it is.  Masks that
already used a row's group get ``-inf`` in that row.  Each level's run of
rows is reduced to its maximum, and a cell takes it only where it is
strictly greater than the terminal payoff.

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

The layer above the bottom.  Every mask there reads ``terminal``, so each
row has one value, the same for every mask, computed once: a mask only
decides which rows it may take.  Each level's rows are ranked once,
highest value first, with ties in row order (a stable sort, in which
``+0.0`` equals ``-0.0``); only rows strictly greater than the level's
terminal payoff take part, which leaves out every NaN.  The first row of
each group in that rank is kept, for the first ``u + 1`` groups.  This is
the fold's result.  For a mask, the fold takes the first row, in row
order, that reaches the largest value among the rows the mask may take,
if that value beats the terminal payoff.  In the rank that is the first
row whose group the mask leaves free, the kept row of the first free
group, and a mask of this layer has used only ``u`` groups, so one of the
first ``u + 1`` is free.  When fewer groups beat the terminal payoff and
the mask holds them all, the fold keeps the terminal payoff, as the table
does; a row equal to it, a zero of the other sign included, never
replaces it.  The level's table row starts from the terminal payoff, or
from the last kept row when ``u + 1`` groups are kept, and each other
kept row, from the lowest rank up, replaces it where the mask leaves its
group free: one ``np.where`` over the group's flags per row, and no
(rows x masks) array.

Child columns without a search.  The masks of one layer, ascending, are in
colexicographic order: the mask with bits ``b_0 < b_1 < ...`` sits at
column ``sum_i C(b_i, i + 1)``.  Adding a bit ``g`` above ``k`` of its bits
keeps the first ``k`` terms, adds ``C(g, k + 1)`` and moves every later bit
one place up, so the child column is the mask's own column plus
``C(g, k + 1)`` plus ``C(b_i, i + 2) - C(b_i, i + 1)`` for every bit
``b_i`` above ``g``.  ``k`` is a running count of the mask's bits over the
group bits, and the last sum a running sum of those differences.

None of this depends on the instance, only on its group count ``G`` and
depth ``min(horizon, G)``, so it is built once per (G, depth) and cached:
the mask layers; the group flags of each swept layer, every layer above
the bottom (G x masks, bool: does the mask hold the group?); and the child
columns of each gathered layer, every layer above the one over the bottom
(G x masks, int32; where the mask holds the group, a stand-in clipped into
the child layer, in a row the sweep sets to ``-inf``).  The arrays are
read-only, and the sweep and ``optimal_policy`` read slices of them.  The
cache keeps the most recently used shapes up to ``_SHAPE_BYTES`` (64 MiB)
in all; ``ExactStats.shape_reused`` says whether a solve found its shape
there.

Memory.  Each temporary of a block holds at most ``_BLOCK_CELLS`` cells
(or one column, if a column is wider), so a layer's working memory past
the table it fills and the table it reads does not grow with the layer;
the cached arrays are built in the same blocks.  The layer above the
bottom takes ``_BLOCK_CELLS`` masks per block, each temporary one row of
them; where its group flags are computed per block, only the groups some
level tests get a row, at most ``u`` per level.  A cached shape retains 8
bytes per mask of every layer, G bytes per mask of every swept layer and
4G bytes per mask of every gathered layer: 1.7 MB for the three shapes
16/4, 18/5 and 20/6 together, 41 MB for 24/8.  Unlike the tables, this
does not shrink with the level count: one level of 26 groups at horizon
12 would need 1.85 GB.  A shape that alone would pass ``_SHAPE_BYTES`` is
therefore neither built nor cached; it keeps only its mask layers, and
each block computes its own flags and columns, within the same block
budget, when the sweep reads it.  So the cached shapes hold at most
``_SHAPE_BYTES`` between solves, and at most twice that while a solve
builds a new one.  The tables of all layers together are capped in
cells, and masks are int64 words, so at most 63 groups fit; both limits
are checked before anything is allocated or cached.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .exceptions import CapacityError
from .model import ActionSpec, Instance, PolicyNode, TransitionRow, leaf_node

#: Hard cap on the (mask, level) cells of all layers together, the sum over
#: ``u`` of ``C(groups, u) * levels``; 2^25 cells are 256 MiB of floats.
CELL_CAP = 1 << 25

#: The most cells a block of one layer puts in each of its temporaries, so
#: that a layer's working memory does not grow with its width.
_BLOCK_CELLS = 1 << 14

#: Flat tables, rows 64 apart, of ``C(b, k + 1)`` and ``C(b, k + 1) - C(b, k)``
#: for every mask bit ``b`` and ``k = 0..63``: the child column arithmetic.
_COMB = np.array([[math.comb(b, k) for k in range(65)] for b in range(63)], dtype=np.int64)
_RANKS, _MOVES = _COMB[:, 1:].ravel(), np.diff(_COMB, axis=1).ravel()

#: The most bytes the cached (groups, depth) shapes hold together.
_SHAPE_BYTES = 1 << 26

#: The cached shapes by (groups, depth), least recently used first.
_SHAPES: OrderedDict[tuple[int, int], _Shape] = OrderedDict()
_SHAPES_LOCK = threading.Lock()


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
    bottom first), one entry per layer above the bottom.  ``shape_reused``
    is true when the solve read its (groups, depth) shape's mask layers,
    group flags and child columns from the cache, built by an earlier solve
    in the same process, so a slow first call of a shape explains itself;
    it is always false for a shape too large to cache.
    """

    groups: int
    layers: int
    cells: int
    rows_swept: int
    rows_pruned: int
    peak_table_bytes: int
    seconds: float
    layer_seconds: tuple[float, ...]
    shape_reused: bool


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
        #: The mask layers, group flags and child columns of (G, depth).
        self.shape, self.shape_reused = _shape(G, self.depth)
        self.layers = self.shape.layers
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


@dataclass(frozen=True)
class _Shape:
    """What the sweep reads of a (groups, depth) shape.

    ``layers[u]`` for ``u = 0..depth`` are the mask layers.  A cached shape
    also holds, read-only, ``taken[u]`` for every swept layer (``u <
    depth``), (groups x masks) of whether the mask holds the group's bit,
    and ``columns[u]`` for every gathered layer (``u + 1 < depth``),
    (groups x masks) of the mask's child column in layer ``u + 1``
    (int32).  A shape too large to cache holds neither (``None``), and
    ``block`` computes each block's arrays when they are read.
    """

    groups: int
    layers: tuple[np.ndarray, ...]
    taken: tuple[np.ndarray, ...] | None = None
    columns: tuple[np.ndarray, ...] | None = None

    def block(self, u: int, lo: int, stop: int) -> tuple[np.ndarray, np.ndarray | None]:
        """The group flags and child columns of the masks ``lo:stop`` of
        layer ``u``; the columns are ``None`` on the layer above the bottom,
        which gathers nothing."""
        gathered = u + 2 < len(self.layers)
        if self.taken is not None:
            return (self.taken[u][:, lo:stop],
                    self.columns[u][:, lo:stop] if gathered else None)
        width = len(self.layers[u][lo:stop])
        taken = np.empty((self.groups, width), dtype=bool)
        columns = np.empty((self.groups, width), dtype=np.int32) if gathered else None
        _fill(self.layers, u, lo, taken, columns)
        return taken, columns


def _fill(layers: tuple[np.ndarray, ...], u: int, lo: int, taken: np.ndarray,
          columns: np.ndarray | None) -> None:
    """Write whether the masks ``lo, lo + 1, ...`` of layer ``u`` hold each
    group into ``taken`` (groups x masks), and, unless ``columns`` is
    ``None``, their child columns into ``columns``.

    Child columns come from the rank arithmetic of the module docstring:
    ``k`` indexes the flat tables at each group bit's row, in the column
    that counts the mask's bits up to that bit.  A mask that already holds
    the group gets a stand-in clipped into the child layer, which the sweep
    then sets to -inf.
    """
    groups, width = taken.shape
    bits = (np.int64(1) << np.arange(groups, dtype=np.int64))[:, None]
    np.not_equal(layers[u][lo:lo + width] & bits, 0, out=taken)
    if columns is None:
        return
    k = taken.cumsum(axis=0, dtype=np.uint8) + np.arange(0, 64 * groups, 64)[:, None]
    moved = _MOVES.take(k)
    moved *= taken
    np.cumsum(moved, axis=0, out=moved)
    at = _RANKS.take(k)
    at -= moved
    at += moved[-1] + np.arange(lo, lo + width)
    np.minimum(at, len(layers[u + 1]) - 1, out=columns, casting="unsafe")


def _shape_bytes(groups: int, depth: int) -> int:
    """What a cached shape holds: 8 bytes per mask of every layer, one per
    (group, mask) of every swept layer and four per (group, mask) of every
    gathered layer."""
    widths = [math.comb(groups, u) for u in range(depth + 1)]
    return 8 * sum(widths) + groups * sum(widths[:-1]) + 4 * groups * sum(widths[:-2])


def _build(groups: int, depth: int) -> _Shape:
    """A cached shape's arrays, filled one block of masks at a time."""
    layers = tuple(_mask_layers(groups, depth))
    taken = [np.empty((groups, len(used)), dtype=bool) for used in layers[:-1]]
    columns = [np.empty((groups, len(used)), dtype=np.int32) for used in layers[:-2]]
    step = max(1, _BLOCK_CELLS // max(groups, 1))
    for u, used in enumerate(layers[:-1]):
        for lo in range(0, len(used), step):
            _fill(layers, u, lo, taken[u][:, lo:lo + step],
                  columns[u][:, lo:lo + step] if u + 1 < depth else None)
    for array in (*layers, *taken, *columns):
        array.flags.writeable = False
    return _Shape(groups, layers, tuple(taken), tuple(columns))


def _shape(groups: int, depth: int) -> tuple[_Shape, bool]:
    """The (groups, depth) shape, and whether it was already cached.

    A new shape is built and cached, and the least recently used ones are
    dropped until the cache holds at most ``_SHAPE_BYTES``.  A shape that
    alone would pass ``_SHAPE_BYTES`` is neither built nor cached: it keeps
    only its mask layers and computes each block when the sweep reads it.
    """
    key = groups, depth
    with _SHAPES_LOCK:
        if key in _SHAPES:
            _SHAPES.move_to_end(key)
            return _SHAPES[key], True
    if _shape_bytes(groups, depth) > _SHAPE_BYTES:
        return _Shape(groups, tuple(_mask_layers(groups, depth))), False
    shape = _build(groups, depth)
    with _SHAPES_LOCK:
        _SHAPES[key] = shape
        held = sum(_shape_bytes(*cached) for cached in _SHAPES)
        while held > _SHAPE_BYTES:
            held -= _shape_bytes(*_SHAPES.popitem(last=False)[0])
    return shape, False


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


def _child_values(kernel: _Kernel, child: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """The value block of some masks of a layer, given their child columns
    (``columns``, groups x masks): row 0 is -0.0, and row 1 + i holds pair
    i's child value for every mask."""
    at = columns.take(kernel.pair_group, axis=0)
    at += (kernel.pair_target * child.shape[1]).astype(np.int32)[:, None]
    values = np.empty((len(at) + 1, columns.shape[1]))
    values[0] = -0.0
    child.ravel().take(at, out=values[1:], mode="clip")
    return values


def _ranked(kernel: _Kernel, table: np.ndarray) -> None:
    """Fill the layer above the bottom, ``table`` (levels x masks, the
    terminal payoff in every cell), from each level's rows ranked once (see
    the module docstring)."""
    u, shape = kernel.depth - 1, kernel.shape
    bottom = np.concatenate([[-0.0], kernel.terminal[kernel.pair_target, 0]])
    same = _row_values(kernel, bottom[:, None])[:, 0].tolist()
    group = kernel.row_group.tolist()
    chains = []
    for level, floor, run in zip(kernel.levels.tolist(), kernel.floor[:, 0].tolist(),
                                 kernel.runs):
        # The rows that beat the floor (never a NaN), highest first with
        # ties in row order, and the first of each group.
        picks: dict[int, float] = {}
        for r in sorted((r for r in range(run.start, run.stop) if same[r] > floor),
                        key=lambda r: -same[r]):
            picks.setdefault(group[r], same[r])
        if picks:
            chains.append((level, list(picks.items())[:u + 1]))
    tested = sorted({g for _, picks in chains for g, _ in picks[:u]})
    for lo in range(0, table.shape[1], _BLOCK_CELLS):
        if shape.taken is not None:
            taken = shape.taken[u][:, lo:lo + _BLOCK_CELLS]
        else:
            # Only the flags of the groups some level tests, one row each.
            masks = kernel.layers[u][lo:lo + _BLOCK_CELLS]
            taken = {g: (masks & (1 << g)) != 0 for g in tested}
        for level, picks in chains:
            # A mask holds u groups, so one of u + 1 picked groups is free.
            v = picks[u][1] if len(picks) > u else table[level, lo:lo + _BLOCK_CELLS]
            for g, q in reversed(picks[:u]):
                v = np.where(taken[g], v, q)
            table[level, lo:lo + _BLOCK_CELLS] = v


def _sweep(kernel: _Kernel):
    """Yield the value table of every layer, bottom layer first, as a
    (levels x masks) array whose columns follow the layer's masks.

    Callers run the whole sweep under one ``np.errstate(over="ignore",
    invalid="ignore")``, so a value past the float range becomes inf
    without a warning, as it does in Python floats.  The setting is not
    made in here: a generator's context stays entered across its yields,
    so it would leak into the caller between them."""
    terminal, levels, floor, runs = kernel.terminal, kernel.levels, kernel.floor, kernel.runs
    layers, depth, shape = kernel.layers, kernel.depth, kernel.shape
    G = len(kernel.groups)
    signed_zeros = bool((floor < 0.0).any())
    step = max(1, _BLOCK_CELLS // max(G, len(kernel.pair_group) + 1, len(kernel.row_group)))
    # The bottom layer, the widest, is terminal in every column: it is kept
    # as a read-only broadcast and never gathered from.
    table = np.broadcast_to(terminal, (len(terminal), len(layers[depth])))
    yield table
    for u in range(depth - 1, -1, -1):
        child, used = table, layers[u]
        table = terminal.repeat(len(used), axis=1)
        if u + 1 == depth:
            _ranked(kernel, table)
            yield table
            continue
        for lo in range(0, len(used), step):
            taken, columns = shape.block(u, lo, lo + step)
            q = _row_values(kernel, _child_values(kernel, child, columns))
            q = np.where(taken.take(kernel.row_group, axis=0), -np.inf, q)
            best = np.empty((len(levels), taken.shape[1]))
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
            table[levels, lo:lo + taken.shape[1]] = np.where(best > floor, best, floor)
        yield table


def _root(instance: Instance) -> tuple[list[float], ExactStats]:
    """Optimal value from every start level with all groups unused, and
    what the solve did."""
    start = perf_counter()
    kernel = _Kernel(instance)
    marks = []
    with np.errstate(over="ignore", invalid="ignore"):
        for table in _sweep(kernel):
            marks.append(perf_counter())
    # Every layer above the bottom is a full table; the bottom is one column.
    widths = [len(layer) for layer in kernel.layers[:-1]] + [1]
    held = max((a + b for a, b in zip(widths, widths[1:])), default=1)
    stats = ExactStats(len(kernel.groups), len(kernel.layers), kernel.cells,
                       kernel.rows_swept, kernel.rows_pruned,
                       held * table.shape[0] * table.itemsize, perf_counter() - start,
                       tuple(b - a for a, b in zip(marks, marks[1:])), kernel.shape_reused)
    return table[:, 0].tolist(), stats


def solve(instance: Instance) -> tuple[float, ExactStats]:
    """Optimal expected profit from the instance's start level at t=1 with
    all actions available, and what the solve did."""
    values, stats = _root(instance)
    return values[instance.start_level], stats


def optimal_value(instance: Instance) -> float:
    """Optimal expected profit from the instance's start level at t=1 with
    all actions available."""
    return solve(instance)[0]


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
    with np.errstate(over="ignore", invalid="ignore"):
        tables = list(_sweep(kernel))[::-1]
    shape, depth, terminal = kernel.shape, kernel.depth, instance.terminal
    bottom = kernel.terminal[:, 0].tolist()
    holder: dict[None, PolicyNode] = {}
    # (children dict, key, groups used, level, used mask, its column); a
    # parent's dict is keyed in row order before its children are built, so
    # filling it in any order keeps that order.
    stack: list[tuple[dict, object, int, int, int, int]] = [
        (holder, None, 0, instance.start_level, 0, 0)]
    while stack:
        parent, key, u, level, used, at = stack.pop()
        node = None
        if u < depth:
            free = [g for g, (bit, _) in enumerate(kernel.groups) if not used & bit]
            if u + 1 < depth:
                # Every unused group's child column in one gather.
                nxt = shape.block(u, at, at + 1)[1][free, 0].tolist()
                cols = tables[u + 1][:, nxt].T.tolist()
            else:
                nxt, cols = [0] * len(free), [bottom] * len(free)
            best, best_q, best_used, best_at = None, 0.0, 0, 0
            for g, col, child in zip(free, cols, nxt):
                bit, members = kernel.groups[g]
                for spec in members:
                    row = spec.rows.get(level)
                    if row is None:
                        continue
                    q = row.profit
                    for j, p in row.support:
                        q += p * col[j]
                    if best is None or q > best_q:
                        best, best_q, best_used, best_at = spec, q, used | bit, child
            if best is not None and not best_q < terminal[level]:
                children = dict.fromkeys(j for j, _ in best.rows[level].support)
                node = PolicyNode(best.id, level, u + 1, children)
                stack.extend((children, j, u + 1, j, best_used, best_at) for j in children)
        parent[key] = leaf_node(level, u + 1) if node is None else node
    return holder[None]
