"""Exact solver: a bottom-up sweep over (count vector, level).

Groups whose kept rows are the same, bit for bit, are interchangeable and
form a class.  A state counts the groups already used in each class, a
count vector ``v``, and holds the current level.  A policy that never idles
has used ``u`` groups after ``u`` steps, so the steps left, ``horizon -
u``, follow from the vector and time is not a state coordinate.  Layer
``u`` holds the vectors that sum to ``u``, for ``u = 0..min(horizon, G)``
with ``G`` groups, and the value table ``W`` is filled one layer at a time
from the bottom::

    W(v, l) = max(terminal[l],
                  max over actions a of the first group of a class c that v
                  has not used up, with a row at l, of
                      profit_a(l) + sum_j p_a(l, j) * W(v + e_c, j))

The bottom layer, with no steps or no groups left, is ``terminal``.  With
every class of one group, ``v`` is the set of used groups, a mask, and this
is the recurrence over masks that the arguments below start from.

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
a ``-0.0`` in the input.  The kept rows are every row but these.
``optimal_policy`` still takes its argmax over every row, so trees and
tie-breaks do not depend on the pruning.

Why groups with the same kept rows can be counted.  Let groups ``g`` and
``g'`` have the same kept rows, member by member in id order, as bits
(``+0.0`` and ``-0.0`` differ, and so do two NaN payloads).  Swapping them
maps the recurrence over masks onto itself and only reorders the options of
each fold.  The fold ``best = q if q > best`` ends on the largest option
when one beats the terminal payoff, never takes a NaN, and equal floats
share their bits except ``+0.0`` and ``-0.0``; so its result does not
depend on the order of its options, unless the largest option is a zero
that beats the terminal payoff, which needs a negative terminal payoff at
that level.  Where no level with a kept row has one, by induction from the
bottom ``W`` takes the same bits on masks that hold the same number of
groups of each class, so it is a function of the count vector.  A mask that
leaves groups of class ``c`` free reaches ``v + e_c`` through each of them,
with the same rows and so the same option values, and the fold keeps one
copy of each, the first group's.  Where some level with a kept row has a
negative terminal payoff, every group is a class of its own, and the rows
keep their group order.  ``optimal_policy`` folds over groups as over
masks: the groups of one class read the same child vector, hence the same
values, so it takes the same action, and its tie-breaks are the masks'.

The sweep.  The kept rows form one flat table, built once per solve:
each class's first group's rows, ordered by level, then class, then member
id, with each outcome's target level and mass.  Every layer above the one
over the bottom is filled in blocks of codes, one pass per block over the
whole table.  The child values of every (class, target level) pair the
rows read are gathered once per block; then one (rows x codes) array gets
every row's value, ``profit + p_1 * W_1 + p_2 * W_2 + ...`` added one
outcome at a time in row order with elementwise numpy operations (a matrix
product would reorder the sums).  A row with fewer outcomes than the
longest adds ``1.0 * -0.0``, which leaves every float as it is.  Codes that
have used up a row's class get ``-inf`` in that row.  Each level's run of
rows is reduced to its maximum, and a cell takes it only where it is
strictly greater than the terminal payoff.

Why the per-level maximum is the recurrence's fold.  The recurrence is
evaluated as ``best = q if q > best`` over the options in (class, member
id) order, starting from ``terminal[l]``.  When some option is larger than
the terminal payoff, the fold ends on the first option that reaches the
largest value; otherwise it keeps the terminal payoff.  It never takes a
NaN, since every comparison with a NaN is false.  The block takes the same
bits: ``np.fmax`` skips NaNs (a run of NaNs and ``-inf`` keeps the
terminal payoff, as the fold does), equal floats share their bits except
``+0.0`` and ``-0.0``, and where the largest value is a zero the block
takes the first row of the run that reaches it, as ``np.fmax`` may return
either zero.  A zero can only replace a negative terminal payoff, so only
such levels check; there every class is one group, in group order.

The layer above the bottom.  Every code there reads ``terminal``, so each
row has one value, the same for every code, computed once: a code only
decides which rows it may take.  Each level's rows are ranked once,
highest value first, with ties in row order (a stable sort, in which
``+0.0`` equals ``-0.0``); only rows strictly greater than the level's
terminal payoff take part, which leaves out every NaN.  The first row of
each class in that rank is kept, for the first ``u + 1`` classes.  This is
the fold's result.  For a code, the fold takes the first row, in row
order, that reaches the largest value among the rows the code may take,
if that value beats the terminal payoff.  In the rank that is the first
row whose class the code has not used up, the kept row of the first such
class, and a vector of this layer has used ``u`` groups, so it has used up
at most ``u`` classes and one of the first ``u + 1`` is free.  When fewer
classes beat the terminal payoff and the code has used them all up, the
fold keeps the terminal payoff, as the table does; a row equal to it, a
zero of the other sign included, never replaces it.  The level's table
row starts from the terminal payoff, or from the last kept row when ``u +
1`` classes are kept, and each other kept row, from the lowest rank up,
replaces it where the code leaves its class free: one ``np.where`` over
the class's flags per row, and no (rows x codes) array.

Codes and child columns.  A count vector is kept as an int64 code in mixed
radix: class ``c``'s digit has base ``size_c + 1`` and place value the
product of the bases below it, with the classes in canonical order, by
size, largest first, then by first group.  With every class of one group
the codes are the masks.  A layer lists its codes ascending; ``_frame``
generates each layer already sorted from the one above, and ``_build``
derives each code's child columns from where ``_frame`` put its
extensions, and below its highest nonzero class from its parent's, with no
search.

None of this depends on the instance, only on its class sizes and depth
``min(horizon, G)``, so it is built once per (class sizes, depth) and
cached, and instances whose groups fall into classes of the same sizes
share it: the codes of every swept layer, the layers above the bottom; the
class flags of each swept layer (classes x codes, bool: has the code used
up the class?); and the child columns of each gathered layer, every layer
above the one over the bottom (classes x codes, int16 where the child layer
has at most 2^15 codes, else int32; where the code has used up the class,
a stand-in clipped into the child layer, in a row the sweep sets to
``-inf``).  The bottom layer keeps only its width, since its table is
terminal in every column.  The arrays are read-only, and the sweep and
``optimal_policy`` read slices of them.  The cache keeps the most recently
used shapes up to ``_SHAPE_BYTES`` (64 MiB) in all; ``ExactStats.shape_reused``
says whether a solve found its shape there.

Memory.  Each temporary of a block holds at most ``_BLOCK_CELLS`` cells
(or one column, if a column is wider), so a layer's working memory past
the table it fills and the table it reads does not grow with the layer;
the cached arrays are built in the same blocks.  The layer above the
bottom takes ``_BLOCK_CELLS`` codes per block, each temporary one row of
them; where its class flags are computed per block, only the classes some
level tests get a row, at most ``u`` per level.  A cached shape retains 8
bytes per code of every swept layer, one byte per class and code of every
swept layer and two or four per class and code of every gathered layer:
4.8 MB for the 30 shapes of the exact-probemax inputs at seed 0 (16/4,
18/5 and 20/6) together, 34 MB for the cross ladder's 26/9 (26 groups in
20 classes, 14.3 M cells).  Unlike the tables, this does not shrink with
the level count: one level of 26 distinct groups at horizon 12 would need
1.8 GB.  A shape that alone would pass ``_SHAPE_BYTES`` is therefore
neither built nor cached; it keeps only its codes, and each block finds its
own flags and, by a search in the child layer, its columns, within the same
block budget, when the sweep reads it.  So the cached shapes hold at most
``_SHAPE_BYTES`` between solves, and at most twice that while a solve
builds a new one.  The tables of all layers together are capped in cells,
and codes are int64 words whose largest is below ``2^G``, so at most 63
groups fit; both limits are checked before anything is allocated or
cached.
"""
from __future__ import annotations

import marshal
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from time import perf_counter

import numpy as np

from .exceptions import CapacityError
from .model import ActionSpec, Instance, PolicyNode, TransitionRow, leaf_node

#: Hard cap on the (count vector, level) cells of all layers together, the
#: count vectors of every sum ``u = 0..depth`` times the levels; 2^25 cells
#: are 256 MiB of floats.
CELL_CAP = 1 << 25

#: The most cells a block of one layer puts in each of its temporaries, so
#: that a layer's working memory does not grow with its width.
_BLOCK_CELLS = 1 << 14

#: The most bytes the cached (class sizes, depth) shapes hold together.
_SHAPE_BYTES = 1 << 26

#: The cached shapes by (class sizes, depth), least recently used first.
_SHAPES: OrderedDict[tuple[tuple[int, ...], int], _Shape] = OrderedDict()
_SHAPES_LOCK = threading.Lock()


@dataclass(frozen=True)
class ExactStats:
    """What one exact solve did.

    ``classes`` counts the classes of interchangeable groups the states
    count (``groups`` when none repeats).  ``layers`` counts the value
    tables, the terminal bottom layer included, and ``cells`` their
    (count vector, level) cells, the figure ``CELL_CAP`` bounds.
    ``rows_swept`` counts the kept (action, level) rows of every group, of
    which the sweep evaluates one group's per class, in every layer above
    the bottom, and ``rows_pruned`` the dominated stay-put rows left out.
    ``peak_table_bytes`` is the most the tables hold at once: the layer
    being filled plus the layer it reads.  ``layer_seconds`` holds the wall
    seconds of each swept layer, in sweep order (the layer above the
    bottom first), one entry per layer above the bottom.  ``shape_reused``
    is true when the solve read its (class sizes, depth) shape's layers,
    class flags and child columns from the cache, built by an earlier
    solve in the same process, so a slow first call of a shape explains
    itself; it is always false for a shape too large to cache.
    """

    groups: int
    classes: int
    layers: int
    cells: int
    rows_swept: int
    rows_pruned: int
    peak_table_bytes: int
    seconds: float
    layer_seconds: tuple[float, ...]
    shape_reused: bool


def _signature(rows: list[tuple[int, TransitionRow]]) -> bytes | None:
    """A group's kept (level, row) pairs, members in id order, as bytes
    that hold every float's bits, so that ``+0.0`` and ``-0.0``, or two NaN
    payloads, differ; ``None`` (the group stands alone) when a row holds a
    number that is not a plain int or float."""
    try:
        return marshal.dumps([(level, row.probs, row.profit) for level, row in rows], 2)
    except ValueError:
        return None


class _Kernel:
    """The instance as the sweep sees it: group bits and members, the
    classes of interchangeable groups, the layers and the flat table of
    kept row-actions."""

    def __init__(self, instance: Instance):
        groups = instance.groups()
        G = len(groups)
        if G > 63:
            raise CapacityError(
                f"{G} groups do not fit the 63 bits of an int64 state code")
        K = instance.values.level_count
        self.depth = min(instance.horizon, G)
        by_group: dict[str, list[ActionSpec]] = {g: [] for g in groups}
        for spec in instance.actions:
            by_group[spec.group].append(spec)
        for members in by_group.values():
            members.sort(key=lambda s: s.id)
        #: (bit, members by id) per group, groups in action-list order.
        self.groups = [(1 << i, by_group[g]) for i, g in enumerate(groups)]
        self.terminal = np.array(instance.terminal, dtype=float)[:, None]
        # Each group's kept rows, members in id order: every row but the
        # stay-put rows without profit (see the module docstring).
        kept = [[(level, row) for spec in members for level, row in spec.rows.items()
                 if row.profit > 0.0 or row.support != ((level, 1.0),)]
                for _, members in self.groups]
        self.rows_swept = sum(map(len, kept))
        self.rows_pruned = sum(len(spec.rows) for spec in instance.actions) - self.rows_swept
        # Groups with the same kept rows share a class, unless a level with
        # a kept row has a negative terminal payoff (see the module
        # docstring); classes go by size, largest first, then first group.
        levels = {level for rows in kept for level, _ in rows}
        merge = not any(instance.terminal[level] < 0.0 for level in levels)
        found: dict[object, list[int]] = {}
        for g, rows in enumerate(kept):
            key = _signature(rows) if merge else None
            found.setdefault(g if key is None else key, []).append(g)
        classes = sorted(found.values(), key=lambda c: (-len(c), c[0]))
        self.sizes = tuple(map(len, classes))
        #: Each group's class.
        self.group_class = [0] * G
        for c, members in enumerate(classes):
            for g in members:
                self.group_class[g] = c
        #: How many count vectors each layer holds, the bottom one included.
        self.widths = _widths(self.sizes, self.depth)
        self.cells = sum(self.widths) * K
        if self.cells > CELL_CAP:
            raise CapacityError(
                f"{self.cells} table cells ({G} groups in {len(classes)} classes, "
                f"horizon {instance.horizon}, {K} levels) exceed the solver cap of {CELL_CAP}")
        #: The layers, class flags and child columns of (sizes, depth).
        self.shape, self.shape_reused = _shape(self.sizes, self.depth)
        self.layers = self.shape.layers
        # Each class offers its first group's kept rows, by level, then
        # class, then member id: a stable sort of the class-major list.
        rows = sorted(((level, c, row) for c, members in enumerate(classes)
                       for level, row in kept[members[0]]), key=lambda item: item[0])
        # The (class, target level) pairs the rows read: the sweep gathers
        # each pair's child values once, into row 1 + its index of a value
        # block whose row 0 is -0.0.
        pairs = sorted({(c, j) for _, c, row in rows for j, _ in row.support})
        at_pair = {pair: i for i, pair in enumerate(pairs, 1)}
        self.pair_class = np.array([c for c, _ in pairs], dtype=np.intp)
        self.pair_target = np.array([j for _, j in pairs], dtype=np.intp)
        #: Per outcome position: each row's value-block row and mass.  A
        #: row with fewer outcomes reads row 0 at mass 1.0, and adding
        #: 1.0 * -0.0 leaves every float as it is, -0.0 included.
        width = max([1, *(len(row.support) for _, _, row in rows)])
        outcomes = [[(at_pair[c, j], p) for j, p in row.support]
                    + [(0, 1.0)] * (width - len(row.support)) for _, c, row in rows]
        reads = np.array([[i for i, _ in row] for row in outcomes], dtype=np.intp)
        masses = np.array([[p for _, p in row] for row in outcomes], dtype=float)
        self.terms = list(zip(reads.reshape(-1, width).T.copy(),
                              masses.reshape(-1, width).T.copy()[:, :, None]))
        self.profit = np.array([row.profit for _, _, row in rows], dtype=float)[:, None]
        self.row_class = np.array([c for _, c, _ in rows], dtype=np.intp)
        #: The levels with a kept row, their terminal values, and each
        #: one's run of rows.
        self.levels = np.array(sorted(levels), dtype=np.intp)
        levels = [level for level, _, _ in rows]
        self.floor = self.terminal[self.levels]
        starts = np.searchsorted(levels, self.levels).tolist()
        self.runs = [slice(a, b) for a, b in zip(starts, starts[1:] + [len(rows)])]


@lru_cache(maxsize=256)
def _widths(sizes: tuple[int, ...], depth: int) -> tuple[int, ...]:
    """The number of count vectors of each sum ``u = 0..depth``: the
    coefficients of ``x^u`` in the product of ``1 + x + ... + x^size`` over
    the classes.  Classes of one group come last, and together they give
    ``C(ones, u)``."""
    ones = sizes.count(1)
    widths = [math.comb(ones, u) for u in range(depth + 1)]
    for size in sizes[:len(sizes) - ones]:
        run = list(accumulate(widths, initial=0))
        widths = [run[u + 1] - run[max(u - size, 0)] for u in range(depth + 1)]
    return tuple(widths)


@dataclass(frozen=True)
class _Shape:
    """What the sweep reads of a (class sizes, depth) shape.

    ``place`` and ``radix`` (classes x 1) are each class's place value and
    digit base in the codes.  ``layers[u]`` for every swept layer, ``u =
    0..depth - 1``, holds the codes of the count vectors that sum to
    ``u``, ascending; the bottom layer is terminal in every column, so only
    its width (``_widths``) is kept.  A cached shape also holds, read-only,
    ``taken[u]`` for every swept layer, (classes x codes) of whether the
    class is used up, and ``columns[u]`` for every gathered layer (``u + 1
    < depth``), (classes x codes) of the child column in layer ``u + 1``,
    int16 where that layer has at most 2^15 codes, else int32.  A shape
    too large to cache holds neither (``None``), and ``block`` computes
    each block's arrays when they are read.
    """

    place: np.ndarray
    radix: np.ndarray
    layers: tuple[np.ndarray, ...]
    taken: tuple[np.ndarray, ...] | None = None
    columns: tuple[np.ndarray, ...] | None = None

    def used_up(self, codes: np.ndarray, c: int | slice = slice(None)) -> np.ndarray:
        """Whether the codes have used up class ``c`` (a row of flags), or
        every class (classes x codes)."""
        digits = codes // self.place[c]
        digits %= self.radix[c]
        return digits == self.radix[c] - 1

    def block(self, u: int, lo: int, stop: int) -> tuple[np.ndarray, np.ndarray | None]:
        """The class flags and child columns of the codes ``lo:stop`` of
        layer ``u``; the columns are ``None`` on the layer above the bottom,
        which gathers nothing.

        An uncached shape finds each column by a search in the child layer,
        with a stand-in clipped into it where the class is used up (where
        ``code + place`` may even wrap past the int64 range)."""
        gathered = u + 1 < len(self.layers)
        if self.taken is not None:
            return (self.taken[u][:, lo:stop],
                    self.columns[u][:, lo:stop] if gathered else None)
        codes = self.layers[u][lo:stop]
        if not gathered:
            return self.used_up(codes), None
        child = self.layers[u + 1]
        columns = np.minimum(child.searchsorted(codes + self.place), len(child) - 1)
        return self.used_up(codes), columns.astype(np.int32)


def _column_type(width: int) -> type:
    """The compact dtype of child columns into a layer of ``width`` codes."""
    return np.int16 if width <= 1 << 15 else np.int32


def _frame(sizes: tuple[int, ...], depth: int) -> tuple[_Shape, list[tuple[np.ndarray, ...]]]:
    """A shape without flags or columns, and for each layer ``u + 1`` that
    it builds from layer ``u``: where each class's extensions start in it,
    and each of its codes' highest nonzero class and parent's column.

    Layer ``u + 1`` extends every vector of layer ``u`` by one at each
    class from its highest nonzero class up, where that class has room.
    Extending by class ``c`` keeps the codes below ``size_c * place_c``,
    a prefix of the ascending layer, and puts the result in ``[place_c,
    place_(c + 1))``; so listing the extensions by ``c = 0, 1, ...`` yields
    the next layer already sorted, and each vector once.  With every class
    of one group, the codes are the group masks.
    """
    place = np.cumprod([1, *(size + 1 for size in sizes[:-1])], dtype=np.int64)[:len(sizes)]
    ends = place * np.array(sizes, dtype=np.int64)
    classes = np.arange(len(sizes))
    layers, links = [np.zeros(1, dtype=np.int64)][:depth], []
    for _ in range(depth - 1):
        counts = layers[-1].searchsorted(ends)
        starts = counts.cumsum() - counts
        top = classes.repeat(counts)
        parent = np.arange(len(top)) - starts.repeat(counts)
        layers.append(layers[-1].take(parent) + place[top])
        links.append((starts, top, parent))
    shape = _Shape(place[:, None], np.array(sizes, dtype=np.int64)[:, None] + 1, tuple(layers))
    return shape, links


@lru_cache(maxsize=256)
def _shape_bytes(sizes: tuple[int, ...], depth: int) -> int:
    """What a cached shape holds: per code of every swept layer 8 bytes and
    one per class, per code of every gathered layer two or four per class,
    and 16 per class for its place value and digit base."""
    widths, classes = _widths(sizes, depth), len(sizes)
    columns = sum(np.dtype(_column_type(child)).itemsize * width
                  for width, child in zip(widths[:-2], widths[1:-1]))
    return (8 + classes) * sum(widths[:-1]) + classes * columns + 16 * classes


def _build(sizes: tuple[int, ...], depth: int) -> _Shape:
    """A cached shape's arrays, filled one block of codes at a time.

    The child of code ``i`` by class ``c`` from its highest nonzero class
    ``t`` up is where ``_frame`` put it, ``starts[c] + i``.  Below ``t``, the
    child is the extension by ``t`` of the parent's child by ``c``: the
    parent is the code with one less at ``t``, found where ``_frame`` took
    it from, and its child by ``c`` still has room at ``t``, so the
    extension sits at ``starts[t]`` plus that child's column.  The flags
    are the parent's, but for class ``t``.
    """
    shape, links = _frame(sizes, depth)
    classes, layers = len(sizes), shape.layers
    place, radix = shape.place[:, 0], shape.radix[:, 0]
    rows = np.arange(classes)[:, None]
    taken = [np.empty((classes, len(used)), dtype=bool) for used in layers]
    columns = [np.empty((classes, len(used)), dtype=_column_type(len(child)))
               for used, child in zip(layers, layers[1:])]
    step = max(1, _BLOCK_CELLS // max(classes, 1))
    for u, used in enumerate(layers):
        for lo in range(0, len(used), step):
            stop = min(lo + step, len(used))
            if u:
                _, top, parent = links[u - 1]
                at, parents = top[lo:stop], parent[lo:stop]
                taken[u][:, lo:stop] = taken[u - 1].take(parents, axis=1)
                taken[u][at, np.arange(lo, stop)] = used[lo:stop] // place[at] == radix[at] - 1
            else:
                taken[u][:] = False
            if u + 1 == depth:
                continue
            starts = links[u][0]
            block = starts[:, None] + np.arange(lo, stop)
            if u:
                below = columns[u - 1].take(parents, axis=1) + starts[at]
                np.copyto(block, below, where=rows < at)
            np.minimum(block, len(layers[u + 1]) - 1, out=columns[u][:, lo:stop],
                       casting="unsafe")
    for array in (shape.place, shape.radix, *layers, *taken, *columns):
        array.flags.writeable = False
    return _Shape(shape.place, shape.radix, layers, tuple(taken), tuple(columns))


def _shape(sizes: tuple[int, ...], depth: int) -> tuple[_Shape, bool]:
    """The (class sizes, depth) shape, and whether it was already cached.

    A new shape is built and cached, and the least recently used ones are
    dropped until the cache holds at most ``_SHAPE_BYTES``.  A shape that
    alone would pass ``_SHAPE_BYTES`` is neither built nor cached: it keeps
    only its layers and computes each block when the sweep reads it.
    """
    key = sizes, depth
    with _SHAPES_LOCK:
        shape = _SHAPES.get(key)
        if shape is not None:
            _SHAPES.move_to_end(key)
            return shape, True
    if _shape_bytes(sizes, depth) > _SHAPE_BYTES:
        return _frame(sizes, depth)[0], False
    shape = _build(sizes, depth)
    with _SHAPES_LOCK:
        _SHAPES[key] = shape
        held = sum(_shape_bytes(*cached) for cached in _SHAPES)
        while held > _SHAPE_BYTES:
            held -= _shape_bytes(*_SHAPES.popitem(last=False)[0])
    return shape, False


def _row_values(kernel: _Kernel, values: np.ndarray) -> np.ndarray:
    """Every kept row's value, ``profit + sum_k p_k * child_k`` added in
    outcome order, given a value block (pairs + 1, codes or 1)."""
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
    """The value block of some codes of a layer, given their child columns
    (``columns``, classes x codes): row 0 is -0.0, and row 1 + i holds pair
    i's child value for every code."""
    at = (kernel.pair_target * child.shape[1]).astype(np.int32)[:, None]
    at = at + columns.take(kernel.pair_class, axis=0)
    values = np.empty((len(at) + 1, columns.shape[1]))
    values[0] = -0.0
    child.ravel().take(at, out=values[1:], mode="clip")
    return values


def _ranked(kernel: _Kernel, table: np.ndarray) -> None:
    """Fill the layer above the bottom, ``table`` (levels x codes, the
    terminal payoff in every cell), from each level's rows ranked once (see
    the module docstring)."""
    u, shape = kernel.depth - 1, kernel.shape
    bottom = np.concatenate([[-0.0], kernel.terminal[kernel.pair_target, 0]])
    same = _row_values(kernel, bottom[:, None])[:, 0].tolist()
    row_class = kernel.row_class.tolist()
    chains = []
    for level, floor, run in zip(kernel.levels.tolist(), kernel.floor[:, 0].tolist(),
                                 kernel.runs):
        # The rows that beat the floor (never a NaN), highest first with
        # ties in row order, and the first of each class.
        picks: dict[int, float] = {}
        for r in sorted((r for r in range(run.start, run.stop) if same[r] > floor),
                        key=lambda r: -same[r]):
            picks.setdefault(row_class[r], same[r])
        if picks:
            chains.append((level, list(picks.items())[:u + 1]))
    tested = sorted({c for _, picks in chains for c, _ in picks[:u]})
    for lo in range(0, table.shape[1], _BLOCK_CELLS):
        if shape.taken is not None:
            taken = shape.taken[u][:, lo:lo + _BLOCK_CELLS]
        else:
            # Only the flags of the classes some level tests, one row each.
            codes = kernel.layers[u][lo:lo + _BLOCK_CELLS]
            taken = {c: shape.used_up(codes, c) for c in tested}
        for level, picks in chains:
            # A vector counts u groups, so one of u + 1 picked classes is
            # not used up.
            v = picks[u][1] if len(picks) > u else table[level, lo:lo + _BLOCK_CELLS]
            for c, q in reversed(picks[:u]):
                v = np.where(taken[c], v, q)
            table[level, lo:lo + _BLOCK_CELLS] = v


def _sweep(kernel: _Kernel):
    """Yield the value table of every layer, bottom layer first, as a
    (levels x codes) array whose columns follow the layer's codes.

    Callers run the whole sweep under one ``np.errstate(over="ignore",
    invalid="ignore")``, so a value past the float range becomes inf
    without a warning, as it does in Python floats.  The setting is not
    made in here: a generator's context stays entered across its yields,
    so it would leak into the caller between them."""
    terminal, levels, floor, runs = kernel.terminal, kernel.levels, kernel.floor, kernel.runs
    layers, depth, shape = kernel.layers, kernel.depth, kernel.shape
    signed_zeros = bool((floor < 0.0).any())
    step = max(1, _BLOCK_CELLS // max(len(kernel.sizes), len(kernel.pair_class) + 1,
                                      len(kernel.row_class)))
    # The bottom layer, the widest, is terminal in every column: it is kept
    # as a read-only broadcast and never gathered from.
    table = np.broadcast_to(terminal, (len(terminal), kernel.widths[depth]))
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
            q = np.where(taken.take(kernel.row_class, axis=0), -np.inf, q)
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
    widths = [*kernel.widths[:-1], 1]
    held = max((a + b for a, b in zip(widths, widths[1:])), default=1)
    stats = ExactStats(len(kernel.groups), len(kernel.sizes), kernel.depth + 1, kernel.cells,
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
    the group, and zero-probability branches are omitted.  The groups used
    so far are kept as a mask, and the tables are read at its count vector:
    groups of one class lead to the same vector, so their children hold the
    same values and the fold picks as it would over masks.
    """
    kernel = _Kernel(instance)
    with np.errstate(over="ignore", invalid="ignore"):
        tables = list(_sweep(kernel))[::-1]
    shape, depth, terminal = kernel.shape, kernel.depth, instance.terminal
    bottom = kernel.terminal[:, 0].tolist()
    holder: dict[None, PolicyNode] = {}
    # (children dict, key, groups used, level, used mask, its vector's
    # column); a parent's dict is keyed in row order before its children
    # are built, so filling it in any order keeps that order.
    stack: list[tuple[dict, object, int, int, int, int]] = [
        (holder, None, 0, instance.start_level, 0, 0)]
    while stack:
        parent, key, u, level, used, at = stack.pop()
        node = None
        if u < depth:
            free = [g for g, (bit, _) in enumerate(kernel.groups) if not used & bit]
            if u + 1 < depth:
                # Every unused group's child column in one gather.
                classes = [kernel.group_class[g] for g in free]
                nxt = shape.block(u, at, at + 1)[1][classes, 0].tolist()
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
