"""Signature-based approximation pipeline.

Blocks are summarized by signatures: transition masses and expected profit
floored onto a grid and stored in integer grid units, so block signatures
are entrywise sums of action signatures.  The solver enumerates small block
topologies over the levels the instance's rows can reach, runs a forward
reachability DP over per-node signature sums under per-path placement caps
and the small-risk property P1 (a node holds one item of any leave mass, or
several whose leave masses sum to at most eps^2), once per topology that no
other extends and read off by every topology it extends; a star solve's
covers may share one run over their union instead.  Each run's
configurations are ranked once by a batched surrogate, and every topology
read off the run takes its own from that order; only the most promising are
traced back into per-node batches, checked against their unit sums and
valued exactly once per run.  Only the solve's winner is built into a
concrete block tree, once, and that tree is checked to score its value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from itertools import product, repeat
from time import perf_counter
from typing import Callable, Sequence

import numpy as np

from .block import (BlockNode, batch_masses_exact, batch_outcomes, block_leaf,
                    block_profit_exact)
from .exact import max_over_starts
from .exceptions import CapacityError, HintError, ParameterError, StructuralError
from .model import Instance, validate_instance

#: Configuration-DP states one stage may hold before ``CapacityError``.
DEFAULT_STATE_CAP = 5_000_000

#: Topologies one enumeration may yield before ``CapacityError``.
TOPOLOGY_CAP = 200_000

#: Absorbs float division noise so on-grid masses land on exact units.
_FLOOR_SLACK = 1e-9

#: Risk units in one node's small-risk budget of eps^2 (see ``_risk_units``).
_RISK_UNITS = 8

#: A star solve's covers share one DP run over their union star only when
#: it has at most this many nodes (see ``_union_star``).
_UNION_STAR_NODES = 8


def _floor_units(x: float, grid: float) -> int:
    return int(math.floor(x / grid + _FLOOR_SLACK))


def action_signature(instance: Instance, action_id: str, level: int, grid: float,
                     max_ref: float) -> tuple[int, ...]:
    """Signature of a single action probed from ``level``: its transition
    masses floored to ``grid`` units, one count per level, then its
    expected profit floored to units of ``grid * max_ref``."""
    if grid <= 0.0:
        raise ParameterError("grid must be positive")
    if max_ref <= 0.0:
        raise ParameterError("max_ref must be positive")
    spec = instance.action(action_id)
    row = spec.rows.get(level)
    if row is None:
        raise StructuralError(f"action {action_id!r} has no row at level {level}")
    K = instance.values.level_count
    units = [0] * (K + 1)
    for j, p in row.probs:
        units[j] += _floor_units(p, grid)
    units[K] = _floor_units(row.profit, grid * max_ref)
    return tuple(units)


@dataclass(frozen=True)
class Topology:
    """Shape of a block tree: entry levels only, children keyed by realized
    level.  Missing children mean the policy stops there."""

    level: int
    children: tuple[tuple[int, "Topology"], ...] = ()

    @cached_property
    def nodes(self) -> tuple[tuple[int, int, int], ...]:
        """Preorder table of (level, parent index, key) rows; the root is
        row 0 with parent -1 and key -1.  Every child comes after its
        parent, and siblings keep their order."""
        table: list[tuple[int, int, int]] = []
        stack = [(self, -1, -1)]
        while stack:
            node, parent, key = stack.pop()
            idx = len(table)
            table.append((node.level, parent, key))
            stack.extend((child, idx, j) for j, child in reversed(node.children))
        return tuple(table)

    @cached_property
    def child_index(self) -> tuple[dict[int, int], ...]:
        """Per row of ``nodes``, a dict from child key to that child's row."""
        index: tuple[dict[int, int], ...] = tuple({} for _ in self.nodes)
        for idx, (_level, parent, key) in enumerate(self.nodes):
            if parent >= 0:
                index[parent][key] = idx
        return index


def level_reach(instance: Instance) -> tuple[tuple[int, ...], ...]:
    """Per level ``L``, the child keys ``j >= L`` that some action's row at
    ``L`` gives positive mass, ascending.  A block entered at ``L`` that
    holds items moves on to no other key, so a topology child anywhere else
    is entered only below an item-less block."""
    keys: list[set[int]] = [set() for _ in range(instance.values.level_count)]
    for spec in instance.actions:
        for level, row in spec.rows.items():
            keys[level].update(j for j, _p in row.support if j >= level)
    return tuple(tuple(sorted(js)) for js in keys)


def enumerate_topologies(reach: Sequence[Sequence[int]], block_budget: int,
                         depth_limit: int, start_level: int) -> tuple[Topology, ...]:
    """All topologies rooted at ``start_level`` with at most ``block_budget``
    nodes and at most ``depth_limit`` blocks on any path, in a fixed order.

    A node at level ``L`` holds at most one child per key in ``reach[L]``
    (ascending keys, each at least ``L``; see ``level_reach``).  With every
    ``reach[L] = range(L, K)`` this is the full level enumeration; a
    narrower table yields the same topologies in the same order, minus
    those with a child at a key outside the table.

    Subtrees are built bottom-up, deepest tree depth first, once per
    (level, depth) and shared.  Per level, ``tails[r]`` lists the child
    tuples with ``r`` nodes over the keys folded in so far, last key
    first: those that skip the key, then those that take it by child
    size, child subtree and rest.  The result is the root's tables by
    node count.  Each entry of one depth's tables extends to a topology
    of its own, so ``CapacityError`` comes as soon as they would pass
    ``TOPOLOGY_CAP``, before they are built.
    """
    if block_budget < 1 or depth_limit < 1:
        raise ParameterError("block_budget and depth_limit must be at least 1")
    levels = [[start_level]]
    for _ in range(1, min(depth_limit, block_budget)):
        levels.append(sorted({key for level in levels[-1] for key in reach[level]}))
    # below[level][n]: the subtrees of n nodes rooted at ``level`` a depth down.
    below: dict[int, list[list[Topology]]] = {}
    for depth in reversed(range(len(levels))):
        spares = range(block_budget - depth)
        subtrees: dict[int, list[list[Topology]]] = {}
        built = 0  # entries in this depth's tables
        for level in levels[depth]:
            tails: list[list[tuple]] = [[()]] + [[] for _ in spares[1:]]
            built += 1
            for key in reversed(reach[level] if depth + 1 < len(levels) else ()):
                kids = below[key]
                built += sum(len(kids[s]) * len(tails[r - s])
                             for r in spares for s in range(1, r + 1))
                if built > TOPOLOGY_CAP:
                    raise CapacityError(
                        f"topology enumeration exceeded the cap of {TOPOLOGY_CAP}",
                        states_explored=built)
                for r in reversed(spares):  # tails[r - s] are not grown yet
                    tails[r] += [((key, sub),) + rest for s in range(1, r + 1)
                                 for sub in kids[s] for rest in tails[r - s]]
            subtrees[level] = [[]] + [[Topology(level, tail) for tail in table]
                                      for table in tails]
        below = subtrees
    return tuple(top for tops in below[start_level] for top in tops)


# --- configuration DP -------------------------------------------------------


#: A configuration: per topology node, in preorder, the items placed there
#: in group-processing order.
Batches = tuple[tuple[str, ...], ...]


class ConfigDpResult:
    """One configuration DP run of ``topology`` under ``table``.

    Per final state, in the last stage's insertion order: ``sum_ids``
    gives its row of ``sums``, the ``(U, nodes, K+1)`` array of the
    distinct per-node unit sums (first found first); ``chains`` its
    traceback chain (None, or (group index, placement, rest)), which
    ``batches`` unwinds into its configuration; and ``word_ids`` its row of
    ``words``, the distinct occupancy words (bit ``i`` set once node ``i``
    holds an item).  ``states_explored`` counts the states of all stages.

    A topology's candidates are final state ids, ranked: ``ranked`` orders
    the final states once for every topology read off the run, ``project``
    reads the candidates of the topology or of any of its sub-topologies
    off it, and ``candidates`` are the topology's own.  Surrogates of
    ``sums``, the ranking and checked exact values of final states are
    computed on first use and kept, so every topology read off the run
    shares them.
    """

    def __init__(self, table: _SolveTable, topology: Topology, sums: np.ndarray,
                 sum_ids: np.ndarray, chains: Sequence[tuple | None],
                 words: Sequence[int], word_ids: np.ndarray, states_explored: int):
        self.table = table
        self.topology = topology
        self.sums = sums
        self.sum_ids = sum_ids
        self.chains = chains
        self.words = words
        self.word_ids = word_ids
        self.states_explored = states_explored
        self._exact: dict[int, float] = {}

    @cached_property
    def candidates(self) -> np.ndarray:
        """The topology's own candidates: the identity projection."""
        return self.project(tuple(range(len(self.topology.nodes))))

    @cached_property
    def ranked(self) -> np.ndarray:
        """Every final state by descending surrogate, ties in the order
        found (a stable sort): the order ``project`` filters for every
        topology read off the run."""
        return np.argsort(-self.surrogates[self.sum_ids], kind="stable")

    @cached_property
    def _ranked_word_ids(self) -> np.ndarray:
        return self.word_ids[self.ranked]

    def project(self, nodes: tuple[int, ...]) -> np.ndarray:
        """The final state ids a sub-topology's own run keeps as its
        candidates, ranked as it ranks them, where the sub-topology is this
        run's topology with whole subtrees removed and ``nodes`` gives each
        of its nodes, in order, as a node of this run's topology (as
        ``_covers`` maps them).

        A configuration of the sub-topology is one of this run's with the
        removed nodes left empty, and such states are reached, ordered and
        traced back in both runs alike (see ``solve_ptas``).  So the
        candidates are the final states whose occupied nodes all lie in
        ``nodes``, collapsed on equal unit sums, first found; filtering
        ``ranked`` keeps their order.  Equal unit sums share a surrogate,
        so whatever their occupancy words, the first of them in ``ranked``
        is the first found.
        """
        outside = ~sum(1 << c for c in nodes)
        inside = np.array([not word & outside for word in self.words], bool)
        ranked = self.ranked[inside[self._ranked_word_ids]]
        if len(self.sums) < len(self.sum_ids):
            ranked = ranked[np.sort(np.unique(self.sum_ids[ranked], return_index=True)[1])]
        return ranked

    @cached_property
    def surrogates(self) -> np.ndarray:
        """The surrogate value of every row of ``sums``."""
        return _compile_surrogate(self.table, self.topology)(self.sums)

    def batches(self, state: int, nodes: tuple[int, ...] | None = None) -> Batches:
        """Final state ``state``'s configuration, its traceback chain unwound
        into each node's items; with ``nodes``, the node map ``project``
        took, those of the sub-topology's nodes.  The chain runs last group
        first, so each item goes in front of its node's later ones."""
        batches: list[tuple[str, ...]] = [()] * len(self.topology.nodes)
        chain = self.chains[state]
        while chain is not None:
            _g, placement, chain = chain
            for i, action_id in placement:
                batches[i] = (action_id,) + batches[i]
        return tuple(batches) if nodes is None else tuple(batches[c] for c in nodes)

    def exact_values(self, states: Sequence[int]) -> list[float]:
        """``_exact_value`` of each final state in ``states``, computed once
        per state.  A state not valued yet is traced back first, and its
        batches must add up to its row of ``sums`` exactly, else
        ``StructuralError``.

        The check adds up each placed item's ``table.word`` at the slot
        width of ``sums`` (which raises where the action has no row at its
        node's level, or a unit times the horizon does not fit a slot),
        shifted to its node's slots: unit ``w`` of node ``i`` at bit ``(i *
        (K+1) + w)`` times the slot bits, so a configuration's packed sum is
        its row's little-endian bytes read as one integer.  A node may hold
        at most the horizon items (one cap unit per path), so no slot
        carries into the next, and the two integers agree exactly when
        every node's sums do.
        """
        todo = [state for state in dict.fromkeys(states) if state not in self._exact]
        if todo:
            rows = self.sums[self.sum_ids[todo]]
            size = rows.nbytes // len(todo)
            raw = rows.tobytes()
            slot = rows.itemsize
            node_bits = 8 * slot * rows.shape[-1]
            nodes = [(level, i * node_bits)
                     for i, (level, _parent, _key) in enumerate(self.topology.nodes)]
            word = self.table.word
            horizon = self.table.instance.horizon
            for r, state in enumerate(todo):
                batches = self.batches(state)
                total = 0
                for (level, shift), items in zip(nodes, batches):
                    for action_id in items:
                        total += word(action_id, level, slot) << shift
                row = int.from_bytes(raw[r * size:(r + 1) * size], "little")
                if max(map(len, batches)) > horizon or total != row:
                    raise StructuralError("traceback signature sums do not match the "
                                          "configuration")
                self._exact[state] = _exact_value(self.table, self.topology, batches)
        return [self._exact[state] for state in states]


def _risk_units(instance: Instance, eps: float, action_id: str, level: int) -> int:
    """The share of a node's small-risk budget that ``action_id`` takes at
    ``level``.

    The budget eps^2 splits into ``_RISK_UNITS`` units, and an item takes
    its leave mass in units, rounded up; an item whose leave mass exceeds
    eps^2 takes ``_RISK_UNITS + 1``, which only an empty node can give
    (see ``config_dp``).  Units that sum to at most ``_RISK_UNITS`` thus
    certify leave masses that sum to at most eps^2."""
    mu = instance.action(action_id).rows[level].risk_mass(level)
    budget = eps * eps
    if mu > budget:
        return _RISK_UNITS + 1
    return min(math.ceil(mu * _RISK_UNITS / budget), _RISK_UNITS)


def _signature_word(signature: Callable[[str, int], tuple[int, ...]], horizon: int,
                    action_id: str, level: int, slot_bytes: int) -> int:
    """``signature(action_id, level)`` packed into one integer, unit ``w``
    at bit ``w * 8 * slot_bytes``: node 0's slots of a row of unit sums
    held in ``slot_bytes`` a slot (see ``ConfigDpResult.exact_values``).
    Every unit times ``horizon`` must fit a slot, else ``StructuralError``."""
    units = signature(action_id, level)
    bits = 8 * slot_bytes
    if min(units) < 0 or (max(units) * max(horizon, 1)) >> bits:
        raise StructuralError("a signature does not fit the slots of the "
                              "configuration's unit sums")
    return sum(u << (w * bits) for w, u in enumerate(units))


#: Per group in processing order, its member cell at one level: the
#: members with a row there, each with a value (signature or packed word).
_Cells = tuple[tuple[tuple[str, object], ...], ...]


class _SolveTable:
    """What every topology of one solve reads of the instance, each entry
    computed once, on first use, and dropped with the solve.

    Built from (instance, grid, max_ref, eps), which it checks once: grid
    and max_ref must be positive and eps must lie in (0, 1].  It holds the
    groups in processing order (by smallest action id) with their members
    ascending; each (action, level) signature from ``action_signature``
    and risk share from ``_risk_units``; per level, each group's member
    cells (the members with a row there) and their largest unit; those
    cells with each signature packed into one integer per slot width (unit
    ``w`` at bit ``w * slot_bits``), which ``config_dp`` adds; each
    signature packed again per slot width by ``_signature_word``, which
    the traceback check adds; and ``_outcomes`` of each (level, items)
    batch.  It is the one input every per-topology stage reads the
    instance, grid, max_ref and eps from.  It lives for one solve only and
    is never stored on the instance, so a repeated solve computes
    everything again.
    """

    def __init__(self, instance: Instance, grid: float, max_ref: float, eps: float):
        if grid <= 0.0:
            raise ParameterError("grid must be positive")
        if max_ref <= 0.0:
            raise ParameterError("max_ref must be positive")
        if not (0.0 < eps <= 1.0):
            raise ParameterError("eps must lie in (0, 1]")
        self.instance = instance
        self.grid = grid
        self.max_ref = max_ref
        self.eps = eps
        groups: dict[str, list[str]] = {}
        for spec in sorted(instance.actions, key=lambda s: s.id):
            groups.setdefault(spec.group, []).append(spec.id)
        self.members = tuple(tuple(groups[g])
                             for g in sorted(groups, key=lambda g: groups[g][0]))
        #: ``signature(action_id, level)``: ``action_signature``, once per key.
        self.signature = cache(partial(action_signature, instance, grid=grid,
                                       max_ref=max_ref))
        #: ``risk(action_id, level)``: ``_risk_units``, once per key.
        self.risk = cache(partial(_risk_units, instance, eps))
        #: ``word(action_id, level, slot_bytes)``: ``_signature_word``, once
        #: per key.
        self.word = cache(partial(_signature_word, self.signature, instance.horizon))
        #: ``outcomes(level, items)``: ``_outcomes`` of a batch, once per key.
        self.outcomes = cache(partial(_outcomes, instance))
        self._cells: dict[int, tuple[_Cells, int]] = {}
        self._packed: dict[tuple[int, int], _Cells] = {}

    def cells(self, level: int) -> tuple[_Cells, int]:
        """Per group, its members with a row at ``level`` and their
        signatures; and the largest unit among all of them (0 if none)."""
        hit = self._cells.get(level)
        if hit is None:
            action = self.instance.action
            cells = tuple(tuple((a, self.signature(a, level)) for a in members
                                if level in action(a).rows)
                          for members in self.members)
            unit_max = max((max(u) for cell in cells for _a, u in cell), default=0)
            hit = self._cells[level] = (cells, unit_max)
        return hit

    def packed(self, level: int, slot_bits: int) -> _Cells:
        """``cells(level)`` with each signature packed into one integer."""
        key = (level, slot_bits)
        hit = self._packed.get(key)
        if hit is None:
            hit = self._packed[key] = tuple(
                tuple((a, sum(uw << (w * slot_bits) for w, uw in enumerate(u)))
                      for a, u in cell)
                for cell in self.cells(level)[0])
        return hit


def _antichains(n: int, ancestors: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Every nonempty antichain of the ``n`` nodes (no node an ancestor of
    another) as an ascending tuple, in lexicographic order: each antichain
    comes just before its extensions by larger nodes.  A stack of
    (antichain, the larger nodes that may extend it) frames stands in for
    recursion."""
    comparable = [set(anc) for anc in ancestors]
    for i, anc in enumerate(ancestors):
        for a in anc:
            comparable[a].add(i)
    out: list[tuple[int, ...]] = []
    stack: list[tuple[tuple[int, ...], Sequence[int]]] = [((), range(n))]
    while stack:
        chosen, later = stack.pop()
        if chosen:
            out.append(chosen)
        # The extension by the first later node pops next, so all of its
        # own extensions come before the extension by the second.
        for k in range(len(later) - 1, -1, -1):
            i = later[k]
            blocked = comparable[i]
            stack.append((chosen + (i,), [j for j in later[k + 1:] if j not in blocked]))
    return out


def config_dp(table: _SolveTable, topology: Topology, *,
              state_cap: int = DEFAULT_STATE_CAP,
              cover_masks: Sequence[int] = ()) -> ConfigDpResult:
    """Forward reachability over configurations.

    Groups are folded in one at a time (ordered by their smallest action
    id); each may be skipped or placed on any antichain of topology nodes,
    choosing one member action per placed node.  Every placement consumes
    one cap unit on each root-to-leaf path through the antichain (the
    instance's horizon per path).  A placement also keeps the small-risk
    property P1 of every node it touches: a node holds one item of any
    leave mass, or several whose risk shares (``_risk_units`` at the
    table's eps) sum to at most ``_RISK_UNITS``, so their leave masses sum
    to at most eps^2.
    States are per-node signature sums plus residual caps and risk.  A
    state reached by skipping a group keeps that skip as its traceback;
    otherwise the first placement to reach it wins.

    The instance, groups, signatures, risk shares, member cells and packed
    signature words come from ``table``, the per-solve table that
    ``solve_ptas`` builds once and shares among its topologies.  What
    depends on the topology is done here: antichains, paths, placement
    combinations, and shifting each packed word to its node's slots.

    A stage expands each state only by the placements that fit it: those
    whose covered paths all have a cap unit left and whose nodes all have
    the risk left.  States share their residual caps and risk often, so
    each stage lists the fitting placements (in placement order) once per
    distinct residual word, when that word first appears.  A state with no
    cap left is carried like any other: its skip keeps it, and no
    placement fits it.  So the run of a sub-topology (whole subtrees
    removed) is this run restricted to the states whose removed nodes are
    empty, state for state and in order, which ``ConfigDpResult.project``
    reads off; a state's occupancy word says which nodes hold an item.

    With ``cover_masks`` (node masks of sub-topologies, bit ``i`` for node
    ``i``), a placement is kept only where the occupancy word after it
    lies inside one of them.  Occupancy only grows, so every state whose
    occupancy lies inside a mask is still reached, in the same order and
    with the same traceback, and each masked sub-topology reads off the
    run as before.  The masks' subsets are listed once, antichains outside
    them are dropped, and the fitting placements are listed per (caps,
    occupancy) word instead of per caps word; without masks none of this
    runs.

    The result holds the final states in the last stage's insertion order:
    their distinct unit sums, unpacked in one numpy pass, and per state its
    sums' row, occupancy word and traceback chain.  Its ``candidates`` are
    the ids of the first found final state of each unit sum, ranked by
    surrogate; nothing is traced back until a candidate is valued or read.
    """
    instance = table.instance
    cap = instance.horizon
    levels = [level for level, _, _ in topology.nodes]
    n_nodes = len(levels)
    ancestors: list[tuple[int, ...]] = []
    for _level, parent, _key in topology.nodes:
        ancestors.append(() if parent < 0 else ancestors[parent] + (parent,))
    inner = {parent for _, parent, _ in topology.nodes}
    paths = [ancestors[i] + (i,) for i in range(n_nodes) if i not in inner]
    width = instance.values.level_count + 1

    # States are packed into single integers.  The low word holds the
    # residual caps (one slot per path), then the residual risk (one slot
    # per node), then the occupancy word (one bit per node, set with the
    # node's first item); the high bits hold the per-node unit sums (slots
    # of a whole unsigned dtype, wide enough that no reachable sum can
    # carry between them, so the sums unpack as that dtype).  Only
    # placements that leave every covered path a unit and every touched
    # node its risk are ever added, so no low slot underflows.
    cb = max(cap.bit_length(), 1)
    caps_bits = len(paths) * cb
    caps_all = (1 << caps_bits) - 1
    slot_all = (1 << cb) - 1
    init_key = 0
    for j in range(len(paths)):
        init_key |= cap << (j * cb)
    # A node's risk slot reads ``risk_empty`` until its first item, which
    # also spends one unit: ``_RISK_UNITS + 1 - share`` is left after it, so
    # a lone item over eps^2 leaves 0, small ones leave at least 1, and a
    # later item fits only where more than its share is left.
    risk_empty = _RISK_UNITS + 2
    rb = risk_empty.bit_length()
    risk_all = (1 << rb) - 1
    risk_shift = [caps_bits + i * rb for i in range(n_nodes)]
    for shift in risk_shift:
        init_key |= risk_empty << shift
    occ_shift = caps_bits + n_nodes * rb
    occ_all = (1 << n_nodes) - 1
    low_bits = occ_shift + n_nodes
    low_all = (1 << low_bits) - 1
    unit_max = max(table.cells(level)[1] for level in set(levels))
    sum_bits = (cap * unit_max).bit_length()
    if sum_bits > 64:
        raise ParameterError("unit sums do not fit 64 bits; the grid is too fine")
    slot_dtype = np.dtype(f"<u{next(b for b in (1, 2, 4, 8) if 8 * b >= sum_bits)}")
    sb = 8 * slot_dtype.itemsize

    # With cover masks, ``inside`` holds every occupancy word inside one,
    # and a placement's fit is listed per (caps, occupancy) word.
    inside: set[int] | None = None
    open_all = caps_all
    if cover_masks:
        inside = {0}
        for cover in cover_masks:
            sub = cover
            while sub:
                inside.add(sub)
                sub = (sub - 1) & cover
        open_all |= occ_all << occ_shift

    # Per antichain: its nodes, the mask of the paths it covers, and the
    # caps it spends (one unit in each covered path's slot).
    path_masks = [sum(1 << j for j, path in enumerate(paths) if i in path)
                  for i in range(n_nodes)]
    covers: list[tuple[tuple[int, ...], int, int]] = []
    for chain in _antichains(n_nodes, ancestors):
        if inside is not None and sum(1 << i for i in chain) not in inside:
            continue
        mask = 0
        for i in chain:
            mask |= path_masks[i]
        covers.append((chain, mask, sum(1 << (j * cb) for j in range(len(paths))
                                        if mask >> j & 1)))

    # Per group: (covered path mask, packed delta, placement tuple, per
    # touched node its (index, risk share, first-item delta)), in antichain
    # order, then member order node by node; with cover masks, also each
    # delta's node mask.  The delta adds the unit sums and subtracts the
    # covered caps and the risk shares in one integer add; a node's first
    # item also spends one more risk unit and sets the node's occupancy
    # bit, per residual word.
    packed = [table.packed(level, sb) for level in levels]
    risk = table.risk
    deltas_by_group: list[list[tuple[int, int, tuple[tuple[int, str], ...],
                                     tuple[tuple[int, int, int], ...]]]] = []
    nodes_by_group: list[list[int]] = []
    for g in range(len(table.members)):
        # Per node: (packed word shifted to the node's slots, less its risk
        # share, (node, action), (node, risk share, first-item delta)) of
        # each member with a row at the node's level.
        at_node = []
        for i in range(n_nodes):
            unit = 1 << risk_shift[i]
            first = (1 << (occ_shift + i)) - unit
            cell = []
            for a, word in packed[i][g]:
                share = risk(a, levels[i])
                cell.append(((word << (low_bits + i * width * sb)) - share * unit,
                             (i, a), (i, share, first)))
            at_node.append(cell)
        deltas = []
        for chain, mask, spent in covers:
            per_node = [at_node[i] for i in chain]
            if not all(per_node):
                continue
            for combo in product(*per_node):
                words, placement, need = zip(*combo)
                deltas.append((mask, sum(words) - spent, placement, need))
        deltas_by_group.append(deltas)
        if inside is not None:
            nodes_by_group.append([sum(1 << i for i, _a in placement)
                                   for _mask, _d, placement, _need in deltas])

    # Each state maps to its traceback chain: None at the start, else
    # (group index, placement, the chain it extends).  A skip reuses its
    # state's chain, so only placements add links.
    prev: dict[int, tuple | None] = {init_key: None}
    explored = 1
    for g, deltas in enumerate(deltas_by_group):
        nxt: dict[int, tuple | None] = {}
        # Caps word (with cover masks, caps and occupancy word) -> the
        # deltas whose covered paths all have a unit left (and that leave
        # the occupancy inside a mask); residual word -> the (delta,
        # placement) pairs of those that also have the risk left on every
        # node they touch.  Both keep delta order.
        opened: dict[int, list] = {}
        fitting: dict[int, list[tuple[int, tuple[tuple[int, str], ...]]]] = {}
        for key, chain in prev.items():
            word = key & low_all
            fits = fitting.get(word)
            if fits is None:
                open_word = word & open_all
                open_deltas = opened.get(open_word)
                if open_deltas is None:
                    open_paths = sum(1 << j for j in range(len(paths))
                                     if open_word >> (j * cb) & slot_all)
                    if inside is None:
                        open_deltas = [delta for delta in deltas
                                       if not delta[0] & ~open_paths]
                    else:
                        occ = open_word >> occ_shift
                        open_deltas = [delta for delta, nodes in zip(deltas, nodes_by_group[g])
                                       if not delta[0] & ~open_paths and occ | nodes in inside]
                    opened[open_word] = open_deltas
                left = [word >> shift & risk_all for shift in risk_shift]
                fits = fitting[word] = []
                for _covered, d, placement, need in open_deltas:
                    for i, share, first in need:
                        if left[i] == risk_empty:
                            d += first
                        elif left[i] <= share:
                            break
                    else:
                        fits.append((d, placement))
            nxt[key] = chain  # skip the group; this overrides a placement
            for d, placement in fits:
                new_key = key + d
                if new_key not in nxt:
                    nxt[new_key] = (g, placement, chain)
            if len(nxt) > state_cap:
                raise CapacityError(
                    f"configuration DP exceeded the state cap of {state_cap}",
                    states_explored=explored + len(nxt))
        explored += len(nxt)
        prev = nxt

    # Distinct unit sums and occupancy words get ids in first-found order.
    sum_index: dict[int, int] = {}
    sum_ids = [sum_index.setdefault(key >> low_bits, len(sum_index)) for key in prev]
    word_index: dict[int, int] = {}
    word_ids = [word_index.setdefault(key >> occ_shift & occ_all, len(word_index))
                for key in prev]
    sum_bytes = n_nodes * width * slot_dtype.itemsize
    raw = b"".join(map(int.to_bytes, sum_index, repeat(sum_bytes), repeat("little")))
    sums = np.frombuffer(raw, slot_dtype).reshape(len(sum_index), n_nodes, width)
    return ConfigDpResult(table, topology, sums, np.array(sum_ids, np.intp),
                          list(prev.values()), tuple(word_index),
                          np.array(word_ids, np.intp), explored)


# --- reconstruction and scoring ---------------------------------------------


def _compile_surrogate(table: _SolveTable, topology: Topology):
    """Flatten the topology into a children-first program over its reversed
    preorder table, and return a scorer that runs it over an ``(N, nodes,
    K+1)`` unit array: one surrogate value per row, without recursion.
    Mass units are worth the table's grid, profit units grid times max_ref.

    Per node: profit is the rounded sum, upward masses are the rounded sums
    clipped to 1, and the flat mass is whatever is left; transitions without
    a topology child fall to a terminal leaf.  The float operations are
    those of a per-row evaluation, elementwise and in the same order: a zero
    unit adds a zero product and a nonpositive flat mass a zero, which leave
    every sum bit for bit as it was.
    """
    instance = table.instance
    K = instance.values.level_count
    terminal = instance.terminal
    grid = table.grid
    profit_grid = grid * table.max_ref
    nodes = topology.nodes
    n = len(nodes)
    prog: list[tuple[int, int, tuple[tuple[int, int | None], ...], int | None]] = []
    for idx in range(n - 1, -1, -1):
        level = nodes[idx][0]
        kids = topology.child_index[idx]
        ups = tuple((j, kids.get(j)) for j in range(level + 1, K))
        prog.append((idx, level, ups, kids.get(level)))

    def score(units: np.ndarray) -> np.ndarray:
        live = units.any(axis=0).tolist()
        vals: list = [None] * n
        for idx, level, ups, flat_child in prog:
            total = units[:, idx, K] * profit_grid
            up_total = 0.0
            for j, ci in ups:
                if live[idx][j]:
                    pj = np.minimum(units[:, idx, j] * grid, 1.0)
                    up_total = up_total + pj
                    total += pj * (terminal[j] if ci is None else vals[ci])
            flat = np.maximum(1.0 - up_total, 0.0)
            total += flat * (terminal[level] if flat_child is None else vals[flat_child])
            vals[idx] = total
        return vals[0]

    return score


def materialize(table: _SolveTable, topology: Topology, batches: Batches) -> BlockNode:
    """Build the concrete block tree of a configuration, children first
    over the reversed preorder table.

    Each node holds its batch, items in group-processing order;
    transitions the items can realize but the topology does not cover
    become terminal leaves, and a node that can stay flat keeps a flat
    child.  Each node's outcome keys come from the table's ``outcomes``.
    """
    nodes = topology.nodes

    # Reversed preorder reaches siblings last to first, so each list of
    # (key, child) pairs is reversed back into topology order.
    built: list[list[tuple[int, BlockNode]]] = [[] for _ in nodes]
    for idx in range(len(nodes) - 1, -1, -1):
        level, parent, key = nodes[idx]
        items = batches[idx]
        children = dict(reversed(built[idx]))
        node = BlockNode(items, level, children)
        _profit, _edges, outcomes, _stopped = table.outcomes(level, items)
        for j, _mass in outcomes:
            if j not in children:
                children[j] = block_leaf(j)
        if parent >= 0:
            built[parent].append((key, node))
    return node


def _outcomes(instance: Instance, level: int, items: tuple[str, ...]
              ) -> tuple[float, list[tuple[int, float]], list[tuple[int, float]], float]:
    """``batch_outcomes`` of ``items`` probed from ``level`` in that order,
    under exact masses: the batch profit, its (key, mass) outcomes in edge
    order, and those outcomes before zero masses are dropped, whose keys
    ``materialize`` gives a child; then the batch's value where every
    outcome stops at its terminal payoff, which ``_exact_value`` folds as
    it folds any node."""
    profit, edges, keys = batch_outcomes(instance, BlockNode(items, level),
                                         batch_masses_exact)
    stopped = profit
    for j, mass in edges:
        stopped += mass * instance.terminal[j]
    return profit, edges, keys, stopped


def _exact_value(table: _SolveTable, topology: Topology, batches: Batches) -> float:
    """Exact block value of the tree ``materialize`` builds from
    ``batches``, computed over the reversed preorder table without
    building it.

    The table's ``outcomes(level, items)`` gives ``_outcomes`` of a node's
    items in group order.  Each node adds mass times child value to its
    batch profit, outcome by outcome, as ``block_profit_exact`` does; a key
    without a topology child takes its terminal payoff, so a node without
    children takes the batch's stopped value, that fold done once per
    batch.  The float operations are the same, so the value is the same
    bit for bit.
    """
    outcomes = table.outcomes
    nodes = topology.nodes
    child_index = topology.child_index
    terminal = table.instance.terminal
    values = [0.0] * len(nodes)
    for idx in range(len(nodes) - 1, -1, -1):
        profit, edges, _keys, stopped = outcomes(nodes[idx][0], batches[idx])
        kids = child_index[idx]
        if not kids:
            values[idx] = stopped
            continue
        for j, mass in edges:
            ci = kids.get(j)
            profit += mass * (terminal[j] if ci is None else values[ci])
        values[idx] = profit
    return values[0]


def _covers(topologies: Sequence[Topology]) -> list[tuple[int, tuple[int, ...]]]:
    """Per topology, the index of its cover and its node map into it: the
    topology itself and the identity when no other topology in
    ``topologies`` extends it by a leaf, else the cover of the first such
    extension and that extension's map without the leaf.  Topologies are
    visited largest first, so an extension's cover and map are known
    before the topologies it extends."""
    index = {top.nodes: i for i, top in enumerate(topologies)}
    found: list[tuple[int, tuple[int, ...]] | None] = [None] * len(topologies)
    for i in sorted(range(len(topologies)), key=lambda i: -len(topologies[i].nodes)):
        nodes = topologies[i].nodes
        if found[i] is None:
            found[i] = (i, tuple(range(len(nodes))))
        cover, node_map = found[i]
        inner = {parent for _level, parent, _key in nodes}
        for leaf in range(1, len(nodes)):
            if leaf in inner:
                continue
            # Removing a leaf shifts every later row, and every parent
            # index past it, down by one.
            sub = nodes[:leaf] + tuple((level, parent - (parent > leaf), key)
                                       for level, parent, key in nodes[leaf + 1:])
            j = index.get(sub)
            if j is not None and found[j] is None:
                found[j] = (cover, node_map[:leaf] + node_map[leaf + 1:])
    return found


def _union_star(topologies: Sequence[Topology], covers: Sequence[int]
                ) -> tuple[Topology, list[tuple[int, ...]], list[int]] | None:
    """The one run a star solve's covers can share: when every topology is
    a star (a root and leaves), there are at least two covers, and the
    union star (the root and every leaf key, ascending) has at most
    ``_UNION_STAR_NODES`` nodes, returns that star, each topology's
    key-matched node map into it, and the node mask of each cover in
    ``covers`` (topology indices); else None.

    Every state of the union's run carries every union node, and the run
    holds the states of all covers at once, so a wide union costs more
    time and memory than its covers' runs one after another: the bound
    keeps such solves on their covers."""
    if len(covers) < 2 or any(child.children for top in topologies
                              for _key, child in top.children):
        return None
    leaves = dict(child for top in topologies for child in top.children)
    if 1 + len(leaves) > _UNION_STAR_NODES:
        return None
    union = Topology(topologies[0].level, tuple(sorted(leaves.items())))
    row = {key: i for i, (key, _leaf) in enumerate(union.children, 1)}
    maps = [(0,) + tuple(row[key] for key, _leaf in top.children) for top in topologies]
    return union, maps, [sum(1 << c for c in maps[ci]) for ci in covers]


#: The stages ``PtasDiagnostics.seconds`` times, in pipeline order.
_STAGES = ("enumerate", "dp", "rank", "rescore", "materialize")


def _rescore(run: ConfigDpResult, ranked: np.ndarray, top_k: int,
             lap: Callable[[str], None] = lambda _stage: None
             ) -> tuple[int, float] | None:
    """Of the first ``top_k`` of ``ranked`` (final state ids of ``run`` by
    descending surrogate, as ``ConfigDpResult.project`` reads them off),
    the first with the strictly best exact value, as (state, value); None
    when ``ranked`` is empty.  ``run.exact_values`` traces back, checks and
    values each state once per run, without building a tree.  ``lap`` is
    called with "rank" and "rescore" as those stages end."""
    if len(ranked) == 0:
        return None
    top = ranked[:top_k].tolist()
    lap("rank")
    values = run.exact_values(top)
    best = max(range(len(top)), key=values.__getitem__)
    lap("rescore")
    return top[best], values[best]


def estimate_max(instance: Instance, hint: str) -> float:
    """Reference scale for grids and loss bounds.

    ``exact`` solves the instance from every start level; ``greedy_probemax``
    reads the greedy set value a builder attached; ``terminal_bound`` is the
    coarse certain upper bound max terminal plus horizon times best profit.
    """
    if hint == "exact":
        return max_over_starts(instance)
    if hint == "greedy_probemax":
        if instance.meta.get("kind") != "probemax" or "greedy_value" not in instance.meta:
            raise HintError("greedy_probemax hint needs a probemax-built instance")
        return float(instance.meta["greedy_value"])
    if hint == "terminal_bound":
        best_g = max((row.profit for spec in instance.actions
                      for row in spec.rows.values()), default=0.0)
        return max(instance.terminal) + instance.horizon * max(0.0, best_g)
    raise HintError(f"unknown reference-scale hint {hint!r}")


# --- end-to-end solver -------------------------------------------------------


@dataclass
class PtasKnobs:
    """Tuning knobs.  The theory couples them all to eps (grid eps^4 over the
    action count, budgets exponential in 1/eps^3); they are exposed
    independently so desk-scale runs stay tractable."""

    eps: float = 0.3
    grid: float = 0.05
    block_budget: int = 4
    depth_limit: int = 3
    top_k: int = 32
    max_hint: str = "exact"
    state_cap: int = DEFAULT_STATE_CAP


@dataclass
class PtasDiagnostics:
    """Counts of one solve.  ``max_ref_source`` names where ``max_ref``
    came from: the ``max_hint`` that estimated it ("exact",
    "greedy_probemax" or "terminal_bound"), or "fallback" when that
    estimate was not positive and 1.0 was used instead.  ``dp_runs``
    counts the configuration DP runs the solve made, failed runs included:
    one over the union star when a star solve's covers share it (see
    ``solve_ptas``); else, or after that run hit the state cap, one per
    cover plus one per member of a cover whose run hit the state cap.
    ``states_explored`` counts the states of those runs.
    ``candidates`` (configurations kept) and ``materialized``
    (configurations exactly rescored, at most ``top_k`` per topology,
    without building a tree) are summed over the completed topologies.
    ``best_surrogate`` is the surrogate value of the returned tree's
    configuration and ``surrogate_gap`` that minus the returned value; both
    are None when the do-nothing policy is returned.  ``seconds`` holds
    the ``perf_counter`` seconds of the stages enumerate, dp, rank, rescore
    and materialize, summed over topologies.  Rank times reading a
    topology's ranked candidates off its run, which for the first topology
    read off a run includes scoring and ranking all the run's final states;
    rescore times tracing back, checking and valuing the top_k not valued
    yet; materialize times building and checking the winner's one tree.
    It is wall time, so it differs between runs."""

    max_ref: float
    max_ref_source: str
    topologies: int = 0
    completed: int = 0
    capacity_errors: int = 0
    states_explored: int = 0
    dp_runs: int = 0
    candidates: int = 0
    materialized: int = 0
    best_topology: int = -1
    best_surrogate: float | None = None
    surrogate_gap: float | None = None
    seconds: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(_STAGES, 0.0))

    @property
    def partial(self) -> bool:
        """Whether some topology's DP hit the state cap and was skipped."""
        return self.capacity_errors > 0


@dataclass
class PtasResult:
    tree: BlockNode
    value: float
    diagnostics: PtasDiagnostics


def solve_ptas(instance: Instance, knobs: PtasKnobs) -> PtasResult:
    """Run the full pipeline and return the best exactly-scored block tree.

    Topologies are enumerated over the instance's ``level_reach`` table: a
    child at a level its parent's rows never reach is entered only below an
    item-less parent, whose subtree a smaller topology already offers, so
    those topologies are not searched.  Every other topology is searched
    and rescored, and the first strictly best exact value in enumeration
    order wins; the do-nothing policy wins ties.

    The configuration DP runs once per cover (``_covers``): an enumerated
    topology that no other enumerated topology extends by whole subtrees.
    Every other topology is a member of one cover, and reads its ranked
    candidates off the cover's run through its node map
    (``ConfigDpResult.project``), as its own run would give them.  If a
    cover's run hits the state cap, each of its members runs its own DP
    and reads itself off it through the identity map.

    A star solve (every topology a root and leaves, as always where
    ``min(depth_limit, horizon) <= 2``) with several covers and a small
    union star (``_union_star``) runs the DP once, on the root and every
    leaf key, with the covers' node masks: only states whose occupied
    nodes lie inside one cover are kept, and those are the states the
    covers' own runs reach, in the same order and with the same
    tracebacks.  Every topology reads itself off that run through its
    key-matched node map.  If that run hits the state cap, the covers run
    as above.

    Each topology rescores its top_k from its run's exact values
    (``_rescore``) and keeps its winner's value, batches on its own nodes
    and surrogate; a cover's run is dropped once its members are done.
    Only the solve's winner is built into a tree, once, and that tree must
    score its value under ``block_profit_exact``, else ``StructuralError``.

    The DP keeps the small-risk property P1 at ``knobs.eps``, so
    every candidate, and so the returned tree, passes
    ``check_block_properties(...).p1_ok``; and a multi-item block leaves
    its level with at most eps^2, which bounds how far the surrogate's
    order-free sums can rate it above its exact value (``surrogate_gap``
    reports the winner's gap).  Per-topology capacity failures are
    recorded and skipped; the result is then flagged partial.  Topology
    enumeration past ``TOPOLOGY_CAP`` raises instead.  The do-nothing
    policy is always a candidate, so the returned value is at least the
    start level's terminal payoff.
    """
    report = validate_instance(instance)
    if not report.compliant:
        raise ParameterError(
            "solve_ptas needs a compliant instance; violations: "
            + "; ".join(report.violations[:3]))
    if not (0.0 < knobs.eps <= 1.0):
        raise ParameterError("eps must lie in (0, 1]")
    if knobs.grid <= 0.0:
        raise ParameterError("grid must be positive")
    for name in ("top_k", "block_budget", "depth_limit", "state_cap"):
        if getattr(knobs, name) < 1:
            raise ParameterError(f"{name} must be at least 1")
    max_ref = estimate_max(instance, knobs.max_hint)
    max_ref_source = knobs.max_hint
    if max_ref <= 0.0:
        # Degenerate all-zero instance; any scale works.
        max_ref, max_ref_source = 1.0, "fallback"
    diag = PtasDiagnostics(max_ref=max_ref, max_ref_source=max_ref_source)
    start = instance.start_level
    if instance.horizon == 0:
        return PtasResult(block_leaf(start), instance.terminal[start], diag)
    table = _SolveTable(instance, knobs.grid, max_ref, knobs.eps)
    clock = [perf_counter()]

    def lap(stage: str) -> None:
        now = perf_counter()
        diag.seconds[stage] += now - clock[0]
        clock[0] = now

    depth_eff = min(knobs.depth_limit, instance.horizon)
    topologies = enumerate_topologies(level_reach(instance), knobs.block_budget,
                                      depth_eff, start)
    diag.topologies = len(topologies)
    members: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for ti, (ci, nodes) in enumerate(_covers(topologies)):
        members.setdefault(ci, []).append((ti, nodes))
    lap("enumerate")

    def run(topo: Topology, cover_masks: Sequence[int] = ()) -> ConfigDpResult | None:
        diag.dp_runs += 1
        try:
            result = config_dp(table, topo, state_cap=knobs.state_cap,
                               cover_masks=cover_masks)
        except CapacityError as err:
            diag.states_explored += err.states_explored
            return None
        finally:
            lap("dp")
        diag.states_explored += result.states_explored
        return result

    found: list[tuple[float, Batches, float] | None] = [None] * len(topologies)

    def read(ti: int, dp: ConfigDpResult, nodes: tuple[int, ...]) -> None:
        ranked = dp.project(nodes)
        if (winner := _rescore(dp, ranked, knobs.top_k, lap)) is not None:
            state, value = winner
            found[ti] = (value, dp.batches(state, nodes),
                         float(dp.surrogates[dp.sum_ids[state]]))
        diag.completed += 1
        diag.candidates += len(ranked)
        diag.materialized += min(knobs.top_k, len(ranked))

    star = _union_star(topologies, list(members))
    if star is not None and (dp := run(star[0], star[2])) is not None:
        for ti, nodes in enumerate(star[1]):
            read(ti, dp, nodes)
    else:
        for ci, group in members.items():
            cover = run(topologies[ci])
            for ti, nodes in group:
                dp = cover
                if dp is None and ti != ci:
                    dp, nodes = run(topologies[ti]), tuple(range(len(nodes)))
                if dp is None:
                    diag.capacity_errors += 1
                    continue
                read(ti, dp, nodes)
            # Drop this cover's run before the next one starts.
            cover = dp = None
    dp = None
    best_value = instance.terminal[start]
    for ti, outcome in enumerate(found):
        if outcome is not None and outcome[0] > best_value:
            best_value, diag.best_topology = outcome[0], ti
    if diag.best_topology < 0:
        return PtasResult(block_leaf(start), best_value, diag)
    _value, batches, diag.best_surrogate = found[diag.best_topology]
    tree = materialize(table, topologies[diag.best_topology], batches)
    if block_profit_exact(instance, tree) != best_value:
        raise StructuralError("the materialized tree does not score its "
                              "rescored value")
    lap("materialize")
    diag.surrogate_gap = diag.best_surrogate - best_value
    return PtasResult(tree, best_value, diag)
