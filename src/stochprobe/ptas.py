"""Signature-based approximation pipeline.

Blocks are summarized by signatures: transition masses and expected profit
floored onto a grid and stored in integer grid units, so block signatures
are entrywise sums of action signatures.  The solver enumerates small block
topologies over the levels the instance's rows can reach, runs a forward
reachability DP over per-node signature sums under per-path placement caps
and the small-risk property P1 (a node holds one item of any leave mass, or
several whose leave masses sum to at most eps^2), once per topology that no
other extends and read off by every topology it extends; a star solve
with a small union star runs once, over that star, instead.  Each run's
configurations are ranked once by a batched surrogate, and every topology
read off the run takes its own from that order; the most promising of
every topology read off a run are traced back, checked against their unit
sums and valued together, in one vectorized pass per run.  Only the solve's
winner is built into a concrete block tree, once, and that tree is checked
to score its value.
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
    ``traceback`` unwinds into per-node action masks and ``batches`` into
    its configuration; and ``word_ids`` its row of ``words``, the distinct
    occupancy words (bit ``i`` set once node ``i`` holds an item).
    ``states_explored`` counts the states of all stages.

    A topology's candidates are final state ids, ranked: ``ranked`` orders
    the final states once for every topology read off the run, ``project``
    reads the candidates of the topology or of any of its sub-topologies
    off it, and ``candidates`` are the topology's own.  Surrogates of
    ``sums`` and the ranking are computed on first use and kept, so every
    topology read off the run shares them.  ``exact_values`` traces back,
    checks and values any set of final states in one vectorized pass;
    ``solve_ptas`` calls it once per run, on the union of the top_k of
    every topology read off the run.
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

    def traceback(self, states: Sequence[int]) -> list[int]:
        """The traceback chains of the final states in ``states`` unwound
        into one action mask per node, state after state: node ``i``'s mask
        in the ``r``-th state is entry ``r * nodes + i``.  A mask sets the
        bit ``table.bit[a]`` where the node holds ``a``.  A node holds at
        most one member of any group, and the bits follow the
        group-processing order, so ``table.items`` reads a mask back into
        the node's items in order."""
        bit = self.table.bit
        n_nodes = len(self.topology.nodes)
        traced: list[int] = []
        for state in states:
            masks = [0] * n_nodes
            chain = self.chains[state]
            while chain is not None:
                _g, placement, chain = chain
                for i, action_id in placement:
                    masks[i] |= bit[action_id]
            traced += masks
        return traced

    def batches(self, state: int, nodes: tuple[int, ...] | None = None) -> Batches:
        """Final state ``state``'s configuration, its ``traceback`` read back
        into each node's items; with ``nodes``, the node map ``project``
        took, those of the sub-topology's nodes."""
        masks = self.traceback((state,))
        items = self.table.items
        return tuple(items(masks[c]) for c in (range(len(masks)) if nodes is None else nodes))

    def exact_values(self, states: Sequence[int]) -> list[float]:
        """The exact value of each final state in ``states``: what
        ``block_profit_exact`` gives the tree ``materialize`` builds from its
        batches.  The distinct states are traced back, checked and valued
        together, node by node, children first over the reversed preorder
        table, without building a tree or a batch per state.

        Traceback: every chain is unwound into per-node action masks
        (``traceback``), and each node's distinct masks get ids.  Check:
        each distinct mask may hold at most the horizon items (one cap unit
        per path); every item's signature (``table.signature``, which raises
        where the action has no row at the node's level) must have no
        negative unit, and each unit times the horizon must fit a slot of
        ``sums``, so the DP's packed sums cannot have carried between
        slots; and the mask's summed signature must equal the node's row of
        ``sums`` for every state holding it, compared in one numpy
        comparison per node.  Any failure raises ``StructuralError``.  The
        DP's own packed words are not read.

        Fold: each node's value is an array over the states.  A node
        without topology children takes its batch's stopped value.  Any
        other node adds to its batch profit, outcome by outcome in edge
        order, mass times the child's value; an outcome without a child
        adds ``mass * terminal[j]``, read as that product times a row of
        ones, and a batch with fewer outcomes than the widest at the node
        adds ``(1.0 * -0.0) * 1.0``, which leaves every float as it is.
        These are the IEEE operations of ``block_profit_exact``, in its
        order, so every value is its value bit for bit.  The fold runs
        under ``np.errstate``, so an overflow gives inf silently, as it
        does in Python floats.
        """
        todo = list(dict.fromkeys(states))
        if not todo:
            return []
        table = self.table
        terminal = table.instance.terminal
        horizon = table.instance.horizon
        nodes = self.topology.nodes
        n_nodes = len(nodes)
        rows = self.sum_ids[todo]
        slot_bits = 8 * self.sums.itemsize
        traced = self.traceback(todo)
        # Rows 0..n_nodes-1 take each node's values, children first; the
        # last row is ones.
        values = np.empty((n_nodes + 1, len(todo)))
        values[n_nodes] = 1.0
        states_at = np.arange(len(todo))
        with np.errstate(over="ignore", invalid="ignore"):
            for idx in range(n_nodes - 1, -1, -1):
                level = nodes[idx][0]
                index: dict[int, int] = {}
                ids = np.array([index.setdefault(mask, len(index))
                                for mask in traced[idx::n_nodes]], np.intp)
                batches = list(map(table.items, index))
                units = [table.units(level, items) for items in batches]
                if any(smallest < 0 or (largest * max(horizon, 1)) >> slot_bits
                       for _total, largest, smallest in units):
                    raise StructuralError("a signature does not fit the slots of the "
                                          "configuration's unit sums")
                if max(map(len, batches)) > horizon or not np.array_equal(
                        np.array([total for total, *_ in units], self.sums.dtype)[ids],
                        self.sums[rows, idx]):
                    raise StructuralError("traceback signature sums do not match the "
                                          "configuration")
                outcomes = [table.outcomes(level, items) for items in batches]
                kids = self.topology.child_index[idx]
                if not kids:
                    values[idx] = np.array([stopped for *_, stopped in outcomes])[ids]
                    continue
                width = max(len(edges) for _profit, edges, _keys, _stopped in outcomes)
                coefs = np.full((width, len(outcomes)), 1.0 * -0.0)
                reads = np.full((width, len(outcomes)), n_nodes, np.intp)
                for d, (_profit, edges, _keys, _stopped) in enumerate(outcomes):
                    for k, (j, mass) in enumerate(edges):
                        ci = kids.get(j)
                        if ci is None:
                            coefs[k, d] = mass * terminal[j]
                        else:
                            coefs[k, d], reads[k, d] = mass, ci
                value = np.array([profit for profit, *_ in outcomes])[ids]
                for coef, read in zip(coefs, reads):
                    value += coef[ids] * values[read[ids], states_at]
                values[idx] = value
        value_of = dict(zip(todo, values[0].tolist()))
        return [value_of[state] for state in states]


def _risk_units(instance: Instance, eps: float, action_id: str, level: int) -> int:
    """The share of a node's small-risk budget that ``action_id`` takes at
    ``level``.

    The budget eps^2 splits into ``_RISK_UNITS`` units, and an item takes
    its leave mass in units, rounded up; an item whose leave mass exceeds
    eps^2 takes ``_RISK_UNITS + 1``, the whole slot a node starts with in
    ``config_dp``, which only an empty node (by its occupancy bit) can give.
    Units that sum to at most ``_RISK_UNITS`` thus certify leave masses
    that sum to at most eps^2."""
    mu = instance.action(action_id).rows[level].risk_mass(level)
    budget = eps * eps
    if mu > budget:
        return _RISK_UNITS + 1
    return min(math.ceil(mu * _RISK_UNITS / budget), _RISK_UNITS)


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
    ``w`` at bit ``w * slot_bits``), which ``config_dp`` adds; one bit per
    action, in group-processing order, and the items of each action mask
    (``_mask_items``), which the traceback reads; the summed signature of
    each (level, items) batch (``_batch_units``), which the traceback
    check compares; and ``_outcomes`` of each (level, items) batch.  It is
    the one input every per-topology stage reads the
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
        actions = tuple(a for group in self.members for a in group)
        #: ``bit[a]``: action ``a``'s bit in a node's action mask, the bits
        #: in group-processing order.
        self.bit = {a: 1 << i for i, a in enumerate(actions)}
        #: ``items(mask)``: ``_mask_items``, once per key.
        self.items = cache(partial(_mask_items, actions))
        #: ``units(level, items)``: ``_batch_units``, once per key.
        self.units = cache(partial(_batch_units, instance.values.level_count + 1,
                                   self.signature))
        #: ``outcomes(level, items)``: ``_outcomes`` of a batch, once per key.
        self.outcomes = cache(partial(_outcomes, instance))
        #: ``cells(level)``: ``_level_cells``, once per key.
        self.cells = cache(partial(_level_cells, instance, self.members, self.signature))
        #: ``packed(level, slot_bits)``: ``_packed_cells``, once per key.
        self.packed = cache(partial(_packed_cells, self.cells))


def _mask_items(actions: Sequence[str], mask: int) -> tuple[str, ...]:
    """The actions whose bits ``mask`` sets, lowest bit first."""
    items = []
    while mask:
        low = mask & -mask
        items.append(actions[low.bit_length() - 1])
        mask ^= low
    return tuple(items)


def _batch_units(width: int, signature: Callable, level: int, items: tuple[str, ...]
                 ) -> tuple[list[int], int, int]:
    """The summed ``signature`` of ``items`` at ``level`` (``width`` units,
    all zero for no items), and the largest and smallest unit of any one
    item's signature (0 for no items)."""
    sigs = [signature(a, level) for a in items]
    total = list(map(sum, zip(*sigs))) if sigs else [0] * width
    return (total, max((max(u) for u in sigs), default=0),
            min((min(u) for u in sigs), default=0))


def _level_cells(instance: Instance, members: Sequence[Sequence[str]],
                 signature: Callable, level: int) -> tuple[_Cells, int]:
    """Per group of ``members``, its members with a row at ``level`` and
    their signatures; and the largest unit among all of them (0 if none)."""
    cells = tuple(tuple((a, signature(a, level)) for a in group
                        if level in instance.action(a).rows)
                  for group in members)
    return cells, max((max(u) for cell in cells for _a, u in cell), default=0)


def _packed_cells(cells: Callable, level: int, slot_bits: int) -> _Cells:
    """``cells(level)`` with each signature packed into one integer."""
    return tuple(tuple((a, sum(uw << (w * slot_bits) for w, uw in enumerate(u)))
                       for a, u in cell)
                 for cell in cells(level)[0])


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
    the risk left.  States share their residual caps, risk and occupancy
    often, so each stage lists the fitting placements (in placement order)
    once per distinct residual word, when that word first appears, in one
    pass over the group's placements.  A state with no
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
    run as before.  The masks' subsets are listed once (a mask inside one
    listed before adds nothing and is skipped, so passing the largest
    first lists only the maximal ones), antichains outside them are
    dropped, and the fitting pass also drops the placements that would
    leave them; without masks none of this runs.

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
    slot_all = (1 << cb) - 1
    init_key = 0
    for j in range(len(paths)):
        init_key |= cap << (j * cb)
    # A node's risk slot starts at ``_RISK_UNITS + 1``; its occupancy bit
    # says whether it holds an item.  The first item fits any share and
    # leaves ``_RISK_UNITS + 1 - share``: 0 for a lone item over eps^2, at
    # least 1 for small ones.  A later item fits where more than its share
    # is left.
    rb = (_RISK_UNITS + 1).bit_length()
    risk_all = (1 << rb) - 1
    risk_shift = [caps_bits + i * rb for i in range(n_nodes)]
    for shift in risk_shift:
        init_key |= (_RISK_UNITS + 1) << shift
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

    # With cover masks, ``inside`` holds every occupancy word inside one; a
    # mask already inside adds nothing, so it is skipped.
    inside: set[int] | None = None
    if cover_masks:
        inside = {0}
        for cover in cover_masks:
            if cover in inside:
                continue
            sub = cover
            while sub:
                inside.add(sub)
                sub = (sub - 1) & cover

    # Per antichain: its nodes, their node mask, the mask of the paths it
    # covers, and the caps it spends (one unit in each covered path's slot).
    path_masks = [sum(1 << j for j, path in enumerate(paths) if i in path)
                  for i in range(n_nodes)]
    covers: list[tuple[tuple[int, ...], int, int, int]] = []
    for chain in _antichains(n_nodes, ancestors):
        nodes = sum(1 << i for i in chain)
        if inside is not None and nodes not in inside:
            continue
        mask = 0
        for i in chain:
            mask |= path_masks[i]
        covers.append((chain, nodes, mask, sum(1 << (j * cb) for j in range(len(paths))
                                               if mask >> j & 1)))

    # Per group: (covered path mask, packed delta, placement tuple, per
    # touched node its (index, risk share, occupancy bit), node mask), in
    # antichain order, then member order node by node.  The delta adds the
    # unit sums and subtracts the covered caps and the risk shares in one
    # integer add; a node's first item also sets its occupancy bit, per
    # residual word.
    packed = [table.packed(level, sb) for level in levels]
    risk = table.risk
    deltas_by_group: list[list[tuple]] = []
    for g in range(len(table.members)):
        # Per node: (packed word shifted to the node's slots, less its risk
        # share, (node, action), (node, risk share, occupancy bit)) of each
        # member with a row at the node's level.
        at_node = []
        for i in range(n_nodes):
            unit = 1 << risk_shift[i]
            first = 1 << (occ_shift + i)
            cell = []
            for a, word in packed[i][g]:
                share = risk(a, levels[i])
                cell.append(((word << (low_bits + i * width * sb)) - share * unit,
                             (i, a), (i, share, first)))
            at_node.append(cell)
        deltas = []
        for chain, nodes, mask, spent in covers:
            per_node = [at_node[i] for i in chain]
            if not all(per_node):
                continue
            for combo in product(*per_node):
                words, placement, need = zip(*combo)
                deltas.append((mask, sum(words) - spent, placement, need, nodes))
        deltas_by_group.append(deltas)

    # Each state maps to its traceback chain: None at the start, else
    # (group index, placement, the chain it extends).  A skip reuses its
    # state's chain, so only placements add links.
    prev: dict[int, tuple | None] = {init_key: None}
    explored = 1
    for g, deltas in enumerate(deltas_by_group):
        nxt: dict[int, tuple | None] = {}
        # Residual word -> the (delta, placement) pairs whose covered paths
        # all have a unit left, that leave the occupancy inside a mask, and
        # that have the risk left on every node they touch, in delta order.
        fitting: dict[int, list[tuple[int, tuple[tuple[int, str], ...]]]] = {}
        for key, chain in prev.items():
            word = key & low_all
            fits = fitting.get(word)
            if fits is None:
                closed = ~sum(1 << j for j in range(len(paths))
                              if word >> (j * cb) & slot_all)
                occ = word >> occ_shift
                left = [word >> shift & risk_all for shift in risk_shift]
                fits = fitting[word] = []
                for covered, d, placement, need, nodes in deltas:
                    if covered & closed or (inside is not None and occ | nodes not in inside):
                        continue
                    for i, share, first in need:
                        if not word & first:
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
    outcome stops at its terminal payoff, which
    ``ConfigDpResult.exact_values`` folds as it folds any node."""
    profit, edges, keys = batch_outcomes(instance, BlockNode(items, level),
                                         batch_masses_exact)
    stopped = profit
    for j, mass in edges:
        stopped += mass * instance.terminal[j]
    return profit, edges, keys, stopped


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


def _union_star(topologies: Sequence[Topology]
                ) -> tuple[Topology, list[tuple[int, ...]], list[int]] | None:
    """The one run a star solve shares: when every topology is a star (a
    root and leaves) and the union star (the root and every leaf key,
    ascending) has at most ``_UNION_STAR_NODES`` nodes, returns that star,
    each topology's key-matched node map into it, and the topologies' node
    masks, largest first; else None.

    Every state of the union's run carries every union node, and the run
    holds the states of all covers at once, so a wide union costs more
    time and memory than its covers' runs one after another: the bound
    keeps such solves on their covers."""
    if any(child.children for top in topologies for _key, child in top.children):
        return None
    leaves = dict(child for top in topologies for child in top.children)
    if 1 + len(leaves) > _UNION_STAR_NODES:
        return None
    union = Topology(topologies[0].level, tuple(sorted(leaves.items())))
    row = {key: i for i, (key, _leaf) in enumerate(union.children, 1)}
    maps = [(0,) + tuple(row[key] for key, _leaf in top.children) for top in topologies]
    return union, maps, [sum(1 << c for c in nodes)
                         for nodes in sorted(maps, key=len, reverse=True)]


#: The stages ``PtasDiagnostics.seconds`` times, in pipeline order.
_STAGES = ("enumerate", "dp", "rank", "rescore", "materialize")


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
    one over the union star of a star solve within the bound (see
    ``solve_ptas``); else, or after that run hit the state cap, one per
    cover plus one per member of a cover whose run hit the state cap, where
    a cover equal to the failed union star counts as hit without a run of
    its own.
    ``states_explored`` counts the states of those runs.
    ``candidates`` (configurations kept) and ``materialized``
    (configurations exactly rescored, at most ``top_k`` per topology,
    without building a tree) are summed over the completed topologies.
    ``valued`` counts the distinct final states the solve traced back,
    checked and valued, summed over its runs: a state in the top_k of
    several topologies read off one run is valued once, so it is at most
    ``materialized``.  ``best_surrogate`` is the surrogate value of the
    returned tree's configuration and ``surrogate_gap`` that minus the
    returned value; both are None when the do-nothing policy is returned.
    ``seconds`` holds the ``perf_counter`` seconds of the stages
    enumerate, dp, rank, rescore and materialize, summed over the solve.
    Rank times projecting every topology's ranked candidates off a run,
    which includes scoring and ranking all the run's final states once;
    rescore times the one batched valuation per run (tracing back,
    checking and valuing the union of those topologies' top_k) and
    picking each topology's winner; materialize times building and
    checking the winner's one tree.  It is wall time, so it differs
    between runs."""

    max_ref: float
    max_ref_source: str
    topologies: int = 0
    completed: int = 0
    capacity_errors: int = 0
    states_explored: int = 0
    dp_runs: int = 0
    candidates: int = 0
    materialized: int = 0
    valued: int = 0
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

    A star solve (every topology a root and leaves, as always where
    ``min(depth_limit, horizon) <= 2``) with a small union star
    (``_union_star``) runs the DP once, on the root and every leaf key,
    with the topologies' node masks: only states whose occupied nodes lie
    inside one topology are kept, and those are the states the topologies'
    own runs reach, in the same order and with the same tracebacks.  Every
    topology reads itself off that run through its key-matched node map.
    With one cover (a topology that extends every other) the union star
    is that cover, and the run keeps every state of the cover's own run.

    Every other solve, and a star solve whose union run hits the state
    cap, runs the DP once per cover (``_covers``, timed under enumerate):
    an enumerated topology that no other enumerated topology extends by
    whole subtrees.  Every other topology is a member of one cover, and
    reads its ranked candidates off the cover's run through its node map
    (``ConfigDpResult.project``), as its own run would give them.  If a
    cover's run hits the state cap, each of its members runs its own DP
    and reads itself off it through the identity map.  A cover equal to
    the failed union star is not run again: its run would reach the same
    states and fail at the same point, so it counts as hit.

    Every topology read off a run is read in two steps.  First each one
    projects its ranked candidates off the run (the rank stage).  Then the
    union of their top_k is traced back, checked and valued in one
    ``ConfigDpResult.exact_values`` pass (the rescore stage), and each
    topology keeps the first of its top_k with the strictly best exact
    value: that value, its batches on the topology's own nodes and its
    surrogate.  A cover's run is dropped once its members are done.
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
    start level's terminal payoff.  A ``max_hint`` whose estimate is inf
    or NaN raises ``ParameterError`` before anything is searched.
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
    if not math.isfinite(max_ref):
        raise ParameterError(
            f"max_hint {knobs.max_hint!r} gives the scale {max_ref!r}, which is not finite")
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
    star = _union_star(topologies)
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

    def read(dp: ConfigDpResult | None, group: Sequence[tuple[int, tuple[int, ...]]]
             ) -> bool:
        """Read every (topology index, node map) of ``group`` off ``dp``:
        project each one's ranked candidates, value the union of their
        top_k in one pass, and keep each one's first strictly best.  False,
        reading nothing, when ``dp`` is None (its run hit the state cap).
        No caller keeps ``dp``, so each run is dropped before the next one
        starts."""
        if dp is None:
            return False
        tops = []
        for _ti, nodes in group:
            ranked = dp.project(nodes)
            tops.append(ranked[:knobs.top_k].tolist())
            diag.candidates += len(ranked)
            diag.materialized += len(tops[-1])
        diag.completed += len(group)
        lap("rank")
        states = list(dict.fromkeys(state for top in tops for state in top))
        value_of = dict(zip(states, dp.exact_values(states)))
        diag.valued += len(states)
        for (ti, nodes), top in zip(group, tops):
            if top:
                state = max(top, key=value_of.__getitem__)
                found[ti] = (value_of[state], dp.batches(state, nodes),
                             float(dp.surrogates[dp.sum_ids[state]]))
        lap("rescore")
        return True

    if star is None or not read(run(star[0], star[2]), list(enumerate(star[1]))):
        members: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
        for ti, (ci, nodes) in enumerate(_covers(topologies)):
            members.setdefault(ci, []).append((ti, nodes))
        lap("enumerate")
        # A cover equal to the failed union star would fail again: not run.
        failed = None if star is None else star[0]
        for ci, group in members.items():
            if topologies[ci] != failed and read(run(topologies[ci]), group):
                continue
            # The cover hit the state cap: each other member runs its own DP.
            for ti, nodes in group:
                if ti == ci or not read(run(topologies[ti]), [(ti, tuple(range(len(nodes))))]):
                    diag.capacity_errors += 1
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
