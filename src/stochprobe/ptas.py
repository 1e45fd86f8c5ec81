"""Signature-based approximation pipeline.

Blocks are summarized by signatures: transition masses and expected profit
floored onto a grid and stored in integer grid units, so block signatures
are entrywise sums of action signatures.  The solver enumerates small block
topologies over the levels the instance's rows can reach, runs a forward
reachability DP over per-node signature sums under per-path placement
caps, ranks all resulting configurations by a batched surrogate, rescores
only the most promising exactly from their placements, and builds the best
of them into a concrete block tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from itertools import product
from operator import add
from time import perf_counter
from typing import Callable, Sequence

import numpy as np

from .block import BlockNode, batch_masses_exact, block_leaf, block_profit_exact
from .exact import max_over_starts
from .exceptions import CapacityError, HintError, ParameterError, StructuralError
from .model import Instance, validate_instance

#: Configuration-DP states one stage may hold before ``CapacityError``.
DEFAULT_STATE_CAP = 5_000_000

#: Absorbs float division noise so on-grid masses land on exact units.
_FLOOR_SLACK = 1e-9


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
                         depth_limit: int, start_level: int, *,
                         count_cap: int = 200_000) -> tuple[Topology, ...]:
    """All topologies rooted at ``start_level`` with at most ``block_budget``
    nodes and at most ``depth_limit`` blocks on any path, in a fixed order.

    A node at level ``L`` holds at most one child per key in ``reach[L]``
    (ascending keys, each at least ``L``; see ``level_reach``).  With every
    ``reach[L] = range(L, K)`` this is the full level enumeration; a
    narrower table yields the same topologies in the same order, minus
    those with a child at a key outside the table.  Exceeding ``count_cap``
    raises a capacity error.
    """
    if block_budget < 1 or depth_limit < 1:
        raise ParameterError("block_budget and depth_limit must be at least 1")
    memo: dict[tuple[int, int, int], tuple[Topology, ...]] = {}
    result: list[Topology] = []

    def exact(level: int, nodes: int, depth: int) -> tuple[Topology, ...]:
        """Topologies rooted at ``level`` with exactly ``nodes`` nodes."""
        key = (level, nodes, depth)
        hit = memo.get(key)
        if hit is not None:
            return hit
        out: list[Topology] = []
        if nodes >= 1 and depth >= 1:
            keys = reach[level]

            def assign(i: int, remaining: int, acc: list[tuple[int, Topology]]) -> None:
                if i == len(keys):
                    if remaining == 0:
                        out.append(Topology(level, tuple(acc)))
                    return
                assign(i + 1, remaining, acc)
                if remaining > 0 and depth > 1:
                    for size in range(1, remaining + 1):
                        for sub in exact(keys[i], size, depth - 1):
                            acc.append((keys[i], sub))
                            assign(i + 1, remaining - size, acc)
                            acc.pop()

            assign(0, nodes - 1, [])
        memo[key] = tuple(out)
        return memo[key]

    for n in range(1, block_budget + 1):
        for topo in exact(start_level, n, depth_limit):
            result.append(topo)
            if len(result) > count_cap:
                raise CapacityError(
                    f"topology enumeration exceeded the cap of {count_cap}",
                    states_explored=len(result))
    return tuple(result)


# --- configuration DP -------------------------------------------------------


#: Per group in processing order: None when the group is skipped, else the
#: (node index, action id) pairs it places on an antichain of nodes.
Placements = tuple[tuple[tuple[int, str], ...] | None, ...]


class CandidateTable:
    """The configurations a configuration DP kept, in order, held lazily.

    ``units`` is an ``(N, nodes, K+1)`` integer array of every candidate's
    per-node unit sums, ``chains`` its traceback chains (None, or (group
    index, placement, rest)); a chain is unwound only by ``placements``.
    """

    def __init__(self, units: np.ndarray, chains: Sequence[tuple | None],
                 group_count: int):
        self.units = units
        self.chains = chains
        self.group_count = group_count

    def __len__(self) -> int:
        return len(self.chains)

    def placements(self, i: int) -> Placements:
        """Candidate ``i``'s traceback chain unwound into per-group placements."""
        chain = self.chains[i]
        trace: list[tuple[tuple[int, str], ...] | None] = [None] * self.group_count
        while chain is not None:
            g, placement, chain = chain
            trace[g] = placement
        return tuple(trace)


@dataclass(frozen=True)
class ConfigDpResult:
    """Kept configurations and states explored over all stages."""

    candidates: CandidateTable
    states_explored: int


def _antichains(n: int, ancestors: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    comparable = [set(anc) for anc in ancestors]
    for i, anc in enumerate(ancestors):
        for a in anc:
            comparable[a].add(i)
    out: list[tuple[int, ...]] = []

    def grow(start: int, chosen: tuple[int, ...], blocked: frozenset[int]) -> None:
        for i in range(start, n):
            if i in blocked:
                continue
            sel = chosen + (i,)
            out.append(sel)
            grow(i + 1, sel, blocked | comparable[i] | {i})

    grow(0, (), frozenset())
    return out


def config_dp(instance: Instance, topology: Topology, grid: float, max_ref: float,
              caps: int | None = None, *,
              state_cap: int = DEFAULT_STATE_CAP) -> ConfigDpResult:
    """Forward reachability over configurations.

    Groups are folded in one at a time (ordered by their smallest action
    id); each may be skipped or placed on any antichain of topology nodes,
    choosing one member action per placed node.  Every placement consumes
    one cap unit on each root-to-leaf path through the antichain (``caps``
    per path, at most the horizon).  States are per-node signature sums
    plus residual caps.  A state reached by skipping a group keeps that
    skip as its traceback; otherwise the first placement to reach it wins.

    A stage expands each state only by the placements that fit it: those
    whose covered paths all have a cap unit left.  States share their
    residual caps often, so each stage lists the fitting placements (in
    placement order) once per distinct caps word, when that word first
    appears.  A state with no cap left on any path is parked and carried
    no further.

    Final states with equal unit sums collapse to the first found (parked
    states first, then the last stage in insertion order).  The result's
    ``CandidateTable`` holds the sums of all of them, unpacked in one numpy
    pass, and their traceback chains; nothing is traced back until a
    candidate is read.
    """
    if grid <= 0.0:
        raise ParameterError("grid must be positive")
    cap = instance.horizon if caps is None else min(caps, instance.horizon)
    if cap < 0:
        raise ParameterError("caps must be nonnegative")
    levels = [level for level, _, _ in topology.nodes]
    n_nodes = len(levels)
    ancestors: list[tuple[int, ...]] = []
    for _level, parent, _key in topology.nodes:
        ancestors.append(() if parent < 0 else ancestors[parent] + (parent,))
    inner = {parent for _, parent, _ in topology.nodes}
    paths = [ancestors[i] + (i,) for i in range(n_nodes) if i not in inner]
    K = instance.values.level_count
    width = K + 1

    node_paths = [frozenset(j for j, path in enumerate(paths) if i in path)
                  for i in range(n_nodes)]
    antichains = _antichains(n_nodes, ancestors)

    groups: dict[str, list[str]] = {}
    for spec in sorted(instance.actions, key=lambda s: s.id):
        groups.setdefault(spec.group, []).append(spec.id)
    group_order = tuple(sorted(groups, key=lambda g: groups[g][0]))

    sig_cache: dict[tuple[str, int], tuple[int, ...] | None] = {}

    def units_for(action_id: str, level: int) -> tuple[int, ...] | None:
        key = (action_id, level)
        if key not in sig_cache:
            spec = instance.action(action_id)
            if level not in spec.rows:
                sig_cache[key] = None
            else:
                sig_cache[key] = action_signature(
                    instance, action_id, level, grid, max_ref)
        return sig_cache[key]

    # Placements per group: (covered path set, ((node, action, units), ...)).
    Placement = tuple[frozenset, tuple[tuple[int, str, tuple[int, ...]], ...]]
    placements_by_group: list[list[Placement]] = []
    for g in group_order:
        members = groups[g]
        opts: list[Placement] = []
        for chain in antichains:
            per_node: list[list[tuple[int, str, tuple[int, ...]]]] = []
            for i in chain:
                cell = []
                for action_id in members:
                    u = units_for(action_id, levels[i])
                    if u is not None:
                        cell.append((i, action_id, u))
                per_node.append(cell)
            if any(not cell for cell in per_node):
                continue
            covered = frozenset().union(*(node_paths[i] for i in chain))
            for combo in product(*per_node):
                opts.append((covered, combo))
        placements_by_group.append(opts)

    # States are packed into single integers: the low bits hold the residual
    # caps (one slot per path), the high bits the per-node unit sums (slots
    # of a whole unsigned dtype, wide enough that no reachable sum can carry
    # between them, so the sums unpack as that dtype).  Only placements that
    # leave every covered path at least one unit are ever added, so no caps
    # slot underflows.
    cb = max(cap.bit_length(), 1)
    caps_bits = len(paths) * cb
    caps_all = (1 << caps_bits) - 1
    slot_all = (1 << cb) - 1
    init_key = 0
    for j in range(len(paths)):
        init_key |= cap << (j * cb)
    unit_max = max((max(u) for u in sig_cache.values() if u), default=0)
    sum_bits = (cap * unit_max).bit_length()
    if sum_bits > 64:
        raise ParameterError("unit sums do not fit 64 bits; the grid is too fine")
    slot_dtype = np.dtype(f"<u{next(b for b in (1, 2, 4, 8) if 8 * b >= sum_bits)}")
    sb = 8 * slot_dtype.itemsize

    # Per group: (covered path mask, packed delta, placement tuple).  The
    # delta adds the unit sums and subtracts the covered caps in one
    # integer add.
    deltas_by_group: list[list[tuple[int, int, tuple[tuple[int, str], ...]]]] = []
    for opts in placements_by_group:
        deltas: list[tuple[int, int, tuple[tuple[int, str], ...]]] = []
        for covered, combo in opts:
            d = 0
            for i, _action_id, u in combo:
                base = caps_bits + i * width * sb
                for w, uw in enumerate(u):
                    d += uw << (base + w * sb)
            for j in covered:
                d -= 1 << (j * cb)
            deltas.append((sum(1 << j for j in covered), d,
                           tuple((i, a) for i, a, _ in combo)))
        deltas_by_group.append(deltas)

    # Each state maps to its traceback chain: None at the start, else
    # (group index, placement, the chain it extends).  A skip reuses its
    # state's chain, so only placements add links.
    prev: dict[int, tuple | None] = {init_key: None}
    frozen: dict[int, tuple | None] = {}  # parked key -> its chain
    explored = 1
    for g, deltas in enumerate(deltas_by_group):
        nxt: dict[int, tuple | None] = {}
        # Residual-caps word -> the (delta, placement) pairs that fit it, in
        # delta order: those whose covered paths all have a unit left.
        fitting: dict[int, list[tuple[int, tuple[tuple[int, str], ...]]]] = {}
        for key, chain in prev.items():
            word = key & caps_all
            if word == 0:
                # No placement can ever fit again; park the state and stop
                # carrying it through the remaining stages.
                if key not in frozen:
                    frozen[key] = chain
                continue
            fits = fitting.get(word)
            if fits is None:
                open_paths = sum(1 << j for j in range(len(paths))
                                 if word >> (j * cb) & slot_all)
                fits = [(d, placement) for covered, d, placement in deltas
                        if covered & ~open_paths == 0]
                fitting[word] = fits
            nxt[key] = chain  # skip the group; this overrides a placement
            for d, placement in fits:
                new_key = key + d
                if new_key not in nxt:
                    nxt[new_key] = (g, placement, chain)
            if len(nxt) + len(frozen) > state_cap:
                raise CapacityError(
                    f"configuration DP exceeded the state cap of {state_cap}",
                    states_explored=explored + len(nxt))
        explored += len(nxt)
        prev = nxt

    kept: dict[int, tuple | None] = {}
    for states in (frozen, prev):
        for key, chain in states.items():
            kept.setdefault(key >> caps_bits, chain)
    sum_bytes = n_nodes * width * slot_dtype.itemsize
    raw = b"".join(sums.to_bytes(sum_bytes, "little") for sums in kept)
    units = np.frombuffer(raw, slot_dtype).reshape(len(kept), n_nodes, width)
    table = CandidateTable(units, list(kept.values()), len(group_order))
    return ConfigDpResult(table, explored)


# --- reconstruction and scoring ---------------------------------------------


def _compile_surrogate(instance: Instance, topology: Topology, grid: float,
                       profit_grid: float):
    """Flatten the topology into a children-first program over its reversed
    preorder table, and return a scorer that runs it over an ``(N, nodes,
    K+1)`` unit array: one surrogate value per row, without recursion.

    Per node: profit is the rounded sum, upward masses are the rounded sums
    clipped to 1, and the flat mass is whatever is left; transitions without
    a topology child fall to a terminal leaf.  The float operations are
    those of a per-row evaluation, elementwise and in the same order: a zero
    unit adds a zero product and a nonpositive flat mass a zero, which leave
    every sum bit for bit as it was.
    """
    K = instance.values.level_count
    terminal = instance.terminal
    nodes = topology.nodes
    n = len(nodes)
    child_at: list[dict[int, int]] = [{} for _ in nodes]
    for idx, (_level, parent, key) in enumerate(nodes):
        if parent >= 0:
            child_at[parent][key] = idx
    prog: list[tuple[int, int, tuple[tuple[int, int | None], ...], int | None]] = []
    for idx in range(n - 1, -1, -1):
        level = nodes[idx][0]
        kids = child_at[idx]
        ups = tuple((j, kids.get(j)) for j in range(level + 1, K))
        prog.append((idx, level, ups, kids.get(level)))

    def score(units: np.ndarray) -> np.ndarray:
        live = units.any(axis=0)
        vals: list = [None] * n
        for idx, level, ups, flat_child in prog:
            u = units[:, idx]
            total = u[:, K] * profit_grid
            up_total = 0.0
            for j, ci in ups:
                if live[idx, j]:
                    pj = np.minimum(u[:, j] * grid, 1.0)
                    up_total = up_total + pj
                    total += pj * (terminal[j] if ci is None else vals[ci])
            flat = np.maximum(1.0 - up_total, 0.0)
            total += flat * (terminal[level] if flat_child is None else vals[flat_child])
            vals[idx] = total
        return vals[0]

    return score


def _items_at(n_nodes: int, placements: Placements) -> list[list[str]]:
    """Each node's items, in group-processing order."""
    items_at: list[list[str]] = [[] for _ in range(n_nodes)]
    for placement in placements:
        for node_idx, action_id in placement or ():
            items_at[node_idx].append(action_id)
    return items_at


def materialize(instance: Instance, topology: Topology, placements: Placements) -> BlockNode:
    """Build the concrete block tree a traceback describes, children first
    over the reversed preorder table.

    Items land on their nodes in group-processing order; transitions the
    items can realize but the topology does not cover become terminal
    leaves, and a node that can stay flat keeps a flat child.
    """
    nodes = topology.nodes
    items_at = _items_at(len(nodes), placements)

    # Reversed preorder reaches siblings last to first, so each list of
    # (key, child) pairs is reversed back into topology order.
    built: list[list[tuple[int, BlockNode]]] = [[] for _ in nodes]
    for idx in range(len(nodes) - 1, -1, -1):
        level, parent, key = nodes[idx]
        items = tuple(items_at[idx])
        children = dict(reversed(built[idx]))
        node = BlockNode(items, level, children)
        up, flat, _profit = batch_masses_exact(instance, node)
        for j in sorted(up):
            if j not in children:
                children[j] = block_leaf(j)
        if (flat > 0.0 or not items) and level not in children:
            children[level] = block_leaf(level)
        if parent >= 0:
            built[parent].append((key, node))
    return node


def _check_signature_sums(levels: list[int], width: int, placements: Placements,
                          sums_want: np.ndarray,
                          signature: Callable[[str, int], tuple[int, ...]]) -> None:
    """The traceback must reproduce the configuration's unit sums exactly;
    ``signature(action_id, level)`` gives one action's units."""
    sums = [[0] * width for _ in levels]
    for placement in placements:
        if placement is None:
            continue
        for node_idx, action_id in placement:
            sums[node_idx] = list(map(add, sums[node_idx],
                                      signature(action_id, levels[node_idx])))
    if sums != sums_want.tolist():
        raise StructuralError("traceback signature sums do not match the "
                              "configuration")


def _outcomes(instance: Instance, level: int, items: tuple[str, ...]
              ) -> tuple[float, list[tuple[int, float]]]:
    """The exact batch profit of ``items`` probed from ``level`` in that
    order, and its (key, mass) outcomes in ``block_edges`` order: up-levels
    ascending, then the flat key if its mass is positive, zero masses
    dropped."""
    up, flat, profit = batch_masses_exact(instance, BlockNode(items, level))
    outcomes = sorted(up.items())
    if flat > 0.0:
        outcomes.append((level, flat))
    return profit, [(j, mass) for j, mass in outcomes if mass != 0.0]


def _exact_value(instance: Instance, topology: Topology, placements: Placements,
                 outcomes: Callable[[int, tuple[str, ...]], tuple]) -> float:
    """Exact block value of the tree ``materialize`` builds from
    ``placements``, computed over the reversed preorder table without
    building it.

    ``outcomes(level, items)`` gives ``_outcomes`` of a node's items in
    group order.  Each node adds mass times child value to its batch
    profit, outcome by outcome, as ``block_profit_exact`` does; a key
    without a topology child takes its terminal payoff.  The float
    operations are the same, so the value is the same bit for bit.
    """
    nodes = topology.nodes
    terminal = instance.terminal
    items_at = _items_at(len(nodes), placements)
    child_at: list[dict[int, int]] = [{} for _ in nodes]
    values = [0.0] * len(nodes)
    for idx in range(len(nodes) - 1, -1, -1):
        level, parent, key = nodes[idx]
        profit, edges = outcomes(level, tuple(items_at[idx]))
        kids = child_at[idx]
        for j, mass in edges:
            ci = kids.get(j)
            profit += mass * (terminal[j] if ci is None else values[ci])
        values[idx] = profit
        if parent >= 0:
            child_at[parent][key] = idx
    return values[0]


#: The stages ``PtasDiagnostics.seconds`` times, in pipeline order.
_STAGES = ("enumerate", "dp", "rank", "rescore", "materialize")


def reconstruct_and_score(instance: Instance, topology: Topology,
                          result: ConfigDpResult, grid: float, max_ref: float,
                          top_k: int = 32) -> tuple[BlockNode, float, float | None]:
    """Rescore the top-k surrogate-ranked configurations exactly and return
    the best as (tree, value, its surrogate value); with no candidates, the
    do-nothing policy and no surrogate.

    All candidates are scored in one batched pass over the table's unit
    array and ranked by descending surrogate, ties in table order (a stable
    sort).  Only the ``top_k`` best are traced back; each is checked
    against its unit sums and valued by ``_exact_value`` from its
    placements, without building a tree.  The first strictly best exact
    value wins, and only the winner is materialized; its tree must score
    that value under ``block_profit_exact``, else ``StructuralError``.
    """
    return _reconstruct(instance, topology, result, grid, max_ref, top_k,
                        lambda _stage: None)


def _reconstruct(instance: Instance, topology: Topology, result: ConfigDpResult,
                 grid: float, max_ref: float, top_k: int,
                 lap: Callable[[str], None]) -> tuple[BlockNode, float, float | None]:
    """``reconstruct_and_score``, calling ``lap`` with each stage's name
    ("rank", "rescore", "materialize") as it ends."""
    if top_k < 1:
        raise ParameterError("top_k must be at least 1")
    start = instance.start_level
    table = result.candidates
    if len(table) == 0:
        return block_leaf(start), instance.terminal[start], None
    score = _compile_surrogate(instance, topology, grid, grid * max_ref)
    surrogates = score(table.units)
    ranked = np.argsort(-surrogates, kind="stable")
    lap("rank")

    levels = [level for level, _, _ in topology.nodes]
    width = instance.values.level_count + 1
    # One signature per (action, level) and one outcome list per batch, taken
    # from the instance, for all the candidates this call rescores.
    signature = cache(partial(action_signature, instance, grid=grid, max_ref=max_ref))
    outcomes = cache(partial(_outcomes, instance))

    best_i = -1
    best_placements: Placements = ()
    best_value = float("-inf")
    for i in ranked[:top_k].tolist():
        placements = table.placements(i)
        _check_signature_sums(levels, width, placements, table.units[i], signature)
        value = _exact_value(instance, topology, placements, outcomes)
        if value > best_value:
            best_i, best_placements, best_value = i, placements, value
    lap("rescore")

    tree = materialize(instance, topology, best_placements)
    if block_profit_exact(instance, tree) != best_value:
        raise StructuralError("the materialized tree does not score its "
                              "rescored value")
    lap("materialize")
    return tree, best_value, float(surrogates[best_i])


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
    caps: int | None = None
    top_k: int = 32
    max_hint: str = "exact"
    state_cap: int = DEFAULT_STATE_CAP
    topology_cap: int = 200_000


@dataclass
class PtasDiagnostics:
    """Counts of one solve.  ``candidates`` (configurations kept) and
    ``materialized`` (configurations exactly rescored: at most ``top_k``
    per topology, of which only the winner is built into a tree) are
    summed over the completed topologies.  ``seconds`` holds the
    ``perf_counter`` seconds of the stages enumerate, dp, rank, rescore and
    materialize, summed over topologies; it is wall time, so it differs
    between runs."""

    max_ref: float
    topologies: int = 0
    completed: int = 0
    capacity_errors: int = 0
    states_explored: int = 0
    candidates: int = 0
    materialized: int = 0
    best_topology: int = -1
    best_surrogate: float | None = None
    partial: bool = False
    seconds: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(_STAGES, 0.0))


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
    and rescored separately on purpose: the surrogate overestimates fat
    multi-item blocks, and small topologies whose rankings are free of them
    are where clean configurations survive into the exactly-scored top_k.
    Per-topology capacity failures are recorded and skipped; the result is
    then flagged partial.  Topology enumeration past ``topology_cap``
    raises instead.  The do-nothing policy is always a candidate, so the
    returned value is at least the start level's terminal payoff.
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
    max_ref = estimate_max(instance, knobs.max_hint)
    if max_ref <= 0.0:
        max_ref = 1.0  # degenerate all-zero instance; any scale works
    diag = PtasDiagnostics(max_ref=max_ref)
    start = instance.start_level
    if instance.horizon == 0:
        return PtasResult(block_leaf(start), instance.terminal[start], diag)
    clock = [perf_counter()]

    def lap(stage: str) -> None:
        now = perf_counter()
        diag.seconds[stage] += now - clock[0]
        clock[0] = now

    depth_eff = min(knobs.depth_limit, instance.horizon)
    topologies = enumerate_topologies(level_reach(instance), knobs.block_budget,
                                      depth_eff, start, count_cap=knobs.topology_cap)
    diag.topologies = len(topologies)
    lap("enumerate")
    best_tree: BlockNode = block_leaf(start)
    best_value = instance.terminal[start]
    for ti, topo in enumerate(topologies):
        try:
            result = config_dp(instance, topo, knobs.grid, max_ref, knobs.caps,
                               state_cap=knobs.state_cap)
        except CapacityError as err:
            diag.capacity_errors += 1
            diag.states_explored += err.states_explored
            diag.partial = True
            lap("dp")
            continue
        lap("dp")
        diag.states_explored += result.states_explored
        tree, value, surrogate = _reconstruct(
            instance, topo, result, knobs.grid, max_ref, knobs.top_k, lap)
        diag.completed += 1
        diag.candidates += len(result.candidates)
        diag.materialized += min(knobs.top_k, len(result.candidates))
        if value > best_value:
            best_tree, best_value = tree, value
            diag.best_topology = ti
            diag.best_surrogate = surrogate
    return PtasResult(best_tree, best_value, diag)
