"""Monte-Carlo replay of policy and block trees by multinomial descent.

Instead of walking trials one path at a time, the trial count is split at
each node with a multinomial draw over the row's transition masses.  The
per-leaf counts are distributed exactly as independent path walks, every
leaf's payoff is deterministic (profits enter through their per-probe
expectations), and the sample moments come out in closed form from the
(payoff, count) pairs.  A deterministic instance therefore reports a
half-width of exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..block import BlockNode, batch_masses_exact, walk_blocks
from ..exceptions import ParameterError
from ..model import Instance, PolicyNode, walk_policy
from .gen import stream

__all__ = ["SimResult", "Z99", "simulate"]

Z99 = 2.5758293035489004


@dataclass(frozen=True)
class SimResult:
    mean: float
    half_width: float
    trials: int


def _split(g: np.random.Generator, count: int, probs: list[float]) -> list[int]:
    if len(probs) == 1:
        return [count]
    pvals = np.asarray(probs, dtype=float)
    pvals = pvals / pvals.sum()
    return [int(c) for c in g.multinomial(count, pvals)]


def _descend_policy(instance: Instance, tree: PolicyNode, trials: int,
                    g: np.random.Generator) -> list[tuple[float, int]]:
    """(payoff, count) of every leaf the trials reach; the splits are drawn
    in preorder, and a child no trial reaches is not visited."""

    def step(node, row, children, state):
        count, acc = state
        acc += row.profit
        counts = _split(g, count, [p for _, p in row.support])
        return [(child, (c, acc)) for child, c in zip(children, counts) if c > 0]

    return [(acc + instance.terminal[node.level], count)
            for node, row, _children, (count, acc)
            in walk_policy(instance, tree, (trials, 0.0), step) if row is None]


def _descend_block(instance: Instance, tree: BlockNode, trials: int,
                   g: np.random.Generator) -> list[tuple[float, int]]:
    """Batch semantics: items probed in order, stopping at the first one
    that leaves the entry level; each probed item contributes its row
    profit.  Mirrors the exact batch mass accounting.  The walk visits a
    block once per item it probes, carrying the item index in its state;
    every child a trial can reach has positive exact mass, so the walk has
    checked it before the step looks it up."""

    def step(node, profit, edges, state):
        item, count, acc = state
        if item == len(node.items):
            return [(node.children[node.level], (0, count, acc))]
        row = instance.action(node.items[item]).rows[node.level]
        acc += row.profit
        counts = _split(g, count, [p for _, p in row.support])
        return [(node, (item + 1, c, acc)) if j == node.level else (node.children[j], (0, c, acc))
                for (j, _), c in zip(row.support, counts) if c > 0]

    return [(acc + instance.terminal[node.level], count)
            for node, profit, _edges, (_item, count, acc)
            in walk_blocks(instance, tree, batch_masses_exact, (0, trials, 0.0), step)
            if profit is None]


def simulate(instance: Instance, policy: PolicyNode | BlockNode, seed: int = 0,
             trials: int = 10_000) -> SimResult:
    """Sample mean and 99% normal half-width of the policy's payoff."""
    if trials < 1:
        raise ParameterError("trials must be at least 1")
    g = stream(seed, "sim")
    if isinstance(policy, BlockNode):
        out = _descend_block(instance, policy, trials, g)
    else:
        out = _descend_policy(instance, policy, trials, g)
    payoffs = {x for x, c in out if c > 0}
    if len(payoffs) == 1:
        return SimResult(payoffs.pop(), 0.0, trials)
    mean = math.fsum(x * c for x, c in out) / trials
    svar = math.fsum(c * (x - mean) ** 2 for x, c in out) / (trials - 1)
    return SimResult(mean, Z99 * math.sqrt(svar / trials), trials)
