"""Seeded random generators for specs, kernel instances, and policy trees.

All randomness flows through counter-based Philox streams keyed by
``(seed, labels...)``, so results never depend on call order and suites
can fan out without losing reproducibility.  Probabilities land on the
lattice ``count/q`` (exact floats for the default power-of-two ``q``),
and lossless mode keeps outcomes on the requested step lattice so the
value discretizations can be made exact.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from ..exceptions import ParameterError
from ..model import ActionSpec, Instance, Pmf, PolicyNode, TransitionRow, ValueSpace, leaf_node
from ..problems import KINDS, ProblemSpec

__all__ = ["GenParams", "gen_random", "gen_random_kernel", "gen_random_policy", "stream"]


def stream(seed: int, *labels: int | str) -> np.random.Generator:
    """A Philox generator keyed by the seed and a label path."""
    words = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    for label in labels:
        if isinstance(label, str):
            words.append(zlib.crc32(label.encode("utf-8")))
        else:
            words.append(int(label) & 0xFFFFFFFFFFFFFFFF)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(words)))


@dataclass(frozen=True)
class GenParams:
    """Shape knobs for the generators.

    ``levels`` bounds the value lattice for the probing kinds and the
    level count for kernels; target and sbk sizes use a lattice derived
    from ``step`` and the kind's natural range instead.  ``q`` is the
    probability denominator.  ``horizon`` applies to kernels only.
    """

    kind: str = "probemax"
    n: int = 5
    m: int | None = None
    k: int | None = None
    support: int = 3
    levels: int = 4
    q: int = 8
    step: float = 1.0
    eps: float = 0.3
    lossless: bool = True
    horizon: int | None = None
    zero_profit: bool = False
    flat_bias: float = 0.0

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ParameterError("n must be nonnegative")
        if self.support < 1:
            raise ParameterError("support must be at least 1")
        if self.levels < 1:
            raise ParameterError("levels must be at least 1")
        if self.q < 2:
            raise ParameterError("q must be at least 2")
        if self.step <= 0.0:
            raise ParameterError("step must be positive")
        if not 0.0 <= self.flat_bias <= 1.0:
            raise ParameterError("flat_bias must lie in [0, 1]")


def _probs(g: np.random.Generator, s: int, q: int) -> list[float]:
    if s == 1:
        return [1.0]
    counts = g.multinomial(q - s, np.full(s, 1.0 / s)) + 1
    return [int(c) / q for c in counts]


def _lattice_outcomes(g: np.random.Generator, s: int, top_index: int) -> list[int]:
    """``s`` distinct lattice indices in 0..top_index, at least one positive."""
    if top_index == 0:
        return [0]
    s = min(s, top_index + 1)
    if s > top_index:
        return list(range(top_index + 1))
    picks = g.choice(np.arange(1, top_index + 1), size=s - 1 if s > 1 else 1,
                     replace=False)
    indices = sorted(int(i) for i in picks)
    if s > 1:
        indices = [0] + indices
    return indices


def _pmf_on_lattice(g: np.random.Generator, params: GenParams, top_index: int,
                    limit: float) -> Pmf:
    s = min(params.support, top_index + 1)
    if params.lossless:
        indices = _lattice_outcomes(g, s, top_index)
        outcomes = [i * params.step for i in indices]
    else:
        draws = np.sort(g.uniform(0.0, limit, size=s))
        outcomes = [round(float(x), 6) + i * 1e-6 for i, x in enumerate(draws)]
    probs = _probs(g, len(outcomes), params.q)
    return Pmf(tuple(zip(outcomes, probs)))


def gen_random(seed: int, params: GenParams) -> ProblemSpec:
    """Deterministic random spec of any kind; same seed, same spec."""
    if params.kind not in KINDS:
        raise ParameterError(f"unknown kind {params.kind!r}")
    g = stream(seed, "spec", params.kind)
    n = params.n
    kind = params.kind
    if kind in ("probemax", "probetopk", "committed_probetopk"):
        top = params.levels - 1
        limit = top * params.step if top > 0 else params.step
        items = tuple(_pmf_on_lattice(g, params, top, limit) for _ in range(n))
        m = params.m if params.m is not None else min(n, 2)
        if kind == "probemax":
            return ProblemSpec(kind, items, m=m, eps=params.eps)
        k = params.k if params.k is not None else (2 if kind == "probetopk" else 1)
        return ProblemSpec(kind, items, m=m, k=k, eps=params.eps)
    if kind == "committed_pandora":
        top = params.levels - 1
        limit = top * params.step if top > 0 else params.step
        items = tuple(_pmf_on_lattice(g, params, top, limit) for _ in range(n))
        costs = tuple(int(g.integers(1, 2 * params.q + 1)) / params.q * params.step
                      for _ in range(n))
        return ProblemSpec(kind, items, costs=costs, k=1, eps=params.eps)
    if kind == "target":
        top = int(round(1.0 / params.step))
        items = tuple(_pmf_on_lattice(g, params, top, 1.0) for _ in range(n))
        m = params.m if params.m is not None else min(n, 2)
        return ProblemSpec(kind, items, m=m, target=1.0, eps=params.eps)
    top = int(round(1.25 / params.step))
    items = tuple(_pmf_on_lattice(g, params, top, 1.25) for _ in range(n))
    profits = tuple(int(g.integers(1, 2 * params.q + 1)) / params.q
                    for _ in range(n))
    return ProblemSpec("sbk", items, profits=profits, capacity=1.0, eps=params.eps)


def gen_random_kernel(seed: int, params: GenParams) -> Instance:
    """A random compliant kernel: rows only move up, profits and terminal
    payoffs are nonnegative lattice values, and some actions share groups.

    With positive ``flat_bias``, that fraction of rows is drawn
    flat-heavy: all but a sliver of mass (at most ``4 / (8 q)``) stays at
    the current level, so several such probes fit inside a small risk
    budget together.
    """
    g = stream(seed, "kernel")
    K = params.levels
    q = params.q
    horizon = params.horizon if params.horizon is not None else int(g.integers(1, 5))
    actions = []
    for i in range(params.n):
        if i > 0 and g.random() < 0.25:
            group = actions[-1].group
        else:
            group = f"g{i}"
        rows: dict[int, TransitionRow] = {}
        for level in range(K):
            if g.random() > 0.85 and K > 1:
                continue
            if g.random() < params.flat_bias and level < K - 1:
                risk = int(g.integers(1, 5)) / (8 * q)
                ups = 1 + int(g.integers(0, min(2, K - 1 - level)))
                picks = g.choice(np.arange(level + 1, K), size=ups, replace=False)
                moves = [(int(j), risk / ups) for j in sorted(int(j) for j in picks)]
                targets = [level] + [j for j, _ in moves]
                probs = [1.0 - risk] + [p for _, p in moves]
            else:
                width = K - level
                size = 1 + int(g.integers(0, min(3, width)))
                picks = g.choice(np.arange(level, K), size=size, replace=False)
                targets = sorted(int(j) for j in picks)
                probs = _probs(g, len(targets), q)
            profit = 0.0
            if not params.zero_profit and g.random() < 0.5:
                profit = int(g.integers(1, q + 1)) / q * params.step
            rows[level] = TransitionRow(tuple(zip(targets, probs)), profit)
        if not rows:
            rows[0] = TransitionRow(((0, 1.0),), 0.0)
        actions.append(ActionSpec(f"a{i}", group, rows))
    terminal = tuple(int(g.integers(0, 2 * q + 1)) / q * params.step
                     for _ in range(K))
    return Instance(ValueSpace(K), horizon, tuple(actions), terminal,
                    meta={"kind": "random_kernel"})


def gen_random_policy(instance: Instance, seed: int, *, stop: float = 0.25) -> PolicyNode:
    """A random feasible policy tree: horizon-bounded, one action per group
    per path, children for every positive-probability outcome."""
    g = stream(seed, "policy")
    # Nodes are drawn in preorder, each going into its parent's children
    # (the root into ``top``) when it is popped.
    top: dict[int, PolicyNode] = {}
    stack = [(instance.start_level, 1, frozenset(), top)]
    while stack:
        level, t, used_groups, siblings = stack.pop()
        avail = [spec for spec in instance.actions
                 if spec.group not in used_groups and spec.rows.get(level) is not None]
        if t > instance.horizon or g.random() < stop or not avail:
            siblings[level] = leaf_node(level, t)
            continue
        spec = avail[int(g.integers(0, len(avail)))]
        used = used_groups | {spec.group}
        children: dict[int, PolicyNode] = {}
        siblings[level] = PolicyNode(spec.id, level, t, children)
        stack.extend((j, t + 1, used, children)
                     for j, p in reversed(spec.rows[level].probs) if p > 0.0)
    return top[instance.start_level]
