"""Outside-in stage trace: spans around calls into the package's layers.

Each traced function is replaced, for the duration of a ``Tracer`` block,
under the module attribute its caller looks it up by (``ptas`` imports
``config_dp`` and ``block_profit_exact`` by name, so those are wrapped in
``stochprobe.ptas``).  Spans stay in memory and are written out when the
run ends; counters are read off arguments and results at the same
boundaries.  Leaving the block puts every original function back.
"""

from __future__ import annotations

import functools
import json
import math
from collections import defaultdict
from time import perf_counter
from typing import Callable

from stochprobe import block, exact, model, problems, ptas
from stochprobe.harness import gen, sim
from stochprobe.harness import io as spio

from workloads import count_nodes


def state_bound(instance) -> int:
    """Computed, not counted: horizon x levels x masks with at most
    ``horizon`` of the groups used."""
    n = len(instance.groups())
    h = instance.horizon
    masks = sum(math.comb(n, k) for k in range(min(h, n) + 1))
    return h * instance.values.level_count * masks


def _count_exact(tracer, args, result):
    tracer.count("exact.state_bound", state_bound(args[0]))


def _count_config_dp(tracer, args, result):
    tracer.count("ptas.candidates", len(result.candidates))


def _count_solve(tracer, args, result):
    d = result.diagnostics
    tracer.count("ptas.topologies", d.topologies)
    tracer.count("ptas.states_explored", d.states_explored)
    tracer.count("ptas.capacity_errors", d.capacity_errors)
    if d.best_surrogate is not None:
        tracer.count("ptas.surrogate_gap", abs(d.best_surrogate - result.value))
        tracer.count("ptas.surrogate_gap.solves", 1)


def _count_policy_nodes(tracer, args, result):
    tracer.count("model.node_visits", tracer.nodes(args[1]))


def _count_trials(tracer, args, result):
    tracer.count("sim.trials", result.trials)


def _count_bytes(tracer, args, result):
    tracer.count("io.bytes", len(result))


#: (module, attribute, span name, layer, counter hook).  The span name is
#: the metric prefix; spans that share a name add up.
TARGETS: tuple[tuple[object, str, str, str, Callable | None], ...] = (
    (exact, "optimal_value", "exact.optimal_value", "exact", _count_exact),
    (ptas, "max_over_starts", "exact.max_over_starts", "exact", None),
    (ptas, "solve_ptas", "ptas.solve_ptas", "ptas", _count_solve),
    (ptas, "validate_instance", "model.validate_instance", "model", None),
    (ptas, "estimate_max", "ptas.estimate_max", "ptas", None),
    (ptas, "enumerate_topologies", "ptas.enumerate_topologies", "ptas", None),
    (ptas, "config_dp", "ptas.config_dp", "ptas", _count_config_dp),
    (ptas, "materialize", "ptas.materialize", "ptas", None),
    (ptas, "block_profit_exact", "ptas.rescore", "block", None),
    (block, "blockify", "block.blockify", "block", None),
    (block, "subtree_values", "model.subtree_values", "model", _count_policy_nodes),
    (block, "block_profit_exact", "block.block_profit_exact", "block", None),
    (block, "block_profit_approx", "block.block_profit_approx", "block", None),
    (model, "evaluate_policy", "model.evaluate_policy", "model", _count_policy_nodes),
    (model, "validate_policy_tree", "model.validate_policy_tree", "model",
     _count_policy_nodes),
    (model, "subtree_values", "model.subtree_values", "model", _count_policy_nodes),
    (model, "truncate_policy", "model.truncate_policy", "model", _count_policy_nodes),
    (sim, "simulate", "sim.simulate", "sim", _count_trials),
    (spio, "serialize_policy", "io.serialize", "io", _count_bytes),
    (spio, "serialize_block_tree", "io.serialize", "io", _count_bytes),
    (spio, "parse_policy", "io.parse", "io", None),
    (spio, "parse_block_tree", "io.parse", "io", None),
    (problems, "build_probemax", "problems.build_probemax", "problems", None),
    (gen, "gen_random", "gen.gen_random", "gen", None),
    (gen, "gen_random_kernel", "gen.gen_random_kernel", "gen", None),
    (gen, "gen_random_policy", "gen.gen_random_policy", "gen", None),
)


class Tracer:
    """Records (name, layer, start, end, parent, input id, failed) spans.

    Use as a context manager: entering wraps every target, leaving
    restores the originals even when the block raises.
    """

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.input_id: object = None
        self._stack: list[int] = []
        #: (module, attribute, original function) of every wrapped target.
        self.originals: list[tuple[object, str, Callable]] = []
        self._node_counts: dict[int, tuple[object, int]] = {}

    def count(self, name: str, amount: float) -> None:
        self.counters[name] += amount

    def nodes(self, tree) -> int:
        """Node count of a tree, walked once per tree object."""
        hit = self._node_counts.get(id(tree))
        if hit is None or hit[0] is not tree:
            hit = (tree, count_nodes(tree))
            self._node_counts[id(tree)] = hit
        return hit[1]

    def _wrap(self, fn: Callable, name: str, layer: str, hook: Callable | None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, layer, start, end, parent, self.input_id, failed)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        try:
            for module, attr, name, layer, hook in TARGETS:
                original = getattr(module, attr)
                self.originals.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, layer, hook))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        for module, attr, original in reversed(self.originals):
            setattr(module, attr, original)

    def restored(self) -> bool:
        return all(getattr(module, attr) is original
                   for module, attr, original in self.originals)

    def self_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Self time (span duration minus its child spans) per span name
        and per layer."""
        child_time = [0.0] * len(self.spans)
        for name, layer, start, end, parent, _input, _failed in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        by_name: dict[str, float] = defaultdict(float)
        by_layer: dict[str, float] = defaultdict(float)
        for (name, layer, start, end, *_rest), inner in zip(self.spans, child_time):
            by_name[name] += end - start - inner
            by_layer[layer] += end - start - inner
        return by_name, by_layer

    def totals(self) -> tuple[dict[str, float], dict[str, int], dict[str, int]]:
        """Per span name: total seconds, calls, and calls that raised."""
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        failed: dict[str, int] = defaultdict(int)
        for name, layer, start, end, _parent, _input, did_fail in self.spans:
            seconds[name] += end - start
            calls[name] += 1
            failed[layer] += did_fail
        return seconds, calls, failed

    def write(self, path) -> None:
        """One JSON line per span, start and end relative to the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, layer, start, end, parent, input_id, failed in self.spans:
                fh.write(json.dumps({
                    "name": name, "layer": layer, "start": start - t0,
                    "end": end - t0, "parent": parent, "input": input_id,
                    "failed": failed}) + "\n")
