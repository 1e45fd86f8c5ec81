"""Seeded inputs, solver calls and output checks for the benchmark workloads.

Every input comes from ``gen.stream(seed, <workload>, index)``, so one seed
always gives the same inputs.  Inputs are grouped in rounds: a round holds
one input of each shape the workload mixes, and the timed loop only ever
stops between rounds, so every run sees the same mix of shapes.

The solver functions are looked up through their modules at call time
(``exact.optimal_value``, not a name imported from it), so the tracer can
wrap them from outside without touching the package.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from stochprobe import block, exact, model, problems, ptas
from stochprobe.harness import gen, sim
from stochprobe.harness import io as spio
from stochprobe.harness.gen import GenParams
from stochprobe.model import ActionSpec, Instance, PolicyNode, TransitionRow, ValueSpace

#: The seed whose exact-probemax values are recorded beside the benchmark.
DEFAULT_SEED = 0


@dataclass
class Input:
    key: int      # position in the pool, unique within a run
    shape: str
    data: object


@dataclass
class Outcome:
    """What one input produced.

    ``values`` must be bit-identical between runs of the same input (and
    between traced and untraced runs); ``keep`` holds the outputs the
    checks need; ``errors`` names the exception type of each failed call,
    or holds "skipped" for a call whose input a failed call did not make.
    """

    values: tuple
    attempted: int
    errors: list[str]
    keep: object


def child_seed(g) -> int:
    return int(g.integers(0, 2 ** 63))


def value_ratio(value: float, ref: float) -> float:
    """Value over reference; both sides zero count as a full score."""
    if abs(ref) <= 1e-12:
        return 1.0
    return value / ref


def _call(errors: list[str], fn: Callable, *args):
    """Run one measured call; a call that raises is counted, not fatal."""
    try:
        return fn(*args)
    except Exception as err:  # every raise is a failed call of the program
        errors.append(type(err).__name__)
        return None


class Workload:
    name = ""
    why = ""
    shapes: tuple[str, ...] = ()
    #: Rounds generated in set-up; the timed loop cycles through them.
    pool_rounds = 1
    #: Rounds every run completes.  Ratios and ok_frac are taken over them,
    #: so the inputs behind these figures do not depend on how fast the
    #: program is; there are enough of them that the latency tail falls
    #: among the slowest shape of the workload.
    quality_rounds = 1

    def make(self, seed: int, index: int, shape: str) -> Input:
        raise NotImplementedError

    def setup(self, seed: int) -> list[list[Input]]:
        width = len(self.shapes)
        return [[self.make(seed, r * width + k, shape)
                 for k, shape in enumerate(self.shapes)]
                for r in range(self.pool_rounds)]

    def run(self, inp: Input) -> Outcome:
        raise NotImplementedError

    def check(self, inp: Input, out: Outcome, seed: int) -> list[str]:
        raise NotImplementedError

    def ratio(self, inp: Input, out: Outcome) -> float | None:
        raise NotImplementedError


# --- exact-probemax ----------------------------------------------------------


@dataclass
class ProbemaxInput:
    spec: problems.ProblemSpec
    instance: Instance


def _probemax(seed: int, label: str, index: int, n: int, m: int) -> ProbemaxInput:
    """Probemax on the default greedy-tied grid: eps 0.3 gives 13 levels."""
    g = gen.stream(seed, label, index)
    spec = gen.gen_random(child_seed(g), GenParams(
        kind="probemax", n=n, m=m, support=3, levels=8, q=8, step=1.0, eps=0.3))
    instance, _maps = problems.build_probemax(spec)
    return ProbemaxInput(spec, instance)


def probemax_bounds(data: ProbemaxInput) -> tuple[float, float]:
    """E[max] of the discretized greedy set and of all discretized items.

    The optimum lies between them: probing the greedy set is one feasible
    policy, and no policy beats seeing every item.
    """
    meta = data.instance.meta
    images = [problems.discretize_value(pmf, meta["theta"], meta["step"])[0]
              for pmf in data.spec.items]
    low = problems.expected_max([images[i] for i in meta["greedy_set"]])
    return low, problems.expected_max(images)


class ExactProbemax(Workload):
    name = "exact-probemax"
    why = ("Probemax n/m 16/4, 18/5, 20/6 on the 13-level greedy grid, one "
           "optimal_value per instance: the exact Bellman solver does all the work")
    rungs = ((16, 4), (18, 5), (20, 6))
    shapes = tuple(f"{n}/{m}" for n, m in rungs)
    pool_rounds = 24
    quality_rounds = 12

    def __init__(self, recorded: dict[int, float] | None = None):
        self.recorded = recorded or {}

    def make(self, seed, index, shape):
        n, m = shape_ints(shape)
        return Input(index, shape, _probemax(seed, self.name, index, n, m))

    def run(self, inp):
        errors: list[str] = []
        value = _call(errors, exact.optimal_value, inp.data.instance)
        return Outcome((value,), 1, errors, value)

    def check(self, inp, out, seed):
        value = out.keep
        if value is None:
            return []
        low, high = probemax_bounds(inp.data)
        errs = []
        if not low - 1e-9 <= value <= high + 1e-9:
            errs.append(f"input {inp.key}: value {value!r} outside "
                        f"[{low!r}, {high!r}]")
        if seed == DEFAULT_SEED:
            want = self.recorded.get(inp.key)
            if want is None:
                errs.append(f"input {inp.key}: no recorded value for seed {seed}")
            elif abs(value - want) > 1e-9:
                errs.append(f"input {inp.key}: value {value!r}, recorded {want!r}")
        return errs

    def ratio(self, inp, out):
        if out.keep is None:
            return None
        return value_ratio(out.keep, probemax_bounds(inp.data)[1])


# --- ptas-e2e and ptas-wide --------------------------------------------------


@dataclass
class PtasInput:
    instance: Instance
    knobs: ptas.PtasKnobs
    opt: float | None = None  # exact optimum, filled in by the checks


class PtasWorkload(Workload):
    def run(self, inp):
        errors: list[str] = []
        res = _call(errors, ptas.solve_ptas, inp.data.instance, inp.data.knobs)
        if res is None:
            return Outcome((None,), 1, errors, None)
        d = res.diagnostics
        values = (res.value, d.max_ref, d.topologies, d.completed,
                  d.capacity_errors, d.states_explored, d.best_topology,
                  d.best_surrogate, d.partial)
        return Outcome(values, 1, errors, res)

    def _opt(self, data: PtasInput) -> float:
        if data.opt is None:
            data.opt = exact.optimal_value(data.instance)
        return data.opt

    def check(self, inp, out, seed):
        res = out.keep
        if res is None:
            return []
        inst = inp.data.instance
        opt = self._opt(inp.data)
        errs = []
        if res.value > opt + 1e-9:
            errs.append(f"input {inp.key}: value {res.value!r} above the "
                        f"optimum {opt!r}")
        if res.value < inst.terminal[inst.start_level]:
            errs.append(f"input {inp.key}: value {res.value!r} below the "
                        "start terminal")
        rescored = block.block_profit_exact(inst, res.tree)
        if rescored != res.value:
            errs.append(f"input {inp.key}: returned tree scores {rescored!r}, "
                        f"not {res.value!r}")
        return errs

    def ratio(self, inp, out):
        if out.keep is None:
            return None
        return value_ratio(out.keep.value, self._opt(inp.data))


def e2e_shape(i: int) -> str:
    """Shape ``n<n>m<m>k<levels>q<q>`` of index ``i`` in the ptas_e2e
    acceptance suite."""
    if i % 5 == 4:
        return f"n{4 + (i // 5) % 2}m3k3q4"
    return f"n{5 + i % 4}m2k{3 + i % 2}q{4 if (i // 2) % 2 else 8}"


def shape_ints(shape: str) -> list[int]:
    return [int(x) for x in re.findall(r"\d+", shape)]


class PtasE2E(PtasWorkload):
    name = "ptas-e2e"
    why = ("the four-level m=2 shapes of the ptas_e2e suite with its knobs and the "
           "exact max hint: config_dp with its decode and traceback takes most of each solve")
    # Suite indices 1 and 3.  The m=3 shapes take over 2 s a solve, too few
    # fit in a run to give steady figures; the three-level shapes take 20 ms
    # and would put the median on the edge between two groups of inputs.
    shapes = tuple(e2e_shape(i) for i in (1, 3))
    pool_rounds = 32
    quality_rounds = 8

    def make(self, seed, index, shape):
        n, m, levels, q = shape_ints(shape)
        g = gen.stream(seed, self.name, index)
        spec = gen.gen_random(child_seed(g), GenParams(
            kind="probemax", n=n, m=m, support=3, levels=levels, q=q, step=1.0,
            lossless=True))
        instance, _maps = problems.build_probemax(spec, step=1.0,
                                                  theta=float(levels - 1))
        knobs = ptas.PtasKnobs(eps=0.3, grid=1.0 / q, block_budget=6,
                               depth_limit=4, top_k=32, max_hint="exact")
        return Input(index, shape, PtasInput(instance, knobs))


class PtasWide(PtasWorkload):
    name = "ptas-wide"
    why = ("Probemax n 4, m 2 on the 13-level greedy grid, greedy max hint: "
           "378 topologies per solve, most rooted at levels no item reaches")
    shapes = ("n4m2",)
    pool_rounds = 64
    quality_rounds = 11

    def make(self, seed, index, shape):
        n, m = shape_ints(shape)
        data = _probemax(seed, self.name, index, n, m)
        knobs = ptas.PtasKnobs(eps=0.3, grid=0.125, block_budget=4,
                               depth_limit=3, top_k=32,
                               max_hint="greedy_probemax")
        return Input(index, shape, PtasInput(data.instance, knobs))


# --- tree-walks --------------------------------------------------------------


@dataclass
class TreeInput:
    instance: Instance
    tree: PolicyNode


#: Node counts of the random policies in one round.  Every round holds
#: one policy of each size, so the work per round barely depends on the seed.
TREE_SIZES = (2_000, 4_000, 8_000)
#: Chain depths: the first passes every walker at the seed commit, the
#: second overflows the recursive ones.
CHAIN_DEPTHS = (450, 1200)
#: Stream indices of the chains start here, after those of random policies.
CHAIN_INDEX = 1_000_000
TREE_EPS = 0.3
SIM_TRIALS = 4_000
#: Largest distance, in standard errors, between a simulated mean and the
#: exact value it estimates.
SIM_SIGMAS = 4.0


def count_nodes(tree) -> int:
    count = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children.values())
    return count


def trim(tree: PolicyNode, size: int) -> PolicyNode:
    """The policy cut to at most ``size`` nodes: nodes are kept in preorder,
    each with all its children, and a node whose children no longer fit
    stops there with a leaf.  The result is a valid policy again."""
    budget = size - 1

    def build(node: PolicyNode) -> PolicyNode:
        nonlocal budget
        if node.is_leaf or budget < len(node.children):
            return model.leaf_node(node.level, node.t)
        budget -= len(node.children)
        return PolicyNode(node.action, node.level, node.t,
                          {j: build(c) for j, c in node.children.items()})

    return build(tree)


def random_policy(g) -> TreeInput:
    """A random kernel and a random policy on it."""
    n = int(g.integers(30, 61))
    params = GenParams(n=n, levels=int(g.integers(6, 9)), horizon=n, q=8,
                       flat_bias=float(g.uniform(0.6, 0.8)))
    instance = gen.gen_random_kernel(child_seed(g), params)
    return TreeInput(instance, gen.gen_random_policy(instance, child_seed(g), stop=0.05))


def chain_tree(g, depth: int) -> TreeInput:
    """A two-level kernel of ``depth`` single-action groups and the policy
    that probes them in order while the level stays flat."""
    actions = []
    for j in range(depth):
        risk = int(g.integers(1, 5)) / 64
        row = TransitionRow(((0, 1.0 - risk), (1, risk)),
                            int(g.integers(0, 9)) / 8)
        actions.append(ActionSpec(f"c{j}", f"g{j}", {0: row}))
    terminal = (0.0, int(g.integers(8, 17)) / 8)
    instance = Instance(ValueSpace(2), depth, tuple(actions), terminal)
    tree = model.leaf_node(0, depth + 1)
    for j in reversed(range(depth)):
        tree = PolicyNode(f"c{j}", 0, j + 1, {0: tree, 1: model.leaf_node(1, j + 2)})
    return TreeInput(instance, tree)


@dataclass
class TreeOutputs:
    value: float | None
    root_value: float | None
    block_exact: float | None
    sim_policy: sim.SimResult | None
    sim_block: sim.SimResult | None
    policy_text: str | None
    block_text: str | None


class TreeWalks(Workload):
    name = "tree-walks"
    why = ("random kernels with 2k-8k node policies plus flat chains at depth "
           "450 and 1200: the tree walkers of model, block, sim and io do the work")
    shapes = tuple(f"random{n}" for n in TREE_SIZES) + \
        tuple(f"chain{d}" for d in CHAIN_DEPTHS)
    pool_rounds = 4
    quality_rounds = 4
    calls_per_tree = 13

    def setup(self, seed):
        """Random policies are drawn from stream indices 0, 1, ...; each
        fills the largest open size slot it reaches and is trimmed to it."""
        sizes = [shape_ints(shape)[0] for shape in self.shapes
                 if shape.startswith("random")]
        trees: dict[int, list[TreeInput]] = {size: [] for size in sizes}
        for index in range(1000):
            if all(len(got) == self.pool_rounds for got in trees.values()):
                break
            draw = random_policy(gen.stream(seed, self.name, index))
            nodes = count_nodes(draw.tree)
            open_sizes = [size for size, got in trees.items()
                          if size <= nodes and len(got) < self.pool_rounds]
            if open_sizes:
                size = max(open_sizes)
                trees[size].append(TreeInput(draw.instance, trim(draw.tree, size)))
        else:
            raise RuntimeError("random policies did not fill the size slots")
        rounds = []
        for r in range(self.pool_rounds):
            row = []
            for k, shape in enumerate(self.shapes):
                if shape.startswith("random"):
                    data = trees[shape_ints(shape)[0]][r]
                else:
                    g = gen.stream(seed, self.name, CHAIN_INDEX + r * len(self.shapes) + k)
                    data = chain_tree(g, shape_ints(shape)[0])
                row.append(Input(r * len(self.shapes) + k, shape, data))
            rounds.append(row)
        return rounds

    def run(self, inp):
        inst, tree = inp.data.instance, inp.data.tree
        errors: list[str] = []
        value = _call(errors, model.evaluate_policy, inst, tree)
        _call(errors, model.validate_policy_tree, inst, tree)
        subtree = _call(errors, model.subtree_values, inst, tree)
        root_value = None if subtree is None else subtree[id(tree)]
        truncated = _call(errors, model.truncate_policy, inst, tree, TREE_EPS)
        max_ref = max(inst.terminal) or 1.0
        btree = _call(errors, block.blockify, inst, tree, TREE_EPS, max_ref)
        sim_policy = _call(errors, sim.simulate, inst, tree, inp.key, SIM_TRIALS)
        policy_text = _call(errors, spio.serialize_policy, tree)
        if policy_text is None:
            errors.append("skipped")
        else:
            _call(errors, spio.parse_policy, policy_text)
        block_exact = block_approx = sim_block = block_text = None
        if btree is None:
            errors.extend(["skipped"] * 5)
        else:
            block_exact = _call(errors, block.block_profit_exact, inst, btree)
            block_approx = _call(errors, block.block_profit_approx, inst, btree)
            sim_block = _call(errors, sim.simulate, inst, btree, inp.key, SIM_TRIALS)
            block_text = _call(errors, spio.serialize_block_tree, btree)
            if block_text is None:
                errors.append("skipped")
            else:
                _call(errors, spio.parse_block_tree, block_text)

        def moments(res):
            return None if res is None else (res.mean, res.half_width)

        values = (value, root_value, truncated is None, block_exact, block_approx,
                  moments(sim_policy), moments(sim_block),
                  None if policy_text is None else len(policy_text),
                  None if block_text is None else len(block_text), tuple(errors))
        keep = TreeOutputs(value, root_value, block_exact, sim_policy, sim_block,
                           policy_text, block_text)
        return Outcome(values, self.calls_per_tree, errors, keep)

    def check(self, inp, out, seed):
        o: TreeOutputs = out.keep
        errs = []

        def near(res: sim.SimResult | None, exact_value: float | None, what: str):
            if res is None or exact_value is None:
                return
            stderr = res.half_width / sim.Z99
            if abs(res.mean - exact_value) > max(SIM_SIGMAS * stderr, 1e-9):
                errs.append(f"input {inp.key}: simulated {what} mean {res.mean!r} "
                            f"is over {SIM_SIGMAS} standard errors from "
                            f"{exact_value!r}")

        near(o.sim_policy, o.value, "policy")
        near(o.sim_block, o.block_exact, "block")
        if o.value is not None and o.root_value is not None \
                and o.root_value != o.value:
            errs.append(f"input {inp.key}: subtree root value {o.root_value!r} "
                        f"differs from the policy value {o.value!r}")
        if o.policy_text is not None and \
                spio.serialize_policy(spio.parse_policy(o.policy_text)) != o.policy_text:
            errs.append(f"input {inp.key}: policy io round trip changed the text")
        if o.block_text is not None and \
                spio.serialize_block_tree(spio.parse_block_tree(o.block_text)) != o.block_text:
            errs.append(f"input {inp.key}: block io round trip changed the text")
        return errs

    def ratio(self, inp, out):
        o: TreeOutputs = out.keep
        if o.value is None or o.block_exact is None:
            return None
        return value_ratio(o.block_exact, o.value)


def workloads(recorded: dict[int, float] | None = None) -> dict[str, Workload]:
    return {w.name: w for w in (ExactProbemax(recorded), PtasE2E(), PtasWide(),
                                TreeWalks())}
