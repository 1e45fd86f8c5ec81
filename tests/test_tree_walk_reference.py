"""The tree walkers and the tree document codec against their reference
copies in ``tree_walk_reference.py``.

Each walk now looks its rows and batches up once per key, and the codec
reads and writes rows in one checked pass.  Every value, tree, document
and error message must stay what the reference gives: floats are compared
by ``.hex()``, trees as flat preorder tables, errors by class and message.
"""

from __future__ import annotations

import json

import pytest

import tree_walk_reference as ref
from stochprobe import block, model
from stochprobe.block import BlockNode, block_leaf
from stochprobe.exceptions import ParseError, StructuralError
from stochprobe.harness import io as spio
from stochprobe.harness import sim
from stochprobe.harness.gen import GenParams, gen_random_kernel, gen_random_policy, stream
from stochprobe.model import (ActionSpec, Instance, PolicyNode, TransitionRow, ValueSpace,
                              leaf_node)

from conftest import act, kernel

EPS = 0.3
TRIALS = 500

#: Where the package's callers look the replaced functions up.
PATCHES = (
    (model, "walk_policy", ref.walk_policy),
    (sim, "walk_policy", ref.walk_policy),
    (block, "walk_blocks", ref.walk_blocks),
    (block, "blockify", ref.blockify),
    (sim, "walk_blocks", ref.walk_blocks),
    (spio, "_serialize_tree", ref._serialize_tree),
    (spio, "_parse_tree", ref._parse_tree),
)


def both(monkeypatch, compute):
    """``compute()`` with the package's code, then with the reference's."""
    new = compute()
    with monkeypatch.context() as patch:
        for module, name, value in PATCHES:
            patch.setattr(module, name, value)
        old = compute()
    return new, old


def flat(tree) -> list[tuple]:
    """A tree as its preorder table: per node its key, its fields and its
    child count, children by ascending key."""
    out = []
    stack = [(None, tree)]
    while stack:
        key, node = stack.pop()
        fields = (node.action, node.level, node.t) if isinstance(node, PolicyNode) \
            else (node.items, node.level)
        out.append((type(node).__name__, key, fields, len(node.children)))
        stack.extend(sorted(node.children.items(), reverse=True))
    return out


def hexed(sim_result) -> tuple:
    return (sim_result.mean.hex(), sim_result.half_width.hex(), sim_result.trials)


def outputs(instance: Instance, tree: PolicyNode, seed: int) -> dict[str, object]:
    """Everything the walkers and the codec give for one policy."""
    max_ref = max(instance.terminal) or 1.0
    model.validate_policy_tree(instance, tree)
    values = model.subtree_values(instance, tree)
    btree = block.blockify(instance, tree, EPS, max_ref)
    policy_text = spio.serialize_policy(tree)
    block_text = spio.serialize_block_tree(btree)
    return {
        "value": model.evaluate_policy(instance, tree).hex(),
        "subtree": [(key, v.hex()) for key, v in values.items()],
        "reach": [(id(node), phi.hex(), mu.hex(), acc.hex())
                  for node, phi, mu, acc in model.walk_reach(instance, tree)],
        "cut_set": [(id(node), phi.hex(), mu.hex())
                    for node, phi, mu in model.truncation_cut_set(instance, tree, EPS)],
        "truncated": flat(model.truncate_policy(instance, tree, EPS)),
        "blockify": flat(btree),
        "block_exact": block.block_profit_exact(instance, btree).hex(),
        "block_approx": block.block_profit_approx(instance, btree).hex(),
        "sim_policy": hexed(sim.simulate(instance, tree, seed, TRIALS)),
        "sim_block": hexed(sim.simulate(instance, btree, seed, TRIALS)),
        "policy_text": policy_text,
        "block_text": block_text,
        "policy_parsed": flat(spio.parse_policy(policy_text)),
        "block_parsed": flat(spio.parse_block_tree(block_text)),
    }


def node_count(tree) -> int:
    count, stack = 0, [tree]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children.values())
    return count


def random_policies(low: int, high: int, wanted: int) -> list[tuple[Instance, PolicyNode]]:
    """The first ``wanted`` random kernels and policies, by seed, whose
    policy has between ``low`` and ``high`` nodes."""
    found = []
    for seed in range(200):
        g = stream(seed, "tree-walk-reference")
        n = int(g.integers(30, 61))
        params = GenParams(n=n, levels=int(g.integers(6, 9)), horizon=n, q=8,
                           flat_bias=float(g.uniform(0.6, 0.8)))
        instance = gen_random_kernel(seed, params)
        tree = gen_random_policy(instance, seed, stop=0.05)
        if low <= node_count(tree) <= high:
            found.append((instance, tree))
            if len(found) == wanted:
                return found
    raise AssertionError("too few random policies in the size range")


def chain(seed: int, depth: int) -> tuple[Instance, PolicyNode]:
    """A two-level kernel of ``depth`` single-action groups and the policy
    probing them in order while the level stays flat."""
    g = stream(seed, "tree-walk-reference-chain")
    actions = []
    for j in range(depth):
        risk = int(g.integers(1, 5)) / 64
        row = TransitionRow(((0, 1.0 - risk), (1, risk)), int(g.integers(0, 9)) / 8)
        actions.append(ActionSpec(f"c{j}", f"g{j}", {0: row}))
    instance = Instance(ValueSpace(2), depth, tuple(actions),
                        (0.0, int(g.integers(8, 17)) / 8))
    tree = leaf_node(0, depth + 1)
    for j in reversed(range(depth)):
        tree = PolicyNode(f"c{j}", 0, j + 1, {0: tree, 1: leaf_node(1, j + 2)})
    return instance, tree


@pytest.fixture(scope="module")
def randoms() -> list[tuple[Instance, PolicyNode]]:
    return random_policies(2_000, 8_000, 3)


@pytest.mark.parametrize("index", range(3))
def test_random_policies_match_the_reference(monkeypatch, randoms, index):
    instance, tree = randoms[index]
    new, old = both(monkeypatch, lambda: outputs(instance, tree, index))
    assert new.keys() == old.keys()
    for name in new:
        assert new[name] == old[name], name


@pytest.mark.parametrize("seed", [0, 1])
def test_depth_1200_chains_match_the_reference(monkeypatch, seed):
    instance, tree = chain(seed, 1_200)
    new, old = both(monkeypatch, lambda: outputs(instance, tree, seed))
    for name in new:
        assert new[name] == old[name], name


def caught(compute) -> tuple[type, str]:
    with pytest.raises((ParseError, StructuralError)) as info:
        compute()
    return type(info.value), str(info.value)


MALFORMED_DOCUMENTS = {
    "wrong row length": {"policy": [["a", 0, 1]]},
    "true as a level": {"policy": [["a", True, 1, -1]]},
    "float t": {"policy": [["a", 0, 1.0, -1]]},
    "parent not an earlier row": {"policy": [["a", 0, 1, -1], [None, 0, 2, 5]]},
    "parent is the row itself": {"policy": [["a", 0, 1, -1], [None, 0, 2, 1]]},
    "root parent not -1": {"policy": [["a", 0, 1, 0]]},
    "duplicate child level": {"policy": [["a", 0, 1, -1], [None, 0, 2, 0], [None, 0, 2, 0]]},
    "non-string action": {"policy": [[7, 0, 1, -1]]},
    "bool parent": {"policy": [["a", 0, 1, -1], [None, 0, 2, False]]},
    "row not a list": {"policy": [{"action": "a"}]},
    "non-string item": {"blocks": [[["a", 3], 0, -1]]},
    "items not a list": {"blocks": [["a", 0, -1]]},
    "block level a string": {"blocks": [[["a"], "0", -1]]},
    "duplicate block child": {"blocks": [[["a"], 0, -1], [[], 1, 0], [[], 1, 0]]},
    "empty rows": {"policy": []},
    "rows not a list": {"blocks": {"0": []}},
    "unknown top-level key": {"policy": [[None, 0, 1, -1]], "extra": 1},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_DOCUMENTS))
def test_malformed_documents_raise_the_reference_message(monkeypatch, name):
    text = json.dumps(MALFORMED_DOCUMENTS[name])
    new, old = both(monkeypatch, lambda: caught(lambda: spio.parse_policy_or_block(text)))
    assert new == old
    assert new[0] is ParseError


def coin() -> Instance:
    """One action ``a`` at level 0: half stays, half moves up to level 1."""
    return kernel([act("a", "g", {0: ((0, 0.5), (1, 0.5))}, profit=1.0)], [0.0, 1.0], 3)


MALFORMED_POLICIES = {
    "missing child": PolicyNode("a", 0, 1, {0: leaf_node(0, 2)}),
    "stray child": PolicyNode("a", 0, 1, {0: leaf_node(0, 2), 1: leaf_node(1, 2),
                                          2: leaf_node(2, 2)}),
    "wrong entry level": PolicyNode("a", 0, 1, {0: leaf_node(0, 2), 1: leaf_node(0, 2)}),
    "deep wrong entry level": PolicyNode("a", 0, 1, {
        0: PolicyNode("b", 0, 2, {0: leaf_node(1, 3)}), 1: leaf_node(1, 2)}),
}

MALFORMED_BLOCKS = {
    "missing child": BlockNode(("a",), 0, {0: block_leaf(0)}),
    "wrong entry level": BlockNode(("a",), 0, {0: block_leaf(0), 1: block_leaf(0)}),
    "leaf with items": BlockNode(("a",), 0, {0: BlockNode(("a",), 0, {}), 1: block_leaf(1)}),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_POLICIES))
def test_malformed_policies_raise_the_reference_message(monkeypatch, name):
    instance = kernel([act("a", "g", {0: ((0, 0.5), (1, 0.5))}),
                       act("b", "h", {0: ((0, 1.0),)})], [0.0, 1.0, 2.0], 3)
    tree = MALFORMED_POLICIES[name]
    for walker in (model.evaluate_policy, model.subtree_values, model.validate_policy_tree,
                   lambda i, t: sim.simulate(i, t, 0, 10)):
        new, old = both(monkeypatch, lambda: caught(lambda: walker(instance, tree)))
        assert new == old
        assert new[0] is StructuralError


@pytest.mark.parametrize("name", sorted(MALFORMED_BLOCKS))
def test_malformed_block_trees_raise_the_reference_message(monkeypatch, name):
    instance = coin()
    tree = MALFORMED_BLOCKS[name]
    for walker in (block.block_profit_exact, block.block_profit_approx,
                   lambda i, t: sim.simulate(i, t, 0, 10)):
        new, old = both(monkeypatch, lambda: caught(lambda: walker(instance, tree)))
        assert new == old
        assert new[0] is StructuralError
