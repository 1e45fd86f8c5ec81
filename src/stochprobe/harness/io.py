"""JSON round-trips for problem specs, kernel instances, and policy trees.

Two top-level document shapes share the ``parse_instance`` entry point.
The problem form carries a ``kind`` plus raw item distributions; the
kernel form carries the compiled level and action tables, with each row
written as ``[from, [[to, p], ...], profit]``.  Serialization writes
sorted keys and shortest-repr numbers, so equal objects yield identical
bytes and every emitted float parses back to the same value.

Trees are flat preorder tables, ``{"policy": [[action, level, t, parent],
...]}`` and ``{"blocks": [[items, level, parent], ...]}``: the root is row
0 with parent -1, each node's children follow it by ascending level, and a
child's key is its entry level.  Tree depth never adds JSON nesting.

Metadata round-trips through a tuple convention: JSON arrays inside
``meta`` parse back as tuples, matching what the builders store.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from typing import Any, Callable

from ..block import BlockNode
from ..exceptions import ParameterError, ParseError, StructuralError
from ..model import ActionSpec, Instance, Pmf, PolicyNode, TransitionRow, ValueSpace
from ..problems import KINDS, ProblemSpec

__all__ = [
    "parse_block_tree",
    "parse_instance",
    "parse_policy",
    "parse_policy_or_block",
    "serialize_block_tree",
    "serialize_instance",
    "serialize_policy",
    "serialize_spec",
]

_SPEC_FIELDS = {"kind", "items", "m", "k", "target", "capacity", "eps",
                "costs", "profits"}
_KERNEL_FIELDS = {"levels", "rep", "horizon", "start_level", "terminal",
                  "actions", "meta"}


def _fail(field: str, why: str) -> None:
    raise ParseError(f"{field}: {why}")


def _num(value: object, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(field, f"expected a number, got {value!r}")
    return float(value)


def _int(value: object, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(field, f"expected an integer, got {value!r}")
    return value


def _str(value: object, field: str) -> str:
    if not isinstance(value, str):
        _fail(field, f"expected a string, got {value!r}")
    return value


def _list(value: object, field: str, item: Callable, what: str) -> tuple:
    if not isinstance(value, list):
        _fail(field, f"expected a list of {what}")
    return tuple(item(v, f"{field}[{i}]") for i, v in enumerate(value))


def _pairs(value: object, field: str, first: Callable, a: str, b: str) -> list:
    """``[[a, b], ...]`` with ``a`` read by ``first`` and ``b`` a nonnegative number."""
    if not isinstance(value, list):
        _fail(field, f"expected a list of [{a}, {b}] pairs")
    out = []
    for idx, pair in enumerate(value):
        where = f"{field}[{idx}]"
        if not isinstance(pair, list) or len(pair) != 2:
            _fail(where, f"expected a [{a}, {b}] pair")
        x = first(pair[0], f"{where}.{a}")
        p = _num(pair[1], f"{where}.{b}")
        if p < 0.0:
            _fail(f"{where}.{b}", f"negative probability {p!r}")
        out.append((x, p))
    return out


def _pmf(value: object, field: str) -> Pmf:
    try:
        return Pmf(tuple(_pairs(value, field, _num, "outcome", "probability")))
    except ParameterError as exc:
        raise ParseError(f"{field}: {exc}") from exc


def _tupled(value: object) -> object:
    """Canonicalize parsed metadata: arrays become tuples, recursively."""
    if isinstance(value, list):
        return tuple(_tupled(v) for v in value)
    if isinstance(value, dict):
        return {k: _tupled(v) for k, v in value.items()}
    return value


def _listed(value: object) -> object:
    """Inverse of :func:`_tupled` for serialization."""
    if isinstance(value, tuple):
        return [_listed(v) for v in value]
    if isinstance(value, Mapping):
        return {k: _listed(v) for k, v in value.items()}
    return value


def _parse_spec(obj: Mapping[str, object]) -> ProblemSpec:
    kind = obj.get("kind")
    if kind not in KINDS:
        _fail("kind", f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}")
    unknown = sorted(set(obj) - _SPEC_FIELDS)
    if unknown:
        _fail(unknown[0], "unknown field")
    raw_items = obj.get("items")
    if not isinstance(raw_items, list):
        _fail("items", "expected a list of {\"pmf\": ...} objects")
    items = []
    for idx, entry in enumerate(raw_items):
        if not isinstance(entry, dict) or "pmf" not in entry:
            _fail(f"items[{idx}]", "expected an object with a \"pmf\" field")
        items.append(_pmf(entry["pmf"], f"items[{idx}].pmf"))
    kwargs: dict[str, Any] = {}
    for name in ("m", "k"):
        if obj.get(name) is not None:
            kwargs[name] = _int(obj[name], name)
    for name in ("target", "capacity", "eps"):
        if obj.get(name) is not None:
            kwargs[name] = _num(obj[name], name)
    for name in ("costs", "profits"):
        if obj.get(name) is not None:
            kwargs[name] = _list(obj[name], name, _num, "numbers")
    try:
        return ProblemSpec(kind=kind, items=tuple(items), **kwargs)
    except ParameterError as exc:
        raise ParseError(str(exc)) from exc


def _parse_rows(value: object, field: str) -> dict[int, TransitionRow]:
    if not isinstance(value, list):
        _fail(field, "expected a list of [from, [[to, p], ...], profit] triples")
    rows: dict[int, TransitionRow] = {}
    for idx, triple in enumerate(value):
        where = f"{field}[{idx}]"
        if not isinstance(triple, list) or len(triple) != 3:
            _fail(where, "expected [from, [[to, p], ...], profit]")
        src = _int(triple[0], f"{where}.from")
        if src in rows:
            _fail(where, f"duplicate row for level {src}")
        probs = _pairs(triple[1], f"{where}.probs", _int, "to", "p")
        profit = _num(triple[2], f"{where}.profit")
        rows[src] = TransitionRow(tuple(probs), profit)
    return rows


def _parse_kernel(obj: Mapping[str, object]) -> Instance:
    unknown = sorted(set(obj) - _KERNEL_FIELDS)
    if unknown:
        _fail(unknown[0], "unknown field")
    levels = _int(obj.get("levels"), "levels")
    rep = None if obj.get("rep") is None else _list(obj["rep"], "rep", _num, "numbers or null")
    horizon = _int(obj.get("horizon"), "horizon")
    start = _int(obj.get("start_level", 0), "start_level")
    terminal = _list(obj.get("terminal"), "terminal", _num, "numbers")
    raw_actions = obj.get("actions")
    if not isinstance(raw_actions, list):
        _fail("actions", "expected a list of action objects")
    actions = []
    for idx, entry in enumerate(raw_actions):
        where = f"actions[{idx}]"
        if not isinstance(entry, dict):
            _fail(where, "expected an object")
        unknown = sorted(set(entry) - {"id", "group", "rows", "meta"})
        if unknown:
            _fail(f"{where}.{unknown[0]}", "unknown field")
        action_id = _str(entry.get("id"), f"{where}.id")
        group = _str(entry.get("group"), f"{where}.group")
        rows = _parse_rows(entry.get("rows"), f"{where}.rows")
        raw_meta = entry.get("meta", {})
        if not isinstance(raw_meta, dict):
            _fail(f"{where}.meta", "expected an object")
        actions.append(ActionSpec(action_id, group, rows, _tupled(raw_meta)))
    raw_meta = obj.get("meta", {})
    if not isinstance(raw_meta, dict):
        _fail("meta", "expected an object")
    try:
        return Instance(ValueSpace(levels, rep), horizon, tuple(actions),
                        terminal, start_level=start, meta=_tupled(raw_meta))
    except ParameterError as exc:
        raise ParseError(str(exc)) from exc


def _loads(text: str) -> Mapping[str, object]:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("top level: expected an object")
    return obj


def parse_instance(text: str) -> ProblemSpec | Instance:
    """Parse either document shape; errors name the offending field."""
    obj = _loads(text)
    if "kind" in obj:
        return _parse_spec(obj)
    if "levels" in obj or "actions" in obj:
        return _parse_kernel(obj)
    raise ParseError("top level: expected a \"kind\" (problem form) or "
                     "\"levels\"/\"actions\" (kernel form) field")


def _dumps(doc: object) -> str:
    return json.dumps(doc, sort_keys=True, allow_nan=False) + "\n"


def serialize_spec(spec: ProblemSpec) -> str:
    doc: dict[str, object] = {
        "kind": spec.kind,
        "items": [{"pmf": [[o, p] for o, p in pmf.entries]} for pmf in spec.items],
        "eps": spec.eps,
    }
    for name in ("m", "k", "target", "capacity"):
        value = getattr(spec, name)
        if value is not None:
            doc[name] = value
    if spec.costs is not None:
        doc["costs"] = list(spec.costs)
    if spec.profits is not None:
        doc["profits"] = list(spec.profits)
    return _dumps(doc)


def serialize_instance(instance: Instance) -> str:
    doc = {
        "levels": instance.values.level_count,
        "rep": None if instance.values.rep is None else list(instance.values.rep),
        "horizon": instance.horizon,
        "start_level": instance.start_level,
        "terminal": list(instance.terminal),
        "actions": [
            {
                "id": spec.id,
                "group": spec.group,
                "rows": [[lvl, [[j, p] for j, p in row.probs], row.profit]
                         for lvl, row in sorted(spec.rows.items())],
                "meta": _listed(dict(spec.meta)),
            }
            for spec in instance.actions
        ],
        "meta": _listed(dict(instance.meta)),
    }
    return _dumps(doc)


def _policy_node(row: list, where: str, children: dict[int, PolicyNode]) -> PolicyNode:
    if row[0] is not None:
        _str(row[0], f"{where}.action")
    return PolicyNode(row[0], _int(row[1], f"{where}.level"), _int(row[2], f"{where}.t"),
                      children)


def _block_node(row: list, where: str, children: dict[int, BlockNode]) -> BlockNode:
    items = _list(row[0], f"{where}.items", _str, "action ids")
    return BlockNode(items, _int(row[1], f"{where}.level"), children)


#: Per tree kind: the document key, the node fields a row holds before its
#: parent's row index, and the parser that makes the node of a row.
_TREES: dict[type, tuple[str, tuple[str, ...], Callable]] = {
    PolicyNode: ("policy", ("action", "level", "t"), _policy_node),
    BlockNode: ("blocks", ("items", "level"), _block_node),
}


def _serialize_tree(tree: PolicyNode | BlockNode, kind: type) -> str:
    key, fields, _ = _TREES[kind]
    rows: list[list[object]] = []
    stack = [(tree, -1)]
    while stack:
        node, parent = stack.pop()
        rows.append([getattr(node, name) for name in fields] + [parent])
        for j, child in sorted(node.children.items(), reverse=True):
            if child.level != j:
                raise StructuralError(f"child keyed {j} carries entry level {child.level}")
            stack.append((child, len(rows) - 1))
    return _dumps({key: rows})


def _parse_tree(obj: Mapping[str, object], kind: type) -> Any:
    """Rows after the first go into their parent's children, keyed by entry level."""
    key, fields, node_of = _TREES[kind]
    unknown = sorted(set(obj) - {key})
    if unknown:
        _fail(unknown[0], "unknown field")
    rows = obj.get(key)
    if not isinstance(rows, list) or not rows:
        _fail(key, "expected a non-empty list of rows")
    kids: list[dict[int, Any]] = []
    for i, row in enumerate(rows):
        where = f"{key}[{i}]"
        if not isinstance(row, list) or len(row) != len(fields) + 1:
            _fail(where, f"expected [{', '.join(fields)}, parent]")
        parent = _int(row[-1], f"{where}.parent")
        if not (parent == -1 if i == 0 else 0 <= parent < i):
            _fail(f"{where}.parent", f"expected {-1 if i == 0 else 'an earlier row'}, got {parent}")
        kids.append({})
        node = node_of(row, where, kids[-1])
        if i == 0:
            root = node
        elif node.level in kids[parent]:
            _fail(f"{where}.level", f"row {parent} already has a child at level {node.level}")
        else:
            kids[parent][node.level] = node
    return root


def serialize_policy(tree: PolicyNode) -> str:
    return _serialize_tree(tree, PolicyNode)


def parse_policy(text: str) -> PolicyNode:
    return _parse_tree(_loads(text), PolicyNode)


def serialize_block_tree(tree: BlockNode) -> str:
    return _serialize_tree(tree, BlockNode)


def parse_block_tree(text: str) -> BlockNode:
    return _parse_tree(_loads(text), BlockNode)


def parse_policy_or_block(text: str) -> PolicyNode | BlockNode:
    """Choose the tree kind by the top-level key, ``blocks`` or ``policy``."""
    obj = _loads(text)
    return _parse_tree(obj, BlockNode if "blocks" in obj else PolicyNode)
