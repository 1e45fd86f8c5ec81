"""Serialization round-trips, generators, simulation, suites, and the CLI."""

from __future__ import annotations

import dataclasses
import errno
import json
import os

import pytest

import stochprobe
from stochprobe import (
    BlockNode,
    Instance,
    ParameterError,
    ParseError,
    Pmf,
    PolicyNode,
    ProblemSpec,
    PtasDiagnostics,
    StructuralError,
    UsageError,
    block_leaf,
    blockify,
    evaluate_policy,
    leaf_node,
    optimal_policy,
    optimal_value,
    validate_instance,
    validate_policy_tree,
)
from stochprobe import exceptions
from stochprobe.harness import (
    GenParams,
    RunConfig,
    gen_random,
    gen_random_kernel,
    gen_random_policy,
    parse_block_tree,
    parse_instance,
    parse_policy,
    parse_policy_or_block,
    run_suite,
    serialize_block_tree,
    serialize_instance,
    serialize_policy,
    serialize_spec,
    simulate,
    stream,
)
from stochprobe.harness import cli, suites
from stochprobe.harness.cli import _load_kernel, main

from conftest import act, kernel


def pmf(*entries: tuple[float, float]) -> Pmf:
    return Pmf(tuple(entries))


# --- document round trips ------------------------------------------------------


def spec_zoo() -> list[ProblemSpec]:
    coin = pmf((0.0, 0.5), (4.0, 0.5))
    size = pmf((0.25, 0.5), (0.75, 0.5))
    return [
        ProblemSpec("probemax", (coin, pmf((3.0, 1.0))), m=1),
        ProblemSpec("probetopk", (coin, coin), m=2, k=2),
        ProblemSpec("committed_probetopk", (coin,), m=1, k=1),
        ProblemSpec("committed_pandora", (coin,), costs=(0.5,), k=1),
        ProblemSpec("target", (size, size), m=2, target=1.0),
        ProblemSpec("sbk", (size,), profits=(2.0,), capacity=1.0, eps=0.5),
    ]


def test_round_trip_every_spec_kind():
    for spec in spec_zoo():
        text = serialize_spec(spec)
        again = parse_instance(text)
        assert again == spec
        assert serialize_spec(again) == text


def test_round_trip_kernel_instance():
    inst = gen_random_kernel(3, GenParams(n=3, levels=3, horizon=4))
    text = serialize_instance(inst)
    again = parse_instance(text)
    assert isinstance(again, Instance)
    assert again == inst
    assert serialize_instance(again) == text


def test_round_trip_policy_tree():
    inst = gen_random_kernel(5, GenParams(n=3, levels=3, horizon=4))
    tree = gen_random_policy(inst, 9)
    text = serialize_policy(tree)
    again = parse_policy(text)
    assert again == tree
    assert serialize_policy(again) == text
    assert evaluate_policy(inst, again) == evaluate_policy(inst, tree)


def test_round_trip_block_tree():
    inst = gen_random_kernel(7, GenParams(n=3, levels=3, horizon=4))
    btree = blockify(inst, optimal_policy(inst), 0.4, 10.0)
    text = serialize_block_tree(btree)
    again = parse_block_tree(text)
    assert again == btree
    assert serialize_block_tree(again) == text


def test_parse_policy_or_block_sniffs_shape():
    policy = PolicyNode("a0", 0, 0, {0: leaf_node(0, 1)})
    block = BlockNode(("a0",), 0, {0: block_leaf(0)})
    assert parse_policy_or_block(serialize_policy(policy)) == policy
    assert parse_policy_or_block(serialize_block_tree(block)) == block


def test_parse_errors_name_the_offending_field():
    bad_prob = json.dumps({
        "kind": "probemax", "m": 1,
        "items": [{"pmf": [[0.0, 0.5], [4.0, -0.5]]}],
    })
    with pytest.raises(ParseError, match=r"items\[0\].pmf\[1\].probability"):
        parse_instance(bad_prob)
    with pytest.raises(ParseError, match="flavor: unknown field"):
        parse_instance(json.dumps({
            "kind": "probemax", "m": 1, "flavor": "sour",
            "items": [{"pmf": [[1.0, 1.0]]}],
        }))
    with pytest.raises(ParseError, match="kind: unknown kind"):
        parse_instance(json.dumps({"kind": "lottery", "items": []}))
    with pytest.raises(ParseError, match="top level"):
        parse_instance(json.dumps([1, 2]))
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_instance("{not json")
    with pytest.raises(ParseError, match=r"actions\[0\].rows\[0\]"):
        parse_instance(json.dumps({
            "levels": 1, "horizon": 1, "terminal": [0.0],
            "actions": [{"id": "a", "group": "g", "rows": [[0, [[0, 1.0]]]]}],
        }))
    bad_rows = [
        (r"policy\[1\].parent", [["a", 0, 1, -1], [None, 0, 2, "0"]]),
        (r"policy\[2\].parent", [["a", 0, 1, -1], [None, 0, 2, 0], [None, 1, 2, 2]]),
        (r"policy\[2\].level", [["a", 0, 1, -1], [None, 0, 2, 0], [None, 0, 2, 0]]),
        (r"policy\[1\]: expected \[action, level, t, parent\]", [["a", 0, 1, -1], [None, 0, 2]]),
    ]
    for field, rows in bad_rows:
        with pytest.raises(ParseError, match=field):
            parse_policy(json.dumps({"policy": rows}))
    with pytest.raises(ParseError, match="children: unknown field"):
        parse_policy(json.dumps({"policy": [[None, 0, 1, -1]], "children": {}}))


def test_serializer_rejects_a_child_keyed_off_its_level():
    with pytest.raises(StructuralError, match="child keyed 1 carries entry level 0"):
        serialize_policy(PolicyNode("a0", 0, 1, {1: leaf_node(0, 2)}))
    with pytest.raises(StructuralError, match="child keyed 1 carries entry level 0"):
        serialize_block_tree(BlockNode(("a0",), 0, {1: block_leaf(0)}))


def test_round_trip_5000_deep_chain_and_its_blocks(tmp_path, capsys):
    depth = 5000
    inst = kernel([act(f"c{j}", f"g{j}", {0: ((0, 63 / 64), (1, 1 / 64))}) for j in range(depth)],
                  [0.0, 1.0], depth)
    tree = leaf_node(0, depth + 1)
    for j in reversed(range(depth)):
        tree = PolicyNode(f"c{j}", 0, j + 1, {0: tree, 1: leaf_node(1, j + 2)})
    btree = blockify(inst, tree, 0.3, 1.0)
    path = tmp_path / "kernel.json"
    path.write_text(serialize_instance(inst))
    for text, parse, serialize in ((serialize_policy(tree), parse_policy, serialize_policy),
                                   (serialize_block_tree(btree), parse_block_tree,
                                    serialize_block_tree)):
        assert serialize(parse(text)) == text
        tree_path = tmp_path / "tree.json"
        tree_path.write_text(text)
        assert main(["simulate", "--in", str(path), "--policy", str(tree_path),
                     "--trials", "200"]) == 0
        assert cli_json(capsys)["trials"] == 200


# --- generators -----------------------------------------------------------------


def test_gen_random_is_deterministic_per_seed():
    params = GenParams(kind="sbk", n=3)
    assert gen_random(4, params) == gen_random(4, params)
    assert serialize_spec(gen_random(4, params)) != serialize_spec(
        gen_random(5, params))


def test_gen_random_lossless_outcomes_sit_on_the_lattice():
    params = GenParams(kind="probemax", n=4, step=0.5, levels=5)
    spec = gen_random(2, params)
    for item in spec.items:
        for outcome, _p in item.entries:
            assert outcome / 0.5 == pytest.approx(round(outcome / 0.5), abs=1e-9)


def test_gen_random_handles_empty_instance():
    spec = gen_random(0, GenParams(kind="probemax", n=0))
    assert spec.items == ()
    assert spec.m == 0


def test_gen_random_rejects_unknown_kind():
    with pytest.raises(ParameterError):
        gen_random(0, GenParams(kind="lottery"))


def test_gen_random_kernel_is_compliant():
    for seed in range(10):
        inst = gen_random_kernel(seed, GenParams(n=4, levels=3, horizon=5))
        report = validate_instance(inst)
        assert report.compliant, report.violations


def test_gen_random_policy_is_well_formed():
    inst = gen_random_kernel(11, GenParams(n=4, levels=3, horizon=5))
    tree = gen_random_policy(inst, 13)
    validate_policy_tree(inst, tree)


def test_stream_is_keyed_by_label_path():
    a = stream(0, "alpha").integers(0, 2**63, size=4)
    b = stream(0, "beta").integers(0, 2**63, size=4)
    a_again = stream(0, "alpha").integers(0, 2**63, size=4)
    assert list(a) == list(a_again)
    assert list(a) != list(b)


# --- simulation ------------------------------------------------------------------


def test_simulate_deterministic_policy_has_zero_width():
    inst = kernel([act("a0", "g0", {0: ((0, 1.0),)}, profit=5.0)], [2.0], 1)
    tree = PolicyNode("a0", 0, 0, {0: leaf_node(0, 1)})
    got = simulate(inst, tree, seed=1, trials=100)
    assert got.mean == pytest.approx(7.0, abs=1e-12)
    assert got.half_width == 0.0
    assert got.trials == 100


def coin_instance():
    return kernel([act("c", "g", {0: ((0, 0.5), (1, 0.5))})], [0.0, 10.0], 1)


def test_simulate_coin_flip_lands_near_truth():
    inst = coin_instance()
    tree = PolicyNode("c", 0, 0, {0: leaf_node(0, 1), 1: leaf_node(1, 1)})
    got = simulate(inst, tree, seed=2, trials=20_000)
    assert got.half_width > 0.0
    # 1.6 * the 99% half-width is about four standard errors.
    assert abs(got.mean - 5.0) <= 1.6 * got.half_width


def test_simulate_single_trial():
    inst = coin_instance()
    tree = PolicyNode("c", 0, 0, {0: leaf_node(0, 1), 1: leaf_node(1, 1)})
    got = simulate(inst, tree, seed=3, trials=1)
    assert got.trials == 1
    assert got.mean in (0.0, 10.0)


def test_simulate_is_reproducible():
    inst = coin_instance()
    tree = PolicyNode("c", 0, 0, {0: leaf_node(0, 1), 1: leaf_node(1, 1)})
    assert simulate(inst, tree, seed=4, trials=500) == simulate(
        inst, tree, seed=4, trials=500)


def test_simulate_rejects_missing_child():
    inst = coin_instance()
    lame = PolicyNode("c", 0, 0, {0: leaf_node(0, 1)})
    with pytest.raises(StructuralError):
        simulate(inst, lame, seed=5, trials=10)


def test_simulate_rejects_bad_trials():
    inst = coin_instance()
    tree = PolicyNode("c", 0, 0, {0: leaf_node(0, 1), 1: leaf_node(1, 1)})
    with pytest.raises(ParameterError):
        simulate(inst, tree, trials=0)


def test_simulate_block_tree_batches_items():
    inst = kernel(
        [act("a0", "g0", {0: ((0, 1.0),)}, profit=1.0),
         act("a1", "g1", {0: ((0, 1.0),)}, profit=1.0)],
        [3.0], 2)
    btree = BlockNode(("a0", "a1"), 0, {0: block_leaf(0)})
    got = simulate(inst, btree, seed=6, trials=50)
    assert got.mean == pytest.approx(5.0, abs=1e-12)
    assert got.half_width == 0.0


# --- suites -----------------------------------------------------------------------


def test_run_suite_reports_are_byte_stable():
    config = RunConfig(suite="oracle", seed=3, overrides={"count": 5})
    first = run_suite(config)
    second = run_suite(config)
    assert first.passed
    assert first.to_jsonl() == second.to_jsonl()


def test_run_suite_honors_count_override():
    report = run_suite(RunConfig(suite="oracle", seed=1, overrides={"count": 4}))
    assert len(report.rows) == 4


def test_run_suite_rejects_unknown_name():
    with pytest.raises(UsageError):
        run_suite(RunConfig(suite="nonesuch"))


def test_run_suite_writes_report_files(tmp_path):
    out = tmp_path / "report.jsonl"
    report = run_suite(RunConfig(suite="oracle", seed=2,
                                 overrides={"count": 3}, out=str(out)))
    lines = out.read_text().splitlines()
    head = json.loads(lines[0])
    assert head["kind"] == "report" and head["suite"] == "oracle"
    assert len(lines) == 1 + len(report.rows)
    table = (tmp_path / "report.jsonl.txt").read_text()
    assert "suite=oracle" in table and "passed=yes" in table


def test_report_table_renders_rows():
    report = run_suite(RunConfig(suite="oracle", seed=0, overrides={"count": 2}))
    table = report.to_table()
    assert table.splitlines()[0].startswith("index")
    assert "failures=0" in table


def test_run_config_rejects_bad_trials():
    with pytest.raises(ParameterError):
        RunConfig(suite="oracle", trials=0)


# --- CLI --------------------------------------------------------------------------


def cli_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_cli_gen_then_exact(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    assert main(["gen", "--kind", "probemax", "--n", "3", "--seed", "1",
                 "--out", str(spec_path)]) == 0
    spec = parse_instance(spec_path.read_text())
    assert isinstance(spec, ProblemSpec) and spec.kind == "probemax"
    assert main(["exact", "--in", str(spec_path)]) == 0
    assert cli_json(capsys)["optimal_value"] >= 0.0


def test_cli_exact_prints_solver_stats(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    assert main(["gen", "--kind", "probemax", "--n", "6", "--m", "3", "--seed", "0",
                 "--out", str(spec_path)]) == 0
    assert main(["exact", "--in", str(spec_path)]) == 0
    doc = cli_json(capsys)
    assert sorted(doc) == ["cells", "groups", "layer_seconds", "layers", "optimal_value",
                           "peak_table_bytes", "rows_pruned", "rows_swept", "seconds",
                           "shape_reused"]
    # In-process, an earlier solve of the same shape may have cached it.
    assert isinstance(doc["shape_reused"], bool)
    assert (doc["groups"], doc["layers"]) == (6, 4)
    assert len(doc["layer_seconds"]) == 3
    assert doc["rows_pruned"] > 0 and doc["rows_swept"] > 0
    assert doc["optimal_value"] == optimal_value(_load_kernel(str(spec_path)))


def small_kernel_doc(tmp_path):
    inst = kernel(
        [act("a0", "g0", {0: ((0, 0.5), (1, 0.5)), 1: ((1, 1.0),)}),
         act("b0", "g1", {0: ((0, 1.0),), 1: ((1, 1.0),)}, profit=0.25)],
        [0.0, 1.0], 2)
    path = tmp_path / "kernel.json"
    path.write_text(serialize_instance(inst))
    return inst, path


def test_cli_ptas_then_simulate(tmp_path, capsys):
    inst, path = small_kernel_doc(tmp_path)
    block_path = tmp_path / "block.json"
    assert main(["ptas", "--in", str(path), "--grid", "0.25", "--blocks", "2",
                 "--depth", "2", "--topk", "8", "--out", str(block_path)]) == 0
    doc = cli_json(capsys)
    assert doc["completed"] == doc["topologies"] and not doc["partial"]
    assert doc["value"] <= optimal_value(inst) + 1e-9
    assert doc["materialized"] <= doc["candidates"]
    assert doc["materialized"] <= 8 * doc["completed"]
    assert main(["simulate", "--in", str(path), "--policy", str(block_path),
                 "--trials", "500"]) == 0
    assert cli_json(capsys)["trials"] == 500


def test_cli_ptas_prints_stage_seconds(tmp_path, capsys):
    _inst, path = small_kernel_doc(tmp_path)
    assert main(["ptas", "--in", str(path), "--grid", "0.25", "--blocks", "2",
                 "--depth", "2"]) == 0
    seconds = cli_json(capsys)["seconds"]
    assert sorted(seconds) == ["dp", "enumerate", "materialize", "rank", "rescore"]
    assert all(s >= 0.0 for s in seconds.values())


def test_cli_ptas_prints_max_ref_source(tmp_path, capsys):
    _inst, path = small_kernel_doc(tmp_path)
    assert main(["ptas", "--in", str(path), "--grid", "0.25", "--blocks", "2",
                 "--depth", "2"]) == 0
    assert cli_json(capsys)["max_ref_source"] == "exact"


def test_cli_ptas_prints_surrogate_gap(tmp_path, capsys):
    _inst, path = small_kernel_doc(tmp_path)
    assert main(["ptas", "--in", str(path), "--grid", "0.25", "--blocks", "2",
                 "--depth", "2"]) == 0
    assert isinstance(cli_json(capsys)["surrogate_gap"], float)


def test_cli_ptas_prints_every_diagnostics_field(tmp_path, capsys):
    _inst, path = small_kernel_doc(tmp_path)
    assert main(["ptas", "--in", str(path), "--grid", "0.25", "--blocks", "2",
                 "--depth", "2"]) == 0
    doc = cli_json(capsys)
    fields = {f.name for f in dataclasses.fields(PtasDiagnostics)}
    assert {"best_topology", "best_surrogate"} <= fields
    assert doc.keys() == fields | {"value", "partial"}
    assert doc["partial"] is (doc["capacity_errors"] > 0)
    assert doc["surrogate_gap"] == doc["best_surrogate"] - doc["value"]


def test_cli_simulate_policy_tree(tmp_path, capsys):
    inst, path = small_kernel_doc(tmp_path)
    tree = optimal_policy(inst)
    policy_path = tmp_path / "policy.json"
    policy_path.write_text(serialize_policy(tree))
    assert main(["simulate", "--in", str(path), "--policy", str(policy_path),
                 "--trials", "2000", "--seed", "9"]) == 0
    doc = cli_json(capsys)
    width = max(doc["half_width"], 1e-9)
    assert abs(doc["mean"] - optimal_value(inst)) <= 2.0 * width


def test_cli_simulate_rejects_an_infeasible_policy(tmp_path, capsys):
    # Action a probed again below itself: every node checks out, the path does not.
    inst = kernel([act("a", "g", {0: ((0, 0.5), (1, 0.5))}, profit=1.0)], [0.0, 1.0], 3)
    path = tmp_path / "kernel.json"
    path.write_text(serialize_instance(inst))
    doc = {"policy": [["a", 0, 1, -1], ["a", 0, 2, 0], [None, 1, 2, 0],
                      [None, 0, 3, 1], [None, 1, 3, 1]]}
    with pytest.raises(StructuralError, match="action 'a' repeats along a path"):
        validate_policy_tree(inst, parse_policy(json.dumps(doc)))
    policy_path = tmp_path / "policy.json"
    policy_path.write_text(json.dumps(doc))
    assert main(["simulate", "--in", str(path), "--policy", str(policy_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: action 'a' repeats along a path\n"


def test_cli_check_passes_compliant_kernel(tmp_path, capsys):
    _inst, path = small_kernel_doc(tmp_path)
    assert main(["check", "--in", str(path)]) == 0
    assert cli_json(capsys)["compliant"] is True


def test_cli_check_flags_negative_profit(tmp_path, capsys):
    inst = kernel([act("a0", "g0", {0: ((0, 1.0),)}, profit=-1.0)], [0.0], 1)
    path = tmp_path / "bad.json"
    path.write_text(serialize_instance(inst))
    assert main(["check", "--in", str(path)]) == 1
    doc = cli_json(capsys)
    assert doc["compliant"] is False and doc["violations"]


def test_cli_malformed_document_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["exact", "--in", str(path)]) == 2
    assert main(["exact", "--in", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_cli_unknown_command_exits_2():
    with pytest.raises(SystemExit):
        main(["bogus"])


def test_cli_capacity_overrun_exits_3(tmp_path, capsys):
    # 24 groups, 13 levels, horizon 24: 13 * 2^24 table cells.
    actions = [act(f"a{i}", f"g{i}", {lvl: ((min(lvl + 1, 12), 1.0),) for lvl in range(13)})
               for i in range(24)]
    inst = kernel(actions, [float(h) for h in range(13)], 24)
    path = tmp_path / "wide.json"
    path.write_text(serialize_instance(inst))
    assert main(["exact", "--in", str(path)]) == 3
    capsys.readouterr()


def test_cli_deep_policy_document_exits_3(tmp_path, capsys):
    inst, path = small_kernel_doc(tmp_path)
    policy_path = tmp_path / "policy.json"
    policy_path.write_text(serialize_policy(optimal_policy(inst)))
    depth = 5000
    doc = json.loads(path.read_text())
    del doc["meta"]
    deep_path = tmp_path / "deep.json"
    deep_path.write_text(json.dumps(doc)[:-1] + ', "meta": {"deep": '
                         + "[" * depth + "]" * depth + "}}")
    assert main(["simulate", "--in", str(deep_path), "--policy", str(policy_path)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


#: Every exception class ``stochprobe.exceptions`` defines.
PACKAGE_ERRORS = [cls for cls in vars(exceptions).values()
                  if isinstance(cls, type) and cls.__module__ == exceptions.__name__]


@pytest.mark.parametrize("error", PACKAGE_ERRORS, ids=lambda cls: cls.__name__)
def test_cli_maps_every_package_error_to_its_exit_code(error, monkeypatch, capsys):
    # Capacity overruns exit 3; every other package error exits 2.
    def handler(_args):
        raise error("boom")

    monkeypatch.setattr(cli, "_cmd_check", handler)
    want = 3 if issubclass(error, exceptions.CapacityError) else 2
    assert main(["check", "--in", "unused.json"]) == want
    assert capsys.readouterr().err == "error: boom\n"


def test_cli_suite_round_trip(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    assert main(["suite", "--name", "oracle", "--seed", "5",
                 "--set", "count=3", "--out", str(out)]) == 0
    assert "passed=yes" in capsys.readouterr().out
    assert out.exists() and (tmp_path / "report.jsonl.txt").exists()


def test_cli_suite_rejects_malformed_override(capsys):
    assert main(["suite", "--name", "oracle", "--set", "count"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("name, override, message", [
    ("lemma31", "count=abc", "count must be an integer of at least 1, got 'abc'"),
    ("lemma31", "eps=abc", "eps must be a number in (0, 1], got 'abc'"),
    ("lemma31", "count=-3", "count must be an integer of at least 1, got -3"),
    ("lemma31", "count=0", "count must be an integer of at least 1, got 0"),
    ("lemma31", "count=2.5", "count must be an integer of at least 1, got 2.5"),
    ("lemma31", "count=true", "count must be an integer of at least 1, got True"),
    ("lemma31", "eps=0", "eps must be a number in (0, 1], got 0"),
    ("lemma31", "eps=1.5", "eps must be a number in (0, 1], got 1.5"),
    ("lemma31", "eps=NaN", "eps must be a number in (0, 1], got nan"),
    ("lemma31", "cuont=3", "suite lemma31 reads no override 'cuont'; it reads: count, eps"),
    ("oracle", "eps=0.3", "suite oracle reads no override 'eps'; it reads: count"),
    ("baselines", "count=3", "suite baselines reads no override 'count'; it reads: none"),
])
def test_cli_suite_refuses_bad_overrides_before_running(name, override, message,
                                                        monkeypatch, capsys):
    def no_run(_config):
        raise AssertionError("the suite ran")

    monkeypatch.setitem(suites.SUITES, name, no_run)
    assert main(["suite", "--name", name, "--set", override]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_suite_takes_an_integer_eps_of_one(capsys):
    assert main(["suite", "--name", "lemma31", "--set", "count=2", "--set", "eps=1"]) == 0
    assert "rows=2" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["gen", "ptas", "suite"])
def test_cli_unwritable_out_exits_2(command, tmp_path, capsys):
    out = tmp_path / "missing" / "x"
    _inst, path = small_kernel_doc(tmp_path)
    argv = {"gen": ["gen"],
            "ptas": ["ptas", "--in", str(path), "--grid", "0.25", "--blocks", "2"],
            "suite": ["suite", "--name", "oracle", "--set", "count=1"]}[command]
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {out}: {os.strerror(errno.ENOENT)}\n"
    assert captured.out == ""


def test_cli_baseline_greedy(tmp_path, capsys):
    spec = ProblemSpec(
        "probemax", (pmf((0.0, 0.5), (10.0, 0.5)), pmf((6.0, 1.0))), m=1)
    path = tmp_path / "pm.json"
    path.write_text(serialize_spec(spec))
    assert main(["baseline", "--in", str(path), "--algo", "greedy"]) == 0
    doc = cli_json(capsys)
    assert doc["picks"] == [1] and doc["value"] == pytest.approx(6.0)


def test_cli_baseline_weitzman(tmp_path, capsys):
    spec = ProblemSpec(
        "committed_pandora",
        (pmf((0.0, 0.5), (10.0, 0.5)), pmf((4.0, 1.0))),
        costs=(1.0, 0.5), k=1)
    path = tmp_path / "boxes.json"
    path.write_text(serialize_spec(spec))
    assert main(["baseline", "--in", str(path), "--algo", "weitzman"]) == 0
    doc = cli_json(capsys)
    assert doc["order"] == [0, 1]
    assert doc["value"] == pytest.approx(5.75, abs=1e-9)


def test_cli_baseline_sbk14(tmp_path, capsys):
    spec = ProblemSpec(
        "sbk", (pmf((0.0, 1.0)), pmf((0.25, 1.0))), profits=(3.0, 3.0),
        capacity=1.0, eps=0.5)
    path = tmp_path / "sbk.json"
    path.write_text(serialize_spec(spec))
    assert main(["baseline", "--in", str(path), "--algo", "sbk14"]) == 0
    doc = cli_json(capsys)
    assert doc["skp_value"] == pytest.approx(6.0, abs=1e-9)
    assert doc["sbk_value"] >= doc["skp_value"] / 4.0 - 1e-9


def test_cli_baseline_rejects_mismatched_input(tmp_path, capsys):
    spec = ProblemSpec("probemax", (pmf((1.0, 1.0)),), m=1)
    path = tmp_path / "pm.json"
    path.write_text(serialize_spec(spec))
    assert main(["baseline", "--in", str(path), "--algo", "weitzman"]) == 2
    capsys.readouterr()


def test_package_all_names_resolve():
    # A stale string in __all__ passes a plain import but breaks a star import.
    missing = [name for name in stochprobe.__all__ if not hasattr(stochprobe, name)]
    assert missing == []
    exec("from stochprobe import *", {})
