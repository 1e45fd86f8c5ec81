"""Tests of the benchmark itself: ``python3 -m pytest bench -q``.

They run every workload at a smoke size (a few small inputs), so the whole
file finishes in seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from stagetrace import TARGETS, Tracer
from stochprobe import exact

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def smoke(name: str) -> workloads.Workload:
    """The named workload cut down to one round of small inputs."""
    wl = workloads.workloads(run.load_recorded())[name]
    wl.pool_rounds = wl.quality_rounds = 1
    if name == "exact-probemax":
        wl.shapes = ("8/2", "9/3")
    elif name == "ptas-e2e":
        wl.shapes = ("n7m2k3q4", "n5m2k3q8")
    elif name == "ptas-wide":
        wl.shapes = ("n3m1",)
    else:
        wl.shapes = ("random200", "random400", "chain450", "chain1200")
    return wl


def spec_units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_untraced_smoke_prints_every_end_to_end_metric(name):
    metrics, errors, attempted, failed = run.end_to_end(smoke(name), 1, 0.01)
    assert errors == []
    assert {k: unit for k, (_v, unit) in metrics.items()} == spec_units("end_to_end")
    assert all(value > 0 for value, _unit in metrics.values())
    assert attempted >= 1
    if name == "tree-walks":
        assert failed > 0  # the depth-1200 chain overflows the recursive walkers
        assert metrics["ok_frac"][0] < 1.0


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_smoke_prints_every_per_layer_metric(name):
    metrics, errors, attempted, failed = run.per_layer(smoke(name), 1, 0.01)
    assert errors == []  # wrappers restored, traced values bit-identical
    assert {k: unit for k, (_v, unit) in metrics.items()} == spec_units("per_layer")
    assert not any(hasattr(getattr(module, attr), "__wrapped__")
                   for module, attr, *_ in TARGETS)


def test_benchmark_json_matches_the_workloads():
    wls = workloads.workloads()
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == \
        {name: wl.why for name, wl in wls.items()}
    assert SPEC["command"] == ["python3", "bench/run.py"]


def test_tracer_restores_wrapped_functions_even_when_the_block_raises():
    originals = [getattr(module, attr) for module, attr, *_ in TARGETS]
    with pytest.raises(KeyError):
        with Tracer():
            assert exact.optimal_value is not originals[0]
            raise KeyError("boom")
    assert [getattr(module, attr) for module, attr, *_ in TARGETS] == originals


def test_tracing_leaves_values_unchanged():
    wl = smoke("exact-probemax")
    inp = wl.setup(3)[0][1]
    plain = wl.run(inp).values
    tracer = Tracer()
    with tracer:
        traced = wl.run(inp).values
    assert traced == plain
    assert [span[0] for span in tracer.spans] == ["exact.optimal_value"]


def test_checks_reject_wrong_outputs():
    wl = smoke("exact-probemax")
    inp = wl.setup(2)[0][0]
    out = wl.run(inp)
    assert wl.check(inp, out, 2) == []
    out.keep = workloads.probemax_bounds(inp.data)[1] + 1e-6
    assert wl.check(inp, out, 2)

    wl = smoke("ptas-wide")
    inp = wl.setup(2)[0][0]
    out = wl.run(inp)
    assert wl.check(inp, out, 2) == []
    out.keep.value += 1e-3
    assert wl.check(inp, out, 2)


def test_recorded_values_cover_the_default_pool():
    wl = workloads.ExactProbemax()
    assert set(run.load_recorded()) == set(range(wl.pool_rounds * len(wl.shapes)))


def test_tail_has_ten_samples_above_it():
    value, pct, above = run.tail([float(i) for i in range(100)])
    assert (value, above) == (89.0, 10)
    assert pct == pytest.approx(90.0)


def test_trimmed_policies_are_valid_and_sized():
    wl = smoke("tree-walks")
    for inp in wl.setup(4)[0]:
        if inp.shape.startswith("random"):
            workloads.model.validate_policy_tree(inp.data.instance, inp.data.tree)
            size = workloads.shape_ints(inp.shape)[0]
            # a node keeps all of its at most three children or none
            assert size - 3 <= workloads.count_nodes(inp.data.tree) <= size


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact-probemax",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
