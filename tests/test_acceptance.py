"""Acceptance gate: one test, and one pytest -v line, per advertised
desk-scale guarantee.

Each suite runs once per session through the small cache below.  Two
suite runs each back a pair of criteria: the policy-surgery suite checks
both the blockify value bound and the truncation accounting, and the
baselines suite checks both the adaptivity witness and the Monte-Carlo
consistency of the simulator.  Every test asserts its wall-clock budget
next to its semantics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import statistics
import time

from stochprobe import ProblemSpec, Pmf, build_probemax, expected_max, optimal_value
from stochprobe.harness import Report, RunConfig, run_suite

_REPORTS: dict[str, Report] = {}


def suite_report(name: str) -> Report:
    if name not in _REPORTS:
        _REPORTS[name] = run_suite(RunConfig(suite=name, seed=0))
    return _REPORTS[name]


def test_oracle_identity_on_200_instances():
    report = suite_report("oracle")
    assert len(report.rows) == 200
    assert report.passed
    assert all(row["pass"] for row in report.rows)
    assert report.wall_seconds < 60.0


def test_block_value_envelope_on_500_trees():
    report = suite_report("lemma31")
    assert len(report.rows) == 500
    assert report.passed
    assert all(row["pass"] for row in report.rows)
    assert report.wall_seconds < 30.0


def test_blockify_keeps_p1_and_loses_at_most_k_eps_squared_max():
    report = suite_report("alg1")
    bound_rows = [row for row in report.rows if isinstance(row["index"], int)]
    assert len(bound_rows) == 100
    assert report.passed
    assert all(row["p1"] and row["pass"] for row in bound_rows)
    assert report.wall_seconds < 120.0


def test_truncation_loss_equals_cut_set_surplus():
    report = suite_report("alg1")
    assert report.passed
    assert all(row["pass"] for row in report.rows)
    # The identity must be exercised: some rows have nonempty cut sets.
    assert report.summary["cut_rows"] >= 1
    assert report.wall_seconds < 30.0


def test_ptas_end_to_end_ratios_on_50_instances():
    report = suite_report("ptas_e2e")
    assert len(report.rows) == 50
    assert report.passed
    ratios = [row["ratio"] for row in report.rows]
    assert all(row["p1"] for row in report.rows)
    assert min(ratios) >= 0.75 - 1e-9
    assert statistics.fmean(ratios) >= 0.90
    # The seed-0 report bytes, pinned: a change meant to keep every value,
    # tree and count must leave this digest as it is.
    digest = hashlib.sha256(report.to_jsonl().encode()).hexdigest()
    assert digest == "b011b4fad1ab67dcce7c38eca1a16fcee839d9bf75d6c4d36b178dff321709a9"
    # The same bytes without the DP state counts, pinned before the DP
    # stopped parking states: carrying them changed the counts and nothing
    # else.
    rows = [{k: v for k, v in row.items() if k != "states"} for row in report.rows]
    stateless = dataclasses.replace(report, rows=rows).to_jsonl()
    assert hashlib.sha256(stateless.encode()).hexdigest() == \
        "b9de951f4cc3ce7f1664c223382968c9793351220ea5d2938a671b43894cf7a5"
    assert report.wall_seconds < 600.0


def test_configuration_dp_is_complete_at_zero_rounding_loss():
    report = suite_report("signatures")
    assert report.passed
    assert all(row["pass"] for row in report.rows)
    # The seed-0 report bytes, pinned as the ``ptas_e2e`` ones are.  Every
    # candidate is rescored here, so every one is traced back and checked.
    digest = hashlib.sha256(report.to_jsonl().encode()).hexdigest()
    assert digest == "23566726bb28dc652de5854ab07b6e138872440a7f8ac0fe041bcc8848c08cd0"
    assert report.wall_seconds < 60.0


def test_discretization_identities_on_1000_pmfs():
    report = suite_report("discretization")
    assert len(report.rows) == 1000
    assert report.passed
    assert all(row["mass_error"] <= 1e-12 for row in report.rows)
    assert report.wall_seconds < 10.0


def test_committed_pandora_stays_below_index_policy():
    report = suite_report("committed")
    assert len(report.rows) == 100
    assert report.passed
    assert all(row["pass"] for row in report.rows)
    # The seed-0 report bytes, pinned as the ``ptas_e2e`` ones are: the
    # index policy's value must not move when its evaluation does.
    digest = hashlib.sha256(report.to_jsonl().encode()).hexdigest()
    assert digest == "1c03bf10f9bda725c0cda389adbf88e7d0c7b02950ca9a07e014b2d58a3f785d"
    assert report.wall_seconds < 60.0


def test_adaptivity_witness_three_eight_versus_three_seven():
    start = time.perf_counter()
    spec = ProblemSpec("probemax", (
        Pmf(((0.0, 0.5), (4.0, 0.5))),
        Pmf(((3.0, 1.0),)),
        Pmf(((0.0, 0.9), (10.0, 0.1))),
    ), m=2)
    inst, _maps = build_probemax(spec, step=1.0, theta=10.0)
    adaptive = optimal_value(inst)
    best_pair = max(
        expected_max([spec.items[a], spec.items[b]])
        for a in range(3) for b in range(a + 1, 3))
    wall = time.perf_counter() - start
    assert abs(adaptive - 3.8) <= 1e-9
    assert abs(best_pair - 3.7) <= 1e-9
    assert wall < 1.0


def test_sbk_reduction_quarter_bound_on_100_trees():
    report = suite_report("sbk")
    named = {row["name"]: row for row in report.rows}
    assert sum(1 for name in named if name.startswith("random_")) == 100
    assert report.passed
    hand = named["two_zero_size"]
    assert abs(hand["skp"] - 6.0) <= 1e-9 and abs(hand["sbk"] - 3.0) <= 1e-9
    assert report.wall_seconds < 10.0


def test_target_relaxation_metrics_on_50_instances():
    report = suite_report("target")
    assert len(report.rows) == 50
    assert report.passed
    assert all(row["pass"] for row in report.rows)  # mass accounting
    assert all(row["slack"] >= 0.0 for row in report.rows)
    assert report.summary["deviating_le_half"] is True
    assert report.wall_seconds < 120.0


def test_simulation_consistency_on_20_pairs():
    report = suite_report("baselines")
    sims = [row for row in report.rows if str(row["name"]).startswith("sim_")]
    assert len(sims) == 20
    assert report.passed
    assert all(row["pass"] for row in sims)
    assert report.wall_seconds < 60.0
