"""stochprobe benchmark: one workload, one process, one thread.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload exact-probemax --seed 0 --seconds 20 --trace 0

The run builds its seeded inputs (set-up, timed several times), then calls
the solver on them in a closed loop with one caller: each input starts
when the previous one has finished, rounds of inputs repeat until
``--seconds`` have passed, and every output is checked.  The last line of
standard output is one JSON object with the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).

Timings are reported at a nominal machine speed: the run also times a
fixed reference task and scales every time by a power of the nominal over
the measured reference time (see calibrate.py).  The unscaled figures are
printed on the comment lines above the result.

A traced run first times the untraced loop for half the time, then runs
the same rounds again with every layer boundary wrapped (see stagetrace.py).
The difference of the two wall times is the tracing overhead, and the two
runs must return bit-identical values.  Per-layer seconds and counts are
per input of the traced loop, except ``problems.*`` and ``gen.*``, which
are per set-up.

``attempted`` and ``failed`` count solver calls over a fixed set of inputs
(the quality rounds, or the first round of a traced run), so they do not
grow with the program's speed.  A call fails when it raises or when its
output fails a check; ``correct`` is false when any output fails a check.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from calibrate import Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RECORDED = HERE / "exact_probemax_seed0.json"
SPAN_DIR = HERE / "out"
SETUP_REPS = 3
SETUP_MIN_SECONDS = 1.0
WORKLOAD_NAMES = ("exact-probemax", "ptas-e2e", "ptas-wide", "tree-walks")


@dataclass
class Record:
    inp: object
    seconds: float
    out: object
    round: int


@dataclass
class Pass:
    records: list[Record]
    wall: float
    rounds: int


def timed_pass(wl, pool, speed, seconds: float, min_rounds: int = 1,
               rounds: int | None = None, tracer=None) -> Pass:
    """Run whole rounds until ``seconds`` have passed and at least
    ``min_rounds`` are done, or exactly ``rounds`` rounds.  Outputs of
    repeated inputs are dropped; their values are still compared.  The
    machine-speed reference is timed before each round, off the clock.

    The input pool is moved out of the garbage collector's reach first, so
    collections scan what the program allocates, not the benchmark's pool.
    """
    gc.collect()
    gc.freeze()
    try:
        records: list[Record] = []
        start = perf_counter()
        off_clock = 0.0
        r = 0
        while True:
            if rounds is not None:
                if r >= rounds:
                    break
            elif r >= min_rounds and perf_counter() - start >= seconds:
                break
            off_clock += speed.sample()
            for inp in pool[r % len(pool)]:
                if tracer is not None:
                    tracer.input_id = inp.key
                t0 = perf_counter()
                out = wl.run(inp)
                took = perf_counter() - t0
                if r >= len(pool):
                    out.keep = None
                records.append(Record(inp, took, out, r))
            r += 1
        return Pass(records, perf_counter() - start - off_clock, r)
    finally:
        gc.unfreeze()


def check_pass(wl, run: Pass, seed: int) -> tuple[list[str], list[int]]:
    """Output errors, and the number of failed calls of each record.

    A call fails when it raises, when its output fails a check, or when a
    repeat of an input returns other values than its first run."""
    errors: list[str] = []
    failed: list[int] = []
    first: dict[int, tuple] = {}
    for rec in run.records:
        key = rec.inp.key
        if key not in first:
            first[key] = rec.out.values
            errs = wl.check(rec.inp, rec.out, seed)
        elif rec.out.values != first[key]:
            errs = [f"input {key}: round {rec.round} returned other values"]
        else:
            errs = []
        errors.extend(errs)
        failed.append(min(rec.out.attempted, len(rec.out.errors) + len(errs)))
    return errors, failed


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile that still has at least ten samples above it
    (the lowest sample when there are fewer than eleven), as (value,
    percentile, samples above)."""
    xs = sorted(latencies)
    k = max(0, len(xs) - 11)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(wl, seed: int) -> tuple[list, float]:
    """Build the pool at least ``SETUP_REPS`` times and for at least
    ``SETUP_MIN_SECONDS``; the median build time is ``setup_s``."""
    times: list[float] = []
    pool = None
    while len(times) < SETUP_REPS or sum(times) < SETUP_MIN_SECONDS:
        pool = None  # let the previous pool go before building the next
        t0 = perf_counter()
        pool = wl.setup(seed)
        times.append(perf_counter() - t0)
    return pool, statistics.median(times)


def at_nominal_speed(metrics: dict, speed) -> dict:
    """Scale every timing by the run's machine-speed factor."""
    f = speed.factor()
    scale = {"s": f, "ms": f, "1/s": 1.0 / f}
    print(f"# reference task median {statistics.median(speed.samples) * 1e3:.2f} ms "
          f"over {len(speed.samples)} samples; timings scaled by {f:.4f}")
    print("# unscaled: " + ", ".join(f"{name} {value:.6g}" for name, (value, unit)
                                     in metrics.items() if unit in scale))
    return {name: (value * scale.get(unit, 1.0), unit)
            for name, (value, unit) in metrics.items()}


def end_to_end(wl, seed: int, seconds: float) -> tuple[dict, list[str], int, int]:
    speed = Speed()
    speed.sample(3)
    pool, setup_s = timed_setups(wl, seed)
    run = timed_pass(wl, pool, speed, seconds, min_rounds=wl.quality_rounds)
    speed.sample(3)
    errors, failed = check_pass(wl, run, seed)
    quality = [i for i, rec in enumerate(run.records) if rec.round < wl.quality_rounds]
    attempted_q = sum(run.records[i].out.attempted for i in quality)
    failed_q = sum(failed[i] for i in quality)
    ratios = [r for r in (wl.ratio(run.records[i].inp, run.records[i].out)
                          for i in quality) if r is not None]
    latencies = [rec.seconds for rec in run.records]
    tail_value, tail_pct, above = tail(latencies)
    metrics = {
        "solves_per_s": (len(run.records) / run.wall, "1/s"),
        "solve_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "solve_tail_ms": (tail_value * 1e3, "ms"),
        "ratio_min": (min(ratios, default=0.0), "ratio"),
        "ratio_mean": (statistics.fmean(ratios) if ratios else 0.0, "ratio"),
        "ok_frac": ((attempted_q - failed_q) / attempted_q, "frac"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    print(f"# {wl.name} seed={seed}: {len(run.records)} inputs in {run.rounds} "
          f"rounds, {run.wall:.3f} s; pool {len(pool)} rounds of {len(pool[0])}")
    print(f"# solve_tail_ms is p{tail_pct:.1f} of {len(latencies)} samples, "
          f"{above} above it")
    by_shape: dict[str, list[float]] = {}
    for rec in run.records:
        by_shape.setdefault(rec.inp.shape, []).append(rec.seconds)
    print("# unscaled p50 ms by shape: " + ", ".join(
        f"{shape} {statistics.median(xs) * 1e3:.1f}" for shape, xs in by_shape.items()))
    print(f"# failed_frac {1.0 - metrics['ok_frac'][0]:.6f} over the "
          f"{wl.quality_rounds} quality rounds ({failed_q} of {attempted_q} calls)")
    return at_nominal_speed(metrics, speed), errors, attempted_q, failed_q


def per_layer(wl, seed: int, seconds: float) -> tuple[dict, list[str], int, int]:
    from stagetrace import Tracer

    speed = Speed()
    speed.sample(3)
    pool = wl.setup(seed)
    plain = timed_pass(wl, pool, speed, seconds / 2)
    tracer = Tracer()
    with tracer:
        tracer.input_id = "setup"
        wl.setup(seed)
        traced = timed_pass(wl, pool, speed, 0.0, rounds=plain.rounds, tracer=tracer)
    speed.sample(3)
    errors = [] if tracer.restored() else ["traced functions were not restored"]
    for a, b in zip(plain.records, traced.records):
        if a.out.values != b.out.values:
            errors.append(f"input {a.inp.key}: traced values differ from untraced")
    check_errors, failed = check_pass(wl, traced, seed)
    errors.extend(check_errors)

    n = len(traced.records)
    seconds_by, calls, failed_by_layer = tracer.totals()
    self_by_name, self_by_layer = tracer.self_times()
    c = tracer.counters
    walker_s = sum(seconds_by[f"model.{f}"] for f in (
        "evaluate_policy", "validate_policy_tree", "subtree_values", "truncate_policy"))

    def share(x, y):
        return x / y if y else 0.0

    metrics = {
        "exact.optimal_value.s": (seconds_by["exact.optimal_value"] / n, "s"),
        "exact.optimal_value.calls": (calls["exact.optimal_value"] / n, "count"),
        "exact.state_bound": (c["exact.state_bound"] / n, "states"),
        "exact.self_s": (self_by_layer["exact"] / n, "s"),
        "ptas.solve_ptas.self_s": (self_by_name["ptas.solve_ptas"] / n, "s"),
        "ptas.config_dp.s": (seconds_by["ptas.config_dp"] / n, "s"),
        "ptas.config_dp.calls": (calls["ptas.config_dp"] / n, "count"),
        "ptas.states_explored": (c["ptas.states_explored"] / n, "count"),
        "ptas.candidates": (c["ptas.candidates"] / n, "count"),
        "ptas.topologies": (c["ptas.topologies"] / n, "count"),
        "ptas.enumerate_topologies.s": (seconds_by["ptas.enumerate_topologies"] / n, "s"),
        "ptas.materialize.s": (seconds_by["ptas.materialize"] / n, "s"),
        "ptas.rescore.s": (seconds_by["ptas.rescore"] / n, "s"),
        "ptas.materialized": (calls["ptas.materialize"] / n, "count"),
        "ptas.materialized_per_candidate": (
            share(calls["ptas.materialize"], c["ptas.candidates"]), "ratio"),
        "ptas.estimate_max.s": (seconds_by["ptas.estimate_max"] / n, "s"),
        "ptas.capacity_errors": (c["ptas.capacity_errors"] / n, "count"),
        "ptas.surrogate_gap": (
            share(c["ptas.surrogate_gap"], c["ptas.surrogate_gap.solves"]), "value"),
        "ptas.self_s": (self_by_layer["ptas"] / n, "s"),
        "block.blockify.s": (seconds_by["block.blockify"] / n, "s"),
        "block.block_profit_exact.s": (seconds_by["block.block_profit_exact"] / n, "s"),
        "block.block_profit_approx.s": (seconds_by["block.block_profit_approx"] / n, "s"),
        "block.self_s": (self_by_layer["block"] / n, "s"),
        "block.failed": (failed_by_layer["block"] / n, "count"),
        "model.evaluate_policy.s": (seconds_by["model.evaluate_policy"] / n, "s"),
        "model.validate_policy_tree.s": (seconds_by["model.validate_policy_tree"] / n, "s"),
        "model.subtree_values.s": (seconds_by["model.subtree_values"] / n, "s"),
        "model.truncate_policy.s": (seconds_by["model.truncate_policy"] / n, "s"),
        "model.nodes": (c["model.node_visits"] / n, "count"),
        "model.nodes_per_s": (share(c["model.node_visits"], walker_s), "1/s"),
        "model.self_s": (self_by_layer["model"] / n, "s"),
        "model.failed": (failed_by_layer["model"] / n, "count"),
        "sim.simulate.s": (seconds_by["sim.simulate"] / n, "s"),
        "sim.trials": (c["sim.trials"] / n, "count"),
        "sim.self_s": (self_by_layer["sim"] / n, "s"),
        "sim.failed": (failed_by_layer["sim"] / n, "count"),
        "io.serialize.s": (seconds_by["io.serialize"] / n, "s"),
        "io.parse.s": (seconds_by["io.parse"] / n, "s"),
        "io.bytes": (c["io.bytes"] / n, "bytes"),
        "io.self_s": (self_by_layer["io"] / n, "s"),
        "io.failed": (failed_by_layer["io"] / n, "count"),
        "problems.build_probemax.s": (seconds_by["problems.build_probemax"], "s"),
        "gen.s": (self_by_layer["gen"], "s"),
        "trace.overhead_s": ((traced.wall - plain.wall) / n, "s"),
    }
    SPAN_DIR.mkdir(exist_ok=True)
    span_path = SPAN_DIR / f"spans-{wl.name}-seed{seed}.jsonl"
    tracer.write(span_path)
    print(f"# {wl.name} seed={seed}: {n} inputs in {traced.rounds} rounds; "
          f"untraced {plain.wall:.3f} s, traced {traced.wall:.3f} s "
          f"(overhead {100.0 * share(traced.wall - plain.wall, plain.wall):.1f}%)")
    print(f"# {len(tracer.spans)} spans written to {span_path.relative_to(ROOT)}")
    first = [i for i, rec in enumerate(traced.records) if rec.round == 0]
    return (at_nominal_speed(metrics, speed), errors, sum(traced.records[i].out.attempted for i in first),
            sum(failed[i] for i in first))


def load_recorded() -> dict[int, float]:
    doc = json.loads(RECORDED.read_text())
    return {int(k): float(v) for k, v in doc["values"].items()}


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the result object printed last."""
    from workloads import workloads

    wl = workloads(load_recorded())[workload]
    measure = per_layer if trace else end_to_end
    metrics, errors, attempted, failed = measure(wl, seed, seconds)
    for err in errors[:20]:
        print(f"# CHECK FAILED: {err}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "stochprobe" / "__init__.py").is_file():
        print(f"bench: no stochprobe sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
