"""Tests of the benchmark itself: seeding, output checks and spans.

    python3 -m pytest perfbench/test_perfbench.py -q

They run the real CLI on small inputs, so they take a few seconds.
"""

from __future__ import annotations

import json
import random
import re
import signal
import statistics
import time
from pathlib import Path

import pytest

import reference
import run
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

# Cheap argv that between them reach every check and every spanned function.
SMALL_OPS = [
    workloads.cli_argv("fq", "--n", 50, "--q", 2),
    workloads.cli_argv("counts", "--n", 25, "--q", 3),
    workloads.cli_argv("counts", "--n", 17, "--q", 1),
    workloads.cli_argv("threshold", "--n", 4),
    workloads.cli_argv("oracle", "--n", 4, "--threshold"),
    workloads.cli_argv("oracle", "--n", 9),
    workloads.cli_argv("scan", "--q", 1, "--n-start", 3, "--n-end", 2000, "--step", 50, "--fit"),
    workloads.cli_argv("errterms", "--m-max", 500, "--every", 3),
]
SPAN_NAMES = {
    "cli.startup", "cli.main", "totient.build_totient_table", "totient.iter_error_terms",
    "counts.f_fast", "counts.count_set", "asympt.scan_residuals", "asympt.fit_log_exponent",
    "oracle.oracle_line_histogram", "oracle.oracle_segments", "oracle.oracle_threshold_count",
}


@pytest.fixture(scope="module")
def refs() -> workloads.References:
    return workloads.References(pins=workloads.load_pins())


@pytest.fixture(scope="module")
def outputs() -> list[bytes]:
    env = run.child_env()
    children = [run.spawn(["-c", run.CLI, *argv], env) for argv in SMALL_OPS]
    assert [c.code for c in children] == [0] * len(SMALL_OPS)
    return [c.out for c in children]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_argv(workload: str, refs: workloads.References) -> None:
    def first(seed: int) -> list:
        gen = workloads.passes(workload, seed, refs.pins)
        return [next(gen) for _ in range(3)]

    assert first(7) == first(7)
    assert first(7) != first(8)


def test_point_large_draws_only_pinned_n(refs: workloads.References) -> None:
    gen = workloads.passes("point_large", 3, refs.pins)
    for ops in (next(gen) for _ in range(20)):
        assert all(int(workloads.options(a)["n"]) in refs.pins for a in ops)


def test_census_agrees_with_moments() -> None:
    phi = reference.phi_table(40)
    for n in range(1, 41):
        census = reference.f_census(n)
        for q in range(1, n + 1):
            m = (n - 1) // q
            assert census.get(q, 0) == reference.f_from_moments(n, q, reference.moments_at(phi, [m])[m])


def test_outputs_pass_checks(outputs: list[bytes], refs: workloads.References) -> None:
    for argv, out in zip(SMALL_OPS, outputs):
        verdict = workloads.check(argv, out, refs)
        assert verdict.ok, (argv, verdict.reason)


def test_one_corrupt_digit_raises_error_rate(outputs: list[bytes], refs: workloads.References) -> None:
    rng = random.Random(0)
    for argv, out in zip(SMALL_OPS, outputs):
        # Digits of integer cells: exact counts and indices, checked exactly.
        digits = [
            m.start() + k
            for m in re.finditer(rb"(?<![\d.e+-])-?\d+(?![\d.e])", out)
            for k in range(m.end() - m.start())
            if out[m.start() + k : m.start() + k + 1].isdigit()
        ]
        for pos in rng.sample(digits, min(10, len(digits))):
            bad = bytearray(out)
            bad[pos] = ord(str((int(chr(bad[pos])) + 1) % 10))
            tally = run.Tally()
            verdict = workloads.check(argv, bytes(bad), refs)
            tally.record(argv, verdict.ok, verdict.reason)
            assert tally.failed / tally.attempted > 0, (argv, pos)


def test_residual_gate_rejects_a_coarser_residual(outputs: list[bytes], refs: workloads.References) -> None:
    argv, out = SMALL_OPS[6], outputs[6]
    lines = out.decode().splitlines()
    cells = lines[-3].split(",")
    cells[4] = repr(round(float(cells[4]), -1) + 10.0)
    lines[-3] = ",".join(cells)
    assert not workloads.check(argv, "\n".join(lines).encode(), refs).ok


def test_traced_run_has_every_span_and_layer_metric(refs: workloads.References) -> None:
    env = run.child_env()
    tally = run.Tally()
    plain = run.run_pass(SMALL_OPS, env, refs, tally, None, traced=False)
    traced = run.run_pass(SMALL_OPS, env, refs, tally, None, traced=True)
    assert tally.failed == 0, tally.failures
    assert SPAN_NAMES <= {s["name"] for spans in traced.spans for s in spans}
    metrics = run.layer_metrics([plain], [traced], tally)
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    for name in ("totient.build_s", "totient.stream_s", "counts.f_fast_s", "asympt.scan_s",
                 "oracle.lines_s", "oracle.threshold_s", "cli.startup_s", "cli.self_s"):
        assert metrics[name][0] > 0, name


def test_end_to_end_metric_names_match_benchmark() -> None:
    tally = run.Tally(maxrss_kb=1024)
    p = run.Pass(op_walls=[1.0, 2.0], rows=3)
    metrics = run.end_to_end_metrics([p], [0.5], tally)
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}


def test_speed_gauge_pauses_the_child_and_keeps_its_exit() -> None:
    env = run.child_env()
    gauge = run.SpeedGauge(env)
    busy = "s = 0\nfor i in range(4 * 10**6): s += i\nprint(1)\nraise SystemExit(3)"
    child = run.spawn(["-c", busy], env, gauge=gauge)
    assert (child.code, child.out) == (3, b"1\n")
    assert len(gauge.samples) > run.RECENT_SAMPLES + run.BOUNDARY_SAMPLES
    assert len(gauge.startups) == 1
    compute = run.CAL_NOMINAL_S / statistics.median(gauge.samples)
    startup = run.STARTUP_NOMINAL_S / gauge.startups[0]
    share = gauge.startups[0] / child.raw_wall
    assert child.wall == pytest.approx(child.raw_wall * (share * startup + (1 - share) * compute))


def test_child_past_the_deadline_is_killed_and_fails() -> None:
    start = time.monotonic()
    child = run.spawn(["-c", "import time; time.sleep(30)"], run.child_env(), deadline=start + 0.5)
    assert child.code == -signal.SIGKILL
    assert time.monotonic() - start < 10
