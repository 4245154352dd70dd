"""gridcount benchmark: drive the CLI on one seeded workload and report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Paths resolve from this file, so any working directory will do.  The CLI
runs from ``src/`` as subprocesses, one at a time, in passes of seeded argv
(workloads.py) until S seconds of CLI wall time have been measured; a pass
is never cut short.  End-to-end times are wall times scaled to a reference
machine speed (SpeedGauge); the raw pass times go to the record.  Every
output is checked against independent references, and a mismatch only
counts as failed.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer
ones, from untraced passes alternating with the same passes run through
traced_cli.py.  The lines before it are a readable summary and a
``perfbench-record`` JSON line with the environment.  Exits 2 without a
result if gridcount cannot be imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from traced_cli import SPAN_MARK

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 10
SETUP_TARGET_S = 2.0
CAL_ITERATIONS = 50_000
#: Median seconds of calibrate() on the reference box (2-core x86-64 VM,
#: Python 3.11); scaled times are seconds at that speed.
CAL_NOMINAL_S = 0.011
SAMPLE_EVERY_S = 0.25
RECENT_SAMPLES = 5
BOUNDARY_SAMPLES = 3
STARTUP_REF = "import numpy, click"
#: Median seconds of STARTUP_REF on the reference box.
STARTUP_NOMINAL_S = 0.2
STARTUP_EVERY_S = 2.0
STARTUP_RECENT = 3
CLI = "import sys; from gridcount.cli import main; sys.exit(main())"
SETUP = "import sys, gridcount; gridcount.build_totient_table(int(sys.argv[1]))"
PREFLIGHT = "import gridcount.cli, numpy; print(numpy.__version__)"
COMPUTED = ["counts.terms", "oracle.pairs", "totient.table_bytes"]
MAX_REPORTED_FAILURES = 5
#: Children still running this long after the run started are killed and
#: count as failed, so a hung program cannot hold the run past 180 s.
RUN_BUDGET_S = 150.0

Metrics = dict[str, tuple[float, str]]


@dataclass
class Child:
    """One finished child: wall seconds (scaled, raw), ru_maxrss KiB, exit code, output."""

    wall: float
    raw_wall: float
    maxrss_kb: int
    code: int
    out: bytes
    err: bytes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("GRIDCOUNT_SIEVE_LIMIT", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _noop() -> None:
    pass


def current_rss_mb() -> float:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def calibrate() -> float:
    """Seconds for a fixed pure-Python big-integer loop, f_fast's kind of work."""
    t0 = time.perf_counter()
    n, total, qi = 10**7, 0, 1
    for p in range(1, CAL_ITERATIONS + 1):
        total += (n - qi) * (2 * n - qi) * p
        qi += 1
    return time.perf_counter() - t0


class SpeedGauge:
    """Scales a child's wall time to the reference speed of the machine.

    The shared reference box drifts in speed by about 20 % over tens of
    seconds, which no affordable run length averages out, and a loop timed
    on the other core does not track it.  Two references are kept:

    - compute: every SAMPLE_EVERY_S the harness stops the child (SIGSTOP),
      times calibrate() alone and resumes it.  The pauses are taken out of
      the child's wall time.  The compute factor is CAL_NOMINAL_S over the
      median of the samples taken during the child, BOUNDARY_SAMPLES right
      after it and the RECENT_SAMPLES before it.
    - start-up: at most every STARTUP_EVERY_S, before a child, a bare
      interpreter importing numpy and click (STARTUP_REF) is timed.  The
      start-up factor is STARTUP_NOMINAL_S over the median of the last
      STARTUP_RECENT of those.  Import time drifts with the page cache and
      the disk, which the compute loop does not see.

    A child is scaled by the two factors blended in proportion to the share
    of its wall time that the start-up reference would take, so a 0.2 s
    call is scaled by the start-up factor and a 10 s one by the compute
    factor.
    """

    def __init__(self, env: dict[str, str]) -> None:
        self.env = env
        self.recent = deque((calibrate() for _ in range(RECENT_SAMPLES)), RECENT_SAMPLES)
        self.startups: deque[float] = deque(maxlen=STARTUP_RECENT)
        self.startup_at = -math.inf
        self.samples: list[float] = []

    def start(self) -> None:
        """Call before each child."""
        if time.monotonic() - self.startup_at > STARTUP_EVERY_S:
            self.startups.append(spawn(["-c", STARTUP_REF], self.env).raw_wall)
            self.startup_at = time.monotonic()
        self.samples = list(self.recent)

    def _sample(self) -> None:
        t = calibrate()
        self.samples.append(t)
        self.recent.append(t)

    def pause_and_sample(self, pid: int) -> float | None:
        """Stop ``pid``, sample, resume; seconds paused, or None if it exited."""
        os.kill(pid, signal.SIGSTOP)
        # WNOWAIT leaves an exit for the final os.wait4 to reap with rusage.
        info = os.waitid(os.P_PID, pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
        if info.si_code != os.CLD_STOPPED:
            return None
        t0 = time.monotonic()
        self._sample()
        os.kill(pid, signal.SIGCONT)
        return time.monotonic() - t0

    def finish(self, raw_wall: float) -> float:
        """Scale factor for the child that just ended after ``raw_wall`` s."""
        for _ in range(BOUNDARY_SAMPLES):
            self._sample()
        compute = CAL_NOMINAL_S / statistics.median(self.samples)
        startup_ref = statistics.median(self.startups)
        share = min(1.0, startup_ref / raw_wall)
        return share * STARTUP_NOMINAL_S / startup_ref + (1 - share) * compute


def spawn(
    args: list[str], env: dict[str, str], traced: bool = False,
    gauge: SpeedGauge | None = None, deadline: float = math.inf,
) -> Child:
    """Run ``python3 <args>`` to completion; rusage comes from os.wait4.

    With a gauge the wall time excludes pauses and is scaled to the
    reference speed; ``raw_wall`` keeps it unscaled.  A child still running
    at ``deadline`` (a time.monotonic() value) is killed.
    """
    if gauge is not None:
        gauge.start()
    t0 = time.monotonic()
    prefix = [str(HERE / "traced_cli.py"), repr(t0)] if traced else []
    # Any preexec_fn makes subprocess fork rather than vfork.  A vforked
    # child's ru_maxrss starts at this process's peak RSS, a forked one's at
    # its current RSS, which the record reports as harness_rss_mb.
    proc = subprocess.Popen(
        [sys.executable, *prefix, *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
        preexec_fn=_noop,
    )
    out: list[bytes] = []
    err: list[bytes] = []
    readers = [
        threading.Thread(target=lambda: out.append(proc.stdout.read())),
        threading.Thread(target=lambda: err.append(proc.stderr.read())),
    ]
    paused = 0.0
    try:
        for reader in readers:
            reader.start()
        while True:
            readers[0].join(SAMPLE_EVERY_S)
            if not readers[0].is_alive():
                break
            if time.monotonic() > deadline:
                proc.kill()
                break
            if gauge is not None:
                pause = gauge.pause_and_sample(proc.pid)
                if pause is None:
                    break
                paused += pause
        for reader in readers:
            reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()  # SIGKILL ends a stopped child too
        os.waitpid(proc.pid, 0)
        raise
    raw_wall = time.monotonic() - t0 - paused
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    wall = raw_wall * gauge.finish(raw_wall) if gauge is not None else raw_wall
    return Child(wall, raw_wall, usage.ru_maxrss, proc.returncode, out[0], err[0])


@dataclass
class Tally:
    """Verdicts and resource peaks over every child of the run."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    maxrss_kb: int = 0
    harness_rss_mb: float = 0.0
    residual_max_relerr: float = 0.0

    def record(self, argv: list[str], ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < MAX_REPORTED_FAILURES:
                self.failures.append(f"{' '.join(argv)}: {reason}")


@dataclass
class Pass:
    """Timings (scaled by SpeedGauge, and raw) and output volume of one pass."""

    op_walls: list[float] = field(default_factory=list)
    raw_walls: list[float] = field(default_factory=list)
    rows: int = 0
    bytes_out: int = 0
    spans: list[list[dict]] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.op_walls)


def split_spans(err: bytes) -> tuple[bytes, list[dict]]:
    """Separate traced_cli's span line from the command's own stderr."""
    head, sep, tail = err.rpartition(SPAN_MARK.encode())
    if not sep:
        return err, []
    return head, json.loads(tail)


def run_pass(
    ops: list[list[str]], env: dict[str, str], refs: workloads.References,
    tally: Tally, gauge: SpeedGauge | None, traced: bool, deadline: float = math.inf,
) -> Pass:
    """Run one pass op by op; each op is checked after its clock stops."""
    result = Pass()
    for argv in ops:
        run_op(argv, env, refs, tally, gauge, traced, deadline, result)
    return result


def run_op(
    argv: list[str], env: dict[str, str], refs: workloads.References,
    tally: Tally, gauge: SpeedGauge | None, traced: bool, deadline: float, result: Pass,
) -> None:
    """One op; its output is dropped on return, before the next fork."""
    tally.harness_rss_mb = max(tally.harness_rss_mb, current_rss_mb())
    child = spawn(argv if traced else ["-c", CLI, *argv], env, traced, gauge, deadline)
    result.op_walls.append(child.wall)
    result.raw_walls.append(child.raw_wall)
    result.rows += workloads.data_rows(child.out)
    result.bytes_out += len(child.out)
    tally.maxrss_kb = max(tally.maxrss_kb, child.maxrss_kb)
    err, spans = split_spans(child.err)
    if traced:
        result.spans.append(spans)
    if child.code != 0:
        tally.record(argv, False, f"exit {child.code}: {err.decode(errors='replace').strip()[:200]}")
        return
    verdict = workloads.check(argv, child.out, refs)
    tally.record(argv, verdict.ok, verdict.reason)
    if verdict.residual_max_relerr is not None:
        tally.residual_max_relerr = max(tally.residual_max_relerr, verdict.residual_max_relerr)


def measure_setup(
    need: int, env: dict[str, str], tally: Tally, gauge: SpeedGauge, deadline: float
) -> list[float]:
    """Fresh processes that import gridcount and build a table of ``need``.

    At least SETUP_MIN_REPEATS of them, and more while their raw time is
    under SETUP_TARGET_S, so that cheap set-ups get a steadier median.
    """
    walls: list[float] = []
    raw = 0.0
    while len(walls) < SETUP_MIN_REPEATS or (raw < SETUP_TARGET_S and len(walls) < SETUP_MAX_REPEATS):
        child = spawn(["-c", SETUP, str(need)], env, gauge=gauge, deadline=deadline)
        walls.append(child.wall)
        raw += child.raw_wall
        tally.record(["setup", str(need)], child.code == 0, f"exit {child.code}")
    return walls


def end_to_end_metrics(passes: list[Pass], setup: list[float], tally: Tally) -> Metrics:
    op_walls = [w for p in passes for w in p.op_walls]
    return {
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (tally.maxrss_kb / 1024, "MB"),
        "query_s": (statistics.median(op_walls), "s"),
        "rows_per_s": (statistics.median(p.rows / p.wall for p in passes), "1/s"),
    }


def layer_metrics(plain: list[Pass], traced: list[Pass], tally: Tally) -> Metrics:
    """Per-pass layer figures from the traced passes' spans.

    Self time is a span's busy time minus its direct children's.
    """
    busy: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    summed: dict[str, int] = defaultdict(int)
    table_bytes = 0
    for invocation in (spans for p in traced for spans in p.spans):
        child_busy = [0.0] * len(invocation)
        for s in invocation:
            if s["parent"] is not None:
                child_busy[s["parent"]] += s["busy"]
        for s, kids in zip(invocation, child_busy):
            name = s["name"]
            busy[name] += s["busy"]
            self_time[name] += s["busy"] - kids
            calls[name] += 1
            for key in ("entries", "terms", "rows", "pairs", "items"):
                summed[f"{name}.{key}"] += s.get(key, 0)
            table_bytes = max(table_bytes, s.get("bytes", 0))

    def rate(count: int, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    build, stream = "totient.build_totient_table", "totient.iter_error_terms"
    per_pass = {
        "totient.build_s": (busy[build], "s"),
        "totient.stream_s": (busy[stream], "s"),
        "totient.stream_rows": (summed[f"{stream}.items"], "count"),
        "counts.f_fast_s": (busy["counts.f_fast"], "s"),
        "counts.f_fast_calls": (calls["counts.f_fast"], "count"),
        "counts.terms": (summed["counts.f_fast.terms"], "count"),
        "counts.count_set_s": (busy["counts.count_set"], "s"),
        "asympt.scan_s": (busy["asympt.scan_residuals"], "s"),
        "asympt.scan_self_s": (self_time["asympt.scan_residuals"], "s"),
        "asympt.scan_rows": (summed["asympt.scan_residuals.rows"], "count"),
        "asympt.fit_s": (busy["asympt.fit_log_exponent"], "s"),
        "oracle.lines_s": (busy["oracle.oracle_line_histogram"], "s"),
        "oracle.segments_s": (busy["oracle.oracle_segments"], "s"),
        "oracle.threshold_s": (busy["oracle.oracle_threshold_count"], "s"),
        "oracle.pairs": (summed["oracle.oracle_line_histogram.pairs"], "count"),
        "cli.startup_s": (busy["cli.startup"], "s"),
        "cli.self_s": (self_time["cli.main"], "s"),
        "cli.bytes_out": (sum(p.bytes_out for p in traced), "bytes"),
        "cli.rows_out": (sum(p.rows for p in traced), "count"),
    }
    metrics = {name: (total / len(traced), unit) for name, (total, unit) in per_pass.items()}
    metrics.update({
        "totient.build_entries_per_s": (rate(summed[f"{build}.entries"], busy[build]), "1/s"),
        "totient.table_bytes": (table_bytes, "bytes"),
        "counts.terms_per_s": (rate(summed["counts.f_fast.terms"], busy["counts.f_fast"]), "1/s"),
        "asympt.residual_max_relerr": (tally.residual_max_relerr, "ratio"),
        "trace.overhead_s": (
            statistics.median(p.wall for p in traced) - statistics.median(p.wall for p in plain), "s"),
    })
    return metrics


def environment(numpy_version: str) -> dict[str, object]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # the benchmark may run from a plain export of the tree
    digest = hashlib.sha256()
    for path in sorted((SRC / "gridcount").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = child_env()
    if not (SRC / "gridcount" / "cli.py").is_file():
        print(f"no gridcount sources under {SRC}", file=sys.stderr)
        return 2
    pre = spawn(["-c", PREFLIGHT], env)
    if pre.code != 0:
        print(f"cannot import gridcount:\n{pre.err.decode(errors='replace')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    load_before = os.getloadavg()
    refs = workloads.References(pins=workloads.load_pins())
    gen = workloads.passes(args.workload, args.seed, refs.pins)
    tally = Tally()
    plain: list[Pass] = []
    traced: list[Pass] = []
    if args.trace == 0:
        gauge = SpeedGauge(env)
        ops = next(gen)
        setup = measure_setup(max(workloads.table_need(a) for a in ops), env, tally, gauge, deadline)
        while True:
            plain.append(run_pass(ops, env, refs, tally, gauge, False, deadline))
            if sum(sum(p.raw_walls) for p in plain) >= args.seconds:
                break
            ops = next(gen)
        metrics = end_to_end_metrics(plain, setup, tally)
    else:
        while not traced or sum(sum(p.raw_walls) for p in plain + traced) < args.seconds:
            ops = next(gen)
            plain.append(run_pass(ops, env, refs, tally, None, False, deadline))
            traced.append(run_pass(ops, env, refs, tally, None, True, deadline))
        metrics = layer_metrics(plain, traced, tally)

    error_rate = tally.failed / tally.attempted
    relerr = tally.residual_max_relerr
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"  passes {len(plain)}  operations {tally.attempted}")
    for name, (value, unit) in metrics.items():
        label = " (computed)" if name in COMPUTED else ""
        print(f"  {name:30s} {value:.6g} {unit}{label}")
    print(f"  {'error_rate':30s} {error_rate:.6g} ({tally.failed}/{tally.attempted})")
    print(f"  {'residual_max_relerr':30s} {f'{relerr:.6g}' if relerr else 'n/a (no scan rows)'}")
    for failure in tally.failures:
        print(f"  FAILED {failure}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(pre.out.decode().strip()),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "passes": len(plain),
        "raw_pass_walls_s": [sum(p.raw_walls) for p in plain],
        "speed_scale": statistics.median(p.wall / sum(p.raw_walls) for p in plain) if args.trace == 0 else None,
        "error_rate": error_rate,
        "residual_max_relerr": relerr,
        "harness_rss_mb": tally.harness_rss_mb,
        "computed_not_measured": [m for m in COMPUTED if m in metrics],
        "failures": tally.failures,
    }
    print("perfbench-record " + json.dumps(record))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
