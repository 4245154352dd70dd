"""The four workloads: seeded argv generation and output checks.

Each workload is an endless sequence of passes; a pass is a list of argv
lists for the ``gridcount`` CLI.  Passes come from ``random.Random`` seeded
with the workload name and the seed, so one seed always yields the same
argv.  Seeded ranges are narrow on purpose: the seed changes the inputs but
hardly the amount of work, so run-to-run spread shows the program, not the
draw.  NOTES.md says why each workload exists.
"""

from __future__ import annotations

import io
import json
import math
import random
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path
from typing import Iterator

import reference

PINS_FILE = Path(__file__).resolve().parent / "pinned.json"

SCAN_N_END = 100_000
SCAN_STEP = 100
ERRTERMS_M_RANGE = (247_500, 252_500)
ORACLE_NS = range(20, 26)
ORACLE_QS_PER_N = 2
THRESHOLD_N = 4
CENSUS_MAX_N = 60

#: An emitted residual may be off by this many roundings of the exact count,
#: which is all a float difference of a ~n^4 count and its main term allows.
RESIDUAL_ULPS = 16
#: Float columns recomputed here in double precision agree to this many
#: roundings of the largest term involved.
FLOAT_ULPS = 64
EPS = 2.0**-53
#: %.15g keeps 15 significant digits, so a printed float is within 5e-15 of
#: its value, relatively, and a value recomputed from printed cells inherits
#: that error once more.
PRINT_REL = 2e-14
FIT_TOL = 1e-9


def load_pins() -> dict[int, dict[int, int]]:
    """Pinned f_q(n) for point_large, keyed by n then q (see pin.py)."""
    data = json.loads(PINS_FILE.read_text())
    return {int(n): {int(q): v for q, v in fs.items()} for n, fs in data["f"].items()}


def cli_argv(*argv: object) -> list[str]:
    """One CLI argv as strings, asking for csv, the format the checks parse."""
    return [str(a) for a in argv] + ["--format", "csv"]


def _point_large(rng: random.Random, pins: dict) -> list[list[str]]:
    ns = sorted(pins)
    return [
        cli_argv("fq", "--n", rng.choice(ns), "--q", 1),
        cli_argv("counts", "--n", rng.choice(ns), "--q", 2),
    ]


def _scan_dense(rng: random.Random, pins: dict) -> list[list[str]]:
    start = rng.randint(1, SCAN_STEP)
    return [
        cli_argv("scan", "--q", 1, "--n-start", start, "--n-end", SCAN_N_END,
             "--step", SCAN_STEP, "--fit")
    ]


def _errterms_stream(rng: random.Random, pins: dict) -> list[list[str]]:
    return [cli_argv("errterms", "--m-max", rng.randint(*ERRTERMS_M_RANGE), "--every", 1)]


def _oracle_crosscheck(rng: random.Random, pins: dict) -> list[list[str]]:
    ns = list(ORACLE_NS)
    rng.shuffle(ns)
    ops = []
    for n in ns:
        ops.append(cli_argv("oracle", "--n", n))
        for q in sorted(rng.sample(range(2, n), ORACLE_QS_PER_N)):
            ops.append(cli_argv("counts", "--n", n, "--q", q))
    ops.append(cli_argv("oracle", "--n", THRESHOLD_N, "--threshold"))
    ops.append(cli_argv("threshold", "--n", THRESHOLD_N))
    return ops


WORKLOADS = {
    "point_large": _point_large,
    "scan_dense": _scan_dense,
    "errterms_stream": _errterms_stream,
    "oracle_crosscheck": _oracle_crosscheck,
}


def passes(workload: str, seed: int, pins: dict) -> Iterator[list[list[str]]]:
    """The workload's passes for ``seed``, in order, without end."""
    make = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield make(rng, pins)


def options(argv: list[str]) -> dict[str, str | bool]:
    """``--name value`` pairs and bare ``--flag``s of one argv, by name."""
    opts: dict[str, str | bool] = {}
    k = 1
    while k < len(argv):
        name = argv[k][2:]
        if k + 1 < len(argv) and not argv[k + 1].startswith("--"):
            opts[name] = argv[k + 1]
            k += 2
        else:
            opts[name] = True
            k += 1
    return opts


def table_need(argv: list[str]) -> int:
    """Totient table size the command needs, as the CLI sizes its sieve."""
    o = options(argv)
    cmd = argv[0]
    if cmd == "scan":
        return (int(o["n-end"]) - 1) // int(o["q"])
    if cmd == "errterms":
        return int(o["m-max"])
    if cmd in ("fq", "counts", "threshold"):
        n, q = int(o["n"]), int(o.get("q", 1))
        return (n - 1) // (q - 1 if cmd == "counts" and q >= 2 else q)
    return 1


def data_rows(out: bytes) -> int:
    """Lines of output that carry data, i.e. not blank and not '#' markers."""
    return sum(1 for line in io.BytesIO(out) if line.strip() and not line.startswith(b"#"))


class Mismatch(Exception):
    """The output disagrees with the reference."""


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


@dataclass
class References:
    """Lazily built reference data shared by the checks of one run."""

    pins: dict[int, dict[int, int]]
    _census: dict[int, dict[int, int]] = field(default_factory=dict)
    _phi: object = None

    def f(self, n: int, q: int) -> int:
        if q < 1:
            raise Mismatch(f"no f_{q}")
        if n <= CENSUS_MAX_N:
            if n not in self._census:
                self._census[n] = reference.f_census(n)
            return self._census[n].get(q, 0)
        if n in self.pins and q in self.pins[n]:
            return self.pins[n][q]
        raise Mismatch(f"no reference for f_{q}({n})")

    def phi(self, limit: int):
        if self._phi is None or len(self._phi) <= limit:
            self._phi = reference.phi_table(limit)
        return self._phi


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    residual_max_relerr: float | None = None


def check(argv: list[str], out: bytes, refs: References) -> Verdict:
    """Compare one invocation's stdout with independent references."""
    try:
        relerr = _CHECKS[argv[0]](options(argv), out, refs)
    except (Mismatch, ValueError, IndexError, KeyError, ZeroDivisionError, StopIteration) as exc:
        return Verdict(False, f"{type(exc).__name__}: {exc}")
    return Verdict(True, residual_max_relerr=relerr)


def _lines(out: bytes) -> list[str]:
    return out.decode().splitlines()


def _ints(line: str) -> list[int | None]:
    return [int(c) if c else None for c in line.split(",")]


def _check_fq(o: dict, out: bytes, refs: References) -> None:
    n, q = int(o["n"]), int(o["q"])
    lines = _lines(out)
    _expect(len(lines) == 1, f"{len(lines)} lines")
    _expect(_ints(lines[0]) == [n, q, refs.f(n, q)], f"fq row {lines[0]}")


def _check_counts(o: dict, out: bytes, refs: References) -> None:
    n, q = int(o["n"]), int(o["q"])
    lines = _lines(out)
    _expect(len(lines) == 1, f"{len(lines)} lines")
    f = refs.f(n, q)
    if q >= 2:
        seg, at_least, exactly = reference.derived_counts(refs.f(n, q - 1), f, refs.f(n, q + 1))
        want = [n, q, f, seg, at_least, exactly]
    else:
        want = [n, q, f, f // 2, None, None]
    _expect(_ints(lines[0]) == want, f"counts row {lines[0]}")


def _check_threshold(o: dict, out: bytes, refs: References) -> None:
    n = int(o["n"])
    lines = _lines(out)
    _expect(lines == [f"{n},{refs.f(n, 1) + 2}"], f"threshold rows {lines}")


def _blocks(lines: list[str]) -> dict[str, list[list[int | None]]]:
    blocks: dict[str, list[list[int | None]]] = {}
    current = None
    for line in lines:
        if line.startswith("# "):
            current = blocks.setdefault(line[2:], [])
        else:
            _expect(current is not None, f"row before any block: {line}")
            current.append(_ints(line))
    return blocks


def _check_oracle(o: dict, out: bytes, refs: References) -> None:
    n = int(o["n"])
    f = [0] + [refs.f(n, g) for g in range(1, n + 2)]
    blocks = _blocks(_lines(out))
    want_lines = [
        [n, p, c]
        for p in range(2, n + 1)
        if (c := (f[p + 1] - 2 * f[p] + f[p - 1]) // 2) > 0
    ]
    _expect(blocks.get("lines") == want_lines, "line histogram")
    _expect(blocks.get("segments") == [[n, p, f[p - 1] // 2] for p in range(2, n + 1)], "segments")
    want_blocks = {"lines", "segments"}
    if o.get("threshold"):
        _expect(blocks.get("threshold") == [[n, f[1] + 2]], "threshold")
        want_blocks.add("threshold")
    _expect(set(blocks) == want_blocks, f"blocks {sorted(blocks)}")


def _close(got: float, want: float, tol: float, what: str) -> None:
    _expect(abs(got - want) <= tol, f"{what}: {got!r} vs {want!r}")


def _check_scan(o: dict, out: bytes, refs: References) -> float:
    q = int(o["q"])
    lines = _lines(out)
    ns = list(range(int(o["n-start"]), int(o["n-end"]) + 1, int(o.get("step", 1))))
    _expect(len(lines) == len(ns) + 2 and lines[-2] == "# fit", "scan layout")
    phi = refs.phi((ns[-1] - 1) // q)
    moments = reference.moments_at(phi, [(n - 1) // q for n in ns])
    worst = 0.0
    fit_points = []
    for n, line in zip(ns, lines):
        cells = line.split(",")
        _expect(len(cells) == 6 and int(cells[0]) == n and int(cells[1]) == q, f"row {line}")
        exact = reference.f_from_moments(n, q, moments[(n - 1) // q])
        _expect(int(cells[2]) == exact, f"exact at n={n}")
        main = reference.main_term_decimal(n, q)
        _close(float(cells[3]), float(main), (FLOAT_ULPS * EPS + PRINT_REL) * float(main), f"main at n={n}")
        res_ref = reference.residual_decimal(exact, n, q)
        err = abs(Decimal(cells[4]) - res_ref)
        _expect(
            err <= Decimal(RESIDUAL_ULPS * EPS) * exact + Decimal(PRINT_REL) * abs(res_ref),
            f"residual at n={n}: {cells[4]} vs {res_ref:.20e}",
        )
        worst = max(worst, float(err / abs(res_ref)))
        res = float(cells[4])
        norm = abs(res) / float(n) ** 4
        _close(float(cells[5]), norm, (FLOAT_ULPS * EPS + PRINT_REL) * norm, f"normalized at n={n}")
        if abs(res) >= 1.0:
            fit_points.append((n, res))
    slope, intercept = reference.least_squares(
        [math.log(n) for n, _ in fit_points], [math.log(abs(r)) for _, r in fit_points]
    )
    fit = lines[-1].split(",")
    _close(float(fit[0]), slope, FIT_TOL, "slope")
    _close(float(fit[1]), intercept, FIT_TOL * 10, "intercept")
    used = [n for n, _ in fit_points]
    _expect(fit[2:5] == [str(len(used)), str(min(used)), str(max(used))], f"fit row {lines[-1]}")
    cls = "below-rh" if slope < 2.5 else "between" if slope < 3.0 else "above-unconditional"
    _expect(fit[5] == cls, f"classification {fit[5]}")
    return worst


def _check_errterms(o: dict, out: bytes, refs: References) -> None:
    """Streams the rows: the output is large, and the harness stays small."""
    m_max, every = int(o["m-max"]), int(o.get("every", 1))
    _expect(out.count(b"\n") == m_max // every, "row count")
    phi = refs.phi(m_max)
    pi2 = math.pi**2
    big_phi = 0
    second = 0
    rows = io.BytesIO(out)
    for m in range(1, m_max + 1):
        big_phi += phi[m]
        second += big_phi
        if m % every:
            continue
        line = next(rows)
        cells = line.split(b",")
        _expect(len(cells) == 4 and int(cells[0]) == m and int(cells[1]) == big_phi, f"row {line}")
        _close(float(cells[2]), big_phi - 3.0 * m * m / pi2, FLOAT_ULPS * EPS * big_phi, f"e_phi at m={m}")
        w = 6 * (m * (m + 1) * (2 * m + 1) // 6) + 3 * m * m
        _close(float(cells[3]), float(second) - w / (2.0 * pi2), FLOAT_ULPS * EPS * second, f"e_r at m={m}")


_CHECKS = {
    "fq": _check_fq,
    "counts": _check_counts,
    "threshold": _check_threshold,
    "oracle": _check_oracle,
    "scan": _check_scan,
    "errterms": _check_errterms,
}
