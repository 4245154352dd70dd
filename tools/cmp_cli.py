"""Compare the gridcount CLI of this checkout with another copy of the source.

    python3 tools/cmp_cli.py PARENT_SRC

PARENT_SRC is the ``src`` directory of the other copy, for example of a
``git archive`` of the parent commit.  Every argv of ARGVS runs in each of
the three ``--format`` values, once from this checkout's ``src`` and once
from PARENT_SRC, and each run whose stdout, stderr or exit code differs is
reported.  Exits 0 when every run agrees, 1 otherwise.  Standard library
only.  ``python3 tools/cmp_cli.py src`` compares the checkout with itself,
so every run must give the same bytes twice.

ARGVS covers the benchmark-sized calls, every subcommand on small
inputs, the forced oracle past its cap, counts either side of each
switch the presieve rule has had (m = 2^10, 2^18 and 4,244,361) and at
the top of the grid, error-term and scan rows read
across many sieve blocks, every error-term row to just below and just
past the end of the first 2^16-entry block, a scan of 2 10^5 consecutive
rows, an error-term stream with no row, and every error path: bad and
out-of-range values, argvs with more than one fault (which fault is
reported depends on the check order), usage errors, and runs under
GRIDCOUNT_SIEVE_LIMIT, which gridcount no longer reads, so its output
must not change.  A leading ``NAME=value`` sets that variable.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CLI = "import sys; from gridcount.cli import main; sys.exit(main(prog_name='gridcount'))"
FORMATS = ("table", "csv", "json-lines")
# two runs at a time: the largest, the 2 10^5-row scan as a table, holds
# about 255 MB (a tree that holds a whole phi table for errterms to 10^8
# needs about 460 MB there)
WORKERS = 2

ARGVS = [
    # benchmark-sized calls
    "fq --n 9999991 --q 1",
    "fq --n 10000000 --q 3",
    "counts --n 9999991 --q 2",
    "counts --n 10000000 --q 5",
    "scan --q 1 --n-start 37 --n-end 100000 --step 100 --fit",
    "errterms --m-max 250000",
    "errterms --m-max 250000 --every 7",
    "errterms --m-max 3000 --every 3",
    "oracle --n 22",
    "counts --n 22 --q 3",
    "oracle --n 4 --threshold",
    "threshold --n 4",
    # every subcommand on small inputs
    "fq --n 1 --q 1",
    "fq --n 2 --q 1",
    "fq --n 10 --q 2",
    "fq --n 100 --q 7",
    "fq --n 5 --q 9",
    "counts --n 1 --q 1",
    "counts --n 10 --q 1",
    "counts --n 10 --q 2",
    "counts --n 25 --q 4",
    "scan --q 1 --n-start 2 --n-end 128 --geometric",
    "scan --q 1 --n-start 2 --n-end 128 --geometric --fit",
    "scan --q 2 --n-start 1 --n-end 40 --step 3",
    "scan --q 1 --n-start 10 --n-end 200 --step 10 --fit",
    "scan --q 3 --n-start 5 --n-end 5",
    "oracle --n 2",
    "oracle --n 3 --threshold",
    "oracle --n 5",
    "oracle --n 25",
    "oracle --n 30 --force",  # the forced path past the cap
    "errterms --m-max 1",
    "errterms --m-max 100",
    "errterms --m-max 1000 --every 10",
    "threshold --n 1",
    "threshold --n 12",
    "threshold --n 1000",
    # either side of the switches the presieve rule has had: the recursion
    # alone up to m = 2^10, a sieve to m up to 2^18, a 2^18 presieve up to
    # 4,244,361; and the top of the grid
    "fq --n 1025 --q 1",
    "fq --n 1026 --q 1",
    "counts --n 2050 --q 2",
    "threshold --n 1025",
    "fq --n 262145 --q 1",
    "fq --n 262146 --q 1",
    "fq --n 4244362 --q 1",
    "fq --n 4244363 --q 1",
    "threshold --n 10000000",
    # rows read across many sieve blocks, up to the 2^20-entry blocks at 10^8
    "errterms --m-max 2000000 --every 99991",
    "scan --q 1 --n-start 1 --n-end 2000000 --step 65521",
    "errterms --m-max 100000000 --every 10000000",
    # every row to just below and just past the first 2^16-entry block's end
    "errterms --m-max 65535",
    "errterms --m-max 65537",
    # a 2 10^5-row scan, every row one walked m; an every past m_max: no row
    "scan --q 1 --n-start 1 --n-end 200000",
    "errterms --m-max 10 --every 20",
    # bad values: exit 1
    "fq --n 0 --q 1",
    "fq --n 5 --q 0",
    "fq --n -3 --q 1",
    "fq --n 10000001 --q 1",
    "fq --n 100000000000 --q 1",
    "counts --n 0 --q 1",
    "counts --n 5 --q 0",
    "counts --n 10000001 --q 2",
    "counts --n 100000000000 --q 1",
    "threshold --n 0",
    "threshold --n 10000001",
    "threshold --n 100000000000",
    "scan --q 0 --n-start 1 --n-end 10",
    "scan --q 1 --n-start 0 --n-end 10",
    "scan --q 1 --n-start 10 --n-end 5",
    "scan --q 1 --n-start 1 --n-end 10 --step 0",
    "scan --q 1 --n-start 1 --n-end 10 --step -2",
    "scan --q 1 --n-start 1 --n-end 10000001",
    "scan --q 1 --n-start 1 --n-end 100000000000 --geometric",
    "scan --q 1 --n-start 2 --n-end 8 --fit",
    "oracle --n 0",
    "oracle --n 1",
    "oracle --n 26",
    "oracle --n 26 --force",
    "oracle --n 5 --threshold",
    "oracle --n 5 --threshold --force",
    "errterms --m-max 0",
    "errterms --m-max 10 --every 0",
    "errterms --m-max 10 --every -1",
    "errterms --m-max 1000000000",
    "errterms --m-max 0 --every 0",
    "errterms --m-max 1000000000 --every 0",
    # more than one fault: the first checked one is reported
    "oracle --n 26 --threshold",
    "oracle --n 1 --threshold",
    "scan --q 1 --n-start 0 --n-end 10 --step 0",
    "scan --q 0 --n-start 0 --n-end 10",
    "scan --q 0 --n-start 5 --n-end 1",
    "errterms --m-max -5 --every -1",
    "scan --q 1 --n-start 0 --n-end 100000000000",
    "counts --n 0 --q 0",
    "fq --n 0 --q 0",
    # a variable gridcount no longer reads
    "GRIDCOUNT_SIEVE_LIMIT=100 fq --n 1000 --q 1",
    "GRIDCOUNT_SIEVE_LIMIT=100 counts --n 1000 --q 2",
    "GRIDCOUNT_SIEVE_LIMIT=100 scan --q 1 --n-start 10 --n-end 1000 --step 10",
    "GRIDCOUNT_SIEVE_LIMIT=100 errterms --m-max 1000",
    "GRIDCOUNT_SIEVE_LIMIT=100 threshold --n 1000",
    "GRIDCOUNT_SIEVE_LIMIT=100 errterms --m-max 1000 --every 0",
    "GRIDCOUNT_SIEVE_LIMIT=zz errterms --m-max 10 --every 0",
    # malformed invocations: exit 2
    "scan --q 1 --n-start 1 --n-end 10 --step 2 --geometric",
    "fq --n abc --q 1",
    "fq --n 2.5 --q 1",
    "fq --q 1",
    "fq --n 5 --q 1 --limit 10",
    "counts --n 5 --q 1 --force",
    "frobnicate",
    "--help",
    "fq --help",
    "oracle --help",
]


def split(entry: str) -> tuple[dict[str, str], list[str]]:
    """(environment overrides, argv) of one ARGVS entry."""
    words = shlex.split(entry)
    env = {}
    while words and "=" in words[0] and not words[0].startswith("-"):
        name, value = words.pop(0).split("=", 1)
        env[name] = value
    return env, words


def run(src: Path, entry: str, fmt: str) -> tuple[bytes, bytes, int]:
    """stdout, stderr and exit code of the CLI from src on one entry and format."""
    env, argv = split(entry)
    env = {**os.environ, **env, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", CLI, *argv, "--format", fmt],
        capture_output=True,
        env=env,
        timeout=600,
    )
    return done.stdout, done.stderr, done.returncode


def compare(parent: Path, entry: str, fmt: str) -> list[str]:
    """Which of stdout, stderr and the exit code differ between the two trees."""
    ours, theirs = run(SRC, entry, fmt), run(parent, entry, fmt)
    return [what for what, a, b in zip(("stdout", "stderr", "exit"), ours, theirs) if a != b]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/cmp_cli.py PARENT_SRC", file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    if not (parent / "gridcount" / "cli.py").is_file():
        print(f"no gridcount/cli.py under {parent}", file=sys.stderr)
        return 2
    runs = [(entry, fmt) for entry in ARGVS for fmt in FORMATS]
    with ThreadPoolExecutor(WORKERS) as pool:
        diffs = list(pool.map(lambda r: compare(parent, *r), runs))
    differing = [(entry, fmt, d) for (entry, fmt), d in zip(runs, diffs) if d]
    for entry, fmt, d in differing:
        print(f"differs ({', '.join(d)}): {entry} --format {fmt}")
    print(
        f"{len(ARGVS)} argvs x {len(FORMATS)} formats = {len(runs)} runs;"
        f" {len(differing)} differ"
    )
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
