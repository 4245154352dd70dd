"""CLI surface: schemas, formats, exit codes, reproducibility."""

import json
import tracemalloc

import pytest
from click.testing import CliRunner

from gridcount import totient
from gridcount.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def run(runner, *args, **kwargs):
    return runner.invoke(main, list(args), **kwargs)


class TestFq:
    def test_table_bare_value(self, runner):
        r = run(runner, "fq", "--n", "5", "--q", "7")
        assert r.exit_code == 0
        assert r.stdout == "0\n"

    def test_csv(self, runner):
        r = run(runner, "fq", "--n", "3", "--q", "1", "--format", "csv")
        assert r.stdout == "3,1,56\n"

    def test_direct_flag_rejected(self, runner):
        r = run(runner, "fq", "--n", "17", "--q", "2", "--direct")
        assert r.exit_code == 2
        assert "No such option" in r.stderr

    def test_json_lines(self, runner):
        r = run(runner, "fq", "--n", "2", "--q", "1", "--format", "json-lines")
        assert json.loads(r.stdout) == {"n": 2, "q": 1, "f": 12}


class TestCounts:
    def test_csv_schema(self, runner):
        r = run(runner, "counts", "--n", "3", "--q", "2", "--format", "csv")
        assert r.exit_code == 0
        assert r.stdout == "3,2,16,8,20,12\n"

    def test_csv_q1_blank_line_columns(self, runner):
        r = run(runner, "counts", "--n", "3", "--q", "1", "--format", "csv")
        assert r.stdout == "3,1,56,28,,\n"

    def test_json_nulls(self, runner):
        r = run(runner, "counts", "--n", "3", "--q", "1", "--format", "json-lines")
        obj = json.loads(r.stdout)
        assert obj["lines_at_least"] is None
        assert obj["segments"] == 28

    def test_table_has_header(self, runner):
        r = run(runner, "counts", "--n", "3", "--q", "2")
        head = r.stdout.splitlines()[0].split()
        assert head == ["n", "q", "f", "segments", "lines_at_least", "lines_exactly"]


class TestScan:
    def test_csv_rows(self, runner):
        r = run(
            runner, "scan", "--q", "1", "--n-start", "2", "--n-end", "4",
            "--format", "csv",
        )
        lines = r.stdout.splitlines()
        assert len(lines) == 3
        first = lines[0].split(",")
        assert first[:3] == ["2", "1", "12"]
        assert len(first) == 6

    def test_geometric(self, runner):
        r = run(
            runner, "scan", "--q", "1", "--n-start", "2", "--n-end", "20",
            "--geometric", "--format", "csv",
        )
        ns = [line.split(",")[0] for line in r.stdout.splitlines()]
        assert ns == ["2", "4", "8", "16"]

    def test_step(self, runner):
        r = run(
            runner, "scan", "--q", "2", "--n-start", "5", "--n-end", "11",
            "--step", "3", "--format", "csv",
        )
        ns = [line.split(",")[0] for line in r.stdout.splitlines()]
        assert ns == ["5", "8", "11"]

    def test_fit_block(self, runner):
        r = run(
            runner, "scan", "--q", "1", "--n-start", "2", "--n-end", "256",
            "--geometric", "--fit", "--format", "csv",
        )
        lines = r.stdout.splitlines()
        assert "# fit" in lines
        fit_row = lines[lines.index("# fit") + 1].split(",")
        assert fit_row[-1] in ("below-rh", "between", "above-unconditional")
        assert float(fit_row[0]) < 3.0

    def test_fit_json(self, runner):
        r = run(
            runner, "scan", "--q", "1", "--n-start", "2", "--n-end", "256",
            "--geometric", "--fit", "--format", "json-lines",
        )
        last = json.loads(r.stdout.splitlines()[-1])
        assert set(last) == {
            "slope", "intercept", "points_used", "n_lo", "n_hi",
            "classification", "message", "note",
        }

    def test_empty_range_rejected(self, runner):
        r = run(runner, "scan", "--q", "1", "--n-start", "9", "--n-end", "3")
        assert r.exit_code == 1
        assert "error: invalid-argument:" in r.stderr

    def test_step_and_geometric_conflict(self, runner):
        r = run(
            runner, "scan", "--q", "1", "--n-start", "2", "--n-end", "8",
            "--step", "2", "--geometric",
        )
        assert r.exit_code == 2


class TestOracleCmd:
    def test_csv_blocks(self, runner):
        r = run(runner, "oracle", "--n", "3", "--threshold", "--format", "csv")
        assert r.stdout == (
            "# lines\n3,2,12\n3,3,8\n"
            "# segments\n3,2,28\n3,3,8\n"
            "# threshold\n3,58\n"
        )

    def test_without_threshold(self, runner):
        r = run(runner, "oracle", "--n", "2", "--format", "csv")
        assert "# threshold" not in r.stdout
        assert "# lines\n2,2,6\n" in r.stdout

    def test_guardrail_exit(self, runner):
        r = run(runner, "oracle", "--n", "26")
        assert r.exit_code == 1
        assert "error: resource-limit:" in r.stderr

    def test_threshold_cap(self, runner):
        r = run(runner, "oracle", "--n", "5", "--threshold")
        assert r.exit_code == 1
        r = run(runner, "oracle", "--n", "5", "--threshold", "--force")
        assert r.exit_code == 0


class TestErrterms:
    def test_csv(self, runner):
        r = run(runner, "errterms", "--m-max", "3", "--format", "csv")
        lines = r.stdout.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("1,1,")
        assert lines[2].startswith("3,4,")

    def test_every(self, runner):
        r = run(runner, "errterms", "--m-max", "30", "--every", "10", "--format", "csv")
        ms = [line.split(",")[0] for line in r.stdout.splitlines()]
        assert ms == ["10", "20", "30"]

    def test_json(self, runner):
        r = run(runner, "errterms", "--m-max", "1", "--format", "json-lines")
        obj = json.loads(r.stdout)
        assert obj["m"] == 1 and obj["phi_sum"] == 1
        assert 0.69 < obj["e_phi"] < 0.70


class TestThresholdCmd:
    def test_bare(self, runner):
        r = run(runner, "threshold", "--n", "2")
        assert r.stdout == "14\n"

    def test_csv(self, runner):
        r = run(runner, "threshold", "--n", "3", "--format", "csv")
        assert r.stdout == "3,58\n"

    def test_n1(self, runner):
        r = run(runner, "threshold", "--n", "1", "--format", "csv")
        assert r.stdout == "1,2\n"


class TestErrorContract:
    def test_invalid_value_exits_1(self, runner):
        r = run(runner, "counts", "--n", "0", "--q", "1")
        assert r.exit_code == 1
        assert r.stderr.startswith("error: invalid-argument:")

    def test_malformed_exits_2(self, runner):
        assert run(runner, "counts", "--n", "abc", "--q", "1").exit_code == 2
        assert run(runner, "counts", "--n", "3").exit_code == 2
        assert run(runner, "nonsense").exit_code == 2
        assert run(runner, "counts", "--n", "3", "--q", "2", "--format", "yaml").exit_code == 2

    def test_resource_limit_exits_1(self, runner):
        r = run(runner, "errterms", "--m-max", "100000001")
        assert r.exit_code == 1
        assert r.stderr.startswith("error: resource-limit:")

    def test_sieve_env_var_is_ignored(self, runner):
        plain = run(runner, "fq", "--n", "1000", "--q", "1")
        r = run(runner, "fq", "--n", "1000", "--q", "1", env={"GRIDCOUNT_SIEVE_LIMIT": "100"})
        assert r.exit_code == plain.exit_code == 0
        assert (r.stdout, r.stderr) == (plain.stdout, plain.stderr)

    def test_max_grid_exits_1(self, runner):
        r = run(runner, "fq", "--n", str(10**7 + 1), "--q", "1")
        assert r.exit_code == 1
        assert "resource-limit" in r.stderr

    def test_zero_q_one_line_error(self, runner):
        r = run(runner, "counts", "--n", "5", "--q", "0")
        assert r.exit_code == 1
        assert r.stderr == "error: invalid-argument: gcd class q must be >= 1, got 0\n"

    def test_oversized_scan_fails_before_listing_n(self, runner):
        # the largest n of the progression is checked before any list of n
        tracemalloc.start()
        try:
            r = run(runner, "scan", "--q", "1", "--n-start", "1", "--n-end", "10000001")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert r.exit_code == 1
        assert r.stderr == (
            "error: resource-limit: grid side 10000001 exceeds the supported"
            " maximum 10000000\n"
        )
        assert peak < 1 << 20

    def test_huge_q_scan_one_line_error(self, runner):
        q = str(10**400)
        r = run(runner, "scan", "--q", q, "--n-start", "1", "--n-end", "3")
        assert r.exit_code == 1
        assert r.stderr == f"error: resource-limit: main term at q = {q} exceeds the float range\n"

    @pytest.mark.parametrize(
        "args",
        [
            ("fq", "--n", "20000000", "--q", "1"),
            ("counts", "--n", "20000000", "--q", "1"),
            ("counts", "--n", "20000000", "--q", "3"),
            ("threshold", "--n", "20000000"),
            ("scan", "--q", "1", "--n-start", "20000000", "--n-end", "20000000"),
        ],
    )
    def test_grid_cap_checked_before_sieving(self, runner, monkeypatch, args):
        sieved = []
        monkeypatch.setattr(totient, "_sieve_blocks", sieved.append)
        monkeypatch.setattr(totient, "_phi_list", sieved.append)
        r = run(runner, *args)
        assert sieved == []
        assert r.exit_code == 1
        assert r.stderr == (
            "error: resource-limit: grid side 20000000 exceeds the supported"
            " maximum 10000000\n"
        )


    @pytest.mark.parametrize(
        "args, stderr",
        [
            (
                ("--m-max", "10000000", "--every", "0"),
                "error: invalid-argument: every must be >= 1, got 0\n",
            ),
            (
                ("--m-max", "0", "--every", "0"),
                "error: invalid-argument: --m-max must be >= 1, got 0\n",
            ),
            (
                ("--m-max", "100000001", "--every", "-1"),
                "error: resource-limit: sieve limit 100000001 exceeds budget 100000000\n",
            ),
        ],
        ids=["every", "m-max-first", "budget-first"],
    )
    def test_every_checked_before_sieving(self, runner, monkeypatch, args, stderr):
        # m_max is reported first, then the sieve budget, then the stride
        def refuse(limit):
            raise RuntimeError(f"sieved to {limit}")

        monkeypatch.setattr(totient, "_sieve_blocks", refuse)
        r = run(runner, "errterms", *args)
        assert r.exit_code == 1
        assert r.stderr == stderr

class TestPinnedBytes:
    """Exact stdout of each subcommand in every format, on small inputs and at
    the grid cap, where the point queries take the sublinear moments.

    No ``scan --fit`` here: its digits come from np.polyfit, which may
    differ in the last places between platforms.
    """

    PINNED = {
        "fq --n 5 --q 2": {
            "table": (
                '120\n'
            ),
            "csv": (
                '5,2,120\n'
            ),
            "json-lines": (
                '{"n": 5, "q": 2, "f": 120}\n'
            ),
        },
        "counts --n 3 --q 1": {
            "table": (
                'n  q   f  segments  lines_at_least  lines_exactly\n'
                '3  1  56        28                               \n'
            ),
            "csv": (
                '3,1,56,28,,\n'
            ),
            "json-lines": (
                '{"n": 3, "q": 1, "f": 56, "segments": 28, "lines_at_least": null, "lines_exactly": null}\n'
            ),
        },
        "counts --n 3 --q 2": {
            "table": (
                'n  q   f  segments  lines_at_least  lines_exactly\n'
                '3  2  16         8              20             12\n'
            ),
            "csv": (
                '3,2,16,8,20,12\n'
            ),
            "json-lines": (
                '{"n": 3, "q": 2, "f": 16, "segments": 8, "lines_at_least": 20, "lines_exactly": 12}\n'
            ),
        },
        "oracle --n 4 --threshold": {
            "table": (
                'lines through exactly p grid points\n'
                'n  p  lines\n'
                '4  2     48\n'
                '4  3      4\n'
                '4  4     10\n'
                '\n'
                'segments covering exactly p grid points\n'
                'n  p  segments\n'
                '4  2        86\n'
                '4  3        24\n'
                '4  4        10\n'
                '\n'
                'threshold dichotomies: 174\n'
            ),
            "csv": (
                '# lines\n'
                '4,2,48\n'
                '4,3,4\n'
                '4,4,10\n'
                '# segments\n'
                '4,2,86\n'
                '4,3,24\n'
                '4,4,10\n'
                '# threshold\n'
                '4,174\n'
            ),
            "json-lines": (
                '{"n": 4, "p": 2, "lines": 48}\n'
                '{"n": 4, "p": 3, "lines": 4}\n'
                '{"n": 4, "p": 4, "lines": 10}\n'
                '{"n": 4, "p": 2, "segments": 86}\n'
                '{"n": 4, "p": 3, "segments": 24}\n'
                '{"n": 4, "p": 4, "segments": 10}\n'
                '{"n": 4, "t": 174}\n'
            ),
        },
        "errterms --m-max 12 --every 5": {
            "table": (
                ' m  phi_sum             e_phi              e_r\n'
                ' 5       10  2.40091122682467  2.4824603124266\n'
                '10       32  1.60364490729867  2.7758553467492\n'
            ),
            "csv": (
                '5,10,2.40091122682467,2.4824603124266\n'
                '10,32,1.60364490729867,2.7758553467492\n'
            ),
            "json-lines": (
                '{"m": 5, "phi_sum": 10, "e_phi": 2.40091122682467, "e_r": 2.4824603124266}\n'
                '{"m": 10, "phi_sum": 32, "e_phi": 1.60364490729867, "e_r": 2.7758553467492}\n'
            ),
        },
        "fq --n 9999991 --q 1": {
            "table": (
                '6079249133221502328009985864\n'
            ),
            "csv": (
                '9999991,1,6079249133221502328009985864\n'
            ),
            "json-lines": (
                '{"n": 9999991, "q": 1, "f": 6079249133221502328009985864}\n'
            ),
        },
        "counts --n 10000000 --q 2": {
            "table": (
                '       n  q                             f                     segments'
                '                lines_at_least                 lines_exactly\n'
                '10000000  2  1519817754614662433762246000  759908877307331216881123000'
                '  2279726631976549903556923114  1857555033480987074533386808\n'
            ),
            "csv": (
                '10000000,2,1519817754614662433762246000,759908877307331216881123000,'
                '2279726631976549903556923114,1857555033480987074533386808\n'
            ),
            "json-lines": (
                '{"n": 10000000, "q": 2, "f": 1519817754614662433762246000,'
                ' "segments": 759908877307331216881123000,'
                ' "lines_at_least": 2279726631976549903556923114,'
                ' "lines_exactly": 1857555033480987074533386808}\n'
            ),
        },
        "threshold --n 10000000": {
            "table": (
                '6079271018567762240876092230\n'
            ),
            "csv": (
                '10000000,6079271018567762240876092230\n'
            ),
            "json-lines": (
                '{"n": 10000000, "t": 6079271018567762240876092230}\n'
            ),
        },
        "threshold --n 3": {
            "table": (
                '58\n'
            ),
            "csv": (
                '3,58\n'
            ),
            "json-lines": (
                '{"n": 3, "t": 58}\n'
            ),
        },
        "scan --q 1 --n-start 2 --n-end 64 --geometric": {
            "table": (
                ' n  q     exact              main          residual            normalized\n'
                ' 2  1        12  9.72683362966443  2.27316637033557     0.142072898145973\n'
                ' 4  1       172  155.629338074631  16.3706619253692    0.0639478981459733\n'
                ' 8  1      2564  2490.06940919409  73.9305908059068    0.0180494606459733\n'
                '16  1     40148  39841.1105471055  306.889452894509   0.00468276142722335\n'
                '32  1    638692  637457.768753688  1234.23124631215   0.00117705464011397\n'
                '64  1  10205236   10199324.300059  5911.69994099438  0.000352364775001668\n'
            ),
            "csv": (
                '2,1,12,9.72683362966443,2.27316637033557,0.142072898145973\n'
                '4,1,172,155.629338074631,16.3706619253692,0.0639478981459733\n'
                '8,1,2564,2490.06940919409,73.9305908059068,0.0180494606459733\n'
                '16,1,40148,39841.1105471055,306.889452894509,0.00468276142722335\n'
                '32,1,638692,637457.768753688,1234.23124631215,0.00117705464011397\n'
                '64,1,10205236,10199324.300059,5911.69994099438,0.000352364775001668\n'
            ),
            "json-lines": (
                '{"n": 2, "q": 1, "exact": 12, "main": 9.72683362966443, "residual": 2.27316637033557, "normalized": 0.142072898145973}\n'
                '{"n": 4, "q": 1, "exact": 172, "main": 155.629338074631, "residual": 16.3706619253692, "normalized": 0.0639478981459733}\n'
                '{"n": 8, "q": 1, "exact": 2564, "main": 2490.06940919409, "residual": 73.9305908059068, "normalized": 0.0180494606459733}\n'
                '{"n": 16, "q": 1, "exact": 40148, "main": 39841.1105471055, "residual": 306.889452894509, "normalized": 0.00468276142722335}\n'
                '{"n": 32, "q": 1, "exact": 638692, "main": 637457.768753688, "residual": 1234.23124631215, "normalized": 0.00117705464011397}\n'
                '{"n": 64, "q": 1, "exact": 10205236, "main": 10199324.300059, "residual": 5911.69994099438, "normalized": 0.000352364775001668}\n'
            ),
        },
    }

    @pytest.mark.parametrize("fmt", ["table", "csv", "json-lines"])
    @pytest.mark.parametrize("args", sorted(PINNED))
    def test_stdout(self, runner, args, fmt):
        r = run(runner, *args.split(), "--format", fmt)
        assert r.exit_code == 0
        assert r.stdout == "".join(self.PINNED[args][fmt])


class TestReproducibility:
    def test_same_command_same_bytes(self, runner):
        args = ("scan", "--q", "2", "--n-start", "2", "--n-end", "40", "--format", "csv")
        outs = {run(runner, *args).stdout for _ in range(3)}
        assert len(outs) == 1


class TestOptions:
    """Options that change no answer are not accepted; --force is oracle's alone."""

    BASE = {
        "fq": ("fq", "--n", "3", "--q", "1"),
        "counts": ("counts", "--n", "3", "--q", "2"),
        "scan": ("scan", "--q", "1", "--n-start", "2", "--n-end", "4"),
        "oracle": ("oracle", "--n", "3"),
        "errterms": ("errterms", "--m-max", "3"),
        "threshold": ("threshold", "--n", "3"),
    }

    @pytest.mark.parametrize("cmd", sorted(BASE))
    def test_limit_rejected(self, runner, cmd):
        assert run(runner, *self.BASE[cmd]).exit_code == 0
        assert run(runner, *self.BASE[cmd], "--limit", "5000").exit_code == 2

    @pytest.mark.parametrize("cmd", sorted(set(BASE) - {"oracle"}))
    def test_force_only_on_oracle(self, runner, cmd):
        assert run(runner, *self.BASE[cmd], "--force").exit_code == 2
        help_text = run(runner, cmd, "--help").stdout
        assert "--force" not in help_text and "--limit" not in help_text

    def test_oracle_help_lists_force(self, runner):
        help_text = run(runner, "oracle", "--help").stdout
        assert "--force" in help_text and "--limit" not in help_text
