"""CLI surface: schemas, formats, exit codes, reproducibility."""

import json

import pytest
from click.testing import CliRunner

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

    def test_direct_flag(self, runner):
        fast = run(runner, "fq", "--n", "17", "--q", "2", "--format", "csv")
        direct = run(runner, "fq", "--n", "17", "--q", "2", "--direct", "--format", "csv")
        assert fast.stdout == direct.stdout

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
        r = run(
            runner, "fq", "--n", "1000", "--q", "1",
            env={"GRIDCOUNT_SIEVE_LIMIT": "100"},
        )
        assert r.exit_code == 1
        assert r.stderr.startswith("error: resource-limit:")

    def test_max_grid_exits_1(self, runner):
        r = run(runner, "fq", "--n", str(10**7 + 1), "--q", "1", "--direct")
        assert r.exit_code == 1
        assert "resource-limit" in r.stderr


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
