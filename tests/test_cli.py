import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

import coskew
from coskew.cli import main
from coskew.experiments import DEFAULT_SEED


@pytest.fixture
def runner():
    return CliRunner()


def _data_lines(output: str):
    return [l for l in output.splitlines() if l and not l.startswith("#")]


class TestSample:
    def test_row_count_and_header(self, runner):
        res = runner.invoke(
            main,
            ["sample", "--copula", "mixture:0.5", "--marginals",
             "normal,normal,normal", "--n", "1000", "--seed", "42"],
        )
        assert res.exit_code == 0
        lines = _data_lines(res.stdout)
        assert lines[0] == "x1,x2,x3"
        assert len(lines) == 1001
        assert all(len(l.split(",")) == 3 for l in lines[1:])

    def test_bad_copula_is_usage_error(self, runner):
        res = runner.invoke(main, ["sample", "--copula", "clayton", "--n", "10"])
        assert res.exit_code == 2

    def test_bad_marginal_count_is_usage_error(self, runner):
        res = runner.invoke(
            main, ["sample", "--copula", "max", "--marginals", "normal,normal"]
        )
        assert res.exit_code == 2

    def test_invalid_gaussian_triple_is_numeric_error(self, runner):
        res = runner.invoke(
            main, ["sample", "--copula", "gaussian:0.9,0.9,-0.9", "--n", "10"]
        )
        assert res.exit_code == 2  # rejected while parsing the spec

    def test_json_format(self, runner):
        res = runner.invoke(
            main,
            ["sample", "--copula", "comonotonic", "--n", "5", "--format", "json"],
        )
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["metadata"]["copula"] == "comonotonic"
        assert len(payload["columns"]["x1"]) == 5

    def test_csv_cells_read_back_exactly(self, runner):
        # 5000 rows cross the writer's chunk boundary
        margs = "t:5,laplace,exp:2"
        res = runner.invoke(main, ["sample", "--copula", "mixture:0.75", "--marginals",
                                   margs, "--n", "5000", "--seed", "11"])
        assert res.exit_code == 0
        lines = _data_lines(res.stdout)
        cells = np.array([[float(c) for c in l.split(",")] for l in lines[1:]])
        us = coskew.sample_mixture(5000, 0.75, coskew.SeedSpec(11, 0))
        want = coskew.to_data(us, *(coskew.parse_marginal(t) for t in margs.split(",")))
        assert np.array_equal(cells.T, want.x)
        assert lines[1] == ",".join(format(v, ".17g") for v in want.x[:, 0])


class TestBounds:
    def test_normal_bound(self, runner):
        res = runner.invoke(main, ["bounds", "--marginals", "normal,normal,normal"])
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["s_max"] == pytest.approx(1.5957691216057308, abs=1e-6)
        assert payload["s_min"] == -payload["s_max"]
        assert payload["quadrature_error"] < 1e-8

    def test_asymmetric_marginals_fail(self, runner):
        res = runner.invoke(main, ["bounds", "--marginals", "exp:1,normal,normal"])
        assert res.exit_code == 1


class TestStats:
    def test_stats_on_sampled_csv(self, runner, tmp_path):
        sample_path = tmp_path / "sample.csv"
        res = runner.invoke(
            main,
            ["sample", "--copula", "comonotonic", "--marginals",
             "normal,normal,normal", "--n", "500", "--seed", "7",
             "--output", str(sample_path)],
        )
        assert res.exit_code == 0
        res = runner.invoke(main, ["stats", "--input", str(sample_path)])
        assert res.exit_code == 0
        records = {r["statistic"]: r["value"] for r in json.loads(res.stdout)}
        assert records["pearson12"] == pytest.approx(1.0, abs=1e-9)
        assert records["spearman12"] == pytest.approx(1.0, abs=0.01)
        assert records["rank_coskewness"] == pytest.approx(0.0, abs=0.2)

    def test_stats_with_event(self, runner, tmp_path):
        sample_path = tmp_path / "sample.csv"
        runner.invoke(
            main,
            ["sample", "--copula", "independence", "--n", "2000", "--seed", "7",
             "--output", str(sample_path)],
        )
        res = runner.invoke(
            main,
            ["stats", "--input", str(sample_path), "--event", "downside"],
        )
        assert res.exit_code == 0
        names = [r["statistic"] for r in json.loads(res.stdout)]
        assert any(name.startswith("conditional_corr") for name in names)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_is_usage_error(self, runner, cell):
        text = f"x1,x2,x3\n0.1,0.2,0.3\n0.4,{cell},0.6\n0.7,0.8,0.9\n"
        res = runner.invoke(main, ["stats"], input=text)
        assert res.exit_code == 2
        assert "non-finite" in res.output

    def test_ragged_row_is_usage_error(self, runner):
        text = "x1,x2,x3\n0.1,0.2,0.3\n0.4,0.5\n0.7,0.8,0.9\n"
        res = runner.invoke(main, ["stats"], input=text)
        assert res.exit_code == 2
        assert "malformed" in res.output

    @pytest.mark.parametrize(
        "text", ["", "# config\n\n", "x1,x2,x3\n# c\n", "x1,x2,x3\n0.1,0.2,0.3\n"])
    def test_too_few_data_rows_is_usage_error(self, runner, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the usage error is the only report
            res = runner.invoke(main, ["stats"], input=text)
        assert res.exit_code == 2
        assert "at least two data rows" in res.output

    def test_hash_starts_a_comment_anywhere(self, runner):
        plain = "x1,x2,x3\n0.1,0.2,0.3\n0.4,0.5,0.7\n0.9,0.1,0.5\n"
        commented = ("# config\n\nx1,x2,x3\n0.1,0.2,0.3 # after data\n# between\n"
                     "\n0.4,0.5,0.7\n0.9,0.1,0.5\n")
        a = runner.invoke(main, ["stats"], input=plain)
        b = runner.invoke(main, ["stats"], input=commented)
        assert a.exit_code == b.exit_code == 0
        assert a.stdout == b.stdout


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs ~0.4 s of import time on every CLI start
    src = os.path.dirname(os.path.dirname(coskew.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, coskew.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


class TestFigureCommands:
    def test_figure1_rows(self, runner):
        res = runner.invoke(
            main,
            ["figure1", "--n", "2000", "--lambda-grid", "0,0.5,1", "--seed", "3"],
        )
        assert res.exit_code == 0
        lines = _data_lines(res.stdout)
        assert len(lines) == 4
        assert lines[0].startswith("lambda,")

    def test_figure2_rows(self, runner):
        res = runner.invoke(
            main,
            ["figure2", "--n", "5000", "--lambda-grid", "0,1", "--seed", "3"],
        )
        assert res.exit_code == 0
        lines = _data_lines(res.stdout)
        assert len(lines) == 3
        assert "cond_rho12" in lines[0]

    def test_unsorted_grid_is_usage_error(self, runner):
        res = runner.invoke(
            main, ["figure1", "--n", "2000", "--lambda-grid", "1,0", "--seed", "3"]
        )
        assert res.exit_code == 2

    def test_output_directory_gets_default_filename(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["figure1", "--n", "2000", "--lambda-grid", "0,1", "--seed", "3",
             "--output", str(tmp_path)],
        )
        assert res.exit_code == 0
        assert (tmp_path / "figure1-3.csv").exists()

    def test_deterministic_json_runs_identical(self, runner):
        args = ["figure1", "--n", "2000", "--lambda-grid", "0,1", "--seed", "3",
                "--format", "json", "--deterministic"]
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert a.exit_code == b.exit_code == 0
        assert a.stdout == b.stdout
        assert "runtime_s" not in a.stdout


class TestExample1Command:
    def test_rows_and_flag(self, runner):
        res = runner.invoke(
            main, ["example1", "--n", "2000", "--seed", "3", "--format", "json"]
        )
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        copulas = [r["copula"] for r in payload["rows"]]
        assert copulas == ["comonotonic", "mixingsum", "independence"]
        mix = payload["rows"][1]
        assert mix["stated_rank_corr_discrepancy"] is True


class TestVerifyCommand:
    def test_passes_at_documented_seed(self, runner):
        res = runner.invoke(main, ["verify", "--n", "100000", "--seed", "7"])
        assert res.exit_code == 0
        lines = [l for l in res.stdout.splitlines() if l.startswith("[")]
        assert len(lines) == 8
        assert all(l.startswith("[PASS]") for l in lines)

    def test_metadata_line(self, runner):
        res = runner.invoke(main, ["verify", "--n", "100000", "--seed", str(DEFAULT_SEED)])
        assert res.exit_code == 0
        assert f"seed={DEFAULT_SEED}" in res.stdout


class TestConfigEcho:
    def test_csv_config_goes_to_stderr(self, runner):
        res = runner.invoke(
            main, ["sample", "--copula", "max", "--n", "10", "--seed", "1"]
        )
        assert res.exit_code == 0
        assert res.stderr.startswith("# config:")
        assert '"seed": 1' in res.stderr
        assert not res.stdout.startswith("#")
