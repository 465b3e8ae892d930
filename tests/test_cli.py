import hashlib
import json
import os
import platform
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

import coskew
from coskew import experiments
from coskew.cli import _CSV_CHUNK, main
from coskew.experiments import DEFAULT_SEED

from test_copulas import ALL_TOKENS


@pytest.fixture
def runner():
    return CliRunner()


def _data_lines(output: str):
    return [l for l in output.splitlines() if l and not l.startswith("#")]


def _sample_x(spec: str, margs: str, n: int, seed):
    """The (3, n) data `coskew sample` draws for these tokens."""
    marginals = tuple(map(coskew.parse_marginal, margs.split(",")))
    return coskew.to_data(coskew.sample(coskew.parse_copula(spec), n, seed), *marginals).x


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

    @pytest.mark.parametrize("rate,code", [("1e-320", 2), ("1e-307", 2), ("1e-306", 0)])
    def test_exp_rate_whose_quantiles_overflow_is_usage_error(self, runner, rate, code):
        # the top of the sampling grid, 1 - 2^-53, maps to 53 ln 2 / rate
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = runner.invoke(main, ["sample", "--copula", "max", "--marginals",
                                       f"normal,normal,exp:{rate}", "--n", "3"])
        assert res.exit_code == code
        if code:
            assert "too small" in res.output
        else:
            rows = np.array([l.split(",") for l in _data_lines(res.stdout)[1:]], float)
            assert rows.shape == (3, 3) and np.all(np.isfinite(rows))

    @pytest.mark.parametrize("args", [
        ["sample", "--copula", "mixture:x"],
        ["sample", "--copula", "max", "--marginals", "t:x,normal,normal"],
        ["stats", "--event", "exceed-upper:x"],
    ])
    def test_non_number_parameter_is_usage_error(self, runner, args):
        res = runner.invoke(main, [*args, "--n", "10"] if args[0] == "sample" else args,
                            input="x1,x2,x3\n0.1,0.2,0.3\n0.4,0.5,0.6\n")
        assert res.exit_code == 2
        assert "is not a number" in res.output

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

    # mixture:0.75 at sizes around the writer's blocks (ids: the size), and
    # every copula at one row and at three blocks
    @pytest.mark.parametrize("spec, n", [
        *(pytest.param("mixture:0.75", n, id=str(n)) for n in
          (1, _CSV_CHUNK - 1, _CSV_CHUNK, _CSV_CHUNK + 1, 2 * _CSV_CHUNK + 3)),
        *(pytest.param(spec, n, id=f"{spec}-{n}") for spec in ALL_TOKENS
          for n in (1, 2 * _CSV_CHUNK + 3)),
    ])
    def test_csv_bytes_match_per_value_oracle(self, runner, tmp_path, spec, n):
        # the writer formats a block per call; the oracle formats value by value
        margs = "t:5,laplace,exp:2"
        args = ["sample", "--copula", spec, "--marginals", margs, "--n", str(n),
                "--seed", "11", "--stream", "2"]
        x = _sample_x(spec, margs, n, coskew.SeedSpec(11, 2))
        want = "x1,x2,x3\n" + "".join(
            ",".join(format(v, ".17g") for v in row) + "\n" for row in x.T)
        path = tmp_path / "s.csv"
        to_file = runner.invoke(main, [*args, "--output", str(path)])
        to_stdout = runner.invoke(main, args)
        assert to_file.exit_code == to_stdout.exit_code == 0
        assert path.read_bytes() == want.encode()
        assert to_stdout.stdout_bytes == want.encode()

    # sha256 of the CSV: uniform margins are the identity on the samplers'
    # grid, so these bytes need no libm and do not depend on the CPU
    PINNED = {
        ("max", 1): "42609d4f8e152675affa7b50a81301bdfd17e538b7bd6bbedf3e30fd6865ff0b",
        ("max", 4097): "502819a70cf9180577361f51ba9ac60109bd7455e59f63eb659d32bcc615339b",
        ("min", 1): "50db1cec2771282302371d757b9a6f8a88450dd70e722afa0b428286e58da9d0",
        ("min", 4097): "46ecd375d28ffd04aa7dd6af66e58ac5a5e71582fcc8452811cdd626d650f5cf",
        ("mixture:0.3", 1): "42609d4f8e152675affa7b50a81301bdfd17e538b7bd6bbedf3e30fd6865ff0b",
        ("mixture:0.3", 4097):
            "b35c929404f13b6274969eb9f3d2fa712b65d681e6d10cdaad5a291d3e670c0e",
    }

    @pytest.mark.parametrize("spec, n", list(PINNED))
    def test_uniform_margin_bytes_are_pinned(self, runner, spec, n):
        res = runner.invoke(main, ["sample", "--copula", spec, "--marginals",
                                   "uniform,uniform,uniform", "--seed", "7", "--n", str(n)])
        assert res.exit_code == 0
        assert hashlib.sha256(res.stdout_bytes).hexdigest() == self.PINNED[spec, n]

    def test_failed_draw_creates_no_file(self, runner, tmp_path):
        path = tmp_path / "s.csv"
        res = runner.invoke(main, ["sample", "--copula", "max", "--n", "0",
                                   "--output", str(path)])
        assert res.exit_code == 1
        assert not path.exists()

    @pytest.mark.parametrize("spec", ["max", "mixture:0.75", "gaussian:0.8,0.5,0.3"])
    @pytest.mark.parametrize("n", [1, _CSV_CHUNK, 2 * _CSV_CHUNK + 3])
    def test_json_bytes_match_one_shot_dump(self, runner, tmp_path, spec, n):
        # the writer streams blocks of each column; the oracle dumps the
        # whole document at once
        margs = "t:5,laplace,exp:2"
        args = ["sample", "--copula", spec, "--marginals", margs, "--n", str(n),
                "--seed", "11", "--stream", "2", "--format", "json"]
        x = _sample_x(spec, margs, n, coskew.SeedSpec(11, 2))
        meta = {"command": "sample", "copula": spec, "marginals": margs, "n": n,
                "seed": 11, "stream": 2}
        payload = {"metadata": meta, "columns": {f"x{j+1}": x[j].tolist() for j in range(3)}}
        want = (json.dumps(payload) + "\n").encode()
        path = tmp_path / "s.json"
        to_file = runner.invoke(main, [*args, "--output", str(path)])
        to_stdout = runner.invoke(main, args)
        assert to_file.exit_code == to_stdout.exit_code == 0
        assert path.read_bytes() == want
        assert to_stdout.stdout_bytes == want

    def test_json_peak_memory_is_bounded(self, runner, tmp_path):
        # dumping the whole document at once peaked at 23.3 MiB of Python
        # heap at this size (3n floats, the dumped str and an encoded copy);
        # the draw alone takes about 7 MiB
        args = ["sample", "--copula", "mixture:0.75", "--n", "100000", "--format", "json",
                "--output", str(tmp_path / "s.json")]
        assert runner.invoke(main, args).exit_code == 0  # first-call set-up
        tracemalloc.start()
        try:
            res = runner.invoke(main, args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.exit_code == 0
        assert peak < 23.3 * 2**20 / 2

    @pytest.mark.parametrize("spec", ["mixture:0.75", "gaussian:0.8,0.5,0.3"])
    @pytest.mark.parametrize("margs", ["t:3.05,laplace,exp:2", "normal,normal,normal"])
    def test_csv_reads_back_bit_for_bit(self, runner, tmp_path, spec, margs):
        # the 17 significant digits README promises: loadtxt, as `stats` reads
        n = 2 * _CSV_CHUNK + 3
        path = tmp_path / "s.csv"
        res = runner.invoke(main, ["sample", "--copula", spec, "--marginals", margs,
                                   "--n", str(n), "--seed", "5", "--output", str(path)])
        assert res.exit_code == 0
        x = _sample_x(spec, margs, n, coskew.SeedSpec(5, 0))
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        assert back.shape == (n, 3)
        assert back.tobytes() == x.T.tobytes()


class TestBounds:
    def test_normal_bound(self, runner):
        res = runner.invoke(main, ["bounds", "--marginals", "normal,normal,normal"])
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["s_max"] == pytest.approx(1.5957691216057308, abs=1e-6)
        assert payload["s_min"] == -payload["s_max"]
        assert payload["quadrature_error"] < 1e-8
        assert list(payload) == [
            "marginals", "s_max", "s_min", "quadrature_error", "evaluations"]
        assert isinstance(payload["evaluations"], int)
        assert payload["evaluations"] > 0

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

    def test_small_scale_column_keeps_its_statistics(self, runner, tmp_path):
        # x1 scaled by 2^-100 is not a constant column: the same correlations
        # and coskewness, bit for bit, and an sd scaled by exactly 2^-100
        x = _sample_x("mixture:0.75", "normal,normal,normal", 2000, coskew.SeedSpec(5))
        stats = {}
        for name, scale in (("plain", 1.0), ("small", 2.0**-100)):
            path = tmp_path / f"{name}.csv"
            np.savetxt(path, (x * [[scale], [1.0], [1.0]]).T, fmt="%.17g",
                       delimiter=",", header="x1,x2,x3", comments="")
            res = runner.invoke(main, ["stats", "--input", str(path)])
            assert res.exit_code == 0, res.output
            stats[name] = {r["statistic"]: r["value"] for r in json.loads(res.stdout)}
        plain, small = stats["plain"], stats["small"]
        for name in ("pearson12", "pearson13", "pearson23", "coskewness"):
            assert small[name] == plain[name], name
        assert small["sd1"] == plain["sd1"] * 2.0**-100
        text = "x1,x2,x3\n1e-30,2,3\n-2e-30,1,5\n3e-30,0,1\n"
        res = runner.invoke(main, ["stats"], input=text)
        assert res.exit_code == 0, res.output

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_is_usage_error(self, runner, cell):
        text = f"x1,x2,x3\n0.1,0.2,0.3\n0.4,{cell},0.6\n0.7,0.8,0.9\n"
        res = runner.invoke(main, ["stats"], input=text)
        assert res.exit_code == 2
        assert "non-finite" in res.output

    def test_overflowing_moments_fail_with_an_error(self, runner):
        # finite cells whose squares overflow: exit 1 with a message, never
        # an Infinity sd or a -0.0 correlation
        text = "x1,x2,x3\n1e155,1,2\n-1e155,3,1\n1,2,5\n2,7,1\n3,1,1\n"
        res = runner.invoke(main, ["stats"], input=text)
        assert res.exit_code == 1
        assert "Error:" in res.output and "overflow" in res.output
        assert "Infinity" not in res.output

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

    def test_missing_input_is_usage_error(self, runner, tmp_path):
        res = runner.invoke(main, ["stats", "--input", str(tmp_path / "absent.csv")])
        assert res.exit_code == 2
        assert "does not exist" in res.output

    def test_directory_input_is_usage_error(self, runner, tmp_path):
        res = runner.invoke(main, ["stats", "--input", str(tmp_path)])
        assert res.exit_code == 2
        assert "is a directory" in res.output

    def test_event_token_checked_before_input_is_read(self, runner):
        res = runner.invoke(main, ["stats", "--event", "bogus"],
                            input="x1,x2,x3\n0.1,0.2\n")
        assert res.exit_code == 2
        assert "unknown event token 'bogus'" in res.output

    def test_hash_starts_a_comment_anywhere(self, runner):
        plain = "x1,x2,x3\n0.1,0.2,0.3\n0.4,0.5,0.7\n0.9,0.1,0.5\n"
        commented = ("# config\n  # indented\n\nx1,x2,x3\n0.1,0.2,0.3 # after data\n"
                     "# between\n  # note\n\t# tab\n\n0.4,0.5,0.7\n0.9,0.1,0.5\n")
        a = runner.invoke(main, ["stats"], input=plain)
        b = runner.invoke(main, ["stats"], input=commented)
        assert a.exit_code == b.exit_code == 0
        assert a.stdout == b.stdout


# One case per failure class and command: a bad token, an out-of-range seed or
# stream, an unusable output path and a removed option are usage errors
# (exit 2); a library error on valid tokens is a failure (exit 1).
_ERROR_CASES = [
    (["sample", "--copula", "clayton"], 2),
    (["sample", "--copula", "max:0.7"], 2),
    (["sample", "--copula", "max", "--marginals", "laplace:2,normal,normal"], 2),
    (["sample", "--copula", "max", "--marginals", "normal,normal:9,uniform:x"], 2),
    (["sample", "--copula", "max", "--seed", "-1"], 2),
    (["sample", "--copula", "max", "--output", "{tmp}"], 2),
    (["sample", "--copula", "max", "--output", "{tmp}/missing/x.csv"], 2),
    (["sample", "--copula", "max", "--output", "{tmp}/new/"], 2),
    (["sample", "--copula", "max", "--deterministic"], 2),
    (["sample", "--copula", "max", "--n", "0"], 1),
    (["stats", "--marginals", "normal"], 2),
    (["stats", "--output", "{tmp}"], 2),
    (["stats", "--output", "{tmp}/missing/s.json"], 2),
    (["stats", "--format", "csv"], 2),
    (["stats", "--deterministic"], 2),
    (["stats", "--event", ""], 2),
    (["stats", "--marginals", ""], 2),
    (["bounds", "--marginals", "t:2,normal,normal"], 2),
    (["bounds", "--output", "{tmp}"], 2),
    (["bounds", "--output", "{tmp}/missing/b.json"], 2),
    (["bounds", "--marginals", "exp:1,normal,normal"], 1),
    (["figure1", "--lambda-grid", "a,b"], 2),
    (["figure1", "--stream", "-1"], 2),
    (["figure1", "--output", "{tmp}/missing/f.csv"], 2),
    (["figure2", "--output", "{tmp}/missing/results/"], 2),
    (["example1", "--output", "{tmp}/missing/e.csv"], 2),
    (["figure1", "--n", "2000", "--marginals", "exp:1,normal,normal"], 1),
    (["figure2", "--event", "bogus"], 2),
    (["figure2", "--event", ""], 2),
    (["figure2", "--event", "downside:junk"], 2),
    (["stats", "--event", "downside:junk"], 2),
    (["figure1", "--output", "{tmp}/file/"], 2),
    (["example1", "--output", "{tmp}/file/"], 2),
    (["figure2", "--seed", "-1"], 2),
    (["example1", "--stream", str(2**64)], 2),
    (["example1", "--n", "0"], 1),
    (["verify", "--seed", "-1"], 2),
    (["verify", "--n", "0"], 1),
]


@pytest.mark.parametrize("args,code", _ERROR_CASES,
                         ids=[" ".join(args) for args, _ in _ERROR_CASES])
def test_error_policy(runner, tmp_path, args, code):
    csv = "x1,x2,x3\n0.1,0.2,0.3\n0.4,0.5,0.7\n0.9,0.1,0.5\n"  # valid stats input
    (tmp_path / "file").write_text("")  # a regular file where a directory is named
    res = runner.invoke(main, [a.format(tmp=tmp_path) for a in args], input=csv)
    assert res.exit_code == code
    assert isinstance(res.exception, SystemExit)  # a message, never a traceback
    assert "Error:" in res.output


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs ~0.4 s of import time on every CLI start
    src = os.path.dirname(os.path.dirname(coskew.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, coskew.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_no_command_loads_scipy_integrate():
    # the bound is a numpy quadrature, so no command pays for scipy.integrate
    src = os.path.dirname(os.path.dirname(coskew.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = """if True:
        import sys
        from click.testing import CliRunner
        import coskew.cli

        def run(*args, **kw):
            res = CliRunner().invoke(coskew.cli.main, list(args), **kw)
            assert res.exit_code == 0, res.output
            return res

        csv = run("sample", "--copula", "mixture:0.75", "--n", "200").stdout
        run("stats", "--event", "downside", input=csv)
        run("bounds")
        run("figure1", "--n", "2000")
        run("figure2", "--n", "2000")
        print("scipy.integrate" in sys.modules)
    """
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False"]


_DIGESTS = """if True:
    import hashlib
    from click.testing import CliRunner
    import coskew.cli

    def run(*args, **kw):
        res = CliRunner().invoke(coskew.cli.main, list(args), **kw)
        assert res.exit_code in (0, 1), res.output  # verify exits 1 on a failed claim
        print(args[0], res.exit_code, hashlib.sha256(res.stdout_bytes).hexdigest())
        return res

    run("figure1", "--deterministic")
    run("figure2", "--event", "downside", "--deterministic")
    csv = run("sample", "--copula", "mixture:0.75", "--n", "100000").stdout_bytes
    run("stats", "--event", "downside", input=csv)
    run("verify", "--n", "20000")
    run("bounds", "--marginals", "normal,normal,uniform")
    run("figure1", "--marginals", "t:5,t:5,t:5", "--deterministic")
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE names x86-64 kernels")
def test_primary_output_is_the_same_on_every_blas_kernel_and_thread_count():
    # numpy's OpenBLAS picks its kernel per CPU at load time, and
    # OPENBLAS_CORETYPE forces one, so one host stands in for several CPUs.
    # Moments and the bound's quadrature sums are pairwise numpy sums, never
    # BLAS, so no output byte moves
    src = os.path.dirname(os.path.dirname(coskew.__file__))
    digests = set()
    for coretype in (None, "Haswell", "Prescott"):
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            env.pop("OPENBLAS_CORETYPE", None)
            if coretype is not None:
                env["OPENBLAS_CORETYPE"] = coretype
            out = subprocess.run([sys.executable, "-c", _DIGESTS], env=env,
                                 capture_output=True, text=True, check=True)
            lines = out.stdout.splitlines()
            assert [l.split()[0] for l in lines] == ["figure1", "figure2", "sample",
                                                     "stats", "verify", "bounds",
                                                     "figure1"]
            digests.add(tuple(lines))
    assert len(digests) == 1, sorted(zip(*digests))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["figure1", "figure2"])
def test_a_non_finite_report_value_exits_1_without_json_nan(runner, monkeypatch, command):
    run = getattr(experiments, f"run_{command}")

    def with_nan(cfg):
        report = run(cfg)
        report.rows[0]["coskewness"] = float("nan")
        return report

    monkeypatch.setattr(experiments, f"run_{command}", with_nan)
    res = runner.invoke(main, [command, "--n", "2000", "--lambda-grid", "0,1",
                               "--format", "json"])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "Error: cannot write JSON" in res.output
    assert "NaN" not in res.output


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
def test_primary_output_is_the_same_on_one_cpu(runner):
    # t quantiles of 1e5 rows run one slice per usable CPU; a process held
    # to one CPU runs them whole, and writes the same bytes
    args = ["figure1", "--marginals", "t:5,t:5,t:5", "--n", "100000",
            "--deterministic", "--format", "json"]
    here = runner.invoke(main, args)
    assert here.exit_code == 0, here.output
    cpu = min(os.sched_getaffinity(0))
    src = os.path.dirname(os.path.dirname(coskew.__file__))
    out = subprocess.run([sys.executable, "-m", "coskew.cli", *args],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                         check=True, preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    assert out.stdout == here.stdout_bytes


@pytest.mark.parametrize("args", [
    ["bounds", "--marginals", "t:5,laplace,uniform"],
    ["stats", "--event", "downside"],
    *([cmd, "--n", "2000", "--seed", "3", "--deterministic", "--format", fmt]
      for cmd in ("figure1", "figure2", "example1") for fmt in ("csv", "json")),
])
def test_stdout_and_output_file_hold_the_same_bytes(runner, tmp_path, args):
    text = "x1,x2,x3\n" + "".join(
        "%.17g,%.17g,%.17g\n" % tuple(row)
        for row in _sample_x("mixture:0.5", "normal,normal,normal", 500, coskew.SeedSpec(2)).T)
    path = tmp_path / "out"
    to_stdout = runner.invoke(main, args, input=text)
    to_file = runner.invoke(main, [*args, "--output", str(path)], input=text)
    assert to_stdout.exit_code == to_file.exit_code == 0
    assert to_stdout.stdout_bytes and to_file.stdout_bytes == b""
    assert path.read_bytes() == to_stdout.stdout_bytes


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

    @pytest.mark.parametrize("rate", ["1e-160", "1e-300"])
    def test_overflowing_moments_fail_with_an_error(self, runner, rate):
        # the sweep kernel's sums overflow: exit 1 with a message, never a
        # NaN in the report
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = runner.invoke(main, ["figure2", "--n", "2000", "--marginals",
                                       f"normal,normal,exp:{rate}", "--format", "json"])
        assert res.exit_code == 1
        assert "Error: moments overflow" in res.output
        assert "NaN" not in res.output

    def test_output_directory_gets_default_filename(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["figure1", "--n", "2000", "--lambda-grid", "0,1", "--seed", "3",
             "--output", str(tmp_path)],
        )
        assert res.exit_code == 0
        assert (tmp_path / "figure1-3.csv").exists()

    def test_streams_in_one_directory_keep_separate_files(self, runner, tmp_path):
        for stream in ("1", "2"):
            res = runner.invoke(
                main,
                ["figure1", "--n", "2000", "--lambda-grid", "0,1", "--seed", "3",
                 "--stream", stream, "--output", str(tmp_path) + os.sep],
            )
            assert res.exit_code == 0
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["figure1-3-1.csv", "figure1-3-2.csv"]
        assert (tmp_path / files[0]).read_bytes() != (tmp_path / files[1]).read_bytes()

    def test_trailing_separator_names_a_new_directory(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["figure1", "--n", "2000", "--lambda-grid", "0,1", "--seed", "3",
             "--output", str(tmp_path / "results") + os.sep],
        )
        assert res.exit_code == 0
        assert (tmp_path / "results" / "figure1-3.csv").is_file()

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
