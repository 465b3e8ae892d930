from fractions import Fraction

import numpy as np
import pytest

from coskew import analytic, copulas, experiments
from coskew.errors import DomainError, InsufficientEventRowsError
from coskew.estimators import (
    MIN_EVENT_ROWS,
    EventSpec,
    MomentAccumulator,
    build_event_mask,
    conditional_corr,
    conditional_moments,
    parse_event,
    rank_coskewness,
    rank_transform,
    spearman_rho,
)
from coskew.experiments import (
    DEFAULT_SEED,
    ExperimentConfig,
    mixing_sum_exact_rank_stats,
    rank_trend,
    run_algorithm1,
    run_example1,
    run_figure1,
    run_figure2,
    verify_propositions,
)
from coskew.marginals import exponential, laplace, standard_normal, uniform01
from coskew.samples import SeedSpec, substream

NORMAL_BOUND = 1.5957691216057308


@pytest.fixture(scope="module")
def fig1_report():
    cfg = ExperimentConfig(seed=SeedSpec(DEFAULT_SEED, 0))
    return run_figure1(cfg)


@pytest.fixture(scope="module")
def fig2_report():
    cfg = ExperimentConfig(seed=SeedSpec(DEFAULT_SEED, 0))
    return run_figure2(cfg)


class TestConfig:
    def test_grid_must_be_sorted(self, seed):
        with pytest.raises(DomainError):
            ExperimentConfig(lambda_grid=(0.5, 0.2), seed=seed)

    def test_grid_must_be_in_unit_interval(self, seed):
        with pytest.raises(DomainError):
            ExperimentConfig(lambda_grid=(0.0, 1.5), seed=seed)

    def test_grid_must_be_nonempty(self, seed):
        with pytest.raises(DomainError):
            ExperimentConfig(lambda_grid=(), seed=seed)

    def test_minimum_n(self, seed):
        with pytest.raises(DomainError):
            ExperimentConfig(n=500, seed=seed)


class TestAlgorithm1:
    def test_endpoints_reach_the_bounds(self, seed):
        cfg = ExperimentConfig(seed=seed)
        hi = run_algorithm1(cfg, 1.0)
        lo = run_algorithm1(cfg, 0.0)
        assert hi["coskewness_hat"] == pytest.approx(NORMAL_BOUND, abs=0.05)
        assert lo["coskewness_hat"] == pytest.approx(-NORMAL_BOUND, abs=0.05)

    def test_midpoint(self, seed):
        row = run_algorithm1(ExperimentConfig(seed=seed), 0.5)
        assert abs(row["coskewness_hat"]) < 0.05
        for key in ("rho12_hat", "rho13_hat", "rho23_hat"):
            assert abs(row[key]) < 0.02

    def test_prediction_column_for_symmetric_marginals(self, seed):
        row = run_algorithm1(ExperimentConfig(seed=seed), 0.25)
        assert row["coskewness_predicted"] == pytest.approx(
            -0.5 * NORMAL_BOUND, abs=1e-8
        )


class TestFigure1:
    def test_least_squares_fit(self, fig1_report):
        lams = np.array([r["lambda"] for r in fig1_report.rows])
        s_hat = np.array([r["coskewness_hat"] for r in fig1_report.rows])
        slope, intercept = np.polyfit(lams, s_hat, 1)
        assert slope == pytest.approx(2 * NORMAL_BOUND, abs=0.1)
        assert intercept == pytest.approx(-NORMAL_BOUND, abs=0.05)

    def test_prediction_gap(self, fig1_report):
        worst = max(
            abs(r["coskewness_hat"] - r["coskewness_predicted"])
            for r in fig1_report.rows
        )
        assert worst < 0.05

    def test_pathwise_monotone(self, fig1_report):
        s_hat = [r["coskewness_hat"] for r in fig1_report.rows]
        assert all(b >= a for a, b in zip(s_hat, s_hat[1:]))

    def test_one_row_per_grid_point(self, fig1_report):
        assert [r["lambda"] for r in fig1_report.rows] == [
            pytest.approx(l) for l in np.linspace(0, 1, 11)
        ]

    def test_rejects_asymmetric_marginals(self, seed):
        from coskew.marginals import exponential

        cfg = ExperimentConfig(marginals=(exponential(1.0),) * 3, seed=seed)
        with pytest.raises(DomainError):
            run_figure1(cfg)

    def test_metadata_recreates_run(self, fig1_report, seed):
        meta = fig1_report.metadata
        cfg = ExperimentConfig(n=meta["n"], seed=SeedSpec(meta["seed"], meta["stream"]))
        again = run_figure1(cfg)
        assert again.rows == fig1_report.rows


class TestFigure2:
    def test_conditional_correlations_decrease(self, fig2_report):
        for key in ("cond_rho12", "cond_rho13", "cond_rho23"):
            vals = [r[key] for r in fig2_report.rows]
            assert rank_trend(vals) <= -0.9

    def test_sharper_change_near_lambda_zero(self, fig2_report):
        for key in ("cond_rho12", "cond_rho13", "cond_rho23"):
            vals = [r[key] for r in fig2_report.rows]
            assert abs(vals[1] - vals[0]) > abs(vals[-1] - vals[-2])

    def test_unconditional_rows_stay_uncorrelated(self, fig2_report):
        for r in fig2_report.rows:
            for key in ("rho12_hat", "rho13_hat", "rho23_hat"):
                assert abs(r[key]) < 0.02

    def test_event_fraction_recorded(self, fig2_report):
        fracs = [r["event_fraction"] for r in fig2_report.rows]
        assert all(0.2 < f < 0.8 for f in fracs)


class TestEventMoments:
    # figure2 takes its three conditional correlations from one 3-column
    # accumulator over the event rows; each must match conditional_corr
    @pytest.mark.parametrize("token", ["downside", "exceed-upper:0.75",
                                       "exceed-lower:0.3"])
    def test_matches_conditional_corr(self, token, seed):
        event = parse_event(token)
        cfg = ExperimentConfig(n=5000, lambda_grid=(0.0, 0.3, 0.3, 1.0),
                               marginals=(laplace(),) * 3, seed=seed, event=event)
        rows = run_figure2(cfg).rows
        sweep = copulas.mixture_sweep(cfg.n, cfg.lambda_grid, cfg.marginals, seed)
        for row, (lam, ts) in zip(rows, sweep):
            mask = build_event_mask(ts, event, cfg.marginals)
            assert row["event_fraction"] == mask.mean()
            for (i, j), key in (((0, 1), "cond_rho12"), ((0, 2), "cond_rho13"),
                                ((1, 2), "cond_rho23")):
                ref = conditional_corr(ts.x[i], ts.x[j], mask)
                assert row[key] == pytest.approx(ref, abs=1e-13), (lam, key)

    def test_too_few_event_rows(self, seed):
        cfg = ExperimentConfig(n=1000, lambda_grid=(0.5,), seed=seed,
                               event=parse_event("exceed-upper:0.99"))
        with pytest.raises(InsufficientEventRowsError):
            run_figure2(cfg)

    @pytest.mark.parametrize("rows", [MIN_EVENT_ROWS - 1, MIN_EVENT_ROWS])
    def test_event_row_floor(self, rows, rng):
        cols = rng.standard_normal((3, 100))
        mask = np.arange(100) < rows
        if rows < MIN_EVENT_ROWS:
            with pytest.raises(InsufficientEventRowsError):
                conditional_moments(cols, mask)
        else:
            assert conditional_moments(cols, mask).n == rows


class TestExample1:
    def test_exact_integration_values(self):
        exact = mixing_sum_exact_rank_stats()
        assert exact["rho12_s"] == pytest.approx(-0.5, abs=1e-10)
        assert exact["rho13_s"] == pytest.approx(-0.5, abs=1e-10)
        assert exact["rho23_s"] == pytest.approx(-0.5, abs=1e-10)
        assert exact["rs"] == pytest.approx(0.0, abs=1e-10)

    def test_exact_values_match_exact_integration(self):
        # centred coordinates of (U, U2, U3) as (c0, c1) of c0 + c1 * u on
        # each half of [0, 1]; products of them integrate exactly
        half = Fraction(1, 2)
        pieces = [(0, half, [(-half, 1), (half, -2), (0, 1)]),
                  (half, 1, [(-half, 1), (Fraction(3, 2), -2), (-1, 1)])]

        def moment(cols):
            total = Fraction(0)
            for lo, hi, lines in pieces:
                poly = [Fraction(1)]
                for j in cols:
                    c0, c1 = lines[j]
                    poly = [a * c0 + b * c1 for a, b in zip(poly + [0], [0] + poly)]
                total += sum(c * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
                             for k, c in enumerate(poly))
            return total

        exact = mixing_sum_exact_rank_stats()
        assert exact["rho12_s"] == 12 * moment([0, 1])
        assert exact["rho13_s"] == 12 * moment([0, 2])
        assert exact["rho23_s"] == 12 * moment([1, 2])
        assert exact["rs"] == 32 * moment([0, 1, 2])

    def test_report_rows(self, seed):
        rep = run_example1(100_000, seed)
        by_name = {r["copula"]: r for r in rep.rows}

        com = by_name["comonotonic"]
        assert com["rs_hat"] == pytest.approx(0.0, abs=0.01)
        for p in ("12", "13", "23"):
            assert com[f"rho{p}_s_hat"] == pytest.approx(1.0, abs=0.02)
        assert com["stated_rank_corr_discrepancy"] is False

        ind = by_name["independence"]
        assert ind["rs_hat"] == pytest.approx(0.0, abs=0.01)
        for p in ("12", "13", "23"):
            assert ind[f"rho{p}_s_hat"] == pytest.approx(0.0, abs=0.02)

        mix = by_name["mixingsum"]
        assert mix["rs_hat"] == pytest.approx(0.0, abs=0.01)
        for p in ("12", "13", "23"):
            # the integration oracle, not the stated +-1, is the reference
            assert mix[f"rho{p}_s_hat"] == pytest.approx(-0.5, abs=0.02)
        assert mix["stated_rank_corr_discrepancy"] is True
        assert mix["rho13_s_stated"] == 1.0


def _true_cdf_ranks(us, marginal):
    """The old path to true-CDF ranks: quantile, then CDF."""
    ts = copulas.to_data(us, marginal, marginal, marginal)
    return [rank_transform(x, marginal) for x in ts.x]


def _rank_row(ranks) -> dict:
    return {
        "rs_hat": rank_coskewness(*ranks),
        "rho12_s_hat": spearman_rho(ranks[0], ranks[1]),
        "rho13_s_hat": spearman_rho(ranks[0], ranks[2]),
        "rho23_s_hat": spearman_rho(ranks[1], ranks[2]),
    }


SPECS = [SeedSpec(7, 0), SeedSpec(DEFAULT_SEED, 3)]


class TestCopulaRanks:
    # rank statistics read the copula coordinates; they must match the
    # true-CDF ranks of exponential data, the path they replace

    @pytest.mark.parametrize("spec", SPECS)
    def test_example1_matches_exp_cdf_ranks(self, spec):
        # the mixing copula's u2 and u3 are exactly 0 and 1 at u = 1/2,
        # where to_data clamps before the quantile
        rows = {r["copula"]: r for r in run_example1(100_000, spec).rows}
        for kind in ("comonotonic", "mixingsum", "independence"):
            us = copulas.sample(copulas.CopulaSpec(kind), 100_000, spec)
            want = _rank_row(_true_cdf_ranks(us, exponential(1.0)))
            for key, value in want.items():
                assert rows[kind][key] == pytest.approx(value, rel=0, abs=1e-15), (kind, key)

    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("triple", experiments._GAUSS_TRIPLES)
    def test_gauss_stats_match_the_data_path(self, spec, triple):
        stats, abs_rs = experiments._gauss_stats(100_000, triple, spec)
        us = copulas.sample_gaussian(100_000, copulas.GaussianParams(*triple), spec)
        normal3 = (standard_normal(),) * 3
        acc = MomentAccumulator(3).update(copulas.to_data(us, *normal3).x)
        # the statistics are standardized, so a value near zero (a Gaussian
        # coskewness) is held to 1e-15 absolute rather than relative
        want = experiments._moment_stats(acc)
        assert stats == pytest.approx(want, rel=1e-12, abs=1e-15)
        want = abs(rank_coskewness(*_true_cdf_ranks(us, exponential(1.0))))
        assert abs_rs == pytest.approx(want, rel=0, abs=1e-15)


class TestVerifyPropositions:
    def test_all_pass_at_default_seed(self, seed):
        records = verify_propositions(100_000, seed)
        assert len(records) == 8
        assert [r["proposition"] for r in records] == [
            f"P{k}" for k in range(1, 9)
        ]
        for rec in records:
            assert rec["passed"], f"{rec['proposition']}: {rec['observed']}"

    @pytest.mark.parametrize("spec", [SeedSpec(7, 0), SeedSpec(DEFAULT_SEED, 0),
                                      SeedSpec(1101, 3), SeedSpec(42, 17)])
    def test_p8_triples_match_one_draw_at_a_time(self, spec):
        # reference: one triple per draw, kept when 1 - r @ r + 2 prod(r) >= 0
        rng = substream(spec, 8)
        want = []
        while len(want) < 1000:
            r = rng.uniform(-1.0, 1.0, size=3)
            if not 1.0 - r @ r + 2.0 * r.prod() < 0.0:
                want.append(r)
        got = experiments._valid_corr_triples(substream(spec, 8), 1000)
        assert np.array_equal(got, np.array(want))


class TestReports:
    def test_bit_reproducible(self, seed):
        cfg = ExperimentConfig(n=2000, lambda_grid=(0.0, 0.5, 1.0), seed=seed)
        a, b = run_figure1(cfg), run_figure1(cfg)
        assert a.to_csv() == b.to_csv()

    def test_csv_layout(self, seed):
        cfg = ExperimentConfig(n=2000, lambda_grid=(0.0, 1.0), seed=seed)
        lines = run_figure1(cfg).to_csv().splitlines()
        assert lines[0].split(",")[0] == "lambda"
        assert len(lines) == 3

    def test_default_filename(self, seed):
        cfg = ExperimentConfig(n=2000, lambda_grid=(0.0, 1.0), seed=seed)
        rep = run_figure1(cfg)
        assert rep.default_filename() == f"figure1-{seed.seed}.csv"

    def test_json_contains_metadata(self, seed):
        import json

        cfg = ExperimentConfig(n=2000, lambda_grid=(0.0, 1.0), seed=seed)
        payload = json.loads(run_figure1(cfg).to_json())
        assert payload["metadata"]["seed"] == seed.seed
        assert payload["metadata"]["n"] == 2000
        assert len(payload["rows"]) == 2

    def test_independent_streams_for_replicas(self):
        cfg0 = ExperimentConfig(n=2000, lambda_grid=(0.5,), seed=SeedSpec(1, 0))
        cfg1 = ExperimentConfig(n=2000, lambda_grid=(0.5,), seed=SeedSpec(1, 1))
        assert run_figure1(cfg0).rows != run_figure1(cfg1).rows


class TestRankTrend:
    def test_decreasing_sequence(self):
        vals = np.linspace(5, 1, 11)
        assert rank_trend(vals) == pytest.approx(-(1 - 1 / 121), abs=1e-12)

    def test_increasing_sequence(self):
        assert rank_trend([1, 2, 3, 4]) > 0.9
