"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is fixed here, not configurable.
"""

import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from coskew import analytic, copulas, estimators, experiments
from coskew.cli import main as cli_main
from coskew.estimators import EventSpec
from coskew.experiments import DEFAULT_SEED, ExperimentConfig
from coskew.marginals import (
    exponential,
    laplace,
    standard_normal,
    student_t,
    uniform01,
)
from coskew.samples import SeedSpec

SEED = SeedSpec(DEFAULT_SEED, 0)
N = 100_000
GRID = tuple(i / 10 for i in range(11))
NORMAL_BOUND = 2.0 * math.sqrt(2.0 * math.pi) / math.pi  # caption value 1.59...
UNIFORM_BOUND = 3.0 * math.sqrt(3.0) / 4.0
GAUSS_TRIPLES = ((0.0, 0.0, 0.0), (0.8, 0.5, 0.3), (-0.5, 0.4, -0.3))


def _report(criterion: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def figure1_normal():
    return experiments.run_figure1(
        ExperimentConfig(n=N, lambda_grid=GRID, seed=SEED)
    )


@pytest.fixture(scope="module")
def figure2_normal():
    return experiments.run_figure2(
        ExperimentConfig(n=N, lambda_grid=GRID, seed=SEED)
    )


def test_criterion_1_bounds():
    t0 = time.perf_counter()
    res_n = analytic.coskew_bound(*(standard_normal(),) * 3)
    res_u = analytic.coskew_bound(*(uniform01(),) * 3)
    elapsed = time.perf_counter() - t0
    gap_n = abs(res_n.s_max - NORMAL_BOUND)
    gap_u = abs(res_u.s_max - UNIFORM_BOUND)
    _report(
        "criterion 1 (coskewness bounds)",
        gap_n < 1e-6 and gap_u < 1e-6 and elapsed < 1.0,
        f"normal gap {gap_n:.2e}, uniform gap {gap_u:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_figure1(figure1_normal):
    elapsed = figure1_normal.metadata["runtime_s"]
    worst = max(
        abs(r["coskewness_hat"] - r["coskewness_predicted"])
        for r in figure1_normal.rows
    )
    lo = figure1_normal.rows[0]["coskewness_hat"]
    hi = figure1_normal.rows[-1]["coskewness_hat"]
    endpoints_ok = abs(lo - (-1.59)) < 0.05 and abs(hi - 1.59) < 0.05
    _report(
        "criterion 2 (lambda sweep matches affine law)",
        worst < 0.05 and endpoints_ok and elapsed < 10.0,
        f"max |S_hat - prediction| = {worst:.4f}, endpoints ({lo:.3f}, {hi:.3f}), "
        f"{elapsed:.1f}s",
    )


def test_criterion_3_zero_correlation(figure1_normal):
    worst = 0.0
    reports = [figure1_normal]
    for margs in ((laplace(),) * 3, (student_t(5),) * 3):
        reports.append(
            experiments.run_figure1(
                ExperimentConfig(n=N, lambda_grid=GRID, marginals=margs, seed=SEED)
            )
        )
    count = 0
    for rep in reports:
        for row in rep.rows:
            for key in ("rho12_hat", "rho13_hat", "rho23_hat"):
                worst = max(worst, abs(row[key]))
                count += 1
    _report(
        "criterion 3 (zero pairwise correlation at every lambda)",
        worst < 0.02,
        f"max |rho_hat| = {worst:.4f} over {count} statistics "
        "(normal, laplace, t5)",
    )


def test_criterion_4_gaussian_zero_coskewness():
    worst_s, worst_rho = 0.0, 0.0
    normal3 = (standard_normal(),) * 3
    for triple in GAUSS_TRIPLES:
        us = copulas.sample_gaussian(N, copulas.GaussianParams(*triple), SEED)
        ts = copulas.to_data(us, *normal3)
        acc = estimators.MomentAccumulator(3).update(ts.x)
        worst_s = max(worst_s, abs(acc.coskew()))
        for (i, j), rho in zip(((0, 1), (0, 2), (1, 2)), triple):
            worst_rho = max(worst_rho, abs(acc.corr(i, j) - rho))
    _report(
        "criterion 4 (Gaussian: zero coskewness, faithful correlations)",
        worst_s < 0.05 and worst_rho < 0.02,
        f"max |S_hat| = {worst_s:.4f}, max |rho_hat - rho| = {worst_rho:.4f}",
    )


def test_criterion_5_rank_coskewness_spans():
    exp3 = (exponential(1.0),) * 3
    worst_rho_s, worst_rs = 0.0, 0.0
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
        ts = copulas.to_data(copulas.sample_mixture(N, lam, SEED), *exp3)
        ranks = [estimators.rank_transform(ts.x[j], exp3[j]) for j in range(3)]
        for a, b in ((0, 1), (0, 2), (1, 2)):
            worst_rho_s = max(
                worst_rho_s, abs(estimators.spearman_rho(ranks[a], ranks[b]))
            )
        rs = estimators.rank_coskewness(*ranks)
        worst_rs = max(worst_rs, abs(rs - (2.0 * lam - 1.0)))
    _report(
        "criterion 5 (rank coskewness sweeps [-1,1], rank correlations zero)",
        worst_rho_s < 0.02 and worst_rs < 0.03,
        f"max |rho_S| = {worst_rho_s:.4f}, max |RS - (2l-1)| = {worst_rs:.4f}",
    )


def test_criterion_6_gaussian_zero_rank_coskewness():
    rng = np.random.default_rng(8675309)
    worst_identity, found = 0.0, 0
    while found < 1000:
        r = rng.uniform(-1.0, 1.0, size=3)
        if 1.0 - r @ r + 2.0 * r.prod() < 0.0:
            continue
        found += 1
        worst_identity = max(worst_identity, abs(analytic.rank_coskew_gaussian(*r)))
    exp3 = (exponential(1.0),) * 3
    worst_rs = 0.0
    for triple in GAUSS_TRIPLES:
        us = copulas.sample_gaussian(N, copulas.GaussianParams(*triple), SEED)
        ts = copulas.to_data(us, *exp3)
        ranks = [estimators.rank_transform(ts.x[j], exp3[j]) for j in range(3)]
        worst_rs = max(worst_rs, abs(estimators.rank_coskewness(*ranks)))
    _report(
        "criterion 6 (Gaussian copula rank coskewness is zero)",
        worst_identity < 1e-12 and worst_rs < 0.02,
        f"identity residual = {worst_identity:.2e} on 1000 triples, "
        f"max simulated |RS| = {worst_rs:.4f}",
    )


def test_criterion_7_example1():
    rep = experiments.run_example1(N, SEED)
    by_name = {r["copula"]: r for r in rep.rows}
    com, mix, ind = (
        by_name["comonotonic"],
        by_name["mixingsum"],
        by_name["independence"],
    )
    ok = abs(com["rs_hat"]) < 0.01 and abs(ind["rs_hat"]) < 0.01
    ok &= all(abs(com[f"rho{p}_s_hat"] - 1.0) < 0.02 for p in ("12", "13", "23"))
    ok &= all(abs(ind[f"rho{p}_s_hat"]) < 0.02 for p in ("12", "13", "23"))
    ok &= abs(mix["rs_hat"]) < 0.01
    # the integration oracle (-1/2 per pair) is the pass condition
    ok &= all(abs(mix[f"rho{p}_s_hat"] + 0.5) < 0.02 for p in ("12", "13", "23"))
    ok &= bool(mix["stated_rank_corr_discrepancy"])
    _report(
        "criterion 7 (worked example: comonotonic/mixing/independence)",
        ok,
        f"RS = ({com['rs_hat']:.4f}, {mix['rs_hat']:.4f}, {ind['rs_hat']:.4f}); "
        f"mixing rho_S = {mix['rho12_s_hat']:.4f} vs oracle -0.5 "
        "(stated +-1 flagged as discrepancy)",
    )


def test_criterion_8_figure2(figure2_normal):
    elapsed = figure2_normal.metadata["runtime_s"]
    trends, first_vs_last = [], []
    for key in ("cond_rho12", "cond_rho13", "cond_rho23"):
        vals = [r[key] for r in figure2_normal.rows]
        position = estimators.rank_transform(np.arange(len(vals), dtype=float))
        trends.append(estimators.spearman_rho(position, estimators.rank_transform(vals)))
        first_vs_last.append(abs(vals[1] - vals[0]) > abs(vals[-1] - vals[-2]))
    _report(
        "criterion 8 (downside correlations fall as coskewness rises)",
        all(t <= -0.9 for t in trends) and all(first_vs_last) and elapsed < 20.0,
        f"trends = {[round(t, 3) for t in trends]}, sharp initial drop = "
        f"{first_vs_last}, {elapsed:.1f}s",
    )


def test_criterion_9_exceedance_degeneracy():
    normal3 = (standard_normal(),) * 3
    ts = copulas.to_data(copulas.sample_max_coskew(N, SEED), *normal3)
    mask = estimators.build_event_mask(ts, EventSpec("exceed-upper", p=0.5), normal3)
    cc = estimators.conditional_corr(ts.x[0], ts.x[1], mask)
    _report(
        "criterion 9 (upper-exceedance correlation degenerates to one)",
        abs(cc - 1.0) < 1e-9,
        f"conditional corr = {cc:.12f} on {int(mask.sum())} rows",
    )


def test_criterion_10_determinism():
    cfg = ExperimentConfig(n=N, lambda_grid=GRID, seed=SEED)
    same_fig1 = (
        experiments.run_figure1(cfg).to_csv() == experiments.run_figure1(cfg).to_csv()
    )
    same_fig2 = (
        experiments.run_figure2(cfg).to_csv() == experiments.run_figure2(cfg).to_csv()
    )
    same_ex1 = (
        experiments.run_example1(N, SEED).to_csv()
        == experiments.run_example1(N, SEED).to_csv()
    )
    runner = CliRunner()
    args = ["figure1", "--n", "20000", "--lambda-grid", "0,0.5,1",
            "--seed", str(DEFAULT_SEED), "--deterministic"]
    same_cli = (
        runner.invoke(cli_main, args).stdout == runner.invoke(cli_main, args).stdout
    )
    _report(
        "criterion 10 (byte-identical output under identical seeds)",
        same_fig1 and same_fig2 and same_ex1 and same_cli,
        f"figure1 = {same_fig1}, figure2 = {same_fig2}, example1 = {same_ex1}, "
        f"cli = {same_cli}",
    )
