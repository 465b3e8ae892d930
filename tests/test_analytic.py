import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from coskew import analytic, copulas, estimators
from coskew.analytic import (
    BoundsResult,
    coskew_bound,
    mixture_prediction,
    pearson_from_spearman_gaussian,
    rank_coskew_gaussian,
    spearman_from_pearson_gaussian,
    trivariate_orthant_prob,
    uniform_product_moment_gaussian,
)
from coskew.errors import (
    DomainError,
    InvalidCorrelationError,
    QuadratureError,
    UnsupportedMarginalError,
)
from coskew.marginals import (
    Marginal,
    exponential,
    laplace,
    parse_marginal,
    standard_normal,
    student_t,
    uniform01,
)
from coskew.samples import SeedSpec

# closed forms, computed independently of the quadrature path
NORMAL_BOUND = 2.0 * math.sqrt(2.0) / math.sqrt(math.pi)  # E|Z|^3 = 1.5957691...
UNIFORM_BOUND = 3.0 * math.sqrt(3.0) / 4.0
LAPLACE_BOUND = 6.0 / 2.0**1.5  # E Exp(1)^3 / 2^{3/2}


def t_abs_third_moment(df: float) -> float:
    # E|T|^3 / sd^3 = (df - 2)^{3/2} G((df-3)/2) / (sqrt(pi) G(df/2)), with
    # G((df-3)/2) = 2 G((df-1)/2)/(df - 3): df - 3 is exact and both gammas
    # stay near 1 as df -> 3, so no log of a large value is exponentiated.
    # math.gamma overflows past df = 343
    return (
        2.0
        * (df - 2.0) ** 1.5
        * math.gamma((df - 1.0) / 2.0)
        / ((df - 3.0) * math.sqrt(math.pi) * math.gamma(df / 2.0))
    )


def abs_third_moment(m) -> float:
    """E|Z|^3 of the standardized marginal."""
    if m.family == "t":
        return t_abs_third_moment(m.df)
    return {"normal": NORMAL_BOUND, "uniform": UNIFORM_BOUND, "laplace": LAPLACE_BOUND}[
        m.family
    ]


# high-precision quadrature of the mixed normal*uniform*laplace product
MIXED_NUL_BOUND = 1.4416088310514087


def test_gauss_legendre_table():
    # the tabulated rule is leggauss(20) up to the latter's weight error, and
    # integrates every monomial it should to within an ulp; leggauss's own
    # weights miss x^k by up to 3.3e-15
    x, w = np.polynomial.legendre.leggauss(20)
    assert np.allclose(analytic._GL_NODES, x, rtol=0, atol=2.3e-16)
    assert np.allclose(analytic._GL_WEIGHTS, w, rtol=1e-13, atol=0)
    for k in range(40):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(analytic._GL_WEIGHTS @ analytic._GL_NODES**k - exact) <= 2.3e-16


class TestCoskewBound:
    def test_three_normals(self):
        res = coskew_bound(*(standard_normal(),) * 3)
        assert res.s_max == pytest.approx(NORMAL_BOUND, abs=1e-8)
        assert res.quadrature_error <= 1e-8

    def test_three_uniforms(self):
        res = coskew_bound(*(uniform01(),) * 3)
        assert res.s_max == pytest.approx(UNIFORM_BOUND, abs=1e-10)

    def test_three_laplaces(self):
        res = coskew_bound(*(laplace(),) * 3)
        assert res.s_max == pytest.approx(LAPLACE_BOUND, abs=1e-8)

    def test_three_student_t5(self):
        res = coskew_bound(*(student_t(5),) * 3)
        assert res.s_max == pytest.approx(t_abs_third_moment(5.0), abs=1e-8)

    def test_mixed_marginals(self):
        res = coskew_bound(standard_normal(), uniform01(), laplace())
        assert res.s_max == pytest.approx(MIXED_NUL_BOUND, abs=1e-8)

    def test_antisymmetry_exact(self):
        res = coskew_bound(*(standard_normal(),) * 3)
        assert res.s_min == -res.s_max

    def test_rejects_asymmetric(self):
        with pytest.raises(UnsupportedMarginalError):
            coskew_bound(standard_normal(), exponential(1.0), standard_normal())

    def test_normalizer_identity(self):
        # the rank-coskewness normalizer 4*sqrt(3)/9 is exactly 1/s_max for uniforms
        res = coskew_bound(*(uniform01(),) * 3)
        assert 4.0 * math.sqrt(3.0) / 9.0 == pytest.approx(1.0 / res.s_max, abs=1e-9)

    def test_t5_bound_vs_monte_carlo(self):
        # heavy-tailed cross-check: |T|^3 has infinite variance at df = 5,
        # so the sample se is itself noisy; fixed seed keeps this stable
        rng = np.random.default_rng(42)
        draws = np.abs(rng.standard_t(5, size=10**7)) / math.sqrt(5.0 / 3.0)
        p = draws**3
        se = p.std() / math.sqrt(p.size)
        assert abs(p.mean() - coskew_bound(*(student_t(5),) * 3).s_max) < 3 * se

    @pytest.mark.parametrize("token", ["normal", "uniform", "laplace", "t:5"])
    def test_bound_matches_extremal_sampler(self, token):
        m = parse_marginal(token)
        s_max = coskew_bound(m, m, m).s_max
        ts = copulas.to_data(
            copulas.sample_max_coskew(10**6, SeedSpec(314159, 0)), m, m, m
        )
        z = (ts.x - ts.x.mean(axis=1, keepdims=True)) / ts.x.std(
            axis=1, keepdims=True
        )
        prod = z[0] * z[1] * z[2]
        se = prod.std() / math.sqrt(prod.size)
        s_hat = estimators.coskewness(ts.x[0], ts.x[1], ts.x[2])
        assert abs(s_hat - s_max) < 4 * se

    @pytest.mark.parametrize(
        "tokens",
        list(itertools.combinations_with_replacement(
            ["normal", "uniform", "laplace", "t:5", "t:3.05"], 3)),
        ids=",".join,
    )
    def test_matches_u_space_quadrature(self, tokens):
        # oracle: s_max = int_0^1 prod G_i^{-1}(u) du straight in u, with no
        # exp substitution, cut-off or Pareto tail.  Near u = 1 the gaps
        # between doubles hide the heavy-tailed mass, so the upper half is
        # taken in q = 1 - u; at tighter tolerances quad's estimate for the
        # t:3.05 singularity falls below its true error
        ms = [parse_marginal(t) for t in tokens]
        body, body_err = integrate.quad(
            lambda u: math.prod(m.abs_std_quantile(u) for m in ms), 0.0, 0.5)
        upper, upper_err = integrate.quad(
            lambda q: math.prod(m.abs_std_tail_quantile(q) for m in ms), 0.0, 0.5)
        res = coskew_bound(*ms)
        assert abs(res.s_max - (body + upper)) <= (
            body_err + upper_err + res.quadrature_error + 1e-14)


class TestStudentTBound:
    # past the quadrature cut-off the t tail is added from its Pareto
    # asymptote; near df = 3 most of the bound lies there
    @pytest.mark.parametrize("df", [3.01, 3.05, 3.2, 4.0, 5.0, 30.0, 200.0])
    def test_three_identical_t_closed_form(self, df):
        res = coskew_bound(*(student_t(df),) * 3)
        assert res.s_max == pytest.approx(t_abs_third_moment(df), rel=1e-10)
        assert res.quadrature_error <= analytic.QUAD_TOL

    @pytest.mark.parametrize(
        "tokens",
        [
            ("t:5", "normal", "normal"),
            ("t:5", "t:5", "normal"),
            ("t:3.01", "t:3.01", "laplace"),
            ("t:3.05", "uniform", "laplace"),
            ("t:3.01", "t:30", "t:200"),
        ],
    )
    def test_mixed_triples_below_holder(self, tokens):
        ms = [parse_marginal(t) for t in tokens]
        s_max = coskew_bound(*ms).s_max
        holder = math.prod(abs_third_moment(m) ** (1.0 / 3.0) for m in ms)
        assert math.isfinite(s_max)
        assert 0.0 < s_max <= holder

    @given(log_excess=st.floats(min_value=-15.0, max_value=math.log10(197.0)))
    @settings(max_examples=40, deadline=None)
    def test_every_df_is_right_or_refused(self, log_excess):
        # df = 3 + 10**log_excess over (3, 200]: a bound whose error cannot be
        # held below QUAD_TOL must raise; the 1e-14 relative term is the
        # rounding of the oracle
        df = 3.0 + 10.0**log_excess
        try:
            res = coskew_bound(*(student_t(df),) * 3)
        except QuadratureError:
            return
        exact = t_abs_third_moment(df)
        assert abs(res.s_max - exact) <= analytic.QUAD_TOL + 1e-14 * exact

    @pytest.mark.parametrize("k", [7, 9, 12, 15])
    def test_next_to_df_3_lies_within_its_error(self, k):
        # s_max ~ 1.27/(df - 3): no absolute error below QUAD_TOL is reachable,
        # so the bound is accepted on its relative error and must lie within
        # its reported error of the 40-digit closed form
        mpmath = pytest.importorskip("mpmath")
        df = 3.0 + 10.0**-k
        res = coskew_bound(*(student_t(df),) * 3)
        with mpmath.workdps(40):
            d = mpmath.mpf(df)
            raw = d**1.5 * mpmath.gamma((d - 3) / 2) / (
                mpmath.sqrt(mpmath.pi) * mpmath.gamma(d / 2))
            exact = raw / (d / (d - 2)) ** 1.5
            assert abs(res.s_max - exact) <= res.quadrature_error
        assert res.quadrature_error <= analytic.QUAD_RTOL * res.s_max

    @given(log_excess=st.floats(min_value=-15.0, max_value=math.log10(197.0)))
    @settings(max_examples=40, deadline=None)
    def test_every_df_lies_within_its_error(self, log_excess):
        # the reported error covers rounding too: panel estimates alone can
        # fall below an ulp of s_max
        mpmath = pytest.importorskip("mpmath")
        df = 3.0 + 10.0**log_excess
        res = coskew_bound(*(student_t(df),) * 3)
        with mpmath.workdps(40):
            d = mpmath.mpf(df)
            exact = (d - 2) ** mpmath.mpf(1.5) * mpmath.gamma((d - 3) / 2) / (
                mpmath.sqrt(mpmath.pi) * mpmath.gamma(d / 2))
            assert abs(res.s_max - exact) <= res.quadrature_error

    @pytest.mark.parametrize(
        "df, exact",
        [
            # 40-digit mpmath values of (df-2)^1.5 G((df-3)/2) / (sqrt(pi) G(df/2))
            # at these doubles
            (3.000000000000001, 1433540284805666.180537),
            (3.000000001, 1273239440.906021273651),
            (3.05, 26.98705344533700512974),
            (4.0, 2.828427124746190097603),
            (30.0, 1.640164916864537054036),
            (200.0, 1.601845671283677712975),
        ],
    )
    def test_oracle_keeps_full_precision(self, df, exact):
        assert t_abs_third_moment(df) == pytest.approx(exact, rel=2e-15)

    @staticmethod
    def _quantile_points(monkeypatch) -> list:
        # counted at the quantile calls, not from the reported total
        points = []
        tail_quantile = Marginal.abs_std_tail_quantile

        def counted(self, q):
            points.append(np.size(q))
            return tail_quantile(self, q)

        monkeypatch.setattr(Marginal, "abs_std_tail_quantile", counted)
        return points

    def test_t305_point_budget(self, monkeypatch):
        # three equal margins share one quantile per point
        points = self._quantile_points(monkeypatch)
        res = coskew_bound(*(student_t(3.05),) * 3)
        assert sum(points) == res.evaluations
        assert res.evaluations <= 1600

    def test_each_distinct_margin_is_inverted_once(self, monkeypatch):
        points = self._quantile_points(monkeypatch)
        res = coskew_bound(student_t(5), student_t(5), standard_normal())
        assert sum(points) == 2 * res.evaluations


def quad_bound(ms) -> tuple[float, float]:
    """s_max and its error by scipy's quad: coskew_bound's integrand in t over
    [0, TAIL_CUTOFF], plus its Pareto tail."""

    def integrand(t: float) -> float:
        q = math.exp(-t)
        return q * math.prod(m.abs_std_tail_quantile(q) for m in ms)

    value, abserr = integrate.quad(
        integrand, 0.0, analytic.TAIL_CUTOFF, epsabs=1e-10, epsrel=1e-12, limit=200
    )
    tail, tail_err = analytic._pareto_tail(ms, integrand(analytic.TAIL_CUTOFF))
    return value + tail, abserr + tail_err


symmetric_marginals = st.one_of(
    st.sampled_from([standard_normal(), uniform01(), laplace()]),
    st.floats(min_value=-12.0, max_value=math.log10(197.0)).map(
        lambda log_excess: student_t(3.0 + 10.0**log_excess)
    ),
)


@given(ms=st.tuples(symmetric_marginals, symmetric_marginals, symmetric_marginals))
@settings(max_examples=60, deadline=None)
def test_agrees_with_quad_oracle(ms):
    res = coskew_bound(*ms)
    value, abserr = quad_bound(ms)
    assert abs(res.s_max - value) <= res.quadrature_error + abserr


class TestMixturePrediction:
    def test_midpoint_is_zero(self):
        b = BoundsResult(s_max=1.5, quadrature_error=0.0)
        assert mixture_prediction(0.5, b) == pytest.approx(0.0, abs=1e-15)

    def test_normal_values(self):
        b = coskew_bound(*(standard_normal(),) * 3)
        assert mixture_prediction(1.0, b) == pytest.approx(1.5957691216057308, abs=1e-8)
        assert mixture_prediction(0.25, b) == pytest.approx(
            -0.5 * 1.5957691216057308, abs=1e-8
        )

    def test_affine_in_lambda(self):
        b = BoundsResult(s_max=2.0, quadrature_error=0.0)
        lams = [0.0, 0.2, 0.45, 0.8, 1.0]
        vals = [mixture_prediction(l, b) for l in lams]
        # two evaluations determine an affine map; check all five agree with it
        slope = (vals[-1] - vals[0]) / (lams[-1] - lams[0])
        for l, v in zip(lams, vals):
            assert v == pytest.approx(vals[0] + slope * l, abs=1e-12)

    def test_lambda_domain(self):
        b = BoundsResult(s_max=1.0, quadrature_error=0.0)
        with pytest.raises(DomainError):
            mixture_prediction(-0.01, b)
        with pytest.raises(DomainError):
            mixture_prediction(1.01, b)


class TestArcsinIdentities:
    def test_spearman_endpoints(self):
        assert spearman_from_pearson_gaussian(0.0) == 0.0
        assert spearman_from_pearson_gaussian(1.0) == pytest.approx(1.0, abs=1e-12)
        assert spearman_from_pearson_gaussian(-1.0) == pytest.approx(-1.0, abs=1e-12)

    def test_spearman_at_half(self):
        # (6/pi) asin(1/4) evaluated independently
        assert spearman_from_pearson_gaussian(0.5) == pytest.approx(
            0.4825837395309975, abs=1e-12
        )

    def test_roundtrip_identity_on_grid(self):
        for rho in np.linspace(-1, 1, 101):
            back = pearson_from_spearman_gaussian(spearman_from_pearson_gaussian(rho))
            assert back == pytest.approx(rho, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            spearman_from_pearson_gaussian(1.2)
        with pytest.raises(DomainError):
            pearson_from_spearman_gaussian(-1.0001)

    def test_uniform_product_moment(self):
        assert uniform_product_moment_gaussian(0.0) == pytest.approx(0.25, abs=1e-15)
        assert uniform_product_moment_gaussian(1.0) == pytest.approx(1 / 3, abs=1e-12)
        assert uniform_product_moment_gaussian(0.6) == pytest.approx(
            0.29849334201033917, abs=1e-12
        )

    def test_uniform_product_moment_vs_simulation(self, seed):
        us = copulas.sample_gaussian(10**5, copulas.GaussianParams(0.6, 0.0, 0.0), seed)
        sim = np.mean(us.u[0] * us.u[1])
        assert abs(sim - uniform_product_moment_gaussian(0.6)) < 4 * 0.1 / math.sqrt(
            us.n
        )


class TestOrthantProbability:
    def test_independence(self):
        assert trivariate_orthant_prob(0.0, 0.0, 0.0) == pytest.approx(
            0.125, abs=1e-15
        )

    def test_comonotonic_limit(self):
        assert trivariate_orthant_prob(1.0, 1.0, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_mixed_triple(self):
        assert trivariate_orthant_prob(0.4, 0.25, 0.15) == pytest.approx(
            0.18983696836501443, abs=1e-12
        )

    def test_monte_carlo_cross_check(self):
        rng = np.random.default_rng(123)
        corr = np.array([[1.0, 0.4, 0.25], [0.4, 1.0, 0.15], [0.25, 0.15, 1.0]])
        chol = np.linalg.cholesky(corr)
        n, chunk = 10**7, 10**6
        hits = 0
        for _ in range(n // chunk):
            z = rng.standard_normal((chunk, 3)) @ chol.T
            hits += int(np.sum((z < 0).all(axis=1)))
        phat = hits / n
        se = math.sqrt(phat * (1 - phat) / n)
        assert abs(phat - trivariate_orthant_prob(0.4, 0.25, 0.15)) < 3 * se

    def test_invalid_triple(self):
        with pytest.raises(InvalidCorrelationError):
            trivariate_orthant_prob(0.9, 0.9, -0.9)
        with pytest.raises(DomainError):
            trivariate_orthant_prob(1.5, 0.0, 0.0)


class TestRankCoskewGaussian:
    def test_named_triples(self):
        assert rank_coskew_gaussian(0.0, 0.0, 0.0) == 0.0
        assert abs(rank_coskew_gaussian(0.8, 0.5, 0.3)) < 1e-12
        assert abs(rank_coskew_gaussian(-0.6, 0.2, 0.1)) < 1e-12

    def test_identity_on_random_valid_triples(self):
        rng = np.random.default_rng(2718)
        found = 0
        while found < 1000:
            r = rng.uniform(-1, 1, size=3)
            if 1.0 - r @ r + 2.0 * r.prod() < 0.0:
                continue
            found += 1
            assert abs(rank_coskew_gaussian(*r)) < 1e-12

    def test_arrays_match_scalar_calls(self):
        rng = np.random.default_rng(2718)
        r = rng.uniform(-0.5, 0.5, size=(200, 3))
        got = rank_coskew_gaussian(*r.T)
        assert got.shape == (200,)
        assert np.allclose(got, [rank_coskew_gaussian(*t) for t in r], rtol=0, atol=1e-15)
        orthant = trivariate_orthant_prob(*r.T)
        assert np.allclose(orthant, [trivariate_orthant_prob(*t) for t in r],
                           rtol=0, atol=1e-16)
        assert type(rank_coskew_gaussian(*r[0])) is float
        assert type(trivariate_orthant_prob(*r[0])) is float

    def test_arrays_with_one_invalid_triple(self):
        r = np.zeros((5, 3))
        r[3] = (0.95, 0.95, -0.95)
        with pytest.raises(InvalidCorrelationError, match=r"\(0\.95, 0\.95, -0\.95\)"):
            rank_coskew_gaussian(*r.T)
        r[3] = (0.0, 1.5, 0.0)
        with pytest.raises(DomainError, match="r13 must lie in"):
            trivariate_orthant_prob(*r.T)

    def test_invalid_triple(self):
        with pytest.raises(InvalidCorrelationError):
            rank_coskew_gaussian(0.95, 0.95, -0.95)
