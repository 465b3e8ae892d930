import math
import re
import sys
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from coskew import marginals
from coskew.errors import DomainError, UnsupportedMarginalError
from coskew.marginals import (
    Marginal,
    exponential,
    laplace,
    norm_cdf,
    parse_marginal,
    standard_normal,
    student_t,
    uniform01,
)

# independent quantile oracles
NDTRI_075 = 0.6744897501960817  # scipy.special.ndtri(0.75)


class TestQuantile:
    def test_uniform_identity(self):
        assert uniform01().quantile(0.5) == 0.5
        assert uniform01().quantile(0.123) == 0.123

    def test_normal_median(self):
        assert standard_normal().quantile(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_exponential_inverts_cdf(self):
        # 1 - exp(-x) = p at x = 1 for p = 1 - e^{-1}
        p = 1.0 - math.exp(-1.0)
        assert exponential(1.0).quantile(p) == pytest.approx(1.0, abs=1e-12)
        assert exponential(2.0).quantile(p) == pytest.approx(0.5, abs=1e-12)

    def test_normal_matches_ndtri(self):
        ps = np.concatenate([
            np.linspace(1e-9, 1 - 1e-9, 201),
            [1e-12, 1e-6, 0.02425, 0.5, 0.97575, 1 - 1e-6],
        ])
        got = standard_normal().quantile(ps)
        want = special.ndtri(ps)
        err = np.abs(got - want) / np.maximum(np.abs(want), 1.0)
        assert np.max(err) < 1e-13

    def test_normal_matches_mpmath_erfinv(self):
        mpmath = pytest.importorskip("mpmath")
        ps = np.concatenate([
            np.logspace(-300, -1, 24),
            np.linspace(0.1, 0.9, 17),
            0.5 + np.logspace(-15, -2, 14),  # relative accuracy near the median
            0.5 - np.logspace(-15, -2, 14),
            1.0 - np.logspace(-16, -1, 16),
        ])
        got = standard_normal().quantile(ps)
        # 420 digits keep 2p - 1 exact for p down to 1e-300
        with mpmath.workdps(420):
            want = np.array([
                float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1))
                for p in ps
            ])
        err = np.abs(got - want) / np.maximum(np.abs(want), 1e-300)
        assert np.max(err) <= 2e-15

    def test_laplace_matches_scipy(self):
        ps = np.linspace(0.001, 0.999, 97)
        got = laplace().quantile(ps)
        want = stats.laplace.ppf(ps)
        np.testing.assert_allclose(got, want, atol=1e-12)
        # the median is +0.0, as in scipy, so it equals its own reflection
        assert laplace().quantile(0.5) == 0.0
        assert not np.signbit(laplace().quantile(0.5))
        assert not np.signbit(stats.laplace.ppf(0.5))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.sampled_from([2**-53, 1 - 2**-53, 0.5, 0.5 - 2**-54, 0.5 + 2**-53, 5e-324]),
    ), min_size=1, max_size=40))
    def test_laplace_equals_the_two_branch_form_bytewise(self, ps):
        # the one-logarithm form against log(2p) below the median and
        # -log(2(1 - p)) above it, as arrays and one scalar at a time
        p = np.array(ps)
        want = np.where(p <= 0.5, np.log(2.0 * p), -np.log(2.0 * (1.0 - p)))
        assert laplace().quantile(p).tobytes() == want.tobytes()
        for x, w in zip(ps, want):
            assert np.float64(laplace().quantile(x)).tobytes() == w.tobytes(), x

    def test_domain_errors(self, all_marginals):
        for m in all_marginals:
            for p in (0.0, 1.0, -0.1, 1.1, math.nan, [0.5, math.nan]):
                with pytest.raises(DomainError):
                    m.quantile(p)

    @pytest.mark.parametrize("token", ["normal", "uniform", "laplace", "t:5", "exp:1"])
    def test_strictly_increasing(self, token):
        m = parse_marginal(token)
        ps = np.linspace(1e-6, 1 - 1e-6, 500)
        qs = np.asarray(m.quantile(ps))
        assert np.all(np.diff(qs) > 0)


@pytest.mark.parametrize("token", ["normal", "uniform", "laplace", "t:5", "exp:1"])
@given(p=st.floats(min_value=1e-6, max_value=1 - 1e-6))
@settings(max_examples=60, deadline=None)
def test_cdf_quantile_roundtrip(token, p):
    m = parse_marginal(token)
    assert m.cdf(m.quantile(p)) == pytest.approx(p, abs=1e-10)


@pytest.mark.parametrize("token", ["normal", "uniform", "laplace", "t:5", "exp:1"])
def test_cdf_far_tails_are_0_and_1_without_warnings(token):
    # beyond |x| ~ 709 a two-branch Laplace CDF overflowed exp in the branch
    # that np.where discards
    m = parse_marginal(token)
    x = np.array([-np.inf, -800.0, 800.0, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = m.cdf(x)
        scalars = [m.cdf(float(v)) for v in x]
    assert got.tolist() == scalars
    assert got.tolist() == pytest.approx([0.0, 0.0, 1.0, 1.0], abs=1e-12)
    assert got[0] == 0.0 and got[-1] == 1.0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 700.0, -745.0, 800.0, -800.0]),
), min_size=1, max_size=40))
def test_laplace_cdf_equals_the_two_branch_form_bytewise(xs):
    x = np.array(xs)
    with np.errstate(over="ignore"):
        want = np.where(x < 0.0, 0.5 * np.exp(x), 1.0 - 0.5 * np.exp(-x))
    assert laplace().cdf(x).tobytes() == want.tobytes()


@pytest.mark.parametrize("token", ["normal", "uniform", "laplace", "t:5"])
@given(u=st.floats(min_value=1e-6, max_value=1 - 1e-6))
@settings(max_examples=60, deadline=None)
def test_symmetric_quantile_reflection(token, u):
    # F^{-1}(u) = -F^{-1}(1-u) around the mean, to the 1e-10 relative target
    m = parse_marginal(token)
    lhs = m.quantile(u) - m.mean
    rhs = -(m.quantile(1.0 - u) - m.mean)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


class TestAbsStdQuantile:
    def test_zero_at_zero(self, symmetric_marginals):
        for m in symmetric_marginals:
            assert m.abs_std_quantile(0.0) == 0.0

    def test_uniform_closed_form(self):
        # |U - 1/2| / (1/sqrt(12)) is uniform on [0, sqrt(3)]
        m = uniform01()
        for u in (0.25, 0.5, 1 - 1e-9):
            assert m.abs_std_quantile(u) == pytest.approx(math.sqrt(3) * u, abs=1e-12)

    def test_normal_value(self):
        assert standard_normal().abs_std_quantile(0.5) == pytest.approx(
            NDTRI_075, abs=1e-12
        )

    def test_uniform_simulation_oracle(self, rng):
        m = uniform01()
        draws = np.abs(rng.random(10**6) - 0.5) / m.sd
        for u in (0.25, 0.5, 0.9):
            emp = np.quantile(draws, u)
            # se of an empirical quantile with density 1/sqrt(3)
            se = math.sqrt(3) * math.sqrt(u * (1 - u) / 10**6)
            assert abs(m.abs_std_quantile(u) - emp) < 4 * se

    def test_nondecreasing(self, symmetric_marginals):
        us = np.linspace(0.0, 1 - 1e-9, 300)
        for m in symmetric_marginals:
            vals = np.asarray(m.abs_std_quantile(us))
            assert np.all(np.diff(vals) >= 0)

    def test_rejects_asymmetric(self):
        with pytest.raises(UnsupportedMarginalError):
            exponential(1.0).abs_std_quantile(0.5)

    def test_domain_errors(self, symmetric_marginals):
        for m in symmetric_marginals:
            for u in (-0.1, 1.0, math.nan, [0.5, math.nan]):
                with pytest.raises(DomainError):
                    m.abs_std_quantile(u)

    def test_tail_form_agrees(self, symmetric_marginals):
        # deeper tails than 1e-6 are exactly where the p-path loses precision
        # to the representation of 1 - q, which the tail form exists to avoid
        for m in symmetric_marginals:
            for q in (0.5, 1e-3, 1e-6):
                assert m.abs_std_tail_quantile(q) == pytest.approx(
                    m.abs_std_quantile(1.0 - q), rel=1e-9
                )


class TestMoments:
    # sd of the sample sd is sigma * sqrt((kurtosis - 1) / (4n))
    KURTOSIS = {"normal": 3.0, "uniform": 1.8, "laplace": 6.0, "t": 9.0, "exp": 9.0}

    @pytest.mark.parametrize("token", ["normal", "uniform", "laplace", "t:5", "exp:1"])
    def test_simulated_moments(self, token, rng):
        m = parse_marginal(token)
        n = 10**6
        x = np.asarray(m.quantile(rng.random(n) * (1 - 2e-12) + 1e-12))
        se_mean = m.sd / math.sqrt(n)
        assert abs(x.mean() - m.mean) < 4 * se_mean
        se_sd = m.sd * math.sqrt((self.KURTOSIS[m.family] - 1.0) / (4 * n))
        assert abs(x.std() - m.sd) < 4 * se_sd

    def test_symmetry_flags(self, all_marginals):
        assert [m.symmetric for m in all_marginals] == [True, True, True, True, False]


class TestConstruction:
    def test_t_requires_df_above_3(self):
        with pytest.raises(DomainError):
            student_t(3.0)
        with pytest.raises(DomainError):
            student_t(2.5)
        with pytest.raises(DomainError):
            student_t(math.inf)
        assert student_t(3.5).df == 3.5

    def test_exp_requires_positive_rate(self):
        with pytest.raises(DomainError):
            exponential(0.0)
        with pytest.raises(DomainError):
            exponential(-1.0)
        with pytest.raises(DomainError):
            exponential(math.inf)

    @pytest.mark.parametrize("token", ["exp:1e-320", "exp:1e-307"])
    def test_exp_rejects_a_rate_whose_quantiles_overflow(self, token):
        # F^-1(1 - 2^-53) = 53 ln 2 / rate, the largest value a sampler maps
        # to, overflows for rates below about 2.044e-307
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="too small"):
                parse_marginal(token)

    def test_parse_roundtrip(self):
        for token in ("normal", "uniform", "laplace", "t:5", "exp:1"):
            assert parse_marginal(token).token == token

    @given(m=st.one_of(
        st.sampled_from([standard_normal(), uniform01(), laplace()]),
        st.floats(3.0, 1e300, exclude_min=True).map(student_t),
        st.floats(1e-306, 1e300).map(exponential),  # smaller rates overflow
    ))
    @example(m=student_t(5.1234567))
    @example(m=exponential(0.1 + 0.2))
    @settings(max_examples=200, deadline=None)
    def test_token_reparses_to_the_same_marginal(self, m):
        assert parse_marginal(m.token) == m

    def test_short_parameters_keep_their_g_text(self):
        # the 6-digit g text, "t:5.12346", would not read back
        assert student_t(5.1234567).token == "t:5.1234567"
        assert [student_t(5).token, student_t(3.05).token] == ["t:5", "t:3.05"]
        assert [exponential().token, exponential(1e-7).token] == ["exp:1", "exp:1e-07"]

    def test_parse_rejects_unknown(self):
        with pytest.raises(DomainError):
            parse_marginal("cauchy")

    @pytest.mark.parametrize("token", ["normal:9", "uniform:x", "laplace:2", "laplace:"])
    def test_parse_rejects_a_parameter_on_a_parameterless_family(self, token):
        with pytest.raises(DomainError, match="takes no parameter"):
            parse_marginal(token)

    @pytest.mark.parametrize("token", ["t:x", "t:5,", "exp:abc", "exp:1e"])
    def test_parse_rejects_a_parameter_that_is_not_a_number(self, token):
        with pytest.raises(DomainError, match=re.escape(repr(token))):
            parse_marginal(token)

    def test_exp_without_a_rate_has_rate_one(self):
        assert parse_marginal("exp") == parse_marginal("exp:") == exponential(1.0)

    def test_student_t_sd(self):
        assert student_t(5).sd == pytest.approx(math.sqrt(5.0 / 3.0), abs=1e-15)

    def test_unknown_family_rejected(self):
        with pytest.raises(DomainError):
            Marginal("weibull")


# -- one slice per usable CPU ----------------------------------------------------

FLOOR = marginals._SPLIT_FLOOR
SPLIT_SIZES = [1, FLOOR - 1, FLOOR, 2 * FLOOR - 1, 2 * FLOOR, 3 * FLOOR + 7]


def _serial_quantile(m, p):
    if m.family == "normal":
        return special.ndtri(p)
    if m.family == "uniform":
        return p.copy()
    if m.family == "laplace":
        return np.copysign(np.log(2.0 * np.minimum(p, 1.0 - p)), p - 0.5)
    if m.family == "t":
        return special.stdtrit(m.df, p)
    return -np.log1p(-p) / m.rate


def _serial_cdf(m, x):
    if m.family == "normal":
        return special.ndtr(x)
    if m.family == "uniform":
        return np.clip(x, 0.0, 1.0)
    if m.family == "laplace":
        tail = 0.5 * np.exp(-np.abs(x))
        return np.where(x < 0.0, tail, 1.0 - tail)
    if m.family == "t":
        return special.stdtr(m.df, x)
    return -np.expm1(-m.rate * np.clip(x, 0.0, None))


def _cpus(k):
    """Let the transforms see k usable CPUs, whatever the host has."""
    return mock.patch.object(marginals, "_usable_cpus", return_value=k)


class TestSlices:
    @pytest.mark.parametrize("token", ["normal", "uniform", "laplace", "t:3.05",
                                       "t:5", "t:1e9", "exp:2"])
    @settings(max_examples=12, deadline=None)
    @given(size=st.sampled_from(SPLIT_SIZES),
           layout=st.sampled_from(["flat", "0-d", "rows", "view"]),
           cpus=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    @example(size=3 * FLOOR + 7, layout="rows", cpus=3, seed=1)
    @example(size=2 * FLOOR, layout="view", cpus=2, seed=2)
    @example(size=3 * FLOOR + 7, layout="flat", cpus=4, seed=3)
    def test_split_equals_serial_bit_for_bit(self, token, size, layout, cpus, seed):
        m = parse_marginal(token)
        rng = np.random.default_rng(seed)
        shape = {"flat": (size,), "0-d": (), "rows": (3, size), "view": (3, size)}[layout]
        p = rng.integers(1, 2**53, shape) * 2.0**-53  # inside (0, 1)
        x = rng.standard_normal(shape) * 4.0
        if layout == "view":  # a row of a Fortran-ordered array: stride 3
            p, x = np.asfortranarray(p)[1], np.asfortranarray(x)[1]
            assert size == 1 or p.strides == x.strides == (24,)
        with _cpus(cpus), mock.patch.object(threading, "Thread",
                                            wraps=threading.Thread) as spawned:
            got = [m.quantile(p), m.cdf(x), norm_cdf(x)]
        want = [_serial_quantile(m, p), _serial_cdf(m, x), special.ndtr(x)]
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(w)
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()
        # a thread per slice after the first; uniform's copy and clip run whole
        k = min(np.size(p) // FLOOR, cpus)
        split_calls = 1 if m.family == "uniform" else 3
        assert spawned.call_count == (split_calls * (k - 1) if k >= 2 else 0)

    @pytest.mark.parametrize("token", ["normal", "laplace", "t:5", "exp:2"])
    def test_nan_is_refused_before_any_slice(self, token):
        p = np.full(3 * FLOOR, 0.5)
        p[-1] = np.nan  # in the last slice
        with _cpus(3), mock.patch.object(marginals, "_elementwise",
                                         side_effect=AssertionError("a slice ran")):
            with pytest.raises(DomainError):
                parse_marginal(token).quantile(p)

    def test_the_callers_errstate_holds_in_every_slice(self):
        m = Marginal("exp", rate=1e300)
        before = threading.active_count()
        with _cpus(4):
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                m.cdf(np.full(2**17, 1e10))
            # only the last slice overflows, on a thread of its own
            x = np.zeros(2**17)
            x[-1] = 1e10
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                m.cdf(x)
            with np.errstate(over="ignore"):
                assert m.cdf(x)[-1] == 1.0
        assert threading.active_count() == before

    def test_no_thread_outlives_a_split_call(self):
        # more slices than CPUs, and threads switched as often as they can
        # be: every slice still lands in its own place
        p = np.linspace(0.01, 0.99, 8 * FLOOR + 5)
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _cpus(8), mock.patch.object(threading, "Thread",
                                             wraps=threading.Thread) as spawned:
                got = [student_t(5).quantile(p), norm_cdf(p)]
        finally:
            sys.setswitchinterval(interval)
        assert spawned.call_count == 14
        assert threading.active_count() == before
        assert got[0].tobytes() == special.stdtrit(5.0, p).tobytes()
        assert got[1].tobytes() == special.ndtr(p).tobytes()
