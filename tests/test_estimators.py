import itertools
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import rankdata

from coskew import copulas, estimators
from coskew.errors import (
    DegenerateColumnError,
    DomainError,
    InsufficientEventRowsError,
)
from coskew.estimators import (
    EventSpec,
    MomentAccumulator,
    build_event_mask,
    conditional_corr,
    coskewness,
    parse_event,
    pearson_corr,
    rank_coskewness,
    rank_transform,
    spearman_rho,
)
from coskew.marginals import exponential, standard_normal, uniform01
from coskew.samples import SeedSpec, TriSample
from coskew.sweep import mixture_draw


class TestPearson:
    def test_identical_columns(self, rng):
        x = rng.normal(size=100)
        assert pearson_corr(x, x) == pytest.approx(1.0, abs=1e-12)
        assert pearson_corr(x, -x) == pytest.approx(-1.0, abs=1e-12)

    def test_arithmetic_oracle(self):
        # direct two-pass arithmetic gives exactly 1/2
        assert pearson_corr([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-15)

    def test_degenerate_column(self):
        with pytest.raises(DegenerateColumnError):
            pearson_corr([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        # the floor is relative to |mean|: a constant stays refused at any scale
        for c in (0.3, 1e-200, -7.1e-5, 0.0):
            for n in (2, 3, 1001, 100003):
                with pytest.raises(DegenerateColumnError):
                    pearson_corr(np.full(n, c), np.arange(n, dtype=float))

    def test_small_scale_is_not_refused(self, rng):
        x, y = rng.normal(size=(2, 1000))
        assert pearson_corr(x * 2.0**-66, y) == pearson_corr(x, y)

    @given(k=st.lists(st.integers(min_value=-300, max_value=300), min_size=3, max_size=3),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           n=st.integers(min_value=3, max_value=200))
    @settings(max_examples=60, deadline=None)
    def test_power_of_two_scales_keep_every_bit(self, k, seed, n):
        # scaling a column by 2^k is exact, and so is every step of the
        # moments under it: the same correlations and coskewness, bit for
        # bit, and sds scaled by exactly 2^k
        rng = np.random.default_rng(seed)
        x = rng.standard_t(5, size=(3, n)) + rng.uniform(-4.0, 4.0, (3, 1))
        scale = np.ldexp(1.0, np.array(k))
        sds, r, coskew = MomentAccumulator(3).update(x).standardized()
        got_sds, got_r, got_coskew = MomentAccumulator(3).update(x * scale[:, None]).standardized()
        assert got_sds.tobytes() == (sds * scale).tobytes()
        assert got_r.tobytes() == r.tobytes()
        assert np.float64(got_coskew).tobytes() == np.float64(coskew).tobytes()

    def test_needs_two_rows(self):
        with pytest.raises(DegenerateColumnError):
            pearson_corr([1.0], [2.0])


class TestCoskewness:
    def test_argument_symmetry_exact(self, rng):
        x, y, z = rng.normal(size=(3, 500))
        s = coskewness(x, y, z)
        assert coskewness(y, x, z) == pytest.approx(s, abs=1e-13)
        assert coskewness(z, y, x) == pytest.approx(s, abs=1e-13)

    def test_classic_configuration(self):
        # zero pairwise correlation with unit coskewness
        x = np.array([1.0, -1.0, 1.0, -1.0])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        z = x * y
        assert pearson_corr(x, y) == pytest.approx(0.0, abs=1e-15)
        assert coskewness(x, y, z) == pytest.approx(1.0, abs=1e-14)

    def test_gaussian_sample_near_zero(self, seed, normal3):
        us = copulas.sample_gaussian(10**5, copulas.GaussianParams(0.6, 0.2, 0.4), seed)
        ts = copulas.to_data(us, *normal3)
        assert abs(coskewness(ts.x[0], ts.x[1], ts.x[2])) < 0.05

    @given(
        a=st.floats(min_value=0.1, max_value=100.0),
        c=st.floats(min_value=0.1, max_value=100.0),
        b=st.floats(min_value=-1e4, max_value=1e4),
        e=st.floats(min_value=-1e4, max_value=1e4),
    )
    @settings(max_examples=40, deadline=None)
    def test_affine_invariance(self, a, c, b, e):
        rng = np.random.default_rng(7)
        x, y, z = rng.normal(size=(3, 400))
        base = coskewness(x, y, z)
        moved = coskewness(a * x + b, c * y + e, z)
        assert moved == pytest.approx(base, abs=1e-10)

    def test_sign_equivariance(self, rng):
        x, y, z = rng.normal(size=(3, 400))
        assert coskewness(-x, y, z) == pytest.approx(-coskewness(x, y, z), abs=1e-10)


class TestRankTransform:
    def test_empirical_small(self):
        np.testing.assert_allclose(
            rank_transform([10.0, 20.0, 30.0]), [1 / 6, 3 / 6, 5 / 6], atol=1e-15
        )

    def test_empirical_midranks_for_ties(self, rng):
        np.testing.assert_allclose(
            rank_transform([1.0, 1.0, 2.0]), [1 / 3, 1 / 3, 5 / 6], atol=1e-15
        )
        n = 100_000
        for x in (rng.integers(0, 500, size=n).astype(float), rng.normal(size=n)):
            want = (rankdata(x, method="average") - 0.5) / n
            assert np.array_equal(rank_transform(x), want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_empirical_rejects_non_finite(self, bad):
        # and the true-CDF path, whose CDF would map nan to nan and +-inf
        # to the ends of [0, 1]
        for marginal in (None, standard_normal(), uniform01(), exponential(1.0)):
            with pytest.raises(DomainError, match="finite"):
                rank_transform([0.3, bad, 0.1], marginal)

    def test_true_cdf_uniform_identity(self, rng):
        u = rng.random(50)
        np.testing.assert_array_equal(rank_transform(u, uniform01()), u)

    def test_true_cdf_normal_at_zero(self):
        got = rank_transform(np.array([0.0]), standard_normal())
        assert got[0] == pytest.approx(0.5, abs=1e-15)

    def test_values_inside_unit_interval(self, rng):
        r = rank_transform(rng.normal(size=999))
        assert np.all(r > 0.0) and np.all(r < 1.0)


class TestSpearman:
    def test_comonotonic_empirical_exact(self):
        x = np.arange(100.0)
        r = rank_transform(x)
        # midrank grid variance gives exactly 1 - 1/n^2
        assert spearman_rho(r, r) == pytest.approx(1 - 1 / 100.0**2, abs=1e-12)

    def test_independent_near_zero(self, seed):
        us = copulas.sample_independence(10**5, seed)
        assert abs(spearman_rho(us.u[0], us.u[1])) < 0.02

    def test_mixing_sum_pairwise(self, seed):
        # piecewise integration of the mixing structure gives -1/2 per pair
        us = copulas.sample_mixing_sum(10**5, seed)
        for a, b in ((0, 1), (0, 2), (1, 2)):
            assert spearman_rho(us.u[a], us.u[b]) == pytest.approx(-0.5, abs=0.02)

    def test_rejects_columns_of_different_lengths(self, rng):
        # they would broadcast: (3,) against (1,) gave -0.24
        with pytest.raises(DomainError, match="common length"):
            spearman_rho([0.1, 0.9, 0.2], [0.7])
        u, v = rng.random((2, 1001))
        with pytest.raises(DomainError, match="common length"):
            spearman_rho(u, v[:-1])
        # equal lengths keep the bits of the plain product mean
        assert spearman_rho(u, v) == float(12.0 * np.mean((u - 0.5) * (v - 0.5)))

    @pytest.mark.parametrize("u, v", [
        ([], []),
        ([np.nan, 0.2], [0.3, 0.4]),
        ([1.5, 0.2], [0.3, 0.4]),
        ([0.5, 0.2], [0.3, -1e-300]),
        ([0.5, 0.2], [np.inf, 0.3]),
    ])
    def test_rejects_what_is_not_a_rank_column(self, u, v):
        with pytest.raises(DomainError, match="rank statistics"):
            spearman_rho(u, v)

    def test_accepts_the_ends_of_the_unit_interval(self):
        assert spearman_rho([0.0, 1.0], [1.0, 0.0]) == -3.0


class TestRankCoskewness:
    def test_comonotonic_zero(self, seed):
        us = copulas.sample_comonotonic(10**5, seed)
        assert abs(rank_coskewness(us.u[0], us.u[1], us.u[2])) < 0.01

    def test_mixing_sum_zero(self, seed):
        us = copulas.sample_mixing_sum(10**5, seed)
        assert abs(rank_coskewness(us.u[0], us.u[1], us.u[2])) < 0.01

    def test_max_copula_attains_one(self, seed):
        us = copulas.sample_max_coskew(10**5, seed)
        assert rank_coskewness(us.u[0], us.u[1], us.u[2]) == pytest.approx(1.0, abs=0.01)
        mn = copulas.sample_min_coskew(10**5, seed)
        assert rank_coskewness(mn.u[0], mn.u[1], mn.u[2]) == pytest.approx(-1.0, abs=0.01)

    def test_rejects_columns_of_different_lengths(self, rng):
        # they would broadcast: (2,), (2,) and (1,) gave 0.064
        with pytest.raises(DomainError, match="common length"):
            rank_coskewness([0.1, 0.9], [0.2, 0.3], [0.6])
        u, v, w = rng.random((3, 1001))
        with pytest.raises(DomainError, match="common length"):
            rank_coskewness(u, v[:-1], w)
        want = float(32.0 * np.mean((u - 0.5) * (v - 0.5) * (w - 0.5)))
        assert rank_coskewness(u, v, w) == want  # equal lengths keep their bits

    @pytest.mark.parametrize("cols", [
        ([], [], []),
        ([0.1, 0.9], [0.2, np.nan], [0.6, 0.4]),
        ([0.1, 0.9], [0.2, 0.3], [0.6, 1.0 + 2**-52]),
        ([-0.1, 0.9], [0.2, 0.3], [0.6, 0.4]),
    ])
    def test_rejects_what_is_not_a_rank_column(self, cols):
        with pytest.raises(DomainError, match="rank statistics"):
            rank_coskewness(*cols)

    def test_argument_symmetry(self, rng):
        u, v, w = rng.random((3, 200))
        base = rank_coskewness(u, v, w)
        assert rank_coskewness(w, u, v) == pytest.approx(base, abs=1e-15)

    @given(
        data=hnp.arrays(
            float,
            st.integers(min_value=2, max_value=60).map(lambda n: (3, n)),
            elements=st.floats(min_value=-1e6, max_value=1e6),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_bounded_on_empirical_ranks(self, data):
        # theorem for genuine rank columns: |RS| <= 1 up to rounding
        ranks = [rank_transform(col) for col in data]
        rs = rank_coskewness(*ranks)
        assert -1 - 1e-9 <= rs <= 1 + 1e-9

    def test_bounded_on_package_copulas(self, seed):
        for token in ("max", "min", "mixture:0.25", "comonotonic", "mixingsum"):
            us = copulas.sample(copulas.parse_copula(token), 10**4, seed)
            ranks = [rank_transform(col) for col in us.u]
            assert abs(rank_coskewness(*ranks)) <= 1 + 1e-9


class TestRankStatsCopulaOnly:
    def test_marginal_free_at_matched_seeds(self, seed):
        # true-CDF ranks recover the same uniforms whatever the marginal
        us = copulas.sample_mixture(20_000, 0.7, seed)
        stats = []
        for marg in (standard_normal(), exponential(1.0)):
            ts = copulas.to_data(us, marg, marg, marg)
            ranks = [rank_transform(ts.x[j], marg) for j in range(3)]
            stats.append(
                (
                    spearman_rho(ranks[0], ranks[1]),
                    spearman_rho(ranks[0], ranks[2]),
                    rank_coskewness(*ranks),
                )
            )
        assert stats[0] == pytest.approx(stats[1], abs=1e-9)

    @pytest.mark.parametrize(
        "token", ["max", "min", "mixture:0.3", "comonotonic", "independence",
                  "gaussian:0.8,0.5,0.3", "mixingsum"]
    )
    def test_empirical_vs_true_cdf_agree(self, token, seed):
        us = copulas.sample(copulas.parse_copula(token), 10**5, seed)
        marg = exponential(1.0)
        ts = copulas.to_data(us, marg, marg, marg)
        for a, b in ((0, 1), (0, 2), (1, 2)):
            true_r = spearman_rho(
                rank_transform(ts.x[a], marg), rank_transform(ts.x[b], marg)
            )
            emp_r = spearman_rho(rank_transform(ts.x[a]), rank_transform(ts.x[b]))
            assert abs(true_r - emp_r) < 0.02


class TestConditionalCorr:
    def test_full_mask_equals_pearson(self, rng):
        x, y = rng.normal(size=(2, 500))
        mask = np.ones(500, dtype=bool)
        assert conditional_corr(x, y, mask) == pearson_corr(x, y)

    def test_comonotonic_pair_is_one(self, seed, normal3):
        ts = copulas.to_data(copulas.sample_comonotonic(5000, seed), *normal3)
        mask = ts.x[0] > 0.3
        assert conditional_corr(ts.x[0], ts.x[1], mask) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_too_few_rows(self, rng):
        x, y = rng.normal(size=(2, 100))
        mask = np.zeros(100, dtype=bool)
        mask[:10] = True
        with pytest.raises(InsufficientEventRowsError):
            conditional_corr(x, y, mask)

    def test_degenerate_conditional_column(self, rng):
        x = np.concatenate([np.zeros(50), rng.normal(size=50)])
        y = rng.normal(size=100)
        mask = np.arange(100) < 50
        with pytest.raises(DegenerateColumnError):
            conditional_corr(x, y, mask)

    def test_downside_ordering_between_extremes(self, seed, normal3):
        # the minimum-coskewness structure carries the larger downside correlation
        vals = {}
        for lam in (0.0, 1.0):
            ts = copulas.to_data(copulas.sample_mixture(10**5, lam, seed), *normal3)
            mask = build_event_mask(ts, EventSpec("downside"))
            vals[lam] = conditional_corr(ts.x[0], ts.x[1], mask)
        assert vals[0.0] > vals[1.0]


class TestEventMask:
    def test_downside_fraction_half_for_symmetric_sums(self, seed, normal3):
        # copulas whose coordinate sum is symmetrically distributed
        for token in ("comonotonic", "independence", "gaussian:0.8,0.5,0.3",
                      "mixture:0.5", "mixingsum"):
            us = copulas.sample(copulas.parse_copula(token), 10**5, seed)
            ts = copulas.to_data(us, *normal3)
            mask = build_event_mask(ts, EventSpec("downside"))
            assert abs(mask.mean() - 0.5) < 0.01

    def test_downside_fraction_skews_at_extremes(self, seed, normal3):
        # extremal structures skew the sum: only a quarter of rows fall below
        # the mean at lambda = 0, three quarters at lambda = 1
        ts0 = copulas.to_data(copulas.sample_mixture(10**5, 0.0, seed), *normal3)
        ts1 = copulas.to_data(copulas.sample_mixture(10**5, 1.0, seed), *normal3)
        f0 = build_event_mask(ts0, EventSpec("downside")).mean()
        f1 = build_event_mask(ts1, EventSpec("downside")).mean()
        assert f0 == pytest.approx(0.25, abs=0.01)
        assert f1 == pytest.approx(0.75, abs=0.01)

    def test_exceedance_upper_comonotonic(self, seed, normal3):
        ts = copulas.to_data(copulas.sample_comonotonic(10**5, seed), *normal3)
        mask = build_event_mask(ts, EventSpec("exceed-upper", p=0.5), normal3)
        assert abs(mask.mean() - 0.5) < 0.01

    def test_exceedance_upper_independence(self, seed, normal3):
        ts = copulas.to_data(copulas.sample_independence(10**5, seed), *normal3)
        mask = build_event_mask(ts, EventSpec("exceed-upper", p=0.9), normal3)
        assert abs(mask.mean() - 0.01) < 0.002

    def test_exceedance_empirical_thresholds(self, seed, normal3):
        ts = copulas.to_data(copulas.sample_independence(10**4, seed), *normal3)
        mask = build_event_mask(ts, EventSpec("exceed-lower", p=0.3))
        # empirical quantiles make the per-column crossing fraction exact
        assert mask.mean() == pytest.approx(0.09, abs=0.02)

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_trisample_holds_three_columns(self, d, rng):
        # the shape is the container's rule, so no event mask is ever built
        # from another: downside needs three columns, exceedance two
        with pytest.raises(ValueError, match=r"\(3, n\)"):
            TriSample(rng.normal(size=(d, 100)))

    def test_parse_event(self):
        assert parse_event("downside").kind == "downside"
        ev = parse_event("exceed-upper:0.9")
        assert ev.kind == "exceed-upper" and ev.p == 0.9
        with pytest.raises(DomainError):
            parse_event("sideways")
        with pytest.raises(DomainError):
            parse_event("exceed-upper")
        with pytest.raises(DomainError):
            EventSpec("exceed-upper", p=1.5)
        for bad in ("downside:junk", "downside:0.5", "downside:"):
            with pytest.raises(DomainError, match="takes no parameter"):
                parse_event(bad)

    @pytest.mark.parametrize("token", ["exceed-upper:x", "exceed-lower:0.3.1",
                                       "exceed-upper:0.9%"])
    def test_parse_rejects_a_probability_that_is_not_a_number(self, token):
        with pytest.raises(DomainError, match=re.escape(repr(token))):
            parse_event(token)

    @pytest.mark.parametrize("p", [0.5, 0.0, float("nan")])
    def test_downside_takes_no_p(self, p):
        with pytest.raises(DomainError, match="takes no p"):
            EventSpec("downside", p=p)

    @given(kind=st.sampled_from(["downside", "exceed-upper", "exceed-lower"]),
           p=st.one_of(st.none(), st.floats(allow_nan=True, allow_infinity=True)))
    @example(kind="downside", p=None)
    @example(kind="downside", p=0.5)
    @example(kind="exceed-lower", p=0.1234567)
    @settings(max_examples=300, deadline=None)
    def test_every_valid_spec_reparses_from_its_token(self, kind, p):
        # valid: downside with no p, an exceedance with p in (0, 1)
        valid = p is None if kind == "downside" else p is not None and 0.0 < p < 1.0
        if not valid:
            with pytest.raises(DomainError):
                EventSpec(kind, p)
            return
        spec = EventSpec(kind, p)
        assert parse_event(spec.token) == spec

    @given(ev=st.one_of(
        st.just(EventSpec("downside")),
        st.builds(EventSpec, st.sampled_from(["exceed-upper", "exceed-lower"]),
                  st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
    ))
    @example(ev=EventSpec("exceed-upper", 0.1234567))
    @settings(max_examples=200, deadline=None)
    def test_token_reparses_to_the_same_event(self, ev):
        assert parse_event(ev.token) == ev

    def test_short_probabilities_keep_their_g_text(self):
        # the 6-digit g text, "exceed-upper:0.123457", would not read back
        assert EventSpec("exceed-upper", 0.1234567).token == "exceed-upper:0.1234567"
        assert EventSpec("exceed-lower", 0.9).token == "exceed-lower:0.9"
        assert EventSpec("exceed-upper", 1e-7).token == "exceed-upper:1e-07"


class TestMomentAccumulator:
    @staticmethod
    def _fsum_coskew(x, y, z):
        n = len(x)
        mx, my, mz = (math.fsum(c) / n for c in (x, y, z))
        cx, cy, cz = x - mx, y - my, z - mz
        m3 = math.fsum(cx * cy * cz) / n
        sds = [math.sqrt(math.fsum(c * c) / n) for c in (cx, cy, cz)]
        return m3 / (sds[0] * sds[1] * sds[2])

    # 101-row chunks chain 9,900 merges
    @pytest.mark.parametrize("chunk", [65_536, 101])
    def test_chunked_matches_fsum_oracle(self, rng, chunk):
        n = 10**6
        data = rng.normal(loc=3.0, size=(3, n))
        data[1] += 0.4 * data[0]
        acc = MomentAccumulator(3)
        for start in range(0, n, chunk):
            acc.update(data[:, start : start + chunk])
        want = self._fsum_coskew(*data)
        assert acc.coskew() == pytest.approx(want, rel=1e-12)

    def test_chunking_invariance(self, rng):
        data = rng.normal(size=(3, 10_000))
        whole = MomentAccumulator(3).update(data)
        pieces = MomentAccumulator(3)
        for start in range(0, 10_000, 997):
            pieces.update(data[:, start : start + 997])
        assert pieces.coskew() == pytest.approx(whole.coskew(), rel=1e-13)
        assert pieces.corr() == pytest.approx(whole.corr(), rel=1e-13)

    def test_fixed_chunk_order_is_bit_stable(self, rng):
        data = rng.normal(size=(3, 8192))

        def run():
            acc = MomentAccumulator(3)
            for start in range(0, 8192, 1024):
                acc.update(data[:, start : start + 1024])
            return acc.coskew(), acc.corr(0, 1), tuple(acc.mean)

        assert run() == run()

    def test_merge_matches_sequential(self, rng):
        data = rng.normal(size=(3, 5000))
        left = MomentAccumulator(3).update(data[:, :2000])
        right = MomentAccumulator(3).update(data[:, 2000:])
        left.merge(right)
        whole = MomentAccumulator(3).update(data)
        assert left.coskew() == pytest.approx(whole.coskew(), rel=1e-13)

    def test_shift_stability(self, rng):
        base = rng.normal(size=(3, 4000))
        shifted = base + np.array([[1e4], [-2e4], [3e4]])
        a = MomentAccumulator(3).update(base).coskew()
        b = MomentAccumulator(3).update(shifted).coskew()
        assert b == pytest.approx(a, abs=1e-10)

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_chunk_layout_does_not_change_bits(self, layout, rng):
        # x.T, x[:, mask] and row slices of a wider array reach update as
        # F-ordered or strided chunks; shifted data shows any rounding change
        x = rng.normal(loc=50.0, size=(3, 100_000))
        x[2] += 0.3 * x[0] ** 2
        if layout == "fortran":
            chunk = np.asfortranarray(x)
        else:
            chunk = np.concatenate([x, x], axis=1)[:, 100_000:]
        a, b = MomentAccumulator(3).update(x), MomentAccumulator(3).update(chunk)
        for name in ("mean", "_m2", "_m3"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name

    @given(
        d=st.integers(1, 5),
        n=st.integers(20, 300),
        cuts=st.lists(st.integers(0, 300), max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_moments_match_fsum_oracle(self, d, n, cuts, seed):
        # every second moment and, for three columns, the mixed third moment
        # and the coskewness against fsum; skewed, mixed and shifted
        # columns; repeated cuts give empty chunks.
        # Mixing weights of at least 1/2 and shifts of at most 10 keep each
        # column's mean within ~40 of its spread, so centering, in the oracle
        # as in the accumulator, rounds far below the tolerance
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.5, 2.0, (d, d)) * rng.choice((-1.0, 1.0), (d, d))
        x = weights @ rng.standard_exponential((d, n)) + rng.uniform(-10.0, 10.0, (d, 1))
        edges = [0, *sorted(min(c, n) for c in cuts), n]
        acc = MomentAccumulator(d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a, b in zip(edges, edges[1:]):
                acc.update(x[:, a:b])
        c = x - np.array([math.fsum(col) / n for col in x])[:, None]
        got2 = acc.second_central()
        for i, j in itertools.product(range(d), repeat=2):
            terms = c[i] * c[j]
            scale = math.fsum(np.abs(terms)) / n
            assert abs(got2[i, j] - math.fsum(terms) / n) <= 1e-12 * scale, (i, j)
        assert got2.tobytes() == got2.T.tobytes()  # symmetric bit for bit
        if d != 3:
            return
        terms = c[0] * c[1] * c[2]
        # 1e-12 relative to E|z_0 z_1 z_2|, the scale the sum cancels from
        scale = math.fsum(np.abs(terms)) / n
        got3 = acc._m3 / n
        assert abs(got3 - math.fsum(terms) / n) <= 1e-12 * scale
        s = [math.sqrt(math.fsum(col * col) / n) for col in c]
        want = math.fsum(terms) / n / (s[0] * s[1] * s[2])
        assert acc.coskew() == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_tail_event_coskew_against_an_exact_rational_oracle(self, lam):
        # 43 rows within ~3e-5 of 1: the rounding of their mean is not small
        # beside their spread, so update's sums keep the residual mean
        m = (uniform01(),) * 3
        ts = copulas.to_data(copulas.sample_mixture(10**6, lam, SeedSpec(7, 3)), *m)
        mask = build_event_mask(ts, parse_event("exceed-upper:0.9999"), m)
        x = ts.x[:, mask]
        assert x.shape == (3, 43)
        z = [[Fraction(v) - sum(map(Fraction, c)) / 43 for v in c] for c in x.tolist()]
        m3 = sum(a * b * c for a, b, c in zip(*z)) / 43
        var = [sum(a * a for a in c) / 43 for c in z]
        want = math.copysign(math.sqrt(m3 * m3 / (var[0] * var[1] * var[2])), m3)
        assert abs(estimators.conditional_moments(ts.x, mask).coskew() - want) <= 1e-14

    # a sweep's event accumulator merges its two branches' shifted sums; on
    # this tail both branches' means sit within ~3e-5 of 1, so their rounded
    # difference would carry a relative error of ~1e-11
    TAIL_GRID = (0.0, 0.3, 0.7, 1.0)

    @pytest.fixture(scope="class")
    def tail_sweep_rows(self):
        m = (uniform01(),) * 3
        sweep = mixture_draw(10**6, self.TAIL_GRID, SeedSpec(7, 3)).with_marginals(m)
        return sweep.event_moments(parse_event("exceed-upper:0.9999"))

    @pytest.mark.parametrize("lam", [0.3, 0.7])
    def test_merged_tail_event_corr_against_an_exact_rational_oracle(self, lam, tail_sweep_rows):
        m = (uniform01(),) * 3
        ts = copulas.to_data(copulas.sample_mixture(10**6, lam, SeedSpec(7, 3)), *m)
        x = ts.x[:, build_event_mask(ts, parse_event("exceed-upper:0.9999"), m)]
        _, acc = tail_sweep_rows[self.TAIL_GRID.index(lam)]
        assert acc.n == x.shape[1]
        k = x.shape[1]
        z = [[Fraction(v) - sum(map(Fraction, c)) / k for v in c] for c in x.tolist()]
        for i, j in ((0, 1), (0, 2), (1, 2)):
            m2 = sum(a * b for a, b in zip(z[i], z[j]))
            var = [sum(a * a for a in z[c]) for c in (i, j)]
            want = math.copysign(math.sqrt(m2 * m2 / (var[0] * var[1])), m2)
            assert abs(acc.corr(i, j) - want) <= 1e-14, (i, j)

    @staticmethod
    def _built_three_ways(rng):
        x = rng.standard_t(5, size=(3, 5000)) + np.array([[1e3], [0.0], [-2.0]])
        shift = np.array([1e3, 0.1, -2.0])
        y = x - shift[:, None]
        shifted = MomentAccumulator.from_shifted_sums(
            y.shape[1], shift, y.sum(axis=1), y @ y.T, np.sum(y[0] * y[1] * y[2]))
        merged = MomentAccumulator(3).update(x[:, :1234]).merge(shifted)
        return {"update": MomentAccumulator(3).update(x), "from_shifted_sums": shifted,
                "merge": merged}

    @pytest.mark.parametrize("how", ["update", "from_shifted_sums", "merge"])
    def test_standardized_equals_corr_and_coskew_bytewise(self, how, rng):
        acc = self._built_three_ways(rng)[how]
        sds, r, coskew = acc.standardized()
        s = np.sqrt(np.diag(acc.second_central()))
        assert sds.tobytes() == s.tobytes()
        for i, j in itertools.product(range(3), repeat=2):
            assert r[i, j].tobytes() == np.float64(acc.corr(i, j)).tobytes(), (i, j)
        # coskew() as computed before it read standardized()
        want = float(acc._m3 / acc.n / (s[0] * s[1] * s[2]))
        assert np.float64(coskew).tobytes() == np.float64(want).tobytes()
        assert np.float64(acc.coskew()).tobytes() == np.float64(want).tobytes()

    def test_standardized_raises_what_corr_raises(self, rng):
        one_row = MomentAccumulator(3).update(rng.normal(size=(3, 1)))
        constant = MomentAccumulator(3).update(np.vstack([rng.normal(size=(2, 50)),
                                                          np.full(50, 7.0)]))
        for acc, text in ((one_row, "n >= 2"), (constant, "column 2")):
            with pytest.raises(DegenerateColumnError) as want:
                acc.corr(0, 1)
            assert text in str(want.value)
            for method in (acc.standardized, acc.coskew):
                with pytest.raises(DegenerateColumnError) as got:
                    method()
                assert str(got.value) == str(want.value)

    def test_empty_chunk_leaves_accumulator_unchanged(self, rng):
        acc = MomentAccumulator(3).update(rng.normal(size=(3, 100)))
        names = ("mean", "_m2", "_m3")
        before = [getattr(acc, name).tobytes() for name in names]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            acc.update(np.empty((3, 0)))
            empty = MomentAccumulator(3).update(np.empty((3, 0)))
        assert acc.n == 100 and empty.n == 0
        assert [getattr(acc, name).tobytes() for name in names] == before
        with pytest.raises(DomainError):
            acc.update(np.empty((2, 0)))

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_update_is_from_shifted_sums_around_the_rounded_mean(self, d, rng):
        # one path: a chunk's sums around its rounded mean, centred once
        x = rng.standard_t(5, size=(d, 3001)) + rng.uniform(-50.0, 50.0, (d, 1))
        shift = x.mean(axis=1)
        y = x - shift[:, None]
        s2 = np.array([[np.add.reduce(y[i] * y[j]) for j in range(d)] for i in range(d)])
        s3 = np.add.reduce(y[0] * y[1] * y[2]) if d == 3 else 0.0
        want = MomentAccumulator.from_shifted_sums(x.shape[1], shift, y.sum(axis=1), s2, s3)
        got = MomentAccumulator(d).update(x)
        for name in ("mean", "_m2", "_m3"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_streaming_merge_of_far_means_against_an_exact_rational_oracle(self):
        # means near 1e6 with a spread of 1e-3: each chunk's rounded mean is
        # off by ~1e-10, so a merge must difference the chunks' shifts and
        # residual means, not their rounded means
        rng = np.random.default_rng(11)
        e = 1e-3 * rng.standard_exponential((3, 600))
        e[1:] += 0.5 * e[0]
        x = 1e6 + e
        acc = MomentAccumulator(3)
        for a in range(0, 600, 97):
            acc.update(x[:, a:a + 97])
        n = x.shape[1]
        z = [[Fraction(v) - sum(map(Fraction, c)) / n for v in c] for c in x.tolist()]
        m2 = [[sum(a * b for a, b in zip(z[i], z[j])) for j in range(3)] for i in range(3)]
        for i, j in ((0, 1), (0, 2), (1, 2)):
            want = math.copysign(math.sqrt(m2[i][j] ** 2 / (m2[i][i] * m2[j][j])), m2[i][j])
            assert abs(acc.corr(i, j) - want) <= 1e-14, (i, j)
        m3 = sum(a * b * c for a, b, c in zip(*z))
        want = math.copysign(math.sqrt(m3 * m3 * n / (m2[0][0] * m2[1][1] * m2[2][2])), m3)
        assert abs(acc.coskew() - want) <= 1e-14

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_raises(self, bad, rng):
        x = rng.normal(size=(3, 100))
        x[1, 17] = bad
        mask = np.ones(100, bool)
        for call in (lambda: pearson_corr(x[1], x[0]), lambda: coskewness(*x),
                     lambda: pearson_corr(x[1, 17:18], x[0, 17:18]),  # one row
                     lambda: estimators.conditional_moments(x, mask),
                     lambda: estimators.conditional_moments(x[:2], mask)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no RuntimeWarning on the way
                with pytest.raises(DomainError):
                    call()
        mask[17] = False  # a non-finite row outside the event is never read
        assert np.isfinite(estimators.conditional_moments(x, mask).coskew())

    def test_overflowing_products_raise(self):
        # finite data whose second or third sums leave the float range: a
        # typed error, never an infinite sd or a -0.0 correlation
        cases = [lambda: pearson_corr([1e200, -1e200, 1, 2], [1, 2, 3, 4]),
                 lambda: coskewness([1e155, -1e155, 1, 2, 3], [1, 3, 2, 7, 1], [2, 1, 5, 1, 1]),
                 # each square fits, the triple product does not
                 lambda: coskewness(*np.full((3, 4), 1e120) * [[1, -1, 2, 1]])]
        for call in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no RuntimeWarning on the way
                with pytest.raises(DomainError, match="overflow"):
                    call()
        # just inside the range the statistics still come out
        assert pearson_corr([1e150, -1e150, 1, 2], [1, 2, 3, 4]) == pytest.approx(-1 / math.sqrt(10))

    def test_overflowing_column_sum_raises(self):
        # finite data whose mean overflows: refused as a non-finite shift,
        # with no RuntimeWarning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="finite mean"):
                coskewness([1e308, 1e308, 3.0], [1, 2, 1], [2, 3, 1])

    @pytest.mark.parametrize("where", ["shift", "s2", "s3"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_from_shifted_sums_refuses_non_finite_input(self, where, bad):
        # every accumulator is built here, update's and the sweep kernel's
        # alike, so this one check refuses a non-finite shift (the data held
        # a nan or an infinity) and non-finite sums (products overflowed)
        def sums():
            return {"shift": np.array([0.0, 1.0, 2.0]), "s1": np.array([0.5, -0.5, 1.0]),
                    "s2": np.array([[3.0, 1.0, 0.5], [1.0, 2.0, 0.25], [0.5, 0.25, 4.0]]),
                    "s3": 0.75}

        assert np.isfinite(MomentAccumulator.from_shifted_sums(4, **sums()).coskew())
        args = sums()
        if where == "shift":
            args["shift"][1] = bad
        elif where == "s2":
            args["s2"][0, 2] = args["s2"][2, 0] = bad
        else:
            args["s3"] = bad
        match = "finite data" if where == "shift" else "overflow"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            with pytest.raises(DomainError, match=match):
                MomentAccumulator.from_shifted_sums(4, **args)

    def test_dimension_mismatch(self, rng):
        acc = MomentAccumulator(3)
        with pytest.raises(DomainError):
            acc.update(rng.normal(size=(2, 10)))
        with pytest.raises(DomainError):
            acc.merge(MomentAccumulator(2))
        for d in (1, 2, 4):  # coskewness is the mixed moment of three columns
            with pytest.raises(DomainError):
                MomentAccumulator(d).update(rng.normal(size=(d, 100))).coskew()
