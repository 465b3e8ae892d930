import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from coskew import copulas, experiments
from coskew.copulas import (
    CopulaSpec,
    GaussianParams,
    extremal_coords,
    gaussian_correlate,
    gaussian_scores,
    gaussian_z,
    mixing_sum_coords,
    mixture_draw,
    mixture_sweep,
    parse_copula,
    sample,
    sample_comonotonic,
    sample_data,
    sample_gaussian,
    sample_independence,
    sample_max_coskew,
    sample_min_coskew,
    sample_mixing_sum,
    sample_mixture,
    to_data,
)
from coskew.errors import DomainError, InvalidCorrelationError
from coskew.estimators import (
    MomentAccumulator,
    rank_coskewness,
    rank_transform,
    spearman_rho,
)
from coskew.marginals import Marginal, parse_marginal, standard_normal, uniform01
from coskew.samples import SeedSpec, USample, substream

NDTRI_07 = 0.5244005127080407  # scipy.special.ndtri(0.7)

ALL_TOKENS = [
    "comonotonic",
    "independence",
    "max",
    "min",
    "mixture:0.3",
    "mixingsum",
    "gaussian:0.8,0.5,0.3",
]


def _moment_se(n):
    # 4-sigma tolerances for mean 1/2 and variance 1/12 of a uniform
    return 4 * math.sqrt(1 / 12 / n), 4 * math.sqrt(1 / 180 / n)


class TestExtremalRows:
    # hand evaluations of the indicator constructions
    @pytest.mark.parametrize(
        "u,v,expected",
        [
            (0.7, 0.8, (0.7, 0.7, 0.7)),
            (0.7, 0.3, (0.7, 0.3, 0.3)),
            (0.2, 0.8, (0.2, 0.2, 0.8)),
            (0.2, 0.2, (0.2, 0.8, 0.2)),
        ],
    )
    def test_max_rows(self, u, v, expected):
        u2, u3 = extremal_coords(u, v)
        assert (u, float(u2), float(u3)) == pytest.approx(expected)

    @pytest.mark.parametrize(
        "u,v,expected",
        [
            (0.7, 0.8, (0.7, 0.7, 0.3)),
            (0.2, 0.2, (0.2, 0.8, 0.8)),
            (0.7, 0.3, (0.7, 0.3, 0.7)),
        ],
    )
    def test_min_rows(self, u, v, expected):
        u2, u3_max = extremal_coords(u, v)
        assert (u, float(u2), float(1.0 - u3_max)) == pytest.approx(expected)

    def test_tie_at_half_falls_in_lower_branch(self):
        # u = v = 0.5 means I = J = 0
        u2, u3_max = extremal_coords(0.5, 0.5)
        assert (float(u2), float(u3_max)) == (0.5, 0.5)
        u2, u3_max = extremal_coords(0.3, 0.5)
        assert float(u2) == 0.7  # J = 0 flips

    def test_structure_u2_u3_in_reflection_pair(self, seed):
        for us in (
            sample_max_coskew(5000, seed),
            sample_min_coskew(5000, seed),
            sample_mixture(5000, 0.37, seed),
        ):
            for col in (us.u[1], us.u[2]):
                assert np.all((col == us.u[0]) | (col == 1.0 - us.u[0]))


class TestMixture:
    def test_endpoints_bit_identical(self, seed):
        mx = sample_max_coskew(4096, seed)
        mn = sample_min_coskew(4096, seed)
        assert np.array_equal(sample_mixture(4096, 1.0, seed).u, mx.u)
        assert np.array_equal(sample_mixture(4096, 0.0, seed).u, mn.u)

    def test_branch_fraction_tracks_lambda(self, seed):
        n = 10**5
        mx = sample_max_coskew(n, seed)
        us = sample_mixture(n, 0.5, seed)
        frac = np.mean(us.u[2] == mx.u[2])
        assert abs(frac - 0.5) < 3 * math.sqrt(0.25 / n)

    def test_lambda_sweep_is_monotone_pathwise(self, seed):
        # raising lambda can only flip rows from the min branch to the max branch
        n = 20_000
        mx = sample_max_coskew(n, seed)
        prev = None
        for lam in np.linspace(0, 1, 7):
            on_max = sample_mixture(n, lam, seed).u[2] == mx.u[2]
            if prev is not None:
                assert np.all(on_max | ~prev)  # no row ever flips back
            prev = on_max

    def test_lambda_domain(self, seed):
        with pytest.raises(DomainError):
            sample_mixture(10, 1.5, seed)
        with pytest.raises(DomainError):
            sample_mixture(10, -0.1, seed)


class TestMixtureSweep:
    GRID = (0.0, 0.1, 0.25, 0.5, 0.5, 0.8, 0.999, 1.0)
    MARGIN_SETS = [
        "normal,normal,normal", "t:5,t:5,t:5", "laplace,laplace,laplace",
        "exp:2,exp:2,exp:2", "uniform,uniform,uniform", "t:5,laplace,exp:2",
        "t:3.05,normal,t:3.05",
    ]

    @pytest.mark.parametrize("margins", MARGIN_SETS)
    def test_matches_per_lambda_path_bit_for_bit(self, margins, seed):
        # sample_data builds one mixture sample in row order from the
        # sweep's branch columns
        m = tuple(parse_marginal(t) for t in margins.split(","))
        for lam in self.GRID:
            ts = sample_data(CopulaSpec("mixture", lam=lam), 3000, m, seed)
            ref = to_data(sample_mixture(3000, lam, seed), *m)
            # bytes, not values: -0.0 == 0.0 but prints as "-0"
            assert ts.x.tobytes() == ref.x.tobytes(), lam
            assert ts.seed == seed

    @pytest.mark.parametrize("margins", MARGIN_SETS)
    def test_columns_are_the_reference_in_stable_bin_order(self, margins, seed):
        # bins counted here from the grid and the selector, independently of
        # the sweep; both branches' x3 come from the lambda = 1 and 0 samples
        m = tuple(parse_marginal(t) for t in margins.split(","))
        sweep = mixture_sweep(3000, self.GRID, m, seed)
        h = substream(seed, copulas._OFF_B).random(3000)
        bins = (h[:, None] >= np.unique(self.GRID)).sum(axis=1)
        order = np.argsort(bins, kind="stable")
        hi = to_data(sample_mixture(3000, 1.0, seed), *m).x[:, order]
        lo = to_data(sample_mixture(3000, 0.0, seed), *m).x[:, order]
        for got, want in ((sweep.x1, hi[0]), (sweep.x2, hi[1]), (sweep.hi3, hi[2]),
                          (sweep.lo3, lo[2])):
            assert got.tobytes() == want.tobytes()
        assert np.array_equal(lo[:2], hi[:2])
        for lam, cut in zip(self.GRID, sweep.max_rows()):
            assert cut == np.count_nonzero(h < lam), lam
            assert np.all(h[order][:cut] < lam) and np.all(h[order][cut:] >= lam)
        assert sweep.seed == seed

    @pytest.mark.parametrize(
        "margins,calls",
        [("normal,normal,normal", 1), ("exp:1,exp:1,exp:1", 2), ("t:5,laplace,exp:2", 4)],
    )
    def test_inverts_each_marginal_once(self, margins, calls, seed, monkeypatch):
        # one quantile call per distinct marginal, two for a non-symmetric one
        made = []
        quantile = Marginal.quantile

        def counted(m, p):
            made.append(m)
            return quantile(m, p)

        monkeypatch.setattr(Marginal, "quantile", counted)
        m = tuple(parse_marginal(t) for t in margins.split(","))
        mixture_sweep(3000, self.GRID, m, seed)
        assert len(made) == calls

    @pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
    def test_lambda_domain(self, bad, seed):
        with pytest.raises(DomainError):
            mixture_sweep(10, (0.5, bad), (standard_normal(),) * 3, seed)

    def test_one_draw_serves_every_marginal_triple(self, seed):
        # each triple's columns from one shared draw equal a sweep of its
        # own, bit for bit, and neither the columns nor the ranks read
        # between them alter the held draw
        draw = mixture_draw(3000, self.GRID, seed)
        held = [draw.u.copy(), draw.flip2.copy(), draw.flip3.copy()]
        ranks = draw.rank_stats()
        for margins in ("normal,normal,normal", "t:5,t:5,t:5", "exp:1,exp:1,exp:1"):
            m = tuple(parse_marginal(t) for t in margins.split(","))
            got, want = draw.with_marginals(m), mixture_sweep(3000, self.GRID, m, seed)
            assert got.lams == want.lams and got.seed == want.seed
            for field in ("grid", "edges", "x1", "x2", "hi3", "lo3"):
                a, b = getattr(got, field), getattr(want, field)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (margins, field)
            assert draw.rank_stats().tobytes() == ranks.tobytes()
        for a, b in zip(held, (draw.u, draw.flip2, draw.flip3)):
            assert a.tobytes() == b.tobytes()


def _assert_moments_match(acc, ref):
    # 1e-12 relative; the absolute floor serves a lambda whose coskewness
    # or correlation lies within ~1e-4 of zero, where merging and a one-shot
    # reduction round differently by ~1e-16
    assert acc.n == ref.n
    close = dict(rel=1e-12, abs=1e-13)
    assert acc.coskew() == pytest.approx(ref.coskew(), **close)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert acc.corr(i, j) == pytest.approx(ref.corr(i, j), **close)


class TestSweepMoments:
    # per-lambda accumulators merged from per-bin ones must match a one-shot
    # reduction of each lambda's sample; grid points equal to a selector
    # value put rows exactly on a bin edge, where h < lam decides the branch
    N = 1000
    SEED = SeedSpec(11, 2)
    MARGINS = (standard_normal(),) * 3
    H = substream(SEED, copulas._OFF_B).random(N)  # the sweep's selector
    POINT = st.one_of(
        st.sampled_from([0.0, 1.0, 0.5]),
        st.floats(0.0, 1.0),
        st.integers(0, N - 1).map(lambda k: float(TestSweepMoments.H[k])),
    )

    @given(grid=st.lists(POINT, max_size=8))
    @example(grid=[])
    @example(grid=[0.0])
    @example(grid=[1.0])
    @example(grid=[0.7, 0.2, 0.7, 0.0, 1.0, 0.2])
    @example(grid=[0.3, 0.3 + 1e-9, 0.3 + 2e-9, 0.9])  # empty bins
    @example(grid=[float(H[0]), 0.5, float(H[1])])  # a row on each bin edge
    @settings(max_examples=60, deadline=None)
    def test_matches_one_shot_reduction(self, grid):
        sweep = mixture_sweep(self.N, grid, self.MARGINS, self.SEED)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty bin must reduce silently
            accs = sweep.moments()
        assert len(accs) == len(grid)
        for lam, acc in zip(grid, accs):
            ts = to_data(sample_mixture(self.N, lam, self.SEED), *self.MARGINS)
            _assert_moments_match(acc, MomentAccumulator(3).update(ts.x))

    def test_heavy_tails_at_a_million_rows(self):
        # the sweep's columns are the per-lambda path's in bin order
        # (TestMixtureSweep); reducing each lambda's rows in one shot is the
        # oracle here
        m = (parse_marginal("t:3.05"),) * 3
        sweep = mixture_sweep(1_000_000, (0.0, 0.25, 0.5, 0.5, 1.0, 0.75), m, self.SEED)
        for cut, acc in zip(sweep.max_rows(), sweep.moments()):
            x3 = np.concatenate([sweep.hi3[:cut], sweep.lo3[cut:]])
            _assert_moments_match(acc, MomentAccumulator(3).update(
                np.stack([sweep.x1, sweep.x2, x3])))


class TestSweepRankStats:
    # the per-bin rank sums must match the true-CDF ranks of each lambda's
    # sample under non-symmetric margins, taken through quantile and CDF
    N = TestSweepMoments.N
    SEED = TestSweepMoments.SEED
    EXP3 = (parse_marginal("exp:1"),) * 3

    @classmethod
    def oracle(cls, lam):
        ts = to_data(sample_mixture(cls.N, lam, cls.SEED), *cls.EXP3)
        r = [rank_transform(x, m) for x, m in zip(ts.x, cls.EXP3)]
        return [spearman_rho(r[0], r[1]), spearman_rho(r[0], r[2]),
                spearman_rho(r[1], r[2]), rank_coskewness(*r)]

    @given(grid=st.lists(TestSweepMoments.POINT, max_size=8))
    @example(grid=[])
    @example(grid=[0.0])
    @example(grid=[1.0])
    @example(grid=[0.7, 0.2, 0.7, 0.0, 1.0, 0.2])
    @example(grid=[0.3, 0.3 + 1e-9, 0.3 + 2e-9, 0.9])  # empty bins
    @example(grid=[float(TestSweepMoments.H[0]), 0.5, float(TestSweepMoments.H[1])])
    @settings(max_examples=60, deadline=None)
    def test_matches_per_lambda_ranks(self, grid):
        draw = mixture_draw(self.N, grid, self.SEED)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty bin must sum silently
            stats = draw.rank_stats()
        assert stats.shape == (len(grid), 4)
        for lam, row in zip(grid, stats):
            np.testing.assert_allclose(row, self.oracle(lam), rtol=0, atol=1e-13)

    def test_rank_coskewness_spans_its_range(self):
        # at a million rows the ends sit within a few standard errors of -1
        # and +1, and the rank correlations of zero
        stats = mixture_draw(10**6, (0.0, 1.0), self.SEED).rank_stats()
        np.testing.assert_allclose(stats[:, 3], [-1.0, 1.0], atol=0.01)
        np.testing.assert_allclose(stats[:, :3], 0.0, atol=0.01)


class TestQuantilePair:
    # the pair must equal to_data's clamped quantiles on the k/2^53 grid, and
    # a symmetric marginal must get there by reflection alone: the clamp is
    # the grid's own ends, so it moves no k, and at k = 2^52 (u = 1/2)
    # Laplace's direct quantile is +0.0 like its reflection.  9007 and
    # 2^53 - 9007 straddle where a 1e-12 clamp would move rows
    @pytest.mark.parametrize(
        "token",
        ["normal", "uniform", "laplace", "exp:2",
         "t:3.0001", "t:3.05", "t:5", "t:30", "t:1e9"],
    )
    @given(k=st.integers(1, 2**53 - 1))
    @example(k=1)
    @example(k=9007)
    @example(k=9008)
    @example(k=2**52 - 1)
    @example(k=2**52)
    @example(k=2**52 + 1)
    @example(k=2**53 - 9008)
    @example(k=2**53 - 9007)
    @example(k=2**53 - 1)
    @settings(max_examples=100, deadline=None)
    def test_pair_equals_direct_quantile(self, token, k):
        m = parse_marginal(token)
        u = np.array([k]) / 2**53
        x, y = copulas._quantile_pair(m, u)
        clamp = copulas.U_MIN
        assert x.tobytes() == m.quantile(np.clip(u, clamp, 1.0 - clamp)).tobytes()
        assert y.tobytes() == m.quantile(np.clip(1.0 - u, clamp, 1.0 - clamp)).tobytes()
        assert x.tobytes() == m.quantile(u).tobytes()
        if m.symmetric:
            assert y.tobytes() == (2.0 * m.mean - x).tobytes()


class TestMixingSum:
    @pytest.mark.parametrize(
        "u,expected",
        [(0.25, (0.25, 0.5, 0.75)), (0.75, (0.75, 0.5, 0.25)), (0.5, (0.5, 0.0, 1.0))],
    )
    def test_hand_rows(self, u, expected):
        u2, u3 = mixing_sum_coords(u)
        assert (u, float(u2), float(u3)) == pytest.approx(expected)

    def test_rows_sum_to_three_halves(self, seed):
        us = sample_mixing_sum(10**5, seed)
        sums = us.u.sum(axis=0)
        assert np.max(np.abs(sums - 1.5)) < 1e-12


class TestGaussian:
    def test_params_validation(self):
        p = GaussianParams(0.8, 0.5, 0.3)
        assert p.b_squared == pytest.approx(0.26, abs=1e-12)
        with pytest.raises(InvalidCorrelationError):
            GaussianParams(0.9, 0.9, -0.9)
        with pytest.raises(DomainError):
            GaussianParams(1.0, 0.0, 0.0)

    def test_zero_corr_is_independent_uniforms(self, seed):
        us = sample_gaussian(10**5, GaussianParams(0.0, 0.0, 0.0), seed)
        tol_m, tol_v = _moment_se(us.n)
        for col in us.u:
            assert abs(col.mean() - 0.5) < tol_m
            assert abs(col.var() - 1 / 12) < tol_v
        for a, b in ((0, 1), (0, 2), (1, 2)):
            r = np.corrcoef(us.u[a], us.u[b])[0, 1]
            assert abs(r) < 4 / math.sqrt(us.n)

    @pytest.mark.parametrize("rho", [(0.0, 0.0, 0.0), (0.8, 0.5, 0.3), (-0.5, 0.4, -0.3)])
    def test_sample_is_the_cdf_of_the_scores(self, rho):
        # bit for bit, and equal to the three-normal construction taken
        # column by column
        params, seed = GaussianParams(*rho), SeedSpec(7, 3)
        h = gaussian_scores(2000, params, seed)
        assert sample_gaussian(2000, params, seed).u.tobytes() == special.ndtr(h).tobytes()
        z = substream(seed, 0).standard_normal((3, 2000))
        want = [z[0], params.rho12 * z[0] + params.a * z[1],
                params.rho13 * z[0]
                + (params.rho23 - params.rho12 * params.rho13) / params.a * z[1]
                + params.b / params.a * z[2]]
        assert h.tobytes() == np.stack(want).tobytes()

    def test_one_z_serves_every_triple(self):
        # verify combines one draw of Z for all its triples; each must equal
        # the triple's own gaussian_scores bit for bit, and leave Z as drawn
        seed = SeedSpec(7, 3)
        z = gaussian_z(2000, seed)
        drawn = z.copy()
        for rho in experiments._GAUSS_TRIPLES:
            params = GaussianParams(*rho)
            got = gaussian_correlate(z, params)
            assert got.tobytes() == gaussian_scores(2000, params, seed).tobytes(), rho
        assert z.tobytes() == drawn.tobytes()

    def test_recovers_requested_correlations(self, seed):
        rho = (0.8, 0.5, 0.3)
        us = sample_gaussian(10**5, GaussianParams(*rho), seed)
        z = special.ndtri(us.u)
        for (a, b), target in zip(((0, 1), (0, 2), (1, 2)), rho):
            r = np.corrcoef(z[a], z[b])[0, 1]
            se = (1 - target**2) / math.sqrt(us.n)
            assert abs(r - target) < 4 * se


class TestMarginUniformity:
    @pytest.mark.parametrize("token", ALL_TOKENS)
    def test_columns_uniform(self, token, seed):
        us = sample(parse_copula(token), 10**5, seed)
        tol_m, tol_v = _moment_se(us.n)
        assert np.all(us.u >= 0.0) and np.all(us.u <= 1.0)
        for col in us.u:
            assert abs(col.mean() - 0.5) < tol_m
            assert abs(col.var() - 1 / 12) < tol_v


class TestDeterminism:
    @pytest.mark.parametrize("token", ALL_TOKENS)
    def test_same_seed_bit_identical(self, token):
        spec = parse_copula(token)
        a = sample(spec, 2000, SeedSpec(99, 5))
        b = sample(spec, 2000, SeedSpec(99, 5))
        assert np.array_equal(a.u, b.u)

    def test_distinct_streams_uncorrelated(self):
        n = 10**5
        a = sample_max_coskew(n, SeedSpec(99, 0))
        b = sample_max_coskew(n, SeedSpec(99, 1))
        assert not np.array_equal(a.u[0], b.u[0])
        r = np.corrcoef(a.u[0], b.u[0])[0, 1]
        assert abs(r) < 4 / math.sqrt(n)

    def test_draws_strictly_inside_unit_interval(self, seed):
        us = sample_independence(10**5, seed)
        assert np.all(us.u > 0.0) and np.all(us.u < 1.0)


class TestComonotonicIndependence:
    def test_comonotonic_columns_equal(self, seed):
        us = sample_comonotonic(1000, seed)
        assert np.array_equal(us.u[0], us.u[1])
        assert np.array_equal(us.u[0], us.u[2])

    def test_spearman_endpoints(self, seed):
        from coskew.estimators import spearman_rho

        us = sample_comonotonic(10**5, seed)
        assert spearman_rho(us.u[0], us.u[1]) == pytest.approx(1.0, abs=0.02)
        ind = sample_independence(10**5, seed)
        for a, b in ((0, 1), (0, 2), (1, 2)):
            assert abs(spearman_rho(ind.u[a], ind.u[b])) < 4 / math.sqrt(ind.n)


class TestToData:
    def test_uniform_identity(self, seed):
        us = sample_mixture(500, 0.4, seed)
        ts = to_data(us, uniform01(), uniform01(), uniform01())
        np.testing.assert_array_equal(ts.x, us.u)

    def test_normal_median_and_row(self):
        us = USample(np.array([[0.5, 0.7], [0.5, 0.7], [0.5, 0.7]]))
        ts = to_data(us, *((standard_normal(),) * 3))
        assert np.max(np.abs(ts.x[:, 0])) < 1e-13
        np.testing.assert_allclose(ts.x[:, 1], NDTRI_07, atol=1e-12)

    def test_endpoint_clamping(self):
        us = USample(np.array([[0.0, 1.0], [0.5, 0.5], [0.25, 0.75]]))
        ts = to_data(us, *((standard_normal(),) * 3))
        assert np.all(np.isfinite(ts.x))

    def test_grid_ends_pass_through(self):
        # the clamp is the k/2^53 grid's own ends: 2^-53 and 1 - 2^-53 stay
        # put, and exact 0 and 1 land on them
        lo, hi = 2.0**-53, 1.0 - 2.0**-53
        us = USample(np.array([[lo, hi, 0.0, 1.0]] * 3))
        np.testing.assert_array_equal(to_data(us, *((uniform01(),) * 3)).x[0],
                                      [lo, hi, lo, hi])
        x = to_data(us, *((standard_normal(),) * 3)).x[0]
        assert x[0] == special.ndtri(lo) == pytest.approx(-8.2095, abs=1e-4)
        assert x[1] == special.ndtri(hi)
        assert x[2:].tobytes() == x[:2].tobytes()
        assert x[2] == -x[3]

    def test_seed_propagates(self, seed):
        us = sample_comonotonic(10, seed)
        ts = to_data(us, uniform01(), uniform01(), uniform01())
        assert ts.seed == seed


class TestSampleData:
    @pytest.mark.parametrize("margins", ["normal,normal,normal", "uniform,uniform,uniform",
                                         "t:5,laplace,exp:2"])
    @pytest.mark.parametrize("token", ALL_TOKENS)
    def test_equals_to_data_bit_for_bit(self, token, margins, seed):
        spec = parse_copula(token)
        m = tuple(parse_marginal(t) for t in margins.split(","))
        ts = sample_data(spec, 3000, m, seed)
        ref = to_data(sample(spec, 3000, seed), *m)
        assert ts.x.tobytes() == ref.x.tobytes()
        assert ts.seed == seed

    @pytest.mark.parametrize("token", ["max", "min", "mixture:0.75"])
    def test_extremal_copulas_invert_a_shared_marginal_once(self, token, seed, monkeypatch):
        made = []
        quantile = Marginal.quantile

        def counted(m, p):
            made.append(m)
            return quantile(m, p)

        monkeypatch.setattr(Marginal, "quantile", counted)
        sample_data(parse_copula(token), 3000, (standard_normal(),) * 3, seed)
        assert len(made) == 1


class TestSpecParsing:
    def test_tokens_roundtrip(self):
        for token in ALL_TOKENS:
            assert parse_copula(token).token == token

    RHO = st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)

    @given(spec=st.one_of(
        st.sampled_from([CopulaSpec(kind) for kind in
                         ("comonotonic", "independence", "max", "min", "mixingsum")]),
        st.floats(0.0, 1.0).map(lambda lam: CopulaSpec("mixture", lam=lam)),
        st.tuples(RHO, RHO, RHO)
        .filter(lambda r: 1.0 - r[0]**2 - r[1]**2 - r[2]**2 + 2.0 * r[0] * r[1] * r[2] >= 0.0)
        .map(lambda r: CopulaSpec("gaussian", gaussian=GaussianParams(*r))),
    ))
    @example(spec=CopulaSpec("mixture", lam=0.1234567))
    @example(spec=CopulaSpec("gaussian", gaussian=GaussianParams(0.1 + 0.2, 0.5, -1 / 3)))
    @settings(max_examples=200, deadline=None)
    def test_token_reparses_to_the_same_spec(self, spec):
        assert parse_copula(spec.token) == spec

    def test_short_parameters_keep_their_g_text(self):
        # the 6-digit g text, "mixture:0.123457", would not read back
        assert CopulaSpec("mixture", lam=0.1234567).token == "mixture:0.1234567"
        assert [parse_copula(t).token for t in ("mixture:1", "mixture:0", "mixture:1e-07")] == \
            ["mixture:1", "mixture:0", "mixture:1e-07"]

    def test_rejects_bad_tokens(self):
        for bad in ("clayton", "mixture", "gaussian:0.5", "mixture:2"):
            with pytest.raises(DomainError):
                parse_copula(bad)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            CopulaSpec("mixture", lam=None)
        with pytest.raises(DomainError):
            CopulaSpec("gaussian")

    def test_invalid_n(self, seed):
        with pytest.raises(DomainError):
            sample_comonotonic(0, seed)

    def test_usample_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            USample(np.array([[0.5, 1.2], [0.5, 0.5], [0.5, 0.5]]))
