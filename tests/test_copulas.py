import ast
import dataclasses
import math
import re
import types
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special

import coskew.sweep
from coskew import copulas, experiments
from coskew.copulas import (
    CopulaSpec,
    GaussianParams,
    gaussian_correlate,
    gaussian_z,
    mixing_sum_coords,
    parse_copula,
    sample,
    sample_comonotonic,
    sample_gaussian,
    sample_independence,
    sample_max_coskew,
    sample_min_coskew,
    sample_mixing_sum,
    sample_mixture,
    to_data,
)
from coskew.errors import DomainError, InsufficientEventRowsError, InvalidCorrelationError
from coskew.estimators import (
    MIN_EVENT_ROWS,
    MomentAccumulator,
    build_event_mask,
    conditional_moments,
    parse_event,
    rank_coskewness,
    rank_transform,
    spearman_rho,
)
from coskew.marginals import Marginal, parse_marginal, standard_normal, uniform01
from coskew.samples import SeedSpec, TriSample, USample, substream, uniform_open
from coskew.sweep import mixture_draw

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


# values in [0, 1]: any finite float, exact halves, and the samplers'
# k/2^53 grid near its ends and near 1/4 and 1/2
_GRID_K = st.sampled_from([1, 2**51, 2**52, 2**53 - 1]).flatmap(
    lambda k: st.integers(max(0, k - 10**4), min(2**53, k + 10**4)))
_UNIT = st.one_of(st.floats(0.0, 1.0), st.just(0.5), _GRID_K.map(lambda k: k / 2**53))


def extremal_coords(u, v):
    """Second and third coordinates of the extremal constructions at (u, v),
    the samplers' reference for any u.

    Returns (u2, u3_max); the minimum-coskewness third coordinate is the
    reflection 1 - u3_max.  Ties at exactly 1/2 fall in the I = 0 (J = 0)
    branch, matching the strict inequality in the indicators.  Each is the
    ``np.where`` select between u and 1 - u.  The samplers flip the sign of
    u - 1/2 instead, which gives the same bits only where u - 1/2 is exact,
    as on their k/2^53 grid (``copulas._flipped_rows``).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    i = u > 0.5
    j = v > 0.5
    w = 1.0 - u
    return np.where(j, u, w), np.where(i == j, u, w)


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

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_UNIT, _UNIT), min_size=1, max_size=40))
    @example([(0.5, 0.5), (0.5, 0.7), (0.3, 0.5), (0.0, 1.0), (1.0, 0.0)])
    @example([(1 / 2**53, 0.5), (1 - 2**-53, 0.5), (0.5 - 2**-54, 0.5 + 2**-53)])
    def test_scalar_inputs_equal_the_where_select_bytewise(self, pairs):
        for k, (a, b) in enumerate(pairs):  # one 0-d input at a time
            want = np.where(b > 0.5, a, 1.0 - a), np.where((a > 0.5) == (b > 0.5), a, 1.0 - a)
            for got, w in zip(extremal_coords(a, b), want):
                assert np.float64(got).tobytes() == w.tobytes(), k

    @pytest.mark.parametrize("lam", [0.0, 0.37, 1.0])
    def test_mixture_select_equals_the_where_select(self, lam, seed):
        u, u2, u3_max = sample_max_coskew(5000, seed).u
        h = substream(seed, copulas._OFF_B).random(5000)
        got = sample_mixture(5000, lam, seed).u
        assert got[2].tobytes() == np.where(h < lam, u3_max, 1.0 - u3_max).tobytes()
        assert got[:2].tobytes() == np.stack([u, u2]).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(0, 3),
           st.sampled_from([1, 2, 3, 4097, 16385]),
           st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0),
                     st.integers(0, 2**53).map(lambda k: k / 2**53)))
    @example(314159, 0, 16385, 0.5)
    def test_samplers_equal_the_reference_rows_bytewise(self, base, stream, n, lam):
        # the sign-flip renderer against extremal_coords and the np.where
        # pick of the selector, on the samplers' own draws
        seed = SeedSpec(base, stream)
        u = uniform_open(substream(seed, copulas._OFF_U), n)
        u2, u3_max = extremal_coords(u, uniform_open(substream(seed, copulas._OFF_V), n))
        h = substream(seed, copulas._OFF_B).random(n)
        want = {
            "max": np.stack([u, u2, u3_max]),
            "min": np.stack([u, u2, 1.0 - u3_max]),
            "mixture": np.stack([u, u2, np.where(h < lam, u3_max, 1.0 - u3_max)]),
        }
        got = {"max": sample_max_coskew(n, seed), "min": sample_min_coskew(n, seed),
               "mixture": sample_mixture(n, lam, seed)}
        for kind, us in got.items():
            assert us.u.tobytes() == want[kind].tobytes(), kind

    @pytest.mark.parametrize("flip2", [False, True])
    @pytest.mark.parametrize("flip3", [False, True])
    def test_renderer_on_hand_built_grid_values(self, flip2, flip3):
        # the median, the grid's ends and the grid values either side of 1/4,
        # where u - 1/2 changes binade
        u = np.array([0.5, 2**-53, 1 - 2**-53, 0.25 - 2**-53, 0.25, 0.25 + 2**-53,
                      0.75 - 2**-53, 0.75 + 2**-53])
        rows = copulas._flipped_rows(u, np.full(u.size, flip2), np.full(u.size, flip3))
        assert rows[0].tobytes() == u.tobytes()
        for row, flip in zip(rows[1:], (flip2, flip3)):
            assert row.tobytes() == (1.0 - u if flip else u).tobytes()
        assert rows[1:, 0].tobytes() == np.array([0.5, 0.5]).tobytes()  # +0.5 either way

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


def _draw_order(n, grid, seed):
    """The selector h and the draw's row order, computed here from h, the
    grid and the max sample: stably by selector bin, then whether u2 is
    flipped, then whether u3_max is."""
    h = substream(seed, copulas._OFF_B).random(n)
    bins = (h[:, None] >= np.unique(grid)).sum(axis=1)
    u, u2, u3 = sample_max_coskew(n, seed).u
    return h, np.lexsort((u3 != u, u2 != u, bins))


def lambda_samples(sweep):
    """Each lambda's sample of a MixtureSweep, in order, as a TriSample in
    the draw's row order, the tests' oracle: x3 is the max branch's hi3 on
    the rows of the bins below lambda's grid point and the min branch's lo3
    on the rest, each sample built anew."""
    for cut in sweep.draw.edges[sweep.draw.points + 1]:
        x3 = np.concatenate([sweep.hi3[:cut], sweep.lo3[cut:]])
        yield TriSample(np.stack([sweep.x1, sweep.x2, x3]), sweep.draw.seed)


class TestMixtureSweep:
    GRID = (0.0, 0.1, 0.25, 0.5, 0.5, 0.8, 0.999, 1.0)
    MARGIN_SETS = [
        "normal,normal,normal", "t:5,t:5,t:5", "laplace,laplace,laplace",
        "exp:2,exp:2,exp:2", "uniform,uniform,uniform", "t:5,laplace,exp:2",
        "t:3.05,normal,t:3.05",
    ]

    @pytest.mark.parametrize("margins", MARGIN_SETS)
    def test_matches_per_lambda_path_bit_for_bit(self, margins, seed):
        # each lambda's sample from the sweep is that lambda's reference
        # sample in the draw's (bin, flip2, flip3) row order
        m = tuple(parse_marginal(t) for t in margins.split(","))
        sweep = mixture_draw(3000, self.GRID, seed).with_marginals(m)
        _, order = _draw_order(3000, self.GRID, seed)
        count = 0
        for lam, ts in zip(self.GRID, lambda_samples(sweep)):
            ref = to_data(sample_mixture(3000, lam, seed), *m).x[:, order]
            # bytes, not values: -0.0 == 0.0 but prints as "-0"
            assert ts.x.tobytes() == ref.tobytes(), lam
            assert ts.seed == seed
            count += 1
        assert count == len(self.GRID)

    @pytest.mark.parametrize("margins", ["normal,normal,normal", "t:5,laplace,exp:2"])
    def test_refill_serves_any_lambda_order(self, margins, seed):
        # each lambda's cut, read off the draw's points and edges in any
        # lambda order: the cut moves down, up and not at all here, over
        # bins of more than one kernel block
        lams = (0.7, 0.2, 0.7, 1.0, 0.0)
        n = 2 * coskew.sweep._BLOCK + 5
        m = tuple(parse_marginal(t) for t in margins.split(","))
        _, order = _draw_order(n, lams, seed)
        sweep = mixture_draw(n, lams, seed).with_marginals(m)
        got = [ts.x.tobytes() for ts in lambda_samples(sweep)]
        assert got == [to_data(sample_mixture(n, lam, seed), *m).x[:, order].tobytes()
                       for lam in lams]

    @pytest.mark.parametrize("margins", MARGIN_SETS)
    def test_columns_are_the_reference_in_stable_bin_order(self, margins, seed):
        # the row order computed here from the grid, the selector and the
        # flips, independently of the sweep; both branches' x3 come from the
        # lambda = 1 and 0 samples
        m = tuple(parse_marginal(t) for t in margins.split(","))
        sweep = mixture_draw(3000, self.GRID, seed).with_marginals(m)
        h, order = _draw_order(3000, self.GRID, seed)
        hi = to_data(sample_mixture(3000, 1.0, seed), *m).x[:, order]
        lo = to_data(sample_mixture(3000, 0.0, seed), *m).x[:, order]
        for got, want in ((sweep.x1, hi[0]), (sweep.x2, hi[1]), (sweep.hi3, hi[2]),
                          (sweep.lo3, lo[2])):
            assert got.tobytes() == want.tobytes()
        assert np.array_equal(lo[:2], hi[:2])
        for lam, ts in zip(self.GRID, lambda_samples(sweep)):
            # x3 is the max branch's on exactly the count(h < lam) leading
            # rows, which hold the rows with h < lam
            cut = np.count_nonzero(h < lam)
            assert ts.x[2, :cut].tobytes() == sweep.hi3[:cut].tobytes(), lam
            assert ts.x[2, cut:].tobytes() == sweep.lo3[cut:].tobytes(), lam
            assert np.all(h[order][:cut] < lam) and np.all(h[order][cut:] >= lam)
        assert sweep.draw.seed == seed and sweep.marginals == m

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
        mixture_draw(3000, self.GRID, seed).with_marginals(m)
        assert len(made) == calls

    @pytest.mark.parametrize("g", [1, 63, 64, 16383, 16384])
    def test_row_order_at_the_sort_key_widths(self, g):
        # G distinct lambdas in [0, 0.9], so the rows with h >= 0.9 fill bin
        # G and the (bin, flip2, flip3) key reaches 4G + 3: 8 bits hold it
        # up to G = 63, 16 bits up to G = 16383.  The order is computed here
        # from h, the grid and the lambda = 1 sample's flips
        n, seed = 2000, SeedSpec(5, 1)
        grid = np.linspace(0.0, 0.9, g)
        draw = mixture_draw(n, grid, seed)
        h = substream(seed, copulas._OFF_B).random(n)
        bins = np.searchsorted(grid, h, side="right")
        assert bins.max() == g
        u, u2, u3 = sample_mixture(n, 1.0, seed).u
        order = np.lexsort((u3 != u, u2 != u, bins))
        assert draw.u.tobytes() == u[order].tobytes()
        assert draw.flip2.dtype == draw.flip3.dtype == bool
        assert np.array_equal(draw.flip2, (u2 != u)[order])
        assert np.array_equal(draw.flip3, (u3 != u)[order])
        assert np.array_equal(draw.edges, np.searchsorted(bins[order], np.arange(g + 2)))

    @pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
    def test_lambda_domain(self, bad, seed):
        with pytest.raises(DomainError):
            mixture_draw(10, (0.5, bad), seed)

    def test_one_draw_serves_every_marginal_triple(self, seed):
        # each triple's columns from one shared draw equal those of a draw
        # of its own, bit for bit, and neither the columns nor the ranks
        # read between them alter the held draw
        draw = mixture_draw(3000, self.GRID, seed)
        held = [draw.u.copy(), draw.flip2.copy(), draw.flip3.copy()]
        ranks = draw.rank_stats()
        for margins in ("normal,normal,normal", "t:5,t:5,t:5", "exp:1,exp:1,exp:1"):
            m = tuple(parse_marginal(t) for t in margins.split(","))
            got = draw.with_marginals(m)
            want = mixture_draw(3000, self.GRID, seed).with_marginals(m)
            assert got.draw.lams == want.draw.lams and got.draw.seed == want.draw.seed
            for field in ("grid", "points", "edges"):
                a, b = getattr(got.draw, field), getattr(want.draw, field)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (margins, field)
            for field in ("x1", "x2", "hi3", "lo3"):
                a, b = getattr(got, field), getattr(want, field)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (margins, field)
            assert draw.rank_stats().tobytes() == ranks.tobytes()
        for a, b in zip(held, (draw.u, draw.flip2, draw.flip3)):
            assert a.tobytes() == b.tobytes()


class TestBinning:
    # above coskew.sweep._SEARCH_GRID grid points the selector is binned by a
    # binary search, below it by one compare pass per point; both must give
    # the same draw.  Each grid holds 0, 1, a repeated lambda and selector
    # values themselves, so rows sit exactly on a bin edge, where a row
    # with h == lambda belongs to the bin above
    N, SEED = 3000, SeedSpec(5, 2)
    H = substream(SEED, copulas._OFF_B).random(N)

    @classmethod
    def grid(cls, g):
        """g distinct lambdas: evenly spaced from 0 to 1, and g // 4
        selector values, the first of them twice."""
        on_h = cls.H[:max(1, g // 4)]
        return np.r_[np.linspace(0.0, 1.0, g - on_h.size), on_h, on_h[0]]

    @pytest.mark.parametrize("g", [3, 11, coskew.sweep._SEARCH_GRID - 1, coskew.sweep._SEARCH_GRID,
                                   coskew.sweep._SEARCH_GRID + 1, 1001])
    def test_search_and_compare_loop_give_the_same_draw(self, g, monkeypatch):
        lams = self.grid(g)
        assert np.unique(lams).size == g and {0.0, 1.0, float(self.H[0])} <= set(lams)
        draws = []
        for above in (-1, 10**9):  # every grid searched, then none
            monkeypatch.setattr(coskew.sweep, "_SEARCH_GRID", above)
            draws.append(mixture_draw(self.N, lams, self.SEED))
        searched, looped = draws
        for field in ("grid", "points", "edges", "u", "flip2", "flip3"):
            a, b = getattr(searched, field), getattr(looped, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
        # the edges count the rows with h < lambda
        assert np.array_equal(searched.edges[1:-1],
                              np.count_nonzero(self.H < searched.grid[:, None], axis=1))


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
        sweep = mixture_draw(self.N, grid, self.SEED).with_marginals(self.MARGINS)
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
        sweep = mixture_draw(1_000_000, (0.0, 0.25, 0.5, 0.5, 1.0, 0.75), self.SEED) \
            .with_marginals(m)
        for ts, acc in zip(lambda_samples(sweep), sweep.moments()):
            _assert_moments_match(acc, MomentAccumulator(3).update(ts.x))


def _stats(acc):
    return [acc.corr(0, 1), acc.corr(0, 2), acc.corr(1, 2), acc.coskew()]


_KERNEL_SEED = SeedSpec(5, 3)
_KERNEL_MARGINS = ["normal,normal,normal", "exp:1,exp:1,exp:1", "t:3.05,t:3.05,t:3.05",
                   "t:3.05,laplace,exp:2", "exp:2,uniform,t:3.05", "uniform,uniform,uniform"]
# exceed-upper:0.99 keeps a few dozen rows far from the marginals' means
_KERNEL_EVENTS = ["downside", "exceed-upper:0.75", "exceed-lower:0.3", "exceed-upper:0.99"]
# the sorted selector values of a 3-block draw
_H3 = np.sort(substream(_KERNEL_SEED, copulas._OFF_B).random(3 * coskew.sweep._BLOCK))


@st.composite
def _kernel_case(draw):
    """n, a margin triple, an event and a grid for the moment kernel.  Grid
    points may repeat, be 0 or 1, or sit just above another (an empty bin);
    a point equal to the j-th smallest selector value puts exactly j rows
    below it, so points at j and j + k * _BLOCK give bins of whole blocks."""
    block = coskew.sweep._BLOCK
    n = draw(st.one_of(st.integers(2, 3 * block), st.sampled_from([block, 2 * block, 3 * block])))
    h = np.sort(substream(_KERNEL_SEED, copulas._OFF_B).random(n))
    order = st.one_of(
        st.sampled_from([j for j in (block, 2 * block, block - 1, block + 1) if j < n]
                        or [n - 1]),
        st.integers(0, n - 1),
    )
    point = st.one_of(
        st.sampled_from([0.0, 1.0]),
        st.floats(0.0, 1.0),
        order.map(lambda j: float(h[j])),
        order.map(lambda j: float(np.nextafter(h[j], 2.0))),
    )
    grid = draw(st.lists(point, min_size=1, max_size=6))
    if draw(st.booleans()):
        grid += draw(st.lists(st.sampled_from(grid), max_size=2))  # duplicate lambdas
    return n, draw(st.sampled_from(_KERNEL_MARGINS)), draw(st.sampled_from(_KERNEL_EVENTS)), grid


class TestMomentKernel:
    # the shifted per-bin sums behind moments() and event_moments() against
    # one-shot reductions of each lambda's sample (lambda_samples, so the
    # same rows in the same order)
    @given(case=_kernel_case())
    @example(case=(2, "normal,normal,normal", "downside", [0.5]))
    @example(case=(5000, "t:3.05,t:3.05,t:3.05", "downside", [0.0]))  # one bin, min branch
    @example(case=(5000, "exp:1,exp:1,exp:1", "exceed-upper:0.75", [1.0]))  # one bin, max branch
    @example(case=(3 * coskew.sweep._BLOCK, "t:3.05,laplace,exp:2", "exceed-lower:0.3",
                   [0.0, 1.0, 0.0, 0.5, 0.5]))
    @example(case=(3 * coskew.sweep._BLOCK, "uniform,uniform,uniform", "exceed-upper:0.99",
                   [0.0, 0.5, 1.0]))
    @example(case=(3 * coskew.sweep._BLOCK, "exp:2,uniform,t:3.05", "downside",  # one block per bin
                   [float(_H3[coskew.sweep._BLOCK]), float(_H3[2 * coskew.sweep._BLOCK])]))
    @settings(max_examples=40, deadline=None)
    def test_matches_one_shot_reductions(self, case):
        n, margins, token, grid = case
        m = tuple(map(parse_marginal, margins.split(",")))
        event = parse_event(token)
        sweep = mixture_draw(n, grid, _KERNEL_SEED).with_marginals(m)
        accs = sweep.moments()
        refs, masks = [], []
        for ts in lambda_samples(sweep):
            refs.append(_stats(MomentAccumulator(3).update(ts.x)))
            masks.append(build_event_mask(ts, event, m).copy())
            if np.count_nonzero(masks[-1]) >= MIN_EVENT_ROWS:
                refs[-1] += _stats(conditional_moments(ts.x, masks[-1]))
        assert len(accs) == len(refs) == len(grid)
        for acc, ref in zip(accs, refs):
            np.testing.assert_allclose(_stats(acc), ref[:4], rtol=0, atol=1e-12)
        if min(map(np.count_nonzero, masks)) < MIN_EVENT_ROWS:
            with pytest.raises(InsufficientEventRowsError):
                sweep.event_moments(event)
            return
        for (fraction, acc), ref, mask in zip(sweep.event_moments(event), refs, masks):
            assert fraction == mask.mean()
            np.testing.assert_allclose(_stats(acc), ref[4:], rtol=0, atol=1e-12)


class TestEventThresholds:
    # event_moments' downside masks rest on two identities: a (3, n) row sum
    # is ((x1 + x2) + x3), so each branch's row sums are fixed by the draw,
    # and each point's threshold is then its own sample's mean row sum.
    # numpy's reduction starts from +0.0, so a row of three -0.0 sums to
    # +0.0 where (x1 + x2) + x3 is -0.0: no compare with a threshold, and no
    # mean that is not zero, tells the two apart
    N_SIZES = (1000, 16383, 16385)
    MARGINS = ("normal,normal,normal", "t:5,laplace,exp:2")

    @given(x=hnp.arrays(np.float64, st.tuples(st.just(3), st.integers(1, 300)),
                        elements=st.floats(-1e300, 1e300)))
    @settings(max_examples=200, deadline=None)
    def test_stacked_row_sum_is_left_to_right(self, x):
        a, b, c = x.copy()
        got, want = np.stack([a, b, c]).sum(axis=0), (a + b) + c
        assert np.array_equal(got, want)
        assert got[want != 0].tobytes() == want[want != 0].tobytes()

    @given(n=st.sampled_from(N_SIZES + (8192, 8193, 100_003)), seed=st.integers(0, 2**32 - 1),
           scales=st.lists(st.integers(-60, 60), min_size=3, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_long_stacked_row_sum_is_left_to_right(self, n, seed, scales):
        # past numpy's reduction buffer, on columns of unequal scale
        x = np.random.default_rng(seed).standard_normal((3, n)) * np.ldexp(1.0, scales)[:, None]
        a, b, c = x
        assert x.sum(axis=0).tobytes() == ((a + b) + c).tobytes()

    @given(n=st.sampled_from(N_SIZES), margins=st.sampled_from(MARGINS),
           grid=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    @example(n=1000, margins="normal,normal,normal", grid=[0.0])
    @example(n=16383, margins="t:5,laplace,exp:2", grid=[1.0])
    @example(n=16385, margins="normal,normal,normal", grid=[0.0, 0.3, 0.3, 1.0])
    @example(n=16385, margins="t:5,laplace,exp:2", grid=[0.3, 0.3 + 1e-9, 0.3 + 2e-9, 0.9])
    @settings(max_examples=30, deadline=None)
    def test_each_threshold_is_its_samples_mean_row_sum(self, n, margins, grid):
        m = tuple(map(parse_marginal, margins.split(",")))
        sweep = mixture_draw(n, grid, _KERNEL_SEED).with_marginals(m)
        thresholds, below_mean = [], coskew.sweep._below_mean

        def recorded(s, mean=None):
            mask, t = below_mean(s, mean)
            if mean is None:  # a point's own threshold, not the band's compare
                thresholds.append(t)
            return mask, t

        with mock.patch.object(coskew.sweep, "_below_mean", recorded):
            sweep.event_moments(parse_event("downside"))
        assert len(thresholds) == sweep.draw.grid.size
        for g, ts in zip(sweep.draw.points, lambda_samples(sweep)):
            assert np.float64(thresholds[g]).tobytes() == ts.x.sum(axis=0).mean().tobytes()


def _fsum_stats(x):
    """corr12, corr13, corr23 and coskewness of the (3, n) rows x, each sum a
    two-pass math.fsum: the means, then the centred products."""
    def fsum(a):  # a memoryview yields floats, which fsum takes faster than numpy scalars
        return math.fsum(memoryview(np.ascontiguousarray(a)))

    n = x.shape[1]
    z = [c - fsum(c) / n for c in x]
    m2 = {(i, j): fsum(z[i] * z[j]) / n for i, j in ((0, 0), (1, 1), (2, 2),
                                                       (0, 1), (0, 2), (1, 2))}
    s = [math.sqrt(m2[i, i]) for i in range(3)]
    m3 = fsum(z[0] * z[1] * z[2]) / n
    return [m2[0, 1] / (s[0] * s[1]), m2[0, 2] / (s[0] * s[2]), m2[1, 2] / (s[1] * s[2]),
            m3 / (s[0] * s[1] * s[2])]


def kernel_oracle_gap(n, margin, grid=(0.1, 0.5, 0.9, 1.0), checked=(0.1,),
                      seed=SeedSpec(8, 1)):
    """The largest |moments() - fsum oracle| over every corr and coskew, and
    the same for event_moments() under the downside and exceed-upper:0.99
    events, at the checked lambdas of a sweep over grid, n rows of margin^3.
    The other grid points split the rows into more bins.  Tier-1 runs it at
    n = 1e6; at n = 1e7 it needs about 1.2 GB and is run by hand."""
    m = (parse_marginal(margin),) * 3
    sweep = mixture_draw(n, grid, seed).with_marginals(m)
    events = [parse_event("downside"), parse_event("exceed-upper:0.99")]
    got = [[_stats(acc) for acc in sweep.moments()]]
    got += [[_stats(acc) for _, acc in sweep.event_moments(e)] for e in events]
    gap = 0.0
    for g, (lam, ts) in enumerate(zip(grid, lambda_samples(sweep))):
        if lam not in checked:
            continue
        rows = [ts.x] + [np.compress(build_event_mask(ts, e, m), ts.x, axis=1) for e in events]
        for stats, x in zip(got, rows):
            gap = max(gap, np.max(np.abs(np.subtract(stats[g], _fsum_stats(x)))))
    return gap


class TestMomentKernelAccuracy:
    # every corr and coskewness of the sweep, and of its event cores,
    # within 1e-12 of exactly rounded sums at a million rows
    @pytest.mark.parametrize("margin", ["t:3.05", "exp:1"])
    def test_within_1e12_of_fsum_at_a_million_rows(self, margin):
        assert kernel_oracle_gap(10**6, margin) <= 1e-12


class TestMirroredMinBranch:
    # for a symmetric third marginal the unmasked kernel walks every bin on
    # the max branch only and takes the min branch's sums by sign; the
    # oracle is the two-branch walk, reached by a third marginal that says
    # it is not symmetric.  lambda = 0 empties bin 0 and lambda = 1 bin G
    GRIDS = [(0.0,), (1.0,), (0.5, 0.0, 0.5, 1.0), (0.3, 0.3, 0.6)]

    @staticmethod
    def walk(sweep):
        """_point_sums() of the sweep, and whether it read lo3."""
        read_lo = []
        third_rows = coskew.sweep._third_rows

        def recorded(y, x3, shift):
            read_lo.append(np.shares_memory(x3, sweep.lo3))
            third_rows(y, x3, shift)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(coskew.sweep, "_third_rows", recorded)
            return sweep._point_sums(), any(read_lo)

    @pytest.mark.parametrize("third", ["normal", "uniform", "laplace", "t:3.0001", "t:5",
                                       "t:1e9"])
    @pytest.mark.parametrize("n", [1, 2, 16383, 16384, 16385, 32769])
    def test_equals_the_two_branch_walk_bit_for_bit(self, third, n):
        # only the third marginal decides; odd n also take asymmetric x1, x2
        margins = (parse_marginal(third),) * 3 if n % 2 == 0 else \
            tuple(map(parse_marginal, ("exp:2", "t:5", third)))
        for grid in self.GRIDS:
            sweep = mixture_draw(n, grid, _KERNEL_SEED).with_marginals(margins)
            stand_in = types.SimpleNamespace(mean=margins[2].mean, symmetric=False)
            two_branch = dataclasses.replace(sweep, marginals=(*margins[:2], stand_in))
            (got,), mirrored = self.walk(sweep)
            (want,), read_lo = self.walk(two_branch)
            assert not mirrored and read_lo == (sweep.draw.edges[1] < n)  # rows above bin 0
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (grid, a, b)

    def test_exp_third_marginal_walks_both_branches(self):
        sweep = mixture_draw(5000, (0.0, 0.5, 1.0), _KERNEL_SEED).with_marginals(
            tuple(map(parse_marginal, ("normal", "laplace", "exp:2"))))
        assert self.walk(sweep)[1]


class TestSweepRankStats:
    # the sweep's rank sums must match the true-CDF ranks of each lambda's
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
        x, y = coskew.sweep._quantile_pair(m, u)
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
        h = gaussian_correlate(gaussian_z(2000, seed), params)
        assert sample_gaussian(2000, params, seed).u.tobytes() == special.ndtr(h).tobytes()
        z = substream(seed, 0).standard_normal((3, 2000))
        want = [z[0], params.rho12 * z[0] + params.a * z[1],
                params.rho13 * z[0]
                + (params.rho23 - params.rho12 * params.rho13) / params.a * z[1]
                + params.b / params.a * z[2]]
        assert h.tobytes() == np.stack(want).tobytes()

    def test_one_z_serves_every_triple(self):
        # verify combines one draw of Z for all its triples; the normal CDF
        # of each must equal the triple's own sample_gaussian bit for bit,
        # and leave Z as drawn
        seed = SeedSpec(7, 3)
        z = gaussian_z(2000, seed)
        drawn = z.copy()
        for rho in experiments._GAUSS_TRIPLES:
            params = GaussianParams(*rho)
            got = gaussian_correlate(z, params)
            want = sample_gaussian(2000, params, seed).u
            assert special.ndtr(got).tobytes() == want.tobytes(), rho
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


class TestDispatch:
    DIRECT = {
        "comonotonic": sample_comonotonic,
        "independence": sample_independence,
        "max": sample_max_coskew,
        "min": sample_min_coskew,
        "mixture:0.3": lambda n, s: sample_mixture(n, 0.3, s),
        "mixingsum": sample_mixing_sum,
        "gaussian:0.8,0.5,0.3": lambda n, s: sample_gaussian(n, GaussianParams(0.8, 0.5, 0.3), s),
    }

    @pytest.mark.parametrize("token", ALL_TOKENS)
    def test_each_kind_dispatches_to_its_own_sampler(self, token, seed):
        got = sample(parse_copula(token), 500, seed)
        assert got.u.tobytes() == self.DIRECT[token](500, seed).u.tobytes()


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
        for bad in ("clayton", "clayton:2", "mixture", "gaussian:0.5", "mixture:2"):
            with pytest.raises(DomainError):
                parse_copula(bad)

    # the one lambda rule, analytic._check_lam, whose message gives the value
    @pytest.mark.parametrize("token, value", [("mixture:1.5", "1.5"), ("mixture:nan", "nan"),
                                              ("mixture:-0.1", "-0.1")])
    def test_rejects_a_lambda_outside_the_unit_interval(self, token, value):
        with pytest.raises(DomainError, match=f"got {re.escape(value)}$"):
            parse_copula(token)

    @pytest.mark.parametrize("token", ["max:0.7", "min:1", "comonotonic:x",
                                       "independence:", "mixingsum:0.5"])
    def test_rejects_a_parameter_on_a_parameterless_kind(self, token):
        with pytest.raises(DomainError, match="takes no parameter"):
            parse_copula(token)

    @pytest.mark.parametrize("token", ["mixture:x", "mixture:0.5.1", "gaussian:0.1,y,0.2",
                                       "gaussian:0.1,0.2,"])
    def test_rejects_a_parameter_that_is_not_a_number(self, token):
        with pytest.raises(DomainError, match=re.escape(repr(token))):
            parse_copula(token)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            CopulaSpec("clayton")
        with pytest.raises(DomainError):
            CopulaSpec("mixture", lam=None)
        with pytest.raises(DomainError):
            CopulaSpec("gaussian")
        with pytest.raises(DomainError):
            CopulaSpec("max", lam=0.5)
        with pytest.raises(DomainError):
            CopulaSpec("mixture", lam=0.5, gaussian=GaussianParams(0.0, 0.0, 0.0))
        # a bare triple is refused by name, before the kind check reads it
        with pytest.raises(DomainError, match=re.escape("got (0.1, 0.2, 0.3)")):
            CopulaSpec("gaussian", gaussian=(0.1, 0.2, 0.3))

    def test_invalid_n(self, seed):
        with pytest.raises(DomainError):
            sample_comonotonic(0, seed)

    def test_usample_rejects_out_of_range(self):
        for bad in (1.2, -0.1, float("nan")):
            with pytest.raises(ValueError):
                USample(np.array([[0.5, bad], [0.5, 0.5], [0.5, 0.5]]))
            with pytest.raises(ValueError):
                USample(np.full((3, 4), bad))


def _imported_modules(path):
    """Every module a source file imports, with relative imports resolved
    against the coskew package; ``from a import b`` names both a and a.b."""
    names = set()
    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # the package is flat: "." is coskew
                base = f"coskew.{base}" if base else "coskew"
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


class TestLayering:
    def test_samplers_import_no_moments_events_or_sweep(self):
        # the samplers sit below the estimators and the lambda-grid engine
        names = _imported_modules(copulas.__file__)
        assert {"coskew.samples", "coskew.marginals"} <= names  # the parse sees imports
        for below in ("coskew.estimators", "coskew.sweep"):
            assert not [n for n in names if n == below or n.startswith(below + ".")], below
