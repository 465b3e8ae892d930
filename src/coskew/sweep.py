"""The lambda-grid engine: one mixture draw reduced over a whole grid of
lambdas, with no pass per lambda.

The mixture's selector is coupled pathwise across lambda
(:func:`~coskew.copulas.sample_mixture`): raising lambda only ever flips
rows from the min branch to the max branch.  :func:`mixture_draw` uses
this to run a whole lambda grid from one draw.  It sorts the draw's rows
once, right after drawing, into bins by how many grid points lie at or
below their selector value (one compare pass per grid point, or a binary
search per row on a large grid), so each lambda's sample is a run of bins
on the max branch followed by a run on the min branch.  Every coordinate
of these copulas is U or 1-U, so the sort gathers only U and which
coordinates are flipped, and within a bin it orders the rows by that flip
pattern (u2 flipped, then u3_max flipped): each bin holds four runs, and
every later pick between a quantile at U and one at 1-U reads a mask that
changes at most three times per bin.  The samplers write each flipped
coordinate as 1/2 + (U - 1/2) with the sign bit of U - 1/2 flipped, so a
random flip pattern costs no branch.  U - 1/2 is exact on the samplers'
k/2^53 grid (by Sterbenz's lemma for U >= 1/4, and below that because the
difference lies in (1/4, 1/2], where doubles are 2^-54 apart), so
1/2 - (U - 1/2) is one rounding of the exact 1 - U: the bits of
``1.0 - U``.
That sorted draw, a :class:`MixtureDraw`, holds no marginal, so it
serves every marginal triple of a seed: each distinct marginal is
inverted once, at the sorted U, for the pair (F^-1(U), F^-1(1-U)).  The
:class:`MixtureSweep` then holds x1, x2 and both branches' x3 once, in
the draw's row order.  Each bin is summed once per branch around the
marginals' population means; for a symmetric third marginal only on the
max branch, since the min branch's x3 less its mean is exactly the max
branch's negated, so that branch's sums follow by sign.  Each lambda's
moments add the max-branch sums of the bins below it to the min-branch
sums of the bins above it, centred once: every correlation and coskewness
lies within 1e-12 of a one-shot reduction of that lambda's sample.  An
event's masks (:meth:`MixtureSweep.event_moments`) are one mask and
per-lambda thresholds: ``build_event_mask`` masks the first lambda's
sample, which is every lambda's mask for an exceedance, and a downside
row is in a lambda's event when its sum, one of two values fixed by the
draw, lies below that lambda's mean row sum.  The event's conditional
moments take the same per-bin sums, around those rows' own means, over the
rows whose event membership never moves with lambda.  The band of rows
whose membership does, found among the rows whose sums lie between the
thresholds, has its products formed once per branch, and each lambda
adds those of its event rows to its sums before they are centred.  For a
symmetric marginal F^-1(1-U) is the reflection 2*mean - F^-1(U), which
equals the direct quantile bit for bit on the samplers' k/2^53 grid;
:func:`~coskew.copulas.to_data` clamps to that grid's own ends, so it
moves no sampled value.  True-CDF rank statistics need no marginal at all:
the rank of F^-1(U) is U, so :meth:`MixtureDraw.rank_stats` sums the held
copula coordinates' centred products over the same bins, and adds them per
lambda as the moments do.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .analytic import _check_lam
from .copulas import _OFF_B, sample_max_coskew
from .estimators import (EventSpec, MomentAccumulator, _below_mean, build_event_mask,
                         count_event_rows)
from .marginals import Marginal
from .samples import SeedSpec, TriSample, substream

__all__ = ["MixtureDraw", "MixtureSweep", "mixture_draw"]


def _quantile_pair(m: Marginal, u):
    """(F^-1(u), F^-1(1 - u)) for u on the samplers' k/2^53 grid, each equal
    to to_data's quantile bit for bit.  A symmetric marginal reflects the
    first, 2*mean - F^-1(u); a non-symmetric one inverts 1 - u as well."""
    x = m.quantile(u)
    return x, 2.0 * m.mean - x if m.symmetric else m.quantile(1.0 - u)


# The moment kernel's scratch rows, summed over each block of a bin: first
# y1y1, y2y2, y1, y2 and y1y2, which take no x3, so both branches of an
# unmasked block share them; then y3, y1y3, y2y3, y1y2y3 and y3y3.  Rows
# 2-5 hold y1, y2, y1y2 and y3, so one product by y3 fills rows 6-9.
# _SQUARE_ROWS places the six products in a (3, 3) matrix.  The scratch is
# (10, _BLOCK) floats, 1.3 MB: at n = 1e5 and 11 grid points a bin is one
# block, and the scratch still stays in cache (65536 rows measured slower).
_PAIR_ROWS, _SUM_ROWS = 5, 10
_SQUARE_ROWS = np.array([[0, 4, 6], [4, 1, 7], [6, 7, 9]])
_BLOCK = 16384
# For a symmetric third marginal the min branch's y3 = lo3 - mean is
# exactly -(hi3 - mean) (its means, 0 and 1/2, are exact on the k/2^53
# grid), so a bin's min-branch sums are its max-branch sums times this sign
# per row: pairwise sums are odd in their terms.
_MIRROR = np.array([1.0, 1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0, 1.0])


def _pair_rows(y, x1, x2, shift):
    """Fill the scratch view y's x1/x2 rows from one block of x1 and x2."""
    np.subtract(x1, shift[0], out=y[2])
    np.subtract(x2, shift[1], out=y[3])
    np.multiply(y[2:4], y[2:4], out=y[0:2])
    np.multiply(y[2], y[3], out=y[4])


def _third_rows(y, x3, shift):
    """Fill the scratch view y's x3 rows from one block of x3, once its x1/x2
    rows hold the same block's."""
    np.subtract(x3, shift[2], out=y[5])
    np.multiply(y[2:6], y[5], out=y[6:10])


def _kept_shift(cols, keep):
    """Each column's mean over the kept rows within one block of the first:
    a shift near the rows of an event, which may sit far from the marginal's
    mean.  Zeros when no row is kept."""
    first = int(np.argmax(keep))
    if not keep[first]:
        return np.zeros(len(cols))
    rows = np.flatnonzero(keep[first:first + _BLOCK]) + first
    return np.array([c[rows].mean() for c in cols])


def _at_points(per_bin):
    """(max branch, min branch) sums at each grid point g from per-bin sums
    indexed [branch, bin, ...]: the max branch over bins 0..g and the min
    branch over bins g+1..G."""
    return np.cumsum(per_bin[0, :-1], axis=0), np.cumsum(per_bin[1, :0:-1], axis=0)[::-1]


@dataclass(frozen=True, eq=False)
class MixtureSweep:
    """The data columns of a :class:`MixtureDraw` under one marginal
    triple (:meth:`MixtureDraw.with_marginals`): x1 and x2 and both
    branches' x3, each held once, in the draw's row order.

    At lambda = grid[g] the rows with h < lambda are bins 0..g.  So that
    lambda's sample, ``to_data(sample_mixture(n, lam, seed), *marginals)``
    with its rows in the draw's order (by bin, then flip pattern), has x1,
    x2 and, as x3, ``hi3`` (the max branch) on its leading rows, up to
    ``draw.edges[g + 1]``, and ``lo3`` (the min branch) on the rest.
    :meth:`moments` gives each lambda's moment accumulator without building
    the samples, and :meth:`event_moments` each lambda's accumulator of an
    event's rows, reducing each bin once as well.
    """

    draw: MixtureDraw
    marginals: tuple[Marginal, Marginal, Marginal]
    x1: np.ndarray
    x2: np.ndarray
    hi3: np.ndarray
    lo3: np.ndarray

    def moments(self) -> list[MomentAccumulator]:
        """A 3-column accumulator of (x1, x2, x3) for each lambda, in order.

        Each bin is summed once per branch it can take, around the
        marginals' population means, and each point's sums are the
        max-branch prefix plus the min-branch suffix, centred once
        (:meth:`_point_moments`).  Every corr and coskew lies within 1e-12
        of a one-shot update of each sample; the bits differ.
        """
        at_point = self._point_moments()
        return [at_point[g] for g in self.draw.points]

    def _point_moments(self, *masks) -> list[MomentAccumulator]:
        """One accumulator per grid point: each branch's sums of
        :meth:`_point_sums` (which takes the masks) centred once by
        :meth:`~coskew.estimators.MomentAccumulator.from_shifted_sums`, and
        with masks the two branches merged, through their shifts and
        residual means (:meth:`~coskew.estimators.MomentAccumulator.merge`).
        Sums that overflow the float range are refused there, with a
        DomainError.
        """
        def centred(n, shift, s):
            return [MomentAccumulator.from_shifted_sums(m, shift, *a)
                    for m, *a in zip(n, s[:, [2, 3, 5]], s[:, _SQUARE_ROWS], s[:, 8])]

        with np.errstate(over="ignore", invalid="ignore"):  # refused by from_shifted_sums
            sums = self._point_sums(*masks)
        branches = [centred(*b) for b in sums]
        return [reduce(MomentAccumulator.merge, at_g) for at_g in zip(*branches)]

    def _point_sums(self, hi_keep=None, lo_keep=None, band=None):
        """Each grid point's raw shifted sums, per shift: a list of (n,
        shift, s), n the (G,) row counts, shift the (3,) column shifts and s
        the (G, _SUM_ROWS) sums of the kernel's rows.  With row masks, a
        bin's max-branch rows are those in hi_keep and its min-branch rows
        those in lo_keep.  ``band`` is then (rows, hi_in, lo_in): sorted
        rows outside both masks, and for each point, as a (G, rows.size)
        boolean array, which of them it counts on each branch.

        Each branch shifts every column by one value in all its bins, so
        bin sums add without correction.  Each bin is walked in blocks of
        at most _BLOCK rows: a block's shifted columns and their products
        fill one reused scratch, whose rows are summed pairwise, and a bin's
        block sums are summed pairwise again.  A point's sums are then a
        cumulative sum over the max-branch bins 0..g plus one over the
        min-branch bins g+1..G (:func:`_at_points`).

        Without masks the shift is the marginals' population means in both
        branches, so the two sums add into one entry, and both branches
        share the x1/x2 rows of a block.  For a symmetric third marginal
        lo3 - mean is exactly -(hi3 - mean), so every bin is walked on the
        max branch alone and its min-branch sums are those times the sign
        per row of _MIRROR, bit for bit the two-branch walk's.  With masks
        each branch compresses its kept rows first and is shifted by their
        own mean (:func:`_kept_shift`), one entry per branch: an event's
        rows may sit far from the marginals' means with a small spread, as
        in a tail exceedance, where a fixed shift cancels away the digits of
        every moment.  The band rows' products are formed once per branch, under
        that branch's shift, and each point adds its own band rows to its
        max-branch and min-branch sums.
        """
        edges, g_max = self.draw.edges, self.draw.grid.size
        x1, x2 = self.x1, self.x2
        if hi_keep is None:
            shifts = [np.array([m.mean for m in self.marginals])] * 2
        else:
            shifts = [_kept_shift((x1, x2, x3), keep)
                      for x3, keep in ((self.hi3, hi_keep), (self.lo3, lo_keep))]
        scratch = np.empty((_SUM_ROWS, _BLOCK))
        sums = np.zeros((2, g_max + 1, _SUM_ROWS))  # [branch, bin, row]
        counts = np.zeros((2, g_max + 1), np.int64)
        # bin 0 is never on the min branch and bin G never on the max branch;
        # a mirrored min branch's sums are the max branch's by sign, so then
        # every bin is walked on the max branch alone
        mirror = hi_keep is None and self.marginals[2].symmetric
        branches = [(0, self.hi3, hi_keep, range(g_max + mirror)),
                    (1, self.lo3, lo_keep, range(1, g_max + 1))][:2 - mirror]
        for k in range(g_max + 1):
            live = [b for b in branches if k in b[3]]
            starts = range(edges[k], edges[k + 1], _BLOCK)
            part = np.zeros((2, _SUM_ROWS, len(starts)))
            for j, a in enumerate(starts):
                block = slice(a, min(a + _BLOCK, edges[k + 1]))
                paired = None  # the branch whose x1/x2 rows the scratch holds
                for br, x3, keep, _ in live:
                    rows = block if keep is None else np.flatnonzero(keep[block]) + a
                    y = scratch[:, :block.stop - a if keep is None else rows.size]
                    first = 0
                    if keep is None and paired is not None:  # the same rows: share them
                        first = _PAIR_ROWS
                        part[br, :first, j] = part[paired, :first, j]
                    else:
                        _pair_rows(y, x1[rows], x2[rows], shifts[br])
                    paired = br
                    _third_rows(y, x3[rows], shifts[br])
                    np.add.reduce(y[first:], axis=1, out=part[br, first:, j])
                    counts[br, k] += y.shape[1]
            np.add.reduce(part, axis=2, out=sums[:, k])
        if mirror:
            sums[1], counts[1] = sums[0] * _MIRROR, counts[0]
        (hi, lo), (n_hi, n_lo) = _at_points(sums), _at_points(counts)
        if band is not None:  # each point's own band rows, on each branch
            rows, *inside = band
            for x3, shift, s, count, keep in zip((self.hi3, self.lo3), shifts, (hi, lo),
                                                 (n_hi, n_lo), inside):
                y = np.empty((_SUM_ROWS, rows.size))
                _pair_rows(y, x1[rows], x2[rows], shift)
                _third_rows(y, x3[rows], shift)
                for g, at_g in enumerate(keep):
                    s[g] += np.add.reduce(y[:, at_g], axis=1)
                count += np.count_nonzero(keep, axis=1)

        if hi_keep is None:  # one shift: the branches' sums add
            return [(n_hi + n_lo, shifts[0], hi + lo)]
        return [(n_hi, shifts[0], hi), (n_lo, shifts[1], lo)]

    def event_moments(self, event: EventSpec) -> list[tuple[float, MomentAccumulator]]:
        """The event fraction and a 3-column accumulator of the event rows
        for each lambda, in order.

        One mask comes from ``build_event_mask``: the first grid point's,
        on its sample under ``marginals``.  An exceedance does not depend
        on lambda, so that mask is every point's.  A downside row's sum
        takes one of two values fixed by the draw: s_hi = (x1 + x2) + hi3
        on the max branch and s_lo = (x1 + x2) + lo3 on the min branch,
        each its sample's ``x.sum(axis=0)`` (bit for bit, but for the sign
        of a zero sum, which no compare sees).  So one buffer of row sums
        takes each point's sample in turn, bin by bin, and each point's mask
        is the sums below their mean t_g, by the rule that
        ``build_event_mask`` applies (``estimators._below_mean``).  Every
        mask must select MIN_EVENT_ROWS rows (``count_event_rows``).

        A row's reference membership is, on the max branch, its mask at
        its own bin's point, the first that puts it there, and on the min
        branch its mask at the first point.  Only a row whose s_hi or s_lo
        lies in [min t_g, max t_g) can differ from its reference, so only
        those rows are compared with every t_g, and the band is the ones
        that do differ at some point.  Every other row in the event by its
        reference is summed once per branch, in its bin, by the shifted
        per-bin sums of :meth:`moments`.  The band rows' products are formed
        once per branch, and each point adds those of the band rows in its
        event to its two branches' sums (:meth:`_point_moments`), so no row
        is reduced once per lambda.  The fractions are each mask's mean, bit
        for bit; the correlations lie within 1e-12 of a one-shot reduction
        of each event's rows.
        """
        # bin g joins the max branch at point g; bin G never does
        bins = list(map(slice, self.draw.edges[:-2], self.draw.edges[1:-1]))
        if not bins:
            return []
        ts = TriSample(np.stack([self.x1, self.x2, self.lo3]), self.draw.seed)
        ts.x[2, bins[0]] = self.hi3[bins[0]]
        ref = build_event_mask(ts, event, self.marginals)
        lo_ref, fractions = ref.copy(), [count_event_rows(ref) / ref.size] * len(bins)
        # [point, band row]: on the max branch, and in that point's event
        band, (on_hi, inside) = np.empty(0, np.intp), np.empty((2, len(bins), 0), bool)
        if event.kind == "downside":
            # the masked sample's last two rows become each point's row sums
            # in turn and the min branch's s_lo; both start as point 0's,
            # which are s_lo off bin 0, a bin never on the min branch
            s, s_lo = sums = ts.x[1:]
            sums[:], t = ts.x.sum(axis=0), np.empty((len(bins), 1))
            for g, rows in enumerate(bins):
                s[rows] = self.x1[rows] + self.x2[rows] + self.hi3[rows]  # s_hi
                mask, t[g] = _below_mean(s)
                fractions[g] = count_event_rows(mask) / mask.size
                ref[rows] = mask[rows]  # the max branch's reference on bins 0..g
            # s is now s_hi on every bin the max branch reaches; only a row
            # with a sum in [min t, max t) can leave its reference
            band = np.flatnonzero(np.any((sums >= t.min()) & (sums < t.max()), axis=0))
            on_hi = band < self.draw.edges[1:-1, None]
            inside = _below_mean(np.where(on_hi, s[band], s_lo[band]), t)[0]
            moved = np.any(inside != np.where(on_hi, ref[band], lo_ref[band]), axis=0)
            band, on_hi, inside = band[moved], on_hi[:, moved], inside[:, moved]
        ref[band] = lo_ref[band] = False  # the core: rows that never move
        at_point = self._point_moments(ref, lo_ref, (band, on_hi & inside, ~on_hi & inside))
        return [(fractions[g], at_point[g]) for g in self.draw.points]


@dataclass(frozen=True, eq=False)
class MixtureDraw:
    """One mixture draw over a lambda grid, from :func:`mixture_draw`, with
    no marginal applied: u and whether u2 and u3_max are 1 - u (``flip2``,
    ``flip3``), with the rows sorted by selector bin, then flip pattern.

    ``grid`` holds the sorted distinct lambdas, and ``points`` the index in
    ``grid`` of each of ``lams``.  Bin k holds the rows whose selector h has
    k grid points at or below it, rows ``edges[k]`` to ``edges[k + 1]``.
    Within a bin the rows run in (flip2, flip3) order, (0, 0), (0, 1),
    (1, 0), (1, 1), and in draw order within each run, so the flip masks
    that :meth:`with_marginals` and :meth:`rank_stats` select by change at
    most three times per bin.
    """

    lams: tuple[float, ...]
    grid: np.ndarray
    points: np.ndarray
    edges: np.ndarray
    u: np.ndarray
    flip2: np.ndarray
    flip3: np.ndarray
    seed: SeedSpec

    def with_marginals(self, marginals) -> MixtureSweep:
        """The draw's data columns under marginals: x1, x2 and both
        branches' x3, each picked from its marginal's quantile pair at u by
        whether the coordinate is 1 - u (the min branch's u3 is
        1 - u3_max)."""
        pairs = {m: _quantile_pair(m, self.u) for m in dict.fromkeys(marginals)}
        (a1, _), (a2, b2), (a3, b3) = (pairs[m] for m in marginals)
        hi3, lo3 = np.where(self.flip3, b3, a3), np.where(self.flip3, a3, b3)
        return MixtureSweep(self, marginals, a1, np.where(self.flip2, b2, a2), hi3, lo3)

    def rank_stats(self) -> np.ndarray:
        """True-CDF rank statistics for each lambda, in order: one row of
        (rho12_s, rho13_s, rho23_s, rs) per lambda.

        The true-CDF rank of F^-1(u) is u, so the rank coordinates are the
        copula's u, u2 and u3, read from the held u and flips; no marginal
        is involved.  Each is u or 1 - u, so every centred product is
        +-(u - 1/2)^k.  Each bin sums the four products the statistics read,
        taken with the max branch's u3; on the min branch every product
        with u3 flips its sign.  Each lambda then adds its bins as the
        moments do (:func:`_at_points`): rho_s = 12 sum(y_i y_j) / n and
        rs = 32 sum(y_1 y_2 y_3) / n.  The values match spearman_rho and
        rank_coskewness of each lambda's ranks to ~1e-15.
        """
        a = self.u - 0.5  # a flipped coordinate 1 - u centres to -a, exactly
        b, c = np.where(self.flip2, -a, a), np.where(self.flip3, -a, a)
        ab = a * b
        hi = np.array([[np.sum(ab[s]), np.sum(a[s] * c[s]), np.sum(b[s] * c[s]),
                        np.sum(ab[s] * c[s])]
                       for s in map(slice, self.edges[:-1], self.edges[1:])])
        hi, lo = _at_points(np.stack([hi, hi * [1.0, -1.0, -1.0, -1.0]]))
        sums = (hi + lo)[self.points]
        return np.c_[12.0 * sums[:, :3], 32.0 * sums[:, 3]] / self.u.size


# Above this many grid points a binary search per row bins the selector
# faster than one compare pass per grid point: the search wins from about
# 130 points at n = 1e6 and from about 260 at n = 1e5 (2-vCPU x86-64).
_SEARCH_GRID = 256


def mixture_draw(n: int, lams, seed: SeedSpec = SeedSpec()) -> MixtureDraw:
    """The extremal draw (:func:`sample_max_coskew`) and the selector h,
    drawn once, with the rows sorted stably by how many grid points are at
    or below their h, then by flip2 and flip3 (:class:`MixtureDraw`).  A
    lambda outside [0, 1] raises DomainError, as in sample_mixture, before
    anything is drawn.  Its data columns under a marginal triple come from
    :meth:`MixtureDraw.with_marginals`.

    A grid of up to _SEARCH_GRID points bins h by one compare pass per
    point, a larger one by ``np.searchsorted(grid, h, side="right")``: the
    same bins.  The bin edges are read off the sorted key by one binary
    search."""
    lams = tuple(_check_lam(lam) for lam in lams)
    grid = np.unique(lams)
    u, u2, u3 = sample_max_coskew(n, seed).u
    h = substream(seed, _OFF_B).random(u.size)
    if grid.size > _SEARCH_GRID:
        bins = np.searchsorted(grid, h, side="right")
    else:
        bins = np.zeros(h.size, np.min_scalar_type(grid.size))
        for lam in grid:
            bins += h >= lam
    # the key (bin, flip2, flip3) packed into the narrowest unsigned type:
    # up to 16 bits (G < 16384) numpy's stable sort is a radix sort
    key = bins.astype(np.min_scalar_type(4 * grid.size + 3))
    key <<= 2
    key |= (u2 != u).astype(key.dtype) << 1
    key |= u3 != u
    order = np.argsort(key, kind="stable")
    key = key[order]
    # bin k starts at the first sorted key at or above 4k
    firsts = np.arange(1, grid.size + 1, dtype=key.dtype) << 2
    edges = np.r_[0, np.searchsorted(key, firsts), key.size]
    return MixtureDraw(lams, grid, np.searchsorted(grid, lams), edges,
                       u[order], (key & 2).astype(bool), (key & 1).astype(bool), seed)
