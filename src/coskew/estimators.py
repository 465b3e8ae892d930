"""Sample statistics: correlation, coskewness, rank analogues, and
event-conditional correlation.

All standard deviations are population-normalized (divide by n, no Bessel
correction) and the rank statistics center on the constant 1/2, never on
sample means:

    pearson          cov_n(x, y) / (s_x s_y)
    coskewness       mean((x-xbar)(y-ybar)(z-zbar)) / (s_x s_y s_z)
    spearman_rho     12 * mean((u - 1/2)(v - 1/2))
    rank_coskewness  32 * mean((u - 1/2)(v - 1/2)(w - 1/2))

The rank statistics take rank columns: at least one row, and every value
in [0, 1]; anything else, nan included, raises DomainError.

Moments come from a streaming accumulator built from shifted sums: the
raw sums of rows shifted near their mean, centred once
(:meth:`MomentAccumulator.from_shifted_sums`, Chan, Golub & LeVeque 1983).
``update`` shifts each chunk by its own rounded mean; a mixture sweep
shifts each selector bin by the marginals' population means, or an event's
rows by their own mean (:mod:`coskew.sweep`).  Each accumulator keeps its
mean as that shift plus a residual mean, and merges take the difference
of two means from those parts, then add the shift-stable update terms
(Pebay 2008) plainly.  So results are accurate to ~1e-12
relative up to n = 1e7, also for means far from 0 with a small spread,
and bit-stable for a fixed chunking.  The accumulator keeps only what the
statistics read: the means, the second moments and, for three columns,
the one mixed third moment sum z_0 z_1 z_2.  Every sum over rows is
numpy's pairwise ``np.add.reduce`` of an elementwise product, never a
BLAS call, so the bits do not depend on the CPU kernel or the thread
count.  Each second moment is written to both (i, j) and (j, i), so the
matrix is exactly symmetric.  A nan or an infinity in the data, or sums
that overflow the float range, raise DomainError in
:meth:`MomentAccumulator.from_shifted_sums`, never a nan statistic.  A
column is degenerate (DegenerateColumnError) when its sd is at most 1e-15
of its |mean|, which includes sd = 0.  That floor is relative at every
scale, so a column scaled by a power of two, with its products still in
the normal float range, keeps its statistics' bits and is never refused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateColumnError,
    DomainError,
    InsufficientEventRowsError,
)
from .marginals import Marginal, check_kind, format_token, split_token
from .samples import TriSample

__all__ = [
    "MomentAccumulator",
    "EventSpec",
    "parse_event",
    "pearson_corr",
    "coskewness",
    "rank_transform",
    "spearman_rho",
    "rank_coskewness",
    "conditional_corr",
    "conditional_moments",
    "count_event_rows",
    "build_event_mask",
    "MIN_EVENT_ROWS",
]

MIN_EVENT_ROWS = 30


class MomentAccumulator:
    """Streaming accumulator of the central moments that coskew reads: the
    column means, the (d, d) second moments and, for three columns, the
    mixed third moment sum z_0 z_1 z_2.

    Every accumulator is built from the raw sums of rows shifted near their
    mean (:meth:`from_shifted_sums`), which centres them once, and keeps
    the mean as that shift plus a residual mean.  ``update`` feeds a chunk
    of shape (d, m) this way, shifted by its own rounded mean, so the result
    is invariant (to rounding) under shifts of the data.  Accumulators merge
    pairwise: the exact difference of the two means, then plain adds of
    terms that never subtract large raw moments; merging in a fixed chunk
    order gives bit-identical results.
    """

    def __init__(self, d: int):
        if d < 1:
            raise DomainError(f"dimension must be >= 1, got {d}")
        self.d = d
        self.n = 0
        self._shift = np.zeros(d)
        self._resid = np.zeros(d)
        self._m2 = np.zeros((d, d))
        self._m3 = np.zeros(())  # sum z_0 z_1 z_2; stays 0 unless d = 3

    @property
    def mean(self) -> np.ndarray:
        """The column means."""
        return self._shift + self._resid

    @classmethod
    def from_shifted_sums(cls, n, shift, s1, s2, s3=0.0) -> "MomentAccumulator":
        """The accumulator of n rows y + shift from their raw sums: s1 the
        (d,) sums of y, s2 the (d, d) sums of y_i y_j and, for d = 3, s3 the
        sum of y_0 y_1 y_2.  The centring is applied here, once:

            m2_ij = s2_ij - s1_i s1_j / n
            m3    = s3 - (s1_0 s2_12 + s1_1 s2_02 + s1_2 s2_01) / n
                       + 2 s1_0 s1_1 s1_2 / n^2

        With shift near the column means, s1 is small and nothing cancels.
        The accumulator keeps the shift and the residual mean s1 / n, so
        :meth:`merge` takes the difference of two such means without
        cancelling their rounded values.

        Every accumulator is built here, so this is where non-finite input
        is refused, with a DomainError: a shift that is not finite (the
        data holds a nan or an infinity, or a column's sum overflows) and
        second or third sums that are not (finite data whose products
        overflow the float range).
        """
        if not np.isfinite(shift).all():
            raise DomainError("moments need finite data with a finite mean "
                              "(a column holds a nan or an infinity, or its sum overflows)")
        if not (np.isfinite(s2).all() and np.isfinite(s3)):
            raise DomainError("moments overflow: the data's products exceed the float range")
        acc = cls(len(shift))
        if n == 0:
            return acc
        acc.n = int(n)
        acc._shift, acc._resid = shift, s1 / n
        acc._m2 = s2 - s1[:, None] * s1 / n
        if acc.d == 3:
            a, b, c = s1
            acc._m3 = np.asarray(
                s3 - (a * s2[1, 2] + b * s2[0, 2] + c * s2[0, 1]) / n + 2.0 * a * b * c / n**2
            )
        return acc

    def update(self, chunk: np.ndarray) -> "MomentAccumulator":
        """Fold in a (d, m) chunk: its sums around its rounded mean, through
        :meth:`from_shifted_sums`.  Each product y_i y_j (i <= j) is formed
        in one reused row and summed with numpy's pairwise
        ``np.add.reduce``, written to both (i, j) and (j, i); for d = 3 the
        (0, 1) product is then multiplied in place by y_2 and summed again.
        A column holding a nan or an infinity, or whose sum overflows, has
        a non-finite mean, and finite data can overflow a second or third
        sum: :meth:`from_shifted_sums` refuses both, with a DomainError."""
        # a C-contiguous copy: a strided or F-ordered chunk reduces slower
        # and to other bits
        chunk = np.ascontiguousarray(chunk, dtype=float)
        if chunk.ndim != 2 or chunk.shape[0] != self.d:
            raise DomainError(f"expected a ({self.d}, m) chunk, got {chunk.shape}")
        m = chunk.shape[1]
        if m == 0:
            return self
        s2 = np.empty((self.d, self.d))
        s3 = 0.0
        w = np.empty(m)
        with np.errstate(over="ignore", invalid="ignore"):  # refused by from_shifted_sums
            shift = chunk.mean(axis=1)
            y = chunk - shift[:, None]
            for i in range(self.d):
                for j in range(i, self.d):
                    np.multiply(y[i], y[j], out=w)
                    s2[i, j] = s2[j, i] = np.add.reduce(w)
                    if self.d == 3 and (i, j) == (0, 1):
                        w *= y[2]
                        s3 = np.add.reduce(w)
            s1 = np.add.reduce(y, axis=1)
        return self.merge(MomentAccumulator.from_shifted_sums(m, shift, s1, s2, s3))

    def merge(self, other: "MomentAccumulator") -> "MomentAccumulator":
        if other.d != self.d:
            raise DomainError("cannot merge accumulators of different dimension")
        if other.n == 0:
            return self
        if self.n == 0:  # nothing writes an accumulator's arrays in place
            self.n = other.n
            self._shift, self._resid = other._shift, other._resid
            self._m2, self._m3 = other._m2, other._m3
            return self

        na, nb = self.n, other.n
        n = na + nb
        # two means far from 0 with a small spread: difference the parts
        delta = (other._shift - self._shift) + (other._resid - self._resid)

        if self.d == 3:  # before the second moments: it reads the pre-merge ones
            d0, d1, d2 = delta

            def cross(m2):  # d_0 m2_12 + d_1 m2_02 + d_2 m2_01
                return d0 * m2[1, 2] + d1 * m2[0, 2] + d2 * m2[0, 1]

            self._m3 = self._m3 + (
                other._m3
                + d0 * d1 * d2 * (na * nb * (na - nb) / n**2)
                + cross(other._m2) * (na / n)
                - cross(self._m2) * (nb / n)
            )

        self._m2 = self._m2 + (other._m2 + np.outer(delta, delta) * (na * nb / n))

        self._resid = self._resid + delta * (nb / n)
        self.n = n
        return self

    # -- extraction ----------------------------------------------------------

    def second_central(self) -> np.ndarray:
        """(d, d) matrix of mean-centered second moments, divided by n."""
        return self._m2 / self.n

    def _checked(self) -> tuple[np.ndarray, np.ndarray]:
        """second_central() and the standard deviations from it, once the
        accumulator has n >= 2 rows and no (numerically) constant column:
        one whose sd is at most 1e-15 of its |mean|, sd = 0 included.  The
        floor scales with the column, as the sd does."""
        if self.n < 2:
            raise DegenerateColumnError("need n >= 2 for variance-based statistics")
        c = self.second_central()
        s = np.sqrt(np.diag(c))
        floor = 1e-15 * np.abs(self.mean)
        if np.any(s <= floor):
            bad = int(np.argmax(s <= floor))
            raise DegenerateColumnError(
                f"column {bad} has (numerically) zero standard deviation"
            )
        return c, s

    def corr(self, i: int = 0, j: int = 1) -> float:
        c, s = self._checked()
        return float(c[i, j] / (s[i] * s[j]))

    def coskew(self) -> float:
        """Coskewness of the three columns: E[z_0 z_1 z_2] / (s_0 s_1 s_2)."""
        return self.standardized()[2]

    def standardized(self) -> tuple[np.ndarray, np.ndarray, float]:
        """The standard deviations, the (3, 3) correlation matrix and the
        coskewness of three columns, from one second_central(), for a
        caller that reports them all.  Each correlation is the expression
        of :meth:`corr`, so it equals ``corr(i, j)`` bit for bit."""
        if self.d != 3:
            raise DomainError(f"coskewness needs three columns, got d = {self.d}")
        c, s = self._checked()
        coskew = float(self._m3 / self.n / (s[0] * s[1] * s[2]))
        return s, c / np.outer(s, s), coskew


def _flat_columns(*cols) -> list[np.ndarray]:
    """The columns as 1-d float arrays, unstacked; DomainError unless they
    share a length."""
    arrs = [np.asarray(c, dtype=float).ravel() for c in cols]
    if any(a.size != arrs[0].size for a in arrs):
        raise DomainError("columns must share a common length")
    return arrs


def pearson_corr(x, y) -> float:
    """Population-normalized sample Pearson correlation."""
    return MomentAccumulator(2).update(np.stack(_flat_columns(x, y))).corr(0, 1)


def coskewness(x, y, z) -> float:
    """Standardized third cross-moment of three columns."""
    return MomentAccumulator(3).update(np.stack(_flat_columns(x, y, z))).coskew()


def rank_transform(x, marginal: Marginal | None = None) -> np.ndarray:
    """Map a column into (0, 1) rank space.

    With a marginal, applies its true CDF elementwise.  Without one, uses
    empirical midranks scaled as (rank - 1/2)/n, which keeps ties averaged
    and every value strictly inside (0, 1).  Both refuse a non-finite
    value with DomainError.
    """
    x = np.asarray(x, dtype=float).ravel()
    if not np.all(np.isfinite(x)):
        raise DomainError("ranks need finite values")
    if marginal is not None:
        return np.asarray(marginal.cdf(x), dtype=float)
    n = x.size
    if n < 2:
        raise DomainError("empirical ranks need n >= 2")
    # midrank of the sorted tie group [start, end) is (start + end + 1)/2
    order = np.argsort(x)
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    ends = np.r_[starts[1:], n]
    ranks = np.empty(n)
    ranks[order] = np.repeat((starts + ends + 1) / 2, ends - starts)
    return (ranks - 0.5) / n


def _rank_columns(*cols) -> list[np.ndarray]:
    """The columns as by :func:`_flat_columns`; DomainError unless they
    hold at least one row and every value lies in [0, 1] (nan does not)."""
    arrs = _flat_columns(*cols)
    if arrs[0].size == 0 or not all(a.min() >= 0.0 and a.max() <= 1.0 for a in arrs):
        raise DomainError("rank statistics need at least one row, every value in [0, 1]")
    return arrs


def spearman_rho(u, v) -> float:
    """Spearman correlation of rank columns: 12 E[(U - 1/2)(V - 1/2)]."""
    u, v = _rank_columns(u, v)
    return float(12.0 * np.mean((u - 0.5) * (v - 0.5)))


def rank_coskewness(u, v, w) -> float:
    """Standardized rank coskewness: 32 E[(U - 1/2)(V - 1/2)(W - 1/2)]."""
    u, v, w = _rank_columns(u, v, w)
    return float(32.0 * np.mean((u - 0.5) * (v - 0.5) * (w - 0.5)))


def count_event_rows(mask) -> int:
    """The number of rows an event mask selects; InsufficientEventRowsError
    when it is below MIN_EVENT_ROWS."""
    rows = int(np.count_nonzero(mask))
    if rows < MIN_EVENT_ROWS:
        raise InsufficientEventRowsError(
            f"event selects {rows} rows; need at least {MIN_EVENT_ROWS}"
        )
    return rows


def conditional_moments(cols, mask) -> MomentAccumulator:
    """Moment accumulator of the columns restricted to the rows where mask
    is true.  ``cols`` is a sequence of 1-d columns (a (d, n) array works);
    each is gathered on its own, so the chunk comes out C-ordered."""
    cols = [np.asarray(c, dtype=float).ravel() for c in cols]
    mask = np.asarray(mask, dtype=bool).ravel()
    if any(c.size != mask.size for c in cols):
        raise DomainError("columns and mask must share a common length")
    rows = count_event_rows(mask)
    chunk = np.empty((len(cols), rows))
    for row, c in zip(chunk, cols):
        np.compress(mask, c, out=row)
    return MomentAccumulator(len(cols)).update(chunk)


def conditional_corr(x, y, mask) -> float:
    """Pearson correlation restricted to the rows where mask is true."""
    return conditional_moments((x, y), mask).corr(0, 1)


@dataclass(frozen=True)
class EventSpec:
    """Conditioning event for conditional correlation.

    kind "downside" selects rows whose coordinate sum falls below its sample
    mean; "exceed-upper"/"exceed-lower" select rows where columns 0 and 1
    both cross their p-quantile thresholds (strictly above, resp. at or
    below).
    """

    kind: str
    p: float | None = None

    def __post_init__(self):
        check_kind(_EVENTS, "event kind", self.kind, self._numbers)
        if self._numbers and not 0.0 < self.p < 1.0:
            raise DomainError("exceedance events need p in (0, 1)")

    @property
    def token(self) -> str:
        return format_token(self.kind, self._numbers)

    @property
    def _numbers(self) -> tuple:
        return () if self.p is None else (self.p,)


# Each event kind and the names of its token's numbers: the list of kinds
# that EventSpec and parse_event read.
_EVENTS = {"downside": (), "exceed-upper": ("p",), "exceed-lower": ("p",)}


def parse_event(token: str) -> EventSpec:
    """Parse "downside", "exceed-upper:p" or "exceed-lower:p"."""
    name, numbers = split_token(token, _EVENTS, "event")
    return EventSpec(name, *numbers)


def _below_mean(s, mean=None):
    """The downside event's rule: which row sums s lie strictly below their
    sample mean, and that mean.  A given ``mean``, broadcast against s,
    stands in for it when s holds only some of the sample's rows."""
    mean = s.mean() if mean is None else mean
    return s < mean, mean


def build_event_mask(
    sample: TriSample,
    spec: EventSpec,
    marginals=None,
) -> np.ndarray:
    """Boolean row mask for an EventSpec.

    The sample's three columns are the container's rule (:class:`TriSample`),
    so no shape is checked here.  Exceedance thresholds come from the true
    marginal quantiles when ``marginals`` (a sequence, one per column) is
    given, otherwise from empirical quantiles of the sample itself.
    """
    if spec.kind == "downside":
        return _below_mean(sample.x.sum(axis=0))[0]

    x = sample.x[:2]
    if marginals is not None:
        thr = [float(m.quantile(spec.p)) for m in marginals[:2]]
    else:
        thr = [float(np.quantile(col, spec.p)) for col in x]
    if spec.kind == "exceed-upper":
        return (x[0] > thr[0]) & (x[1] > thr[1])
    return (x[0] <= thr[0]) & (x[1] <= thr[1])
