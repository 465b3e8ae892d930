"""Sample statistics: correlation, coskewness, rank analogues, and
event-conditional correlation.

All standard deviations are population-normalized (divide by n, no Bessel
correction) and the rank statistics center on the constant 1/2, never on
sample means:

    pearson          cov_n(x, y) / (s_x s_y)
    coskewness       mean((x-xbar)(y-ybar)(z-zbar)) / (s_x s_y s_z)
    spearman_rho     12 * mean((u - 1/2)(v - 1/2))
    rank_coskewness  32 * mean((u - 1/2)(v - 1/2)(w - 1/2))

Moments come from a streaming accumulator that centers within each chunk
and merges chunk summaries with shift-stable update formulas (Pebay 2008)
plus Neumaier compensation, so results are accurate to ~1e-12 relative up
to n = 1e7 and bit-stable for a fixed chunking.  It keeps only what the
statistics read: the means, the second moments and, for three columns, the
one mixed third moment sum z_0 z_1 z_2.  Every sum over rows is numpy's
pairwise ``np.add.reduce`` of an elementwise product, never a BLAS call,
so the bits do not depend on the CPU kernel or the thread count.  Each
second moment is written to both (i, j) and (j, i), so the matrix is
exactly symmetric.  A mixture sweep builds each lambda's accumulator by
merging per-bin accumulators of the selector (see
:meth:`coskew.copulas.MixtureSweep.moments`), under the same contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateColumnError,
    DomainError,
    InsufficientEventRowsError,
)
from .marginals import Marginal, token_number
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
    "build_event_mask",
    "MIN_EVENT_ROWS",
]

MIN_EVENT_ROWS = 30


def _neumaier_add(total: np.ndarray, comp: np.ndarray, term: np.ndarray) -> np.ndarray:
    """total + term with the rounding error folded into comp; returns new total."""
    new = total + term
    big = np.abs(total) >= np.abs(term)
    comp += np.where(big, (total - new) + term, (term - new) + total)
    return new


class MomentAccumulator:
    """Streaming accumulator of the central moments that coskew reads: the
    column means, the (d, d) second moments and, for three columns, the
    mixed third moment sum z_0 z_1 z_2.

    Feed data once, in chunks of shape (d, m); each chunk is centered on its
    own mean and folded in with merge formulas that never subtract large
    raw moments, so the result is invariant (to rounding) under shifts of
    the data.  Accumulators can also be merged pairwise; merging in a fixed
    chunk order gives bit-identical results.

    ``update`` forms each product z_i z_j (i <= j) of a chunk in one reused
    row and sums it with numpy's pairwise ``np.add.reduce``, writing the sum
    to both (i, j) and (j, i).  For d = 3 the (0, 1) product is then
    multiplied in place by z_2 and summed again for the third moment.
    """

    def __init__(self, d: int):
        if d < 1:
            raise DomainError(f"dimension must be >= 1, got {d}")
        self.d = d
        self.n = 0
        self.mean = np.zeros(d)
        self._m2 = np.zeros((d, d))
        self._m2c = np.zeros((d, d))
        self._m3 = np.zeros(())  # sum z_0 z_1 z_2; stays 0 unless d = 3
        self._m3c = np.zeros(())

    def update(self, chunk: np.ndarray) -> "MomentAccumulator":
        # a C-contiguous copy: a strided or F-ordered chunk reduces slower
        # and to other bits
        chunk = np.ascontiguousarray(chunk, dtype=float)
        if chunk.ndim != 2 or chunk.shape[0] != self.d:
            raise DomainError(f"expected a ({self.d}, m) chunk, got {chunk.shape}")
        m = chunk.shape[1]
        if m == 0:
            return self
        other = MomentAccumulator(self.d)
        other.n = m
        other.mean = chunk.mean(axis=1)
        z = chunk - other.mean[:, None]
        w = np.empty(m)
        for i in range(self.d):
            for j in range(i, self.d):
                np.multiply(z[i], z[j], out=w)
                other._m2[i, j] = other._m2[j, i] = np.add.reduce(w)
                if self.d == 3 and (i, j) == (0, 1):
                    w *= z[2]
                    other._m3 = np.add.reduce(w)
        self.merge(other)
        return self

    def merge(self, other: "MomentAccumulator") -> "MomentAccumulator":
        if other.d != self.d:
            raise DomainError("cannot merge accumulators of different dimension")
        if other.n == 0:
            return self
        if self.n == 0:
            self.n = other.n
            self.mean = other.mean.copy()
            self._m2 = other._m2.copy()
            self._m2c = other._m2c.copy()
            self._m3 = other._m3.copy()
            self._m3c = other._m3c.copy()
            return self

        na, nb = self.n, other.n
        n = na + nb
        delta = other.mean - self.mean

        m2a = self._m2 + self._m2c
        m2b = other._m2 + other._m2c

        if self.d == 3:  # before the second moments: it reads the pre-merge ones
            d0, d1, d2 = delta

            def cross(m2):  # d_0 m2_12 + d_1 m2_02 + d_2 m2_01
                return d0 * m2[1, 2] + d1 * m2[0, 2] + d2 * m2[0, 1]

            m3_term = (
                other._m3
                + other._m3c
                + d0 * d1 * d2 * (na * nb * (na - nb) / n**2)
                + cross(m2b) * (na / n)
                - cross(m2a) * (nb / n)
            )
            self._m3 = _neumaier_add(self._m3, self._m3c, m3_term)

        m2_term = m2b + np.outer(delta, delta) * (na * nb / n)
        self._m2 = _neumaier_add(self._m2, self._m2c, m2_term)

        self.mean = self.mean + delta * (nb / n)
        self.n = n
        return self

    # -- extraction ----------------------------------------------------------

    def second_central(self) -> np.ndarray:
        """(d, d) matrix of mean-centered second moments, divided by n."""
        return (self._m2 + self._m2c) / self.n

    def sds(self) -> np.ndarray:
        """Population standard deviations."""
        return np.sqrt(np.diag(self.second_central()))

    def _checked_sds(self) -> np.ndarray:
        if self.n < 2:
            raise DegenerateColumnError("need n >= 2 for variance-based statistics")
        s = self.sds()
        floor = 1e-15 * np.maximum(1.0, np.abs(self.mean))
        if np.any(s <= floor):
            bad = int(np.argmax(s <= floor))
            raise DegenerateColumnError(
                f"column {bad} has (numerically) zero standard deviation"
            )
        return s

    def corr(self, i: int = 0, j: int = 1) -> float:
        s = self._checked_sds()
        return float(self.second_central()[i, j] / (s[i] * s[j]))

    def coskew(self) -> float:
        """Coskewness of the three columns: E[z_0 z_1 z_2] / (s_0 s_1 s_2)."""
        if self.d != 3:
            raise DomainError(f"coskewness needs three columns, got d = {self.d}")
        s = self._checked_sds()
        return float((self._m3 + self._m3c) / self.n / (s[0] * s[1] * s[2]))


def _columns(*cols) -> np.ndarray:
    arrs = [np.asarray(c, dtype=float).ravel() for c in cols]
    n = arrs[0].size
    if any(a.size != n for a in arrs):
        raise DomainError("columns must share a common length")
    if n < 2:
        raise DegenerateColumnError("need n >= 2 for variance-based statistics")
    return np.stack(arrs)


def pearson_corr(x, y) -> float:
    """Population-normalized sample Pearson correlation."""
    return MomentAccumulator(2).update(_columns(x, y)).corr(0, 1)


def coskewness(x, y, z) -> float:
    """Standardized third cross-moment of three columns."""
    return MomentAccumulator(3).update(_columns(x, y, z)).coskew()


def rank_transform(x, marginal: Marginal | None = None) -> np.ndarray:
    """Map a column into (0, 1) rank space.

    With a marginal, applies its true CDF elementwise.  Without one, uses
    empirical midranks scaled as (rank - 1/2)/n, which keeps ties averaged
    and every value strictly inside (0, 1).
    """
    x = np.asarray(x, dtype=float).ravel()
    if marginal is not None:
        return np.asarray(marginal.cdf(x), dtype=float)
    n = x.size
    if n < 2:
        raise DomainError("empirical ranks need n >= 2")
    if not np.all(np.isfinite(x)):
        raise DomainError("empirical ranks need finite values")
    # midrank of the sorted tie group [start, end) is (start + end + 1)/2
    order = np.argsort(x)
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    ends = np.r_[starts[1:], n]
    ranks = np.empty(n)
    ranks[order] = np.repeat((starts + ends + 1) / 2, ends - starts)
    return (ranks - 0.5) / n


def spearman_rho(u, v) -> float:
    """Spearman correlation of rank columns: 12 E[(U - 1/2)(V - 1/2)]."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return float(12.0 * np.mean((u - 0.5) * (v - 0.5)))


def rank_coskewness(u, v, w) -> float:
    """Standardized rank coskewness: 32 E[(U - 1/2)(V - 1/2)(W - 1/2)]."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    return float(32.0 * np.mean((u - 0.5) * (v - 0.5) * (w - 0.5)))


def conditional_moments(cols, mask) -> MomentAccumulator:
    """Moment accumulator of the columns restricted to the rows where mask
    is true.  ``cols`` is a sequence of 1-d columns (a (d, n) array works);
    each is gathered on its own, so the chunk comes out C-ordered."""
    cols = [np.asarray(c, dtype=float).ravel() for c in cols]
    mask = np.asarray(mask, dtype=bool).ravel()
    if any(c.size != mask.size for c in cols):
        raise DomainError("columns and mask must share a common length")
    rows = int(np.count_nonzero(mask))
    if rows < MIN_EVENT_ROWS:
        raise InsufficientEventRowsError(
            f"event selects {rows} rows; need at least {MIN_EVENT_ROWS}"
        )
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
        if self.kind not in ("downside", "exceed-upper", "exceed-lower"):
            raise DomainError(f"unknown event kind {self.kind!r}")
        if self.kind != "downside":
            if self.p is None or not 0.0 < self.p < 1.0:
                raise DomainError("exceedance events need p in (0, 1)")

    @property
    def token(self) -> str:
        if self.kind == "downside":
            return "downside"
        return f"{self.kind}:{token_number(self.p)}"

    def __str__(self) -> str:
        return self.token


def parse_event(token: str) -> EventSpec:
    """Parse "downside", "exceed-upper:p" or "exceed-lower:p"."""
    token = token.strip().lower()
    name, _, arg = token.partition(":")
    if name == "downside":
        return EventSpec("downside")
    if name in ("exceed-upper", "exceed-lower"):
        if not arg:
            raise DomainError(f"{name} needs a probability, e.g. '{name}:0.9'")
        return EventSpec(name, p=float(arg))
    raise DomainError(f"unknown event token {token!r}")


def build_event_mask(
    sample: TriSample,
    spec: EventSpec,
    marginals=None,
) -> np.ndarray:
    """Boolean row mask for an EventSpec.

    Exceedance thresholds come from the true marginal quantiles when
    ``marginals`` (a sequence, one per column) is given, otherwise from
    empirical quantiles of the sample itself.
    """
    if spec.kind == "downside":
        if sample.d != 3:
            raise DomainError("downside-sum event needs exactly three columns")
        s = sample.x.sum(axis=0)
        return s < s.mean()

    if sample.d < 2:
        raise DomainError(f"exceedance events need two columns, got d = {sample.d}")
    x = sample.x[:2]
    if marginals is not None:
        thr = [float(m.quantile(spec.p)) for m in marginals[:2]]
    else:
        thr = [float(np.quantile(col, spec.p)) for col in x]
    if spec.kind == "exceed-upper":
        return (x[0] > thr[0]) & (x[1] > thr[1])
    return (x[0] <= thr[0]) & (x[1] <= thr[1])
