"""Seeded samplers for every trivariate dependence structure in the toolkit.

All samplers emit a :class:`~coskew.samples.USample` of uniform-margin
triples.  The extremal constructions flip U against 1-U according to the
indicators I = 1{U > 1/2} and J = 1{V > 1/2}:

* maximum-coskewness:  u2 = U if J else 1-U;  u3 = U if I == J else 1-U
* minimum-coskewness:  u2 as above;           u3 = 1-U if I == J else U

The mixture structure draws a Bernoulli(lambda) selector per row from its
own substream and takes the max-branch third coordinate where it fires.
Because the selector compares a shared uniform draw against lambda, sweeps
over lambda are coupled pathwise: raising lambda only ever flips rows from
the min branch to the max branch.  :func:`mixture_sweep` uses this to run a
whole lambda grid from one draw, and to reduce it without a pass per
lambda: binning the rows by how many grid points lie at or below their
selector value, each lambda's moments merge the max-branch bins below it
with the min-branch bins above it.  Every coordinate of these copulas is U or
1-U, so it inverts each distinct marginal once, at U, for the pair
(F^-1(U), F^-1(1-U)), and per lambda only picks each row's third value with
the selector.  For a symmetric marginal F^-1(1-U) is the reflection
2*mean - F^-1(U), which equals the direct quantile bit for bit on the
samplers' k/2^53 grid; :func:`to_data` clamps to that grid's own ends, so
it moves no sampled value.  :func:`sample_data` takes the same path for one
max, min or mixture sample, as ``coskew sample`` draws it.  A sweep's
true-CDF rank statistics need no marginal at all: the rank of F^-1(U) is U,
so :meth:`MixtureSweep.rank_stats` sums the copula coordinates' centred
products over the same bins.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidCorrelationError
from .estimators import MomentAccumulator
from .marginals import Marginal, norm_cdf
from .samples import U_MIN, SeedSpec, TriSample, USample, substream, uniform_open

__all__ = [
    "CopulaSpec",
    "GaussianParams",
    "MixtureSweep",
    "extremal_coords",
    "gaussian_scores",
    "mixing_sum_coords",
    "mixture_sweep",
    "parse_copula",
    "sample",
    "sample_comonotonic",
    "sample_data",
    "sample_independence",
    "sample_max_coskew",
    "sample_min_coskew",
    "sample_mixture",
    "sample_mixing_sum",
    "sample_gaussian",
    "to_data",
]

# substream roles shared by the extremal/mixture family so that a lambda
# change never perturbs the (U, V) draws
_OFF_U = 0
_OFF_V = 1
_OFF_B = 2


@dataclass(frozen=True)
class GaussianParams:
    """Pairwise correlations of a trivariate Gaussian, with the derived
    coefficients a = sqrt(1 - rho12^2) and
    b = sqrt(1 - rho12^2 - rho13^2 - rho23^2 + 2 rho12 rho13 rho23) used to
    combine three independent standard normals."""

    rho12: float
    rho13: float
    rho23: float

    def __post_init__(self):
        for r in (self.rho12, self.rho13, self.rho23):
            if not -1.0 < r < 1.0:
                raise DomainError(f"correlations must lie in (-1, 1), got {r}")
        if self.b_squared < 0.0:
            raise InvalidCorrelationError(
                f"(rho12, rho13, rho23) = ({self.rho12}, {self.rho13}, "
                f"{self.rho23}) is not a valid correlation matrix "
                f"(b^2 = {self.b_squared:.6g} < 0)"
            )

    @property
    def a(self) -> float:
        return float(np.sqrt(1.0 - self.rho12**2))

    @property
    def b_squared(self) -> float:
        return (
            1.0
            - self.rho12**2
            - self.rho13**2
            - self.rho23**2
            + 2.0 * self.rho12 * self.rho13 * self.rho23
        )

    @property
    def b(self) -> float:
        return float(np.sqrt(max(self.b_squared, 0.0)))


@dataclass(frozen=True)
class CopulaSpec:
    """Tagged description of one dependence structure.

    kind is one of "comonotonic", "independence", "max", "min", "mixture",
    "mixingsum", "gaussian".  lam applies to "mixture"; gaussian carries its
    GaussianParams.
    """

    kind: str
    lam: float | None = None
    gaussian: GaussianParams | None = None

    def __post_init__(self):
        kinds = (
            "comonotonic",
            "independence",
            "max",
            "min",
            "mixture",
            "mixingsum",
            "gaussian",
        )
        if self.kind not in kinds:
            raise DomainError(f"unknown copula kind {self.kind!r}")
        if self.kind == "mixture":
            if self.lam is None or not 0.0 <= self.lam <= 1.0:
                raise DomainError("mixture needs lambda in [0, 1]")
        if self.kind == "gaussian" and self.gaussian is None:
            raise DomainError("gaussian copula needs correlation parameters")

    @property
    def token(self) -> str:
        if self.kind == "mixture":
            return f"mixture:{self.lam:g}"
        if self.kind == "gaussian":
            g = self.gaussian
            return f"gaussian:{g.rho12:g},{g.rho13:g},{g.rho23:g}"
        return self.kind

    def __str__(self) -> str:
        return self.token


def parse_copula(token: str) -> CopulaSpec:
    """Parse a CLI token such as "mixture:0.25" or "gaussian:0.8,0.5,0.3"."""
    token = token.strip().lower()
    name, _, arg = token.partition(":")
    if name in ("comonotonic", "independence", "max", "min", "mixingsum"):
        return CopulaSpec(name)
    if name == "mixture":
        if not arg:
            raise DomainError("mixture token needs a lambda, e.g. 'mixture:0.25'")
        return CopulaSpec("mixture", lam=float(arg))
    if name == "gaussian":
        parts = re.split(r"[,;]", arg) if arg else []
        if len(parts) != 3:
            raise DomainError(
                "gaussian token needs three correlations, e.g. 'gaussian:0.8,0.5,0.3'"
            )
        r12, r13, r23 = (float(s) for s in parts)
        return CopulaSpec("gaussian", gaussian=GaussianParams(r12, r13, r23))
    raise DomainError(f"unknown copula token {token!r}")


def _check_n(n: int) -> int:
    n = int(n)
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    return n


def extremal_coords(u, v):
    """Second and third coordinates of the extremal constructions at (u, v).

    Returns (u2, u3_max); the minimum-coskewness third coordinate is the
    reflection 1 - u3_max.  Ties at exactly 1/2 fall in the I = 0 (J = 0)
    branch, matching the strict inequality in the indicators.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    i = u > 0.5
    j = v > 0.5
    u2 = np.where(j, u, 1.0 - u)
    u3_max = np.where(i == j, u, 1.0 - u)
    return u2, u3_max


def mixing_sum_coords(u):
    """Second and third coordinates of the mixing copula at u.

    u2 = 1-2u and u3 = u+1/2 when u <= 1/2, else u2 = 2-2u and u3 = u-1/2,
    so u + u2 + u3 = 3/2 identically.
    """
    u = np.asarray(u, dtype=float)
    lower = u <= 0.5
    u2 = np.where(lower, 1.0 - 2.0 * u, 2.0 - 2.0 * u)
    u3 = np.where(lower, u + 0.5, u - 0.5)
    return u2, u3


def _check_lam(lam: float) -> float:
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"lambda must lie in [0, 1], got {lam}")
    return lam


def _extremal_u(n: int, seed: SeedSpec):
    """Shared (u, v) draws plus the branch coordinates of both extremes."""
    u = uniform_open(substream(seed, _OFF_U), n)
    v = uniform_open(substream(seed, _OFF_V), n)
    u2, u3_max = extremal_coords(u, v)
    return u, u2, u3_max


def sample_max_coskew(n: int, seed: SeedSpec = SeedSpec()) -> USample:
    """Copula attaining the maximum coskewness for symmetric marginals."""
    n = _check_n(n)
    u, u2, u3_max = _extremal_u(n, seed)
    return USample(np.stack([u, u2, u3_max]), seed)


def sample_min_coskew(n: int, seed: SeedSpec = SeedSpec()) -> USample:
    """Copula attaining the minimum coskewness for symmetric marginals."""
    n = _check_n(n)
    u, u2, u3_max = _extremal_u(n, seed)
    return USample(np.stack([u, u2, 1.0 - u3_max]), seed)


def sample_mixture(n: int, lam: float, seed: SeedSpec = SeedSpec()) -> USample:
    """Bernoulli(lambda) pathwise mixture of the two extremal copulas.

    The first two coordinates coincide with both extremes; the third takes
    the max-branch value where B = 1 and the min-branch value (its
    reflection 1-U3) where B = 0.  lam = 1 and lam = 0 reproduce
    sample_max_coskew / sample_min_coskew bit-for-bit.
    """
    n = _check_n(n)
    lam = _check_lam(lam)
    u, u2, u3_max = _extremal_u(n, seed)
    # coupled selector: same substream draws for every lambda
    h = substream(seed, _OFF_B).random(n)
    b = h < lam
    u3 = np.where(b, u3_max, 1.0 - u3_max)
    return USample(np.stack([u, u2, u3]), seed)


def sample_comonotonic(n: int, seed: SeedSpec = SeedSpec()) -> USample:
    """All three margins driven by the same uniform."""
    n = _check_n(n)
    u = uniform_open(substream(seed, _OFF_U), n)
    return USample(np.stack([u, u.copy(), u.copy()]), seed)


def sample_independence(n: int, seed: SeedSpec = SeedSpec()) -> USample:
    """Three independent uniform margins."""
    n = _check_n(n)
    cols = [uniform_open(substream(seed, k), n) for k in range(3)]
    return USample(np.stack(cols), seed)


def sample_mixing_sum(n: int, seed: SeedSpec = SeedSpec()) -> USample:
    """Mixing copula: the piecewise-linear dependence with U1+U2+U3 = 3/2."""
    n = _check_n(n)
    u = uniform_open(substream(seed, _OFF_U), n)
    u2, u3 = mixing_sum_coords(u)
    return USample(np.stack([u, u2, u3]), seed)


def gaussian_scores(
    n: int, params: GaussianParams, seed: SeedSpec = SeedSpec()
) -> np.ndarray:
    """Correlated standard normal scores (H1, H2, H3) as a (3, n) array,
    built from three independent standard normals:

        H1 = Z1
        H2 = rho12 Z1 + a Z2
        H3 = rho13 Z1 + (rho23 - rho12 rho13)/a Z2 + (b/a) Z3

    They are the Gaussian copula's data under standard normal margins.
    """
    n = _check_n(n)
    a = params.a
    if a == 0.0:
        raise InvalidCorrelationError("rho12 = +-1 degenerates the construction")
    z = substream(seed, 0).standard_normal((3, n))
    h1 = z[0]
    h2 = params.rho12 * z[0] + a * z[1]
    h3 = (
        params.rho13 * z[0]
        + (params.rho23 - params.rho12 * params.rho13) / a * z[1]
        + params.b / a * z[2]
    )
    return np.stack([h1, h2, h3])


def sample_gaussian(
    n: int, params: GaussianParams, seed: SeedSpec = SeedSpec()
) -> USample:
    """Gaussian copula: the normal CDF of :func:`gaussian_scores`."""
    return USample(norm_cdf(gaussian_scores(n, params, seed)), seed)


def sample(spec: CopulaSpec, n: int, seed: SeedSpec = SeedSpec()) -> USample:
    """Dispatch on a CopulaSpec."""
    if spec.kind == "comonotonic":
        return sample_comonotonic(n, seed)
    if spec.kind == "independence":
        return sample_independence(n, seed)
    if spec.kind == "max":
        return sample_max_coskew(n, seed)
    if spec.kind == "min":
        return sample_min_coskew(n, seed)
    if spec.kind == "mixture":
        return sample_mixture(n, spec.lam, seed)
    if spec.kind == "mixingsum":
        return sample_mixing_sum(n, seed)
    return sample_gaussian(n, spec.gaussian, seed)


_CLAMP = U_MIN


def to_data(us: USample, m1: Marginal, m2: Marginal, m3: Marginal) -> TriSample:
    """Apply marginal quantiles columnwise: x_j = F_j^{-1}(u_j).

    Entries are clamped to [U_MIN, 1 - U_MIN], the ends of the samplers'
    k/2^53 grid, so no grid value moves.  Only exact 0 and 1 (the mixing
    copula's u2 and u3 at u = 1/2, or a hand-built sample) and a Gaussian
    coordinate whose normal CDF leaves the grid (|z| above about 8.2) do.
    """
    cols = []
    for m, u in zip((m1, m2, m3), us.u):
        cols.append(m.quantile(np.clip(u, _CLAMP, 1.0 - _CLAMP)))
    return TriSample(np.stack(cols), us.seed)


def sample_data(spec: CopulaSpec, n: int, marginals, seed: SeedSpec = SeedSpec()) -> TriSample:
    """Data-space sample of a copula, equal to
    ``to_data(sample(spec, n, seed), *marginals)`` bit for bit.  The max and
    min copulas and their mixture take the branch-aware path of
    :func:`mixture_sweep`, which inverts each distinct marginal once; max
    and min are its lambda = 1 and lambda = 0 ends."""
    if spec.kind not in ("max", "min", "mixture"):
        return to_data(sample(spec, n, seed), *marginals)
    lam = {"max": 1.0, "min": 0.0}.get(spec.kind, spec.lam)
    _, ts = next(iter(mixture_sweep(n, [lam], marginals, seed)))
    return ts


def _quantile_pair(m: Marginal, u):
    """(F^-1(u), F^-1(1 - u)) for u on the samplers' k/2^53 grid, each equal
    to to_data's quantile bit for bit.  A symmetric marginal reflects the
    first, 2*mean - F^-1(u); a non-symmetric one inverts 1 - u as well."""
    x = m.quantile(u)
    return x, 2.0 * m.mean - x if m.symmetric else m.quantile(1.0 - u)


def _branch_columns(n: int, marginals, seed: SeedSpec):
    """x1, x2 and the max- and min-branch x3 of one extremal draw, picked
    from each distinct marginal's quantile pair by whether the coordinate
    is 1 - u (the min branch's x3 is at 1 - u3_max)."""
    u, u2, u3 = sample_max_coskew(n, seed).u
    flip2, flip3 = u2 != u, u3 != u
    pairs = {m: _quantile_pair(m, u) for m in dict.fromkeys(marginals)}
    del u, u2, u3  # free the draws before the columns are built
    (a1, _), (a2, b2), (a3, b3) = (pairs[m] for m in marginals)
    return a1, np.where(flip2, b2, a2), np.where(flip3, b3, a3), np.where(flip3, a3, b3)


# 12 E[(U - 1/2)(V - 1/2)] for each Spearman rho and 32 E[...] for the rank
# coskewness, as in coskew.estimators
_RANK_SCALE = np.array([12.0, 12.0, 12.0, 32.0])


@dataclass(frozen=True, eq=False)
class MixtureSweep:
    """One mixture draw over a lambda grid: the columns x1 and x2, both
    branches' x3 and the selector h, from :func:`mixture_sweep`.

    Iterating yields (lam, TriSample) for each lambda in order; each sample
    equals ``to_data(sample_mixture(n, lam, seed), *marginals)`` bit for
    bit.  :meth:`moments` gives each lambda's moment accumulator and
    :meth:`rank_stats` its true-CDF rank statistics, without building the
    samples.
    """

    lams: tuple[float, ...]
    x1: np.ndarray
    x2: np.ndarray
    hi3: np.ndarray
    lo3: np.ndarray
    h: np.ndarray
    seed: SeedSpec

    def __iter__(self):
        for lam in self.lams:
            x = np.stack([self.x1, self.x2, np.where(self.h < lam, self.hi3, self.lo3)])
            yield lam, TriSample(x, self.seed)

    def _bins(self):
        """The sorted distinct grid points, a stable order of the rows by
        bin, and the bin edges in that order.  Bin k holds the rows with k
        grid points <= h, so at the g-th point bins 0..g are on the max
        branch (h < lam) and bins g+1..G on the min branch."""
        grid = np.unique(self.lams)
        bins = np.zeros(self.h.size, np.min_scalar_type(grid.size))
        for lam in grid:
            bins += self.h >= lam
        order = np.argsort(bins, kind="stable")
        edges = np.r_[0, np.cumsum(np.bincount(bins, minlength=grid.size + 1))]
        return grid, order, edges

    def moments(self) -> list[MomentAccumulator]:
        """A 3-column accumulator of (x1, x2, x3) for each lambda, in order.

        The rows are sorted by bin once (:meth:`_bins`), each nonempty bin is
        reduced once per branch it can take, and each point's accumulator
        merges the max-branch prefix with the min-branch suffix.  The merges
        are shift-stable and compensated, so the values match a one-shot
        update of each sample to ~1e-12 relative; the bits differ.
        """
        grid, order, edges = self._bins()
        g_max = grid.size
        cols = np.empty((4, self.h.size))
        for row, col in zip(cols, (self.x1, self.x2, self.hi3, self.lo3)):
            np.take(col, order, out=row)
        del order

        def reduce(branch, k):
            return MomentAccumulator(3).update(cols[branch, edges[k]:edges[k + 1]])

        suffix = [MomentAccumulator(3)]
        for k in range(g_max, 0, -1):
            acc = MomentAccumulator(3).merge(suffix[-1])
            suffix.append(acc.merge(reduce([0, 1, 3], k)))
        suffix.reverse()  # suffix[g]: the min branch over bins g+1..G
        prefix, at_point = MomentAccumulator(3), []
        for g in range(g_max):
            prefix.merge(reduce([0, 1, 2], g))
            at_point.append(MomentAccumulator(3).merge(prefix).merge(suffix[g]))
        return [at_point[g] for g in np.searchsorted(grid, self.lams)]

    def rank_stats(self) -> np.ndarray:
        """True-CDF rank statistics for each lambda, in order: one row of
        (rho12_s, rho13_s, rho23_s, rs) per lambda.

        The true-CDF rank of F^-1(u) is u, so the rank coordinates are the
        copula's u, u2 and u3, replayed from the seed; no marginal is
        involved.  Each is u or 1 - u, so every centred product is
        +-(u - 1/2)^k, and a row on the min branch flips the sign of every
        product with u3.  Each product, taken with the max branch's u3, is
        summed over each bin of :meth:`_bins` as one contiguous slice; at
        the g-th point its sum over the rows is 2 * (the sum over bins
        0..g) - (the total).  rho12_s takes no branch.  The values match
        spearman_rho and rank_coskewness of each lambda's ranks to ~1e-15.
        """
        grid, order, edges = self._bins()
        n = self.h.size
        a, b, c = (np.take(col, order) - 0.5 for col in _extremal_u(n, self.seed))
        del order
        bin_sums = np.array([
            [np.sum(a[s] * b[s]), np.sum(a[s] * c[s]), np.sum(b[s] * c[s]),
             np.sum(a[s] * b[s] * c[s])]
            for s in map(slice, edges[:-1], edges[1:])
        ])
        total = bin_sums.sum(axis=0)
        sums = 2.0 * np.cumsum(bin_sums, axis=0)[:-1] - total
        sums[:, 0] = total[0]
        return sums[np.searchsorted(grid, self.lams)] * _RANK_SCALE / n


def mixture_sweep(n: int, lams, marginals, seed: SeedSpec = SeedSpec()) -> MixtureSweep:
    """Data-space mixture samples over a lambda grid, drawn once.

    The uniforms and the selector are drawn once, and each distinct
    marginal is inverted once, at u, for the pair (F^-1(u), F^-1(1 - u)):
    a symmetric marginal reflects it, 2*mean - F^-1(u), and a
    non-symmetric one inverts 1 - u as well.  x1, x2 and both branches' x3
    are picked from those pairs by whether the coordinate is 1 - u.  Each
    lambda's sample only stacks x1, x2 and the x3 its selector picks, and
    its moments come from merged per-bin accumulators
    (:meth:`MixtureSweep.moments`).  A lambda outside [0, 1] raises
    DomainError, as in sample_mixture, before anything is drawn.
    """
    lams = tuple(_check_lam(lam) for lam in lams)
    x1, x2, hi3, lo3 = _branch_columns(n, marginals, seed)
    h = substream(seed, _OFF_B).random(n)
    return MixtureSweep(lams, x1, x2, hi3, lo3, h, seed)
