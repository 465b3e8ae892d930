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
the min branch to the max branch.  :mod:`coskew.sweep` runs a whole lambda
grid from one draw on that coupling.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .analytic import _check_lam, corr_det
from .errors import DomainError, InvalidCorrelationError
from .marginals import Marginal, norm_cdf, token_float, token_number
from .samples import U_MIN, SeedSpec, TriSample, USample, substream, uniform_open

__all__ = [
    "CopulaSpec",
    "GaussianParams",
    "gaussian_correlate",
    "gaussian_z",
    "mixing_sum_coords",
    "parse_copula",
    "sample",
    "sample_comonotonic",
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
        return corr_det(self.rho12, self.rho13, self.rho23)

    @property
    def b(self) -> float:
        return float(np.sqrt(self.b_squared))


@dataclass(frozen=True)
class CopulaSpec:
    """Tagged description of one dependence structure.

    kind is one of the copula kinds (the keys of ``_SAMPLERS``).  lam is
    set for "mixture" only, and gaussian, its GaussianParams, for
    "gaussian" only.
    """

    kind: str
    lam: float | None = None
    gaussian: GaussianParams | None = None

    def __post_init__(self):
        if self.kind not in _SAMPLERS:
            raise DomainError(f"unknown copula kind {self.kind!r}")
        if self.kind == "mixture":
            if self.lam is None or not 0.0 <= self.lam <= 1.0:
                raise DomainError("mixture needs lambda in [0, 1]")
        elif self.lam is not None:
            raise DomainError(f"{self.kind} copula takes no lambda")
        if self.kind == "gaussian":
            if self.gaussian is None:
                raise DomainError("gaussian copula needs correlation parameters")
        elif self.gaussian is not None:
            raise DomainError(f"{self.kind} copula takes no correlation parameters")

    @property
    def token(self) -> str:
        if self.kind == "mixture":
            return f"mixture:{token_number(self.lam)}"
        if self.kind == "gaussian":
            g = self.gaussian
            return "gaussian:" + ",".join(map(token_number, (g.rho12, g.rho13, g.rho23)))
        return self.kind

    def __str__(self) -> str:
        return self.token


def parse_copula(token: str) -> CopulaSpec:
    """Parse a CLI token such as "max", "mixture:0.25" or
    "gaussian:0.8,0.5,0.3".  A kind without parameters takes no ":"."""
    token = token.strip().lower()
    name, colon, arg = token.partition(":")
    if name == "mixture":
        if not arg:
            raise DomainError("mixture token needs a lambda, e.g. 'mixture:0.25'")
        return CopulaSpec("mixture", lam=token_float(arg, token))
    if name == "gaussian":
        parts = re.split(r"[,;]", arg) if arg else []
        if len(parts) != 3:
            raise DomainError(
                "gaussian token needs three correlations, e.g. 'gaussian:0.8,0.5,0.3'"
            )
        r12, r13, r23 = (token_float(s, token) for s in parts)
        return CopulaSpec("gaussian", gaussian=GaussianParams(r12, r13, r23))
    if name not in _SAMPLERS:
        raise DomainError(f"unknown copula token {token!r}")
    if colon:
        raise DomainError(f"copula {name!r} takes no parameter, got {token!r}")
    return CopulaSpec(name)


def _check_n(n: int) -> int:
    n = int(n)
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    return n


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


def _extremal_draw(n: int, seed: SeedSpec):
    """The shared draws u and the indicators I = 1{u > 1/2} and
    J = 1{v > 1/2}."""
    n = _check_n(n)
    u = uniform_open(substream(seed, _OFF_U), n)
    v = uniform_open(substream(seed, _OFF_V), n)
    return u, u > 0.5, v > 0.5


def _flipped_rows(u, flip2, flip3) -> np.ndarray:
    """The (3, n) block (u, u2, u3), written once: u2 and u3 are
    1/2 + (u - 1/2) with the sign bit of u - 1/2 flipped where flip2 and
    flip3 are set.  On the k/2^53 grid u - 1/2 is exact, so a flipped
    coordinate is one rounding of the exact 1 - u: the bits of ``1.0 - u``.
    The samplers are tested bit for bit against the reference for any u,
    the ``np.where`` select between u and ``1.0 - u`` (``extremal_coords``
    in ``tests/test_copulas.py``)."""
    out = np.empty((3, u.size))
    bits = out.view(np.uint64)
    bits[1], bits[2] = flip2, flip3
    bits[1:] <<= 63
    np.subtract(u, 0.5, out=out[0])
    bits[1:] ^= bits[0]
    out += 0.5  # row 0 back to u, exactly
    return out


def sample_max_coskew(n: int, seed: SeedSpec = SeedSpec()) -> USample:
    """Copula attaining the maximum coskewness for symmetric marginals."""
    u, i, j = _extremal_draw(n, seed)
    return USample(_flipped_rows(u, ~j, i != j), seed)


def sample_min_coskew(n: int, seed: SeedSpec = SeedSpec()) -> USample:
    """Copula attaining the minimum coskewness for symmetric marginals."""
    u, i, j = _extremal_draw(n, seed)
    return USample(_flipped_rows(u, ~j, i == j), seed)


def sample_mixture(n: int, lam: float, seed: SeedSpec = SeedSpec()) -> USample:
    """Bernoulli(lambda) pathwise mixture of the two extremal copulas.

    The first two coordinates coincide with both extremes; the third takes
    the max-branch value where B = 1{h < lambda} and the min-branch value
    (its reflection 1-U3) where B = 0, so u3 is flipped where
    (I != J) xor (h >= lambda).  lam = 1 and lam = 0 reproduce
    sample_max_coskew / sample_min_coskew bit-for-bit.
    """
    lam = _check_lam(lam)
    u, i, j = _extremal_draw(n, seed)
    # coupled selector: same substream draws for every lambda
    h = substream(seed, _OFF_B).random(u.size)
    return USample(_flipped_rows(u, ~j, (i != j) ^ (h >= lam)), seed)


def sample_comonotonic(n: int, seed: SeedSpec = SeedSpec()) -> USample:
    """All three margins driven by the same uniform."""
    n = _check_n(n)
    u = uniform_open(substream(seed, _OFF_U), n)
    return USample(np.stack([u, u, u]), seed)


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


def gaussian_z(n: int, seed: SeedSpec = SeedSpec()) -> np.ndarray:
    """Independent standard normal rows Z, (3, n), for :func:`gaussian_correlate`."""
    return substream(seed, 0).standard_normal((3, _check_n(n)))


def gaussian_correlate(z: np.ndarray, params: GaussianParams) -> np.ndarray:
    """Correlated standard normal scores (H1, H2, H3) as a (3, n) array,
    built from the independent standard normal rows z:

        H1 = Z1
        H2 = rho12 Z1 + a Z2
        H3 = rho13 Z1 + (rho23 - rho12 rho13)/a Z2 + (b/a) Z3
    """
    a = params.a  # >= 2^-26: GaussianParams holds |rho12| < 1
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
    """Gaussian copula: the normal CDF of the correlated scores
    :func:`gaussian_correlate` builds from the seed's standard normal rows
    (:func:`gaussian_z`)."""
    return USample(norm_cdf(gaussian_correlate(gaussian_z(n, seed), params)), seed)


# The copula kinds and their samplers.  "mixture" samples at its
# CopulaSpec's lam and "gaussian" at its GaussianParams; the rest take n and
# the seed alone.
_SAMPLERS = {
    "comonotonic": sample_comonotonic,
    "independence": sample_independence,
    "max": sample_max_coskew,
    "min": sample_min_coskew,
    "mixture": sample_mixture,
    "mixingsum": sample_mixing_sum,
    "gaussian": sample_gaussian,
}


def sample(spec: CopulaSpec, n: int, seed: SeedSpec = SeedSpec()) -> USample:
    """Dispatch on a CopulaSpec: its kind's sampler, given its parameter if
    it has one."""
    params = [p for p in (spec.lam, spec.gaussian) if p is not None]
    return _SAMPLERS[spec.kind](n, *params, seed)


def to_data(us: USample, m1: Marginal, m2: Marginal, m3: Marginal) -> TriSample:
    """Apply marginal quantiles columnwise: x_j = F_j^{-1}(u_j).

    Entries are clamped to [U_MIN, 1 - U_MIN], the ends of the samplers'
    k/2^53 grid, so no grid value moves.  Only exact 0 and 1 (the mixing
    copula's u2 and u3 at u = 1/2, or a hand-built sample) and a Gaussian
    coordinate whose normal CDF leaves the grid (|z| above about 8.2) do.
    """
    cols = []
    for m, u in zip((m1, m2, m3), us.u):
        cols.append(m.quantile(np.clip(u, U_MIN, 1.0 - U_MIN)))
    return TriSample(np.stack(cols), us.seed)

