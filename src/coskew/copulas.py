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
whole lambda grid from one draw: it transforms both extremal branches once
and per lambda only picks each row's third value with the selector.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidCorrelationError
from .marginals import Marginal, norm_cdf
from .samples import SeedSpec, TriSample, USample, substream, uniform_open

__all__ = [
    "CopulaSpec",
    "GaussianParams",
    "extremal_coords",
    "mixing_sum_coords",
    "mixture_sweep",
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


def sample_gaussian(
    n: int, params: GaussianParams, seed: SeedSpec = SeedSpec()
) -> USample:
    """Gaussian copula sampled through three independent standard normals:

        H1 = Z1
        H2 = rho12 Z1 + a Z2
        H3 = rho13 Z1 + (rho23 - rho12 rho13)/a Z2 + (b/a) Z3

    then mapped to uniforms by the normal CDF.
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
    return USample(np.stack([norm_cdf(h1), norm_cdf(h2), norm_cdf(h3)]), seed)


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


_CLAMP = 1e-12


def to_data(us: USample, m1: Marginal, m2: Marginal, m3: Marginal) -> TriSample:
    """Apply marginal quantiles columnwise: x_j = F_j^{-1}(u_j).

    Entries at exactly 0 or 1 (possible in hand-built samples; the package
    samplers never emit them) are clamped inward by 1e-12 before inversion.
    """
    cols = []
    for m, u in zip((m1, m2, m3), us.u):
        cols.append(m.quantile(np.clip(u, _CLAMP, 1.0 - _CLAMP)))
    return TriSample(np.stack(cols), us.seed)


def mixture_sweep(n: int, lams, marginals, seed: SeedSpec = SeedSpec()):
    """Data-space mixture samples over a lambda grid, drawn once.

    Yields (lam, TriSample) for each lambda in order; each sample equals
    ``to_data(sample_mixture(n, lam, seed), *marginals)`` bit-for-bit.  The
    uniforms and the selector are drawn once, the max branch is transformed
    once and the min branch only in its third column (its x1 and x2 are the
    max branch's); each lambda only stacks x1, x2 and the x3 its selector
    picks.  A lambda outside [0, 1] raises DomainError, as in
    sample_mixture, on the first step and before anything is drawn.
    """
    lams = [_check_lam(lam) for lam in lams]
    us = sample_max_coskew(n, seed)
    hi = to_data(us, *marginals).x
    # min-branch x3 with to_data's clamp, so it matches that path bit for bit
    lo3 = marginals[2].quantile(np.clip(1.0 - us.u[2], _CLAMP, 1.0 - _CLAMP))
    h = substream(seed, _OFF_B).random(n)
    for lam in lams:
        x3 = np.where(h < lam, hi[2], lo3)
        yield lam, TriSample(np.stack([hi[0], hi[1], x3]), seed)
