"""Closed-form and quadrature-based predictions.

The coskewness bound for symmetric marginals is

    s_max = integral_0^1 G1^{-1}(u) G2^{-1}(u) G3^{-1}(u) du,   s_min = -s_max

where G_i is the distribution of the absolute standardized value.  Every
triple takes one quadrature path: the substitution u = 1 - exp(-t), with
the quantiles evaluated from the tail probability q = exp(-t) directly so
1 - q is never formed, quad over t in [0, TAIL_CUTOFF], and the rest of
the integral added in closed form.

A Student t_nu quantile grows like a Pareto tail, x_i ~ a_i q^(-1/nu_i)
with a_i = sqrt(nu_i) ((nu_i/2) B(nu_i/2, 1/2))^(-1/nu_i) / sd_i
(``Marginal.pareto_scale``), so the integrand decays only like
exp(-(1 - s) t) with s = sum of 1/nu_i over the t margins; near nu = 3
most of the mass lies where q is below the smallest double.  The rest is
prod(a_i) exp(-(1 - s) T) / (1 - s) when all three margins are t, and
nothing otherwise: a normal, Laplace or uniform margin is bounded or grows
at most like t, so past the cut-off at least one light factor leaves less
than 1e-80.  ``quadrature_error`` is quad's error estimate plus a bound on
that remainder's error, taken from how far the integrand at the cut-off
lies from its asymptote; a bound whose error cannot be held below
max(QUAD_TOL, QUAD_RTOL * s_max) raises QuadratureError rather than
returning a value.

The Gaussian-copula identities are the arcsine laws

    rho_S = (6/pi) arcsin(rho/2)
    E[F_i(X_i) F_j(X_j)] = (1/2pi) arcsin(rho/2) + 1/4
    P(Y1<=0, Y2<=0, Y3<=0) = (1/4pi) sum arcsin(r_ij) + 1/8

which combine to make the standardized rank coskewness of any Gaussian
copula identically zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    InvalidCorrelationError,
    QuadratureError,
    UnsupportedMarginalError,
)
from .marginals import Marginal

__all__ = [
    "BoundsResult",
    "coskew_bound",
    "mixture_prediction",
    "spearman_from_pearson_gaussian",
    "pearson_from_spearman_gaussian",
    "uniform_product_moment_gaussian",
    "trivariate_orthant_prob",
    "rank_coskew_gaussian",
]

QUAD_TOL = 1e-8
# s_max ~ 1.27/(df - 3) for three t margins, so next to df = 3 the
# absolute error is judged against the value
QUAD_RTOL = 1e-12
# exp(-600) ~ 2.7e-261: every tail quantile is still a normal double here
TAIL_CUTOFF = 600.0


@dataclass(frozen=True)
class BoundsResult:
    """Extremal coskewness bounds; s_min is exactly -s_max.

    quadrature_error is the absolute error of s_max: quad's estimate over
    [0, TAIL_CUTOFF] plus a bound on the analytic tail past it.
    """

    s_max: float
    quadrature_error: float

    @property
    def s_min(self) -> float:
        return -self.s_max


def coskew_bound(m1: Marginal, m2: Marginal, m3: Marginal) -> BoundsResult:
    """Coskewness bounds for three symmetric marginals by adaptive quadrature."""
    margins = (m1, m2, m3)
    for m in margins:
        if not m.symmetric:
            raise UnsupportedMarginalError(
                f"coskewness bounds need symmetric marginals; {m.token} is not"
            )

    # deferred: the bound is its only user, and the import costs every CLI start
    from scipy import integrate

    # u = 1 - exp(-t); du = exp(-t) dt; quantiles evaluated from q = exp(-t)
    def integrand(t: float) -> float:
        q = math.exp(-t)
        prod = q
        for m in margins:
            prod *= m.abs_std_tail_quantile(q)
        return prod

    value, abserr = integrate.quad(
        integrand, 0.0, TAIL_CUTOFF, epsabs=1e-10, epsrel=1e-12, limit=200
    )
    tail, tail_err = _pareto_tail(margins, integrand(TAIL_CUTOFF))
    value += tail
    abserr += tail_err

    if not math.isfinite(value) or abserr > max(QUAD_TOL, QUAD_RTOL * value):
        raise QuadratureError(
            f"bound quadrature did not converge (value={value}, abserr={abserr})"
        )
    return BoundsResult(s_max=float(value), quadrature_error=float(abserr))


def _pareto_tail(margins, f_cut: float) -> tuple[float, float]:
    """Integral of the t-integrand over [TAIL_CUTOFF, inf) and its error bound.

    f_cut is the integrand at the cut-off.  Past it the integrand behaves as
    A exp(-c t) with c = 1 - sum(1/df) over the t margins and A the product
    of their Pareto scales, or A = 0 if any margin has a lighter tail.  The
    integrand's deviation from that asymptote shrinks further out, and a
    light factor grows at most linearly in t while c T >= 200, so twice the
    deviation at the cut-off, over c, bounds the remainder's error; the last
    term covers rounding in the closed form itself.
    """
    scales = [m.pareto_scale for m in margins]
    # sum of (1/3 - 1/df) keeps full relative precision as every df -> 3
    c = sum(
        1.0 / 3.0 if a is None else (m.df - 3.0) / (3.0 * m.df)
        for m, a in zip(margins, scales)
    )
    A = 0.0 if None in scales else math.prod(scales)
    asymptote = A * math.exp(-c * TAIL_CUTOFF)
    err = (2.0 * abs(f_cut - asymptote) + 16.0 * np.finfo(float).eps * asymptote) / c
    return asymptote / c, err


def mixture_prediction(lam: float, bounds: BoundsResult) -> float:
    """Coskewness of the mixture structure: lambda*s_max + (1-lambda)*s_min."""
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"lambda must lie in [0, 1], got {lam}")
    return lam * bounds.s_max + (1.0 - lam) * bounds.s_min


def _check_unit(rho: float, name: str = "rho") -> float:
    rho = float(rho)
    if not -1.0 <= rho <= 1.0:
        raise DomainError(f"{name} must lie in [-1, 1], got {rho}")
    return rho


def spearman_from_pearson_gaussian(rho: float) -> float:
    """Spearman correlation implied by a Gaussian copula: (6/pi) arcsin(rho/2)."""
    rho = _check_unit(rho)
    return 6.0 / math.pi * math.asin(rho / 2.0)


def pearson_from_spearman_gaussian(rho_s: float) -> float:
    """Inverse map: 2 sin(pi rho_S / 6)."""
    rho_s = _check_unit(rho_s, "rho_s")
    return 2.0 * math.sin(math.pi * rho_s / 6.0)


def uniform_product_moment_gaussian(rho: float) -> float:
    """E[F_i(X_i) F_j(X_j)] under a Gaussian copula with correlation rho."""
    rho = _check_unit(rho)
    return math.asin(rho / 2.0) / (2.0 * math.pi) + 0.25


def _check_corr_triple(r12: float, r13: float, r23: float) -> tuple[float, float, float]:
    rs = tuple(_check_unit(r, f"r{k}") for r, k in ((r12, 12), (r13, 13), (r23, 23)))
    det = 1.0 - rs[0] ** 2 - rs[1] ** 2 - rs[2] ** 2 + 2.0 * rs[0] * rs[1] * rs[2]
    if det < -1e-12:
        raise InvalidCorrelationError(
            f"({rs[0]}, {rs[1]}, {rs[2]}) is not a valid correlation matrix"
        )
    return rs


def trivariate_orthant_prob(r12: float, r13: float, r23: float) -> float:
    """P(Y1 <= 0, Y2 <= 0, Y3 <= 0) for a centered trivariate normal."""
    r12, r13, r23 = _check_corr_triple(r12, r13, r23)
    return (
        math.asin(r12) + math.asin(r13) + math.asin(r23)
    ) / (4.0 * math.pi) + 0.125


def rank_coskew_gaussian(rho12: float, rho13: float, rho23: float) -> float:
    """Standardized rank coskewness of a Gaussian copula.

    Assembles 32*[P(orthant at rho/2) - (1/4pi) sum arcsin(rho/2) - 1/8];
    the arcsine orthant formula makes this identically zero for every valid
    correlation triple.
    """
    rho12, rho13, rho23 = _check_corr_triple(rho12, rho13, rho23)
    orthant = trivariate_orthant_prob(rho12 / 2.0, rho13 / 2.0, rho23 / 2.0)
    arcs = (
        math.asin(rho12 / 2.0) + math.asin(rho13 / 2.0) + math.asin(rho23 / 2.0)
    ) / (4.0 * math.pi)
    return 32.0 * (orthant - arcs - 0.125)
