"""Closed-form and quadrature-based predictions.

The coskewness bound for symmetric marginals is

    s_max = integral_0^1 G1^{-1}(u) G2^{-1}(u) G3^{-1}(u) du,   s_min = -s_max

where G_i is the distribution of the absolute standardized value.  Every
triple takes one quadrature path: the substitution u = 1 - exp(-t), with
the quantiles evaluated from the tail probability q = exp(-t) directly so
1 - q is never formed, adaptive composite Gauss-Legendre over t in
[0, TAIL_CUTOFF], and the rest of the integral added in closed form.

The panel rule (after Gander & Gautschi, "Adaptive quadrature --
revisited", BIT 2000) starts from START_PANELS equal panels.  A panel's
value is the 20-point rule on its two halves, and its error estimate is
|Q(panel) - Q(left) - Q(right)|, the error of the coarser whole-panel rule.
While the summed estimates exceed GL_RTOL * s_max, every panel whose
estimate exceeds its equal share of what is left of that target is
bisected; each round evaluates every new half in one vectorised integrand
call per margin.  More than MAX_PANELS panels raises QuadratureError.

A Student t_nu quantile grows like a Pareto tail, x_i ~ a_i q^(-1/nu_i)
with a_i = sqrt(nu_i) ((nu_i/2) B(nu_i/2, 1/2))^(-1/nu_i) / sd_i
(``Marginal.pareto_scale``), so the integrand decays only like
exp(-(1 - s) t) with s = sum of 1/nu_i over the t margins; near nu = 3
most of the mass lies where q is below the smallest double.  The rest is
prod(a_i) exp(-(1 - s) T) / (1 - s) when all three margins are t, and
nothing otherwise: a normal, Laplace or uniform margin is bounded or grows
at most like t, so past the cut-off at least one light factor leaves less
than 1e-80.  ``quadrature_error`` is the sum of the panel estimates plus a
bound on that remainder's error, taken from how far the integrand at the
cut-off lies from its asymptote; a bound whose error cannot be held below
max(QUAD_TOL, QUAD_RTOL * s_max) raises QuadratureError rather than
returning a value.

The Gaussian copula's rank coskewness (verify's P8) rests on the arcsine
orthant law

    P(Y1<=0, Y2<=0, Y3<=0) = (1/4pi) sum arcsin(r_ij) + 1/8

which, at the halved correlations rho_ij/2, makes the standardized rank
coskewness of any Gaussian copula identically zero.
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
    "trivariate_orthant_prob",
    "rank_coskew_gaussian",
]

QUAD_TOL = 1e-8
# s_max ~ 1.27/(df - 3) for three t margins, so next to df = 3 the
# absolute error is judged against the value
QUAD_RTOL = 1e-12
# exp(-600) ~ 2.7e-261: every tail quantile is still a normal double here
TAIL_CUTOFF = 600.0
# refinement target for the summed panel estimates, relative to s_max; they
# bound the coarse whole-panel rule, so the refined halves land within an
# ulp or two of the closed forms
GL_RTOL = 1e-15
START_PANELS = 16
MAX_PANELS = 2048

# 20-point Gauss-Legendre rule on [-1, 1] (Abramowitz & Stegun 25.4.30),
# the positive half, correctly rounded from 40 digits.  numpy's
# leggauss(20) has weights off by up to 7e-14 relative, which alone moves
# s_max by up to 2.3e-15 relative.
_GL_HALF_NODES = (
    0.07652652113349734, 0.22778585114164507, 0.37370608871541955,
    0.5108670019508271, 0.636053680726515, 0.7463319064601508,
    0.8391169718222188, 0.912234428251326, 0.9639719272779138,
    0.9931285991850949,
)
_GL_HALF_WEIGHTS = (
    0.15275338713072584, 0.14917298647260374, 0.14209610931838204,
    0.13168863844917664, 0.11819453196151841, 0.10193011981724044,
    0.08327674157670475, 0.06267204833410907, 0.04060142980038694,
    0.017614007139152118,
)
_GL_NODES = np.concatenate([-np.flip(_GL_HALF_NODES), _GL_HALF_NODES])
_GL_WEIGHTS = np.concatenate([np.flip(_GL_HALF_WEIGHTS), _GL_HALF_WEIGHTS])
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class BoundsResult:
    """Extremal coskewness bounds; s_min is exactly -s_max.

    quadrature_error is the absolute error of s_max: the summed panel
    estimates over [0, TAIL_CUTOFF] plus a bound on the analytic tail past
    it.  evaluations counts the integrand points used, the cut-off included.
    """

    s_max: float
    quadrature_error: float
    evaluations: int = 0

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

    tail, tail_err = _pareto_tail(margins, float(_integrand(margins, TAIL_CUTOFF)))
    value, abserr, points = _panel_quadrature(margins, tail)
    value += tail
    abserr += tail_err

    if not math.isfinite(value) or abserr > max(QUAD_TOL, QUAD_RTOL * value):
        raise QuadratureError(
            f"bound quadrature did not converge (value={value}, abserr={abserr})"
        )
    return BoundsResult(
        s_max=float(value), quadrature_error=float(abserr), evaluations=points + 1
    )


def _integrand(margins, t):
    """exp(-t) prod G_i^{-1}(1 - exp(-t)): the bound after u = 1 - exp(-t),
    with every quantile taken from q = exp(-t) itself, once per distinct
    margin."""
    q = np.exp(-t)
    tails = {m: m.abs_std_tail_quantile(q) for m in dict.fromkeys(margins)}
    prod = q
    for m in margins:
        prod = prod * tails[m]
    return prod


def _gauss_legendre(margins, a, b):
    """The 20-point rule over each panel [a_k, b_k], one integrand call.
    The weighted sum is numpy's own reduction, not a BLAS dot product, so
    its bits do not depend on the BLAS kernel or thread count."""
    half = 0.5 * (b - a)
    t = (0.5 * (a + b))[:, None] + half[:, None] * _GL_NODES
    return half * np.add.reduce(_integrand(margins, t) * _GL_WEIGHTS, axis=1)


def _panel_quadrature(margins, tail: float) -> tuple[float, float, int]:
    """Adaptive composite Gauss-Legendre over [0, TAIL_CUTOFF].

    Returns the value, its error and the number of points.  The starting
    panels' whole-panel rule is taken once, before the first round; every
    round then takes the rule on each panel's two halves.  Panels whose
    estimate fits their share of the target are final; the others are
    bisected, their halves' rule values becoming the new panels' whole-panel
    values.  tail only enters the relative target.  The error is the summed
    estimates plus 16 eps of the value for rounding in the integrand and the
    sum, which the estimates cannot see.
    """
    edges = np.linspace(0.0, TAIL_CUTOFF, START_PANELS + 1)
    a, b = edges[:-1], edges[1:]
    whole = _gauss_legendre(margins, a, b)
    values, errors = [], []  # final panels
    points = a.size * _GL_NODES.size
    while True:
        mid = 0.5 * (a + b)
        rule = _gauss_legendre(margins, np.concatenate([a, mid]), np.concatenate([mid, b]))
        left, right = np.split(rule, 2)
        points += 2 * a.size * _GL_NODES.size
        halves = left + right
        err = np.abs(whole - halves)
        settled = math.fsum(errors)
        pending = float(err.sum())
        if not math.isfinite(pending):
            raise QuadratureError("bound integrand is not finite")
        target = GL_RTOL * (math.fsum(values) + float(halves.sum()) + tail)
        if settled + pending <= target:
            values.extend(halves)
            value = math.fsum(values)
            return value, settled + pending + 16.0 * _EPS * value, points
        split = err > (target - settled) / err.size
        values.extend(halves[~split])
        errors.extend(err[~split])
        if len(values) + 2 * np.count_nonzero(split) > MAX_PANELS:
            raise QuadratureError(
                f"bound quadrature needs more than {MAX_PANELS} panels"
            )
        a, mid, b = a[split], mid[split], b[split]
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        whole = np.concatenate([left[split], right[split]])


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
    err = (2.0 * abs(f_cut - asymptote) + 16.0 * _EPS * asymptote) / c
    return asymptote / c, err


def _check_lam(lam: float) -> float:
    """lam as a float; DomainError unless it lies in [0, 1]."""
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"lambda must lie in [0, 1], got {lam}")
    return lam


def mixture_prediction(lam: float, bounds: BoundsResult) -> float:
    """Coskewness of the mixture structure: lambda*s_max + (1-lambda)*s_min."""
    lam = _check_lam(lam)
    return lam * bounds.s_max + (1.0 - lam) * bounds.s_min


def corr_det(r12, r13, r23):
    """Determinant of the correlation matrix with off-diagonals r12, r13 and
    r23, 1 - r12^2 - r13^2 - r23^2 + 2 r12 r13 r23, elementwise; negative
    when the triple is not a valid correlation matrix."""
    return 1.0 - r12**2 - r13**2 - r23**2 + 2.0 * r12 * r13 * r23


def _check_corr_triple(r12, r13, r23) -> tuple[np.ndarray, ...]:
    """The triple as broadcast float arrays (0-d for scalars), each entry in
    [-1, 1] and each triple a valid correlation matrix."""
    rs = np.broadcast_arrays(*(np.asarray(r, dtype=float) for r in (r12, r13, r23)))
    for r, k in zip(rs, (12, 13, 23)):
        outside = r[~((-1.0 <= r) & (r <= 1.0))]
        if outside.size:
            raise DomainError(f"r{k} must lie in [-1, 1], got {outside[0]}")
    invalid = np.flatnonzero(corr_det(*rs) < -1e-12)
    if invalid.size:
        r12, r13, r23 = (float(np.ravel(r)[invalid[0]]) for r in rs)
        raise InvalidCorrelationError(
            f"({r12}, {r13}, {r23}) is not a valid correlation matrix"
        )
    return rs


def trivariate_orthant_prob(r12, r13, r23):
    """P(Y1 <= 0, Y2 <= 0, Y3 <= 0) for a centered trivariate normal.

    Elementwise over arrays of correlations; scalars give a float."""
    r12, r13, r23 = _check_corr_triple(r12, r13, r23)
    out = (np.arcsin(r12) + np.arcsin(r13) + np.arcsin(r23)) / (4.0 * math.pi) + 0.125
    return float(out) if out.ndim == 0 else out


def rank_coskew_gaussian(rho12, rho13, rho23):
    """Standardized rank coskewness of a Gaussian copula.

    Assembles 32*[P(orthant at rho/2) - (1/4pi) sum arcsin(rho/2) - 1/8];
    the arcsine orthant formula makes this identically zero for every valid
    correlation triple.  Elementwise over arrays; scalars give a float.
    """
    rho12, rho13, rho23 = _check_corr_triple(rho12, rho13, rho23)
    orthant = trivariate_orthant_prob(rho12 / 2.0, rho13 / 2.0, rho23 / 2.0)
    arcs = (
        np.arcsin(rho12 / 2.0) + np.arcsin(rho13 / 2.0) + np.arcsin(rho23 / 2.0)
    ) / (4.0 * math.pi)
    out = 32.0 * (orthant - arcs - 0.125)
    return float(out) if out.ndim == 0 else out
