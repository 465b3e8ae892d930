"""Univariate marginal distributions.

Provides the quantile, CDF and moment surface needed by the samplers and
estimators, plus the absolute-standardized-value quantile behind the
coskewness bound: for a symmetric marginal with mean mu and sd sigma,
``abs_std_quantile(u)`` is the u-quantile of |(X - mu)/sigma|, and the
bound evaluates it as ``abs_std_tail_quantile(1 - u)``.

Families: standard normal, Uniform(0,1), unit Laplace, Student t (df > 3 so
the third absolute moment is finite), Exponential(rate).  The exponential is
the only non-symmetric family; it exists for rank statistics, where symmetry
is never assumed, and ``abs_std_quantile`` rejects it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError, UnsupportedMarginalError

__all__ = [
    "Marginal",
    "standard_normal",
    "uniform01",
    "laplace",
    "student_t",
    "exponential",
    "parse_marginal",
    "norm_cdf",
]

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)


def norm_cdf(x):
    """Standard normal CDF (vectorized)."""
    return special.ndtr(x)


def _check_prob_open(p, name="p"):
    arr = np.asarray(p, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError(f"{name} must lie strictly inside (0, 1)")


@dataclass(frozen=True)
class Marginal:
    """One univariate marginal distribution.

    family is one of "normal", "uniform", "laplace", "t", "exp"; df applies
    to "t" (requires df > 3) and rate to "exp" (requires rate > 0).
    """

    family: str
    df: float | None = None
    rate: float | None = None

    def __post_init__(self):
        if self.family not in ("normal", "uniform", "laplace", "t", "exp"):
            raise DomainError(f"unknown marginal family {self.family!r}")
        if self.family == "t":
            if self.df is None or not (math.isfinite(self.df) and self.df > 3.0):
                raise DomainError(
                    "Student t needs a finite df > 3 so the third absolute "
                    "moment is finite"
                )
        if self.family == "exp":
            if self.rate is None or not (math.isfinite(self.rate) and self.rate > 0.0):
                raise DomainError("Exponential needs a finite positive rate")

    # -- moments -----------------------------------------------------------

    @property
    def mean(self) -> float:
        return {
            "normal": 0.0,
            "uniform": 0.5,
            "laplace": 0.0,
            "t": 0.0,
            "exp": 1.0 / self.rate if self.rate else 0.0,
        }[self.family]

    @property
    def sd(self) -> float:
        if self.family == "normal":
            return 1.0
        if self.family == "uniform":
            return 1.0 / math.sqrt(12.0)
        if self.family == "laplace":
            return _SQRT2
        if self.family == "t":
            return math.sqrt(self.df / (self.df - 2.0))
        return 1.0 / self.rate  # exp

    @property
    def symmetric(self) -> bool:
        return self.family != "exp"

    # -- distribution functions --------------------------------------------

    def quantile(self, p):
        """F^{-1}(p) for p strictly inside (0, 1); strictly increasing in p."""
        _check_prob_open(p)
        p_arr = np.asarray(p, dtype=float)
        if self.family == "normal":
            out = special.ndtri(p_arr)
        elif self.family == "uniform":
            out = p_arr.copy()
        elif self.family == "laplace":
            out = np.where(
                p_arr < 0.5, np.log(2.0 * p_arr), -np.log(2.0 * (1.0 - p_arr))
            )
        elif self.family == "t":
            out = special.stdtrit(self.df, p_arr)
        else:  # exp
            out = -np.log1p(-p_arr) / self.rate
        return float(out) if np.ndim(p) == 0 else out

    def cdf(self, x):
        """F(x); vectorized."""
        x_arr = np.asarray(x, dtype=float)
        if self.family == "normal":
            out = special.ndtr(x_arr)
        elif self.family == "uniform":
            out = np.clip(x_arr, 0.0, 1.0)
        elif self.family == "laplace":
            out = np.where(
                x_arr < 0.0, 0.5 * np.exp(x_arr), 1.0 - 0.5 * np.exp(-x_arr)
            )
        elif self.family == "t":
            out = special.stdtr(self.df, x_arr)
        else:  # exp
            out = -np.expm1(-self.rate * np.clip(x_arr, 0.0, None))
        return float(out) if np.ndim(x) == 0 else out

    # -- |standardized| quantile -------------------------------------------

    def abs_std_quantile(self, u):
        """Quantile of |(X - mu)/sigma| at u in [0, 1).

        For a continuous symmetric marginal this is the standardized quantile
        evaluated at (1 + u)/2.  Non-symmetric marginals are rejected.
        """
        if not self.symmetric:
            raise UnsupportedMarginalError(
                f"abs_std_quantile needs a symmetric marginal, not {self.family!r}"
            )
        u_arr = np.asarray(u, dtype=float)
        if np.any(u_arr < 0.0) or np.any(u_arr >= 1.0):
            raise DomainError("u must lie in [0, 1)")
        out = (self.quantile((1.0 + u_arr) / 2.0) - self.mean) / self.sd
        # exact zero at u = 0 (the median maps to the mean for symmetric families)
        out = np.where(u_arr == 0.0, 0.0, out)
        return float(out) if np.ndim(u) == 0 else out

    def abs_std_tail_quantile(self, q):
        """abs_std_quantile(1 - q) computed from the tail probability q.

        Evaluating via q directly keeps full precision when q is tiny, where
        forming 1 - q would round to 1; used by the bound quadrature.  For
        Student t the two-sided tail P(|T| > x) = I_{df/(df+x^2)}(df/2, 1/2)
        is inverted with the regularized incomplete beta, which stays
        accurate down to the smallest normal double (scipy's t inverse
        returns -inf below q ~ 1e-270).  As q -> 0 the t value
        follows the Pareto asymptote ``pareto_scale * q**(-1/df)``.
        """
        if not self.symmetric:
            raise UnsupportedMarginalError(
                f"abs_std_tail_quantile needs a symmetric marginal, not {self.family!r}"
            )
        if self.family == "normal":
            return -special.ndtri(q / 2.0)
        if self.family == "uniform":
            return _SQRT3 * (1.0 - q)
        if self.family == "laplace":
            # |Laplace(1)|/sqrt(2) is Exponential(sqrt(2))
            return -np.log(q) / _SQRT2
        # t: z = df/(df + x^2) and w = 1 - z, each inverted from q itself so
        # x^2 = df w / z keeps full precision at both ends and for large df
        z = special.betaincinv(0.5 * self.df, 0.5, q)
        w = special.betainccinv(0.5, 0.5 * self.df, q)
        return np.sqrt(self.df * w / z) / self.sd

    @property
    def pareto_scale(self) -> float | None:
        """a with abs_std_tail_quantile(q) ~ a q^(-1/df) as q -> 0, for Student t.

        From I_z(df/2, 1/2) ~ z^(df/2) / ((df/2) B(df/2, 1/2)) as z -> 0:
        a = sqrt(df) ((df/2) B(df/2, 1/2))^(-1/df) / sd.  None for the
        other families, whose tails are lighter than any power.
        """
        if self.family != "t":
            return None
        half = 0.5 * self.df
        scale = (half * special.beta(half, 0.5)) ** (-1.0 / self.df)
        return math.sqrt(self.df) * scale / self.sd

    # -- naming -------------------------------------------------------------

    @property
    def token(self) -> str:
        if self.family == "t":
            return f"t:{self.df:g}"
        if self.family == "exp":
            return f"exp:{self.rate:g}"
        return self.family

    def __str__(self) -> str:
        return self.token


def standard_normal() -> Marginal:
    return Marginal("normal")


def uniform01() -> Marginal:
    return Marginal("uniform")


def laplace() -> Marginal:
    return Marginal("laplace")


def student_t(df: float) -> Marginal:
    return Marginal("t", df=float(df))


def exponential(rate: float = 1.0) -> Marginal:
    return Marginal("exp", rate=float(rate))


def parse_marginal(token: str) -> Marginal:
    """Parse a CLI token: "normal", "uniform", "laplace", "t:5", "exp:1"."""
    token = token.strip().lower()
    name, _, arg = token.partition(":")
    if name == "normal":
        return standard_normal()
    if name == "uniform":
        return uniform01()
    if name == "laplace":
        return laplace()
    if name == "t":
        if not arg:
            raise DomainError("t marginal needs degrees of freedom, e.g. 't:5'")
        return student_t(float(arg))
    if name == "exp":
        return exponential(float(arg) if arg else 1.0)
    raise DomainError(f"unknown marginal token {token!r}")
