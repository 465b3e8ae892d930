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

A quantile or CDF of at least ``2 * _SPLIT_FLOOR`` elements runs one
contiguous slice per usable CPU (``_elementwise``).  Each element passes
through the same ufunc loop as in one call, so the bits do not depend on
how many CPUs there are.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError, UnsupportedMarginalError
from .samples import U_MIN

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
# the fewest elements a slice of _elementwise gets: below about this many,
# starting and joining a thread costs more than the cheapest transform
# split here, ndtr, saves
_SPLIT_FLOOR = 1 << 15
# a slice is transformed this many elements at a time, so a multi-step
# transform's temporaries stay in cache, and a thread's allocator holds
# no more of them than the caller's would
_BLOCK = 1 << 13


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _elementwise(fn, x: np.ndarray):
    """fn(x) for a float array x and an fn that maps each element on its own.

    From 2 * _SPLIT_FLOOR elements on, x is cut into one contiguous slice
    per usable CPU, none below _SPLIT_FLOOR.  The caller computes the first
    slice and a short-lived thread each other one, _BLOCK elements at a
    time, all into one output; every thread is joined before this returns,
    and an exception raised in one is raised here.  Each thread runs in a
    copy of the caller's context, which carries ``np.errstate``.  fn must
    call only numpy and scipy, so the package's own functions run on the
    caller's thread alone.
    """
    k = x.size // _SPLIT_FLOOR
    if k >= 2:
        k = min(k, _usable_cpus())
    if k < 2:
        return fn(x)
    src = x.reshape(-1)
    out = np.empty(x.shape)
    dst = out.reshape(-1)
    cuts = [x.size * i // k for i in range(k + 1)]
    errors = []

    def run(lo, hi):
        try:
            for start in range(lo, hi, _BLOCK):
                end = min(start + _BLOCK, hi)
                dst[start:end] = fn(src[start:end])
        except BaseException as exc:  # raised again on the caller's thread
            errors.append(exc)

    threads = []
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            thread = threading.Thread(target=contextvars.copy_context().run,
                                      args=(run, lo, hi))
            thread.start()
            threads.append(thread)
        run(0, cuts[1])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return out


def norm_cdf(x):
    """Standard normal CDF (vectorized)."""
    return _elementwise(special.ndtr, np.asarray(x, dtype=float))


def token_number(x: float) -> str:
    """x as it appears in a token: the ``g`` text (6 significant digits)
    wherever it reads back as x, so "mixture:1", "t:5" and "1e-07" keep
    their bytes, and otherwise the shortest text that does (``repr``)."""
    text = f"{x:g}"
    return text if float(text) == x else repr(float(x))


def token_float(text: str, token: str) -> float:
    """The number a token's parameter text spells; DomainError naming the
    token when it spells none."""
    try:
        return float(text)
    except ValueError:
        raise DomainError(f"{text.strip()!r} in token {token!r} is not a number") from None


def _check_prob_open(p, name="p"):
    # a nan fails both comparisons, and min and max propagate it
    arr = np.asarray(p, dtype=float)
    if arr.size and not (arr.min() > 0.0 and arr.max() < 1.0):
        raise DomainError(f"{name} must lie strictly inside (0, 1)")


@dataclass(frozen=True)
class Marginal:
    """One univariate marginal distribution.

    family is one of "normal", "uniform", "laplace", "t", "exp"; df applies
    to "t" (requires df > 3) and rate to "exp" (requires rate > 0, and a
    finite quantile at the top of the samplers' grid, 1 - 2^-53).
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
            # the quantile at the sampling grid's top, F^-1(1 - U_MIN) =
            # 53 ln 2 / rate, is finite for rates from about 2.044e-307
            if not math.isfinite(-math.log1p(-(1.0 - U_MIN)) / self.rate):
                raise DomainError(f"Exponential rate {self.rate!r} is too small: its "
                                  "quantile at 1 - 2^-53 overflows the float range")

    # -- moments -----------------------------------------------------------

    @property
    def mean(self) -> float:
        if self.family == "uniform":
            return 0.5
        if self.family == "exp":
            return 1.0 / self.rate
        return 0.0  # normal, Laplace, t

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
        if self.family == "uniform":
            # memory-bound: a split only slows it
            out = p_arr.copy()
        else:
            out = _elementwise(self._quantile_fn(), p_arr)
        return float(out) if np.ndim(p) == 0 else out

    def _quantile_fn(self):
        if self.family == "normal":
            return special.ndtri
        if self.family == "laplace":
            # one logarithm, of the nearer tail, signed by the side of the
            # median: the two-branch form's bits, with +0.0 at p = 1/2
            return lambda p: np.copysign(np.log(2.0 * np.minimum(p, 1.0 - p)), p - 0.5)
        if self.family == "t":
            return functools.partial(special.stdtrit, self.df)
        return lambda p: -np.log1p(-p) / self.rate  # exp

    def cdf(self, x):
        """F(x); vectorized."""
        x_arr = np.asarray(x, dtype=float)
        if self.family == "uniform":
            # memory-bound: a split only slows it
            out = np.clip(x_arr, 0.0, 1.0)
        else:
            out = _elementwise(self._cdf_fn(), x_arr)
        return float(out) if np.ndim(x) == 0 else out

    def _cdf_fn(self):
        if self.family == "normal":
            return special.ndtr
        if self.family == "laplace":
            def laplace_cdf(x):
                tail = 0.5 * np.exp(-np.abs(x))  # one exp that never overflows
                return np.where(x < 0.0, tail, 1.0 - tail)
            return laplace_cdf
        if self.family == "t":
            return functools.partial(special.stdtr, self.df)
        return lambda x: -np.expm1(-self.rate * np.clip(x, 0.0, None))  # exp

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
        if u_arr.size and not (u_arr.min() >= 0.0 and u_arr.max() < 1.0):
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
            return f"t:{token_number(self.df)}"
        if self.family == "exp":
            return f"exp:{token_number(self.rate)}"
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
    """Parse a CLI token: "normal", "uniform", "laplace", "t:5", "exp:1".
    "exp" alone has rate 1; the other families without a parameter take no
    ":"."""
    token = token.strip().lower()
    name, colon, arg = token.partition(":")
    if name == "t":
        if not arg:
            raise DomainError("t marginal needs degrees of freedom, e.g. 't:5'")
        return student_t(token_float(arg, token))
    if name == "exp":
        return exponential(token_float(arg, token) if arg else 1.0)
    plain = {"normal": standard_normal, "uniform": uniform01, "laplace": laplace}
    if name not in plain:
        raise DomainError(f"unknown marginal token {token!r}")
    if colon:
        raise DomainError(f"marginal {name!r} takes no parameter, got {token!r}")
    return plain[name]()
