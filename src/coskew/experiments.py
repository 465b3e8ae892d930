"""Experiment drivers: the mixture-simulation pipeline, the lambda-sweep and
downside-risk reproductions, the worked copula examples, and a
proposition-by-proposition verification suite.

``figure1``, ``figure2`` and Algorithm 1 share one pipeline: one mixture
draw over the lambda grid (:func:`coskew.sweep.mixture_draw`) under the
configured marginals, whose :class:`~coskew.sweep.MixtureSweep` gives
each lambda's moments and, for an event, each lambda's event fraction and
event-conditional moments.  Those come from one mask, the first lambda's
(``estimators.build_event_mask``), and for the downside event from each
lambda's threshold, its mean row sum, over two row sums fixed by the draw;
then from per-bin sums of the rows whose membership never moves with
lambda, and a per-lambda reduction of the few rows whose membership does
(:meth:`~coskew.sweep.MixtureSweep.event_moments`).  Pairwise
correlations and the coskewness use population-normalized standard
deviations.  Rank statistics use true-CDF ranks, which are the copula
coordinates themselves, so no marginal is applied
(:meth:`~coskew.sweep.MixtureDraw.rank_stats`).

Every lambda shares the same draws, so curves are variance-reduced and
pathwise comparable across grid points.
"""

from __future__ import annotations

import io
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import analytic, copulas, estimators
from .errors import DomainError
from .marginals import (
    Marginal,
    exponential,
    laplace,
    norm_cdf,
    standard_normal,
    student_t,
)
from .samples import SeedSpec, substream
from .sweep import mixture_draw

__all__ = [
    "DEFAULT_N",
    "DEFAULT_SEED",
    "ExperimentConfig",
    "ExperimentReport",
    "run_algorithm1",
    "run_figure1",
    "run_figure2",
    "run_example1",
    "verify_propositions",
]

DEFAULT_N = 100_000
DEFAULT_SEED = 314_159  # fixed so casual runs reproduce; override with --seed

_DEFAULT_GRID = tuple(np.round(np.linspace(0.0, 1.0, 11), 10))


def check_n(n: int) -> int:
    """n, or DomainError below 1000: the published tolerances of every
    report (figure1, figure2, example1, verify) assume at least that many
    rows."""
    if n < 1000:
        raise DomainError(f"experiments need n >= 1000 for published tolerances, got {n}")
    return n


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for one experiment run."""

    n: int = DEFAULT_N
    lambda_grid: tuple[float, ...] = _DEFAULT_GRID
    marginals: tuple[Marginal, Marginal, Marginal] = (
        standard_normal(),
        standard_normal(),
        standard_normal(),
    )
    seed: SeedSpec = field(default_factory=SeedSpec)

    def __post_init__(self):
        check_n(self.n)
        grid = tuple(float(l) for l in self.lambda_grid)
        if not grid:
            raise DomainError("lambda grid must be non-empty")
        for l in grid:
            analytic._check_lam(l)
        if list(grid) != sorted(grid):
            raise DomainError("lambda grid must be ascending")
        object.__setattr__(self, "lambda_grid", grid)

    @property
    def symmetric(self) -> bool:
        return all(m.symmetric for m in self.marginals)


@dataclass
class ExperimentReport:
    """Rows plus enough metadata to re-run standalone."""

    name: str
    rows: list[dict]
    metadata: dict

    def default_filename(self, fmt: str = "csv") -> str:
        """``<name>-<seed>.<fmt>``, with ``-<stream>`` after the seed for a
        stream other than 0, so replicas do not overwrite each other."""
        stream = self.metadata["stream"]
        suffix = f"-{stream}" if stream else ""
        return f"{self.name}-{self.metadata['seed']}{suffix}.{fmt}"

    def to_csv(self) -> str:
        buf = io.StringIO()
        if self.rows:
            keys = list(self.rows[0].keys())
            buf.write(",".join(keys) + "\n")
            for row in self.rows:
                buf.write(",".join(_fmt_cell(row[k]) for k in keys) + "\n")
        return buf.getvalue()

    def to_json(self) -> str:
        return json_text(
            {"experiment": self.name, "metadata": self.metadata, "rows": self.rows},
            indent=2,
        )


def json_text(obj, **kwargs) -> str:
    """``json.dumps`` that refuses NaN and +-Infinity, which are not JSON
    (RFC 8259): DomainError, never a non-JSON token."""
    try:
        return json.dumps(obj, allow_nan=False, **kwargs)
    except ValueError as exc:
        raise DomainError(f"cannot write JSON: {exc}") from None


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _base_metadata(name: str, n: int, seed: SeedSpec, marginals) -> dict:
    return {
        "experiment": name,
        "n": n,
        "seed": seed.seed,
        "stream": seed.stream,
        "marginals": ",".join(m.token for m in marginals),
    }


_PAIRS = ((0, 1), (0, 2), (1, 2))
_RHO = tuple(f"rho{i + 1}{j + 1}" for i, j in _PAIRS)


def _sweep_stats(accs) -> tuple[np.ndarray, np.ndarray]:
    """The (G, 3) correlations (rho12, rho13, rho23) and the (G,)
    coskewness of G three-column accumulators, each read through
    ``standardized()``."""
    stats = [acc.standardized() for acc in accs]
    return (np.array([[r[i, j] for i, j in _PAIRS] for _, r, _ in stats]),
            np.array([coskew for _, _, coskew in stats]))


def _sweep_rows(sweep, bounds=None, event=None) -> list[dict]:
    """One report row per lambda of a mixture sweep.  Rows carry the affine
    prediction when bounds are given, and the event fraction plus the three
    event-conditional correlations when an event is given."""
    rho, coskew = _sweep_stats(sweep.moments())
    rows = []
    for lam, s, r in zip(sweep.draw.lams, coskew.tolist(), rho.tolist()):
        row = {"lambda": lam, "coskewness_hat": s, **{f"{k}_hat": v for k, v in zip(_RHO, r)}}
        if bounds is not None:
            row["coskewness_predicted"] = analytic.mixture_prediction(lam, bounds)
        rows.append(row)
    if event is not None:
        fractions, accs = zip(*sweep.event_moments(event))
        for row, fraction, r in zip(rows, fractions, _sweep_stats(accs)[0].tolist()):
            row["event_fraction"] = fraction
            row.update({f"cond_{k}": v for k, v in zip(_RHO, r)})
    return rows


def _run_sweep(name: str, cfg: ExperimentConfig, lams, event=None) -> ExperimentReport:
    """The mixture pipeline over lams under cfg's marginals, one row per
    lambda (:func:`_sweep_rows`); the bound's prediction comes with
    symmetric marginals.  The metadata names the event if there is one,
    and s_max otherwise."""
    t0 = time.perf_counter()
    bounds = analytic.coskew_bound(*cfg.marginals) if cfg.symmetric else None
    sweep = mixture_draw(cfg.n, lams, cfg.seed).with_marginals(cfg.marginals)
    rows = _sweep_rows(sweep, bounds, event)
    meta = _base_metadata(name, cfg.n, cfg.seed, cfg.marginals)
    if event is not None:
        meta["event"] = event.token
    elif bounds is not None:
        meta["s_max"] = bounds.s_max
    meta["runtime_s"] = time.perf_counter() - t0
    return ExperimentReport(name, rows, meta)


def run_algorithm1(cfg: ExperimentConfig, lam: float) -> dict:
    """One grid point of the mixture pipeline; returns a report row."""
    return _run_sweep("algorithm1", cfg, [lam]).rows[0]


def run_figure1(cfg: ExperimentConfig) -> ExperimentReport:
    """Sweep the lambda grid; coskewness versus the affine prediction."""
    if not cfg.symmetric:
        raise DomainError("the lambda sweep needs symmetric marginals")
    return _run_sweep("figure1", cfg, cfg.lambda_grid)


def run_figure2(cfg: ExperimentConfig,
                event: estimators.EventSpec = estimators.EventSpec("downside")
                ) -> ExperimentReport:
    """Per lambda: coskewness plus the three event-conditional correlations."""
    return _run_sweep("figure2", cfg, cfg.lambda_grid, event)


# example1's reference values, per copula: the exact rank statistics
# (rho12_s, rho13_s, rho23_s, rs), and the pairwise rank correlations that
# the worked example of the source material states, where they differ.
# The mixing copula is U2 = 1 - 2U, U3 = U + 1/2 on [0, 1/2] and
# U2 = 2 - 2U, U3 = U - 1/2 on [1/2, 1]; with a = U - 1/2 every centred
# coordinate is linear in a on each half.  Each half gives -1/48 to every
# pairwise E[(Ui - 1/2)(Uj - 1/2)], so each Spearman rho is 12 * (-1/24) =
# -1/2, as Var(U + U2 + U3) = 0 forces, and 0 to
# E[(U - 1/2)(U2 - 1/2)(U3 - 1/2)], so the rank coskewness is 0.  The
# stated -1, 1, -1 are therefore flagged instead of asserted.
_EXAMPLE1 = {
    "comonotonic": ((1.0, 1.0, 1.0, 0.0), None),
    "mixingsum": ((-0.5, -0.5, -0.5, 0.0), (-1.0, 1.0, -1.0)),
    "independence": ((0.0, 0.0, 0.0, 0.0), None),
}


def run_example1(n: int = DEFAULT_N, seed: SeedSpec = SeedSpec()) -> ExperimentReport:
    """Rank statistics for the comonotonic, mixing and independence copulas.

    The ranks are each sample's copula coordinates, which equal the true-CDF
    ranks of any continuous marginal up to rounding (the report names
    Exponential(1)); no marginal is applied.  Exact values are reported next
    to the estimates.  The mixing-copula row carries a discrepancy flag
    because direct integration contradicts the stated pairwise rank
    correlations.
    """
    check_n(n)
    t0 = time.perf_counter()
    spearman = [f"{k}_s" for k in _RHO]
    rows = []
    for kind, (exact, stated) in _EXAMPLE1.items():
        ranks = copulas.sample(copulas.CopulaSpec(kind), n, seed).u
        row = {"copula": kind, "rs_hat": estimators.rank_coskewness(*ranks)}
        row.update({f"{key}_hat": estimators.spearman_rho(ranks[i], ranks[j])
                    for key, (i, j) in zip(spearman, _PAIRS)})
        row.update({f"{key}_exact": val for key, val in zip([*spearman, "rs"], exact)})
        row["stated_rank_corr_discrepancy"] = stated is not None
        row.update({f"{key}_stated": val for key, val in zip(spearman, stated or ())})
        rows.append(row)
    meta = _base_metadata("example1", n, seed, [exponential(1.0)] * 3)
    meta["runtime_s"] = time.perf_counter() - t0
    return ExperimentReport("example1", rows, meta)


def _gauss_stats(z, u1, triple):
    """The correlations (rho12, rho13, rho23), the coskewness and the
    |rank coskewness| of one Gaussian copula on z.

    The moments are the scores H's, which are the data under standard
    normal margins.  The ranks are the copula coordinates norm_cdf(H),
    which equal the true-CDF ranks of any continuous marginal up to
    rounding.  H1 is Z1 in every triple, so its rank u1 = norm_cdf(z[0])
    is the caller's, computed once.
    """
    h = copulas.gaussian_correlate(z, copulas.GaussianParams(*triple))
    (rho,), (coskew,) = _sweep_stats([estimators.MomentAccumulator(3).update(h)])
    return rho, coskew, abs(estimators.rank_coskewness(u1, *norm_cdf(h[1:])))


def _record(prop: str, claim: str, *checks) -> dict:
    """One verify record.  Each check is (label, value, tolerance, fmt); the
    record passes when every value lies below its tolerance."""
    return {
        "proposition": prop,
        "claim": claim,
        "observed": ", ".join(f"{label} = {value:{fmt}}"
                              for label, value, _, fmt in checks),
        "passed": all(value < tol for _, value, tol, _ in checks),
    }


def _valid_corr_triples(rng, count: int) -> np.ndarray:
    """The first count draws r of uniform(-1, 1, size=3) that form a valid
    correlation matrix (``analytic.corr_det`` >= 0), as rows, drawn in
    blocks."""
    triples = np.empty((0, 3))
    while len(triples) < count:
        r = rng.uniform(-1.0, 1.0, size=(2048, 3))
        triples = np.concatenate([triples, r[analytic.corr_det(*r.T) >= 0.0]])
    return triples[:count]


_GAUSS_TRIPLES = ((0.0, 0.0, 0.0), (0.8, 0.5, 0.3), (-0.5, 0.4, -0.3))
_VERIFY_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def verify_propositions(
    n: int = DEFAULT_N, seed: SeedSpec = SeedSpec()
) -> list[dict]:
    """Run the eight dependence/coskewness claims and report pass/fail each.

    Failures are reported, not raised; every record carries the worst
    observed statistic and its tolerance.  An n below 1000 is refused
    (:func:`check_n`) before any draw.
    """
    check_n(n)
    normal3 = (standard_normal(),) * 3
    bounds_n = analytic.coskew_bound(*normal3)
    ends = [_VERIFY_GRID.index(lam) for lam in (0.0, 0.5, 1.0)]

    # One mixture draw serves P1, P3, P4 and P6/P7; it is freed before the
    # one draw of normals Z that P2, P5 and P8's triples combine
    draw = mixture_draw(n, _VERIFY_GRID, seed)
    rho_n, s_n = _sweep_stats(draw.with_marginals(normal3).moments())
    predicted = [analytic.mixture_prediction(lam, bounds_n) for lam in _VERIFY_GRID]
    rank_stats = draw.rank_stats()
    rho_p4 = [_sweep_stats(draw.with_marginals(m).moments())[0][ends]
              for m in ((laplace(),) * 3, (student_t(5),) * 3)]
    del draw
    z = copulas.gaussian_z(n, seed)
    u1 = norm_cdf(z[0])
    rho_g, s_g, rs_g = map(np.array, zip(*[_gauss_stats(z, u1, t) for t in _GAUSS_TRIPLES]))
    identity = analytic.rank_coskew_gaussian(*_valid_corr_triples(substream(seed, 8), 1000).T)

    return [
        # P1: symmetric marginals, mixture structure: coskewness spans the
        # whole range while every pairwise correlation stays at zero.
        _record("P1", "zero pairwise correlation at every coskewness level",
                ("max |rho|", np.max(np.abs(rho_n[ends])), 0.02, ".4f"),
                ("endpoint gap", max(abs(s_n[-1] - bounds_n.s_max),
                                     abs(s_n[0] - bounds_n.s_min)), 0.05, ".4f")),
        # P2: trivariate Gaussian reaches any admissible correlations.
        _record("P2", "Gaussian model attains arbitrary correlation triples",
                ("max |rho_hat - rho|", np.max(np.abs(rho_g - _GAUSS_TRIPLES)), 0.02, ".4f")),
        # P3: mixture coskewness is affine in lambda.
        _record("P3", "mixture coskewness equals lambda*s_max + (1-lambda)*s_min",
                ("max |S_hat - prediction|", np.max(np.abs(s_n - predicted)), 0.05, ".4f")),
        # P4: correlations stay zero for other symmetric marginals too.
        _record("P4", "zero correlations persist for Laplace and Student-t margins",
                ("max |rho|", np.max(np.abs(rho_p4)), 0.02, ".4f")),
        # P5: Gaussian coskewness is zero whatever the correlations.
        _record("P5", "trivariate Gaussian has zero coskewness",
                ("max |S_hat|", np.max(np.abs(s_g)), 0.05, ".4f")),
        # P6/P7: with arbitrary continuous marginals the mixture keeps all
        # rank correlations at zero while rank coskewness sweeps [-1, 1] as
        # 2l-1.  True-CDF ranks are the copula coordinates whatever the
        # marginals, so they come from the shared draw.
        _record("P6", "rank coskewness spans [-1, 1] with zero rank correlations",
                ("max |RS - (2l-1)|",
                 np.max(np.abs(rank_stats[:, 3] - (2.0 * np.array(_VERIFY_GRID) - 1.0))),
                 0.03, ".4f")),
        _record("P7", "pairwise rank correlations all zero under the mixture",
                ("max |rho_S|", np.max(np.abs(rank_stats[:, :3])), 0.02, ".4f")),
        # P8: Gaussian copula has zero rank coskewness: algebraic identity
        # plus simulation with non-symmetric marginals.
        _record("P8", "Gaussian copula rank coskewness is identically zero",
                ("identity residual", np.max(np.abs(identity)), 1e-12, ".2e"),
                ("max simulated |RS|", np.max(rs_g), 0.02, ".4f")),
    ]
