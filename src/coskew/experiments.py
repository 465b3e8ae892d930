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
        if self.n < 1000:
            raise DomainError("experiments need n >= 1000 for published tolerances")
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


def _moment_stats(acc: estimators.MomentAccumulator) -> dict:
    _, r, coskew = acc.standardized()
    return {"coskewness_hat": coskew,
            **{f"rho{i + 1}{j + 1}_hat": float(r[i, j]) for i, j in _PAIRS}}


def _sweep_rows(sweep, bounds=None, event=None) -> list[dict]:
    """One report row per lambda of a mixture sweep.  Rows carry the affine
    prediction when bounds are given, and the event fraction plus the three
    event-conditional correlations when an event is given."""
    rows = []
    for lam, acc in zip(sweep.draw.lams, sweep.moments()):
        row = {"lambda": lam, **_moment_stats(acc)}
        if bounds is not None:
            row["coskewness_predicted"] = analytic.mixture_prediction(lam, bounds)
        rows.append(row)
    if event is not None:
        for row, (fraction, acc) in zip(rows, sweep.event_moments(event)):
            row["event_fraction"] = fraction
            r = acc.standardized()[1]
            row.update({f"cond_rho{i + 1}{j + 1}": float(r[i, j]) for i, j in _PAIRS})
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
    t0 = time.perf_counter()
    spearman = [f"rho{i + 1}{j + 1}_s" for i, j in _PAIRS]
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
    """Moment statistics and |rank coskewness| of one Gaussian copula on z.

    The moments are the scores H's, which are the data under standard
    normal margins.  The ranks are the copula coordinates norm_cdf(H),
    which equal the true-CDF ranks of any continuous marginal up to
    rounding.  H1 is Z1 in every triple, so its rank u1 = norm_cdf(z[0])
    is the caller's, computed once.
    """
    h = copulas.gaussian_correlate(z, copulas.GaussianParams(*triple))
    stats = _moment_stats(estimators.MomentAccumulator(3).update(h))
    return stats, abs(estimators.rank_coskewness(u1, *norm_cdf(h[1:])))


def _max_abs_rho(st: dict) -> float:
    return max(abs(st["rho12_hat"]), abs(st["rho13_hat"]), abs(st["rho23_hat"]))


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
    observed statistic and its tolerance.
    """
    records = []
    normal3 = (standard_normal(),) * 3
    bounds_n = analytic.coskew_bound(*normal3)

    # One mixture draw serves P1, P3, P4 and P6/P7; it is freed before the
    # one draw of normals Z that P2, P5 and P8's triples combine
    draw = mixture_draw(n, _VERIFY_GRID, seed)
    mix_n = {row["lambda"]: row
             for row in _sweep_rows(draw.with_marginals(normal3), bounds_n)}
    mix_ranks = draw.rank_stats()
    worst_rho_p4 = max(
        _max_abs_rho(st)
        for m in ((laplace(),) * 3, (student_t(5),) * 3)
        for st in _sweep_rows(draw.with_marginals(m))
        if st["lambda"] in (0.0, 0.5, 1.0)
    )
    del draw
    z = copulas.gaussian_z(n, seed)
    u1 = norm_cdf(z[0])
    gauss_n, gauss_rs = zip(*[_gauss_stats(z, u1, t) for t in _GAUSS_TRIPLES])

    # P1: symmetric marginals, mixture structure: coskewness spans the whole
    # range while every pairwise correlation stays at zero.
    worst_rho = max(_max_abs_rho(mix_n[lam]) for lam in (0.0, 0.5, 1.0))
    worst_end = max(abs(mix_n[1.0]["coskewness_hat"] - bounds_n.s_max),
                    abs(mix_n[0.0]["coskewness_hat"] - bounds_n.s_min))
    records.append(_record(
        "P1", "zero pairwise correlation at every coskewness level",
        ("max |rho|", worst_rho, 0.02, ".4f"),
        ("endpoint gap", worst_end, 0.05, ".4f"),
    ))

    # P2: trivariate Gaussian reaches any admissible correlations.
    worst_rho_gap = max(
        abs(st[key] - target)
        for st, triple in zip(gauss_n, _GAUSS_TRIPLES)
        for key, target in zip(("rho12_hat", "rho13_hat", "rho23_hat"), triple)
    )
    records.append(_record(
        "P2", "Gaussian model attains arbitrary correlation triples",
        ("max |rho_hat - rho|", worst_rho_gap, 0.02, ".4f"),
    ))

    # P3: mixture coskewness is affine in lambda.
    worst_gap = max(abs(st["coskewness_hat"] - st["coskewness_predicted"])
                    for st in mix_n.values())
    records.append(_record(
        "P3", "mixture coskewness equals lambda*s_max + (1-lambda)*s_min",
        ("max |S_hat - prediction|", worst_gap, 0.05, ".4f"),
    ))

    # P4: correlations stay zero for other symmetric marginals too.
    records.append(_record(
        "P4", "zero correlations persist for Laplace and Student-t margins",
        ("max |rho|", worst_rho_p4, 0.02, ".4f"),
    ))

    # P5: Gaussian coskewness is zero whatever the correlations.
    worst_s = max(abs(st["coskewness_hat"]) for st in gauss_n)
    records.append(_record(
        "P5", "trivariate Gaussian has zero coskewness",
        ("max |S_hat|", worst_s, 0.05, ".4f"),
    ))

    # P6/P7: with arbitrary continuous marginals the mixture keeps all rank
    # correlations at zero while rank coskewness sweeps [-1, 1] as 2l-1.
    # True-CDF ranks are the copula coordinates whatever the marginals, so
    # they come from the shared draw.
    rho_s, rs = mix_ranks[:, :3], mix_ranks[:, 3]
    worst_rho_s = float(np.max(np.abs(rho_s)))
    worst_rs = float(np.max(np.abs(rs - (2.0 * np.array(_VERIFY_GRID) - 1.0))))
    records.append(_record(
        "P6", "rank coskewness spans [-1, 1] with zero rank correlations",
        ("max |RS - (2l-1)|", worst_rs, 0.03, ".4f"),
    ))
    records.append(_record(
        "P7", "pairwise rank correlations all zero under the mixture",
        ("max |rho_S|", worst_rho_s, 0.02, ".4f"),
    ))

    # P8: Gaussian copula has zero rank coskewness: algebraic identity plus
    # simulation with non-symmetric marginals.
    r12, r13, r23 = _valid_corr_triples(substream(seed, 8), 1000).T
    worst_identity = float(np.max(np.abs(analytic.rank_coskew_gaussian(r12, r13, r23))))
    records.append(_record(
        "P8", "Gaussian copula rank coskewness is identically zero",
        ("identity residual", worst_identity, 1e-12, ".2e"),
        ("max simulated |RS|", max(gauss_rs), 0.02, ".4f"),
    ))

    return records
