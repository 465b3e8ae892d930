"""Command-line interface.

Every run resolves its full configuration (seed included) and echoes it:
JSON output embeds it as metadata, CSV output sends it to stderr so the
data stream stays machine-readable.  With a fixed --seed the primary
output is byte-identical across runs; --deterministic additionally drops
the runtime field from JSON metadata.
"""

from __future__ import annotations

import json
import sys
import warnings
from pathlib import Path

import click
import numpy as np

from . import analytic, copulas, estimators, experiments
from .errors import CoskewError, DomainError
from .marginals import parse_marginal
from .samples import SeedSpec, TriSample

_CSV_ROW = "%.17g,%.17g,%.17g\n"  # 17 significant digits read back exactly
_CSV_CHUNK = 4096  # rows per pass; bounds the Python floats alive, so peak memory
_DEFAULT_GRID_TEXT = ",".join(
    f"{lam:g}" for lam in experiments.ExperimentConfig.lambda_grid)


def _parse_marginals(text: str, count: int = 3):
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != count:
        raise click.UsageError(
            f"--marginals needs {count} comma-separated tokens, got {text!r}"
        )
    try:
        return tuple(parse_marginal(p) for p in parts)
    except (CoskewError, ValueError) as exc:
        raise click.UsageError(str(exc))


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise click.UsageError(f"--lambda-grid must be comma-separated reals: {text!r}")


def _emit(text: str, output: str):
    if output == "-":
        click.echo(text, nl=False)
    else:
        path = Path(output)
        path.write_text(text)


def _resolve_output(output: str, report: experiments.ExperimentReport, fmt: str) -> str:
    if output != "-" and Path(output).is_dir():
        return str(Path(output) / report.default_filename(fmt))
    return output


def _echo_config(meta: dict):
    click.echo(f"# config: {json.dumps(meta, sort_keys=True)}", err=True)


def _write_report(report, fmt: str, output: str, deterministic: bool):
    if deterministic:
        report.metadata.pop("runtime_s", None)
    target = _resolve_output(output, report, fmt)
    if fmt == "csv":
        _echo_config(report.metadata)
        _emit(report.to_csv(), target)
    else:
        _emit(report.to_json() + "\n", target)


def _seed_options(f):
    f = click.option("--seed", type=int, default=experiments.DEFAULT_SEED,
                     show_default=True, help="Base RNG seed.")(f)
    f = click.option("--stream", type=int, default=0, show_default=True,
                     help="Stream index for independent replicas.")(f)
    return f


def _io_options(f):
    f = click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
                     default="csv", show_default=True)(f)
    f = click.option("--output", default="-", show_default=True,
                     help="Output path, directory, or '-' for stdout.")(f)
    f = click.option("--deterministic", is_flag=True,
                     help="Suppress the runtime field so output is byte-stable.")(f)
    return f


@click.group()
def main():
    """Trivariate dependence toolkit: copula samplers, coskewness and rank
    statistics, analytic bounds, and experiment reproductions."""


@main.command("sample")
@click.option("--copula", "copula_token", required=True,
              help="comonotonic | independence | max | min | mixture:L | "
                   "mixingsum | gaussian:r12,r13,r23")
@click.option("--marginals", default="normal,normal,normal", show_default=True)
@click.option("--n", type=int, default=1000, show_default=True)
@_seed_options
@_io_options
def sample_cmd(copula_token, marginals, n, seed, stream, fmt, output, deterministic):
    """Draw a seeded sample and emit it as CSV (x1,x2,x3) or JSON."""
    try:
        spec = copulas.parse_copula(copula_token)
    except (CoskewError, ValueError) as exc:
        raise click.UsageError(str(exc))
    margs = _parse_marginals(marginals)
    seed_spec = SeedSpec(seed, stream)
    try:
        us = copulas.sample(spec, n, seed_spec)
        ts = copulas.to_data(us, *margs)
    except CoskewError as exc:
        raise click.ClickException(str(exc))
    meta = {
        "command": "sample",
        "copula": spec.token,
        "marginals": ",".join(m.token for m in margs),
        "n": n,
        "seed": seed,
        "stream": stream,
    }
    if fmt == "csv":
        _echo_config(meta)
        chunks = ["x1,x2,x3\n"]
        for i in range(0, ts.n, _CSV_CHUNK):
            rows = zip(*ts.x[:, i:i + _CSV_CHUNK].tolist())
            chunks.append("".join(map(_CSV_ROW.__mod__, rows)))
        _emit("".join(chunks), output)
    else:
        payload = {"metadata": meta,
                   "columns": {f"x{j+1}": list(ts.x[j]) for j in range(3)}}
        _emit(json.dumps(payload) + "\n", output)


@main.command("stats")
@click.option("--input", "input_path", default="-",
              help="CSV file with a header row; '-' reads stdin.")
@click.option("--marginals", default=None,
              help="If given, rank statistics use these true CDFs instead of "
                   "empirical ranks.")
@click.option("--event", "event_token", default=None,
              help="downside | exceed-upper:p | exceed-lower:p")
@_io_options
def stats_cmd(input_path, marginals, event_token, fmt, output, deterministic):
    """Compute the full statistic set for a 3-column CSV sample."""
    with click.open_file(input_path) as fh:
        for line in fh:  # comment and blank lines may precede the header
            if line.strip() and not line.startswith("#"):
                break
        try:
            with warnings.catch_warnings():
                # an input without data rows is a usage error below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(fh, delimiter=",", comments="#", ndmin=2)
        except ValueError as exc:  # ragged rows or unparsable cells
            raise click.UsageError(f"malformed CSV input: {exc}")
    if data.shape[0] < 2:
        raise click.UsageError("need a header row plus at least two data rows")
    if data.shape[1] != 3:
        raise click.UsageError(f"expected 3 columns, got {data.shape[1]}")
    if not np.all(np.isfinite(data)):
        raise click.UsageError("CSV input holds non-finite (nan/inf) cells")
    ts = TriSample(data.T)
    margs = _parse_marginals(marginals) if marginals else None
    try:
        records = _stat_records(ts, margs, event_token)
    except CoskewError as exc:
        raise click.ClickException(str(exc))
    _emit(json.dumps(records, indent=2) + "\n", output)


def _stat_records(ts, margs, event_token):
    acc = estimators.MomentAccumulator(3).update(ts.x)
    records = []

    def rec(statistic, value):
        records.append({"statistic": statistic, "value": float(value), "n": ts.n})

    for j in range(3):
        rec(f"mean{j+1}", acc.mean[j])
        rec(f"sd{j+1}", acc.sds()[j])
    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        rec(f"pearson{i+1}{j+1}", acc.corr(i, j))
    rec("coskewness", acc.coskew(0, 1, 2))
    ranks = [
        estimators.rank_transform(ts.x[j], margs[j] if margs else None)
        for j in range(3)
    ]
    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        rec(f"spearman{i+1}{j+1}", estimators.spearman_rho(ranks[i], ranks[j]))
    rec("rank_coskewness", estimators.rank_coskewness(*ranks))
    if event_token:
        try:
            event = estimators.parse_event(event_token)
        except (CoskewError, ValueError) as exc:
            raise click.UsageError(str(exc))
        mask = estimators.build_event_mask(ts, event, margs)
        i, j = event.pair
        rec(f"conditional_corr{i+1}{j+1}|{event.token}",
            estimators.conditional_corr(ts.x[i], ts.x[j], mask))
    return records


@main.command("bounds")
@click.option("--marginals", default="normal,normal,normal", show_default=True)
@click.option("--output", default="-", show_default=True)
def bounds_cmd(marginals, output):
    """Extremal coskewness bounds for three symmetric marginals (JSON)."""
    margs = _parse_marginals(marginals)
    try:
        res = analytic.coskew_bound(*margs)
    except CoskewError as exc:
        raise click.ClickException(str(exc))
    payload = {
        "marginals": ",".join(m.token for m in margs),
        "s_max": res.s_max,
        "s_min": res.s_min,
        "quadrature_error": res.quadrature_error,
    }
    _emit(json.dumps(payload) + "\n", output)


def _experiment_config(n, seed, stream, lambda_grid, marginals, event_token=None):
    margs = _parse_marginals(marginals)
    event = None
    if event_token:
        try:
            event = estimators.parse_event(event_token)
        except (CoskewError, ValueError) as exc:
            raise click.UsageError(str(exc))
    try:
        return experiments.ExperimentConfig(
            n=n,
            lambda_grid=_parse_grid(lambda_grid),
            marginals=margs,
            seed=SeedSpec(seed, stream),
            event=event,
        )
    except DomainError as exc:
        raise click.UsageError(str(exc))


@main.command("figure1")
@click.option("--n", type=int, default=experiments.DEFAULT_N, show_default=True)
@click.option("--lambda-grid", default=_DEFAULT_GRID_TEXT, show_default=True)
@click.option("--marginals", default="normal,normal,normal", show_default=True)
@_seed_options
@_io_options
def figure1_cmd(n, lambda_grid, marginals, seed, stream, fmt, output, deterministic):
    """Coskewness across the mixture parameter versus the affine prediction."""
    cfg = _experiment_config(n, seed, stream, lambda_grid, marginals)
    try:
        report = experiments.run_figure1(cfg)
    except CoskewError as exc:
        raise click.ClickException(str(exc))
    _write_report(report, fmt, output, deterministic)


@main.command("figure2")
@click.option("--n", type=int, default=experiments.DEFAULT_N, show_default=True)
@click.option("--lambda-grid", default=_DEFAULT_GRID_TEXT, show_default=True)
@click.option("--marginals", default="normal,normal,normal", show_default=True)
@click.option("--event", "event_token", default="downside", show_default=True)
@_seed_options
@_io_options
def figure2_cmd(n, lambda_grid, marginals, event_token, seed, stream, fmt, output,
                deterministic):
    """Event-conditional correlations across the mixture parameter."""
    cfg = _experiment_config(n, seed, stream, lambda_grid, marginals, event_token)
    try:
        report = experiments.run_figure2(cfg)
    except CoskewError as exc:
        raise click.ClickException(str(exc))
    _write_report(report, fmt, output, deterministic)


@main.command("example1")
@click.option("--n", type=int, default=experiments.DEFAULT_N, show_default=True)
@_seed_options
@_io_options
def example1_cmd(n, seed, stream, fmt, output, deterministic):
    """Rank statistics of the comonotonic, mixing and independence copulas."""
    try:
        report = experiments.run_example1(n, SeedSpec(seed, stream))
    except CoskewError as exc:
        raise click.ClickException(str(exc))
    _write_report(report, fmt, output, deterministic)


@main.command("verify")
@click.option("--n", type=int, default=experiments.DEFAULT_N, show_default=True)
@_seed_options
def verify_cmd(n, seed, stream):
    """Check the eight dependence/coskewness claims; exit 1 on any failure."""
    try:
        records = experiments.verify_propositions(n, SeedSpec(seed, stream))
    except CoskewError as exc:
        raise click.ClickException(str(exc))
    failed = 0
    for rec in records:
        status = "PASS" if rec["passed"] else "FAIL"
        click.echo(f"[{status}] {rec['proposition']}: {rec['claim']} "
                   f"({rec['observed']})")
        failed += 0 if rec["passed"] else 1
    click.echo(f"{len(records) - failed}/{len(records)} propositions verified "
               f"(n={n}, seed={seed}, stream={stream})")
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
