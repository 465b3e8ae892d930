"""Command-line interface.

Every run resolves its full configuration (seed included) and echoes it:
JSON output embeds it as metadata, CSV output sends it to stderr so the
data stream stays machine-readable.  With a fixed --seed the primary
output is byte-identical across runs; the report commands' --deterministic
additionally drops the runtime field from the metadata.

Every --copula, --marginals and --event token has one grammar,
``name[:n1,n2,...]`` (``coskew.marginals.split_token``): case and
surrounding blanks do not matter, a kind that takes no number takes no
":", and a ":" needs all of its kind's numbers.  ``exp`` alone has rate 1;
``exp:`` and a stray parameter such as ``max:0.7`` are usage errors.

Exit codes: 0 on success; 2 on a usage error (a bad token, seed, stream,
path, CSV input or experiment configuration), raised before any work
starts; 1 when the library raises a ``CoskewError`` on valid input, or
when ``verify`` reports a failed check.
"""

from __future__ import annotations

import os
import sys
import warnings
from pathlib import Path

import click
import numpy as np

from . import analytic, copulas, estimators, experiments
from .errors import CoskewError, DomainError
from .marginals import parse_marginal
from .samples import SeedSpec, TriSample

_CSV_ROW = b"%.17g,%.17g,%.17g\n"  # 17 significant digits read back exactly
# rows per block of the CSV and JSON writers; bounds the Python floats alive
# and the bytes held before each write, so peak memory does not grow with n
_CSV_CHUNK = 4096
_DEFAULT_GRID_TEXT = ",".join(
    f"{lam:g}" for lam in experiments.ExperimentConfig.lambda_grid)


def _parse_marginals(text: str):
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != 3:
        raise ValueError(f"--marginals needs 3 comma-separated tokens, got {text!r}")
    return tuple(parse_marginal(p) for p in parts)


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise ValueError(f"--lambda-grid must be comma-separated reals: {text!r}")


def _token(parse):
    """Option callback that parses the option's value with ``parse``; a
    value the parser rejects is a usage error carrying the parser's message.
    Only an unset option gives None; empty text goes to ``parse``, which
    rejects it."""
    def callback(ctx, param, value):
        if value is None:
            return None
        try:
            return parse(value)
        except (CoskewError, ValueError) as exc:
            raise click.UsageError(str(exc)) from exc
    return callback


def _names_dir(output: str) -> bool:
    """A trailing separator names a directory; ``Path`` would drop it."""
    return output.endswith(("/", os.sep)) or Path(output).is_dir()


def _output_check(dir_ok: bool):
    """``--output`` callback: stdout, or a path whose parent directory
    exists.  Report commands (``dir_ok``) also take a directory, which need
    not exist yet if its parent does, but may not be an existing file; file
    outputs refuse one, existing or named by a trailing separator."""
    def callback(ctx, param, output):
        if output == "-" or (dir_ok and Path(output).is_dir()):
            return output
        if not dir_ok and _names_dir(output):
            raise click.BadParameter(f"{output!r} names a directory")
        if _names_dir(output) and Path(output).exists():
            raise click.BadParameter(f"{output!r} names a directory, but is a file")
        parent = Path(output).parent
        if not parent.is_dir():
            raise click.BadParameter(f"directory '{parent}' does not exist")
        return output
    return callback


def _emit(text: str, output: str):
    with click.open_file(output, "w") as fh:
        fh.write(text)


def _resolve_output(output: str, report: experiments.ExperimentReport, fmt: str) -> str:
    if output != "-" and _names_dir(output):
        Path(output).mkdir(exist_ok=True)
        return str(Path(output) / report.default_filename(fmt))
    return output


def _echo_config(meta: dict):
    click.echo(f"# config: {experiments.json_text(meta, sort_keys=True)}", err=True)


def _write_report(report, fmt: str, output: str, deterministic: bool):
    if deterministic:
        report.metadata.pop("runtime_s", None)
    target = _resolve_output(output, report, fmt)
    if fmt == "csv":
        _echo_config(report.metadata)
        _emit(report.to_csv(), target)
    else:
        _emit(report.to_json() + "\n", target)


_SEED_RANGE = click.IntRange(0, 2**64 - 1)  # what SeedSpec accepts


def _seed_options(f):
    f = click.option("--seed", type=_SEED_RANGE, default=experiments.DEFAULT_SEED,
                     show_default=True, help="Base RNG seed.")(f)
    f = click.option("--stream", type=_SEED_RANGE, default=0, show_default=True,
                     help="Stream index for independent replicas.")(f)
    return f


_format_option = click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
                              default="csv", show_default=True)
_file_output = click.option("--output", default="-", show_default=True,
                            callback=_output_check(dir_ok=False),
                            help="Output file, or '-' for stdout.")


def _report_options(f):
    f = _format_option(f)
    f = click.option("--output", default="-", show_default=True,
                     callback=_output_check(dir_ok=True),
                     help="Output path, directory, or '-' for stdout.")(f)
    f = click.option("--deterministic", is_flag=True,
                     help="Suppress the runtime field so output is byte-stable.")(f)
    return f


_marginals_option = click.option("--marginals", default="normal,normal,normal",
                                 show_default=True, callback=_token(_parse_marginals))
_grid_option = click.option("--lambda-grid", default=_DEFAULT_GRID_TEXT,
                            show_default=True, callback=_token(_parse_grid))
_n_option = click.option("--n", type=int, default=experiments.DEFAULT_N, show_default=True,
                         callback=_token(experiments.check_n))


class _Main(click.Group):
    """Command group that reports a library error raised inside any command
    as a failure (exit 1) with its message, never as a traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except CoskewError as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Main)
def main():
    """Trivariate dependence toolkit: copula samplers, coskewness and rank
    statistics, analytic bounds, and experiment reproductions."""


@main.command("sample")
@click.option("--copula", "spec", required=True, callback=_token(copulas.parse_copula),
              help="comonotonic | independence | max | min | mixture:L | "
                   "mixingsum | gaussian:r12,r13,r23")
@_marginals_option
@click.option("--n", type=int, default=1000, show_default=True)
@_seed_options
@_file_output
@_format_option
def sample_cmd(spec, marginals, n, seed, stream, output, fmt):
    """Draw a seeded sample and emit it as CSV (x1,x2,x3) or JSON."""
    ts = copulas.to_data(copulas.sample(spec, n, SeedSpec(seed, stream)), *marginals)
    meta = {
        "command": "sample",
        "copula": spec.token,
        "marginals": ",".join(m.token for m in marginals),
        "n": n,
        "seed": seed,
        "stream": stream,
    }
    if fmt == "csv":
        _echo_config(meta)
        with click.open_file(output, "wb") as fh:
            fh.write(b"x1,x2,x3\n")
            for i in range(0, ts.n, _CSV_CHUNK):
                block = ts.x[:, i:i + _CSV_CHUNK]
                fh.write(_CSV_ROW * block.shape[1] % tuple(block.T.ravel().tolist()))
    else:
        # the JSON text of {"metadata": meta, "columns": {"x1": [...], ...}},
        # written a block of each column at a time
        with click.open_file(output, "w") as fh:
            fh.write(f'{{"metadata": {experiments.json_text(meta)}, "columns": {{')
            for j, col in enumerate(ts.x):
                fh.write(f'{", " * bool(j)}"x{j+1}": [')
                for i in range(0, ts.n, _CSV_CHUNK):
                    text = experiments.json_text(col[i:i + _CSV_CHUNK].tolist())
                    fh.write(", " * bool(i) + text[1:-1])
                fh.write("]")
            fh.write("}}\n")


@main.command("stats")
@click.option("--input", "input_path", default="-",
              type=click.Path(exists=True, dir_okay=False, allow_dash=True),
              help="CSV file with a header row; '-' reads stdin.")
@click.option("--marginals", callback=_token(_parse_marginals),
              help="If given, rank statistics use these true CDFs instead of "
                   "empirical ranks.")
@click.option("--event", callback=_token(estimators.parse_event),
              help="downside | exceed-upper:p | exceed-lower:p")
@_file_output
def stats_cmd(input_path, marginals, event, output):
    """Compute the full statistic set for a 3-column CSV sample."""
    with click.open_file(input_path) as fh:
        # without leading whitespace a comment-only line starts with "#",
        # which loadtxt skips like a blank one
        lines = map(str.lstrip, fh)
        for line in lines:  # comment and blank lines may precede the header
            if line and not line.startswith("#"):
                break
        try:
            with warnings.catch_warnings():
                # an input without data rows is a usage error below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(lines, delimiter=",", comments="#", ndmin=2)
        except ValueError as exc:  # ragged rows or unparsable cells
            raise click.UsageError(f"malformed CSV input: {exc}")
    if data.shape[0] < 2:
        raise click.UsageError("need a header row plus at least two data rows")
    if data.shape[1] != 3:
        raise click.UsageError(f"expected 3 columns, got {data.shape[1]}")
    if not np.all(np.isfinite(data)):
        raise click.UsageError("CSV input holds non-finite (nan/inf) cells")
    records = _stat_records(TriSample(data.T), marginals, event)
    _emit(experiments.json_text(records, indent=2) + "\n", output)


def _stat_records(ts, margs, event):
    acc = estimators.MomentAccumulator(3).update(ts.x)
    records = []

    def rec(statistic, value):
        records.append({"statistic": statistic, "value": float(value), "n": ts.n})

    sds, r, coskew = acc.standardized()
    for j in range(3):
        rec(f"mean{j+1}", acc.mean[j])
        rec(f"sd{j+1}", sds[j])
    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        rec(f"pearson{i+1}{j+1}", r[i, j])
    rec("coskewness", coskew)
    ranks = [
        estimators.rank_transform(ts.x[j], margs[j] if margs else None)
        for j in range(3)
    ]
    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        rec(f"spearman{i+1}{j+1}", estimators.spearman_rho(ranks[i], ranks[j]))
    rec("rank_coskewness", estimators.rank_coskewness(*ranks))
    if event is not None:
        mask = estimators.build_event_mask(ts, event, margs)
        rec(f"conditional_corr12|{event.token}",
            estimators.conditional_corr(ts.x[0], ts.x[1], mask))
    return records


@main.command("bounds")
@_marginals_option
@_file_output
def bounds_cmd(marginals, output):
    """Extremal coskewness bounds for three symmetric marginals (JSON)."""
    res = analytic.coskew_bound(*marginals)
    payload = {
        "marginals": ",".join(m.token for m in marginals),
        "s_max": res.s_max,
        "s_min": res.s_min,
        "quadrature_error": res.quadrature_error,
        "evaluations": res.evaluations,
    }
    _emit(experiments.json_text(payload) + "\n", output)


def _experiment_config(n, seed, stream, lambda_grid, marginals):
    try:
        return experiments.ExperimentConfig(
            n=n,
            lambda_grid=lambda_grid,
            marginals=marginals,
            seed=SeedSpec(seed, stream),
        )
    except DomainError as exc:
        raise click.UsageError(str(exc))


@main.command("figure1")
@_n_option
@_grid_option
@_marginals_option
@_seed_options
@_report_options
def figure1_cmd(n, lambda_grid, marginals, seed, stream, fmt, output, deterministic):
    """Coskewness across the mixture parameter versus the affine prediction."""
    cfg = _experiment_config(n, seed, stream, lambda_grid, marginals)
    report = experiments.run_figure1(cfg)
    _write_report(report, fmt, output, deterministic)


@main.command("figure2")
@_n_option
@_grid_option
@_marginals_option
@click.option("--event", default="downside", show_default=True,
              callback=_token(estimators.parse_event))
@_seed_options
@_report_options
def figure2_cmd(n, lambda_grid, marginals, event, seed, stream, fmt, output,
                deterministic):
    """Event-conditional correlations across the mixture parameter."""
    cfg = _experiment_config(n, seed, stream, lambda_grid, marginals)
    report = experiments.run_figure2(cfg, event)
    _write_report(report, fmt, output, deterministic)


@main.command("example1")
@_n_option
@_seed_options
@_report_options
def example1_cmd(n, seed, stream, fmt, output, deterministic):
    """Rank statistics of the comonotonic, mixing and independence copulas."""
    report = experiments.run_example1(n, SeedSpec(seed, stream))
    _write_report(report, fmt, output, deterministic)


@main.command("verify")
@_n_option
@_seed_options
def verify_cmd(n, seed, stream):
    """Check the eight dependence/coskewness claims; exit 1 on any failure.

    The pass tolerances are fixed numbers that do not scale with --n, which
    must be at least 1000.  Even at the default n = 100000, P4 fails on
    about 11% of streams of correct code (22 of 200: seed 1, streams 0-199;
    no other check failed).  See ROADMAP item 5.
    """
    records = experiments.verify_propositions(n, SeedSpec(seed, stream))
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
