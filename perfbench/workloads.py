"""The benchmark's workloads, their output checks and the reference checks.

Each workload is a closed loop with one caller: op ``i`` runs to completion
before op ``i + 1`` starts, and draws from ``SeedSpec(seed, stream=i)``, so
a seed replays the same inputs.  Ops run in the benchmark's process and go
through ``coskew.cli.main`` where a user would call the CLI.  Cold start is
measured by ``setup_s``, which includes ``import coskew.cli``, and by the
traced run's ``cli.import_ms``.

An op fails when it raises, its output is malformed or not finite, or a
statistic misses its published tolerance by more than ``HARD_FACTOR``
times.  At n = 1e5 the published tolerances are only 2-3.6 standard errors
wide, so correct code misses them on a few percent of streams; gating on
them would fail at random.  Such near misses are only counted.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from coskew import CoskewError, SeedSpec, analytic, cli, experiments, parse_marginal

N = 100_000
WARMUP_N = N // 10
HARD_FACTOR = 3.0
S_MAX_NORMAL = 2.0 * math.sqrt(2.0 / math.pi)  # E|Z|^3 for a standard normal


@dataclass
class Context:
    """What an op needs besides its index: the seed, where the CLI writes,
    and the tracer while a traced op runs."""

    seed: int
    workdir: Path
    tracer: object = None


@dataclass
class Outcome:
    """Checked result of one op."""

    primary: bytes = b""
    problems: list = field(default_factory=list)
    near_misses: int = 0  # beyond the published tolerance, within its limit
    bytes_out: int = 0  # written by the CLI
    bytes_in: int = 0  # read by the CLI

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.primary).hexdigest()

    def within(self, label: str, deviation: float, tol: float,
               limit: float | None = None):
        """Fail when |deviation| reaches ``limit`` (by default ``HARD_FACTOR``
        published tolerances) or is not finite."""
        dev = abs(float(deviation))
        limit = HARD_FACTOR * tol if limit is None else limit
        if not math.isfinite(dev) or dev >= limit:
            self.problems.append(f"{label}: |dev| = {dev:.4g}, limit {limit:g}")
        elif dev >= tol:
            self.near_misses += 1


# -- sweep ---------------------------------------------------------------------


def run_cli(ctx: Context, args, n: int):
    """One in-process `coskew ...` call, inside a "cli" span when traced."""
    span = ctx.tracer.span("cli", "main", n) if ctx.tracer else contextlib.nullcontext()
    # CSV output echoes its config to stderr; keep it off the console
    with contextlib.redirect_stderr(io.StringIO()), span:
        cli.main.main(args=args, prog_name="coskew", standalone_mode=False)


def sweep_run(ctx: Context, i: int, n: int):
    """`coskew figure1` and `coskew figure2 --event downside` as JSON files."""
    paths = []
    for cmd in (["figure1"], ["figure2", "--event", "downside"]):
        path = ctx.workdir / f"{cmd[0]}.json"
        path.unlink(missing_ok=True)
        run_cli(ctx, [*cmd, "--n", str(n), "--seed", str(ctx.seed), "--stream", str(i),
                      "--format", "json", "--deterministic", "--output", str(path)], n)
        paths.append(path)
    return paths


def sweep_check(paths) -> Outcome:
    res = Outcome()
    try:
        raw = [p.read_bytes() for p in paths]
        res.primary, res.bytes_out = b"".join(raw), sum(map(len, raw))
        for text in raw:
            rep = json.loads(text)
            name, rows = rep["experiment"], rep["rows"]
            if len(rows) != 11:
                res.problems.append(f"{name}: {len(rows)} rows, expected 11")
            for row in rows:
                at = f"{name} lambda={row['lambda']:g}"
                res.within(f"{at} S_hat - prediction",
                           row["coskewness_hat"] - row["coskewness_predicted"], 0.05)
                for key in ("rho12_hat", "rho13_hat", "rho23_hat"):
                    res.within(f"{at} {key}", row[key], 0.02)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        res.problems.append(f"figure output unreadable: {exc!r}")
    return res


# -- verify --------------------------------------------------------------------

# Published tolerance of each number in a record's "observed" text, in order.
VERIFY_TOLS = {
    "P1": (0.02, 0.05), "P2": (0.02,), "P3": (0.05,), "P4": (0.02,),
    "P5": (0.05,), "P6": (0.03,), "P7": (0.02,), "P8": (1e-12, 0.02),
}
# P4's max |rho| with Student-t5 margins is heavy-tailed (E X^8 is infinite):
# correct code reached 0.061, three tolerances, on 1 of 180 ops at n = 1e5.
# Its limit is about twice that.
VERIFY_LIMITS = {"P4": 0.12}
_OBSERVED_NUMBER = re.compile(r"=\s*([-+]?[0-9][0-9.eE+-]*)")
EXAMPLE1_TOLS = {"rs": 0.01, "rho12_s": 0.02, "rho13_s": 0.02, "rho23_s": 0.02}


def verify_run(ctx: Context, i: int, n: int):
    seed = SeedSpec(ctx.seed, i)
    return experiments.verify_propositions(n, seed), experiments.run_example1(n, seed)


def verify_check(out) -> Outcome:
    records, example = out
    res = Outcome(primary=(json.dumps(records, sort_keys=True) + example.to_csv()).encode())
    names = [r["proposition"] for r in records]
    if names != list(VERIFY_TOLS):
        res.problems.append(f"propositions {names}, expected {list(VERIFY_TOLS)}")
        return res
    for rec in records:
        prop = rec["proposition"]
        values = _OBSERVED_NUMBER.findall(rec["observed"])
        tols = VERIFY_TOLS[prop]
        if len(values) != len(tols):
            res.problems.append(f"{prop}: cannot read {rec['observed']!r}")
            continue
        for k, (value, tol) in enumerate(zip(values, tols)):
            res.within(f"verify {prop}[{k}]", float(value), tol, VERIFY_LIMITS.get(prop))
    for row in example.rows:
        for key, tol in EXAMPLE1_TOLS.items():
            res.within(f"example1 {row['copula']} {key}",
                       row[f"{key}_hat"] - row[f"{key}_exact"], tol)
    return res


# -- cli -----------------------------------------------------------------------

CLI_LAMBDA = 0.75  # predicted coskewness (2 lambda - 1) s_max, away from 0


def cli_run(ctx: Context, i: int, n: int):
    """`coskew sample` to a CSV file, then `coskew stats --event downside` on
    it, which ranks empirically."""
    csv, stats = ctx.workdir / "sample.csv", ctx.workdir / "stats.json"
    csv.unlink(missing_ok=True)
    stats.unlink(missing_ok=True)
    run_cli(ctx, ["sample", "--copula", f"mixture:{CLI_LAMBDA}", "--n", str(n),
                  "--seed", str(ctx.seed), "--stream", str(i), "--output", str(csv)], n)
    run_cli(ctx, ["stats", "--input", str(csv), "--event", "downside",
                  "--output", str(stats)], n)
    return csv, stats


def cli_check(paths) -> Outcome:
    res = Outcome()
    try:
        sample, stats = (p.read_bytes() for p in paths)
        res.primary = sample + stats
        res.bytes_out, res.bytes_in = len(sample) + len(stats), len(sample)
        values = {r["statistic"]: r["value"] for r in json.loads(stats)}
        res.within("stats coskewness - prediction",
                   values["coskewness"] - (2.0 * CLI_LAMBDA - 1.0) * S_MAX_NORMAL, 0.05)
        for key in ("pearson12", "pearson13", "pearson23"):
            res.within(f"stats {key}", values[key], 0.02)
        if not all(map(math.isfinite, values.values())):
            res.problems.append("stats output not finite")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        res.problems.append(f"cli output unreadable: {exc!r}")
    return res


@dataclass(frozen=True)
class Workload:
    name: str
    rows_per_op: int  # requested sample rows, fixed by the definition
    run: object
    check: object


# why each workload exists is recorded in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", 22 * N, sweep_run, sweep_check),
        Workload("verify", 31 * N, verify_run, verify_check),
        Workload("cli", 2 * N, cli_run, cli_check),
    )
}


# -- reference checks ---------------------------------------------------------


def _t_abs_third_moment(df: float) -> float:
    """E|T|^3 / sd^3 for Student t with df > 3."""
    sd = math.sqrt(df / (df - 2.0))
    return (df ** 1.5 * math.gamma((df - 3.0) / 2.0)
            / (math.sqrt(math.pi) * math.gamma(df / 2.0)) / sd ** 3)


# Closed-form E|Z|^3 of the standardized marginal: s_max for three copies.
BOUND_ORACLES = {
    "normal": S_MAX_NORMAL,
    "uniform": 3.0 * math.sqrt(3.0) / 4.0,
    "laplace": 3.0 / math.sqrt(2.0),
    "t:5": _t_abs_third_moment(5.0),
}


def reference_checks(seed: int, workdir: Path) -> list:
    """[(name, passed, detail)]: bounds against closed forms, and
    byte-identical primary output for the same seed twice."""
    checks = []
    for token, exact in BOUND_ORACLES.items():
        m = parse_marginal(token)
        try:
            got = analytic.coskew_bound(m, m, m).s_max
            checks.append((f"bound.{token}", abs(got - exact) < analytic.QUAD_TOL,
                           f"s_max {got!r} vs closed form {exact!r}"))
        except CoskewError as exc:
            checks.append((f"bound.{token}", False, f"{type(exc).__name__}: {exc}"))
    commands = {
        "sample_csv": ["sample", "--copula", "mixture:0.25", "--n", "2000"],
        "figure1_json": ["figure1", "--n", "2000", "--format", "json", "--deterministic"],
    }
    ctx = Context(seed, workdir)
    for name, args in commands.items():
        outputs = []
        for k in range(2):
            path = workdir / f"determinism-{name}-{k}"
            run_cli(ctx, [*args, "--seed", str(seed), "--output", str(path)], 0)
            outputs.append(path.read_bytes())
            path.unlink()
        checks.append((f"determinism.{name}", outputs[0] == outputs[1],
                       f"{len(outputs[0])} bytes, sha256 "
                       f"{hashlib.sha256(outputs[0]).hexdigest()[:16]}"))
    return checks
