"""One benchmark process: set up, run part of a workload's closed loop, check.

Started by run.py, which pins the BLAS thread count and puts ``src`` on
PYTHONPATH.  Set-up runs from process start to the first timed op: the
interpreter, ``import coskew.cli`` (through ``workloads``) and a warm-up
op at n/10.

Untraced, the loop runs ops ``--first-op``, ``--first-op + 1``, ... until
``--seconds`` have passed, and times a fixed reference kernel after set-up
and after every op.  The host's speed drifts by tens of percent over
seconds to minutes; run.py divides by the mean reference time to cancel
most of that drift.

Traced, it runs every op twice, once untraced and once traced, swapping
which goes first on odd ops.  The pair gives the tracing overhead and a
check that tracing leaves the output bytes unchanged.

``--checks`` adds the reference checks and the environment record.  The
last line of stdout is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench"
IMPORT_REPEATS = 3
REF_ROWS = 1_000_000
REF_FLOATS = 20_000
REF_REPEATS = 2
_REF_U = (np.random.default_rng(0).permutation(REF_ROWS) + 0.5) / REF_ROWS
_REF_F = np.random.default_rng(1).standard_normal(REF_FLOATS).tolist()


def _best_of(kernel):
    best = float("inf")
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def reference_s():
    """Time of a fixed reference kernel that does an op's two kinds of work:
    normal quantiles of uniforms then a sort (numpy), and formatting floats
    as text (the interpreter).  Each part is the best of REF_REPEATS."""
    from scipy.special import ndtri  # not at start-up, which setup_s times

    return (_best_of(lambda: ndtri(_REF_U).sort())
            + _best_of(lambda: ",".join(format(v, ".17g") for v in _REF_F)))


def run_op(wl, ctx, i, tracer=None):
    """(seconds, Outcome) of op i; a raising op is a failed op."""
    span = tracer.span("op", wl.name) if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with span:
            out = wl.run(ctx, i, workloads.N)
    except Exception as exc:  # a failing op is counted and the loop goes on
        return time.perf_counter() - t0, workloads.Outcome(
            problems=[f"raised {type(exc).__name__}: {exc}"])
    seconds = time.perf_counter() - t0
    return seconds, wl.check(out)


def op_record(i, traced, seconds, res):
    return {"op": i, "traced": traced, "seconds": seconds, "sha256": res.digest,
            "bytes_out": res.bytes_out, "bytes_in": res.bytes_in,
            "near_misses": res.near_misses, "problems": res.problems}


def timed_loop(wl, ctx, first_op, seconds, refs):
    """Ops from first_op on for ``seconds``; appends a reference time to
    ``refs`` after each."""
    ops = []
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline:
        i = first_op + len(ops)
        ops.append(op_record(i, False, *run_op(wl, ctx, i)))
        refs.append(reference_s())
    return ops


def traced_loop(wl, ctx, seconds, tracer):
    ops = []
    deadline = time.perf_counter() + seconds
    i = 0
    while not ops or time.perf_counter() < deadline:
        pair = {}
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if traced:
                tracer.install()
                tracer.op, ctx.tracer = i, tracer
                try:
                    pair[traced] = op_record(i, True, *run_op(wl, ctx, i, tracer))
                finally:
                    tracer.uninstall()
                    ctx.tracer = None
            else:
                pair[traced] = op_record(i, False, *run_op(wl, ctx, i))
        if pair[True]["sha256"] != pair[False]["sha256"]:
            pair[True]["problems"].append("output bytes differ traced vs untraced")
        ops += [pair[False], pair[True]]
        i += 1
    return ops


def import_ms():
    """Median time of `import coskew.cli` in a fresh process."""
    code = ("import time; t = time.perf_counter(); import coskew.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True, timeout=60)
        times.append(1e3 * float(proc.stdout))
    return statistics.median(times)


def git_sha():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment():
    import numpy

    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **{pkg: importlib.metadata.version(pkg) for pkg in ("numpy", "scipy", "click")},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest(),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--first-op", type=int, default=0)
    ap.add_argument("--checks", action="store_true",
                    help="also run the reference checks and record the environment")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = workloads.Context(seed=args.seed, workdir=workdir)
        wl.run(ctx, 0, workloads.WARMUP_N)
        out = {"setup_s": time.monotonic() - args.t0, "rows_per_op": wl.rows_per_op}
        out["ref_samples_s"] = [reference_s()]

        if args.trace:
            tracer = Tracer()
            ops = traced_loop(wl, ctx, args.seconds, tracer)
            untraced, traced = ops[::2], ops[1::2]
            metrics = tracer.layer_stats(len(traced))
            metrics["cli.import_ms"] = import_ms()
            metrics["cli.bytes_out"] = traced[0]["bytes_out"]
            metrics["cli.bytes_in"] = traced[0]["bytes_in"]
            # paired by op, so drift in machine speed between ops cancels
            metrics["trace.overhead_frac"] = statistics.median(
                t["seconds"] / u["seconds"] for u, t in zip(untraced, traced)) - 1.0
            out["metrics"] = metrics
            spans_path = OUT / "results" / f"{wl.name}-seed{args.seed}-spans.json"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            spans_path.write_text(json.dumps(
                {"fields": ["op", "layer", "function", "start", "end", "parent",
                            "rows", "ok"], "spans": tracer.spans}))
        else:
            ops = timed_loop(wl, ctx, args.first_op, args.seconds, out["ref_samples_s"])
        out["ops"] = ops
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.checks:
            out["checks"] = [{"name": n, "passed": ok, "detail": d}
                             for n, ok, d in workloads.reference_checks(args.seed, workdir)]
            out["environment"] = environment()
        print(json.dumps(out))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
