"""coskew benchmark: closed-loop workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

``--workload`` is one of the workloads in BENCHMARK.json, or ``all`` to run
each in turn.  With ``--trace 0`` the last line of stdout is a JSON object
with the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics from the traced run instead.  Lines before it are a readable
summary.  Each run also writes ``.perfbench/results/`` (environment, the
sha256 of every op's primary output, reference checks and, traced, the
spans) inside the checkout.

This parent process imports only the standard library.  It starts every
workload process with the same environment: ``src`` on PYTHONPATH, since
the package need not be installed, and one BLAS thread, so the thread
count is the same on every machine and commit and never exceeds nproc.
An untraced run splits ``--seconds`` over SETUP_REPEATS workload processes
started one after another, so set-up is timed SETUP_REPEATS times across
the run; ``setup_s`` is the median, each sample timed from the process's
start to the moment it is ready for its first op.

The host's speed drifts by tens of percent over seconds to minutes, so raw
wall-clock times of two runs disagree by more than any useful bound.  Each
workload process therefore also times a fixed reference kernel (see
worker.py) after set-up and after every op, and ``setup_per_ref`` and
``op_per_ref`` divide the mean set-up and op times by the mean reference
time of the run.  The summary prints the raw wall-clock figures too.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 6
BLAS_THREADS = "1"
RUN_LIMIT_S = 170.0


def child(argv, env, timeout):
    """Run a worker in its own process group; return its last stdout line as
    JSON.  On timeout or error the whole group is killed and reaped."""
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"worker exited {proc.returncode}: {' '.join(argv[1:])}")
    return json.loads(out.decode().strip().splitlines()[-1])


def summary(name, args, res, declared):
    env, ops, metrics = res["environment"], res["ops"], res["metrics"]
    lines = [
        f"coskew benchmark  workload={name} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}",
        f"  env: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
        f"scipy={env['scipy']} click={env['click']} blas={env['blas']} "
        f"blas_threads={BLAS_THREADS} git={env['git_sha'] or 'none'} "
        f"src={env['src_sha256'][:12]}",
        f"  ops: {res['attempted']} attempted, {res['failed']} failed, "
        f"{sum(o['near_misses'] for o in ops)} statistics beyond the published "
        "tolerance but within the limit",
    ]
    for o in ops:
        for text in o["problems"]:
            lines.append(f"    op {o['op']}{' traced' if o['traced'] else ''}: {text}")
    notes = {"setup_s": f"median of {len(res['setup_samples_s'])} set-ups",
             "op_per_ref": f"{res['attempted']} ops"}
    rows = [(m["name"], metrics[m["name"]], m["unit"], notes.get(m["name"], ""))
            for m in declared]
    if not args.trace:
        op_p50_s = statistics.median(o["seconds"] for o in ops)
        failed_checks = [c for c in res["checks"] if not c["passed"]]
        rows += [
            ("op_p50_s", op_p50_s, "s", "wall clock, no bound"),
            ("rows_per_s", res["rows_per_op"] / op_p50_s, "1/s", "wall clock, no bound"),
            ("ref_mean_s", res["ref_mean_s"], "s",
             f"reference kernel, {len(res['ref_samples_s'])} timings"),
            ("ops_failed_frac", res["failed"] / res["attempted"], "fraction", ""),
            ("checks_failed", len(failed_checks), "count",
             "; ".join(f"{c['name']}: {c['detail']}" for c in failed_checks)),
        ]
    for key, value, unit, note in rows:
        lines.append(f"  {key:<36} {value:>14.6g} {unit:<8} {note}")
    return "\n".join(lines)


def run_workload(name, args, spec, env):
    deadline = time.monotonic() + RUN_LIMIT_S
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", name,
            "--seed", str(args.seed), "--trace", str(args.trace)]
    parts = 1 if args.trace else SETUP_REPEATS
    chunks = []
    for k in range(parts):
        t0 = time.monotonic()
        first_op = sum(len(c["ops"]) for c in chunks)
        chunks.append(child(
            [*argv, "--t0", repr(t0), "--seconds", repr(args.seconds / parts),
             "--first-op", str(first_op), *(["--checks"] if k == parts - 1 else [])],
            env, deadline - t0))
    res = chunks[-1]
    ops = [o for c in chunks for o in c["ops"]]
    failed = sum(bool(o["problems"]) for o in ops)
    res.update(ops=ops, attempted=len(ops), failed=failed, correct=failed == 0,
               setup_samples_s=[c["setup_s"] for c in chunks],
               ref_samples_s=[t for c in chunks for t in c["ref_samples_s"]])
    metrics = res.setdefault("metrics", {})
    if not args.trace:
        setups = res["setup_samples_s"]
        res["ref_mean_s"] = ref = statistics.fmean(res["ref_samples_s"])
        metrics.update(
            setup_s=statistics.median(setups),
            setup_per_ref=statistics.fmean(setups) / ref,
            op_per_ref=statistics.fmean(o["seconds"] for o in ops) / ref,
            peak_rss_mb=max(c["peak_rss_mb"] for c in chunks))
    metrics["ops_ok_frac"] = 1.0 - failed / len(ops)
    metrics["checks_passed"] = sum(c["passed"] for c in res["checks"])

    declared = spec["per_layer" if args.trace else "end_to_end"]
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(res, indent=1))
    print(summary(name, args, res, declared))
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }


def main():
    # a terminated run still kills and reaps its worker (see child)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*names, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "coskew" / "__init__.py").is_file():
        print(f"no coskew sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.update(dict.fromkeys(
        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), BLAS_THREADS))
    for name in names if args.workload == "all" else [args.workload]:
        print(json.dumps(run_workload(name, args, spec, env)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
