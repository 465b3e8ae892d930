"""Self-test of the benchmark's tracer and layer table.

Runs one small traced op of every workload and checks that each layer does
work on the workloads the table names and none where it predicts zero,
that tracing leaves the output bytes unchanged, and that uninstalling the
tracer restores every wrapped name.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import coskew.cli  # noqa: E402  (every module loaded before patching)
import tracer  # noqa: E402
import workloads  # noqa: E402

N = 2_000
WORKDIR = BENCH.parent / ".perfbench" / "selftest"


def _op(name, traced):
    """Outcome and, if traced, per-layer stats of op 0 of a workload at n=N."""
    wl = workloads.WORKLOADS[name]
    workdir = WORKDIR / name
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(seed=1, workdir=workdir)
    if not traced:
        return wl.check(wl.run(ctx, 0, N)), None
    t = tracer.Tracer()
    t.install()
    t.op, ctx.tracer = 0, t
    try:
        with t.span("op", name):
            out = wl.run(ctx, 0, N)
    finally:
        t.uninstall()
    return wl.check(out), t.layer_stats(1)


@pytest.fixture(scope="module")
def runs():
    try:
        yield {name: (_op(name, False)[0], *_op(name, True))
               for name in workloads.WORKLOADS}
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)


@pytest.mark.parametrize("layer", list(tracer.LAYERS))
def test_layer_calls_match_table(runs, layer):
    spec = tracer.LAYERS[layer]
    for name in spec["on"]:
        assert runs[name][2][f"{layer}.calls"] > 0, (layer, name)
    for name in spec["zero_on"]:
        assert runs[name][2][f"{layer}.calls"] == 0, (layer, name)


def test_layer_table_matches_benchmark_json(runs):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for layer, entry in tracer.LAYERS.items():
        assert set(entry["moves"]) <= end_to_end, layer
    assert set(runs["sweep"][2]) <= {m["name"] for m in spec["per_layer"]}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tracing_keeps_output_bytes(runs, name):
    untraced, traced, _ = runs[name]
    assert untraced.primary and traced.digest == untraced.digest


def _bindings():
    owners = [m for n, m in sys.modules.items() if n == "coskew" or n.startswith("coskew.")]
    owners += [coskew.marginals.Marginal, coskew.estimators.MomentAccumulator]
    return [(owner, {k: id(v) for k, v in vars(owner).items()}) for owner in owners]


def test_install_wraps_every_binding_and_uninstall_restores_them():
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        # from-imports in copulas, a module function, a method on its class
        for fn in (coskew.copulas.substream, coskew.copulas.norm_cdf,
                   coskew.experiments.copulas.to_data, coskew.marginals.Marginal.quantile):
            assert hasattr(fn, "__wrapped__"), fn
    finally:
        t.uninstall()
    assert all({k: id(v) for k, v in vars(owner).items()} == ids for owner, ids in before)
