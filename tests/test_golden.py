"""Golden outputs: figure1, figure2, verify and a `coskew sample` CSV.

The reference file pins the primary output of the experiment drivers and
the sample writer at n = 2000, seed 7, so a refactor can show that it keeps
the statistics.  Floats compare within 1e-12 absolute and everything else
(keys, strings, flags, the CSV header) compares exactly.  It also pins the
bytes of verify's records and example1's CSV, and of `coskew figure2
--deterministic --format json` for three events, margins and grids, on
streams 0-4 at n = 20000, seed 7, as sha256 digests.

Two of those figure2 runs take Laplace and exp margins through numpy's
`log`, `log1p` and `exp`, whose loops round differently at each x86
dispatch level, so their digests are pinned per level (numpy's top level
in `__cpu_features__`): `figure2_sha256` holds X86_V4's, and
`figure2_sha256_<level>` another level's.  On a level with no pins they
skip, naming the level; every other key is checked at every level.  The
X86_V3 pins come from the same regeneration under
`NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"`.

Regenerate the reference (only when an output change is intended and stated):

    PYTHONPATH=src python tests/test_golden.py

which rewrites tests/data/golden.json in place.  A stored key whose value
still passes the comparison keeps its bytes; only keys that fail it, and
new keys, take the current output.  So a float that drifted inside the
tolerance is not rewritten, and with no output change the file stays
byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
from pathlib import Path

import pytest
from click.testing import CliRunner
from numpy._core._multiarray_umath import __cpu_features__

from coskew.cli import main
from coskew.estimators import parse_event
from coskew.experiments import (
    ExperimentConfig,
    run_example1,
    run_figure1,
    run_figure2,
    verify_propositions,
)
from coskew.marginals import parse_marginal
from coskew.samples import SeedSpec

GOLDEN = Path(__file__).parent / "data" / "golden.json"
ATOL = 1e-12
N, SEED = 2000, SeedSpec(7, 0)
SAMPLE_ARGS = ["sample", "--copula", "mixture:0.75", "--marginals",
               "t:5,laplace,exp:2", "--n", "200", "--seed", "7"]


def _verify_digest(stream: int) -> str:
    """sha256 of verify's records, serialized as the benchmark does, followed
    by example1's CSV."""
    seed = SeedSpec(7, stream)
    text = json.dumps(verify_propositions(20_000, seed), sort_keys=True)
    return hashlib.sha256((text + run_example1(20_000, seed).to_csv()).encode()).hexdigest()


# figure2's digested runs: the downside event on normal margins and, on a
# 1001-point grid, on mixed ones, and an exceedance
FIGURE2_DIGESTS = {
    "downside": [],
    "downside_mixed_g1001": [
        "--marginals", "t:5,laplace,exp:2",
        "--lambda-grid", ",".join(str(k / 1000) for k in range(1001))],
    "exceed_upper": ["--marginals", "laplace,normal,exp:2", "--event", "exceed-upper:0.9"],
}
# the runs whose bytes follow numpy's dispatch level
LEVEL_BOUND = ("downside_mixed_g1001", "exceed_upper")


def dispatch_level() -> str:
    """numpy's top x86 dispatch level, "X86_V4" to "X86_V2", or the machine
    name on a CPU with none of them."""
    levels = [lvl for lvl in ("X86_V4", "X86_V3", "X86_V2") if __cpu_features__.get(lvl)]
    return levels[0] if levels else platform.machine()


def level_key(level: str) -> str:
    """The golden key of a dispatch level's LEVEL_BOUND digests."""
    return "figure2_sha256" if level == "X86_V4" else f"figure2_sha256_{level}"


def _figure2_digest(args, stream: int) -> str:
    """sha256 of `coskew figure2 --deterministic --format json` with args."""
    res = CliRunner().invoke(main, ["figure2", "--n", "20000", "--seed", "7", "--stream",
                                    str(stream), "--deterministic", "--format", "json", *args])
    assert res.exit_code == 0, res.output
    return hashlib.sha256(res.stdout.encode()).hexdigest()


def _cfg(marginals="normal,normal,normal"):
    return ExperimentConfig(
        n=N,
        marginals=tuple(parse_marginal(t) for t in marginals.split(",")),
        seed=SEED,
    )


def current_outputs() -> dict:
    res = CliRunner().invoke(main, SAMPLE_ARGS)
    assert res.exit_code == 0, res.output
    return {
        "figure1": run_figure1(_cfg()).rows,
        "figure2_downside": run_figure2(_cfg(), parse_event("downside")).rows,
        "figure2_exceed_upper": run_figure2(
            _cfg("laplace,normal,exp:2"), parse_event("exceed-upper:0.9")).rows,
        "verify": verify_propositions(N, SEED),
        "sample_csv": res.stdout,
        "verify_example1_sha256": [_verify_digest(stream) for stream in range(5)],
        "figure2_sha256": {key: [_figure2_digest(args, stream) for stream in range(5)]
                           for key, args in FIGURE2_DIGESTS.items()},
    }


def _assert_close(got, want, path="$"):
    if isinstance(want, float):
        assert isinstance(got, float), path
        assert math.isfinite(got) and abs(got - want) <= ATOL, (path, got, want)
    elif isinstance(want, dict):
        assert list(got) == list(want), path
        for k in want:
            _assert_close(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{i}]")
    else:
        assert got == want, (path, got, want)


def _csv_cells(text: str):
    lines = text.splitlines()
    return lines[0], [[float(c) for c in line.split(",")] for line in lines[1:]]


def _assert_key_close(key, got, want):
    if key == "sample_csv":
        _assert_close(_csv_cells(got), _csv_cells(want), key)
    else:
        _assert_close(got, want, key)


def _level_free(outputs: dict) -> dict:
    """outputs without the LEVEL_BOUND digests of any dispatch level."""
    out = {k: v for k, v in outputs.items() if not k.startswith("figure2_sha256_")}
    out["figure2_sha256"] = {run: digests for run, digests in out["figure2_sha256"].items()
                             if run not in LEVEL_BOUND}
    return out


def test_outputs_match_golden_file():
    want = _level_free(json.loads(GOLDEN.read_text()))
    got = _level_free(json.loads(json.dumps(current_outputs())))
    assert list(got) == list(want)
    for key in want:
        _assert_key_close(key, got[key], want[key])


@pytest.mark.parametrize("run", LEVEL_BOUND)
def test_level_bound_digests(run):
    level = dispatch_level()
    pins = json.loads(GOLDEN.read_text()).get(level_key(level))
    if pins is None:
        pytest.skip(f"golden.json pins no {run} digests for numpy dispatch level {level}")
    assert [_figure2_digest(FIGURE2_DIGESTS[run], stream) for stream in range(5)] == pins[run]


def regenerate() -> None:
    """Write the current outputs to GOLDEN, keeping each stored key whose
    value still passes the comparison.  The LEVEL_BOUND digests go to this
    dispatch level's key, and other levels' keys stay as stored."""
    stored = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    out = json.loads(json.dumps(current_outputs()))
    key = level_key(dispatch_level())
    if key != "figure2_sha256":
        out[key] = {run: out["figure2_sha256"].pop(run) for run in LEVEL_BOUND}
        out["figure2_sha256"] = {**stored.get("figure2_sha256", {}), **out["figure2_sha256"]}
    for key in out.keys() & stored.keys():
        try:
            _assert_key_close(key, out[key], stored[key])
        except AssertionError:
            continue
        out[key] = stored[key]
    for key, pins in stored.items():  # other dispatch levels' pins stay
        if key.startswith("figure2_sha256_"):
            out.setdefault(key, pins)
    GOLDEN.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    regenerate()
