"""Seeded sample containers and deterministic substream derivation.

Every sampler in the package draws from PCG64 generators keyed by
``(seed, stream, offset)`` through :func:`substream`.  Fixed offsets per
role (0 for U, 1 for V, 2 for the Bernoulli mixer) mean that changing a
mixture parameter never perturbs the underlying uniform draws, which keeps
parameter sweeps pathwise comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SeedSpec",
    "USample",
    "TriSample",
    "U_MIN",
    "substream",
    "uniform_open",
]

_U53 = 1 << 53  # uniform resolution; k/2^53 with k in [1, 2^53) stays inside (0, 1)
# the grid's smallest value; U_MIN and 1 - U_MIN are both exact, so clamping
# to [U_MIN, 1 - U_MIN] moves no value uniform_open can draw
U_MIN = 1.0 / _U53


@dataclass(frozen=True)
class SeedSpec:
    """Reproducibility key: same (seed, stream) always replays the same draws."""

    seed: int = 0
    stream: int = 0

    def __post_init__(self):
        for name in ("seed", "stream"):
            v = getattr(self, name)
            if not (0 <= int(v) < 2**64):
                raise ValueError(f"{name} must be a 64-bit unsigned integer, got {v!r}")


def substream(seed: SeedSpec, offset: int) -> np.random.Generator:
    """Independent generator for one role of one sampler call.

    Derivation goes through ``SeedSequence([seed, stream, offset])`` so
    distinct offsets (and distinct streams) give statistically independent,
    bit-reproducible PCG64 states.
    """
    ss = np.random.SeedSequence([int(seed.seed), int(seed.stream), int(offset)])
    return np.random.Generator(np.random.PCG64(ss))


def uniform_open(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniforms strictly inside (0, 1).

    Raw 53-bit integers from [1, 2^53) divided by 2^53: the division is exact
    and the values run from U_MIN to 1 - U_MIN, so the endpoints 0.0 and 1.0
    are unreachable and downstream quantile transforms never see them.
    """
    k = rng.integers(1, _U53, size=n, dtype=np.int64)
    return k / _U53


def _three_rows(a) -> np.ndarray:
    """a as a C-contiguous float (3, n) array: both containers' shape rule."""
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    if a.ndim != 2 or a.shape[0] != 3:
        raise ValueError(f"expected a (3, n) array, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class USample:
    """n x 3 table of copula realizations with uniform margins.

    Columns are stored as the rows of a C-contiguous (3, n) array so each
    margin is a contiguous block for streaming estimation.
    """

    u: np.ndarray  # shape (3, n)
    seed: SeedSpec = field(default_factory=SeedSpec)

    def __post_init__(self):
        u = _three_rows(self.u)
        if u.size and not (u.min() >= 0.0 and u.max() <= 1.0):  # a nan fails too
            raise ValueError("copula realizations must lie in [0, 1]")
        object.__setattr__(self, "u", u)

    @property
    def n(self) -> int:
        return self.u.shape[1]


@dataclass(frozen=True)
class TriSample:
    """n x 3 table of realizations in data space, carrying its generating seed.

    Stored like :class:`USample`, as a C-contiguous (3, n) array.  The shape
    is this container's rule, checked when it is built, so the estimators
    that read a TriSample (``build_event_mask``) check none.
    """

    x: np.ndarray  # shape (3, n)
    seed: SeedSpec = field(default_factory=SeedSpec)

    def __post_init__(self):
        object.__setattr__(self, "x", _three_rows(self.x))

    @property
    def n(self) -> int:
        return self.x.shape[1]
