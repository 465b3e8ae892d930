"""Outside-in layer tracer for the coskew package.

The tracer never edits the package.  It wraps each layer's public
functions at every name its callers look them up by: the attribute on the
defining module, every ``from``-import of it in another ``coskew`` module
(``copulas`` imports ``substream``, ``uniform_open`` and ``norm_cdf`` that
way), and methods on their class.  Each wrapped call records a span
``(op, layer, function, start, end, parent, rows, ok)`` in memory; the
spans are written out when the run ends.

A layer's *self time* is the time of its spans minus the time of their
direct child spans.  A layer's *calls* and *rows* count only entries into
the layer from outside it, so ``sample`` dispatching to ``sample_mixture``
or ``update`` calling ``merge`` counts once.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np


def _size(a) -> int:
    return int(np.size(a))


def _n_arg(args, kwargs, pos):
    """The sample-size argument of a call, positional or by keyword."""
    if "n" in kwargs:
        return int(kwargs["n"])
    return int(args[pos]) if len(args) > pos else 0


def _cfg_n(args, kwargs):
    cfg = kwargs.get("cfg", args[0] if args else None)
    return int(cfg.n)


def _sampler(name, npos=0):
    return (f"coskew.copulas:{name}", lambda a, k: _n_arg(a, k, npos))


# The layer table.  For each layer: the functions wrapped, as
# "module:qualname" with a function giving the rows one call processes;
# the end-to-end metrics a change in the layer should move; the workloads
# on which the layer does work; and the workloads on which it must do
# none (checked by tests/test_layers.py).
LAYERS = {
    "samples": {
        "wrap": [
            ("coskew.samples:substream", lambda a, k: 0),
            ("coskew.samples:uniform_open", lambda a, k: _n_arg(a, k, 1)),
        ],
        "moves": ["op_per_ref"],
        "on": ["sweep", "verify", "cli"],
        "zero_on": [],
    },
    "copulas": {
        "wrap": [
            _sampler("sample", 1),
            _sampler("sample_comonotonic"),
            _sampler("sample_independence"),
            _sampler("sample_max_coskew"),
            _sampler("sample_min_coskew"),
            _sampler("sample_mixture"),
            _sampler("sample_mixing_sum"),
            _sampler("sample_gaussian"),
            ("coskew.copulas:to_data", lambda a, k: a[0].n),
        ],
        "moves": ["op_per_ref", "peak_rss_mb"],
        "on": ["sweep", "verify", "cli"],
        "zero_on": [],
    },
    "marginals": {
        "wrap": [
            ("coskew.marginals:Marginal.quantile", lambda a, k: _size(a[1])),
            ("coskew.marginals:Marginal.cdf", lambda a, k: _size(a[1])),
            ("coskew.marginals:norm_cdf", lambda a, k: _size(a[0])),
        ],
        "moves": ["op_per_ref"],
        "on": ["sweep", "verify", "cli"],
        "zero_on": [],
    },
    "estimators.moments": {
        "wrap": [
            ("coskew.estimators:MomentAccumulator.update",
             lambda a, k: int(np.shape(a[1])[-1])),
            ("coskew.estimators:MomentAccumulator.merge", lambda a, k: a[1].n),
        ],
        "moves": ["op_per_ref", "peak_rss_mb"],
        "on": ["sweep", "verify", "cli"],
        "zero_on": [],
    },
    "estimators.ranks": {
        "wrap": [
            ("coskew.estimators:rank_transform", lambda a, k: _size(a[0])),
            ("coskew.estimators:spearman_rho", lambda a, k: _size(a[0])),
            ("coskew.estimators:rank_coskewness", lambda a, k: _size(a[0])),
        ],
        "moves": ["op_per_ref"],
        "on": ["verify", "cli"],
        "zero_on": ["sweep"],
    },
    "estimators.events": {
        "wrap": [
            ("coskew.estimators:build_event_mask", lambda a, k: a[0].n),
            ("coskew.estimators:conditional_corr", lambda a, k: _size(a[0])),
        ],
        "moves": ["op_per_ref"],
        "on": ["sweep", "cli"],
        "zero_on": ["verify"],
    },
    "analytic": {
        "wrap": [
            ("coskew.analytic:coskew_bound", lambda a, k: 0),
            ("coskew.analytic:mixture_prediction", lambda a, k: 0),
            ("coskew.analytic:rank_coskew_gaussian", lambda a, k: 0),
        ],
        "moves": ["op_per_ref", "checks_passed"],
        "on": ["sweep", "verify"],
        "zero_on": ["cli"],
    },
    "experiments": {
        "wrap": [
            ("coskew.experiments:run_figure1", _cfg_n),
            ("coskew.experiments:run_figure2", _cfg_n),
            ("coskew.experiments:run_algorithm1", _cfg_n),
            ("coskew.experiments:run_example1", lambda a, k: _n_arg(a, k, 0)),
            ("coskew.experiments:verify_propositions",
             lambda a, k: _n_arg(a, k, 0)),
        ],
        "moves": ["op_per_ref"],
        "on": ["sweep", "verify"],
        "zero_on": ["cli"],
    },
    # no function is wrapped: the benchmark opens a "cli" span around each
    # coskew.cli.main call it makes (workloads.run_cli)
    "cli": {
        "wrap": [],
        "moves": ["op_per_ref", "setup_s", "setup_per_ref"],
        "on": ["sweep", "cli"],
        "zero_on": ["verify"],
    },
}

# Counted, not spanned: quadrature evaluates these thousands of times per
# bound, so a span each would distort the trace.
COUNTED = {
    "analytic.quantile_evals": [
        "coskew.marginals:Marginal.abs_std_quantile",
        "coskew.marginals:Marginal.abs_std_tail_quantile",
    ],
}

def _resolve(path: str):
    """(owner, attribute, original) for "module:qualname"."""
    mod_name, _, qual = path.partition(":")
    owner = importlib.import_module(mod_name)
    *outer, attr = qual.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


class Tracer:
    """Wraps the layer table's functions while installed and keeps spans.

    Span tuple: (op, layer, function, start, end, parent index, rows, ok).
    """

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack = [-1]
        self._patches: list = []

    # -- patching ------------------------------------------------------------

    def install(self):
        for layer, spec in LAYERS.items():
            for path, rows in spec["wrap"]:
                name = path.partition(":")[2]
                self._patch(path, functools.partial(self._spanned, layer, name, rows))
        for counter, paths in COUNTED.items():
            for path in paths:
                self._patch(path, functools.partial(self._counted, counter))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, path, make_wrapper):
        owner, attr, original = _resolve(path)
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            sites = [(owner, attr)]
        else:
            # every name the function is bound to across the package
            sites = [
                (mod, name)
                for mod_name, mod in list(sys.modules.items())
                if mod_name == "coskew" or mod_name.startswith("coskew.")
                for name, value in list(vars(mod).items())
                if value is original
            ]
        for site, name in sites:
            self._patches.append((site, name, original))
            setattr(site, name, wrapper)

    def _spanned(self, layer, name, rows, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(layer, name, rows(args, kwargs)):
                return fn(*args, **kwargs)

        return wrapper

    def _counted(self, counter, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, layer: str, name: str, rows: int = 0):
        """Record the enclosed block as one span, child of the innermost open one."""
        sid = len(self.spans)
        parent = self._stack[-1]
        self.spans.append(None)
        self._stack.append(sid)
        ok = False
        t0 = time.perf_counter()
        try:
            yield
            ok = True
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (self.op, layer, name, t0, t1, parent, rows, ok)

    def layer_stats(self, ops: int) -> dict:
        """Per-op layer metrics over all recorded spans.

        Op root spans (layer "op") give the wall time that ``share`` divides by.
        """
        child_time = [0.0] * len(self.spans)
        for op, layer, name, t0, t1, parent, rows, ok in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        tot = {L: Counter() for L in LAYERS}
        op_wall = 0.0
        for sid, (op, layer, name, t0, t1, parent, rows, ok) in enumerate(self.spans):
            if layer == "op":
                op_wall += t1 - t0
                continue
            t = tot[layer]
            t["self_s"] += (t1 - t0) - child_time[sid]
            if parent < 0 or self.spans[parent][1] != layer:
                t["calls"] += 1
                t["rows"] += rows
                t["failed"] += not ok
        out = {}
        for layer, t in tot.items():
            self_ms = 1e3 * t["self_s"] / ops
            rows = t["rows"] / ops
            out[f"{layer}.calls"] = t["calls"] / ops
            out[f"{layer}.rows"] = rows
            out[f"{layer}.self_ms"] = self_ms
            out[f"{layer}.share"] = t["self_s"] / op_wall if op_wall else 0.0
            out[f"{layer}.ms_per_1e5_rows"] = self_ms * 1e5 / rows if rows else 0.0
            out[f"{layer}.failed"] = t["failed"]
        for counter in COUNTED:
            out[counter] = self.counts[counter] / ops
        return out
