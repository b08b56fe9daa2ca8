"""Layer spans for the traced run, recorded from outside the library.

The tracer swaps each name an impactdesk module imports from the layer
below, and each entry point the benchmark calls, for a wrapper that
records one span per call: the boundary it crossed, its parent span,
start and end times, and a work count (rows, elements, ...).  Spans are
kept in flat arrays in memory and written out once, at exit.  A
boundary whose name no longer exists is reported as missing instead of
being wrapped.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import statistics
import time
from array import array
from contextlib import contextmanager

import numpy as np


def _rows_nodes(args, out):
    rule, t = args[2], args[3]
    return out["value"].size * (rule.n if t < 1.0 else 1)   # t = 1: one node


def _rows(args, out):
    return np.atleast_2d(args[5]).shape[0]


def _points(args, out):
    return np.size(args[2])


def _elements(args, out):
    return np.size(args[1])


# (module, name in that module, layer kind, work count from (args, result));
# self time is summed per kind, so a kind names the layer that does the work
BOUNDARIES = (
    ("utility", "_build_tables", "utility.table_build", None),
    ("sde", "initial_state", "sde.entry", None),
    ("sde", "run_ensemble", "sde.entry", None),
    ("sde", "strong_error_study", "sde.entry", None),
    ("sde", "_run_chunk", "sde.entry", None),
    ("sde", "brownian_increments", "sde.noise", None),
    ("sde", "field_core", "fields.field_core", _rows_nodes),
    ("sde", "_conjugate_batch", "fields.conjugate", _rows),
    ("fields", "eval_sde_coefficient", "fields.entry", None),
    ("fields", "field_core", "fields.field_core", _rows_nodes),
    ("fields", "_conjugate_batch", "fields.conjugate", _rows),
    ("fields", "sharing_derivatives", "pareto.sharing", _points),
    ("pareto", "inverse_log_marginal", "utility.inverse", _elements),
    ("pareto", "utility_value", "utility.value", None),
    ("pareto", "risk_aversion", "utility.aversion", None),
    ("conditions", "check_all_regimes", "conditions.entry", None),
    ("conditions", "eval_functionals", "conditions.entry", None),
    ("conditions", "field_core", "fields.field_core", _rows_nodes),
    ("conditions", "_conjugate_batch", "fields.conjugate", _rows),
    ("conditions", "check_smoothness", "utility.smoothness", None),
    ("conditions", "check_integrability", "market.integrability", None),
)
SITES = tuple(f"{mod}.{name}" for mod, name, _, _ in BOUNDARIES)
_KINDS = np.array([kind for _, _, kind, _ in BOUNDARIES], dtype=object)


class Tracer:
    """Wraps the boundaries of impactdesk's modules and records spans."""

    def __init__(self):
        self.site = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.segments = []            # (label, first span, end span)
        self.missing = []
        self._stack = [-1]
        self._saved = []

    def install(self):
        for code, (mod, name, _, work) in enumerate(BOUNDARIES):
            module = importlib.import_module(f"impactdesk.{mod}")
            fn = getattr(module, name, None)
            if fn is None:
                if SITES[code] not in self.missing:
                    self.missing.append(SITES[code])
                continue
            self._saved.append((module, name, fn))
            setattr(module, name, self._wrap(fn, code, work))

    def uninstall(self):
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def _wrap(self, fn, code, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.site)
            self.site.append(code)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self.work.append(0.0)
            self._stack.append(i)
            self.start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[i] = time.perf_counter()
                self._stack.pop()
            if work is not None:
                try:
                    self.work[i] = work(args, out)
                except (IndexError, KeyError, TypeError, AttributeError):
                    self.work[i] = float("nan")   # signature has changed
            return out
        return traced

    @contextmanager
    def segment(self, label: str):
        """Label the spans recorded inside the block."""
        first = len(self.site)
        try:
            yield
        finally:
            self.segments.append((label, first, len(self.site)))

    def arrays(self, first: int, stop: int) -> dict:
        """One segment's spans as numpy arrays, parents re-based to it."""
        parent = np.frombuffer(self.parent, dtype=np.intc)[first:stop]
        return {
            "site": np.frombuffer(self.site, dtype=np.intc)[first:stop],
            "parent": np.where(parent >= first, parent - first, -1),
            "start": np.frombuffer(self.start)[first:stop],
            "end": np.frombuffer(self.end)[first:stop],
            "work": np.frombuffer(self.work)[first:stop],
        }

    def write(self, path: str):
        """Dump every span, one tab-separated line each, gzipped."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for label, first, stop in self.segments:
                fh.write(f"# segment {label} {first} {stop}\n")
            fh.write("# index\tsite\tparent\tstart_s\tend_s\twork\n")
            for i in range(len(self.site)):
                fh.write(f"{i}\t{SITES[self.site[i]]}\t{self.parent[i]}\t"
                         f"{self.start[i]!r}\t{self.end[i]!r}\t"
                         f"{self.work[i]!r}\n")


def self_times(start, end, parent) -> np.ndarray:
    """Span duration minus the time its direct children cover.

    Spans come from one thread and nest, so siblings never overlap and
    the covered time is the sum of the children's durations.
    """
    dur = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    child = parent >= 0
    cover = np.bincount(parent[child], weights=dur[child],
                        minlength=dur.size)
    return dur - cover


def inside(site, parent, codes) -> np.ndarray:
    """Per span: does some ancestor cross one of the given sites?"""
    marked = np.isin(site, codes).tolist()
    out = [False] * len(marked)
    for i, p in enumerate(np.asarray(parent).tolist()):
        if p >= 0:                    # parents precede their children
            out[i] = out[p] or marked[p]
    return np.array(out, dtype=bool)


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def layer_times(spans: dict) -> dict:
    """Per-layer busy and self seconds of one segment."""
    kind = _KINDS[spans["site"]]
    dur = spans["end"] - spans["start"]
    own = self_times(spans["start"], spans["end"], spans["parent"])
    work = spans["work"]
    inv = kind == "utility.inverse"
    fc = kind == "fields.field_core"
    return {
        "pareto.self_s": float(own[kind == "pareto.sharing"].sum()),
        "utility.inverse_s": float(dur[inv].sum()),
        "utility.inverse_elems_per_s": _ratio(work[inv].sum(),
                                              dur[inv].sum()),
        "fields.field_core_rows_nodes_per_s": _ratio(work[fc].sum(),
                                                     dur[fc].sum()),
        "fields.field_core_self_s": float(own[fc].sum()),
        "sde.self_s": float(own[kind == "sde.entry"].sum()),
        "sde.noise_s": float(dur[kind == "sde.noise"].sum()),
        "utility.table_build_s": float(
            dur[kind == "utility.table_build"].sum()),
        "conditions.certify_self_s": float(
            own[kind == "conditions.entry"].sum()),
    }


def layer_counts(spans: dict, members: int) -> dict:
    """Call counts and work ratios of one segment; exact for given inputs."""
    site, work = spans["site"], spans["work"]
    kind = _KINDS[site]
    conj_codes = np.flatnonzero(_KINDS == "fields.conjugate")
    fc = kind == "fields.field_core"
    in_conj = inside(site, spans["parent"], conj_codes)
    n_sharing = int((kind == "pareto.sharing").sum())
    inv = kind == "utility.inverse"
    cond_conj = site == SITES.index("conditions._conjugate_batch")
    return {
        "pareto.residual_evals_per_call": _ratio(inv.sum(),
                                                 members * n_sharing),
        "pareto.inverse_elems_per_point": _ratio(
            work[inv].sum(),
            members * work[kind == "pareto.sharing"].sum()),
        "fields.field_core_calls": int(fc.sum()),
        "fields.conjugate_evals_per_call": _ratio(
            (fc & in_conj).sum(), (kind == "fields.conjugate").sum()),
        "fields.reeval_share": _ratio((fc & ~in_conj).sum(), fc.sum()),
        "conditions.single_row_solves": int((cond_conj & (work == 1)).sum()),
    }


def layer_metrics(tracer: Tracer, members: int) -> dict:
    """name -> (value, unit, samples) over the tracer's labelled segments.

    Set-up and pass times are medians over the set-ups and the traced
    passes; counts come from pass 0, whose inputs a seed fixes.
    """
    def times(prefix):
        return [layer_times(tracer.arrays(first, stop))
                for label, first, stop in tracer.segments
                if label.startswith(prefix)]

    setups, passes = times("setup-"), times("pass-")
    out = {}
    for name in passes[0]:
        runs = setups if name == "utility.table_build_s" else passes
        unit = "1/s" if name.endswith("_per_s") else "s"
        out[name] = (statistics.median(t[name] for t in runs), unit,
                     len(runs))
    first, stop = next((first, stop) for label, first, stop
                       in tracer.segments if label == "pass-0")
    for name, value in layer_counts(tracer.arrays(first, stop),
                                    members).items():
        out[name] = (value, "share" if name.endswith("share") else "count",
                     1)
    return out
