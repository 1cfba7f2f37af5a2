"""Per-layer tracing that leaves the library untouched.

``installed(socle, tracer)`` rebinds the names through which each layer is
looked up (module globals such as ``socle.derham.rank_of_columns``, package
exports the benchmark calls, and methods on the value classes) to timing
wrappers, and restores the originals on exit.

Layers are named by module.  A layer's self time is its call's duration minus
the time its traced callees took.  Cold layers record one span per call
(name, start, end, parent span, op id); hot methods, called up to ~200k times
per op, are aggregated into one record per op instead.  Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional

HOT = ("poly.mul", "series.mul", "series.invert", "weyl.mul")


def layer_sites(socle):
    """(layer, owner, attribute) for every name a traced layer is looked up by."""
    derham, weyl = socle.derham, socle.weyl
    return [
        ("derham.truncated", socle, "derham_truncated"),
        ("derham.closed_form", socle, "derham_closed_form"),
        ("derham.jacobian", derham, "jacobian_ring_is_finite"),
        ("derham.assemble", derham, "assemble_complex"),
        ("linalg.rank", derham, "rank_of_columns"),
        ("structure.predict", socle, "predict"),
        ("grammar.parse", socle, "parse_operator"),
        ("seriesdecomp.decompose", socle, "decompose"),
        ("seriesdecomp.analyze", socle.seriesdecomp, "analyze_operator"),
        ("seriesdecomp.reconstruction", socle.Decomposition, "reconstruction"),
        ("weyl.adjoint", socle, "formal_adjoint"),
        ("weyl.adjoint", weyl, "formal_adjoint"),
        ("weyl.euler_identity", socle, "check_euler_identity"),
        ("weyl.act_on_poly", socle.WeylOp, "act_on_poly"),
        ("weyl.mul", socle.WeylOp, "__mul__"),
        ("series.mul", socle.TruncatedSeries, "__mul__"),
        ("series.mul", socle.TruncatedSeries, "__rmul__"),
        ("series.invert", socle.TruncatedSeries, "invert"),
        ("poly.mul", socle.MultiPoly, "__mul__"),
        ("poly.mul", socle.MultiPoly, "__rmul__"),
    ]


def _spec_key(spec):
    """Identity of an assembled module, built without calling traced code."""
    f = getattr(spec, "f", None)
    if f is not None:
        return ("hypersurface", spec.quotient_mod_A, f.n_vars, tuple(sorted(f.terms.items())))
    return (type(spec).__name__, spec.n_vars, tuple(sorted(getattr(spec, "inverted", ()))))


class Tracer:
    """Spans, per-layer calls and self time, and the exact per-layer counts."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()  # exact work counts, e.g. linalg.rank.cols
        self.maxima: Counter = Counter()  # e.g. linalg.rank.max_bits
        self.spans: List[tuple] = []  # (id, name, start, end, parent id, op id)
        self.aggregates: List[dict] = []  # hot layers, one record per op and layer
        self._stack: List[list] = []  # [span id, time in traced callees]
        self._op: Optional[int] = None
        self._op_hot: Dict[str, list] = defaultdict(lambda: [0, 0.0])
        self._assembled: set = set()
        self._next_id = 0

    # ------------------------------------------------------------------ ops

    def run_op(self, op_id: int, fn):
        """Run one op as the root span ``op``; hot layers are flushed per op."""
        self._op = op_id
        self._assembled = set()
        try:
            return self.call("op", fn, (), {})
        finally:
            for name, (calls, self_s) in sorted(self._op_hot.items()):
                self.aggregates.append({"name": name, "op": op_id, "calls": calls, "self_s": self_s})
                self.calls[name] += calls
                self.self_s[name] += self_s
            self._op_hot.clear()
            self._op = None

    # ---------------------------------------------------------------- spans

    def call(self, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            elapsed = end - start
            if parent is not None:
                parent[1] += elapsed
            self.calls[name] += 1
            self.self_s[name] += elapsed - frame[1]
            parent_id = parent[0] if parent is not None else None
            self.spans.append((span_id, name, start, end, parent_id, self._op))

    def hot_call(self, name: str, fn, args, kwargs):
        """A call of a hot layer: counted into the op's aggregate, no span.

        Hot layers call no traced code, so they need no frame of their own;
        their time is only charged to the caller's frame as callee time.
        """
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            if self._stack:
                self._stack[-1][1] += elapsed
            record = self._op_hot[name]
            record[0] += 1
            record[1] += elapsed

    def span_records(self, origin: float) -> List[dict]:
        """Spans sorted by id, times relative to ``origin``."""
        keys = ("id", "name", "start", "end", "parent", "op")
        return [
            dict(zip(keys, (i, n, s - origin, e - origin, p, o)))
            for i, n, s, e, p, o in sorted(self.spans, key=lambda span: span[0])
        ]

    # -------------------------------------------------------------- wrappers

    def wrapper(self, socle, layer: str, original):
        if layer == "linalg.rank":
            eliminate = socle.linalg.eliminate_columns

            def traced(columns):
                cols = list(columns)
                pivots = self.call(layer, eliminate, (cols,), {})
                self._count_rank(cols, pivots)
                return len(pivots)

        elif layer == "derham.assemble":

            def traced(spec, cutoff, tau):
                key = (_spec_key(spec), cutoff, tau)
                if key in self._assembled:
                    self.counts["derham.assemble.repeat"] += 1
                self._assembled.add(key)
                bases, diffs, incls = out = self.call(layer, original, (spec, cutoff, tau), {})
                self.counts["derham.assemble.basis"] += sum(len(b) for b in bases)
                self.counts["derham.assemble.nnz"] += sum(
                    len(m.entries) for m in (*diffs, *(incls or ()))
                )
                return out

        elif layer == "seriesdecomp.decompose":

            def traced(*args, **kwargs):
                dec = self.call(layer, original, args, kwargs)
                self.counts["seriesdecomp.decompose.sweeps"] += len(dec.sweep_valuations)
                return dec

        elif layer in HOT:

            def traced(*args, **kwargs):
                return self.hot_call(layer, original, args, kwargs)

        else:

            def traced(*args, **kwargs):
                return self.call(layer, original, args, kwargs)

        return functools.wraps(original)(traced)

    def _count_rank(self, cols, pivots) -> None:
        c = self.counts
        c["linalg.rank.cols"] += len(cols)
        c["linalg.rank.rank"] += len(pivots)
        c["linalg.rank.nnz_in"] += sum(len(col) for col in cols)
        c["linalg.rank.nnz_out"] += sum(len(v) for v in pivots.values())
        bits = max(
            (x.numerator.bit_length() + x.denominator.bit_length()
             for v in pivots.values() for x in v.values()),
            default=0,
        )
        self.maxima["linalg.rank.max_bits"] = max(self.maxima["linalg.rank.max_bits"], bits)
        self.maxima["linalg.rank.max_cols"] = max(self.maxima["linalg.rank.max_cols"], len(cols))


@contextmanager
def installed(socle, tracer: Tracer):
    """Rebind every layer site to a tracing wrapper; restore them on exit."""
    saved = []
    try:
        for layer, owner, attr in layer_sites(socle):
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrapper(socle, layer, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, passes: int, time_scale: float = 1.0) -> Dict[str, tuple]:
    """Per-layer metrics per pass of the op list, as {name: (value, unit)};
    self times are multiplied by ``time_scale``."""

    def per_pass(total: int):
        value = total / passes
        return int(value) if value.is_integer() else value

    calls, self_s, counts, maxima = tracer.calls, tracer.self_s, tracer.counts, tracer.maxima
    out: Dict[str, tuple] = {}

    def add_calls(layer):
        out[f"{layer}.calls"] = (per_pass(calls[layer]), "count")

    def add_self(layer):
        out[f"{layer}.self_s"] = (self_s[layer] * time_scale / passes, "s")

    def ratio(num, den):
        return num / den if den else 0.0

    add_calls("linalg.rank")
    add_self("linalg.rank")
    for key in ("cols", "nnz_in", "nnz_out"):
        out[f"linalg.rank.{key}"] = (per_pass(counts[f"linalg.rank.{key}"]), "count")
    out["linalg.rank.fill"] = (ratio(counts["linalg.rank.nnz_out"], counts["linalg.rank.nnz_in"]), "ratio")
    out["linalg.rank.useful"] = (ratio(counts["linalg.rank.rank"], counts["linalg.rank.cols"]), "ratio")
    out["linalg.rank.max_bits"] = (maxima["linalg.rank.max_bits"], "bits")
    out["linalg.rank.max_cols"] = (maxima["linalg.rank.max_cols"], "count")

    add_calls("derham.assemble")
    add_self("derham.assemble")
    out["derham.assemble.basis"] = (per_pass(counts["derham.assemble.basis"]), "count")
    out["derham.assemble.nnz"] = (per_pass(counts["derham.assemble.nnz"]), "count")
    out["derham.assemble.repeat"] = (
        ratio(counts["derham.assemble.repeat"], calls["derham.assemble"]),
        "ratio",
    )
    for layer in ("derham.truncated", "derham.jacobian", "derham.closed_form"):
        add_self(layer)

    for layer in ("poly.mul", "series.mul", "series.invert", "weyl.mul",
                  "seriesdecomp.decompose", "grammar.parse", "structure.predict"):
        add_calls(layer)
        add_self(layer)
    out["seriesdecomp.decompose.sweeps"] = (per_pass(counts["seriesdecomp.decompose.sweeps"]), "count")
    for layer in ("seriesdecomp.analyze", "seriesdecomp.reconstruction",
                  "weyl.act_on_poly", "weyl.adjoint", "weyl.euler_identity"):
        add_self(layer)
    return out
