"""Per-layer spans around calls into weierlab, installed from the benchmark.

For one traced repetition every layer function below is replaced on each
module attribute its callers look up.  ``measure`` binds ``eval_w_vec`` at
import, so patching ``weier.eval_w_vec`` alone would catch nothing; the
targets are the names as the callers see them.  Spans (layer, start, end,
parent) are kept in memory and reduced to per-layer statistics after the
repetition, and the library's functions are restored before the next one.
"""

from __future__ import annotations

import functools
import inspect
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

from weierlab import funcspace, measure, weier
from weierlab import phi as phimod

ROOT = "rep"  # the span of the whole repetition; its self time is the untraced remainder


def _size_of(arg: str):
    return lambda args, result: int(np.size(args[arg]))


def _w_terms(args) -> int:
    return weier.term_count(args["params"].lam, phimod.sup_deriv(args["phi"], 0), args["tol"]) + 1


def _gamma_terms(args) -> int:
    return weier.term_count(args["params"].gamma, phimod.sup_deriv(args["phi"], 1), args["tol"])


@dataclass(frozen=True)
class Layer:
    name: str
    targets: tuple  # (module, attribute) pairs that callers look the function up by
    items: Callable | None = None  # (bound arguments, result) -> items; None counts 1 per call
    terms: Callable | None = None  # bound arguments -> series terms per item


LAYERS = (
    Layer("phi.eval_phi", ((phimod, "eval_phi"),), _size_of("x")),
    Layer("phi.phi_diff_vec", ((phimod, "phi_diff_vec"),), _size_of("h")),
    Layer("phi.phi_diff_offsets", ((phimod, "phi_diff_offsets"),), _size_of("o")),
    Layer("weier.eval_w_vec", ((measure, "eval_w_vec"), (funcspace, "eval_w_vec")),
          _size_of("xs"), _w_terms),
    Layer("kernel.eval_gamma_vec", ((measure, "eval_gamma_vec"), (funcspace, "eval_gamma_vec")),
          _size_of("xs"), _gamma_terms),
    Layer("funcspace.gamma_at_many_words", ((funcspace, "gamma_at_many_words"),),
          _size_of("idx"), _gamma_terms),
    Layer("funcspace.build_theta", ((funcspace, "build_theta"),),
          lambda args, result: len(result)),
    Layer("funcspace.theta_cell_labels", ((funcspace, "theta_cell_labels"),),
          lambda args, result: len(args["theta"])),
    Layer("funcspace.theta_entropy", ((funcspace, "theta_entropy"),),
          lambda args, result: result.n_atoms),
    Layer("funcspace.separation_constant_c", ((funcspace, "separation_constant_c"),),
          lambda args, result: sum(args["params"].b ** n for n in range(1, args["n_max"] + 1))),
    Layer("measure.stratified_x", ((measure, "stratified_x"),),
          lambda args, result: len(result)),
    Layer("measure.histogram_from_values", ((measure, "histogram_from_values"),),
          _size_of("values")),
    Layer("measure.coarsen", ((measure, "coarsen"),), lambda args, result: args["hist"].n_cells),
    Layer("measure.entropy", ((measure, "entropy"),), lambda args, result: args["hist"].n_cells),
    Layer("measure.alpha_estimate", ((measure, "alpha_estimate"),),
          lambda args, result: result.meta["n_samples"] * len(args["codes"])),
    Layer("measure.graph_box_dimension", ((measure, "graph_box_dimension"),),
          lambda args, result: result.n_samples),
    Layer("measure.n_hat", ((measure, "n_hat"), (funcspace, "n_hat"))),
    Layer("funcspace.q_height", ((funcspace, "q_height"),)),
)

STATS = ("calls", "items", "busy_s", "self_s")
KERNEL_STATS = STATS + ("ns_per_item_term",)


class Tracer:
    """Spans of one repetition: [layer, start, end, parent, items, item_terms, nested]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        nested = any(self.spans[i][0] == name for i in self._stack)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 1, 0, nested]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def _wrap(self, layer: Layer, fn):
        sig = inspect.signature(fn) if layer.items else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(layer.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = layer.items(bound.arguments, result)
                if layer.terms is not None:
                    span[5] = span[4] * layer.terms(bound.arguments)
            return result

        return traced

    @contextmanager
    def _installed(self):
        saved = []
        try:
            for layer in LAYERS:
                for module, attr in layer.targets:
                    fn = getattr(module, attr)
                    saved.append((module, attr, fn))
                    setattr(module, attr, self._wrap(layer, fn))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def run(self, body):
        """Run ``body`` once under the wrappers; return its result and the wall time."""
        self.spans.clear()
        with self._installed():
            root = self._open(ROOT)
            try:
                result = body()
            finally:
                self._close(root)
        return result, root[2] - root[1]

    def layer_stats(self) -> dict[str, dict]:
        """calls, items, busy and self time per layer; the root's self time is the remainder.

        Self time is a span's duration minus that of its direct children;
        busy time counts only spans with no enclosing span of the same layer.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        stats = {name: {"calls": 0, "items": 0, "item_terms": 0, "busy_s": 0.0, "self_s": 0.0}
                 for name in [layer.name for layer in LAYERS] + [ROOT]}
        for i, (name, t0, t1, _, items, item_terms, nested) in enumerate(self.spans):
            st = stats[name]
            st["calls"] += 1
            st["items"] += items
            st["item_terms"] += item_terms
            st["self_s"] += (t1 - t0) - child[i]
            if not nested:
                st["busy_s"] += t1 - t0
        return stats


def per_layer_metrics(stats: dict[str, dict]) -> dict[str, tuple[float, str]]:
    """Flatten layer statistics to ``<layer>.<stat>`` -> (value, unit)."""
    units = {"calls": "count", "items": "count", "busy_s": "s", "self_s": "s",
             "ns_per_item_term": "ns"}
    out = {}
    for layer in LAYERS:
        st = stats[layer.name]
        names = KERNEL_STATS if layer.terms is not None else STATS
        for stat in names:
            if stat == "ns_per_item_term":
                value = st["busy_s"] * 1e9 / st["item_terms"] if st["item_terms"] else 0.0
            else:
                value = st[stat]
            out[f"{layer.name}.{stat}"] = (value, units[stat])
    return out
