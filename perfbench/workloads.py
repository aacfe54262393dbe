"""The four weierlab benchmark workloads.

A workload object is built from the benchmark seed; building it is the
set-up a user pays on every run.  ``run`` is the timed body: one
repetition of the workload's estimates, as a closed loop with no threads.
``check`` holds each operation of a repetition to its acceptance-criterion
gate and is never timed.

Bodies call weierlab only through module attributes (``ms.n_hat``, not a
name bound at import), so the wrappers that the traced run installs see
every call.  The library receives only inputs generated here from the
seed: a sampling seed and code keys.
"""

from __future__ import annotations

import hashlib
import math
import traceback
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from weierlab import funcspace as fs
from weierlab import kernel as kn
from weierlab import measure as ms
from weierlab import phi as phimod
from weierlab import weier as wr

TOL = 1e-9  # evaluation tolerance of every estimate, as in the acceptance criteria


def derived_seed(seed: int) -> int:
    """The one integer handed to the library, as sampling seed and code key."""
    return int(np.random.SeedSequence(seed).generate_state(1)[0])


@dataclass(frozen=True)
class Failure:
    """An operation that raised; it counts as failed, with its traceback as text."""

    error: str


def attempt(fn, *args, **kwargs):
    """Call ``fn``; an exception becomes a Failure in place of the result."""
    try:
        return fn(*args, **kwargs)
    except Exception:  # a raising operation is a failed operation, reported by check()
        return Failure(traceback.format_exc(limit=-2))


def _fail_text(result) -> str:
    return result.error.strip().splitlines()[-1]


def _repr(value) -> str:
    return _fail_text(value) if isinstance(value, Failure) else repr(value)


def _num(result, attr: str):
    return _fail_text(result) if isinstance(result, Failure) else getattr(result, attr)


@dataclass
class Review:
    """The checked outcome of one repetition."""

    ops: list[tuple[str, bool, str]]  # (operation, passed its gate, detail)
    work: int  # work items of one repetition, the numerator of work_per_s
    estimate_err: float  # distance of the headline estimate from its reference
    requested: int = 0  # points requested from graph_box_dimension
    effective: int = 0  # points it evaluated


class GraphDim:
    """Box dimension of the graph from W on arbitrary float points (criterion 1)."""

    name = "graph_dim"
    # b, lam, levels, requested points, criterion-1 reference slope
    CASES = (
        (2, 0.7, range(6, 13), 1_000_000, 1.4854),
        (3, 0.5, range(6, 11), 500_000, 1.3691),
    )
    GATE = 0.05

    def __init__(self, seed: int):
        self.sampling_seed = derived_seed(seed)
        self.phi = phimod.cos_phi()
        self.params = [wr.make_params(b, lam) for b, lam, *_ in self.CASES]
        self.w_params = self.params
        self.inputs = {"sampling_seed": self.sampling_seed}

    def run(self):
        return [
            attempt(ms.graph_box_dimension, p, self.phi, levels, n,
                    seed=self.sampling_seed, tol=TOL)
            for p, (_, _, levels, n, _) in zip(self.params, self.CASES)
        ]

    def estimates(self, reports) -> dict:
        out = {}
        for p, rep in zip(self.params, reports):
            out[f"b{p.b}.slope"] = _num(rep, "slope")
            out[f"b{p.b}.counts"] = _num(rep, "counts")
            out[f"b{p.b}.n_samples"] = _num(rep, "n_samples")
        return out

    def check(self, reports) -> Review:
        ops, err, requested, effective = [], 0.0, 0, 0
        for p, (b, lam, _, n, ref), rep in zip(self.params, self.CASES, reports):
            label = f"box dimension b={b} lam={lam}"
            requested += n
            if isinstance(rep, Failure):
                ops.append((label, False, _fail_text(rep)))
                err = math.nan
                continue
            ok = abs(rep.slope - ref) <= self.GATE and rep.n_samples >= n
            ops.append((label, ok, f"slope {rep.slope:.4f} vs {ref} (gate {self.GATE}), "
                                   f"{rep.n_samples} points for {n} requested"))
            err = max(err, abs(rep.slope - p.dim))
            effective += rep.n_samples
        return Review(ops, effective, err, requested, effective)


class ProjectionAlpha:
    """Entropy dimension of flow projections along seeded codes (criterion 2)."""

    name = "projection_alpha"
    CODES = 16
    LEVELS = range(6, 13)
    POINTS = 1 << 18
    GATE = 0.95  # floor on the median slope (criterion 2)

    def __init__(self, seed: int):
        self.key = derived_seed(seed)
        self.phi = phimod.cos_phi()
        self.params = wr.make_params(2, 0.7)
        self.codes = [kn.seeded_code(2, self.key, i) for i in range(self.CODES)]
        self.w_params = [self.params]
        self.inputs = {"sampling_seed": self.key,
                       "code_keys": [[self.key, i] for i in range(self.CODES)]}

    def run(self):
        return attempt(ms.alpha_estimate, self.params, self.phi, self.codes,
                       self.LEVELS, self.POINTS, seed=self.key, tol=TOL)

    def estimates(self, rep) -> dict:
        return {"alphas": _num(rep, "alphas"), "median": _num(rep, "median"),
                "iqr": _num(rep, "iqr")}

    def check(self, rep) -> Review:
        labels = [f"code {i} slope" for i in range(self.CODES)] + ["median slope"]
        if isinstance(rep, Failure):
            return Review([(lb, False, _fail_text(rep)) for lb in labels], 0, math.nan)
        # a code's curve fails only if it has no finite slope; criterion 2 gates the median
        ops = [(lb, math.isfinite(v), f"{v:.4f}") for lb, v in zip(labels, rep.alphas)]
        ops.append((labels[-1], rep.median >= self.GATE,
                    f"{rep.median:.4f} (gate >= {self.GATE})"))
        work = rep.meta["n_samples"] * self.CODES
        return Review(ops, work, 1.0 - rep.median)


class Theta:
    """Separation constant and theta_n entropies of seeded codes (criterion 7).

    Two codes per repetition: how many atoms collide in the deep partition
    depends on the code, and the mean of two halves that seed-to-seed
    variation in work and time.
    """

    name = "theta"
    CODES = 2
    N_RANGE = range(6, 11)
    M_GRID = 2
    C_N_MAX = 6
    CAP = 1 << 24
    DEEP_RATE = 1.9434
    DEEP_GATE = 0.15  # relative
    SLOPE_GATE = 0.1  # coarse entropy slope against alpha's reference value 1

    def __init__(self, seed: int):
        self.key = derived_seed(seed)
        self.phi = phimod.cos_phi()
        self.params = wr.make_params(2, 0.7)
        self.codes = [kn.seeded_code(2, self.key, i) for i in range(self.CODES)]
        self.w_params = []
        self.inputs = {"code_keys": [[self.key, i] for i in range(self.CODES)]}

    def run(self):
        return [self._one_code(code) for code in self.codes]

    def _one_code(self, code):
        p, phi = self.params, self.phi
        sep = attempt(fs.separation_constant_c, p, phi, code, self.C_N_MAX, self.M_GRID)
        coarse, theta = [], None
        for n in self.N_RANGE:
            theta = attempt(fs.build_theta, p, phi, code, n, cap=self.CAP)
            coarse.append(attempt(fs.theta_entropy, p, phi, code, n, 0, self.M_GRID,
                                  cap=self.CAP, theta=theta))
        n = self.N_RANGE[-1]
        deep = attempt(lambda: fs.theta_entropy(p, phi, code, n, sep.c_value * n,
                                                self.M_GRID, cap=self.CAP, theta=theta))
        return sep, coarse, deep

    def estimates(self, raw) -> dict:
        out = {}
        for i, (sep, coarse, deep) in enumerate(raw):
            out[f"code{i}"] = {"c_value": _num(sep, "c_value"),
                               "coarse_entropy": [_num(r, "entropy") for r in coarse],
                               "coarse_cells": [_num(r, "n_cells") for r in coarse],
                               "deep_entropy": _num(deep, "entropy"),
                               "deep_cells": _num(deep, "n_cells")}
        return out

    def check(self, raw) -> Review:
        ops, work, err = [], 0, 0.0
        for i, (sep, coarse, deep) in enumerate(raw):
            label = f"code {i}:"
            if isinstance(sep, Failure):
                ops.append((f"{label} separation constant C", False, _fail_text(sep)))
            else:
                ops.append((f"{label} separation constant C",
                            sep.separable and sep.c_value is not None,
                            f"C = {sep.c_value}, separable {sep.separable}"))
            hs = []
            for n, rep in zip(self.N_RANGE, coarse):
                what = f"{label} coarse theta_{n} entropy"
                if isinstance(rep, Failure):
                    ops.append((what, False, _fail_text(rep)))
                    continue
                work += rep.n_atoms
                hs.append(rep.entropy)
                ok = 0.0 < rep.entropy <= rep.n_hat
                detail = f"{rep.entropy:.4f} in (0, n_hat = {rep.n_hat}]"
                if n == self.N_RANGE[-1]:
                    slope = (float(np.polyfit(list(self.N_RANGE), hs, 1)[0])
                             if len(hs) == len(self.N_RANGE) else math.nan)
                    ok = ok and abs(slope - 1.0) <= self.SLOPE_GATE
                    detail += f"; slope over n {slope:.4f} vs 1 (gate {self.SLOPE_GATE})"
                ops.append((what, ok, detail))
            what = f"{label} deep theta entropy rate"
            if isinstance(deep, Failure):
                ops.append((what, False, _fail_text(deep)))
                err = math.nan
                continue
            rate = deep.entropy / deep.n
            rel = abs(rate - self.DEEP_RATE) / self.DEEP_RATE
            err = max(err, rel)
            ops.append((what, rel <= self.DEEP_GATE,
                        f"{rate:.4f} at i = {deep.i_level} vs {self.DEEP_RATE} "
                        f"(gate {self.DEEP_GATE:.0%})"))
        return Review(ops, work, err)


class DepthScan:
    """Exact depth maps n_hat and q_height over twenty-one (b, lam) pairs (criterion 6)."""

    name = "depth_scan"
    # the twenty pairs of criterion 6, plus the (2, 0.7) of every other workload
    PAIRS = (
        (4, 0.5), (8, 0.5), (16, 0.5), (8, 0.25), (16, 0.25),
        (16, 0.125), (32, 0.5), (32, 0.25), (32, 0.125), (32, 0.0625),
        (2, 0.5625), (2, 0.625), (3, 0.5), (3, 0.375), (5, 0.25),
        (5, 0.375), (6, 0.1875), (7, 0.25), (10, 0.125), (12, 0.09375),
        (2, 0.7),
    )
    N_MAX = 1000
    STRIDE = 4  # one seeded n from each block of STRIDE, so the cost per seed is even

    def __init__(self, seed: int):
        rng = np.random.default_rng(derived_seed(seed))
        self.params = [wr.make_params(b, lam) for b, lam in self.PAIRS]
        starts = np.arange(1, self.N_MAX + 1, self.STRIDE)
        self.ns = [(starts + rng.integers(0, self.STRIDE, size=len(starts))).tolist()
                   for _ in self.PAIRS]
        self.w_params = []
        self.inputs = {"n_per_pair": len(starts), "n_max": self.N_MAX}

    def run(self):
        n_hat, q_height = ms.n_hat, fs.q_height
        return [([attempt(n_hat, p, n) for n in ns], [attempt(q_height, p, n) for n in ns])
                for p, ns in zip(self.params, self.ns)]

    def estimates(self, raw) -> dict:
        out = {}
        for i, name in enumerate(("n_hat", "q_height")):
            values = [repr(v) for pair in raw for v in pair[i]]
            out[f"{name}.sha256"] = hashlib.sha256(",".join(values).encode()).hexdigest()
        return out

    def check(self, raw) -> Review:
        ops = []
        for p, ns, (depths, qs) in zip(self.params, self.ns, raw):
            lam = Fraction(p.lam)
            num, den, b = lam.numerator, lam.denominator, p.b
            for n, m in zip(ns, depths):
                # lam^m <= b^-n < lam^(m-1)
                ok = (not isinstance(m, Failure) and m >= 1
                      and num**m * b**n <= den**m and num ** (m - 1) * b**n > den ** (m - 1))
                ops.append((f"n_hat b={b} lam={p.lam} n={n}", ok, f"m = {_repr(m)}"))
            for t, q in zip(ns, qs):
                # b^q <= lam^-t < b^(q+1)
                ok = (not isinstance(q, Failure) and q >= 0
                      and b**q * num**t <= den**t < b ** (q + 1) * num**t)
                ops.append((f"q_height b={b} lam={p.lam} t={t}", ok, f"q = {_repr(q)}"))
        off = sum(1 for _, ok, _ in ops if not ok)
        return Review(ops, len(ops), off / len(ops))


WORKLOADS = {cls.name: cls for cls in (GraphDim, ProjectionAlpha, Theta, DepthScan)}


GAP_POINTS = 1000
GAP_TOL = 1e-12


def w_vec_gap(workload, seed: int) -> float | None:
    """max |eval_w_vec - eval_w| at GAP_TOL over seeded points, per (b, lam) of the workload.

    None when the workload evaluates W on no float points.
    """
    if not workload.w_params:
        return None
    xs = np.random.default_rng([derived_seed(seed), 1]).random(GAP_POINTS)
    gap = 0.0
    for p in workload.w_params:
        vec = wr.eval_w_vec(p, workload.phi, xs, GAP_TOL)
        exact = np.array([wr.eval_w(p, workload.phi, float(x), GAP_TOL) for x in xs])
        gap = max(gap, float(np.max(np.abs(vec - exact))))
    return gap
