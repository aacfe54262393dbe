"""Generator functions for the lacunary series lab.

Two representations live here.  ``FourierPhi`` keeps a sparse table of
signed-frequency Fourier coefficients and covers the smooth family,
including the workhorse cosine with a phase.  ``PiecewisePhi`` keeps exact
polynomial pieces over a partition of [0, 1) and covers the triangle wave
and the square (rademacher) wave.  Both evaluate 1-periodically.

The stable increment phi(o + h) - phi(o), of which the kernels' sums are
made, has one implementation, ``phi_diff_vec``, elementwise over o and h
broadcast together; ``_piecewise_diff`` is its exact rational reference.

The module also hosts the frequency-filter operators used by the
renormalization layer: keep every p-th frequency (compressed or in place),
the complementary remainder, frequency rescaling, and recovery of a
generator from a limit function.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

import numpy as np

__all__ = [
    "FourierPhi",
    "PiecewisePhi",
    "Phi",
    "cos_phi",
    "const_phi",
    "zero_phi",
    "triangle_phi",
    "rademacher_phi",
    "eval_phi",
    "phi_diff_vec",
    "near_breakpoint",
    "piecewise_deriv_exact",
    "sup_deriv",
    "renormalize",
    "pre_renormalize",
    "s_p",
    "rescale",
    "phi_from_w0",
    "phi_to_text",
    "phi_from_text",
    "parse_phi_spec",
]

_TWO_PI = 2.0 * math.pi
_CANON_REL = 1e-15


def _canonicalize(coeffs: dict[int, complex], real_valued: bool) -> dict[int, complex]:
    clean = {int(k): complex(v) for k, v in coeffs.items() if v != 0}
    if not clean:
        return {}
    peak = max(abs(v) for v in clean.values())
    clean = {k: v for k, v in clean.items() if abs(v) >= _CANON_REL * peak}
    if real_valued:
        for k, v in clean.items():
            w = clean.get(-k, 0.0 + 0.0j)
            if abs(v - w.conjugate()) > 1e-9 * max(1.0, peak):
                raise ValueError(
                    "real_valued requires conjugate symmetric coefficients; "
                    f"violated at frequency {k}"
                )
    return dict(sorted(clean.items()))


@dataclass
class FourierPhi:
    """Sparse Fourier representation sum_k c_k exp(2 pi i k x).

    Parameters
    ----------
    coeffs : dict[int, complex]
        Nonzero coefficients keyed by signed frequency.  Canonicalized on
        construction: exact zeros and entries below 1e-15 of the largest
        magnitude are dropped.
    real_valued : bool
        Declares conjugate symmetry c_{-k} = conj(c_k); validated, not
        silently repaired.
    cos_phase : float or None
        Set on the built-in cosine; evaluation then uses the closed form
        (2 pi)^k cos(2 pi x + phase + k pi / 2) for every derivative order.
    """

    coeffs: dict[int, complex]
    real_valued: bool = True
    cos_phase: float | None = None
    label: str = ""

    def __post_init__(self) -> None:
        self.coeffs = _canonicalize(self.coeffs, self.real_valued)

    def __call__(self, x, deriv: int = 0):
        return eval_phi(self, x, deriv)


@dataclass
class PiecewisePhi:
    """Piecewise polynomial on [0, 1), extended 1-periodically.

    ``breakpoints`` are exact rationals 0 = t_0 < ... < t_m = 1 and piece j
    is the polynomial sum_d coeffs[j][d] * x^d on [t_j, t_{j+1}), absolute
    coordinates, exact rational coefficients.  Values at breakpoints follow
    the right-limit convention, which also fixes one-sided derivatives.

    ``smoothness`` is the classical regularity across breakpoints: -1 for a
    jump, 0 for continuous with a kink, and so on, capped by piece degree.
    """

    kind: str
    breakpoints: tuple[Fraction, ...]
    coeffs: tuple[tuple[Fraction, ...], ...]
    smoothness: int = field(default=0)
    label: str = ""

    def __post_init__(self) -> None:
        bp = tuple(Fraction(t) for t in self.breakpoints)
        if bp[0] != 0 or bp[-1] != 1 or any(bp[i] >= bp[i + 1] for i in range(len(bp) - 1)):
            raise ValueError("breakpoints must increase from 0 to 1")
        if len(self.coeffs) != len(bp) - 1:
            raise ValueError("one coefficient tuple per piece required")
        self.breakpoints = bp
        self.coeffs = tuple(tuple(Fraction(c) for c in piece) for piece in self.coeffs)
        self._bp_float = np.array([float(t) for t in bp])

    @property
    def degree(self) -> int:
        return max(len(p) - 1 for p in self.coeffs)

    def piece_index(self, x: Fraction) -> int:
        xm = x - math.floor(x)
        lo, hi = 0, len(self.breakpoints) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if xm >= self.breakpoints[mid]:
                lo = mid
            else:
                hi = mid
        return lo

    def __call__(self, x, deriv: int = 0):
        return eval_phi(self, x, deriv)


Phi = Union[FourierPhi, PiecewisePhi]


def cos_phi(theta: float = 0.0) -> FourierPhi:
    """phi(x) = cos(2 pi x + theta)."""
    half = 0.5 * cmath.exp(1j * theta)
    return FourierPhi(
        {1: half, -1: half.conjugate()},
        real_valued=True,
        cos_phase=float(theta),
        label=f"cos theta={theta!r}",
    )


def const_phi(c: float) -> FourierPhi:
    return FourierPhi({0: complex(c)}, real_valued=True, label=f"const {c!r}")


def zero_phi() -> FourierPhi:
    return FourierPhi({}, real_valued=True, label="zero")


def triangle_phi() -> PiecewisePhi:
    """Distance to the nearest integer; exact at representable points."""
    h = Fraction(1, 2)
    return PiecewisePhi(
        kind="triangle",
        breakpoints=(Fraction(0), h, Fraction(1)),
        coeffs=((Fraction(0), Fraction(1)), (Fraction(1), Fraction(-1))),
        smoothness=0,
        label="triangle",
    )


def rademacher_phi() -> PiecewisePhi:
    """+1 on [0, 1/2), -1 on [1/2, 1)."""
    h = Fraction(1, 2)
    return PiecewisePhi(
        kind="rademacher",
        breakpoints=(Fraction(0), h, Fraction(1)),
        coeffs=((Fraction(1),), (Fraction(-1),)),
        smoothness=-1,
        label="rademacher",
    )


def _poly_eval_frac(piece: tuple[Fraction, ...], x: Fraction) -> Fraction:
    # Horner evaluation, exact rationals throughout.
    acc = Fraction(0)
    for c in reversed(piece):
        acc = acc * x + c
    return acc


def eval_phi(phi: Phi, x, deriv: int = 0):
    """Evaluate phi or one of its derivatives, 1-periodically.

    Scalars map to scalars and arrays to arrays.  ``deriv`` must be
    admissible for the representation: any order for Fourier data, at most
    the piece degree for continuous piecewise data, and order zero only for
    a discontinuous wave, where no classical derivative exists anywhere
    dense and requests are rejected.
    """
    if deriv < 0:
        raise ValueError("derivative order must be nonnegative")
    scalar = np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0)
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if isinstance(phi, FourierPhi):
        out = _eval_fourier(phi, xs, deriv)
    else:
        out = _eval_piecewise(phi, xs, deriv)
    if scalar:
        return float(out[0])
    return out


def _eval_fourier(phi: FourierPhi, xs: np.ndarray, deriv: int) -> np.ndarray:
    if phi.cos_phase is not None:
        amp = _TWO_PI**deriv
        return amp * np.cos(_TWO_PI * xs + phi.cos_phase + deriv * math.pi / 2.0)
    if not phi.coeffs:
        return np.zeros_like(xs)
    acc = np.zeros(xs.shape, dtype=np.complex128)
    for k, c in phi.coeffs.items():
        factor = c * (2j * math.pi * k) ** deriv
        acc += factor * np.exp((2j * math.pi * k) * xs)
    if phi.real_valued:
        return acc.real.copy()
    return acc


def _eval_piecewise(phi: PiecewisePhi, xs: np.ndarray, deriv: int) -> np.ndarray:
    if phi.smoothness < 0 and deriv >= 1:
        raise ValueError(
            f"derivative order {deriv} unsupported for discontinuous phi ({phi.kind})"
        )
    if deriv > phi.degree:
        raise ValueError(
            f"derivative order {deriv} unsupported for piece degree {phi.degree} ({phi.kind})"
        )
    xm = xs - np.floor(xs)
    idx = np.searchsorted(phi._bp_float, xm, side="right") - 1
    idx = np.clip(idx, 0, len(phi.coeffs) - 1)
    out = np.zeros_like(xm)
    for j, piece in enumerate(phi.coeffs):
        mask = idx == j
        if not mask.any():
            continue
        out[mask] = _poly_eval_float(piece, xm[mask], deriv)
    return out


def _poly_eval_float(piece: tuple[Fraction, ...], x: np.ndarray, deriv: int) -> np.ndarray:
    acc = np.zeros_like(x)
    for d in range(len(piece) - 1, deriv - 1, -1):
        fall = 1
        for j in range(deriv):
            fall *= d - j
        acc = acc * x + float(piece[d]) * fall
    return acc


def sup_deriv(phi: Phi, deriv: int = 0) -> float:
    """Supremum of |phi^(deriv)|, used for truncation counts and error budgets.

    Exact for the cosine family and for polynomial pieces (critical points
    from the derivative's roots); a generous coefficient-sum bound for
    general Fourier data.
    """
    if isinstance(phi, FourierPhi):
        if phi.cos_phase is not None:
            return _TWO_PI**deriv
        return float(
            sum(abs(c) * (_TWO_PI * abs(k)) ** deriv for k, c in phi.coeffs.items())
        )
    if phi.smoothness < 0 and deriv >= 1:
        raise ValueError("no classical derivative for a discontinuous wave")
    if deriv > phi.degree:
        raise ValueError("derivative order exceeds piece degree")
    best = 0.0
    for j, piece in enumerate(phi.coeffs):
        dcoef = _poly_deriv_coeffs(piece, deriv)
        lo = float(phi.breakpoints[j])
        hi = float(phi.breakpoints[j + 1])
        cands = [lo, float(np.nextafter(hi, lo))]
        if len(dcoef) > 2:
            # critical points: roots of the next derivative, highest power first
            ddcoef = [dcoef[d] * d for d in range(1, len(dcoef))]
            crit = np.roots(np.array(ddcoef[::-1], dtype=np.float64))
            for r in crit:
                if abs(r.imag) < 1e-12 and lo <= r.real < hi:
                    cands.append(float(r.real))
        for t in cands:
            best = max(best, abs(float(_poly_eval_float(piece, np.array([t]), deriv)[0])))
    return best


def _poly_deriv_coeffs(piece: tuple[Fraction, ...], deriv: int) -> list[float]:
    coef = [float(c) for c in piece]
    for _ in range(deriv):
        coef = [coef[d] * d for d in range(1, len(coef))]
        if not coef:
            return [0.0]
    return coef


# ---------------------------------------------------------------------------
# the stable increment phi(o + h) - phi(o)


_DIRECT_FROM = 2.0**-12  # |h| from which a piecewise increment is the plain difference


def phi_diff_vec(phi: Phi, o, h) -> np.ndarray:
    """phi(o + h) - phi(o) elementwise, o broadcast against h, without cancellation.

    For Fourier data each frequency contributes
    c_k e^{2 pi i k o} (e^{2 pi i k h} - 1) = 2i c_k sin(pi k h) e^{i t},
    t = 2 pi k o + pi k h, which stays fully accurate for tiny h and is
    summed in real arithmetic, so every element equals its scalar call; the
    cosine takes the closed form -2 sin(pi h) sin(2 pi o + phase + pi h).
    Piecewise data takes the plain difference for |h| >= 2^-12 and the
    factored polynomial difference inside o's piece below that; the few
    small increments that cross a breakpoint go to the exact rational
    ``_piecewise_diff``, which reads o and h as the values of their floats.
    """
    o = np.asarray(o, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if isinstance(phi, FourierPhi):
        if phi.cos_phase is not None:
            # cos(A+d) - cos(A) = -2 sin(d/2) sin(A + d/2)
            return -2.0 * np.sin(math.pi * h) * np.sin(
                _TWO_PI * o + phi.cos_phase + math.pi * h
            )
        re = np.zeros(np.broadcast_shapes(o.shape, h.shape))
        im = np.zeros_like(re)
        for k, c in phi.coeffs.items():
            s2 = 2.0 * np.sin(math.pi * k * h)
            t = _TWO_PI * k * o + math.pi * k * h
            cos_t, sin_t = np.cos(t), np.sin(t)
            re -= s2 * (c.imag * cos_t + c.real * sin_t)
            im += s2 * (c.real * cos_t - c.imag * sin_t)
        return re if phi.real_valued else re + 1j * im
    o, h = np.broadcast_arrays(o, h)
    out = np.empty(o.shape)
    direct = np.abs(h) >= _DIRECT_FROM
    out[direct] = eval_phi(phi, o[direct] + h[direct]) - eval_phi(phi, o[direct])
    small = ~direct
    flip = h[small] < 0.0  # then phi(o + h) - phi(o) = -(phi(o' + |h|) - phi(o')), o' = o + h
    lo = o[small] + np.where(flip, h[small], 0.0)
    step = np.abs(h[small])
    a = lo - np.floor(lo)
    idx = np.clip(np.searchsorted(phi._bp_float, a, side="right") - 1, 0, len(phi.coeffs) - 1)
    inside = a + step < phi._bp_float[idx + 1]
    d = np.empty(len(a))
    for j, piece in enumerate(phi.coeffs):
        mask = inside & (idx == j)
        if mask.any():
            d[mask] = _poly_diff(piece, a[mask], step[mask])
    for i in np.flatnonzero(~inside):
        d[i] = float(_piecewise_diff(phi, Fraction(float(a[i])), Fraction(float(step[i]))))
    out[small] = np.where(flip, -d, d)
    return out


# Traced by name in perfbench/tracing.py as the per-offset layer, which
# funcspace.gamma_at_many_words calls under this name; kept off __all__.
phi_diff_offsets = phi_diff_vec


def _poly_diff(piece: tuple[Fraction, ...], o: np.ndarray, h: np.ndarray) -> np.ndarray:
    # p(o+h) - p(o) = h * sum_d a_d * sum_{i<d} (o+h)^i o^(d-1-i), no cancellation
    acc = np.zeros_like(o)
    oh = o + h
    for d in range(1, len(piece)):
        a = float(piece[d])
        if a == 0.0:
            continue
        inner = np.zeros_like(o)
        for i in range(d):
            inner += oh**i * o ** (d - 1 - i)
        acc += a * inner
    return h * acc


def _piecewise_diff(phi: PiecewisePhi, o: Fraction, h: Fraction) -> Fraction:
    """phi(o + h) - phi(o) as an exact rational, piece by piece."""
    if h < 0:
        return -_piecewise_diff(phi, o + h, -h)
    o = o - math.floor(o)
    total = Fraction(0)
    pos = o
    remaining = h
    while remaining > 0:
        j = phi.piece_index(pos)
        right = phi.breakpoints[j + 1]
        step = min(remaining, right - (pos - math.floor(pos)))
        piece = phi.coeffs[j]
        a = pos - math.floor(pos)
        b_ = a + step
        total += _poly_eval_frac(piece, b_) - _poly_eval_frac(piece, a)
        pos += step
        remaining -= step
    return total


def piecewise_deriv_exact(phi: PiecewisePhi, o: Fraction) -> float:
    """Right-limit phi'(o) at an exact rational point of piecewise data.

    The piece is found by exact comparison, so a point just below a
    breakpoint keeps its own piece even where its float rounds onto the
    breakpoint, as 1 - 2^-60 rounds to 1.
    """
    a = o - math.floor(o)
    piece = phi.coeffs[phi.piece_index(a)]
    return float(_poly_eval_frac(tuple(d * c for d, c in enumerate(piece))[1:], a))


def near_breakpoint(phi: PiecewisePhi, x: np.ndarray) -> np.ndarray:
    """Where a float point lies within 2^-44 (relative) of a breakpoint.

    A point rounded from an exact one may sit on the wrong side of such a
    breakpoint (1 - 2^-60 rounds onto 1), so there the piece must come from
    the exact point; anywhere else the float's own piece is the exact one.
    """
    gap = np.abs((x - np.floor(x))[..., None] - phi._bp_float).min(axis=-1)
    return gap <= 2.0**-44 * (1.0 + np.abs(x))


# ---------------------------------------------------------------------------
# frequency-filter operators


def _require_fourier(phi: Phi, opname: str) -> FourierPhi:
    if not isinstance(phi, FourierPhi):
        raise TypeError(f"{opname} requires a Fourier representation, got {type(phi).__name__}")
    return phi


def renormalize(phi: Phi, p: int) -> FourierPhi:
    """Keep every p-th frequency and compress it down: c_k -> coefficient at k p.

    The result is sum_k c_{kp} e^{2 pi i k x}.  A pure cosine with p >= 2
    collapses to zero; a constant is fixed.
    """
    f = _require_fourier(phi, "renormalize")
    if p < 2:
        raise ValueError("renormalize needs p >= 2")
    out = {k // p: v for k, v in f.coeffs.items() if k % p == 0}
    return FourierPhi(out, real_valued=f.real_valued, label=f"renorm{p}({f.label})")


def pre_renormalize(phi: Phi, p: int) -> FourierPhi:
    """Keep every p-th frequency in place: sum over p | k of c_k e^{2 pi i k x}."""
    f = _require_fourier(phi, "pre_renormalize")
    if p < 2:
        raise ValueError("pre_renormalize needs p >= 2")
    out = {k: v for k, v in f.coeffs.items() if k % p == 0}
    return FourierPhi(out, real_valued=f.real_valued, label=f"pre{p}({f.label})")


def s_p(phi: Phi, p: int) -> FourierPhi:
    """Remainder phi minus its in-place p-divisible part; exact on the coefficients."""
    f = _require_fourier(phi, "s_p")
    if p < 2:
        raise ValueError("s_p needs p >= 2")
    out = {k: v for k, v in f.coeffs.items() if k % p != 0}
    return FourierPhi(out, real_valued=f.real_valued, label=f"s{p}({f.label})")


def rescale(phi: Phi, p: int) -> FourierPhi:
    """Frequency dilation x -> p x on the coefficient table: k -> k p.

    p = 1 is the identity; renormalize(rescale(phi, p), p) recovers phi
    exactly for p >= 2.
    """
    f = _require_fourier(phi, "rescale")
    if p < 1:
        raise ValueError("rescale needs p >= 1")
    if p == 1:
        return FourierPhi(dict(f.coeffs), real_valued=f.real_valued, cos_phase=f.cos_phase,
                          label=f.label)
    out = {k * p: v for k, v in f.coeffs.items()}
    return FourierPhi(out, real_valued=f.real_valued, label=f"rescale{p}({f.label})")


def phi_from_w0(w0: Phi, b: int, lam: float) -> FourierPhi:
    """Generator whose limit function is the given w0: coefficients
    c_m = A_m - lam * A_{m/b} (second term only when b divides m)."""
    f = _require_fourier(w0, "phi_from_w0")
    if b < 2:
        raise ValueError("b must be at least 2")
    out = dict(f.coeffs)
    for k, v in f.coeffs.items():
        kk = k * b
        out[kk] = out.get(kk, 0.0 + 0.0j) - lam * v
    return FourierPhi(out, real_valued=f.real_valued, label=f"from_w0({f.label})")


# ---------------------------------------------------------------------------
# serialization


def phi_to_text(phi: Phi) -> str:
    """Serialize to the line format read back by :func:`phi_from_text`.

    Built-in waves serialize as their keyword; Fourier tables as one
    ``k re im`` line per frequency at full round-trip precision.
    """
    if isinstance(phi, PiecewisePhi):
        if phi.kind in ("triangle", "rademacher"):
            return phi.kind + "\n"
        raise TypeError("only the named piecewise waves serialize to text")
    if phi.cos_phase is not None:
        return f"cos theta={phi.cos_phase!r}\n"
    lines = [f"{k} {v.real!r} {v.imag!r}" for k, v in phi.coeffs.items()]
    return "\n".join(lines) + ("\n" if lines else "")


def phi_from_text(text: str) -> Phi:
    entries: dict[int, complex] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "triangle":
            return triangle_phi()
        if line == "rademacher":
            return rademacher_phi()
        if line.startswith("cos"):
            theta = 0.0
            for tok in line.split()[1:]:
                if tok.startswith("theta="):
                    theta = float(tok[6:])
            return cos_phi(theta)
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"bad coefficient line: {raw!r}")
        k, re_, im_ = int(parts[0]), float(parts[1]), float(parts[2])
        entries[k] = complex(re_, im_)
    return FourierPhi(entries, real_valued=_looks_real(entries))


def _looks_real(entries: dict[int, complex]) -> bool:
    if not entries:
        return True
    peak = max(abs(v) for v in entries.values())
    return all(
        abs(v - entries.get(-k, 0j).conjugate()) <= 1e-9 * max(1.0, peak)
        for k, v in entries.items()
    )


def parse_phi_spec(spec: str) -> Phi:
    """Resolve a command-line generator spec.

    Accepted forms: ``cos``, ``cos:theta=0.25``, ``triangle``,
    ``rademacher``, ``zero``, ``const:VALUE``, or a path to a coefficient
    file in the text format.
    """
    s = spec.strip()
    name, _, arg = s.partition(":")
    if name == "cos":
        theta = 0.0
        if arg:
            key, _, val = arg.partition("=")
            if key != "theta":
                raise ValueError(f"unknown cos parameter {key!r}")
            theta = float(val)
        return cos_phi(theta)
    if name == "triangle":
        return triangle_phi()
    if name == "rademacher":
        return rademacher_phi()
    if name == "zero":
        return zero_phi()
    if name == "const":
        if not arg:
            raise ValueError("const needs a value, e.g. const:1")
        return const_phi(float(arg))
    if os.path.exists(s):
        with open(s) as fh:
            return phi_from_text(fh.read())
    raise ValueError(f"unrecognized phi spec {spec!r}")
