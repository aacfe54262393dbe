"""Generator functions for the lacunary series lab.

Two representations live here, both real-valued and 1-periodic, as the
paper's phi is.  ``FourierPhi`` keeps a sparse table of signed-frequency
Fourier coefficients, conjugate-symmetric so that the sum is real, and
covers the smooth family, including the workhorse cosine with a phase.
``PiecewisePhi`` keeps exact linear pieces a0 + a1 x over a partition of
[0, 1) and covers the triangle wave and the square (rademacher) wave.
Both are checked once, at construction.

A Fourier table is evaluated only through its real form c_0 + sum_{k>0}
A_k cos(2 pi k x + theta_k), derived at construction from w_k = c_k +
conj c_-k, which the kernels read from the generator too.  The cosine is
its one-term case, with no branch of its own.

The stable increment phi(o + h) - phi(o), of which the kernels' sums are
made, is ``phi_diff_vec`` for Fourier data, elementwise over o and h
broadcast together, and the exact rational ``_piecewise_diff`` for
piecewise data, which the scalar kernels call; the vectorized piecewise
kernels place exact knots instead (``kernel._piecewise_gamma``).

The module also hosts the frequency-filter operators used by the
renormalization layer: keep every p-th frequency (compressed or in place),
the complementary remainder, frequency rescaling, and recovery of a
generator from a limit function.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
import operator
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


def _canonicalize(coeffs: dict[int, complex]) -> dict[int, complex]:
    clean = {int(k): complex(v) for k, v in coeffs.items() if v != 0}
    for k, v in clean.items():
        if not cmath.isfinite(v):
            raise ValueError(f"the coefficient at frequency {k} is not finite: {v!r}")
    if not clean:
        return {}
    peak = max(abs(v) for v in clean.values())
    clean = {k: v for k, v in clean.items() if abs(v) >= _CANON_REL * peak}
    for k, v in clean.items():
        w = clean.get(-k, 0.0 + 0.0j)
        if abs(v - w.conjugate()) > 1e-9 * max(1.0, peak):
            raise ValueError(
                "phi must be real: its coefficients are not conjugate symmetric "
                f"at frequency {k}"
            )
    return dict(sorted(clean.items()))


@dataclass
class FourierPhi:
    """Real sparse Fourier representation sum_k c_k exp(2 pi i k x).

    Parameters
    ----------
    coeffs : dict[int, complex]
        Nonzero coefficients keyed by signed frequency.  Canonicalized on
        construction: exact zeros and entries below 1e-15 of the largest
        magnitude are dropped.  Every coefficient must be finite and the
        table conjugate symmetric, c_{-k} = conj(c_k) to within 1e-9 of
        max(1, the largest magnitude); either fault raises ValueError,
        never silently repaired.
    cos_phase : float or None
        Set on the built-in cosine: its one real-form term keeps amplitude
        1.0 and this phase exactly, not the modulus and argument of w_1.

    Construction derives the real form: ``freqs`` holds the positive
    frequencies in increasing order, ``w`` the matching w_k = c_k + conj
    c_-k = A_k e^{i theta_k}, and ``c0`` the real part of c_0.
    """

    coeffs: dict[int, complex]
    cos_phase: float | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.cos_phase is not None and not math.isfinite(self.cos_phase):
            raise ValueError(f"the cosine phase at frequency 1 is not finite: {self.cos_phase!r}")
        self.coeffs = _canonicalize(self.coeffs)
        self.c0 = self.coeffs.get(0, 0j).real
        self.freqs = tuple(sorted({abs(k) for k in self.coeffs if k}))
        self.w = tuple(self.coeffs.get(k, 0j) + self.coeffs.get(-k, 0j).conjugate()
                       for k in self.freqs)
        if self.cos_phase is None:
            self._terms = [(k, abs(z), cmath.phase(z)) for k, z in zip(self.freqs, self.w)]
        elif self.freqs == (1,):
            self._terms = [(1, 1.0, self.cos_phase)]
        else:
            raise ValueError("a cosine phase needs a table of frequency 1 alone")


@dataclass
class PiecewisePhi:
    """Piecewise linear wave on [0, 1), extended 1-periodically.

    ``breakpoints`` are exact rationals 0 = t_0 < ... < t_m = 1 and piece j
    is a0 + a1 x on [t_j, t_{j+1}), given as the pair ``coeffs[j] = (a0,
    a1)`` in absolute coordinates, exact rationals; a longer tuple raises
    ValueError.  Values at breakpoints follow the right-limit convention,
    which also fixes one-sided derivatives.

    ``smoothness`` is derived from the pieces: 0 when they join at every
    breakpoint, the wrap from 1 to 0 included (continuous with kinks), and
    -1 for a jump.
    """

    kind: str
    breakpoints: tuple[Fraction, ...]
    coeffs: tuple[tuple[Fraction, Fraction], ...]
    label: str = ""
    smoothness: int = field(init=False)

    def __post_init__(self) -> None:
        bp = tuple(Fraction(t) for t in self.breakpoints)
        if bp[0] != 0 or bp[-1] != 1 or any(bp[i] >= bp[i + 1] for i in range(len(bp) - 1)):
            raise ValueError("breakpoints must increase from 0 to 1")
        if len(self.coeffs) != len(bp) - 1:
            raise ValueError("one coefficient tuple per piece required")
        if any(len(piece) != 2 for piece in self.coeffs):
            raise ValueError("each piece must be a linear (a0, a1) pair")
        self.breakpoints = bp
        self.coeffs = tuple((Fraction(a0), Fraction(a1)) for a0, a1 in self.coeffs)
        ends = [a0 + a1 * t for (a0, a1), t in zip(self.coeffs, bp[1:])]
        starts = [a0 + a1 * t for (a0, a1), t in zip(self.coeffs, bp)]
        self.smoothness = 0 if ends == starts[1:] + starts[:1] else -1
        self._bp_float = np.array([float(t) for t in bp])
        self._a0 = np.array([float(a0) for a0, _ in self.coeffs])
        self._a1 = np.array([float(a1) for _, a1 in self.coeffs])

    def piece_index(self, x: Fraction) -> int:
        return bisect.bisect_right(self.breakpoints, x - math.floor(x), hi=len(self.coeffs)) - 1


Phi = Union[FourierPhi, PiecewisePhi]


def cos_phi(theta: float = 0.0) -> FourierPhi:
    """phi(x) = cos(2 pi x + theta)."""
    half = 0.5 * cmath.exp(1j * theta)
    return FourierPhi(
        {1: half, -1: half.conjugate()},
        cos_phase=float(theta),
        label=f"cos theta={theta!r}",
    )


def const_phi(c: float) -> FourierPhi:
    return FourierPhi({0: complex(c)}, label=f"const {c!r}")


def zero_phi() -> FourierPhi:
    return FourierPhi({}, label="zero")


def triangle_phi() -> PiecewisePhi:
    """Distance to the nearest integer; exact at representable points."""
    h = Fraction(1, 2)
    return PiecewisePhi(
        kind="triangle",
        breakpoints=(Fraction(0), h, Fraction(1)),
        coeffs=((Fraction(0), Fraction(1)), (Fraction(1), Fraction(-1))),
        label="triangle",
    )


def rademacher_phi() -> PiecewisePhi:
    """+1 on [0, 1/2), -1 on [1/2, 1)."""
    h = Fraction(1, 2)
    return PiecewisePhi(
        kind="rademacher",
        breakpoints=(Fraction(0), h, Fraction(1)),
        coeffs=((Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0))),
        label="rademacher",
    )


def eval_phi(phi: Phi, x, deriv: int = 0):
    """Evaluate phi or one of its derivatives, 1-periodically.

    Scalars map to scalars and arrays to arrays.  ``deriv`` must be
    admissible for the representation: any order for Fourier data, at most
    1 for a continuous piecewise linear wave, and order zero only for a
    discontinuous wave, where no classical derivative exists anywhere
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
    def term(k, amp, theta):
        t = (_TWO_PI * k) * xs + theta + deriv * math.pi / 2.0
        return (amp * (_TWO_PI * k) ** deriv) * np.cos(t)
    out = _real_form_sum(phi, term, xs.shape)
    return out + phi.c0 if deriv == 0 and phi.c0 else out


def _real_form_sum(phi: FourierPhi, term, shape) -> np.ndarray:
    """The sum of term(k, A_k, theta_k) over the real form, added in place to
    the first term, so the cosine keeps its one term's bits; zeros of
    ``shape`` for a table without terms."""
    if not phi._terms:
        return np.zeros(shape)
    return functools.reduce(operator.iadd, (term(*t) for t in phi._terms))


def _check_piecewise_deriv(phi: PiecewisePhi, deriv: int) -> None:
    if deriv > 1 + phi.smoothness:  # linear pieces: phi' exists only where phi is continuous
        raise ValueError(f"derivative order {deriv} unsupported for {phi.kind}: "
                         f"linear pieces of smoothness {phi.smoothness}")


def _eval_piecewise(phi: PiecewisePhi, xs: np.ndarray, deriv: int) -> np.ndarray:
    _check_piecewise_deriv(phi, deriv)
    xm = xs - np.floor(xs)
    idx = np.clip(np.searchsorted(phi._bp_float, xm, side="right") - 1, 0, len(phi.coeffs) - 1)
    if deriv:
        return phi._a1[idx]
    return phi._a1[idx] * xm + phi._a0[idx]


def sup_deriv(phi: Phi, deriv: int = 0) -> float:
    """Supremum of |phi^(deriv)|, used for truncation counts and error budgets.

    Exact for the cosine family and for linear pieces (attained at a
    piece's ends); for general Fourier data the bound |c_0| + sum_k A_k
    (2 pi k)^d of the real form.
    """
    if isinstance(phi, FourierPhi):
        return (abs(phi.c0) if deriv == 0 else 0.0) + float(
            sum(amp * (_TWO_PI * k) ** deriv for k, amp, _ in phi._terms))
    _check_piecewise_deriv(phi, deriv)
    if deriv:
        return float(max(abs(a1) for _, a1 in phi.coeffs))
    bp = phi.breakpoints
    return float(max(abs(a0 + a1 * t) for (a0, a1), lo, hi in zip(phi.coeffs, bp, bp[1:])
                     for t in (lo, hi)))


# ---------------------------------------------------------------------------
# the stable increment phi(o + h) - phi(o)


def phi_diff_vec(phi: Phi, o, h) -> np.ndarray:
    """phi(o + h) - phi(o) elementwise for Fourier data, o broadcast against
    h, without cancellation.

    Each term of the real form contributes -2 A_k sin(pi k h) sin(2 pi k o
    + theta_k + pi k h), which stays fully accurate for tiny h, so every
    element equals its scalar call; for the cosine this is the closed form
    -2 sin(pi h) sin(2 pi o + phase + pi h).  Piecewise data raise
    TypeError: their increments are exact rationals, ``_piecewise_diff``.
    """
    if not isinstance(phi, FourierPhi):
        raise TypeError(f"phi_diff_vec requires a Fourier representation, got {type(phi).__name__}")
    o = np.asarray(o, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)

    def term(k, amp, theta):  # cos(A + d) - cos(A) = -2 sin(d/2) sin(A + d/2), d = 2 pi k h
        half = math.pi * k * h
        return -2.0 * amp * np.sin(half) * np.sin((_TWO_PI * k) * o + theta + half)
    return _real_form_sum(phi, term, np.broadcast_shapes(o.shape, h.shape))


# Traced by name in perfbench/tracing.py as the per-offset layer, which
# funcspace.gamma_at_many_words calls under this name; kept off __all__.
phi_diff_offsets = phi_diff_vec


def _piecewise_diff(phi: PiecewisePhi, o: Fraction, h: Fraction) -> Fraction:
    """phi(o + h) - phi(o) as an exact rational: the difference of the exact
    right-limit values a0 + a1 frac(t) at both ends, jumps included."""
    def value(t: Fraction) -> Fraction:
        a0, a1 = phi.coeffs[phi.piece_index(t)]
        return a0 + a1 * (t - math.floor(t))
    return value(o + h) - value(o)


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


def _require_fourier(phi: Phi, opname: str, p: int, least: int, name: str = "p") -> FourierPhi:
    """phi, checked to be a Fourier table, for an operator whose integer
    argument ``name`` = p must be at least ``least``."""
    if not isinstance(phi, FourierPhi):
        raise TypeError(f"{opname} requires a Fourier representation, got {type(phi).__name__}")
    if p < least:
        raise ValueError(f"{opname} needs {name} >= {least}")
    return phi


def renormalize(phi: Phi, p: int) -> FourierPhi:
    """Keep every p-th frequency and compress it down: c_k -> coefficient at k p.

    The result is sum_k c_{kp} e^{2 pi i k x}.  A pure cosine with p >= 2
    collapses to zero; a constant is fixed.
    """
    f = _require_fourier(phi, "renormalize", p, 2)
    out = {k // p: v for k, v in f.coeffs.items() if k % p == 0}
    return FourierPhi(out, label=f"renorm{p}({f.label})")


def pre_renormalize(phi: Phi, p: int) -> FourierPhi:
    """Keep every p-th frequency in place: sum over p | k of c_k e^{2 pi i k x}."""
    f = _require_fourier(phi, "pre_renormalize", p, 2)
    out = {k: v for k, v in f.coeffs.items() if k % p == 0}
    return FourierPhi(out, label=f"pre{p}({f.label})")


def s_p(phi: Phi, p: int) -> FourierPhi:
    """Remainder phi minus its in-place p-divisible part; exact on the coefficients."""
    f = _require_fourier(phi, "s_p", p, 2)
    out = {k: v for k, v in f.coeffs.items() if k % p != 0}
    return FourierPhi(out, label=f"s{p}({f.label})")


def rescale(phi: Phi, p: int) -> FourierPhi:
    """Frequency dilation x -> p x on the coefficient table: k -> k p.

    p = 1 is the identity; renormalize(rescale(phi, p), p) recovers phi
    exactly for p >= 2.
    """
    f = _require_fourier(phi, "rescale", p, 1)
    if p == 1:
        return FourierPhi(dict(f.coeffs), cos_phase=f.cos_phase, label=f.label)
    out = {k * p: v for k, v in f.coeffs.items()}
    return FourierPhi(out, label=f"rescale{p}({f.label})")


def phi_from_w0(w0: Phi, b: int, lam: float) -> FourierPhi:
    """Generator whose limit function is the given w0: coefficients
    c_m = A_m - lam * A_{m/b} (second term only when b divides m)."""
    f = _require_fourier(w0, "phi_from_w0", b, 2, "b")
    out = dict(f.coeffs)
    for k, v in f.coeffs.items():
        kk = k * b
        out[kk] = out.get(kk, 0.0 + 0.0j) - lam * v
    return FourierPhi(out, label=f"from_w0({f.label})")


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
    """Read the format of :func:`phi_to_text`, ``#`` starting a comment.

    A named wave (``triangle``, ``rademacher``, or ``cos`` with an optional
    ``theta=VALUE``) stands alone in its file; any other file holds only
    ``k re im`` coefficient lines.  A file that mixes the two, or a
    ``cos`` line with a token other than ``theta=``, raises ValueError.
    """
    lines = [s for s in (raw.split("#", 1)[0].strip() for raw in text.splitlines()) if s]
    named = [s for s in lines if s in ("triangle", "rademacher") or s.split()[0] == "cos"]
    if named and len(lines) > 1:
        raise ValueError(f"the named wave {named[0]!r} must be the only line of its file")
    if named == ["triangle"]:
        return triangle_phi()
    if named == ["rademacher"]:
        return rademacher_phi()
    if named:
        theta = 0.0
        for tok in named[0].split()[1:]:
            if not tok.startswith("theta="):
                raise ValueError(f"a cos line takes only theta=VALUE, got {tok!r}")
            theta = float(tok[6:])
        return cos_phi(theta)
    entries: dict[int, complex] = {}
    for line in lines:
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"bad coefficient line: {line!r}")
        k, re_, im_ = int(parts[0]), float(parts[1]), float(parts[2])
        entries[k] = complex(re_, im_)
    return FourierPhi(entries)


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
