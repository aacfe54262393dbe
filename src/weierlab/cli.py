"""Command-line front end.

Every subcommand resolves its options from built-in defaults, then an
optional ``key = value`` config file, then explicit flags (flags win).
A command is a generator: it reads every option it uses through
``_Options``, which records each key read, and yields.  ``main`` then
refuses any option given by flag or config file that the run did not
read, before any work is done, and only then resumes the command, which
computes and returns its data files, its ``.meta`` summary and its stdout
lines; a read after the yield is an invariant failure.  A command writes
nothing itself: ``main`` writes the files atomically into the output
directory (flag ``--out``, else the WEIERLAB_OUT environment variable,
else the working directory) with a ``<command>.meta`` record of exactly
the keys the run read, then prints the stdout lines.  The record doubles
as a config file that reproduces the run.  Exit codes: 0 success, 1 when an internal invariant
check fails during a run, 2 for invalid input.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from . import funcspace as fs
from . import kernel as kn
from . import measure as ms
from . import phi as phimod
from . import weier as wr
from ._util import atomic_write_text, depth_index

_DEFAULTS: dict[str, dict[str, str]] = {
    "params": {},
    "sample": {"points": "4096", "plot_level": "", "tol": "1e-9"},
    "dim-box": {"levels": "8:14", "samples": "4e6", "column_margin": "3",
                "tol": "1e-9"},
    "dim-entropy": {"codes": "8", "levels": "6:14", "samples": "1e6", "tol": "1e-9"},
    "kernel": {"code": "seed:1", "points": "1024", "tol": "1e-9"},
    "check-h": {"depth": "1", "pairs": "4", "grid": "4096", "tol": "1e-9"},
    "transversality": {"pairs_count": "12", "l0": "", "l0_max": "5", "tol": "1e-9"},
    "renorm": {"op": "renorm", "p": "2"},
    "theta": {"n": "8", "i_level": "0", "m": "", "cap": "1048576",
              "subsample": "", "k": "4", "h_threshold": "0.1",
              "max_components": "200", "experiment": "0", "dump_cells": "0",
              "tol": "1e-9"},
    "porosity": {"h": "", "delta": "0.1", "m": "6", "scales": "4:12",
                 "samples": "1048576", "ucas": "0", "tol": "1e-9"},
    "convolve": {"theta_file": "", "tau_file": "", "n": "0", "k": "4"},
}

_COMMON_DEFAULTS = {
    "b": "2",
    "lam": "0.7",
    "phi": "cos",
    "phi_from_w0": "",
    "seed": "0",
}

_SWITCHES = ("experiment", "dump_cells", "ucas")  # 0/1 keys whose bare flag means 1


class _Options:
    """Resolved string options with typed accessors that fail as exit 2.

    ``given`` holds the keys set by flag or config file; every accessor
    adds its key to ``read``, and raises AssertionError once ``checked``
    is set, since ``read`` was then already compared with ``given``.
    """

    def __init__(self, table: dict[str, str], given: set[str]):
        self.table = table
        self.given = given
        self.read: set[str] = set()
        self.checked = False

    def raw(self, key: str) -> str:
        if self.checked:
            raise AssertionError(f"option {key} is read after the unread options were refused")
        self.read.add(key)
        return self.table[key]

    def get_int(self, key: str) -> int:
        """Whole number, also written in float notation such as 4e6."""
        v = self.raw(key)
        try:
            return int(v)
        except ValueError:
            pass
        try:
            f = float(v)
            if f.is_integer():  # false for a fraction, inf and nan
                return int(f)
        except ValueError:
            pass
        raise ValueError(f"option {key} expects an integer, got {v!r}")

    def get_count(self, key: str) -> int:
        """Whole number of at least 1."""
        v = self.get_int(key)
        if v < 1:
            raise ValueError(f"option {key} must be at least 1, got {v}")
        return v

    def get_depth(self, key: str) -> int:
        """Whole number of at least 0."""
        return depth_index(self.get_int(key), f"option {key}")

    def get_switch(self, key: str) -> bool:
        v = self.raw(key)
        if v not in ("0", "1"):
            raise ValueError(f"option {key} expects 0 or 1, got {v!r}")
        return v == "1"

    def get_float(self, key: str) -> float:
        v = self.raw(key)
        try:
            return float(v)
        except ValueError:
            raise ValueError(f"option {key} expects a number, got {v!r}")

    def get_range(self, key: str) -> list[int]:
        v = self.raw(key)
        lo, sep, hi = v.partition(":")
        if not sep:
            raise ValueError(f"option {key} expects lo:hi, got {v!r}")
        try:
            a, b = int(lo), int(hi)
        except ValueError:
            raise ValueError(f"option {key} expects integer bounds, got {v!r}")
        if b < a:
            raise ValueError(f"option {key} has an empty range {v!r}")
        if a < 0:
            raise ValueError(f"option {key} must have nonnegative bounds, got {v!r}")
        return list(range(a, b + 1))


@dataclass
class _Run:
    """What a command produced: data files by name, the ``.meta`` summary
    and the stdout lines."""

    files: dict[str, str]
    summary: dict[str, object]
    stdout: list[str]


def _read_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}")
    for ln, line in enumerate(text.splitlines(), 1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        key, sep, val = s.partition("=")
        if not sep:
            raise ValueError(f"{path}:{ln}: expected 'key = value', got {s!r}")
        k = key.strip().replace("-", "_")
        out["lam" if k == "lambda" else k] = val.strip()
    return out


def _resolve(command: str, args: argparse.Namespace) -> _Options:
    table = dict(_COMMON_DEFAULTS)
    table.update(_DEFAULTS[command])
    given: set[str] = set()
    if args.config:
        cfg = _read_config(args.config)
        unknown = set(cfg) - set(table)
        if unknown:
            raise ValueError(
                f"unknown config keys for {command}: {', '.join(sorted(unknown))}"
            )
        table.update(cfg)
        given.update(cfg)
    for key in list(table):
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            table[key] = flag_val
            given.add(key)
    return _Options(table, given)


def _params(opt: _Options):
    return wr.make_params(opt.get_int("b"), opt.get_float("lam"))


def _make_system(opt: _Options):
    params = _params(opt)
    w0 = opt.raw("phi_from_w0")
    if w0:
        return params, phimod.phi_from_w0(phimod.parse_phi_spec(w0), params.b, params.lam)
    return params, phimod.parse_phi_spec(opt.raw("phi"))


def _parse_code(params, opt: _Options) -> kn.Code:
    spec = opt.raw("code")
    s = spec.strip()
    if s.startswith("seed:"):
        try:
            key = int(s[5:])
        except ValueError:
            raise ValueError(f"bad code spec {spec!r}: seed:K needs an integer")
        return kn.seeded_code(params.b, opt.get_int("seed"), key)
    pre, sep, cyc = s.partition("|")
    if not sep:
        pre, cyc = "", s
    try:
        pre_t = tuple(int(ch) for ch in pre)
        cyc_t = tuple(int(ch) for ch in cyc)
    except ValueError:
        raise ValueError(f"bad code spec {spec!r}: digits or seed:K")
    if not cyc_t:
        raise ValueError(f"bad code spec {spec!r}: empty cycle")
    if any(d >= params.b for d in pre_t + cyc_t):
        raise ValueError(f"code spec {spec!r} has digits outside base {params.b}")
    return kn.periodic_code(params.b, preperiod=pre_t, cycle=cyc_t)


def _meta_text(command: str, opt: _Options, summary: dict[str, object]) -> str:
    lines = [f"# command = {command}", f"# version = {__version__}",
             f"# timestamp = {time.strftime('%Y-%m-%dT%H:%M:%S')}"]
    for key in sorted(opt.read):
        lines.append(f"{key} = {opt.table[key]}")
    for key, val in summary.items():
        lines.append(f"# {key} = {val!r}" if isinstance(val, float) else f"# {key} = {val}")
    return _text(lines)


def _pgm_text(counts: np.ndarray) -> str:
    """Plain portable graymap of a count matrix, dark where mass is.

    Sample lines stay under the 70-character limit of the plain format.
    """
    peak = counts.max() if counts.size else 1
    img = 255 - np.minimum(counts * 255 // max(int(peak), 1), 255).astype(int)
    h, w = img.shape
    flat = img[::-1].ravel()
    rows = [" ".join(str(v) for v in flat[i : i + 16]) for i in range(0, len(flat), 16)]
    return _text(["P2", f"{w} {h}", "255", *rows])


def _text(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _csv(header: str, rows) -> str:
    """The one format of every data file: the header line, then one line
    per row, a float cell (numpy float64 included) as ``repr(float(v))``,
    so that rereading gives the exact binary value, any other cell as
    ``str(v)``."""
    return _text([header, *(",".join([repr(float(v)) if isinstance(v, float) else str(v)
                                      for v in row]) for row in rows)])


def _words(theta: fs.ThetaMeasure) -> list[str]:
    """Each atom's word: its n_hat base-b digits, most significant first,
    each printed in decimal.  The digits are numpy string arrays, one per
    position, joined in pairs."""
    b = theta.params.b
    symbols = np.array([str(k) for k in range(b)])
    rest = theta.indices.copy()
    parts = []
    for _ in range(theta.n_hat):
        parts.insert(0, symbols[rest % b])
        rest //= b
    parts = parts or [np.zeros(len(theta), "U1")]
    while len(parts) > 1:  # in pairs, so most joins act on short strings
        pairs = [np.strings.add(u, v) for u, v in zip(parts[::2], parts[1::2])]
        parts = pairs + parts[2 * len(pairs):]
    return parts[0].tolist()


# ---------------------------------------------------------------------------
# subcommands: each takes the resolved options and the output directory's
# name, which only the stdout lines mention, reads every option it uses,
# yields, and then computes and returns a _Run


def cmd_params(opt: _Options, outdir: str):
    params = _params(opt)
    yield
    return _Run({}, {}, [
        f"b          = {params.b}",
        f"lambda     = {params.lam!r}",
        f"gamma      = {params.gamma!r}",
        f"dim        = {params.dim!r}",
        f"holder_exp = {params.holder_exp!r}",
    ])


def cmd_sample(opt: _Options, outdir: str):
    params, phi = _make_system(opt)
    points = opt.get_count("points")
    tol = opt.get_float("tol")
    plot_level = opt.get_depth("plot_level") if opt.raw("plot_level") else None
    yield
    xs = (np.arange(points) + 0.5) / points
    ws = wr.eval_w_vec(params, phi, xs, tol)
    files = {"sample.csv": _csv("x,w", zip(xs.tolist(), ws.tolist()))}
    summary: dict[str, object] = {"w_min": float(ws.min()), "w_max": float(ws.max())}
    if plot_level is not None:
        scale = params.b**plot_level
        lo = math.floor(float(ws.min()) * scale)
        ix = np.floor(xs * scale).astype(int)
        iy = np.floor(ws * scale).astype(int) - lo
        counts = np.zeros((int(iy.max()) + 1, scale), dtype=np.int64)
        np.add.at(counts, (iy, ix), 1)
        files["sample.pgm"] = _pgm_text(counts)
        summary["plot"] = "sample.pgm"
    return _Run(files, summary, [f"wrote sample.csv ({points} points) to {outdir}"])


def cmd_dim_box(opt: _Options, outdir: str):
    params, phi = _make_system(opt)
    requested = opt.get_count("samples")
    kw = dict(levels=opt.get_range("levels"), n_samples=requested, seed=opt.get_int("seed"),
              column_margin=opt.get_int("column_margin"), tol=opt.get_float("tol"))
    yield
    rep = ms.graph_box_dimension(params, phi, **kw)
    stdout = []
    if rep.n_samples > requested:
        stdout.append(f"evaluated {rep.n_samples} points for {requested} requested "
                      f"(one per column of level {rep.column_level})")
    stdout.append(f"box-count slope {rep.slope:.4f} (reference {rep.d_reference:.4f})")
    summary: dict[str, object] = {
        "slope": rep.slope, "slope_stderr": rep.slope_stderr,
        "d_reference": rep.d_reference, "n_samples": rep.n_samples,
        "column_level": rep.column_level,
    }
    if isinstance(phi, phimod.FourierPhi):
        dich = wr.dichotomy(params, phi)
        summary.update(asdict(dich))  # analytic, residual, onset_level
        side = "analytic" if dich.analytic else "rough"
        stdout.append(f"dichotomy: {side}" if dich.residual == 0.0 else
                      f"dichotomy: {side}, residual {dich.residual:.3e}, "
                      f"onset level {dich.onset_level:.1f}")
    rows = ((lv, ct, lc, rep.slope) for lv, ct, lc in zip(rep.levels, rep.counts, rep.log_counts))
    return _Run({"dim_box.csv": _csv("level,count,log_count,slope", rows)}, summary, stdout)


def cmd_dim_entropy(opt: _Options, outdir: str):
    params, phi = _make_system(opt)
    seed = opt.get_int("seed")
    n_codes = opt.get_int("codes")
    kw = dict(levels=opt.get_range("levels"), n_samples=opt.get_count("samples"), seed=seed,
              tol=opt.get_float("tol"))
    yield
    codes = [kn.seeded_code(params.b, seed, i) for i in range(n_codes)]
    rep = ms.alpha_estimate(params, phi, codes, **kw)
    rows = ((ci, lv, val, int(lv in curve.window)) for ci, curve in enumerate(rep.curves)
            for lv, val in zip(curve.levels, curve.values))
    return _Run({"dim_entropy.csv": _csv("code_index,level,H,in_window", rows)}, {
        "alpha_median": rep.median, "alpha_iqr": rep.iqr,
        "n_codes": len(codes),
    }, [f"alpha median {rep.median:.4f} over {len(codes)} codes (iqr {rep.iqr:.4f})"])


def cmd_kernel(opt: _Options, outdir: str):
    params, phi = _make_system(opt)
    code = _parse_code(params, opt)
    points = opt.get_count("points")
    tol = opt.get_float("tol")
    yield
    xs = (np.arange(points) + 0.5) / points
    gs = kn.eval_gamma_vec(params, phi, xs, code, tol)
    ys = kn.eval_y_vec(params, phi, xs, code, tol)
    rows = zip(xs.tolist(), ys.tolist(), gs.tolist())
    return _Run({"kernel.csv": _csv("x,y_stable,gamma", rows)}, {
        "y_sup": float(np.max(np.abs(ys))), "gamma_sup": float(np.max(np.abs(gs))),
    }, [f"wrote kernel.csv ({points} points) to {outdir}"])


def cmd_check_h(opt: _Options, outdir: str):
    params, phi = _make_system(opt)
    kw = dict(depth=opt.get_int("depth"), samples_per_pair=opt.get_int("pairs"),
              seed=opt.get_int("seed"), grid_size=opt.get_count("grid"), tol=opt.get_float("tol"))
    yield
    rep = kn.condition_h_scan(params, phi, **kw)
    return _Run({"check_h.csv": _csv("u_prefix,v_prefix,seed,sep", rep.rows)}, {
        "classification": rep.classification,
        "min_sep": rep.min_sep, "max_sep": rep.max_sep,
    }, [f"classification: {rep.classification} "
        f"(min_sep {rep.min_sep:.3e}, max_sep {rep.max_sep:.3e})"])


def cmd_transversality(opt: _Options, outdir: str):
    params, phi = _make_system(opt)
    seed = opt.get_int("seed")
    tol = opt.get_float("tol")
    count = opt.get_count("pairs_count")
    l0 = opt.get_int("l0") if opt.raw("l0") else None
    l0_max = opt.get_int("l0_max") if l0 is None else None
    yield
    pairs = kn.transversality_pairs(params, seed, count=count)
    history: dict[int, kn.TransversalityReport] = {}
    if l0 is not None:
        rep = kn.transversality_certificate(params, phi, pairs, l0, tol)
    else:
        l0, history = kn.transversality_stability(params, phi, pairs, l0_max=l0_max, tol=tol)
        rep = history[l0]
    summary: dict[str, object] = {
        "l0": l0, "rho0_hat": rep.rho0_hat, "median_ratio": rep.median_ratio,
        "n_pairs": len(pairs),
    }
    for lv, r in sorted(history.items()):
        summary[f"ratio_level_{lv}"] = r.rho0_hat
    first = rep.per_pair[0]  # the file holds the first pair's intervals
    rows = zip(itertools.count(), first["interval_inf"], first["interval_sup"])
    return _Run({"transversality.csv": _csv("interval_index,inf,sup", rows)}, summary,
                [f"l0 {l0}: rho0_hat {rep.rho0_hat:.4f}, median ratio {rep.median_ratio:.4f}"])


def cmd_renorm(opt: _Options, outdir: str):
    params, phi = _make_system(opt)
    op = opt.raw("op")
    p = opt.get_int("p")
    ops = {
        "renorm": phimod.renormalize,
        "pre": phimod.pre_renormalize,
        "sp": phimod.s_p,
        "rescale": phimod.rescale,
    }
    if op not in ops:
        raise ValueError(f"unknown renorm op {op!r}; use one of {', '.join(ops)}")
    yield
    result = ops[op](phi, p)
    return _Run({"renorm_phi.txt": phimod.phi_to_text(result)}, {
        "op": op, "p": p, "n_coeffs": len(result.coeffs),
    }, [f"{op} at p={p}: {len(result.coeffs)} coefficients -> renorm_phi.txt"])


def cmd_theta(opt: _Options, outdir: str):
    params, phi = _make_system(opt)
    seed = opt.get_int("seed")
    tol = opt.get_float("tol")
    code = kn.seeded_code(params.b, seed, 0)
    n = opt.get_int("n")
    i_level = opt.get_int("i_level")
    m_grid = opt.get_int("m") if opt.raw("m") else params.b
    cap = opt.get_int("cap")
    subsample = opt.get_count("subsample") if opt.raw("subsample") else None
    if opt.get_switch("experiment"):
        k = opt.get_count("k")
        kw = dict(seed=seed, cap=cap, subsample=subsample, h_threshold=opt.get_float("h_threshold"),
                  max_components=opt.get_count("max_components"), tol=tol)
        yield
        rep = fs.entropy_increase_experiment(params, phi, code, n, i_level, k, m_grid, **kw)
        rows = ((rep.n, rep.i_level, rep.k, *row) for row in rep.rows)
        return _Run({"theta_experiment.csv": _csv("n,i_level,k,component_id,H_eta,gain", rows)}, {
            "mode": "experiment", "n_components": rep.n_components,
            "n_processed": rep.n_processed, "n_selected": rep.n_selected,
            "n_skipped_small": rep.n_skipped_small,
            "positive_fraction": rep.positive_fraction,
            "message": rep.message or "ok",
        }, [f"experiment: {rep.n_selected} components, "
            f"positive-gain fraction {rep.positive_fraction:.3f}"
            + (f" ({rep.message})" if rep.message else "")])
    dump_cells = opt.get_switch("dump_cells")
    yield
    theta = fs.build_theta(params, phi, code, n, cap, subsample, seed, tol)
    if dump_cells and len(theta) > 65536:
        raise ValueError(f"cell dump limited to 65536 atoms, theta has {len(theta)}")
    labels, n_cells = fs.theta_cell_labels(theta, i_level, m_grid, tol)  # once, for both outputs
    rep = fs._entropy_report(theta, labels, n_cells, i_level, m_grid)
    row = (rep.n, rep.n_hat, rep.i_level, rep.m_grid, rep.entropy, rep.n_atoms, rep.n_cells,
           int(rep.subsampled))
    files = {"theta_entropy.csv": _csv("n,n_hat,i_level,M,entropy,n_atoms,n_cells,subsampled",
                                       [row])}
    summary: dict[str, object] = {
        "entropy": rep.entropy, "rate": rep.entropy / max(n, 1),
        "n_atoms": rep.n_atoms, "n_cells": rep.n_cells,
    }
    if dump_cells:
        files["theta_cells.csv"] = _csv("word,t,cell_id", zip(
            _words(theta), itertools.repeat(theta.n_hat), labels.tolist()))
        summary["cells_dump"] = "theta_cells.csv"
    return _Run(files, summary, [f"theta n={n}: entropy {rep.entropy:.4f} over "
                                 f"{rep.n_atoms} atoms ({rep.n_cells} cells)"])


def cmd_porosity(opt: _Options, outdir: str):
    params, phi = _make_system(opt)
    seed = opt.get_int("seed")
    tol = opt.get_float("tol")
    code = kn.seeded_code(params.b, seed, 0)
    h = opt.get_float("h") if opt.raw("h") else None
    scales = opt.get_range("scales")
    m = opt.get_count("m")
    samples = opt.get_count("samples")
    delta = opt.get_float("delta")
    ucas = opt.get_switch("ucas")
    ms._check_porosity(h, delta, m, scales[0], scales[-1])
    yield
    summary: dict[str, object] = {}
    if h is None:
        alpha = ms.alpha_estimate(params, phi, [code], levels=range(5, 11),
                                  n_samples=1 << 18, seed=seed, tol=tol)
        h = alpha.median
        summary["h_from_alpha"] = h
    hist = ms.sample_projected_measure(params, phi, code, samples, scales[-1] + m,
                                       seed=seed, tol=tol)
    rep = ms.porosity_probe(hist, h, delta, m, scales[0], scales[-1])
    summary.update({"fraction": rep.fraction, "porous": rep.porous, "vacuous": rep.vacuous,
                    "h": h})
    stdout = []
    if ucas:
        u_delta = float(params.b) ** -4
        urep = ms.ucas_probe(params, phi, [code], u_delta, n_samples=samples, seed=seed, tol=tol)
        summary.update({"ucas_delta": u_delta, "ucas_sup_ratio": urep.sup_ratio,
                        "ucas_degenerate": urep.degenerate_atom})
        stdout.append(f"ucas sup ratio {urep.sup_ratio:.4f} at delta {u_delta!r}")
    verdict = (f"vacuous (h + delta = {rep.threshold:.4f} >= 1)" if rep.vacuous
               else rep.porous)
    stdout.append(f"porosity fraction {rep.fraction:.4f} (porous: {verdict})")
    return _Run({"porosity.csv": _csv("scale,low_entropy_share", sorted(rep.per_scale.items()))},
                summary, stdout)


def cmd_convolve(opt: _Options, outdir: str):
    b = wr.check_base(opt.get_int("b"))
    tf, uf = opt.raw("theta_file"), opt.raw("tau_file")
    if not tf or not uf:
        raise ValueError("convolve needs theta_file and tau_file histogram paths")
    n = opt.get_int("n")
    k = opt.get_int("k")
    yield
    try:
        with open(tf) as fh:
            theta_h = ms.hist_from_text(fh.read(), b)
        with open(uf) as fh:
            tau_h = ms.hist_from_text(fh.read(), b)
    except OSError as exc:
        raise ValueError(f"cannot read histogram file: {exc}")
    gain = fs.convolution_entropy_gain(theta_h, tau_h, n, k)
    return _Run({
        "convolve.csv": _csv("n,k,level,H_conv,H_tau,gain",
                             [(n, k, gain.level, gain.h_conv, gain.h_tau, gain.gain)]),
    }, {
        "gain": gain.gain, "h_conv": gain.h_conv, "h_tau": gain.h_tau,
    }, [f"gain {gain.gain:.4f} (H_conv {gain.h_conv:.4f}, H_tau {gain.h_tau:.4f})"])


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> argparse.ArgumentParser:
    """One subcommand per ``_DEFAULTS`` entry, with a string flag for each of
    its keys and the common ones: ``--`` + key with ``_`` as ``-``, and
    ``lam`` as ``--lambda``.  A switch key's flag alone sets it to 1.
    Unset flags stay None so config values hold."""
    ap = argparse.ArgumentParser(
        prog="weierlab",
        description="Numerical laboratory for b-adic self-affine wave sums",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, keys in _DEFAULTS.items():
        sp = sub.add_parser(name)
        for key in [*_COMMON_DEFAULTS, *keys, "config", "out"]:
            flag = "--lambda" if key == "lam" else "--" + key.replace("_", "-")
            if key in _SWITCHES:
                sp.add_argument(flag, dest=key, nargs="?", const="1")
            else:
                sp.add_argument(flag, dest=key)
        sp.set_defaults(fn=globals()["cmd_" + name.replace("-", "_")])
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    outdir = args.out or os.environ.get("WEIERLAB_OUT") or "."
    try:
        opt = _resolve(args.command, args)
        command = args.fn(opt, outdir)
        next(command)  # every option is read
        unread = sorted(opt.given - opt.read)
        if unread:
            raise ValueError(f"{args.command} does not read option {', '.join(unread)} "
                             "in this run; leave it out")
        opt.checked = True
        try:
            next(command)  # a command yields once, so this runs it to its return value
        except StopIteration as stop:
            run = stop.value
    except (ValueError, TypeError) as exc:  # TypeError: a generator the operation cannot take
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1
    if run.files:
        os.makedirs(outdir, exist_ok=True)
        for name, text in run.files.items():
            atomic_write_text(os.path.join(outdir, name), text)
        atomic_write_text(os.path.join(outdir, f"{args.command}.meta"),
                          _meta_text(args.command, opt, run.summary))
    for line in run.stdout:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
