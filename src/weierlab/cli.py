"""Command-line front end.

Every subcommand resolves its options from built-in defaults, then an
optional ``key = value`` config file, then explicit flags (flags win).
Outputs are written atomically into the output directory (flag ``--out``,
else the WEIERLAB_OUT environment variable, else the working directory),
and each run leaves a ``<command>.meta`` record holding the resolved
options; the record doubles as a config file that reproduces the run.
Exit codes: 0 success, 1 when an internal invariant check fails during a
run, 2 for invalid input.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np

from . import __version__
from . import funcspace as fs
from . import kernel as kn
from . import measure as ms
from . import phi as phimod
from . import weier as wr
from ._util import atomic_write_text

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
    "period-scan": {"k": "2", "denominators": "2,3,4,5,6,7,8,9,10,11,12",
                    "m_max": "64", "threshold": "100"},
    "theta": {"n": "8", "i_level": "0", "m": "", "cap": "1048576",
              "subsample": "", "k": "4", "h_threshold": "0.1",
              "max_components": "200", "tol": "1e-9"},
    "porosity": {"h": "", "delta": "0.1", "m": "6", "scales": "4:12",
                 "samples": "1048576", "level_cap": "26", "ucas_delta": "",
                 "tol": "1e-9"},
    "convolve": {"theta_file": "", "tau_file": "", "n": "0", "k": "4"},
}

_COMMON_DEFAULTS = {
    "b": "2",
    "lam": "0.7",
    "phi": "cos",
    "phi_from_w0": "",
    "seed": "0",
}


class _Options:
    """Resolved string options with typed accessors that fail as exit 2."""

    def __init__(self, table: dict[str, str]):
        self.table = table

    def raw(self, key: str) -> str:
        return self.table.get(key, "")

    def get_int(self, key: str) -> int:
        """Whole number, also written in float notation such as 4e6."""
        v = self.table[key]
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

    def get_float(self, key: str) -> float:
        try:
            return float(self.table[key])
        except ValueError:
            raise ValueError(f"option {key} expects a number, got {self.table[key]!r}")

    def get_range(self, key: str) -> list[int]:
        v = self.table[key]
        lo, sep, hi = v.partition(":")
        if not sep:
            raise ValueError(f"option {key} expects lo:hi, got {v!r}")
        try:
            a, b = int(lo), int(hi)
        except ValueError:
            raise ValueError(f"option {key} expects integer bounds, got {v!r}")
        if b < a:
            raise ValueError(f"option {key} has an empty range {v!r}")
        return list(range(a, b + 1))


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
    if args.config:
        cfg = _read_config(args.config)
        unknown = set(cfg) - set(table)
        if unknown:
            raise ValueError(
                f"unknown config keys for {command}: {', '.join(sorted(unknown))}"
            )
        table.update(cfg)
    for key in list(table):
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            table[key] = flag_val
    return _Options(table)


def _outdir(args: argparse.Namespace) -> str:
    out = args.out or os.environ.get("WEIERLAB_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _make_system(opt: _Options):
    b = opt.get_int("b")
    lam = opt.get_float("lam")
    params = wr.make_params(b, lam)
    if opt.raw("phi_from_w0"):
        w0 = phimod.parse_phi_spec(opt.raw("phi_from_w0"))
        phi = phimod.phi_from_w0(w0, b, lam)
    else:
        phi = phimod.parse_phi_spec(opt.raw("phi"))
    opt.get_int("seed")  # checked even where unused, since the .meta record keeps it
    return params, phi


def _parse_code(params, spec: str, seed: int) -> kn.Code:
    s = spec.strip()
    if s.startswith("seed:"):
        try:
            key = int(s[5:])
        except ValueError:
            raise ValueError(f"bad code spec {spec!r}: seed:K needs an integer")
        return kn.seeded_code(params.b, seed, key)
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


def _write_meta(outdir: str, command: str, opt: _Options, summary: dict[str, object]) -> None:
    lines = [f"# command = {command}", f"# version = {__version__}",
             f"# timestamp = {time.strftime('%Y-%m-%dT%H:%M:%S')}"]
    for key in sorted(opt.table):
        lines.append(f"{key} = {opt.table[key]}")
    for key, val in summary.items():
        lines.append(f"# {key} = {val!r}" if isinstance(val, float) else f"# {key} = {val}")
    atomic_write_text(os.path.join(outdir, f"{command}.meta"),
                      "\n".join(lines) + "\n")


def _write_pgm(path: str, counts: np.ndarray) -> None:
    """Plain portable graymap of a count matrix, dark where mass is.

    Sample lines stay under the 70-character limit of the plain format.
    """
    peak = counts.max() if counts.size else 1
    img = 255 - np.minimum(counts * 255 // max(int(peak), 1), 255).astype(int)
    h, w = img.shape
    flat = img[::-1].ravel()
    lines = [
        " ".join(str(v) for v in flat[i : i + 16]) for i in range(0, len(flat), 16)
    ]
    atomic_write_text(path, f"P2\n{w} {h}\n255\n" + "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_params(args) -> int:
    opt = _resolve("params", args)
    params, _ = _make_system(opt)
    print(f"b          = {params.b}")
    print(f"lambda     = {params.lam!r}")
    print(f"gamma      = {params.gamma!r}")
    print(f"dim        = {params.dim!r}")
    print(f"holder_exp = {params.holder_exp!r}")
    return 0


def cmd_sample(args) -> int:
    opt = _resolve("sample", args)
    params, phi = _make_system(opt)
    points = opt.get_int("points")
    if points < 1:
        raise ValueError("points must be positive")
    xs = (np.arange(points) + 0.5) / points
    ws = wr.eval_w_vec(params, phi, xs, opt.get_float("tol"))
    lines = ["x,w"] + [f"{float(x)!r},{float(w)!r}" for x, w in zip(xs, ws)]
    outdir = _outdir(args)
    atomic_write_text(os.path.join(outdir, "sample.csv"), "\n".join(lines) + "\n")
    summary: dict[str, object] = {"w_min": float(ws.min()), "w_max": float(ws.max())}
    if opt.raw("plot_level"):
        level = opt.get_int("plot_level")
        scale = params.b**level
        lo = math.floor(float(ws.min()) * scale)
        ix = np.floor(xs * scale).astype(int)
        iy = np.floor(ws * scale).astype(int) - lo
        counts = np.zeros((int(iy.max()) + 1, scale), dtype=np.int64)
        np.add.at(counts, (iy, ix), 1)
        _write_pgm(os.path.join(outdir, "sample.pgm"), counts)
        summary["plot"] = "sample.pgm"
    _write_meta(outdir, "sample", opt, summary)
    print(f"wrote sample.csv ({points} points) to {outdir}")
    return 0


def cmd_dim_box(args) -> int:
    opt = _resolve("dim-box", args)
    params, phi = _make_system(opt)
    requested = opt.get_int("samples")
    rep = ms.graph_box_dimension(
        params, phi,
        levels=opt.get_range("levels"),
        n_samples=requested,
        seed=opt.get_int("seed"),
        column_margin=opt.get_int("column_margin"),
        tol=opt.get_float("tol"),
    )
    lines = ["level,count,log_count,slope"]
    for lv, ct, lc in zip(rep.levels, rep.counts, rep.log_counts):
        lines.append(f"{int(lv)},{int(ct)},{float(lc)!r},{float(rep.slope)!r}")
    outdir = _outdir(args)
    atomic_write_text(os.path.join(outdir, "dim_box.csv"), "\n".join(lines) + "\n")
    _write_meta(outdir, "dim-box", opt, {
        "slope": rep.slope, "slope_stderr": rep.slope_stderr,
        "d_reference": rep.d_reference, "n_samples": rep.n_samples,
        "column_level": rep.column_level,
    })
    if rep.n_samples > requested:
        print(f"evaluated {rep.n_samples} points for {requested} requested "
              f"(one per column of level {rep.column_level})")
    print(f"box-count slope {rep.slope:.4f} (reference {rep.d_reference:.4f})")
    return 0


def cmd_dim_entropy(args) -> int:
    opt = _resolve("dim-entropy", args)
    params, phi = _make_system(opt)
    seed = opt.get_int("seed")
    codes = [kn.seeded_code(params.b, seed, i) for i in range(opt.get_int("codes"))]
    rep = ms.alpha_estimate(
        params, phi, codes,
        levels=opt.get_range("levels"),
        n_samples=opt.get_int("samples"),
        seed=seed,
        tol=opt.get_float("tol"),
    )
    lines = ["code_index,level,H,in_window"]
    for ci, curve in enumerate(rep.curves):
        for lv, val in zip(curve.levels, curve.values):
            lines.append(f"{ci},{lv},{val!r},{int(lv in curve.window)}")
    outdir = _outdir(args)
    atomic_write_text(os.path.join(outdir, "dim_entropy.csv"), "\n".join(lines) + "\n")
    _write_meta(outdir, "dim-entropy", opt, {
        "alpha_median": rep.median, "alpha_iqr": rep.iqr,
        "n_codes": len(codes),
    })
    print(f"alpha median {rep.median:.4f} over {len(codes)} codes (iqr {rep.iqr:.4f})")
    return 0


def cmd_kernel(args) -> int:
    opt = _resolve("kernel", args)
    params, phi = _make_system(opt)
    seed = opt.get_int("seed")
    code = _parse_code(params, opt.raw("code"), seed)
    points = opt.get_int("points")
    tol = opt.get_float("tol")
    xs = (np.arange(points) + 0.5) / points
    gs = kn.eval_gamma_vec(params, phi, xs, code, tol)
    ys = kn.eval_y_vec(params, phi, xs, code, tol)
    lines = ["x,y_stable,gamma"]
    for x, y, g in zip(xs, ys, gs):
        lines.append(f"{float(x)!r},{float(y)!r},{float(g)!r}")
    outdir = _outdir(args)
    atomic_write_text(os.path.join(outdir, "kernel.csv"), "\n".join(lines) + "\n")
    _write_meta(outdir, "kernel", opt, {
        "y_sup": float(np.max(np.abs(ys))), "gamma_sup": float(np.max(np.abs(gs))),
    })
    print(f"wrote kernel.csv ({points} points) to {outdir}")
    return 0


def cmd_check_h(args) -> int:
    opt = _resolve("check-h", args)
    params, phi = _make_system(opt)
    seed = opt.get_int("seed")
    rep = kn.condition_h_scan(
        params, phi,
        depth=opt.get_int("depth"),
        samples_per_pair=opt.get_int("pairs"),
        seed=seed,
        grid_size=opt.get_count("grid"),
        tol=opt.get_float("tol"),
    )
    outdir = _outdir(args)
    atomic_write_text(os.path.join(outdir, "check_h.csv"), kn.h_scan_to_csv(rep))
    _write_meta(outdir, "check-h", opt, {
        "classification": rep.classification,
        "min_sep": rep.min_sep, "max_sep": rep.max_sep,
    })
    print(f"classification: {rep.classification} "
          f"(min_sep {rep.min_sep:.3e}, max_sep {rep.max_sep:.3e})")
    return 0


def cmd_transversality(args) -> int:
    opt = _resolve("transversality", args)
    params, phi = _make_system(opt)
    seed = opt.get_int("seed")
    tol = opt.get_float("tol")
    pairs = kn.transversality_pairs(params, seed, count=opt.get_count("pairs_count"))
    history: dict[int, kn.TransversalityReport] = {}
    if opt.raw("l0"):
        l0 = opt.get_int("l0")
        rep = kn.transversality_certificate(params, phi, pairs, l0, tol)
    else:
        l0, history = kn.transversality_stability(
            params, phi, pairs, l0_max=opt.get_int("l0_max"), tol=tol
        )
        rep = history[l0]
    outdir = _outdir(args)
    atomic_write_text(os.path.join(outdir, "transversality.csv"),
                      kn.certificate_to_csv(rep))
    summary: dict[str, object] = {
        "l0": l0, "rho0_hat": rep.rho0_hat, "median_ratio": rep.median_ratio,
        "n_pairs": len(pairs),
    }
    for lv, r in sorted(history.items()):
        summary[f"ratio_level_{lv}"] = r.rho0_hat
    _write_meta(outdir, "transversality", opt, summary)
    print(f"l0 {l0}: rho0_hat {rep.rho0_hat:.4f}, median ratio {rep.median_ratio:.4f}")
    return 0


def cmd_renorm(args) -> int:
    opt = _resolve("renorm", args)
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
    result = ops[op](phi, p)
    outdir = _outdir(args)
    atomic_write_text(os.path.join(outdir, "renorm_phi.txt"),
                      phimod.phi_to_text(result))
    _write_meta(outdir, "renorm", opt, {
        "op": op, "p": p, "n_coeffs": len(result.coeffs),
    })
    print(f"{op} at p={p}: {len(result.coeffs)} coefficients -> renorm_phi.txt")
    return 0


def cmd_period_scan(args) -> int:
    opt = _resolve("period-scan", args)
    params, phi = _make_system(opt)
    try:
        dens = [int(d) for d in opt.raw("denominators").split(",") if d.strip()]
    except ValueError:
        raise ValueError("denominators expects a comma-separated integer list")
    rows = wr.period_scan(
        params, phi,
        k=opt.get_int("k"),
        denominators=dens,
        m_max=opt.get_int("m_max"),
        threshold=opt.get_float("threshold"),
    )
    outdir = _outdir(args)
    atomic_write_text(os.path.join(outdir, "period_scan.csv"),
                      wr.period_rows_to_csv(rows))
    klasses = sorted({r.klass for r in rows})
    _write_meta(outdir, "period-scan", opt, {
        "n_rows": len(rows),
        "classes": ";".join(klasses),
        "n_candidate": sum(r.klass == "candidate-regulating" for r in rows),
    })
    print(f"scanned {len(rows)} candidate periods -> period_scan.csv")
    return 0


def cmd_theta(args) -> int:
    opt = _resolve("theta", args)
    params, phi = _make_system(opt)
    seed = opt.get_int("seed")
    tol = opt.get_float("tol")
    code = kn.seeded_code(params.b, seed, 0)
    n = opt.get_int("n")
    i_level = opt.get_int("i_level")
    m_grid = opt.get_int("m") if opt.raw("m") else params.b
    cap = opt.get_int("cap")
    subsample = opt.get_count("subsample") if opt.raw("subsample") else None
    outdir = _outdir(args)
    if args.experiment:
        rep = fs.entropy_increase_experiment(
            params, phi, code, n, i_level, opt.get_count("k"), m_grid,
            seed=seed, cap=cap, subsample=subsample,
            h_threshold=opt.get_float("h_threshold"),
            max_components=opt.get_count("max_components"),
            tol=tol,
        )
        atomic_write_text(os.path.join(outdir, "theta_experiment.csv"),
                          fs.experiment_to_csv(rep))
        _write_meta(outdir, "theta", opt, {
            "mode": "experiment", "n_components": rep.n_components,
            "n_processed": rep.n_processed, "n_selected": rep.n_selected,
            "n_skipped_small": rep.n_skipped_small,
            "positive_fraction": rep.positive_fraction,
            "message": rep.message or "ok",
        })
        print(f"experiment: {rep.n_selected} components, "
              f"positive-gain fraction {rep.positive_fraction:.3f}"
              + (f" ({rep.message})" if rep.message else ""))
        return 0
    theta = fs.build_theta(params, phi, code, n, cap, subsample, seed, tol)
    if args.dump_cells and len(theta) > 65536:
        raise ValueError(f"cell dump limited to 65536 atoms, theta has {len(theta)}")
    labels, n_cells = fs.theta_cell_labels(theta, i_level, m_grid, tol)  # once, for both outputs
    rep = fs._entropy_report(theta, labels, n_cells, i_level, m_grid)
    header = "n,n_hat,i_level,M,entropy,n_atoms,n_cells,subsampled"
    row = (f"{rep.n},{rep.n_hat},{rep.i_level},{rep.m_grid},{rep.entropy!r},"
           f"{rep.n_atoms},{rep.n_cells},{int(rep.subsampled)}")
    atomic_write_text(os.path.join(outdir, "theta_entropy.csv"),
                      header + "\n" + row + "\n")
    summary: dict[str, object] = {
        "entropy": rep.entropy, "rate": rep.entropy / max(n, 1),
        "n_atoms": rep.n_atoms, "n_cells": rep.n_cells,
    }
    if args.dump_cells:
        atomic_write_text(os.path.join(outdir, "theta_cells.csv"),
                          fs.theta_cells_csv(theta, labels))
        summary["cells_dump"] = "theta_cells.csv"
    _write_meta(outdir, "theta", opt, summary)
    print(f"theta n={n}: entropy {rep.entropy:.4f} over {rep.n_atoms} atoms "
          f"({rep.n_cells} cells)")
    return 0


def cmd_porosity(args) -> int:
    opt = _resolve("porosity", args)
    params, phi = _make_system(opt)
    seed = opt.get_int("seed")
    tol = opt.get_float("tol")
    code = kn.seeded_code(params.b, seed, 0)
    summary: dict[str, object] = {}
    if opt.raw("h"):
        h = opt.get_float("h")
    else:
        alpha = ms.alpha_estimate(params, phi, [code], levels=range(5, 11),
                                  n_samples=1 << 18, seed=seed, tol=tol)
        h = alpha.median
        summary["h_from_alpha"] = h
    scales = opt.get_range("scales")
    rep = ms.porosity_probe(
        params, phi, code, h,
        delta=opt.get_float("delta"),
        m=opt.get_int("m"),
        n1=scales[0], n2=scales[-1],
        level_cap=opt.get_int("level_cap"),
        n_samples=opt.get_int("samples"),
        seed=seed, tol=tol,
    )
    lines = ["scale,low_entropy_share"]
    for sc in sorted(rep.per_scale):
        lines.append(f"{sc},{rep.per_scale[sc]!r}")
    outdir = _outdir(args)
    atomic_write_text(os.path.join(outdir, "porosity.csv"), "\n".join(lines) + "\n")
    summary.update({"fraction": rep.fraction, "porous": rep.porous, "vacuous": rep.vacuous,
                    "h": h})
    if opt.raw("ucas_delta") or args.ucas:
        delta = (opt.get_float("ucas_delta") if opt.raw("ucas_delta")
                 else float(params.b) ** -4)
        urep = ms.ucas_probe(params, phi, [code], delta,
                             n_samples=opt.get_int("samples"), seed=seed, tol=tol)
        summary.update({"ucas_delta": delta, "ucas_sup_ratio": urep.sup_ratio,
                        "ucas_degenerate": urep.degenerate_atom})
        print(f"ucas sup ratio {urep.sup_ratio:.4f} at delta {delta!r}")
    _write_meta(outdir, "porosity", opt, summary)
    verdict = (f"vacuous (h + delta = {rep.threshold:.4f} >= 1)" if rep.vacuous
               else rep.porous)
    print(f"porosity fraction {rep.fraction:.4f} (porous: {verdict})")
    return 0


def cmd_convolve(args) -> int:
    opt = _resolve("convolve", args)
    params, _ = _make_system(opt)
    tf, uf = opt.raw("theta_file"), opt.raw("tau_file")
    if not tf or not uf:
        raise ValueError("convolve needs theta_file and tau_file histogram paths")
    try:
        with open(tf) as fh:
            theta_h = ms.hist_from_text(fh.read(), params.b)
        with open(uf) as fh:
            tau_h = ms.hist_from_text(fh.read(), params.b)
    except OSError as exc:
        raise ValueError(f"cannot read histogram file: {exc}")
    n = opt.get_int("n")
    k = opt.get_int("k")
    gain = fs.convolution_entropy_gain(theta_h, tau_h, n, k)
    outdir = _outdir(args)
    atomic_write_text(
        os.path.join(outdir, "convolve.csv"),
        "n,k,level,H_conv,H_tau,gain\n"
        f"{n},{k},{gain.level},{gain.h_conv!r},{gain.h_tau!r},{gain.gain!r}\n",
    )
    _write_meta(outdir, "convolve", opt, {
        "gain": gain.gain, "h_conv": gain.h_conv, "h_tau": gain.h_tau,
    })
    print(f"gain {gain.gain:.4f} (H_conv {gain.h_conv:.4f}, H_tau {gain.h_tau:.4f})")
    return 0


# ---------------------------------------------------------------------------
# argument wiring


_SWITCHES = {"theta": ("--experiment", "--dump-cells"), "porosity": ("--ucas",)}


def _build_parser() -> argparse.ArgumentParser:
    """One subcommand per ``_DEFAULTS`` entry, with a string flag for each of
    its keys and the common ones: ``--`` + key with ``_`` as ``-``, and
    ``lam`` as ``--lambda``.  Unset flags stay None so config values hold."""
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
            sp.add_argument(flag, dest=key)
        for switch in _SWITCHES.get(name, ()):
            sp.add_argument(switch, action="store_true")
        sp.set_defaults(fn=globals()["cmd_" + name.replace("-", "_")])
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, TypeError) as exc:  # TypeError: a generator the operation cannot take
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
