"""End-to-end checks of the command-line front end.

Commands run in process through ``main(argv)``, which returns the exit
code directly; one test exercises the ``python3 -m weierlab.cli`` entry
point as a subprocess to make sure the module guard stays wired up. That
subprocess runs the same ``weierlab`` package the suite imported (from
``src/`` or from an install), so no install is required.
"""

from __future__ import annotations

import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from weierlab import cli
from weierlab import funcspace as fs
from weierlab import kernel as kn
from weierlab import measure as ms
from weierlab import phi as phimod
from weierlab import weier as wr
from weierlab.cli import _COMMON_DEFAULTS, _DEFAULTS, _build_parser, main

import oracle

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _read(path) -> str:
    with open(path) as fh:
        return fh.read()


def _csv_rows(path) -> list[list[str]]:
    lines = _read(path).strip().splitlines()
    return [ln.split(",") for ln in lines]


# ---------------------------------------------------------------------------
# exit codes and argument handling


def test_params_prints_resolved_parameters(capsys):
    assert main(["params", "--b", "2", "--lambda", "0.7"]) == 0
    out = capsys.readouterr().out
    assert "b          = 2" in out
    assert "lambda     = 0.7" in out
    assert "holder_exp" in out
    assert repr(1.0 / 1.4) in out  # gamma = 1/(b*lam)


def test_params_invalid_lambda_is_exit_2(capsys):
    assert main(["params", "--b", "2", "--lambda", "0.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "lam" in err


def test_unknown_flag_is_exit_2(capsys):
    assert main(["params", "--no-such-flag"]) == 2


def test_missing_command_is_exit_2(capsys):
    assert main([]) == 2


def test_version_flag_is_exit_0(capsys):
    assert main(["--version"]) == 0


def test_non_numeric_option_is_exit_2(tmp_path, capsys):
    assert main(["sample", "--points", "many"]) == 2
    assert "points" in capsys.readouterr().err
    # a tolerance that is not a finite positive number would leave no terms
    for bad in ("inf", "nan", "-1"):
        assert main(["sample", "--points", "16", "--tol", bad, "--out", str(tmp_path)]) == 2
        assert "tol must be a finite positive number" in capsys.readouterr().err
    assert not (tmp_path / "sample.csv").exists()
    # integer options reject fractions and values past float range instead
    # of truncating them; float notation of a whole number (4e6) stays valid
    for argv in (["params", "--b", "2.5"], ["sample", "--points", "3.7"],
                 ["sample", "--points", "1e400"]):
        assert main(argv) == 2
        assert "expects an integer" in capsys.readouterr().err


def test_every_default_key_is_a_flag(capsys):
    parser = _build_parser()
    for name, keys in _DEFAULTS.items():
        for key in [*_COMMON_DEFAULTS, *keys]:
            flag = "--lambda" if key == "lam" else "--" + key.replace("_", "-")
            assert getattr(parser.parse_args([name, flag, "7"]), key) == "7"
    assert main(["params", "--threads", "1"]) == 2


def test_tol_only_where_a_series_is_evaluated(tmp_path):
    for command in ("params", "renorm", "convolve"):
        assert main([command, "--tol", "1e-9", "--out", str(tmp_path)]) == 2


# ---------------------------------------------------------------------------
# every option a run accepts is one it reads


@pytest.mark.parametrize("argv, unread", [
    (["theta", "--n", "4", "--k", "0", "--max-components", "-3", "--h-threshold", "nan"],
     "h_threshold, k, max_components"),
    (["theta", "--experiment", "--dump-cells", "--n", "4"], "dump_cells"),
    (["transversality", "--l0", "1", "--l0-max", "-7"], "l0_max"),
    (["sample", "--seed", "123"], "seed"),
    (["kernel", "--code", "01", "--seed", "77"], "seed"),
    (["check-h", "--phi", "triangle", "--phi-from-w0", "cos"], "phi"),
    (["params", "--phi", "triangle", "--seed", "3"], "phi, seed"),
    (["convolve", "--lambda", "0.8"], "lam"),
], ids=["theta-plain", "theta-experiment", "transversality", "sample", "kernel",
        "check-h", "params", "convolve"])
def test_unread_option_is_exit_2(tmp_path, capsys, argv, unread):
    """Each of these runs used to exit 0 and ignore the option (convolve
    and params silently took the generator, lam and seed they never use)."""
    out = tmp_path / "out"
    if argv[0] == "convolve":
        _ap_hist_file(tmp_path / "h.hist", [0, 1, 2, 3], 2, 8)
        argv = [*argv, "--theta-file", str(tmp_path / "h.hist"),
                "--tau-file", str(tmp_path / "h.hist"), "--n", "4"]
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{argv[0]} does not read option {unread} in this run" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("argv, module, entry", [
    (["theta", "--experiment", "--dump-cells", "--n", "4"], fs, "entropy_increase_experiment"),
    (["theta", "--n", "4", "--k", "3"], fs, "build_theta"),
    (["transversality", "--l0", "2", "--l0-max", "3"], kn, "transversality_certificate"),
    (["sample", "--seed", "1"], wr, "eval_w_vec"),
], ids=["theta-experiment", "theta-plain", "transversality", "sample"])
def test_unread_option_is_refused_before_any_work(tmp_path, capsys, monkeypatch,
                                                  argv, module, entry):
    """Each run used to reach its library entry point and compute in full
    before the unread option was refused."""
    def computed(*args, **kwargs):
        raise AssertionError(f"{entry} ran before the unread option was refused")

    monkeypatch.setattr(module, entry, computed)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert f"{argv[0]} does not read option" in capsys.readouterr().err
    assert not out.exists()


def test_option_read_after_the_check_is_exit_1(capsys, monkeypatch):
    """A read after a command's yield fails the run as a broken invariant,
    so a late read cannot slip past the unread-option check."""
    def late(opt, outdir):
        yield
        opt.get_int("b")

    monkeypatch.setattr(cli, "cmd_params", late)
    assert main(["params"]) == 1
    assert "option b is read after the unread options were refused" in capsys.readouterr().err


def test_unread_config_key_is_exit_2(tmp_path, capsys):
    """A config file's keys count as given: a key the run does not read is
    refused like a flag, and a key no command has any more is unknown."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("points = 16\nseed = 3\n")
    assert main(["sample", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 2
    assert "sample does not read option seed" in capsys.readouterr().err
    cfg.write_text("h = 0.5\nlevel_cap = 26\n")
    assert main(["porosity", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 2
    assert "unknown config keys for porosity: level_cap" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


_POROSITY_SMALL = ["--samples", "4096", "--scales", "2:3", "--m", "2"]


@pytest.mark.parametrize("argv, message", [
    (["sample", "--points", "16", "--plot-level", "-1"], "option plot_level must be nonnegative"),
    (["porosity", "--h", "0.5", "--samples", "4096", "--scales", "2:3", "--m", "2",
      "--ucas-delta", "2"], "unrecognized arguments: --ucas-delta 2"),
    (["kernel", "--points", "0"], "option points must be at least 1"),
    (["dim-box", "--samples", "0", "--levels", "3:6", "--column-margin", "0"],
     "option samples must be at least 1"),
    (["dim-entropy", "--levels", "4:7", "--samples", "0", "--codes", "2"],
     "option samples must be at least 1"),
    (["porosity", "--h", "0.5", "--samples", "0"], "option samples must be at least 1"),
    (["dim-box", "--column-margin", "-3", "--levels", "3:6", "--samples", "10"],
     "column_margin must be nonnegative"),
    (["dim-box", "--column-margin", "-20", "--samples", "100"],
     "column_margin must be nonnegative"),
    (["theta", "--n", "4", "--experiment", "2"], "option experiment expects 0 or 1, got '2'"),
    (["theta", "--n", "6", "--cap", "16", "--subsample", "5000"],
     "subsample 5000 exceeds the b^12 = 4096 words"),
    (["porosity", "--h", "0.5", *_POROSITY_SMALL, "--delta=nan"],
     "delta must lie in the open interval (0, 1), got nan"),
    (["porosity", "--h", "0.5", *_POROSITY_SMALL, "--delta=-0.5"],
     "delta must lie in the open interval (0, 1), got -0.5"),
    (["porosity", "--h", "0.5", *_POROSITY_SMALL, "--delta=2"],
     "delta must lie in the open interval (0, 1), got 2.0"),
    (["porosity", "--h=nan", *_POROSITY_SMALL], "h must be finite, got nan"),
], ids=["plot-level", "ucas-delta", "kernel-points", "dim-box-samples",
        "dim-entropy-samples", "porosity-samples", "margin-3", "margin-20", "switch",
        "theta-subsample", "porosity-delta-nan", "porosity-delta-negative",
        "porosity-delta-2", "porosity-h-nan"])
def test_bad_value_is_exit_2_and_writes_nothing(tmp_path, capsys, argv, message):
    """sample and porosity used to leave their CSV behind with no .meta;
    kernel failed inside numpy; dim-box and dim-entropy exited 0 on no
    samples (slope -0.1620, alpha 0.0000), and dim-box on a margin of -20;
    theta at n = 6, 4,096 words, ran --subsample 5000 on 3,147 of them;
    porosity read a delta of nan or -0.5, and an h of nan, as "porous:
    False", and a delta of 2 as a vacuous verdict."""
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--h", "0.5", "--delta=nan"], "delta must lie in the open interval (0, 1), got nan"),
    (["--delta=-0.5"], "delta must lie in the open interval (0, 1), got -0.5"),
    (["--h=nan"], "h must be finite, got nan"),
], ids=["delta-nan", "delta-negative-alpha", "h-nan"])
def test_porosity_refuses_before_sampling(tmp_path, capsys, monkeypatch, argv, message):
    """porosity --h 0.5 --delta=nan used to sample 2^20 points, and without
    --h the alpha estimate's 2^18, before porosity_probe refused the delta."""
    def sampled(*args, **kwargs):
        raise AssertionError("sampled before the porosity arguments were checked")

    monkeypatch.setattr(ms, "sample_projected_measure", sampled)
    monkeypatch.setattr(ms, "alpha_estimate", sampled)
    assert main(["porosity", *argv, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _meta_keys(path) -> set[str]:
    return {ln.split(" = ")[0] for ln in _read(path).splitlines() if not ln.startswith("#")}


def test_meta_holds_exactly_the_keys_read(tmp_path, capsys):
    common = {"b", "lam", "phi", "phi_from_w0"}
    assert main(["sample", "--points", "8", "--out", str(tmp_path)]) == 0
    assert _meta_keys(tmp_path / "sample.meta") == common | {"points", "plot_level", "tol"}
    assert main(["theta", "--n", "4", "--out", str(tmp_path)]) == 0
    meta = _read(tmp_path / "theta.meta")
    assert "experiment = 0" in meta.splitlines() and "dump_cells = 0" in meta.splitlines()
    assert _meta_keys(tmp_path / "theta.meta") == common | {
        "seed", "tol", "n", "i_level", "m", "cap", "subsample", "experiment", "dump_cells"}
    assert main(["check-h", "--phi-from-w0", "cos", "--grid", "64", "--pairs", "1",
                 "--out", str(tmp_path)]) == 0
    assert "phi" not in _meta_keys(tmp_path / "check-h.meta")


@pytest.mark.parametrize("argv", [
    ["theta", "--experiment", "--n", "6", "--k", "2", "--max-components", "10"],
    ["theta", "--n", "4", "--i-level", "2", "--dump-cells"],
    ["porosity", "--ucas"],
], ids=["theta-experiment", "theta-dump-cells", "porosity-ucas"])
def test_meta_reproduces_a_switched_run(tmp_path, capsys, argv):
    """Switches used to go unrecorded, so the .meta of theta --experiment
    reran the plain entropy and wrote theta_entropy.csv instead."""
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main([*argv, "--out", str(d1)]) == 0
    assert main([argv[0], "--config", str(d1 / f"{argv[0]}.meta"), "--out", str(d2)]) == 0
    data = sorted(p.name for p in d1.iterdir() if p.suffix != ".meta")
    assert sorted(p.name for p in d2.iterdir() if p.suffix != ".meta") == data
    for name in data:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


# ---------------------------------------------------------------------------
# sample


def test_sample_writes_csv_and_meta(tmp_path, capsys):
    assert main(["sample", "--points", "64", "--out", str(tmp_path)]) == 0
    rows = _csv_rows(tmp_path / "sample.csv")
    assert rows[0] == ["x", "w"]
    assert len(rows) == 65
    params = wr.make_params(2, 0.7)
    phi = phimod.cos_phi()
    x0, w0 = float(rows[1][0]), float(rows[1][1])
    assert x0 == 0.5 / 64
    assert abs(w0 - wr.eval_w(params, phi, x0)) < 1e-9
    meta = _read(tmp_path / "sample.meta")
    assert "# command = sample" in meta
    assert "points = 64" in meta
    assert "# w_min" in meta and "# w_max" in meta


def test_sample_runs_are_byte_identical(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert main(["sample", "--points", "128", "--out", str(d)]) == 0
    assert (d1 / "sample.csv").read_bytes() == (d2 / "sample.csv").read_bytes()


def test_sample_pgm_plot(tmp_path, capsys):
    assert main(["sample", "--points", "256", "--plot-level", "3",
                 "--out", str(tmp_path)]) == 0
    pgm = _read(tmp_path / "sample.pgm").splitlines()
    assert pgm[0] == "P2"
    width, height = map(int, pgm[1].split())
    assert width == 8 and height >= 1
    assert pgm[2] == "255"
    assert all(len(ln) <= 70 for ln in pgm)
    values = [int(v) for ln in pgm[3:] for v in ln.split()]
    assert len(values) == width * height
    assert all(0 <= v <= 255 for v in values)


# ---------------------------------------------------------------------------
# configuration files


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = 0.6\npoints = 32\n")
    assert main(["sample", "--config", str(cfg), "--lambda", "0.65",
                 "--out", str(tmp_path)]) == 0
    meta = _read(tmp_path / "sample.meta")
    assert "lam = 0.65" in meta
    assert "points = 32" in meta
    assert len(_csv_rows(tmp_path / "sample.csv")) == 33


def test_meta_file_reproduces_run(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["sample", "--points", "64", "--lambda", "0.8",
                 "--out", str(d1)]) == 0
    assert main(["sample", "--config", str(d1 / "sample.meta"),
                 "--out", str(d2)]) == 0
    assert (d1 / "sample.csv").read_bytes() == (d2 / "sample.csv").read_bytes()


def test_config_unknown_key_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 3\n")
    assert main(["sample", "--config", str(cfg)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_config_malformed_line_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("points 32\n")
    assert main(["sample", "--config", str(cfg)]) == 2
    assert "key = value" in capsys.readouterr().err


def test_missing_config_file_is_exit_2(tmp_path, capsys):
    assert main(["sample", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_env_output_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("WEIERLAB_OUT", str(tmp_path))
    assert main(["renorm", "--op", "rescale", "--p", "2"]) == 0
    phi = phimod.phi_from_text(_read(tmp_path / "renorm_phi.txt"))
    xs = np.array([0.1, 0.3, 0.7])
    np.testing.assert_allclose(phimod.eval_phi(phi, xs),
                               np.cos(2 * np.pi * 2 * xs), atol=1e-12)


def test_out_flag_beats_env(tmp_path, capsys, monkeypatch):
    env_dir, flag_dir = tmp_path / "env", tmp_path / "flag"
    monkeypatch.setenv("WEIERLAB_OUT", str(env_dir))
    assert main(["renorm", "--op", "rescale", "--p", "2",
                 "--out", str(flag_dir)]) == 0
    assert (flag_dir / "renorm_phi.txt").exists()
    assert not env_dir.exists()


# ---------------------------------------------------------------------------
# CSV artifacts

# one small run for each CSV file a command writes
_CSV_RUNS = {
    "sample.csv": ["sample", "--points", "16"],
    "dim_box.csv": ["dim-box", "--levels", "3:5", "--samples", "4096"],
    "dim_entropy.csv": ["dim-entropy", "--codes", "2", "--levels", "3:6", "--samples", "4096"],
    "kernel.csv": ["kernel", "--code", "01", "--points", "16"],
    "check_h.csv": ["check-h", "--grid", "256", "--pairs", "2"],
    "transversality.csv": ["transversality", "--pairs-count", "2", "--l0", "2"],
    "theta_entropy.csv": ["theta", "--n", "4"],
    "theta_cells.csv": ["theta", "--n", "4", "--i-level", "2", "--dump-cells"],
    "theta_experiment.csv": ["theta", "--experiment", "--n", "6", "--k", "2",
                             "--max-components", "10"],
    "porosity.csv": ["porosity", "--h", "0.5", *_POROSITY_SMALL],
    "convolve.csv": ["convolve", "--theta-file", "{hist}", "--tau-file", "{hist}", "--n", "4"],
}


def _readme_headers() -> dict[str, str]:
    """File name to header line, from README's table of CSV artifacts."""
    return dict(re.findall(r"^\| `(\w+\.csv)` \| `([^`]+)`", README.read_text(), re.M))


@pytest.mark.parametrize("name", _CSV_RUNS)
def test_csv_file_contract(tmp_path, capsys, name):
    """Every CSV file has README's header, the header's column count on
    every row, and each float cell printed by repr, so that rereading gives
    the exact binary value; README lists exactly these files."""
    headers = _readme_headers()
    assert set(headers) == set(_CSV_RUNS)
    _ap_hist_file(tmp_path / "h.hist", [0, 1, 2, 3], 2, 8)
    argv = [a.replace("{hist}", str(tmp_path / "h.hist")) for a in _CSV_RUNS[name]]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    header, *rows = _read(tmp_path / "out" / name).splitlines()
    assert header == headers[name]
    assert rows
    for row in rows:
        cells = row.split(",")
        assert len(cells) == len(header.split(",")), row
        for cell in cells:
            try:
                int(cell)
            except ValueError:
                try:
                    value = float(cell)
                except ValueError:
                    continue  # a word such as a class name
                assert repr(value) == cell, row


# ---------------------------------------------------------------------------
# renormalization operators


def test_renorm_removes_pure_cosine(tmp_path, capsys):
    assert main(["renorm", "--op", "renorm", "--p", "2",
                 "--out", str(tmp_path)]) == 0
    assert "# n_coeffs = 0" in _read(tmp_path / "renorm.meta")


@pytest.mark.parametrize("text, message", [
    ("1 0.5 0\n-1 0.5 0\ncos\n", "the named wave 'cos' must be the only line of its file"),
    ("cos theta=0.3 amp=5\n", "a cos line takes only theta=VALUE, got 'amp=5'"),
    ("triangle\n1 0.5 0\n-1 0.5 0\n",
     "the named wave 'triangle' must be the only line of its file"),
], ids=["table-then-cos", "cos-amp", "triangle-then-table"])
def test_phi_file_that_mixes_forms_is_exit_2(tmp_path, capsys, text, message):
    """Each file used to be read as its one named wave: rescale wrote
    ``cos theta=0.0`` for the table, dropped amp, and took the triangle."""
    path = tmp_path / "mixed.phi"
    path.write_text(text)
    out = tmp_path / "out"
    assert main(["renorm", "--op", "rescale", "--p", "1", "--phi", str(path),
                 "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_renorm_unknown_op_is_exit_2(tmp_path, capsys):
    assert main(["renorm", "--op", "fold", "--out", str(tmp_path)]) == 2
    assert "unknown renorm op" in capsys.readouterr().err
    # a Fourier-only operation rejects a piecewise generator the same way
    assert main(["renorm", "--phi", "triangle", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Fourier" in err and len(err.splitlines()) == 1
    assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# dimension estimates


def test_dim_box_small_run(tmp_path, capsys):
    assert main(["dim-box", "--levels", "3:6", "--samples", "2e4",
                 "--out", str(tmp_path)]) == 0
    rows = _csv_rows(tmp_path / "dim_box.csv")
    assert rows[0] == ["level", "count", "log_count", "slope"]
    assert [int(r[0]) for r in rows[1:]] == [1, 2, 3, 4, 5, 6]
    counts = [int(r[1]) for r in rows[1:]]
    assert counts == sorted(counts) and counts[0] >= 1
    slopes = {r[3] for r in rows[1:]}
    assert len(slopes) == 1
    meta = _read(tmp_path / "dim-box.meta")
    assert "# slope = " in meta and "# d_reference = " in meta


def test_dim_box_notes_extra_points(tmp_path, capsys):
    """Base 3 evaluates one point per column of level max(levels) +
    column_margin, far more than requested, and says so on stdout."""
    assert main(["dim-box", "--b", "3", "--lambda", "0.5", "--levels", "3:6",
                 "--samples", "2e4", "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "evaluated 59049 points for 20000 requested (one per column of level 10)"
    assert len(lines) == 3 and lines[1].startswith("box-count slope")
    assert lines[2] == "dichotomy: rough, residual 5.000e-01, onset level 1.7"
    assert "# n_samples = 59049" in _read(tmp_path / "dim-box.meta")


def test_dim_box_reads_the_dichotomy(tmp_path, capsys):
    """A Fourier generator's run prints and records which side of the
    dichotomy W is on; a piecewise one, outside the theorem, neither."""
    base = ["dim-box", "--levels", "3:4", "--samples", "4096"]
    assert main([*base, "--phi-from-w0", "cos", "--out", str(tmp_path / "a")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "dichotomy: analytic"
    meta = _read(tmp_path / "a" / "dim-box.meta").splitlines()
    assert {"# analytic = True", "# residual = 0.0", "# onset_level = inf"} <= set(meta)
    assert main([*base, "--phi", "triangle", "--out", str(tmp_path / "b")]) == 0
    assert "dichotomy" not in capsys.readouterr().out
    assert "# analytic" not in _read(tmp_path / "b" / "dim-box.meta")


def test_dim_box_prints_the_residual_of_an_analytic_lambda(tmp_path, capsys):
    """The twin of 0.6 cos(2 pi x) at lam 0.7 has the coefficient 0.7 x 0.3
    rounded, so 1/0.7 is no exact root: W reads analytic at the float
    nearest the root, and the line keeps the residual that rounding left."""
    table = tmp_path / "w0.txt"
    table.write_text("1 0.3 0\n-1 0.3 0\n")
    assert main(["dim-box", "--levels", "3:4", "--samples", "4096", "--phi-from-w0", str(table),
                 "--out", str(tmp_path / "a")]) == 0
    assert (capsys.readouterr().out.splitlines()[-1]
            == "dichotomy: analytic, residual 1.903e-17, onset level 114.4")
    meta = _read(tmp_path / "a" / "dim-box.meta").splitlines()
    assert "# analytic = True" in meta and "# residual = 0.0" not in meta


def test_dim_entropy_small_run(tmp_path, capsys):
    assert main(["dim-entropy", "--codes", "2", "--levels", "4:7",
                 "--samples", "2e4", "--out", str(tmp_path)]) == 0
    rows = _csv_rows(tmp_path / "dim_entropy.csv")
    assert rows[0] == ["code_index", "level", "H", "in_window"]
    assert {r[0] for r in rows[1:]} == {"0", "1"}
    windowed = [int(r[1]) for r in rows[1:] if r[0] == "0" and r[3] == "1"]
    assert windowed == [4, 5, 6, 7]
    assert "# alpha_median = " in _read(tmp_path / "dim-entropy.meta")


# ---------------------------------------------------------------------------
# stable kernel and condition scans


def test_kernel_matches_library(tmp_path, capsys):
    assert main(["kernel", "--code", "01", "--points", "32",
                 "--out", str(tmp_path)]) == 0
    rows = _csv_rows(tmp_path / "kernel.csv")
    assert rows[0] == ["x", "y_stable", "gamma"]
    assert len(rows) == 33
    params = wr.make_params(2, 0.7)
    phi = phimod.cos_phi()
    code = kn.periodic_code(2, preperiod=(), cycle=(0, 1))
    x0 = float(rows[1][0])
    assert abs(float(rows[1][1]) - kn.eval_y(params, phi, x0, code)) < 1e-9
    assert abs(float(rows[1][2]) - kn.eval_gamma(params, phi, x0, code)) < 1e-9


def test_kernel_code_digit_out_of_base_is_exit_2(tmp_path, capsys):
    assert main(["kernel", "--code", "021", "--out", str(tmp_path)]) == 2
    assert "outside base" in capsys.readouterr().err


def test_kernel_non_real_phi_is_exit_2(tmp_path, capsys):
    """A coefficient file without conjugate symmetry is refused where the
    generator is built, with one line, by every command that builds one:
    before, renorm and period-scan exited 0 and the others failed inside
    numpy.  ``params`` reads no generator, so it refuses ``--phi`` unread."""
    spec = tmp_path / "phi.txt"
    spec.write_text("1 0.5 0\n")
    for command in ("renorm", "sample", "dim-box", "kernel"):
        out = tmp_path / command
        out.mkdir()
        assert main([command, "--phi", str(spec), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: phi must be real: its coefficients "
                                           "are not conjugate symmetric at frequency 1\n")
        assert not any(out.iterdir())


def test_non_finite_phi_is_exit_2(tmp_path, capsys):
    """NaN or infinity in a generator exits 2 with one line naming the
    frequency; const:nan used to write W = 0 everywhere and cos:theta=nan
    W = nan, both with exit 0."""
    spec = tmp_path / "phi.txt"
    spec.write_text("0 nan 0\n1 0.5 0\n-1 0.5 0\n")
    for i, (phi, freq) in enumerate([("const:nan", 0), ("const:inf", 0), (str(spec), 0),
                                     ("cos:theta=nan", 1), ("cos:theta=inf", 1)]):
        out = tmp_path / f"out{i}"
        out.mkdir()
        assert main(["sample", "--phi", phi, "--points", "8", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert f"frequency {freq} is not finite" in captured.err
        assert not any(out.iterdir())


def test_overflowing_series_is_exit_2(tmp_path, capsys):
    """A finite generator whose series bound sup|phi| / (1 - lam) passes
    float range exits 2 with one error line, no warning, and writes
    nothing; sample used to write w = inf with exit 0, and theta printed
    numpy's overflow warning and then a message about cell keys."""
    for cmd, size in [("sample", ["--points", "4"]), ("theta", ["--n", "4"])]:
        out = tmp_path / cmd
        out.mkdir()
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert main([cmd, "--phi", "const:1e308", *size, "--out", str(out)]) == 2
        assert seen == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "overflows float range" in captured.err
        assert not any(out.iterdir())


def test_kernel_seeded_code_spec(tmp_path, capsys):
    assert main(["kernel", "--code", "seed:3", "--points", "8",
                 "--out", str(tmp_path)]) == 0
    assert len(_csv_rows(tmp_path / "kernel.csv")) == 9


def test_check_h_analytic_wave(tmp_path, capsys):
    assert main(["check-h", "--phi-from-w0", "cos", "--grid", "1024",
                 "--pairs", "2", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "H*-evidence" in out
    assert (tmp_path / "check_h.csv").exists()
    assert "classification = H*-evidence" in _read(tmp_path / "check-h.meta")


def test_check_h_thresholds_follow_tol(tmp_path, capsys):
    """The analytic twin's separations are truncation noise within 2 tol, so
    it reads as H*-evidence at any tol; the cosine stays H-evidence."""
    for tol in ("1e-9", "1e-7", "1e-6"):
        assert main(["check-h", "--phi-from-w0", "cos", "--tol", tol,
                     "--out", str(tmp_path)]) == 0
        assert "classification: H*-evidence" in capsys.readouterr().out, tol
    assert main(["check-h", "--phi", "cos", "--out", str(tmp_path)]) == 0
    assert "classification: H-evidence" in capsys.readouterr().out


def test_empty_counts_are_exit_2(tmp_path, capsys):
    """No codes and no samples per pair are refused by name, where
    ``np.percentile`` and ``min()`` used to fail on empty sequences."""
    for argv, message in [
        (["dim-entropy", "--codes", "0"], "at least one code"),
        (["dim-entropy", "--codes", "-2"], "at least one code"),
        (["check-h", "--pairs", "0"], "samples_per_pair must be at least 1"),
    ]:
        assert main([*argv, "--out", str(tmp_path)]) == 2, argv
        assert message in capsys.readouterr().err, argv


@pytest.mark.parametrize("argv, option", [
    (["transversality", "--pairs-count", "0"], "pairs_count"),
    (["transversality", "--pairs-count", "-3"], "pairs_count"),
    (["check-h", "--grid", "0"], "grid"),
    (["check-h", "--grid", "-1"], "grid"),
], ids=["pairs-count-0", "pairs-count-neg", "grid-0", "grid-neg"])
def test_empty_pair_and_grid_counts_name_the_option(tmp_path, capsys, argv, option):
    """No pairs and no grid points are refused by the option's name; numpy
    used to fail on an empty reduction and an empty argmax."""
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert f"option {option} must be at least 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_check_h_rough_wave(tmp_path, capsys):
    assert main(["check-h", "--grid", "1024", "--pairs", "2",
                 "--out", str(tmp_path)]) == 0
    assert "H-evidence" in capsys.readouterr().out


def test_transversality_with_fixed_level(tmp_path, capsys):
    assert main(["transversality", "--pairs-count", "4", "--l0", "2",
                 "--out", str(tmp_path)]) == 0
    rows = _csv_rows(tmp_path / "transversality.csv")
    assert len(rows) > 1
    meta = _read(tmp_path / "transversality.meta")
    assert "# l0 = 2" in meta
    assert "# rho0_hat = " in meta


@pytest.mark.parametrize("flag, value, message", [
    ("--l0", "-1", "l0 must be nonnegative"),
    ("--l0-max", "0", "l0_max must be at least 1"),
], ids=["l0", "l0-max"])
def test_transversality_bad_level_is_exit_2(tmp_path, capsys, flag, value, message):
    """b**-1 made one interval spanning [0, 2), and an empty level range
    failed with a KeyError."""
    assert main(["transversality", "--pairs-count", "2", flag, value,
                 "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "transversality.csv").exists()


def test_transversality_analytic_twin_scores_zero(tmp_path, capsys):
    """The analytic twin's kernel differences are truncation noise, below the
    degenerate floor 2 tol, so every pair is identical and rho0_hat is 0."""
    assert main(["transversality", "--phi-from-w0", "cos", "--l0", "2",
                 "--pairs-count", "4", "--out", str(tmp_path)]) == 0
    assert "rho0_hat 0.0000" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# theta measures


def test_theta_entropy_run(tmp_path, capsys):
    assert main(["theta", "--n", "4", "--i-level", "0",
                 "--out", str(tmp_path)]) == 0
    rows = _csv_rows(tmp_path / "theta_entropy.csv")
    assert rows[0] == ["n", "n_hat", "i_level", "M", "entropy",
                       "n_atoms", "n_cells", "subsampled"]
    n, n_hat, _i, _m, entropy, n_atoms, n_cells, sub = rows[1]
    assert (int(n), int(n_hat)) == (4, 8)
    assert int(n_atoms) == 2**8
    assert 1 <= int(n_cells) <= int(n_atoms)
    assert float(entropy) > 0.0
    assert sub == "0"


def test_theta_dump_cells(tmp_path, capsys):
    assert main(["theta", "--n", "4", "--dump-cells",
                 "--out", str(tmp_path)]) == 0
    rows = _csv_rows(tmp_path / "theta_cells.csv")
    assert rows[0] == ["word", "t", "cell_id"]
    assert len(rows) == 1 + 2**8
    assert all(len(r[0]) == 8 for r in rows[1:])


def test_theta_cells_csv_matches_per_atom_rows(tmp_path, capsys):
    """The dump's column-joined words equal the per-atom rows of
    ``oracle`` byte for byte, including bases of two-character digits and
    a word of length zero."""
    for b, lam, n, sub in [(2, 0.7, 6, None), (3, 0.5, 3, None), (11, 0.5, 1, None),
                           (13, 0.6, 1, 500), (2, 0.7, 30, 500), (2, 0.7, 0, None)]:
        out = tmp_path / f"{b}-{n}"
        argv = ["theta", "--b", str(b), "--lambda", str(lam), "--n", str(n), "--cap", "65536",
                "--i-level", "1", "--dump-cells", "--out", str(out)]
        assert main(argv + (["--subsample", str(sub)] if sub else [])) == 0
        th = fs.build_theta(wr.make_params(b, lam), phimod.cos_phi(), kn.seeded_code(b, 0, 0), n,
                            cap=1 << 16, subsample=sub)
        labels, _ = fs.theta_cell_labels(th, 1, b)
        assert _read(out / "theta_cells.csv") == oracle.theta_cells_rows(th, labels), (b, n)


def test_theta_dump_cells_over_cap_is_exit_2(tmp_path, capsys):
    assert main(["theta", "--n", "9", "--dump-cells",
                 "--out", str(tmp_path)]) == 2
    assert "65536" in capsys.readouterr().err


def test_theta_negative_i_level_is_exit_2(tmp_path, capsys):
    """Level -1 used to pass and report more entropy than level 0."""
    for extra in ([], ["--experiment"]):
        assert main(["theta", "--n", "4", "--i-level", "-1", *extra,
                     "--out", str(tmp_path)]) == 2
        assert "i_level must be nonnegative" in capsys.readouterr().err


def test_theta_subsample_past_int64_is_exit_2(tmp_path, capsys):
    assert main(["theta", "--b", "10", "--lambda", "0.95", "--n", "4",
                 "--subsample", "1000", "--out", str(tmp_path)]) == 2
    assert "2^63" in capsys.readouterr().err


@pytest.mark.parametrize("extra,option", [
    (["--cap", "16", "--subsample", "-5"], "subsample"),
    (["--cap", "16", "--subsample", "0"], "subsample"),
    (["--experiment", "--k", "0"], "k"),
    (["--experiment", "--k", "-1"], "k"),
    (["--experiment", "--max-components", "-3"], "max_components"),
], ids=["subsample-5", "subsample0", "k0", "k-1", "max_components-3"])
def test_theta_counts_below_one_are_exit_2(tmp_path, capsys, extra, option):
    """--subsample -5 used to exit 0 on a theta short of five draws, and
    the others failed inside numpy or with a traceback."""
    assert main(["theta", "--n", "8", *extra, "--out", str(tmp_path)]) == 2
    assert f"option {option} must be at least 1" in capsys.readouterr().err


def test_theta_nan_h_threshold_is_exit_2(tmp_path, capsys):
    """A nan threshold used to select every component."""
    assert main(["theta", "--n", "4", "--experiment", "--h-threshold", "nan",
                 "--out", str(tmp_path)]) == 2
    assert "h_threshold" in capsys.readouterr().err


def test_theta_passes_tol_to_labels(tmp_path, capsys, monkeypatch):

    seen = []
    labels = fs.theta_cell_labels

    def spy(theta, i_level, m_grid, tol=1e-9):
        seen.append(tol)
        return labels(theta, i_level, m_grid, tol)

    monkeypatch.setattr(fs, "theta_cell_labels", spy)
    assert main(["theta", "--n", "4", "--tol", "1e-6", "--out", str(tmp_path)]) == 0
    assert seen == [1e-6]


def test_theta_dump_cells_labels_once(tmp_path, capsys, monkeypatch):
    """The entropy and the cell dump share one labelling of the atoms."""

    calls = []
    labels = fs.theta_cell_labels

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return labels(*args, **kwargs)

    monkeypatch.setattr(fs, "theta_cell_labels", counted)
    assert main(["theta", "--n", "4", "--i-level", "2", "--dump-cells",
                 "--out", str(tmp_path)]) == 0
    assert calls == [(2, 2, 1e-9)]


def test_theta_experiment(tmp_path, capsys):
    assert main(["theta", "--experiment", "--n", "6", "--i-level", "0",
                 "--k", "2", "--max-components", "10",
                 "--out", str(tmp_path)]) == 0
    rows = _csv_rows(tmp_path / "theta_experiment.csv")
    assert rows[0] == ["n", "i_level", "k", "component_id", "H_eta", "gain"]
    meta = _read(tmp_path / "theta.meta")
    assert "# mode = experiment" in meta
    assert "# positive_fraction = " in meta


def test_seeded_experiment_csv_is_byte_identical(tmp_path, capsys):
    argv = ["theta", "--experiment", "--n", "6", "--k", "2", "--max-components", "10",
            "--seed", "7"]
    texts = []
    for name in ("a", "b"):
        assert main([*argv, "--out", str(tmp_path / name)]) == 0
        texts.append(_read(tmp_path / name / "theta_experiment.csv"))
    assert texts[0] == texts[1]
    assert len(texts[0].splitlines()) > 1


# ---------------------------------------------------------------------------
# porosity


@pytest.mark.parametrize("argv, message", [
    (["dim-box", "--levels=-2:4", "--samples", "4096"],
     "option levels must have nonnegative bounds, got '-2:4'"),
    (["dim-entropy", "--levels=-1:4", "--samples", "4096", "--codes", "2"],
     "option levels must have nonnegative bounds, got '-1:4'"),
    (["dim-box", "--levels", "0:4", "--samples", "4096"],
     "graph_box_dimension levels must be at least 1, got 0"),
    (["dim-entropy", "--levels", "0:4", "--samples", "4096", "--codes", "2"],
     "alpha_estimate levels must be at least 1, got 0"),
    (["porosity", "--h", "0.5", "--scales=-3:2"],
     "option scales must have nonnegative bounds, got '-3:2'"),
    (["porosity", "--scales=-3:2"], "option scales must have nonnegative bounds"),
    (["porosity", "--h", "0.5", "--delta", "x"], "option delta expects a number"),
    (["porosity", "--delta", "x"], "option delta expects a number"),
    (["porosity", "--h", "0.5", "--ucas", "2"], "option ucas expects 0 or 1"),
], ids=["dim-box", "dim-entropy", "dim-box-0", "dim-entropy-0", "porosity", "porosity-alpha",
        "delta", "delta-alpha", "ucas"])
def test_bad_window_is_exit_2_before_sampling(tmp_path, capsys, monkeypatch, argv, message):
    """dim-box --levels=-2:4 and dim-entropy --levels=-1:4 used to exit 0
    with a slope over levels 1..4; porosity sampled its 2^20 points (and,
    without --h, the alpha estimate's) before it refused a negative scale
    or read --delta and --ucas."""
    sampled = []
    lattice = ms.WLattice

    def spy(*args, **kwargs):
        sampled.append(args[2])
        return lattice(*args, **kwargs)

    monkeypatch.setattr(ms, "WLattice", spy)
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert sampled == []


def test_porosity_quick_run(tmp_path, capsys):
    assert main(["porosity", "--h", "0.9", "--samples", "65536",
                 "--scales", "3:6", "--m", "3", "--ucas",
                 "--out", str(tmp_path)]) == 0
    rows = _csv_rows(tmp_path / "porosity.csv")
    assert rows[0] == ["scale", "low_entropy_share"]
    assert len(rows) > 1
    assert all(0.0 <= float(r[1]) <= 1.0 for r in rows[1:])
    out = capsys.readouterr().out
    assert "ucas sup ratio" in out
    assert "porosity fraction" in out
    meta = _read(tmp_path / "porosity.meta")
    assert "# ucas_delta = 0.0625" in meta


@pytest.mark.parametrize("extra,verdict,vacuous", [
    ([], "porous: vacuous (h + delta = 1.0957 >= 1)", True),  # h is the alpha median, 0.9957
    (["--phi-from-w0", "cos"], "porous: True", False),  # the twin's h is 0
    (["--h", "0.5"], "porous: False", False),
], ids=["cos", "twin", "cos-h0.5"])
def test_porosity_says_when_its_verdict_is_vacuous(tmp_path, capsys, extra, verdict, vacuous):
    """Once h + delta >= 1 every component's rate is below it, so every
    measure would read porous: the command says so rather than "True"."""
    assert main(["porosity", *extra, "--out", str(tmp_path)]) == 0
    assert f"({verdict})" in capsys.readouterr().out
    assert f"# vacuous = {vacuous}" in _read(tmp_path / "porosity.meta")


# ---------------------------------------------------------------------------
# convolution


def _ap_hist_file(path, keys, b, level):
    centers = (np.asarray(keys, dtype=np.float64) + 0.25) / b**level
    hist = ms.histogram_from_values(centers, b, level)
    path.write_text(ms.hist_to_text(hist))


def test_convolve_arithmetic_progressions(tmp_path, capsys):
    """Transverse progressions double the cell count, gaining half a digit
    per convolution step at k=4."""
    tf, uf = tmp_path / "theta.hist", tmp_path / "tau.hist"
    _ap_hist_file(tf, [0, 4, 8, 12], 2, 8)
    _ap_hist_file(uf, [0, 1, 2, 3], 2, 8)
    assert main(["convolve", "--theta-file", str(tf), "--tau-file", str(uf),
                 "--n", "4", "--k", "4", "--out", str(tmp_path)]) == 0
    rows = _csv_rows(tmp_path / "convolve.csv")
    assert rows[0] == ["n", "k", "level", "H_conv", "H_tau", "gain"]
    n, k, level, h_conv, h_tau, gain = rows[1]
    assert (int(n), int(k), int(level)) == (4, 4, 8)
    assert abs(float(h_conv) - 4.0) < 1e-12
    assert abs(float(h_tau) - 2.0) < 1e-12
    assert abs(float(gain) - 0.5) < 1e-12
    assert "gain 0.5000" in capsys.readouterr().out


def test_convolve_missing_file_option_is_exit_2(tmp_path, capsys):
    assert main(["convolve", "--out", str(tmp_path)]) == 2
    assert "theta_file" in capsys.readouterr().err


def test_convolve_unreadable_file_is_exit_2(tmp_path, capsys):
    assert main(["convolve", "--theta-file", str(tmp_path / "no.hist"),
                 "--tau-file", str(tmp_path / "no.hist"),
                 "--out", str(tmp_path)]) == 2
    assert "cannot read histogram file" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("", "header"),
    ("# only a comment\n", "header"),
    ("3 8 0 1\n0 1.0\n", "dimension must be 1"),
    ("2 8 0 1 0 1\n0,0 1.0\n", "dimension must be 1"),
    ("1 6 0 1\n", "histogram has zero total mass"),
    ("1 8 0 1\n0 nan\n1 1.0\n", "finite and nonnegative"),
    ("1 8 0 1\n0 -0.5\n1 1.0\n", "finite and nonnegative"),
    ("1 8 0 1\n0 inf\n1 1.0\n", "finite and nonnegative"),
], ids=["empty", "no-header", "dim-3", "dim-2", "no-cells", "nan", "negative", "inf"])
def test_convolve_bad_histogram_file_is_exit_2(tmp_path, capsys, text, message):
    """A file that is not a histogram is refused: an empty one used to end in
    an IndexError traceback, and a nan, negative or inf mass in a gain."""
    bad, good = tmp_path / "bad.hist", tmp_path / "good.hist"
    bad.write_text(text)
    _ap_hist_file(good, [0, 1, 2, 3], 2, 8)
    assert main(["convolve", "--theta-file", str(bad), "--tau-file", str(good),
                 "--n", "4", "--k", "4", "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "convolve.csv").exists()


@pytest.mark.parametrize("level, n, message", [
    (-3, -7, "histogram level must be nonnegative"),
    (3, -1, "n must be nonnegative"),
], ids=["level", "n"])
def test_convolve_negative_level_is_exit_2(tmp_path, capsys, level, n, message):
    """A negative level is no b-adic partition: it used to pass the checks
    whenever n + k matched it, and write a gain."""
    path = tmp_path / "two.hist"
    path.write_text(f"1 {level} 0 1\n0 1.0\n1 1.0\n")
    assert main(["convolve", "--theta-file", str(path), "--tau-file", str(path),
                 "--n", str(n), "--k", "4", "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "convolve.csv").exists()


# ---------------------------------------------------------------------------
# module entry point


def test_module_entry_point_subprocess(tmp_path):
    # The child imports the same ``weierlab`` package this suite imported:
    # the directory that holds it goes on PYTHONPATH, and the child runs in
    # tmp_path so that no ``weierlab/`` under the start directory shadows it.
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(wr.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "weierlab.cli", "params"],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": pkg_root},
    )
    assert proc.returncode == 0, proc.stderr
    assert "lambda     = 0.7" in proc.stdout
