"""End-to-end checks of the command-line front end.

Commands run in process through ``main(argv)``, which returns the exit
code directly; one test exercises the ``python3 -m weierlab.cli`` entry
point as a subprocess to make sure the module guard stays wired up. That
subprocess runs the same ``weierlab`` package the suite imported (from
``src/`` or from an install), so no install is required.
"""

from __future__ import annotations

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from weierlab import kernel as kn
from weierlab import measure as ms
from weierlab import phi as phimod
from weierlab import weier as wr
from weierlab.cli import _COMMON_DEFAULTS, _DEFAULTS, _build_parser, main


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
    for command in ("params", "renorm", "period-scan", "convolve"):
        assert main([command, "--tol", "1e-9", "--out", str(tmp_path)]) == 2


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
        assert main(["sample", "--points", "128", "--seed", "5",
                     "--out", str(d)]) == 0
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
# renormalization operators


def test_renorm_removes_pure_cosine(tmp_path, capsys):
    assert main(["renorm", "--op", "renorm", "--p", "2",
                 "--out", str(tmp_path)]) == 0
    assert "# n_coeffs = 0" in _read(tmp_path / "renorm.meta")


def test_renorm_unknown_op_is_exit_2(tmp_path, capsys):
    assert main(["renorm", "--op", "fold", "--out", str(tmp_path)]) == 2
    assert "unknown renorm op" in capsys.readouterr().err
    # the Fourier-only commands reject a piecewise generator the same way
    for command in ("renorm", "period-scan"):
        assert main([command, "--phi", "triangle", "--out", str(tmp_path)]) == 2
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
    assert len(lines) == 2 and lines[1].startswith("box-count slope")
    assert "# n_samples = 59049" in _read(tmp_path / "dim-box.meta")


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
    generator is built, with one line, by every command: before, params,
    renorm and period-scan exited 0 and the others failed inside numpy."""
    spec = tmp_path / "phi.txt"
    spec.write_text("1 0.5 0\n")
    for command in ("params", "renorm", "period-scan", "sample", "dim-box", "kernel"):
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


def test_transversality_analytic_twin_scores_zero(tmp_path, capsys):
    """The analytic twin's kernel differences are truncation noise, below the
    degenerate floor 2 tol, so every pair is identical and rho0_hat is 0."""
    assert main(["transversality", "--phi-from-w0", "cos", "--l0", "2",
                 "--pairs-count", "4", "--out", str(tmp_path)]) == 0
    assert "rho0_hat 0.0000" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# period scan


def test_period_scan_classes(tmp_path, capsys):
    assert main(["period-scan", "--denominators", "2,3,4", "--k", "2",
                 "--out", str(tmp_path)]) == 0
    rows = _csv_rows(tmp_path / "period_scan.csv")
    assert rows[0] == ["t_num", "t_den", "k", "E_lo", "E_hi", "class"]
    classes = {(r[0], r[1]): r[5] for r in rows[1:]}
    assert classes[("1", "2")] == "trivial"
    assert classes[("1", "3")] == "non-regulating"
    assert "# n_rows = " in _read(tmp_path / "period-scan.meta")


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


def test_theta_passes_tol_to_labels(tmp_path, capsys, monkeypatch):
    from weierlab import funcspace as fs

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
    from weierlab import funcspace as fs

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


# ---------------------------------------------------------------------------
# porosity


def test_porosity_quick_run(tmp_path, capsys):
    assert main(["porosity", "--h", "0.9", "--samples", "65536",
                 "--scales", "3:6", "--m", "3", "--ucas-delta", "0.0625",
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
    ("3 8 0 1\n0 1.0\n", "dimension must be 1 or 2"),
    ("1 8 0 1\n0 nan\n1 1.0\n", "finite and nonnegative"),
    ("1 8 0 1\n0 -0.5\n1 1.0\n", "finite and nonnegative"),
    ("1 8 0 1\n0 inf\n1 1.0\n", "finite and nonnegative"),
], ids=["empty", "no-header", "dim-3", "nan", "negative", "inf"])
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
