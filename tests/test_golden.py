"""Byte identity of the command line and the demos.

``tests/golden.json`` holds sha256 digests for a fixed set of small CLI
runs and for every demo.  For a run they cover each data file it writes,
its stdout, and its ``.meta`` without the timestamp line; for a demo, its
stdout.  The temporary directory's path reads ``TMP`` in stdout and in the
``.meta`` before hashing.  The digests hold for the numpy and Python
versions recorded beside them; under other versions the test fails with a
message naming both, since float output may then change legitimately.

A digest change is an output change: the change that makes it lists each
changed file and its reason in CHANGES.md.  Run as a script, this file
prints the digests of the current tree in the layout of ``golden.json``,
or with ``--write`` rewrites ``golden.json``:

    PYTHONPATH=src python tests/test_golden.py [--write]
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import platform
import runpy
import sys
import tempfile

import numpy as np
import pytest

from weierlab import measure as ms
from weierlab import phi as phimod
from weierlab.cli import _DEFAULTS, main

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden.json"
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# Every option given here is one the run reads.  {tmp} is the directory
# that holds the input files: a general coefficient table, the twin's
# table of an analytic W and the two convolve histograms.
RUNS = {
    "params": "params",
    "params-b3": "params --b 3 --lambda 0.5",
    "sample": "sample --points 64",
    "sample-plot": "sample --points 256 --plot-level 3",
    "sample-triangle": "sample --points 32 --phi triangle --lambda 0.6",
    "sample-twin": "sample --points 32 --phi-from-w0 cos",
    "sample-phase": "sample --points 32 --phi cos:theta=0.3",
    "sample-table-b3": "sample --points 27 --b 3 --lambda 0.5 --phi {tmp}/table.phi",
    "dim-box": "dim-box --levels 3:6 --samples 2e4",
    "dim-box-b3": "dim-box --b 3 --lambda 0.5 --levels 3:6 --samples 2e4",
    "dim-box-margin": "dim-box --levels 3:5 --samples 4096 --column-margin 1 --seed 3",
    "dim-box-near-analytic": ("dim-box --phi {tmp}/twin.phi --lambda 0.699 --levels 3:6 "
                              "--samples 2e4"),
    "dim-entropy": "dim-entropy --codes 2 --levels 4:7 --samples 2e4",
    "dim-entropy-triangle": "dim-entropy --codes 2 --levels 3:6 --samples 4096 --phi triangle",
    "kernel": "kernel --code 01 --points 32",
    "kernel-seeded": "kernel --code seed:3 --points 16 --seed 2",
    "kernel-triangle": "kernel --code 1|01 --points 16 --phi triangle",
    "kernel-table": "kernel --code 01 --points 16 --phi {tmp}/table.phi",
    "check-h": "check-h --grid 1024 --pairs 2",
    "check-h-twin": "check-h --phi-from-w0 cos --grid 1024 --pairs 2",
    "check-h-b3": "check-h --b 3 --lambda 0.5 --phi cos:theta=0.3 --grid 512 --pairs 2",
    "transversality-l0": "transversality --pairs-count 4 --l0 2",
    "transversality-scan": "transversality --pairs-count 4 --l0-max 2",
    "renorm": "renorm --op renorm --p 2",
    "renorm-rescale": "renorm --op rescale --p 2",
    "renorm-twin": "renorm --op pre --p 2 --phi-from-w0 cos",
    "theta": "theta --n 4",
    "theta-b3": "theta --b 3 --lambda 0.5 --n 3 --phi triangle",
    "theta-dump": "theta --n 4 --i-level 2 --dump-cells",
    "theta-subsample": "theta --n 6 --cap 16 --subsample 32 --seed 1",
    "theta-subsample-dump": "theta --n 6 --cap 16 --subsample 32 --seed 1 --dump-cells",
    "theta-experiment": "theta --experiment --n 6 --k 2 --max-components 10",
    "porosity": "porosity --h 0.5 --samples 4096 --scales 2:3 --m 2",
    "porosity-alpha": "porosity --samples 4096 --scales 2:3 --m 2",
    "porosity-ucas": "porosity --h 0.9 --samples 65536 --scales 3:6 --m 3 --ucas",
    "convolve": "convolve --theta-file {tmp}/theta.hist --tau-file {tmp}/tau.hist --n 4 --k 4",
}


def _versions() -> dict[str, str]:
    return {"numpy": np.__version__, "python": platform.python_version()}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_inputs(tmp: pathlib.Path) -> None:
    """A real three-frequency table, the table of phi_from_w0(cos, 2, 0.7),
    whose W is cos at lam 0.7 alone, and the two histogram files of the
    convolve run: transverse progressions."""
    (tmp / "table.phi").write_text("-3 0.125 -0.25\n-1 0.5 0\n0 0.25 0\n1 0.5 0\n3 0.125 0.25\n")
    (tmp / "twin.phi").write_text(phimod.phi_to_text(phimod.phi_from_w0(phimod.cos_phi(), 2, 0.7)))
    for name, keys in (("theta", [0, 4, 8, 12]), ("tau", [0, 1, 2, 3])):
        centers = (np.asarray(keys, dtype=np.float64) + 0.25) / 2**8
        (tmp / f"{name}.hist").write_text(ms.hist_to_text(ms.histogram_from_values(centers, 2, 8)))


def _without_tmp(text: str, tmp: pathlib.Path) -> bytes:
    return text.replace(str(tmp), "TMP").encode()


def run_digests(name: str, tmp: pathlib.Path) -> dict[str, str]:
    """Digests of one CLI run: each file it writes (``params`` writes
    none), and its stdout."""
    out = tmp / ("out-" + name)
    argv = [a.replace("{tmp}", str(tmp)) for a in RUNS[name].split()]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([*argv, "--out", str(out)])
    assert code == 0, name
    digests = {"stdout": _sha(_without_tmp(buf.getvalue(), tmp))}
    for path in sorted(out.iterdir()) if out.exists() else ():
        if path.suffix == ".meta":
            lines = path.read_text().splitlines(keepends=True)
            data = _without_tmp("".join(ln for ln in lines
                                        if not ln.startswith("# timestamp = ")), tmp)
        else:
            data = path.read_bytes()
        digests[path.name] = _sha(data)
    return digests


def demo_digest(demo: pathlib.Path) -> str:
    """Digest of a demo's stdout, the demo run in this interpreter."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        runpy.run_path(str(demo), run_name="__main__")
    return _sha(buf.getvalue().encode())


def all_digests() -> dict:
    with tempfile.TemporaryDirectory() as d:
        tmp = pathlib.Path(d)
        _write_inputs(tmp)
        return {
            "versions": _versions(),
            "runs": {name: run_digests(name, tmp) for name in RUNS},
            "demos": {demo.stem: demo_digest(demo) for demo in DEMOS},
        }


@pytest.fixture(scope="module")
def golden() -> dict:
    recorded = json.loads(GOLDEN.read_text())
    if recorded["versions"] != _versions():
        pytest.fail(f"digests taken under {recorded['versions']}, running {_versions()}")
    return recorded


@pytest.mark.parametrize("name", RUNS)
def test_cli_run_is_byte_identical(golden, tmp_path, name):
    _write_inputs(tmp_path)
    assert run_digests(name, tmp_path) == golden["runs"][name]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_stdout_is_byte_identical(golden, demo):
    assert demo_digest(demo) == golden["demos"][demo.stem]


def test_golden_covers_every_run_and_demo(golden):
    assert set(golden["runs"]) == set(RUNS)
    assert set(_DEFAULTS) <= {run.split()[0] for run in RUNS.values()}
    assert set(golden["demos"]) == {demo.stem for demo in DEMOS}


if __name__ == "__main__":
    text = json.dumps(all_digests(), indent=1, sort_keys=True) + "\n"
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(text)
    else:
        sys.stdout.write(text)
