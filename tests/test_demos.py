"""Every demo script runs to completion and prints its report.

Each ``demos/*.py`` runs in its own interpreter, as a reader would start
it, against the same ``weierlab`` package this suite imported: the
directory that holds it goes on PYTHONPATH, as in ``test_cli.py``.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import weierlab

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(weierlab.__file__)))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": pkg_root},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
