"""Each demo script runs to completion against the source tree."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(shutil.which("sh") is None, reason="no POSIX sh")
def test_cli_session_runs(tmp_path):
    """The shell demo, with `unimod` on PATH running the source tree."""
    sh = shutil.which("sh")
    shim = tmp_path / "unimod"
    shim.write_text(f'#!{sh}\nexec "{sys.executable}" -m unimod.cli "$@"\n')
    shim.chmod(0o755)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PATH=os.pathsep.join([str(tmp_path), os.environ.get("PATH", "")]))
    proc = subprocess.run([sh, str(ROOT / "demos" / "cli_session.sh")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "\n10080\n" in proc.stdout  # |Aut| of graphic complete:7
