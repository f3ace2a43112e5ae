"""Smoke test: every script in scripts/ runs to exit 0 on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("run_sweep.py", ["--images", "1", "--snr", "10"]),
    ("train_toy_codec.py", ["--steps", "10"]),
    ("run_security_eval.py", ["--trials", "100", "--pairs", "200"]),
])
def test_script_runs(tmp_path, script, args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout
