"""Smoke tests for the helper scripts in scripts/."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_calibrate_prints_one_line_per_value():
    # one value and one seed: a clear and a foggy outdoor run
    [line] = run_script("calibrate_return_model.py", "--values", "90", "--seeds", "0")
    match = re.fullmatch(r"r0=\s*90\.0  clear=\[([\d.]+)\]  foggy=\[([\d.]+)\]", line)
    assert match, line
    clear, foggy = map(float, match.groups())
    assert foggy < clear
