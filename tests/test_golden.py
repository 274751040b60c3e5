"""Golden outputs: every bundled config at seed 0 must reproduce the recorded
sha256 of its track/truth/scans/metrics CSVs byte for byte.

The outputs must not depend on which OpenBLAS kernel numpy runs either.

A change that means to alter outputs regenerates the hashes and says why:

    PYTHONPATH=src python tests/test_golden.py > tests/golden/outputs.sha256
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from rosetrack.config import parse_config
from rosetrack.harness import export_csv, run_many

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden" / "outputs.sha256"
NAMES = ("track", "truth", "scans", "metrics")


def golden_lines(out_dir: Path) -> list[str]:
    """One ``sha256sum``-style line per CSV, configs in sorted order."""
    paths = sorted(CONFIG_DIR.glob("*.cfg"))
    results = run_many([parse_config(path, ["run.seed=0"]) for path in paths])
    lines = []
    for path, result in zip(paths, results):
        for name in NAMES:
            csv = out_dir / f"{path.stem}_{name}.csv"
            export_csv(getattr(result, name), csv)
            digest = hashlib.sha256(csv.read_bytes()).hexdigest()
            lines.append(f"{digest}  {path.stem}/{name}.csv")
    return lines


def test_bundled_configs_match_golden_hashes(tmp_path):
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert golden_lines(tmp_path) == expected


def test_golden_hashes_hold_under_another_blas_kernel(tmp_path):
    # OPENBLAS_CORETYPE=Prescott asks for a kernel without FMA (OpenBLAS may
    # pick a close one); the kernel is chosen at import, so the run needs its
    # own process
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-m", "rosetrack.cli", "run",
                    str(CONFIG_DIR / "indoor_lock.cfg"), "--seed", "0", "--out-dir", str(tmp_path)],
                   env=env, check=True, capture_output=True)
    got = [f"{hashlib.sha256((tmp_path / f'{name}.csv').read_bytes()).hexdigest()}  "
           f"indoor_lock/{name}.csv" for name in NAMES]
    expected = [line for line in GOLDEN.read_text(encoding="utf-8").splitlines()
                if "  indoor_lock/" in line]
    assert got == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print("\n".join(golden_lines(Path(tmp))))
    sys.exit(0)
