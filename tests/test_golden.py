"""Golden outputs: every bundled config at seed 0 must reproduce the recorded
sha256 of its track/truth/scans/metrics CSVs byte for byte.

The outputs must not depend on which OpenBLAS kernel numpy runs either.

The hashed files are those that
``rosetrack run configs/*.cfg --override run.seed=0 --out-dir D`` writes into
D/<config stem>/. A change that means to alter outputs regenerates the hashes
and says why:

    python tests/test_golden.py > tests/golden/outputs.sha256
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden" / "outputs.sha256"
NAMES = ("track", "truth", "scans", "metrics")


def src_env(**extra) -> dict[str, str]:
    """This environment with src/ first on PYTHONPATH, plus extra variables."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p), **extra)


def golden_lines(out_dir: Path) -> list[str]:
    """One ``sha256sum``-style line per CSV that ``rosetrack run`` writes for
    every bundled config at seed 0, configs in sorted order."""
    paths = sorted(CONFIG_DIR.glob("*.cfg"))
    subprocess.run([sys.executable, "-m", "rosetrack.cli", "run", *map(str, paths),
                    "--override", "run.seed=0", "--out-dir", str(out_dir)],
                   env=src_env(), check=True, capture_output=True, timeout=600)
    return [f"{hashlib.sha256((out_dir / path.stem / f'{name}.csv').read_bytes()).hexdigest()}  "
            f"{path.stem}/{name}.csv"
            for path in paths for name in NAMES]


def test_bundled_configs_match_golden_hashes(tmp_path):
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert golden_lines(tmp_path) == expected


def test_golden_hashes_hold_under_another_blas_kernel(tmp_path):
    # OPENBLAS_CORETYPE=Prescott asks for a kernel without FMA (OpenBLAS may
    # pick a close one); the kernel is chosen at import, so the run needs its
    # own process
    subprocess.run([sys.executable, "-m", "rosetrack.cli", "run",
                    str(CONFIG_DIR / "indoor_lock.cfg"), "--override", "run.seed=0",
                    "--out-dir", str(tmp_path)],
                   env=src_env(OPENBLAS_CORETYPE="Prescott"), check=True, capture_output=True)
    got = [f"{hashlib.sha256((tmp_path / f'{name}.csv').read_bytes()).hexdigest()}  "
           f"indoor_lock/{name}.csv" for name in NAMES]
    expected = [line for line in GOLDEN.read_text(encoding="utf-8").splitlines()
                if "  indoor_lock/" in line]
    assert got == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print("\n".join(golden_lines(Path(tmp))))
    sys.exit(0)
