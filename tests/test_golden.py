"""Golden outputs: every bundled config at seed 0 must reproduce the recorded
sha256 of its track/truth/scans/metrics CSVs byte for byte.

A change that means to alter outputs regenerates the hashes and says why:

    PYTHONPATH=src python tests/test_golden.py > tests/golden/outputs.sha256
"""

import hashlib
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print("\n".join(golden_lines(Path(tmp))))
    sys.exit(0)
