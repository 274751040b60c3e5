"""Workload table and the one-scenario step shared by the benchmark scripts.

The benchmark lives outside the package: it imports ``rosetrack`` from the
``src/`` directory of the checkout that holds this directory, and refuses to
run against any other copy, so a checkout without sources fails instead of
measuring something else.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
DIGEST_FILE = BENCH_DIR / "digests.json"
OUT_DIR = BENCH_DIR / "out"
CSV_NAMES = ("track", "truth", "scans", "metrics")


def import_rosetrack():
    """Import the package from this checkout's ``src/``; raise if absent."""
    src = ROOT / "src"
    if not (src / "rosetrack" / "__init__.py").is_file():
        raise FileNotFoundError(f"no rosetrack sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import rosetrack

    if Path(rosetrack.__file__).resolve().parent != (src / "rosetrack").resolve():
        raise ImportError(f"imported rosetrack from {rosetrack.__file__}, not from {src}")
    return rosetrack


@dataclass(frozen=True)
class Workload:
    name: str
    config: str        # path relative to the checkout root
    cycle: int         # program seeds per benchmark seed: seed, seed + 1, ...
    trace_seeds: int   # seeds run once per traced pass

    def seeds(self, seed: int) -> list[int]:
        return [seed + i for i in range(self.cycle)]


# Each benchmark seed maps to a cycle of consecutive program seeds. The cycle
# is as long as the measuring time allows on a 2-core host, because rmse_m
# varies from seed to seed (indoor_fast by 2%, the other two by 20-25%) and
# is averaged over the cycle.
WORKLOADS = {
    w.name: w for w in (
        Workload("indoor_track", "configs/indoor_fast.cfg", cycle=3, trace_seeds=1),
        Workload("outdoor_sweep", "configs/outdoor_sweep_clear.cfg", cycle=8, trace_seeds=1),
        Workload("lock_montecarlo", "configs/indoor_lock.cfg", cycle=24, trace_seeds=6),
    )
}


def load_config(workload: Workload, seed: int, build_only: bool = False):
    from rosetrack.config import parse_config

    overrides = [f"run.seed={seed}"]
    if build_only:
        overrides.append("run.duration=0")
    return parse_config(ROOT / workload.config, overrides)


def export_all(result, out_dir: Path) -> None:
    """Write the four CSVs exactly as ``rosetrack run`` does."""
    from rosetrack.harness import export_csv

    for name in CSV_NAMES:
        export_csv(getattr(result, name), out_dir / f"{name}.csv")


def digest_outputs(out_dir: Path) -> dict[str, str]:
    """First 16 hex digits of the sha256 of each written CSV."""
    return {name: hashlib.sha256((out_dir / f"{name}.csv").read_bytes()).hexdigest()[:16]
            for name in CSV_NAMES}


def load_digests() -> dict:
    """Reference digests keyed workload -> str(seed) -> CSV name."""
    if not DIGEST_FILE.is_file():
        return {}
    return json.loads(DIGEST_FILE.read_text(encoding="utf-8"))
