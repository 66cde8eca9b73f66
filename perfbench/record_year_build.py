"""Record year_pipeline's model counts and LP-text digests for seeds 0..N-1.

    python3 perfbench/record_year_build.py 16

Writes perfbench/year_build_lp.json, which the year_pipeline workload checks
each operation against.  Re-record only when a change is meant to alter
the exported LP text.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import communityplan.io  # noqa: E402
from communityplan.lpformat import export_lp  # noqa: E402
from communityplan.planner import build_centralized  # noqa: E402

import instances  # noqa: E402
from workloads import YEAR_BUILD_RECORD, YearPipelineWorkload  # noqa: E402


def main() -> int:
    n_seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 16
    structure = None
    digests = {}
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        for seed in range(n_seeds):
            data = instances.data_directory(
                Path(tmp) / f"seed{seed}", YearPipelineWorkload.fixture_buildings, seed
            )
            ingest = communityplan.io.ingest_community(data)
            built = build_centralized(ingest.config, [ingest.history])
            stats = built.model.stats()
            if structure not in (None, stats):
                raise SystemExit(f"seed {seed}: model counts {stats} differ from {structure}")
            structure = stats
            digests[str(seed)] = hashlib.sha256(export_lp(built.model).encode()).hexdigest()
            print(seed, stats, digests[str(seed)], flush=True)
    record = {"structure": structure, "lp_sha256": digests}
    YEAR_BUILD_RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
