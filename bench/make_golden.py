"""Regenerate golden.json: SHA-256 of each workload's per-seed best_fitness bytes.

    python3 bench/make_golden.py

Run it only when a change alters the optimizer's arithmetic on purpose,
and say so in that change; run.py reports match/mismatch against this file.
"""
from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import run
from run import OUT_DIR

run.import_package()
from array import array  # noqa: E402

from workloads import GOLDEN_FILE, GOLDEN_SEEDS, WORKLOADS, digest  # noqa: E402

OUT_DIR.mkdir(parents=True, exist_ok=True)
scratch = tempfile.mkdtemp(prefix="golden-", dir=OUT_DIR)
try:
    golden = {}
    for name, workload in WORKLOADS.items():
        runs, _, _ = workload.work(GOLDEN_SEEDS[0], len(GOLDEN_SEEDS), Path(scratch), array("d"))
        if any(r.failures for r in runs):
            raise SystemExit(f"{name}: golden run failed its checks: {runs[0].failures}")
        golden[name] = {str(r.seed): digest(r.best_fitness) for r in runs}
finally:
    shutil.rmtree(scratch, ignore_errors=True)
GOLDEN_FILE.write_text(json.dumps(golden, indent=2) + "\n")
print(f"wrote {GOLDEN_FILE}")
