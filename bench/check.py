"""Output check: digest of a run's deterministic artifacts and attempt counts."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

# report.json is left out: it holds wall time.
ARTIFACTS = ("scans/*.ply", "faces/*.csv", "transits/*.csv", "cost_matrix.csv",
             "ga_history.csv", "sequence.json", "model.ply")

REFERENCE = Path(__file__).with_name("reference.json")


def summary(report: dict) -> dict:
    """The deterministic numbers of report.json: travel cost and per-face results."""
    return {
        "travel_cost": report["total_travel_cost"],
        "faces": [[f["face_id"], f["steady_force"], f["resand_count"], f["passed"]]
                  for f in report["faces"]],
    }


def digest(out_dir) -> str:
    """SHA-256 over the artifact files (name and bytes) and the report summary."""
    out = Path(out_dir)
    h = hashlib.sha256()
    for pattern in ARTIFACTS:
        for path in sorted(out.glob(pattern)):
            h.update(path.relative_to(out).as_posix().encode())
            h.update(path.read_bytes())
    report = json.loads((out / "report.json").read_text())
    h.update(json.dumps(summary(report), sort_keys=True).encode())
    return h.hexdigest()


def attempts(report: dict) -> tuple[int, int]:
    """(face attempts, attempts that failed the quality gate)."""
    tried = sum(f["resand_count"] + 1 for f in report["faces"])
    failed = sum(f["resand_count"] + (0 if f["passed"] else 1) for f in report["faces"])
    return tried, failed


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def expected(reference: dict, workload: str, key: str) -> str | None:
    return reference.get("digests", {}).get(workload, {}).get(key)
