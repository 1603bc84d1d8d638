#!/usr/bin/env python3
"""Check every benchmark input against its stored artifact digest, in one process.

For each workload, and for each of its inputs (every cell with every GA
seed), writes the INI that the benchmark's child process loads
(bench/workloads.py `write_ini`), loads it with `autosand.config.load_config`,
runs the pipeline on it and compares the run's `check.digest` with the
digest stored in bench/reference.json.  Prints one line per input, then the
count of matches.  It reads bench/ and writes nothing there; the runs go to
a temporary directory.  A check that a change keeps every artifact's bits
takes one process instead of one benchmark invocation per seed.

Usage: python scripts/check_reference.py [WORKLOAD ...]   (default: all)

Exit status: 0 when every digest matches, 1 when any differs or is missing,
2 for an unknown workload.
"""

import os

# the benchmark runs its children on one BLAS thread; so do these runs
os.environ["OMP_NUM_THREADS"] = os.environ["OPENBLAS_NUM_THREADS"] = "1"

import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from autosand import harness  # noqa: E402
from autosand.config import load_config  # noqa: E402

sys.dont_write_bytecode = True   # no __pycache__ under bench/
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import check  # noqa: E402
import workloads  # noqa: E402


def run_digest(workload: str, cell: int, ga: int, work: Path) -> str:
    """The artifact digest of one benchmark input, run in work."""
    ini, out = work / "run.ini", work / "run"
    workloads.write_ini(workload, cell, ga, ini)
    try:
        harness.run_pipeline(load_config(ini), out)
    except harness.PipelineError as err:
        print(f"  {err}")
    digest = check.digest(out)
    shutil.rmtree(out)
    return digest


def main(argv) -> int:
    names = argv or list(workloads.WORKLOADS)
    unknown = sorted(set(names) - set(workloads.WORKLOADS))
    if unknown:
        print(f"unknown workload {unknown}; known: {list(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    reference = check.load_reference()
    matched = total = 0
    with tempfile.TemporaryDirectory() as tmp:
        for workload in names:
            for cell in workloads.CELLS:
                for ga in range(workloads.SEED_CYCLE):
                    key = workloads.key(cell, ga)
                    ok = run_digest(workload, cell, ga, Path(tmp)) == \
                        check.expected(reference, workload, key)
                    matched += ok
                    total += 1
                    print(f"{workload} {key} {'ok' if ok else 'MISMATCH'}", flush=True)
    print(f"{matched} of {total} digests match")
    return 0 if matched == total else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
