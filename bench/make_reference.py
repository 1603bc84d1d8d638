"""Regenerate bench/reference.json: the artifact digest of every workload input.

Usage: python3 bench/make_reference.py [WORKLOAD ...]

Runs each workload once per input (every cell with every GA seed 0 ..
SEED_CYCLE-1) and stores the digest, with the run's travel cost, force error
and failed attempts, and the machine it ran on.  Only regenerate when a change
is meant to alter outputs.
"""

from __future__ import annotations

import itertools
import json
import shutil
import sys
import time

import run

sys.path.insert(0, str(run.SRC))
import check  # noqa: E402
import workloads  # noqa: E402


def main(names) -> int:
    ref = check.load_reference()
    digests = ref.setdefault("digests", {})
    details = ref.setdefault("runs", {})
    for name in names or list(workloads.WORKLOADS):
        work = run.WORK / f"reference-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        digests[name], details[name] = {}, {}
        for k, (cell, ga) in enumerate(itertools.product(
                workloads.CELLS, range(workloads.SEED_CYCLE))):
            key = workloads.key(cell, ga)
            ini = work / f"{key}.ini"
            workloads.write_ini(name, cell, ga, ini)
            r = run.spawn(work, ini, k, False, f"{name}-{key}",
                          time.monotonic() + run.TIME_LIMIT)
            digests[name][key] = r.get("digest")
            details[name][key] = {f: r.get(f) for f in (
                "code", "attempted", "failed", "travel_cost", "force_err_n")}
            print(name, key, f"{r['run_s']:.2f} s", json.dumps(details[name][key]), flush=True)
        shutil.rmtree(work, ignore_errors=True)
    ref["env"] = run.environment()
    check.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
