"""One `autosand run` in a fresh process, timed from outside the program.

Usage: python3 bench/child.py ROOT INI OUT RESULT T0 TRACE RUN_ID

ROOT is the checkout whose src/ is imported, INI the workload config, OUT
the run directory, RESULT the JSON file this writes, T0 the parent's
time.monotonic() at spawn (set-up time counts from there), TRACE 1 to record
spans, RUN_ID the span run id.  Exits non-zero only when the benchmark itself
cannot run; a failing `autosand run` is recorded in RESULT.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main(argv) -> int:
    root, ini, out, result_path, t0, trace, run_id = argv
    src = (Path(root) / "src").resolve()
    sys.path.insert(0, str(src))
    import autosand
    if not Path(autosand.__file__).resolve().is_relative_to(src):
        print(f"autosand imported from {autosand.__file__}, not {src}", file=sys.stderr)
        return 2
    from autosand import cli, config, harness
    import check
    import spans

    tracer = None
    if trace == "1":
        tracer = spans.Tracer(run_id)
        tracer.install()
    cfg = config.load_config(ini)
    harness.build_workcell(cfg)
    setup_s = time.monotonic() - float(t0)

    start = time.perf_counter()
    try:
        code = cli.main(["run", "--config", ini, "--out", out])
    except Exception:
        traceback.print_exc()
        code = -1
    run_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"run_id": run_id, "code": code, "run_s": run_s, "setup_s": setup_s,
              "peak_rss_mb": peak_rss_mb, "faces": cfg.object.sides}
    report_path = Path(out) / "report.json"
    if report_path.exists():
        report = json.loads(report_path.read_text())
        result["attempted"], result["failed"] = check.attempts(report)
        result["travel_cost"] = report["total_travel_cost"]
        result["force_err_n"] = max((abs(f["steady_force_error"]) for f in report["faces"]),
                                    default=None)
        result["digest"] = check.digest(out)
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = spans.summarize(tracer)
        result["unwrapped"] = tracer.missing
        tracer.save(Path(out).parent / "spans.npz")
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
