"""Command-line entry points for the sanding workcell simulation.

The subcommands run the same stage functions as ``run`` and write the same
files.  Exit codes: 0 all faces pass, 1 bad input (unreadable or invalid
config, unknown face, missing input files, bad arguments), 2 quality failure,
3 planner failure, 4 numeric failure.  Every failure prints one line on
stderr, and ``report`` exits with the code the reported ``run`` exited with.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import dynamics as dyn
from . import harness
from . import planner as pln
from . import pointcloud as pc
from .config import PipelineConfig, load_config, save_config

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_QUALITY = 2
EXIT_PLANNER = 3
EXIT_NUMERIC = 4

NUMERIC_ERRORS = (dyn.IntegrationDiverged, dyn.SingularJacobian, dyn.JointLimitViolation)
INPUT_ERRORS = (OSError, ValueError, configparser.Error)


def _load(args) -> PipelineConfig:
    if args.config:
        return load_config(args.config)
    return PipelineConfig()


def _exit_code(failure: type, in_stage: bool) -> int:
    """Exit code of a failure of class ``failure``, inside a pipeline stage the
    class of the stage error's cause: 3 for NoPathFound and InvalidEndpoint;
    4 for IntegrationDiverged, SingularJacobian, JointLimitViolation and every
    other class raised inside a stage; 1 for the rest."""
    if issubclass(failure, (pln.NoPathFound, pln.InvalidEndpoint)):
        return EXIT_PLANNER
    if in_stage or issubclass(failure, NUMERIC_ERRORS):
        return EXIT_NUMERIC
    return EXIT_INPUT


def _descent(passed: bool | None) -> str:
    """Descent verdict; ``-`` when the run was shorter than the monitor's window."""
    return "-" if passed is None else "ok" if passed else "VIOLATED"


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as bad input: one ``error:`` line, exit code 1."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"error: {self.prog}: {message}\n")


def cmd_scan(args) -> int:
    config = _load(args)
    out = Path(args.out)
    harness._scan_stage(config, harness.build_workcell(config), out)
    print(f"wrote {config.scanner.n_views} views to {out / 'scans'}")
    return EXIT_OK


def cmd_model(args) -> int:
    config = _load(args)
    out = Path(args.out)
    scans_dir = Path(args.scans) if args.scans else out / "scans"
    # every number reads as a float, so an integer too large for one is inf
    manifest = json.loads((scans_dir / "views.json").read_text(), parse_int=float)
    files, angles = (manifest.get(key) if isinstance(manifest, dict) else None
                     for key in ("files", "angles"))
    if not (isinstance(files, list) and all(isinstance(f, str) for f in files)
            and isinstance(angles, list)
            and all(isinstance(a, float) and math.isfinite(a) for a in angles)):
        raise ValueError(f"{scans_dir / 'views.json'} must be an object with a 'files' "
                         f"list of file names and an 'angles' list of finite numbers")
    scans = [pc.load_ply(scans_dir / f) for f in files]
    # checked here: the model stage reports every failure as a numeric one
    if len(scans) < 2 or len(angles) != len(scans) or not all(len(s) for s in scans):
        raise ValueError(f"{scans_dir} needs at least 2 non-empty views, one angle each; got "
                         f"views of {[len(s) for s in scans]} points and {len(angles)} angles")
    model_cloud = harness._model_stage(config, scans, angles, out)
    print(f"merged {len(scans)} views into {out / 'model.ply'} ({len(model_cloud)} points)")
    return EXIT_OK


def cmd_plan(args) -> int:
    config = _load(args)
    out = Path(args.out)
    cell = harness.build_workcell(config)
    seq = harness._sequence_stage(config, cell, out)
    for leg, (i, j) in enumerate(zip([-1] + seq.order[:-1], seq.order)):
        harness._transit_leg(config, cell, i, j, leg, out)
    print(f"sequence {[cell.tasks[i].face_id for i in seq.order]}"
          f" cost {seq.total_cost:.4f}")
    return EXIT_OK


def cmd_sand(args) -> int:
    config = _load(args)
    if args.duration is not None:
        # checked against the loaded config as a config file's sanding_duration is
        config = dataclasses.replace(
            config, sim=dataclasses.replace(config.sim, sanding_duration=args.duration))
    out = Path(args.out)
    if args.face is None:
        result = harness.simulate_sanding(harness.nominal_setup(config))
        out.mkdir(parents=True, exist_ok=True)
        harness.write_csv(out / "sand_nominal.csv", harness.LOG_COLUMNS, result.log)
    else:
        cell = harness.build_workcell(config)
        tasks = {t.face_id: t for t in cell.tasks}
        if args.face not in tasks:
            raise ValueError(f"no lateral face {args.face}; faces are {list(tasks)}")
        result = harness._sand_face(config, cell, tasks[args.face], 0, out)
    print(f"steady force {result.steady_force:.3f} N "
          f"(error {result.steady_force_error:+.3f} N), "
          f"tail |zq| {result.mean_zq_tail:.2e}, "
          f"descent {_descent(result.monitor.passed)}")
    return EXIT_OK


def cmd_run(args) -> int:
    report = harness.run_pipeline(_load(args), args.out)
    print(f"pipeline {'PASS' if report.passed else 'FAIL'}: "
          f"{sum(f.passed for f in report.faces)}/{len(report.faces)} faces, "
          f"travel cost {report.total_travel_cost:.4f}, "
          f"wall {report.wall_time:.1f} s")
    return EXIT_OK if report.passed else EXIT_QUALITY


def cmd_report(args) -> int:
    path = Path(args.run) / "report.json"
    try:
        data = json.loads(path.read_text())
        lines = [f"{'face':>4} {'seq':>3} {'force [N]':>10} {'|zq| max':>9} {'descent':>8} "
                 f"{'max rise':>9} {'settle [s]':>10} {'resands':>7} {'pass':>5}"]
        for f in data["faces"]:
            settle = "-" if f["settle_time"] is None else f"{f['settle_time']:.3f}"
            rise = "-" if f["max_rise"] is None else f"{f['max_rise']:.2e}"
            lines.append(f"{f['face_id']:>4} {f['sequence_position']:>3} "
                         f"{f['steady_force']:>10.3f} {f['max_zq_after_transient']:>9.2e} "
                         f"{_descent(f['descent_passed']):>8} {rise:>9} "
                         f"{settle:>10} {f['resand_count']:>7} {str(f['passed']):>5}")
        lines.append(f"travel cost {data['total_travel_cost']:.4f}, "
                     f"wall {data['wall_time']:.1f} s, "
                     f"{'PASS' if data['passed'] else 'FAIL'}")
        error = data.get("error")
        module, _, name = (data.get("error_class") or "").rpartition(".")
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise ValueError(f"{path} is not a run report ({type(err).__name__}: {err})") from None
    print("\n".join(lines))
    if error:
        print(f"error: {error}")
        return _exit_code(getattr(sys.modules.get(module), name, Exception), True)
    return EXIT_OK if data["passed"] else EXIT_QUALITY


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="autosand", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI config file (defaults are built in)")
        p.add_argument("--out", default="runs/latest", help="output directory")

    p = sub.add_parser("scan", help="emit synthetic scan views as PLY")
    common(p)
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("model", help="filter and register scans into a model cloud")
    common(p)
    p.add_argument("--scans", help="directory with views.json (default <out>/scans)")
    p.set_defaults(fn=cmd_model)

    p = sub.add_parser("plan", help="optimize the sanding sequence, emit trajectories")
    common(p)
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("sand", help="closed-loop sanding of one face")
    common(p)
    p.add_argument("--face", type=int, default=None,
                   help="face id (default: canonical single-contact scenario)")
    p.add_argument("--duration", type=float, default=None, help="seconds")
    p.set_defaults(fn=cmd_sand)

    p = sub.add_parser("run", help="full pipeline: scan, model, plan, sand, assess")
    common(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("report", help="summarize a finished run directory")
    p.add_argument("--run", default="runs/latest", help="run directory")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("write-config", help="write the default config to a file")
    p.add_argument("path")
    p.set_defaults(fn=lambda a: (save_config(PipelineConfig(), a.path), EXIT_OK)[1])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (harness.PipelineError, *NUMERIC_ERRORS, *INPUT_ERRORS) as err:
        print(f"error: {err}", file=sys.stderr)
        in_stage = isinstance(err, harness.PipelineError)
        return _exit_code(type(err.cause if in_stage else err), in_stage)


if __name__ == "__main__":
    sys.exit(main())
