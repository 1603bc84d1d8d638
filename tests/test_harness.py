"""Pipeline orchestration: configuration, determinism, quality gating, CLI."""

import ast
import dataclasses
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import textwrap
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from autosand import cli, harness
from autosand import planner as pln
from autosand import pointcloud as pc
from autosand.config import PipelineConfig, from_ini, load_config, save_config, to_ini

PIPELINE_REFERENCE = Path(__file__).parent / "data" / "pipeline_ref.json"

# Malformed INI files that must be rejected when they load.
BAD_INI = (
    "[contact]\nbananas = 7\n",                # unknown key
    "[contorl]\nvel_gain = 5\n",               # unknown section
    "[planner]\nstraight_line_cost = treu\n",  # not a boolean
    "[pipeline]\nhome = -0.6, 0.3\n",          # vector of the wrong length
)

# Keys that once were settings and are now constants; naming one is an error.
REMOVED_KEYS = (
    "[sim]\ntransient = 1\n",
    "[sim]\ntail_fraction = 0.3\n",
    "[control]\nwidth_scale = 1\n",
    "[control]\npinv_damping = 0\n",
    "[pipeline]\nquality_gate = true\n",
    "[planner]\nretreat_step = 0.02\n",
    "[planner]\nretreat_max = 0.1\n",
)


def small_config(**overrides):
    """Cut-down workcell: fewer faces, short sanding, light scanner and GA."""
    cfg = PipelineConfig()
    cfg.object.sides = 4
    cfg.scanner.density = 8e4
    cfg.sim.sanding_duration = 1.2
    cfg.ga.population_size = 30
    cfg.ga.max_generations = 15
    for key, value in overrides.items():
        section, name = key.split(".")
        setattr(getattr(cfg, section), name, value)
    return cfg


def tree_digest(root, patterns=("scans/*.ply", "faces/*.csv", "cost_matrix.csv",
                                "ga_history.csv", "sequence.json", "model.ply")):
    digest = hashlib.sha256()
    root = Path(root)
    for pattern in patterns:
        for path in sorted(root.glob(pattern)):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def pipeline_reference(run_dir) -> dict:
    """The plan and the per-face results of one pipeline run.

    ``tests/data/pipeline_ref.json`` holds this dict for
    ``harness.run_pipeline(small_config(), out)``, as written by
    ``PIPELINE_REFERENCE.write_text(json.dumps(pipeline_reference(out), indent=1))``:
    the text of ``cost_matrix.csv`` and ``sequence.json``, and each face's
    steady force, steady force error, re-sand count and quality report from
    ``report.json``.  Python's ``json`` writes floats by ``repr``, so they
    read back bit for bit.
    """
    run_dir = Path(run_dir)
    faces = json.loads((run_dir / "report.json").read_text())["faces"]
    keys = ("face_id", "steady_force", "steady_force_error", "resand_count", "quality")
    return {"cost_matrix.csv": (run_dir / "cost_matrix.csv").read_text(),
            "sequence.json": (run_dir / "sequence.json").read_text(),
            "faces": [{k: f[k] for k in keys} for f in faces]}


class TestConfigFile:
    def test_roundtrip(self):
        cfg = small_config()
        cfg.control.robust_gain = 17.5
        cfg.pipeline.home = (-0.5, 0.25, 0.1, -0.1)
        text = to_ini(cfg)
        back = from_ini(text)
        assert back.object.sides == 4
        assert back.control.robust_gain == 17.5
        assert back.ga.population_size == 30
        assert np.array_equal(back.pipeline.home, [-0.5, 0.25, 0.1, -0.1])
        assert np.array_equal(back.robot.joint_limits, cfg.robot.joint_limits)

    def test_file_io(self, tmp_path):
        path = tmp_path / "cfg.ini"
        save_config(small_config(), path)
        cfg = load_config(path)
        assert cfg.object.sides == 4

    def test_unknown_key_rejected(self):
        for text in BAD_INI:
            with pytest.raises(ValueError):
                from_ini(text)

    def test_default_ini_matches_defaults(self):
        path = Path(__file__).resolve().parents[1] / "configs" / "default.ini"
        assert path.read_text() == to_ini(PipelineConfig())

    def test_dt_ratio_validated(self):
        cfg = PipelineConfig()
        cfg.sim.dt_control = 2.5e-4
        with pytest.raises(ValueError):
            PipelineConfig(sim=cfg.sim)

    @pytest.mark.parametrize("duration, ok", [(1e-3, False), (1.4e-3, False),
                                               (1.6e-3, True), (2e-3, True)])
    def test_sanding_duration_spans_two_ticks(self, duration, ok):
        # the descent monitor needs two samples; simulate_sanding runs
        # round(duration / dt_control) ticks
        sim = PipelineConfig().sim
        sim.sanding_duration = duration
        if ok:
            PipelineConfig(sim=sim)
        else:
            with pytest.raises(ValueError, match="two control ticks"):
                PipelineConfig(sim=sim)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """One `run_pipeline(small_config())`, with its plan_single_query and
    gjk_intersects call counts."""
    calls = {"plan_single_query": 0, "gjk_intersects": 0}

    def counted(name):
        original = getattr(pln, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    out = tmp_path_factory.mktemp("small_run")
    with pytest.MonkeyPatch.context() as mp:
        for name in calls:
            mp.setattr(pln, name, counted(name))
        harness.run_pipeline(small_config(), out)
    return {"out": out, "calls": calls["plan_single_query"],
            "gjk_calls": calls["gjk_intersects"]}


class TestPipelineDeterminism:
    def test_each_transit_planned_once(self, small_run):
        # 4 home legs + 12 ordered face pairs for the GA; the executed legs
        # reuse those paths.
        assert small_run["calls"] == 16
        assert len(list((small_run["out"] / "transits").glob("leg*.csv"))) == 4

    def test_broad_phase_spares_gjk(self, small_run):
        # exact GJK runs only on the sweep samples whose bounding box can
        # touch the belt's; sweeping every sample took 39643 calls
        assert small_run["gjk_calls"] == 441

    def test_identical_artifacts(self, tmp_path):
        cfg = small_config()
        r1 = harness.run_pipeline(cfg, tmp_path / "a")
        r2 = harness.run_pipeline(small_config(), tmp_path / "b")
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")
        assert r1.total_travel_cost == r2.total_travel_cost
        assert [f.steady_force for f in r1.faces] == \
               [f.steady_force for f in r2.faces]

    def test_seed_changes_artifacts(self, tmp_path):
        harness.run_pipeline(small_config(), tmp_path / "a")
        harness.run_pipeline(small_config(**{"sim.seed": 99}), tmp_path / "b")
        assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "b")


class TestPipelineReference:
    def test_matches_stored_reference(self, small_run):
        """The per-face sanding path (face contact and setpoint, sensor
        noise, quality scans) and the plan of ``small_config()`` still give
        the stored results, compared exactly."""
        expected = json.loads(PIPELINE_REFERENCE.read_text())
        assert pipeline_reference(small_run["out"]) == expected


class TestRunReport:
    def test_faces_carry_descent_monitor(self, small_run, tmp_path):
        """Each face in report.json keeps the descent verdict, max rise and
        settle time of its last sanding run."""
        faces = json.loads((small_run["out"] / "report.json").read_text())["faces"]
        cfg = small_config()
        cell = harness.build_workcell(cfg)
        face = faces[0]
        task = cell.tasks[cell.face_ids.index(face["face_id"])]
        monitor = harness._sand_face(cfg, cell, task, face["resand_count"],
                                     tmp_path).monitor
        assert face["descent_passed"] is monitor.passed
        assert face["max_rise"] == monitor.max_rise
        assert face["settle_time"] == monitor.settle_time
        for f in faces:
            assert isinstance(f["descent_passed"], bool)
            assert f["max_rise"] >= 0.0
            assert f["settle_time"] is None or 0.0 <= f["settle_time"] <= f["duration"]

    def test_report_prints_descent_columns(self, small_run, capsys):
        faces = json.loads((small_run["out"] / "report.json").read_text())["faces"]
        assert cli.main(["report", "--run", str(small_run["out"])]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "descent" in lines[0] and "settle [s]" in lines[0]
        for f, line in zip(faces, lines[1:]):
            cells = line.split()
            assert cells[4] == ("ok" if f["descent_passed"] else "VIOLATED")
            assert float(cells[5]) == pytest.approx(f["max_rise"], rel=1e-2)
            assert cells[6] == ("-" if f["settle_time"] is None
                                else f"{f['settle_time']:.3f}")


    def test_report_prints_dash_for_unevaluated_descent(self, small_run, tmp_path,
                                                        capsys):
        """A face shorter than the monitor's window has a null verdict and
        rise in report.json; ``autosand report`` prints ``-`` for both."""
        data = json.loads((small_run["out"] / "report.json").read_text())
        data["faces"][0].update(descent_passed=None, max_rise=None)
        (tmp_path / "report.json").write_text(json.dumps(data))
        assert cli.main(["report", "--run", str(tmp_path)]) == 0
        cells = capsys.readouterr().out.splitlines()[1].split()
        assert cells[4] == "-" and cells[5] == "-"

    @pytest.mark.parametrize("data", [
        [], {},
        {"faces": [{"face_id": 0, "sequence_position": 0, "steady_force": -25.0,
                    "max_zq_after_transient": 0.1, "descent_passed": True,
                    "max_rise": 0.0, "resand_count": 0, "passed": True}],
         "total_travel_cost": 1.0, "wall_time": 1.0, "passed": True},
    ], ids=["list", "empty", "no-settle-time"])
    def test_report_of_a_malformed_file_exit_code(self, tmp_path, capsys, data):
        """A report.json that is not a run report gives exit 1 and one error
        line that names the file."""
        path = tmp_path / "report.json"
        path.write_text(json.dumps(data))
        assert cli.main(["report", "--run", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error:") and str(path) in err


class TestQualityGate:
    def test_impossible_threshold_exhausts_resands(self, tmp_path):
        cfg = small_config(**{"object.sides": 3, "pipeline.max_resand": 2,
                              "sim.sanding_duration": 0.8})
        cfg.quality.rough_ratio = 0.0  # impossible: rms is strictly positive
        report = harness.run_pipeline(cfg, tmp_path / "fail")
        assert not report.passed
        assert all(not f.passed for f in report.faces)
        assert all(f.resand_count == 2 for f in report.faces)
        attempts = list((tmp_path / "fail" / "faces").glob("face00_attempt*.csv"))
        assert len(attempts) == 3

    def test_every_face_in_sequence_once(self, tmp_path):
        cfg = small_config()
        report = harness.run_pipeline(cfg, tmp_path / "seq")
        order = json.loads((tmp_path / "seq" / "sequence.json").read_text())["order"]
        assert sorted(order) == sorted(f.face_id for f in report.faces)
        positions = sorted(f.sequence_position for f in report.faces)
        assert positions == list(range(len(report.faces)))


class TestSandingSetup:
    def test_runs_leave_the_config_unchanged(self, tmp_path):
        config = small_config(**{"object.sides": 3, "sim.sanding_duration": 0.05})
        before = to_ini(config)
        harness.simulate_sanding(harness.nominal_setup(config, duration=0.05))
        cell = harness.build_workcell(config)
        harness._sand_face(config, cell, cell.tasks[0], 0, tmp_path)
        assert to_ini(config) == before

    def test_no_setting_is_copied(self):
        """A sanding run reads its settings from its config alone: no field of
        SandingSetup repeats a field of a config section."""
        config = PipelineConfig()
        settings = {f.name for section in dataclasses.fields(config)
                    for f in dataclasses.fields(getattr(config, section.name))}
        setup_fields = {f.name for f in dataclasses.fields(harness.SandingSetup)}
        assert sorted(settings & setup_fields) == []


class TestSandingPhaseEdges:
    @pytest.mark.parametrize("duration", [0.002, 0.003])
    def test_steady_force_of_a_few_ticks(self, duration):
        """A run too short for a tick in its final TAIL_FRACTION takes its
        steady force from the last tick."""
        setup = harness.nominal_setup(PipelineConfig(), duration=duration)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = harness.simulate_sanding(setup)
        assert len(result.times) == round(duration / 1e-3)
        assert np.isfinite(result.steady_force)
        assert result.steady_force == float(result.forces[-1] @ np.array([1.0, 0.0, 0.0]))

    def test_report_written_on_stage_failure(self, tmp_path):
        cfg = small_config(**{"pipeline.home": (-0.3, 0.0, 0.0, 0.0)})
        with pytest.raises(harness.PipelineError) as info:
            harness.run_pipeline(cfg, tmp_path / "boom")
        assert info.value.stage == "plan"
        report = json.loads((tmp_path / "boom" / "report.json").read_text())
        assert report["error"]
        assert report["faces"] == []


class TestCli:
    def test_workflow_and_exit_codes(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        save_config(small_config(), cfg_path)
        out = str(tmp_path / "work")
        assert cli.main(["scan", "--config", str(cfg_path), "--out", out]) == 0
        assert cli.main(["model", "--config", str(cfg_path), "--out", out]) == 0
        assert cli.main(["plan", "--config", str(cfg_path), "--out", out]) == 0
        assert cli.main(["sand", "--config", str(cfg_path), "--out", out,
                         "--face", "1", "--duration", "1.0"]) == 0
        assert (Path(out) / "model.ply").exists()
        assert (Path(out) / "sequence.json").exists()
        assert (Path(out) / "faces" / "face01_attempt0.csv").exists()

    def test_stage_commands_match_run(self, tmp_path, small_run):
        """`plan` and `sand --face` write the same files as `run`."""
        cfg_path = tmp_path / "cfg.ini"
        save_config(small_config(), cfg_path)
        out = tmp_path / "work"
        assert cli.main(["plan", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert cli.main(["sand", "--config", str(cfg_path), "--out", str(out),
                         "--face", "2"]) == 0
        legs = sorted((out / "transits").glob("leg*.csv"))
        assert len(legs) == 4
        plan_files = [out / name for name in ("cost_matrix.csv", "ga_history.csv",
                                              "sequence.json")]
        for path in legs + plan_files + [out / "faces" / "face02_attempt0.csv"]:
            rel = path.relative_to(out)
            assert path.read_bytes() == (small_run["out"] / rel).read_bytes(), rel

    def test_model_command_matches_run_to_ply_precision(self, tmp_path, small_run):
        """`scan` then `model` registers the views read back from 9-digit PLY
        text, so its model.ply has `run`'s points to within 1e-9 m."""
        cfg_path = tmp_path / "cfg.ini"
        save_config(small_config(), cfg_path)
        out = tmp_path / "work"
        assert cli.main(["scan", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert cli.main(["model", "--config", str(cfg_path), "--out", str(out)]) == 0
        staged = pc.load_ply(out / "model.ply")
        ran = pc.load_ply(small_run["out"] / "model.ply")
        assert len(staged) == len(ran) == 6530
        assert np.abs(staged.points - ran.points).max() <= 1e-9

    def test_malformed_scan_exit_code(self, tmp_path, capsys):
        scans = tmp_path / "scans"
        scans.mkdir()
        (scans / "views.json").write_text(json.dumps({"angles": [0.0], "files": ["v.ply"]}))
        (scans / "v.ply").write_text("ply\nformat ascii 1.0\n\nelement vertex 0\n"
                                     "property float x\nproperty float y\n"
                                     "property float z\nend_header\n")
        assert cli.main(["model", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:")
        assert not (tmp_path / "model.ply").exists()

    def test_bad_config_exit_code(self, tmp_path, capsys):
        """Each bad config exits 1 at load, before any stage writes a file."""
        texts = BAD_INI + ("[control]\nvel_gain = 0\n",
                           "[scanner]\nview_dir = 0, 0, 0\n",
                           "[sor]\nk = 0\n",
                           "[scanner]\nn_views = 1\n",
                           "[object]\nsides = 2\n",
                           "[sim]\ndt_physics = 0\n",
                           "[sim]\ndt_control = -1e-3\n",
                           "[sim]\ndt_control = inf\n",
                           "[sim]\nsanding_duration = 0\n",
                           "[sim]\nsanding_duration = nan\n",
                           "[sim]\nsanding_duration = 0.001\n",
                           "[sim]\ndt_physics = 0.02\ndt_control = 0.02\n",
                           "[impedance]\ndamping = 1, 1, 1\n",   # under-damped target
                           "[ga]\nmax_generations = 0\n") + REMOVED_KEYS
        paths = [tmp_path / "missing.ini"]
        for k, text in enumerate(texts):
            paths.append(tmp_path / f"bad{k}.ini")
            paths[-1].write_text(text)
        out = tmp_path / "run"
        for path in paths:
            assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith("error:"), (path, err)
            assert not (out / "scans").exists()
            assert not (out / "report.json").exists()

    @pytest.mark.parametrize("text", [
        "[setpoint]\nforce = 0\n",           # the grip ratio divided by it
        "[setpoint]\nforce = 25\n",          # pulls away from the belt
        "[setpoint]\nforce = nan\n",
        "[sim]\nseed = -1\n",
        "[scanner]\ndepth_noise = -1\n",
        "[scanner]\ndepth_noise = inf\n",
        "[object]\nradius_variation = 0.07\n",  # negative radii
        "[object]\nradius_variation = -0.06\n",
        "[icp]\nmax_iters = 0\n",           # views merged unrefined, rms inf
        "[icp]\nmax_diverging = 0\n",
        "[icp]\ntol = -1\n",
        "[icp]\ntol = nan\n",
        "[icp]\nreject_ratio = 0\n",
        "[icp]\nreject_ratio = inf\n",
        "[scanner]\ndensity = 0\n",          # one point per face: SOR fails, exit 4
        "[scanner]\ndensity = inf\n",
        "[contact]\nstiffness = 0\n",        # the setpoint depth divides by it
        "[contact]\ndamping = -1\n",
        "[contact]\nbelt_size = 0.15, 0, 0.3\n",
        "[control]\nn_centers = 1\n",        # the RBF width needs two centers
        "[control]\nlearn_rate = -1\n",
        "[planner]\ntask_step = 0\n",
        "[planner]\nsample_dt = 0\n",
        "[planner]\nmax_rule_repairs = -1\n",
        "[planner]\nsample_budget = -1\n",
        "[object]\nheight = 0\n",
        "[quality]\nwindow = 0\n",
        "[pipeline]\nmax_resand = -1\n",
        "[robot]\ngravity = -9.81\n",
        "[control]\nforce_noise = -1\n",
        "[object]\nroughness = -4e-4\n",
        "[object]\nremoval_rate = 1.5\n",     # negative roughness, the failing cell passed
        "[object]\nremoval_rate = -0.6\n",
        "[scanner]\nintensity_base = 7\n",
        "[scanner]\nintensity_slope = -250\n",
        "[scanner]\nspeckle = -0.05\n",
        "[scanner]\nfield_margin = -0.2\n",   # failed in the scan stage, exit 4
        "[quality]\nintensity_threshold = 1.5\n",
        "[quality]\nmin_window_points = -5\n",
        "[quality]\nover_ratio = -1.5\n",
        "[quality]\nrough_ratio = -0.7\n",
        "[ga]\nseed = -1\n",                  # failed in the plan stage, exit 4
        "[pipeline]\napproach_clearance = -0.5\n",
        "[pipeline]\nhome = -1.5, 0.3, 0, 0\n"])   # failed in the plan stage, exit 3
    def test_out_of_domain_value_exit_code(self, tmp_path, capsys, text):
        """A value outside its domain raises ValueError at load, so `run`
        exits 1 with one error line and writes nothing."""
        with pytest.raises(ValueError):
            from_ini(text)
        path = tmp_path / "bad.ini"
        path.write_text(text)
        out = tmp_path / "run"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:"), err
        assert not out.exists()

    def test_non_finite_value_exit_code(self, tmp_path, capsys):
        """nan, inf or -inf in any numeric value (first entry of a vector)
        exits `run` 1 with one error line naming the key, before any file is
        written."""
        config = PipelineConfig()
        keys = [(section.name, f.name, getattr(getattr(config, section.name), f.name))
                for section in dataclasses.fields(config)
                for f in dataclasses.fields(getattr(config, section.name)) if f.init]
        numeric = [(s, k, v) for s, k, v in keys if not isinstance(v, bool)]
        assert len(keys) == 66 and len(numeric) > 50
        path, out = tmp_path / "bad.ini", tmp_path / "run"
        for section, key, default in numeric:
            rest = [repr(v) for v in np.ravel(default).tolist()[1:]]
            for bad in ("nan", "inf", "-inf"):
                path.write_text(f"[{section}]\n{key} = {', '.join([bad] + rest)}\n")
                assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 1, \
                    (section, key, bad)
                err = capsys.readouterr().err
                assert err.count("\n") == 1 and err.startswith("error:"), err
                assert f"[{section}] {key}" in err, err
                assert not out.exists()

    @pytest.mark.parametrize("manifest", [[1, 2], {"files": []},
                                          {"files": [1], "angles": [0.0]},
                                          {"files": ["v.ply"], "angles": ["0"]}])
    def test_malformed_manifest_exit_code(self, tmp_path, capsys, manifest):
        """A views.json that is not an object with a list of file names and
        a list of angles is bad input: one error line, exit 1."""
        scans = tmp_path / "scans"
        scans.mkdir()
        (scans / "views.json").write_text(json.dumps(manifest))
        assert cli.main(["model", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "views.json" in err, err
        assert not (tmp_path / "model.ply").exists()

    @pytest.mark.parametrize("angles, sizes", [([0.0], [5]),            # one view
                                               ([0.0], [5, 5]),         # one angle for two
                                               ([0.0, 1.0], [5, 0])])   # an empty view
    def test_bad_scans_exit_code(self, tmp_path, capsys, angles, sizes):
        """Scans the model stage cannot register are bad input, rejected
        before the stage runs."""
        scans = tmp_path / "scans"
        scans.mkdir()
        rng = np.random.default_rng(0)
        files = [f"view_{k}.ply" for k in range(len(sizes))]
        for name, n in zip(files, sizes):
            pc.save_ply(pc.PointCloud(rng.standard_normal((n, 3))), scans / name)
        (scans / "views.json").write_text(json.dumps({"angles": angles, "files": files}))
        assert cli.main(["model", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:")
        assert not (tmp_path / "model.ply").exists()

    def test_unknown_face_exit_code(self, tmp_path, capsys):
        assert cli.main(["sand", "--out", str(tmp_path), "--face", "99"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "99" in err

    def test_missing_scans_exit_code(self, tmp_path, capsys):
        assert cli.main(["model", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "views.json" in err

    def test_run_and_report_pass(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        save_config(small_config(), cfg_path)
        out = str(tmp_path / "run")
        assert cli.main(["run", "--config", str(cfg_path), "--out", out]) == 0
        assert cli.main(["report", "--run", out]) == 0

    def test_quality_failure_exit_code(self, tmp_path):
        cfg = small_config(**{"object.sides": 3, "pipeline.max_resand": 1,
                              "sim.sanding_duration": 0.8})
        cfg.quality.rough_ratio = 0.0
        cfg_path = tmp_path / "cfg.ini"
        save_config(cfg, cfg_path)
        out = str(tmp_path / "run")
        assert cli.main(["run", "--config", str(cfg_path), "--out", out]) == 2
        assert cli.main(["report", "--run", out]) == 2

    def test_planner_failure_exit_code(self, tmp_path):
        cfg = small_config(**{"pipeline.home": (-0.3, 0.0, 0.0, 0.0)})
        cfg_path = tmp_path / "cfg.ini"
        save_config(cfg, cfg_path)
        out = str(tmp_path / "run")
        assert cli.main(["run", "--config", str(cfg_path), "--out", out]) == 3
        assert cli.main(["report", "--run", out]) == 3

    def test_numeric_failure_exit_code(self, tmp_path):
        """A belt this damped drives the carriage out of its joint range
        part-way through sanding."""
        cfg = small_config(**{"object.sides": 3, "contact.damping": 1e5})
        cfg_path = tmp_path / "cfg.ini"
        save_config(cfg, cfg_path)
        out = tmp_path / "run"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 4
        report = json.loads((out / "report.json").read_text())
        assert report["error"].startswith("stage 'sand' failed")
        assert report["error_class"] == "autosand.dynamics.JointLimitViolation"
        assert cli.main(["report", "--run", str(out)]) == 4

    @pytest.mark.parametrize("face", [None, 0])
    def test_short_sand_duration_exit_code(self, tmp_path, capsys, face):
        """--duration is checked against the loaded config's dt_control: 2.8 ms
        is three ticks of the default 1 ms but one of this config's 2 ms."""
        cfg = small_config(**{"object.sides": 3})
        cfg.sim.dt_control = 2e-3
        cfg_path = tmp_path / "cfg.ini"
        save_config(cfg, cfg_path)
        out = tmp_path / "out"
        argv = ["sand", "--config", str(cfg_path), "--out", str(out), "--duration", "0.0028"]
        assert cli.main(argv + ([] if face is None else ["--face", str(face)])) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and "two control ticks" in err
        assert not out.exists()

    @pytest.mark.parametrize("face", [None, 0])
    @pytest.mark.parametrize("duration", ["0", "-1", "inf", "nan"])
    def test_bad_duration_exit_code(self, tmp_path, capsys, face, duration):
        """--duration is checked as [sim] sanding_duration is: exit 1, one
        error line that names it, and nothing written."""
        out = tmp_path / "out"
        argv = ["sand", "--out", str(out), "--duration", duration]
        assert cli.main(argv + ([] if face is None else ["--face", str(face)])) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and "sanding_duration" in err
        assert not out.exists()

    def test_usage_error_exit_code(self, capsys):
        for argv in (["sand", "--face", "x"], [], ["bogus"], ["run", "--nope"],
                     ["sand", "--duration", "x"]):
            with pytest.raises(SystemExit) as info:
                cli.main(argv)
            assert info.value.code == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith("error:")

    def test_help_exit_code(self, capsys):
        for argv in (["--help"], ["sand", "--help"]):
            with pytest.raises(SystemExit) as info:
                cli.main(argv)
            assert info.value.code == 0
        assert "--face" in capsys.readouterr().out

    def test_write_config(self, tmp_path):
        path = tmp_path / "default.ini"
        assert cli.main(["write-config", str(path)]) == 0
        assert load_config(path).object.sides == 13


IMPORT_CHECK = textwrap.dedent("""
    import json, sys, sysconfig
    from pathlib import Path

    # _sysconfigdata_* is the standard library's build-time data module
    ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "autosand"}

    class Refuse:
        # makes every other top-level package unfindable; numpy's and scipy's
        # optional imports then fall back as they would without it
        def find_spec(self, name, path=None, target=None):
            top = name.partition(".")[0]
            if top not in ALLOWED and not top.startswith("_sysconfigdata_"):
                raise ModuleNotFoundError(name, name=name)

    before = set(sys.modules)
    sys.meta_path.insert(0, Refuse())
    import autosand.cli
    import numpy, scipy

    paths = sysconfig.get_paths()
    stdlib = Path(paths["stdlib"]).resolve()
    site = [Path(paths[k]).resolve() for k in ("purelib", "platlib")]
    homes = [Path(m.__file__).resolve().parent for m in (numpy, scipy, autosand)]

    def allowed(path):
        if any(path.is_relative_to(home) for home in homes):
            return True
        return path.is_relative_to(stdlib) and not any(path.is_relative_to(p) for p in site)

    # file-less modules are built in or registered by Cython's runtime
    files = {name: getattr(sys.modules[name], "__file__", None)
             for name in set(sys.modules) - before}
    print(json.dumps(sorted(name for name, f in files.items()
                            if f and not allowed(Path(f).resolve()))))
""")


class TestRuntimeDependencies:
    def test_cli_imports_only_numpy_and_scipy(self):
        """`import autosand.cli` succeeds with every top-level package other
        than numpy, scipy, autosand and the standard library unfindable, and
        every module it loads comes from one of those."""
        src = str(Path(harness.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", IMPORT_CHECK], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []


REPO = Path(__file__).resolve().parents[1]


@pytest.fixture
def bench(monkeypatch):
    """Loader of a bench/ module by name; bench/ is only read, so no bytecode
    is written there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)

    def load(name):
        spec = importlib.util.spec_from_file_location(name, REPO / "bench" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    return load

# Definitions used only by the tests, each kept for the reason given.
UNUSED_ALLOWED = {
    "dynamics.dynamics_matrices":
        "the matrix form of the dynamics kernel, which the dynamics tests check",
}


def src_definitions():
    """(qualified name, name, file, line) of every top-level function and class
    in src/autosand and of every non-dunder method of those classes."""
    for path in sorted((REPO / "src" / "autosand").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield f"{path.stem}.{node.name}", node.name, path, node.lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not (
                            item.name.startswith("__") and item.name.endswith("__")):
                        yield (f"{path.stem}.{node.name}.{item.name}", item.name,
                               path, item.lineno)


class TestUnusedDefinitions:
    def test_every_definition_is_used(self):
        """Every definition in src/autosand is named somewhere in
        src/autosand, scripts/ or bench/ besides its own def or class line,
        apart from the allowlisted test helpers."""
        words = Counter()
        lines = {}
        for top in ("src/autosand", "scripts", "bench"):
            for path in sorted((REPO / top).rglob("*.py")):
                lines[path] = path.read_text().splitlines()
                words.update(re.findall(r"\w+", "\n".join(lines[path])))
        unused = sorted(
            qualname for qualname, name, path, lineno in src_definitions()
            if words[name] == re.findall(r"\w+", lines[path][lineno - 1]).count(name))
        assert unused == sorted(UNUSED_ALLOWED)


class TestConfigFieldsRead:
    def test_every_config_field_is_read(self):
        """Every field of every PipelineConfig section is read as an attribute
        somewhere in src/autosand, not counting the checks in __post_init__."""
        reads = set()

        def visit(node):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.FunctionDef) and child.name == "__post_init__":
                    continue
                if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                    reads.add(child.attr)
                visit(child)

        for path in (REPO / "src" / "autosand").glob("*.py"):
            visit(ast.parse(path.read_text()))
        config = PipelineConfig()
        unread = [f"{section.name}.{f.name}"
                  for section in dataclasses.fields(config)
                  for f in dataclasses.fields(getattr(config, section.name))
                  if f.name not in reads]
        assert unread == []


# Fields whose domain is a relation to another value rather than a bound of
# their own, each with one value outside it.
RELATIONS = {
    ("robot", "joint_limits"): "1, -1, -1, 1, -3.2, 3.2, -3.2, 3.2",  # min < max per joint
    ("object", "radius_variation"): "0.06",     # smaller in size than mean_radius
    ("scanner", "view_dir"): "0, 0, 0",         # a direction: non-zero
    ("pipeline", "home"): "-1.5, 0.3, 0, 0",    # inside robot.joint_limits
}
# ContactConfig's __post_init__ builds the BeltContact that checks the contact law.
BUILT_AT_LOAD = {"ContactConfig": "BeltContact"}


def stated_domains():
    """{class: {field: domain}} from the keywords of every check() call in a
    __post_init__ in src/autosand, each domain evaluated in its module."""
    domains = {}
    for path in sorted((REPO / "src" / "autosand").glob("*.py")):
        classes = [node for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.ClassDef)]
        for cls in classes:
            for init in (f for f in cls.body if getattr(f, "name", "") == "__post_init__"):
                for call in ast.walk(init):
                    if isinstance(call, ast.Call) and getattr(call.func, "id", "") == "check":
                        module = vars(importlib.import_module(f"autosand.{path.stem}"))
                        domains.setdefault(cls.name, {}).update(
                            (kw.arg, eval(compile(ast.Expression(kw.value), str(path),
                                                  "eval"), module)) for kw in call.keywords)
    return domains


def section_fields():
    """(section, field name, default, domain or None) of every INI key; a
    boolean's domain is its type, which admits any finite value and no nan."""
    config, stated = PipelineConfig(), stated_domains()
    for section in dataclasses.fields(config):
        sub = getattr(config, section.name)
        name = type(sub).__name__
        domains = {**stated.get(BUILT_AT_LOAD.get(name), {}), **stated.get(name, {})}
        for f in dataclasses.fields(sub):
            default = getattr(sub, f.name)
            if f.init:
                yield section.name, f.name, default, domains.get(
                    f.name, "" if isinstance(default, bool) else None)


def outside(domain, default):
    """INI values just outside a domain: the first entry of default moved one
    step past each bound, or nan where every finite value is in the domain."""
    step = 1 if type(default) is int else 1e-9      # not for a boolean
    past = {">": 0, ">=": -step, "<": 0, "<=": step}
    for op, bound in [part.split() for part in domain.split(" and ") if part] or [("", "nan")]:
        value = float(bound) + past.get(op, 0)
        entries = [int(value) if step == 1 else value] + np.ravel(default).tolist()[1:]
        yield ", ".join(map(str, entries))


def out_of_domain_cases():
    """(section, key, value) for a value outside each stated domain and relation."""
    return [(section, key, value) for (section, key), value in RELATIONS.items()] + [
        (section, key, value) for section, key, default, domain in section_fields()
        if domain is not None for value in outside(domain, default)]


class TestConfigDomains:
    def test_every_field_has_a_domain(self):
        """Every field of every PipelineConfig section is named in a check()
        call of its __post_init__, or of the object that __post_init__
        builds, or is a listed relation; a boolean's domain is its type."""
        missing = [f"{section}.{key}" for section, key, _, domain in section_fields()
                   if domain is None and (section, key) not in RELATIONS]
        assert missing == []

    @pytest.mark.parametrize("section, key, value", out_of_domain_cases())
    def test_value_outside_domain_exit_code(self, tmp_path, capsys, section, key, value):
        """A value just outside its stated domain raises a ValueError that
        names [section] key at load, so `run` exits 1 with one error line and
        writes nothing."""
        text = f"[{section}]\n{key} = {value}\n"
        with pytest.raises(ValueError, match=re.escape(f"[{section}] {key}")):
            from_ini(text)
        path, out = tmp_path / "bad.ini", tmp_path / "run"
        path.write_text(text)
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:"), err
        assert not out.exists()

    @pytest.mark.parametrize("section, key", [
        (section, key) for section, key, default, _ in section_fields()
        if type(default) is int])
    def test_integer_field_rejects_a_fraction(self, section, key):
        """A field whose default is an int admits whole numbers only, also
        when its section is built directly rather than loaded."""
        sub = getattr(PipelineConfig(), section)
        with pytest.raises(ValueError, match=f"^{key} must be a finite integer"):
            type(sub)(**{key: getattr(sub, key) + 0.5})

    def test_known_configs_round_trip(self, bench):
        """PipelineConfig(), configs/default.ini and all 144 benchmark inputs
        load and come back unchanged through to_ini and from_ini, so no
        stated domain rejects a config the benchmark runs."""
        workloads = bench("workloads")
        configs = [PipelineConfig(), load_config(REPO / "configs" / "default.ini")]
        configs += [workloads.build_config(name, cell, ga) for name in workloads.WORKLOADS
                    for cell in workloads.CELLS for ga in range(workloads.SEED_CYCLE)]
        assert len(configs) == 2 + 144
        for config in configs:
            text = to_ini(config)
            assert to_ini(from_ini(text)) == text


class TestBenchReference:
    @pytest.mark.parametrize("workload", ["plan_dense", "sand_hold", "scan_dense"])
    def test_first_input_matches_stored_digest(self, bench, tmp_path, workload):
        """Each workload's first benchmark input writes the artifacts whose
        digest bench/reference.json stores, so an artifact that moves by a bit
        fails here before the benchmark's output check."""
        workloads, check = bench("workloads"), bench("check")
        harness.run_pipeline(workloads.build_config(workload, 0, 0), tmp_path)
        assert check.digest(tmp_path) == check.expected(
            check.load_reference(), workload, workloads.key(0, 0))


class TestCsvFormat:
    def test_header_and_rows(self, tmp_path):
        path = tmp_path / "log.csv"
        harness.write_csv(path, ["a", "b"], [[1.0, 2.5], [3.0, 1e-7]])
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,2.5"
        assert lines[2] == "3,1e-07"


def per_value_csv(path, columns, rows) -> None:
    """write_csv as it formatted before, one f-string per value: the
    reference the block formatter must match byte for byte."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.10g}" for v in row) + "\n")


def per_value_ply(cloud, path) -> None:
    """save_ply as it formatted before, one f-string per value."""
    with open(path, "w") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {len(cloud)}\n")
        fh.write("property float x\nproperty float y\nproperty float z\n")
        if cloud.intensity is not None:
            fh.write("property float intensity\n")
        fh.write("end_header\n")
        for i, p in enumerate(cloud.points):
            row = f"{p[0]:.9g} {p[1]:.9g} {p[2]:.9g}"
            if cloud.intensity is not None:
                row += f" {cloud.intensity[i]:.9g}"
            fh.write(row + "\n")


EDGE_VALUES = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-300, -1e-300,
               5e-324, 1e17, -1e17, 123456789012.0, 1.0 / 3.0, 0.1, 1e-5,
               9.9999999995, 1.0, 2.0 ** 60]


def edge_rows(n, width, seed):
    """n rows of random values spanning many magnitudes, with every edge
    value placed in the first rows and in the last one."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, width)) * 10.0 ** rng.integers(-12, 12, (n, width))
    flat = rows.reshape(-1)
    flat[:len(EDGE_VALUES)] = EDGE_VALUES[:len(flat)]
    rows[-1] = np.resize(EDGE_VALUES, width)
    return rows


class TestBlockWriters:
    """write_csv and save_ply format 256 rows per %-call; the text must be
    the old per-value text byte for byte."""

    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 600])
    def test_csv_matches_per_value_format(self, tmp_path, n):
        columns = [f"c{k}" for k in range(7)]
        rows = edge_rows(n, 7, n)
        harness.write_csv(tmp_path / "block.csv", columns, rows)
        per_value_csv(tmp_path / "value.csv", columns, rows)
        assert (tmp_path / "block.csv").read_bytes() == \
            (tmp_path / "value.csv").read_bytes()

    @pytest.mark.parametrize("n", [0, 1, 256, 257, 600])
    @pytest.mark.parametrize("with_intensity", [False, True])
    def test_ply_matches_per_value_format(self, tmp_path, n, with_intensity):
        rows = edge_rows(n, 4, n + 1) if n else np.zeros((0, 4))
        cloud = pc.PointCloud(np.zeros((n, 3)),
                              rows[:, 3] if with_intensity else None)
        cloud.points = rows[:, :3]      # non-finite coordinates, past the check
        pc.save_ply(cloud, tmp_path / "block.ply")
        per_value_ply(cloud, tmp_path / "value.ply")
        assert (tmp_path / "block.ply").read_bytes() == \
            (tmp_path / "value.ply").read_bytes()


    @pytest.mark.parametrize("n", [0, 1, 256, 257, 600])
    @pytest.mark.parametrize("with_intensity", [False, True])
    def test_ply_subset_matches_selected_cloud(self, tmp_path, n, with_intensity):
        """save_ply with a subset writes the kept rows from the same
        formatted block: the file equals save_ply of the kept rows alone."""
        rng = np.random.default_rng(n)
        rows = edge_rows(n, 4, n + 2) if n else np.zeros((0, 4))
        cloud = pc.PointCloud(np.zeros((n, 3)),
                              rows[:, 3] if with_intensity else None)
        cloud.points = rows[:, :3]      # non-finite coordinates, past the check
        keep = rng.random(n) < 0.7
        pc.save_ply(cloud, tmp_path / "raw.ply", (keep, tmp_path / "kept.ply"))
        pc.save_ply(cloud, tmp_path / "alone.ply")
        selected = pc.PointCloud(np.zeros((int(keep.sum()), 3)),
                                 rows[keep, 3] if with_intensity else None)
        selected.points = rows[keep, :3]
        pc.save_ply(selected, tmp_path / "selected.ply")
        assert (tmp_path / "raw.ply").read_bytes() == (tmp_path / "alone.ply").read_bytes()
        assert (tmp_path / "kept.ply").read_bytes() == \
            (tmp_path / "selected.ply").read_bytes()


class TestBenchTracer:
    def test_every_wrapped_function_exists(self, bench):
        """bench/spans.py wraps the program's calls by name, so a rename in
        src/ shows here as a missing wrap, not only in bench/tests."""
        tracer = bench("spans").Tracer("tier1")
        tracer.install()
        try:
            assert tracer.missing == []
        finally:
            tracer.uninstall()

    def test_one_kernel_call_per_step_and_tick(self, bench):
        """The benchmark counts dynamics_terms calls as steps plus control
        ticks: each plant step and each tick makes exactly one."""
        spans = bench("spans")
        tracer = spans.Tracer("tier1")
        tracer.install()
        try:
            harness.simulate_sanding(harness.nominal_setup(PipelineConfig(),
                                                           duration=0.01))
        finally:
            tracer.uninstall()
        layers = spans.summarize(tracer)
        assert layers["harness.control_ticks"] == 10
        assert layers["dynamics.step.calls"] == 100
        assert layers["dynamics.dynamics_terms.calls"] == 110


class TestScripts:
    def test_sanding_convergence_variant(self, tmp_path):
        """Runs the nominal variant, one learn_rate variant and one
        stiffness_scale variant of the convergence script through its own
        entry point."""
        path = Path(__file__).parents[1] / "scripts" / "sanding_convergence.py"
        spec = importlib.util.spec_from_file_location("sanding_convergence", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        for name, kwargs in (("nominal", {}),
                             ("hot_adaptation", {"learn_rate": 60.0}),
                             ("stiff_belt_x10", {"stiffness_scale": 10.0})):
            result = script.run_variant(name, PipelineConfig(), tmp_path, duration=0.2,
                                        **kwargs)
            lines = (tmp_path / f"{name}.csv").read_text().splitlines()
            assert lines[0] == ",".join(harness.LOG_COLUMNS)
            assert len(lines) == 1 + 200
            assert result.monitor is not None

    def test_compare_runs(self, tmp_path, capsys):
        """Two runs of one tiny config compare at zero deviation, their wall
        times aside; a perturbed face log shows its deviation and exit 1."""
        path = Path(__file__).parents[1] / "scripts" / "compare_runs.py"
        spec = importlib.util.spec_from_file_location("compare_runs", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        cfg = small_config(**{"object.sides": 3, "sim.sanding_duration": 0.05,
                              "planner.straight_line_cost": True})
        runs = [tmp_path / "a", tmp_path / "b"]
        for run in runs:
            harness.run_pipeline(cfg, run)
        assert script.main([str(r) for r in runs]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [line.split() for line in lines[1:-1]]
        assert len(rows) == len(list(runs[0].rglob("*.*"))) > 10
        assert all(row[1:3] == ["0", "0"] for row in rows)
        assert lines[-1] == ("faces changed 0 of 3, attempts changed 0 of 3, "
                             "sequence positions changed 0 of 3")

        log = sorted((runs[1] / "faces").glob("*.csv"))[0]
        header, first, *rest = log.read_text().splitlines()
        values = first.split(",")
        k = harness.LOG_COLUMNS.index("fe_x")
        values[k] = repr(float(values[k]) + 0.5)
        log.write_text("\n".join([header, ",".join(values), *rest]) + "\n")
        assert script.main([str(r) for r in runs]) == 1
        rows = {line.split()[0]: line.split()[1:] for line in
                capsys.readouterr().out.splitlines()[1:-1]}
        name = log.relative_to(runs[1]).as_posix()
        assert float(rows[name][0]) == pytest.approx(0.5) and rows[name][2] == "differ"

    def test_sequence_benchmark(self, monkeypatch, capsys):
        """Runs the GA-vs-exhaustive script on two 4-task instances."""
        path = Path(__file__).parents[1] / "scripts" / "sequence_benchmark.py"
        spec = importlib.util.spec_from_file_location("sequence_benchmark", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        monkeypatch.setattr(sys, "argv", ["sequence_benchmark.py", "4", "2"])
        script.main()
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2 + 1 + 1 + 1
        assert all(re.search(r", GA \d+\.\d ms$", line) for line in out[:2])
        assert out[-2] == "2/2 instances solved to optimality (4 tasks, 24 permutations each)"
        assert re.fullmatch(r"median GA time \d+\.\d ms", out[-1])
