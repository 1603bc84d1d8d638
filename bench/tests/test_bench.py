"""Self-tests of the benchmark.  Run with: python3 -m pytest bench/tests -q"""

import json
import time

import numpy as np
import pytest

import check
import run
import spans
import workloads
from autosand.config import load_config


def nested_tracer():
    """A plan stage span holding a query with two GJK calls, then a parameterisation."""
    t = spans.Tracer("synthetic")
    t.record("config.load_config", 0.0, 0.5)
    stage = t.record("harness.stage.plan", 1.0, 11.0)
    query = t.record("planner.plan_single_query", 2.0, 7.0, stage)
    t.record("planner.gjk_intersects", 3.0, 4.0, query)
    t.record("planner.gjk_intersects", 5.0, 5.5, query)
    t.record("planner.lspb_parameterize", 8.0, 10.0, stage)
    t.record("planner.lspb_parameterize", 11.0, 11.25)
    t.record("harness.stage.sand", 12.0, 15.0)
    return t


def test_self_time_subtracts_covered_child_time():
    arr = nested_tracer().arrays()
    selfs = spans.self_times(arr["start"], arr["end"], arr["parent"])
    np.testing.assert_allclose(selfs, [0.5, 3.0, 3.5, 1.0, 0.5, 2.0, 0.25, 3.0])


def test_top_level_spans_count_toward_the_latest_stage():
    t = nested_tracer()
    arr = t.arrays()
    stages = spans.stage_seconds(t.names, arr["name_idx"], arr["start"], arr["end"],
                                 arr["parent"])
    assert stages == {"scan": 0.0, "model": 0.0, "plan": 10.25, "sand": 3.0, "assess": 0.0}


def test_summary_derives_rates_from_spans_and_counters():
    t = nested_tracer()
    t.add("planner.gjk_intersects.hits", 1)
    m = spans.summarize(t)
    assert m["planner.gjk_intersects.calls"] == 2
    assert m["planner.gjk_intersects.us"] == pytest.approx(0.75e6)
    assert m["planner.gjk_intersects.hit_ratio"] == 0.5
    assert m["planner.plan_single_query.total_s"] == 5.0
    assert m["planner.lspb_parameterize.self_s"] == 2.25
    assert m["config.load_s"] == 0.5
    assert m["dynamics.step.calls"] == 0 and m["dynamics.step.us"] == 0.0


def test_wrapper_nests_spans_and_closes_them_on_error():
    t = spans.Tracer("wrap")
    inner = t.wrap("inner", lambda x: x + 1)

    def boom():
        raise ValueError("boom")

    outer = t.wrap("outer", lambda: inner(1) + inner(2))
    failing = t.wrap("failing", boom)
    assert outer() == 5
    with pytest.raises(ValueError):
        failing()
    assert [t.names[i] for i in t.name_idx] == ["outer", "inner", "inner", "failing"]
    assert list(t.parent) == [-1, 0, 0, -1]
    assert all(e >= s for s, e in zip(t.start, t.end))


@pytest.mark.parametrize("name, sides, duration, straight, density, views", [
    ("plan_dense", 4, 0.15, False, 2e5, 4),
    ("sand_hold", 3, 0.6, True, 2e5, 4),
    ("scan_dense", 4, 0.15, True, 5e5, 5),
])
def test_workload_properties(tmp_path, name, sides, duration, straight, density, views):
    cell, ga = workloads.inputs(21)[0]
    workloads.write_ini(name, cell, ga, tmp_path / "w.ini")
    cfg = load_config(tmp_path / "w.ini")
    assert cfg.object.sides == sides
    assert cfg.sim.sanding_duration == duration
    assert cfg.planner.straight_line_cost is straight
    assert cfg.scanner.density == density
    assert cfg.scanner.n_views == views
    assert cfg.sim.seed == 0 and cfg.ga.seed == 21 % workloads.SEED_CYCLE


def test_every_seed_runs_every_cell():
    for seed in (0, 1, 7, 21):
        cells = [cell for cell, _ in workloads.inputs(seed)]
        assert sorted(cells) == sorted(workloads.CELLS)
        assert {ga for _, ga in workloads.inputs(seed)} == {seed % workloads.SEED_CYCLE}


def test_end_to_end_weighs_every_cell_equally():
    def rec(cell, run_s):
        return {"input": workloads.key(cell, 0), "run_s": run_s, "run_ref_s": run_s / 2,
                "setup_s": 0.5, "setup_ref_s": 0.25, "probe_s": 0.6, "peak_rss_mb": 80.0,
                "travel_cost": 1.0 + cell, "force_err_n": 0.1}

    plain = [rec(0, 4.0), rec(1, 5.0), rec(2, 6.0), rec(0, 8.0), rec(0, 9.0)]
    values = run.end_to_end(plain, attempted=20, failed=0)
    assert values["run_wall_s"] == pytest.approx((8.0 + 5.0 + 6.0) / 3)
    assert values["run_s"] == pytest.approx((8.0 + 5.0 + 6.0) / 6)
    assert values["setup_s"] == 0.25 and values["setup_wall_s"] == 0.5
    assert values["travel_cost"] == pytest.approx(2.0)
    assert values["pass_ratio"] == 1.0 and values["fail_ratio"] == 0.0


def test_reference_covers_every_input():
    ref = check.load_reference()
    for name in workloads.WORKLOADS:
        for cell in workloads.CELLS:
            for ga in range(workloads.SEED_CYCLE):
                key = workloads.key(cell, ga)
                assert check.expected(ref, name, key)
                assert ref["runs"][name][key]["code"] == 0
                assert ref["runs"][name][key]["failed"] == 0


def fake_run(root):
    (root / "faces").mkdir(parents=True)
    (root / "faces" / "face00_attempt0.csv").write_text("t,q1\n0,0.5\n")
    (root / "model.ply").write_text("ply\nend_header\n1 2 3\n")
    report = {"total_travel_cost": 1.5, "wall_time": 3.0,
              "faces": [{"face_id": 0, "steady_force": -25.0, "resand_count": 0,
                         "passed": True}]}
    (root / "report.json").write_text(json.dumps(report))
    return report


def test_output_check_flags_a_one_byte_change(tmp_path):
    report = fake_run(tmp_path)
    before = check.digest(tmp_path)
    report["wall_time"] = 4.0
    (tmp_path / "report.json").write_text(json.dumps(report))
    assert check.digest(tmp_path) == before  # wall time is not an output

    ply = tmp_path / "model.ply"
    data = bytearray(ply.read_bytes())
    data[-2] ^= 1
    ply.write_bytes(bytes(data))
    assert check.digest(tmp_path) != before


def test_second_seed_changes_sand_hold_digest_and_tracing_changes_nothing(tmp_path):
    """Seed 0 traced and seed 1 untraced both match the reference, pass every face."""
    ref = check.load_reference()
    results = {}
    for seed, trace in ((0, True), (1, False)):
        cell, ga = workloads.inputs(seed)[0]
        ini = tmp_path / f"seed{seed}.ini"
        workloads.write_ini("sand_hold", cell, ga, ini)
        r = run.spawn(tmp_path, ini, seed, trace, f"test-{seed}", time.monotonic() + 170)
        assert r["code"] == 0 and r["attempted"] == 3 and r["failed"] == 0
        assert r["digest"] == check.expected(ref, "sand_hold", workloads.key(cell, ga))
        results[seed] = r
    assert results[0]["digest"] != results[1]["digest"]

    traced = results[0]
    assert traced["unwrapped"] == []
    derived = {"planner.travel_cost", "controller.force_err_n", "trace.overhead_s"}
    assert set(run.declared("per_layer")) == set(traced["layers"]) | derived
    layers = traced["layers"]
    assert layers["dynamics.step.calls"] == 3 * 600 * 10
    assert layers["harness.control_ticks"] == 3 * 600
    assert layers["dynamics.dynamics_terms.calls"] == (layers["dynamics.step.calls"]
                                                      + layers["harness.control_ticks"])
