"""Acceptance suite: one test per headline requirement, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The closed-loop criteria share one 10-second regulation run; the
pipeline criterion runs the full 13-face workcell twice to also check
determinism.
"""

import math
import time

import numpy as np
import pytest

from autosand import dynamics as dyn
from autosand import harness
from autosand import planner as pl
from autosand import pointcloud as pc
from autosand.config import PipelineConfig
from autosand.geometry import RigidTransform, box
from conftest import noise_free, random_rotation, sat_box_margin
from test_closed_loop import block_disturbance, free_space_setup
from test_planner import exhaustive_best, posed, straight_line_instance
from test_pointcloud import transformed


def verdict(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def config():
    return PipelineConfig()


@pytest.fixture(scope="module")
def nominal_run(config):
    setup = harness.nominal_setup(noise_free(config), duration=10.0)
    start = time.perf_counter()
    result = harness.simulate_sanding(setup)
    result.wall_time = time.perf_counter() - start
    return result


def test_criterion_1_force_regulation(nominal_run):
    t = nominal_run.times
    f = nominal_run.forces[:, 0]
    window = (t >= 4.0) & (t <= 5.0)
    band = 0.05 * 25.0
    reached = np.abs(f[window] + 25.0).max() < band
    steady = abs(nominal_run.steady_force + 25.0) < band
    fast = nominal_run.wall_time < 30.0
    verdict("criterion 1 force regulation", reached and steady and fast,
            f"steady {nominal_run.steady_force:.4f} N (band +/-{band} N), "
            f"in band by 4-5 s: {reached}, wall {nominal_run.wall_time:.1f} s")


def test_criterion_2_impedance_vector_convergence(config, nominal_run):
    t = nominal_run.times
    norms = np.linalg.norm(nominal_run.vel_errors, axis=1)
    tail_ok = norms[t >= 0.7 * t[-1]].max() < 1e-2

    frozen_setup = harness.nominal_setup(noise_free(config, learn_rate=0.0), duration=6.0)
    frozen = harness.simulate_sanding(frozen_setup)
    frozen_larger = frozen.mean_zq_tail > max(nominal_run.mean_zq_tail, 1e-2)

    with_gain = harness.simulate_sanding(
        free_space_setup(config, disturbance=block_disturbance(3)))
    without_gain = harness.simulate_sanding(
        free_space_setup(config, robust_gain=0.0,
                         disturbance=block_disturbance(3)))
    gain_effect = without_gain.mean_zq_tail > with_gain.mean_zq_tail

    verdict("criterion 2 impedance-vector convergence",
            tail_ok and frozen_larger and gain_effect,
            f"|zq| tail {norms[t >= 0.7 * t[-1]].max():.2e} < 1e-2; "
            f"no-adaptation floor {frozen.mean_zq_tail:.3f}; disturbance floor "
            f"{without_gain.mean_zq_tail:.3f} (robust off) vs "
            f"{with_gain.mean_zq_tail:.3f} (robust on)")


def test_criterion_3_target_impedance_realization(config, nominal_run):
    t = nominal_run.times
    z = nominal_run.task_errors
    zdot = np.gradient(z, t, axis=0)
    residual = np.linalg.norm(zdot + config.impedance.filter_rate * z, axis=1)
    worst = residual[t >= 2.0].max()
    verdict("criterion 3 target-impedance realization", worst < 0.05,
            f"filtered residual after transient {worst:.2e} < 0.05")


def test_criterion_4_dynamics_properties(config):
    rng = np.random.default_rng(4)
    model = config.robot
    eps = 1e-6
    worst_skew = 0.0
    min_eig = np.inf
    for _ in range(1000):
        q = rng.uniform(-3, 3, 4)
        qd = rng.uniform(-3, 3, 4)
        mass, cor, _ = dyn.dynamics_matrices(model, q, qd)
        assert np.abs(mass - mass.T).max() == 0.0
        min_eig = min(min_eig, np.linalg.eigvalsh(mass).min())
        m_plus, _, _ = dyn.dynamics_matrices(model, q + eps * qd, qd)
        m_minus, _, _ = dyn.dynamics_matrices(model, q - eps * qd, qd)
        skew = (m_plus - m_minus) / (2 * eps) - 2 * cor
        worst_skew = max(worst_skew, np.abs(skew + skew.T).max())
    verdict("criterion 4 dynamics properties",
            min_eig > 0.0 and worst_skew < 1e-7,
            f"1000 samples: min eig {min_eig:.3f}, skew defect {worst_skew:.1e}")


def test_criterion_5_icp_recovery():
    mesh = box((0.2, 0.2, 0.2))
    src = pc.synthetic_scan(mesh, RigidTransform.identity(),
                            pc.ScannerConfig(density=2e5, depth_noise=0.0,
                                             view_dir=(-1, -0.3, -0.5)),
                            surface_seed=5, sensor_seed=0)
    truth = RigidTransform.rotation_z(math.radians(10.0), (0.01, 0.02, 0.0))
    tf, _ = pc.icp_register(src, transformed(src, truth))
    clean_ok = (np.abs(tf.rotation - truth.rotation).max() < 1e-6
                and np.abs(tf.translation - truth.translation).max() < 1e-6)

    worst_t, worst_r = 0.0, 0.0
    clean_pts = truth.apply(src.points)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        noisy = pc.PointCloud(clean_pts + rng.standard_normal(clean_pts.shape) * 2e-4)
        tf, _ = pc.icp_register(src, noisy)
        worst_t = max(worst_t, np.linalg.norm(tf.translation - truth.translation))
        cos_a = (np.trace(tf.rotation @ truth.rotation.T) - 1.0) / 2.0
        worst_r = max(worst_r, math.degrees(math.acos(min(1.0, max(-1.0, cos_a)))))
    noisy_ok = worst_t < 1e-3 and worst_r < 0.5
    verdict("criterion 5 icp recovery", clean_ok and noisy_ok,
            f"noise-free exact: {clean_ok}; 20 noisy trials worst "
            f"{worst_t * 1e3:.4f} mm / {worst_r:.4f} deg")


def test_criterion_6_ga_optimality():
    hits = 0
    monotone = True
    for seed in range(20):
        table = straight_line_instance(seed + 500)
        result = pl.ga_optimize_sequence(table[0], table[1:], pl.GaParams(seed=seed))
        if abs(result.total_cost - exhaustive_best(table)) < 1e-9:
            hits += 1
        monotone &= bool((np.diff(result.best_history) <= 1e-12).all())
    verdict("criterion 6 ga optimality", hits >= 19 and monotone,
            f"{hits}/20 seeded runs match the exhaustive optimum; "
            f"best fitness monotone: {monotone}")


def test_criterion_7_gjk_correctness():
    rng = np.random.default_rng(7)
    agree = checked = 0
    start = time.perf_counter()
    while checked < 1000:
        c1, c2 = rng.uniform(-0.5, 0.5, (2, 3))
        h1, h2 = rng.uniform(0.05, 0.3, (2, 3))
        r1, r2 = random_rotation(rng), random_rotation(rng)
        margin = sat_box_margin(c1, r1, h1, c2, r2, h2)
        if abs(margin) <= 1e-6:
            continue
        checked += 1
        got = pl.gjk_intersects(box(2 * h1), posed(box(2 * h2), RigidTransform(r2, c2)),
                                RigidTransform(r1, c1))
        agree += got == (margin < 0)
    elapsed = time.perf_counter() - start
    verdict("criterion 7 gjk correctness", agree == 1000 and elapsed < 5.0,
            f"{agree}/1000 agree with the separating-axis oracle "
            f"in {elapsed:.2f} s")


def test_criterion_8_lspb_limits(rng):
    blend, total, peak = pl.trapezoid_times(1.0, 1.0, 2.0)
    trapezoid_ok = (abs(total - 1.5) < 1e-9 and abs(blend - 0.5) < 1e-9
                    and abs(peak - 1.0) < 1e-9)
    blend, total, peak = pl.trapezoid_times(0.25, 1.0, 2.0)
    triangle_ok = (abs(total - 2 * math.sqrt(0.125)) < 1e-9
                   and abs(peak - math.sqrt(0.5)) < 1e-9)
    limits_ok = True
    for _ in range(20):
        waypoints = [rng.uniform(-1, 1, 4) for _ in range(4)]
        v = rng.uniform(0.5, 2.0, 4)
        a = rng.uniform(1.0, 5.0, 4)
        traj = pl.lspb_parameterize(pl.Path(waypoints), v, a, sample_dt=0.005)
        dt = np.diff(traj.times)[:, None]
        limits_ok &= bool((np.abs(traj.velocities) <= v + 1e-9).all())
        limits_ok &= bool((np.abs(traj.accelerations) <= a + 1e-9).all())
        limits_ok &= bool((np.abs(np.diff(traj.velocities, axis=0))
                           <= a * dt + 1e-9).all())
    verdict("criterion 8 lspb limits", trapezoid_ok and triangle_ok and limits_ok,
            f"closed forms at 1e-9: trapezoid {trapezoid_ok}, triangular "
            f"{triangle_ok}; sampled limits and continuity: {limits_ok}")


def test_criterion_9_full_pipeline(config, tmp_path):
    from test_harness import tree_digest
    start = time.perf_counter()
    report = harness.run_pipeline(config, tmp_path / "a")
    elapsed = time.perf_counter() - start
    all_pass = report.passed and len(report.faces) == 13
    within_resand = all(f.resand_count <= 3 for f in report.faces)
    harness.run_pipeline(PipelineConfig(), tmp_path / "b")
    deterministic = tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")
    verdict("criterion 9 full pipeline",
            all_pass and within_resand and deterministic and elapsed < 600.0,
            f"13 faces pass: {all_pass} (resands "
            f"{[f.resand_count for f in report.faces]}), deterministic: "
            f"{deterministic}, wall {elapsed:.0f} s < 600 s")


def test_criterion_10_lyapunov_descent(nominal_run):
    report = nominal_run.monitor
    verdict("criterion 10 lyapunov descent", report.passed,
            f"moving-average rise {report.max_rise:.2e} within tolerance "
            f"after 1 s transient; settle at {report.settle_time:.2f} s")
