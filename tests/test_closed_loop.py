"""Closed-loop behaviour of the adaptive impedance controller on the simulated arm."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from autosand import controller as ctl
from autosand import dynamics as dyn
from autosand import harness
from autosand.config import ContactConfig, PipelineConfig
from conftest import lasting, noise_free


def block_disturbance(seed, magnitude=5.0, dwell=0.25):
    """Piecewise-constant random-sign torque on every joint.

    The switching pattern is not a function of the state, so the adaptive
    network cannot learn it away; only the robust term can suppress it.
    """
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=(400, 4))
    return lambda t: magnitude * signs[min(int(t / dwell), 399)]


def free_space_setup(config, duration=6.0, robust_gain=None, disturbance=None):
    """Regulation of a pose offset with no contact and zero desired force.

    Joint limits are opened up: with the robust term removed the gravity
    transient sags far before the adaptation catches it, which is exactly the
    behaviour the comparison wants to expose rather than abort on.
    """
    gains = {} if robust_gain is None else {"robust_gain": robust_gain}
    wide = dataclasses.replace(noise_free(config, **gains),
                               robot=dyn.RobotModel(joint_limits=((-5.0, 5.0),) * 4))
    setup = harness.nominal_setup(lasting(wide, duration))
    setup.net = harness.build_network(config)   # over the default arm's operating box
    x0 = dyn.forward_kinematics(wide.robot, setup.q0)
    setup.contact = None
    setup.x_d = x0 + np.array([-0.03, 0.02, 0.05])
    setup.f_d = np.zeros(3)
    setup.disturbance = disturbance
    return setup


@pytest.fixture(scope="module")
def config():
    return PipelineConfig()


@pytest.fixture(scope="module")
def nominal_run(config):
    """The headline regulation scenario, 10 s, noise-free sensor."""
    setup = harness.nominal_setup(lasting(noise_free(config), 10.0))
    return harness.simulate_sanding(setup)


class TestReferenceTrace:
    def test_nominal_log_matches_stored_trace(self, config):
        """The 1 s noise-free nominal run reproduces the stored log bit for bit.

        The trace was written by the tick that built a JointState per substep
        and a new RbfNetwork per control step; moving the tick onto plain
        arrays must not move a single bit, so the comparison is exact.
        The pipeline's noise path is pinned by ``tests/data/pipeline_ref.json``.
        """
        expected = np.load(Path(__file__).parent / "data" / "nominal_1s_log.npy")
        setup = harness.nominal_setup(lasting(noise_free(config), 1.0))
        result = harness.simulate_sanding(setup)
        np.testing.assert_array_equal(result.log, expected)

    def test_run_leaves_setup_unchanged(self, config):
        """The network adapts on a copy, so one setup can be run twice."""
        setup = harness.nominal_setup(lasting(noise_free(config), 0.2))
        weights = setup.net.weights.copy()
        first = harness.simulate_sanding(setup)
        second = harness.simulate_sanding(setup)
        np.testing.assert_array_equal(first.log, second.log)
        np.testing.assert_array_equal(setup.net.weights, weights)
        assert first.log[-1, -2] > 0.0

    def test_non_finite_weight_stops_the_run(self, config):
        setup = harness.nominal_setup(lasting(noise_free(config), 0.2))
        setup.net.weights[2, 5] = np.nan
        with pytest.raises(dyn.IntegrationDiverged, match="weights"):
            harness.simulate_sanding(setup)


class TestForceRegulation:
    def test_steady_force_within_band(self, nominal_run):
        assert abs(nominal_run.steady_force - (-25.0)) < 0.05 * 25.0

    def test_reaches_band_inside_five_seconds(self, nominal_run):
        t = nominal_run.times
        f = nominal_run.forces[:, 0]
        window = (t >= 4.0) & (t <= 5.0)
        assert np.abs(f[window] + 25.0).max() < 1.25

    def test_with_sensor_noise(self, config):
        setup = harness.nominal_setup(lasting(config, 5.0))
        result = harness.simulate_sanding(setup)
        assert abs(result.steady_force - (-25.0)) < 1.25

    def test_stiffer_belt_converges_with_same_gains(self, config, nominal_run):
        # ten times stiffer belt pad; damping scales with stiffness as in a
        # hysteretic (loss-factor) contact model
        setup = harness.nominal_setup(lasting(noise_free(config), 6.0))
        scale = 10.0
        setup.contact = dyn.BeltContact(
            plane_offset=setup.contact.plane_offset,
            stiffness=scale * config.contact.stiffness,
            damping=scale * config.contact.damping,
            drag=config.contact.drag)
        result = harness.simulate_sanding(setup)
        assert abs(result.steady_force - (-25.0)) < 1.25
        # the commanded penetration overshoots the stiffer surface, so the
        # steady position error is larger than in the nominal run
        x_err_stiff = abs(result.log[-1, 9] - setup.x_d[0])
        x_err_nominal = abs(nominal_run.log[-1, 9] - 0.0515)
        assert x_err_stiff > 10 * x_err_nominal


def belt_setup(config, stiffness):
    """The nominal scenario, 2 s with a noise-free sensor, against a belt of
    the given stiffness and the default damping, with x_d |f_d| / k inside
    the belt as _sand_face sets it."""
    belt = dataclasses.replace(config, contact=ContactConfig(stiffness=stiffness))
    setup = harness.nominal_setup(lasting(noise_free(belt), 2.0))
    depth = abs(config.setpoint.force) / stiffness
    setup.x_d = np.array([setup.contact.plane_offset + depth, setup.x_d[1], setup.x_d[2]])
    return setup


class TestStiffBeltEnvelope:
    """Today's envelope of belt stiffness at the default gains and damping
    of 800 N s/m: 2e4 N/m holds the force, 2.5e4 N/m does not.  A change to
    the contact handling that moves the envelope changes this test."""

    def test_holds_at_2e4(self, config):
        result = harness.simulate_sanding(belt_setup(config, 2e4))
        assert abs(result.steady_force - config.setpoint.force) < 1e-3
        assert result.monitor.passed and result.monitor.settle_time < 0.5

    def test_leaves_its_joint_range_at_2_5e4(self, config):
        # the tool leaves the belt and the carriage runs to its lower limit
        with pytest.raises(dyn.JointLimitViolation, match="^joint 0 ") as info:
            harness.simulate_sanding(belt_setup(config, 2.5e4))
        assert float(str(info.value).rpartition("t = ")[2]) < 1.0


class TestImpedanceVectorConvergence:
    def test_error_settles_below_threshold(self, nominal_run):
        t = nominal_run.times
        norms = np.linalg.norm(nominal_run.vel_errors, axis=1)
        tail = t >= 0.7 * t[-1]
        assert norms[tail].max() < 1e-2
        assert nominal_run.monitor.settle_time is not None

    def test_adaptation_disabled_floor_is_larger(self, config, nominal_run):
        setup = harness.nominal_setup(lasting(noise_free(config, learn_rate=0.0), 6.0))
        frozen = harness.simulate_sanding(setup)
        assert frozen.mean_zq_tail > 100 * nominal_run.mean_zq_tail
        assert frozen.mean_zq_tail > 1e-2

    def test_robust_gain_suppresses_disturbance(self, config):
        with_gain = harness.simulate_sanding(
            free_space_setup(config, disturbance=block_disturbance(3)))
        without = harness.simulate_sanding(
            free_space_setup(config, robust_gain=0.0,
                             disturbance=block_disturbance(3)))
        assert without.mean_zq_tail > with_gain.mean_zq_tail
        assert without.mean_zq_tail > 3 * with_gain.mean_zq_tail

    def test_task_error_is_jacobian_image_along_trajectory(self, config,
                                                           nominal_run):
        worst = 0.0
        for i in range(0, len(nominal_run.times), 100):
            q = nominal_run.log[i, 1:5]
            jac = dyn.jacobian(config.robot, q)
            worst = max(worst, np.abs(jac @ nominal_run.vel_errors[i]
                                      - nominal_run.task_errors[i]).max())
        assert worst < 1e-8


class TestTargetImpedanceRealization:
    def test_filtered_residual_small_after_transient(self, config, nominal_run):
        t = nominal_run.times
        z = nominal_run.task_errors
        zdot = np.gradient(z, t, axis=0)
        residual = np.linalg.norm(zdot + config.impedance.filter_rate * z, axis=1)
        assert residual[t >= 2.0].max() < 0.05


class TestLyapunovDescent:
    def test_monitor_passes_on_nominal_run(self, nominal_run):
        assert nominal_run.monitor.passed

    def test_short_run_not_evaluated(self, config):
        """A 0.15 s face, as in the short benchmark cells, is shorter than
        the monitor's 0.5 s window: no verdict, and no rise."""
        setup = harness.nominal_setup(lasting(noise_free(config), 0.15))
        result = harness.simulate_sanding(setup)
        assert result.monitor.passed is None and result.monitor.max_rise is None
        assert len(result.times) == 150 and len(result.monitor.smoothed) == 0

    def test_monitor_reads_the_logged_record(self, config):
        """The log is the run's one per-tick record: forces are a view of it,
        and the monitor smooths the v_obs column the CSV carries, bit for bit."""
        setup = harness.nominal_setup(lasting(config, 2.0))
        result = harness.simulate_sanding(setup)
        assert np.shares_memory(result.forces, result.log)
        win = round(ctl.WINDOW / config.sim.dt_control)
        v_obs = result.log[:, harness.LOG_COLUMNS.index("v_obs")]
        np.testing.assert_array_equal(
            result.monitor.smoothed, np.convolve(v_obs, np.ones(win) / win, mode="valid"))

    def test_observable_storage_decays(self, nominal_run):
        smoothed = nominal_run.monitor.smoothed
        assert smoothed[-1] < 1e-6 * smoothed.max()


class TestFreeSpaceTracking:
    def test_pure_motion_tracking(self, config):
        result = harness.simulate_sanding(free_space_setup(config))
        x_err = np.linalg.norm(result.log[-1, 9:12] - free_space_setup(config).x_d)
        assert x_err < 1e-3

    def test_forces_stay_zero(self, config):
        result = harness.simulate_sanding(free_space_setup(config, duration=3.0))
        assert np.abs(result.forces).max() == 0.0
