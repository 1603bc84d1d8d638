import math

import numpy as np
import pytest

from autosand import controller as ctl
from autosand import dynamics as dyn
from autosand.impedance import ImpedanceSpec


def make_net(n=8, seed=0):
    rng = np.random.default_rng(seed)
    return ctl.RbfNetwork(centers=rng.uniform(-1, 1, (n, 16)), width=1.0)


ADAPT = ctl.ControlConfig(learn_rate=2.0)


class TestReferenceVelocity:
    def test_cancelling_arguments(self):
        spec = ImpedanceSpec()
        dx = np.array([0.01, -0.02, 0.005])
        xd_dot = spec.track_rate * dx
        j_pinv = np.vstack([np.eye(3), np.zeros((1, 3))])
        qdr = ctl.reference_velocity(j_pinv, xd_dot, dx, np.zeros(3), spec)
        assert qdr == pytest.approx(np.zeros(4))

    def test_identity_pseudo_inverse(self):
        spec = ImpedanceSpec()
        j_pinv = np.vstack([np.eye(3), np.zeros((1, 3))])
        qdr = ctl.reference_velocity(j_pinv, np.array([1.0, 0, 0]), np.zeros(3),
                                     np.zeros(3), spec)
        assert qdr == pytest.approx([1.0, 0.0, 0.0, 0.0])

    def test_pseudo_inverse_consistency(self, model, rng):
        spec = ImpedanceSpec()
        for _ in range(50):
            q = rng.uniform(-2, 2, 4)
            jac = dyn.jacobian(model, q)
            j_pinv = dyn.pseudo_inverse(jac)
            xd_dot = rng.standard_normal(3)
            dx = rng.standard_normal(3) * 0.01
            filt = rng.standard_normal(3) * 0.1
            qdr = ctl.reference_velocity(j_pinv, xd_dot, dx, filt, spec)
            assert np.abs(jac @ qdr - (xd_dot - spec.track_rate * dx + filt)
                          ).max() < 1e-9


class TestVelocityError:
    def test_zero_at_reference(self, rng):
        qd = rng.standard_normal(4)
        assert ctl.velocity_error(qd, qd) == pytest.approx(np.zeros(4))

    def test_componentwise(self):
        z = ctl.velocity_error(np.array([1.0, 1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0, 0.0]))
        assert z == pytest.approx([1.0, 0.0, 0.0, 0.0])

    def test_task_error_is_jacobian_image(self, model, rng):
        """The task composite error equals J times the joint composite error."""
        from autosand.impedance import impedance_error
        spec = ImpedanceSpec()
        for _ in range(50):
            q = rng.uniform(-2, 2, 4)
            qd = rng.standard_normal(4)
            jac = dyn.jacobian(model, q)
            xd_dot = rng.standard_normal(3)
            dx = rng.standard_normal(3) * 0.01
            filt = rng.standard_normal(3) * 0.1
            qdr = ctl.reference_velocity(dyn.pseudo_inverse(jac), xd_dot, dx,
                                         filt, spec)
            zq = ctl.velocity_error(qd, qdr)
            z = impedance_error(dx, jac @ qd - xd_dot, spec, filt)
            assert np.abs(jac @ zq - z).max() < 1e-9


class TestRbfActivation:
    def test_peak_at_center(self):
        net = make_net()
        center = net.centers[3]
        theta = ctl.rbf_activation(net, center[:4], center[4:8], center[8:12],
                                   center[12:16])
        assert theta[3] == pytest.approx(1.0)
        assert (theta > 0.0).all() and (theta <= 1.0).all()

    def test_far_tail(self):
        net = make_net()
        far = np.full(4, 50.0)
        theta = ctl.rbf_activation(net, far, far, far, far)
        assert np.abs(theta).max() < 1e-6

    def test_sine_fit_capacity(self):
        """A 1-d slice of the network fits sin within 0.05 sup-norm.

        Least-squares oracle: 20 centers spread over the span, fitted weights
        evaluated on a dense grid.
        """
        n = 20
        centers = np.zeros((n, 16))
        centers[:, 0] = np.linspace(-math.pi, math.pi, n)
        spacing = centers[1, 0] - centers[0, 0]
        net = ctl.RbfNetwork(centers, width=spacing)
        grid = np.linspace(-math.pi, math.pi, 400)
        design = np.stack([
            ctl.rbf_activation(net, [s, 0, 0, 0], np.zeros(4), np.zeros(4),
                               np.zeros(4)) for s in grid])
        weights, *_ = np.linalg.lstsq(design, np.sin(grid), rcond=None)
        err = np.abs(design @ weights - np.sin(grid)).max()
        assert err < 0.05

    def test_latin_hypercube_layout(self):
        net = ctl.RbfNetwork.latin_hypercube(np.full(16, -1.0), np.full(16, 1.0),
                                             ctl.ControlConfig(n_centers=64), seed=3)
        assert net.centers.shape == (64, 16)
        assert (net.centers >= -1.0).all() and (net.centers <= 1.0).all()
        # one sample per stratum along every dimension
        for d in range(16):
            strata = np.floor((net.centers[:, d] + 1.0) / 2.0 * 64).astype(int)
            assert len(set(strata)) == 64
        assert net.width > 0.0


class TestControlLaw:
    def test_sign_of_zero_is_zero(self):
        net = make_net()
        gains = ctl.ControlConfig(10.0, 20.0, boundary=0.0)
        theta = np.ones(len(net.centers))
        w = net.weights @ theta
        tau = np.array([1.0, -2.0, 3.0, -4.0])
        u = ctl.control_law(gains, net, np.zeros(4), theta, tau)
        assert u == pytest.approx(w - tau)

    def test_headline_gains_exact_sign(self):
        net = make_net()
        net.weights[:] = 0.0
        gains = ctl.ControlConfig(10.0, 20.0, boundary=0.0)
        u = ctl.control_law(gains, net, np.array([0.1, 0, 0, 0]),
                            np.zeros(len(net.centers)), np.zeros(4))
        assert u == pytest.approx([-21.0, 0.0, 0.0, 0.0])

    def test_odd_in_velocity_error(self, rng):
        net = make_net()
        net.weights[:] = 0.0
        theta = np.zeros(len(net.centers))
        for gains in (ctl.ControlConfig(10.0, 20.0, 0.0),
                      ctl.ControlConfig(10.0, 20.0, 0.05)):
            for _ in range(20):
                zq = rng.standard_normal(4)
                u_pos = ctl.control_law(gains, net, zq, theta, np.zeros(4))
                u_neg = ctl.control_law(gains, net, -zq, theta, np.zeros(4))
                assert u_pos == pytest.approx(-u_neg)

    def test_bounded_output(self, rng):
        net = make_net()
        gains = ctl.ControlConfig(10.0, 20.0, boundary=0.05)
        for _ in range(50):
            zq = rng.uniform(-5, 5, 4)
            theta = rng.uniform(0, 1, len(net.centers))
            tau = rng.uniform(-30, 30, 4)
            u = ctl.control_law(gains, net, zq, theta, tau)
            bound = (gains.vel_gain * np.abs(zq).max()
                     + np.abs(net.weights @ theta).max()
                     + gains.robust_gain + np.abs(tau).max())
            assert np.abs(u).max() <= bound + 1e-12


class TestWeightUpdate:
    def test_no_error_no_update(self, rng):
        net = make_net()
        net.weights[:] = rng.uniform(-1, 1, net.weights.shape)
        before = net.weights.copy()
        theta = rng.uniform(0, 1, len(net.centers))
        ctl.weight_update(ADAPT, net, theta, np.zeros(4), 0.1)
        assert net.weights == pytest.approx(before)

    def test_single_step_value(self):
        net = ctl.RbfNetwork(centers=np.zeros((1, 16)), width=1.0)
        weights = net.weights
        ctl.weight_update(ADAPT, net, np.array([0.5]), np.array([1.0, 0, 0, 0]), 0.1)
        assert net.weights is weights
        assert net.weights[0, 0] == pytest.approx(-0.1)
        assert net.weights[1:] == pytest.approx(np.zeros((3, 1)))

    def test_row_decoupling(self, rng):
        base, other = make_net(), make_net()
        theta = rng.uniform(0, 1, len(base.centers))
        ctl.weight_update(ADAPT, base, theta, np.array([0.3, 0.0, 0.0, 0.0]), 0.1)
        ctl.weight_update(ADAPT, other, theta, np.array([0.3, 5.0, -2.0, 1.0]), 0.1)
        assert other.weights[0] == pytest.approx(base.weights[0])
        assert other.weights[1] != pytest.approx(base.weights[1])


def storage(zq):
    """0.5 z^T M z with M the identity, one value per sample."""
    return 0.5 * (zq * zq).sum(1)


class TestLyapunovMonitor:
    def test_zero_history_passes(self):
        t = np.linspace(0, 5, 500)
        zq = np.zeros((500, 4))
        report = ctl.lyapunov_monitor(t, zq, storage(zq))
        assert report.passed
        assert report.smoothed == pytest.approx(np.zeros(len(report.smoothed)))

    def test_exponential_decay(self):
        lam = 2.0
        t = np.arange(0, 8, 1e-2)
        z0 = np.array([1.0, -0.5, 0.3, 0.1])
        zq = z0[None, :] * np.exp(-lam * t)[:, None]
        report = ctl.lyapunov_monitor(t, zq, storage(zq))
        assert report.passed
        expected_settle = math.log(np.linalg.norm(z0) / ctl.SETTLE_THRESHOLD) / lam
        assert report.settle_time == pytest.approx(expected_settle, abs=0.05)

    def test_growth_fails(self):
        t = np.arange(0, 8, 1e-2)
        zq = 1e-3 * np.exp(0.8 * t)[:, None] * np.ones(4)
        report = ctl.lyapunov_monitor(t, zq, storage(zq))
        assert not report.passed
        assert report.settle_time is None

    def test_run_shorter_than_window_not_evaluated(self):
        """150 samples at 1 ms against the 0.5 s window: np.convolve's
        'valid' mode would swap its arguments and smooth the kernel, passing
        a growing storage function; the verdict is None instead."""
        t = np.arange(150) * 1e-3
        zq = np.exp(20.0 * t)[:, None] * np.ones(4)
        report = ctl.lyapunov_monitor(t, zq, storage(zq))
        assert report.passed is None and report.max_rise is None
        assert len(report.smoothed) == 0
        assert report.settle_time is None

    def test_insufficient_data(self):
        with pytest.raises(ctl.InsufficientData):
            ctl.lyapunov_monitor([0.0], np.zeros((1, 4)), np.zeros(1))


class TestValidation:
    def test_gains(self):
        with pytest.raises(ValueError):
            ctl.ControlConfig(vel_gain=0.0)
        with pytest.raises(ValueError):
            ctl.ControlConfig(robust_gain=-1.0)
        with pytest.raises(ValueError):
            ctl.ControlConfig(boundary=-0.05)
        with pytest.raises(ValueError):
            ctl.ControlConfig(learn_rate=-1.0)

    def test_network(self):
        with pytest.raises(ValueError):
            ctl.RbfNetwork(centers=np.zeros((4, 16)), width=0.0)
        with pytest.raises(ValueError):
            ctl.weight_update(ADAPT, make_net(), np.zeros(8), np.zeros(4), 0.0)
