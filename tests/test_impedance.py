import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from autosand import impedance as imp

POSITIVE = st.floats(0.1, 50.0, allow_nan=False)


def rates(inertia, damping, stiffness):
    """factor_rates of the same target on all three axes."""
    return imp.factor_rates(np.full(3, inertia), np.full(3, damping), np.full(3, stiffness))


class TestFactorRates:
    def test_headline_gains(self):
        track, filt = rates(1.0, 12.5, 11.5)
        assert track == pytest.approx([11.5] * 3)
        assert filt == pytest.approx([1.0] * 3)

    def test_critically_damped(self):
        track, filt = rates(1.0, 2.0, 1.0)
        assert track == pytest.approx([1.0] * 3)
        assert filt == pytest.approx([1.0] * 3)

    def test_quadratic_roots(self):
        track, filt = rates(1.0, 3.0, 2.0)
        assert track == pytest.approx([2.0] * 3)
        assert filt == pytest.approx([1.0] * 3)

    def test_underdamped_rejected(self):
        with pytest.raises(imp.ComplexRoots):
            rates(1.0, 1.0, 10.0)

    @settings(max_examples=100, deadline=None)
    @given(POSITIVE, POSITIVE)
    def test_factorization_identity(self, inertia, damping):
        # pick stiffness on the real-root side of the discriminant
        stiffness = 0.2 * damping ** 2 / (4.0 * inertia)
        track, filt = rates(inertia, damping, stiffness)
        assert track + filt == pytest.approx(np.full(3, damping / inertia), rel=1e-12)
        assert track * filt == pytest.approx(np.full(3, stiffness / inertia), rel=1e-12)
        assert (track >= filt).all()


class TestImpedanceSpec:
    def test_defaults_match_headline(self):
        spec = imp.ImpedanceSpec()
        assert spec.track_rate == pytest.approx([11.5] * 3)
        assert spec.filter_rate == pytest.approx([1.0] * 3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            imp.ImpedanceSpec(inertia=(1.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            imp.ImpedanceSpec(stiffness=(-1.0, 11.5, 11.5))


class TestForceFilter:
    def test_rest_state(self):
        spec = imp.ImpedanceSpec()
        state = np.zeros(3)
        for _ in range(100):
            state = imp.filter_force_step(state, np.zeros(3), spec, 1e-3)
        assert state == pytest.approx(np.zeros(3))

    def test_dc_gain(self):
        spec = imp.ImpedanceSpec((1.0,) * 3, (2.0,) * 3, (1.0,) * 3)  # filter rate 1, inertia 1
        state = np.zeros(3)
        for _ in range(20000):
            state = imp.filter_force_step(state, np.array([2.0, 0, 0]), spec, 1e-3)
        assert state == pytest.approx([2.0, 0.0, 0.0], abs=1e-6)

    def test_single_step_closed_form(self):
        spec = imp.ImpedanceSpec((1.0,) * 3, (2.0,) * 3, (1.0,) * 3)
        state = imp.filter_force_step(np.zeros(3),
                                      np.array([1.0, 0, 0]), spec, 0.1)
        assert state[0] == pytest.approx(1.0 - math.exp(-0.1), abs=1e-12)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            imp.filter_force_step(np.zeros(3), np.zeros(3),
                                  imp.ImpedanceSpec(), 0.0)

    def test_bounded_response(self, rng):
        # |state| can never exceed |state_0| + |DC gain| * sup|input|
        spec = imp.ImpedanceSpec()
        bound = (1.0 / (spec.filter_rate * spec.inertia)).max() * 3.0 * math.sqrt(3)
        state = np.zeros(3)
        for _ in range(5000):
            state = imp.filter_force_step(state, rng.uniform(-3, 3, 3), spec, 1e-3)
            assert np.linalg.norm(state) <= bound + 1e-12


class TestImpedanceError:
    def test_perfect_tracking(self):
        z = imp.impedance_error(np.zeros(3), np.zeros(3), imp.ImpedanceSpec(),
                                np.zeros(3))
        assert z == pytest.approx(np.zeros(3))

    def test_single_term(self):
        z = imp.impedance_error(np.array([0.001, 0, 0]), np.zeros(3),
                                imp.ImpedanceSpec(), np.zeros(3))
        assert z == pytest.approx([0.0115, 0.0, 0.0])

    def test_target_model_identity(self):
        """The composite error obeys zdot + filter_rate*z = target-model residual.

        Smooth synthetic signals; the filter integrates the force error, z is
        assembled per sample, and the finite-differenced left side must match
        the second-order residual.
        """
        spec = imp.ImpedanceSpec()
        dt = 1e-4
        t = np.arange(0, 3.0, dt)

        def dx(tt):
            return np.stack([0.1 * np.sin(tt), 0.05 * np.cos(2 * tt),
                             0.02 * np.sin(3 * tt)], axis=-1)

        def dxdot(tt):
            return np.stack([0.1 * np.cos(tt), -0.1 * np.sin(2 * tt),
                             0.06 * np.cos(3 * tt)], axis=-1)

        def dxddot(tt):
            return np.stack([-0.1 * np.sin(tt), -0.2 * np.cos(2 * tt),
                             -0.18 * np.sin(3 * tt)], axis=-1)

        def df(tt):
            return np.stack([0.2 * np.sin(1.5 * tt), 0.1 * np.cos(tt),
                             np.zeros_like(tt)], axis=-1)

        state = np.zeros(3)
        z = np.zeros((len(t), 3))
        for i, ti in enumerate(t):
            z[i] = imp.impedance_error(dx(ti), dxdot(ti), spec, state)
            state = imp.filter_force_step(state, df(ti), spec, dt)
        zdot = np.gradient(z, t, axis=0)
        lhs = zdot + spec.filter_rate * z
        rhs = (dxddot(t) + (spec.damping / spec.inertia) * dxdot(t)
               + (spec.stiffness / spec.inertia) * dx(t)
               - df(t) / spec.inertia)
        err = np.linalg.norm(lhs - rhs, axis=1)[5:-5]
        assert err.max() < 1e-3

