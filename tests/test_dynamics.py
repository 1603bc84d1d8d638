import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from autosand import dynamics as dyn

ANGLES = st.floats(-3.0, 3.0, allow_nan=False)
COORDS = st.floats(-0.9, 0.9, allow_nan=False)


def transform_chain(model, q):
    """Independent forward-kinematics oracle: homogeneous 3x3 planar transforms."""
    def trans(x, y):
        t = np.eye(3)
        t[0, 2], t[1, 2] = x, y
        return t

    def rot(a):
        c, s = math.cos(a), math.sin(a)
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    l1, l2 = model.link_lengths
    chain = trans(q[0], q[1]) @ rot(q[2]) @ trans(l1, 0) @ rot(q[3]) @ trans(l2, 0)
    return np.array([chain[0, 2], chain[1, 2], q[2] + q[3]])


class TestForwardKinematics:
    def test_zero_angles(self, model):
        x = dyn.forward_kinematics(model, np.zeros(4))
        assert x == pytest.approx([0.5, 0.0, 0.0])

    def test_right_angle(self, model):
        x = dyn.forward_kinematics(model, np.array([0.1, 0.2, math.pi / 2, 0.0]))
        assert x == pytest.approx([0.1, 0.7, math.pi / 2])

    @settings(max_examples=50, deadline=None)
    @given(COORDS, COORDS, ANGLES, ANGLES)
    def test_matches_transform_chain(self, qx, qy, t1, t2):
        model = dyn.RobotModel()
        q = np.array([qx, qy, t1, t2])
        assert dyn.forward_kinematics(model, q) == pytest.approx(
            transform_chain(model, q), abs=1e-12)


class TestJacobian:
    def test_prismatic_columns(self, model, rng):
        for _ in range(20):
            jac = dyn.jacobian(model, rng.uniform(-2, 2, 4))
            assert jac[:, 0] == pytest.approx([1.0, 0.0, 0.0])
            assert jac[:, 1] == pytest.approx([0.0, 1.0, 0.0])

    def test_third_column_at_zero(self, model):
        jac = dyn.jacobian(model, np.zeros(4))
        assert jac[:, 2] == pytest.approx([0.0, 0.5, 1.0])

    def test_finite_differences(self, model, rng):
        h = 1e-6
        for _ in range(50):
            q = rng.uniform(-2, 2, 4)
            jac_fd = np.zeros((3, 4))
            for k in range(4):
                dq = np.zeros(4)
                dq[k] = h
                jac_fd[:, k] = (dyn.forward_kinematics(model, q + dq)
                                - dyn.forward_kinematics(model, q - dq)) / (2 * h)
            assert np.abs(dyn.jacobian(model, q) - jac_fd).max() < 1e-6


class TestPseudoInverse:
    def test_orthonormal_rows(self):
        jac = np.hstack([np.eye(3), np.zeros((3, 1))])
        assert dyn.pseudo_inverse(jac) == pytest.approx(jac.T)
        assert dyn.pseudo_inverse(jac) @ np.ones(3) == pytest.approx([1, 1, 1, 0])

    def test_penrose_condition(self, rng):
        for _ in range(50):
            jac = rng.standard_normal((3, 4))
            pinv = dyn.pseudo_inverse(jac)
            assert np.abs(jac @ pinv @ jac - jac).max() < 1e-9
            assert np.abs(jac @ pinv - np.eye(3)).max() < 1e-10

    def test_rank_deficient_raises(self):
        jac = np.zeros((3, 4))
        jac[0] = jac[1] = [1.0, 2.0, 3.0, 4.0]
        with pytest.raises(dyn.SingularJacobian):
            dyn.pseudo_inverse(jac, damping=0.0)

    def test_damped_never_raises(self):
        jac = np.zeros((3, 4))
        pinv = dyn.pseudo_inverse(jac, damping=1e-3)
        assert np.isfinite(pinv).all()


class TestDynamicsTerms:
    def test_mass_symmetric_positive_definite(self, model, rng):
        for _ in range(200):
            mass, _, _ = dyn.dynamics_terms(model, rng.uniform(-3, 3, 4),
                                            rng.uniform(-3, 3, 4))
            assert np.abs(mass - mass.T).max() == 0.0
            assert np.linalg.eigvalsh(mass).min() > 0.0

    def test_skew_symmetry(self, model, rng):
        eps = 1e-6
        for _ in range(100):
            q = rng.uniform(-3, 3, 4)
            qd = rng.uniform(-3, 3, 4)
            _, cor, _ = dyn.dynamics_terms(model, q, qd)
            m_plus, _, _ = dyn.dynamics_terms(model, q + eps * qd, qd)
            m_minus, _, _ = dyn.dynamics_terms(model, q - eps * qd, qd)
            mdot = (m_plus - m_minus) / (2 * eps)
            skew = mdot - 2 * cor
            assert np.abs(skew + skew.T).max() < 1e-7

    def test_statics(self, model, rng):
        q = rng.uniform(-1, 1, 4)
        _, cor, grav = dyn.dynamics_terms(model, q, np.zeros(4))
        assert cor @ np.zeros(4) == pytest.approx(np.zeros(4))
        q_after, qdot_after = dyn.step(model, q, np.zeros(4), grav, None, 1e-4)
        assert np.abs(q_after - q).max() < 1e-9
        assert np.abs(qdot_after).max() < 1e-9


class TestContact:
    def test_separated(self):
        contact = dyn.BeltContact(plane_offset=0.05)
        x = np.array([0.04, 0.0, 0.0])
        assert dyn.contact_force(contact, x, np.zeros(3)) == pytest.approx(np.zeros(3))

    def test_spring_law(self):
        contact = dyn.BeltContact(plane_offset=0.05, stiffness=1e4, damping=0.0)
        x = np.array([0.0525, 0.0, 0.0])
        assert dyn.contact_force(contact, x, np.zeros(3)) == pytest.approx([-25.0, 0.0, 0.0])

    def test_continuous_at_touch(self):
        # quasi-static approach: no spring preload, force fades smoothly to zero
        contact = dyn.BeltContact(plane_offset=0.05, stiffness=1e4, damping=100.0)
        forces = [np.linalg.norm(dyn.contact_force(
            contact, np.array([0.05 + d, 0, 0]), np.zeros(3)))
            for d in (1e-4, 1e-6, 1e-8, 0.0)]
        assert forces[0] > forces[1] > forces[2] > 0.0
        assert forces[3] == 0.0
        assert forces[2] < 1e-3

    def test_damping_only_inward(self):
        contact = dyn.BeltContact(plane_offset=0.0, stiffness=1e3, damping=100.0)
        x = np.array([0.01, 0, 0])
        inward = dyn.contact_force(contact, x, np.array([0.5, 0, 0]))
        outward = dyn.contact_force(contact, x, np.array([-0.5, 0, 0]))
        assert inward[0] < outward[0] < 0.0

    def test_drag_only_in_contact(self):
        contact = dyn.BeltContact(plane_offset=0.0, drag=2.0)
        touching = np.array([0.001, 0, 0])
        apart = np.array([-0.001, 0, 0])
        assert dyn.drag_force(contact, touching) == pytest.approx([0.0, -2.0, 0.0])
        assert dyn.drag_force(contact, apart) == pytest.approx(np.zeros(3))


class TestStep:
    def test_gravity_compensation_equilibrium(self, model):
        q, qdot = np.array([0.1, -0.1, 0.4, -0.8]), np.zeros(4)
        _, _, grav = dyn.dynamics_terms(model, q, qdot)
        for _ in range(10):
            q, qdot = dyn.step(model, q, qdot, grav, None, 1e-4)
        assert np.abs(q - [0.1, -0.1, 0.4, -0.8]).max() < 1e-9

    def test_free_fall_closed_form(self):
        # rigid free fall reduces to a point mass on the y carriage; rotor
        # inertia is actuator-side so it is zeroed for the ballistic check
        model = dyn.RobotModel(gravity=1.0, rotor_inertias=(0, 0, 0, 0),
                               joint_limits=((-50, 50),) * 4)
        q, qdot, t = np.array([0.1, 0.5, 0.3, -0.4]), np.zeros(4), 0.0
        while t < 1.0 - 1e-12:
            q, qdot = dyn.step(model, q, qdot, np.zeros(4), None, 1e-4)
            t += 1e-4
        expected = 0.5 - 0.5 * model.gravity * t ** 2
        assert abs(q[1] - expected) < 1e-4
        assert np.abs(q[[0, 2, 3]] - [0.1, 0.3, -0.4]).max() < 1e-9

    def test_zero_dt_rejected(self, model):
        zero = np.zeros(4)
        with pytest.raises(ValueError):
            dyn.step(model, zero, zero, zero, None, 0.0)
        with pytest.raises(ValueError):
            dyn.step(model, zero, zero, zero, None, 0.02)

    def test_runaway_detected(self):
        model = dyn.RobotModel(joint_limits=((-1e6, 1e6),) * 4)
        q, qdot = np.zeros(4), np.zeros(4)
        with pytest.raises(dyn.IntegrationDiverged):
            for _ in range(100000):
                q, qdot = dyn.step(model, q, qdot, np.array([5e4, 0, 0, 0]),
                                   None, 1e-3)

    def test_nan_torque_detected(self, model):
        # NaN compares False with everything, so a plain `norm > bound`
        # test would let it through into q and qdot
        u = np.array([np.nan, 0.0, 0.0, 0.0])
        with pytest.raises(dyn.IntegrationDiverged, match="at t = 0.2500"):
            dyn.step(model, np.zeros(4), np.zeros(4), u, None, 1e-4, t=0.25)

    def test_joint_limit_reported(self, model):
        q, qdot = np.array([0.99, 0, 0, 0]), np.array([0.5, 0, 0, 0])
        with pytest.raises(dyn.JointLimitViolation):
            for _ in range(1000):
                q, qdot = dyn.step(model, q, qdot, np.zeros(4), None, 1e-3)

    def test_energy_drift(self):
        model = dyn.RobotModel(gravity=0.0, joint_limits=((-50, 50),) * 4)
        q = np.array([0.0, 0.0, 0.2, 0.4])
        qdot = np.array([0.05, -0.05, 1.0, -1.5])
        e0 = dyn.mechanical_energy(model, q, qdot)
        worst = 0.0
        for i in range(100000):
            q, qdot = dyn.step(model, q, qdot, np.zeros(4), None, 1e-4)
            if i % 2000 == 0:
                worst = max(worst, abs(dyn.mechanical_energy(model, q, qdot) - e0))
        worst = max(worst, abs(dyn.mechanical_energy(model, q, qdot) - e0))
        assert worst / abs(e0) < 1e-3


class TestRobotModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            dyn.RobotModel(link_lengths=(0.3, 0.0))
        with pytest.raises(ValueError):
            dyn.RobotModel(link_masses=(2, 2, -1, 0.5))
        with pytest.raises(ValueError):
            dyn.RobotModel(joint_limits=((1, -1), (-1, 1), (-3, 3), (-3, 3)))
