import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg.lapack import dgesv

from autosand import dynamics as dyn

ANGLES = st.floats(-3.0, 3.0, allow_nan=False)
COORDS = st.floats(-0.9, 0.9, allow_nan=False)
REFERENCE = Path(__file__).parent / "data" / "dynamics_ref.npz"


def dynamics_reference() -> dict:
    """Outputs of the dynamics layer on fixed seeded inputs.

    ``tests/data/dynamics_ref.npz`` holds these arrays as written by
    ``np.savez(REFERENCE, **dynamics_reference())``:

    - (M, C, g) at 64 states; every fourth state has a zero velocity, and
      single velocity entries are zeroed or negative in others;
    - a 2,000-step ``step`` trajectory that starts 1 mm short of the belt,
      moves into contact and presses on it, with 2 N drag and a constant
      external torque;
    - pseudo-inverses of 16 Jacobians.
    """
    model = dyn.RobotModel()
    rng = np.random.default_rng(5150)
    q = np.column_stack([rng.uniform(-0.9, 0.9, (64, 2)), rng.uniform(-3, 3, (64, 2))])
    qdot = rng.uniform(-2.0, 2.0, (64, 4))
    qdot[::4] = 0.0
    qdot[1::4, 2] = 0.0
    qdot[2::4, 3] = -np.abs(qdot[2::4, 3])
    terms = [dyn.dynamics_matrices(model, a, b) for a, b in zip(q, qdot)]

    contact = dyn.BeltContact(plane_offset=0.049, stiffness=1e4, damping=800.0,
                              drag=2.0)
    l1, l2 = model.link_lengths
    th1 = 0.6
    q0 = np.array([0.048 - l1 * math.cos(th1) - l2, -l1 * math.sin(th1), th1, -th1])
    _, _, grav = dyn.dynamics_matrices(model, q0, np.zeros(4))
    u = grav + dyn.jacobian(model, q0).T @ np.array([30.0, 0.0, 0.0])
    tau_ext = np.array([0.3, -0.2, 0.05, -0.02])
    state, qdot_k = q0, np.array([0.02, 0.0, 0.0, 0.0])
    trajectory = np.zeros((2000, 8))
    for k in range(2000):
        state, qdot_k = dyn.step(model, state, qdot_k, u, contact, 1e-4,
                                 external_torque=tau_ext)
        trajectory[k] = np.concatenate([state, qdot_k])

    jac_q = rng.uniform(-3.0, 3.0, (16, 4))
    jacs = np.array([dyn.jacobian(model, a) for a in jac_q])
    return {
        "q": q, "qdot": qdot,
        "mass": np.array([t[0] for t in terms]),
        "coriolis": np.array([t[1] for t in terms]),
        "gravity": np.array([t[2] for t in terms]),
        "step_q0": q0, "step_u": u, "step_tau_ext": tau_ext,
        "step_trajectory": trajectory,
        "jacobians": jacs,
        "pinv": np.array([dyn.pseudo_inverse(j) for j in jacs]),
    }


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


NORMAL = np.array([1.0, 0.0, 0.0])      # the belt's: BeltContact is the plane x = offset
TANGENT = np.array([0.0, -1.0, 0.0])    # the direction of the drag


def vector_contact_force(contact, x, xdot):
    """``contact_force`` as it was written on vectors, along the belt normal."""
    depth = float(x @ NORMAL) - contact.plane_offset
    if depth <= 0.0:
        return np.zeros(3)
    rate = max(float(xdot @ NORMAL), 0.0)
    return -(contact.stiffness * depth + contact.damping * rate) * NORMAL


def vector_step(model, q, qdot, u, contact, dt, external_torque=None):
    """``step`` as it was written on vectors, through forward_kinematics,
    jacobian, the vector contact force and the drag vector, without the
    runaway and joint-limit tests: the reference that the scalar sums of
    ``step`` must equal bit for bit."""
    mass, cor, grav = dyn.dynamics_matrices(model, q, qdot)
    tau = u - cor @ qdot - grav
    if contact is not None:
        jac = dyn.jacobian(model, q)
        x = dyn.forward_kinematics(model, q)
        depth = float(x @ NORMAL) - contact.plane_offset
        drag = np.zeros(3) if depth <= 0.0 or contact.drag == 0.0 \
            else contact.drag * TANGENT
        f = vector_contact_force(contact, x, jac @ qdot) + drag
        if f.any():
            tau = tau + jac.T @ f
    if external_torque is not None:
        tau = tau + external_torque
    qdot_new = qdot + dt * np.linalg.solve(mass, tau)
    return q + dt * qdot_new, qdot_new


def matrix_terms(model, q, qdot):
    """``dynamics_terms`` on matrices: M and g in closed form, and
    C = (A + B - B^T) / 2 with B's columns the numpy matvecs D3 qdot and
    D4 qdot."""
    m1, m2, m3, m4 = model.link_masses
    l1, l2 = model.link_lengths
    r1, r2, r3, r4 = model.rotor_inertias
    i3, i4 = m3 * l1 * l1 / 12.0, m4 * l2 * l2 / 12.0
    alpha, beta, gam = (0.5 * m3 + m4) * l1, 0.5 * m4 * l2, 0.5 * m4 * l1 * l2
    th1, th2 = q[2], q[3]
    s1, c1 = math.sin(th1), math.cos(th1)
    s12, c12 = math.sin(th1 + th2), math.cos(th1 + th2)
    s2, c2 = math.sin(th2), math.cos(th2)
    m13, m14 = -alpha * s1 - beta * s12, -beta * s12
    m23, m24 = alpha * c1 + beta * c12, beta * c12
    m33 = (0.25 * m3 + m4) * l1 * l1 + i3 + 0.25 * m4 * l2 * l2 + i4 + 2.0 * gam * c2
    m34 = 0.25 * m4 * l2 * l2 + i4 + gam * c2
    m44 = 0.25 * m4 * l2 * l2 + i4
    mass = np.array([[m1 + m2 + m3 + m4 + r1, 0.0, m13, m14],
                     [0.0, m2 + m3 + m4 + r2, m23, m24],
                     [m13, m23, m33 + r3, m34],
                     [m14, m24, m34, m44 + r4]])
    dm13, dm14 = -alpha * c1 - beta * c12, -beta * c12
    dm33, dm34 = -2.0 * gam * s2, -gam * s2
    d3 = np.array([[0.0, 0.0, dm13, dm14], [0.0, 0.0, m13, m14],
                   [dm13, m13, 0.0, 0.0], [dm14, m14, 0.0, 0.0]])
    d4 = np.array([[0.0, 0.0, dm14, dm14], [0.0, 0.0, m14, m14],
                   [dm14, m14, dm33, dm34], [dm14, m14, dm34, 0.0]])
    a = d3 * qdot[2] + d4 * qdot[3]
    b = np.zeros((4, 4))
    b[:, 2], b[:, 3] = d3 @ qdot, d4 @ qdot
    cor = 0.5 * (a + b - b.T)
    g = model.gravity
    return mass, cor, np.array([g * 0.0, g * (m2 + m3 + m4), g * m23, g * m24])


def mechanical_energy(model, q, qdot):
    """Kinetic plus gravitational potential energy (potential zero at q2 = 0)."""
    mass, _, _ = dyn.dynamics_matrices(model, q, qdot)
    m1, m2, m3, m4 = model.link_masses
    l1, l2 = model.link_lengths
    s1 = math.sin(q[2])
    s12 = math.sin(q[2] + q[3])
    height = (m2 * q[1]
              + m3 * (q[1] + 0.5 * l1 * s1)
              + m4 * (q[1] + l1 * s1 + 0.5 * l2 * s12))
    return 0.5 * qdot @ mass @ qdot + model.gravity * height


def signed_zero_state(rng):
    """A seeded (q, qdot) in which angles (so sines) and rates are often
    exact zeros of either sign."""
    q = np.concatenate([rng.uniform(-1, 1, 2), rng.uniform(-3.2, 3.2, 2)])
    qdot = rng.uniform(-2, 2, 4) * 10.0 ** rng.integers(-3, 1)
    zero = rng.random(6) < 0.3
    q[2:][zero[:2]] = rng.choice([0.0, -0.0], 2)[zero[:2]]
    qdot[zero[2:]] = rng.choice([0.0, -0.0], 4)[zero[2:]]
    return q, qdot


def row_sum(row, x):
    """The 4-column row times x in the order numpy's matvec sums it."""
    (a0, a1, a2, a3), (x0, x1, x2, x3) = row, x
    return ((a0 * x0 + a2 * x2) + (a1 * x1 + a3 * x3)) + 0.0


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


class TestContactConfiguration:
    def test_inverts_forward_kinematics(self, model, rng):
        for _ in range(200):
            px, py = rng.uniform(-0.5, 0.5, 2)
            phi, th1 = rng.uniform(-3.0, 3.0, 2)
            q = dyn.contact_configuration(model, px, py, phi, th1)
            assert q[2] == th1
            assert dyn.forward_kinematics(model, q) == pytest.approx([px, py, phi],
                                                                     abs=1e-12)

    def test_matches_numpy_trigonometry(self, model):
        """The workcell's task configurations were written with np.cos and
        np.sin, the first link at half the tool angle.  math's functions give
        the same bits on sampled angles, so no task moves."""
        rng = np.random.default_rng(96)
        l1, l2 = model.link_lengths
        for phi in rng.uniform(-math.pi, math.pi, 20000).tolist():
            px = float(rng.uniform(-0.3, 0.3))
            th1 = phi / 2.0
            old = np.array([px - l1 * np.cos(th1) - l2 * np.cos(phi),
                            -l1 * np.sin(th1) - l2 * np.sin(phi), th1, th1])
            got = dyn.contact_configuration(model, px, 0.0, phi, th1)
            assert got.tobytes() == old.tobytes(), phi


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


def conditioned_jacobian(cond, seed=3):
    """A 3x4 Jacobian whose J J^T has condition number ``cond``."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    v, _ = np.linalg.qr(rng.standard_normal((4, 3)))
    return u @ np.diag([1.0, 0.7, cond ** -0.5]) @ v.T


def in_limit_jacobian(q):
    return dyn.jacobian(dyn.RobotModel(), np.array(q))


def rank_deficient_jacobian(rows, pattern):
    """A 3x4 Jacobian whose rows are exactly dependent in floating point."""
    r0, r1 = np.array(rows[:4]), np.array(rows[4:])
    return np.array({"repeat": [r0, r1, r0], "double": [r0, r1, 2.0 * r1],
                     "zero": [r0, r1, 0.0 * r0], "rank1": [r0, -r0, 0.5 * r0]}[pattern])


RANK_TEST_JACOBIANS = st.one_of(
    st.tuples(*[st.floats(lo, hi) for lo, hi in dyn.RobotModel().joint_limits.tolist()])
    .map(in_limit_jacobian),
    # near-singular J, scaled as a whole or row by row
    st.builds(lambda c, seed, s: conditioned_jacobian(10.0 ** c, seed) * 10.0 ** s,
              st.floats(10.0, 14.0), st.integers(0, 2 ** 16), st.integers(-3, 3)),
    st.builds(lambda c, seed, s: conditioned_jacobian(10.0 ** c, seed) * 10.0 ** np.c_[s],
              st.floats(0.0, 15.0), st.integers(0, 2 ** 16),
              st.lists(st.integers(-4, 4), min_size=3, max_size=3)),
    st.builds(rank_deficient_jacobian, st.lists(st.floats(-5.0, 5.0), min_size=8,
                                                max_size=8),
              st.sampled_from(["repeat", "double", "zero", "rank1"])),
)


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
            dyn.pseudo_inverse(jac)

    def test_lapack_solve_matches_numpy(self):
        """pseudo_inverse solves J J^T X = J with dgesv and transposes a
        C-ordered copy of X.  That equals np.linalg.solve(jjt, jac).T in its
        bits and in its memory layout, on which the summation order of the
        controller's J+ v matvec depends.  A build whose LAPACK differs, or a
        result in another layout, fails here before it can move a trace."""
        rng = np.random.default_rng(79)
        for _ in range(1000):
            jac = rng.standard_normal((3, 4)) * 10.0 ** rng.integers(-2, 3)
            want = np.linalg.solve(jac @ jac.T, jac).T
            got = dyn.pseudo_inverse(jac)
            assert got.tobytes() == want.tobytes()
            assert got.strides == want.strides

    def test_failed_solve_raises(self, monkeypatch):
        monkeypatch.setattr(dyn, "dgesv", lambda a, b: (a, None, b, 2))
        with pytest.raises(np.linalg.LinAlgError):
            dyn.pseudo_inverse(np.eye(3, 4))

    @settings(max_examples=400, deadline=None)
    @given(jac=RANK_TEST_JACOBIANS)
    def test_rank_verdict_is_eigvalsh(self, jac):
        """The closed-form pass of the rank test never overrules eigvalsh:
        in-limit arm configurations, near-singular and rank-deficient J."""
        eig = np.linalg.eigvalsh(jac @ jac.T)
        try:
            dyn.pseudo_inverse(jac)
        except dyn.SingularJacobian:
            raised = True
        else:
            raised = False
        assert raised == bool(eig[0] <= 0.0 or eig[-1] > 1e12 * eig[0])

    def test_in_limit_configurations_skip_eigvalsh(self, model, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        lo, hi = model.joint_limits.T
        for q in np.random.default_rng(11).uniform(lo, hi, (1000, 4)):
            dyn.pseudo_inverse(dyn.jacobian(model, q))
        assert not calls

    @pytest.mark.parametrize("cond, singular", [
        (1e8, False), (1e10, False), (1e11, False), (9e11, False),
        (1.2e12, True), (1e13, True), (1e14, True)])
    def test_rank_test_threshold(self, cond, singular):
        """The rank test trips where cond(J J^T) passes 1e12."""
        jac = conditioned_jacobian(cond)
        assert np.linalg.cond(jac @ jac.T) == pytest.approx(cond, rel=1e-2)
        if singular:
            with pytest.raises(dyn.SingularJacobian):
                dyn.pseudo_inverse(jac)
        else:
            pinv = dyn.pseudo_inverse(jac)
            assert np.abs(jac @ pinv - np.eye(3)).max() < 1e-4


class TestDynamicsTerms:
    def test_mass_symmetric_positive_definite(self, model, rng):
        for _ in range(200):
            mass, _, _ = dyn.dynamics_matrices(model, rng.uniform(-3, 3, 4),
                                            rng.uniform(-3, 3, 4))
            assert np.abs(mass - mass.T).max() == 0.0
            assert np.linalg.eigvalsh(mass).min() > 0.0

    def test_skew_symmetry(self, model, rng):
        eps = 1e-6
        for _ in range(100):
            q = rng.uniform(-3, 3, 4)
            qd = rng.uniform(-3, 3, 4)
            _, cor, _ = dyn.dynamics_matrices(model, q, qd)
            m_plus, _, _ = dyn.dynamics_matrices(model, q + eps * qd, qd)
            m_minus, _, _ = dyn.dynamics_matrices(model, q - eps * qd, qd)
            mdot = (m_plus - m_minus) / (2 * eps)
            skew = mdot - 2 * cor
            assert np.abs(skew + skew.T).max() < 1e-7

    def test_terms_match_matrix_form(self, model):
        """The scalar sums of dynamics_terms equal the matrix form
        (``matrix_terms``) bit for bit, signed zeros included."""
        rng = np.random.default_rng(93)
        for k in range(2000):
            q, qdot = signed_zero_state(rng)
            for got, want in zip(dyn.dynamics_matrices(model, q, qdot),
                                 matrix_terms(model, q, qdot)):
                assert got.tobytes() == want.tobytes(), k

    def test_kernel_returns_floats(self, model, rng):
        for _ in range(100):
            q, qdot = rng.uniform(-3, 3, 4), rng.uniform(-3, 3, 4)
            terms = dyn.dynamics_terms(model, q.tolist(), qdot.tolist())
            assert len(terms) == 25
            assert all(type(v) is float for v in terms)

    def test_tick_terms_match_separate_calls(self, model):
        """The x, J and M that a control tick builds from one dynamics_terms
        call (task_terms) equal forward_kinematics, jacobian and
        dynamics_matrices' M byte for byte, on the 64 reference states and
        on seeded states with zeros of either sign."""
        ref = np.load(REFERENCE)
        rng = np.random.default_rng(94)
        states = list(zip(ref["q"], ref["qdot"])) + [signed_zero_state(rng)
                                                     for _ in range(2000)]
        for k, (q, qdot) in enumerate(states):
            x, jac, mass = dyn.task_terms(model, q, qdot)
            assert x.tobytes() == dyn.forward_kinematics(model, q).tobytes(), k
            assert jac.tobytes() == dyn.jacobian(model, q).tobytes(), k
            assert mass.tobytes() == dyn.dynamics_matrices(model, q, qdot)[0].tobytes(), k

    def test_statics(self, model, rng):
        q = rng.uniform(-1, 1, 4)
        _, cor, grav = dyn.dynamics_matrices(model, q, np.zeros(4))
        assert cor @ np.zeros(4) == pytest.approx(np.zeros(4))
        q_after, qdot_after = dyn.step(model, q, np.zeros(4), grav, None, 1e-4)
        assert np.abs(q_after - q).max() < 1e-9
        assert np.abs(qdot_after).max() < 1e-9


class TestContact:
    def test_separated(self):
        contact = dyn.BeltContact(plane_offset=0.05, stiffness=1e4, damping=50.0, drag=0.0)
        x = np.array([0.04, 0.0, 0.0])
        assert dyn.contact_force(contact, x, np.zeros(3)) == pytest.approx(np.zeros(3))

    def test_spring_law(self):
        contact = dyn.BeltContact(plane_offset=0.05, stiffness=1e4, damping=0.0, drag=0.0)
        x = np.array([0.0525, 0.0, 0.0])
        assert dyn.contact_force(contact, x, np.zeros(3)) == pytest.approx([-25.0, 0.0, 0.0])

    def test_continuous_at_touch(self):
        # quasi-static approach: no spring preload, force fades smoothly to zero
        contact = dyn.BeltContact(plane_offset=0.05, stiffness=1e4, damping=100.0,
                                  drag=0.0)
        forces = [np.linalg.norm(dyn.contact_force(
            contact, np.array([0.05 + d, 0, 0]), np.zeros(3)))
            for d in (1e-4, 1e-6, 1e-8, 0.0)]
        assert forces[0] > forces[1] > forces[2] > 0.0
        assert forces[3] == 0.0
        assert forces[2] < 1e-3

    def test_damping_only_inward(self):
        contact = dyn.BeltContact(plane_offset=0.0, stiffness=1e3, damping=100.0, drag=0.0)
        x = np.array([0.01, 0, 0])
        inward = dyn.contact_force(contact, x, np.array([0.5, 0, 0]))
        outward = dyn.contact_force(contact, x, np.array([-0.5, 0, 0]))
        assert inward[0] < outward[0] < 0.0

    def test_drag_only_in_contact(self, model):
        """The drag reaches the plant as J^T (drag * tangent), only while
        the tool is in the belt; at q = 0 the tool sits at x = 0.5."""
        q, rest = np.zeros(4), np.zeros(4)
        mass, _, _ = dyn.dynamics_matrices(model, q, rest)
        for offset, touching in ((0.499, True), (0.501, False)):
            plain = dyn.step(model, q, rest, rest,
                             dyn.BeltContact(offset, 1e4, 50.0, drag=0.0), 1e-4)[1]
            dragged = dyn.step(model, q, rest, rest,
                               dyn.BeltContact(offset, 1e4, 50.0, drag=2.0), 1e-4)[1]
            expected = dyn.jacobian(model, q).T @ [0.0, -2.0, 0.0] if touching \
                else np.zeros(4)
            assert mass @ (dragged - plain) / 1e-4 == pytest.approx(expected, abs=1e-8)


class TestStep:
    def test_gravity_compensation_equilibrium(self, model):
        q, qdot = np.array([0.1, -0.1, 0.4, -0.8]), np.zeros(4)
        _, _, grav = dyn.dynamics_matrices(model, q, qdot)
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

    def test_nan_carriage_in_contact_detected(self, model):
        """A NaN carriage coordinate makes the contact depth NaN.  Its NaN
        force must reach the velocity, where the runaway test catches it;
        skipped as out of contact, the NaN would pass the joint-limit test."""
        q = np.array([np.nan, 0.0, 0.4, -0.8])
        contact = dyn.BeltContact(plane_offset=0.0, stiffness=1e4, damping=50.0, drag=0.0)
        with pytest.raises(dyn.IntegrationDiverged):
            dyn.step(model, q, np.zeros(4), np.zeros(4), contact, 1e-4)

    def test_contact_path_matches_vector_form(self):
        """The scalar kinematics, forces and sums of step equal the vector
        form (``vector_step``) bit for bit, signed zeros included, on seeded
        states on both sides of the belt, exactly on it and in free flight,
        with and without drag, damping and an external torque; so does
        contact_force."""
        rng = np.random.default_rng(91)
        model = dyn.RobotModel(joint_limits=((-50.0, 50.0),) * 4)
        for k in range(2000):
            q, qdot = signed_zero_state(rng)
            u = rng.standard_normal(4) * 10.0 ** rng.integers(-2, 3)
            u[rng.random(4) < 0.2] = (0.0, -0.0)[k % 2]
            depth = 0.0 if k % 7 == 0 else rng.uniform(-3e-3, 3e-3)
            x = dyn.forward_kinematics(model, q)
            contact = dyn.BeltContact(
                float(x[0]) - depth, stiffness=10.0 ** rng.uniform(2, 6),
                damping=(0.0, 50.0, 800.0)[k % 3], drag=(0.0, 2.0, -1.5)[k % 3 - 1])
            tau_ext = None if k % 2 else rng.standard_normal(4)
            for belt in (contact, None):
                got = dyn.step(model, q, qdot, u, belt, 1e-4, tau_ext)
                want = vector_step(model, q, qdot, u, belt, 1e-4, tau_ext)
                for a, b in zip(got, want):
                    assert a.tobytes() == b.tobytes(), k
            xdot = dyn.jacobian(model, q) @ qdot
            assert (dyn.contact_force(contact, x, xdot).tobytes()
                    == vector_contact_force(contact, x, xdot).tobytes()), k

    def test_zero_states_match_vector_form(self, wide_model):
        """With gravity off, every sign pattern of zero rates and torques,
        at zero angles of either sign, in free flight and pressed 1 mm into
        the belt, with no drag, with drag and with a belt running the other
        way: the states where the + 0.0 of numpy's row sums decides the sign
        of a zero that reaches the result."""
        model = dyn.RobotModel(gravity=0.0, joint_limits=wide_model.joint_limits)
        signs = list(itertools.product((0.0, -0.0), repeat=4))
        for th in itertools.product((0.0, -0.0), repeat=2):
            q = np.array([0.0, 0.0, *th])
            x0 = float(dyn.forward_kinematics(model, q)[0])
            for drag in (None, 0.0, 2.0, -1.5):
                belt = None if drag is None else dyn.BeltContact(
                    x0 - 1e-3, stiffness=1e4, damping=50.0, drag=drag)
                for qdot, u in itertools.product(signs, signs):
                    qdot, u = np.array(qdot), np.array(u)
                    got = dyn.step(model, q, qdot, u, belt, 1e-4)
                    want = vector_step(model, q, qdot, u, belt, 1e-4)
                    for a, b in zip(got, want):
                        assert a.tobytes() == b.tobytes(), (th, drag, qdot, u)

    def test_chains_match_vector_form(self):
        """Ten steps chained from seeded states near the belt, each form
        from its own last state, stay equal bit for bit: the states the
        sanding loop feeds back, not only fresh ones."""
        rng = np.random.default_rng(92)
        model = dyn.RobotModel(joint_limits=((-50.0, 50.0),) * 4)
        for k in range(200):
            q = np.concatenate([rng.uniform(-1, 1, 2), rng.uniform(-3.2, 3.2, 2)])
            qdot = rng.uniform(-0.5, 0.5, 4)
            u = rng.standard_normal(4) * 10.0
            x = dyn.forward_kinematics(model, q)
            contact = None if k % 4 == 0 else dyn.BeltContact(
                float(x[0]) - rng.uniform(-1e-4, 1e-3), stiffness=1e4,
                damping=(0.0, 800.0)[k % 2], drag=(0.0, 2.0)[k % 3 == 1])
            got = want = (q, qdot)
            for i in range(10):
                got = dyn.step(model, *got, u, contact, 1e-4)
                want = vector_step(model, *want, u, contact, 1e-4)
                for a, b in zip(got, want):
                    assert a.tobytes() == b.tobytes(), (k, i)

    def test_lapack_solve_matches_numpy(self):
        """step solves with LAPACK dgesv directly; numpy's solve calls the
        same routine, so on SPD 4x4 systems like M the two agree bit for
        bit.  A numpy or scipy build whose LAPACK differs fails here before
        it can move a stored trace."""
        rng = np.random.default_rng(77)
        for _ in range(1000):
            a = rng.standard_normal((4, 4))
            mass = a @ a.T + rng.uniform(0.01, 5.0) * np.eye(4)
            tau = rng.standard_normal(4) * 10.0 ** rng.integers(-3, 4)
            _, _, x, info = dgesv(mass, tau)
            assert info == 0
            assert np.array_equal(x, np.linalg.solve(mass, tau))

    @pytest.mark.parametrize("rows", [8, 4, 3])
    def test_row_sums_match_numpy(self, rows):
        """dynamics_terms and step sum their 4-column matvecs on floats as
        ``row_sum`` does: (a0 x0 + a2 x2) + (a1 x1 + a3 x3), then + 0.0, as
        this numpy build's BLAS sums a C-ordered row (the + 0.0 is the
        kernel's zero start, which turns a -0.0 sum into +0.0).  Exact and
        signed zeros and magnitudes from 1e-3 to 1e3 included; a BLAS that
        sums in another order fails here before it can move a stored trace."""
        rng = np.random.default_rng(80 + rows)
        checked = 0
        while checked < 10000:
            a = rng.standard_normal((rows, 4)) * 10.0 ** rng.uniform(-3, 3, (rows, 4))
            a[rng.random((rows, 4)) < 0.25] = 0.0
            a[rng.random((rows, 4)) < 0.1] = -0.0
            x = rng.standard_normal(4) * 10.0 ** rng.uniform(-3, 3, 4)
            x[rng.random(4) < 0.2] = (0.0, -0.0)[checked % 2]
            want = a @ x
            got = np.array([row_sum(row, x.tolist()) for row in a.tolist()])
            assert got.tobytes() == want.tobytes()
            checked += rows

    def test_transposed_matvec_ignores_zero_signs(self):
        """step passes its contact force f to numpy's J^T f with no care for
        the signs of its zeros.  That holds because the BLAS sum starts at
        +0: flipping the sign of any zero entry of f leaves every byte of
        J^T f unchanged.  Jacobians of seeded states, a quarter of them at
        zero angles of either sign; forces with zero entries of both signs."""
        rng = np.random.default_rng(93)
        model = dyn.RobotModel()
        for k in range(4000):
            q, _ = signed_zero_state(rng)
            if k % 4 == 0:
                q[2:] = rng.choice([0.0, -0.0], 2)
            jac = dyn.jacobian(model, q)
            f = rng.standard_normal(3) * 10.0 ** rng.uniform(-2, 2, 3)
            zero = rng.random(3) < 0.4
            f[zero] = rng.choice([0.0, -0.0], 3)[zero]
            flipped = np.where(zero, -f, f)
            assert (jac.T @ f).tobytes() == (jac.T @ flipped).tobytes(), (q, f)
            # step calls the same kernel as f.J, which numpy dispatches faster
            assert f.dot(jac).tobytes() == (jac.T @ f).tobytes(), (q, f)

    def test_singular_mass_raises(self, model, monkeypatch):
        zero = np.zeros(4)
        monkeypatch.setattr(dyn, "dgesv", lambda a, b, *_: (a, None, b, 4))
        with pytest.raises(np.linalg.LinAlgError, match="at t = 0.5000"):
            dyn.step(model, zero, zero, zero, None, 1e-4, t=0.5)

    def test_joint_limit_reported(self, model):
        q, qdot = np.array([0.99, 0, 0, 0]), np.array([0.5, 0, 0, 0])
        with pytest.raises(dyn.JointLimitViolation,
                           match=r"joint 0 at 1\.00\d\d outside \[-1\.0, 1\.0\]"):
            for _ in range(1000):
                q, qdot = dyn.step(model, q, qdot, np.zeros(4), None, 1e-3)
        # two joints leave their range in one step: the first is named
        q, qdot = np.array([0.0, 0.0, 3.2, -3.2]), np.array([0.0, 0.0, 1.0, -1.0])
        with pytest.raises(dyn.JointLimitViolation,
                           match=r"joint 2 at 3\.2001 outside \[-3\.2, 3\.2\] at t = 0\.5000"):
            dyn.step(model, q, qdot, np.zeros(4), None, 1e-4, t=0.5)

    def test_energy_drift(self):
        model = dyn.RobotModel(gravity=0.0, joint_limits=((-50, 50),) * 4)
        q = np.array([0.0, 0.0, 0.2, 0.4])
        qdot = np.array([0.05, -0.05, 1.0, -1.5])
        e0 = mechanical_energy(model, q, qdot)
        worst = 0.0
        for i in range(100000):
            q, qdot = dyn.step(model, q, qdot, np.zeros(4), None, 1e-4)
            if i % 2000 == 0:
                worst = max(worst, abs(mechanical_energy(model, q, qdot) - e0))
        worst = max(worst, abs(mechanical_energy(model, q, qdot) - e0))
        assert worst / abs(e0) < 1e-3


class TestReference:
    def test_matches_stored_reference(self):
        """Every output of the layer equals the stored reference bit for bit.

        The closed-loop trace reaches the integrator only through the
        controller; this pins dynamics_terms, step and pseudo_inverse
        directly, exactly, because a rewrite of them must not move a bit.
        """
        expected = np.load(REFERENCE)
        actual = dynamics_reference()
        assert sorted(expected.files) == sorted(actual)
        for name in expected.files:
            assert np.array_equal(actual[name], expected[name]), name


class TestRobotModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            dyn.RobotModel(link_lengths=(0.3, 0.0))
        with pytest.raises(ValueError):
            dyn.RobotModel(link_masses=(2, 2, -1, 0.5))
        with pytest.raises(ValueError):
            dyn.RobotModel(joint_limits=((1, -1), (-1, 1), (-3, 3), (-3, 3)))
