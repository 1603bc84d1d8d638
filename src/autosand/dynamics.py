"""Planar 4-DOF gantry arm: kinematics, Lagrangian dynamics, belt contact, integration.

Joint vector q = (x, y, th1, th2): two prismatic carriage joints followed by two
revolute links (lengths l1, l2, modelled as uniform rods).  Task space is
(px, py, phi) with phi = th1 + th2, so the arm carries one redundant degree of
freedom and the task Jacobian is 3x4.

The Coriolis matrix is assembled from Christoffel symbols of the closed-form
mass matrix, which makes dM/dt - 2C exactly skew-symmetric; the convergence
analysis of the adaptive controller leans on that identity.

``step`` runs ten times per control tick, so ``dynamics_terms`` builds M and
C entry by entry from scalars, with the operations of the matrix form they
replace, and ``step`` does its kinematics, forces and joint-limit test on
Python floats.  Dot products and matvecs stay numpy calls, whose summation
order scalar code would not reproduce, and the acceleration is solved with
LAPACK ``dgesv``, which ``np.linalg.solve`` calls.  The results are
bit-identical to the matrix form, which ``tests/data/dynamics_ref.npz`` pins.
``pseudo_inverse`` solves with ``dgesv`` too and transposes a C-ordered copy
of the solution, so its result has the memory layout of ``np.linalg.solve``'s,
on which the summation order of the controller's ``J+ v`` matvec depends.

The state is a pair of plain arrays (q, qdot); ``step`` maps one pair to the
next, and the caller keeps the simulated time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgesv

QDOT_RUNAWAY = 1e3
MAX_STEP = 1e-2


class SingularJacobian(Exception):
    """Pseudo-inverse requested for a rank-deficient Jacobian."""


class IntegrationDiverged(Exception):
    """Joint velocities became non-finite or exceeded the runaway bound."""


class JointLimitViolation(Exception):
    """A joint moved outside its configured range (reported, never clamped)."""


def _arr(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


@dataclass
class RobotModel:
    """Kinematic and dynamic description of the arm.

    link_masses lists the four moving bodies in joint order: x carriage,
    y carriage, first link, second link.  rotor_inertias are actuator-side
    inertias reflected to each joint (kg on prismatic axes, kg.m^2 on
    revolute axes); they dominate the apparent inertia of the light wrist,
    as geared servo drives do.
    """

    link_lengths: np.ndarray = (0.3, 0.2)
    link_masses: np.ndarray = (2.0, 2.0, 1.0, 0.5)
    rotor_inertias: np.ndarray = (0.5, 0.5, 0.6, 0.4)
    gravity: float = 9.81
    joint_limits: np.ndarray = ((-1.0, 1.0), (-1.0, 1.0), (-3.2, 3.2), (-3.2, 3.2))
    velocity_limits: np.ndarray = (0.5, 0.5, 2.0, 2.0)
    acceleration_limits: np.ndarray = (2.0, 2.0, 8.0, 8.0)

    def __post_init__(self):
        self.link_lengths = _arr(self.link_lengths).reshape(2)
        self.link_masses = _arr(self.link_masses).reshape(4)
        self.rotor_inertias = _arr(self.rotor_inertias).reshape(4)
        self.joint_limits = _arr(self.joint_limits).reshape(4, 2)
        self.velocity_limits = _arr(self.velocity_limits).reshape(4)
        self.acceleration_limits = _arr(self.acceleration_limits).reshape(4)
        if (self.link_lengths <= 0).any():
            raise ValueError("link lengths must be strictly positive")
        if (self.link_masses <= 0).any():
            raise ValueError("masses must be strictly positive")
        if (self.rotor_inertias < 0).any():
            raise ValueError("rotor inertias must be non-negative")
        if (self.joint_limits[:, 0] >= self.joint_limits[:, 1]).any():
            raise ValueError("joint limits need min < max per joint")
        if (self.velocity_limits <= 0).any() or (self.acceleration_limits <= 0).any():
            raise ValueError("velocity/acceleration limits must be positive")


@dataclass
class BeltContact:
    """Unilateral spring-damper belt surface: the plane normal . x = plane_offset.

    ``normal`` points from free space into the belt material, so pressing into
    the belt yields a negative force along ``normal``.  ``drag`` is a constant
    tangential abrasion force applied only while in contact; it acts on the
    plant but is not part of the ideal normal contact law.
    """

    plane_offset: float
    stiffness: float = 1e4
    damping: float = 50.0
    normal: np.ndarray = (1.0, 0.0, 0.0)
    drag: float = 0.0
    tangent: np.ndarray = (0.0, -1.0, 0.0)

    def __post_init__(self):
        self.normal = _arr(self.normal).reshape(3)
        self.tangent = _arr(self.tangent).reshape(3)
        if self.stiffness <= 0:
            raise ValueError("contact stiffness must be positive")
        if self.damping < 0:
            raise ValueError("contact damping must be non-negative")
        if abs(np.linalg.norm(self.normal) - 1.0) > 1e-9:
            raise ValueError("contact normal must be a unit vector")


def forward_kinematics(model: RobotModel, q: np.ndarray) -> np.ndarray:
    """Task-space position (px, py, phi) of the end effector."""
    l1, l2 = model.link_lengths
    th1 = q[2]
    phi = q[2] + q[3]
    return np.array([q[0] + l1 * math.cos(th1) + l2 * math.cos(phi),
                     q[1] + l1 * math.sin(th1) + l2 * math.sin(phi),
                     phi])


def jacobian(model: RobotModel, q: np.ndarray) -> np.ndarray:
    """Analytic task Jacobian; the prismatic columns are the identity block."""
    l1, l2 = model.link_lengths
    th1 = q[2]
    phi = q[2] + q[3]
    a = -l1 * math.sin(th1) - l2 * math.sin(phi)
    b = -l2 * math.sin(phi)
    c = l1 * math.cos(th1) + l2 * math.cos(phi)
    d = l2 * math.cos(phi)
    return np.array([[1.0, 0.0, a, b],
                     [0.0, 1.0, c, d],
                     [0.0, 0.0, 1.0, 1.0]])


def pseudo_inverse(jac: np.ndarray) -> np.ndarray:
    """Right pseudo-inverse J^T (J J^T)^-1 of a wide Jacobian.

    A J J^T whose eigenvalue ratio (its condition number, as it is
    symmetric) exceeds 1e12 raises SingularJacobian.  For the 3-row task
    Jacobian, det > 0 and tr^3 < 1e11 det pass without eigenvalues: lmax and
    lmid are at most tr, so lmax / lmin <= tr^3 / det, and the factor 10
    covers rounding.  Any other J J^T gets eigvalsh's test and its verdict.
    """
    jac = _arr(jac)
    jjt = jac @ jac.T
    (a, _, _), (b, d, _), (c, e, f) = jjt.tolist()
    det = a * (d * f - e * e) - b * (b * f - c * e) + c * (b * e - c * d)
    tr = a + d + f
    if not (det > 0.0 and tr * tr * tr < 1e11 * det):
        eig = np.linalg.eigvalsh(jjt)
        if eig[0] <= 0.0 or eig[-1] > 1e12 * eig[0]:
            raise SingularJacobian("Jacobian is rank deficient")
    _, _, sol, info = dgesv(jjt, jac)
    if info:
        raise np.linalg.LinAlgError("singular J J^T in pseudo_inverse")
    return np.ascontiguousarray(sol).T


def dynamics_terms(model: RobotModel, q: np.ndarray, qdot: np.ndarray):
    """Mass matrix, Coriolis matrix and gravity vector at (q, qdot).

    Returns (M, C, g) with M symmetric positive definite and C built from
    Christoffel symbols so dM/dt - 2C is skew-symmetric.  With D3 and D4 the
    partial derivatives of M with respect to th1 = q[2] and th2 = q[3],
    C = (A + B - B^T) / 2, where A = D3 qdot[2] + D4 qdot[3] and B is zero
    but for its columns 2 and 3, D3 qdot and D4 qdot.
    """
    m1, m2, m3, m4 = model.link_masses.tolist()
    l1, l2 = model.link_lengths.tolist()
    r1, r2, r3, r4 = model.rotor_inertias.tolist()
    i3 = m3 * l1 * l1 / 12.0
    i4 = m4 * l2 * l2 / 12.0
    alpha = (0.5 * m3 + m4) * l1
    beta = 0.5 * m4 * l2
    gam = 0.5 * m4 * l1 * l2

    th1 = float(q[2])
    th2 = float(q[3])
    phi = th1 + th2
    s1, c1 = math.sin(th1), math.cos(th1)
    s12, c12 = math.sin(phi), math.cos(phi)
    s2, c2 = math.sin(th2), math.cos(th2)

    m234 = m2 + m3 + m4
    m13 = -alpha * s1 - beta * s12
    m14 = -beta * s12
    m23 = alpha * c1 + beta * c12
    m24 = beta * c12
    m33 = (0.25 * m3 + m4) * l1 * l1 + i3 + 0.25 * m4 * l2 * l2 + i4 + 2.0 * gam * c2
    m34 = 0.25 * m4 * l2 * l2 + i4 + gam * c2
    m44 = 0.25 * m4 * l2 * l2 + i4
    mass = np.array([
        [m1 + m2 + m3 + m4 + r1, 0.0, m13, m14],
        [0.0, m234 + r2, m23, m24],
        [m13, m23, m33 + r3, m34],
        [m14, m24, m34, m44 + r4],
    ])

    # the carriage coordinates never appear in M; m13 and m14 recur here as
    # the derivatives of m23 and m24
    dm13 = -alpha * c1 - beta * c12
    dm14 = -beta * c12
    dm33 = -2.0 * gam * s2
    dm34 = -gam * s2
    # D3 over D4: one 8x4 matvec equals two 4x4 ones bit for bit
    d34 = np.array([
        [0.0, 0.0, dm13, dm14],
        [0.0, 0.0, m13, m14],
        [dm13, m13, 0.0, 0.0],
        [dm14, m14, 0.0, 0.0],
        [0.0, 0.0, dm14, dm14],
        [0.0, 0.0, m14, m14],
        [dm14, m14, dm33, dm34],
        [dm14, m14, dm34, 0.0],
    ])

    # A is symmetric; B's columns stay a numpy matvec, whose summation order
    # scalar code would not reproduce.  The 0.0 terms repeat the zero
    # entries of the matrix form, so even the signs of zeros match it.
    dth1, dth2 = float(qdot[2]), float(qdot[3])
    a02 = dm13 * dth1 + dm14 * dth2
    a03 = dm14 * dth1 + dm14 * dth2
    a12 = m13 * dth1 + m14 * dth2
    a13 = m14 * dth1 + m14 * dth2
    a22 = 0.0 * dth1 + dm33 * dth2
    a23 = 0.0 * dth1 + dm34 * dth2
    b34 = (d34 @ qdot).tolist()
    b3, b4 = b34[:4], b34[4:]
    cor = np.array([
        [0.0, 0.0, 0.5 * (a02 + b3[0]), 0.5 * (a03 + b4[0])],
        [0.0, 0.0, 0.5 * (a12 + b3[1]), 0.5 * (a13 + b4[1])],
        [0.5 * (a02 + 0.0 - b3[0]), 0.5 * (a12 + 0.0 - b3[1]),
         0.5 * (a22 + b3[2] - b3[2]), 0.5 * (a23 + b4[2] - b3[3])],
        [0.5 * (a03 + 0.0 - b4[0]), 0.5 * (a13 + 0.0 - b4[1]),
         0.5 * (a23 + b3[3] - b4[2]), 0.0],
    ])

    g = model.gravity
    grav = np.array([g * 0.0, g * m234, g * m23, g * m24])
    return mass, cor, grav


def contact_force(contact: BeltContact, x: np.ndarray, xdot: np.ndarray) -> np.ndarray:
    """Normal contact force at task pose x and rate xdot; identically zero out
    of contact, continuous at touch."""
    depth = float(x @ contact.normal) - contact.plane_offset
    if depth <= 0.0:
        return np.zeros(3)
    rate = max(float(xdot @ contact.normal), 0.0)
    return -(contact.stiffness * depth + contact.damping * rate) * contact.normal


def step(model: RobotModel, q: np.ndarray, qdot: np.ndarray, u: np.ndarray,
         contact: BeltContact | None = None, dt: float = 1e-4,
         external_torque: np.ndarray | None = None, t: float = 0.0) -> tuple:
    """One semi-implicit Euler step of M qdd + C qd + g = u + J^T f_e.

    Returns the new (q, qdot).  Contact forces are evaluated at the current
    state.  ``external_torque`` injects an unmodelled joint-space disturbance
    (test plumbing).  ``t`` is the simulated time at the start of the step;
    it only names the moment of a failure in the error message.
    """
    if not 0.0 < dt <= MAX_STEP:
        raise ValueError(f"dt must be in (0, {MAX_STEP}], got {dt}")
    mass, cor, grav = dynamics_terms(model, q, qdot)
    tau = u - cor @ qdot - grav
    if contact is not None:
        # forward_kinematics, jacobian and contact_force inlined, plus the drag
        q0, q1, th1, th2 = np.asarray(q).tolist()
        l1, l2 = model.link_lengths.tolist()
        phi = th1 + th2
        s1, c1 = math.sin(th1), math.cos(th1)
        s12, c12 = math.sin(phi), math.cos(phi)
        x = np.array([q0 + l1 * c1 + l2 * c12, q1 + l1 * s1 + l2 * s12, phi])
        depth = float(x @ contact.normal) - contact.plane_offset
        # a NaN depth applies its NaN force, for the runaway test to catch
        if not depth <= 0.0:
            jac = np.array([[1.0, 0.0, -l1 * s1 - l2 * s12, -l2 * s12],
                            [0.0, 1.0, l1 * c1 + l2 * c12, l2 * c12],
                            [0.0, 0.0, 1.0, 1.0]])
            rate = max(float((jac @ qdot) @ contact.normal), 0.0)
            push = -(contact.stiffness * depth + contact.damping * rate)
            drag = [0.0] * 3 if contact.drag == 0.0 else \
                [contact.drag * v for v in contact.tangent.tolist()]
            f = [push * n + d for n, d in zip(contact.normal.tolist(), drag)]
            if f[0] or f[1] or f[2]:
                tau = tau + jac.T @ np.array(f)
    if external_torque is not None:
        tau = tau + external_torque
    _, _, qddot, info = dgesv(mass, tau)
    if info:
        raise np.linalg.LinAlgError(f"singular mass matrix at t = {t:.4f}")
    qdot_new = qdot + dt * qddot
    # written so that a NaN velocity fails the test too
    speed = math.sqrt(qdot_new @ qdot_new)
    if not speed <= QDOT_RUNAWAY:
        raise IntegrationDiverged(f"|qdot| = {speed:.3g} at t = {t:.4f}")
    q_new = q + dt * qdot_new
    for j, (v, (low, high)) in enumerate(zip(q_new.tolist(),
                                             model.joint_limits.tolist())):
        if v < low or v > high:
            raise JointLimitViolation(
                f"joint {j} at {v:.4f} outside [{low}, {high}] at t = {t:.4f}")
    return q_new, qdot_new


def mechanical_energy(model: RobotModel, q: np.ndarray, qdot: np.ndarray) -> float:
    """Kinetic plus gravitational potential energy (potential zero at q2 = 0)."""
    mass, _, _ = dynamics_terms(model, q, qdot)
    m1, m2, m3, m4 = model.link_masses
    l1, l2 = model.link_lengths
    s1 = math.sin(q[2])
    s12 = math.sin(q[2] + q[3])
    height = (m2 * q[1]
              + m3 * (q[1] + 0.5 * l1 * s1)
              + m4 * (q[1] + l1 * s1 + 0.5 * l2 * s12))
    return 0.5 * qdot @ mass @ qdot + model.gravity * height
