"""Planar 4-DOF gantry arm: kinematics, Lagrangian dynamics, belt contact, integration.

Joint vector q = (x, y, th1, th2): two prismatic carriage joints followed by two
revolute links (lengths l1, l2, modelled as uniform rods).  Task space is
(px, py, phi) with phi = th1 + th2, so the arm carries one redundant degree of
freedom and the task Jacobian is 3x4.

The Coriolis matrix is assembled from Christoffel symbols of the closed-form
mass matrix, which makes dM/dt - 2C exactly skew-symmetric; the convergence
analysis of the adaptive controller leans on that identity.

The state is a pair of plain arrays (q, qdot); ``step`` maps one pair to the
next, and the caller keeps the simulated time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

QDOT_RUNAWAY = 1e3
MAX_STEP = 1e-2


class SingularJacobian(Exception):
    """Undamped pseudo-inverse requested for a rank-deficient Jacobian."""


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


def pseudo_inverse(jac: np.ndarray, damping: float = 0.0) -> np.ndarray:
    """Right pseudo-inverse J^T (J J^T + damping^2 I)^-1 of a wide Jacobian."""
    jac = _arr(jac)
    jjt = jac @ jac.T
    if damping == 0.0:
        if np.linalg.cond(jjt) > 1e12:
            raise SingularJacobian("Jacobian is rank deficient and damping is zero")
    else:
        jjt = jjt + damping ** 2 * np.eye(jjt.shape[0])
    return np.linalg.solve(jjt, jac).T


def dynamics_terms(model: RobotModel, q: np.ndarray, qdot: np.ndarray):
    """Mass matrix, Coriolis matrix and gravity vector at (q, qdot).

    Returns (M, C, g) with M symmetric positive definite and C built from
    Christoffel symbols so dM/dt - 2C is skew-symmetric.
    """
    m1, m2, m3, m4 = model.link_masses
    l1, l2 = model.link_lengths
    i3 = m3 * l1 * l1 / 12.0
    i4 = m4 * l2 * l2 / 12.0
    alpha = (0.5 * m3 + m4) * l1
    beta = 0.5 * m4 * l2
    gam = 0.5 * m4 * l1 * l2

    th1 = q[2]
    th2 = q[3]
    phi = th1 + th2
    s1, c1 = math.sin(th1), math.cos(th1)
    s12, c12 = math.sin(phi), math.cos(phi)
    s2, c2 = math.sin(th2), math.cos(th2)

    m13 = -alpha * s1 - beta * s12
    m14 = -beta * s12
    m23 = alpha * c1 + beta * c12
    m24 = beta * c12
    m33 = (0.25 * m3 + m4) * l1 * l1 + i3 + 0.25 * m4 * l2 * l2 + i4 + 2.0 * gam * c2
    m34 = 0.25 * m4 * l2 * l2 + i4 + gam * c2
    m44 = 0.25 * m4 * l2 * l2 + i4

    mass = np.array([
        [m1 + m2 + m3 + m4, 0.0, m13, m14],
        [0.0, m2 + m3 + m4, m23, m24],
        [m13, m23, m33, m34],
        [m14, m24, m34, m44],
    ])
    mass[np.diag_indices_from(mass)] += model.rotor_inertias

    # partial derivatives of M wrt th1 and th2 (the carriage coordinates
    # never appear in M)
    d3 = np.zeros((4, 4))
    d3[0, 2] = d3[2, 0] = -alpha * c1 - beta * c12
    d3[0, 3] = d3[3, 0] = -beta * c12
    d3[1, 2] = d3[2, 1] = -alpha * s1 - beta * s12
    d3[1, 3] = d3[3, 1] = -beta * s12

    d4 = np.zeros((4, 4))
    d4[0, 2] = d4[2, 0] = -beta * c12
    d4[0, 3] = d4[3, 0] = -beta * c12
    d4[1, 2] = d4[2, 1] = -beta * s12
    d4[1, 3] = d4[3, 1] = -beta * s12
    d4[2, 2] = -2.0 * gam * s2
    d4[2, 3] = d4[3, 2] = -gam * s2

    qd = _arr(qdot)
    a_mat = d3 * qd[2] + d4 * qd[3]
    b_mat = np.zeros((4, 4))
    b_mat[:, 2] = d3 @ qd
    b_mat[:, 3] = d4 @ qd
    cor = 0.5 * (a_mat + b_mat - b_mat.T)

    grav = model.gravity * np.array([0.0, m2 + m3 + m4,
                                     alpha * c1 + beta * c12,
                                     beta * c12])
    return mass, cor, grav


def contact_force(contact: BeltContact, x: np.ndarray, xdot: np.ndarray) -> np.ndarray:
    """Normal contact force at task pose x and rate xdot; identically zero out
    of contact, continuous at touch."""
    depth = float(x @ contact.normal) - contact.plane_offset
    if depth <= 0.0:
        return np.zeros(3)
    rate = max(float(xdot @ contact.normal), 0.0)
    return -(contact.stiffness * depth + contact.damping * rate) * contact.normal


def drag_force(contact: BeltContact, x: np.ndarray) -> np.ndarray:
    """Constant-magnitude tangential abrasion force while task pose x is in contact."""
    depth = float(x @ contact.normal) - contact.plane_offset
    if depth <= 0.0 or contact.drag == 0.0:
        return np.zeros(3)
    return contact.drag * contact.tangent


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
    tau = _arr(u) - cor @ qdot - grav
    if contact is not None:
        jac = jacobian(model, q)
        x = forward_kinematics(model, q)
        f = contact_force(contact, x, jac @ qdot) + drag_force(contact, x)
        if f.any():
            tau = tau + jac.T @ f
    if external_torque is not None:
        tau = tau + _arr(external_torque)
    qdot_new = qdot + dt * np.linalg.solve(mass, tau)
    # written so that a NaN velocity fails the test too
    if not np.linalg.norm(qdot_new) <= QDOT_RUNAWAY:
        raise IntegrationDiverged(
            f"|qdot| = {np.linalg.norm(qdot_new):.3g} at t = {t:.4f}")
    q_new = q + dt * qdot_new
    low, high = model.joint_limits[:, 0], model.joint_limits[:, 1]
    if (q_new < low).any() or (q_new > high).any():
        bad = int(np.argmax((q_new < low) | (q_new > high)))
        raise JointLimitViolation(
            f"joint {bad} at {q_new[bad]:.4f} outside [{low[bad]}, {high[bad]}]"
            f" at t = {t:.4f}")
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
