"""Planar 4-DOF gantry arm: kinematics, Lagrangian dynamics, belt contact, integration.

Joint vector q = (x, y, th1, th2): two prismatic carriage joints followed by two
revolute links (lengths l1, l2, modelled as uniform rods).  Task space is
(px, py, phi) with phi = th1 + th2, so the arm carries one redundant degree of
freedom and the task Jacobian is 3x4.

The Coriolis matrix is assembled from Christoffel symbols of the closed-form
mass matrix, which makes dM/dt - 2C exactly skew-symmetric; the convergence
analysis of the adaptive controller leans on that identity.

The belt is the plane x = ``plane_offset``, with its normal along +x.

``dynamics_terms`` is the one float kernel of a state: it takes the sines
and cosines of th1 and th1 + th2 once and returns them with the entries of M,
C and g that depend on the state, as a flat tuple of Python floats, with the
model's constant terms computed once per ``RobotModel``.  ``step`` calls it
once per plant step, and a control tick once through ``task_terms``; the
benchmark counts exactly one call per step and one per tick.
The matrix form (M, C, g) built from it for the tests is bit-identical to
the matrix arithmetic that ``tests/data/dynamics_ref.npz`` pins:

- The 4-column matvecs D3 qdot and D4 qdot in C, and C qdot, are scalar
  sums in the order numpy's BLAS (OpenBLAS) sums a C-ordered row without
  FMA: (a0 x0 + a2 x2) + (a1 x1 + a3 x3), then + 0.0 from the kernel's zero
  start.  Zero entries stay in the sums as 0.0 * x terms, so even the signs
  of zeros match.  ``test_row_sums_match_numpy`` checks that order.
- The contact rate and force need not match so closely; ``step`` says why.
- Three calls stay in numpy: the transposed matvec J^T f and the dot
  product qdot . qdot of the runaway test, whose BLAS kernels sum with FMA,
  which Python floats cannot reproduce, and LAPACK ``dgesv`` for the
  acceleration, which ``np.linalg.solve`` calls.  So ``step`` builds only
  M as an array, and J in contact.

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

from .domains import check

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


def _floats(v) -> list:
    """The entries of a vector, given as an array or a sequence, as Python numbers."""
    return v.tolist() if isinstance(v, np.ndarray) else [float(x) for x in v]


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
        check(self, link_lengths="> 0", link_masses="> 0", rotor_inertias=">= 0",
              gravity=">= 0", joint_limits="", velocity_limits="> 0",
              acceleration_limits="> 0")
        if (self.joint_limits[:, 0] >= self.joint_limits[:, 1]).any():
            raise ValueError("joint_limits need min < max per joint")
        self._hoist_constants()

    def _hoist_constants(self):
        """The constant terms of dynamics_terms, as Python floats, associated
        as dynamics_terms adds them."""
        m1, m2, m3, m4 = self.link_masses.tolist()
        self.l1, self.l2 = l1, l2 = self.link_lengths.tolist()
        r1, r2, r3, r4 = self.rotor_inertias.tolist()
        i3 = m3 * l1 * l1 / 12.0
        i4 = m4 * l2 * l2 / 12.0
        self.alpha = (0.5 * m3 + m4) * l1
        self.beta = 0.5 * m4 * l2
        self.gam = 0.5 * m4 * l1 * l2
        self.gam2 = 2.0 * self.gam
        m234 = m2 + m3 + m4
        self.k33 = (0.25 * m3 + m4) * l1 * l1 + i3 + 0.25 * m4 * l2 * l2 + i4
        self.k34 = 0.25 * m4 * l2 * l2 + i4
        self.m00 = m1 + m2 + m3 + m4 + r1
        self.m11 = m234 + r2
        self.r3 = r3
        self.m44 = self.k34 + r4
        self.gm234 = self.gravity * m234
        self.limits = self.joint_limits.tolist()


@dataclass
class BeltContact:
    """Unilateral spring-damper belt surface: the plane x = plane_offset.

    The belt's normal is +x, from free space into the belt material, so
    pressing into the belt yields a negative force along x.  ``drag`` is a
    constant abrasion force along -y, applied only while in contact; it acts
    on the plant but is not part of the ideal normal contact law.
    """

    plane_offset: float
    stiffness: float
    damping: float
    drag: float

    def __post_init__(self):
        check(self, plane_offset="", stiffness="> 0", damping=">= 0", drag="")

    def push(self, depth: float, rate: float) -> float:
        """Normal force at depth > 0 and inward rate; the damper only resists pressing in."""
        return -(self.stiffness * depth + self.damping * max(rate, 0.0))


def _kinematics(model: RobotModel, q0: float, q1: float, s1: float, c1: float,
                s12: float, c12: float) -> tuple:
    """The tool position (px, py) and the Jacobian's entries j02, j03, j12,
    j13, from the carriage joints and the sines and cosines of th1 and phi."""
    l1, l2 = model.l1, model.l2
    return (q0 + l1 * c1 + l2 * c12, q1 + l1 * s1 + l2 * s12,
            -l1 * s1 - l2 * s12, -l2 * s12, l1 * c1 + l2 * c12, l2 * c12)


def _jacobian(j02: float, j03: float, j12: float, j13: float) -> np.ndarray:
    """The task Jacobian from its entries; the prismatic columns are the identity block."""
    return np.array([1.0, 0.0, j02, j03, 0.0, 1.0, j12, j13, 0.0, 0.0, 1.0, 1.0]).reshape(3, 4)


def _mass(model: RobotModel, m13: float, m14: float, m23: float, m24: float,
          m33: float, m34: float) -> np.ndarray:
    """The mass matrix from its configuration-dependent entries."""
    return np.array([model.m00, 0.0, m13, m14, 0.0, model.m11, m23, m24,
                     m13, m23, m33, m34, m14, m24, m34, model.m44]).reshape(4, 4)


def forward_kinematics(model: RobotModel, q: np.ndarray) -> np.ndarray:
    """Task-space position (px, py, phi) of the end effector."""
    q0, q1, th1, th2 = _floats(q)
    phi = th1 + th2
    px, py, *_ = _kinematics(model, q0, q1, math.sin(th1), math.cos(th1),
                             math.sin(phi), math.cos(phi))
    return np.array([px, py, phi])


def jacobian(model: RobotModel, q: np.ndarray) -> np.ndarray:
    """Analytic 3x4 task Jacobian at q."""
    _, _, th1, th2 = _floats(q)
    phi = th1 + th2
    _, _, *entries = _kinematics(model, 0.0, 0.0, math.sin(th1), math.cos(th1),
                                 math.sin(phi), math.cos(phi))
    return _jacobian(*entries)


def contact_configuration(model: RobotModel, px: float, py: float, phi: float,
                          th1: float) -> np.ndarray:
    """The inverse of forward_kinematics: the joint configuration that puts
    the tool at (px, py, phi) with the first link at angle th1."""
    l1, l2 = model.l1, model.l2
    return np.array([px - l1 * math.cos(th1) - l2 * math.cos(phi),
                     py - l1 * math.sin(th1) - l2 * math.sin(phi),
                     th1, phi - th1])


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


def dynamics_terms(model: RobotModel, q, qdot) -> tuple:
    """The float kernel of the state (q, qdot), given as sequences of floats:
    the tuple (s1, c1, s12, c12, m13, m14, m23, m24, m33, m34, C02, C03, C12,
    C13, C20, C21, C22, C23, C30, C31, C32, g0, g1, g2, g3) of the sines and
    cosines of th1 and th1 + th2, the entries of M that depend on q, the
    entries of C that are not always zero, and the gravity vector g.

    C is built from Christoffel symbols so dM/dt - 2C is skew-symmetric.  With
    D3 and D4 the partial derivatives of M with respect to th1 = q[2] and
    th2 = q[3], C = (A + B - B^T) / 2, where A = D3 qdot[2] + D4 qdot[3] and B
    is zero but for its columns 2 and 3, D3 qdot and D4 qdot.
    """
    _, _, th1, th2 = q
    qd0, qd1, qd2, qd3 = qdot
    phi = th1 + th2
    s1, c1 = math.sin(th1), math.cos(th1)
    s12, c12 = math.sin(phi), math.cos(phi)
    s2, c2 = math.sin(th2), math.cos(th2)

    alpha, beta, gam = model.alpha, model.beta, model.gam
    m13 = -alpha * s1 - beta * s12
    m14 = -beta * s12
    m23 = alpha * c1 + beta * c12
    m24 = beta * c12
    m34 = model.k34 + gam * c2

    # the carriage coordinates never appear in M; m13 and m14 recur here as
    # the derivatives of m23 and m24
    dm13 = -alpha * c1 - beta * c12
    dm14 = -beta * c12
    dm33 = -model.gam2 * s2
    dm34 = -gam * s2
    # B's columns D3 qdot and D4 qdot, row by row as numpy's matvec sums
    # them (see the module docstring), zero entries included
    z0, z1, z2, z3 = 0.0 * qd0, 0.0 * qd1, 0.0 * qd2, 0.0 * qd3
    b30 = ((z0 + dm13 * qd2) + (z1 + dm14 * qd3)) + 0.0
    b31 = ((z0 + m13 * qd2) + (z1 + m14 * qd3)) + 0.0
    b32 = ((dm13 * qd0 + z2) + (m13 * qd1 + z3)) + 0.0
    b33 = ((dm14 * qd0 + z2) + (m14 * qd1 + z3)) + 0.0
    b40 = ((z0 + dm14 * qd2) + (z1 + dm14 * qd3)) + 0.0
    b41 = ((z0 + m14 * qd2) + (z1 + m14 * qd3)) + 0.0
    b42 = ((dm14 * qd0 + dm33 * qd2) + (m14 * qd1 + dm34 * qd3)) + 0.0
    # D4 qdot's last row is no entry of C
    # A is symmetric; its zero entries and B's stay in the sums, so even the
    # signs of zeros match the matrix form
    a02 = dm13 * qd2 + dm14 * qd3
    a03 = dm14 * qd2 + dm14 * qd3
    a12 = m13 * qd2 + m14 * qd3
    a13 = m14 * qd2 + m14 * qd3
    a22 = z2 + dm33 * qd3
    a23 = z2 + dm34 * qd3

    g = model.gravity
    return (s1, c1, s12, c12,
            m13, m14, m23, m24, model.k33 + model.gam2 * c2 + model.r3, m34,
            0.5 * (a02 + b30), 0.5 * (a03 + b40), 0.5 * (a12 + b31), 0.5 * (a13 + b41),
            0.5 * (a02 + 0.0 - b30), 0.5 * (a12 + 0.0 - b31),
            0.5 * (a22 + b32 - b32), 0.5 * (a23 + b42 - b33),
            0.5 * (a03 + 0.0 - b40), 0.5 * (a13 + 0.0 - b41), 0.5 * (a23 + b33 - b42),
            g * 0.0, model.gm234, g * m23, g * m24)


def dynamics_matrices(model: RobotModel, q, qdot) -> tuple:
    """(M, C, g) at (q, qdot) as arrays, built from dynamics_terms."""
    terms = dynamics_terms(model, _floats(q), _floats(qdot))
    cor = np.zeros(16)
    cor[[2, 3, 6, 7, 8, 9, 10, 11, 12, 13, 14]] = terms[10:21]
    return _mass(model, *terms[4:10]), cor.reshape(4, 4), np.array(terms[21:])


def task_terms(model: RobotModel, q: np.ndarray, qdot: np.ndarray) -> tuple:
    """(x, J, M) at (q, qdot): the task pose, the task Jacobian and the mass
    matrix, from one dynamics_terms call."""
    qf = _floats(q)
    s1, c1, s12, c12, m13, m14, m23, m24, m33, m34, *_ = \
        dynamics_terms(model, qf, _floats(qdot))
    px, py, j02, j03, j12, j13 = _kinematics(model, qf[0], qf[1], s1, c1, s12, c12)
    return (np.array([px, py, qf[2] + qf[3]]), _jacobian(j02, j03, j12, j13),
            _mass(model, m13, m14, m23, m24, m33, m34))


def contact_force(contact: BeltContact, x: np.ndarray, xdot: np.ndarray) -> np.ndarray:
    """Normal contact force at task pose x and rate xdot; identically zero out
    of contact, continuous at touch."""
    depth = float(x[0]) - contact.plane_offset
    if depth <= 0.0:
        return np.zeros(3)
    push = contact.push(depth, float(xdot[0]))
    return np.array([push, push * 0.0, push * 0.0])


def step(model: RobotModel, q: np.ndarray, qdot: np.ndarray, u: np.ndarray,
         contact: BeltContact | None = None, dt: float = 1e-4,
         external_torque: np.ndarray | None = None, t: float = 0.0) -> tuple:
    """One semi-implicit Euler step of M qdd + C qd + g = u + J^T f_e.

    Returns the new (q, qdot).  Contact forces are evaluated at the current
    state.  ``external_torque`` injects an unmodelled joint-space disturbance
    (test plumbing).  ``t`` is the simulated time at the start of the step;
    it only names the moment of a failure in the error message.  A velocity
    that is not finite fails the runaway test, a joint that is not finite
    the joint-limit test.

    In contact, f = (push, -drag, 0) and the rate is qd0 + j02 qd2 + j03 qd3,
    with no care for signed zeros: J^T f is a BLAS sum that starts at +0, so
    the sign of a zero in f never reaches the torque, and a rate that differs
    only in the sign of zero leaves ``push`` unchanged, because k depth > 0.
    """
    if not 0.0 < dt <= MAX_STEP:
        raise ValueError(f"dt must be in (0, {MAX_STEP}], got {dt}")
    q0, q1, th1, th2 = q = _floats(q)
    qd0, qd1, qd2, qd3 = qdot = _floats(qdot)
    (s1, c1, s12, c12, m13, m14, m23, m24, m33, m34,
     C02, C03, C12, C13, C20, C21, C22, C23, C30, C31, C32,
     g0, g1, g2, g3) = dynamics_terms(model, q, qdot)
    z0, z1, z3 = 0.0 * qd0, 0.0 * qd1, 0.0 * qd3
    u0, u1, u2, u3 = _floats(u)
    # u - C qdot - g, with C qdot summed as numpy's matvec sums it
    tau = [u0 - (((z0 + C02 * qd2) + (z1 + C03 * qd3)) + 0.0) - g0,
           u1 - (((z0 + C12 * qd2) + (z1 + C13 * qd3)) + 0.0) - g1,
           u2 - (((C20 * qd0 + C22 * qd2) + (C21 * qd1 + C23 * qd3)) + 0.0) - g2,
           u3 - (((C30 * qd0 + C32 * qd2) + (C31 * qd1 + z3)) + 0.0) - g3]
    if contact is not None:
        px, _, j02, j03, j12, j13 = _kinematics(model, q0, q1, s1, c1, s12, c12)
        depth = px - contact.plane_offset
        # a NaN depth applies its NaN force, for the runaway test to catch
        if not depth <= 0.0:
            push = contact.push(depth, qd0 + j02 * qd2 + j03 * qd3)
            # J^T f as f.J: numpy's cheaper call to the same kernel, with FMA
            jf0, jf1, jf2, jf3 = np.array([push, -contact.drag, 0.0]).dot(
                _jacobian(j02, j03, j12, j13)).tolist()
            tau = [tau[0] + jf0, tau[1] + jf1, tau[2] + jf2, tau[3] + jf3]
    if external_torque is not None:
        e0, e1, e2, e3 = _floats(external_torque)
        tau = [tau[0] + e0, tau[1] + e1, tau[2] + e2, tau[3] + e3]
    # M is symmetric: its transpose is M in LAPACK's Fortran order, which
    # dgesv may factor in place (overwrite_a = 1, passed by position: faster)
    _, _, qddot, info = dgesv(_mass(model, m13, m14, m23, m24, m33, m34).T, tau, 1)
    if info:
        raise np.linalg.LinAlgError(f"singular mass matrix at t = {t:.4f}")
    a0, a1, a2, a3 = qddot.tolist()
    v0, v1, v2, v3 = qd0 + dt * a0, qd1 + dt * a1, qd2 + dt * a2, qd3 + dt * a3
    qdot_new = np.array([v0, v1, v2, v3])
    # numpy's dot, whose kernel sums with FMA; written so that a NaN
    # velocity fails the test too
    speed = math.sqrt(qdot_new.dot(qdot_new))
    if not speed <= QDOT_RUNAWAY:
        raise IntegrationDiverged(f"|qdot| = {speed:.3g} at t = {t:.4f}")
    q_new = [q0 + dt * v0, q1 + dt * v1, th1 + dt * v2, th2 + dt * v3]
    (lo0, hi0), (lo1, hi1), (lo2, hi2), (lo3, hi3) = model.limits
    if not (lo0 <= q_new[0] <= hi0 and lo1 <= q_new[1] <= hi1
            and lo2 <= q_new[2] <= hi2 and lo3 <= q_new[3] <= hi3):
        for j, (v, (low, high)) in enumerate(zip(q_new, model.limits)):
            if not low <= v <= high:
                raise JointLimitViolation(
                    f"joint {j} at {v:.4f} outside [{low}, {high}] at t = {t:.4f}")
    return np.array(q_new), qdot_new
