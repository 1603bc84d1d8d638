"""Desired-impedance target and its factorization into two first-order rates.

The target behaviour  M_d dxdd + C_d dxd + K_d dx = df  is split per axis into
a fast tracking rate and a slow filter rate (the two real roots of the
characteristic polynomial).  The filter rate drives a first-order low-pass of
the force error; the composite error

    z = dxdot + track_rate * dx - filtered_force_error

then obeys  zdot + filter_rate * z = (impedance residual), so driving z to zero
realizes the target impedance in the low-frequency range.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domains import check


class ComplexRoots(ValueError):
    """The requested impedance target is under-damped and cannot be factored."""


def factor_rates(inertia: np.ndarray, damping: np.ndarray, stiffness: np.ndarray):
    """Split the per-axis second-order target, given as three 3-vectors, into
    (track_rate, filter_rate).

    The rates are the two real roots of s^2 - (C/M) s + (K/M) = 0 with
    track_rate taking the larger root.  Raises ComplexRoots on a negative
    discriminant (under-damped target).
    """
    p = damping / inertia
    r = stiffness / inertia
    disc = p * p - 4.0 * r
    if (disc < 0.0).any():
        raise ComplexRoots(f"impedance target under-damped on axes {np.nonzero(disc < 0)[0]}")
    root = np.sqrt(disc)
    return 0.5 * (p + root), 0.5 * (p - root)


@dataclass
class ImpedanceSpec:
    """Diagonal desired inertia / damping / stiffness plus the derived rates."""

    inertia: np.ndarray = (1.0, 1.0, 1.0)
    damping: np.ndarray = (12.5, 12.5, 12.5)
    stiffness: np.ndarray = (11.5, 11.5, 11.5)
    track_rate: np.ndarray = field(init=False)
    filter_rate: np.ndarray = field(init=False)

    def __post_init__(self):
        check(self, inertia="> 0", damping="> 0", stiffness="> 0")
        self.track_rate, self.filter_rate = factor_rates(
            self.inertia, self.damping, self.stiffness)


def filter_force_step(filt: np.ndarray, force_error: np.ndarray,
                      spec: ImpedanceSpec, dt: float) -> np.ndarray:
    """Advance the force filter state (a 3-vector, velocity units) by dt with a
    zero-order hold on the force error.

    The filter is diagonal and linear, so the exact exponential update is used
    instead of an Euler step.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    decay = np.exp(-spec.filter_rate * dt)
    gain = (1.0 - decay) / (spec.filter_rate * spec.inertia)
    return decay * filt + gain * force_error


def impedance_error(pos_error: np.ndarray, vel_error: np.ndarray,
                    spec: ImpedanceSpec, filt: np.ndarray) -> np.ndarray:
    """Composite task-space impedance error z."""
    return vel_error + spec.track_rate * pos_error - filt
