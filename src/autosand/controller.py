"""Joint-space adaptive impedance controller.

A Gaussian RBF network with linear-in-weight adaptation absorbs the unknown
arm dynamics online; a diagonal velocity-error gain plus a robust switching
term drive the joint-space impedance error to zero.  The descent monitor
checks the observable consequence of the stability argument (the quadratic
form 0.5 z^T M z must not grow once the transient has died out).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domains import check
from .impedance import ImpedanceSpec


class InsufficientData(Exception):
    """Descent monitoring needs at least two samples."""


@dataclass
class RbfNetwork:
    """Gaussian radial-basis network over the 16-dim controller input.

    weights holds one output row per joint and starts at zero; every basis
    function has the same width.  Every weight adapts at the one rate
    ControlConfig.learn_rate (see weight_update).
    """

    centers: np.ndarray
    width: float
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        self.weights = np.zeros((4, len(self.centers)))
        check(self, width="> 0")

    @classmethod
    def latin_hypercube(cls, low: np.ndarray, high: np.ndarray, control: ControlConfig,
                        seed: int) -> "RbfNetwork":
        """Spread centers over the operating box by Latin-hypercube sampling.

        The width is the median inter-center distance, which keeps every
        basis function active somewhere in the box.
        """
        n_centers = control.n_centers
        d = len(low)
        rng = np.random.default_rng(seed)
        u = (rng.permuted(np.tile(np.arange(n_centers), (d, 1)), axis=1).T
             + rng.uniform(size=(n_centers, d))) / n_centers
        centers = low + u * (high - low)
        diff = centers[:, None, :] - centers[None, :, :]
        dist = np.linalg.norm(diff, axis=2)
        width = np.median(dist[np.triu_indices(n_centers, 1)])
        return cls(centers, float(width))


@dataclass
class ControlConfig:
    """Controller and RBF-network gains.  vel_gain multiplies the velocity
    error; the robust switching term saturates linearly inside |z| < boundary."""

    vel_gain: float = 10.0
    robust_gain: float = 20.0
    boundary: float = 0.05         # 0 selects the exact sign function
    learn_rate: float = 20.0
    n_centers: int = 64
    force_noise: float = 0.1       # N, std dev of the simulated force sensor

    def __post_init__(self):
        check(self, vel_gain="> 0", robust_gain=">= 0", boundary=">= 0", learn_rate=">= 0",
              n_centers=">= 2", force_noise=">= 0")


def reference_velocity(j_pinv: np.ndarray, xd_dot: np.ndarray, pos_error: np.ndarray,
                       filt: np.ndarray, spec: ImpedanceSpec) -> np.ndarray:
    """Joint reference velocity: pseudo-inverse image of the corrected task rate."""
    return j_pinv @ (xd_dot - spec.track_rate * pos_error + filt)


def velocity_error(qdot: np.ndarray, qdot_ref: np.ndarray) -> np.ndarray:
    """Joint-space impedance error: deviation from the reference velocity."""
    return qdot - qdot_ref


def rbf_activation(net: RbfNetwork, q, qdot, qdot_ref, qddot_ref) -> np.ndarray:
    """Gaussian activations of the stacked input (q, qdot, qdot_ref, qddot_ref)."""
    inp = np.concatenate((q, qdot, qdot_ref, qddot_ref))
    d2 = ((net.centers - inp) ** 2).sum(axis=1)
    # a float's ** 2 calls libm pow, which rounds some squares differently
    # from the product
    return np.exp(-d2 / (2.0 * (net.width * net.width)))


def _switch(vel_err: np.ndarray, boundary: float) -> np.ndarray:
    if boundary == 0.0:
        return np.sign(vel_err)
    return np.minimum(np.maximum(vel_err / boundary, -1.0), 1.0)


def control_law(gains: ControlConfig, net: RbfNetwork, vel_err: np.ndarray,
                theta: np.ndarray, tau_ext: np.ndarray) -> np.ndarray:
    """Adaptive impedance control torque.

    Feedback on the velocity error, the network's feedforward estimate, a
    robust switching term, and cancellation of the measured interaction torque.
    """
    return (-gains.vel_gain * vel_err
            + net.weights @ theta
            - gains.robust_gain * _switch(vel_err, gains.boundary)
            - tau_ext)


def weight_update(gains: ControlConfig, net: RbfNetwork, theta: np.ndarray,
                  vel_err: np.ndarray, dt: float) -> None:
    """Explicit Euler step of the row-wise adaptation law at gains.learn_rate,
    in place on net.weights.

    Row j moves against theta scaled by its own error component only, so
    adaptation stops exactly when the error vanishes.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    net.weights -= dt * (gains.learn_rate * theta)[None, :] * vel_err[:, None]


# The descent monitor's moving-average window [s], the |zq| below which a run
# counts as settled, the allowed rise relative to the smoothed peak, the time [s]
# before rises count, and the final share of a run its steady values average.
WINDOW = 0.5
SETTLE_THRESHOLD = 1e-2
RISE_TOL = 1e-3
TRANSIENT = 1.0
TAIL_FRACTION = 0.3


@dataclass
class DescentReport:
    passed: bool | None             # None: the run is shorter than the window
    settle_time: float | None
    max_rise: float | None
    smoothed: np.ndarray


def lyapunov_monitor(times, vel_errors, v_obs) -> DescentReport:
    """Check the observable descent condition along a closed-loop run.

    v_obs holds v = 0.5 z^T M z per sample, as the run logged it.  The monitor
    smooths it with a moving average over WINDOW and requires the smoothed
    curve never to climb more than RISE_TOL times its peak above its running
    minimum after the first TRANSIENT seconds.  The weight-error part of the full
    storage function is unobservable (the ideal weights are unknown), so only
    this necessary consequence is tested.  A run shorter than the window is
    not evaluated: ``passed`` and ``max_rise`` are None.
    Also reports the first time |z| settles below SETTLE_THRESHOLD for good.
    """
    if len(times) < 2:
        raise InsufficientData("need at least two samples")
    norms = np.linalg.norm(vel_errors, axis=1)
    below = norms < SETTLE_THRESHOLD
    settle_time = None
    if below[-1]:
        idx = len(below) - 1
        while idx > 0 and below[idx - 1]:
            idx -= 1
        settle_time = float(times[idx])

    dt = float(np.median(np.diff(times)))
    win = max(1, int(round(WINDOW / dt)))
    if len(v_obs) < win:
        # np.convolve's "valid" mode would swap the run and the kernel
        return DescentReport(None, settle_time, None, np.empty(0))
    kernel = np.ones(win) / win
    smoothed = np.convolve(v_obs, kernel, mode="valid")
    t_smooth = times[win - 1:]

    after = smoothed[t_smooth >= times[0] + TRANSIENT]
    if len(after) < 2:
        after = smoothed
    tol = RISE_TOL * max(smoothed.max(), np.finfo(float).tiny)
    running_min = np.minimum.accumulate(after)
    rises = after - running_min
    max_rise = float(rises.max())
    passed = bool(max_rise <= tol)
    return DescentReport(passed, settle_time, max_rise, smoothed)
