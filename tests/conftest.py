import dataclasses

import numpy as np
import pytest

from autosand.dynamics import RobotModel


@pytest.fixture
def model():
    return RobotModel()


@pytest.fixture
def wide_model():
    """Default arm with joint limits opened up for free-motion tests."""
    return RobotModel(joint_limits=((-50.0, 50.0),) * 4)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def lasting(config, duration):
    """config with [sim] sanding_duration = duration."""
    return dataclasses.replace(config, sim=dataclasses.replace(
        config.sim, sanding_duration=duration))


def noise_free(config, **control):
    """config with a noise-free force sensor and the given [control] settings."""
    return dataclasses.replace(config, control=dataclasses.replace(
        config.control, force_noise=0.0, **control))


def random_rotation(rng):
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def sat_box_margin(c1, r1, h1, c2, r2, h2):
    """Separating-axis margin for two oriented boxes: positive iff separated."""
    axes = list(r1.T) + list(r2.T) + [np.cross(a, b) for a in r1.T for b in r2.T]
    margin = -np.inf
    for ax in axes:
        n = np.linalg.norm(ax)
        if n < 1e-12:
            continue
        ax = ax / n
        ra = np.abs(r1.T @ ax) @ h1
        rb = np.abs(r2.T @ ax) @ h2
        margin = max(margin, abs((c2 - c1) @ ax) - (ra + rb))
    return margin
