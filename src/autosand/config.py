"""Pipeline configuration: the assembled sections and the INI file format.

Each section's dataclass lives in the module that reads it and states the
domain of each of its fields with domains.check; this module defines the
sections that no single layer reads, assembles all of them into
PipelineConfig, checks the relations between sections and owns the INI
format.  That is plain configparser INI: one section per subsystem, values
coerced by the type of the corresponding dataclass default (floats, ints,
bools, comma-separated vectors of the default's length).  A value outside its
domain is rejected at load, with an error that names [section] key.
"""

from __future__ import annotations

import configparser
import dataclasses
import io
from dataclasses import dataclass, field

import numpy as np

from .controller import ControlConfig
from .domains import check
from .dynamics import MAX_STEP, BeltContact, RobotModel
from .impedance import ImpedanceSpec
from .planner import GaParams, PlannerConfig
from .pointcloud import QualityParams, ScannerConfig


@dataclass
class ContactConfig:
    """The belt: the contact law of every BeltContact, and the box the planner avoids."""

    stiffness: float = 1e4
    damping: float = 800.0
    drag: float = 2.0
    belt_x: float = 0.11           # world x of the belt surface plane
    belt_size: np.ndarray = (0.15, 0.5, 0.3)

    def __post_init__(self):
        check(self, belt_x="", belt_size="> 0")
        self.belt(self.belt_x)     # BeltContact checks the law

    def belt(self, plane_offset: float) -> BeltContact:
        """The contact law on the belt plane x = plane_offset."""
        return BeltContact(plane_offset, self.stiffness, self.damping, self.drag)


@dataclass
class SetpointConfig:
    force: float = -25.0           # N along the belt normal +x; pressing is negative

    def __post_init__(self):
        check(self, force="< 0")


@dataclass
class ObjectConfig:
    sides: int = 13
    mean_radius: float = 0.06
    radius_variation: float = 0.006
    radius_phase: float = 1.0
    height: float = 0.08
    roughness: float = 4e-4
    removal_rate: float = 0.6      # roughness multiplier is 1 - removal_rate * force quality

    def __post_init__(self):
        check(self, sides=">= 3", mean_radius="> 0", radius_phase="", height="> 0",
              roughness=">= 0", removal_rate=">= 0 and <= 1")
        # radii() swings mean_radius by radius_variation either way
        if not abs(self.radius_variation) < self.mean_radius:
            raise ValueError(f"radius_variation ({self.radius_variation:g}) must be "
                             f"smaller in size than mean_radius ({self.mean_radius:g})")

    def radii(self) -> np.ndarray:
        k = np.arange(self.sides)
        return self.mean_radius + self.radius_variation * np.cos(
            2.0 * np.pi * k / self.sides + self.radius_phase)


@dataclass
class SimConfig:
    dt_physics: float = 1e-4
    dt_control: float = 1e-3
    sanding_duration: float = 5.0
    seed: int = 0

    def __post_init__(self):
        check(self, dt_physics=f"> 0 and <= {MAX_STEP!r}",    # the integrator's step
              dt_control="> 0", sanding_duration="> 0", seed=">= 0")


def substeps(sim: SimConfig) -> int:
    """Plant steps per control tick; dt_control must be a whole multiple of dt_physics."""
    ratio = sim.dt_control / sim.dt_physics
    if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
        raise ValueError("[sim] dt_control must be an integer multiple of dt_physics")
    return round(ratio)


@dataclass
class PipelineOptions:
    max_resand: int = 3
    approach_clearance: float = 0.03
    home: np.ndarray = (-0.6, 0.3, 0.0, 0.0)

    def __post_init__(self):
        check(self, max_resand=">= 0", approach_clearance="> 0", home="")


@dataclass
class PipelineConfig:
    robot: RobotModel = field(default_factory=RobotModel)
    impedance: ImpedanceSpec = field(default_factory=ImpedanceSpec)
    control: ControlConfig = field(default_factory=ControlConfig)
    contact: ContactConfig = field(default_factory=ContactConfig)
    setpoint: SetpointConfig = field(default_factory=SetpointConfig)
    object: ObjectConfig = field(default_factory=ObjectConfig)
    scanner: ScannerConfig = field(default_factory=ScannerConfig)
    quality: QualityParams = field(default_factory=QualityParams)
    ga: GaParams = field(default_factory=GaParams)
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    pipeline: PipelineOptions = field(default_factory=PipelineOptions)

    def __post_init__(self):
        substeps(self.sim)
        if round(self.sim.sanding_duration / self.sim.dt_control) < 2:
            raise ValueError(f"[sim] sanding_duration ({self.sim.sanding_duration:g} s) must "
                             f"span at least two control ticks of {self.sim.dt_control:g} s")
        lim = self.robot.joint_limits
        if not ((lim[:, 0] <= self.pipeline.home) & (self.pipeline.home <= lim[:, 1])).all():
            raise ValueError("[pipeline] home lies outside the [robot] joint_limits")


def _format_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(value)
    return ", ".join(f"{v:.12g}" for v in np.ravel(value).tolist())    # floats


def _parse_like(text: str, template):
    text = text.strip()
    if isinstance(template, (bool, np.bool_)):
        if text.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
            raise ValueError(f"not a boolean: {text!r}")
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    if isinstance(template, (int, np.integer)):
        return int(text)
    # a float, a vector or a matrix
    value = np.array([float(p) for p in text.replace(",", " ").split()])
    if value.size != np.size(template):
        raise ValueError(f"expected {np.size(template)} values, got {value.size}")
    return value.reshape(np.shape(template)) if np.ndim(template) else float(value[0])


def to_ini(config: PipelineConfig) -> str:
    parser = configparser.ConfigParser()
    for section in dataclasses.fields(config):
        sub = getattr(config, section.name)
        parser[section.name] = {f.name: _format_value(getattr(sub, f.name))
                                for f in dataclasses.fields(sub) if f.init}
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def from_ini(text: str) -> PipelineConfig:
    parser = configparser.ConfigParser()
    parser.read_string(text)
    defaults = PipelineConfig()
    sections = [f.name for f in dataclasses.fields(defaults)]
    for section in parser.sections():
        if section not in sections:
            raise ValueError(f"unknown section [{section}]")
    kwargs = {}
    for section in sections:
        sub_default = getattr(defaults, section)
        sub_kwargs = {}             # a key left out keeps its field default
        valid = {f.name for f in dataclasses.fields(sub_default) if f.init}
        for key, raw in (parser[section].items() if section in parser else ()):
            if key not in valid:
                raise ValueError(f"unknown key [{section}] {key}")
            try:
                sub_kwargs[key] = _parse_like(raw, getattr(sub_default, key))
            except ValueError as err:
                raise ValueError(f"[{section}] {key}: {err}") from None
        try:
            kwargs[section] = type(sub_default)(**sub_kwargs)
        except ValueError as err:
            raise ValueError(f"[{section}] {err}") from None
    return PipelineConfig(**kwargs)


def save_config(config: PipelineConfig, path) -> None:
    with open(path, "w") as fh:
        fh.write(to_ini(config))


def load_config(path) -> PipelineConfig:
    with open(path) as fh:
        return from_ini(fh.read())
