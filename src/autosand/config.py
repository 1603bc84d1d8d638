"""Pipeline configuration: the assembled sections and the INI file format.

Each section's dataclass lives in the module that reads it and checks its
own values; this module defines the sections that no single layer reads,
assembles all of them into PipelineConfig and owns the INI format.  That is
plain configparser INI: one section per subsystem, values coerced by the type
of the corresponding dataclass default (floats, ints, bools, comma-separated
vectors of the default's length).  Anything else is rejected at load.
"""

from __future__ import annotations

import configparser
import dataclasses
import io
from dataclasses import dataclass, field

import numpy as np

from .controller import ControlConfig
from .dynamics import MAX_STEP, RobotModel
from .impedance import ImpedanceSpec
from .planner import GaParams, PlannerConfig
from .pointcloud import IcpParams, QualityParams, ScannerConfig, SorConfig


@dataclass
class ContactConfig:
    stiffness: float = 1e4
    damping: float = 800.0
    drag: float = 2.0
    belt_x: float = 0.11           # world x of the belt surface plane
    belt_size: tuple = (0.15, 0.5, 0.3)


@dataclass
class SetpointConfig:
    force: float = -25.0           # N along the belt normal +x; pressing is negative

    def __post_init__(self):
        if not -np.inf < self.force < 0.0:
            raise ValueError(f"setpoint force must be finite and negative (pressing into "
                             f"the belt), got {self.force:g}")


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
        if not self.sides >= 3:
            raise ValueError("object sides must be at least 3")
        # radii() swings mean_radius by radius_variation either way
        if not abs(self.radius_variation) < self.mean_radius:
            raise ValueError(f"object radius_variation ({self.radius_variation:g}) must be "
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
        for name in ("dt_physics", "dt_control", "sanding_duration"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"sim {name} must be positive and finite")
        if self.dt_physics > MAX_STEP:
            raise ValueError(f"sim dt_physics must not exceed the {MAX_STEP:g} s integrator step")
        if not self.seed >= 0:
            raise ValueError(f"sim seed must be at least 0, got {self.seed}")


@dataclass
class PipelineOptions:
    max_resand: int = 3
    approach_clearance: float = 0.03
    home: tuple = (-0.6, 0.3, 0.0, 0.0)


@dataclass
class PipelineConfig:
    robot: RobotModel = field(default_factory=RobotModel)
    impedance: ImpedanceSpec = field(default_factory=ImpedanceSpec)
    control: ControlConfig = field(default_factory=ControlConfig)
    contact: ContactConfig = field(default_factory=ContactConfig)
    setpoint: SetpointConfig = field(default_factory=SetpointConfig)
    object: ObjectConfig = field(default_factory=ObjectConfig)
    scanner: ScannerConfig = field(default_factory=ScannerConfig)
    sor: SorConfig = field(default_factory=SorConfig)
    icp: IcpParams = field(default_factory=IcpParams)
    quality: QualityParams = field(default_factory=QualityParams)
    ga: GaParams = field(default_factory=GaParams)
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    pipeline: PipelineOptions = field(default_factory=PipelineOptions)

    def __post_init__(self):
        ratio = self.sim.dt_control / self.sim.dt_physics
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ValueError("dt_control must be an integer multiple of dt_physics")
        if round(self.sim.sanding_duration / self.sim.dt_control) < 2:
            raise ValueError(f"sim sanding_duration ({self.sim.sanding_duration:g} s) must "
                             f"span at least two control ticks of {self.sim.dt_control:g} s")


def _format_value(value) -> str:
    if isinstance(value, (np.ndarray, tuple, list)):
        return ", ".join(f"{v:.12g}" if isinstance(v, float) or isinstance(v, np.floating)
                         else str(v) for v in np.asarray(value).reshape(-1))
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def _parse_like(text: str, template):
    text = text.strip()
    if isinstance(template, (bool, np.bool_)):
        if text.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
            raise ValueError(f"not a boolean: {text!r}")
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    if isinstance(template, (int, np.integer)):
        return int(text)
    if isinstance(template, (float, np.floating)):
        return float(text)
    if isinstance(template, (np.ndarray, tuple, list)):
        parts = [p for p in text.replace(",", " ").split() if p]
        arr = np.array([float(p) for p in parts])
        template_arr = np.asarray(template)
        if arr.size != template_arr.size:
            raise ValueError(f"expected {template_arr.size} values, got {arr.size}")
        if template_arr.ndim > 1:
            arr = arr.reshape(template_arr.shape)
        return arr
    return text


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
    sections = {f.name for f in dataclasses.fields(defaults)}
    for section in parser.sections():
        if section not in sections:
            raise ValueError(f"unknown section [{section}]")
    kwargs = {}
    for section_field in dataclasses.fields(defaults):
        section = section_field.name
        sub_default = getattr(defaults, section)
        if section not in parser:
            kwargs[section] = sub_default
            continue
        sub_kwargs = {}
        valid = {f.name for f in dataclasses.fields(sub_default) if f.init}
        for key, raw in parser[section].items():
            if key not in valid:
                raise ValueError(f"unknown key [{section}] {key}")
            try:
                sub_kwargs[key] = _parse_like(raw, getattr(sub_default, key))
            except ValueError as err:
                raise ValueError(f"[{section}] {key}: {err}") from None
        for name in valid:
            if name not in sub_kwargs:
                sub_kwargs[name] = getattr(sub_default, name)
        kwargs[section] = type(sub_default)(**sub_kwargs)
    return PipelineConfig(**kwargs)


def save_config(config: PipelineConfig, path) -> None:
    with open(path, "w") as fh:
        fh.write(to_ini(config))


def load_config(path) -> PipelineConfig:
    with open(path) as fh:
        return from_ini(fh.read())
