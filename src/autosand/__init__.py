"""Simulation of an autonomous belt-sanding workcell.

Perception (synthetic structured-light scanning, filtering, rigid
registration), hierarchical planning (collision-free transits, GA task
sequencing), and adaptive neural-network impedance control of a redundant
planar 4-DOF arm pressing the workpiece against a sanding belt.
"""

from .config import PipelineConfig, load_config, save_config
from .controller import ControlConfig, RbfNetwork, lyapunov_monitor
from .dynamics import BeltContact, RobotModel
from .geometry import ConvexShape, RigidTransform
from .harness import RunReport, run_pipeline, simulate_sanding
from .impedance import ImpedanceSpec
from .planner import GaParams, Path, SandingTask, Trajectory
from .pointcloud import PointCloud, QualityReport

__version__ = "0.1.0"

__all__ = [
    "BeltContact", "ControlConfig", "ConvexShape", "GaParams",
    "ImpedanceSpec", "Path", "PipelineConfig", "PointCloud", "QualityReport",
    "RbfNetwork", "RigidTransform", "RobotModel", "RunReport", "SandingTask",
    "Trajectory", "load_config", "lyapunov_monitor", "run_pipeline",
    "save_config", "simulate_sanding",
]
