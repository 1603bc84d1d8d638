"""The benchmark's workcell configs.

The default 13-face run takes minutes, so each workload is a scaled-down cell
in which a different stage of scan -> model -> plan -> sand -> assess does
most of the work.  See bench/README.md for why each one exists.
"""

from __future__ import annotations

from autosand.config import PipelineConfig, save_config

# Simulation seeds of the workcells every invocation runs.  `sim.seed` also
# seeds the planner's random via-points, so planning work differs from cell to
# cell (9k-12k GJK calls on plan_dense); a fixed set of cells keeps run_s a
# measure of the code, not of the seed.
CELLS = (0, 1, 2)
# Benchmark seeds are folded onto this many GA seeds, so that every input has
# a stored reference digest (bench/reference.json).
SEED_CYCLE = 16

WORKLOADS = {
    # Planning dominates: the GA cost matrix plans every ordered face pair,
    # so planning grows with faces squared.
    "plan_dense": {
        "object.sides": 4,
        "planner.task_step": 0.02,
        "sim.sanding_duration": 0.15,
    },
    # Sanding dominates: long closed-loop holds on few faces.  Straight-line
    # GA costs leave only the transit legs to plan, and three tasks need only
    # a small GA.
    "sand_hold": {
        "object.sides": 3,
        "planner.task_step": 0.01,
        "planner.straight_line_cost": True,
        "sim.sanding_duration": 0.6,
        "ga.population_size": 30,
        "ga.max_generations": 15,
    },
    # Perception dominates: dense, many-view scans.  Straight-line GA costs
    # leave only the transit legs to plan, at the default sweep resolution.
    "scan_dense": {
        "object.sides": 4,
        "scanner.density": 5e5,
        "scanner.n_views": 5,
        "sim.sanding_duration": 0.15,
        "planner.straight_line_cost": True,
        "ga.population_size": 30,
        "ga.max_generations": 15,
    },
}


def ga_seed(seed: int) -> int:
    """The GA seed a benchmark seed maps to."""
    return seed % SEED_CYCLE


def inputs(seed: int) -> list[tuple[int, int]]:
    """The (cell, GA seed) inputs an invocation with this seed runs, in order.

    Every seed runs every cell; the seed picks the GA seed, and so the face
    sequence and its transit legs, and which cell goes first.
    """
    k = seed % len(CELLS)
    return [(cell, ga_seed(seed)) for cell in CELLS[k:] + CELLS[:k]]


def key(cell: int, ga: int) -> str:
    """An input's name in bench/reference.json."""
    return f"c{cell}-g{ga}"


def build_config(workload: str, cell: int, ga: int) -> PipelineConfig:
    """Default config with the workload's overrides, simulation and GA seeds."""
    cfg = PipelineConfig()
    for name, value in WORKLOADS[workload].items():
        section, field = name.split(".")
        setattr(getattr(cfg, section), field, value)
    cfg.sim.seed = cell
    cfg.ga.seed = ga
    return cfg


def write_ini(workload: str, cell: int, ga: int, path) -> None:
    save_config(build_config(workload, cell, ga), path)
