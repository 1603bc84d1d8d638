"""End-to-end workcell orchestration: scan, model, plan, sand, assess, re-sand.

The pipeline is deterministic for a fixed config seed: every random stream
(surface texture, sensor noise, planner sampling, GA) is derived from the seed
with stable spawn keys, so two runs write byte-identical CSV logs.
"""

from __future__ import annotations

import copy
import json
import math
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import controller as ctl
from . import dynamics as dyn
from . import impedance as imp
from . import planner as pln
from . import pointcloud as pc
from .config import PipelineConfig, substeps
from .geometry import ConvexShape, RigidTransform, box, lateral_faces, prism


class PipelineError(Exception):
    """A pipeline stage failed; carries the stage name and the original error."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


def derive_seed(*keys) -> int:
    """Stable child seed from integer keys (order-sensitive)."""
    return int(np.random.SeedSequence(keys).generate_state(1)[0])


def wrap_angle(a: float) -> float:
    return float((a + np.pi) % (2.0 * np.pi) - np.pi)


# --- closed-loop sanding ---------------------------------------------------------

LOG_COLUMNS = (["t"] + [f"q{i}" for i in range(1, 5)] + [f"qd{i}" for i in range(1, 5)]
               + ["x", "y", "phi", "fe_x", "fe_y", "fe_t"]
               + [f"zq{i}" for i in range(1, 5)] + [f"u{i}" for i in range(1, 5)]
               + ["w_norm", "v_obs"])


@dataclass
class SandingSetup:
    """One closed-loop sanding run of ``config``: regulation to the pose x_d
    and the config's force setpoint f_d against ``contact``, from rest in the
    joint configuration q0 at t = 0, with the network build_network(config),
    for the config's sanding_duration.
    """

    config: PipelineConfig
    contact: dyn.BeltContact | None
    x_d: np.ndarray
    q0: np.ndarray
    noise_seed: int
    disturbance: object = None      # callable t -> joint torque, or None
    f_d: np.ndarray = field(init=False)
    net: ctl.RbfNetwork = field(init=False)

    def __post_init__(self):
        self.f_d = np.array([self.config.setpoint.force, 0.0, 0.0])
        self.net = build_network(self.config)

    @property
    def duration(self) -> float:
        return self.config.sim.sanding_duration


@dataclass
class SandingResult:
    log: np.ndarray                 # one row per control step, LOG_COLUMNS order
    times: np.ndarray               # times, vel_errors and forces are views of log
    vel_errors: np.ndarray
    forces: np.ndarray
    task_errors: np.ndarray         # composite impedance error z per step
    steady_force: float
    steady_force_error: float
    max_zq_after_transient: float
    mean_zq_tail: float
    monitor: ctl.DescentReport


def simulate_sanding(setup: SandingSetup) -> SandingResult:
    """Run the adaptive impedance controller against the simulated arm.

    The controller runs at the config's dt_control with zero-order hold; the
    plant integrates at its dt_physics.  The measured force is the ideal
    normal contact force plus optional sensor noise; the tangential abrasion
    drag acts on the plant only.  The network adapts on a copy, so ``setup``
    is left unchanged.
    """
    cfg = setup.config
    model, spec, gains = cfg.robot, cfg.impedance, cfg.control
    dt_control, dt_physics = cfg.sim.dt_control, cfg.sim.dt_physics
    n_sub = substeps(cfg.sim)
    n_ctrl = int(round(setup.duration / dt_control))
    rng = np.random.default_rng(setup.noise_seed)

    q = setup.q0
    qdot = np.zeros(4)
    t = 0.0
    net = copy.deepcopy(setup.net)
    filt = np.zeros(3)              # force filter state, velocity units
    xd_dot = np.zeros(3)            # constant setpoint: no feedforward
    qdr_prev = None

    step, contact = dyn.step, setup.contact
    log = np.zeros((n_ctrl, len(LOG_COLUMNS)))
    z_hist = np.zeros((n_ctrl, 3))

    for i in range(n_ctrl):
        x, jac, mass = dyn.task_terms(model, q, qdot)
        xdot = jac @ qdot
        f_meas = np.zeros(3) if contact is None else dyn.contact_force(contact, x, xdot)
        if gains.force_noise > 0.0:
            f_meas = f_meas + rng.standard_normal(3) * gains.force_noise
        dx = x - setup.x_d
        filt = imp.filter_force_step(filt, f_meas - setup.f_d, spec, dt_control)
        j_pinv = dyn.pseudo_inverse(jac)
        qdr = ctl.reference_velocity(j_pinv, xd_dot, dx, filt, spec)
        qddr = np.zeros(4) if qdr_prev is None else (qdr - qdr_prev) / dt_control
        qdr_prev = qdr
        zq = ctl.velocity_error(qdot, qdr)
        theta = ctl.rbf_activation(net, q, qdot, qdr, qddr)
        u = ctl.control_law(gains, net, zq, theta, jac.T @ f_meas)
        ctl.weight_update(gains, net, theta, zq, dt_control)
        w = net.weights.ravel()
        w_norm = math.sqrt(w.dot(w))        # np.linalg.norm's sum and root
        if not np.isfinite(w_norm):
            raise dyn.IntegrationDiverged(f"RBF weights not finite at t = {t:.4f}")

        v_obs = 0.5 * zq @ mass @ zq
        z_hist[i] = imp.impedance_error(dx, xdot, spec, filt)
        log[i] = np.concatenate([[t], q, qdot, x, f_meas, zq, u, [w_norm, v_obs]])

        tau_ext = setup.disturbance(t) if setup.disturbance else None
        for _ in range(n_sub):
            q, qdot = step(model, q, qdot, u, contact, dt_physics, tau_ext, t)
            t += dt_physics

    col = LOG_COLUMNS.index
    times = log[:, 0]
    forces = log[:, col("fe_x"):col("fe_t") + 1]
    vel_errors = log[:, col("zq1"):col("zq4") + 1]
    monitor = ctl.lyapunov_monitor(times, vel_errors, log[:, col("v_obs")])
    tail = times >= min((1.0 - ctl.TAIL_FRACTION) * setup.duration, times[-1])  # >= 1 tick
    after = times >= ctl.TRANSIENT
    steady_force = float(forces[tail, 0].mean())    # along the belt normal, +x
    zq_norm = np.linalg.norm(vel_errors, axis=1)
    return SandingResult(
        log=log, times=times, vel_errors=vel_errors, forces=forces, task_errors=z_hist,
        steady_force=steady_force,
        steady_force_error=steady_force - float(setup.f_d[0]),
        max_zq_after_transient=float(zq_norm[after].max() if after.any() else zq_norm.max()),
        mean_zq_tail=float(zq_norm[tail].mean()),
        monitor=monitor)


def write_csv(path, columns, rows: np.ndarray) -> None:
    """A header line of the column names, then one line per row of the 2-D
    float array rows."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        pc.write_rows(fh, [rows], "%.10g", ",")


# --- workcell geometry -----------------------------------------------------------

@dataclass
class Workcell:
    """Object mesh, per-face sanding tasks, planner context (which holds the belt).

    ``roughness`` holds the current surface roughness of every mesh face (caps
    stay 0); ``transits`` memoises planned paths by (from, to) task index.
    """

    mesh: ConvexShape
    tasks: list
    planner_ctx: pln.PlannerContext
    roughness: np.ndarray
    transits: dict = field(default_factory=dict)


# The static part holder that every scan view sees beside the object.
HOLDER = box((0.04, 0.06, 0.04), center=(0.0, -0.13, 0.0))


def face_geometry(mesh: ConvexShape, face: int):
    """(normal angle in the cross-section plane, support distance) of a lateral face."""
    n = mesh.normals[face]
    return float(np.arctan2(n[1], n[0])), mesh.supports[face]


def build_workcell(config: PipelineConfig) -> Workcell:
    mesh = prism(config.object.radii(), config.object.height)
    faces = lateral_faces(mesh)
    cc = config.contact
    belt_shape = box(cc.belt_size,
                     center=(cc.belt_x + cc.belt_size[0] / 2.0, 0.0, 0.0))
    tasks = []
    for face in faces:
        psi, support = face_geometry(mesh, face)
        phi = wrap_angle(-psi)
        q_contact = dyn.contact_configuration(config.robot, cc.belt_x - support, 0.0,
                                              phi, phi / 2.0)
        q_approach = q_contact.copy()
        q_approach[0] -= config.pipeline.approach_clearance
        tasks.append(pln.SandingTask(face, q_approach, q_contact))
    ctx = pln.PlannerContext(
        model=config.robot, payload=mesh, obstacles=[belt_shape], params=config.planner,
        seed=derive_seed(config.sim.seed, 11))
    roughness = np.zeros(len(mesh.faces))
    roughness[faces] = config.object.roughness
    return Workcell(mesh, tasks, ctx, roughness)


def build_network(config: PipelineConfig) -> ctl.RbfNetwork:
    lim = config.robot.joint_limits
    v = config.robot.velocity_limits
    lo = np.concatenate([lim[:, 0], -v, -v, -10.0 * v])
    hi = np.concatenate([lim[:, 1], v, v, 10.0 * v])
    return ctl.RbfNetwork.latin_hypercube(lo, hi, config.control,
                                          derive_seed(config.sim.seed, 23))


def nominal_setup(config: PipelineConfig) -> SandingSetup:
    """Canonical single-contact regulation scenario with the headline setpoints
    (x_d 51.5 mm along the normal, f_d -25 N)."""
    contact = config.contact.belt(0.049)
    q0 = dyn.contact_configuration(config.robot, contact.plane_offset, 0.0, 0.0, 0.6)
    x0 = dyn.forward_kinematics(config.robot, q0)
    return SandingSetup(config, contact, np.array([0.0515, x0[1], 0.0]), q0,
                        derive_seed(config.sim.seed, 31))


# --- scanning helpers ------------------------------------------------------------

FIELD_MARGIN = 0.05   # m; the field filter's box reaches this far past the object


def field_bounds(config: PipelineConfig):
    """The field filter's box: the object's widest radius, which the radii
    reach on either sign of radius_variation, and its height, each widened
    by FIELD_MARGIN."""
    r = config.object.mean_radius + abs(config.object.radius_variation) + FIELD_MARGIN
    h = config.object.height / 2.0 + FIELD_MARGIN
    return np.array([-r, -r, -h]), np.array([r, r, h])


def scan_view(config: PipelineConfig, mesh: ConvexShape, roughness,
              angle: float, sensor_seed: int) -> pc.PointCloud:
    """One structured-light view of the rotated object plus the static holder."""
    surface_seed = derive_seed(config.sim.seed, 5)
    cloud = pc.synthetic_scan(mesh, RigidTransform.rotation_z(angle), config.scanner,
                              surface_seed, sensor_seed, roughness)
    holder = pc.synthetic_scan(HOLDER, RigidTransform.identity(),
                               config.scanner, surface_seed, sensor_seed + 1)
    pts = np.vstack([cloud.points, holder.points])
    inten = np.concatenate([cloud.intensity, holder.intensity])
    return pc.PointCloud(pts, inten)


def crop_to_face(cloud: pc.PointCloud, pose: RigidTransform, mesh: ConvexShape,
                 face: int) -> pc.PointCloud:
    """Points whose closest hull plane is the requested face (object frame)."""
    local = pose.inverse().apply(cloud.points)
    signed = np.stack([local @ n - d for n, d in zip(mesh.normals, mesh.supports)], axis=1)
    return cloud.select(signed.argmax(axis=1) == face)


def scan_face(config: PipelineConfig, mesh: ConvexShape, roughness,
              face: int, sensor_seed: int) -> pc.PointCloud:
    """Rescan with the face turned toward the camera, cropped to that face."""
    psi, _ = face_geometry(mesh, face)
    pose = RigidTransform.rotation_z(-psi)
    cloud = pc.synthetic_scan(mesh, pose, config.scanner,
                              derive_seed(config.sim.seed, 5), sensor_seed, roughness)
    return crop_to_face(cloud, pose, mesh, face)


# --- reports ---------------------------------------------------------------------

@dataclass
class FaceReport:
    face_id: int
    sequence_position: int
    duration: float
    steady_force: float
    steady_force_error: float
    max_zq_after_transient: float
    descent_passed: bool | None     # the run's descent monitor (lyapunov_monitor);
    max_rise: float | None          # None: the run is shorter than its window
    settle_time: float | None       # None: |zq| never settled for good
    quality: pc.QualityReport | None
    resand_count: int
    passed: bool


@dataclass
class RunReport:
    faces: list = field(default_factory=list)
    total_travel_cost: float = 0.0
    wall_time: float = 0.0
    passed: bool = False
    error: str | None = None
    error_class: str | None = None  # module.Class of the failed stage's cause

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


# --- the pipeline ----------------------------------------------------------------

# Every file a run writes, as glob patterns relative to its output directory.
RUN_FILES = ("scans/view_*.ply", "scans/views.json", "faces/face*_attempt*.csv",
             "transits/leg*_face*.csv", "model.ply", "cost_matrix.csv", "ga_history.csv",
             "sequence.json", "report.json")


def run_pipeline(config: PipelineConfig, out_dir) -> RunReport:
    """Scan, model, sequence, then sand every face with quality-gated re-sanding.

    Writes PLY/CSV/JSON artifacts under out_dir, after deleting an earlier
    run's (RUN_FILES) and no other file, and returns the report.  On a stage
    failure a partial report (with the error recorded) is still written
    before PipelineError propagates.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for pattern in RUN_FILES:
        for path in out.glob(pattern):
            path.unlink()
    report = RunReport()
    t_start = time.perf_counter()
    try:
        _run_stages(config, out, report)
        report.passed = all(f.passed for f in report.faces)
    except PipelineError as err:
        report.error = str(err)
        report.error_class = f"{type(err.cause).__module__}.{type(err.cause).__qualname__}"
        raise
    finally:
        report.wall_time = time.perf_counter() - t_start
        (out / "report.json").write_text(report.to_json())
    return report


def _stage(name):
    def deco(fn):
        def wrapped(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except PipelineError:
                raise
            except Exception as err:
                raise PipelineError(name, err) from err
        return wrapped
    return deco


@_stage("scan")
def _scan_stage(config, cell, out):
    (out / "scans").mkdir(parents=True, exist_ok=True)
    angles = [2.0 * np.pi * k / config.scanner.n_views
              for k in range(config.scanner.n_views)]
    lo, hi = field_bounds(config)
    scans = []
    for k, angle in enumerate(angles):
        raw = scan_view(config, cell.mesh, cell.roughness, angle,
                        derive_seed(config.sim.seed, 7, k))
        keep = pc.field_limits_mask(raw, lo, hi)
        pc.save_ply(raw, out / "scans" / f"view_{k}_raw.ply",
                    (keep, out / "scans" / f"view_{k}.ply"))
        scans.append(raw.select(keep))
    (out / "scans" / "views.json").write_text(json.dumps(
        {"angles": angles, "files": [f"view_{k}.ply" for k in range(len(angles))]},
        indent=2))
    return scans, angles


@_stage("model")
def _model_stage(config, scans, angles, out):
    out.mkdir(parents=True, exist_ok=True)
    model_cloud = pc.merge_scans(scans, angles)
    pc.save_ply(model_cloud, out / "model.ply")
    return model_cloud


def transit_endpoint(config: PipelineConfig, cell: Workcell, i: int) -> np.ndarray:
    """Joint configuration a transit starts or ends at: task i's approach, or
    the home configuration for i = -1."""
    return config.pipeline.home if i < 0 else cell.tasks[i].approach


@_stage("plan")
def _sequence_stage(config, cell, out):
    n = len(cell.tasks)
    table = np.zeros((n + 1, n))   # row 0: home -> task j; row i + 1: task i -> task j
    for i in range(-1, n):
        for j in range(n):
            if i == j:
                continue
            if config.planner.straight_line_cost:
                path = pln.Path([transit_endpoint(config, cell, i),
                                 transit_endpoint(config, cell, j)])
            else:
                path = _plan_transit(config, cell, i, j)
            table[i + 1, j] = pln.path_cost(path, config.ga.weights)

    result = pln.ga_optimize_sequence(table[0], table[1:], config.ga)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "cost_matrix.csv",
              [f"to_{t.face_id}" for t in cell.tasks], table)
    write_csv(out / "ga_history.csv", ["best", "mean"],
              np.stack([result.best_history, result.mean_history], axis=1))
    (out / "sequence.json").write_text(json.dumps(
        {"order": [cell.tasks[i].face_id for i in result.order],
         "total_cost": result.total_cost}, indent=2))
    return result


def _plan_transit(config, cell, i, j):
    """Collision-free path from task i to task j (-1: home), planned once per pair."""
    if (i, j) not in cell.transits:
        cell.transits[(i, j)] = pln.plan_single_query(
            cell.planner_ctx, transit_endpoint(config, cell, i),
            transit_endpoint(config, cell, j))
    return cell.transits[(i, j)]


TRANSIT_COLUMNS = (["t"] + [f"q{i}" for i in range(1, 5)] + [f"qd{i}" for i in range(1, 5)]
                   + [f"qdd{i}" for i in range(1, 5)])


@_stage("plan")
def _transit_leg(config, cell, i, j, leg, out) -> pln.Trajectory:
    """Plan and time the leg from task i (-1: home) to task j and write its CSV."""
    traj = pln.lspb_parameterize(_plan_transit(config, cell, i, j),
                                 config.robot.velocity_limits,
                                 config.robot.acceleration_limits, pln.SAMPLE_DT)
    (out / "transits").mkdir(parents=True, exist_ok=True)
    write_csv(out / "transits" / f"leg{leg:02d}_face{cell.tasks[j].face_id:02d}.csv",
              TRANSIT_COLUMNS,
              np.hstack([traj.times[:, None], traj.positions,
                         traj.velocities, traj.accelerations]))
    return traj


@_stage("sand")
def _sand_face(config, cell, task, attempt, out):
    """Closed-loop sanding of one face: press to the force setpoint and hold."""
    contact = config.contact.belt(config.contact.belt_x
                                  - cell.mesh.supports[task.face_id])
    depth = abs(config.setpoint.force) / config.contact.stiffness
    x_d = np.array([contact.plane_offset + depth, 0.0, task.contact[2] + task.contact[3]])
    result = simulate_sanding(SandingSetup(
        config, contact, x_d, task.contact,
        derive_seed(config.sim.seed, 13, task.face_id, attempt)))
    (out / "faces").mkdir(parents=True, exist_ok=True)
    write_csv(out / "faces" / f"face{task.face_id:02d}_attempt{attempt}.csv",
              LOG_COLUMNS, result.log)
    return result


@_stage("assess")
def _assess_face(config, cell, task, attempt, rough_before, rough_after):
    cloud_b = scan_face(config, cell.mesh, rough_before, task.face_id,
                        derive_seed(config.sim.seed, 17, task.face_id, attempt, 0))
    cloud_a = scan_face(config, cell.mesh, rough_after, task.face_id,
                        derive_seed(config.sim.seed, 17, task.face_id, attempt, 1))
    return pc.assess_quality(cloud_b, cloud_a, config.quality)


def _run_stages(config: PipelineConfig, out, report: RunReport) -> None:
    cell = build_workcell(config)
    scans, angles = _scan_stage(config, cell, out)
    _model_stage(config, scans, angles, out)
    seq = _sequence_stage(config, cell, out)
    report.total_travel_cost = seq.total_cost

    queue = list(seq.order)
    attempts = [0] * len(cell.tasks)
    face_reports = {}
    current = -1
    leg = 0

    while queue:
        k = queue.pop(0)
        task = cell.tasks[k]
        attempt = attempts[k]
        _transit_leg(config, cell, current, k, leg, out)
        leg += 1
        current = k

        rough_before = cell.roughness.copy()
        result = _sand_face(config, cell, task, attempt, out)
        grip = min(max(result.steady_force / config.setpoint.force, 0.0), 1.0)
        cell.roughness[task.face_id] *= (1.0 - config.object.removal_rate * grip)

        quality = _assess_face(config, cell, task, attempt, rough_before, cell.roughness)
        face_reports[k] = FaceReport(
            face_id=task.face_id, sequence_position=seq.order.index(k),
            duration=config.sim.sanding_duration,
            steady_force=result.steady_force,
            steady_force_error=result.steady_force_error,
            max_zq_after_transient=result.max_zq_after_transient,
            descent_passed=result.monitor.passed,
            max_rise=result.monitor.max_rise,
            settle_time=result.monitor.settle_time,
            quality=quality, resand_count=attempt, passed=quality.passed)
        if not quality.passed and attempt < config.pipeline.max_resand:
            attempts[k] += 1
            queue.append(k)

    report.faces = [face_reports[k] for k in range(len(cell.tasks))]
