"""Hierarchical planning: collision-free joint paths and sanding-sequence search.

Single-query planning connects two configurations with a straight joint-space
segment, repairs collisions with rule-based retreat via-points away from the
belt (falling back to seeded random via-points), and time-parameterizes the
result with synchronized trapezoidal velocity profiles.  Multi-query planning
orders the sanding tasks with a permutation GA over a memoized transition-cost
matrix.

A segment is swept in two phases.  The broad phase poses the payload for all
of the segment's samples in one array pass and keeps only the samples whose
world bounding box overlaps an obstacle's, widened by BROAD_MARGIN; a sample
it drops cannot touch any obstacle.  The narrow phase runs the exact GJK test
on the survivors in order, so the first colliding sample is the same one a
sample-by-sample sweep would find.  GJK's cross products go through _cross:
np.cross's float operations in its order, bit for bit, without its overhead.

The GA scores each generation in one array pass and breeds its children on
Python lists, one draw per number: three tournament indices, a crossover coin
(random(), the bits of uniform()), two cut points, a mutation coin, two swap
positions.  After the initial permutations the draws do not go through the
Generator, whose scalar calls cost microseconds each.  _pcg64_draws reads the
same PCG64 words (O'Neill, 2014) from random_raw in blocks and applies numpy's
own arithmetic to them: a double is the top 53 bits of one word, and
integers(0, high) is Lemire's multiply-and-reject (ACM TOMACS 2019) on 32-bit
halves, low half first, the high half kept for the next call as the bit
generator keeps it.  Every draw is the Generator's value, so the search is bit
for bit that of sized draws on arrays.  The tournament keeps the first lowest
cost, as np.argmin does, which holds only for comparable costs, so non-finite
costs are rejected.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .domains import check
from .dynamics import RobotModel, forward_kinematics, jacobian, pseudo_inverse
from .geometry import ConvexShape, RigidTransform

GJK_MAX_ITERS = 64
GJK_TOL = 1e-9
BROAD_MARGIN = 1e-6   # m; far above GJK_TOL and the rounding of batched poses
RETREAT_STEP = 0.02   # m; spacing of the retreat rule's via-points along -x, off the belt
RETREAT_MAX = 0.10    # m; farthest retreat the rule tries
MAX_RULE_REPAIRS = 4  # depth of retreat repairs before random via-points
SAMPLE_BUDGET = 200   # random via-points tried before NoPathFound
SAMPLE_DT = 0.01      # s; sample period of a timed transit
RAW_BLOCK = 1024      # PCG64 words read per random_raw call by _pcg64_draws


class NoPathFound(Exception):
    """Repair rules and the sampling budget were exhausted."""


class InvalidEndpoint(Exception):
    """A query endpoint is out of limits or already in collision."""


class IterationLimit(Warning):
    """GJK hit its iteration cap; the pair is treated as intersecting."""


# --- GJK ----------------------------------------------------------------------

def _support(va: np.ndarray, vb: np.ndarray, d: np.ndarray) -> np.ndarray:
    return va[np.argmax(va @ d)] - vb[np.argmax(vb @ -d)]


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """np.cross of two 3-vectors: its six products and three differences."""
    (u0, u1, u2), (v0, v1, v2) = u.tolist(), v.tolist()
    return np.array([u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0])


def _nearest_simplex(simplex: list, d: np.ndarray):
    """One simplex-refinement step toward the origin.  Returns (contains, d)."""
    if len(simplex) == 2:
        b, a = simplex
        ab = b - a
        if ab @ -a > 0.0:
            d = _cross(_cross(ab, -a), ab)
        else:
            simplex[:] = [a]
            d = -a
    elif len(simplex) == 3:
        c, b, a = simplex
        ab = b - a
        ac = c - a
        abc = _cross(ab, ac)
        if _cross(abc, ac) @ -a > 0.0:
            if ac @ -a > 0.0:
                simplex[:] = [c, a]
                d = _cross(_cross(ac, -a), ac)
            else:
                simplex[:] = [b, a]
                return _nearest_simplex(simplex, d)
        elif _cross(ab, abc) @ -a > 0.0:
            simplex[:] = [b, a]
            return _nearest_simplex(simplex, d)
        else:
            if abc @ -a > 0.0:
                d = abc
            else:
                simplex[:] = [b, c, a]
                d = -abc
    else:
        d_, c, b, a = simplex
        for tri, opposite in (((b, c, a), d_), ((c, d_, a), b), ((d_, b, a), c)):
            n = _cross(tri[1] - tri[2], tri[0] - tri[2])
            if n @ (opposite - a) > 0.0:
                n = -n
            if n @ -a > 0.0:
                simplex[:] = list(tri)
                return _nearest_simplex(simplex, n)
        return True, d
    return False, d


def gjk_intersects(a: ConvexShape, b: ConvexShape, pose_a: RigidTransform) -> bool:
    """True iff shape a, posed by pose_a, shares a point with shape b.

    Terminates within GJK_MAX_ITERS simplex refinements; hitting the cap is
    reported and treated as intersecting (the conservative answer for a
    collision checker).
    """
    va = pose_a.apply(a.vertices)
    vb = b.vertices
    d = va.mean(axis=0) - vb.mean(axis=0)
    if np.linalg.norm(d) < GJK_TOL:
        d = np.array([1.0, 0.0, 0.0])
    s = _support(va, vb, d)
    simplex = [s]
    d = -s
    for _ in range(GJK_MAX_ITERS):
        norm = np.linalg.norm(d)
        if norm < GJK_TOL:
            return True  # origin on the simplex boundary
        a_new = _support(va, vb, d)
        if a_new @ d < GJK_TOL * norm:
            return False
        simplex.append(a_new)
        contains, d = _nearest_simplex(simplex, d)
        if contains:
            return True
    warnings.warn("GJK iteration cap reached; assuming intersection", IterationLimit)
    return True


# --- paths and profiles ---------------------------------------------------------

@dataclass
class Path:
    waypoints: list                 # joint configurations, float64 arrays of shape (4,)


@dataclass
class Trajectory:
    """Sampled time parameterization: rows of (t, q, qdot, qddot)."""

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    accelerations: np.ndarray

    def __len__(self) -> int:
        return len(self.times)


@dataclass
class SandingTask:
    face_id: int
    approach: np.ndarray
    contact: np.ndarray


@dataclass
class GaParams:
    population_size: int = 200
    crossover_prob: float = 0.9
    mutation_prob: float = 0.1
    max_generations: int = 100
    seed: int = 0
    weights: np.ndarray = (1.0, 1.0, 0.3, 0.3)

    def __post_init__(self):
        check(self, population_size=">= 2", crossover_prob=">= 0 and <= 1",
              mutation_prob=">= 0 and <= 1", max_generations=">= 1", seed=">= 0",
              weights="> 0")


@dataclass
class PlannerConfig:
    task_step: float = 0.005
    straight_line_cost: bool = False   # GA fitness from straight segments instead of planned paths

    def __post_init__(self):
        check(self, task_step="> 0")


@dataclass
class PlannerContext:
    """World model for collision checking: static obstacles plus the payload
    shape rigidly attached to the end effector."""

    model: RobotModel
    payload: ConvexShape
    params: PlannerConfig
    obstacles: list = field(default_factory=list)  # ConvexShapes in world coordinates
    seed: int = 0

    def payload_pose(self, q: np.ndarray) -> RigidTransform:
        x = forward_kinematics(self.model, q)
        return RigidTransform.planar(x[0], x[1], x[2])

    def in_collision(self, q: np.ndarray) -> bool:
        pose = self.payload_pose(q)
        return any(gjk_intersects(self.payload, shape, pose) for shape in self.obstacles)

    def within_limits(self, q: np.ndarray) -> bool:
        lim = self.model.joint_limits
        return bool((q >= lim[:, 0]).all() and (q <= lim[:, 1]).all())

    def segment_samples(self, qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
        """Interpolation fine enough that task-space motion per step stays
        below params.task_step (conservative sweep bound)."""
        l1, l2 = self.model.link_lengths
        reach = float(np.abs(self.payload.vertices[:, :2]).max())
        gain = np.array([1.0, 1.0, l1 + l2 + reach, l2 + reach])
        travel = float(gain @ np.abs(qb - qa))
        n = max(2, int(np.ceil(travel / self.params.task_step)) + 1)
        return np.linspace(qa, qb, n)

    def broad_phase(self, qs: np.ndarray) -> np.ndarray:
        """Mask over the rows of qs: False where the payload's world bounding
        box misses every obstacle's, widened by BROAD_MARGIN, so that
        in_collision is False there too."""
        x = _batch_forward_kinematics(self.model, qs)
        cos, sin = np.cos(x[:, 2:]), np.sin(x[:, 2:])
        vx, vy, vz = self.payload.vertices.T
        wx = cos * vx - sin * vy + x[:, :1]
        wy = sin * vx + cos * vy + x[:, 1:2]
        lo = np.stack([wx.min(axis=1), wy.min(axis=1), np.full(len(qs), vz.min())], axis=1)
        hi = np.stack([wx.max(axis=1), wy.max(axis=1), np.full(len(qs), vz.max())], axis=1)
        near = np.zeros(len(qs), dtype=bool)
        for shape in self.obstacles:
            near |= ((lo <= shape.vertices.max(axis=0) + BROAD_MARGIN)
                     & (hi >= shape.vertices.min(axis=0) - BROAD_MARGIN)).all(axis=1)
        return near

    def first_collision(self, qa: np.ndarray, qb: np.ndarray) -> np.ndarray | None:
        """First sample of segment_samples(qa, qb) in collision, or None."""
        samples = self.segment_samples(qa, qb)
        for k in np.flatnonzero(self.broad_phase(samples)):
            if self.in_collision(samples[k]):
                return samples[k]
        return None

    def segment_free(self, qa: np.ndarray, qb: np.ndarray) -> bool:
        return self.first_collision(qa, qb) is None


def _batch_forward_kinematics(model: RobotModel, qs: np.ndarray) -> np.ndarray:
    """forward_kinematics of every row of an (n, 4) array, as an (n, 3) array."""
    l1, l2 = model.link_lengths
    th1 = qs[:, 2]
    phi = qs[:, 2] + qs[:, 3]
    return np.stack([qs[:, 0] + l1 * np.cos(th1) + l2 * np.cos(phi),
                     qs[:, 1] + l1 * np.sin(th1) + l2 * np.sin(phi),
                     phi], axis=1)


def plan_single_query(ctx: PlannerContext, q_start: np.ndarray,
                      q_goal: np.ndarray) -> Path:
    """Straight-segment planner with rule-based retreat repair.

    Colliding segments are split at a via-point pushed away from the belt
    plane, along -x (the task-space retreat mapped through the pseudo-inverse,
    whose first column is the joint motion per metre of x); after
    MAX_RULE_REPAIRS recursive attempts, seeded random via-points are tried up
    to SAMPLE_BUDGET of them.
    """
    for name, q in (("start", q_start), ("goal", q_goal)):
        if not ctx.within_limits(q):
            raise InvalidEndpoint(f"{name} configuration violates joint limits")
        if ctx.in_collision(q):
            raise InvalidEndpoint(f"{name} configuration is in collision")

    def retreat_candidates(q):
        jac_pinv = pseudo_inverse(jacobian(ctx.model, q))
        steps = int(round(RETREAT_MAX / RETREAT_STEP))
        for k in range(1, steps + 1):
            yield q - jac_pinv[:, 0] * (k * RETREAT_STEP)

    def connect(qa, qb, repairs_left):
        hit = ctx.first_collision(qa, qb)
        if hit is None:
            return [qa, qb]
        if repairs_left > 0:
            for via in retreat_candidates(hit):
                if not ctx.within_limits(via) or ctx.in_collision(via):
                    continue
                try:
                    left = connect(qa, via, repairs_left - 1)
                    right = connect(via, qb, repairs_left - 1)
                except NoPathFound:
                    continue
                return left[:-1] + right
        rng = np.random.default_rng(ctx.seed)
        lim = ctx.model.joint_limits
        for _ in range(SAMPLE_BUDGET):
            via = rng.uniform(lim[:, 0], lim[:, 1])
            if ctx.in_collision(via):
                continue
            if ctx.segment_free(qa, via) and ctx.segment_free(via, qb):
                return [qa, via, qb]
        raise NoPathFound("repair rules and sampling budget exhausted")

    waypoints = connect(q_start, q_goal, MAX_RULE_REPAIRS)
    deduped = [waypoints[0]]
    for w in waypoints[1:]:
        if np.linalg.norm(w - deduped[-1]) > 0.0:
            deduped.append(w)
    return Path(deduped)


def trapezoid_times(length: float, v_max: float, a_max: float):
    """Closed-form single-axis profile: (blend_time, total_time, peak_velocity).

    Trapezoidal when the move is long enough to reach v_max, triangular
    otherwise.
    """
    length = abs(float(length))
    if length == 0.0:
        return 0.0, 0.0, 0.0
    if length >= v_max * v_max / a_max:
        blend = v_max / a_max
        return blend, length / v_max + blend, v_max
    blend = np.sqrt(length / a_max)
    return blend, 2.0 * blend, a_max * blend


def synchronize_profile(deltas: np.ndarray, v_max: np.ndarray, a_max: np.ndarray):
    """Common (total_time, blend_time) across joints, slowest joint dictating.

    Per-joint cruise velocity and acceleration are rescaled to fit the shared
    timing while respecting every joint's own limits.
    """
    deltas = np.abs(deltas)
    total = max(trapezoid_times(d, v, a)[1]
                for d, v, a in zip(deltas, v_max, a_max))
    if total == 0.0:
        return 0.0, 0.0
    for _ in range(32):
        # smallest blend time allowed by each joint's acceleration at this total
        blend = 0.0
        for d, a in zip(deltas, a_max):
            disc = total * total - 4.0 * d / a
            if disc < 0.0:
                blend = 0.5 * total
                break
            blend = max(blend, 0.5 * (total - np.sqrt(disc)))
        feasible = all(total - blend >= d / v - 1e-15
                       for d, v in zip(deltas, v_max) if d > 0.0)
        if feasible and blend <= 0.5 * total + 1e-15:
            return total, min(blend, 0.5 * total)
        total = max(blend + d / v for d, v in zip(deltas, v_max) if d > 0.0)
    return total, min(blend, 0.5 * total)


def lspb_parameterize(path: Path, v_max: np.ndarray, a_max: np.ndarray,
                      sample_dt: float) -> Trajectory:
    """Trapezoidal time parameterization of a waypoint path.

    Joints share each segment's duration (time-synchronized); velocity is
    continuous and zero at the via-points.  Zero-length segments emit nothing
    beyond the endpoint.
    """
    if (v_max <= 0).any() or (a_max <= 0).any():
        raise ValueError("velocity/acceleration limits must be positive")
    times = [0.0]
    pos = [path.waypoints[0]]
    vel = [np.zeros(4)]
    acc = [np.zeros(4)]
    t_offset = 0.0
    for qa, qb in zip(path.waypoints[:-1], path.waypoints[1:]):
        delta = qb - qa
        total, blend = synchronize_profile(delta, v_max, a_max)
        if total == 0.0:
            continue
        cruise = delta / (total - blend)
        accel = cruise / blend
        n = int(np.ceil(total / sample_dt))
        local = np.minimum(np.arange(1, n + 1) * sample_dt, total)
        for t in local:
            if t <= blend:
                q = qa + 0.5 * accel * t * t
                qd = accel * t
                qdd = accel
            elif t <= total - blend:
                q = qa + cruise * (t - 0.5 * blend)
                qd = cruise
                qdd = np.zeros(4)
            else:
                rem = total - t
                q = qb - 0.5 * accel * rem * rem
                qd = accel * rem
                qdd = -accel
            times.append(t_offset + t)
            pos.append(q)
            vel.append(qd)
            acc.append(qdd)
        t_offset += total
    return Trajectory(np.array(times), np.array(pos), np.array(vel), np.array(acc))


def path_cost(path: Path, weights: np.ndarray) -> float:
    """Sum of weighted squared waypoint-to-waypoint displacements."""
    if len(path.waypoints) < 2:
        raise ValueError("need at least 2 waypoints")
    steps = np.diff(np.stack(path.waypoints), axis=0)
    return float((np.linalg.norm(weights * steps, axis=1) ** 2).sum())


def _pcg64_draws(rng: np.random.Generator):
    """(integers, random): integers(high) and random() return what
    rng.integers(0, high) and rng.random() would, call for call, for a PCG64
    Generator and 1 <= high < 2**32.

    They take words from random_raw a block at a time, starting from the
    32-bit half that rng's state holds buffered after an odd number of 32-bit
    draws.  That leaves rng's own state a block ahead and its buffer stale, so
    rng must not draw again.  The two closures are the whole hot path: a draw
    is a few integer operations and at most one call, for the next word.
    """
    state = rng.bit_generator.state
    raw = rng.bit_generator.random_raw
    next_word = itertools.chain.from_iterable(
        iter(lambda: raw(RAW_BLOCK).tolist(), None)).__next__
    spare = state["uinteger"] if state["has_uint32"] else None

    def integers(high):
        nonlocal spare
        if not 1 < high < 0x100000000:
            if high == 1:
                return 0
            raise ValueError(f"high must lie in [1, 2**32), got {high}")
        while True:
            if spare is None:
                word = next_word()
                spare = word >> 32
                m = (word & 0xFFFFFFFF) * high
            else:
                m = spare * high
                spare = None
            # Lemire: reject a low half below 2**32 % high, which is < high
            if (m & 0xFFFFFFFF) >= high or (m & 0xFFFFFFFF) >= (0x100000000 - high) % high:
                return m >> 32

    def random():
        return (next_word() >> 11) * 2.0 ** -53

    return integers, random


@dataclass
class GaResult:
    order: list
    total_cost: float
    best_history: np.ndarray
    mean_history: np.ndarray


def ga_optimize_sequence(home_cost: np.ndarray, matrix: np.ndarray,
                         params: GaParams) -> GaResult:
    """Permutation GA over the task visiting order.

    The float arrays home_cost[j] and matrix[i, j] price the move from the
    start to task j and from task i to task j; fitness is a lookup in them.
    Tournament selection (size 3), order crossover, swap mutation, one elite.
    A non-finite cost is rejected, since the tournament compares costs.
    """
    n = len(home_cost)
    if n < 1:
        raise ValueError("need at least one task")
    if matrix.shape != (n, n):
        raise ValueError(f"cost matrix must be {n} x {n}, got {matrix.shape}")
    if not (np.isfinite(home_cost).all() and np.isfinite(matrix).all()):
        raise ValueError("transition costs must be finite")

    def fitness(pop):
        """Cost of every row of a population array, summed leg by leg."""
        cost = home_cost[pop[:, 0]]
        for k in range(n - 1):
            cost = cost + matrix[pop[:, k], pop[:, k + 1]]
        return cost

    rng = np.random.default_rng(params.seed)
    pop = np.array([rng.permutation(n) for _ in range(params.population_size)])
    costs = fitness(pop)
    best_hist, mean_hist = [], []
    integers, random = _pcg64_draws(rng)

    def tournament(rows, c):
        best = integers(len(rows))
        for _ in range(2):
            k = integers(len(rows))
            if c[k] < c[best]:
                best = k
        return rows[best]

    def order_crossover(p1, p2):
        a, b = sorted((integers(n), integers(n)))
        seg = p1[a:b + 1]
        kept = set(seg)
        rest = [g for g in p2 if g not in kept]
        return rest[:a] + seg + rest[a:]

    for _ in range(params.max_generations):
        rows, c = pop.tolist(), costs.tolist()
        new_pop = [rows[int(np.argmin(costs))]]
        while len(new_pop) < params.population_size:
            p1, p2 = tournament(rows, c), tournament(rows, c)
            child = order_crossover(p1, p2) if random() < params.crossover_prob \
                else p1[:]
            if random() < params.mutation_prob:
                i, j = integers(n), integers(n)
                child[i], child[j] = child[j], child[i]
            new_pop.append(child)
        pop = np.array(new_pop)
        costs = fitness(pop)
        best_hist.append(costs.min())
        mean_hist.append(costs.mean())

    best = pop[int(np.argmin(costs))]
    return GaResult([int(i) for i in best], float(costs.min()),
                    np.array(best_hist), np.array(mean_hist))
