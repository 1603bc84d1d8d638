import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from autosand import harness
from autosand import planner as pl
from autosand.dynamics import RobotModel, forward_kinematics
from autosand.geometry import ConvexShape, RigidTransform, box
from conftest import random_rotation, sat_box_margin
from test_harness import small_config


def posed(shape, pose):
    """shape with its vertices moved by pose, as gjk_intersects poses shape a."""
    return ConvexShape(pose.apply(shape.vertices), shape.faces)


def random_box_pair(rng):
    c1, c2 = rng.uniform(-0.5, 0.5, (2, 3))
    h1, h2 = rng.uniform(0.05, 0.3, (2, 3))
    r1, r2 = random_rotation(rng), random_rotation(rng)
    return (box(2 * h1), RigidTransform(r1, c1), c1, r1, h1,
            box(2 * h2), RigidTransform(r2, c2), c2, r2, h2)


class TestGjk:
    def test_coincident_cubes(self):
        cube = box((1.0, 1.0, 1.0))
        assert pl.gjk_intersects(cube, cube, RigidTransform())

    def test_far_separation(self):
        cube = box((1.0, 1.0, 1.0))
        far = RigidTransform(np.eye(3), (3.0, 0.0, 0.0))
        assert not pl.gjk_intersects(cube, posed(cube, far), RigidTransform())

    def test_touching_margin(self):
        cube = box((1.0, 1.0, 1.0))
        near = RigidTransform(np.eye(3), (1.0 + 1e-4, 0.0, 0.0))
        overlapping = RigidTransform(np.eye(3), (1.0 - 1e-4, 0.0, 0.0))
        assert not pl.gjk_intersects(cube, posed(cube, near), RigidTransform())
        assert pl.gjk_intersects(cube, posed(cube, overlapping), RigidTransform())

    def test_against_separating_axis_oracle(self, rng):
        checked = 0
        for _ in range(300):
            b1, p1, c1, r1, h1, b2, p2, c2, r2, h2 = random_box_pair(rng)
            margin = sat_box_margin(c1, r1, h1, c2, r2, h2)
            if abs(margin) <= 1e-6:
                continue
            checked += 1
            assert pl.gjk_intersects(b1, posed(b2, p2), p1) == (margin < 0)
        assert checked > 250

    def test_symmetry(self, rng):
        for _ in range(100):
            b1, p1, *_, b2, p2, c2, r2, h2 = random_box_pair(rng)
            assert pl.gjk_intersects(b1, posed(b2, p2), p1) == \
                pl.gjk_intersects(b2, posed(b1, p1), p2)

    def test_cross_matches_numpy_bitwise(self, rng):
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                            2.2e-308, 1e300, -1e300, 1e-300, -1e-300, 1.0])
        for _ in range(20000):
            u, v = rng.standard_normal((2, 3)) * 10.0 ** rng.integers(-300, 301, (2, 3))
            u = np.where(rng.random(3) < 0.5, rng.choice(special, 3), u)
            v = np.where(rng.random(3) < 0.5, rng.choice(special, 3), v)
            with np.errstate(invalid="ignore", over="ignore", under="ignore"):
                expected = np.cross(u, v)
            assert pl._cross(u, v).tobytes() == expected.tobytes(), (u, v)


def planner_context(obstacles, seed=5, payload_half=0.04):
    model = RobotModel()
    payload = box((2 * payload_half,) * 3)
    return pl.PlannerContext(model, payload, pl.PlannerConfig(), list(obstacles), seed=seed)


class TestPlanSingleQuery:
    # configurations whose straight connection stays at end-effector x ~ -0.06
    Q_START = np.array([-0.56, -0.3, 0.0, 0.0])
    Q_GOAL = np.array([-0.56, 0.3, 0.0, 0.0])

    def test_free_space_straight_segment(self):
        ctx = planner_context([])
        path = pl.plan_single_query(ctx, self.Q_START, self.Q_GOAL)
        assert len(path.waypoints) == 2
        assert path.waypoints[0] == pytest.approx(self.Q_START)
        assert path.waypoints[-1] == pytest.approx(self.Q_GOAL)

    def test_endpoint_in_collision(self):
        wall = box((0.4, 0.4, 0.4), center=(-0.06, -0.3, 0.0))
        ctx = planner_context([wall])
        with pytest.raises(pl.InvalidEndpoint):
            pl.plan_single_query(ctx, self.Q_START, self.Q_GOAL)

    def test_endpoint_outside_limits(self):
        ctx = planner_context([])
        with pytest.raises(pl.InvalidEndpoint):
            pl.plan_single_query(ctx, np.array([-2.0, 0, 0, 0]), self.Q_GOAL)

    def test_repair_around_blocking_obstacle(self):
        # a bump in front of the belt blocks the straight sweep; the retreat
        # rule pulls the via-point away along -x
        bump = box((0.08, 0.2, 0.4), center=(-0.02, 0.0, 0.0))
        ctx = planner_context([bump])
        assert not ctx.segment_free(self.Q_START, self.Q_GOAL)
        path = pl.plan_single_query(ctx, self.Q_START, self.Q_GOAL)
        assert len(path.waypoints) > 2
        assert path.waypoints[0] == pytest.approx(self.Q_START)
        assert path.waypoints[-1] == pytest.approx(self.Q_GOAL)
        # post-hoc full-resolution sweep with four times the checker density
        for qa, qb in zip(path.waypoints[:-1], path.waypoints[1:]):
            n = 4 * len(ctx.segment_samples(qa, qb))
            for q in np.linspace(qa, qb, n):
                assert not ctx.in_collision(q)

    def test_no_path_when_fully_enclosed(self, monkeypatch):
        # a wall spanning the entire workspace separates start from goal, so
        # every candidate route crosses it and the budget runs out
        wall = box((0.2, 4.0, 4.0), center=(-0.1, 0.0, 0.0))
        ctx = planner_context([wall])
        monkeypatch.setattr(pl, "SAMPLE_BUDGET", 5)
        monkeypatch.setattr(pl, "MAX_RULE_REPAIRS", 1)
        start = np.array([-0.95, -0.3, 0.0, 0.0])   # end effector at x -0.45
        goal = np.array([-0.2, 0.3, 0.0, 0.0])      # end effector at x +0.30
        assert not ctx.in_collision(start) and not ctx.in_collision(goal)
        with pytest.raises(pl.NoPathFound):
            pl.plan_single_query(ctx, start, goal)


SMALL_CELL = harness.build_workcell(small_config())
JOINT_LIMITS = SMALL_CELL.planner_ctx.model.joint_limits
IN_LIMITS = st.tuples(*(st.floats(float(lo), float(hi)) for lo, hi in JOINT_LIMITS)).map(
    np.array)
# task configurations reach the belt, so segments ending there often collide
ANCHORS = st.sampled_from([q for t in SMALL_CELL.tasks for q in (t.approach, t.contact)])


class TestBroadPhase:
    def test_batch_forward_kinematics_matches_scalar(self, rng):
        model = RobotModel()
        qs = rng.uniform(-3.2, 3.2, (200, 4))
        batch = pl._batch_forward_kinematics(model, qs)
        for q, x in zip(qs, batch):
            assert x == pytest.approx(forward_kinematics(model, q), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(IN_LIMITS, st.one_of(ANCHORS, IN_LIMITS))
    def test_conservative_and_first_hit_kept(self, qa, qb):
        ctx = SMALL_CELL.planner_ctx
        samples = ctx.segment_samples(qa, qb)
        near = ctx.broad_phase(samples)
        assert not any(ctx.in_collision(q) for q in samples[~near])
        reference = next((q for q in samples if ctx.in_collision(q)), None)
        hit = ctx.first_collision(qa, qb)
        if reference is None:
            assert hit is None
        else:
            assert np.array_equal(hit, reference)
        assert ctx.segment_free(qa, qb) == (reference is None)

    def test_obstacle_pose_applied(self):
        """Obstacles are given in world coordinates: a wall posed before the
        context is built is checked where it stands."""
        wall = box((0.1, 0.1, 0.1))
        ctx = pl.PlannerContext(RobotModel(), box((0.02,) * 3), pl.PlannerConfig(),
                                [posed(wall, RigidTransform.planar(0.5, 0.0, 0.3))])
        qs = np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.4, 0.0, 0.0]])
        assert ctx.broad_phase(qs).tolist() == [True, False]
        assert ctx.in_collision(qs[0]) and not ctx.in_collision(qs[1])


class TestLspb:
    def test_trapezoid_closed_form(self):
        blend, total, peak = pl.trapezoid_times(1.0, 1.0, 2.0)
        assert blend == pytest.approx(0.5, abs=1e-9)
        assert total == pytest.approx(1.5, abs=1e-9)
        assert peak == pytest.approx(1.0, abs=1e-9)

    def test_triangular_closed_form(self):
        blend, total, peak = pl.trapezoid_times(0.25, 1.0, 2.0)
        assert total == pytest.approx(2.0 * math.sqrt(0.125), abs=1e-9)
        assert peak == pytest.approx(math.sqrt(0.5), abs=1e-9)

    def test_single_joint_profiles_match_closed_form(self):
        v = np.array([1.0, 1.0, 1.0, 1.0])
        a = np.array([2.0, 2.0, 2.0, 2.0])
        path = pl.Path([np.zeros(4), np.array([1.0, 0, 0, 0])])
        traj = pl.lspb_parameterize(path, v, a, sample_dt=1e-3)
        assert traj.times[-1] == pytest.approx(1.5, abs=1e-9)
        assert traj.velocities[:, 0].max() == pytest.approx(1.0, abs=1e-9)
        path = pl.Path([np.zeros(4), np.array([0.25, 0, 0, 0])])
        traj = pl.lspb_parameterize(path, v, a, sample_dt=1e-3)
        assert traj.times[-1] == pytest.approx(2 * math.sqrt(0.125), abs=1e-9)
        # the sampling grid can straddle the apex by at most one step
        assert traj.velocities[:, 0].max() == pytest.approx(math.sqrt(0.5),
                                                            abs=a[0] * 1e-3)

    def test_limits_and_continuity(self, rng):
        for _ in range(10):
            waypoints = [rng.uniform(-1, 1, 4) for _ in range(4)]
            v = rng.uniform(0.5, 2.0, 4)
            a = rng.uniform(1.0, 5.0, 4)
            traj = pl.lspb_parameterize(pl.Path(waypoints), v, a, sample_dt=0.005)
            assert (np.diff(traj.times) > 0).all()
            assert (np.abs(traj.velocities) <= v + 1e-9).all()
            assert (np.abs(traj.accelerations) <= a + 1e-9).all()
            jumps = np.abs(np.diff(traj.velocities, axis=0))
            dt = np.diff(traj.times)[:, None]
            assert (jumps <= a * dt + 1e-9).all()
            assert traj.positions[0] == pytest.approx(waypoints[0])
            assert traj.positions[-1] == pytest.approx(waypoints[-1], abs=1e-9)

    def test_velocity_zero_at_waypoints(self, rng):
        waypoints = [np.zeros(4), np.array([0.5, -0.3, 0.2, 0.1]),
                     np.array([-0.2, 0.1, 0.4, -0.5])]
        traj = pl.lspb_parameterize(pl.Path(waypoints), np.ones(4), np.ones(4),
                                    sample_dt=0.01)
        for w in waypoints:
            idx = np.abs(traj.positions - w).max(axis=1).argmin()
            assert np.abs(traj.velocities[idx]).max() < 0.02

    def test_zero_length_segment_skipped(self):
        q = np.array([0.3, -0.2, 0.1, 0.0])
        path = pl.Path([q, q, q + [0.1, 0, 0, 0]])
        traj = pl.lspb_parameterize(path, np.ones(4), np.ones(4), sample_dt=0.01)
        assert traj.times[0] == 0.0
        assert (np.diff(traj.times) > 0).all()

    def test_rejects_bad_limits(self):
        path = pl.Path([np.zeros(4), np.ones(4)])
        with pytest.raises(ValueError):
            pl.lspb_parameterize(path, np.zeros(4), np.ones(4), 0.01)


class TestPathCost:
    def test_constant_path(self):
        q = np.array([0.1, 0.2, 0.3, 0.4])
        assert pl.path_cost(pl.Path([q, q, q]), np.ones(4)) == 0.0

    def test_single_step(self):
        path = pl.Path([np.zeros(4), np.array([1.0, 0, 0, 0])])
        assert pl.path_cost(path, (2.0, 1.0, 1.0, 1.0)) == pytest.approx(4.0)

    def test_brute_force_oracle(self, rng):
        waypoints = [rng.standard_normal(4) for _ in range(7)]
        w = rng.uniform(0.1, 2.0, 4)
        expected = 0.0
        for qa, qb in zip(waypoints[:-1], waypoints[1:]):
            expected += sum((w[j] * (qb[j] - qa[j])) ** 2 for j in range(4))
        assert pl.path_cost(pl.Path(waypoints), w) == pytest.approx(expected)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.1, 5.0), st.integers(0, 2 ** 31 - 1))
    def test_reversal_and_scaling(self, scale, seed):
        rng = np.random.default_rng(seed)
        waypoints = [rng.standard_normal(4) for _ in range(5)]
        w = rng.uniform(0.1, 2.0, 4)
        cost = pl.path_cost(pl.Path(waypoints), w)
        reversed_cost = pl.path_cost(pl.Path(waypoints[::-1]), w)
        assert reversed_cost == pytest.approx(cost, rel=1e-12)
        scaled = [waypoints[0] + scale * (q - waypoints[0]) for q in waypoints]
        assert pl.path_cost(pl.Path(scaled), w) == pytest.approx(
            scale ** 2 * cost, rel=1e-9)

    def test_too_short(self):
        with pytest.raises(ValueError):
            pl.path_cost(pl.Path([np.zeros(4)]), np.ones(4))


def straight_line_instance(seed, n_tasks=5):
    """Cost table of straight moves between random configurations: row 0
    prices home -> task j, row i + 1 prices task i -> task j."""
    rng = np.random.default_rng(seed)
    configs = rng.uniform(-1, 1, (n_tasks + 1, 4))
    w = np.array([1.0, 1.0, 0.3, 0.3])
    table = np.zeros((n_tasks + 1, n_tasks))
    for a in range(n_tasks + 1):
        for j in range(n_tasks):
            if a != j + 1:
                table[a, j] = pl.path_cost(pl.Path([configs[a], configs[j + 1]]), w)
    return table


def leg_sum(table, order):
    """Cost of visiting the tasks in ``order``, added leg by leg from home."""
    total = table[0, order[0]]
    for a, b in zip(order[:-1], order[1:]):
        total += table[a + 1, b]
    return total


def exhaustive_best(table):
    return min(leg_sum(table, p) for p in itertools.permutations(range(table.shape[1])))


def array_form_ga(n, params, home_cost, matrix):
    """The GA with its children bred on numpy arrays and sized draws: the
    reference the list form in ga_optimize_sequence must equal bit for bit.
    Returns (order, total_cost, best_history, mean_history)."""
    def fitness(pop):
        cost = home_cost[pop[:, 0]]
        for k in range(n - 1):
            cost = cost + matrix[pop[:, k], pop[:, k + 1]]
        return cost

    rng = np.random.default_rng(params.seed)
    pop = np.array([rng.permutation(n) for _ in range(params.population_size)])
    costs = fitness(pop)
    best_hist, mean_hist = [], []

    def tournament():
        idx = rng.integers(0, len(pop), size=3)
        return pop[idx[np.argmin(costs[idx])]]

    def order_crossover(p1, p2):
        a, b = sorted(rng.integers(0, n, size=2))
        child = -np.ones(n, dtype=int)
        child[a:b + 1] = p1[a:b + 1]
        kept = set(child[a:b + 1])
        child[child < 0] = [g for g in p2 if g not in kept]
        return child

    for _ in range(params.max_generations):
        new_pop = [pop[int(np.argmin(costs))].copy()]
        while len(new_pop) < params.population_size:
            p1, p2 = tournament(), tournament()
            child = order_crossover(p1, p2) if rng.uniform() < params.crossover_prob \
                else p1.copy()
            if rng.uniform() < params.mutation_prob:
                i, j = rng.integers(0, n, size=2)
                child[i], child[j] = child[j], child[i]
            new_pop.append(child)
        pop = np.array(new_pop)
        costs = fitness(pop)
        best_hist.append(costs.min())
        mean_hist.append(costs.mean())
    best = pop[int(np.argmin(costs))]
    return ([int(i) for i in best], float(costs.min()),
            np.array(best_hist), np.array(mean_hist))


PROBS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


class TestGa:
    def test_defaults(self):
        params = pl.GaParams()
        assert params.population_size == 200
        assert params.crossover_prob == 0.9
        assert params.mutation_prob == 0.1
        assert params.max_generations == 100

    def test_single_task(self):
        table = straight_line_instance(0, n_tasks=1)
        result = pl.ga_optimize_sequence(table[0], table[1:], pl.GaParams(seed=1))
        assert result.order == [0]
        assert result.total_cost == table[0, 0]

    def test_matches_exhaustive_smoke(self):
        for seed in range(3):
            table = straight_line_instance(seed + 100)
            result = pl.ga_optimize_sequence(table[0], table[1:], pl.GaParams(seed=seed))
            assert result.total_cost == pytest.approx(exhaustive_best(table))

    def test_monotone_best_history(self):
        table = straight_line_instance(7)
        result = pl.ga_optimize_sequence(table[0], table[1:], pl.GaParams(seed=3))
        assert (np.diff(result.best_history) <= 1e-12).all()

    def test_deterministic(self):
        table = straight_line_instance(11)
        params = pl.GaParams(population_size=50, max_generations=30, seed=9)
        r1 = pl.ga_optimize_sequence(table[0], table[1:], params)
        r2 = pl.ga_optimize_sequence(table[0], table[1:], params)
        assert r1.order == r2.order
        assert np.array_equal(r1.best_history, r2.best_history)

    def test_is_permutation(self):
        table = straight_line_instance(13, n_tasks=8)
        params = pl.GaParams(population_size=40, max_generations=15, seed=2)
        result = pl.ga_optimize_sequence(table[0], table[1:], params)
        assert sorted(result.order) == list(range(8))

    def test_total_cost_is_leg_sum_in_order(self):
        # the population is scored in one batch; the sum must still be the
        # per-sequence loop's, added leg by leg from home
        table = straight_line_instance(17, n_tasks=8)
        params = pl.GaParams(population_size=40, max_generations=15, seed=4)
        result = pl.ga_optimize_sequence(table[0], table[1:], params)
        total = leg_sum(table, result.order)
        assert result.total_cost == total
        assert result.best_history[-1] == total

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 13), population=st.integers(2, 60),
           generations=st.integers(1, 20), crossover=PROBS, mutation=PROBS,
           seed=st.integers(0, 2**32 - 1), decimals=st.sampled_from([0, 1, 2, 17]))
    def test_matches_array_form_bitwise(self, n, population, generations, crossover,
                                        mutation, seed, decimals):
        # few decimals make many equal costs, so tournament ties are exercised
        table = np.round(np.random.default_rng(seed).uniform(0.0, 1.0, (n + 1, n)), decimals)
        params = pl.GaParams(population_size=population, max_generations=generations,
                             crossover_prob=crossover, mutation_prob=mutation, seed=seed)
        result = pl.ga_optimize_sequence(table[0], table[1:], params)
        order, total, best_hist, mean_hist = array_form_ga(n, params, table[0], table[1:])
        assert result.order == order
        assert result.total_cost == total
        assert result.best_history.tobytes() == best_hist.tobytes()
        assert result.mean_history.tobytes() == mean_hist.tobytes()

    @pytest.mark.parametrize("bad", [(3, 3), (0, 1)])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_cost_rejected(self, bad, value):
        # (3, 3) prices task 2 -> 3, (0, 1) home -> 1
        table = straight_line_instance(19)
        table[bad] = value
        with pytest.raises(ValueError, match="finite"):
            pl.ga_optimize_sequence(table[0], table[1:], pl.GaParams(seed=0))

    @pytest.mark.parametrize("shape", [(4, 5), (5, 4), (6, 5)])
    def test_matrix_shape_checked(self, shape):
        table = straight_line_instance(19)
        with pytest.raises(ValueError, match="5 x 5"):
            pl.ga_optimize_sequence(table[0], np.zeros(shape), pl.GaParams(seed=0))

    def test_validation(self):
        with pytest.raises(ValueError):
            pl.GaParams(population_size=1)
        with pytest.raises(ValueError):
            pl.GaParams(crossover_prob=1.5)
        with pytest.raises(ValueError):
            pl.GaParams(weights=(1, 1, 0, 1))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), perms=st.lists(st.integers(1, 30), max_size=5),
           script_seed=st.integers(0, 2**32 - 1))
    @example(seed=5, perms=[], script_seed=0)       # no 32-bit half buffered
    @example(seed=5, perms=[2], script_seed=0)      # one half buffered
    def test_draws_match_generator(self, seed, perms, script_seed):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        for n in perms:
            assert np.array_equal(rng.permutation(n), twin.permutation(n))
        integers, random = pl._pcg64_draws(rng)
        # None stands for random(); half the calls read a whole word each, so
        # the script reads past the first random_raw block
        highs = [1, 2, 3, 13, 200, 3 * 2**30, 2**32 - 1, None]
        picks = np.random.default_rng(script_seed).integers(0, 14, 3 * pl.RAW_BLOCK)
        script = [highs[min(k, 7)] for k in picks.tolist()]
        assert script.count(None) > pl.RAW_BLOCK
        for high in script:
            if high is None:
                assert random() == twin.random()
            else:
                assert integers(high) == twin.integers(0, high)

    @pytest.mark.parametrize("high", [2**32, 2**40])
    def test_draws_reject_wide_range(self, high):
        integers, _ = pl._pcg64_draws(np.random.default_rng(0))
        with pytest.raises(ValueError):
            integers(high)

    @pytest.mark.parametrize("generations", [0, -3])
    def test_no_generation_rejected(self, generations):
        with pytest.raises(ValueError, match="generation"):
            pl.GaParams(max_generations=generations)
