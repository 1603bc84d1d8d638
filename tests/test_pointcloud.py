import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from autosand import geometry as geo
from autosand import harness
from autosand import pointcloud as pc
from autosand.config import ObjectConfig, PipelineConfig
from test_harness import small_config

REFERENCE = Path(__file__).parent / "data" / "registration_ref.npz"


def scan(mesh, angle=0.0, *, density=2e5, noise=0.0, view=(-1.0, -0.3, -0.5),
         surface_seed=7, sensor_seed=0, roughness=0.0):
    scanner = pc.ScannerConfig(density=density, depth_noise=noise, view_dir=view)
    return pc.synthetic_scan(mesh, geo.RigidTransform.rotation_z(angle), scanner,
                             surface_seed, sensor_seed, roughness)


def point_mesh_distance(points, shape):
    """Unsigned distance from each point to the hull surface.

    Exact for points outside nearest to a face interior and for points inside;
    that covers surface-sampled clouds, which is what these tests feed it.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    signed = np.full(len(pts), -np.inf)
    for n, d in zip(shape.normals, shape.supports):
        signed = np.maximum(signed, pts @ n - d)
    return np.abs(signed)


def transformed(cloud, tf):
    """The cloud moved by the rigid transform tf, intensities kept."""
    return pc.PointCloud(tf.apply(cloud.points), cloud.intensity)


def registration_reference() -> dict:
    """Each view pair's ICP result, as ``register_sequence`` computes it.

    ``tests/data/registration_ref.npz`` holds these arrays as written by
    ``np.savez(REFERENCE, **registration_reference())``: the rotation,
    translation and rms that ``icp_register`` returns for every consecutive
    view pair of two pipeline scans,

    - ``small``: the views of ``small_config()``;
    - ``dense``: a 4-face cell scanned in 5 views at density 5e5 with
      ``sim.seed`` 0, the benchmark's ``scan_dense`` cell 0;
    - ``prism3``: a 3-face cell scanned in the default 4 views with
      ``sim.seed`` 0, the benchmark's ``sand_hold`` cell 0.  Its middle pair
      overlaps by about a third and runs every iteration.
    """
    dense = PipelineConfig(object=ObjectConfig(sides=4),
                           scanner=pc.ScannerConfig(density=5e5, n_views=5))
    prism3 = PipelineConfig(object=ObjectConfig(sides=3))
    out = {}
    real_icp = pc.icp_register
    for name, config in (("small", small_config()), ("dense", dense),
                         ("prism3", prism3)):
        pairs = []

        def recording_icp(*args, **kwargs):
            pairs.append(real_icp(*args, **kwargs))
            return pairs[-1]

        with tempfile.TemporaryDirectory() as tmp:
            scans, angles = harness._scan_stage(config, harness.build_workcell(config),
                                                Path(tmp))
        pc.icp_register = recording_icp
        try:
            pc.register_sequence(scans, angles)
        finally:
            pc.icp_register = real_icp
        out[f"{name}_rotation"] = np.array([tf.rotation for tf, _ in pairs])
        out[f"{name}_translation"] = np.array([tf.translation for tf, _ in pairs])
        out[f"{name}_rms"] = np.array([rms for _, rms in pairs])
    return out


class TestRigidTransform:
    def test_identity_and_compose(self, rng):
        tf = geo.RigidTransform.rotation_z(0.3, (0.1, -0.2, 0.05))
        inv = tf.inverse()
        pts = rng.standard_normal((50, 3))
        assert inv.apply(tf.apply(pts)) == pytest.approx(pts)
        comp = tf.compose(inv)
        assert comp.rotation == pytest.approx(np.eye(3))
        assert comp.translation == pytest.approx(np.zeros(3), abs=1e-12)

    def test_orthonormality_enforced(self):
        with pytest.raises(ValueError):
            geo.RigidTransform(np.eye(3) * 1.001, np.zeros(3))
        reflect = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            geo.RigidTransform(reflect, np.zeros(3))
        with pytest.raises(ValueError, match="not orthonormal"):
            geo.RigidTransform(np.full((3, 3), np.nan))
        with pytest.raises(ValueError, match="not orthonormal"):
            geo.RigidTransform.rotation_z(float("nan"))

    def test_products_stay_orthonormal(self, rng):
        tf = geo.RigidTransform.identity()
        for _ in range(50):
            tf = tf.compose(geo.RigidTransform.rotation_z(rng.uniform(-3, 3),
                                                          rng.uniform(-1, 1, 3)))
        assert np.abs(tf.rotation.T @ tf.rotation - np.eye(3)).max() < 1e-9
        assert abs(np.linalg.det(tf.rotation) - 1.0) < 1e-9


class TestConvexShape:
    """The face table a shape computes when it is built."""

    def test_box_faces(self):
        extents, center = np.array([0.2, 0.4, 0.6]), np.array([0.1, -0.2, 0.3])
        shape = geo.box(extents, center)
        axes = np.repeat(np.eye(3), 2, axis=0) * np.tile([-1.0, 1.0], 3)[:, None]
        assert np.array_equal(shape.normals, axes)
        half = np.repeat(extents / 2.0, 2)
        assert shape.supports == pytest.approx(half + axes @ center, abs=1e-12)
        sides = np.repeat([extents[1] * extents[2], extents[0] * extents[2],
                           extents[0] * extents[1]], 2)
        assert [sum(a) for a in shape.areas] == pytest.approx(sides, rel=1e-12)

    def test_prism_faces(self):
        cfg = PipelineConfig()
        shape = geo.prism(cfg.object.radii(), cfg.object.height)
        sides = cfg.object.sides
        assert len(shape.faces) == sides + 2
        for face, n, d, tris, areas in zip(shape.faces, shape.normals, shape.supports,
                                           shape.triangles, shape.areas):
            v = shape.vertices[list(face)]
            assert np.abs(v @ n - d).max() < 1e-12
            assert np.linalg.norm(n) == pytest.approx(1.0, rel=1e-12)
            assert tris.shape == (len(face) - 2, 3, 3)
            shoelace = 0.5 * np.linalg.norm(np.cross(v, np.roll(v, -1, axis=0)).sum(axis=0))
            assert areas.sum() == pytest.approx(shoelace, rel=1e-12)
        assert geo.lateral_faces(shape) == list(range(sides))
        assert not shape.normals[:sides, 2].any()

    def test_vertices_read_only_copy(self):
        cube = geo.box((1.0, 2.0, 3.0))
        verts = np.array(cube.vertices)
        shape = geo.ConvexShape(verts, cube.faces)
        with pytest.raises(ValueError):
            shape.vertices[0, 0] = 5.0
        verts[:] = 0.0
        assert np.array_equal(shape.vertices, cube.vertices)
        assert np.array_equal(shape.normals, cube.normals)
        assert shape.supports == cube.supports


class TestSyntheticScan:
    def test_cube_diagonal_view(self):
        cube = geo.box((1.0, 1.0, 1.0))
        scanner = pc.ScannerConfig(density=1e4, depth_noise=2e-4, view_dir=(-1, -1, -1))
        cloud = pc.synthetic_scan(cube, geo.RigidTransform.identity(), scanner, 3, 4)
        visible = [n for n in cube.normals if n @ scanner.view_dir < 0]
        assert len(visible) == 3
        assert len(cloud) == pytest.approx(3e4, rel=0.01)
        dist = point_mesh_distance(cloud.points, cube)
        assert dist.max() < 3 * scanner.depth_noise

    def test_deterministic(self):
        cube = geo.box((1.0, 1.0, 1.0))
        a = scan(cube, noise=2e-4, sensor_seed=9)
        b = scan(cube, noise=2e-4, sensor_seed=9)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.intensity, b.intensity)

    def test_zero_noise_on_faces(self):
        cube = geo.box((0.2, 0.2, 0.2))
        cloud = scan(cube)
        assert point_mesh_distance(cloud.points, cube).max() < 1e-12

    def test_empty_scan(self):
        # open shape: one face only, viewed from behind
        verts = np.array([[0, -1, -1], [0, 1, -1], [0, 1, 1], [0, -1, 1.0]])
        sheet = geo.ConvexShape(verts, faces=((0, 1, 2, 3),))
        scanner = pc.ScannerConfig(view_dir=(1.0, 0, 0))  # looking at its back
        with pytest.raises(pc.EmptyScan):
            pc.synthetic_scan(sheet, geo.RigidTransform.identity(), scanner, 0, 0)

    def test_shared_material_points_across_views(self):
        # the same physical face must contribute identical surface samples in
        # any noise-free view; this is what makes multi-view registration exact
        cube = geo.box((0.2, 0.2, 0.2))
        a = scan(cube, 0.0, view=(-1, -0.4, -0.3))
        b = scan(cube, math.pi / 2, view=(-1, -0.4, -0.3))
        back = geo.RigidTransform.rotation_z(-math.pi / 2).apply(b.points)
        from scipy.spatial import cKDTree
        d, _ = cKDTree(a.points).query(back)
        assert np.median(d) < 1e-12


UNIT_BOX = (np.full(3, -1.0), np.ones(3))
IDENTITY = geo.RigidTransform.identity()


class TestFieldLimits:
    def test_identity_inside(self, rng):
        cloud = pc.PointCloud(rng.uniform(-0.5, 0.5, (200, 3)))
        out = cloud.select(pc.field_limits_mask(cloud, *UNIT_BOX))
        assert np.array_equal(out.points, cloud.points)

    def test_all_outside(self, rng):
        cloud = pc.PointCloud(rng.uniform(2, 3, (50, 3)))
        out = cloud.select(pc.field_limits_mask(cloud, *UNIT_BOX))
        assert len(out) == 0

    def test_matches_brute_force(self, rng):
        pts = rng.uniform(-2, 2, (500, 3))
        cloud = pc.PointCloud(pts, intensity=rng.uniform(0, 1, 500))
        lo, hi = np.array([-1.0, -0.5, 0.0]), np.array([1.0, 1.5, 1.0])
        out = cloud.select(pc.field_limits_mask(cloud, lo, hi))
        expected = [i for i, p in enumerate(pts)
                    if (p >= lo).all() and (p <= hi).all()]
        assert np.array_equal(out.points, pts[expected])
        assert np.array_equal(out.intensity, cloud.intensity[expected])

    def test_idempotent(self, rng):
        cloud = pc.PointCloud(rng.uniform(-2, 2, (300, 3)))
        once = cloud.select(pc.field_limits_mask(cloud, *UNIT_BOX))
        twice = once.select(pc.field_limits_mask(once, *UNIT_BOX))
        assert np.array_equal(once.points, twice.points)


def integer_grid(n=8):
    g = np.stack(np.meshgrid(*[np.arange(float(n))] * 3, indexing="ij"), -1)
    return g.reshape(-1, 3)


def sor_rows(k):
    """Points per sor_filter query at neighbourhood size k: the entry budget's rule."""
    return max(1, pc.SOR_ENTRIES // (k + 1))


def one_shot_sor(cloud, k, alpha):
    """sor_filter as one single-threaded query of the whole cloud: the
    reference that the blocked query on every core must equal bit for bit.
    Returns the filtered cloud and the mean neighbour distances."""
    dists, _ = cKDTree(cloud.points).query(cloud.points, k=k + 1)
    mean_d = dists[:, 1:].mean(axis=1)
    return cloud.select(mean_d <= mean_d.mean() + alpha * mean_d.std()), mean_d


class TestSorFilter:
    def test_grid_retention(self):
        # every grid point has its 3 nearest neighbours at exactly unit
        # distance, so nothing is an outlier
        cloud = pc.PointCloud(integer_grid())
        kept = pc.sor_filter(cloud, k=3, alpha=1.0)
        assert len(kept) / len(cloud) >= 0.99

    def test_far_point_removed(self):
        pts = np.vstack([integer_grid(), [[40.0, 40.0, 40.0]]])
        cloud = pc.PointCloud(pts)
        kept = pc.sor_filter(cloud, k=10, alpha=1.0)
        assert not (kept.points == [40.0, 40.0, 40.0]).all(axis=1).any()
        # brute-force oracle: the far point's mean 10-NN distance is the
        # single largest in the cloud
        d2 = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        d2.sort(axis=1)
        means = d2[:, 1:11].mean(axis=1)
        assert means.argmax() == len(pts) - 1

    def test_infinite_alpha_is_identity(self, rng):
        cloud = pc.PointCloud(rng.standard_normal((300, 3)))
        kept = pc.sor_filter(cloud, k=10, alpha=np.inf)
        assert np.array_equal(kept.points, cloud.points)

    def test_idempotent_after_outlier_removal(self):
        pts = np.vstack([integer_grid(), [[40.0, 40, 40]], [[-30.0, 0, 0]]])
        once = pc.sor_filter(pc.PointCloud(pts), k=3, alpha=1.0)
        twice = pc.sor_filter(once, k=3, alpha=1.0)
        assert np.array_equal(once.points, twice.points)

    def test_blocks_and_threads_match_one_shot_query(self, rng):
        lattice = integer_grid()
        clouds = []
        for k in (6, 200):     # at k = 200 the lattice cloud spans two blocks too
            n = 2 * sor_rows(k) + 1
            clouds += [
                # exact distance ties, and zero distances to the duplicates
                (k, pc.PointCloud(np.vstack([lattice, lattice[::3]]))),
                # three blocks, the last of one point
                (k, pc.PointCloud(rng.standard_normal((n, 3)), rng.uniform(0.0, 1.0, n))),
                (k, pc.PointCloud(rng.standard_normal((k + 1, 3)))),
            ]
        for k, cloud in clouds:
            _, mean_d = one_shot_sor(cloud, k, 0.0)
            # alphas that put the threshold on a point's own mean, where one
            # ulp of any mean decides whether that point is kept
            ranked = np.sort(mean_d)
            alphas = [0.0, 1.0] + [(m - mean_d.mean()) / mean_d.std()
                                   for m in ranked[[0, len(ranked) // 2, -1]]]
            for alpha in alphas:
                got = pc.sor_filter(cloud, k, alpha)
                want, _ = one_shot_sor(cloud, k, alpha)
                assert got.points.tobytes() == want.points.tobytes()
                if cloud.intensity is not None:
                    assert got.intensity.tobytes() == want.intensity.tobytes()

    @pytest.mark.parametrize("k", [50, 200])
    def test_memory_bounded_by_entry_budget(self, rng, k):
        """One query block of at most SOR_ENTRIES neighbours is alive at a time,
        so the traced peak stays small and does not grow with k.  numpy's
        buffers are traced; the tree's own nodes are not."""
        cloud = pc.PointCloud(rng.standard_normal((20_000, 3)))
        tracemalloc.start()
        try:
            pc.sor_filter(cloud, k=k, alpha=1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_too_few_points(self):
        with pytest.raises(pc.TooFewPoints):
            pc.sor_filter(pc.PointCloud(np.zeros((5, 3))), k=10, alpha=1.0)
        with pytest.raises(ValueError):
            pc.sor_filter(pc.PointCloud(np.zeros((5, 3))), k=0, alpha=1.0)


class TestIcp:
    def test_self_registration(self):
        cloud = scan(geo.box((0.2, 0.2, 0.2)), noise=2e-4, sensor_seed=5)
        tf, rms = pc.icp_register(cloud, cloud, IDENTITY)
        assert np.abs(tf.rotation - np.eye(3)).max() < 1e-12
        assert np.abs(tf.translation).max() < 1e-12
        assert rms < 1e-12

    def test_known_transform_recovery(self):
        src = scan(geo.box((0.2, 0.2, 0.2)))
        truth = geo.RigidTransform.rotation_z(math.radians(10.0), (0.01, 0.02, 0.0))
        tgt = transformed(src, truth)
        tf, _ = pc.icp_register(src, tgt, IDENTITY)
        assert np.abs(tf.rotation - truth.rotation).max() < 1e-6
        assert np.abs(tf.translation - truth.translation).max() < 1e-6

    def test_noisy_recovery(self):
        src = scan(geo.box((0.2, 0.2, 0.2)))
        truth = geo.RigidTransform.rotation_z(math.radians(10.0), (0.01, 0.02, 0.0))
        clean = truth.apply(src.points)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            tgt = pc.PointCloud(clean + rng.standard_normal(clean.shape) * 2e-4)
            tf, _ = pc.icp_register(src, tgt, IDENTITY)
            t_err = np.linalg.norm(tf.translation - truth.translation)
            cos_a = (np.trace(tf.rotation @ truth.rotation.T) - 1.0) / 2.0
            rot_err = math.degrees(math.acos(min(1.0, max(-1.0, cos_a))))
            assert t_err < 1e-3
            assert rot_err < 0.5

    def test_empty_cloud_rejected(self):
        cloud = scan(geo.box((0.2, 0.2, 0.2)))
        with pytest.raises(ValueError):
            pc.icp_register(pc.PointCloud(np.zeros((0, 3))), cloud, IDENTITY)

    def test_divergence_guard(self, monkeypatch):
        # a fit that pushes the source further away every call must trip the guard
        calls = []

        def runaway_fit(src, tgt):
            calls.append(1)
            return geo.RigidTransform(np.eye(3),
                                      np.array([float(len(calls)), 0.0, 0.0]))

        monkeypatch.setattr(pc, "fit_rigid", runaway_fit)
        monkeypatch.setattr(pc, "ICP_MAX_DIVERGING", 3)
        cloud = pc.PointCloud(np.random.default_rng(0).standard_normal((50, 3)))
        with pytest.raises(pc.Diverged):
            pc.icp_register(cloud, cloud, IDENTITY)

    def test_best_never_worse_than_init(self, rng):
        src = scan(geo.box((0.2, 0.2, 0.2)))
        truth = geo.RigidTransform.rotation_z(0.2, (0.02, 0.0, 0.0))
        tgt = transformed(src, truth)
        init = geo.RigidTransform.rotation_z(0.18, (0.015, 0.005, 0.0))
        from scipy.spatial import cKDTree
        init_rms = np.sqrt((cKDTree(tgt.points).query(init.apply(src.points))[0] ** 2).mean())
        _, rms = pc.icp_register(src, tgt, init)
        assert rms <= init_rms + 1e-15


def unbounded_icp(source, target, init):
    """icp_register with an unbounded neighbour search in every iteration:
    the reference whose (tf, rms) the bounded search must equal bit for bit."""
    tf = init
    tree = cKDTree(target.points)
    best_tf, best_rms = tf, np.inf
    prev_rms = np.inf
    worse = 0
    for _ in range(pc.ICP_MAX_ITERS):
        moved = tf.apply(source.points)
        dists, idx = tree.query(moved)
        med = np.median(dists)
        keep = dists <= pc.ICP_REJECT_RATIO * med + 1e-300
        if keep.sum() < 3:
            keep = np.ones(len(dists), dtype=bool)
        rms = float(np.sqrt(np.mean(dists[keep] ** 2)))
        if rms < best_rms:
            best_tf, best_rms = tf, rms
        if rms > prev_rms:
            worse += 1
            if worse >= pc.ICP_MAX_DIVERGING:
                raise pc.Diverged(f"rms rose {worse} consecutive iterations")
        else:
            worse = 0
        if abs(prev_rms - rms) < pc.ICP_TOL:
            break
        prev_rms = rms
        tf = pc.fit_rigid(source.points[keep], target.points[idx[keep]])
    return best_tf, best_rms


def assert_same_registration(source, target, init=IDENTITY):
    """icp_register and unbounded_icp return the same bits, or both diverge."""
    outcomes = []
    for icp in (pc.icp_register, unbounded_icp):
        try:
            tf, rms = icp(source, target, init)
        except pc.Diverged as err:
            outcomes.append(str(err))
        else:
            outcomes.append((tf.rotation.tobytes(), tf.translation.tobytes(),
                             np.float64(rms).tobytes()))
    assert outcomes[0] == outcomes[1]


def record_queries(monkeypatch) -> list:
    """Make icp_register append (number of points, distance bound) of every
    query it makes to the returned list."""
    queries = []

    class RecordingTree(cKDTree):
        def query(self, x, *args, distance_upper_bound=np.inf, **kwargs):
            queries.append((len(x), distance_upper_bound))
            return super().query(x, *args, distance_upper_bound=distance_upper_bound,
                                 **kwargs)

    monkeypatch.setattr(pc, "cKDTree", RecordingTree)
    return queries


@pytest.fixture
def tree_queries(monkeypatch):
    return record_queries(monkeypatch)


@pytest.fixture(scope="module")
def dense_pair():
    """Two noisy views of a 6-face prism 72 degrees apart (about 6k points
    each): about a third of each view lies on faces the other never saw."""
    mesh = geo.prism(np.full(6, 0.06), 0.08)
    a = scan(mesh, 0.0, density=3e5, noise=2e-4, sensor_seed=1)
    b = scan(mesh, 2 * math.pi / 5, density=3e5, noise=2e-4, sensor_seed=2)
    return b, a, geo.RigidTransform.rotation_z(-2 * math.pi / 5)


class TestBoundedIcp:
    """icp_register bounds its neighbour search; (tf, rms) must equal those of
    the unbounded loop kept above as unbounded_icp."""

    def test_partial_overlap_dense_views(self, dense_pair):
        assert_same_registration(*dense_pair)

    def test_search_is_bounded_after_the_sample(self, dense_pair, tree_queries):
        source, target, init = dense_pair
        pc.icp_register(source, target, init)
        (n_sample, first_bound), *rest = tree_queries
        assert 64 <= n_sample < 128 and first_bound == np.inf
        assert rest and all(np.isfinite(bound) for _, bound in rest)

    def test_gate_outgrowing_bound_reruns_unbounded(self, tree_queries):
        # Each source point sits off its grid point by its own offset, so its
        # distance is that offset.  The strided sample (every 8th point) is
        # 0.01 off, the median point 0.06 and 30 points 0.25: the first bound
        # is ICP_BOUND * 5 * 0.01 and the gate 0.3.  The gate is past the
        # bound, which cut off the 30 points it keeps, so the search must
        # rerun.
        rng = np.random.default_rng(3)
        grid = integer_grid()
        offset = np.full(len(grid), 0.06)
        offset[::8] = 0.01
        offset[1::17] = 0.25
        direction = rng.standard_normal(grid.shape)
        direction /= np.linalg.norm(direction, axis=1)[:, None]
        source = pc.PointCloud(grid + offset[:, None] * direction)
        assert_same_registration(source, pc.PointCloud(grid))
        first_bound = pc.ICP_BOUND * 5 * 0.01
        assert 0.3 > 0.95 * first_bound and 0.25 > first_bound
        assert tree_queries[1][1] == pytest.approx(first_bound)
        assert tree_queries[2][1] == np.inf

    def test_keep_all_path_requeries(self, tree_queries, monkeypatch):
        # Every grid point is 0.1 from its match and 21 are 50 away; with
        # ICP_REJECT_RATIO 0.5 no correspondence passes the gate, so all are kept,
        # including the 21 the bounded search cut off.
        monkeypatch.setattr(pc, "ICP_REJECT_RATIO", 0.5)
        grid = integer_grid()
        source = grid + [0.1, 0.0, 0.0]
        source[1::25] += [0.0, 0.0, 50.0]
        assert_same_registration(pc.PointCloud(source), pc.PointCloud(grid))
        assert tree_queries[1][1] < np.inf and tree_queries[2][1] == np.inf

    def test_self_registration_bound_underflows(self, tree_queries):
        # every distance is 0, so the gate is 1e-300 and the squared bound 0
        cloud = scan(geo.box((0.2, 0.2, 0.2)), noise=2e-4, sensor_seed=5)
        assert_same_registration(cloud, cloud)
        assert (pc.ICP_BOUND * 1e-300) ** 2 == 0.0
        assert tree_queries[1][1] == pc.ICP_BOUND * 1e-300
        assert tree_queries[2][1] == np.inf

    def test_divergence_raised_on_same_iteration(self, monkeypatch):
        calls = []

        def runaway_fit(src, tgt):
            calls.append(1)
            return geo.RigidTransform(np.eye(3), np.array([0.1 * len(calls), 0.0, 0.0]))

        monkeypatch.setattr(pc, "fit_rigid", runaway_fit)
        monkeypatch.setattr(pc, "ICP_MAX_DIVERGING", 3)
        cloud = pc.PointCloud(np.random.default_rng(0).standard_normal((500, 3)))
        fits = []
        for icp in (pc.icp_register, unbounded_icp):
            calls.clear()
            with pytest.raises(pc.Diverged):
                icp(cloud, cloud, IDENTITY)
            fits.append(len(calls))
        assert fits[0] == fits[1]

    @settings(max_examples=30, deadline=None)
    @given(angle=st.floats(-0.5, 0.5), shift=st.tuples(*[st.floats(-0.02, 0.02)] * 3),
           tilt=st.floats(-0.1, 0.1), ratio=st.floats(1.0, 8.0))
    def test_random_rigid_inits(self, angle, shift, tilt, ratio):
        mesh = geo.prism(np.full(5, 0.05), 0.06)
        a = scan(mesh, 0.0, density=5e4, noise=2e-4, sensor_seed=1)
        b = scan(mesh, 0.9, density=5e4, noise=2e-4, sensor_seed=2)
        c, s = math.cos(tilt), math.sin(tilt)
        tilt_x = geo.RigidTransform(np.array([[1.0, 0, 0], [0, c, -s], [0, s, c]]),
                                    np.zeros(3))
        init = geo.RigidTransform.rotation_z(angle, shift).compose(tilt_x)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pc, "ICP_REJECT_RATIO", ratio)
            assert_same_registration(b, a, init)

    @settings(max_examples=30, deadline=None)
    @given(delta=st.floats(0.005, 0.05), far=st.floats(3.5, 4.9),
           share=st.floats(0.52, 0.6), seed=st.integers(0, 2 ** 32 - 1),
           direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
               lambda v: np.linalg.norm(v) > 0.1))
    def test_gate_growing_between_iterations_reruns(self, delta, far, share, seed,
                                                    direction):
        # A share of just over half the points sits delta off its grid point
        # along u, the rest far * delta against u.  Both groups pass the first
        # gate (at least 5 * delta), so the fit shifts the cloud by their mean
        # offset, and the near points end (1 - share) * (1 + far) * delta
        # >= 1.8 delta off.  The gate grows more than ICP_BOUND / 0.95 times,
        # so the second iteration's bounded search must rerun.
        u = np.array(direction) / np.linalg.norm(direction)
        grid = integer_grid()
        near = np.zeros(len(grid), dtype=bool)
        order = np.random.default_rng(seed).permutation(len(grid))
        near[order[:int(share * len(grid))]] = True
        source = np.where(near[:, None], grid - delta * u, grid + far * delta * u)
        with pytest.MonkeyPatch.context() as patch:
            queries = record_queries(patch)
            assert_same_registration(pc.PointCloud(source), pc.PointCloud(grid))
        bounds = [bound for _, bound in queries]
        assert np.isfinite(bounds[1:3]).all() and bounds[3] == np.inf


class TestMergeScans:
    VIEW = (-1.0, -0.3, -0.5)

    def make_scans(self, mesh, n_views, noise, surface_seed=11):
        angles = [2 * math.pi * k / n_views for k in range(n_views)]
        scans = [scan(mesh, a, view=self.VIEW, noise=noise,
                      surface_seed=surface_seed, sensor_seed=100 + k)
                 for k, a in enumerate(angles)]
        return scans, angles

    def test_cube_four_views(self):
        cube = geo.box((0.1, 0.1, 0.1))
        scans, angles = self.make_scans(cube, 4, noise=2e-4)
        merged = pc.merge_scans(scans, angles)
        dist = point_mesh_distance(merged.points, cube)
        assert np.sqrt((dist ** 2).mean()) < 1e-3
        # every lateral face is represented in the merged model
        for face in geo.lateral_faces(cube):
            n = cube.normals[face]
            d = cube.supports[face]
            on_face = np.abs(merged.points @ n - d) < 1.5e-3
            assert on_face.sum() > 100

    def test_noise_free_transforms_exact(self):
        cube = geo.box((0.1, 0.1, 0.1))
        scans, angles = self.make_scans(cube, 4, noise=0.0)
        transforms = pc.register_sequence(scans, angles)
        for tf, a in zip(transforms, angles):
            expected = geo.RigidTransform.rotation_z(angles[0] - a)
            assert np.abs(tf.rotation - expected.rotation).max() < 1e-6
            assert np.abs(tf.translation).max() < 1e-6

    def test_threads_and_blocks_change_nothing(self, monkeypatch):
        cube = geo.box((0.1, 0.1, 0.1))
        scans, angles = self.make_scans(cube, 4, noise=2e-4)
        merged = pc.merge_scans(scans, angles)
        n_points = sum(len(s) for s in scans)
        k = pc.SOR_K
        assert n_points > sor_rows(k)

        class SingleThreadTree(cKDTree):
            def query(self, x, *args, **kwargs):
                return super().query(x, *args, **{**kwargs, "workers": 1})

        monkeypatch.setattr(pc, "cKDTree", SingleThreadTree)
        monkeypatch.setattr(pc, "SOR_ENTRIES", n_points * (k + 1))   # one block
        single = pc.merge_scans(scans, angles)
        assert merged.points.tobytes() == single.points.tobytes()
        assert merged.intensity.tobytes() == single.intensity.tobytes()

    def test_single_scan_rejected(self):
        cube = geo.box((0.1, 0.1, 0.1))
        scans, angles = self.make_scans(cube, 4, noise=0.0)
        with pytest.raises(ValueError):
            pc.merge_scans(scans[:1], angles[:1])

    def test_merge_rms_below_noise_multiple(self):
        mesh = geo.prism(np.full(9, 0.06), 0.08)
        sigma = 2e-4
        scans, angles = self.make_scans(mesh, 4, noise=sigma)
        merged = pc.merge_scans(scans, angles)
        dist = point_mesh_distance(merged.points, mesh)
        assert np.sqrt((dist ** 2).mean()) < 5 * sigma


class TestRegistrationReference:
    def test_matches_stored_reference(self):
        """Every view pair's (tf, rms) equals the stored reference bit for bit.

        model.ply reaches the bench digests only after SOR; this pins the
        registration itself, so a rewrite of icp_register must not move a bit.
        """
        expected = np.load(REFERENCE)
        actual = registration_reference()
        assert sorted(expected.files) == sorted(actual)
        for name in expected.files:
            assert actual[name].tobytes() == expected[name].tobytes(), name


class TestQuality:
    def plane_cloud(self, rng, n, spread, over_count):
        n = int(n)
        pts = np.zeros((n, 3))
        pts[:, :2] = rng.uniform(-0.05, 0.05, (n, 2))
        pts[:, 2] = rng.standard_normal(n) * spread
        inten = rng.uniform(0.3, 0.85, n)
        inten[:over_count] = 0.95
        return pc.PointCloud(pts, inten)

    def test_identical_clouds_fail(self, rng):
        cloud = self.plane_cloud(rng, 2000, 4e-4, 10)
        report = pc.assess_quality(cloud, cloud, pc.QualityParams())
        assert not report.passed
        assert report.overexposure_before == report.overexposure_after == 10
        assert report.roughness_before == pytest.approx(report.roughness_after)

    def test_constructed_improvement_passes(self, rng):
        before = self.plane_cloud(rng, 2000, 4e-4, 10)
        after = pc.PointCloud(before.points * [1.0, 1.0, 0.5],
                              before.intensity.copy())
        after.intensity[10:20] = 0.95  # doubles the overexposed count
        report = pc.assess_quality(before, after, pc.QualityParams())
        assert report.passed
        assert report.overexposure_after == 2 * report.overexposure_before
        assert report.roughness_after == pytest.approx(
            0.5 * report.roughness_before, rel=0.05)

    def test_missing_intensity(self, rng):
        plain = pc.PointCloud(rng.standard_normal((100, 3)))
        withi = self.plane_cloud(rng, 100, 1e-4, 0)
        with pytest.raises(pc.MissingIntensity):
            pc.assess_quality(plain, withi, pc.QualityParams())

    def test_roughness_tracks_surface_texture(self, rng):
        rough = self.plane_cloud(rng, 2000, 5e-4, 0)
        smooth = self.plane_cloud(rng, 2000, 1e-4, 0)
        r1 = pc.surface_roughness(rough, pc.QualityParams())
        r2 = pc.surface_roughness(smooth, pc.QualityParams())
        assert r1 == pytest.approx(5e-4, rel=0.15)
        assert r2 == pytest.approx(1e-4, rel=0.15)


class TestFileFormats:
    def test_ply_roundtrip(self, tmp_path, rng):
        cloud = pc.PointCloud(rng.standard_normal((100, 3)),
                              intensity=rng.uniform(0, 1, 100))
        path = tmp_path / "cloud.ply"
        pc.save_ply(cloud, path)
        loaded = pc.load_ply(path)
        pc.save_ply(loaded, tmp_path / "again.ply")
        assert path.read_bytes() == (tmp_path / "again.ply").read_bytes()
        assert np.abs(loaded.points - cloud.points).max() < 1e-8

    def test_ply_without_intensity(self, tmp_path, rng):
        cloud = pc.PointCloud(rng.standard_normal((20, 3)))
        pc.save_ply(cloud, tmp_path / "plain.ply")
        loaded = pc.load_ply(tmp_path / "plain.ply")
        assert loaded.intensity is None
        assert len(loaded) == 20

    @pytest.mark.parametrize("intensity", [None, np.zeros(0)])
    def test_ply_empty_roundtrip(self, tmp_path, intensity):
        pc.save_ply(pc.PointCloud(np.zeros((0, 3)), intensity), tmp_path / "empty.ply")
        loaded = pc.load_ply(tmp_path / "empty.ply")
        assert len(loaded) == 0
        assert (loaded.intensity is None) == (intensity is None)
        pc.save_ply(loaded, tmp_path / "again.ply")
        assert (tmp_path / "empty.ply").read_bytes() == (tmp_path / "again.ply").read_bytes()

    @pytest.mark.parametrize("line", ["", "   ", "property float", "element vertex"],
                             ids=["blank", "spaces", "short_property", "short_element"])
    def test_ply_malformed_header_line(self, tmp_path, line):
        pc.save_ply(pc.PointCloud(np.ones((2, 3))), tmp_path / "cloud.ply")
        lines = (tmp_path / "cloud.ply").read_text().splitlines(keepends=True)
        lines.insert(2, line + "\n")
        (tmp_path / "cloud.ply").write_text("".join(lines))
        with pytest.raises(ValueError, match="malformed PLY header line"):
            pc.load_ply(tmp_path / "cloud.ply")

    def test_ply_significant_digits(self, tmp_path):
        cloud = pc.PointCloud([[1.0 / 3.0, 2.0 / 3.0, 1e-7]])
        pc.save_ply(cloud, tmp_path / "digits.ply")
        body = (tmp_path / "digits.ply").read_text().splitlines()[-1]
        assert body.split() == ["0.333333333", "0.666666667", "1e-07"]

    def test_intensity_length_mismatch(self):
        with pytest.raises(ValueError):
            pc.PointCloud(np.zeros((5, 3)), intensity=np.zeros(4))
