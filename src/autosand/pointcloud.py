"""Synthetic structured-light scanning, filtering, rigid registration, quality checks.

The scanner samples points on the faces of a convex mesh.  Surface samples are
drawn in the object frame from a seed tied to the object, so two scans of the
same (unchanged) surface share the very same material points; only the
sensor-side depth noise differs between views.  Registration of noise-free
multi-view scans is therefore exact, which mirrors how feature-rich surfaces
behave far better than resampling the mesh per view would.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np
from scipy.spatial import cKDTree

from .domains import check
from .geometry import ConvexShape, RigidTransform

SOR_BLOCK = 8192   # points per SOR query: bounds its (block, k + 1) arrays
ICP_LEAFSIZE = 48  # points per leaf of ICP's target tree: the fastest of 16/32/48/64
ICP_BOUND = 1.5    # ICP searches out to this many times the last gate


class EmptyScan(Exception):
    """No mesh face is visible from the requested viewpoint."""


class TooFewPoints(Exception):
    """The cloud is too small for the requested neighbourhood size."""


class Diverged(Exception):
    """Registration error increased for too many consecutive iterations."""


class MissingIntensity(Exception):
    """Quality assessment needs per-point intensity on both clouds."""


@dataclass
class PointCloud:
    points: np.ndarray
    intensity: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if not np.isfinite(self.points).all():
            raise ValueError("point coordinates must be finite")
        if self.intensity is not None:
            self.intensity = np.asarray(self.intensity, dtype=float).reshape(-1)
            if len(self.intensity) != len(self.points):
                raise ValueError("intensity length must match point count")

    def __len__(self) -> int:
        return len(self.points)

    def select(self, mask) -> "PointCloud":
        inten = None if self.intensity is None else self.intensity[mask]
        return PointCloud(self.points[mask], inten)


@dataclass
class QualityReport:
    overexposure_before: int
    overexposure_after: int
    roughness_before: float
    roughness_after: float
    passed: bool


@dataclass
class ScannerConfig:
    """Knobs of the synthetic scanner.  view_dir is the viewing ray in the
    world frame; synthetic_scan normalises it."""

    density: float = 2e5
    depth_noise: float = 2e-4
    view_dir: tuple = (-1.0, 0.0, -0.45)
    n_views: int = 4
    intensity_base: float = 0.88
    intensity_slope: float = 250.0
    speckle: float = 0.05
    field_margin: float = 0.05     # box half-width around the object for the field filter

    def __post_init__(self):
        check(self, density="> 0", depth_noise=">= 0", view_dir="", n_views=">= 2",
              intensity_base=">= 0 and <= 1", intensity_slope=">= 0", speckle=">= 0",
              field_margin=">= 0")
        if np.shape(self.view_dir) != (3,) or not np.any(self.view_dir):
            raise ValueError("view_dir must be a non-zero 3-vector")


def _face_samples(mesh: ConvexShape, face: int, scanner: ScannerConfig,
                  surface_seed: int, roughness):
    """Deterministic material points with texture displacement and reflectance."""
    rough = np.broadcast_to(np.asarray(roughness, dtype=float),
                            (len(mesh.faces),))[face]
    area = mesh.face_area(face)
    n_pts = max(1, int(round(scanner.density * area)))
    rng = np.random.default_rng(np.random.SeedSequence((surface_seed, face)))
    tris = mesh.face_triangles(face)
    areas = np.array([0.5 * np.linalg.norm(np.cross(b - a, c - a)) for a, b, c in tris])
    pick = rng.choice(len(tris), size=n_pts, p=areas / areas.sum())
    r1 = np.sqrt(rng.uniform(size=n_pts))
    r2 = rng.uniform(size=n_pts)
    texture = rng.standard_normal(n_pts)
    speckle = rng.standard_normal(n_pts)
    tri = np.array(tris)[pick]
    pts = (1 - r1)[:, None] * tri[:, 0] + (r1 * (1 - r2))[:, None] * tri[:, 1] \
        + (r1 * r2)[:, None] * tri[:, 2]
    normal = mesh.face_normal(face)
    pts = pts + (rough * texture)[:, None] * normal
    inten = scanner.intensity_base - scanner.intensity_slope * rough \
        + scanner.speckle * speckle
    return pts, np.clip(inten, 0.0, 1.0)


def synthetic_scan(mesh: ConvexShape, pose: RigidTransform, scanner: ScannerConfig,
                   surface_seed: int, sensor_seed: int, roughness=0.0) -> PointCloud:
    """Scan the posed mesh from the scanner's view direction.

    surface_seed fixes the material sample points (object identity);
    sensor_seed fixes the per-view depth noise.  roughness is the per-face
    RMS surface texture in metres (scalar broadcasts over faces); it displaces
    samples along the face normal and darkens the returned intensity.
    Faces whose outward normals point toward the camera are sampled; depth
    noise is added along the viewing ray in the world frame.
    """
    view_dir = np.asarray(scanner.view_dir, dtype=float)
    view_dir = view_dir / np.linalg.norm(view_dir)
    visible = [i for i in range(len(mesh.faces))
               if (pose.rotation @ mesh.face_normal(i)) @ view_dir < -1e-9]
    if not visible:
        raise EmptyScan("no face visible from the given pose")
    pts_all, inten_all = [], []
    for i in visible:
        pts, inten = _face_samples(mesh, i, scanner, surface_seed, roughness)
        pts_all.append(pose.apply(pts))
        inten_all.append(inten)
    pts = np.vstack(pts_all)
    inten = np.concatenate(inten_all)
    if scanner.depth_noise > 0.0:
        rng = np.random.default_rng(np.random.SeedSequence((sensor_seed, 0xD)))
        pts = pts + rng.standard_normal(len(pts))[:, None] * scanner.depth_noise \
            * view_dir
    return PointCloud(pts, inten)


def field_limits_mask(cloud: PointCloud, lower, upper) -> np.ndarray:
    """Mask of exactly the points inside the closed axis-aligned box."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if (lower >= upper).any():
        raise ValueError("box needs lower < upper per axis")
    return ((cloud.points >= lower) & (cloud.points <= upper)).all(axis=1)


def sor_filter(cloud: PointCloud, k: int = 50, alpha: float = 1.0) -> PointCloud:
    """Statistical outlier removal.

    Points whose mean distance to their k nearest neighbours exceeds the
    cloud-wide mean plus alpha standard deviations are dropped.

    The tree is queried on every core, SOR_BLOCK points at a time.  Each
    point's neighbours are searched on their own and each mean reduces its own
    row, so neither the thread count nor the block size can change a bit.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if len(cloud) <= k:
        raise TooFewPoints(f"need more than {k} points, got {len(cloud)}")
    pts = cloud.points
    tree = cKDTree(pts)
    mean_d = np.empty(len(pts))
    for start in range(0, len(pts), SOR_BLOCK):
        dists, _ = tree.query(pts[start:start + SOR_BLOCK], k=k + 1, workers=-1)
        mean_d[start:start + SOR_BLOCK] = dists[:, 1:].mean(axis=1)
    threshold = mean_d.mean() + alpha * mean_d.std()
    return cloud.select(mean_d <= threshold)


def fit_rigid(source: np.ndarray, target: np.ndarray) -> RigidTransform:
    """Least-squares rigid motion mapping paired source points onto target points.

    SVD-based orthogonal Procrustes with a reflection guard.
    """
    src = np.asarray(source, dtype=float)
    tgt = np.asarray(target, dtype=float)
    cs = src.mean(axis=0)
    ct = tgt.mean(axis=0)
    h = (src - cs).T @ (tgt - ct)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rot = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return RigidTransform(rot, ct - rot @ cs)


@dataclass
class IcpParams:
    max_iters: int = 60
    tol: float = 1e-12
    reject_ratio: float = 5.0
    max_diverging: int = 5

    def __post_init__(self):
        check(self, max_iters=">= 1", tol=">= 0", reject_ratio="> 0", max_diverging=">= 1")


def icp_register(source: PointCloud, target: PointCloud,
                 init: RigidTransform | None = None,
                 params: IcpParams | None = None):
    """Iterative closest point: returns (transform source->target frame, rms).

    Correspondences beyond the gate reject_ratio * median + 1e-300 are
    discarded, which tolerates the partial overlap between consecutive views.

    The neighbour search stops at a bound of ICP_BOUND times the last gate
    (the first gate comes from about 64 strided points), so points on faces
    the other view never saw cost little.  (tf, rms) still equal an unbounded
    search's bit for bit:

    - A bounded query gives each point its exact nearest distance, or inf
      when no target point passes the tree's test d^2 < bound^2.  A finite
      result is thus exact, and every point given inf is farther than every
      finite one, so a finite median is exact, and with it the gate.
    - The bounded result stands when the gate is at most 0.95 of the bound.
      A kept point then has d <= gate <= m * bound with m = 0.95.  The
      returned d is the correctly rounded root of the tree's d^2, so
      d^2 <= (m * bound)^2 / (1 - u)^2 with u = 2^-53, and the rounded
      bound^2 is at least bound^2 * (1 - u): the test passes for any m below
      (1 - u)^1.5 = 1 - O(2^-52), so every kept point was found exactly.
      (For a subnormal bound^2 this holds down to about 1e-322; nonzero
      distances smaller than that need coordinates near 1e-160.)  A point
      given inf lies beyond the bound and so beyond the gate, and is dropped
      as the unbounded search drops it.
    - Otherwise, and before keeping all points when fewer than three pass,
      the search reruns unbounded.

    The tree's leaf size cannot change a distance; it can change an index
    only between exactly equidistant target points.  Each point is searched
    on its own, so running on every core moves no bit.
    """
    if len(source) == 0 or len(target) == 0:
        raise ValueError("both clouds must be non-empty")
    params = params or IcpParams()
    tf = init or RigidTransform.identity()
    tree = cKDTree(target.points, leafsize=ICP_LEAFSIZE)
    sample = tf.apply(source.points[::max(1, len(source) // 64)])
    gate = params.reject_ratio * np.median(tree.query(sample)[0]) + 1e-300
    best_tf, best_rms = tf, np.inf
    prev_rms = np.inf
    worse = 0
    for _ in range(params.max_iters):
        moved = tf.apply(source.points)
        for bound in (ICP_BOUND * gate, np.inf):
            dists, idx = tree.query(moved, distance_upper_bound=bound, workers=-1)
            gate = params.reject_ratio * np.median(dists) + 1e-300
            if gate <= 0.95 * bound:
                break
        keep = dists <= gate
        if keep.sum() < 3:
            if bound < np.inf:
                dists, idx = tree.query(moved, workers=-1)
            keep = np.ones(len(dists), dtype=bool)
        rms = float(np.sqrt(np.mean(dists[keep] ** 2)))
        if rms < best_rms:
            best_tf, best_rms = tf, rms
        if rms > prev_rms:
            worse += 1
            if worse >= params.max_diverging:
                raise Diverged(f"rms rose {worse} consecutive iterations")
        else:
            worse = 0
        if abs(prev_rms - rms) < params.tol:
            break
        prev_rms = rms
        tf = fit_rigid(source.points[keep], target.points[idx[keep]])
    return best_tf, best_rms


def register_sequence(scans, commanded_angles, params: IcpParams | None = None):
    """Register each scan into the first scan's frame.

    The commanded rotation about z between consecutive views seeds the ICP, the
    refined relative transforms are then composed.  Returns one transform per
    scan (the first is the identity).
    """
    if len(scans) < 2:
        raise ValueError("need at least 2 scans")
    if len(commanded_angles) != len(scans):
        raise ValueError("one commanded angle per scan")
    transforms = [RigidTransform.identity()]
    for i in range(len(scans) - 1):
        rel_init = RigidTransform.rotation_z(commanded_angles[i] - commanded_angles[i + 1])
        rel, _ = icp_register(scans[i + 1], scans[i], rel_init, params)
        transforms.append(transforms[i].compose(rel))
    return transforms


@dataclass
class SorConfig:
    k: int = 50
    alpha: float = 1.0

    def __post_init__(self):
        check(self, k=">= 1", alpha="")


def merge_scans(scans, commanded_angles, icp: IcpParams | None = None,
                sor: SorConfig | None = None) -> PointCloud:
    """Fuse rotated views into one model cloud in the first view's frame."""
    sor = sor or SorConfig()
    transforms = register_sequence(scans, commanded_angles, params=icp)
    pts = np.vstack([tf.apply(s.points) for tf, s in zip(transforms, scans)])
    if all(s.intensity is not None for s in scans):
        inten = np.concatenate([s.intensity for s in scans])
    else:
        inten = None
    merged = PointCloud(pts, inten)
    return sor_filter(merged, k=sor.k, alpha=sor.alpha)


@dataclass
class QualityParams:
    intensity_threshold: float = 0.9
    window: float = 0.01
    min_window_points: int = 8
    over_ratio: float = 1.5
    rough_ratio: float = 0.7

    def __post_init__(self):
        check(self, intensity_threshold=">= 0 and <= 1", window="> 0",
              min_window_points=">= 3", over_ratio=">= 0", rough_ratio=">= 0")


def surface_roughness(cloud: PointCloud, window: float = 0.01,
                      min_window_points: int = 8) -> float:
    """RMS residual of local plane fits over square windows of the surface.

    The cloud is projected into its own principal frame; windows tile the two
    tangent directions.
    """
    pts = cloud.points
    center = pts.mean(axis=0)
    _, _, vt = np.linalg.svd(pts - center, full_matrices=False)
    local = (pts - center) @ vt.T  # columns: tangent, tangent, normal
    uv = local[:, :2]
    cells = np.floor(uv / window).astype(int)
    _, inverse = np.unique(cells, axis=0, return_inverse=True)
    sq_sum = 0.0
    count = 0
    for cell in range(inverse.max() + 1):
        sel = local[inverse == cell]
        if len(sel) < min_window_points:
            continue
        centered = sel - sel.mean(axis=0)
        resid = np.linalg.svd(centered, compute_uv=False)[-1]
        sq_sum += resid ** 2
        count += len(sel)
    if count == 0:
        resid = np.linalg.svd(local - local.mean(axis=0), compute_uv=False)[-1]
        return float(resid / np.sqrt(len(local)))
    return float(np.sqrt(sq_sum / count))


def assess_quality(before: PointCloud, after: PointCloud,
                   params: QualityParams | None = None) -> QualityReport:
    """Compare scans of a face around a sanding pass.

    A properly sanded face reflects more (overexposed point count up) and is
    flatter (plane-fit residual down); both move past configurable ratios for
    the pass verdict.
    """
    params = params or QualityParams()
    for cloud in (before, after):
        if cloud.intensity is None or len(cloud.intensity) == 0:
            raise MissingIntensity("both clouds need per-point intensity")
    over_b = int((before.intensity > params.intensity_threshold).sum())
    over_a = int((after.intensity > params.intensity_threshold).sum())
    rough_b = surface_roughness(before, params.window, params.min_window_points)
    rough_a = surface_roughness(after, params.window, params.min_window_points)
    passed = over_a >= params.over_ratio * over_b and rough_a <= params.rough_ratio * rough_b
    return QualityReport(over_b, over_a, rough_b, rough_a, bool(passed))


# --- file formats ------------------------------------------------------------

def write_rows(fh, columns, spec: str, sep: str, subset=None) -> None:
    """Write equal-length arrays side by side as lines of ``spec % value``,
    256 rows per %-call: the same text as formatting value by value.  With
    ``subset`` = (keep, kept_fh), the rows where keep holds go to kept_fh too."""
    for start in range(0, len(columns[0]), 256):
        block = np.column_stack([c[start:start + 256] for c in columns])
        line = sep.join([spec] * block.shape[1]) + "\n"
        text = (line * len(block)) % tuple(block.ravel().tolist())
        fh.write(text)
        if subset is not None:
            kept = compress(text.splitlines(True), subset[0][start:start + 256].tolist())
            subset[1].write("".join(kept))


def save_ply(cloud: PointCloud, path, subset=None) -> None:
    """ASCII PLY with x, y, z and optional intensity, 9 significant digits.
    ``subset`` = (keep, kept_path) also writes cloud.select(keep) to
    kept_path, formatting each row once for both files."""
    header = ("ply\nformat ascii 1.0\nelement vertex {}\n"
              "property float x\nproperty float y\nproperty float z\n"
              + ("" if cloud.intensity is None else "property float intensity\n")
              + "end_header\n")
    columns = [cloud.points] + ([] if cloud.intensity is None else [cloud.intensity])
    with open(path, "w") as fh:
        fh.write(header.format(len(cloud)))
        if subset is None:
            return write_rows(fh, columns, "%.9g", " ")
        with open(subset[1], "w") as kept_fh:
            kept_fh.write(header.format(int(subset[0].sum())))
            write_rows(fh, columns, "%.9g", " ", (subset[0], kept_fh))


def load_ply(path) -> PointCloud:
    with open(path) as fh:
        if fh.readline().strip() != "ply":
            raise ValueError("not a PLY file")
        n = 0
        in_vertex = False
        props = []
        for line in fh:
            token = line.split()
            if not token or (token[0] in ("element", "property") and len(token) < 3):
                raise ValueError(f"malformed PLY header line {line.strip()!r}")
            if token[:2] == ["element", "vertex"]:
                n = int(token[2])
                in_vertex = True
            elif token[0] == "property" and in_vertex:
                props.append(token[2])
            elif token[0] == "end_header":
                break
            elif token[0] == "element":
                raise ValueError("only vertex elements are supported")
        if props[:3] != ["x", "y", "z"]:
            raise ValueError("vertex element must start with x, y, z")
        data = np.array([[float(v) for v in fh.readline().split()] for _ in range(n)])
    data = data.reshape(n, len(props))
    inten = data[:, 3] if "intensity" in props else None
    return PointCloud(data[:, :3], inten)

