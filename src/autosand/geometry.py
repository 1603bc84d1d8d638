"""Rigid transforms and convex polyhedra shared by the perception and planning code."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_ORTHO_TOL = 1e-9


@dataclass
class RigidTransform:
    """Proper rigid motion: y = R x + T."""

    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        self.translation = np.asarray(self.translation, dtype=float).reshape(3)
        err = np.abs(self.rotation.T @ self.rotation - np.eye(3)).max()
        if not err <= _ORTHO_TOL:          # so a nan entry fails too
            raise ValueError(f"rotation is not orthonormal (error {err:.3g})")
        if not abs(np.linalg.det(self.rotation) - 1.0) <= _ORTHO_TOL:
            raise ValueError("rotation must be proper (det = +1)")

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls()

    @classmethod
    def rotation_z(cls, angle: float, translation=(0.0, 0.0, 0.0)) -> "RigidTransform":
        c, s = math.cos(angle), math.sin(angle)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        return cls(rot, np.asarray(translation, dtype=float))

    @classmethod
    def planar(cls, x: float, y: float, angle: float) -> "RigidTransform":
        """Pose of a body moving in the xy-plane (rotation about z)."""
        return cls.rotation_z(angle, (x, y, 0.0))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """The (n, 3) array of the transformed rows of points."""
        return points @ self.rotation.T + self.translation

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """Transform equal to applying ``other`` first, then ``self``."""
        return RigidTransform(self.rotation @ other.rotation,
                              self.rotation @ other.translation + self.translation)

    def inverse(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform(rt, -rt @ self.translation)


@dataclass
class ConvexShape:
    """Convex polyhedron given by its vertices plus per-face vertex index rings,
    with each face's table computed once when it is built: ``normals[i]``, the
    outward unit normal, ``supports[i]``, the plane offset (n . x = supports[i]
    on the face), and ``triangles[i]``, the (k, 3, 3) fan from the face's first
    vertex, with their ``areas[i]``.  The vertices are a read-only copy of the
    caller's, so the table cannot go stale; intersection tests only touch them.
    """

    vertices: np.ndarray
    faces: tuple = ()
    normals: np.ndarray = field(init=False, repr=False)
    supports: tuple = field(init=False, repr=False)
    triangles: tuple = field(init=False, repr=False)
    areas: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self.vertices = np.array(self.vertices, dtype=float).reshape(-1, 3)
        if len(self.vertices) < 4:
            raise ValueError("a solid needs at least 4 vertices")
        if not np.isfinite(self.vertices).all():
            raise ValueError("vertices must be finite")
        self.faces = tuple(tuple(int(i) for i in f) for f in self.faces)
        centroid = self.vertices.mean(axis=0)
        normals, supports, triangles, areas = [], [], [], []
        for face in self.faces:
            v = self.vertices[list(face)]
            n = np.cross(v[1] - v[0], v[2] - v[0])
            n = n / np.linalg.norm(n)
            if n @ (v.mean(axis=0) - centroid) < 0.0:
                n = -n
            fan = range(1, len(v) - 1)
            normals.append(n)
            supports.append(float(n @ v[0]))
            triangles.append(np.array([(v[0], v[k], v[k + 1]) for k in fan]))
            areas.append(np.array([0.5 * np.linalg.norm(np.cross(v[k] - v[0], v[k + 1] - v[0]))
                                   for k in fan]))
        self.normals = np.array(normals).reshape(-1, 3)
        self.supports, self.triangles, self.areas = tuple(supports), tuple(triangles), tuple(areas)
        for a in (self.vertices, self.normals, *self.triangles, *self.areas):
            a.setflags(write=False)


def box(extents, center=(0.0, 0.0, 0.0)) -> ConvexShape:
    """Axis-aligned box with full side lengths ``extents``."""
    ex, ey, ez = (0.5 * e for e in extents)
    cx, cy, cz = center
    verts = np.array([[sx * ex + cx, sy * ey + cy, sz * ez + cz]
                      for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
    # vertex order: index bit pattern (sx, sy, sz) with sz fastest
    faces = (
        (0, 1, 3, 2),  # -x
        (4, 6, 7, 5),  # +x
        (0, 4, 5, 1),  # -y
        (2, 3, 7, 6),  # +y
        (0, 2, 6, 4),  # -z
        (1, 5, 7, 3),  # +z
    )
    return ConvexShape(verts, faces)


def prism(radii: np.ndarray, height: float) -> ConvexShape:
    """Convex prism along z from a star-shaped polygon given by vertex radii.

    Vertex k of the cross-section sits at angle 2*pi*k/n.  With n radii this
    yields n lateral faces plus two caps.
    """
    n = len(radii)
    if n < 3:
        raise ValueError("need at least 3 radii")
    ang = 2.0 * np.pi * np.arange(n) / n
    bottom = np.stack([radii * np.cos(ang), radii * np.sin(ang),
                       np.full(n, -0.5 * height)], axis=1)
    top = bottom.copy()
    top[:, 2] = 0.5 * height
    verts = np.vstack([bottom, top])
    faces = []
    for k in range(n):
        j = (k + 1) % n
        faces.append((k, j, n + j, n + k))          # lateral, outward in xy
    faces.append(tuple(range(n - 1, -1, -1)))        # bottom cap (-z)
    faces.append(tuple(range(n, 2 * n)))             # top cap (+z)
    return ConvexShape(verts, tuple(faces))


def lateral_faces(shape: ConvexShape) -> list:
    """Indices of faces whose outward normal is perpendicular to z."""
    return [i for i, n in enumerate(shape.normals) if abs(n[2]) < 1e-9]
