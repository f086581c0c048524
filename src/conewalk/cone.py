"""Planar convex cones with vertex at the origin.

The cone is the open set between two boundary rays ``c1`` and ``c2`` whose
angle lies strictly inside ``(0, pi)``.  Membership is the intersection of
two open half planes: ``z`` is inside iff ``f1.z > 0`` and ``f2.z > 0``,
where ``f_i`` is the unit inward normal perpendicular to ``c_i``.  When the
ray directions are given as integer vectors, membership of lattice points
is decided in exact integer arithmetic; boundary-ray points count as
outside (the cone is open).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

#: Guard band for float membership of irrational cones.
FLOAT_MEMBERSHIP_BAND = 1e-12


class WhichBoundary(Enum):
    NONE = "none"
    H1 = "h1_violated"
    H2 = "h2_violated"
    BOTH = "both"


def _rot90(v: np.ndarray) -> np.ndarray:
    return np.array([-v[1], v[0]], dtype=v.dtype)


def _angle_between(u: np.ndarray, v: np.ndarray) -> float:
    """Unsigned angle between two plane vectors, in ``[0, pi]``."""
    return math.atan2(abs(u[0] * v[1] - u[1] * v[0]), float(u @ v))


@dataclass(frozen=True)
class ConeGeometry:
    """Boundary rays, inward normals, and membership predicates.

    ``exact_dirs`` holds the integer ray directions when available, in
    which case ``_w1``/``_w2`` are the (unnormalised) integer inward
    normals used for exact membership tests.
    """

    c1: np.ndarray
    c2: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    opening_angle: float
    exact_dirs: tuple[tuple[int, int], tuple[int, int]] | None
    _w1: tuple[int, int] | None = field(default=None, repr=False)
    _w2: tuple[int, int] | None = field(default=None, repr=False)

    @property
    def is_exact(self) -> bool:
        return self._w1 is not None

    def normal_ints(self, wall: int) -> tuple[int, int] | None:
        """Integer inward normal of the given wall, or None for float cones."""
        return self._w1 if wall == 1 else self._w2

    def normal(self, wall: int) -> np.ndarray:
        return self.f1 if wall == 1 else self.f2

    def ray(self, wall: int) -> np.ndarray:
        return self.c1 if wall == 1 else self.c2

    # -- membership --------------------------------------------------------

    def wall_dots(self, z) -> tuple[float, float]:
        """Signed distances ``(f1.z, f2.z)`` (exact integers scaled, if exact)."""
        if self._w1 is not None:
            x, y = int(z[0]), int(z[1])
            d1 = self._w1[0] * x + self._w1[1] * y
            d2 = self._w2[0] * x + self._w2[1] * y
            return float(d1), float(d2)
        v = np.asarray(z, dtype=float)
        return float(self.f1 @ v), float(self.f2 @ v)

    def contains(self, z) -> bool:
        """True iff ``z`` lies strictly inside the open cone."""
        d1, d2 = self.wall_dots(z)
        if self._w1 is not None:
            return d1 > 0 and d2 > 0
        band = FLOAT_MEMBERSHIP_BAND * (1.0 + max(abs(float(z[0])), abs(float(z[1]))))
        return d1 > band and d2 > band

    def wall_violations(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Masks of the points of an ``(n, 2)`` array that fail wall 1 and wall 2.

        A point fails a wall when it lies on or beyond it; for float cones,
        within the guard band counts as on it.  A point is outside the open
        cone exactly when it fails at least one wall.
        """
        pts = np.asarray(points)
        if self._w1 is not None:
            p = pts.astype(np.int64, copy=False)
            d1 = p[:, 0] * self._w1[0] + p[:, 1] * self._w1[1]
            d2 = p[:, 0] * self._w2[0] + p[:, 1] * self._w2[1]
            return d1 <= 0, d2 <= 0
        p = pts.astype(float)
        band = FLOAT_MEMBERSHIP_BAND * (1.0 + np.abs(p).max(axis=1))
        return p @ self.f1 <= band, p @ self.f2 <= band

    def contains_array(self, points: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`contains` over an ``(n, 2)`` integer array."""
        bad1, bad2 = self.wall_violations(points)
        return ~(bad1 | bad2)

    def which_boundary(self, z) -> WhichBoundary:
        """Report which half-plane constraints fail at ``z``."""
        bad1, bad2 = (bool(m[0]) for m in self.wall_violations(np.array([z])))
        if bad1 and bad2:
            return WhichBoundary.BOTH
        if bad1:
            return WhichBoundary.H1
        if bad2:
            return WhichBoundary.H2
        return WhichBoundary.NONE

    def direction_in_sector(self, q, tol: float = 0.0) -> bool:
        """True iff unit direction ``q`` lies in the closed sector of the cone."""
        v = np.asarray(q, dtype=float)
        return bool(self.f1 @ v >= -tol and self.f2 @ v >= -tol)

    def direction_strictly_inside(self, q, tol: float = 1e-8) -> bool:
        v = np.asarray(q, dtype=float)
        return bool(self.f1 @ v > tol and self.f2 @ v > tol)


def _build(c1: np.ndarray, c2: np.ndarray,
           exact: tuple[tuple[int, int], tuple[int, int]] | None) -> ConeGeometry:
    if abs(float(c1[0] * c2[1] - c1[1] * c2[0])) < 1e-14:
        raise ValueError("boundary rays are collinear; the opening angle "
                         "must lie strictly inside (0, pi)")
    f1 = _rot90(c1)
    if f1 @ c2 < 0:
        f1 = -f1
    f2 = _rot90(c2)
    if f2 @ c1 < 0:
        f2 = -f2
    w1 = w2 = None
    if exact is not None:
        d1, d2 = exact
        r1 = (-d1[1], d1[0])
        if r1[0] * d2[0] + r1[1] * d2[1] < 0:
            r1 = (d1[1], -d1[0])
        r2 = (-d2[1], d2[0])
        if r2[0] * d1[0] + r2[1] * d1[1] < 0:
            r2 = (d2[1], -d2[0])
        g1 = math.gcd(abs(r1[0]), abs(r1[1]))
        g2 = math.gcd(abs(r2[0]), abs(r2[1]))
        w1 = (r1[0] // g1, r1[1] // g1)
        w2 = (r2[0] // g2, r2[1] // g2)
    for v in (c1, c2, f1, f2):
        v.setflags(write=False)
    return ConeGeometry(c1=c1, c2=c2, f1=f1, f2=f2,
                        opening_angle=_angle_between(c1, c2),
                        exact_dirs=exact, _w1=w1, _w2=w2)


def build_cone(dir1, dir2) -> ConeGeometry:
    """Cone between the rays through integer directions ``dir1`` and ``dir2``.

    Raises ``ValueError`` for zero, collinear, or opposite directions.
    """
    d1 = (int(dir1[0]), int(dir1[1]))
    d2 = (int(dir2[0]), int(dir2[1]))
    if d1 == (0, 0) or d2 == (0, 0):
        raise ValueError("ray directions must be non-zero")
    c1 = np.array(d1, dtype=float)
    c2 = np.array(d2, dtype=float)
    c1 /= np.linalg.norm(c1)
    c2 /= np.linalg.norm(c2)
    return _build(c1, c2, exact=(d1, d2))


def build_cone_from_angles(deg1: float, deg2: float) -> ConeGeometry:
    """Cone between rays at the given angles in degrees (float membership)."""
    t1, t2 = math.radians(deg1), math.radians(deg2)
    c1 = np.array([math.cos(t1), math.sin(t1)])
    c2 = np.array([math.cos(t2), math.sin(t2)])
    return _build(c1, c2, exact=None)


def quadrant() -> ConeGeometry:
    """The open positive quadrant, rays through (0,1) and (1,0)."""
    return build_cone((0, 1), (1, 0))
