"""Bounding volumes used by iteration, collision checks, and info gain.

Cells are treated as closed boxes: boundary touch counts as intersection.
The frustum is an angular sector (field-of-view wedge between a min and max
range), not a 6-plane perspective frustum; its box test is conservative
(may report intersection for near-miss boxes, never misses a true one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Aabb:
    lo: tuple[float, float, float]
    hi: tuple[float, float, float]

    def __post_init__(self):
        for name, bound in (("lo", self.lo), ("hi", self.hi)):
            if any(math.isnan(v) for v in bound):
                raise ValueError(f"Aabb {name} must not be NaN, got {bound}")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise ValueError("box min must be <= max per axis")

    def intersects_box(self, lo, hi) -> bool:
        return all(self.lo[j] <= hi[j] and lo[j] <= self.hi[j] for j in range(3))

    def contains_point(self, p) -> bool:
        return all(self.lo[j] <= p[j] <= self.hi[j] for j in range(3))

    def contains_box(self, lo, hi) -> bool:
        return all(self.lo[j] <= lo[j] and hi[j] <= self.hi[j] for j in range(3))

    @staticmethod
    def intersection(a: "Aabb", b: "Aabb") -> "Aabb":
        lo = tuple(max(a.lo[j], b.lo[j]) for j in range(3))
        hi = tuple(min(a.hi[j], b.hi[j]) for j in range(3))
        if any(l > h for l, h in zip(lo, hi)):
            raise ValueError("boxes do not overlap")
        return Aabb(lo, hi)


# values below this in magnitude have differences whose squares, and sums
# of three such squares, stay finite
_SQUARE_SAFE = 2.0 ** 509


def _square_scale(m: float) -> float:
    """1.0 when values up to ``m`` in magnitude can be subtracted, squared
    and summed in threes without overflow; otherwise the power of two that
    brings ``m`` down to about 2**500. Scaling by a power of two is exact
    unless a value underflows, so a comparison of scaled squares answers as
    the unscaled one would with unbounded exponents."""
    if m < _SQUARE_SAFE or m == math.inf:
        return 1.0
    return math.ldexp(1.0, 500 - math.frexp(m)[1])


def _box_gap2(center, lo, hi) -> float:
    """Squared distance from the point ``center`` to the closed box."""
    d2 = 0.0
    for j in range(3):
        c = center[j]
        if c < lo[j]:
            d2 += (lo[j] - c) ** 2
        elif c > hi[j]:
            d2 += (c - hi[j]) ** 2
    return d2


@dataclass(frozen=True)
class Sphere:
    center: tuple[float, float, float]
    radius: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in self.center):
            raise ValueError(f"Sphere center must be finite, got {self.center}")
        if not (0.0 < self.radius < math.inf):
            raise ValueError(f"Sphere radius must be finite and > 0, got {self.radius}")
        # plain floats for the box tests: a NumPy scalar's square overflows
        # to inf with a warning, where a float's raises OverflowError
        object.__setattr__(self, "center", tuple(float(v) for v in self.center))
        object.__setattr__(self, "radius", float(self.radius))

    def intersects_box(self, lo, hi) -> bool:
        center, r = self.center, self.radius
        try:
            d2 = _box_gap2(center, lo, hi)
        except OverflowError:
            d2 = math.inf
        if d2 == math.inf or r * r == math.inf:
            # a square overflowed: test again with every value scaled down
            s = _square_scale(max(abs(v) for v in (*center, r, *lo, *hi) if abs(v) < math.inf))
            center, r = [v * s for v in center], r * s
            d2 = _box_gap2(center, [v * s for v in lo], [v * s for v in hi])
        return d2 <= r * r

    def contains_point(self, p) -> bool:
        return self.intersects_box(p, p)


# largest ||R^T R - I|| (Frobenius) a rotation matrix may have
_ORTHONORMAL_TOL = 1e-9


def _as_rotation(rotation) -> np.ndarray:
    """The rotation as a float 3x3 array: finite and orthonormal, so that
    its first column, the view axis, is a unit vector."""
    r = np.eye(3) if rotation is None else np.asarray(rotation, dtype=float)
    if r.shape != (3, 3):
        raise ValueError("rotation must be a 3x3 matrix")
    cols = r.T.tolist()
    if not all(math.isfinite(v) for col in cols for v in col):
        raise ValueError(f"rotation must be finite, got {r.tolist()}")
    # ||R^T R - I||^2 from the column dot products, in plain floats: a
    # product too large for a float is inf, which fails the test below
    err = 0.0
    for i, a in enumerate(cols):
        for j, b in enumerate(cols):
            e = a[0] * b[0] + a[1] * b[1] + a[2] * b[2] - (i == j)
            err += e * e
    if not math.sqrt(err) <= _ORTHONORMAL_TOL:
        raise ValueError(f"rotation must be orthonormal, got {r.tolist()}")
    return r


def yaw_rotation(yaw: float) -> np.ndarray:
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class Frustum:
    """Angular sector: +x axis of the sensor frame is the view direction,
    azimuth within +-h_fov/2, elevation within +-v_fov/2, range in
    [near, far]."""

    def __init__(self, position, rotation, h_fov: float, v_fov: float,
                 near: float, far: float):
        if not (0.0 < h_fov < math.pi and 0.0 < v_fov < math.pi):
            raise ValueError("fov angles must be in (0, pi)")
        if not (0.0 <= near < far):
            raise ValueError("need 0 <= near < far")
        self.position = np.asarray(position, dtype=float)
        self.rotation = _as_rotation(rotation)
        self.h_fov = h_fov
        self.v_fov = v_fov
        self.near = near
        self.far = far
        # half-angle of the bounding cone through the sector corners
        ca = math.cos(h_fov / 2.0) * math.cos(v_fov / 2.0)
        self._cone_half_angle = math.acos(max(-1.0, min(1.0, ca)))
        # plain floats for the per-node box test
        self._pos = tuple(self.position.tolist())
        self._axis = tuple(self.rotation[:, 0].tolist())

    def contains_point(self, p) -> bool:
        return bool(self.contains_points(np.reshape(p, (1, 3)))[0])

    def contains_points(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized membership for an (N, 3) array of points."""
        d = (np.asarray(pts, dtype=float) - self.position) @ self.rotation
        r = np.linalg.norm(d, axis=1)
        az = np.arctan2(d[:, 1], d[:, 0])
        el = np.arctan2(d[:, 2], np.hypot(d[:, 0], d[:, 1]))
        ok = (r >= self.near) & (r <= self.far)
        ok &= np.abs(az) <= self.h_fov / 2.0
        ok &= np.abs(el) <= self.v_fov / 2.0
        if self.near == 0.0:  # the apex, whose angles are undefined
            ok |= r == 0.0
        return ok

    def intersects_box(self, lo, hi) -> bool:
        px, py, pz = self._pos
        lx, ly, lz = lo
        hx, hy, hz = hi
        # distance from the sensor to the box's closest point and farthest corner
        cx = lx - px if px < lx else hx - px if px > hx else 0.0
        cy = ly - py if py < ly else hy - py if py > hy else 0.0
        cz = lz - pz if pz < lz else hz - pz if pz > hz else 0.0
        d_min = math.sqrt(cx * cx + cy * cy + cz * cz)
        fx = px - lx if px - lx >= hx - px else hx - px
        fy = py - ly if py - ly >= hy - py else hy - py
        fz = pz - lz if pz - lz >= hz - pz else hz - pz
        d_max = math.sqrt(fx * fx + fy * fy + fz * fz)
        if d_min > self.far or d_max < self.near:
            return False
        if d_min == 0.0:
            return True
        # the box's bounding sphere against the bounding cone of the sector
        ex, ey, ez = (hx - lx) / 2.0, (hy - ly) / 2.0, (hz - lz) / 2.0
        half_diag = math.sqrt(ex * ex + ey * ey + ez * ez)
        vx, vy, vz = (lx + hx) / 2.0 - px, (ly + hy) / 2.0 - py, (lz + hz) / 2.0 - pz
        dist = math.sqrt(vx * vx + vy * vy + vz * vz)
        if dist <= half_diag:
            return True
        ax, ay, az = self._axis
        along = ax * vx + ay * vy + az * vz
        ang = math.acos(max(-1.0, min(1.0, along / dist)))
        return ang - math.asin(min(1.0, half_diag / dist)) <= self._cone_half_angle


@dataclass(frozen=True)
class SensorModel:
    """Range sensor pose plus field of view, for information-gain queries."""

    position: tuple[float, float, float]
    rotation: object = None  # 3x3 matrix; None = identity (+x view direction)
    h_fov: float = math.radians(115.0)
    v_fov: float = math.radians(60.0)
    r_min: float = 0.0
    r_max: float = 6.5

    def __post_init__(self):
        if not all(math.isfinite(v) for v in self.position):
            raise ValueError(f"SensorModel position must be finite, got {self.position}")
        if not (0.0 <= self.r_min < self.r_max < math.inf):
            raise ValueError(f"need 0 <= r_min < r_max < inf, got r_min={self.r_min}, "
                             f"r_max={self.r_max}")
        _as_rotation(self.rotation)

    def frustum(self) -> Frustum:
        return Frustum(self.position, self.rotation, self.h_fov, self.v_fov,
                       self.r_min, self.r_max)
