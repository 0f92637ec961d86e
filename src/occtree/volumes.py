"""Bounding volumes used by iteration, collision checks, and info gain.

Cells are treated as closed boxes: boundary touch counts as intersection.
The frustum is an angular sector (field-of-view wedge between a min and max
range), not a 6-plane perspective frustum; its box test is conservative
(may report intersection for near-miss boxes, never misses a true one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Aabb:
    lo: tuple[float, float, float]
    hi: tuple[float, float, float]

    def __post_init__(self):
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


@dataclass(frozen=True)
class Sphere:
    center: tuple[float, float, float]
    radius: float

    def __post_init__(self):
        if not (self.radius > 0.0):
            raise ValueError("radius must be > 0")

    def intersects_box(self, lo, hi) -> bool:
        d2 = 0.0
        for j in range(3):
            c = self.center[j]
            if c < lo[j]:
                d2 += (lo[j] - c) ** 2
            elif c > hi[j]:
                d2 += (c - hi[j]) ** 2
        return d2 <= self.radius * self.radius

    def contains_point(self, p) -> bool:
        return sum((p[j] - self.center[j]) ** 2 for j in range(3)) <= self.radius ** 2


def _as_rotation(rotation) -> np.ndarray:
    r = np.eye(3) if rotation is None else np.asarray(rotation, dtype=float)
    if r.shape != (3, 3):
        raise ValueError("rotation must be a 3x3 matrix")
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
        d = self.rotation.T @ (np.asarray(p, dtype=float) - self.position)
        r = float(np.linalg.norm(d))
        if r < self.near or r > self.far:
            return False
        if r == 0.0:
            return True
        az = math.atan2(d[1], d[0])
        el = math.atan2(d[2], math.hypot(d[0], d[1]))
        return abs(az) <= self.h_fov / 2.0 and abs(el) <= self.v_fov / 2.0

    def contains_points(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized membership for an (N, 3) array of points."""
        d = (np.asarray(pts, dtype=float) - self.position) @ self.rotation
        r = np.linalg.norm(d, axis=1)
        az = np.arctan2(d[:, 1], d[:, 0])
        el = np.arctan2(d[:, 2], np.hypot(d[:, 0], d[:, 1]))
        ok = (r >= self.near) & (r <= self.far)
        ok &= np.abs(az) <= self.h_fov / 2.0
        ok &= np.abs(el) <= self.v_fov / 2.0
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
        if not (0.0 <= self.r_min < self.r_max):
            raise ValueError("need 0 <= r_min < r_max")

    def frustum(self) -> Frustum:
        return Frustum(self.position, self.rotation, self.h_fov, self.v_fov,
                       self.r_min, self.r_max)
