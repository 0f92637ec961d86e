"""Point-cloud integration.

Three strategies of increasing speed and decreasing exactness:

* simple -- exact voxel traversal per point; one miss per traversed cell,
  one hit per point.
* discrete -- endpoints deduplicated per leaf cell first; rays traced to
  cell centers, one hit per unique endpoint cell.
* fast_discrete -- free space cleared with coarse samples at depth d
  (stopping n coarse cells before the endpoint), refined one depth level
  at a time near the endpoint, ending with exact traversal at leaf depth.
  Coarse cells that contain the endpoint are never cleared, so space is
  never freed behind an endpoint.

Endpoints are hit-updated at leaf depth by all three methods, and all frees
of a scan are applied before its hits.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .core import OccupancyMap
from .geometry import MortonCode, TreeGeometry, VoxelKey
from .volumes import Aabb


@dataclass
class Scan:
    """Sensor origin plus measured points, with optional per-point RGB."""

    origin: np.ndarray
    points: np.ndarray
    colors: Optional[np.ndarray] = None

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float).reshape(3)
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if self.colors is not None:
            self.colors = np.asarray(self.colors).reshape(-1, 3)
            if len(self.colors) != len(self.points):
                raise ValueError(
                    f"colors length {len(self.colors)} != points length {len(self.points)}"
                )


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "discrete"  # simple | discrete | fast_discrete
    fast_n: int = 0
    fast_depth: int = 0
    region: Optional[Aabb] = None
    max_range: Optional[float] = None

    def __post_init__(self):
        if self.method not in ("simple", "discrete", "fast_discrete"):
            raise ValueError(f"unknown integrator method {self.method!r}")
        if self.fast_n < 0 or self.fast_depth < 0:
            raise ValueError("fast_n and fast_depth must be >= 0")


@dataclass(frozen=True)
class IntegrationResult:
    """Per-scan counts and phase times. ``points_nonfinite`` counts the
    points dropped for a NaN or infinite coordinate; ``inner_refreshed``
    counts the inner-node refreshes made by the scan's leaf updates and
    coarse writes."""

    rays_traced: int
    cells_freed: int
    cells_occupied: int
    raytrace_s: float = 0.0
    insert_s: float = 0.0
    points_nonfinite: int = 0
    inner_refreshed: int = 0


# -- ray primitives -------------------------------------------------------


def _grid_frame(geo: TreeGeometry, c, depth: int):
    res_d = geo.res_at(depth)
    h2 = (1 << (geo.depth_levels - 1)) >> depth
    return (c[0] / res_d + h2, c[1] / res_d + h2, c[2] / res_d + h2)


def _grid_cell(geo: TreeGeometry, c, depth: int):
    k = geo.coord_to_key(c, depth)
    return (k.kx >> depth, k.ky >> depth, k.kz >> depth)


def _trace_grid(geo: TreeGeometry, origin, end, depth: int):
    """Depth-``depth`` grid cells strictly between the endpoint cells."""
    u0 = _grid_frame(geo, origin, depth)
    u1 = _grid_frame(geo, end, depth)
    c0 = _grid_cell(geo, origin, depth)
    c1 = _grid_cell(geo, end, depth)
    return _kernels.trace_cells(u0[0], u0[1], u0[2], u1[0], u1[1], u1[2],
                                c0[0], c0[1], c0[2], c1[0], c1[1], c1[2])


def trace_ray_cells(origin, end, geo: TreeGeometry, depth: int = 0) -> list[VoxelKey]:
    """Exact voxel traversal: the ordered cells intersected by the open
    segment, excluding the cells containing the endpoints."""
    geo.check_inside(origin)
    geo.check_inside(end)
    if not (0 <= depth < geo.depth_levels):
        raise ValueError(f"depth {depth} outside [0, {geo.depth_levels})")
    cells = _trace_grid(geo, origin, end, depth)
    return [VoxelKey(int(x) << depth, int(y) << depth, int(z) << depth, depth)
            for x, y, z in cells]


def coarse_free_samples(origin, end, res_d: float, n: int) -> np.ndarray:
    """Evenly spaced free-space sample points from the origin toward the
    end, stopping ``n`` coarse steps short. Shape (M, 3); empty when the
    segment is shorter than n steps or degenerate."""
    if res_d <= 0.0:
        raise ValueError("res_d must be > 0")
    origin = np.asarray(origin, dtype=float)
    end = np.asarray(end, dtype=float)
    d = end - origin
    length = float(np.linalg.norm(d))
    if length == 0.0:
        return np.empty((0, 3))
    upper = math.floor(length / res_d) - n
    if upper < 0:
        return np.empty((0, 3))
    i = np.arange(upper + 1, dtype=float)
    return origin + i[:, None] * (res_d / length) * d


def clamp_ray_to_region(origin, end, box: Aabb):
    """Clip a segment to a box; None if the segment misses it. Endpoints
    already inside are returned unchanged."""
    origin = np.asarray(origin, dtype=float)
    end = np.asarray(end, dtype=float)
    d = end - origin
    t0, t1 = 0.0, 1.0
    for j in range(3):
        if d[j] == 0.0:
            if origin[j] < box.lo[j] or origin[j] > box.hi[j]:
                return None
        else:
            ta = (box.lo[j] - origin[j]) / d[j]
            tb = (box.hi[j] - origin[j]) / d[j]
            if ta > tb:
                ta, tb = tb, ta
            t0 = max(t0, ta)
            t1 = min(t1, tb)
            if t0 > t1:
                return None
    o2 = origin if t0 == 0.0 else origin + t0 * d
    e2 = end if t1 == 1.0 else origin + t1 * d
    return o2, e2


# -- integration ----------------------------------------------------------


def _extent_box(geo: TreeGeometry) -> Aabb:
    half = float(np.nextafter(geo.half_extent, 0.0))
    return Aabb((-half, -half, -half), (half, half, half))


def _clip_box(geo: TreeGeometry, region: Optional[Aabb]) -> Aabb:
    """The box rays are clipped to: the open extent, cut down to the
    region when one is set. Raises ValueError when the region misses the
    extent."""
    box = _extent_box(geo)
    if region is None:
        return box
    if not box.intersects_box(region.lo, region.hi):
        half = geo.half_extent
        raise ValueError(f"integration region {region.lo}..{region.hi} does not overlap "
                         f"the map extent ({-half}, {half}) on every axis")
    return Aabb.intersection(box, region)


def _is_ancestor(coarse: VoxelKey, leaf: VoxelKey) -> bool:
    d = coarse.depth
    return (coarse.kx >> d == leaf.kx >> d and coarse.ky >> d == leaf.ky >> d
            and coarse.kz >> d == leaf.kz >> d)


def _plan_ray(geo: TreeGeometry, origin, end, end_key: VoxelKey,
              fast_depth: int, fast_n: int, region: Optional[Aabb]):
    """Free-space plan for one ray: coarse overwrite keys (outer depths)
    plus exact leaf cells for the final stretch."""
    coarse: list[VoxelKey] = []
    start = np.asarray(origin, dtype=float)
    end = np.asarray(end, dtype=float)
    for depth in range(fast_depth, 0, -1):
        res_d = geo.res_at(depth)
        samples = coarse_free_samples(start, end, res_d, fast_n)
        if len(samples) == 0:
            continue
        prev = None
        for p in samples:
            key = geo.coord_to_key(p, depth)
            if key == prev:
                continue
            prev = key
            if _is_ancestor(key, end_key):
                continue  # never clear the endpoint's cell from a coarse write
            if region is not None:
                lo, hi = _cell_bounds(geo, key)
                if not region.contains_box(lo, hi):
                    continue
            coarse.append(key)
        # refine the last stretch at the next finer depth
        upper = len(samples) - 1
        d = end - start
        length = float(np.linalg.norm(d))
        start = start + (max(0, upper - 1) * res_d / length) * d
    leaf_cells = _trace_grid(geo, start, end, 0)
    return coarse, leaf_cells


def _cell_bounds(geo: TreeGeometry, key: VoxelKey):
    bias = 1 << (geo.depth_levels - 1)
    res = geo.resolution
    side = geo.res_at(key.depth)
    lo = ((key.kx - bias) * res, (key.ky - bias) * res, (key.kz - bias) * res)
    return lo, (lo[0] + side, lo[1] + side, lo[2] + side)


def integrate(map_: OccupancyMap, scan: Scan, config: IntegratorConfig) -> IntegrationResult:
    """Fuse one scan into the map. Points with a NaN or infinite
    coordinate are dropped and counted. Raises OutOfExtentError if the scan
    origin is outside the mapped extent (or not finite), and ValueError on
    malformed scans or a region that does not overlap the extent."""
    geo = map_.geometry
    geo.check_inside(scan.origin)
    cfg = map_.config

    extent = _extent_box(geo)
    clip_box = _clip_box(geo, config.region)

    t0 = time.perf_counter()

    # per-point clipping: extent always, user region when configured;
    # truncated or clipped endpoints clear free space but are not hits
    finite = np.isfinite(scan.points).all(axis=1)
    rays = []  # (o, e, hit, color)
    for i in np.flatnonzero(finite):
        end = scan.points[i]
        hit = True
        if config.max_range is not None:
            r = float(np.linalg.norm(end - scan.origin))
            if r > config.max_range:
                end = scan.origin + (end - scan.origin) * (config.max_range / r)
                hit = False
        clipped = clamp_ray_to_region(scan.origin, end, clip_box)
        if clipped is None:
            continue
        o2, e2 = clipped
        # a clipped point, origin + t * d, can round onto the extent's half
        # width; clamping it back is a no-op for points inside the extent
        if not np.array_equal(e2, end):
            hit = False
            e2 = np.clip(e2, extent.lo, extent.hi)
        if config.region is not None:
            o2 = np.clip(o2, extent.lo, extent.hi)
        color = scan.colors[i] if scan.colors is not None else None
        rays.append((o2, e2, hit, color))

    # free space: the leaf cells each ray misses, and coarse writes as
    # (ray index, key), each applied before the leaf cells of that ray
    ray_cells: list[np.ndarray] = []
    coarse_writes: list[tuple[int, VoxelKey]] = []
    hit_codes: list[int] = []
    hit_colors: list = []

    if config.method == "simple":
        for o2, e2, hit, color in rays:
            ray_cells.append(_trace_grid(geo, o2, e2, 0))
            if hit:
                k = geo.coord_to_key(e2, 0)
                hit_codes.append(_kernels.morton_encode(k.kx, k.ky, k.kz))
                hit_colors.append(color)
    else:
        fast_depth = config.fast_depth if config.method == "fast_discrete" else 0
        fast_n = config.fast_n if config.method == "fast_discrete" else 0
        if fast_depth >= geo.depth_levels:
            raise ValueError("fast_depth must be below depth_levels")
        # discretize endpoints: one ray per unique leaf cell, first point wins
        unique: dict[VoxelKey, list] = {}
        for o2, e2, hit, color in rays:
            key = geo.coord_to_key(e2, 0)
            entry = unique.get(key)
            if entry is None:
                unique[key] = [o2, hit, color]
            elif hit and not entry[1]:
                entry[1] = True
        for key, (o2, hit, color) in unique.items():
            center = geo.key_to_coord(key)
            coarse, leaf_cells = _plan_ray(geo, o2, center, key, fast_depth,
                                           fast_n, config.region)
            coarse_writes.extend((len(ray_cells), ck) for ck in coarse)
            ray_cells.append(leaf_cells)
            if hit:
                hit_codes.append(_kernels.morton_encode(key.kx, key.ky, key.kz))
                hit_colors.append(color)

    cells = np.concatenate(ray_cells) if ray_cells else np.empty((0, 3), dtype=np.int64)
    miss_codes = _kernels.morton_encode_batch(cells[:, 0], cells[:, 1], cells[:, 2]).tolist()
    ray_start = np.cumsum([0] + [len(c) for c in ray_cells]).tolist()

    t1 = time.perf_counter()

    # misses between two coarse writes form one batch, so every coarse
    # write sees a fully propagated tree and keeps its place among the misses
    refreshes_before = map_.inner_refreshes
    coarse_value = cfg.prior_log_odds + cfg.log_miss
    done = 0
    for ray, key in coarse_writes:
        if ray_start[ray] > done:
            map_.update_occupancy(miss_codes[done:ray_start[ray]], cfg.log_miss)
            done = ray_start[ray]
        code = _kernels.morton_encode(key.kx, key.ky, key.kz)
        map_.set_coarse(MortonCode(code, key.depth), coarse_value)
    if len(miss_codes) > done:
        map_.update_occupancy(miss_codes[done:], cfg.log_miss)
    if hit_codes:
        map_.update_occupancy(hit_codes, cfg.log_hit, hit_colors)

    t2 = time.perf_counter()
    return IntegrationResult(len(ray_cells), len(miss_codes) + len(coarse_writes),
                             len(hit_codes), raytrace_s=t1 - t0, insert_s=t2 - t1,
                             points_nonfinite=len(finite) - int(finite.sum()),
                             inner_refreshed=map_.inner_refreshes - refreshes_before)
