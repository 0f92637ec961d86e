"""Hierarchical filtered iteration, collision checks, and information gain.

All operations are read-only. Traversals never descend past a node whose
children are all identical (the all-same indicator), so they stay safe to
run concurrently with a writer while automatic pruning is disabled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import _kernels
from .core import Node, NodeState, NodeView, OccupancyMap, probability
from .geometry import TreeGeometry, VoxelKey
from .integrate import _grid_cell, _grid_frame, _trace_grid
from .volumes import Aabb, Frustum, SensorModel, Sphere


@dataclass(frozen=True)
class StateFilter:
    """Which node kinds an iteration yields. State flags select leaves and
    pruned inner-leaves; contains flags additionally select inner nodes via
    their indicators."""

    occupied: bool = False
    free: bool = False
    unknown: bool = False
    contains_occupied: bool = False
    contains_free: bool = False
    contains_unknown: bool = False

    def __post_init__(self):
        if not any((self.occupied, self.free, self.unknown, self.contains_occupied,
                    self.contains_free, self.contains_unknown)):
            raise ValueError("at least one filter flag must be set")

    @classmethod
    def all_states(cls) -> "StateFilter":
        return cls(occupied=True, free=True, unknown=True)


def _cell_box(geo: TreeGeometry, kx: int, ky: int, kz: int, depth: int):
    bias = 1 << (geo.depth_levels - 1)
    res = geo.resolution
    side = geo.res_at(depth)
    lo = ((kx - bias) * res, (ky - bias) * res, (kz - bias) * res)
    return lo, (lo[0] + side, lo[1] + side, lo[2] + side)


def iterate_region(map_: OccupancyMap, volume, flt: StateFilter,
                   min_depth: int = 0) -> Iterator[NodeView]:
    """Yield matching nodes intersecting the volume, in Morton order.
    Branches that cannot contain a match are skipped via the indicators.
    Nodes at ``min_depth`` are reported as coarse leaves (max-occupancy
    state)."""
    geo = map_.geometry
    if not (0 <= min_depth <= geo.depth_levels):
        raise ValueError(f"min_depth {min_depth} outside [0, {geo.depth_levels}]")
    yield from _iterate(map_, map_.root, geo.depth_levels, 0, 0, 0, volume,
                        flt, min_depth)


def _node_view(map_: OccupancyMap, node: Node, kx: int, ky: int, kz: int,
               depth: int) -> NodeView:
    code = _kernels.morton_encode(kx, ky, kz)
    return map_._view(node, code, depth)


def _iterate(map_: OccupancyMap, node: Node, depth: int, kx: int, ky: int,
             kz: int, volume, flt: StateFilter, min_depth: int):
    geo = map_.geometry
    lo, hi = _cell_box(geo, kx, ky, kz, depth)
    if not volume.intersects_box(lo, hi):
        return
    st = map_.state_of(node.value)
    leaf_like = node.children is None or node.all_same
    if leaf_like or depth == min_depth:
        match = ((flt.occupied and st is NodeState.OCCUPIED)
                 or (flt.free and st is NodeState.FREE)
                 or (flt.unknown and st is NodeState.UNKNOWN))
        if not match:
            if node.children is not None and not node.all_same:
                match = ((flt.contains_occupied and st is NodeState.OCCUPIED)
                         or (flt.contains_free and node.contains_free)
                         or (flt.contains_unknown and node.contains_unknown))
            else:
                match = ((flt.contains_occupied and st is NodeState.OCCUPIED)
                         or (flt.contains_free and st is NodeState.FREE)
                         or (flt.contains_unknown and st is NodeState.UNKNOWN))
        if match:
            yield _node_view(map_, node, kx, ky, kz, depth)
        return
    if ((flt.contains_occupied and st is NodeState.OCCUPIED)
            or (flt.contains_free and node.contains_free)
            or (flt.contains_unknown and node.contains_unknown)):
        yield _node_view(map_, node, kx, ky, kz, depth)
    can_match = (((flt.occupied or flt.contains_occupied) and st is NodeState.OCCUPIED)
                 or ((flt.free or flt.contains_free) and node.contains_free)
                 or ((flt.unknown or flt.contains_unknown) and node.contains_unknown))
    if not can_match:
        return
    if node.all_same:  # instrumentation: readers must never get here
        map_.reader_allsame_descents += 1
    half = 1 << (depth - 1)
    for i, child in enumerate(node.children):
        yield from _iterate(map_, child, depth - 1,
                            kx + (i & 1) * half,
                            ky + ((i >> 1) & 1) * half,
                            kz + ((i >> 2) & 1) * half,
                            volume, flt, min_depth)


# -- collision checks -----------------------------------------------------


def region_collision(map_: OccupancyMap, sphere: Sphere,
                     mode: str = "conservative") -> bool:
    """True if the sphere overlaps occupied space (occupied_only) or
    occupied-or-unknown space (conservative). Hierarchical with early exit
    on the first witness."""
    occupied_only = _collision_mode(mode)
    return _region_collide(map_, map_.root, map_.geometry.depth_levels,
                           0, 0, 0, sphere, occupied_only)


def _collision_mode(mode: str) -> bool:
    if mode not in ("conservative", "occupied_only"):
        raise ValueError(f"unknown collision mode {mode!r}")
    return mode == "occupied_only"


def _region_collide(map_, node, depth, kx, ky, kz, sphere, occupied_only):
    lo, hi = _cell_box(map_.geometry, kx, ky, kz, depth)
    if not sphere.intersects_box(lo, hi):
        return False
    st = map_.state_of(node.value)
    if node.children is None or node.all_same:
        return st is NodeState.OCCUPIED or (not occupied_only and st is NodeState.UNKNOWN)
    if occupied_only:
        if st is not NodeState.OCCUPIED:
            return False
    elif st is not NodeState.OCCUPIED and not node.contains_unknown:
        return False
    half = 1 << (depth - 1)
    return any(
        _region_collide(map_, child, depth - 1, kx + (i & 1) * half,
                        ky + ((i >> 1) & 1) * half, kz + ((i >> 2) & 1) * half,
                        sphere, occupied_only)
        for i, child in enumerate(node.children))


def line_collision(map_: OccupancyMap, p0, p1, mode: str = "conservative") -> bool:
    """True if any cell the closed segment passes through is occupied
    (occupied_only) or occupied-or-unknown (conservative). A uniform
    subtree is crossed in one step."""
    occupied_only = _collision_mode(mode)
    geo = map_.geometry
    geo.check_inside(p0)
    geo.check_inside(p1)
    cells = [_grid_cell(geo, p0, 0)]
    cells.extend((int(x), int(y), int(z)) for x, y, z in _trace_grid(geo, p0, p1, 0))
    cells.append(_grid_cell(geo, p1, 0))
    safe_prefix = -1
    safe_shift = 0
    for cx, cy, cz in cells:
        code = _kernels.morton_encode(cx, cy, cz)
        if safe_prefix >= 0 and (code >> safe_shift) == safe_prefix:
            continue  # still inside a known-safe uniform subtree
        node, reached = map_._descend(code, 0)
        st = map_.state_of(node.value)
        if st is NodeState.OCCUPIED or (not occupied_only and st is NodeState.UNKNOWN):
            return True
        if reached > 0:
            safe_shift = 3 * reached
            safe_prefix = code >> safe_shift
    return False


# -- information gain -----------------------------------------------------


def info_gain(map_: OccupancyMap, sensor: SensorModel, variant: str = "exact") -> int:
    """Number of unknown leaf cells visible (in the sensor's field of view
    and range, not occluded by occupied space) from the sensor pose.

    One call tests the frustum membership of its candidate leaf centres
    once, vectorized (per x-slice for ``flat``; otherwise per depth, in
    blocks of about ``_PASS_LEAVES`` centres), and looks each distinct grid
    cell its occlusion rays cross up in the tree once per depth."""
    if variant not in ("flat", "exact", "fast"):
        raise ValueError(f"unknown info_gain variant {variant!r}")
    map_.geometry.check_inside(sensor.position)
    fr = sensor.frustum()
    rays = _OcclusionRays(map_, tuple(fr.position.tolist()))
    if variant == "flat":
        return _gain_flat(map_, fr, rays)
    return _gain_hier(map_, fr, rays, fast=variant == "fast")


class _OcclusionRays:
    """Occlusion rays of one gain query. Remembers, per depth, whether each
    grid cell a ray crossed is occupied, so the rays of one pose, which
    cross the same cells near the sensor again and again, encode and look
    up each distinct cell once. Within one query every cell is therefore
    seen as it was first read, even while a writer runs."""

    def __init__(self, map_: OccupancyMap, origin):
        self.map = map_
        self.origin = origin
        self.occupied: dict[int, dict] = {}  # depth -> {grid cell: occupied}
        self.starts: dict[int, tuple] = {}  # depth -> origin in grid frame, origin cell

    def blocked(self, target, depth: int) -> bool:
        """Occupied cell strictly before the target along the
        depth-``depth`` traversal from the sensor (``_trace_grid``'s cells)."""
        map_ = self.map
        geo = map_.geometry
        start = self.starts.get(depth)
        if start is None:
            start = self.starts[depth] = (*_grid_frame(geo, self.origin, depth),
                                          *_grid_cell(geo, self.origin, depth))
        ox, oy, oz, cx, cy, cz = start
        ex, ey, ez = _grid_frame(geo, target, depth)
        tx, ty, tz = _grid_cell(geo, target, depth)
        seen = self.occupied.setdefault(depth, {})
        for cell in _kernels.trace_cells(ox, oy, oz, ex, ey, ez,
                                         cx, cy, cz, tx, ty, tz).tolist():
            cell = tuple(cell)
            occ = seen.get(cell)
            if occ is None:
                x, y, z = cell
                code = _kernels.morton_encode(x << depth, y << depth, z << depth)
                node, _ = map_._descend(code, depth)
                occ = seen[cell] = map_.state_of(node.value) is NodeState.OCCUPIED
            if occ:
                return True
        return False


def _gain_flat(map_: OccupancyMap, fr: Frustum, rays: _OcclusionRays) -> int:
    geo = map_.geometry
    pos = fr.position
    bias = 1 << (geo.depth_levels - 1)
    res = geo.resolution
    n_cells = 1 << geo.depth_levels
    lo_idx = np.maximum(np.floor((pos - fr.far) / res).astype(int) + bias, 0)
    hi_idx = np.minimum(np.floor((pos + fr.far) / res).astype(int) + bias, n_cells - 1)
    gy, gz = np.meshgrid(np.arange(lo_idx[1], hi_idx[1] + 1),
                         np.arange(lo_idx[2], hi_idx[2] + 1), indexing="ij")
    gy, gz = gy.ravel(), gz.ravel()
    cy = (gy - bias) * res + res / 2.0
    cz = (gz - bias) * res + res / 2.0
    total = 0
    for kx in range(lo_idx[0], hi_idx[0] + 1):
        centers = np.stack([np.full(gy.size, (kx - bias) * res + res / 2.0), cy, cz], axis=1)
        inside = fr.contains_points(centers)
        ys, zs = gy[inside], gz[inside]
        codes = _kernels.morton_encode_batch(np.full(ys.size, kx), ys, zs).tolist()
        for code, center in zip(codes, centers[inside].tolist()):
            node, _ = map_._descend(code, 0)
            if map_.state_of(node.value) is not NodeState.UNKNOWN:
                continue
            if not rays.blocked(center, 0):
                total += 1
    return total


def _unknown_nodes(map_: OccupancyMap, volume) -> dict[int, list]:
    """Unknown leaves and uniform unknown subtrees whose cells pass the
    volume's box test, as (kx, ky, kz) keys grouped by node depth."""
    geo = map_.geometry
    state_of = map_.state_of
    found: dict[int, list] = {}
    stack = [(map_.root, geo.depth_levels, 0, 0, 0)]
    while stack:
        node, depth, kx, ky, kz = stack.pop()
        lo, hi = _cell_box(geo, kx, ky, kz, depth)
        if not volume.intersects_box(lo, hi):
            continue
        if node.children is None or node.all_same:
            if state_of(node.value) is NodeState.UNKNOWN:
                found.setdefault(depth, []).append((kx, ky, kz))
            continue
        if not node.contains_unknown:
            continue
        half = 1 << (depth - 1)
        for i, child in enumerate(node.children):
            stack.append((child, depth - 1, kx + (i & 1) * half,
                          ky + ((i >> 1) & 1) * half, kz + ((i >> 2) & 1) * half))
    return found


# leaf centres per frustum membership pass, unless one node has more
_PASS_LEAVES = 4096


def _gain_hier(map_: OccupancyMap, fr: Frustum, rays: _OcclusionRays, fast: bool) -> int:
    """Unknown nodes the frustum's box test admits, each weighted by its
    leaf centres inside the frustum. ``fast`` scores a node's full weight
    when its first visible leaf (x-major order) is visible; exact recurses
    into a node whose centre is occluded."""
    geo = map_.geometry
    bias = 1 << (geo.depth_levels - 1)
    res = geo.resolution
    total = 0
    for depth, keys in _unknown_nodes(map_, fr).items():
        n = 1 << depth
        # a node's leaf offsets, x-major, less the key bias
        rel = np.ascontiguousarray(np.indices((n, n, n)).reshape(3, -1).T) - bias
        per_pass = max(1, _PASS_LEAVES >> (3 * depth))
        for start in range(0, len(keys), per_pass):
            block = np.array(keys[start:start + per_pass], dtype=np.int64)
            centers = (block[:, None, :] + rel) * res + res / 2.0
            inside = fr.contains_points(centers.reshape(-1, 3)).reshape(len(block), n, n, n)
            weights = np.count_nonzero(inside, axis=(1, 2, 3)).tolist()
            for j in np.flatnonzero(weights).tolist():
                if fast:
                    for center in centers[j][inside[j].ravel()].tolist():
                        if not rays.blocked(center, 0):
                            total += weights[j]
                            break
                else:
                    kx, ky, kz = block[j].tolist()
                    total += _gain_exact_node(geo, rays, kx, ky, kz, depth, inside[j])
    return total


def _gain_exact_node(geo: TreeGeometry, rays: _OcclusionRays, kx: int, ky: int,
                     kz: int, depth: int, inside: np.ndarray) -> int:
    """Visible weight of one node; ``inside`` is the frustum membership of
    its leaf centres, indexed by leaf offset (x, y, z)."""
    weight = int(np.count_nonzero(inside))
    if weight == 0:
        return 0
    bias = 1 << (geo.depth_levels - 1)
    res = geo.resolution
    side = geo.res_at(depth)
    center = ((kx - bias) * res + side / 2.0, (ky - bias) * res + side / 2.0,
              (kz - bias) * res + side / 2.0)
    if not rays.blocked(center, depth):
        return weight
    if depth == 0:
        return 0
    half = 1 << (depth - 1)
    total = 0
    for i in range(8):
        ox, oy, oz = (i & 1) * half, ((i >> 1) & 1) * half, ((i >> 2) & 1) * half
        total += _gain_exact_node(geo, rays, kx + ox, ky + oy, kz + oz, depth - 1,
                                  inside[ox:ox + half, oy:oy + half, oz:oz + half])
    return total
