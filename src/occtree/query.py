"""Hierarchical filtered iteration, collision checks, and information gain.

All operations are read-only. Traversals never descend past a node whose
children are all identical (the all-same indicator), so they stay safe to
run concurrently with a writer while automatic pruning is disabled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ._kernels import _walk_setup
from .core import NodeView, OccupancyMap
from .geometry import TreeGeometry, _cell_box
from .integrate import _grid_cell, _grid_frame
from .volumes import _SQUARE_SAFE, Frustum, SensorModel, Sphere, _square_scale


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


def iterate_region(map_: OccupancyMap, volume, flt: StateFilter,
                   min_depth: int = 0) -> Iterator[NodeView]:
    """Yield matching nodes intersecting the volume, in Morton order
    (preorder: a node before its children). Branches that cannot contain a
    match are skipped via the indicators. Nodes at ``min_depth`` are
    reported as coarse leaves (max-occupancy state)."""
    geo = map_.geometry
    if not (0 <= min_depth <= geo.depth_levels):
        raise ValueError(f"min_depth {min_depth} outside [0, {geo.depth_levels}]")
    lo_occ, lo_free = map_._lo_occ, map_._lo_free
    # filter flags as bits: 1 occupied, 2 free, 4 unknown
    states = flt.occupied | flt.free << 1 | flt.unknown << 2
    contains = flt.contains_occupied | flt.contains_free << 1 | flt.contains_unknown << 2
    stack = [(map_.root, geo.depth_levels, 0, 0, 0, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        node, depth, kx, ky, kz, code = pop()
        if not volume.intersects_box(*_cell_box(geo, kx, ky, kz, depth)):
            continue
        v = node.value
        state = 1 if v > lo_occ else 2 if v < lo_free else 4
        children = node.children
        uniform = children is None or node.all_same
        # what the node holds: its state, or for an inner node whose
        # children differ what its subtree holds, by value and indicators
        holds = state if uniform else ((v > lo_occ) | node.contains_free << 1
                                       | node.contains_unknown << 2)
        end = uniform or depth == min_depth
        if holds & contains or (end and state & states):
            yield map_._view(node, code, depth)
        if end or not holds & (states | contains):
            continue
        if node.all_same:  # instrumentation: readers must never get here
            map_.reader_allsame_descents += 1
        depth -= 1
        half = 1 << depth
        for i in range(7, -1, -1):
            push((children[i], depth, kx + (i & 1) * half, ky + (i >> 1 & 1) * half,
                  kz + (i >> 2 & 1) * half, code | i << 3 * depth))


# -- collision checks -----------------------------------------------------


def region_collision(map_: OccupancyMap, sphere: Sphere,
                     mode: str = "conservative") -> bool:
    """True if the sphere overlaps occupied space (occupied_only) or
    occupied-or-unknown space (conservative), with early exit on the first
    witness.

    The walk starts at the deepest node whose cell holds the sphere's
    bounding box in leaf keys widened by one leaf (the root if that box
    reaches the edge of the extent). Every node on the way there holds the
    centre at least a leaf from its faces, so its box test would pass; the
    widening also absorbs the rounding of cell faces, which are not nested
    exactly across depths. From the start node on, each node gets the box
    test of ``_cell_box`` and ``Sphere.intersects_box``, inlined with the
    same float operations."""
    occupied_only = _collision_mode(mode)
    geo = map_.geometry
    res = geo.resolution
    bias = 1 << (geo.depth_levels - 1)
    lo_occ, lo_free = map_._lo_occ, map_._lo_free
    cx, cy, cz = sphere.center
    r = sphere.radius
    node, depth, kx, ky, kz = _collision_start(map_, cx, cy, cz, r)
    sides = [geo.res_at(d) for d in range(depth + 1)]
    big = _SQUARE_SAFE
    if not (-big < cx < big and -big < cy < big and -big < cz < big and r < big
            and res * bias < big):
        # lengths this large could square to infinity: scale them all down
        s = _square_scale(max(abs(cx), abs(cy), abs(cz), r, res * bias))
        cx, cy, cz, r, res = cx * s, cy * s, cz * s, r * s, res * s
        sides = [side * s for side in sides]
    rr = r * r
    stack = [(node, depth, kx, ky, kz)]
    pop, push = stack.pop, stack.append
    while stack:
        node, depth, kx, ky, kz = pop()
        side = sides[depth]
        d2 = 0.0
        lo = (kx - bias) * res
        hi = lo + side
        if cx < lo:
            d2 += (lo - cx) ** 2
        elif cx > hi:
            d2 += (cx - hi) ** 2
        lo = (ky - bias) * res
        hi = lo + side
        if cy < lo:
            d2 += (lo - cy) ** 2
        elif cy > hi:
            d2 += (cy - hi) ** 2
        lo = (kz - bias) * res
        hi = lo + side
        if cz < lo:
            d2 += (lo - cz) ** 2
        elif cz > hi:
            d2 += (cz - hi) ** 2
        if not d2 <= rr:
            continue
        v = node.value
        children = node.children
        if children is None or node.all_same:
            if v > lo_occ or (not occupied_only and v >= lo_free):
                return True
            continue
        if not (v > lo_occ or (not occupied_only and node.contains_unknown)):
            continue
        depth -= 1
        half = 1 << depth
        hx, hy, hz = kx + half, ky + half, kz + half
        c0, c1, c2, c3, c4, c5, c6, c7 = children
        push((c7, depth, hx, hy, hz))
        push((c6, depth, kx, hy, hz))
        push((c5, depth, hx, ky, hz))
        push((c4, depth, kx, ky, hz))
        push((c3, depth, hx, hy, kz))
        push((c2, depth, kx, hy, kz))
        push((c1, depth, hx, ky, kz))
        push((c0, depth, kx, ky, kz))
    return False


def _collision_start(map_: OccupancyMap, cx: float, cy: float, cz: float, r: float):
    """(node, depth, kx, ky, kz) of the deepest node whose cell holds the
    sphere's leaf-key bounding box widened by one leaf on every side; the
    descent stops early at a childless or all-same node, as ``_descend``
    does. The root when the widened box reaches the edge of the extent."""
    geo = map_.geometry
    res = geo.resolution
    edge = (1 << (geo.depth_levels - 1)) - 1  # key bias less the widening
    ax, ay, az = (cx - r) / res, (cy - r) / res, (cz - r) / res
    bx, by, bz = (cx + r) / res, (cy + r) / res, (cz + r) / res
    node = map_.root
    depth = geo.depth_levels
    if not (-edge <= ax and -edge <= ay and -edge <= az
            and bx < edge and by < edge and bz < edge):
        return node, depth, 0, 0, 0
    x0, y0, z0 = math.floor(ax) + edge, math.floor(ay) + edge, math.floor(az) + edge
    x1, y1, z1 = (math.floor(bx) + edge + 2, math.floor(by) + edge + 2,
                  math.floor(bz) + edge + 2)
    target = ((x0 ^ x1) | (y0 ^ y1) | (z0 ^ z1)).bit_length()
    while depth > target:
        children = node.children
        if children is None or node.all_same:
            break
        depth -= 1
        node = children[((x0 >> depth) & 1) | (((y0 >> depth) & 1) << 1)
                        | (((z0 >> depth) & 1) << 2)]
    mask = -1 << depth
    return node, depth, x0 & mask, y0 & mask, z0 & mask


def _collision_mode(mode: str) -> bool:
    if mode not in ("conservative", "occupied_only"):
        raise ValueError(f"unknown collision mode {mode!r}")
    return mode == "occupied_only"


def line_collision(map_: OccupancyMap, p0, p1, mode: str = "conservative") -> bool:
    """True if any cell the closed segment passes through is occupied
    (occupied_only) or occupied-or-unknown (conservative).

    One loop visits the start cell, the cells ``_kernels.trace_cells``
    reports (its voxel walk, inlined) and the end cell, and stops at the
    first hit. Each cell's node is found by key bits, resuming at the
    deepest node shared with the cell looked up before; cells inside the
    last safe uniform subtree are skipped by three integer range tests."""
    occupied_only = _collision_mode(mode)
    geo = map_.geometry
    geo.check_inside(p0)
    geo.check_inside(p1)
    x, y, z = _grid_cell(geo, p0, 0)
    xe, ye, ze = _grid_cell(geo, p1, 0)
    ox, oy, oz = _grid_frame(geo, p0, 0)
    ex, ey, ez = _grid_frame(geo, p1, 0)
    lo_occ, lo_free = map_._lo_occ, map_._lo_free
    inf = math.inf
    n, sx, sy, sz, tmx, tmy, tmz, tdx, tdy, tdz = _walk_setup(ox, oy, oz, ex, ey, ez,
                                                               x, y, z, xe, ye, ze)
    # path[d]: node at depth d on the last descent, valid from depth `reached` up
    reached = geo.depth_levels
    path = [None] * reached + [map_.root]
    px, py, pz = x, y, z  # cell of the last descent
    bx0 = bx1 = by0 = by1 = bz0 = bz1 = 0  # key box of the last safe subtree
    steps = 0
    last = False
    while True:
        if not (bx0 <= x < bx1 and by0 <= y < by1 and bz0 <= z < bz1):
            d = ((x ^ px) | (y ^ py) | (z ^ pz)).bit_length()
            if d < reached:
                d = reached
            node = path[d]
            while d:
                children = node.children
                if children is None or node.all_same:
                    break
                d -= 1
                node = children[((x >> d) & 1) | ((y >> d) & 1) << 1 | ((z >> d) & 1) << 2]
                path[d] = node
            v = node.value
            if v > lo_occ or not (occupied_only or v < lo_free):
                return True
            reached = d
            px, py, pz = x, y, z
            if d:
                mask = -1 << d
                bx0, by0, bz0 = x & mask, y & mask, z & mask
                size = 1 << d
                bx1, by1, bz1 = bx0 + size, by0 + size, bz0 + size
        if last:
            return False
        # next cell: trace_cells' step; once the walk reaches the end cell
        # or its step bound, or no axis is left, the end cell
        last = True
        if steps < n:
            steps += 1
            ax = tmx if x != xe else inf
            ay = tmy if y != ye else inf
            az = tmz if z != ze else inf
            if ax <= ay and ax <= az:
                if ax < inf:
                    x += sx
                    tmx += tdx
                    last = x == xe and y == ye and z == ze
            elif ay <= az:
                y += sy
                tmy += tdy
                last = x == xe and y == ye and z == ze
            else:
                z += sz
                tmz += tdz
                last = x == xe and y == ye and z == ze
        if last:
            x, y, z = xe, ye, ze


# -- information gain -----------------------------------------------------


# leaf centres per frustum membership pass, unless one node has more
_PASS_LEAVES = 4096


def info_gain(map_: OccupancyMap, sensor: SensorModel, variant: str = "exact") -> int:
    """Number of unknown leaf cells visible (in the sensor's field of view
    and range, not occluded by occupied space) from the sensor pose.

    One call tests the frustum membership of its candidate leaf centres
    once, vectorized in blocks of about ``_PASS_LEAVES`` centres (whole
    x-slices for ``flat``, otherwise per depth), and looks each distinct
    grid cell its occlusion rays cross up in the tree once per depth. Every
    lookup, of a leaf or of a ray's cell, descends by key bits from the
    deepest node it shares with the lookup before it."""
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
    cross the same cells near the sensor again and again, look up each
    distinct cell once. Within one query every cell is therefore seen as it
    was first read, even while a writer runs."""

    def __init__(self, map_: OccupancyMap, origin):
        self.map = map_
        self.origin = origin
        self._walks: dict[int, list] = {}  # depth -> state of its rays, see _walk

    def _walk(self, depth: int) -> list:
        """State of the depth-``depth`` rays: the origin in grid frame and
        its cell; the memo {grid cell: occupied}; ``path[r]``, the node
        ``r`` levels above ``depth`` on the last descent; the cell of that
        descent and the level it reached (``path`` is valid from there up);
        and the cell size and the key bias at that depth."""
        map_ = self.map
        geo = map_.geometry
        levels = geo.depth_levels - depth
        walk = self._walks[depth] = [
            *_grid_frame(geo, self.origin, depth), *_grid_cell(geo, self.origin, depth),
            {}, [None] * levels + [map_.root], (0, 0, 0, levels),
            geo.res_at(depth), (1 << (geo.depth_levels - 1)) >> depth]
        return walk

    def blocked(self, target, depth: int) -> bool:
        """Occupied cell strictly before the target along the
        depth-``depth`` traversal from the sensor (``_trace_grid``'s cells).

        The voxel walk of ``_kernels.trace_cells`` runs inline; a cell not
        in the memo is found by key bits, from the deepest node it shares
        with the cell looked up before."""
        walk = self._walks.get(depth)
        if walk is None:
            walk = self._walk(depth)
        ox, oy, oz, x, y, z, seen, path, last, res_d, h2 = walk
        map_ = self.map
        geo = map_.geometry
        tx, ty, tz = target
        half = geo.half_extent
        if not (-half < tx < half and -half < ty < half and -half < tz < half):
            geo.check_inside(target)  # raises
        # _grid_frame and _grid_cell of the target
        res = geo.resolution
        bias = 1 << (geo.depth_levels - 1)
        floor = math.floor
        xe = (floor(tx / res) + bias) >> depth
        ye = (floor(ty / res) + bias) >> depth
        ze = (floor(tz / res) + bias) >> depth
        n, sx, sy, sz, tmx, tmy, tmz, tdx, tdy, tdz = _walk_setup(
            ox, oy, oz, tx / res_d + h2, ty / res_d + h2, tz / res_d + h2, x, y, z, xe, ye, ze)
        lo_occ = map_._lo_occ
        inf = math.inf
        for _ in range(n):
            # trace_cells' step
            ax = tmx if x != xe else inf
            ay = tmy if y != ye else inf
            az = tmz if z != ze else inf
            if ax <= ay and ax <= az:
                if ax == inf:
                    break
                x += sx
                tmx += tdx
            elif ay <= az:
                y += sy
                tmy += tdy
            else:
                z += sz
                tmz += tdz
            if x == xe and y == ye and z == ze:
                break
            cell = (x, y, z)
            occupied = seen.get(cell)
            if occupied is None:
                px, py, pz, reached = last
                d = ((x ^ px) | (y ^ py) | (z ^ pz)).bit_length()
                if d < reached:
                    d = reached
                node = path[d]
                while d:
                    children = node.children
                    if children is None or node.all_same:
                        break
                    d -= 1
                    node = children[((x >> d) & 1) | ((y >> d) & 1) << 1 | ((z >> d) & 1) << 2]
                    path[d] = node
                last = walk[8] = (x, y, z, d)  # the last descent, as in _walk
                occupied = seen[cell] = node.value > lo_occ
            if occupied:
                return True
        return False


def _gain_flat(map_: OccupancyMap, fr: Frustum, rays: _OcclusionRays) -> int:
    """Unknown leaves in the frustum with an unblocked ray, counted one by
    one. Frustum membership is tested for blocks of whole x-slices of about
    ``_PASS_LEAVES`` leaf centres. Each inside leaf's node is found by key
    bits, from the deepest node it shares with the leaf looked up before."""
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
    per_pass = max(1, _PASS_LEAVES // gy.size)
    lo_occ, lo_free = map_._lo_occ, map_._lo_free
    blocked = rays.blocked
    # path[d]: node at depth d on the last descent, valid from depth `reached` up
    reached = geo.depth_levels
    path = [None] * reached + [map_.root]
    px = py = pz = 0  # leaf of the last descent
    total = 0
    for x0 in range(lo_idx[0], hi_idx[0] + 1, per_pass):
        gx = np.arange(x0, min(x0 + per_pass, hi_idx[0] + 1))
        centers = np.stack([np.repeat((gx - bias) * res + res / 2.0, gy.size),
                            np.tile(cy, gx.size), np.tile(cz, gx.size)], axis=1)
        inside = np.flatnonzero(fr.contains_points(centers))
        rows, cols = np.divmod(inside, gy.size)
        for x, y, z, center in zip(gx[rows].tolist(), gy[cols].tolist(), gz[cols].tolist(),
                                   centers[inside].tolist()):
            d = ((x ^ px) | (y ^ py) | (z ^ pz)).bit_length()
            if d < reached:
                d = reached
            node = path[d]
            while d:
                children = node.children
                if children is None or node.all_same:
                    break
                d -= 1
                node = children[((x >> d) & 1) | ((y >> d) & 1) << 1 | ((z >> d) & 1) << 2]
                path[d] = node
            reached = d
            px, py, pz = x, y, z
            v = node.value
            if v > lo_occ or v < lo_free:
                continue
            if not blocked(center, 0):
                total += 1
    return total


def _unknown_nodes(map_: OccupancyMap, fr: Frustum) -> dict[int, list]:
    """Unknown leaves and uniform unknown subtrees whose cells pass the
    frustum's box test, as (kx, ky, kz) keys grouped by node depth. The box
    test is ``_cell_box`` and ``Frustum.intersects_box``, inlined with the
    same float operations."""
    geo = map_.geometry
    res = geo.resolution
    bias = 1 << (geo.depth_levels - 1)
    sides = [geo.res_at(d) for d in range(geo.depth_levels + 1)]
    lo_occ, lo_free = map_._lo_occ, map_._lo_free
    px, py, pz = fr._pos
    ax, ay, az = fr._axis
    near, far, cone = fr.near, fr.far, fr._cone_half_angle
    sqrt, acos, asin = math.sqrt, math.acos, math.asin
    found: dict[int, list] = {}
    stack = [(map_.root, geo.depth_levels, 0, 0, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        node, depth, kx, ky, kz = pop()
        side = sides[depth]
        lx, ly, lz = (kx - bias) * res, (ky - bias) * res, (kz - bias) * res
        hx, hy, hz = lx + side, ly + side, lz + side
        # distance from the sensor to the box's closest point and farthest corner
        cx = lx - px if px < lx else hx - px if px > hx else 0.0
        cy = ly - py if py < ly else hy - py if py > hy else 0.0
        cz = lz - pz if pz < lz else hz - pz if pz > hz else 0.0
        d_min = sqrt(cx * cx + cy * cy + cz * cz)
        fx = px - lx if px - lx >= hx - px else hx - px
        fy = py - ly if py - ly >= hy - py else hy - py
        fz = pz - lz if pz - lz >= hz - pz else hz - pz
        d_max = sqrt(fx * fx + fy * fy + fz * fz)
        if d_min > far or d_max < near:
            continue
        if d_min != 0.0:
            # the box's bounding sphere against the bounding cone of the sector
            ex, ey, ez = (hx - lx) / 2.0, (hy - ly) / 2.0, (hz - lz) / 2.0
            half_diag = sqrt(ex * ex + ey * ey + ez * ez)
            vx, vy, vz = (lx + hx) / 2.0 - px, (ly + hy) / 2.0 - py, (lz + hz) / 2.0 - pz
            dist = sqrt(vx * vx + vy * vy + vz * vz)
            if dist > half_diag:
                ang = acos(max(-1.0, min(1.0, (ax * vx + ay * vy + az * vz) / dist)))
                if not ang - asin(min(1.0, half_diag / dist)) <= cone:
                    continue
        v = node.value
        children = node.children
        if children is None or node.all_same:
            if not (v > lo_occ or v < lo_free):
                found.setdefault(depth, []).append((kx, ky, kz))
            continue
        if not node.contains_unknown:
            continue
        depth -= 1
        half = 1 << depth
        mx, my, mz = kx + half, ky + half, kz + half
        c0, c1, c2, c3, c4, c5, c6, c7 = children
        push((c0, depth, kx, ky, kz))
        push((c1, depth, mx, ky, kz))
        push((c2, depth, kx, my, kz))
        push((c3, depth, mx, my, kz))
        push((c4, depth, kx, ky, mz))
        push((c5, depth, mx, ky, mz))
        push((c6, depth, kx, my, mz))
        push((c7, depth, mx, my, mz))
    return found


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
