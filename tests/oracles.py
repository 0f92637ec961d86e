"""Independent reference implementations used to check the library.

Everything here deliberately avoids the code paths it validates: Morton
encoding by per-bit loop, ray traversal by boundary-crossing midpoints,
indicator checks by dense subtree scans.
"""

from __future__ import annotations

import math

import numpy as np

from occtree.core import NodeState, OccupancyMap
from occtree.geometry import MortonCode
from occtree.integrate import _trace_grid
from occtree.morton import encode_raw
from occtree.query import _cell_box


def naive_morton_encode(kx: int, ky: int, kz: int, bits: int = 21) -> int:
    code = 0
    for b in range(bits):
        code |= ((kx >> b) & 1) << (3 * b)
        code |= ((ky >> b) & 1) << (3 * b + 1)
        code |= ((kz >> b) & 1) << (3 * b + 2)
    return code


def naive_morton_encode_batch(kx, ky, kz, bits: int = 21):
    kx = np.asarray(kx, dtype=np.uint64)
    ky = np.asarray(ky, dtype=np.uint64)
    kz = np.asarray(kz, dtype=np.uint64)
    code = np.zeros(len(kx), dtype=np.uint64)
    for b in range(bits):
        bb = np.uint64(b)
        one = np.uint64(1)
        code |= ((kx >> bb) & one) << np.uint64(3 * b)
        code |= ((ky >> bb) & one) << np.uint64(3 * b + 1)
        code |= ((kz >> bb) & one) << np.uint64(3 * b + 2)
    return code


def midpoint_segment_cells(p0, p1, cell_size: float, include_ends: bool = False):
    """Cells pierced by a segment, found by sorting all axis boundary
    crossings and sampling interval midpoints. Independent of any DDA."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    d = p1 - p0
    ts = [0.0, 1.0]
    for j in range(3):
        if d[j] == 0.0:
            continue
        lo, hi = sorted((p0[j], p1[j]))
        k = math.ceil(lo / cell_size)
        while k * cell_size < hi:
            t = (k * cell_size - p0[j]) / d[j]
            if 0.0 < t < 1.0:
                ts.append(t)
            k += 1
    ts = sorted(set(ts))
    cells = []
    seen = set()
    for a, b in zip(ts[:-1], ts[1:]):
        mid = p0 + ((a + b) / 2.0) * d
        cell = tuple(int(math.floor(mid[j] / cell_size)) for j in range(3))
        if cell not in seen:
            seen.add(cell)
            cells.append(cell)
    if not include_ends:
        first = tuple(int(math.floor(p0[j] / cell_size)) for j in range(3))
        last = tuple(int(math.floor(p1[j] / cell_size)) for j in range(3))
        cells = [c for c in cells if c != first and c != last]
    return cells


def grid_cells_of_segment(p0, p1, geo, depth: int = 0, include_ends: bool = False):
    """Same as midpoint_segment_cells but in biased key-grid indices."""
    bias = (1 << (geo.depth_levels - 1)) >> depth
    cells = midpoint_segment_cells(p0, p1, geo.res_at(depth), include_ends)
    return [(c[0] + bias, c[1] + bias, c[2] + bias) for c in cells]


def dense_values(map_: OccupancyMap) -> np.ndarray:
    """Leaf-resolution occupancy grid indexed by biased key components."""
    n = 1 << map_.geometry.depth_levels
    arr = np.empty((n, n, n), dtype=float)

    def fill(node, depth, kx, ky, kz):
        if node.children is None:
            size = 1 << depth
            arr[kx:kx + size, ky:ky + size, kz:kz + size] = node.value
            return
        half = 1 << (depth - 1)
        for i, child in enumerate(node.children):
            fill(child, depth - 1, kx + (i & 1) * half,
                 ky + ((i >> 1) & 1) * half, kz + ((i >> 2) & 1) * half)

    fill(map_.root, map_.geometry.depth_levels, 0, 0, 0)
    return arr


def dense_states(map_: OccupancyMap) -> np.ndarray:
    """0 = free, 1 = unknown, 2 = occupied, per leaf cell."""
    values = dense_values(map_)
    states = np.ones(values.shape, dtype=np.int8)
    states[values > map_._lo_occ] = 2
    states[values < map_._lo_free] = 0
    return states


def leaf_centers_world(geo, depth: int = 0):
    """Center coordinate of every depth-``depth`` cell along one axis."""
    n = 1 << (geo.depth_levels - depth)
    bias = n // 2
    res = geo.res_at(depth)
    return (np.arange(n) - bias) * res + res / 2.0


def verify_tree(map_: OccupancyMap) -> list[str]:
    """Full-tree invariant check by brute-force subtree scans. Returns a
    list of violations (empty when healthy)."""
    problems: list[str] = []
    cfg = map_.config

    def scan(node, depth, path):
        # returns (max_value, set of leaf states, leaf signature or None)
        if node.children is None:
            v = node.value
            if not (cfg.clamp_min <= v <= cfg.clamp_max) and v != cfg.prior_log_odds:
                problems.append(f"{path}: leaf value {v} outside clamps")
            sig = (v, None if node.color is None else tuple(node.color))
            return v, {map_.state_of(v)}, sig
        if depth == 0:
            problems.append(f"{path}: children below leaf depth")
        results = [scan(child, depth - 1, path + (i,))
                   for i, child in enumerate(node.children)]
        max_v = max(r[0] for r in results)
        states = set().union(*(r[1] for r in results))
        if node.value != max_v:
            problems.append(f"{path}: inner value {node.value} != max(children) {max_v}")
        if node.contains_free != (NodeState.FREE in states):
            problems.append(f"{path}: contains_free flag wrong")
        if node.contains_unknown != (NodeState.UNKNOWN in states):
            problems.append(f"{path}: contains_unknown flag wrong")
        derived_occ = map_.state_of(node.value) is NodeState.OCCUPIED
        if derived_occ != (NodeState.OCCUPIED in states):
            problems.append(f"{path}: derived contains-occupied wrong")
        child_sigs = [r[2] for r in results]
        prunable = all(s is not None for s in child_sigs) and len(set(child_sigs)) == 1
        if node.all_same != prunable:
            problems.append(f"{path}: all_same {node.all_same}, prunable {prunable}")
        if map_.auto_prune and prunable:
            problems.append(f"{path}: prunable inner node with auto_prune on")
        return max_v, states, None

    scan(map_.root, map_.geometry.depth_levels, ())
    return problems


def per_op_update(map_: OccupancyMap, code, delta: float, color=None) -> NodeState:
    """Reference leaf update, one operation at a time: walk the whole root
    path, then refresh (and collapse, with auto-prune on) every node on it.
    This is the update the library's batch form must reproduce."""
    if isinstance(code, MortonCode):
        if code.depth != 0:
            raise ValueError("update_occupancy requires a leaf-depth code")
        raw = code.code
    else:
        raw = int(code)
    node = map_.root
    depth = map_.geometry.depth_levels
    path = []
    while depth > 0:
        if node.children is None:
            map_._expand(node)
        path.append(node)
        node = node.children[(raw >> (3 * (depth - 1))) & 7]
        depth -= 1
    node.value = map_.clamp(node.value + delta)
    if color is not None and map_.store_color:
        map_._fuse_color(node, color)
    map_._finish_path(path)
    return map_.state_of(node.value)


class PerOpMap(OccupancyMap):
    """An OccupancyMap whose ``update_occupancy`` applies every code, single
    or batched, through ``per_op_update``."""

    def update_occupancy(self, code, delta, color=None):
        if isinstance(code, (MortonCode, int, np.integer)):
            return per_op_update(self, code, delta, color)
        colors = [None] * len(code) if color is None else color
        state = None
        for c, col in zip(code, colors):
            state = per_op_update(self, c, delta, col)
        return state


def random_ops(map_: OccupancyMap, rng, count: int, coarse_value_range=(-2.0, 4.0)):
    """Apply a random interleaving of leaf updates, coarse writes, and
    prunes."""
    levels = map_.geometry.depth_levels
    n = 1 << levels
    for _ in range(count):
        op = rng.random()
        if op < 0.6:
            k = rng.integers(0, n, size=3)
            delta = map_.config.log_hit if rng.random() < 0.5 else map_.config.log_miss
            map_.update_occupancy(encode_raw(int(k[0]), int(k[1]), int(k[2])), delta)
        elif op < 0.9:
            depth = int(rng.integers(1, levels + 1))
            k = (rng.integers(0, n, size=3) >> depth) << depth
            code = encode_raw(int(k[0]), int(k[1]), int(k[2]))
            value = rng.uniform(*coarse_value_range)
            map_.set_coarse(MortonCode(code, depth), value)
        else:
            map_.prune()


# -- information gain, as the library computed it before its per-query
# occlusion memo, single frustum pass and scalar frustum box test ----------


def frustum_intersects_box_reference(fr, lo, hi) -> bool:
    """``Frustum.intersects_box`` in NumPy, as it was written first."""
    pos = fr.position
    closest = np.minimum(np.maximum(pos, lo), hi)
    d_min = float(np.linalg.norm(closest - pos))
    far_corner = np.maximum(np.abs(np.asarray(lo) - pos), np.abs(np.asarray(hi) - pos))
    d_max = float(np.linalg.norm(far_corner))
    if d_min > fr.far or d_max < fr.near:
        return False
    if d_min == 0.0:
        return True
    center = (np.asarray(lo, dtype=float) + hi) / 2.0
    half_diag = float(np.linalg.norm((np.asarray(hi, dtype=float) - lo) / 2.0))
    d = fr.rotation.T @ (center - pos)
    dist = float(np.linalg.norm(d))
    if dist <= half_diag:
        return True
    ang = math.acos(max(-1.0, min(1.0, d[0] / dist)))
    return ang - math.asin(min(1.0, half_diag / dist)) <= fr._cone_half_angle


def ray_blocked_reference(map_: OccupancyMap, origin, target, depth: int) -> bool:
    for x, y, z in _trace_grid(map_.geometry, origin, target, depth):
        code = encode_raw(int(x) << depth, int(y) << depth, int(z) << depth)
        node, _ = map_._descend(code, depth)
        if map_.state_of(node.value) is NodeState.OCCUPIED:
            return True
    return False


def _leaf_centers_reference(geo, kx: int, ky: int, kz: int, depth: int) -> np.ndarray:
    bias = 1 << (geo.depth_levels - 1)
    res = geo.resolution
    n = 1 << depth
    ax = (np.arange(n) + kx - bias) * res + res / 2.0
    ay = (np.arange(n) + ky - bias) * res + res / 2.0
    az = (np.arange(n) + kz - bias) * res + res / 2.0
    gx, gy, gz = np.meshgrid(ax, ay, az, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)


def _gain_flat_reference(map_: OccupancyMap, sensor) -> int:
    geo = map_.geometry
    geo.check_inside(sensor.position)
    fr = sensor.frustum()
    pos = np.asarray(sensor.position, dtype=float)
    bias = 1 << (geo.depth_levels - 1)
    res = geo.resolution
    n_cells = 1 << geo.depth_levels
    lo_idx = np.maximum(np.floor((pos - sensor.r_max) / res).astype(int) + bias, 0)
    hi_idx = np.minimum(np.floor((pos + sensor.r_max) / res).astype(int) + bias, n_cells - 1)
    total = 0
    for kx in range(lo_idx[0], hi_idx[0] + 1):
        ax = (kx - bias) * res + res / 2.0
        ys = np.arange(lo_idx[1], hi_idx[1] + 1)
        zs = np.arange(lo_idx[2], hi_idx[2] + 1)
        gy, gz = np.meshgrid(ys, zs, indexing="ij")
        centers = np.stack([
            np.full(gy.size, ax),
            (gy.ravel() - bias) * res + res / 2.0,
            (gz.ravel() - bias) * res + res / 2.0,
        ], axis=1)
        inside = fr.contains_points(centers)
        for (ky, kz), center in zip(
                zip(gy.ravel()[inside], gz.ravel()[inside]), centers[inside]):
            node, _ = map_._descend(encode_raw(kx, int(ky), int(kz)), 0)
            if map_.state_of(node.value) is not NodeState.UNKNOWN:
                continue
            if not ray_blocked_reference(map_, pos, center, 0):
                total += 1
    return total


def _unknown_nodes_reference(map_: OccupancyMap, node, depth: int, kx: int,
                             ky: int, kz: int, fr):
    lo, hi = _cell_box(map_.geometry, kx, ky, kz, depth)
    if not frustum_intersects_box_reference(fr, lo, hi):
        return
    if node.children is None or node.all_same:
        if map_.state_of(node.value) is NodeState.UNKNOWN:
            yield kx, ky, kz, depth
        return
    if not node.contains_unknown:
        return
    half = 1 << (depth - 1)
    for i, child in enumerate(node.children):
        yield from _unknown_nodes_reference(map_, child, depth - 1, kx + (i & 1) * half,
                                            ky + ((i >> 1) & 1) * half,
                                            kz + ((i >> 2) & 1) * half, fr)


def _gain_exact_node_reference(map_: OccupancyMap, fr, pos, kx: int, ky: int,
                               kz: int, depth: int) -> int:
    geo = map_.geometry
    centers = _leaf_centers_reference(geo, kx, ky, kz, depth)
    weight = int(np.count_nonzero(fr.contains_points(centers)))
    if weight == 0:
        return 0
    bias = 1 << (geo.depth_levels - 1)
    res = geo.resolution
    side = geo.res_at(depth)
    center = ((kx - bias) * res + side / 2.0, (ky - bias) * res + side / 2.0,
              (kz - bias) * res + side / 2.0)
    if not ray_blocked_reference(map_, pos, center, depth):
        return weight
    if depth == 0:
        return 0
    half = 1 << (depth - 1)
    return sum(
        _gain_exact_node_reference(map_, fr, pos, kx + (i & 1) * half,
                                   ky + ((i >> 1) & 1) * half,
                                   kz + ((i >> 2) & 1) * half, depth - 1)
        for i in range(8))


def _gain_hier_reference(map_: OccupancyMap, sensor, fast: bool) -> int:
    geo = map_.geometry
    geo.check_inside(sensor.position)
    fr = sensor.frustum()
    pos = np.asarray(sensor.position, dtype=float)
    total = 0
    for kx, ky, kz, depth in _unknown_nodes_reference(map_, map_.root,
                                                      geo.depth_levels, 0, 0, 0, fr):
        centers = _leaf_centers_reference(geo, kx, ky, kz, depth)
        inside = fr.contains_points(centers)
        weight = int(np.count_nonzero(inside))
        if weight == 0:
            continue
        if fast:
            # first visible leaf stands in for the whole node
            for center in centers[inside]:
                if not ray_blocked_reference(map_, pos, center, 0):
                    total += weight
                    break
        else:
            total += _gain_exact_node_reference(map_, fr, pos, kx, ky, kz, depth)
    return total


def info_gain_reference(map_: OccupancyMap, sensor, variant: str) -> int:
    """``info_gain`` as first written: one frustum membership test per
    candidate node (exact tests each node again), a NumPy box test, and an
    encode plus tree descent for every cell of every occlusion ray."""
    if variant == "flat":
        return _gain_flat_reference(map_, sensor)
    if variant in ("exact", "fast"):
        return _gain_hier_reference(map_, sensor, fast=variant == "fast")
    raise ValueError(f"unknown info_gain variant {variant!r}")


def flat_gain_oracle(m: OccupancyMap, sensor) -> int:
    """Flat information gain over the dense leaf grid: unknown leaf centres
    inside the sensor's sector whose midpoint-traversal ray crosses no
    occupied cell."""
    geo = m.geometry
    states = dense_states(m)
    bias = 1 << (geo.depth_levels - 1)
    res = geo.resolution
    n = 1 << geo.depth_levels
    ax = (np.arange(n) - bias) * res + res / 2.0
    gx, gy, gz = np.meshgrid(ax, ax, ax, indexing="ij")
    centers = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    pos = np.asarray(sensor.position, dtype=float)
    rot = np.eye(3) if sensor.rotation is None else np.asarray(sensor.rotation)
    d = (centers - pos) @ rot
    r = np.linalg.norm(d, axis=1)
    az = np.arctan2(d[:, 1], d[:, 0])
    el = np.arctan2(d[:, 2], np.hypot(d[:, 0], d[:, 1]))
    member = ((r >= sensor.r_min) & (r <= sensor.r_max)
              & (np.abs(az) <= sensor.h_fov / 2.0)
              & (np.abs(el) <= sensor.v_fov / 2.0)) | (r == 0.0)
    member &= states.ravel() == 1
    total = 0
    for center in centers[member]:
        for cx, cy, cz in midpoint_segment_cells(pos, center, res):
            if states[cx + bias, cy + bias, cz + bias] == 2:
                break
        else:
            total += 1
    return total
