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
    from occtree.morton import encode_raw

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
