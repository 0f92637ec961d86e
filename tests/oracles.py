"""Independent reference implementations used to check the library.

Everything here deliberately avoids the code paths it validates: Morton
encoding by per-bit loop, ray traversal by boundary-crossing midpoints,
indicator checks by dense subtree scans.
"""

from __future__ import annotations

import io
import math

import numpy as np

from occtree import _kernels
from occtree.core import Node, NodeState, OccupancyMap, create_map
from occtree.geometry import MortonCode
from occtree.integrate import IntegratorConfig, Scan, _grid_cell, _grid_frame, integrate
from occtree.io import read_map, write_map
from occtree.morton import encode, encode_raw
from occtree.query import _cell_box, _collision_mode


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


# -- voxel walk, as the kernel computed it before it took the unrolled loop
# of the queries --------------------------------------------------------------


def trace_cells_reference(ox, oy, oz, ex, ey, ez, cx0, cy0, cz0, cx1, cy1, cz1):
    """Cells strictly between the start and end cells of a segment.

    Coordinates are in grid frame (cell size 1); (c*0) and (c*1) are the
    integer start/end cells. Returns an (N, 3) int64 array in order of
    increasing ray parameter.
    """
    cur = [cx0, cy0, cz0]
    end = [cx1, cy1, cz1]
    o = (ox, oy, oz)
    d = (ex - ox, ey - oy, ez - oz)
    step = [0, 0, 0]
    t_max = [math.inf, math.inf, math.inf]
    t_delta = [math.inf, math.inf, math.inf]
    n = 0
    for j in range(3):
        n += abs(end[j] - cur[j])
        if d[j] > 0:
            step[j] = 1
            t_delta[j] = 1.0 / d[j]
            t_max[j] = max(0.0, (cur[j] + 1 - o[j]) / d[j])
        elif d[j] < 0:
            step[j] = -1
            t_delta[j] = -1.0 / d[j]
            t_max[j] = max(0.0, (cur[j] - o[j]) / d[j])
    out = []
    for _ in range(n):
        axis = -1
        best = math.inf
        for j in range(3):
            if cur[j] != end[j] and t_max[j] < best:
                best = t_max[j]
                axis = j
        if axis < 0:
            break
        cur[axis] += step[axis]
        t_max[axis] += t_delta[axis]
        if cur == end:
            break
        out.append((cur[0], cur[1], cur[2]))
    return np.array(out, dtype=np.int64).reshape(len(out), 3)


def trace_grid_reference(geo, origin, end, depth: int):
    """``integrate._trace_grid`` with ``trace_cells_reference`` walking."""
    return trace_cells_reference(*_grid_frame(geo, origin, depth), *_grid_frame(geo, end, depth),
                                 *_grid_cell(geo, origin, depth), *_grid_cell(geo, end, depth))


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


# -- writes, one operation at a time, as the library made them before every
# write shared one propagation pass ------------------------------------------


def _expand(map_: OccupancyMap, node) -> None:
    state = map_.state_of(node.value)
    node.contains_free = state is NodeState.FREE
    node.contains_unknown = state is NodeState.UNKNOWN
    node.all_same = True
    node.children = [Node(node.value, node.color, node.color_n) for _ in range(8)]


def _refresh(map_: OccupancyMap, node) -> None:
    """An inner node's maximum, indicators and all-same flag, from its
    children; counted in ``inner_refreshes`` as the library counts it."""
    map_.inner_refreshes += 1
    children = node.children
    free = unknown = False
    for child in children:
        if child.children is None:
            state = map_.state_of(child.value)
            free |= state is NodeState.FREE
            unknown |= state is NodeState.UNKNOWN
        else:
            free |= child.contains_free
            unknown |= child.contains_unknown
    # children are the same when they hold one value and one 8-bit colour
    signatures = {(child.value, None if child.color is None else tuple(map(round, child.color)))
                  for child in children}
    node.value = max(child.value for child in children)
    node.contains_free = free
    node.contains_unknown = unknown
    node.all_same = all(child.children is None for child in children) and len(signatures) == 1


def _refresh_and_collapse(map_: OccupancyMap, node, collapse: bool) -> bool:
    _refresh(map_, node)
    if not (collapse and node.all_same):
        return False
    first = node.children[0]
    node.value, node.color, node.color_n = first.value, first.color, first.color_n
    node.children = None
    return True


def per_op_update(map_: OccupancyMap, code, delta: float, color=None) -> NodeState:
    """Reference leaf update, one operation at a time: walk the whole root
    path, then refresh (and collapse, with auto-prune on) every node on it,
    deepest first. This is the update the library's batch form must
    reproduce."""
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
            _expand(map_, node)
        path.append(node)
        node = node.children[(raw >> (3 * (depth - 1))) & 7]
        depth -= 1
    node.value = map_.clamp(node.value + delta)
    if color is not None and map_.store_color:
        r, g, b = (float(c) for c in color)
        if node.color is None:
            node.color, node.color_n = (r, g, b), 1
        else:
            n = node.color_n
            cr, cg, cb = node.color
            node.color = ((cr * n + r) / (n + 1), (cg * n + g) / (n + 1),
                          (cb * n + b) / (n + 1))
            node.color_n = n + 1
    for inner in reversed(path):
        _refresh_and_collapse(map_, inner, map_.auto_prune)
    return map_.state_of(node.value)


def set_coarse_reference(map_: OccupancyMap, code: MortonCode, value: float) -> int:
    """Reference coarse write: below the target cell, occupied inner nodes
    are refreshed after their children but never collapsed; the root path
    is refreshed (and collapsed, with auto-prune on) deepest first. A
    collapse inside the target cell needs a ``prune_reference`` after it."""
    v = map_.clamp(value)
    node = map_.root
    depth = map_.geometry.depth_levels
    path = []
    while depth > code.depth:
        if node.children is None:
            if map_.state_of(node.value) is NodeState.OCCUPIED:
                return depth
            if node.value == v and node.color is None:
                return depth
            _expand(map_, node)
        path.append(node)
        node = node.children[(code.code >> (3 * (depth - 1))) & 7]
        depth -= 1
    _apply_coarse(map_, node, depth, v)
    for inner in reversed(path):
        _refresh_and_collapse(map_, inner, map_.auto_prune)
    return depth


def _apply_coarse(map_: OccupancyMap, node, depth: int, v: float) -> None:
    if map_.state_of(node.value) is not NodeState.OCCUPIED:
        node.children = None
        node.value = v
        node.color = None
        node.color_n = 0
        node.all_same = True
        return
    if depth == 0 or node.children is None:
        return
    for child in node.children:
        _apply_coarse(map_, child, depth - 1, v)
    _refresh(map_, node)


def prune_reference(map_: OccupancyMap, node=None) -> int:
    """Reference prune by recursion: children first, then refresh and
    collapse every all-same node. Returns the number of nodes removed."""
    node = map_.root if node is None else node
    if node.children is None:
        return 0
    removed = sum(prune_reference(map_, child) for child in node.children)
    return removed + 8 * _refresh_and_collapse(map_, node, True)


class PerOpMap(OccupancyMap):
    """An OccupancyMap whose writes are the references: ``update_occupancy``
    applies every code, single or batched, through ``per_op_update``,
    ``set_coarse`` is ``set_coarse_reference`` and ``prune`` is
    ``prune_reference``."""

    def update_occupancy(self, code, delta, color=None):
        if isinstance(code, (MortonCode, int, np.integer)):
            return per_op_update(self, code, delta, color)
        colors = [None] * len(code) if color is None else color
        state = None
        for c, col in zip(code, colors):
            state = per_op_update(self, c, delta, col)
        return state

    def set_coarse(self, code, value):
        return set_coarse_reference(self, code, value)

    def prune(self):
        return prune_reference(self)


def random_ops(map_: OccupancyMap, rng, count: int, coarse_value_range=(-2.0, 4.0),
               palette=None):
    """Apply a random interleaving of leaf updates, coarse writes, and
    prunes. With a ``palette``, each leaf update takes one of its colors
    (or None), drawn at random."""
    levels = map_.geometry.depth_levels
    n = 1 << levels
    for _ in range(count):
        op = rng.random()
        if op < 0.6:
            k = rng.integers(0, n, size=3)
            delta = map_.config.log_hit if rng.random() < 0.5 else map_.config.log_miss
            color = None if palette is None else palette[int(rng.integers(len(palette)))]
            map_.update_occupancy(encode_raw(int(k[0]), int(k[1]), int(k[2])), delta, color)
        elif op < 0.9:
            depth = int(rng.integers(1, levels + 1))
            k = (rng.integers(0, n, size=3) >> depth) << depth
            code = encode_raw(int(k[0]), int(k[1]), int(k[2]))
            value = rng.uniform(*coarse_value_range)
            map_.set_coarse(MortonCode(code, depth), value)
        else:
            map_.prune()


# -- scenes ---------------------------------------------------------------

ROOM_LO = np.array([-2.3, -2.3, -1.1])
ROOM_HI = np.array([2.3, 2.3, 1.3])


def room_scan(rng, n_points: int) -> Scan:
    """A scan of a closed room from a random interior origin. A third of
    the rays stop early at random clutter, so free space, occupied cells
    and unknown space behind them all occur."""
    origin = rng.uniform(ROOM_LO + 0.6, ROOM_HI - 0.6)
    dirs = rng.normal(size=(n_points, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    with np.errstate(divide="ignore"):
        t_hi = np.where(dirs > 0, (ROOM_HI - origin) / dirs, (ROOM_LO - origin) / dirs)
    t = np.min(np.where(dirs != 0, t_hi, np.inf), axis=1)
    clutter = rng.random(n_points) < 0.35
    t[clutter] *= rng.uniform(0.3, 0.9, size=clutter.sum())
    return Scan(origin, origin + dirs * t[:, None])


def scan_map(seed, res, levels, method="discrete", auto_prune=True, color=False,
             free_blocks=False):
    """A map of three room scans, optionally with colour and with free
    coarse blocks written by ``set_coarse``."""
    rng = np.random.default_rng(seed)
    m = create_map(res, levels, auto_prune=auto_prune, store_color=color)
    cfg = IntegratorConfig(method=method, fast_n=1, fast_depth=2) \
        if method == "fast_discrete" else IntegratorConfig(method=method)
    for _ in range(3):
        scan = room_scan(rng, 150)
        if color:
            scan = Scan(scan.origin, scan.points, rng.integers(0, 256, size=(150, 3)))
        integrate(m, scan, cfg)
    if free_blocks:
        for _ in range(6):
            depth = int(rng.integers(1, 4))
            key = m.geometry.coord_to_key(rng.uniform(ROOM_LO, ROOM_HI), depth)
            m.set_coarse(MortonCode(encode(key).code, depth), m.config.clamp_min)
    return m


def ops_map(seed, res, levels, auto_prune=True):
    m = create_map(res, levels, auto_prune=auto_prune)
    random_ops(m, np.random.default_rng(seed), 300)
    return m


def map_bytes(m) -> bytes:
    blob = io.BytesIO()
    write_map(m, blob)
    return blob.getvalue()


def reread(m):
    return read_map(io.BytesIO(map_bytes(m)))


# maps the collision tests compare against their references
COLLISION_MAPS = {
    # the benchmark's geometry: 0.1 m leaves, 16 levels
    "scan-16-levels": lambda: scan_map(1, 0.1, 16),
    "scan-prune-off-color": lambda: scan_map(2, 0.1, 7, "fast_discrete", auto_prune=False,
                                             color=True),
    "scan-free-blocks": lambda: scan_map(3, 0.1, 7, free_blocks=True),
    "scan-free-blocks-reread": lambda: reread(scan_map(3, 0.1, 7, free_blocks=True)),
    "scan-simple-prune-off": lambda: scan_map(4, 0.2, 6, "simple", auto_prune=False),
    # exact binary faces: a face touch gives d2 == r * r exactly
    "ops-binary-res": lambda: ops_map(5, 0.25, 5),
    "ops-prune-off": lambda: ops_map(6, 0.2, 5, auto_prune=False),
    "ops-2-levels": lambda: ops_map(7, 0.25, 2),
    "ops-1-level": lambda: ops_map(8, 0.5, 1),
    "fresh": lambda: create_map(0.1, 6),
}


# -- filtered iteration, as the library computed it before it walked a stack


def iterate_region_reference(map_: OccupancyMap, volume, flt, min_depth: int = 0):
    """Yield matching nodes intersecting the volume, in Morton order, by
    recursion. Branches that cannot contain a match are skipped via the
    indicators. Nodes at ``min_depth`` are reported as coarse leaves
    (max-occupancy state)."""
    yield from _iterate(map_, map_.root, map_.geometry.depth_levels, 0, 0, 0, volume,
                        flt, min_depth)


def _node_view(map_: OccupancyMap, node, kx: int, ky: int, kz: int, depth: int):
    code = _kernels.morton_encode(kx, ky, kz)
    return map_._view(node, code, depth)


def _iterate(map_: OccupancyMap, node, depth: int, kx: int, ky: int, kz: int, volume,
             flt, min_depth: int):
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
    half = 1 << (depth - 1)
    for i, child in enumerate(node.children):
        yield from _iterate(map_, child, depth - 1,
                            kx + (i & 1) * half,
                            ky + ((i >> 1) & 1) * half,
                            kz + ((i >> 2) & 1) * half,
                            volume, flt, min_depth)


# -- sphere collision, as the library computed it before it started at the
# enclosing node and inlined the box test -----------------------------------


def region_collision_reference(map_: OccupancyMap, sphere,
                               mode: str = "conservative") -> bool:
    """True if the sphere overlaps occupied space (occupied_only) or
    occupied-or-unknown space (conservative). Hierarchical with early exit
    on the first witness."""
    occupied_only = _collision_mode(mode)
    return _region_collide(map_, map_.root, map_.geometry.depth_levels,
                           0, 0, 0, sphere, occupied_only)


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


# -- line collision, as the library computed it before it walked the cells
# in one loop with a key-bit descent -----------------------------------------


def line_collision_reference(map_: OccupancyMap, p0, p1, mode: str = "conservative") -> bool:
    """True if any cell the closed segment passes through is occupied
    (occupied_only) or occupied-or-unknown (conservative). A uniform
    subtree is crossed in one step."""
    occupied_only = _collision_mode(mode)
    geo = map_.geometry
    geo.check_inside(p0)
    geo.check_inside(p1)
    cells = [_grid_cell(geo, p0, 0)]
    cells.extend((int(x), int(y), int(z)) for x, y, z in trace_grid_reference(geo, p0, p1, 0))
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
    for x, y, z in trace_grid_reference(map_.geometry, origin, target, depth):
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
              & (np.abs(el) <= sensor.v_fov / 2.0)) | ((r == 0.0) & (sensor.r_min == 0.0))
    member &= states.ravel() == 1
    total = 0
    for center in centers[member]:
        for cx, cy, cz in midpoint_segment_cells(pos, center, res):
            if states[cx + bias, cy + bias, cz + bias] == 2:
                break
        else:
            total += 1
    return total
