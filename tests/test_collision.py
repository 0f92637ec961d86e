"""Sphere collision against the recursive walk from the root it replaced
(``oracles.region_collision_reference``)."""

import inspect
import io
import sys

import numpy as np
import pytest

from occtree import (
    IntegratorConfig,
    MortonCode,
    Scan,
    Sphere,
    create_map,
    integrate,
    region_collision,
)
from occtree.geometry import VoxelKey
from occtree.io import read_map, write_map
from occtree.morton import encode

from oracles import (
    ROOM_HI,
    ROOM_LO,
    _region_collide,
    random_ops,
    region_collision_reference,
    room_scan,
)

MODES = ("conservative", "occupied_only")


def scan_map(seed, res, levels, method="discrete", auto_prune=True, color=False,
             free_blocks=False):
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


def reread(m):
    blob = io.BytesIO()
    write_map(m, blob)
    blob.seek(0)
    return read_map(blob)


MAPS = {
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


def spheres(m, rng):
    """Leaf and coarse cell centres with radius ``k * res / 2`` (face touches),
    NumPy float centres as the benchmark passes them, and spheres that cross
    the extent's faces or lie wholly outside it."""
    geo = m.geometry
    res = geo.resolution
    half = geo.half_extent
    n = 1 << geo.depth_levels
    out = []
    for _ in range(300):
        depth = int(rng.integers(0, min(3, geo.depth_levels) + 1)) if rng.random() < 0.3 else 0
        key = (rng.integers(0, n, size=3) >> depth) << depth
        center = geo.key_to_coord(VoxelKey(*key.tolist(), depth))
        out.append(Sphere(center, int(rng.integers(1, 9)) * res / 2.0))
    lo = np.clip(ROOM_LO, -half, half)
    hi = np.clip(ROOM_HI, -half, half)
    for c in rng.uniform(lo, hi, size=(200, 3)):
        r = 0.25 if rng.random() < 0.5 else float(rng.uniform(0.01, 4 * res))
        out.append(Sphere(tuple(c), r))
    for _ in range(100):
        r = float(rng.uniform(0.01, 3 * res))
        c = rng.uniform(-half, half, size=3)
        axis = int(rng.integers(0, 3))
        # across a face of the extent, or up to 2 r beyond it
        c[axis] = np.sign(rng.random() - 0.5) * (half + rng.uniform(-r, 2 * r))
        out.append(Sphere(tuple(c), r))
    return out


def _line_of(func, text: str) -> int:
    lines, start = inspect.getsourcelines(func)
    return start + next(i for i, line in enumerate(lines) if text in line)


def _with_line_count(func, code, lineno: int, *args):
    """``func(*args)`` and how often a frame of ``code`` ran line ``lineno``."""
    hits = 0

    def local(frame, event, arg):
        nonlocal hits
        if event == "line" and frame.f_lineno == lineno:
            hits += 1
        return local

    old = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        result = func(*args)
    finally:
        sys.settrace(old)
    return result, hits


# one box test per node: the new walk's loop head, the reference's first line
NEW_TEST = (region_collision.__code__, _line_of(region_collision, "= pop()"))
REF_TEST = (_region_collide.__code__, _line_of(_region_collide, "_cell_box("))


@pytest.mark.parametrize("name", MAPS)
def test_region_collision_matches_reference(name):
    m = MAPS[name]()
    rng = np.random.default_rng(sum(map(ord, name)))
    tested = {mode: [0, 0] for mode in MODES}
    hits = 0
    balls = spheres(m, rng)
    for sphere in balls:
        for mode in MODES:
            want, ref_n = _with_line_count(region_collision_reference, *REF_TEST, m, sphere, mode)
            got, new_n = _with_line_count(region_collision, *NEW_TEST, m, sphere, mode)
            assert got is want, (name, sphere, mode)
            # the walk starts inside the reference's and keeps its order
            assert new_n <= ref_n, (name, sphere, mode)
            tested[mode][0] += new_n
            tested[mode][1] += ref_n
            hits += got
    print(f"{name}: {hits} hits; nodes tested per call: " + ", ".join(
        f"{mode} {new / len(balls):.1f} (reference {ref / len(balls):.1f})"
        for mode, (new, ref) in tested.items()))


def test_sphere_outside_the_extent_misses_an_unknown_root():
    m = create_map(0.25, 2)  # the root alone: unknown everywhere
    half = m.geometry.half_extent
    assert region_collision(m, Sphere((0.0, 0.0, half + 0.375), 0.25)) is False
    assert region_collision(m, Sphere((0.0, 0.0, half + 0.25), 0.25)) is True  # touches


@pytest.mark.parametrize("res", [0.25, 0.1])
def test_face_touches_on_node_boundaries(res):
    """One occupied leaf in free space, on either side of a coarse node
    boundary, touched exactly on a face by spheres centred on leaf centres
    with radius ``(2 j - 1) * res / 2``. Widening the start node by one leaf
    keeps such a leaf inside it."""
    levels = 6
    n = 1 << levels
    boundary_keys = sorted({k + d for k in range(8, n, 8) for d in (-1, 0)})
    for axis in range(3):
        for o in boundary_keys:
            key = [n // 2 + 3] * 3
            key[axis] = o
            m = create_map(res, levels)
            m.set_coarse(MortonCode(0, levels), m.config.clamp_min)
            m.update_occupancy(encode(VoxelKey(*key)).code, m.config.clamp_max)
            for sign in (-1, 1):
                for j in range(1, 5):
                    c = list(key)
                    c[axis] += sign * j
                    if not 0 <= c[axis] < n:
                        continue
                    sphere = Sphere(m.geometry.key_to_coord(VoxelKey(*c)), (2 * j - 1) * res / 2)
                    want = region_collision_reference(m, sphere, "occupied_only")
                    assert region_collision(m, sphere, "occupied_only") is want, (key, c)
                    if res == 0.25:  # exact faces: every touch counts
                        assert want
