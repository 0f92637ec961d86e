"""Sphere collision against the recursive walk from the root it replaced
(``oracles.region_collision_reference``)."""

import inspect
import math
import sys

import numpy as np
import pytest

from occtree import (
    MortonCode,
    NodeState,
    Sphere,
    StateFilter,
    create_map,
    iterate_region,
    region_collision,
)
from occtree.geometry import VoxelKey
from occtree.morton import encode

from oracles import (
    COLLISION_MAPS as MAPS,
    ROOM_HI,
    ROOM_LO,
    _region_collide,
    region_collision_reference,
)

MODES = ("conservative", "occupied_only")


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


def _check_against_reference_and_iteration(m, sphere):
    """Both modes equal the reference, and equal what ``iterate_region``
    reports of the leaves and uniform nodes the sphere touches."""
    states = {v.state for v in iterate_region(m, sphere, StateFilter.all_states())}
    for mode, hit_states in (("conservative", {NodeState.OCCUPIED, NodeState.UNKNOWN}),
                             ("occupied_only", {NodeState.OCCUPIED})):
        got = region_collision(m, sphere, mode)
        assert got is region_collision_reference(m, sphere, mode), (sphere, mode)
        assert got is bool(states & hit_states), (sphere, mode)


@pytest.mark.parametrize("name", ["ops-binary-res", "ops-prune-off", "ops-1-level", "fresh"])
def test_huge_spheres_get_an_answer(name):
    """Centres and radii whose squares overflow a float: the lengths are
    scaled down by a power of two instead of raising ``OverflowError``."""
    m = MAPS[name]()
    centres = [(1e200, 0.0, 0.0), (0.0, -1e200, 0.0), (1e200, 1e200, 1e200),
               (1.4e154, 0.0, 0.1), (-1.7e308, 0.0, 0.0), (0.3, 0.2, 1.7e308)]
    radii = [1e-3, 0.25, 1.4e154, 1e200, 2e200, 1.7e308]
    answers = set()
    for c in centres:
        for r in radii:
            for centre in (c, np.array(c)):
                sphere = Sphere(centre, r)
                _check_against_reference_and_iteration(m, sphere)
                answers.add(region_collision(m, sphere))
    assert answers == {True, False}
    # far away and small: a miss; far away and larger than the distance: a hit
    assert region_collision(m, Sphere((1e200, 0.0, 0.0), 0.25)) is False
    assert bool(list(iterate_region(m, Sphere((1e200, 0.0, 0.0), 2e200),
                                    StateFilter.all_states())))
    assert Sphere((1e200, 0.0, 0.0), 0.25).contains_point((0.0, 0.0, 0.0)) is False
    assert Sphere((1e200, 0.0, 0.0), 2e200).contains_point((0.0, 0.0, 0.0)) is True


@pytest.mark.parametrize("name", ["ops-binary-res", "ops-prune-off", "ops-2-levels", "fresh"])
def test_spheres_touching_the_extent_faces(name):
    """A sphere whose surface touches a face of the extent, or misses or
    crosses it by one ulp of the centre, keeps the closed-box answer."""
    m = MAPS[name]()
    half = m.geometry.half_extent
    rng = np.random.default_rng(3)
    for r in (2.0 ** -10, m.geometry.resolution, 0.25, 2.0 ** 520):
        for axis in range(3):
            for sign in (-1.0, 1.0):
                c = rng.uniform(-half, half, size=3)
                c[axis] = sign * (half + r)
                for toward in (0.0, math.inf):
                    centre = c.copy()
                    centre[axis] = math.nextafter(c[axis], sign * toward)
                    _check_against_reference_and_iteration(m, Sphere(tuple(centre), r))
                sphere = Sphere(tuple(c), r)
                _check_against_reference_and_iteration(m, sphere)
                if abs(c[axis]) - half == r:  # the surface touches the extent exactly
                    assert sphere.intersects_box((-half,) * 3, (half,) * 3)
