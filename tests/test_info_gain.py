"""Information gain, its occlusion rays, its candidate nodes and the
frustum box test against the implementations they replaced
(``oracles.info_gain_reference``, ``oracles.ray_blocked_reference``,
``oracles._unknown_nodes_reference`` and
``oracles.frustum_intersects_box_reference``)."""

import math

import numpy as np
import pytest

from occtree import (
    Frustum,
    IntegratorConfig,
    MortonCode,
    Scan,
    SensorModel,
    create_map,
    info_gain,
    integrate,
    yaw_rotation,
)
from occtree.morton import encode
from occtree.query import _OcclusionRays, _unknown_nodes

from oracles import (
    COLLISION_MAPS,
    ROOM_HI,
    ROOM_LO,
    _unknown_nodes_reference,
    frustum_intersects_box_reference,
    info_gain_reference,
    ray_blocked_reference,
    room_scan,
    scan_map,
)

VARIANTS = ("flat", "exact", "fast")


def pitch_rotation(pitch: float) -> np.ndarray:
    c, s = math.cos(pitch), math.sin(pitch)
    return np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])


def random_rotation(rng) -> np.ndarray:
    return yaw_rotation(rng.uniform(-math.pi, math.pi)) @ pitch_rotation(rng.uniform(-0.6, 0.6))


def room_map(seed: int, method: str, auto_prune: bool, free_blocks: bool):
    rng = np.random.default_rng(seed)
    m = create_map(0.2, 6, auto_prune=auto_prune)
    cfg = IntegratorConfig(method=method, fast_n=1, fast_depth=2) \
        if method == "fast_discrete" else IntegratorConfig(method=method)
    for _ in range(3):
        integrate(m, room_scan(rng, 150), cfg)
    if free_blocks:
        for _ in range(4):
            depth = int(rng.integers(1, 4))
            key = m.geometry.coord_to_key(rng.uniform(ROOM_LO, ROOM_HI), depth)
            m.set_coarse(MortonCode(encode(key).code, depth), m.config.clamp_min)
    return m, rng


@pytest.mark.parametrize("seed, method, auto_prune, free_blocks", [
    (1, "discrete", True, False),
    (2, "simple", False, False),
    (3, "fast_discrete", True, True),
    (4, "discrete", False, True),
])
def test_info_gain_matches_reference(seed, method, auto_prune, free_blocks):
    m, rng = room_map(seed, method, auto_prune, free_blocks)
    nonzero = 0
    for i in range(13):
        r_min = 0.0 if i % 2 else float(rng.uniform(0.1, 0.6))
        sensor = SensorModel(tuple(rng.uniform(ROOM_LO + 0.3, ROOM_HI - 0.3)),
                             random_rotation(rng), r_min=r_min,
                             r_max=float(rng.uniform(1.0, 2.2)))
        for variant in VARIANTS:
            gain = info_gain(m, sensor, variant)
            assert gain == info_gain_reference(m, sensor, variant), (i, variant)
            nonzero += gain > 0
    assert nonzero > 20  # the poses see unknown space


def test_occlusion_memo_keeps_depths_apart():
    # near the low corner of the extent, cells of different depths share
    # grid indices, so one memo for all depths would answer wrongly there
    rng = np.random.default_rng(9)
    m = create_map(0.2, 5)  # extent +-3.2 m
    origin = np.array([-2.9, -2.9, -2.9])
    for _ in range(3):
        points = rng.uniform(-3.1, -0.5, size=(120, 3))
        integrate(m, Scan(origin, points), IntegratorConfig(method="discrete"))
    rays = _OcclusionRays(m, tuple(origin))
    geo = m.geometry
    blocked = 0
    for _ in range(1500):
        depth = int(rng.integers(0, 4))
        target = geo.key_to_coord(geo.coord_to_key(rng.uniform(-3.1, -0.5, size=3), depth))
        got = rays.blocked(target, depth)
        assert got == ray_blocked_reference(m, origin, target, depth)
        blocked += got
    assert 0 < blocked < 1500


# the collision maps, plus a 16-level map with exact binary cell faces and
# free coarse blocks
OCCLUSION_MAPS = {
    **COLLISION_MAPS,
    "scan-16-levels-binary-res": lambda: scan_map(13, 0.125, 16, free_blocks=True),
}


def ray_points(m, rng, count: int):
    """(kind, point) pairs: random points, and points on the faces, edges
    and corners of cells of depth 0 to 3 (exact binary fractions when the
    resolution is one). The points fill the extent of a map of up to 7
    levels, where grid cells of different depths share indices, and the
    room otherwise."""
    geo = m.geometry
    half = geo.half_extent * 0.999
    lo, hi = np.full(3, -half), np.full(3, half)
    if geo.depth_levels > 7:
        lo, hi = np.maximum(ROOM_LO - 1.0, lo), np.minimum(ROOM_HI + 1.0, hi)
    kinds = ("random", "face", "edge", "corner")
    for _ in range(count):
        kind = kinds[rng.integers(len(kinds))]
        p = rng.uniform(lo, hi)
        side = geo.res_at(int(rng.integers(0, min(3, geo.depth_levels) + 1)))
        on_grid = np.clip(np.round(p / side) * side, lo, hi)
        axes = rng.permutation(3)[:kinds.index(kind)]
        p[axes] = on_grid[axes]
        yield kind, p


def ray_targets(m, rng, origin, count: int):
    """(kind, depth, target) triples around ``origin``: the points of
    ``ray_points``, points on an axis or an axis plane through the origin,
    points in the origin's own cell, and cell centres (the targets the gain
    variants trace to)."""
    geo = m.geometry
    half = geo.half_extent
    depths = range(min(3, geo.depth_levels) + 1)
    points = ray_points(m, rng, count)
    for _ in range(count):
        depth = int(rng.choice(depths))
        kind, p = next(points)
        roll = rng.integers(4)
        if roll == 0:
            keep = rng.choice(3, size=int(rng.integers(1, 3)), replace=False)
            p[keep] = origin[keep]  # parallel to one axis or to one axis plane
            kind = "axis" if len(keep) == 2 else "axis plane"
        elif roll == 1:
            lo = np.array(geo.key_to_coord(geo.coord_to_key(origin, depth))) \
                - geo.res_at(depth) / 2.0
            p = np.clip(lo + rng.uniform(0.0, 1.0, 3) * geo.res_at(depth),
                        -half * 0.999, half * 0.999)
            kind = "origin cell"
        elif roll == 2:
            p = np.array(geo.key_to_coord(geo.coord_to_key(p, depth)))
            kind = "cell centre"
        yield kind, depth, tuple(p.tolist())


@pytest.mark.parametrize("name", OCCLUSION_MAPS)
def test_occlusion_rays_match_reference(name):
    """One ray object per origin answers many targets at depths 0 to 3 in
    random order, so its memo and its descent path carry over from ray to
    ray and from depth to depth."""
    m = OCCLUSION_MAPS[name]()
    rng = np.random.default_rng(sum(map(ord, name)) + 7)
    blocked = {}
    for kind, origin in ray_points(m, rng, 8):
        rays = _OcclusionRays(m, tuple(origin.tolist()))
        for target_kind, depth, target in ray_targets(m, rng, origin, 150):
            got = rays.blocked(target, depth)
            assert got == ray_blocked_reference(m, origin, target, depth), \
                (name, kind, origin, target_kind, target, depth)
            counts = blocked.setdefault(target_kind, [0, 0])
            counts[0] += got
            counts[1] += 1
    print(f"{name}: blocked per kind " + ", ".join(
        f"{kind} {b}/{n}" for kind, (b, n) in blocked.items()))
    if name != "fresh":
        assert 0 < sum(b for b, _ in blocked.values()) < sum(n for _, n in blocked.values())


@pytest.mark.parametrize("name", ["scan-16-levels", "scan-16-levels-binary-res",
                                  "scan-free-blocks", "scan-free-blocks-reread"])
def test_info_gain_matches_reference_on_deep_and_coarse_maps(name):
    """Sensors at random places and on cell faces, edges and corners of a
    16-level map and of maps with ``set_coarse`` free blocks."""
    m = OCCLUSION_MAPS[name]()
    rng = np.random.default_rng(sum(map(ord, name)) + 11)
    nonzero = 0
    for kind, position in ray_points(m, rng, 6):
        position = np.clip(position, ROOM_LO + 0.3, ROOM_HI - 0.3)
        sensor = SensorModel(tuple(position.tolist()), random_rotation(rng),
                             r_min=float(rng.choice([0.0, 0.3])),
                             r_max=float(rng.uniform(0.6, 1.0)))
        for variant in VARIANTS:
            gain = info_gain(m, sensor, variant)
            assert gain == info_gain_reference(m, sensor, variant), (kind, sensor, variant)
            nonzero += gain > 0
    assert nonzero > 6  # the poses see unknown space


@pytest.mark.parametrize("name", ["scan-16-levels-binary-res", "scan-free-blocks",
                                  "scan-prune-off-color", "scan-simple-prune-off", "fresh"])
def test_unknown_nodes_match_reference(name):
    """The inlined box test admits the same unknown nodes as the walk with
    ``frustum_intersects_box_reference``, so the gain variants score the
    same candidates."""
    m = OCCLUSION_MAPS[name]()
    geo = m.geometry
    rng = np.random.default_rng(sum(map(ord, name)) + 13)
    found = 0
    for kind, position in ray_points(m, rng, 40):
        sensor = SensorModel(tuple(position.tolist()), random_rotation(rng),
                             r_min=float(rng.choice([0.0, 0.3])),
                             r_max=float(rng.uniform(0.3, 2.0)))
        fr = sensor.frustum()
        got = _unknown_nodes(m, fr)
        want = {}
        for kx, ky, kz, depth in _unknown_nodes_reference(m, m.root, geo.depth_levels,
                                                          0, 0, 0, fr):
            want.setdefault(depth, []).append((kx, ky, kz))
        assert {d: sorted(keys) for d, keys in got.items()} == \
            {d: sorted(keys) for d, keys in want.items()}, (kind, sensor)
        found += sum(map(len, got.values()))
    assert found > 0


def random_frusta(rng, count: int):
    for _ in range(count):
        near = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.05, 1.0))
        yield Frustum(tuple(rng.uniform(-2, 2, size=3)), random_rotation(rng),
                      float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.2, 3.0)),
                      near, near + float(rng.uniform(0.2, 4.0)))


def random_boxes(rng, fr, count: int):
    """Boxes near the sensor: random ones (a fifth of zero size in some
    axes), boxes around the sensor, and boxes whose face touches the near
    or far sphere along an axis through the sensor."""
    pos = fr.position
    for _ in range(count):
        kind = rng.integers(5)
        if kind == 0:  # contains the sensor
            lo = pos - rng.uniform(0.0, 0.5, size=3)
            hi = pos + rng.uniform(0.0, 0.5, size=3)
        elif kind in (1, 2):  # a face touches the near or far sphere
            r = fr.near if kind == 1 else fr.far
            axis = rng.integers(3)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            lo = pos - rng.uniform(0.0, 0.3, size=3)
            hi = pos + rng.uniform(0.0, 0.3, size=3)
            face = pos[axis] + sign * r
            if sign > 0:
                lo[axis], hi[axis] = face, face + rng.uniform(0.0, 0.5)
            else:
                lo[axis], hi[axis] = face - rng.uniform(0.0, 0.5), face
        else:
            lo = pos + rng.uniform(-5, 5, size=3)
            size = rng.uniform(0.0, 1.5, size=3)
            size[rng.random(3) < 0.2] = 0.0
            hi = lo + size
        yield tuple(lo.tolist()), tuple(hi.tolist())


def test_frustum_box_test_matches_reference_on_1e5_boxes():
    rng = np.random.default_rng(2024)
    checked = hits = 0
    for fr in random_frusta(rng, 50):
        for lo, hi in random_boxes(rng, fr, 2000):
            got = fr.intersects_box(lo, hi)
            assert got == frustum_intersects_box_reference(fr, lo, hi), (lo, hi)
            checked += 1
            hits += got
    assert checked == 100_000
    assert 0.1 < hits / checked < 0.9  # both answers are exercised
