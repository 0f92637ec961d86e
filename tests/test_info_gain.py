"""Information gain and the frustum box test against the implementations
they replaced (``oracles.info_gain_reference`` and
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
from occtree.query import _OcclusionRays

from oracles import (
    ROOM_HI,
    ROOM_LO,
    frustum_intersects_box_reference,
    info_gain_reference,
    ray_blocked_reference,
    room_scan,
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
