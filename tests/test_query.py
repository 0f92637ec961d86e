"""Iteration, collision checks, and information gain against flat oracles."""

import math

import numpy as np
import pytest

from occtree import (
    Aabb,
    Frustum,
    IntegratorConfig,
    MortonCode,
    NodeState,
    Scan,
    SensorModel,
    Sphere,
    StateFilter,
    create_map,
    info_gain,
    integrate,
    iterate_region,
    line_collision,
    region_collision,
    yaw_rotation,
)
from occtree.morton import decode

from oracles import (
    COLLISION_MAPS,
    dense_states,
    flat_gain_oracle,
    iterate_region_reference,
    midpoint_segment_cells,
    random_ops,
)

STATE_CODE = {"free": 0, "unknown": 1, "occupied": 2}


def scene_map(seed, levels=5, res=0.2, ops=400):
    m = create_map(res, levels)
    random_ops(m, np.random.default_rng(seed), ops)
    return m


def walled_map():
    """Free corridor along +x, occupied wall near x = 1.1, unknown elsewhere."""
    m = create_map(0.2, 5)
    ys = np.arange(-0.9, 0.91, 0.2)
    pts = np.array([(1.1, y, z) for y in ys for z in ys])
    integrate(m, Scan(np.array([-0.9, 0.1, 0.1]), pts),
              IntegratorConfig(method="discrete"))
    return m


def cell_bounds(geo, kx, ky, kz, depth):
    bias = 1 << (geo.depth_levels - 1)
    side = geo.res_at(depth)
    lo = np.array([kx - bias, ky - bias, kz - bias]) * geo.resolution
    return lo, lo + side


def own_box_hit(vol_lo, vol_hi, lo, hi):
    return all(vol_lo[j] <= hi[j] and lo[j] <= vol_hi[j] for j in range(3))


def own_sphere_hit(center, radius, lo, hi):
    d2 = sum(max(lo[j] - center[j], 0.0, center[j] - hi[j]) ** 2 for j in range(3))
    return d2 <= radius * radius


def oracle_volume_hit(volume, lo, hi):
    if isinstance(volume, Aabb):
        return own_box_hit(volume.lo, volume.hi, lo, hi)
    return own_sphere_hit(volume.center, volume.radius, lo, hi)


# -- iterate_region -------------------------------------------------------


def whole_extent_box(geo):
    h = geo.half_extent
    return Aabb((-h, -h, -h), (h, h, h))


def test_iterate_fresh_map_yields_root():
    m = create_map(0.1, 8)
    views = list(iterate_region(m, whole_extent_box(m.geometry),
                                StateFilter(unknown=True)))
    assert len(views) == 1
    assert views[0].depth == 8
    assert views[0].state is NodeState.UNKNOWN


def test_iterate_single_occupied_leaf():
    m = create_map(0.1, 8)
    coord = (0.35, -0.15, 0.75)
    for _ in range(3):
        m.update_occupancy(0, 0)  # no-op keeps tree fresh
    code_key = m.geometry.coord_to_key(coord)
    from occtree.morton import encode
    for _ in range(3):
        m.update_occupancy(encode(code_key).code, m.config.log_hit)
    center = m.geometry.key_to_coord(code_key)
    views = list(iterate_region(m, Sphere(center, m.geometry.resolution),
                                StateFilter(occupied=True)))
    assert len(views) == 1
    assert views[0].depth == 0
    assert views[0].code == encode(code_key).code


def test_iterate_filter_needs_a_flag():
    with pytest.raises(ValueError):
        StateFilter()


def test_iterate_whole_extent_tiles_exactly():
    m = scene_map(2)
    levels = m.geometry.depth_levels
    views = list(iterate_region(m, whole_extent_box(m.geometry), StateFilter.all_states()))
    covered = set()
    for v in views:
        k = decode(MortonCode(v.code, v.depth))
        size = 1 << v.depth
        for cell in np.ndindex(size, size, size):
            key = (k.kx + cell[0], k.ky + cell[1], k.kz + cell[2])
            assert key not in covered  # disjoint
            covered.add(key)
    assert len(covered) == (1 << levels) ** 3


@pytest.mark.parametrize("seed", range(5))
def test_iterate_matches_flat_scan_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    m = scene_map(seed)
    geo = m.geometry
    states = dense_states(m)
    bias = 1 << (geo.depth_levels - 1)
    for _ in range(8):
        if rng.random() < 0.5:
            c = rng.uniform(-2.5, 2.5, size=3)
            ext = rng.uniform(0.2, 2.0, size=3)
            volume = Aabb(tuple(c - ext), tuple(c + ext))
        else:
            volume = Sphere(tuple(rng.uniform(-2.5, 2.5, size=3)),
                            float(rng.uniform(0.2, 2.0)))
        flags = {}
        while not flags or not any(flags.values()):
            flags = {s: bool(rng.integers(0, 2)) for s in ("occupied", "free", "unknown")}
        wanted = {STATE_CODE[s] for s, on in flags.items() if on}
        covered = set()
        for v in iterate_region(m, volume, StateFilter(**flags)):
            k = decode(MortonCode(v.code, v.depth))
            size = 1 << v.depth
            sub = states[k.kx:k.kx + size, k.ky:k.ky + size, k.kz:k.kz + size]
            assert (sub == STATE_CODE[str(v.state)]).all()  # uniform, matching
            assert STATE_CODE[str(v.state)] in wanted
            lo, hi = cell_bounds(geo, k.kx, k.ky, k.kz, v.depth)
            assert oracle_volume_hit(volume, lo, hi)
            for cell in np.ndindex(size, size, size):
                covered.add((k.kx + cell[0], k.ky + cell[1], k.kz + cell[2]))
        # completeness: every matching leaf cell intersecting the volume is covered
        for kx, ky, kz in np.argwhere(np.isin(states, list(wanted))):
            lo, hi = cell_bounds(geo, kx, ky, kz, 0)
            if oracle_volume_hit(volume, lo, hi):
                assert (kx, ky, kz) in covered


def iterate_volumes(m):
    """A box, a sphere and a frustum inside the room the scan maps see."""
    h = m.geometry.half_extent
    yield Aabb((-1.3, -0.7, -0.4), (0.9, 1.6, 0.8))
    yield Sphere((0.3, -0.2, 0.1), 1.1)
    yield Frustum((0.1, 0.2, -0.1), yaw_rotation(0.6), math.radians(100),
                  math.radians(50), 0.2, min(2.5, h))


ITERATE_FILTERS = [
    StateFilter.all_states(),
    StateFilter(free=True),
    StateFilter(occupied=True, unknown=True),
    StateFilter(contains_free=True),
    StateFilter(unknown=True, contains_unknown=True),
    StateFilter(occupied=True, contains_free=True, contains_unknown=True),
    StateFilter(contains_occupied=True, free=True),
]


@pytest.mark.parametrize("name", COLLISION_MAPS)
def test_iterate_matches_reference(name):
    m = COLLISION_MAPS[name]()
    levels = m.geometry.depth_levels
    views = 0
    cases = [(v, f) for v in iterate_volumes(m) for f in ITERATE_FILTERS]
    for i, (volume, flt) in enumerate(cases):
        min_depth = (0, 1, 3)[i % 3]
        if min_depth > levels:
            with pytest.raises(ValueError):
                list(iterate_region(m, volume, flt, min_depth))
            continue
        got = list(iterate_region(m, volume, flt, min_depth))
        assert got == list(iterate_region_reference(m, volume, flt, min_depth)), \
            (volume, flt, min_depth)
        views += len(got)
    assert views > 0
    assert m.reader_allsame_descents == 0


def test_iterate_min_depth_reports_coarse_views():
    m = walled_map()
    views = list(iterate_region(m, whole_extent_box(m.geometry),
                                StateFilter.all_states(), min_depth=3))
    assert views
    assert all(v.depth >= 3 for v in views)


def test_iterate_contains_flags_yield_inner_nodes():
    m = walled_map()
    views = list(iterate_region(m, whole_extent_box(m.geometry),
                                StateFilter(contains_free=True)))
    depths = {v.depth for v in views}
    assert m.geometry.depth_levels in depths  # the root is reported too


# -- region_collision -----------------------------------------------------


def test_region_collision_fresh_map():
    m = create_map(0.1, 8)
    s = Sphere((0.0, 0.0, 0.0), 0.25)
    assert region_collision(m, s, "conservative") is True
    assert region_collision(m, s, "occupied_only") is False
    with pytest.raises(ValueError):
        region_collision(m, s, "bogus")


def test_region_collision_freed_region():
    m = create_map(0.1, 8)
    code = m.geometry.coord_to_key((0, 0, 0), 4)
    from occtree.morton import encode
    m.set_coarse(MortonCode(encode(code).code, 4), m.config.clamp_min)
    # a 25 cm probe well inside the freed 1.6 m block
    assert region_collision(m, Sphere((0.3, 0.3, 0.3), 0.25), "conservative") is False


@pytest.mark.parametrize("seed", range(4))
def test_region_collision_matches_oracle(seed):
    rng = np.random.default_rng(200 + seed)
    m = scene_map(seed)
    states = dense_states(m)
    geo = m.geometry
    bias = 1 << (geo.depth_levels - 1)
    n = 1 << geo.depth_levels
    edges = (np.arange(n + 1) - bias) * geo.resolution
    for _ in range(150):
        center = rng.uniform(-3.1, 3.1, size=3)
        radius = 0.25 if rng.random() < 0.5 else float(rng.uniform(0.05, 1.0))
        d2 = np.zeros((n, n, n))
        parts = []
        for j in range(3):
            below = np.maximum(edges[:-1] - center[j], 0.0)
            above = np.maximum(center[j] - edges[1:], 0.0)
            parts.append(np.maximum(below, above) ** 2)
        d2 = parts[0][:, None, None] + parts[1][None, :, None] + parts[2][None, None, :]
        touch = d2 <= radius * radius
        oracle_cons = bool((touch & (states != 0)).any())
        oracle_occ = bool((touch & (states == 2)).any())
        sphere = Sphere(tuple(center), radius)
        assert region_collision(m, sphere, "conservative") == oracle_cons
        assert region_collision(m, sphere, "occupied_only") == oracle_occ


# -- line_collision -------------------------------------------------------


def line_oracle(m, states, p0, p1, occupied_only):
    geo = m.geometry
    bias = 1 << (geo.depth_levels - 1)
    cells = midpoint_segment_cells(p0, p1, geo.resolution, include_ends=True)
    for cx, cy, cz in cells:
        s = states[cx + bias, cy + bias, cz + bias]
        if s == 2 or (not occupied_only and s == 1):
            return True
    return False


def test_line_collision_within_free_cell():
    m = create_map(0.1, 8)
    from occtree.morton import encode
    m.set_coarse(MortonCode(encode(m.geometry.coord_to_key((0, 0, 0), 3)).code, 3),
                 m.config.clamp_min)
    assert line_collision(m, (0.01, 0.01, 0.01), (0.08, 0.05, 0.02),
                          "conservative") is False


def test_line_collision_through_wall():
    m = walled_map()
    assert line_collision(m, (-0.5, 0.1, 0.1), (2.5, 0.1, 0.1), "occupied_only") is True
    assert line_collision(m, (-0.5, 0.1, 0.1), (2.5, 0.1, 0.1), "conservative") is True


@pytest.mark.parametrize("seed", range(4))
def test_line_collision_matches_oracle(seed):
    rng = np.random.default_rng(300 + seed)
    m = scene_map(seed)
    states = dense_states(m)
    for _ in range(200):
        p0 = rng.uniform(-3.1, 3.1, size=3)
        p1 = rng.uniform(-3.1, 3.1, size=3)
        assert line_collision(m, p0, p1, "conservative") == \
            line_oracle(m, states, p0, p1, False)
        assert line_collision(m, p0, p1, "occupied_only") == \
            line_oracle(m, states, p0, p1, True)


# -- frustum --------------------------------------------------------------


def test_frustum_membership_definition():
    fr = Frustum((0, 0, 0), None, math.radians(90), math.radians(60), 0.0, 5.0)
    assert fr.contains_point((1.0, 0.0, 0.0))
    assert fr.contains_point((1.0, 0.99, 0.0))  # az 44.7 deg
    assert not fr.contains_point((1.0, 1.01, 0.0))  # az 45.3 deg
    assert not fr.contains_point((1.0, 0.0, 0.6))  # el 31 deg
    assert not fr.contains_point((-1.0, 0.0, 0.0))
    assert not fr.contains_point((6.0, 0.0, 0.0))  # beyond range
    assert fr.contains_point((0.0, 0.0, 0.0))  # degenerate direction at r=0


@pytest.mark.parametrize("near", [0.0, 0.05])
def test_frustum_apex_is_inside_exactly_when_near_is_zero(near):
    fr = Frustum((0.05, 0.05, 0.05), None, math.radians(90), math.radians(60), near, 0.09)
    apex = (0.05, 0.05, 0.05)
    assert fr.contains_point(apex) is (near == 0.0)
    assert fr.contains_points(np.array([apex])).tolist() == [near == 0.0]


def test_frustum_contains_point_is_contains_points_on_one_row():
    # points within a few ulps of the azimuth boundary, where two formulas
    # of the same rule can round apart
    rng = np.random.default_rng(0)
    fr = Frustum((0.5, -0.2, 0.1), yaw_rotation(0.7), 1.2, 0.9, 0.0, 4.0)
    r = rng.uniform(0.0, 4.0, 2000)
    az = rng.choice([-0.6, 0.6], 2000) + rng.integers(-2, 3, 2000) * 1e-16
    el = rng.uniform(-0.45, 0.45, 2000)
    d = np.stack([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)], 1) * r[:, None]
    pts = fr.position + d @ fr.rotation.T
    assert [fr.contains_point(p) for p in pts] == fr.contains_points(pts).tolist()


def test_frustum_symmetry_under_rotation():
    rng = np.random.default_rng(17)
    yaw = 1.1
    rot = yaw_rotation(yaw)
    base = Frustum((0, 0, 0), None, math.radians(115), math.radians(60), 0.2, 6.5)
    turned = Frustum((0, 0, 0), rot, math.radians(115), math.radians(60), 0.2, 6.5)
    for p in rng.uniform(-5, 5, size=(300, 3)):
        assert base.contains_point(p) == turned.contains_point(rot @ p)


def test_frustum_box_test_is_conservative():
    fr = Frustum((0, 0, 0), None, math.radians(115), math.radians(60), 0.0, 6.5)
    rng = np.random.default_rng(23)
    for _ in range(300):
        lo = rng.uniform(-4, 4, size=3)
        hi = lo + rng.uniform(0.1, 1.5, size=3)
        pts = rng.uniform(lo, hi, size=(32, 3))
        if any(fr.contains_point(p) for p in pts):
            assert fr.intersects_box(tuple(lo), tuple(hi))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sphere_rejects_nonfinite_center_and_radius(bad):
    with pytest.raises(ValueError, match="center"):
        Sphere((0.0, bad, 0.0), 0.25)
    with pytest.raises(ValueError, match="center"):
        Sphere(tuple(np.array([0.0, 0.0, bad])), 0.25)
    with pytest.raises(ValueError, match="radius"):
        Sphere((0.0, 0.0, 0.0), bad)


def test_aabb_rejects_nan_bounds_but_not_infinite_ones():
    with pytest.raises(ValueError, match="lo"):
        Aabb((math.nan, 0.0, 0.0), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="hi"):
        Aabb((0.0, 0.0, 0.0), tuple(np.array([1.0, 1.0, math.nan])))
    box = Aabb((-math.inf,) * 3, (math.inf,) * 3)
    assert box.contains_point((1e300, -1e300, 0.0))


# -- info gain ------------------------------------------------------------


def test_info_gain_fully_free_map_is_zero():
    m = create_map(0.2, 5)
    m.set_coarse(MortonCode(0, 5), m.config.clamp_min)
    sensor = SensorModel((0.1, 0.1, 0.1), r_max=2.0)
    for variant in ("flat", "exact", "fast"):
        assert info_gain(m, sensor, variant) == 0


def test_info_gain_variants_agree_without_occlusion():
    m = create_map(0.2, 5)
    # free a block, leave the rest unknown; no occupied cells anywhere
    from occtree.morton import encode
    m.set_coarse(MortonCode(encode(m.geometry.coord_to_key((-1, -1, -1), 3)).code, 3),
                 m.config.clamp_min)
    sensor = SensorModel((0.13, -0.21, 0.08), yaw_rotation(0.7), r_max=2.2)
    flat = info_gain(m, sensor, "flat")
    assert flat == info_gain(m, sensor, "exact")
    assert flat == info_gain(m, sensor, "fast")
    assert flat == flat_gain_oracle(m, sensor)
    assert flat > 0


def test_info_gain_skips_the_sensor_leaf_closer_than_r_min():
    m = create_map(0.1, 6)
    near = SensorModel((0.05, 0.05, 0.05), r_min=0.05, r_max=0.09)
    assert [info_gain(m, near, v) for v in ("flat", "exact", "fast")] == [0, 0, 0]
    assert flat_gain_oracle(m, near) == 0
    # with r_min = 0 the sensor's own leaf counts
    apex = SensorModel((0.05, 0.05, 0.05), r_max=0.09)
    assert [info_gain(m, apex, v) for v in ("flat", "exact", "fast")] == [1, 1, 1]
    assert flat_gain_oracle(m, apex) == 1


def test_info_gain_flat_matches_oracle_with_occlusion():
    m = walled_map()
    sensor = SensorModel((-0.9, 0.1, 0.1), r_max=3.0)
    flat = info_gain(m, sensor, "flat")
    assert flat == flat_gain_oracle(m, sensor)
    exact = info_gain(m, sensor, "exact")
    fast = info_gain(m, sensor, "fast")
    # approximate variants: report deviation, no equality asserted
    print(f"info gain occluded scene: flat={flat} exact={exact} fast={fast}")
    assert exact >= 0 and fast >= 0


def test_info_gain_flat_monotone_as_unknown_shrinks():
    m = walled_map()
    sensor = SensorModel((-0.9, 0.1, 0.1), r_max=3.0)
    before = info_gain(m, sensor, "flat")
    from occtree.morton import encode
    m.set_coarse(MortonCode(encode(m.geometry.coord_to_key((-1.5, 1.5, 1.5), 3)).code, 3),
                 m.config.clamp_min)
    after = info_gain(m, sensor, "flat")
    assert after <= before


@pytest.mark.parametrize("field, kwargs", [
    ("position", {"position": (0.0, math.nan, 0.0)}),
    ("position", {"position": (0.0, 0.0, -math.inf)}),
    ("r_min", {"r_min": math.nan}),
    ("r_min", {"r_min": math.inf}),
    ("r_max", {"r_max": math.nan}),
    ("r_max", {"r_max": math.inf}),
])
def test_sensor_model_rejects_nonfinite_values(field, kwargs):
    with pytest.raises(ValueError, match=field):
        SensorModel(**{"position": (0.0, 0.0, 0.0), **kwargs})


def test_info_gain_unknown_variant_rejected():
    m = create_map(0.2, 5)
    with pytest.raises(ValueError):
        info_gain(m, SensorModel((0, 0, 0)), "bogus")


@pytest.mark.parametrize("what, rotation", [
    ("finite", np.full((3, 3), math.nan)),
    ("finite", np.where(np.eye(3) == 1, math.inf, 0.0)),
    ("finite", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, math.nan]]),
    ("orthonormal", np.zeros((3, 3))),
    ("orthonormal", 2 * np.eye(3)),
    ("orthonormal", [[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),  # shear
    ("orthonormal", np.eye(3) + 1e-6),
    ("orthonormal", np.ones((3, 3))),
])
def test_hostile_rotations_are_rejected(what, rotation):
    # before the check, zeros scored the whole extent, NaN scored 0 and
    # 2 * I a different gain from the identity's
    with pytest.raises(ValueError, match=what):
        SensorModel((0.0, 0.0, 0.0), rotation)
    with pytest.raises(ValueError, match=what):
        Frustum((0.0, 0.0, 0.0), rotation, 1.0, 1.0, 0.0, 1.0)


def test_rotations_within_rounding_of_orthonormal_are_accepted():
    rng = np.random.default_rng(31)
    rotations = [None, np.eye(3), np.eye(3) + 1e-12, -np.eye(3), np.diag([1.0, -1.0, 1.0])]
    for _ in range(50):
        a, b = rng.uniform(-math.pi, math.pi, size=2)
        c, s = math.cos(b), math.sin(b)
        pitch = np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])
        rotations += [yaw_rotation(a) @ yaw_rotation(b), yaw_rotation(a) @ pitch,
                      np.linalg.qr(rng.normal(size=(3, 3)))[0]]
    for rotation in rotations:
        fr = SensorModel((0.0, 0.0, 0.0), rotation).frustum()
        assert math.isclose(math.hypot(*fr._axis), 1.0, rel_tol=1e-9)
