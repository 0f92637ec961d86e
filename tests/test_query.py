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

from oracles import dense_states, flat_gain_oracle, midpoint_segment_cells, random_ops

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


def test_info_gain_unknown_variant_rejected():
    m = create_map(0.2, 5)
    with pytest.raises(ValueError):
        info_gain(m, SensorModel((0, 0, 0)), "bogus")
