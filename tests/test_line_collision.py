"""Line collision against the per-cell Morton codes and root descents it
replaced (``oracles.line_collision_reference``)."""

import numpy as np
import pytest

from occtree import (
    Aabb,
    MortonCode,
    StateFilter,
    create_map,
    decode,
    iterate_region,
    line_collision,
    trace_ray_cells,
)
from occtree.geometry import VoxelKey
from occtree.morton import encode

from oracles import COLLISION_MAPS as MAPS
from oracles import ROOM_HI, ROOM_LO, line_collision_reference

MODES = ("conservative", "occupied_only")


def sparse_map(seed, res, levels, auto_prune=True):
    """Free space with a few occupied leaves and unknown blocks, so that
    segments on exact binary faces reach far before they hit."""
    rng = np.random.default_rng(seed)
    m = create_map(res, levels, auto_prune=auto_prune)
    m.set_coarse(MortonCode(0, levels), m.config.clamp_min)
    n = 1 << levels
    for _ in range(max(1, n ** 3 // 500)):
        m.update_occupancy(encode(VoxelKey(*rng.integers(0, n, 3).tolist())).code,
                           m.config.clamp_max)
    for _ in range(levels - 1):
        depth = int(rng.integers(1, levels))
        key = (rng.integers(0, n, 3) >> depth) << depth
        m.set_coarse(MortonCode(encode(VoxelKey(*key.tolist())).code, depth), 0.0)
    return m


LINE_MAPS = {
    **MAPS,
    "sparse-binary-res": lambda: sparse_map(9, 0.25, 5),
    "sparse-binary-res-prune-off": lambda: sparse_map(10, 0.25, 5, auto_prune=False),
    "sparse-2-levels": lambda: sparse_map(11, 0.25, 2),
    "sparse-1-level": lambda: sparse_map(12, 0.5, 1),
}


def _node_box(geo, view):
    key = decode(MortonCode(view.code, view.depth))
    lo = np.array(geo.key_to_coord(VoxelKey(key.kx, key.ky, key.kz, 0))) - geo.resolution / 2
    return lo, lo + geo.res_at(view.depth)


def segments(m, rng):
    """(kind, p0, p1) triples: random, axis-aligned, through cell edges and
    corners, inside one cell, zero length, with endpoints on cell faces,
    integer coordinates, ending on an occupied node, and leaving, entering
    or crossing a uniform node above leaf depth. Endpoints are NumPy float
    arrays unless the kind says otherwise."""
    geo = m.geometry
    res = geo.resolution
    half = geo.half_extent
    lo = np.maximum(ROOM_LO - 1.0, -half * 0.999)
    hi = np.minimum(ROOM_HI + 1.0, half * 0.999)
    k_lo, k_hi = np.ceil(lo / res).astype(int), np.floor(hi / res).astype(int)
    out = []

    def point():
        return rng.uniform(lo, hi)

    def on_grid():
        return rng.integers(k_lo, k_hi + 1) * res

    for _ in range(40):
        out.append(("random", point(), point()))
    for _ in range(20):
        p0, p1 = point(), point()
        out.append(("python floats", tuple(p0.tolist()), tuple(p1.tolist())))
    for _ in range(30):
        p0, p1 = point(), point()
        keep = rng.choice(3, size=int(rng.integers(1, 3)), replace=False)
        p1[keep] = p0[keep]  # parallel to one axis or to one axis plane
        out.append(("axis-aligned", p0, p1))
    for _ in range(30):
        out.append(("edges and corners", on_grid(), on_grid()))
    for _ in range(30):
        p0, p1 = point(), point()
        p0[rng.integers(3)] = on_grid()[0]
        p1[rng.integers(3)] = on_grid()[1]
        out.append(("faces", p0, p1))
    bias = 1 << (geo.depth_levels - 1)
    for _ in range(20):
        corner = (rng.integers(0, 2 * bias, 3) - bias) * res
        out.append(("one cell", corner + rng.uniform(0.001, 0.999, 3) * res,
                    corner + rng.uniform(0.001, 0.999, 3) * res))
    for _ in range(10):
        p = point() if rng.random() < 0.5 else on_grid()
        out.append(("zero length", p, p.copy()))
    for _ in range(10):
        ints = rng.integers(np.ceil(lo).astype(int), np.floor(hi).astype(int) + 1, size=(2, 3))
        out.append(("integers", ints[0], ints[1]))
    box = Aabb(tuple(lo), tuple(hi))
    occupied = list(iterate_region(m, box, StateFilter(occupied=True)))
    for j in rng.permutation(len(occupied))[:20]:
        n_lo, n_hi = _node_box(geo, occupied[j])
        out.append(("occupied end", point(), rng.uniform(np.maximum(n_lo, lo), np.minimum(n_hi, hi))))
    coarse = [v for v in iterate_region(m, box, StateFilter(free=True, unknown=True))
              if v.depth > 0]
    for j in rng.permutation(len(coarse))[:30]:
        n_lo, n_hi = _node_box(geo, coarse[j])
        inside = rng.uniform(np.maximum(n_lo, lo), np.minimum(n_hi, hi))
        outside = point()
        out.append(("coarse node, leaving", inside, outside))
        out.append(("coarse node, entering", outside, inside))
        out.append(("coarse node, crossing", outside, np.clip(2 * inside - outside, lo, hi)))
    return out


@pytest.mark.parametrize("name", LINE_MAPS)
def test_line_collision_matches_reference(name):
    m = LINE_MAPS[name]()
    rng = np.random.default_rng(sum(map(ord, name)) + 1)
    hits = {}
    for kind, p0, p1 in segments(m, rng):
        for mode in MODES:
            want = line_collision_reference(m, p0, p1, mode)
            got = line_collision(m, p0, p1, mode)
            assert got is want, (name, kind, p0, p1, mode)
            counts = hits.setdefault(kind, [0, 0])
            counts[0] += got
            counts[1] += 1
    print(f"{name}: hits per kind " + ", ".join(f"{kind} {h}/{n}" for kind, (h, n) in hits.items()))


@pytest.mark.parametrize("res", [0.25, 0.1])
def test_segments_leaving_a_safe_coarse_node(res):
    """A free map with one occupied leaf right next to a face of a free
    node above leaf depth: a segment from inside that node hits the leaf
    as soon as it leaves the node, on either side of every axis."""
    levels = 6
    n = 1 << levels
    b = n // 2  # the free node holds keys [b, b + 4) per axis, or more
    for axis in range(3):
        for outside in (b - 1, b + 4):
            leaf = [b + 1] * 3
            leaf[axis] = outside
            m = create_map(res, levels)
            m.set_coarse(MortonCode(0, levels), m.config.clamp_min)
            m.update_occupancy(encode(VoxelKey(*leaf)).code, m.config.clamp_max)
            geo = m.geometry
            target = np.array(geo.key_to_coord(VoxelKey(*leaf)))
            rng = np.random.default_rng(axis * n + outside)
            lo = np.array(geo.key_to_coord(VoxelKey(b, b, b))) - res / 2
            for _ in range(20):
                start = rng.uniform(lo, lo + 4 * res)
                # to the leaf's centre, and on through it as far again
                for end in (target, 2.0 * target - start):
                    for mode in MODES:
                        assert line_collision(m, start, end, mode) is True, (leaf, start, end)
                        assert line_collision_reference(m, start, end, mode) is True
                        assert line_collision(m, end, start, mode) is True, (leaf, end, start)


@pytest.mark.parametrize("bad", [(0.0, 0.0), (0.0, 0.0, 0.0, 0.0), np.zeros(2), np.zeros(4)],
                         ids=["tuple-2", "tuple-4", "array-2", "array-4"])
def test_points_need_three_coordinates(bad):
    m = create_map(0.1, 8)
    ok = (0.05, 0.05, 0.05)
    message = f"3 coordinates, got {len(bad)}"
    with pytest.raises(ValueError, match=message):
        line_collision(m, bad, ok)
    with pytest.raises(ValueError, match=message):
        line_collision(m, ok, bad)
    with pytest.raises(ValueError, match=message):
        m.state_at(bad)
    with pytest.raises(ValueError, match=message):
        trace_ray_cells(bad, ok, m.geometry)
    with pytest.raises(ValueError, match=message):
        trace_ray_cells(ok, bad, m.geometry)
