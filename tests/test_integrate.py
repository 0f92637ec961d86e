"""Ray primitives and the three point-cloud integrators."""

import math

import numpy as np
import pytest

from occtree import (
    Aabb,
    IntegratorConfig,
    NodeState,
    OutOfExtentError,
    Scan,
    TreeGeometry,
    clamp_ray_to_region,
    coarse_free_samples,
    create_map,
    integrate,
    trace_ray_cells,
)
from occtree import _kernels
from occtree.integrate import _extent_box

from oracles import (
    dense_states,
    grid_cells_of_segment,
    map_bytes,
    trace_cells_reference,
    verify_tree,
)

GEO = TreeGeometry(0.1, 16)


# -- trace_ray_cells ------------------------------------------------------


def test_trace_same_cell_is_empty():
    assert trace_ray_cells((0.01, 0.01, 0.01), (0.09, 0.08, 0.02), GEO) == []


def test_trace_axis_aligned_example():
    cells = trace_ray_cells((0.05, 0.05, 0.05), (0.45, 0.05, 0.05), GEO)
    assert [(c.kx, c.ky, c.kz) for c in cells] == [
        (32769, 32768, 32768), (32770, 32768, 32768), (32771, 32768, 32768)]
    assert all(c.depth == 0 for c in cells)


def test_trace_validates_inputs():
    with pytest.raises(OutOfExtentError):
        trace_ray_cells((0, 0, 0), (9999.0, 0, 0), GEO)
    with pytest.raises(ValueError):
        trace_ray_cells((0, 0, 0), (1, 1, 1), GEO, depth=16)


@pytest.mark.parametrize("seed", range(4))
def test_trace_matches_midpoint_oracle(seed):
    rng = np.random.default_rng(seed)
    for _ in range(60):
        p0 = rng.uniform(-3.0, 3.0, size=3)
        p1 = rng.uniform(-3.0, 3.0, size=3)
        depth = int(rng.integers(0, 3))
        cells = trace_ray_cells(p0, p1, GEO, depth)
        got = [(c.kx >> depth, c.ky >> depth, c.kz >> depth) for c in cells]
        assert got == grid_cells_of_segment(p0, p1, GEO, depth)


def kernel_rays(rng, count: int):
    """Grid-frame segments with their start and end cells: random ones,
    axis-aligned ones, ones in an axis plane, ones with endpoints on integer
    corners, edges and faces, same-cell and zero-length ones, and short ones
    anywhere in the grid frame of a 16-level map."""
    for i in range(count):
        kind = i % 8
        o, e = rng.uniform(0.0, 24.0, size=3), rng.uniform(0.0, 24.0, size=3)
        if kind == 1:  # axis-aligned
            axis = rng.integers(0, 3)
            e = np.where(np.arange(3) == axis, e, o)
        elif kind == 2:  # in an axis plane, half of them on a cell face
            axis = rng.integers(0, 3)
            e[axis] = o[axis] = o[axis] if rng.random() < 0.5 else np.floor(o[axis])
        elif kind == 3:  # on integer corners, edges or faces
            for p in (o, e):
                snap = rng.random(3) < rng.choice([1 / 3, 2 / 3, 1.0])
                p[snap] = np.round(p[snap])
        elif kind == 4:  # same cell
            e = np.floor(o) + rng.random(3)
        elif kind == 5:  # zero length
            e = o.copy()
        elif kind == 6:  # integer endpoints: many exact ties
            o, e = np.round(o), np.round(e)
        elif kind == 7:  # 16 levels: 65536 cells per axis
            o = rng.uniform(40.0, 65496.0, size=3)
            e = o + rng.uniform(-40.0, 40.0, size=3)
        o, e = o.tolist(), e.tolist()
        yield (*o, *e, *(math.floor(v) for v in o), *(math.floor(v) for v in e))


def test_trace_cells_matches_reference():
    rng = np.random.default_rng(77)
    cells = 0
    for ray in kernel_rays(rng, 4000):
        got = _kernels.trace_cells(*ray)
        assert np.array_equal(got, trace_cells_reference(*ray)), ray
        assert got.dtype == np.int64 and got.shape == (len(got), 3)
        cells += len(got)
    assert cells > 10_000


def test_trace_is_ordered_and_connected():
    cells = trace_ray_cells((-1.23, 0.4, -0.9), (1.7, -1.1, 0.66), GEO)
    steps = np.diff([(c.kx, c.ky, c.kz) for c in cells], axis=0)
    assert (np.abs(steps).sum(axis=1) == 1).all()  # face-connected, one cell at a time


# -- coarse samples and clipping ------------------------------------------


def test_coarse_free_samples_examples():
    pts = coarse_free_samples((0, 0, 0), (1, 0, 0), 0.25, 1)
    assert pts[:, 0] == pytest.approx([0.0, 0.25, 0.5, 0.75])
    pts = coarse_free_samples((0, 0, 0), (1, 0, 0), 0.25, 0)
    assert pts[:, 0] == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    assert len(coarse_free_samples((0, 0, 0), (0.4, 0, 0), 0.25, 2)) == 0
    assert len(coarse_free_samples((1, 2, 3), (1, 2, 3), 0.25, 0)) == 0


@pytest.mark.parametrize("n", [-1, -5])
def test_coarse_free_samples_rejects_negative_n(n):
    with pytest.raises(ValueError, match="n must be"):
        coarse_free_samples((0, 0, 0), (1, 0, 0), 0.5, n)


def test_clamp_ray_examples():
    box = Aabb((0, 0, 0), (1, 1, 1))
    o, e = clamp_ray_to_region((-1, 0.5, 0.5), (0.5, 0.5, 0.5), box)
    assert o == pytest.approx([0.0, 0.5, 0.5])
    assert e == pytest.approx([0.5, 0.5, 0.5])
    o, e = clamp_ray_to_region((0.2, 0.2, 0.2), (0.8, 0.9, 0.3), box)
    assert o == pytest.approx([0.2, 0.2, 0.2]) and e == pytest.approx([0.8, 0.9, 0.3])
    assert clamp_ray_to_region((-2, 0.5, 0.5), (-1, 0.5, 0.5), box) is None


# -- integrators ----------------------------------------------------------


def centered_scan(geo, origin, raw_points):
    """Snap points to cell centers so simple and discrete coincide."""
    pts = [geo.key_to_coord(geo.coord_to_key(p)) for p in raw_points]
    return Scan(np.asarray(origin, dtype=float), np.array(pts))


def test_simple_equals_discrete_at_cell_centers():
    scan = centered_scan(GEO, (0.02, 0.03, 0.01), [(1.0, 0.5, -0.3)])
    a = create_map(0.1, 16)
    b = create_map(0.1, 16)
    integrate(a, scan, IntegratorConfig(method="simple"))
    integrate(b, scan, IntegratorConfig(method="discrete"))
    assert map_bytes(a) == map_bytes(b)


def test_discrete_equals_simple_on_deduplicated_centers():
    rng = np.random.default_rng(9)
    pts = rng.uniform(-2.0, 2.0, size=(40, 3))
    pts = np.vstack([pts, pts[:10] + 0.001])  # force duplicate endpoint cells
    origin = (0.03, -0.02, 0.04)
    a = create_map(0.1, 16)
    integrate(a, Scan(np.array(origin), pts), IntegratorConfig(method="discrete"))
    # oracle: simple integration of first-per-cell unique cell centers
    seen, centers = set(), []
    for p in pts:
        k = GEO.coord_to_key(p)
        if k not in seen:
            seen.add(k)
            centers.append(GEO.key_to_coord(k))
    b = create_map(0.1, 16)
    integrate(b, Scan(np.array(origin), np.array(centers)),
              IntegratorConfig(method="simple"))
    assert map_bytes(a) == map_bytes(b)


def test_fast_d0_n0_identical_to_discrete():
    rng = np.random.default_rng(21)
    scan = Scan(np.array([0.1, 0.2, -0.1]), rng.uniform(-3.0, 3.0, size=(60, 3)))
    a = create_map(0.1, 16)
    b = create_map(0.1, 16)
    ra = integrate(a, scan, IntegratorConfig(method="discrete"))
    rb = integrate(b, scan, IntegratorConfig(method="fast_discrete", fast_n=0, fast_depth=0))
    assert map_bytes(a) == map_bytes(b)
    assert (ra.rays_traced, ra.cells_freed, ra.cells_occupied) == \
        (rb.rays_traced, rb.cells_freed, rb.cells_occupied)


def test_integrate_is_deterministic():
    rng = np.random.default_rng(33)
    scan = Scan(np.zeros(3) + 0.01, rng.uniform(-2.0, 2.0, size=(50, 3)))
    blobs = []
    for _ in range(2):
        m = create_map(0.1, 16)
        integrate(m, scan, IntegratorConfig(method="fast_discrete", fast_n=1, fast_depth=2))
        blobs.append(map_bytes(m))
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_wall_scene_never_frees_behind_endpoints(n, d):
    m = create_map(0.25, 6)  # extent 16 m, half 8 m
    origin = np.array([-2.0, 0.1, 0.1])
    ys = np.arange(-1.5, 1.51, 0.25)
    pts = np.array([(2.0 + 0.125, y, z) for y in ys for z in ys])
    integrate(m, Scan(origin, pts),
              IntegratorConfig(method="fast_discrete", fast_n=n, fast_depth=d))
    states = dense_states(m)
    wall_idx = m.geometry.coord_to_key((2.0 + 0.125, 0, 0)).kx
    assert not (states[wall_idx + 1:] == 0).any()  # nothing beyond the wall is free
    for p in pts:
        k = m.geometry.coord_to_key(p)
        assert states[k.kx, k.ky, k.kz] == 2  # endpoints occupied
    assert not verify_tree(m)


def test_region_restricts_changes():
    region = Aabb((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
    m = create_map(0.1, 8)
    rng = np.random.default_rng(41)
    scan = Scan(np.array([0.05, 0.05, 0.05]), rng.uniform(-3.0, 3.0, size=(40, 3)))
    integrate(m, scan, IntegratorConfig(method="fast_discrete", fast_n=1,
                                        fast_depth=2, region=region))
    states = dense_states(m)
    geo = m.geometry
    bias = 1 << (geo.depth_levels - 1)
    changed = np.argwhere(states != 1)
    for kx, ky, kz in changed:
        lo = ((kx - bias) * geo.resolution, (ky - bias) * geo.resolution,
              (kz - bias) * geo.resolution)
        hi = (lo[0] + geo.resolution, lo[1] + geo.resolution, lo[2] + geo.resolution)
        assert region.intersects_box(lo, hi)


def test_max_range_truncates_to_free_only():
    m = create_map(0.1, 8)
    scan = Scan(np.zeros(3) + 0.05, np.array([[3.05, 0.05, 0.05]]))
    result = integrate(m, scan, IntegratorConfig(method="discrete", max_range=1.0))
    states = dense_states(m)
    assert not (states == 2).any()  # truncated ray applies no hit
    assert (states == 0).any()
    assert result.cells_occupied == 0


@pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan])
def test_config_rejects_max_range_not_above_zero(bad):
    with pytest.raises(ValueError, match="max_range"):
        IntegratorConfig(method="discrete", max_range=bad)


@pytest.mark.parametrize("bad", [1.5, 1.0, "1", None])
@pytest.mark.parametrize("name", ["fast_n", "fast_depth"])
def test_config_rejects_fast_n_and_fast_depth_that_are_not_integers(name, bad):
    with pytest.raises(TypeError):
        IntegratorConfig(method="fast_discrete", **{name: bad})


def test_config_takes_numpy_integers_as_ints():
    config = IntegratorConfig("fast_discrete", np.int64(1), np.uint8(2))
    assert (type(config.fast_n), type(config.fast_depth)) == (int, int)
    maps = [create_map(0.1, 5), create_map(0.1, 5)]
    scan = Scan(np.zeros(3) + 0.05, np.random.default_rng(3).uniform(-1.5, 1.5, size=(40, 3)))
    integrate(maps[0], scan, config)
    integrate(maps[1], scan, IntegratorConfig("fast_discrete", 1, 2))
    assert map_bytes(maps[0]) == map_bytes(maps[1])


@pytest.mark.parametrize("method", ["simple", "discrete", "fast_discrete"])
def test_fast_depth_not_below_levels_raises_before_any_change(method):
    m = create_map(0.1, 4)
    before = map_bytes(m)
    scan = Scan(np.zeros(3) + 0.05, np.array([[0.55, 0.05, 0.05]]))
    with pytest.raises(ValueError, match="fast_depth"):
        integrate(m, scan, IntegratorConfig(method=method, fast_depth=4))
    assert map_bytes(m) == before
    integrate(m, scan, IntegratorConfig(method=method, fast_depth=3))


def test_hit_cell_sets_are_method_invariant():
    rng = np.random.default_rng(55)
    scan = Scan(np.array([0.02, 0.01, 0.03]), rng.uniform(-2.5, 2.5, size=(50, 3)))
    occupied = []
    for cfg in (IntegratorConfig(method="simple"),
                IntegratorConfig(method="discrete"),
                IntegratorConfig(method="fast_discrete", fast_n=1, fast_depth=2)):
        m = create_map(0.25, 5)
        integrate(m, scan, cfg)
        occupied.append(set(map(tuple, np.argwhere(dense_states(m) == 2))))
    assert occupied[0] == occupied[1] == occupied[2]


def test_scan_color_length_mismatch():
    with pytest.raises(ValueError):
        Scan(np.zeros(3), np.zeros((3, 3)), colors=np.zeros((2, 3)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 256.0, 255.5])
def test_scan_rejects_colors_outside_0_255(bad):
    with pytest.raises(ValueError, match="0..255"):
        Scan(np.zeros(3), np.ones((2, 3)), colors=[[0, 0, 0], [0, bad, 0]])
    Scan(np.zeros(3), np.ones((2, 3)), colors=[[0, 0, 0], [255, 0.5, 0]])


def test_origin_outside_extent_raises():
    m = create_map(0.1, 4)
    with pytest.raises(OutOfExtentError):
        integrate(m, Scan(np.array([99.0, 0, 0]), np.zeros((1, 3))),
                  IntegratorConfig())


def test_colored_hits_reach_leaves():
    m = create_map(0.1, 6, store_color=True)
    scan = Scan(np.zeros(3) + 0.05, np.array([[1.05, 0.05, 0.05]]),
                colors=np.array([[10, 200, 30]]))
    integrate(m, scan, IntegratorConfig(method="discrete"))
    assert m.state_at((1.05, 0.05, 0.05)).color == (10, 200, 30)


def test_nonfinite_points_are_dropped_and_counted():
    rng = np.random.default_rng(8)
    points = rng.uniform(-2.5, 2.5, size=(30, 3))
    colors = rng.integers(0, 256, size=(30, 3))
    bad = np.array([[np.nan, 0.5, 0.5], [np.inf, 0.0, 0.0], [0.3, -np.inf, 0.2]])
    for cfg in (IntegratorConfig(method="simple"),
                IntegratorConfig(method="fast_discrete", fast_n=1, fast_depth=2)):
        clean, dirty = create_map(0.25, 5, store_color=True), create_map(0.25, 5, store_color=True)
        integrate(clean, Scan(np.zeros(3), points, colors), cfg)
        result = integrate(dirty, Scan(np.zeros(3), np.vstack([bad[:1], points[:10], bad[1:], points[10:]]),
                                       np.vstack([colors[:1], colors[:10], colors[:2], colors[10:]])), cfg)
        assert result.points_nonfinite == 3
        assert map_bytes(dirty) == map_bytes(clean)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_origin_raises(bad):
    m = create_map(0.1, 4)
    with pytest.raises(OutOfExtentError):
        integrate(m, Scan(np.array([0.0, bad, 0.0]), np.zeros((1, 3))), IntegratorConfig())


def test_endpoints_clipped_onto_the_extent_boundary_are_kept_inside():
    # origin + t * d, clipped to the extent, can round to exactly the half
    # width; the scan used to abort with OutOfExtentError
    rounded_out = 0
    for seed in range(60):
        rng = np.random.default_rng(seed)
        m = create_map(0.1, 6)
        origin = rng.uniform(-3.0, 3.0, size=3)
        points = rng.uniform(3.1, 4.0, size=(80, 3)) * rng.choice([-1.0, 1.0], size=(80, 3))
        half = m.geometry.half_extent
        for p in points:
            _, e = clamp_ray_to_region(origin, p, _extent_box(m.geometry))
            rounded_out += bool((np.abs(e) >= half).any())
        integrate(m, Scan(origin, points), IntegratorConfig(method="discrete"))
        assert not verify_tree(m)
    assert rounded_out > 0


def test_region_outside_the_extent_is_a_value_error():
    m = create_map(0.1, 4)  # extent +-0.8 m
    scan = Scan(np.zeros(3), np.array([[0.5, 0.1, 0.1]]))
    region = Aabb((1.0, 1.0, 1.0), (2.0, 2.0, 2.0))
    with pytest.raises(ValueError, match=r"region \(1\.0, 1\.0, 1\.0\)\.\.\(2\.0, 2\.0, 2\.0\).*extent"):
        integrate(m, scan, IntegratorConfig(region=region))
    assert m.tree_stats().total == 1  # nothing was written
