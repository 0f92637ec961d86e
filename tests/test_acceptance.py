"""Acceptance gate: one test per headline criterion.

Each test is independent and prints a summary line; run with ``pytest -v``
to get one pass/fail line per criterion.
"""

import io
import math
import statistics
import threading
import time
import warnings

import numpy as np
import pytest

from occtree import (
    Aabb,
    IntegratorConfig,
    MortonCode,
    NodeState,
    Scan,
    SensorModel,
    Sphere,
    StateFilter,
    TreeGeometry,
    VoxelKey,
    create_map,
    integrate,
    iterate_region,
    line_collision,
    region_collision,
    info_gain,
)
from occtree.core import _f32
from occtree.io import read_map, write_map
from occtree.morton import child_index, decode, decode_batch, encode, encode_batch

from oracles import (
    dense_states,
    dense_values,
    flat_gain_oracle,
    midpoint_segment_cells,
    naive_morton_encode_batch,
    random_ops,
    verify_tree,
)


def map_bytes(m):
    buf = io.BytesIO()
    write_map(m, buf)
    return buf.getvalue()


def test_criterion_01_morton_bijection_1e6_keys_under_5s():
    rng = np.random.default_rng(42)
    keys = rng.integers(0, 1 << 21, size=(3, 1_000_000), dtype=np.uint64)
    t0 = time.perf_counter()
    codes = encode_batch(keys[0], keys[1], keys[2])
    dx, dy, dz = decode_batch(codes)
    elapsed = time.perf_counter() - t0
    assert np.array_equal(dx, keys[0])
    assert np.array_equal(dy, keys[1])
    assert np.array_equal(dz, keys[2])
    assert np.array_equal(codes, naive_morton_encode_batch(keys[0], keys[1], keys[2]))
    assert elapsed < 5.0
    print(f"criterion 1: PASS (1e6 keys round-tripped and matched the naive "
          f"oracle in {elapsed:.3f} s)")


def test_criterion_02_descent_reaches_coord_cell():
    geo = TreeGeometry(0.1, 16)
    rng = np.random.default_rng(1)
    coords = rng.uniform(-geo.half_extent * 0.999, geo.half_extent * 0.999,
                         size=(10_000, 3))
    for c in coords:
        key = geo.coord_to_key(c)
        code = encode(key).code
        kx = ky = kz = 0
        for level in range(geo.depth_levels - 1, -1, -1):
            idx = child_index(code, level)
            kx |= (idx & 1) << level
            ky |= ((idx >> 1) & 1) << level
            kz |= ((idx >> 2) & 1) << level
        assert (kx, ky, kz) == (key.kx, key.ky, key.kz)
    print("criterion 2: PASS (10^4 root-to-leaf descents landed on the exact cell)")


def test_criterion_03_depth21_extent_arithmetic():
    assert TreeGeometry(0.001, 21).extent == 2097.152
    print("criterion 3: PASS (levels=21, res=0.001 -> extent 2097.152 m exact)")


def _discrete_oracle_fuse(values, cfg, origin, points, res, bias):
    """Independent dense-grid fusion replaying the discrete integrator."""
    def cell_of(p):
        return (math.floor(p[0] / res) + bias, math.floor(p[1] / res) + bias,
                math.floor(p[2] / res) + bias)

    def apply(cell, delta):
        v = values.get(cell, 0.0)
        values[cell] = _f32(min(max(v + delta, cfg.clamp_min), cfg.clamp_max))

    order = []
    seen = set()
    for p in points:
        c = cell_of(p)
        if c not in seen:
            seen.add(c)
            order.append(c)
    for c in order:
        center = ((c[0] - bias + 0.5) * res, (c[1] - bias + 0.5) * res,
                  (c[2] - bias + 0.5) * res)
        for cell in midpoint_segment_cells(origin, center, res):
            apply((cell[0] + bias, cell[1] + bias, cell[2] + bias), cfg.log_miss)
    for c in order:
        apply(c, cfg.log_hit)


def test_criterion_04_discrete_matches_dense_oracle_and_fast_d0_n0():
    levels, res = 6, 0.25
    bias = 1 << (levels - 1)
    n_scans = 0
    for map_seed in range(4):
        rng = np.random.default_rng(1000 + map_seed)
        m_discrete = create_map(res, levels)
        m_fast = create_map(res, levels)
        oracle = {}
        for _ in range(5):
            n_scans += 1
            origin = rng.uniform(-2.0, 2.0, size=3)
            points = rng.uniform(-6.0, 6.0, size=(30, 3))
            scan = Scan(origin, points)
            integrate(m_discrete, scan, IntegratorConfig(method="discrete"))
            integrate(m_fast, scan, IntegratorConfig(method="fast_discrete",
                                                     fast_n=0, fast_depth=0))
            _discrete_oracle_fuse(oracle, m_discrete.config, origin, points, res, bias)
        got = dense_values(m_discrete)
        want = np.zeros_like(got)
        for (kx, ky, kz), v in oracle.items():
            want[kx, ky, kz] = v
        assert np.array_equal(got, want)  # per-cell fusion identical, bit for bit
        assert map_bytes(m_discrete) == map_bytes(m_fast)
    assert n_scans == 20
    print("criterion 4: PASS (20 scans: discrete == dense oracle exactly; "
          "fast n=0,d=0 byte-identical to discrete)")


def test_criterion_05_no_clearing_behind_endpoints():
    levels, res = 6, 0.25
    origin = np.array([-2.0, 0.1, 0.1])
    ys = np.arange(-1.5, 1.51, 0.25)
    pts = np.array([(2.0 + 0.125, y, z) for y in ys for z in ys])
    for n in (0, 1, 2):
        for d in (0, 1, 2, 3):
            m = create_map(res, levels)
            integrate(m, Scan(origin, pts),
                      IntegratorConfig(method="fast_discrete", fast_n=n, fast_depth=d))
            states = dense_states(m)
            bias = 1 << (levels - 1)
            for p in pts:
                end_cell = tuple(math.floor(p[j] / res) + bias for j in range(3))
                assert states[end_cell] == 2  # endpoint occupied
                direction = (p - origin) / np.linalg.norm(p - origin)
                far = p + 1.5 * direction
                for cell in midpoint_segment_cells(p, far, res, include_ends=True):
                    c = (cell[0] + bias, cell[1] + bias, cell[2] + bias)
                    if c == end_cell:
                        continue
                    assert states[c] != 0, f"freed behind endpoint at n={n}, d={d}"
    print("criterion 5: PASS (no cell beyond any endpoint freed for "
          "n in {0,1,2} x d in {0,1,2,3})")


def test_criterion_06_invariants_under_1e5_fuzz_ops():
    total = 0
    for auto_prune, seed in ((True, 7), (False, 8)):
        m = create_map(0.5, 4, auto_prune=auto_prune)
        rng = np.random.default_rng(seed)
        for _ in range(10):
            random_ops(m, rng, 5_000)
            total += 5_000
            assert verify_tree(m) == []
    assert total == 100_000
    print("criterion 6: PASS (10^5 fuzz ops, zero invariant violations)")


def test_criterion_07_prune_transparency():
    m = create_map(0.2, 5, auto_prune=False)
    random_ops(m, np.random.default_rng(9), 2_000)
    rng = np.random.default_rng(10)
    coords = rng.uniform(-3.1, 3.1, size=(10_000, 3))
    before = [m.state_at(c).state for c in coords]
    m.prune()
    after = [m.state_at(c).state for c in coords]
    assert before == after

    m2 = create_map(0.1, 8, auto_prune=False)
    base = m2.geometry.coord_to_key((1.0, 1.0, 1.0), 3)
    for idx in range(512):
        k = VoxelKey(base.kx | (idx & 7), base.ky | ((idx >> 3) & 7),
                     base.kz | (idx >> 6), 0)
        for _ in range(8):
            m2.update_occupancy(encode(k).code, m2.config.log_miss)
    m2.prune()
    assert m2.get_node(encode(base).code).depth == 3  # depth-3 region is one node
    print("criterion 7: PASS (10^4 states unchanged by prune; uniform depth-3 "
          "fill collapsed to a single node)")


def _volume_touch_mask(geo, volume):
    """Vectorized closed-box intersection oracle over the full leaf grid."""
    n = 1 << geo.depth_levels
    bias = n // 2
    edges = (np.arange(n + 1) - bias) * geo.resolution
    if isinstance(volume, Aabb):
        per_axis = [(edges[:-1] <= volume.hi[j]) & (volume.lo[j] <= edges[1:])
                    for j in range(3)]
        return (per_axis[0][:, None, None] & per_axis[1][None, :, None]
                & per_axis[2][None, None, :])
    parts = []
    for j in range(3):
        below = np.maximum(edges[:-1] - volume.center[j], 0.0)
        above = np.maximum(volume.center[j] - edges[1:], 0.0)
        parts.append(np.maximum(below, above) ** 2)
    d2 = parts[0][:, None, None] + parts[1][None, :, None] + parts[2][None, None, :]
    return d2 <= volume.radius * volume.radius


STATE_CODE = {"free": 0, "unknown": 1, "occupied": 2}


def test_criterion_08_query_oracle_equivalence():
    maps = []
    for seed in range(4):
        m = create_map(0.2, 5)
        random_ops(m, np.random.default_rng(2000 + seed), 400)
        maps.append((m, dense_states(m)))
    geo = maps[0][0].geometry
    rng = np.random.default_rng(77)

    # 10^4 spheres, both modes, including the 0.25 m operating radius
    for i in range(10_000):
        m, states = maps[i % 4]
        sphere = Sphere(tuple(rng.uniform(-3.1, 3.1, size=3)),
                        0.25 if i % 2 == 0 else float(rng.uniform(0.05, 1.0)))
        touch = _volume_touch_mask(geo, sphere)
        assert region_collision(m, sphere, "conservative") == \
            bool((touch & (states != 0)).any())
        assert region_collision(m, sphere, "occupied_only") == \
            bool((touch & (states == 2)).any())

    # 10^4 segments, both modes, against a per-cell oracle
    bias = 1 << (geo.depth_levels - 1)
    for i in range(10_000):
        m, states = maps[i % 4]
        p0 = rng.uniform(-3.1, 3.1, size=3)
        p1 = rng.uniform(-3.1, 3.1, size=3)
        hit_occ = hit_cons = False
        for cell in midpoint_segment_cells(p0, p1, geo.resolution, include_ends=True):
            s = states[cell[0] + bias, cell[1] + bias, cell[2] + bias]
            hit_occ = hit_occ or s == 2
            hit_cons = hit_cons or s != 0
        assert line_collision(m, p0, p1, "conservative") == hit_cons
        assert line_collision(m, p0, p1, "occupied_only") == hit_occ

    # 10^3 volume/filter iteration combos against the flat-scan oracle
    n = 1 << geo.depth_levels
    for i in range(1_000):
        m, states = maps[i % 4]
        if rng.random() < 0.5:
            c = rng.uniform(-2.5, 2.5, size=3)
            ext = rng.uniform(0.2, 2.0, size=3)
            volume = Aabb(tuple(c - ext), tuple(c + ext))
        else:
            volume = Sphere(tuple(rng.uniform(-2.5, 2.5, size=3)),
                            float(rng.uniform(0.2, 2.0)))
        flags = {}
        while not any(flags.values()):
            flags = {s: bool(rng.integers(0, 2)) for s in ("occupied", "free", "unknown")}
        wanted = [STATE_CODE[s] for s, on in flags.items() if on]
        touch = _volume_touch_mask(geo, volume)
        covered = np.zeros((n, n, n), dtype=bool)
        for v in iterate_region(m, volume, StateFilter(**flags)):
            k = decode(MortonCode(v.code, v.depth))
            size = 1 << v.depth
            sl = np.s_[k.kx:k.kx + size, k.ky:k.ky + size, k.kz:k.kz + size]
            assert (states[sl] == STATE_CODE[str(v.state)]).all()
            assert STATE_CODE[str(v.state)] in wanted
            assert touch[sl].any()  # the node's cell intersects the volume
            covered[sl] = True
        missing = np.isin(states, wanted) & touch & ~covered
        assert not missing.any()
    print("criterion 8: PASS (10^4 spheres, 10^4 segments, 10^3 iteration "
          "combos all matched flat-scan oracles)")


def test_criterion_09_info_gain_oracle_and_agreement():
    # occluded 32^3 scene: corridor freed, wall occupied, rest unknown
    m = create_map(0.2, 5)
    ys = np.arange(-0.9, 0.91, 0.2)
    pts = np.array([(1.1, y, z) for y in ys for z in ys])
    integrate(m, Scan(np.array([-0.9, 0.1, 0.1]), pts),
              IntegratorConfig(method="discrete"))
    deviations = []
    # generic off-lattice poses: on-boundary sensors make ray grazing ambiguous
    for sensor in (SensorModel((-0.913, 0.0741, 0.1117), r_max=3.0),
                   SensorModel((0.1234, -0.2871, 0.0913), r_max=2.5),
                   SensorModel((-0.5091, 0.4733, -0.3077), r_max=2.0)):
        flat = info_gain(m, sensor, "flat")
        assert flat == flat_gain_oracle(m, sensor)
        exact = info_gain(m, sensor, "exact")
        fast = info_gain(m, sensor, "fast")
        deviations.append((flat, exact, fast))

    # occlusion-free scene: all three variants agree exactly
    m2 = create_map(0.2, 5)
    m2.set_coarse(MortonCode(encode(m2.geometry.coord_to_key((-1, -1, -1), 3)).code, 3),
                  m2.config.clamp_min)
    for sensor in (SensorModel((0.1, 0.1, 0.1), r_max=2.0),
                   SensorModel((-0.7, -0.7, -0.7), r_max=2.5)):
        flat = info_gain(m2, sensor, "flat")
        assert flat == info_gain(m2, sensor, "exact") == info_gain(m2, sensor, "fast")
    print("criterion 9: PASS (flat == per-cell oracle on occluded scenes; "
          f"variants agree occlusion-free; (flat, exact, fast) = {deviations})")


def test_criterion_10_fast_integrator_is_faster_soft():
    levels, res = 7, 0.1
    origin = np.array([-3.0, 0.05, 0.05])
    rng = np.random.default_rng(5)
    ys = rng.uniform(-2.0, 2.0, size=(150, 2))
    pts = np.array([(3.0 + 0.05, y, z) for y, z in ys])
    scan = Scan(origin, pts)

    def run(cfg):
        times = []
        for _ in range(20):
            m = create_map(res, levels)
            r = integrate(m, scan, cfg)
            times.append(r.raytrace_s + r.insert_s)
        return statistics.median(times)

    t_discrete = run(IntegratorConfig(method="discrete"))
    t_fast = run(IntegratorConfig(method="fast_discrete", fast_n=0, fast_depth=4))
    assert t_discrete > 0 and t_fast > 0
    msg = (f"criterion 10: median over 20 runs on a 128^3 scene: "
           f"fast(n=0,d=4) {t_fast * 1e3:.2f} ms vs discrete {t_discrete * 1e3:.2f} ms")
    if t_fast < t_discrete:
        print(msg + " — PASS")
    else:
        # soft criterion: log, do not fail the functional suite
        warnings.warn(msg + " — ordering not met on this machine")


def test_criterion_11_concurrent_writer_and_readers():
    m = create_map(0.2, 5, auto_prune=False)
    cfg = m.config
    geo = m.geometry
    h = geo.half_extent
    box = Aabb((-h, -h, -h), (h, h, h))
    stop = threading.Event()
    errors = []
    reads = [0] * 4

    def writer():
        rng = np.random.default_rng(99)
        try:
            while not stop.is_set():
                origin = rng.uniform(-1.0, 1.0, size=3)
                points = rng.uniform(-3.0, 3.0, size=(20, 3))
                integrate(m, Scan(origin, points), IntegratorConfig(method="discrete"))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(f"writer: {exc!r}")

    def reader(i):
        flt = StateFilter.all_states() if i % 2 == 0 else \
            StateFilter(unknown=True, contains_unknown=True)
        try:
            while not stop.is_set():
                for view in iterate_region(m, box, flt):
                    if not (0 <= view.depth <= geo.depth_levels):
                        errors.append(f"reader {i}: bad depth {view.depth}")
                    v = view.value
                    ok = cfg.clamp_min <= v <= cfg.clamp_max or v == cfg.prior_log_odds
                    if not ok:
                        errors.append(f"reader {i}: unclamped value {v}")
                    if view.state is not m.state_of(v):
                        errors.append(f"reader {i}: inconsistent state")
                    reads[i] += 1
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(f"reader {i}: {exc!r}")

    threads = [threading.Thread(target=writer)]
    threads += [threading.Thread(target=reader, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    time.sleep(10.0)
    stop.set()
    for t in threads:
        t.join(timeout=30.0)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert all(c > 0 for c in reads)
    assert m.reader_allsame_descents == 0
    print(f"criterion 11: PASS (10 s, 1 writer + 4 readers, "
          f"{sum(reads)} consistent views, 0 all-same descents)")


def test_criterion_12_serialization_roundtrip_and_invariants():
    for seed, auto_prune in ((0, True), (1, True), (2, False)):
        m = create_map(0.2, 5, auto_prune=auto_prune)
        random_ops(m, np.random.default_rng(3000 + seed), 500)
        blob = map_bytes(m)
        loaded = read_map(io.BytesIO(blob))
        loaded.auto_prune = auto_prune  # not part of the file format
        assert map_bytes(loaded) == blob
        assert verify_tree(loaded) == []
        assert np.array_equal(dense_values(loaded), dense_values(m))
    print("criterion 12: PASS (write-read-write byte-identical; loaded maps "
          "pass the full invariant check)")
