"""Tree writes (leaf batches, coarse writes, prunes) against the
per-operation references."""

import numpy as np
import pytest

from occtree import IntegratorConfig, MortonCode, OccupancyMap, Scan, create_map, integrate
from occtree.volumes import Aabb

from oracles import (
    PerOpMap,
    map_bytes,
    per_op_update,
    prune_reference,
    random_ops,
    room_scan,
    set_coarse_reference,
    verify_tree,
)

METHODS = [
    IntegratorConfig(method="simple"),
    IntegratorConfig(method="discrete"),
    IntegratorConfig(method="fast_discrete", fast_n=1, fast_depth=3),
    IntegratorConfig(method="fast_discrete", fast_n=0, fast_depth=2),
]


def random_scans(seed, count=4, points=60):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield Scan(rng.uniform(-1.0, 1.0, size=3), rng.uniform(-3.0, 3.0, size=(points, 3)),
                   rng.integers(0, 256, size=(points, 3)))


@pytest.mark.parametrize("color", [False, True])
@pytest.mark.parametrize("auto_prune", [True, False])
@pytest.mark.parametrize("max_range", [None, 1.5])
@pytest.mark.parametrize("method", METHODS, ids=lambda c: f"{c.method}-n{c.fast_n}-d{c.fast_depth}")
def test_integrate_matches_per_op_reference(method, max_range, auto_prune, color):
    config = IntegratorConfig(method.method, method.fast_n, method.fast_depth,
                              max_range=max_range)
    batched = create_map(0.1, 6, auto_prune=auto_prune, store_color=color)
    reference = PerOpMap(0.1, 6, auto_prune=auto_prune, store_color=color)
    for scan in random_scans(seed=11):
        if not color:
            scan.colors = None
        integrate(batched, scan, config)
        integrate(reference, scan, config)
    assert map_bytes(batched) == map_bytes(reference)
    assert verify_tree(batched) == []


def test_color_with_auto_prune_applies_batch_leaf_by_leaf():
    # Deferring the collapse would differ here: after the misses on leaves
    # 1..7 the block of leaves 0..7 is all-same and collapses, copying leaf
    # 0's color into its parent, which keeps it once leaf 0's miss expands
    # the block again; write_map writes that inner color.
    maps = [create_map(0.1, 2, store_color=True), PerOpMap(0.1, 2, store_color=True)]
    for m in maps:
        cfg = m.config
        m.update_occupancy(0, cfg.log_miss)
        for i in range(8):
            m.update_occupancy(i, cfg.log_hit, (255, 128, 0))
        m.update_occupancy([1, 2, 3, 4, 5, 6, 7, 0], cfg.log_miss)
    assert map_bytes(maps[0]) == map_bytes(maps[1])
    assert maps[0].root.children[0].color == (255.0, 128.0, 0.0)


@pytest.mark.parametrize("store_color", [True, False])
@pytest.mark.parametrize("auto_prune", [True, False])
def test_batch_after_a_collapse_resumes_above_it(auto_prune, store_color):
    # Painting all 64 leaves alike collapses the whole tree at leaf 63 (at
    # once on a map that stores color with auto-prune on); the writes after
    # it, to the same leaf and to a sibling, must descend from the root
    # again, not from the nodes the collapse detached.
    maps = [create_map(0.1, 2, auto_prune=auto_prune, store_color=store_color),
            PerOpMap(0.1, 2, auto_prune=auto_prune, store_color=store_color)]
    codes = list(range(64)) + [63, 62, 0]
    for m in maps:
        m.update_occupancy(codes, m.config.log_hit, [(9, 9, 9)] * len(codes))
        m.update_occupancy([5, 5], m.config.log_miss)
    assert map_bytes(maps[0]) == map_bytes(maps[1])
    assert verify_tree(maps[0]) == []


@pytest.mark.parametrize("code", [int(0o1234), np.int64(0o1234), MortonCode(0o1234, 0)],
                         ids=["int", "int64", "MortonCode"])
@pytest.mark.parametrize("auto_prune", [True, False])
def test_single_leaf_forms_match_reference(code, auto_prune):
    batched = create_map(0.1, 4, auto_prune=auto_prune)
    reference = create_map(0.1, 4, auto_prune=auto_prune)
    cfg = batched.config
    for delta in (cfg.log_hit, cfg.log_miss, cfg.log_miss, cfg.log_miss):
        assert batched.update_occupancy(code, delta) is per_op_update(reference, code, delta)
        assert map_bytes(batched) == map_bytes(reference)


@pytest.mark.parametrize("batch", [np.array([0, 9, 200]), np.array([0, 9, 200], dtype=np.uint64),
                                   [np.int64(0), 9, np.uint32(200)]],
                         ids=["int64-array", "uint64-array", "mixed-list"])
@pytest.mark.parametrize("auto_prune", [True, False])
def test_numpy_integer_batches_match_int_batches(batch, auto_prune):
    batched = create_map(0.1, 3, auto_prune=auto_prune)
    ints = create_map(0.1, 3, auto_prune=auto_prune)
    delta = ints.config.log_miss
    assert batched.update_occupancy(batch, delta) is ints.update_occupancy([0, 9, 200], delta)
    assert map_bytes(batched) == map_bytes(ints)
    assert verify_tree(batched) == []


@pytest.mark.parametrize("batch", [[0.0, 9.0], [0, 9, 2.5], np.array([0.0, 1.0]), [0, None],
                                   ["0"]])
def test_non_integer_batch_is_rejected_before_any_change(batch):
    m = create_map(0.1, 3)
    before = map_bytes(m)
    with pytest.raises(TypeError):
        m.update_occupancy(batch, m.config.log_miss)
    assert map_bytes(m) == before
    assert verify_tree(m) == []


def test_empty_batch_is_a_no_op():
    m = create_map(0.1, 4)
    before = map_bytes(m)
    assert m.update_occupancy([], m.config.log_hit) is None
    assert map_bytes(m) == before


def test_inner_refreshed_counts_distinct_ancestors():
    class Recording(OccupancyMap):
        def update_occupancy(self, code, delta, color=None):
            batches.append((delta, list(code)))
            return super().update_occupancy(code, delta, color)

    batches = []
    m = Recording(0.1, 6, auto_prune=False)
    levels = m.geometry.depth_levels
    scan = next(random_scans(seed=5))
    result = integrate(m, scan, IntegratorConfig(method="discrete"))

    assert [delta for delta, _ in batches] == [m.config.log_miss, m.config.log_hit]
    misses, hits = batches[0][1], batches[1][1]
    assert (len(misses), len(hits)) == (result.cells_freed, result.cells_occupied)

    def ancestors(codes):
        return {(code >> (3 * d), d) for code in codes for d in range(1, levels + 1)}

    assert result.inner_refreshed == len(ancestors(misses)) + len(ancestors(hits))
    assert result.inner_refreshed < (len(misses) + len(hits)) * levels


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("levels, auto_prune, coarse_values", [
    (3, False, (-2.0, 4.0)),
    (4, False, (-2.0, 4.0)),
    (3, True, (-2.0, 0.0)),  # no coarse value classifies occupied
    (4, True, (-2.0, 0.0)),
    (3, True, (-2.0, 4.0)),
    (4, True, (-2.0, 4.0)),
])
def test_writes_match_references(levels, auto_prune, coarse_values, seed):
    # An occupied coarse value with auto-prune on collapses nodes inside the
    # target cell, which the reference leaves to a prune: there only the
    # maps are compared, after a prune_reference that follows each coarse
    # write. Otherwise the refresh counts match too.
    exact = not auto_prune or coarse_values[1] <= 0.0
    rng = np.random.default_rng(seed)
    lib = create_map(0.25, levels, auto_prune=auto_prune)
    ref = create_map(0.25, levels, auto_prune=auto_prune)
    cfg = lib.config
    for _ in range(300):
        op = rng.random()
        if op < 0.6:
            code = int(rng.integers(0, 8 ** levels))
            delta = cfg.log_hit if rng.random() < 0.5 else cfg.log_miss
            assert lib.update_occupancy(code, delta) is per_op_update(ref, code, delta)
        elif op < 0.9:
            depth = int(rng.integers(1, levels + 1))
            code = MortonCode(int(rng.integers(0, 8 ** (levels - depth))) << (3 * depth), depth)
            value = rng.uniform(*coarse_values)
            assert lib.set_coarse(code, value) == set_coarse_reference(ref, code, value)
            if not exact:
                prune_reference(ref)
        else:
            assert lib.prune() == prune_reference(ref)
        assert map_bytes(lib) == map_bytes(ref)
        if exact:
            assert lib.inner_refreshes == ref.inner_refreshes


def test_occupied_coarse_write_collapses_its_cell():
    m = create_map(0.1, 4)
    cfg = m.config
    for _ in range(5):
        m.update_occupancy(0, cfg.log_hit)
    assert m.get_node(0).value == cfg.clamp_max
    m.update_occupancy(1, cfg.log_miss)
    m.set_coarse(MortonCode(0, 1), cfg.clamp_max)
    assert verify_tree(m) == []
    assert m.get_node(0).depth == 1  # the depth-1 cell collapsed
    assert m.tree_stats().total == 1 + 8 * 3


@pytest.mark.parametrize("seed", range(30))
def test_occupied_coarse_writes_keep_the_tree_pruned(seed):
    m = create_map(0.25, 3)
    rng = np.random.default_rng(seed)
    clamp_max = m.config.clamp_max
    for step in range(200):
        random_ops(m, rng, 1, coarse_value_range=(clamp_max, clamp_max))
        assert verify_tree(m) == [], f"after op {step}"


# -- the free pass of a scan in one batch scope ---------------------------


@pytest.mark.parametrize("color", [False, True])
@pytest.mark.parametrize("auto_prune", [True, False])
@pytest.mark.parametrize("max_range", [None, 1.5])
@pytest.mark.parametrize("region", [None, Aabb((-2.0, -1.5, -2.5), (1.5, 2.5, 1.0))],
                         ids=["no-region", "region"])
@pytest.mark.parametrize("fast_n, fast_depth", [(1, 3), (0, 2), (2, 4), (0, 1), (1, 1)])
def test_fast_discrete_free_pass_matches_per_op_reference(fast_n, fast_depth, region,
                                                          max_range, auto_prune, color):
    # PerOpMap propagates every miss and every coarse write on its own, as
    # the library did before a scan's free pass shared one propagation
    config = IntegratorConfig("fast_discrete", fast_n, fast_depth, region, max_range)
    batched = create_map(0.1, 6, auto_prune=auto_prune, store_color=color)
    reference = PerOpMap(0.1, 6, auto_prune=auto_prune, store_color=color)
    for scan in random_scans(seed=fast_n + 5 * fast_depth):
        if not color:
            scan.colors = None
        got = integrate(batched, scan, config)
        want = integrate(reference, scan, config)
        assert (got.cells_freed, got.cells_occupied) == (want.cells_freed, want.cells_occupied)
    assert map_bytes(batched) == map_bytes(reference)
    assert verify_tree(batched) == []


@pytest.mark.parametrize("seed", range(6))
def test_fast_discrete_refreshes_fewer_inner_nodes_than_discrete(seed):
    # The free pass refreshes each inner node above it once; before, every
    # coarse write refreshed its whole root path (19040-21333 here, against
    # 5440-6603 for discrete).
    refreshed = {}
    for config in (IntegratorConfig("discrete"), IntegratorConfig("fast_discrete", 1, 2)):
        rng = np.random.default_rng(seed)
        m = create_map(0.1, 8)
        refreshed[config.method] = sum(integrate(m, room_scan(rng, 150), config).inner_refreshed
                                       for _ in range(3))
    assert refreshed["fast_discrete"] < refreshed["discrete"]


def test_color_with_auto_prune_refreshes_about_as_often_as_without():
    # A map that stores color with auto-prune on collapses at once and
    # defers only the other refreshes to the scope's close, so these scans
    # refresh about as many inner nodes as with auto-prune off (11695
    # against 11688); one write at a time, they would refresh 68613.
    config = IntegratorConfig("fast_discrete", 1, 3, max_range=3.0)
    refreshed = {}
    for auto_prune in (True, False):
        rng = np.random.default_rng(100)
        m = create_map(0.1, 7, auto_prune=auto_prune, store_color=True)
        refreshed[auto_prune] = 0
        for _ in range(3):
            scan = room_scan(rng, 300)
            scan.colors = rng.integers(0, 256, size=(len(scan.points), 3))
            refreshed[auto_prune] += integrate(m, scan, config).inner_refreshed
    assert refreshed[True] <= 2 * refreshed[False]


# two colors with one 8-bit value, so that leaves painted with either can
# still collapse, copying the first child's float color into the parent
PALETTE = [None, (10.0, 20.0, 30.0), (10.4, 19.6, 30.2)]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("store_color", [False, True])
@pytest.mark.parametrize("auto_prune", [True, False])
def test_writes_inside_one_scope_match_writes_outside(auto_prune, store_color, seed):
    outside = create_map(0.25, 4, auto_prune=auto_prune, store_color=store_color)
    inside = create_map(0.25, 4, auto_prune=auto_prune, store_color=store_color)
    palette = PALETTE if store_color else None
    random_ops(outside, np.random.default_rng(seed), 150, palette=palette)
    with inside._scope():
        random_ops(inside, np.random.default_rng(seed), 150, palette=palette)
    assert map_bytes(inside) == map_bytes(outside)
    assert verify_tree(inside) == []


@pytest.mark.parametrize("auto_prune, store_color", [(False, False), (True, True)],
                         ids=["prune", "auto-prune-color"])
def test_prune_inside_the_scope_restarts_the_coarse_descent(auto_prune, store_color):
    # A prune (or, on a map that stores color with auto-prune on, the
    # eighth write itself) collapses the depth-2 node whose eight depth-1
    # cells the coarse writes filled; the last write must not land in the
    # detached cell it wrote before.
    def writes(m):
        for k in range(8):
            m.set_coarse(MortonCode(k << 3, 1), -1.0)
        if not auto_prune:
            m.prune()
        m.set_coarse(MortonCode(7 << 3, 1), -2.0)

    outside = create_map(0.1, 3, auto_prune=auto_prune, store_color=store_color)
    inside = create_map(0.1, 3, auto_prune=auto_prune, store_color=store_color)
    writes(outside)
    with inside._scope():
        writes(inside)
    assert map_bytes(inside) == map_bytes(outside)
    assert inside.get_node(7 << 3).depth == 1


@pytest.mark.parametrize("auto_prune", [True, False])
def test_write_raising_inside_the_scope_leaves_a_valid_tree(auto_prune):
    m = create_map(0.1, 4, auto_prune=auto_prune)
    reference = create_map(0.1, 4, auto_prune=auto_prune)
    cfg = m.config
    writes = [
        lambda m: m.update_occupancy(list(range(0, 4096, 7)), cfg.log_miss),
        lambda m: m.set_coarse(MortonCode(0o1000, 3), cfg.log_miss),
        lambda m: m.update_occupancy(list(range(0o1000, 0o1100)), cfg.log_hit),
    ]
    with pytest.raises(ValueError, match="outside"):
        with m._scope():
            for write in writes:
                write(m)
            m.update_occupancy([5, 8 ** 4], cfg.log_miss)
    for write in writes:
        write(reference)
    assert verify_tree(m) == []
    assert map_bytes(m) == map_bytes(reference)


@pytest.mark.parametrize("auto_prune", [True, False])
@pytest.mark.parametrize("colors", [[(1, 1, 1)], [(1, 1, 1)] * 4, [(1, 1, 1), None]],
                         ids=["short", "long", "short-with-none"])
def test_color_batch_of_another_length_is_rejected_before_any_change(colors, auto_prune):
    m = create_map(0.1, 3, auto_prune=auto_prune, store_color=True)
    m.update_occupancy(7, m.config.log_hit, (9, 9, 9))
    before = map_bytes(m)
    with pytest.raises(ValueError, match="length"):
        m.update_occupancy([1, 2, 3], m.config.log_hit, colors)
    assert map_bytes(m) == before
    assert verify_tree(m) == []


@pytest.mark.parametrize("auto_prune", [True, False])
@pytest.mark.parametrize("bad", [(np.nan, 1, 1), (300, 1, 1), (1, -1, 1), (1, 1, np.inf),
                                 (1, 1), (1, 2, 3, 4)],
                         ids=["nan", "300", "negative", "inf", "two", "four"])
def test_colors_outside_0_255_are_rejected_before_any_change(bad, auto_prune):
    m = create_map(0.1, 3, auto_prune=auto_prune, store_color=True)
    m.update_occupancy(7, m.config.log_hit, (9, 9, 9))
    before = map_bytes(m)
    with pytest.raises(ValueError, match="0..255"):
        m.update_occupancy(1, m.config.log_hit, bad)
    with pytest.raises(ValueError, match="0..255"):
        m.update_occupancy([1, 2], m.config.log_hit, [(4, 5, 6), bad])
    assert map_bytes(m) == before
    m.update_occupancy([1, 2], m.config.log_hit, [(0, 0.5, 255), None])
    assert verify_tree(m) == []
