"""Tree writes (leaf batches, coarse writes, prunes) against the
per-operation references."""

import numpy as np
import pytest

from occtree import IntegratorConfig, MortonCode, OccupancyMap, Scan, create_map, integrate

from oracles import (
    PerOpMap,
    map_bytes,
    per_op_update,
    prune_reference,
    random_ops,
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
