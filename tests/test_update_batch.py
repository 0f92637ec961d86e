"""Batched leaf updates against the per-operation reference walk."""

import io

import numpy as np
import pytest

from occtree import IntegratorConfig, MortonCode, OccupancyMap, Scan, create_map, integrate
from occtree.io import write_map

from oracles import PerOpMap, per_op_update, verify_tree

METHODS = [
    IntegratorConfig(method="simple"),
    IntegratorConfig(method="discrete"),
    IntegratorConfig(method="fast_discrete", fast_n=1, fast_depth=3),
    IntegratorConfig(method="fast_discrete", fast_n=0, fast_depth=2),
]


def map_bytes(m):
    buf = io.BytesIO()
    write_map(m, buf)
    return buf.getvalue()


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
