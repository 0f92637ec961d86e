"""Octree core: fusion, clamping, classification, indicators, pruning."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occtree import (
    MortonCode,
    NodeState,
    OccupancyConfig,
    OccupancyMap,
    VoxelKey,
    create_map,
    logit,
    probability,
)
from occtree.morton import encode, encode_raw

from oracles import dense_states, map_bytes, random_ops, verify_tree


def leaf_code(map_, coord):
    return encode(map_.geometry.coord_to_key(coord)).code


# -- construction and config ---------------------------------------------


def test_create_map_examples():
    m = create_map(0.1, 16)
    assert m.geometry.extent == pytest.approx(6553.6)
    assert m.tree_stats().total == 1
    assert m.state_at((0, 0, 0)).state is NodeState.UNKNOWN
    assert create_map(0.001, 21).geometry.extent == 2097.152


def test_fresh_map_is_unknown_everywhere():
    m = create_map(0.1, 8)
    rng = np.random.default_rng(0)
    for c in rng.uniform(-12.0, 12.0, size=(50, 3)):
        view = m.state_at(c)
        assert view.state is NodeState.UNKNOWN
        assert view.depth == 8
        assert view.probability == pytest.approx(0.5)


def test_config_validation():
    with pytest.raises(ValueError):
        OccupancyConfig(log_hit=-0.1)
    with pytest.raises(ValueError):
        OccupancyConfig(log_miss=0.1)
    with pytest.raises(ValueError):
        OccupancyConfig(prior_log_odds=10.0)
    with pytest.raises(ValueError):
        OccupancyConfig(t_free=0.7, t_occ=0.3)
    with pytest.raises(ValueError):
        OccupancyConfig(t_free=0.0)


def test_config_warns_when_free_is_unreachable():
    with pytest.warns(UserWarning, match="free"):
        OccupancyConfig(t_free=0.1, t_occ=0.9)  # logit(0.1) < default clamp_min


def test_default_config_values():
    cfg = OccupancyConfig()
    assert cfg.log_hit == pytest.approx(0.84730, abs=1e-5)
    assert cfg.log_miss == pytest.approx(-0.40546, abs=1e-5)
    assert cfg.clamp_min == pytest.approx(-1.99243, abs=1e-5)
    assert cfg.clamp_max == pytest.approx(3.47610, abs=1e-5)
    assert cfg.t_free == cfg.t_occ == 0.5


# -- lookup and updates ---------------------------------------------------


def test_single_hit_and_parent_max():
    m = create_map(0.1, 16)
    code = leaf_code(m, (0.05, 0.05, 0.05))
    state = m.update_occupancy(code, m.config.log_hit)
    assert state is NodeState.OCCUPIED
    view = m.get_node(code)
    assert view.depth == 0
    assert view.value == pytest.approx(0.8473, abs=1e-4)
    parent = m.get_node(MortonCode(code, 1))
    assert parent.value == view.value  # max-of-children rule
    assert parent.state is NodeState.OCCUPIED


def test_five_hits_clamp():
    cfg = OccupancyConfig(log_hit=0.8473, log_miss=-0.4055, clamp_max=3.5)
    m = create_map(0.1, 8, cfg)
    code = leaf_code(m, (0.31, -0.22, 0.17))
    for _ in range(5):
        m.update_occupancy(code, cfg.log_hit)
    assert m.get_node(code).value == 3.5


def test_hit_then_miss_is_unknown_under_wide_band():
    cfg = OccupancyConfig(log_hit=0.8473, log_miss=-0.4055, clamp_min=-3.0,
                          t_free=0.1, t_occ=0.9)
    m = create_map(0.1, 8, cfg)
    code = leaf_code(m, (0.05, 0.05, 0.05))
    m.update_occupancy(code, cfg.log_hit)
    state = m.update_occupancy(code, cfg.log_miss)
    assert m.get_node(code).value == pytest.approx(0.4418, abs=1e-6)
    assert state is NodeState.UNKNOWN


def test_zero_delta_update_reprunes_to_identical_tree():
    m = create_map(0.1, 8)
    before = m.tree_stats()
    m.update_occupancy(leaf_code(m, (0.4, 0.4, 0.4)), 0.0)
    assert m.tree_stats() == before
    assert m.state_at((0.4, 0.4, 0.4)).state is NodeState.UNKNOWN


def test_update_requires_leaf_depth():
    m = create_map(0.1, 8)
    with pytest.raises(ValueError):
        m.update_occupancy(MortonCode(0, 3), 0.5)


def test_classification_is_pure_function_of_value():
    cfg = OccupancyConfig(clamp_min=-3.0, t_free=0.1, t_occ=0.9)
    m = create_map(0.1, 8, cfg)
    code = leaf_code(m, (0.05, 0.05, 0.05))
    lo_free, lo_occ = logit(cfg.t_free), logit(cfg.t_occ)
    for i in range(24):
        delta = cfg.log_hit if i % 2 == 0 else cfg.log_miss
        state = m.update_occupancy(code, delta)
        value = m.get_node(code).value
        assert state is m.state_of(value)
        # thresholds gate classification only: state follows the stored value
        if state is NodeState.OCCUPIED:
            assert value > lo_occ
        elif state is NodeState.FREE:
            assert value < lo_free
        else:
            assert lo_free <= value <= lo_occ


# -- coarse writes --------------------------------------------------------


def test_set_coarse_on_fresh_map_touches_one_node():
    m = create_map(0.1, 8)
    code = encode(m.geometry.coord_to_key((1.0, 1.0, 1.0), 3)).code
    applied = m.set_coarse(MortonCode(code, 3), m.config.clamp_min)
    assert applied == 3
    # path root..depth-4 expanded, the depth-3 target is a single inner-leaf
    assert m.tree_stats().total == 1 + 8 * 5
    view = m.get_node(code)
    assert view.depth == 3
    assert view.state is NodeState.FREE


def test_set_coarse_preserves_occupied_leaf():
    m = create_map(0.1, 8, auto_prune=False)
    geo = m.geometry
    occ = leaf_code(m, (0.05, 0.05, 0.05))
    for _ in range(5):
        m.update_occupancy(occ, m.config.log_hit)
    parent = MortonCode((occ >> 3) << 3, 1)
    m.set_coarse(parent, m.config.clamp_min)
    # the 7 siblings freed, the occupied leaf untouched (per-leaf oracle)
    for i in range(8):
        child = parent.code | i
        view = m.get_node(child)
        if child == occ:
            assert view.state is NodeState.OCCUPIED
            assert view.value == m.clamp(5 * m.config.log_hit)
        else:
            assert view.state is NodeState.FREE
            assert view.value == m.clamp(m.config.clamp_min)
    assert not verify_tree(m)


def test_set_coarse_occupied_value_overwrites_free_node():
    m = create_map(0.1, 8, auto_prune=False)
    code = leaf_code(m, (0.05, 0.05, 0.05))
    m.update_occupancy(code, m.config.log_miss)  # materializes children
    target = MortonCode((code >> 3) << 3, 1)
    m.set_coarse(target, m.config.clamp_max)
    view = m.get_node(code)
    assert view.depth == 1  # children dropped
    assert view.state is NodeState.OCCUPIED
    assert not verify_tree(m)


def test_set_coarse_depth_validation():
    m = create_map(0.1, 8)
    with pytest.raises(ValueError):
        m.set_coarse(MortonCode(0, 0), 0.0)
    with pytest.raises(ValueError):
        m.set_coarse(MortonCode(0, 9), 0.0)


OUT_OF_RANGE_WRITES = {
    "int-negative": lambda m: m.update_occupancy(-1, m.config.log_hit),
    "int-past-end": lambda m: m.update_occupancy(8 ** 3 + 5, m.config.log_hit),
    "int64-negative": lambda m: m.update_occupancy(np.int64(-1), m.config.log_hit),
    "MortonCode-past-end": lambda m: m.update_occupancy(MortonCode(8 ** 3, 0), m.config.log_hit),
    "batch-past-end": lambda m: m.update_occupancy([0, 1 << 40], m.config.log_hit,
                                                   [(1, 2, 3), (4, 5, 6)]),
    "batch-negative": lambda m: m.update_occupancy([3, -1, 5], m.config.log_miss),
    "coarse-negative": lambda m: m.set_coarse(MortonCode(-8, 1), m.config.clamp_min),
    "coarse-past-end": lambda m: m.set_coarse(MortonCode(8 ** 3, 1), m.config.clamp_min),
}


@pytest.mark.parametrize("store_color", [False, True])
@pytest.mark.parametrize("write", OUT_OF_RANGE_WRITES.values(), ids=OUT_OF_RANGE_WRITES.keys())
def test_out_of_range_code_raises_before_any_change(write, store_color):
    m = create_map(0.1, 3, store_color=store_color)
    m.update_occupancy(7, m.config.log_hit)
    before = map_bytes(m)
    with pytest.raises(ValueError, match="outside"):
        write(m)
    assert map_bytes(m) == before
    assert m.inner_refreshes == 3


NON_INTEGER_CALLS = {
    "leaf-float-code": lambda m: m.update_occupancy(MortonCode(1.5, 0), 0.5),
    "leaf-float-depth": lambda m: m.update_occupancy(MortonCode(0, 0.0), 0.5),
    "coarse-float-code": lambda m: m.set_coarse(MortonCode(8.0, 1), -1.0),
    "coarse-float-depth": lambda m: m.set_coarse(MortonCode(8, 1.5), -1.0),
    "coarse-int": lambda m: m.set_coarse(8, -1.0),
    "get_node-float-depth": lambda m: m.get_node(0, 1.5),
    "get_node-MortonCode-float-depth": lambda m: m.get_node(MortonCode(0, 1.5)),
}


@pytest.mark.parametrize("store_color", [False, True])
@pytest.mark.parametrize("call", NON_INTEGER_CALLS.values(), ids=NON_INTEGER_CALLS.keys())
def test_non_integer_code_or_depth_raises_before_any_change(call, store_color):
    m = create_map(0.1, 3, auto_prune=False, store_color=store_color)
    before = map_bytes(m)
    with pytest.raises(TypeError):
        call(m)
    assert map_bytes(m) == before
    assert m.inner_refreshes == 0


@pytest.mark.parametrize("code, depth", [(-1, None), (8 ** 3, None), (np.int64(-8), None),
                                         (MortonCode(8 ** 3, 1), None), (0, 4), (0, -2),
                                         (MortonCode(0, 7), None), (MortonCode(0, 1), -1)])
def test_get_node_rejects_codes_and_depths_outside_the_tree(code, depth):
    m = create_map(0.1, 3)
    m.update_occupancy(7, m.config.log_hit)
    with pytest.raises(ValueError, match="outside"):
        m.get_node(code, depth)


def test_get_node_accepts_the_tree_bounds():
    m = create_map(0.1, 3)
    m.update_occupancy(8 ** 3 - 1, m.config.log_hit)
    assert m.get_node(8 ** 3 - 1).depth == 0
    assert m.get_node(np.int64(8 ** 3 - 1), 1).depth == 1
    assert m.get_node(MortonCode(0, 3)).depth == 3
    assert m.get_node(0, 0).state is NodeState.UNKNOWN


# -- pruning --------------------------------------------------------------


def test_prune_collapses_saturated_siblings():
    m = create_map(0.1, 8, auto_prune=False)
    base = leaf_code(m, (0.05, 0.05, 0.05)) & ~0x7
    for i in range(8):
        for _ in range(10):
            m.update_occupancy(base | i, m.config.log_hit)
    before = m.tree_stats().total
    removed = m.prune()
    assert removed == 8
    assert m.tree_stats().total == before - 8
    assert m.get_node(base).depth == 1
    assert m.get_node(base).value == m.config.clamp_max


def test_uniform_fill_collapses_regardless_of_order():
    rng = np.random.default_rng(3)
    for seed in range(3):
        m = create_map(0.1, 8, auto_prune=False)
        base_key = m.geometry.coord_to_key((1.0, 1.0, 1.0), 3)
        order = rng.permutation(512)
        for idx in order:
            k = VoxelKey(base_key.kx | (idx & 7), base_key.ky | ((idx >> 3) & 7),
                         base_key.kz | (idx >> 6), 0)
            for _ in range(8):
                m.update_occupancy(encode(k).code, m.config.log_miss)
        m.prune()
        view = m.get_node(encode(base_key).code)
        assert view.depth == 3
        assert view.state is NodeState.FREE
        assert not verify_tree(m)


def test_prune_is_idempotent():
    m = create_map(0.1, 6, auto_prune=False)
    random_ops(m, np.random.default_rng(5), 300)
    m.prune()
    stats = m.tree_stats()
    assert m.prune() == 0
    assert m.tree_stats() == stats


def test_auto_prune_keeps_tree_minimal():
    m = create_map(0.1, 6)
    random_ops(m, np.random.default_rng(11), 500)
    assert not verify_tree(m)


# -- stats ----------------------------------------------------------------


def test_tree_stats_examples():
    m = create_map(0.1, 16)
    stats = m.tree_stats()
    assert (stats.inner, stats.inner_leaf, stats.leaf) == (0, 1, 0)
    assert stats.bytes_model == 16

    m1 = create_map(0.1, 1, auto_prune=False)
    m1.update_occupancy(0, m1.config.log_hit)
    stats = m1.tree_stats()
    assert (stats.inner, stats.inner_leaf, stats.leaf) == (1, 0, 8)
    assert stats.bytes_model == 16 + 32
    assert stats.total == 9
    assert 0.0 < stats.leaf_fraction < 1.0


def test_stats_accounting_on_random_map():
    m = create_map(0.1, 6, auto_prune=False)
    random_ops(m, np.random.default_rng(17), 400)
    stats = m.tree_stats()
    assert stats.total == stats.inner + stats.inner_leaf + stats.leaf
    n = 0
    stack = [m.root]
    while stack:
        node = stack.pop()
        n += 1
        if node.children is not None:
            stack.extend(node.children)
    assert n == stats.total


# -- invariants under random operation sequences --------------------------


@pytest.mark.parametrize("auto_prune", [True, False])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_invariants_after_random_ops(auto_prune, seed):
    m = create_map(0.25, 5, auto_prune=auto_prune)
    random_ops(m, np.random.default_rng(seed), 600)
    assert verify_tree(m) == []


def test_prune_is_query_invisible():
    m = create_map(0.25, 5, auto_prune=False)
    random_ops(m, np.random.default_rng(23), 800)
    before = dense_states(m).copy()
    m.prune()
    assert np.array_equal(dense_states(m), before)


# -- color ----------------------------------------------------------------


def test_color_running_average_and_prune_blocking():
    m = create_map(0.1, 4, auto_prune=False, store_color=True)
    code = leaf_code(m, (0.05, 0.05, 0.05))
    m.update_occupancy(code, m.config.log_hit, color=(100, 0, 0))
    m.update_occupancy(code, m.config.log_hit, color=(200, 0, 0))
    assert m.get_node(code).color == (150, 0, 0)
    # same values, different colors: sibling block must not be all-same
    for i in range(1, 8):
        m.update_occupancy(code | i, m.config.log_hit, color=(0, 50, 0))
        m.update_occupancy(code | i, m.config.log_hit, color=(0, 50, 0))
    assert m.prune() == 0


def test_logit_probability_inverse():
    for p in (0.12, 0.4, 0.5, 0.7, 0.97):
        assert probability(logit(p)) == pytest.approx(p)
