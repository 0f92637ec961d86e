"""Addressing: coordinate <-> key <-> Morton code."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occtree import MortonCode, OutOfExtentError, TreeGeometry, VoxelKey
from occtree.morton import child_index, decode, decode_batch, encode, encode_batch

from oracles import naive_morton_encode, naive_morton_encode_batch

GEO = TreeGeometry(0.1, 16)

key_component = st.integers(min_value=0, max_value=(1 << 21) - 1)


# -- geometry -------------------------------------------------------------


def test_geometry_validation():
    with pytest.raises(ValueError):
        TreeGeometry(0.0, 16)
    with pytest.raises(ValueError):
        TreeGeometry(-0.1, 16)
    with pytest.raises(ValueError):
        TreeGeometry(float("inf"), 16)
    with pytest.raises(ValueError):
        TreeGeometry(0.1, 0)
    with pytest.raises(ValueError):
        TreeGeometry(0.1, 22)


def test_extent_arithmetic():
    assert TreeGeometry(0.1, 16).extent == pytest.approx(6553.6)
    assert TreeGeometry(0.001, 21).extent == 2097.152
    assert GEO.half_extent == pytest.approx(3276.8)
    assert GEO.res_at(3) == pytest.approx(0.8)


def test_coord_to_key_examples():
    assert GEO.coord_to_key((0, 0, 0)) == VoxelKey(32768, 32768, 32768, 0)
    assert GEO.coord_to_key((0.05, -0.05, 0.25)) == VoxelKey(32768, 32767, 32770, 0)
    assert GEO.coord_to_key((0.05, 0.05, 0.05), depth=2) == VoxelKey(32768, 32768, 32768, 2)


def test_coord_to_key_boundary_is_lower_inclusive():
    # a coordinate exactly on a cell boundary belongs to the upper cell
    assert GEO.coord_to_key((0.1, 0.0, 0.0)).kx == 32769
    assert GEO.coord_to_key((-0.1, 0.0, 0.0)).kx == 32767


def test_out_of_extent_names_axis():
    with pytest.raises(OutOfExtentError, match="y"):
        GEO.coord_to_key((0.0, 4000.0, 0.0))
    with pytest.raises(OutOfExtentError):
        GEO.coord_to_key((0.0, 0.0, -GEO.half_extent))


def test_key_to_coord_examples():
    assert GEO.key_to_coord(VoxelKey(32768, 32768, 32768, 0)) == pytest.approx((0.05, 0.05, 0.05))
    assert GEO.key_to_coord(VoxelKey(32767, 32768, 32768, 0)) == pytest.approx((-0.05, 0.05, 0.05))


@given(st.integers(0, (1 << 16) - 1), st.integers(0, (1 << 16) - 1),
       st.integers(0, (1 << 16) - 1), st.integers(0, 16))
def test_key_coord_roundtrip(kx, ky, kz, depth):
    mask = ~((1 << depth) - 1)
    key = VoxelKey(kx & mask, ky & mask, kz & mask, depth)
    assert GEO.coord_to_key(GEO.key_to_coord(key), depth) == key


# -- morton codes ---------------------------------------------------------


def test_encode_examples():
    assert encode(VoxelKey(0, 0, 0)).code == 0
    assert encode(VoxelKey(1, 0, 0)).code == 1
    assert encode(VoxelKey(0, 1, 0)).code == 2
    assert encode(VoxelKey(0, 0, 1)).code == 4
    assert encode(VoxelKey(3, 5, 6)).code == 427


def test_decode_examples():
    assert decode(MortonCode(0)) == VoxelKey(0, 0, 0, 0)
    assert decode(MortonCode(427)) == VoxelKey(3, 5, 6, 0)


def test_child_index_examples():
    assert child_index(MortonCode(427), 0) == 3
    assert child_index(MortonCode(427), 2) == 6
    assert child_index(427, 1) == 5
    for level in range(21):
        assert child_index(MortonCode(0), level) == 0


def test_top_two_bits_unused():
    m = encode(VoxelKey((1 << 21) - 1, (1 << 21) - 1, (1 << 21) - 1))
    assert m.code < (1 << 63)
    assert m.code >> 62 == 1  # bit 62 belongs to z_20; bit 63 is clear


@given(key_component, key_component, key_component)
def test_encode_matches_naive_oracle(kx, ky, kz):
    assert encode(VoxelKey(kx, ky, kz)).code == naive_morton_encode(kx, ky, kz)


@given(key_component, key_component, key_component)
def test_roundtrip(kx, ky, kz):
    assert decode(encode(VoxelKey(kx, ky, kz))) == VoxelKey(kx, ky, kz, 0)


def test_batch_matches_scalar_and_oracle():
    rng = np.random.default_rng(7)
    k = rng.integers(0, 1 << 21, size=(3, 4096), dtype=np.uint64)
    codes = encode_batch(k[0], k[1], k[2])
    assert np.array_equal(codes, naive_morton_encode_batch(k[0], k[1], k[2]))
    dx, dy, dz = decode_batch(codes)
    assert np.array_equal(dx, k[0]) and np.array_equal(dy, k[1]) and np.array_equal(dz, k[2])
    scalar = [encode(VoxelKey(int(a), int(b), int(c))).code
              for a, b, c in zip(k[0, :64], k[1, :64], k[2, :64])]
    assert list(codes[:64]) == scalar


@given(key_component, key_component, key_component, st.integers(0, 20))
def test_ancestor_relation_commutes_with_encoding(kx, ky, kz, d):
    # clearing the low d bits of each key component == clearing 3d code bits
    mask = ~((1 << d) - 1)
    parent = encode(VoxelKey(kx & mask, ky & mask, kz & mask))
    child = encode(VoxelKey(kx, ky, kz))
    assert parent.code == (child.code >> (3 * d)) << (3 * d)


@settings(max_examples=200)
@given(st.floats(-3276.7, 3276.7), st.floats(-3276.7, 3276.7), st.floats(-3276.7, 3276.7))
def test_descent_by_child_index_reaches_leaf(x, y, z):
    key = GEO.coord_to_key((x, y, z))
    code = encode(key).code
    kx = ky = kz = 0
    for level in range(GEO.depth_levels - 1, -1, -1):
        idx = child_index(code, level)
        kx |= (idx & 1) << level
        ky |= ((idx >> 1) & 1) << level
        kz |= ((idx >> 2) & 1) << level
    assert (kx, ky, kz) == (key.kx, key.ky, key.kz)
