"""Morton code conversions.

Bit layout: for each level l, bit 3l holds x_l, bit 3l+1 holds y_l, and bit
3l+2 holds z_l; the top two bits of the 64-bit word are unused. The three
bits at a level are the child index to follow when descending the tree.
"""

from __future__ import annotations

from . import _kernels
from .geometry import MortonCode, VoxelKey


def encode(k: VoxelKey) -> MortonCode:
    return MortonCode(_kernels.morton_encode(k.kx, k.ky, k.kz), k.depth)


def decode(m: MortonCode) -> VoxelKey:
    kx, ky, kz = _kernels.morton_decode(m.code)
    return VoxelKey(kx, ky, kz, m.depth)


def child_index(m: MortonCode | int, level: int) -> int:
    """Child slot in [0, 8) selected at ``level`` when descending."""
    code = m.code if isinstance(m, MortonCode) else m
    return (code >> (3 * level)) & 7


def encode_raw(kx: int, ky: int, kz: int) -> int:
    return _kernels.morton_encode(kx, ky, kz)


def encode_batch(kx, ky, kz):
    """Vectorized encode of parallel component arrays; returns uint64 codes."""
    return _kernels.morton_encode_batch(kx, ky, kz)


def decode_batch(codes):
    return _kernels.morton_decode_batch(codes)
