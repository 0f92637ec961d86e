"""Kernels: integer dilation/contraction for Morton codes and exact voxel
ray traversal, in pure Python and NumPy."""

from __future__ import annotations

import math

import numpy as np

_MASK21 = 0x1FFFFF
_M1 = 0x1F00000000FFFF
_M2 = 0x1F0000FF0000FF
_M3 = 0x100F00F00F00F00F
_M4 = 0x10C30C30C30C30C3
_M5 = 0x1249249249249249


def _spread(v: int) -> int:
    v &= _MASK21
    v = (v | (v << 32)) & _M1
    v = (v | (v << 16)) & _M2
    v = (v | (v << 8)) & _M3
    v = (v | (v << 4)) & _M4
    v = (v | (v << 2)) & _M5
    return v


def _compact(v: int) -> int:
    v &= _M5
    v = (v | (v >> 2)) & _M4
    v = (v | (v >> 4)) & _M3
    v = (v | (v >> 8)) & _M2
    v = (v | (v >> 16)) & _M1
    v = (v | (v >> 32)) & _MASK21
    return v


def morton_encode(kx: int, ky: int, kz: int) -> int:
    return _spread(kx) | (_spread(ky) << 1) | (_spread(kz) << 2)


def morton_decode(code: int) -> tuple[int, int, int]:
    return _compact(code), _compact(code >> 1), _compact(code >> 2)


def morton_encode_batch(kx, ky, kz):
    out = np.zeros(len(kx), dtype=np.uint64)
    for arr, shift in ((kx, 0), (ky, 1), (kz, 2)):
        v = np.asarray(arr, dtype=np.uint64) & np.uint64(_MASK21)
        v = (v | (v << np.uint64(32))) & np.uint64(_M1)
        v = (v | (v << np.uint64(16))) & np.uint64(_M2)
        v = (v | (v << np.uint64(8))) & np.uint64(_M3)
        v = (v | (v << np.uint64(4))) & np.uint64(_M4)
        v = (v | (v << np.uint64(2))) & np.uint64(_M5)
        out |= v << np.uint64(shift)
    return out


def morton_decode_batch(codes):
    codes = np.asarray(codes, dtype=np.uint64)
    comps = []
    for shift in (0, 1, 2):
        v = (codes >> np.uint64(shift)) & np.uint64(_M5)
        v = (v | (v >> np.uint64(2))) & np.uint64(_M4)
        v = (v | (v >> np.uint64(4))) & np.uint64(_M3)
        v = (v | (v >> np.uint64(8))) & np.uint64(_M2)
        v = (v | (v >> np.uint64(16))) & np.uint64(_M1)
        v = (v | (v >> np.uint64(32))) & np.uint64(_MASK21)
        comps.append(v)
    return comps[0], comps[1], comps[2]


def _walk_setup(ox: float, oy: float, oz: float, ex: float, ey: float, ez: float,
                x: int, y: int, z: int, xe: int, ye: int, ze: int):
    """Set-up of the voxel walk of ``trace_cells`` for the grid-frame
    segment from (ox, oy, oz) in cell (x, y, z) to (ex, ey, ez) in cell
    (xe, ye, ze): the step bound, then per axis the step, the ray parameter
    of the first cell face and the ray parameter per cell."""
    inf = math.inf
    dx, dy, dz = ex - ox, ey - oy, ez - oz
    sx = sy = sz = 0
    tmx = tmy = tmz = tdx = tdy = tdz = inf
    if dx > 0:
        sx, tdx, tmx = 1, 1.0 / dx, max(0.0, (x + 1 - ox) / dx)
    elif dx < 0:
        sx, tdx, tmx = -1, -1.0 / dx, max(0.0, (x - ox) / dx)
    if dy > 0:
        sy, tdy, tmy = 1, 1.0 / dy, max(0.0, (y + 1 - oy) / dy)
    elif dy < 0:
        sy, tdy, tmy = -1, -1.0 / dy, max(0.0, (y - oy) / dy)
    if dz > 0:
        sz, tdz, tmz = 1, 1.0 / dz, max(0.0, (z + 1 - oz) / dz)
    elif dz < 0:
        sz, tdz, tmz = -1, -1.0 / dz, max(0.0, (z - oz) / dz)
    return (abs(xe - x) + abs(ye - y) + abs(ze - z),
            sx, sy, sz, tmx, tmy, tmz, tdx, tdy, tdz)


def trace_cells(ox, oy, oz, ex, ey, ez, cx0, cy0, cz0, cx1, cy1, cz1):
    """Cells strictly between the start and end cells of a segment.

    Coordinates are in grid frame (cell size 1); (c*0) and (c*1) are the
    integer start/end cells. Returns an (N, 3) int64 array in order of
    increasing ray parameter. Pass Python floats: the loop's arithmetic on
    NumPy scalars gives the same cells several times slower.

    Each step moves one cell along the axis, among those not yet at the end
    cell, whose next cell face comes first; ties go to x, then y, then z.
    ``query.line_collision`` and the occlusion rays of ``query.info_gain``
    inline this loop."""
    x, y, z = cx0, cy0, cz0
    n, sx, sy, sz, tmx, tmy, tmz, tdx, tdy, tdz = _walk_setup(ox, oy, oz, ex, ey, ez,
                                                               x, y, z, cx1, cy1, cz1)
    inf = math.inf
    out = []
    append = out.append
    for _ in range(n):
        ax = tmx if x != cx1 else inf
        ay = tmy if y != cy1 else inf
        az = tmz if z != cz1 else inf
        if ax <= ay and ax <= az:
            if ax == inf:
                break
            x += sx
            tmx += tdx
        elif ay <= az:
            y += sy
            tmy += tdy
        else:
            z += sz
            tmz += tdz
        if x == cx1 and y == cy1 and z == cz1:
            break
        append((x, y, z))
    return np.array(out, dtype=np.int64).reshape(len(out), 3)
