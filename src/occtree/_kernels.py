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


def trace_cells(ox, oy, oz, ex, ey, ez, cx0, cy0, cz0, cx1, cy1, cz1):
    """Cells strictly between the start and end cells of a segment.

    Coordinates are in grid frame (cell size 1); (c*0) and (c*1) are the
    integer start/end cells. Returns an (N, 3) int64 array in order of
    increasing ray parameter.
    """
    cur = [cx0, cy0, cz0]
    end = [cx1, cy1, cz1]
    o = (ox, oy, oz)
    d = (ex - ox, ey - oy, ez - oz)
    step = [0, 0, 0]
    t_max = [math.inf, math.inf, math.inf]
    t_delta = [math.inf, math.inf, math.inf]
    n = 0
    for j in range(3):
        n += abs(end[j] - cur[j])
        if d[j] > 0:
            step[j] = 1
            t_delta[j] = 1.0 / d[j]
            t_max[j] = max(0.0, (cur[j] + 1 - o[j]) / d[j])
        elif d[j] < 0:
            step[j] = -1
            t_delta[j] = -1.0 / d[j]
            t_max[j] = max(0.0, (cur[j] - o[j]) / d[j])
    out = []
    for _ in range(n):
        axis = -1
        best = math.inf
        for j in range(3):
            if cur[j] != end[j] and t_max[j] < best:
                best = t_max[j]
                axis = j
        if axis < 0:
            break
        cur[axis] += step[axis]
        t_max[axis] += t_delta[axis]
        if cur == end:
            break
        out.append((cur[0], cur[1], cur[2]))
    return np.array(out, dtype=np.int64).reshape(len(out), 3)
