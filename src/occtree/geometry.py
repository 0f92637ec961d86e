"""Tree geometry and voxel addressing types.

Voxel keys are stored offset-biased: the half-extent offset is already
applied, so key components are unsigned integers in [0, 2**depth_levels).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import OutOfExtentError

MAX_DEPTH_LEVELS = 21  # 3 * 21 = 63 address bits in a 64-bit code


class VoxelKey(NamedTuple):
    kx: int
    ky: int
    kz: int
    depth: int = 0


class MortonCode(NamedTuple):
    code: int
    depth: int = 0


@dataclass(frozen=True)
class TreeGeometry:
    """Leaf resolution plus number of tree levels.

    The mapped extent per axis is ``2**depth_levels * resolution``, centered
    on the origin.
    """

    resolution: float
    depth_levels: int

    def __post_init__(self):
        if not (0.0 < self.resolution < math.inf):
            raise ValueError(f"resolution must be finite and > 0, got {self.resolution}")
        if not (1 <= self.depth_levels <= MAX_DEPTH_LEVELS):
            raise ValueError(
                f"depth_levels must be in [1, {MAX_DEPTH_LEVELS}], got {self.depth_levels}"
            )

    @property
    def half_extent(self) -> float:
        return self.resolution * (1 << (self.depth_levels - 1))

    @property
    def extent(self) -> float:
        return self.resolution * (1 << self.depth_levels)

    def res_at(self, depth: int) -> float:
        return self.resolution * (1 << depth)

    def check_inside(self, c) -> None:
        if len(c) != 3:
            raise ValueError(f"a point needs 3 coordinates, got {len(c)}")
        half = self.half_extent
        for axis, v in zip("xyz", c):
            if not (abs(v) < half):
                raise OutOfExtentError(axis, float(v), half)

    def coord_to_key(self, c, depth: int = 0) -> VoxelKey:
        """Map a world coordinate to the key of the depth-``depth`` cell
        containing it. Floor semantics: a coordinate on a cell boundary
        belongs to the upper cell."""
        self.check_inside(c)
        if not (0 <= depth <= self.depth_levels):
            raise ValueError(f"depth {depth} outside [0, {self.depth_levels}]")
        bias = 1 << (self.depth_levels - 1)
        mask = ~((1 << depth) - 1)
        res = self.resolution
        kx = (math.floor(c[0] / res) + bias) & mask
        ky = (math.floor(c[1] / res) + bias) & mask
        kz = (math.floor(c[2] / res) + bias) & mask
        return VoxelKey(kx, ky, kz, depth)

    def key_to_coord(self, k: VoxelKey) -> tuple[float, float, float]:
        """Center of the cell named by ``k``."""
        bias = 1 << (self.depth_levels - 1)
        half_cell = self.res_at(k.depth) / 2.0
        res = self.resolution
        return (
            (k.kx - bias) * res + half_cell,
            (k.ky - bias) * res + half_cell,
            (k.kz - bias) * res + half_cell,
        )


def _cell_box(geo: TreeGeometry, kx: int, ky: int, kz: int, depth: int):
    """Lower and upper world corners of the depth-``depth`` cell at key
    (kx, ky, kz)."""
    bias = 1 << (geo.depth_levels - 1)
    res = geo.resolution
    side = geo.res_at(depth)
    lo = ((kx - bias) * res, (ky - bias) * res, (kz - bias) * res)
    return lo, (lo[0] + side, lo[1] + side, lo[2] + side)
