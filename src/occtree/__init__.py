"""Occupancy octree mapping with explicit occupied, free, and unknown space.

The hot kernels (Morton dilation/contraction and voxel ray traversal) are
pure Python and NumPy, in ``occtree._kernels``.
"""

from .core import (
    NodeState,
    NodeView,
    OccupancyConfig,
    OccupancyMap,
    TreeStats,
    create_map,
    logit,
    probability,
)
from .errors import MapFormatError, OutOfExtentError, ScanFormatError
from .geometry import MortonCode, TreeGeometry, VoxelKey
from .integrate import (
    IntegrationResult,
    IntegratorConfig,
    Scan,
    clamp_ray_to_region,
    coarse_free_samples,
    integrate,
    trace_ray_cells,
)
from .io import read_map, read_scan, write_csv_stats, write_map
from .morton import child_index, decode, encode
from .query import StateFilter, info_gain, iterate_region, line_collision, region_collision
from .volumes import Aabb, Frustum, SensorModel, Sphere, yaw_rotation

__version__ = "0.1.0"

# the public names; without this list a star import would also bind the
# occtree.io submodule as ``io``, shadowing the standard library module
__all__ = [
    "Aabb", "Frustum", "IntegrationResult", "IntegratorConfig",
    "MapFormatError", "MortonCode", "NodeState", "NodeView", "OccupancyConfig",
    "OccupancyMap", "OutOfExtentError", "Scan", "ScanFormatError", "SensorModel",
    "Sphere", "StateFilter", "TreeGeometry", "TreeStats", "VoxelKey",
    "child_index", "clamp_ray_to_region", "coarse_free_samples", "create_map",
    "decode", "encode", "info_gain", "integrate", "iterate_region",
    "kernel_backend", "line_collision", "logit", "probability", "read_map",
    "read_scan", "region_collision", "trace_ray_cells", "write_csv_stats",
    "write_map", "yaw_rotation",
]


def kernel_backend() -> str:
    """Always 'python', the one kernel implementation. Kept because the
    benchmark records it with every result."""
    return "python"
