"""Depth-based 3D lifting and 2D box arithmetic."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import InputRejected
from .model import BoundingBox2D, CameraModel, PixelMask, freeze_array


@dataclass(frozen=True, eq=False)
class DepthImage:
    """Row-major metric depth; zero or non-finite entries mean "no reading"."""

    values: np.ndarray  # (H, W) float32/float64 metres

    def __post_init__(self):
        arr = np.asarray(self.values)
        if arr.ndim != 2:
            raise InputRejected(f"depth image must be 2-D, got shape {arr.shape}")
        object.__setattr__(self, "values", freeze_array(arr, dtype=np.float32))

    @property
    def height(self) -> int:
        return int(self.values.shape[0])

    @property
    def width(self) -> int:
        return int(self.values.shape[1])


def lift_pixel(u: float, v: float, depth: float, camera: CameraModel) -> np.ndarray:
    """Back-project one pixel with a metric depth into the world frame."""
    if not (math.isfinite(depth) and depth > 0):
        raise InputRejected(f"depth must be finite and positive, got {depth}")
    x_cam = np.array(
        [
            depth * (u - camera.cx) / camera.fx,
            depth * (v - camera.cy) / camera.fy,
            depth,
        ]
    )
    return camera.rotation @ x_cam + camera.translation


def lift_mask(depth: DepthImage, mask: PixelMask, camera: CameraModel) -> np.ndarray:
    """Back-project all mask pixels with a valid depth reading.

    Pixels whose depth is zero or non-finite are dropped; the result keeps
    the mask's pixel order.  Out-of-bounds pixels reject the whole call.
    A mask of a few dozen pixels costs mostly NumPy calls, so this makes
    few: one min and one max for the bounds, no filtering copy when every
    reading is valid, and no stacking.
    """
    if not mask.in_bounds(depth.width, depth.height):
        raise InputRejected("mask pixel outside depth image bounds")
    pixels = mask.pixels
    d = depth.values[pixels[:, 1], pixels[:, 0]].astype(np.float64)
    keep = np.isfinite(d) & (d > 0)
    if np.count_nonzero(keep) < len(d):
        pixels, d = pixels[keep], d[keep]
    cam = np.empty((len(d), 3))
    cam[:, 0] = d * (pixels[:, 0] - camera.cx) / camera.fx
    cam[:, 1] = d * (pixels[:, 1] - camera.cy) / camera.fy
    cam[:, 2] = d
    return cam @ camera.rotation.T + camera.translation


def project_point(point, camera: CameraModel) -> tuple[float, float, float]:
    """World point -> (u, v, camera-frame depth).  Inverse of :func:`lift_pixel`."""
    p = np.asarray(point, dtype=np.float64)
    x_cam = camera.rotation.T @ (p - camera.translation)
    z = float(x_cam[2])
    if not (math.isfinite(z) and z > 0):
        raise InputRejected(f"point does not project in front of camera (z={z})")
    return (
        float(camera.fx * x_cam[0] / z + camera.cx),
        float(camera.fy * x_cam[1] / z + camera.cy),
        z,
    )


def centroid_and_size(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean position and per-axis extent of a point set."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) == 0:
        raise InputRejected(f"need a non-empty (N, 3) point array, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise InputRejected("point set contains non-finite values")
    return pts.mean(axis=0), pts.max(axis=0) - pts.min(axis=0)


def centroids_and_sizes(clouds: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """:func:`centroid_and_size` of each non-empty (N, 3) float64 cloud, bit for bit, as rows.

    All clouds are reduced together, so a frame pays a few NumPy calls in
    all rather than a few per node.  The extents take one
    ``np.minimum.reduceat``/``np.maximum.reduceat`` each over the
    concatenated points; a NaN or an infinity always reaches the min or
    the max, so non-finite extremes refuse the set as
    :func:`centroid_and_size` does.  ``np.mean`` over axis 0 adds one point
    after another, and ``np.add.reduceat`` sums in another order, which
    would move the last bit of centroids.  So the centroids are one sum
    over the first axis of a (most points x clouds x 3) array padded with
    ``-0.0``: it also adds one point of every cloud after another, and
    adding ``-0.0`` leaves every sum (``-0.0`` too) as it is.
    """
    counts = [len(cloud) for cloud in clouds]
    points = np.concatenate(clouds)
    starts = [0, *accumulate(counts[:-1])]
    lo = np.minimum.reduceat(points, starts)
    hi = np.maximum.reduceat(points, starts)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise InputRejected("point set contains non-finite values")
    padded = np.full((max(counts), len(clouds), 3), -0.0)
    for k, cloud in enumerate(clouds):
        padded[: len(cloud), k] = cloud
    return padded.sum(axis=0) / np.array(counts)[:, None], hi - lo


def _area(box: BoundingBox2D) -> float:
    return (box.x_max - box.x_min) * (box.y_max - box.y_min)


def _center(box: BoundingBox2D) -> tuple[float, float]:
    return (box.x_min + box.x_max) / 2.0, (box.y_min + box.y_max) / 2.0


def _diagonal(box: BoundingBox2D) -> float:
    return math.hypot(box.x_max - box.x_min, box.y_max - box.y_min)


def union_box(a: BoundingBox2D, b: BoundingBox2D) -> BoundingBox2D:
    """Smallest box covering both inputs."""
    return BoundingBox2D(
        min(a.x_min, b.x_min),
        min(a.y_min, b.y_min),
        max(a.x_max, b.x_max),
        max(a.y_max, b.y_max),
    )


def iou(a: BoundingBox2D, b: BoundingBox2D) -> float:
    """Intersection over union of two boxes; refused when the union's area leaves the float range."""
    iw = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    ih = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = _area(a) + _area(b) - inter
    if not 0.0 < union < math.inf:  # NaN fails too
        raise InputRejected(
            f"the IoU of box {a.as_tuple()} and box {b.as_tuple()} is undefined: their union's area is {union}"
        )
    return inter / union
