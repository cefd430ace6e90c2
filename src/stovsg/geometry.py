"""Depth-based 3D lifting and 2D box arithmetic."""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _check_camera(camera: CameraModel) -> None:
    bad = camera.violations
    if bad:
        raise InputRejected("; ".join(bad))


def lift_pixel(u: float, v: float, depth: float, camera: CameraModel) -> np.ndarray:
    """Back-project one pixel with a metric depth into the world frame."""
    _check_camera(camera)
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
    """
    _check_camera(camera)
    if not mask.in_bounds(depth.width, depth.height):
        raise InputRejected("mask pixel outside depth image bounds")
    if len(mask) == 0:
        return np.zeros((0, 3))
    u = mask.pixels[:, 0]
    v = mask.pixels[:, 1]
    d = depth.values[v, u].astype(np.float64)
    keep = np.isfinite(d) & (d > 0)
    u, v, d = u[keep], v[keep], d[keep]
    cam = np.stack(
        [
            d * (u - camera.cx) / camera.fx,
            d * (v - camera.cy) / camera.fy,
            d,
        ],
        axis=1,
    )
    return cam @ camera.rotation.T + camera.translation


def project_point(point, camera: CameraModel) -> tuple[float, float, float]:
    """World point -> (u, v, camera-frame depth).  Inverse of :func:`lift_pixel`."""
    _check_camera(camera)
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


def _require_valid(*boxes: BoundingBox2D) -> None:
    for b in boxes:
        if not b.is_valid():
            raise InputRejected(f"invalid box {b.as_tuple()}")


# Unchecked formulas: callers validate the boxes first, once each.
def _area(box: BoundingBox2D) -> float:
    return (box.x_max - box.x_min) * (box.y_max - box.y_min)


def _center(box: BoundingBox2D) -> tuple[float, float]:
    return (box.x_min + box.x_max) / 2.0, (box.y_min + box.y_max) / 2.0


def _diagonal(box: BoundingBox2D) -> float:
    return math.hypot(box.x_max - box.x_min, box.y_max - box.y_min)


def _iou(a: BoundingBox2D, b: BoundingBox2D) -> float:
    iw = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    ih = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (_area(a) + _area(b) - inter)


def area(box: BoundingBox2D) -> float:
    _require_valid(box)
    return _area(box)


def center(box: BoundingBox2D) -> np.ndarray:
    _require_valid(box)
    return np.array(_center(box))


def diagonal(box: BoundingBox2D) -> float:
    _require_valid(box)
    return _diagonal(box)


def union_box(a: BoundingBox2D, b: BoundingBox2D) -> BoundingBox2D:
    """Smallest box covering both inputs."""
    _require_valid(a, b)
    return BoundingBox2D(
        min(a.x_min, b.x_min),
        min(a.y_min, b.y_min),
        max(a.x_max, b.x_max),
        max(a.y_max, b.y_max),
    )


def iou(a: BoundingBox2D, b: BoundingBox2D) -> float:
    """Intersection over union of two valid boxes."""
    _require_valid(a, b)
    return _iou(a, b)
