from __future__ import annotations

import numpy as np
import pytest

from stovsg import (
    BoundingBox2D,
    CameraModel,
    Detection,
    DepthImage,
    EngineConfig,
    FrameInput,
    LatencyTag,
    ObjectNode,
    PixelMask,
    Track,
    TrackStatus,
)

DIM = 8


def axis(i: int, dim: int = DIM) -> np.ndarray:
    vec = np.zeros(dim)
    vec[i] = 1.0
    return vec


def in_plane(angle_deg: float, dim: int = DIM) -> np.ndarray:
    vec = np.zeros(dim)
    vec[0] = np.cos(np.radians(angle_deg))
    vec[1] = np.sin(np.radians(angle_deg))
    return vec


def rect_mask(x0: int, y0: int, w: int, h: int) -> PixelMask:
    uu, vv = np.meshgrid(np.arange(x0, x0 + w), np.arange(y0, y0 + h))
    return PixelMask.from_pixels(np.stack([uu.ravel(), vv.ravel()], axis=1))


def make_camera(**overrides) -> CameraModel:
    args = dict(fx=100.0, fy=100.0, cx=64.0, cy=48.0)
    args.update(overrides)
    return CameraModel(**args)


def flat_depth(width: int = 128, height: int = 96, value: float = 2.0) -> DepthImage:
    return DepthImage(np.full((height, width), value, dtype=np.float32))


def make_detection(
    x0: int = 10,
    y0: int = 10,
    w: int = 4,
    h: int = 4,
    label: str = "red mug",
    f_img: np.ndarray | None = None,
    f_txt: np.ndarray | None = None,
) -> Detection:
    return Detection(
        box=BoundingBox2D(float(x0), float(y0), float(x0 + w), float(y0 + h)),
        mask=rect_mask(x0, y0, w, h),
        label=label,
        f_img=f_img if f_img is not None else axis(1),
        f_txt=f_txt if f_txt is not None else axis(0),
    )


def make_frame_input(
    capture_time: float,
    latency: float = 0.5,
    detections: tuple[Detection, ...] = (),
    candidates: tuple = (),
    camera: CameraModel | None = None,
    depth: DepthImage | None = None,
) -> FrameInput:
    return FrameInput(
        latency_tag=LatencyTag(capture_time=capture_time, transmission_latency=latency),
        camera=camera if camera is not None else make_camera(),
        depth=depth if depth is not None else flat_depth(),
        detections=detections,
        relation_candidates=candidates,
    )


def make_node(
    node_id: int,
    centroid=(0.0, 0.0, 1.0),
    label: str = "red mug",
    f_img: np.ndarray | None = None,
    f_txt: np.ndarray | None = None,
) -> ObjectNode:
    c = np.asarray(centroid, dtype=np.float64)
    return ObjectNode(
        node_id=node_id,
        label=label,
        f_img=f_img if f_img is not None else axis(1),
        f_txt=f_txt if f_txt is not None else axis(0),
        centroid=c,
        size=np.array([0.1, 0.1, 0.0]),
        points=np.stack([c, c]),
    )


def make_track(
    track_id: int,
    centroid=(0.0, 0.0, 1.0),
    descriptor: np.ndarray | None = None,
    label: str = "red mug",
    last_seen_time: float = 0.0,
    status: TrackStatus = TrackStatus.ACTIVE,
) -> Track:
    return Track(
        track_id=track_id,
        centroid=np.asarray(centroid, dtype=np.float64),
        descriptor=descriptor if descriptor is not None else axis(1),
        label=label,
        last_seen_time=last_seen_time,
        status=status,
    )


@pytest.fixture
def config() -> EngineConfig:
    return EngineConfig()
