from __future__ import annotations

from types import MappingProxyType
from typing import NamedTuple

import numpy as np
import pytest

from stovsg import (
    APPEARED,
    DISAPPEARED,
    BoundingBox2D,
    CameraModel,
    Detection,
    DepthImage,
    EngineConfig,
    FrameGraph,
    FrameInput,
    GroundTruthLog,
    LatencyTag,
    ObjectNode,
    PixelMask,
    ScenarioSpec,
    SceneGraph4D,
    Track,
    empty_graph,
    generate_stream,
    ingest_sequence,
)
from stovsg.model import TemporalEdge

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


class TrackSpec(NamedTuple):
    """A track for :func:`track_graph`: its record, and its newest node's centroid, label and observed time."""

    track_id: int
    centroid: tuple = (0.0, 0.0, 1.0)
    descriptor: np.ndarray | None = None
    label: str = "red mug"
    obs_time: float = 0.0
    retired: bool = False  # a retired track keeps its node and edges but has no record


TRACK_NODE_IDS = 10_000  # track k's one node is node TRACK_NODE_IDS + k, clear of the ids the tests give nodes


def track_graph(*tracks: TrackSpec) -> SceneGraph4D:
    """A valid graph of the given tracks, each one node on an appeared edge, in the order given.

    Each track's node lies in a frame observed at its ``obs_time``, and
    carries its descriptor as its image feature.  Tracks observed at one
    time share a frame; frames are captured in order of observed time,
    each with no transmission latency, so that its observed time is exactly
    the one given.  The tracks in the newest frame are active; each other
    track disappears in the frame after its node's.
    """
    descriptors = {t.track_id: t.descriptor if t.descriptor is not None else axis(1) for t in tracks}
    frames, edges, before = [], [], []
    for index, time in enumerate(sorted({t.obs_time for t in tracks}), 1):
        on = [t for t in tracks if t.obs_time == time]
        nodes = tuple(
            make_node(TRACK_NODE_IDS + t.track_id, t.centroid, t.label, f_img=descriptors[t.track_id]) for t in on
        )
        frames.append(FrameGraph(index, LatencyTag(time, 0.0), nodes, ()))
        edges += [TemporalEdge(DISAPPEARED, t.track_id, index, TRACK_NODE_IDS + t.track_id) for t in before]
        edges += [TemporalEdge(APPEARED, t.track_id, index, dst_node=TRACK_NODE_IDS + t.track_id) for t in on]
        before = on
    records = {t.track_id: Track(t.track_id, descriptors[t.track_id]) for t in tracks if not t.retired}
    last = max((t.track_id for t in tracks), default=0)
    return SceneGraph4D(tuple(frames), tuple(edges), MappingProxyType(records), TRACK_NODE_IDS + last + 1, last + 1)


def one_track(**fields) -> tuple[Track, ObjectNode]:
    """Track 1 with the given :class:`TrackSpec` fields, and its newest node."""
    graph = track_graph(TrackSpec(1, **fields))
    return graph.tracks[1], graph.newest_node(1)


def ingested(spec: ScenarioSpec, config: EngineConfig) -> tuple[SceneGraph4D, GroundTruthLog]:
    """The scenario's stream ingested in order into an empty graph, and its truth log."""
    inputs, truth = generate_stream(spec)
    return ingest_sequence(empty_graph(), inputs, config), truth


@pytest.fixture
def config() -> EngineConfig:
    return EngineConfig()
