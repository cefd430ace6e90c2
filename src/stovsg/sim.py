"""Synthetic teleoperation scenarios with ground truth.

A scenario is a fully deterministic description of a small tabletop scene:
objects with feature archetypes, piecewise-linear trajectories (duplicate
waypoint times encode jumps), visibility intervals, link-latency profiles,
and operator commands.  ``generate_stream`` renders it into the same
detection stream a perception front-end would produce, together with a
ground-truth log for scoring.

Four adversarial scenario families target latency failure modes: the
target occluding after the command was issued, the target moving while a
look-alike takes its old place, a visual twin appearing after issue time,
and a reference landmark moving away.  Each family times its defining
events strictly between command issue and command arrival.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import InputRejected
from .geometry import DepthImage, project_point, union_box
from .model import (
    BoundingBox2D,
    CameraModel,
    Detection,
    LatencyTag,
    PixelMask,
    RelationCandidate,
    as_feature,
    feature_problems,
    freeze_array,
    normalize_label,
)
from .store import FrameInput

FAMILY_OCCLUSION = "occlusion_after_command"
FAMILY_TARGET_MOVED = "target_moved"
FAMILY_DISTRACTOR = "same_class_distractor"
FAMILY_MOVED_REFERENCE = "moved_reference"

NEAR = "near"
# frames one stream may have: each keeps a float32 depth image (77 KB at 160x120)
MAX_FRAMES = 100_000
MAX_IMAGE_SIDE = 4096  # pixels; every frame renders a depth image this wide and high


def _position(name: str, values) -> np.ndarray:
    """``values`` as a read-only position; anything but 3 numbers is refused, naming ``name``."""
    arr = freeze_array(values)
    if arr.shape != (3,):
        raise InputRejected(f"{name}: expected 3 numbers, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class SimObject:
    """One physical object: identity, appearance, motion, visibility."""

    true_id: int
    label: str
    size: tuple[float, float, float]
    txt_archetype: np.ndarray
    img_archetype: np.ndarray
    waypoints: tuple[tuple[float, np.ndarray], ...]  # (time, xyz), times non-decreasing
    visibility: tuple[tuple[float, float], ...] = ((0.0, math.inf),)  # half-open [start, end)

    def __post_init__(self):
        object.__setattr__(self, "txt_archetype", as_feature(self.txt_archetype))
        object.__setattr__(self, "img_archetype", as_feature(self.img_archetype))
        object.__setattr__(
            self,
            "waypoints",
            tuple((float(t), _position(f"waypoints[{i}]", p)) for i, (t, p) in enumerate(self.waypoints)),
        )
        if not normalize_label(self.label):  # detections carry it normalized
            raise InputRejected("empty label")
        if len(self.size) != 3:
            raise InputRejected(f"size: expected 3 numbers, got {len(self.size)}")
        if not self.waypoints:
            raise InputRejected("waypoints: expected at least one")
        if not all(math.isfinite(t) for t, _ in self.waypoints):  # position_at compares t with each time
            raise InputRejected(f"waypoints: times must be finite, got {[t for t, _ in self.waypoints]}")

    def position_at(self, t: float) -> np.ndarray:
        """Piecewise-linear position; duplicate waypoint times act as steps."""
        wps = self.waypoints
        if t <= wps[0][0]:
            return wps[0][1]
        for i in range(len(wps) - 1, -1, -1):
            if wps[i][0] <= t:
                if i == len(wps) - 1:
                    return wps[i][1]
                t0, p0 = wps[i]
                t1, p1 = wps[i + 1]
                f = (t - t0) / (t1 - t0)
                return p0 + f * (p1 - p0)

    def visible_at(self, t: float) -> bool:
        return any(start <= t < end for start, end in self.visibility)


@dataclass(frozen=True)
class NoiseModel:
    """Per-detection corruption levels; all default to a clean stream."""

    centroid_sigma: float = 0.0  # metres, isotropic position jitter
    feature_sigma: float = 0.0  # additive feature noise before renormalizing
    dropout_prob: float = 0.0
    label_flip_prob: float = 0.0


def noise_preset(level: float) -> NoiseModel:
    """Scale every corruption knob by one dial in [0, 1]."""
    if not 0.0 <= level <= 1.0:
        raise InputRejected(f"noise level must be in [0, 1], got {level}")
    return NoiseModel(
        centroid_sigma=0.02 * level,
        feature_sigma=0.08 * level,
        dropout_prob=0.1 * level,
        label_flip_prob=0.05 * level,
    )


@dataclass(frozen=True)
class LatencyProfile:
    """Piecewise-constant transmission delay over send time."""

    steps: tuple[tuple[float, float], ...]  # (from_time, delay), in ascending from_time order

    def __post_init__(self):
        if not self.steps:
            raise InputRejected("latency profile has no steps")
        starts = [start for start, _ in self.steps]
        if not all(a <= b for a, b in zip(starts, starts[1:])):
            raise InputRejected(f"latency profile steps must be in ascending from_time order, got {starts}")
        if not all(delay >= 0 for _, delay in self.steps):  # NaN fails too
            raise InputRejected(f"latency profile delays must be non-negative, got {[d for _, d in self.steps]}")
        if math.inf in (delay for _, delay in self.steps):  # a frame would never arrive
            raise InputRejected(f"latency profile delays must be finite, got {[d for _, d in self.steps]}")

    @staticmethod
    def constant(delay: float) -> "LatencyProfile":
        return LatencyProfile(steps=((0.0, float(delay)),))

    def delay_at(self, t: float) -> float:
        delay = self.steps[0][1]
        for start, value in self.steps:
            if start <= t:
                delay = value
            else:
                break
        return delay


@dataclass(frozen=True, eq=False)
class SimCommand:
    text: str
    embedding: np.ndarray
    intended_id: int
    issue_time: float

    def __post_init__(self):
        object.__setattr__(self, "embedding", as_feature(self.embedding))


@dataclass(frozen=True, eq=False)
class ScenarioSpec:
    """Complete, serializable description of one simulated episode."""

    family: str
    seed: int
    duration: float
    frame_rate: float
    image_width: int
    image_height: int
    feature_dim: int
    camera: CameraModel
    objects: tuple[SimObject, ...]
    noise: NoiseModel = field(default_factory=NoiseModel)
    uplink: LatencyProfile = field(default_factory=lambda: LatencyProfile.constant(0.5))
    downlink: LatencyProfile = field(default_factory=lambda: LatencyProfile.constant(0.5))
    near_threshold: float = 0.25  # metres; closer pairs propose a "near" relation
    commands: tuple[SimCommand, ...] = ()

    def __post_init__(self):
        first_with: dict[int, int] = {}  # true id -> index of the first object holding it
        for i, obj in enumerate(self.objects):
            # the truth log tells objects apart by id alone
            j = first_with.setdefault(obj.true_id, i)
            if j != i:
                raise InputRejected(f"objects[{i}]: true_id {obj.true_id} is already used by objects[{j}]")
            # the engine refuses a detection whose feature it cannot compare
            for name in ("txt_archetype", "img_archetype"):
                for problem in feature_problems(name, getattr(obj, name), self.feature_dim):
                    raise InputRejected(f"objects[{i}]: {problem}")
        for i, command in enumerate(self.commands):  # and cannot score such a command
            for problem in feature_problems("embedding", command.embedding, self.feature_dim):
                raise InputRejected(f"commands[{i}]: {problem}")


@dataclass(frozen=True, eq=False)
class DetectionTruth:
    true_id: int
    label: str
    centroid: np.ndarray  # true (noise-free) position at capture time

    def __post_init__(self):
        object.__setattr__(self, "centroid", _position("centroid", self.centroid))


@dataclass(frozen=True, eq=False)
class FrameTruth:
    frame_index: int
    capture_time: float
    detections: tuple[DetectionTruth, ...]
    relations: tuple[tuple[int, int, str], ...]  # (true_id, true_id, relation)


@dataclass(frozen=True, eq=False)
class CommandTruth:
    intended_id: int
    issue_time: float
    arrival_time: float
    centroid_at_issue: np.ndarray
    centroid_at_arrival: np.ndarray

    def __post_init__(self):
        for name in ("centroid_at_issue", "centroid_at_arrival"):
            object.__setattr__(self, name, _position(name, getattr(self, name)))


@dataclass(frozen=True, eq=False)
class GroundTruthLog:
    frames: tuple[FrameTruth, ...]
    commands: tuple[CommandTruth, ...]


def _label_archetype(label: str, dim: int) -> np.ndarray:
    """Deterministic unit vector for labels without a declared archetype."""
    rng = np.random.default_rng(zlib.crc32(label.encode("utf-8")))
    vec = rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def _unit_or_noisy(archetype: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    if sigma <= 0:
        return np.asarray(archetype, dtype=np.float64)
    noisy = archetype + sigma * rng.standard_normal(archetype.shape[0])
    norm = np.linalg.norm(noisy)
    if not math.isfinite(norm):
        raise InputRejected(f"noise.feature_sigma {sigma} is too large: a noisy feature overflowed")
    return noisy / norm if norm > 0 else np.asarray(archetype, dtype=np.float64)


def _project_box(position: np.ndarray, size, camera: CameraModel) -> tuple[tuple, float] | None:
    """Project a world-space box to its pixel edges ``(u_min, v_min, u_max, v_max)`` plus its center depth."""
    half = np.asarray(size, dtype=np.float64) / 2.0
    corners = position + half * np.array(
        [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
    )
    us, vs = [], []
    for corner in corners:
        try:
            u, v, _ = project_point(corner, camera)
        except InputRejected:
            return None  # behind the camera
        us.append(u)
        vs.append(v)
    _, _, z_center = project_point(position, camera)
    return (min(us), min(vs), max(us), max(vs)), z_center


def _mask_from_box(box: BoundingBox2D, width: int, height: int) -> PixelMask | None:
    u0 = max(int(math.ceil(box.x_min)), 0)
    v0 = max(int(math.ceil(box.y_min)), 0)
    u1 = min(int(math.ceil(box.x_max)) - 1, width - 1)
    v1 = min(int(math.ceil(box.y_max)) - 1, height - 1)
    if u1 < u0 or v1 < v0:
        return None
    uu, vv = np.meshgrid(np.arange(u0, u1 + 1), np.arange(v0, v1 + 1))
    return PixelMask.from_pixels(np.stack([uu.ravel(), vv.ravel()], axis=1))


def generate_stream(spec: ScenarioSpec) -> tuple[list[FrameInput], GroundTruthLog]:
    """Render a scenario into frame inputs plus the matching truth log.

    The same spec always yields the same stream, bit for bit.  Detections
    follow the object declaration order; relations propose a ``near`` pair
    for emitted detections whose true positions are within the threshold.
    Each pixel shows the nearest object covering it (ties: the later
    declared), a mask keeps only its object's visible pixels, and an object
    hidden entirely behind nearer ones is not detected.
    """
    if spec.seed < 0:
        raise InputRejected(f"seed must be non-negative, got {spec.seed}")
    span = spec.duration * spec.frame_rate + 1e-9  # frames, before rounding down
    if not span < MAX_FRAMES + 1:  # refused before anything is rendered
        raise InputRejected(
            f"scenario too long: duration {spec.duration} at {spec.frame_rate} fps is more than "
            f"the {MAX_FRAMES} frames a stream may have"
        )
    if max(spec.image_width, spec.image_height) > MAX_IMAGE_SIDE:
        raise InputRejected(
            f"image {spec.image_width}x{spec.image_height} is wider or higher than {MAX_IMAGE_SIDE} pixels"
        )
    n_frames = int(math.floor(span))
    if n_frames < 1:
        raise InputRejected(f"scenario too short: duration {spec.duration} at {spec.frame_rate} fps")
    rng = np.random.default_rng(spec.seed)
    width, height = spec.image_width, spec.image_height
    inputs: list[FrameInput] = []
    truth_frames: list[FrameTruth] = []

    for k in range(1, n_frames + 1):
        t = k / spec.frame_rate
        tag = LatencyTag(capture_time=t, transmission_latency=spec.uplink.delay_at(t))
        z_buffer = np.full((height, width), np.inf)
        owner = np.full((height, width), -1)  # index of the detection each pixel shows
        detections: list[Detection] = []
        det_truths: list[DetectionTruth] = []

        for obj in spec.objects:
            if not obj.visible_at(t):
                continue
            if rng.random() < spec.noise.dropout_prob:
                continue
            true_pos = obj.position_at(t)
            observed = true_pos
            if spec.noise.centroid_sigma > 0:
                observed = true_pos + spec.noise.centroid_sigma * rng.standard_normal(3)
            projected = _project_box(observed, obj.size, spec.camera)
            if projected is None:
                continue
            (u0, v0, u1, v1), z_center = projected
            u0, v0, u1, v1 = max(u0, 0.0), max(v0, 0.0), min(u1, float(width)), min(v1, float(height))
            if not (u0 < u1 and v0 < v1):  # NaN fails too
                continue  # of no size, or fully outside the image
            box = BoundingBox2D(u0, v0, u1, v1)
            mask = _mask_from_box(box, width, height)
            if mask is None:
                continue
            u, v = mask.pixels[:, 0], mask.pixels[:, 1]
            nearer = z_center <= z_buffer[v, u]
            z_buffer[v[nearer], u[nearer]] = z_center
            owner[v[nearer], u[nearer]] = len(detections)

            label = obj.label
            txt_archetype = obj.txt_archetype
            if rng.random() < spec.noise.label_flip_prob:
                label = f"mislabeled {obj.label}"
                txt_archetype = _label_archetype(label, spec.feature_dim)
            f_img = _unit_or_noisy(obj.img_archetype, spec.noise.feature_sigma, rng)
            f_txt = _unit_or_noisy(txt_archetype, spec.noise.feature_sigma, rng)
            detections.append(Detection(box=box, mask=mask, label=label, f_img=f_img, f_txt=f_txt))
            det_truths.append(
                DetectionTruth(true_id=obj.true_id, label=normalize_label(obj.label), centroid=true_pos)
            )

        visible = []
        for i, (det, det_truth) in enumerate(zip(detections, det_truths)):
            shown = owner[det.mask.pixels[:, 1], det.mask.pixels[:, 0]] == i
            if not shown.all():
                if not shown.any():
                    continue  # hidden behind nearer objects
                det = replace(det, mask=PixelMask.from_pixels(det.mask.pixels[shown]))
            visible.append((det, det_truth))
        detections = [det for det, _ in visible]
        det_truths = [truth for _, truth in visible]

        candidates: list[RelationCandidate] = []
        relations: list[tuple[int, int, str]] = []
        for i in range(len(detections)):
            for j in range(i + 1, len(detections)):
                if np.linalg.norm(det_truths[i].centroid - det_truths[j].centroid) <= spec.near_threshold:
                    candidates.append(
                        RelationCandidate(
                            src=i,
                            dst=j,
                            relation=NEAR,
                            zone=union_box(detections[i].box, detections[j].box),
                        )
                    )
                    relations.append((det_truths[i].true_id, det_truths[j].true_id, NEAR))

        inputs.append(
            FrameInput(
                latency_tag=tag,
                camera=spec.camera,
                depth=DepthImage(np.where(owner >= 0, z_buffer, 0.0)),
                detections=tuple(detections),
                relation_candidates=tuple(candidates),
            )
        )
        truth_frames.append(
            FrameTruth(
                frame_index=k,
                capture_time=t,
                detections=tuple(det_truths),
                relations=tuple(relations),
            )
        )

    command_truths = []
    by_id = {obj.true_id: obj for obj in spec.objects}
    for cmd in spec.commands:
        if cmd.intended_id not in by_id:
            raise InputRejected(f"command targets unknown object id {cmd.intended_id}")
        arrival = cmd.issue_time + spec.downlink.delay_at(cmd.issue_time)
        target = by_id[cmd.intended_id]
        command_truths.append(
            CommandTruth(
                intended_id=cmd.intended_id,
                issue_time=cmd.issue_time,
                arrival_time=arrival,
                centroid_at_issue=target.position_at(cmd.issue_time),
                centroid_at_arrival=target.position_at(arrival),
            )
        )

    return inputs, GroundTruthLog(frames=tuple(truth_frames), commands=tuple(command_truths))


# --- scenario construction ------------------------------------------------

_DEG = math.pi / 180.0
_DIM = 16  # feature dimension of every built scenario
_SIZE = (0.12, 0.12, 0.12)
_ALWAYS = ((0.0, math.inf),)


def _default_camera() -> CameraModel:
    return CameraModel(fx=130.0, fy=130.0, cx=80.0, cy=60.0)


def _axis(index: int) -> np.ndarray:
    vec = np.zeros(_DIM)
    vec[index] = 1.0
    return freeze_array(vec)


def _in_plane(angle_deg: float) -> np.ndarray:
    """Unit vector in the span of the first two axes, ``angle_deg`` off axis 0."""
    vec = np.zeros(_DIM)
    vec[0] = math.cos(angle_deg * _DEG)
    vec[1] = math.sin(angle_deg * _DEG)
    return freeze_array(vec)


def _object(true_id: int, label: str, txt, img, position, visibility=_ALWAYS, jump=None) -> SimObject:
    """A static object, or with ``jump`` = ``(time, position)`` one that steps there."""
    waypoints = ((0.0, position),) if jump is None else ((0.0, position), (jump[0], position), jump)
    return SimObject(true_id, label, _SIZE, txt, img, waypoints, visibility)


class _Window(NamedTuple):
    """A command's latency window on the frame grid, and the first two captures after issue."""

    delay: float
    rate: float
    issue: float
    arrival: float
    event1: float
    event2: float


def _window(params: dict) -> _Window:
    """Issue time anchored mid-interval on the frame grid.

    The anchor leaves at least one full second of pre-issue footage beyond
    the uplink delay, so a latency-aligned query always has a frame to land on.
    """
    delay = float(params.get("delay", 1.0))
    rate = float(params.get("frame_rate", 10.0))
    if not 0 < rate < math.inf:
        raise InputRejected(f"frame_rate must be positive and finite, got {rate}")
    if not 0 < delay < math.inf:
        raise InputRejected(f"delay must be positive and finite, got {delay}")
    k0 = int(math.ceil((1.0 + delay) * rate))
    issue = (k0 + 0.5) / rate
    w = _Window(delay, rate, issue, issue + delay, (k0 + 1) / rate, (k0 + 2) / rate)
    if not w.issue < w.event1 < w.arrival:
        raise InputRejected(f"delay {delay} too short for an in-window event at {rate} fps")
    return w


# Each family builder returns its objects and duration; object 1 is the
# command's target.  A twin's appearance sits 10 degrees from the target's,
# on the side closer to the command embedding: a naive newest-frame match
# prefers it, while issue-time alignment never sees it.
_Built = tuple[tuple[SimObject, ...], float]
_MUG_AT = (0.15, 0.05, 1.5)
_TWIN_IMG = _in_plane(15.0)


def _mug(**kwargs) -> SimObject:
    return _object(1, "red mug", _axis(0), _in_plane(25.0), _MUG_AT, **kwargs)


def _occlusion(w: _Window) -> _Built:
    reappear = w.event1 + (w.delay + 1.0)  # hidden for delay + 1 s from the first in-window capture
    return (
        _mug(visibility=((0.0, w.event1), (reappear, math.inf))),
        _object(2, "yellow block", _axis(4), _axis(5), [-0.35, 0.08, 1.6]),
        _object(3, "green plate", _axis(6), _axis(7), [-0.05, -0.25, 1.4]),
    ), reappear + 1.5


def _target_moved(w: _Window) -> _Built:
    if not w.event2 < w.arrival:
        raise InputRejected(f"delay {w.delay} too short for two in-window events at {w.rate} fps")
    seen = np.array(_MUG_AT)
    return (
        _mug(jump=(w.event1, seen + np.array([-0.3, 0.0, 0.0]))),
        _object(2, "yellow block", _axis(4), _axis(5), [-0.45, 0.1, 1.6]),
        # parks exactly where the target was seen
        _object(3, "red mug", _axis(0), _TWIN_IMG, seen, visibility=((w.event2, math.inf),)),
    ), w.arrival + 1.0


def _distractor(w: _Window) -> _Built:
    return (
        _mug(),
        _object(2, "red mug", _axis(0), _TWIN_IMG, [-0.25, 0.05, 1.5], visibility=((w.event1, math.inf),)),
        _object(3, "yellow block", _axis(4), _axis(5), [0.5, -0.2, 1.7]),
    ), w.arrival + 1.0


def _moved_reference(w: _Window) -> _Built:
    return (
        _object(1, "apple", _axis(0), _in_plane(25.0), [0.1, 0.0, 1.5]),
        _object(2, "phone", _axis(2), _axis(3), [0.1, 0.18, 1.5], jump=(w.event1, [-0.4, 0.18, 1.5])),
        _object(3, "apple", _axis(0), _in_plane(-25.0), [-0.24, 0.18, 1.5]),
    ), w.arrival + 1.0


# family -> (builder, command text, command embedding)
_BUILDERS = {
    FAMILY_OCCLUSION: (_occlusion, "pick up the red mug", _axis(0)),
    FAMILY_TARGET_MOVED: (_target_moved, "pick up the red mug", _axis(0)),
    FAMILY_DISTRACTOR: (_distractor, "pick up the red mug", _axis(0)),
    # the description matches how the intended apple photographs
    FAMILY_MOVED_REFERENCE: (_moved_reference, "pick up the apple next to the phone", _in_plane(10.0)),
}
FAMILIES = tuple(_BUILDERS)
PARAMS = ("seed", "delay", "frame_rate", "noise")


def make_scenario(family: str, params: dict | None = None) -> ScenarioSpec:
    """Construct one adversarial scenario.

    ``params`` takes only the keys in :data:`PARAMS`: ``seed``, ``delay``
    (both link directions), ``frame_rate`` and ``noise`` (a
    :class:`NoiseModel`); any other key is refused.  Raises when the delay
    cannot fit the family's defining events between issue and arrival on
    the frame grid.
    """
    params = params or {}
    for key in params:
        if key not in PARAMS:
            raise InputRejected(f"unknown scenario parameter {key!r}; expected one of {PARAMS}")
    if family not in _BUILDERS:
        raise InputRejected(f"unknown scenario family {family!r}; expected one of {FAMILIES}")
    build, text, embedding = _BUILDERS[family]
    w = _window(params)
    objects, duration = build(w)
    link = LatencyProfile.constant(w.delay)
    return ScenarioSpec(
        family=family,
        seed=int(params.get("seed", 0)),
        duration=duration,
        frame_rate=w.rate,
        image_width=160,
        image_height=120,
        feature_dim=_DIM,
        camera=_default_camera(),
        objects=objects,
        noise=params.get("noise", NoiseModel()),
        uplink=link,
        downlink=link,
        commands=(SimCommand(text, embedding, 1, w.issue),),
    )


_RANDOM_LABELS = ("red mug", "yellow block", "green plate", "apple", "phone", "bowl")


def make_random_scenario(seed: int) -> ScenarioSpec:
    """A short fuzzing scenario with no commands: random layout, motion, gaps, and noise."""
    rng = np.random.default_rng(seed)
    n_objects = int(rng.integers(1, 5))
    positions = []
    objects = []
    for i in range(n_objects):
        for _ in range(64):
            pos = np.array(
                [rng.uniform(-0.5, 0.5), rng.uniform(-0.28, 0.28), rng.uniform(1.2, 1.9)]
            )
            if all(np.linalg.norm(pos[:2] - q[:2]) > 0.24 for q in positions):
                break
        positions.append(pos)
        jump = None
        if rng.random() < 0.5:  # one mid-run jump
            jump_t = float(rng.uniform(0.8, 2.2))
            jump = (jump_t, pos + np.array([rng.uniform(-0.15, 0.15), rng.uniform(-0.1, 0.1), 0.0]))
        visibility: tuple[tuple[float, float], ...] = _ALWAYS
        if rng.random() < 0.3:  # one visibility gap
            off = float(rng.uniform(0.7, 1.8))
            back = off + float(rng.uniform(0.3, 0.8))
            visibility = ((0.0, off), (back, math.inf))
        txt = rng.standard_normal(_DIM)
        img = rng.standard_normal(_DIM)
        label = _RANDOM_LABELS[int(rng.integers(0, len(_RANDOM_LABELS)))]
        txt, img = txt / np.linalg.norm(txt), img / np.linalg.norm(img)
        objects.append(_object(i + 1, label, txt, img, pos, visibility, jump))
    noise = NoiseModel(
        centroid_sigma=float(rng.choice([0.0, 0.004, 0.015])),
        feature_sigma=float(rng.choice([0.0, 0.05])),
        dropout_prob=float(rng.choice([0.0, 0.1, 0.3])),
        label_flip_prob=float(rng.choice([0.0, 0.1])),
    )
    link = LatencyProfile.constant(float(rng.choice([0.25, 0.5, 1.0])))
    return ScenarioSpec(
        family="random",
        seed=seed,
        duration=3.0,
        frame_rate=10.0,
        image_width=160,
        image_height=120,
        feature_dim=_DIM,
        camera=_default_camera(),
        objects=tuple(objects),
        noise=noise,
        uplink=link,
        downlink=link,
    )
