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
    freeze_array,
    normalize_label,
)
from .store import FrameInput

FAMILY_OCCLUSION = "occlusion_after_command"
FAMILY_TARGET_MOVED = "target_moved"
FAMILY_DISTRACTOR = "same_class_distractor"
FAMILY_MOVED_REFERENCE = "moved_reference"
FAMILIES = (FAMILY_OCCLUSION, FAMILY_TARGET_MOVED, FAMILY_DISTRACTOR, FAMILY_MOVED_REFERENCE)

NEAR = "near"
# frames one stream may have: each keeps a float32 depth image (77 KB at 160x120)
MAX_FRAMES = 100_000


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
        object.__setattr__(self, "txt_archetype", freeze_array(self.txt_archetype))
        object.__setattr__(self, "img_archetype", freeze_array(self.img_archetype))
        object.__setattr__(
            self,
            "waypoints",
            tuple((float(t), freeze_array(p)) for t, p in self.waypoints),
        )

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
                if t1 == t0:
                    return p0
                f = (t - t0) / (t1 - t0)
                return p0 + f * (p1 - p0)
        return wps[0][1]

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
        starts = [start for start, _ in self.steps]
        if not all(a <= b for a, b in zip(starts, starts[1:])):
            raise InputRejected(f"latency profile steps must be in ascending from_time order, got {starts}")

    @staticmethod
    def constant(delay: float) -> "LatencyProfile":
        return LatencyProfile(steps=((0.0, float(delay)),))

    def delay_at(self, t: float) -> float:
        if not self.steps:
            raise InputRejected("latency profile has no steps")
        delay = self.steps[0][1]
        for start, value in self.steps:
            if start <= t:
                delay = value
            else:
                break
        if delay < 0:
            raise InputRejected(f"negative delay {delay} at time {t}")
        return delay


@dataclass(frozen=True, eq=False)
class SimCommand:
    text: str
    embedding: np.ndarray
    intended_id: int
    issue_time: float

    def __post_init__(self):
        object.__setattr__(self, "embedding", freeze_array(self.embedding))


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


@dataclass(frozen=True, eq=False)
class DetectionTruth:
    true_id: int
    label: str
    centroid: np.ndarray  # true (noise-free) position at capture time

    def __post_init__(self):
        object.__setattr__(self, "centroid", freeze_array(self.centroid))


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
        object.__setattr__(self, "centroid_at_issue", freeze_array(self.centroid_at_issue))
        object.__setattr__(self, "centroid_at_arrival", freeze_array(self.centroid_at_arrival))


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
    return noisy / norm if norm > 0 else np.asarray(archetype, dtype=np.float64)


def _project_box(position: np.ndarray, size, camera: CameraModel) -> tuple[BoundingBox2D, float] | None:
    """Project a world-space box to pixel bounds plus its center depth."""
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
    return BoundingBox2D(min(us), min(vs), max(us), max(vs)), z_center


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
            box, z_center = projected
            box = BoundingBox2D(
                max(box.x_min, 0.0), max(box.y_min, 0.0), min(box.x_max, float(width)), min(box.y_max, float(height))
            )
            if not box.is_valid():
                continue  # fully outside the image
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


def _default_camera() -> CameraModel:
    return CameraModel(fx=130.0, fy=130.0, cx=80.0, cy=60.0)


def _axis(dim: int, index: int) -> np.ndarray:
    vec = np.zeros(dim)
    vec[index] = 1.0
    return vec


def _in_plane(dim: int, angle_deg: float) -> np.ndarray:
    """Unit vector in the span of the first two axes, ``angle_deg`` off axis 0."""
    vec = np.zeros(dim)
    vec[0] = math.cos(angle_deg * _DEG)
    vec[1] = math.sin(angle_deg * _DEG)
    return vec


def _grid(params: dict, delay: float) -> tuple[float, float, float, int]:
    """Issue time anchored mid-interval on the frame grid.

    Returns (issue, arrival, frame_rate, anchor_index).  The anchor leaves
    at least one full second of pre-issue footage beyond the uplink delay,
    so a latency-aligned query always has a frame to land on.
    """
    rate = float(params.get("frame_rate", 10.0))
    if not 0 < rate < math.inf:
        raise InputRejected(f"frame_rate must be positive and finite, got {rate}")
    if not 0 < delay < math.inf:
        raise InputRejected(f"delay must be positive and finite, got {delay}")
    k0 = int(math.ceil((1.0 + delay) * rate))
    issue = (k0 + 0.5) / rate
    return issue, issue + delay, rate, k0


_SIZE = (0.12, 0.12, 0.12)


def make_scenario(family: str, params: dict | None = None) -> ScenarioSpec:
    """Construct one adversarial scenario.

    ``params`` accepts: ``seed``, ``delay`` (both link directions), ``frame_rate``,
    ``noise`` (a :class:`NoiseModel`), plus family extras — ``gap`` (occlusion
    re-entry delay), ``move_distance``, ``with_distractor``, ``distractor_angle_deg``.
    Raises when the requested delay cannot fit the family's defining events
    between issue and arrival on the frame grid.
    """
    params = dict(params or {})
    seed = int(params.get("seed", 0))
    delay = float(params.get("delay", 1.0))
    noise = params.get("noise", NoiseModel())
    dim = int(params.get("feature_dim", 16))
    if dim < 4:
        raise InputRejected(f"feature_dim must be at least 4, got {dim}")
    issue, arrival, rate, k0 = _grid(params, delay)
    camera = _default_camera()
    link = LatencyProfile.constant(delay)

    base = dict(
        seed=seed,
        frame_rate=rate,
        image_width=160,
        image_height=120,
        feature_dim=dim,
        camera=camera,
        noise=noise,
        uplink=link,
        downlink=link,
    )

    target_txt = _axis(dim, 0)
    target_img = _in_plane(dim, 25.0)
    angle = float(params.get("distractor_angle_deg", 10.0))
    # The newcomer's appearance sits `angle` degrees from the target's, on
    # the side closer to the command embedding: a naive newest-frame match
    # prefers it, while issue-time alignment never sees it.
    distractor_img = _in_plane(dim, 25.0 - angle)

    event1 = (k0 + 1) / rate  # first in-window frame capture
    event2 = (k0 + 2) / rate  # second in-window frame capture
    if not issue < event1 < arrival:
        raise InputRejected(
            f"delay {delay} too short for an in-window event at {rate} fps"
        )

    if family == FAMILY_OCCLUSION:
        gap = float(params.get("gap", delay + 1.0))
        if gap <= 0:
            raise InputRejected(f"gap must be positive, got {gap}")
        reappear = event1 + gap
        duration = reappear + 1.5
        target = SimObject(
            true_id=1,
            label="red mug",
            size=_SIZE,
            txt_archetype=target_txt,
            img_archetype=target_img,
            waypoints=((0.0, np.array([0.15, 0.05, 1.5])),),
            visibility=((0.0, event1), (reappear, math.inf)),
        )
        objects = (
            target,
            _static_filler(2, "yellow block", dim, 2, [-0.35, 0.08, 1.6]),
            _static_filler(3, "green plate", dim, 3, [-0.05, -0.25, 1.4]),
        )
        command = SimCommand("pick up the red mug", target_txt, 1, issue)
        return ScenarioSpec(
            family=family, duration=duration, objects=objects, commands=(command,), **base
        )

    if family == FAMILY_TARGET_MOVED:
        if not event2 < arrival:
            raise InputRejected(
                f"delay {delay} too short for two in-window events at {rate} fps"
            )
        move = float(params.get("move_distance", 0.3))
        a = np.array([0.15, 0.05, 1.5])
        b = a + np.array([-move, 0.0, 0.0])
        target = SimObject(
            true_id=1,
            label="red mug",
            size=_SIZE,
            txt_archetype=target_txt,
            img_archetype=target_img,
            waypoints=((0.0, a), (event1, a), (event1, b)),
        )
        objects = [target, _static_filler(2, "yellow block", dim, 2, [-0.45, 0.1, 1.6])]
        if params.get("with_distractor", True):
            objects.append(
                SimObject(
                    true_id=3,
                    label="red mug",
                    size=_SIZE,
                    txt_archetype=target_txt,
                    img_archetype=distractor_img,
                    waypoints=((0.0, a),),  # parks exactly where the target was seen
                    visibility=((event2, math.inf),),
                )
            )
        command = SimCommand("pick up the red mug", target_txt, 1, issue)
        return ScenarioSpec(
            family=family,
            duration=arrival + 1.0,
            objects=tuple(objects),
            commands=(command,),
            **base,
        )

    if family == FAMILY_DISTRACTOR:
        target = SimObject(
            true_id=1,
            label="red mug",
            size=_SIZE,
            txt_archetype=target_txt,
            img_archetype=target_img,
            waypoints=((0.0, np.array([0.15, 0.05, 1.5])),),
        )
        twin = SimObject(
            true_id=2,
            label="red mug",
            size=_SIZE,
            txt_archetype=target_txt,
            img_archetype=distractor_img,
            waypoints=((0.0, np.array([-0.25, 0.05, 1.5])),),
            visibility=((event1, math.inf),),
        )
        objects = (target, twin, _static_filler(3, "yellow block", dim, 2, [0.5, -0.2, 1.7]))
        command = SimCommand("pick up the red mug", target_txt, 1, issue)
        return ScenarioSpec(
            family=family,
            duration=arrival + 1.0,
            objects=objects,
            commands=(command,),
            **base,
        )

    if family == FAMILY_MOVED_REFERENCE:
        apple_img = _in_plane(dim, 25.0)
        other_apple_img = _in_plane(dim, -25.0)
        apple = SimObject(
            true_id=1,
            label="apple",
            size=_SIZE,
            txt_archetype=target_txt,
            img_archetype=apple_img,
            waypoints=((0.0, np.array([0.1, 0.0, 1.5])),),
        )
        phone_pos = np.array([0.1, 0.18, 1.5])
        phone_after = np.array([-0.4, 0.18, 1.5])
        phone = SimObject(
            true_id=2,
            label="phone",
            size=_SIZE,
            txt_archetype=_axis(dim, 2),
            img_archetype=_axis(dim, 3),
            waypoints=((0.0, phone_pos), (event1, phone_pos), (event1, phone_after)),
        )
        other_apple = SimObject(
            true_id=3,
            label="apple",
            size=_SIZE,
            txt_archetype=target_txt,
            img_archetype=other_apple_img,
            waypoints=((0.0, np.array([-0.24, 0.18, 1.5])),),
        )
        # the description matches how the intended apple photographs
        embedding = _in_plane(dim, 10.0)
        command = SimCommand("pick up the apple next to the phone", embedding, 1, issue)
        return ScenarioSpec(
            family=family,
            duration=arrival + 1.0,
            objects=(apple, phone, other_apple),
            commands=(command,),
            **base,
        )

    raise InputRejected(f"unknown scenario family {family!r}; expected one of {FAMILIES}")


def _static_filler(true_id: int, label: str, dim: int, axis_pair: int, position) -> SimObject:
    return SimObject(
        true_id=true_id,
        label=label,
        size=_SIZE,
        txt_archetype=_axis(dim, 2 * axis_pair),
        img_archetype=_axis(dim, 2 * axis_pair + 1),
        waypoints=((0.0, np.array(position, dtype=np.float64)),),
    )


_RANDOM_LABELS = ("red mug", "yellow block", "green plate", "apple", "phone", "bowl")


def make_random_scenario(seed: int, with_command: bool = False) -> ScenarioSpec:
    """A short fuzzing scenario: random layout, motion, gaps, and noise."""
    rng = np.random.default_rng(seed)
    dim = 16
    n_objects = int(rng.integers(1, 5))
    duration = 3.0
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
        waypoints = [(0.0, pos)]
        if rng.random() < 0.5:  # one mid-run jump
            jump_t = float(rng.uniform(0.8, 2.2))
            target = pos + np.array([rng.uniform(-0.15, 0.15), rng.uniform(-0.1, 0.1), 0.0])
            waypoints += [(jump_t, pos), (jump_t, target)]
        visibility: tuple[tuple[float, float], ...] = ((0.0, math.inf),)
        if rng.random() < 0.3:  # one visibility gap
            off = float(rng.uniform(0.7, 1.8))
            back = off + float(rng.uniform(0.3, 0.8))
            visibility = ((0.0, off), (back, math.inf))
        txt = rng.standard_normal(dim)
        img = rng.standard_normal(dim)
        objects.append(
            SimObject(
                true_id=i + 1,
                label=_RANDOM_LABELS[int(rng.integers(0, len(_RANDOM_LABELS)))],
                size=_SIZE,
                txt_archetype=txt / np.linalg.norm(txt),
                img_archetype=img / np.linalg.norm(img),
                waypoints=tuple(waypoints),
                visibility=visibility,
            )
        )
    noise = NoiseModel(
        centroid_sigma=float(rng.choice([0.0, 0.004, 0.015])),
        feature_sigma=float(rng.choice([0.0, 0.05])),
        dropout_prob=float(rng.choice([0.0, 0.1, 0.3])),
        label_flip_prob=float(rng.choice([0.0, 0.1])),
    )
    delay = float(rng.choice([0.25, 0.5, 1.0]))
    commands = ()
    if with_command and objects:
        intended = objects[0]
        commands = (
            SimCommand(
                text=f"pick up the {intended.label}",
                embedding=intended.txt_archetype,
                intended_id=intended.true_id,
                issue_time=1.55,
            ),
        )
    return ScenarioSpec(
        family="random",
        seed=seed,
        duration=duration,
        frame_rate=10.0,
        image_width=160,
        image_height=120,
        feature_dim=dim,
        camera=_default_camera(),
        objects=tuple(objects),
        noise=noise,
        uplink=LatencyProfile.constant(delay),
        downlink=LatencyProfile.constant(delay),
        commands=commands,
    )
