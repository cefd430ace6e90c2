"""Seeded scene builders for the three benchmark workloads.

Every scene is made with ``stovsg.sim`` from the workload seed alone, so
the same seed always gives the same frames, commands and truth.  The
engine only ever sees the generated inputs.

The scenes avoid two things on purpose:

* overlapping object boxes in the image, because the simulator paints
  depth without a depth test (a later, farther object overwrites a
  nearer one), which would corrupt node centroids;
* detection dropout and label flips, because a dropped target in the
  aligned frame or a flipped label makes a check fail on some seeds only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import stovsg as S
from stovsg.sim import LatencyProfile, NoiseModel, ScenarioSpec, SimCommand, SimObject

FRAME_RATE = 10.0
DELAY = 0.5  # seconds, both link directions, long_stream and dense_scene
REPLAY_DELAYS = (0.25, 0.5, 1.0, 2.0, 5.0)

# long_stream
LONG_FRAMES = 1000
LONG_COMMANDS = 100
LONG_SIZE = (0.08, 0.08, 0.08)

# dense_scene
DENSE_COLS, DENSE_ROWS = 10, 5
DENSE_SWAP_CELLS = 5  # one object leaves its cell for good, a new one enters
DENSE_GAP_CELLS = 5  # one object leaves and comes back inside the grace period
DENSE_FRAMES = 80
DENSE_COMMANDS = 100
DENSE_SIZE = (0.06, 0.06, 0.06)
DENSE_DIM = 64

# operator_replay
REPLAY_SEEDS = 3  # seed groups, each the four families x the five delays

_COLORS = ("red", "orange", "yellow", "green", "blue", "purple", "black", "white")
_THINGS = ("mug", "block", "plate", "bowl", "phone", "apple", "box", "can")
_WORKLOAD_SALT = {"long_stream": 1, "dense_scene": 2, "operator_replay": 3}


@dataclass(frozen=True, eq=False)
class StreamScene:
    """One long episode: frames, commands and the simulator's truth."""

    spec: ScenarioSpec
    inputs: list
    truth: S.GroundTruthLog
    commands: list  # S.Command, in arrival order, paired with truth.commands


@dataclass(frozen=True, eq=False)
class Episode:
    """One short operator_replay episode, written to disk during set-up."""

    family: str
    delay: float
    spec: ScenarioSpec
    truth: S.GroundTruthLog
    commands: list
    stream_path: str


def rng_for(workload: str, seed: int, *more: int) -> np.random.Generator:
    """The workload's generator for ``seed``; any integer seed is accepted."""
    return np.random.default_rng([int(seed) % 2**63, _WORKLOAD_SALT[workload], *more])


def _camera() -> S.CameraModel:
    return S.CameraModel(fx=130.0, fy=130.0, cx=80.0, cy=60.0)


def _axis(dim: int, index: int) -> np.ndarray:
    vec = np.zeros(dim)
    vec[index] = 1.0
    return vec


def _back_project(u: float, v: float, z: float, camera: S.CameraModel) -> np.ndarray:
    return np.array([z * (u - camera.cx) / camera.fx, z * (v - camera.cy) / camera.fy, z])


def _aligned_capture(issue: float, delay: float) -> float:
    """Capture time of the frame the operator saw when issuing at ``issue``."""
    return math.floor((issue - delay) * FRAME_RATE + 1e-9) / FRAME_RATE


def _issue_times(count: int, start: float, end: float) -> list[float]:
    """``count`` issue times spread over [start, end], each mid-way between frames."""
    step = (end - start) / count
    return [(math.floor((start + k * step) * FRAME_RATE) + 0.5) / FRAME_RATE for k in range(count)]


def _commands(spec: ScenarioSpec, issues: list[float], rng: np.random.Generator) -> tuple[SimCommand, ...]:
    """One command per issue time, aimed at an object visible in the aligned frame."""
    out = []
    for issue in issues:
        seen = _aligned_capture(issue, spec.uplink.delay_at(issue))
        visible = [obj for obj in spec.objects if obj.visible_at(seen)]
        target = visible[int(rng.integers(len(visible)))]
        out.append(SimCommand(f"pick up the {target.label}", target.txt_archetype, target.true_id, issue))
    return tuple(out)


def _render(spec: ScenarioSpec) -> StreamScene:
    inputs, truth = S.generate_stream(spec)
    return StreamScene(spec=spec, inputs=inputs, truth=truth, commands=S.commands_from_scenario(spec))


def long_stream_spec(seed: int, frames: int = LONG_FRAMES, commands: int = LONG_COMMANDS) -> ScenarioSpec:
    """Three objects on a table for ``frames`` frames at 10 fps.

    The mug slides back and forth, the block stays put, and the plate is
    hidden for 3 s out of every 15 s from 10 s on (inside the 10 s grace
    period), so its track disappears and resumes.
    """
    rng = rng_for("long_stream", seed)
    dim = 16
    camera = _camera()
    duration = frames / FRAME_RATE
    jitter = rng.uniform(-0.03, 0.03, size=(3, 2))

    mug_a = np.array([-0.40 + jitter[0, 0], 0.12 + jitter[0, 1], 1.6])
    mug_b = mug_a + np.array([0.30, 0.0, -0.1])
    period = float(rng.uniform(16.0, 24.0))
    waypoints, t, k = [], 0.0, 0
    while t <= duration + period:
        waypoints += [(t, mug_a if k % 2 == 0 else mug_b), (t + period / 2, mug_a if k % 2 == 0 else mug_b)]
        t += period
        k += 1
    mug = SimObject(1, "red mug", LONG_SIZE, _axis(dim, 0), _axis(dim, 1), tuple(waypoints))

    block = SimObject(
        2, "yellow block", LONG_SIZE, _axis(dim, 2), _axis(dim, 3),
        ((0.0, np.array([0.35 + jitter[1, 0], 0.12 + jitter[1, 1], 1.5])),),
    )
    # the same hiding schedule on every seed, so the first and last tenth
    # of every stream see all three objects
    windows, start = [(0.0, 10.0)], 13.0
    while start < duration + 15.0:
        windows.append((start, start + 12.0))
        start += 15.0
    plate = SimObject(
        3, "green plate", LONG_SIZE, _axis(dim, 4), _axis(dim, 5),
        ((0.0, np.array([0.0 + jitter[2, 0], -0.22 + jitter[2, 1], 1.4])),),
        tuple(windows),
    )
    base = ScenarioSpec(
        family="long_stream",
        seed=int(rng.integers(2**31)),
        duration=duration,
        frame_rate=FRAME_RATE,
        image_width=160,
        image_height=120,
        feature_dim=dim,
        camera=camera,
        objects=(mug, block, plate),
        noise=NoiseModel(centroid_sigma=0.003, feature_sigma=0.01),
        uplink=LatencyProfile.constant(DELAY),
        downlink=LatencyProfile.constant(DELAY),
    )
    issues = _issue_times(commands, 1.5, duration - DELAY - 0.2)
    return _with_commands(base, _commands(base, issues, rng))


def _with_commands(spec: ScenarioSpec, commands) -> ScenarioSpec:
    fields = {name: getattr(spec, name) for name in spec.__dataclass_fields__}
    fields["commands"] = commands
    return ScenarioSpec(**fields)


def dense_scene_spec(seed: int, frames: int = DENSE_FRAMES, commands: int = DENSE_COMMANDS) -> ScenarioSpec:
    """About fifty objects, one per image cell, drifting within their cells.

    Each object keeps to its own cell of a 10 x 5 grid, so boxes never
    overlap.  In five cells the first object leaves for good and a new
    one enters later; in five more the object leaves and comes back
    inside the grace period.  Horizontal neighbours are closer than the
    ``near`` threshold and propose relations.  Every object has its own
    label and its own appearance axis.
    """
    rng = rng_for("dense_scene", seed)
    camera = _camera()
    duration = frames / FRAME_RATE
    cell_w, cell_h = 160 / DENSE_COLS, 120 / DENSE_ROWS
    cells = DENSE_COLS * DENSE_ROWS
    order = rng.permutation(cells)
    swap_cells = set(order[:DENSE_SWAP_CELLS].tolist())
    gap_cells = set(order[DENSE_SWAP_CELLS : DENSE_SWAP_CELLS + DENSE_GAP_CELLS].tolist())

    objects: list[SimObject] = []

    def place(cell: int, visibility) -> None:
        ident = len(objects) + 1
        row, col = divmod(cell, DENSE_COLS)
        z = float(rng.uniform(1.7, 1.9))
        home = _back_project((col + 0.5) * cell_w, (row + 0.5) * cell_h, z, camera)
        waypoints = []
        for t in np.arange(0.0, duration + 2.0, 2.0):
            step = np.array([rng.uniform(-0.012, 0.012), rng.uniform(-0.012, 0.012), rng.uniform(-0.03, 0.03)])
            waypoints.append((float(t), home + step))
        label = f"{_COLORS[ident % len(_COLORS)]} {_THINGS[(ident // len(_COLORS)) % len(_THINGS)]}"
        axis = _axis(DENSE_DIM, ident - 1)
        objects.append(SimObject(ident, label, DENSE_SIZE, axis, axis, tuple(waypoints), visibility))

    for cell in range(cells):
        if cell in swap_cells:
            leave = float(rng.uniform(0.25, 0.45)) * duration
            enter = leave + float(rng.uniform(1.0, 3.0))
            place(cell, ((0.0, leave),))
            place(cell, ((enter, math.inf),))
        elif cell in gap_cells:
            leave = float(rng.uniform(0.2, 0.6)) * duration
            place(cell, ((0.0, leave), (leave + float(rng.uniform(0.5, 3.0)), math.inf)))
        else:
            place(cell, ((0.0, math.inf),))

    base = ScenarioSpec(
        family="dense_scene",
        seed=int(rng.integers(2**31)),
        duration=duration,
        frame_rate=FRAME_RATE,
        image_width=160,
        image_height=120,
        feature_dim=DENSE_DIM,
        camera=camera,
        objects=tuple(objects),
        noise=NoiseModel(centroid_sigma=0.002),
        uplink=LatencyProfile.constant(DELAY),
        downlink=LatencyProfile.constant(DELAY),
        near_threshold=0.3,
    )
    issues = _issue_times(commands, 1.0, duration - DELAY - 0.2)
    return _with_commands(base, _commands(base, issues, rng))


def long_stream(seed: int) -> StreamScene:
    return _render(long_stream_spec(seed))


def dense_scene(seed: int) -> StreamScene:
    return _render(dense_scene_spec(seed))


def replay_noise() -> NoiseModel:
    """Position and feature jitter small enough that no family outcome depends on the seed."""
    return NoiseModel(centroid_sigma=0.003, feature_sigma=0.002)


@dataclass(frozen=True)
class ReplayCase:
    """Which operator_replay episode to generate: seed group, family, delay and scenario seed."""

    group: int
    family: str
    delay: float
    seed: int


def replay_cases(seed: int) -> list[ReplayCase]:
    """Every operator_replay episode: the seed groups x the four adversarial families x the five default delays."""
    cases = []
    for group in range(REPLAY_SEEDS):
        rng = rng_for("operator_replay", seed, group)
        cases += [
            ReplayCase(group, family, delay, int(rng.integers(2**31)))
            for family in S.FAMILIES
            for delay in REPLAY_DELAYS
        ]
    return cases


def replay_episode(case: ReplayCase, out_dir) -> Episode:
    """Generate one episode and write its stream file under ``out_dir``."""
    spec = S.make_scenario(case.family, {"seed": case.seed, "delay": case.delay, "noise": replay_noise()})
    inputs, truth = S.generate_stream(spec)
    path = f"{out_dir}/g{case.group}-{case.family}-{case.delay:g}/stream.jsonl"
    S.write_stream(inputs, path)
    return Episode(
        family=case.family,
        delay=case.delay,
        spec=spec,
        truth=truth,
        commands=S.commands_from_scenario(spec),
        stream_path=path,
    )
