"""The three workloads: set-up, one closed-loop round, and its checks.

A round is always the same operations for a given seed.  ``play`` runs
and times them; ``check`` then verifies what they produced and is never
traced or timed.  Operations are frames ingested, commands grounded and
exported, and graph write/read pairs; one that fails any check counts as
failed.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import stovsg as S

import calibrate
import checks
import scenes

# commands of a long stream also replayed on the final graph with ``as_of``
REPLAY_EVERY = 10
CALIBRATE_EVERY_S = 0.1  # between operations, at most this often

_clock = time.perf_counter


@dataclass
class Samples:
    """Everything one run measured, in milliseconds unless named otherwise."""

    frame_ms: list = field(default_factory=list)
    first_tenth_ms: list = field(default_factory=list)
    last_tenth_ms: list = field(default_factory=list)
    ground_ms: list = field(default_factory=list)
    export_ms: list = field(default_factory=list)
    write_ms: list = field(default_factory=list)
    read_ms: list = field(default_factory=list)
    setup_ms: list = field(default_factory=list)  # set-up, in steps between battery readings
    graph_bytes: list = field(default_factory=list)
    points_bytes: list = field(default_factory=list)  # filled by traced runs only
    calibration_ms: list = field(default_factory=list)
    op_s: float = 0.0  # summed time of all timed operations
    round_cost: list = field(default_factory=list)  # each round's operation time over its battery readings
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    at: dict = field(default_factory=dict)  # timing list name -> start time of each sample
    calibrated_at: float = -float("inf")
    calibrate_every: float = CALIBRATE_EVERY_S

    def record(self, key: str, start: float, ms: float) -> None:
        getattr(self, key).append(ms)
        self.at.setdefault(key, []).append(start)

    def calibrate(self) -> None:
        self.record("calibration_ms", time.perf_counter(), calibrate.battery_ms())
        self.calibrated_at = time.perf_counter()

    def calibrate_if_due(self) -> None:
        """Time the calibration battery if it has not run for a while; call only between operations."""
        if time.perf_counter() - self.calibrated_at >= self.calibrate_every:
            self.calibrate()

    def add_stream(self, frames: list) -> None:
        """Record one stream's per-frame (start, ms) samples."""
        tenth = max(1, len(frames) // 10)
        for key, part in (("frame_ms", frames), ("first_tenth_ms", frames[:tenth]), ("last_tenth_ms", frames[-tenth:])):
            for start, ms in part:
                self.record(key, start, ms)
        self.op_s += sum(ms for _, ms in frames) / 1000.0

    def fail(self, where: str, problems: list) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{where}: {'; '.join(problems[:3])}")


@dataclass
class Played:
    """What one episode's timed path produced, kept for the checks."""

    graph: S.SceneGraph4D
    truth: S.GroundTruthLog
    answers: list  # (command, command truth, (result, subgraph text), naive (result, text) or None)
    written: str
    read_back: S.SceneGraph4D
    family: str = ""
    io_pairs: int = 1  # graph write/read pairs played


def _timed(clock, samples: Samples, key: str, fn, *args, **kwargs):
    samples.calibrate_if_due()
    start = clock()
    result = fn(*args, **kwargs)
    took = clock() - start
    samples.record(key, start, 1000.0 * took)
    samples.op_s += took
    return result


def _ground_and_export(graph, command, as_of, cfg, samples, clock, latency_aware=True):
    result = _timed(
        clock, samples, "ground_ms", S.ground_command,
        graph, command, cfg.query, as_of=as_of, latency_aware=latency_aware,
    )
    text = _timed(
        clock, samples, "export_ms",
        lambda: S.serialize_subgraph(
            S.extract_subgraph(graph, command, cfg.query, as_of=as_of, latency_aware=latency_aware)
        ),
    )
    return result, text


def _command(graph, command, truth, cfg, samples, clock, naive: bool):
    """Ground and export one command on the snapshot that is live at its arrival.

    With ``naive`` the command is also grounded and exported on the newest
    frame, as a planner without latency awareness would see it.
    """
    aware = _ground_and_export(graph, command, truth.arrival_time, cfg, samples, clock)
    lost = (
        _ground_and_export(graph, command, truth.arrival_time, cfg, samples, clock, latency_aware=False)
        if naive
        else None
    )
    return command, truth, aware, lost


def _closed_loop(frames, commands, truths, cfg, samples, clock, naive=False, parse_ms=0.0):
    """Ingest frames in capture order; each command runs once every frame captured by its arrival is in."""
    graph = S.empty_graph()
    pending = sorted(zip(commands, truths), key=lambda pair: pair[1].arrival_time)
    answers, frames_ms, next_cmd = [], [], 0
    for frame in frames:
        while next_cmd < len(pending) and pending[next_cmd][1].arrival_time < frame.latency_tag.capture_time:
            answers.append(_command(graph, *pending[next_cmd], cfg, samples, clock, naive))
            next_cmd += 1
        samples.calibrate_if_due()
        start = clock()
        graph = S.ingest_frame(graph, frame, cfg)
        frames_ms.append((start, 1000.0 * (clock() - start) + parse_ms))
    for command, truth in pending[next_cmd:]:
        answers.append(_command(graph, command, truth, cfg, samples, clock, naive))
    samples.add_stream(frames_ms)
    return graph, answers


def _graph_io(graph, path: Path, samples: Samples, clock):
    _timed(clock, samples, "write_ms", S.write_graph, graph, path)
    read_back = _timed(clock, samples, "read_ms", S.read_graph, path)
    written = path.read_text()
    samples.graph_bytes.append(len(written.encode()))
    return written, read_back


def _check_episode(played: Played, cfg, samples: Samples, where: str, replay_every: int = 0) -> None:
    """Check one episode's frames, commands and graph file against truth and the method."""
    bad_frames = checks.frame_problems(played.graph, played.truth, cfg.centroid_tol)
    for index, problems in sorted(bad_frames.items()):
        samples.fail(f"{where} frame {index}", problems)
    try:
        mapping = S.node_truth_map(played.graph, played.truth)
    except S.InputRejected:
        mapping = None
    for k, (command, truth, (result, text), naive) in enumerate(played.answers):
        if mapping is None:
            samples.fail(f"{where} command {k}", ["nodes cannot be matched to truth"])
            continue
        problems = checks.grounding_problems(result, mapping, truth.intended_id)
        problems += checks.subgraph_problems(text, result.aligned_node.node_id)
        if naive is not None:
            problems += checks.subgraph_problems(naive[1], naive[0].aligned_node.node_id)
            if played.family != S.FAMILY_MOVED_REFERENCE:
                problems += checks.naive_problems(naive[0], mapping, truth.intended_id)
        if replay_every and k % replay_every == 0:
            as_of = truth.arrival_time
            again = S.ground_command(played.graph, command, cfg.query, as_of=as_of)
            again_text = S.serialize_subgraph(S.extract_subgraph(played.graph, command, cfg.query, as_of=as_of))
            problems += checks.same_answer_problems((result, text), (again, again_text))
        if problems:
            samples.fail(f"{where} command {k}", problems)
    io = checks.graph_io_problems(played.written, played.read_back)
    if io:
        samples.fail(f"{where} graph file", io)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digest(played: Played) -> list:
    """What a round must reproduce exactly: graph bytes, answers and subgraph bytes (hashed)."""

    def key(answer) -> list | None:
        if answer is None:
            return None
        result, text = answer
        return [result.aligned_node.node_id, result.current_node.node_id, result.status, _sha(text)]

    return [_sha(played.written), [[key(aware), key(naive)] for _, _, aware, naive in played.answers]]


def _check_round(played: list[Played], reference: list | None, check_one, samples: Samples) -> list:
    """Fully check a round unless a reference exists; otherwise it must reproduce the reference.

    Returns the reference digests.  Every frame, command and graph
    write/read pair counts as one attempted operation.
    """
    digests = [_digest(p) for p in played]
    for k, p in enumerate(played):
        samples.attempted += len(p.graph.frames) + len(p.answers) + p.io_pairs
        if reference is None:
            check_one(k, p)
        elif digests[k] != reference[k]:
            written, answers = reference[k]
            if digests[k][0] != written:
                samples.fail(f"episode {k} graph file", ["differs from the checked round"])
            for i, (mine, first) in enumerate(zip(digests[k][1], answers)):
                if mine != first:
                    samples.fail(f"episode {k} command {i}", ["differs from the checked round"])
    return digests if reference is None else reference


def points_bytes(graph: S.SceneGraph4D) -> int:
    """Bytes the per-node ``points`` arrays take in ``graph.json``."""
    return sum(len(S.dumps(node.points.tolist())) for fg in graph.frames for node in fg.nodes)


class StreamWorkload:
    """One long episode replayed from an empty graph each round (long_stream, dense_scene)."""

    def __init__(self, name: str, seed: int, out_dir: Path, build, io_repeats: int = 1) -> None:
        self.name, self.seed, self.out_dir, self._build = name, seed, out_dir, build
        self.io_repeats = io_repeats  # graph write/read pairs per round
        self.cfg = S.EngineConfig()
        self.scene = None
        self.reference = None  # digests of a fully checked round

    def set_up(self, samples: Samples) -> None:
        """Generate the scene and warm every timed path, timed into ``samples.setup_ms`` in two steps."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.scene = _timed(_clock, samples, "setup_ms", self._build, self.seed)
        _timed(_clock, samples, "setup_ms", self._warm_up)

    def _warm_up(self) -> None:
        warm = Samples(calibrate_every=math.inf)
        head = [f for f in self.scene.inputs if f.latency_tag.capture_time <= 3.0]
        truths = [t for t in self.scene.truth.commands if t.arrival_time < 3.0][:1]
        graph, _ = _closed_loop(head, self.scene.commands[: len(truths)], truths, self.cfg, warm, _clock)
        _graph_io(graph, self.out_dir / "warm.json", warm, _clock)

    def play(self, samples: Samples, clock) -> list[Played]:
        scene = self.scene
        graph, answers = _closed_loop(scene.inputs, scene.commands, scene.truth.commands, self.cfg, samples, clock)
        written, read_back = _graph_io(graph, self.out_dir / "graph.json", samples, clock)
        for _ in range(self.io_repeats - 1):
            again, read_back = _graph_io(graph, self.out_dir / "graph.json", samples, clock)
            if again != written:
                samples.fail(f"{self.name} graph file", ["writing the same graph again gave other bytes"])
        return [Played(graph, scene.truth, answers, written, read_back, io_pairs=self.io_repeats)]

    def check(self, played: list[Played], samples: Samples) -> None:
        every = REPLAY_EVERY if self.name == "long_stream" else 0

        def check_one(_, p):
            _check_episode(p, self.cfg, samples, self.name, every)

        self.reference = _check_round(played, self.reference, check_one, samples)


class ReplayWorkload:
    """operator_replay: many short episodes read back from stream files."""

    def __init__(self, name: str, seed: int, out_dir: Path, cases: list) -> None:
        self.name, self.seed, self.out_dir, self.cases = name, seed, out_dir, cases
        self.cfg = S.EngineConfig()
        self.episodes = None
        self.reference = None

    def set_up(self, samples: Samples) -> None:
        """Generate and write this process's episodes, then warm up on one of them.

        Each episode is one step timed into ``samples.setup_ms``, so the
        battery is read all through set-up.
        """
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.episodes = [
            _timed(_clock, samples, "setup_ms", scenes.replay_episode, case, self.out_dir) for case in self.cases
        ]
        _timed(_clock, samples, "setup_ms", self._episode, self.episodes[0], Samples(calibrate_every=math.inf), _clock)

    def _episode(self, ep: scenes.Episode, samples: Samples, clock) -> Played:
        samples.calibrate_if_due()
        start = clock()
        _, frames = S.parse_stream(ep.stream_path)
        parse_ms = 1000.0 * (clock() - start) / len(frames)
        graph, answers = _closed_loop(
            frames, ep.commands, ep.truth.commands, self.cfg, samples, clock, naive=True, parse_ms=parse_ms
        )
        path = Path(ep.stream_path).with_name("graph.json")
        written, read_back = _graph_io(graph, path, samples, clock)
        return Played(graph, ep.truth, answers, written, read_back, family=ep.family)

    def play(self, samples: Samples, clock) -> list[Played]:
        return [self._episode(ep, samples, clock) for ep in self.episodes]

    def check(self, played: list[Played], samples: Samples) -> None:
        def check_one(k, p):
            ep = self.episodes[k]
            _check_episode(p, self.cfg, samples, f"{ep.family} delay {ep.delay:g} seed {ep.spec.seed}")

        self.reference = _check_round(played, self.reference, check_one, samples)


NAMES = ("long_stream", "dense_scene", "operator_replay")


def make(name: str, seed: int, out_root: Path, part: int = 0, parts: int = 1):
    """The workload as measured by process ``part`` of ``parts``.

    Stream workloads replay the whole scene in every process;
    operator_replay deals its episodes out among the processes.
    """
    out_dir = out_root / f"{name}-{part}"
    if name == "long_stream":
        # reading its 14 MB graph file varies most from one call to the next (0.4-1.3 s
        # at the battery's reference speed), so each round writes and reads it four times
        return StreamWorkload(name, seed, out_dir, scenes.long_stream, io_repeats=4)
    if name == "dense_scene":
        # its rounds are long, so each writes and reads its graph twice for enough samples
        return StreamWorkload(name, seed, out_dir, scenes.dense_scene, io_repeats=2)
    if name == "operator_replay":
        return ReplayWorkload(name, seed, out_dir, scenes.replay_cases(seed)[part::parts])
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
