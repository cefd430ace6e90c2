"""Fuzzing the command line with mutated input files, and the library with records built in code.

Each command-line example takes one valid input file (a graph, truth log,
command, command list, scenario or config file, or one line of a stream
file), mutates it once at a drawn path, and runs a command that reads it
through ``stovsg.cli.main``.  The command must succeed, or refuse with exit
status 1 and exactly one ``{"error", "message"}`` object on stderr; any
other exception is a traceback the user would see.

Each library example builds settings, boxes, cameras, detections, latency
tags and commands from extreme floats, then ingests, grounds, exports,
writes and reads back whatever builds.  Only the engine's refusals
(``InputRejected``, ``NoAlignedFrame``, ``NotFound``) may escape, and every
graph the engine builds must validate, write and read back unchanged.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from stovsg import (
    BoundingBox2D,
    CameraModel,
    Command,
    DepthImage,
    Detection,
    EngineConfig,
    FrameInput,
    InputRejected,
    LatencyTag,
    NoAlignedFrame,
    NotFound,
    QueryConfig,
    RelationCandidate,
    SpatialWeights,
    TemporalWeights,
    command_to_dict,
    commands_from_scenario,
    dumps,
    empty_graph,
    extract_subgraph,
    graph_to_dict,
    ground_command,
    ingest_frame,
    read_graph,
    read_scenario,
    serialize_subgraph,
    validate_graph,
    write_graph,
)
from stovsg.cli import main

from conftest import DIM, rect_mask

# JSON text that ``json.dumps`` cannot write, spliced in by name: an integer of more digits than Python reads, and NaN
SPLICED_TEXT = {"<long integer>": "9" * 5000, "<NaN>": "NaN"}
SPLICED = (None, True, 2**70, 1e308, -0.0, *SPLICED_TEXT)


def run(*argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def paths(doc, path=()):
    """Every path into a JSON document, the root's first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from paths(value, (*path, key))


def by_shape(doc) -> dict[tuple, list[tuple]]:
    """The paths into ``doc`` grouped by their keys, with every list index as ``*``.

    Drawing the group first gives each key of a record the same chance
    however long the arrays holding the record are.
    """
    groups: dict[tuple, list[tuple]] = {}
    for path in paths(doc):
        groups.setdefault(tuple("*" if type(k) is int else k for k in path), []).append(path)
    return groups


def mutate(text: str, groups: dict, data) -> str:
    """``text`` with one drawn mutation: drop a key, retype a value, shorten or reverse a list, or splice."""
    root = [json.loads(text)]
    path = data.draw(st.sampled_from(groups[data.draw(st.sampled_from(sorted(groups)))]))
    holder, key = root, 0
    for step in path:
        holder, key = holder[key], step
    value = holder[key]
    how = ["retype", "splice"]
    how += ["drop"] if isinstance(value, dict) and value else []
    how += ["shorten", "reverse"] if isinstance(value, list) and value else []
    how = data.draw(st.sampled_from(how))
    if how == "drop":
        del value[data.draw(st.sampled_from(sorted(value)))]
    elif how == "shorten":
        value.pop()
    elif how == "reverse":
        value.reverse()
    else:
        holder[key] = (0 if isinstance(value, str) else "x") if how == "retype" else data.draw(st.sampled_from(SPLICED))
    text = json.dumps(root[0])
    for name, token in SPLICED_TEXT.items():
        text = text.replace(json.dumps(name), token)
    return text


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    scene = ("--family", "target_moved", "--seed", 0, "--delay", 1.0, "--frame-rate", 2)
    assert run("simulate", *scene, "--out-dir", d) == (0, "")
    assert run("build", "--stream", d / "stream.jsonl", "--out", d / "graph.json") == (0, "")
    assert run("config", "--out", d / "config.json") == (0, "")
    commands = [command_to_dict(c) for c in commands_from_scenario(read_scenario(d / "scenario.json"))]
    (d / "command.json").write_text(dumps(commands[0]))
    (d / "commands.json").write_text(dumps({"commands": commands}))
    return d


# per file: how many mutations to try, and the command lines that read the mutant
SOURCES = {
    "graph.json": (100, [
        "score --graph {mutant} --truth {d}/truth.json --scenario {d}/scenario.json",
        "query --graph {mutant} --command {d}/command.json",
    ]),
    "truth.json": (80, ["score --graph {d}/graph.json --truth {mutant} --scenario {d}/scenario.json"]),
    "command.json": (40, [
        "query --graph {d}/graph.json --command {mutant}",
        "export --graph {d}/graph.json --command {mutant}",
    ]),
    "commands.json": (40, ["score --graph {d}/graph.json --truth {d}/truth.json --commands {mutant}"]),
    "scenario.json": (80, [
        "simulate --scenario {mutant} --out-dir {d}/resimulated",
        "score --graph {d}/graph.json --truth {d}/truth.json --scenario {mutant}",
    ]),
    "config.json": (60, [
        "config --config {mutant} --out {d}/config-out.json",
        "export --graph {d}/graph.json --command {d}/command.json --config {mutant}",
        "score --graph {d}/graph.json --truth {d}/truth.json --commands {d}/commands.json --config {mutant}",
    ]),
    "stream.jsonl": (80, ["build --stream {mutant} --out {d}/built.json"]),
}


@pytest.mark.parametrize("name", SOURCES)
def test_a_mutated_input_file_gives_a_result_or_one_json_error(name, files):
    examples, commands = SOURCES[name]
    # a stream is mutated one line at a time; every other file as a whole
    texts = (files / name).read_text().splitlines() if name.endswith(".jsonl") else [(files / name).read_text()]
    groups = [by_shape(json.loads(text)) for text in texts]
    mutant = files / f"mutant-{name}"
    argvs = [line.format(d=files, mutant=mutant).split() for line in commands]

    @settings(max_examples=examples, derandomize=True, deadline=None, database=None,
              suppress_health_check=list(HealthCheck))
    @given(data=st.data())
    def check(data):
        lines = list(texts)
        k = data.draw(st.integers(0, len(lines) - 1))
        lines[k] = mutate(lines[k], groups[k], data)
        mutant.write_text("\n".join(lines) + "\n")
        for argv in argvs:
            code, err = run(*argv)
            assert code == 0 or (code == 1 and len(err.splitlines()) == 1), (argv, err)
            if code:
                assert set(json.loads(err)) == {"error", "message"}, err

    check()


# --- library fuzzing: records and settings built in code ------------------------------------

EXTREMES = (math.nan, math.inf, -math.inf, 0.0, -1.0, 1e300, -1e300, 1e-300)
WIDTH, HEIGHT = 128, 96
ALLOWED = (InputRejected, NoAlignedFrame, NotFound)


def mostly(typical, *others):
    """``typical`` in about four draws of five, else one of ``others``."""
    return st.sampled_from([typical] * (4 * len(others)) + list(others))


def extreme():
    """One of :data:`EXTREMES` in about seven draws of eight, else any float."""
    return st.integers(0, 7).flatmap(lambda k: st.sampled_from(EXTREMES) if k else st.floats())


def draw_values(draw, *typical: float) -> tuple[float, ...]:
    """The ``typical`` values of one record; in about one record of three, each may be extreme instead."""
    if draw(st.sampled_from([True, True, False])):
        return typical
    return tuple(draw(st.one_of(st.just(value), extreme())) for value in typical)


def draw_feature(draw) -> np.ndarray:
    """A drawn float on one axis and zero elsewhere, of the engine's dimension or one short."""
    vec = np.zeros(draw(mostly(DIM, DIM - 1)))
    vec[draw(st.integers(0, DIM - 2))] = draw_values(draw, 1.0)[0]
    return vec


def draw_detection(draw, k: int) -> tuple:
    """A detection's values: box edges, mask column offset and width, label and features."""
    x0 = 4 + 30 * k
    box = draw_values(draw, x0, 10, x0 + 6, 16)
    mask = (x0 + draw(mostly(0, -40, 200)), draw(mostly(6, 0, 3)))
    return box, mask, draw(mostly("red mug", "Red  Mug", " ", "apple")), draw_feature(draw), draw_feature(draw)


def draw_frame(draw, time: float) -> tuple:
    """A frame's values: its tag, camera intrinsics and translation, rotation, depth, detections and zone."""
    tag = draw_values(draw, time, 0.5)
    camera = draw_values(draw, 100.0, 100.0, 64.0, 48.0, 0.0, 0.0, 0.0)
    rotation = draw(mostly(np.eye(3), np.eye(3)[[1, 0, 2]], np.full((3, 3), math.nan), 2 * np.eye(3)))
    detections = [draw_detection(draw, k) for k in range(draw(mostly(3, 0, 1, 2)))]
    return tag, camera, rotation, draw_values(draw, 2.0)[0], detections, draw_values(draw, 4, 10, 40, 46)


@st.composite
def plans(draw) -> dict:
    """The values one example builds its settings, frames and commands from."""
    sections = {
        "spatial": draw_values(draw, 1.0, 0.5, 0.5),
        "temporal": draw_values(draw, 0.4, 0.4, 0.2, 1.0, 0.5, 10.0),
        "query": (*draw_values(draw, 0.5), draw(mostly(5, 0, 1)), draw(mostly(1, 0, 2))),
        "engine": draw_values(draw, 0.3, 0.05),
    }
    frames = [draw_frame(draw, float(k)) for k in range(1, draw(st.integers(1, 3)) + 1)]
    commands = [(draw_feature(draw), *draw_values(draw, 1.6, 0.2)) for _ in range(2)]
    return {"settings": sections, "frames": frames, "commands": commands}


def attempt(build, *args):
    """``build(*args)``, or None when it refuses its values."""
    try:
        return build(*args)
    except InputRejected:
        return None


def build_config(spatial, temporal, query, engine) -> EngineConfig:
    """The settings of these values; a section that refuses its values keeps its defaults."""
    sections = (
        attempt(SpatialWeights, *spatial) or SpatialWeights(),
        attempt(TemporalWeights, *temporal) or TemporalWeights(),
        attempt(QueryConfig, *query) or QueryConfig(),
    )
    return attempt(EngineConfig, *sections, *engine) or EngineConfig(*sections)


def build_detection(box, mask, label, f_img, f_txt) -> Detection | None:
    (x, width) = mask
    box = attempt(BoundingBox2D, *box)
    return box and attempt(Detection, box, rect_mask(x, 10, width, 6), label, f_img, f_txt)


def build_frame(tag, camera, rotation, depth, detections, zone) -> FrameInput | None:
    """The frame of these values; None when its tag or camera refuses them."""
    tag = attempt(LatencyTag, *tag)
    fx, fy, cx, cy, *translation = camera
    camera = attempt(CameraModel, fx, fy, cx, cy, rotation, translation)
    with np.errstate(over="ignore"):  # a depth beyond float32 is read as infinite, which means no reading
        depth = DepthImage(np.full((HEIGHT, WIDTH), depth, dtype=np.float32))
    detections = tuple(filter(None, (build_detection(*values) for values in detections)))
    zone = attempt(BoundingBox2D, *zone) if len(detections) > 1 else None
    candidates = (RelationCandidate(0, 1, "near", zone),) if zone else ()
    return tag and camera and FrameInput(tag, camera, depth, detections, candidates)


TYPICAL_CAMERA = (100.0, 100.0, 64.0, 48.0, 0.0, 0.0, 0.0)
TYPICAL_DETECTION = ((4, 10, 10, 16), (4, 6), "red mug", np.eye(DIM)[1], np.eye(DIM)[0])
# a frame captured at infinity: an engine that ingested it could write no graph file of it
CAPTURED_AT_INFINITY = {
    "settings": {"spatial": (1.0, 0.5, 0.5), "temporal": (0.4, 0.4, 0.2, 1.0, 0.5, 10.0),
                 "query": (0.5, 5, 1), "engine": (0.3, 0.05)},
    "frames": [((math.inf, 0.1), TYPICAL_CAMERA, np.eye(3), 2.0, [TYPICAL_DETECTION], (4, 10, 40, 46))],
    "commands": [(np.eye(DIM)[0], 1.6, 0.2)],
}


@settings(max_examples=300, derandomize=True, deadline=None, database=None, suppress_health_check=list(HealthCheck))
@example(plan=CAPTURED_AT_INFINITY)
@given(plan=plans())
def test_records_and_settings_built_in_code_are_ingested_or_refused_cleanly(plan, tmp_path_factory):
    path = tmp_path_factory.mktemp("library") / "graph.json"
    # overflow is refused, not warned of, as by the command line: a feature or depth may exceed the float range
    with np.errstate(over="ignore"):
        config = build_config(**plan["settings"])
        graph = empty_graph()
        for frame in filter(None, (build_frame(*values) for values in plan["frames"])):
            with contextlib.suppress(*ALLOWED):
                graph = ingest_frame(graph, frame, config)
        for command in filter(None, (attempt(Command, "pick", *values) for values in plan["commands"])):
            with contextlib.suppress(*ALLOWED):
                ground_command(graph, command, config.query)
            with contextlib.suppress(*ALLOWED):
                serialize_subgraph(extract_subgraph(graph, command, config.query))
        assert validate_graph(graph) == []
        write_graph(graph, path)
        assert graph_to_dict(read_graph(path)) == graph_to_dict(graph)
