from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re
import tracemalloc
from dataclasses import replace
from enum import IntEnum
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from stovsg import (
    CameraModel,
    Command,
    DepthImage,
    EngineConfig,
    FormatError,
    NoiseModel,
    PixelMask,
    QueryConfig,
    SUBGRAPH_SCHEMA,
    canonical_dumps,
    command_to_dict,
    commands_from_scenario,
    decode_mask,
    dumps,
    empty_graph,
    encode_mask,
    extract_subgraph,
    generate_stream,
    graph_from_dict,
    graph_to_dict,
    ingest_sequence,
    make_random_scenario,
    make_scenario,
    parse_stream,
    parse_subgraph,
    read_command,
    read_commands,
    read_depth_file,
    read_graph,
    read_scenario,
    read_truth,
    save_config,
    ScenarioSpec,
    scenario_to_dict,
    serialize_subgraph,
    SimObject,
    Track,
    subgraph_payload,
    truth_to_dict,
    validate_graph,
    write_depth_file,
    write_graph,
    write_scenario,
    write_stream,
    write_truth,
)

from stovsg.cli import main as cli_main
from stovsg.formats import STREAM_SCHEMA, TRACK

from conftest import axis, make_detection, make_frame_input
from oracles import canonical_dumps_oracle
from test_fuzz import by_shape, mutate


def test_mask_runs_are_row_major_and_maximal():
    pixels = np.array([[5, 2], [3, 2], [4, 2], [9, 2], [3, 1]])
    runs = encode_mask(PixelMask.from_pixels(pixels))
    assert runs == [[1, 3, 1], [2, 3, 3], [2, 9, 1]]
    decoded = decode_mask(runs)
    assert sorted(map(tuple, decoded.pixels)) == sorted(map(tuple, pixels))


def test_mask_codec_round_trips_random_masks():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(1, 60))
        pixels = rng.integers(0, 20, size=(n, 2))
        mask = PixelMask.from_pixels(pixels)
        back = decode_mask(encode_mask(mask))
        assert sorted(map(tuple, back.pixels)) == sorted(map(tuple, mask.pixels))


def test_mask_codec_rejects_malformed_runs():
    assert encode_mask(PixelMask.from_pixels(np.zeros((0, 2), dtype=np.int64))) == []
    assert len(decode_mask([])) == 0
    with pytest.raises(FormatError):
        decode_mask([[1, 2]])
    with pytest.raises(FormatError):
        decode_mask([[1, 2, 0]])
    with pytest.raises(FormatError):
        decode_mask([[1, 2, -3]])
    # a run longer than an image side, or runs covering more pixels than an image holds, make no array
    assert len(decode_mask([[0, 0, 4096]])) == 4096
    for runs, message in [
        ([[0, 0, 4097]], "run length 4097 is not between 1 and 4096"),
        ([[0, 0, 10**13]], "run length 10000000000000 is not between 1 and 4096"),
        ([[0, 0, -3], [1, 0, 10**13]], "run length -3 is not between 1 and 4096"),
        ([[row, 0, 4096] for row in range(4097)], "runs cover 16781312 pixels, more than an image of 4096x4096"),
    ]:
        with pytest.raises(FormatError, match=f"^mask: {message}$"):
            decode_mask(runs)
    # NumPy would read [[true, 0, 3]] as [[1, 0, 3]]
    for runs in ([[True, 0, 3]], [[1, False, 3]], [[1, 0, True]], [[1, 0, 3], [2, 0, 3.0]], [[1, 0, 2**63]]):
        with pytest.raises(FormatError, match=r"^mask: runs must be \[row, col, length\] integers$"):
            decode_mask(runs)


def _loop_runs(mask):
    """The per-pixel loop that the vectorized run-length encoder replaced."""
    p = mask.pixels[np.lexsort((mask.pixels[:, 0], mask.pixels[:, 1]))]
    runs, start = [], 0
    for i in range(1, len(p) + 1):
        if i == len(p) or p[i, 1] != p[start, 1] or p[i, 0] != p[i - 1, 0] + 1:
            runs.append([int(p[start, 1]), int(p[start, 0]), i - start])
            start = i
    return runs


def _loop_pixels(runs):
    """The per-run loop that the vectorized run-length decoder replaced."""
    return np.concatenate([np.stack([np.arange(u0, u0 + n), np.full(n, v)], axis=1) for v, u0, n in runs])


def test_mask_codec_matches_the_loop_reference():
    rng = np.random.default_rng(11)
    for _ in range(40):
        mask = PixelMask.from_pixels(rng.integers(0, 12, size=(int(rng.integers(1, 80)), 2)))
        assert encode_mask(mask) == _loop_runs(mask)
        # hand-written runs may overlap; both decoders leave the dedup to PixelMask
        runs = [[int(v), int(u), int(n)] for v, u, n in rng.integers(1, 6, size=(int(rng.integers(1, 9)), 3))]
        expected = PixelMask.from_pixels(_loop_pixels(runs))
        np.testing.assert_array_equal(decode_mask(runs).pixels, expected.pixels)


def test_depth_file_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    values = rng.uniform(0.0, 3.0, size=(6, 9)).astype(np.float32)
    values[0, 0] = 0.0
    path = tmp_path / "d.bin"
    write_depth_file(DepthImage(values), path)
    back = read_depth_file(path)
    assert back.values.dtype == np.float32
    np.testing.assert_array_equal(back.values, values)


def test_depth_file_size_validation(tmp_path):
    path = tmp_path / "d.bin"
    write_depth_file(DepthImage(np.ones((4, 4), dtype=np.float32)), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-3])
    with pytest.raises(FormatError):
        read_depth_file(path)
    path.write_bytes(raw[:5])
    with pytest.raises(FormatError):
        read_depth_file(path)


def test_stream_round_trips_losslessly(tmp_path):
    spec = make_scenario("same_class_distractor", {"seed": 5, "delay": 0.5})
    inputs, _ = generate_stream(spec)
    path = tmp_path / "stream.jsonl"
    write_stream(inputs, path)
    header, back = parse_stream(path)
    assert header == {"schema": "stovsg-stream/2"}
    assert path.read_text().splitlines()[0] == '{"schema":"stovsg-stream/2"}'
    assert len(back) == len(inputs)
    for orig, parsed in zip(inputs, back):
        assert parsed.latency_tag == orig.latency_tag
        oc, pc = orig.camera, parsed.camera
        assert (pc.fx, pc.fy, pc.cx, pc.cy) == (oc.fx, oc.fy, oc.cx, oc.cy)
        np.testing.assert_array_equal(pc.rotation, oc.rotation)
        np.testing.assert_array_equal(pc.translation, oc.translation)
        np.testing.assert_array_equal(parsed.depth.values, orig.depth.values)
        assert len(parsed.detections) == len(orig.detections)
        for od, pd in zip(orig.detections, parsed.detections):
            assert pd.box.as_tuple() == od.box.as_tuple()
            assert pd.label == od.label
            np.testing.assert_array_equal(pd.f_img, od.f_img)
            np.testing.assert_array_equal(pd.f_txt, od.f_txt)
            assert sorted(map(tuple, pd.mask.pixels)) == sorted(map(tuple, od.mask.pixels))
        assert len(parsed.relation_candidates) == len(orig.relation_candidates)
        for oc, pc in zip(orig.relation_candidates, parsed.relation_candidates):
            assert (pc.src, pc.dst, pc.relation) == (oc.src, oc.dst, oc.relation)
            assert pc.zone.as_tuple() == oc.zone.as_tuple()


def test_stream_parser_rejects_corruption(tmp_path):
    spec = make_random_scenario(2)
    inputs, _ = generate_stream(spec)
    path = tmp_path / "stream.jsonl"
    write_stream(inputs, path)
    lines = path.read_text().splitlines()

    record = json.loads(lines[1])
    record["frame_index"] = 5
    (tmp_path / "bad_index.jsonl").write_text("\n".join([lines[0], dumps(record)]) + "\n")
    with pytest.raises(FormatError):
        parse_stream(tmp_path / "bad_index.jsonl")

    header = json.loads(lines[0])
    header["schema"] = "something-else/9"
    (tmp_path / "bad_schema.jsonl").write_text("\n".join([dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(FormatError):
        parse_stream(tmp_path / "bad_schema.jsonl")

    (tmp_path / "empty.jsonl").write_text("")
    with pytest.raises(FormatError):
        parse_stream(tmp_path / "empty.jsonl")

    (tmp_path / "garbled.jsonl").write_text(lines[0] + "\n{not json\n")
    with pytest.raises(FormatError):
        parse_stream(tmp_path / "garbled.jsonl")


def test_stream_errors_give_the_line_number_in_the_file(tmp_path):
    inputs, _ = generate_stream(make_scenario("moved_reference", {"seed": 0, "delay": 0.5}))
    path = tmp_path / "stream.jsonl"
    write_stream(inputs[:4], path)
    header, *records = path.read_text().splitlines()
    blank = [header, "", "  "]  # two blank lines, so the third frame sits on line 6
    path.write_text("\n".join(blank + records) + "\n")
    _, frames = parse_stream(path)
    assert len(frames) == 4

    record = json.loads(records[2])
    record["frame_index"] = 4
    path.write_text("\n".join(blank + [records[0], records[1], dumps(record), records[3]]) + "\n")
    message = rf"^stream {re.escape(str(path))}:6: frame_index 4 out of order \(expected 3\)$"
    with pytest.raises(FormatError, match=message):
        parse_stream(path)
    path.write_text("\n".join(blank + [records[0], records[1], "{not json", records[3]]) + "\n")
    with pytest.raises(FormatError, match=rf"^stream {re.escape(str(path))}:6: "):
        parse_stream(path)


def occluded_graph(config):
    inputs = [
        make_frame_input(1.0, detections=(make_detection(x0=10), make_detection(x0=60, label="apple", f_img=axis(3), f_txt=axis(4)))),
        make_frame_input(2.0, detections=(make_detection(x0=12),)),
        make_frame_input(3.0, detections=(make_detection(x0=14),)),
    ]
    return ingest_sequence(empty_graph(), inputs, config)


def test_graph_round_trips_byte_identically(tmp_path, config):
    graph = occluded_graph(config)
    path = tmp_path / "graph.json"
    write_graph(graph, path)
    back = read_graph(path)
    assert validate_graph(back) == []
    assert graph_to_dict(back) == graph_to_dict(graph)
    write_graph(back, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_graph_from_dict_matches_file_reader(tmp_path, config):
    graph = occluded_graph(config)
    path = tmp_path / "graph.json"
    write_graph(graph, path)
    from_text = graph_from_dict(json.loads(path.read_text()))
    assert graph_to_dict(from_text) == graph_to_dict(read_graph(path))


def test_previous_graph_schema_is_refused(tmp_path, config):
    data = {**graph_to_dict(occluded_graph(config)), "schema": "stovsg-graph/2", "camera": None}
    for frame in data["frames"]:
        frame.update(image_width=128, image_height=96)
        for node in frame["nodes"]:
            node.update(box=[0.0, 0.0, 4.0, 4.0], mask_rle=[[0, 0, 4]])
    path = tmp_path / "graph.json"
    path.write_text(dumps(data))
    with pytest.raises(FormatError, match="expected schema 'stovsg-graph/6', got 'stovsg-graph/2'"):
        read_graph(path)


def _swap_first_edge_with_a_later_frames(data):
    edges = data["temporal_edges"]
    k = next(k for k, edge in enumerate(edges) if edge["event_frame"] > edges[0]["event_frame"])
    edges[0], edges[k] = edges[k], edges[0]


@pytest.mark.parametrize(
    "mutate, message",
    [
        (
            lambda data: data["frames"][1].update(frame_index=5),
            r"graph: frames\[1\]\.frame_index: expected 2, got 5 \(frame indices must be contiguous\)",
        ),
        (
            lambda data: data["frames"][2]["latency_tag"].update(capture_time=2.0),
            r"graph: frames\[2\]\.latency_tag\.capture_time: 2\.0 is not after 2\.0 "
            r"\(capture times must strictly increase\)",
        ),
        (
            lambda data: data["frames"][0]["latency_tag"].update(transmission_latency=-0.25),
            r"graph: frames\[0\]\.latency_tag: transmission_latency -0\.25 is negative or not finite$",
        ),
        (
            _swap_first_edge_with_a_later_frames,
            r"graph: temporal_edges\[1\]\.event_frame: 1 is before 2 "
            r"\(temporal edges must be in event-frame order\)",
        ),
    ],
    ids=["frame-index-gap", "capture-not-increasing", "negative-latency", "edges-out-of-order"],
)
def test_graph_files_out_of_time_order_are_format_errors(tmp_path, capsys, config, mutate, message):
    data = graph_to_dict(occluded_graph(config))
    mutate(data)
    path = tmp_path / "graph.json"
    path.write_text(dumps(data) + "\n")
    with pytest.raises(FormatError, match=message):
        read_graph(path)
    command_path = tmp_path / "command.json"
    command = Command(text="red mug", embedding=axis(0), issue_time=2.0)
    command_path.write_text(dumps(command_to_dict(command)) + "\n")
    for subcommand in ("query", "export"):
        assert cli_main([subcommand, "--graph", str(path), "--command", str(command_path)]) == 1
        out, err = capsys.readouterr()
        (line,) = err.splitlines()
        error = json.loads(line)
        assert error["error"] == "format-error" and re.match(message, error["message"])
        assert out == ""


@pytest.fixture(scope="module")
def simulated_graph():
    inputs, _ = generate_stream(make_scenario("target_moved", {"seed": 0, "delay": 0.5}))
    return ingest_sequence(empty_graph(), inputs[:12], EngineConfig())


def _break_time_order(graph, kind: str, pick: int, amount: float):
    """``graph`` with one frame or edge moved out of time order (or, by chance, kept in it)."""
    frames, edges = list(graph.frames), list(graph.temporal_edges)
    k = pick % len(frames)
    tag = frames[k].latency_tag
    if kind == "shift-index":
        frames[k] = replace(frames[k], frame_index=frames[k].frame_index + (1 + pick % 3) * (-1) ** pick)
    elif kind == "repeat-capture":
        k = max(k, 1)
        repeated = replace(frames[k].latency_tag, capture_time=frames[k - 1].capture_time)
        frames[k] = replace(frames[k], latency_tag=repeated)
    elif kind == "lower-capture":
        frames[k] = replace(frames[k], latency_tag=replace(tag, capture_time=tag.capture_time - amount))
    else:  # swap two edges
        i, j = pick % len(edges), (pick // len(edges)) % len(edges)
        edges[i], edges[j] = edges[j], edges[i]
    return replace(graph, frames=tuple(frames), temporal_edges=tuple(edges))


BREAKS = st.tuples(
    st.sampled_from(["shift-index", "repeat-capture", "lower-capture", "swap-edges"]),
    st.integers(0, 10**6),
    st.floats(0.01, 5.0),
)


@settings(max_examples=60, deadline=None)
@given(breaks=st.lists(BREAKS, max_size=3))
def test_reading_refuses_a_graph_exactly_when_validation_reports_its_time_order(
    simulated_graph, tmp_path_factory, breaks
):
    graph = simulated_graph
    for kind, pick, amount in breaks:
        graph = _break_time_order(graph, kind, pick, amount)
    reported = [p for p in validate_graph(graph) if p.startswith(("frames[", "temporal_edges["))]
    path = tmp_path_factory.mktemp("order") / "graph.json"
    write_graph(graph, path)
    if reported:
        with pytest.raises(FormatError) as refused:
            read_graph(path)
        assert str(refused.value) == f"graph: {reported[0]}"
    else:
        assert graph_to_dict(read_graph(path)) == graph_to_dict(graph)


def _read_whole(path):
    """The reference reader: the whole file through ``json.loads``, then ``graph_from_dict``."""
    try:
        data = json.loads(path.read_text())
    except ValueError as exc:  # a syntax error, or an integer of more digits than Python reads
        raise FormatError(f"graph {path}: {exc}") from exc
    return graph_from_dict(data)


def _outcome(read, path) -> str:
    """The bytes of the graph ``read`` makes of ``path``, or its format error."""
    try:
        return dumps(graph_to_dict(read(path)))
    except FormatError as exc:
        return f"format error: {exc}"


@pytest.fixture(scope="module")
def built_graph_text(tmp_path_factory):
    d = tmp_path_factory.mktemp("built")
    _target_moved_stream(d / "stream.jsonl")
    assert cli_main(["build", "--stream", str(d / "stream.jsonl"), "--out", str(d / "graph.json")]) == 0
    return (d / "graph.json").read_text()


# a stray character breaks the syntax, or changes a number or a string, in different ways
STRAY = '{}[],:"0-.eE x\\\n\r\x01'
# where the structure of a graph file changes: at its top-level keys and its records' first keys
MARKS = re.compile(r'"(schema|next_node_id|next_track_id|frames_dropped|frames|temporal_edges|tracks|frame_index|relation|track_id)"')


def test_reading_a_damaged_graph_file_matches_the_whole_file_reader(built_graph_text, tmp_path_factory):
    text = built_graph_text
    groups = by_shape(json.loads(text))
    marks = [m.start() for m in MARKS.finditer(text)] + [len(text) - 1]
    near_a_mark = st.sampled_from(marks).flatmap(lambda m: st.integers(max(0, m - 8), min(len(text), m + 8)))
    offsets = st.one_of(st.integers(0, len(text)), near_a_mark)
    path = tmp_path_factory.mktemp("damaged") / "graph.json"

    @settings(max_examples=150, derandomize=True, deadline=None, database=None,
              suppress_health_check=list(HealthCheck))
    @given(data=st.data())
    def check(data):
        how = data.draw(st.sampled_from(["mutate", "truncate", "stray"]))
        if how == "mutate":
            damaged = mutate(text, groups, data)
        else:
            k = data.draw(offsets)
            damaged = text[:k] if how == "truncate" else text[:k] + data.draw(st.sampled_from(STRAY)) + text[k:]
        path.write_text(damaged)
        assert _outcome(read_graph, path) == _outcome(_read_whole, path)

    check()


def test_a_graph_file_with_carriage_returns_reads_as_in_text_mode(built_graph_text, tmp_path):
    # line breaks of every kind ahead of a syntax error move its line, column and char
    text = built_graph_text.replace(',"frames"', ',\r\n"frames"').replace(',"tracks"', ',\r\r\n"tracks"')
    path = tmp_path / "graph.json"
    for damaged in (text, text[:-40]):
        path.write_bytes(damaged.encode())
        assert _outcome(read_graph, path) == _outcome(_read_whole, path)


def test_a_failed_graph_write_changes_no_file(tmp_path, simulated_graph):
    path = tmp_path / "graph.json"
    write_graph(simulated_graph, path)
    before = path.read_bytes()
    # the bad node is in the last frame, so the writer fails near the end of the file
    last = simulated_graph.frames[-1]
    node = replace(last.nodes[0], centroid=np.array([np.nan, 0.0, 1.5]))
    frames = (*simulated_graph.frames[:-1], replace(last, nodes=(node, *last.nodes[1:])))
    broken = replace(simulated_graph, frames=frames)
    for target in (path, tmp_path / "new.json"):
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_graph(broken, target)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["graph.json"]


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_graph_io_memory_is_not_a_whole_file_tree(tmp_path):
    spec = make_scenario("target_moved", {"seed": 0, "delay": 0.5, "frame_rate": 30.0})
    graph = ingest_sequence(empty_graph(), generate_stream(spec)[0], EngineConfig())
    path = tmp_path / "graph.json"
    write_graph(graph, path)
    size = path.stat().st_size
    assert size >= 1_000_000
    # a whole-file tree took 6.3x the file to write and 4.4x to read
    assert _traced_peak(lambda: write_graph(graph, path)) <= 0.5 * size
    assert _traced_peak(lambda: read_graph(path)) <= 2.5 * size


def test_scenario_round_trips(tmp_path):
    for family in ("occlusion_after_command", "target_moved", "same_class_distractor", "moved_reference"):
        spec = make_scenario(family, {"seed": 3, "delay": 2.0})
        path = tmp_path / f"{family}.json"
        write_scenario(spec, path)
        back = read_scenario(path)
        assert scenario_to_dict(back) == scenario_to_dict(spec)
    fuzz = make_random_scenario(17)
    write_scenario(fuzz, tmp_path / "fuzz.json")
    assert scenario_to_dict(read_scenario(tmp_path / "fuzz.json")) == scenario_to_dict(fuzz)


@pytest.mark.parametrize("link", ["uplink", "downlink"])
def test_scenario_latency_steps_out_of_order_are_format_errors(tmp_path, capsys, link):
    data = scenario_to_dict(make_scenario("target_moved", {"seed": 0}))
    data[link] = [[0.0, 1.0], [5.0, 3.0], [2.0, 9.0]]
    path = tmp_path / "scenario.json"
    path.write_text(dumps(data) + "\n")
    message = rf"^scenario: {link}: latency profile steps must be in ascending from_time order, got \[0.0, 5.0, 2.0\]$"
    with pytest.raises(FormatError, match=message):
        read_scenario(path)
    assert cli_main(["simulate", "--scenario", str(path), "--out-dir", str(tmp_path / "run")]) == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "format-error" and re.match(message, error["message"])
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "steps, refusal",
    [
        ([[0.0, 0.5], [100.0, -1.0]], r"latency profile delays must be non-negative, got \[0.5, -1.0\]"),
        ([], "latency profile has no steps"),
    ],
    ids=["negative-delay", "no-steps"],
)
def test_a_scenario_latency_profile_the_profile_refuses_is_one_format_error_at_read(tmp_path, capsys, steps, refusal):
    data = scenario_to_dict(make_scenario("target_moved", {"seed": 0}))
    data["uplink"] = steps
    path = tmp_path / "scenario.json"
    path.write_text(dumps(data) + "\n")
    message = rf"^scenario: uplink: {refusal}$"
    with pytest.raises(FormatError, match=message):
        read_scenario(path)
    assert cli_main(["simulate", "--scenario", str(path), "--out-dir", str(tmp_path / "run")]) == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "format-error" and re.match(message, error["message"])
    assert not (tmp_path / "run").exists()


def test_unbounded_visibility_serializes_as_null():
    spec = make_scenario("occlusion_after_command", {"delay": 1.0})
    data = scenario_to_dict(spec)
    target = data["objects"][0]
    assert target["visibility"][-1][1] is None
    assert math.isinf(spec.objects[0].visibility[-1][1])


def test_truth_round_trips(tmp_path):
    _, truth = generate_stream(make_scenario("target_moved", {"seed": 1, "delay": 1.0}))
    path = tmp_path / "truth.json"
    write_truth(truth, path)
    back = read_truth(path)
    assert truth_to_dict(back) == truth_to_dict(truth)


def test_command_files(tmp_path):
    command = Command(text="pick up the red mug", embedding=axis(0), issue_time=2.05, latency=0.5)
    single = tmp_path / "one.json"
    single.write_text(dumps(command_to_dict(command)))
    got = read_command(single)
    assert got.text == command.text and got.issue_time == 2.05 and got.latency == 0.5
    np.testing.assert_array_equal(got.embedding, command.embedding)

    multi = tmp_path / "many.json"
    multi.write_text(dumps({"commands": [command_to_dict(command), command_to_dict(command)]}))
    assert len(read_commands(multi)) == 2

    bad = dict(command_to_dict(command), schema="other/1")
    single.write_text(dumps(bad))
    with pytest.raises(FormatError):
        read_command(single)

    no_latency = command_to_dict(command)
    del no_latency["latency"]
    single.write_text(dumps(no_latency))
    assert read_command(single).latency == 0.0


def test_canonical_float_formatting():
    assert canonical_dumps(0.3) == "0.3"
    assert canonical_dumps(1e-07) == "1e-07"
    assert canonical_dumps(2.0) == "2"  # integral floats lose the point
    assert canonical_dumps(-0.0) == "0"  # signed zero would not survive a reparse
    assert canonical_dumps(1.0 / 3.0) == "0.333333"
    assert canonical_dumps(123456789.0) == "1.23457e+08"
    assert canonical_dumps(True) == "true"
    assert canonical_dumps(1) == "1"
    assert canonical_dumps(np.float64(0.5)) == "0.5"
    assert canonical_dumps(np.array([1.5, 2.0])) == "[1.5,2]"
    assert canonical_dumps({"b": 2, "a": 1}) == '{"b":2,"a":1}'  # insertion order kept
    with pytest.raises(FormatError):
        canonical_dumps(float("nan"))
    with pytest.raises(FormatError):
        canonical_dumps(float("inf"))
    with pytest.raises(FormatError):
        canonical_dumps(object())


def test_canonical_formatting_is_idempotent():
    doc = {
        "schema": "x/1",
        "values": [math.pi, 1.0 / 3.0, 2.0, -0.0, 1e-9, 123456789.0],
        "nested": {"score": 0.1234567890123},
    }
    once = canonical_dumps(doc)
    again = canonical_dumps(json.loads(once))
    assert once == again


class _Level(IntEnum):
    LOW = 1
    HIGH = 10**20


_EDGE_FLOATS = [-0.0, 0.0, 5e-324, 999999.5, 1e16, 1e-7, math.nan, math.inf, -math.inf]
_ODD_TEXT = ["é漢✓", "\U0001f600", "\x00\x1f\x7f\t\n", "\ud800", "a\udfffb", '"\\/']
_SCALARS = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.floats(),
    st.integers(-(2**200), 2**200),
    st.integers(4300, 4400).map(lambda n: (-1) ** n * 10**n),  # more digits than Python prints
    st.sampled_from(list(_Level)),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.sampled_from(_ODD_TEXT),
    st.text(),
    st.booleans(),
    st.none(),
    st.sampled_from([object(), {1}, b"raw"]),
    hnp.arrays(
        st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
        hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3),
    ),
)
_KEYS = st.one_of(st.text(), st.sampled_from(_ODD_TEXT), st.integers(), st.floats(), st.booleans(), st.none())
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=4),
        st.dictionaries(_KEYS, inner, max_size=4).map(MappingProxyType),
    ),
    max_leaves=12,
)


def _written(write, doc) -> str:
    try:
        return write(doc)
    except FormatError as exc:
        return f"format error: {exc}"


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(_DOCUMENTS)
def test_canonical_writer_matches_the_recursive_oracle(doc):
    """Equal bytes, or an equal refusal, on every JSON, NumPy and Mapping shape the writer takes."""
    assert _written(canonical_dumps, doc) == _written(canonical_dumps_oracle, doc)


GOLDEN_SCENARIOS = {
    ("occlusion_after_command", 0.5): "f358080095165c514cda3699ec030e1092c9f2605d0620012070b3a654a75ec3",
    ("occlusion_after_command", 2.0): "a879983e983d531fa8c82ea9bc1f297207c10fefad4b41c969615bc80442d786",
    ("target_moved", 0.5): "f01ac1e4adc898392c984f31db7c41c4bcd4aa71c9c292901c05000e4ebafdcc",
    ("target_moved", 2.0): "8de3ff10ab9b76d62b349a941f0f6f9175c55d86b3aee709f4ee801070d3ab9e",
    ("same_class_distractor", 0.5): "576399e2cdede1ab4dee842250aa0b6ef98632a0e116c74543aa93bbce3192aa",
    ("same_class_distractor", 2.0): "0b33802b9e466b720be403fe0fce42b2717a38d37b5da9d06686052e08cccdf0",
    ("moved_reference", 0.5): "57b887545d0a302eaa8545600e1212775da745854e0a0701ff4805bad3308592",
    ("moved_reference", 2.0): "fcc1de69f2ebac53fea82974bb0ea383c34f2272092f0cecbbca218f23a59bdf",
}


@pytest.mark.parametrize("family, delay", GOLDEN_SCENARIOS)
def test_golden_scenario_bytes(tmp_path, family, delay):
    path = tmp_path / "scenario.json"
    write_scenario(make_scenario(family, {"seed": 3, "delay": delay}), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SCENARIOS[family, delay]


def _dense_stream(path):
    """Twelve objects a frame on a 4 x 3 image grid for 20 frames; three of them leave for a while.

    Grid neighbours are about 0.5 m apart, under ``near_threshold``, so they propose relations.
    """
    camera = CameraModel(fx=130.0, fy=130.0, cx=80.0, cy=60.0)
    objects = []
    for k in range(12):
        row, col = divmod(k, 4)
        z = 1.7 + 0.02 * k
        home = np.array([z * ((col + 0.5) * 40 - 80) / 130, z * ((row + 0.5) * 40 - 60) / 130, z])
        visibility = ((0.0, 0.8), (1.2, math.inf)) if k % 5 == 0 else ((0.0, math.inf),)
        objects.append(
            SimObject(k + 1, f"thing {k}", (0.06, 0.06, 0.06), axis(k, 16), axis(k, 16),
                      ((0.0, home), (2.0, home + 0.01)), visibility)
        )
    spec = ScenarioSpec(
        family="dense", seed=5, duration=2.0, frame_rate=10.0, image_width=160, image_height=120,
        feature_dim=16, camera=camera, objects=tuple(objects), noise=NoiseModel(centroid_sigma=0.002),
        near_threshold=0.6,
    )
    write_stream(generate_stream(spec)[0], path)


def _target_moved_stream(path):
    scene = ("--family", "target_moved", "--seed", "0", "--delay", "1.0", "--frame-rate", "2")
    assert cli_main(["simulate", *scene, "--out-dir", str(path.parent)]) == 0


# SHA-256 of the graph.json that ``stovsg build`` writes for each stream
GOLDEN_GRAPHS = {
    "target_moved": (_target_moved_stream, "34e9acfc41d286326cfb5bcb3e4c98e6996c571766724fa630574d8abd815e9a"),
    "dense": (_dense_stream, "475949dc255d43a90cdd19f946b27f0728b807a2af1656289c6f13051c269fc6"),
}


@pytest.mark.parametrize("name", GOLDEN_GRAPHS)
def test_golden_graph_bytes(tmp_path, capsys, name):
    make_stream, digest = GOLDEN_GRAPHS[name]
    make_stream(tmp_path / "stream.jsonl")
    assert cli_main(["build", "--stream", str(tmp_path / "stream.jsonl"), "--out", str(tmp_path / "graph.json")]) == 0
    capsys.readouterr()
    assert hashlib.sha256((tmp_path / "graph.json").read_bytes()).hexdigest() == digest


def test_golden_subgraph_bytes():
    payload = {
        "schema": SUBGRAPH_SCHEMA,
        "command_text": "pick up the red mug",
        "aligned_frame_index": 3,
        "aligned_frame_time": 0.3,
        "latency_tag": {"capture_time": 0.3, "transmission_latency": 0.5},
        "nodes": [
            {
                "id": 1,
                "class": "red mug",
                "centroid": [0.1234567, -0.5, 1.5],
                "size": [0.1, 0.1, 0.12],
                "score": 1.25,
                "spatial_relations": [{"relation": "near", "subject": 1, "object": 2}],
                "motion_history": [[0.3, [0.1234567, -0.5, 1.5]]],
            }
        ],
        "scene_dynamics": [{"time": 0.4, "track_id": 2, "event": "appeared"}],
    }
    expected = (
        '{"schema":"stovsg-subgraph/3","command_text":"pick up the red mug",'
        '"aligned_frame_index":3,"aligned_frame_time":0.3,'
        '"latency_tag":{"capture_time":0.3,"transmission_latency":0.5},'
        '"nodes":[{"id":1,"class":"red mug","centroid":[0.123457,-0.5,1.5],'
        '"size":[0.1,0.1,0.12],"score":1.25,'
        '"spatial_relations":[{"relation":"near","subject":1,"object":2}],'
        '"motion_history":[[0.3,[0.123457,-0.5,1.5]]]}],'
        '"scene_dynamics":[{"time":0.4,"track_id":2,"event":"appeared"}]}'
    )
    assert serialize_subgraph(payload) == expected
    assert serialize_subgraph(parse_subgraph(expected)) == expected


def test_subgraph_payload_from_a_real_graph(config):
    graph = occluded_graph(config)
    command = Command(text="pick up the red mug", embedding=axis(0), issue_time=1.6)
    sub = extract_subgraph(graph, command, QueryConfig())
    payload = subgraph_payload(sub)
    assert list(payload) == [
        "schema",
        "command_text",
        "aligned_frame_index",
        "aligned_frame_time",
        "latency_tag",
        "nodes",
        "scene_dynamics",
    ]
    scores = [n["score"] for n in payload["nodes"]]
    assert scores == sorted(scores, reverse=True)
    text = serialize_subgraph(sub)
    assert serialize_subgraph(parse_subgraph(text)) == text  # canonical fixed point


def test_parse_subgraph_rejects_other_documents():
    with pytest.raises(FormatError):
        parse_subgraph('{"schema":"stovsg-graph/1"}')
    with pytest.raises(FormatError):
        parse_subgraph("{broken")


def test_json_readers_refuse_json_that_python_reads_but_cannot_convert(built_graph_text, tmp_path):
    big, deep = "9" * 5000, "[" * 100_000 + "]" * 100_000  # more digits than Python reads; deeper than it recurses
    with pytest.raises(FormatError, match="^subgraph: Exceeds the limit"):
        parse_subgraph(f'{{"schema":"{SUBGRAPH_SCHEMA}","aligned_frame_index":{big}}}')
    with pytest.raises(FormatError, match="^subgraph: maximum recursion depth exceeded"):
        parse_subgraph(f'{{"schema":"{SUBGRAPH_SCHEMA}","nodes":{deep}}}')
    path = tmp_path / "graph.json"
    # the record scanner, and the whole-file reader of a file that does not start with its schema
    for value, message in ((big, "Exceeds the limit"), (deep, "maximum recursion depth exceeded")):
        for text in (built_graph_text.replace('"next_node_id":', f'"next_node_id":{value}', 1), f"[{value}]"):
            path.write_text(text)
            with pytest.raises(FormatError, match=f"^graph {re.escape(str(path))}: {message}"):
                read_graph(path)


def test_parse_subgraph_refuses_a_version_1_payload():
    # version 1 carried each track's whole history; version 2 every frame of the aligned-to-newest window
    with pytest.raises(FormatError, match="stovsg-subgraph/3"):
        parse_subgraph('{"schema":"stovsg-subgraph/1","nodes":[]}')


def test_parse_subgraph_refuses_a_version_2_payload_naming_version_3():
    # version 3 keeps only the window's keyframes, so a version 2 history means something else
    message = "^subgraph: expected schema 'stovsg-subgraph/3', got 'stovsg-subgraph/2'$"
    with pytest.raises(FormatError, match=message):
        parse_subgraph('{"schema":"stovsg-subgraph/2","nodes":[]}')
    with pytest.raises(FormatError, match="^subgraph: expected schema 'stovsg-subgraph/3', got None$"):
        parse_subgraph("[]")


def test_dumps_refuses_non_finite():
    with pytest.raises(ValueError):
        dumps({"x": float("nan")})


def _stream_with_line(tmp_path, mutate):
    """Write a stream, apply ``mutate`` to a frame record with detections, return its path."""
    spec = make_scenario("moved_reference", {"seed": 0, "delay": 0.5})
    inputs, _ = generate_stream(spec)
    path = tmp_path / "run" / "stream.jsonl"
    write_stream(inputs[:3], path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    assert record["detections"] and record["relation_candidates"]
    mutate(record)
    lines[1] = json.dumps(record)  # json.dumps, not dumps: the record may hold NaN
    path.write_text("\n".join(lines) + "\n")
    return path


def _set(*keys, value):
    def mutate(record):
        target = record
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value

    return mutate


@pytest.mark.parametrize(
    "mutate",
    [
        _set("detections", value=5),
        _set("latency_tag", value=None),
        _set("detections", 0, "label", value=[1]),
        _set("latency_tag", "transmission_latency", value=float("nan")),
        _set("latency_tag", "capture_time", value=float("inf")),
        _set("latency_tag", "capture_time", value=10**400),
        _set("depth_ref", value="../outside.bin"),
        _set("depth_ref", value="/etc/outside.bin"),
        _set("frame_index", value="1"),
        _set("camera", value=[]),
        _set("camera", "rotation", value=[[1, 0], [0, 1, 0]]),
        _set("detections", 0, "f_img", value=["0.5"]),
        _set("detections", 0, "f_img", 0, value=True),
        _set("detections", 0, "box", value=[1, 2, 3]),
        _set("detections", 0, "mask_rle", value=[[1, 2]]),
        _set("detections", 0, "mask_rle", value={"row": 1}),
        _set("detections", 0, "mask_rle", 0, 0, value=True),
        _set("detections", 0, "mask_rle", value=[[0, 0, 10**13]]),  # 73 TiB of pixel indices, were it decoded
        _set("relation_candidates", 0, "src", value=1.5),
        lambda record: record["detections"][0].pop("f_txt"),
        lambda record: record.update(detections=[7]),
    ],
    ids=[
        "detections-number",
        "latency-tag-null",
        "label-list",
        "latency-nan",
        "capture-time-inf",
        "capture-time-huge-int",
        "depth-ref-parent",
        "depth-ref-absolute",
        "frame-index-string",
        "camera-list",
        "rotation-ragged",
        "feature-strings",
        "feature-bool",
        "box-three-numbers",
        "mask-short-run",
        "mask-object",
        "mask-bool",
        "mask-run-too-long",
        "candidate-src-float",
        "f-txt-missing",
        "detection-number",
    ],
)
def test_malformed_stream_records_give_format_errors(tmp_path, capsys, mutate):
    path = _stream_with_line(tmp_path, mutate)
    write_depth_file(DepthImage(np.ones((120, 160), dtype=np.float32)), tmp_path / "outside.bin")
    with pytest.raises(FormatError, match=f"stream {path}:2: "):
        parse_stream(path)
    assert cli_main(["build", "--stream", str(path), "--out", str(tmp_path / "g.json")]) == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "format-error"
    assert not (tmp_path / "g.json").exists()


def test_an_empty_stream_writes_reads_and_builds_an_empty_graph(tmp_path, capsys):
    path = tmp_path / "stream.jsonl"
    write_stream([], path)
    assert path.read_text() == '{"schema":"stovsg-stream/2"}\n'
    assert parse_stream(path) == ({"schema": STREAM_SCHEMA}, [])
    assert cli_main(["build", "--stream", str(path), "--out", str(tmp_path / "g.json")]) == 0
    assert capsys.readouterr().err == ""
    assert graph_to_dict(read_graph(tmp_path / "g.json")) == graph_to_dict(empty_graph())


def _build_refuses(path, tmp_path, capsys) -> str:
    """The message of the one format error that building ``path`` gives; no graph is written."""
    assert cli_main(["build", "--stream", str(path), "--out", str(tmp_path / "g.json")]) == 1
    out, err = capsys.readouterr()
    (line,) = err.splitlines()
    assert out == "" and json.loads(line)["error"] == "format-error"
    assert not (tmp_path / "g.json").exists()
    return json.loads(line)["message"]


def test_a_stream_of_the_previous_schema_is_one_format_error_naming_both(tmp_path, capsys):
    # its header held an image size and a feature dimension, and a frame could leave out its depth
    path = _stream_with_line(tmp_path, lambda record: None)
    header, *records = path.read_text().splitlines()
    old = {"schema": "stovsg-stream/1", "feature_dim": 16, "image_width": 160, "image_height": 120}
    path.write_text("\n".join([dumps(old), *records]) + "\n")
    message = f"stream {path}: expected schema 'stovsg-stream/2', got 'stovsg-stream/1'"
    assert _build_refuses(path, tmp_path, capsys) == message


def test_a_frame_record_without_depth_ref_is_one_format_error_naming_its_line_and_key(tmp_path, capsys):
    path = _stream_with_line(tmp_path, lambda record: record.pop("depth_ref"))
    assert _build_refuses(path, tmp_path, capsys) == f"stream {path}:2: missing key 'depth_ref'"

def test_format_errors_name_the_key_path(tmp_path):
    path = _stream_with_line(tmp_path, _set("detections", 0, "label", value=[1]))
    with pytest.raises(FormatError, match=r"detections\[0\]\.label: expected a string, got list"):
        parse_stream(path)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_set("detections", 0, "box", value=[5, 5, 5, 9]), "detections[0].box: invalid box (5.0, 5.0, 5.0, 9.0)"),
        (
            _set("relation_candidates", 0, "zone", value=[9, 0, 1, 5]),
            "relation_candidates[0].zone: invalid box (9.0, 0.0, 1.0, 5.0)",
        ),
        (_set("camera", "fx", value=0.0), "camera: camera focal lengths must be positive (fx=0.0, fy=130.0)"),
        (
            _set("camera", "rotation", value=[[2, 0, 0], [0, 1, 0], [0, 0, 1]]),
            "camera: camera rotation not orthonormal (|R^T R - I| = 3.000e+00)",
        ),
        (_set("detections", 0, "mask_rle", value=[]), "detections[0]: empty mask"),
        (_set("detections", 0, "f_txt", value=[0.0] * 16), "detections[0]: zero-norm f_txt"),
        (_set("detections", 0, "label", value=" "), "detections[0]: empty label"),
        (
            _set("latency_tag", "transmission_latency", value=-0.5),
            "latency_tag: transmission_latency -0.5 is negative or not finite",
        ),
    ],
    ids=["box", "zone", "camera-fx", "camera-rotation", "empty-mask", "zero-f-txt", "empty-label", "negative-latency"],
)
def test_a_record_a_stream_line_cannot_hold_is_one_format_error_at_its_key_path(tmp_path, capsys, mutate, message):
    """A box, camera, detection or latency tag refuses itself when it is read, before any frame is ingested."""
    path = _stream_with_line(tmp_path, mutate)
    with pytest.raises(FormatError) as refused:
        parse_stream(path)
    assert str(refused.value) == f"stream {path}:2: {message}"
    assert cli_main(["build", "--stream", str(path), "--out", str(tmp_path / "g.json")]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "format-error", "message": str(refused.value)}


def test_a_track_or_command_a_file_cannot_hold_is_one_format_error_at_its_key_path(tmp_path, config):
    data = graph_to_dict(occluded_graph(config))
    data["tracks"][0]["descriptor"] = [0.0] * len(data["tracks"][0]["descriptor"])
    path = tmp_path / "graph.json"
    path.write_text(dumps(data) + "\n")
    with pytest.raises(FormatError, match=r"^graph: tracks\[0\]: zero-norm descriptor$"):
        read_graph(path)
    command = command_to_dict(Command(text="pick up the red mug", embedding=axis(0), issue_time=2.0))
    for key, value, problem in [("embedding", [0.0] * 8, "zero-norm embedding"),
                                ("latency", -1.0, "latency -1.0 is negative or not finite")]:
        path = tmp_path / "command.json"
        path.write_text(dumps({**command, key: value}))
        with pytest.raises(FormatError, match=f"^command {re.escape(str(path))}: {problem}$"):
            read_command(path)
        path.write_text(dumps({"commands": [command, {**command, key: value}]}))
        with pytest.raises(FormatError, match=rf"^commands {re.escape(str(path))}\[1\]: {problem}$"):
            read_commands(path)


def _key_paths(doc) -> list[str]:
    """Every key path of a JSON document in order of first appearance; [] marks array items."""
    seen: dict[str, None] = {}

    def walk(value, prefix):
        if isinstance(value, dict):
            for key, item in value.items():
                path = f"{prefix}.{key}" if prefix else key
                seen.setdefault(path, None)
                walk(item, path)
        elif isinstance(value, list):
            for item in value:
                walk(item, prefix + "[]")

    walk(doc, "")
    return list(seen)


# Key order of every written file, captured from the hand-written writers that
# preceded the record tables, minus the removed engine options, track velocity,
# node boxes and masks, frame image sizes, the graph camera, the nodes' and
# temporal edges' copies of their frames' indices and times, and what tracks
# held that their temporal edges give.  Round trips
# cannot catch a reordered table, since the writer and reader share it.
KEY_PATHS = {
    "graph": """
        schema next_node_id next_track_id frames_dropped frames
        frames[].frame_index frames[].latency_tag
        frames[].latency_tag.capture_time frames[].latency_tag.transmission_latency
        frames[].nodes
        frames[].nodes[].node_id frames[].nodes[].label
        frames[].nodes[].f_img
        frames[].nodes[].f_txt frames[].nodes[].centroid frames[].nodes[].size
        frames[].nodes[].points
        frames[].spatial_edges
        frames[].spatial_edges[].src frames[].spatial_edges[].dst
        frames[].spatial_edges[].relation frames[].spatial_edges[].cost
        temporal_edges
        temporal_edges[].relation temporal_edges[].track_id temporal_edges[].event_frame
        temporal_edges[].src_node temporal_edges[].dst_node
        tracks
        tracks[].track_id tracks[].descriptor
    """.split(),
    "stream": """
        frame_index latency_tag
        latency_tag.capture_time latency_tag.transmission_latency
        camera
        camera.fx camera.fy camera.cx camera.cy camera.rotation camera.translation
        detections
        detections[].box detections[].mask_rle detections[].label detections[].f_img
        detections[].f_txt
        relation_candidates
        relation_candidates[].src relation_candidates[].dst relation_candidates[].relation
        relation_candidates[].zone
        depth_ref
    """.split(),
    "scenario": """
        schema family seed duration frame_rate image_width image_height feature_dim camera
        camera.fx camera.fy camera.cx camera.cy camera.rotation camera.translation
        noise
        noise.centroid_sigma noise.feature_sigma noise.dropout_prob noise.label_flip_prob
        uplink downlink near_threshold objects
        objects[].true_id objects[].label objects[].size objects[].txt_archetype
        objects[].img_archetype objects[].waypoints objects[].visibility
        commands
        commands[].text commands[].embedding commands[].intended_id commands[].issue_time
    """.split(),
    "truth": """
        schema frames
        frames[].frame_index frames[].capture_time frames[].detections
        frames[].detections[].true_id frames[].detections[].label
        frames[].detections[].centroid
        frames[].relations
        commands
        commands[].intended_id commands[].issue_time commands[].arrival_time
        commands[].centroid_at_issue commands[].centroid_at_arrival
    """.split(),
    "command": """
        schema text embedding issue_time latency
    """.split(),
    "config": """
        schema spatial
        spatial.w_iou spatial.w_area spatial.w_ctr
        temporal
        temporal.w_pos temporal.w_vis temporal.delta_cls temporal.d_max temporal.eta
        temporal.grace_period
        query
        query.beta query.top_k query.neighbor_hops
        engine
        engine.descriptor_alpha engine.centroid_tol
    """.split(),
}


def test_a_track_in_memory_is_the_record_a_graph_file_holds():
    names = tuple(field.name for field in dataclasses.fields(Track))
    assert names == ("track_id", "descriptor")
    assert names == tuple(attr for _, attr, _ in TRACK.fields.rows)


def test_written_files_keep_their_key_order(tmp_path):
    spec = make_scenario("moved_reference", {"seed": 0, "delay": 0.5})
    inputs, truth = generate_stream(spec)
    write_scenario(spec, tmp_path / "scenario.json")
    write_stream(inputs, tmp_path / "stream.jsonl")
    write_truth(truth, tmp_path / "truth.json")
    write_graph(ingest_sequence(empty_graph(), inputs, EngineConfig()), tmp_path / "graph.json")
    command = commands_from_scenario(spec)[0]
    (tmp_path / "command.json").write_text(dumps(command_to_dict(command)))
    save_config(EngineConfig(), tmp_path / "config.json")
    docs = {
        name: json.loads((tmp_path / f"{name}.json").read_text())
        for name in ("graph", "scenario", "truth", "command", "config")
    }
    docs["stream"] = json.loads((tmp_path / "stream.jsonl").read_text().splitlines()[1])
    for name, expected in KEY_PATHS.items():
        assert _key_paths(docs[name]) == expected, name
