"""End-to-end exercises of the ``python -m stovsg`` command-line interface."""

import dataclasses
import functools
import hashlib
import json
import operator
import subprocess
import sys
from types import MappingProxyType

import pytest

from stovsg import (
    EngineConfig,
    NoiseModel,
    command_to_dict,
    commands_from_scenario,
    dumps,
    empty_graph,
    ground_command,
    ingest_sequence,
    load_config,
    make_scenario,
    parse_stream,
    parse_subgraph,
    read_graph,
    read_scenario,
    save_config,
    scenario_to_dict,
    serialize_subgraph,
    validate_graph,
    write_graph,
    write_scenario,
)
from stovsg.cli import main as cli_main

from cli_manifest import run_sequence
from conftest import axis, make_detection, make_frame_input


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "stovsg", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def simulate(tmp_path, **overrides):
    """Generate one scenario worth of files and return their directory."""
    opts = {"family": "target_moved", "seed": 2, "delay": 1.0}
    opts.update(overrides)
    out_dir = tmp_path / "sim"
    proc = run_cli(
        "simulate",
        "--family", opts["family"],
        "--seed", opts["seed"],
        "--delay", opts["delay"],
        "--out-dir", out_dir,
    )
    assert proc.returncode == 0, proc.stderr
    return out_dir


def write_command_file(scenario_path, path):
    spec = read_scenario(scenario_path)
    command = commands_from_scenario(spec)[0]
    path.write_text(dumps(command_to_dict(command)) + "\n")
    return command


def test_full_pipeline(tmp_path):
    sim_dir = simulate(tmp_path)
    for name in ("scenario.json", "stream.jsonl", "truth.json"):
        assert (sim_dir / name).exists()

    graph_path = tmp_path / "graph.json"
    proc = run_cli("build", "--stream", sim_dir / "stream.jsonl", "--out", graph_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("built graph:")
    graph = read_graph(graph_path)
    assert validate_graph(graph) == []

    command_path = tmp_path / "command.json"
    command = write_command_file(sim_dir / "scenario.json", command_path)

    # query output matches a direct in-process call on the same inputs
    proc = run_cli("query", "--graph", graph_path, "--command", command_path)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert list(payload) == [
        "command_text",
        "status",
        "aligned_frame_index",
        "track_id",
        "aligned_node_id",
        "score",
        "current_node_id",
        "label",
        "centroid",
        "size",
    ]
    result = ground_command(
        graph, command, EngineConfig().query, latency_aware=True, as_of=command.arrival_time
    )
    assert payload["status"] == "live"
    assert payload["track_id"] == result.track_id
    assert payload["aligned_node_id"] == result.aligned_node.node_id
    assert payload["current_node_id"] == result.current_node.node_id
    assert payload["label"] == result.aligned_node.label
    assert len(payload["centroid"]) == 3 and len(payload["size"]) == 3

    # the naive mode resolves on the newest frame and lands on the look-alike
    naive = run_cli("query", "--graph", graph_path, "--command", command_path, "--naive")
    assert naive.returncode == 0, naive.stderr
    assert json.loads(naive.stdout)["track_id"] != payload["track_id"]

    # exported payload is canonical: parsing and re-serializing reproduces it
    sub_path = tmp_path / "subgraph.json"
    proc = run_cli("export", "--graph", graph_path, "--command", command_path, "--out", sub_path)
    assert proc.returncode == 0, proc.stderr
    text = proc.stdout.rstrip("\n")
    assert serialize_subgraph(parse_subgraph(text)) == text
    assert sub_path.read_text() == text + "\n"

    # scoring against the truth log: clean stream, so everything is perfect
    proc = run_cli(
        "score",
        "--graph", graph_path,
        "--truth", sim_dir / "truth.json",
        "--scenario", sim_dir / "scenario.json",
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["schema"] == "stovsg-metrics/1"
    assert report["grounding_success_rate"] == 1.0
    assert report["node_accuracy"] == 1.0
    assert report["temporal_accuracy"] == 1.0

    # a {"commands": [...]} file scores the same as deriving from the scenario
    commands_path = tmp_path / "commands.json"
    commands_path.write_text(json.dumps({"commands": [command_to_dict(command)]}) + "\n")
    via_file = run_cli(
        "score",
        "--graph", graph_path,
        "--truth", sim_dir / "truth.json",
        "--commands", commands_path,
    )
    assert via_file.returncode == 0, via_file.stderr
    assert json.loads(via_file.stdout)["grounding_success_rate"] == 1.0

    # same scenario scored without latency compensation fails the grounding
    naive_score = run_cli(
        "score",
        "--graph", graph_path,
        "--truth", sim_dir / "truth.json",
        "--scenario", sim_dir / "scenario.json",
        "--naive",
    )
    assert naive_score.returncode == 0, naive_score.stderr
    assert json.loads(naive_score.stdout)["grounding_success_rate"] == 0.0

    # asking for a cutoff before the first frame reaches the operator fails cleanly
    early = run_cli(
        "query", "--graph", graph_path, "--command", command_path, "--as-of", 0.0
    )
    assert early.returncode == 1
    assert json.loads(early.stderr)["error"] == "no-aligned-frame"


def test_simulate_regenerates_identical_stream_from_scenario_file(tmp_path):
    first = simulate(tmp_path, family="occlusion_after_command", seed=7, delay=0.5)
    second_dir = tmp_path / "again"
    proc = run_cli("simulate", "--scenario", first / "scenario.json", "--out-dir", second_dir)
    assert proc.returncode == 0, proc.stderr
    for name in ("scenario.json", "stream.jsonl", "truth.json"):
        assert (first / name).read_bytes() == (second_dir / name).read_bytes()


def test_replay_prints_table_and_writes_report(tmp_path):
    out = tmp_path / "suite.json"
    proc = run_cli(
        "replay",
        "--families", "target_moved",
        "--delays", "1.0",
        "--trials", "1",
        "--seed", "2",
        "--out", out,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "latency_aware=on"
    report = json.loads(out.read_text())
    (row,) = report["rows"]
    assert row["family"] == "target_moved"
    assert row["grounding_success_rate"] == 1.0
    assert row["replay_success_rate"] == 1.0


def test_config_subcommand_writes_defaults(tmp_path):
    out = tmp_path / "config.json"
    proc = run_cli("config", "--out", out)
    assert proc.returncode == 0, proc.stderr
    assert load_config(out) == EngineConfig()


def test_config_subcommand_echoes_custom_file(tmp_path):
    tuned = tmp_path / "tuned.json"
    cfg = dataclasses.replace(EngineConfig(), descriptor_alpha=0.5, centroid_tol=0.1)
    save_config(cfg, tuned)
    out = tmp_path / "echo.json"
    proc = run_cli("config", "--config", tuned, "--out", out)
    assert proc.returncode == 0, proc.stderr
    assert load_config(out) == cfg


def test_missing_stream_file_reports_io_error(tmp_path):
    proc = run_cli("build", "--stream", tmp_path / "nope.jsonl", "--out", tmp_path / "g.json")
    assert proc.returncode == 1
    err = json.loads(proc.stderr)
    assert err["error"] == "io-error"
    assert "nope.jsonl" in err["message"]


def test_unknown_replay_family_reports_engine_error(tmp_path):
    proc = run_cli("replay", "--families", "poltergeist", "--delays", "0.5")
    assert proc.returncode == 1
    err = json.loads(proc.stderr)
    assert err["error"] == "engine-error"
    assert "poltergeist" in err["message"]


def test_bad_config_file_reports_format_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "stovsg-config/1", "engine": {"threads": 8}}))
    proc = run_cli("config", "--config", bad, "--out", tmp_path / "out.json")
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "format-error"


def test_mistyped_config_value_reports_format_error(tmp_path):
    sim_dir = simulate(tmp_path)
    graph_path = tmp_path / "graph.json"
    assert run_cli("build", "--stream", sim_dir / "stream.jsonl", "--out", graph_path).returncode == 0
    command_path = tmp_path / "command.json"
    write_command_file(sim_dir / "scenario.json", command_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"schema": "stovsg-config/1", "query": {"top_k": 2.5}}))
    proc = run_cli(
        "export", "--graph", graph_path, "--command", command_path, "--config", config_path
    )
    assert proc.returncode == 1
    error = json.loads(proc.stderr)
    assert error["error"] == "format-error"
    assert "top_k" in error["message"]


def test_unknown_simulate_family_is_an_argparse_error(tmp_path):
    proc = run_cli("simulate", "--family", "poltergeist", "--out-dir", tmp_path)
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr


@pytest.mark.parametrize(
    "args, message",
    [
        (("simulate", "--seed", "-1"), "seed must be non-negative, got -1"),
        (("simulate", "--scenario", "SCENARIO"), "seed must be non-negative, got -1"),
        (("simulate", "--frame-rate", "nan"), "frame_rate must be positive and finite, got nan"),
        (("simulate", "--delay", "inf"), "delay must be positive and finite, got inf"),
        (
            ("simulate", "--frame-rate", "1e5"),
            "scenario too long: duration 4.50001 at 100000.0 fps is more than the 100000 frames a stream may have",
        ),
        (("replay", "--trials", "0"), "trials must be at least 1, got 0"),
        (("replay", "--delays", "abc"), "--delays must be comma-separated numbers, got 'abc'"),
        (("replay", "--seed", "-5"), "seed must be non-negative, got -5"),
    ],
    ids=["seed", "scenario-seed", "frame-rate", "delay", "frame-count", "trials", "delays", "replay-seed"],
)
def test_bad_numbers_are_refused_as_one_json_error(tmp_path, args, message):
    scenario = tmp_path / "scenario.json"
    write_scenario(dataclasses.replace(make_scenario("target_moved"), seed=-1), scenario)
    out_dir = tmp_path / "out"
    if args[0] == "simulate":
        args += ("--out-dir", out_dir)
    proc = run_cli(*(scenario if arg == "SCENARIO" else arg for arg in args))
    assert proc.returncode == 1
    assert json.loads(proc.stderr) == {"error": "input-rejected", "message": message}
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "key_path, value, message",
    [
        (("objects", 1, "waypoints"), [], "objects[1]: waypoints: expected at least one"),
        (("objects", 0, "size"), [0.1, 0.1], "objects[0]: size: expected 3 numbers, got 2"),
        (
            ("objects", 0, "waypoints", 1, 1),
            [0.1, 0.2],
            "objects[0]: waypoints[1]: expected 3 numbers, got shape (2,)",
        ),
        (("image_width",), -5, "image_width: expected a positive integer, got -5"),
        (("image_width",), 0, "image_width: expected a positive integer, got 0"),
        (("feature_dim",), 0, "feature_dim: expected a positive integer, got 0"),
        (("camera", "fx"), 0.0, "camera focal lengths must be positive (fx=0.0, fy=130.0)"),
        (("objects", 1, "img_archetype"), [0.25] * 8, "objects[1]: img_archetype dimension 8 != 16"),
        (("feature_dim",), 8, "objects[0]: txt_archetype dimension 16 != 8"),
        (("objects", 2, "txt_archetype"), [0.0] * 16, "objects[2]: zero-norm txt_archetype"),
        (("objects", 2, "true_id"), 1, "objects[2]: true_id 1 is already used by objects[0]"),
        (("commands", 0, "embedding"), [0.25] * 8, "commands[0]: embedding dimension 8 != 16"),
        (("commands", 0, "embedding"), [0.0] * 16, "commands[0]: zero-norm embedding"),
        (("commands", 0, "embedding"), [1e-200] * 16, "commands[0]: zero-norm embedding"),
        (("objects", 1, "label"), " ", "objects[1]: empty label"),
    ],
    ids=[
        "no-waypoints",
        "size",
        "position",
        "negative-width",
        "zero-width",
        "zero-feature-dim",
        "zero-fx",
        "short-archetype",
        "feature-dim",
        "zero-archetype",
        "duplicate-true-id",
        "short-embedding",
        "zero-embedding",
        "underflow-embedding",
        "empty-label",
    ],
)
def test_malformed_scenario_file_is_one_json_error(tmp_path, capsys, key_path, value, message):
    data = scenario_to_dict(make_scenario("target_moved", {"seed": 0}))
    *parents, last = key_path
    functools.reduce(operator.getitem, parents, data)[last] = value
    path = tmp_path / "scenario.json"
    path.write_text(dumps(data) + "\n")
    out_dir = tmp_path / "run"
    assert cli_main(["simulate", "--scenario", str(path), "--out-dir", str(out_dir)]) == 1
    out, err = capsys.readouterr()
    (line,) = err.splitlines()
    assert json.loads(line) == {"error": "format-error", "message": f"scenario: {message}"}
    assert out == "" and not out_dir.exists()


def test_graph_file_with_edges_out_of_order_is_one_json_error(tmp_path):
    sim_dir = simulate(tmp_path)
    graph_path = sim_dir / "graph.json"
    assert run_cli("build", "--stream", sim_dir / "stream.jsonl", "--out", graph_path).returncode == 0
    command_path = tmp_path / "command.json"
    write_command_file(sim_dir / "scenario.json", command_path)
    data = json.loads(graph_path.read_text())
    edges = data["temporal_edges"]
    edges.append(edges.pop(0))  # an event-frame-1 edge after the newest frame's
    graph_path.write_text(dumps(data) + "\n")
    for subcommand in ("query", "export"):
        proc = run_cli(subcommand, "--graph", graph_path, "--command", command_path)
        assert proc.returncode == 1 and proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        error = json.loads(line)
        assert error["error"] == "format-error"
        assert "(temporal edges must be in event-frame order)" in error["message"]


@pytest.fixture(scope="module")
def scored_scene(tmp_path_factory):
    """A target_moved scene (seed 0, delay 1.0) with its built graph, through ``cli_main``."""
    d = tmp_path_factory.mktemp("scored")
    scene = ["--family", "target_moved", "--seed", "0", "--delay", "1.0", "--out-dir", str(d)]
    assert cli_main(["simulate", *scene]) == 0
    assert cli_main(["build", "--stream", str(d / "stream.jsonl"), "--out", str(d / "graph.json")]) == 0
    return d


@pytest.mark.parametrize(
    "name, key_path, value, message",
    [
        ("graph.json", ("temporal_edges", 2, "dst_node"), 999,
         "graph: track 1: temporal_edges[2]: destination 999 is not in the graph"),
        ("graph.json", ("frames", 0, "nodes", 0, "centroid"), [0.1, 0.2], "graph {path}: frame 1 node 1: bad centroid"),
        ("truth.json", ("frames", 0, "detections", 0, "centroid"), [0.1, 0.2],
         "truth: frames[0].detections[0]: centroid: expected 3 numbers, got shape (2,)"),
        ("truth.json", ("commands", 0, "centroid_at_arrival"), [0.1, 0.2],
         "truth: commands[0]: centroid_at_arrival: expected 3 numbers, got shape (2,)"),
    ],
    ids=["edge-endpoint", "node-centroid", "detection-centroid", "command-centroid"],
)
def test_score_refuses_a_malformed_graph_or_truth_file_as_one_json_error(
    scored_scene, tmp_path, capsys, name, key_path, value, message
):
    files = {n: scored_scene / n for n in ("graph.json", "truth.json", "scenario.json")}
    data = json.loads(files[name].read_text())
    *parents, last = key_path
    functools.reduce(operator.getitem, parents, data)[last] = value
    files[name] = path = tmp_path / name
    path.write_text(dumps(data) + "\n")
    argv = ["score", "--graph", files["graph.json"], "--truth", files["truth.json"], "--scenario", files["scenario.json"]]
    capsys.readouterr()
    assert cli_main([str(a) for a in argv]) == 1
    out, err = capsys.readouterr()
    (line,) = err.splitlines()
    assert out == "" and json.loads(line) == {"error": "format-error", "message": message.format(path=path)}


def _swap_tails(edges):
    """Tracks 1 and 2 trade every edge from frame 5 on, as a wrong association would leave them."""
    swap = {1: 2, 2: 1}
    return [
        dataclasses.replace(e, track_id=swap.get(e.track_id, e.track_id)) if e.event_frame >= 5 else e for e in edges
    ]


def _edit_edge(k, **changes):
    return lambda edges: [dataclasses.replace(e, **changes) if i == k else e for i, e in enumerate(edges)]


# Edges of the two-fps graph: tracks 1 and 2 appear in frame 1 and gain one node a frame (track 1 the odd
# node ids up to 11, then 14 and 17); track 3 appears in frame 6 (edge 12, node 13).
BROKEN_CHAINS = {
    "swapped-tails": (_swap_tails, "track 2: temporal_edges[8]: source 7 is not the track's newest node 8"),
    "stale-source": (
        _edit_edge(6, src_node=1),
        "track 1: temporal_edges[6]: source 1 is not the track's newest node 5",
    ),
    "moved-event-frame": (
        _edit_edge(3, event_frame=3),
        "track 2: temporal_edges[3]: destination 4 lies in frame 2, not in event frame 3",
    ),
    "node-on-two-tracks": (_edit_edge(1, dst_node=1), "track 2: temporal_edges[1]: node 1 is already on track 1"),
    "no-appeared-edge": (
        lambda edges: [e for i, e in enumerate(edges) if i != 12],
        "track 3: temporal_edges[14]: same-instance edge before the track's appeared edge",
    ),
}


@pytest.mark.parametrize("case", BROKEN_CHAINS)
def test_temporal_edges_that_break_a_track_chain_are_one_format_error(two_fps_scene, tmp_path, capsys, case):
    edit, message = BROKEN_CHAINS[case]
    built = two_fps_scene / "graph.json"
    if not built.exists():
        assert cli_main(["build", "--stream", str(two_fps_scene / "stream.jsonl"), "--out", str(built)]) == 0
    graph = read_graph(built)
    broken = dataclasses.replace(graph, temporal_edges=tuple(edit(list(graph.temporal_edges))))
    assert message in validate_graph(broken)
    _assert_each_graph_reader_refuses(broken, two_fps_scene, tmp_path, capsys, message)


def _assert_each_graph_reader_refuses(broken, scene, tmp_path, capsys, message):
    """``query``, ``export`` and ``score`` each refuse ``broken``, written as a file, as one ``graph: {message}``."""
    path = tmp_path / "graph.json"
    write_graph(broken, path)
    command = tmp_path / "command.json"
    write_command_file(scene / "scenario.json", command)
    truth, scenario = scene / "truth.json", scene / "scenario.json"
    capsys.readouterr()
    for argv in (
        ["query", "--graph", path, "--command", command],
        ["export", "--graph", path, "--command", command],
        ["score", "--graph", path, "--truth", truth, "--scenario", scenario],
    ):
        assert cli_main([str(a) for a in argv]) == 1
        out, err = capsys.readouterr()
        (line,) = err.splitlines()
        assert out == "" and json.loads(line) == {"error": "format-error", "message": f"graph: {message}"}


@pytest.fixture(scope="module")
def delayed_scenes(tmp_path_factory):
    """The occlusion_after_command and same_class_distractor scenes (seed 0, delay 1.0), through ``cli_main``."""
    d = tmp_path_factory.mktemp("delayed")
    for family in ("occlusion_after_command", "same_class_distractor"):
        scene = ["--family", family, "--seed", "0", "--delay", "1.0", "--out-dir", str(d / family)]
        assert cli_main(["simulate", *scene]) == 0
    return d


def _first_frames(scene, count):
    """The graph of the scene's first ``count`` frames."""
    _, inputs = parse_stream(scene / "stream.jsonl")
    return ingest_sequence(empty_graph(), inputs[:count], EngineConfig())


def _edge_changed(k, **changes):
    def edit(graph):
        edges = list(graph.temporal_edges)
        edges[k] = dataclasses.replace(edges[k], **changes)
        return dataclasses.replace(graph, temporal_edges=tuple(edges))

    return edit


# Edge 62 of the occlusion graph is its first disappeared edge: track 1 leaves node 58 in frame 21.
# The distractor appears in frame 21 of its scene, so its first 20 frames hold tracks 1 and 2 only.
EDGE_AND_TRACK_ID_FAULTS = {
    "unknown-relation": (
        "occlusion_after_command", 56, _edge_changed(62, relation="teleported"),
        "track 1: temporal_edges[62]: unknown relation 'teleported'",
    ),
    "disappeared-with-destination": (
        "occlusion_after_command", 56, _edge_changed(62, dst_node=58),
        "track 1: temporal_edges[62]: disappeared edge has destination 58",
    ),
    "track-id-not-below-next": (
        "same_class_distractor", 20, lambda graph: dataclasses.replace(graph, next_track_id=1),
        "track 1: id not below next_track_id 1",
    ),
}


@pytest.mark.parametrize("case", EDGE_AND_TRACK_ID_FAULTS)
def test_an_edge_or_track_id_that_breaks_a_rule_is_one_format_error(delayed_scenes, tmp_path, capsys, case):
    family, frames, edit, message = EDGE_AND_TRACK_ID_FAULTS[case]
    scene = delayed_scenes / family
    broken = edit(_first_frames(scene, frames))
    assert message in validate_graph(broken)
    _assert_each_graph_reader_refuses(broken, scene, tmp_path, capsys, message)


def _mug_and_lost_apple(config):
    """Two frames: a mug (track 1) in both, and an apple (track 2) that disappears and retires in the second.

    With a 0.5 s grace period the apple, observed at 1.5 s, is past it at
    2.5 s, so it retires in the frame it disappears in: it keeps its node 2
    and its edges, and has no record.  The edges are track 1's appeared
    edge, track 2's, track 1's same-instance edge and track 2's disappeared
    edge, in that order.
    """
    tight = dataclasses.replace(config, temporal=dataclasses.replace(config.temporal, grace_period=0.5))
    apple = make_detection(x0=110, label="apple", f_img=axis(3))
    both, mug = (make_detection(), apple), (make_detection(),)
    frames = [make_frame_input(1.0, detections=both), make_frame_input(2.0, detections=mug)]
    return ingest_sequence(empty_graph(), frames, tight)


def _without_edge(k):
    def edit(graph):
        edges = tuple(edge for j, edge in enumerate(graph.temporal_edges) if j != k)
        return dataclasses.replace(graph, temporal_edges=edges)

    return edit


def _lost_in_its_own_frame(graph):
    app1, app2, same1, lost2 = graph.temporal_edges
    early = dataclasses.replace(lost2, event_frame=1)  # before track 1's same-instance edge, so in event-frame order
    return dataclasses.replace(graph, temporal_edges=(app1, app2, early, same1))


RETIRED_TRACK_FAULTS = {
    "retired-but-active": (
        lambda graph: dataclasses.replace(graph, tracks=MappingProxyType({})),
        "track 1: no record, but its newest node 3 lies in the newest frame 2",
    ),
    "lost-without-disappeared-edge": (
        _without_edge(3),
        "track 2: no disappeared edge leaves newest node 2, older than the newest frame 2",
    ),
    "disappeared-not-after-source": (
        _lost_in_its_own_frame,
        "track 2: temporal_edges[2]: event frame 1 is not after its source's frame 1",
    ),
    "retired-id-not-below-next": (
        lambda graph: dataclasses.replace(graph, next_track_id=2),
        "track 2: id not below next_track_id 2",
    ),
}


@pytest.mark.parametrize("case", RETIRED_TRACK_FAULTS)
def test_a_track_whose_edges_break_a_status_rule_is_one_format_error(delayed_scenes, config, tmp_path, capsys, case):
    edit, message = RETIRED_TRACK_FAULTS[case]
    graph = _mug_and_lost_apple(config)
    assert list(graph.tracks) == [1] and graph.next_track_id == 3 and validate_graph(graph) == []
    broken = edit(graph)
    assert validate_graph(broken) == [message]
    _assert_each_graph_reader_refuses(broken, delayed_scenes / "same_class_distractor", tmp_path, capsys, message)


def test_an_older_and_a_newer_snapshot_on_one_log_both_validate(delayed_scenes, config):
    scene = delayed_scenes / "same_class_distractor"
    _, inputs = parse_stream(scene / "stream.jsonl")
    older = ingest_sequence(empty_graph(), inputs[:10], config)
    graph = ingest_sequence(older, inputs[10:20], config)
    assert graph.log is older.log
    assert validate_graph(older) == validate_graph(graph) == []


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"image_height": 2**70}, f"image 160x{2**70} is wider or higher than 4096 pixels"),
        ({"noise": NoiseModel(feature_sigma=1e308)}, "noise.feature_sigma 1e+308 is too large: a noisy feature overflowed"),
    ],
    ids=["image-size", "feature-noise"],
)
@pytest.mark.filterwarnings("error")  # the refusal is the only word on it
def test_a_scenario_that_cannot_be_rendered_is_one_json_error(tmp_path, capsys, changes, message):
    path = tmp_path / "scenario.json"
    write_scenario(dataclasses.replace(make_scenario("target_moved"), **changes), path)
    assert cli_main(["simulate", "--scenario", str(path), "--out-dir", str(tmp_path / "run")]) == 1
    out, err = capsys.readouterr()
    (line,) = err.splitlines()
    assert out == "" and json.loads(line) == {"error": "input-rejected", "message": message}
    assert not (tmp_path / "run").exists()


@pytest.fixture(scope="module")
def two_fps_scene(tmp_path_factory):
    """A target_moved scene (seed 0, delay 1.0) at 2 frames per second, through ``cli_main``."""
    d = tmp_path_factory.mktemp("two_fps")
    scene = ["--family", "target_moved", "--seed", "0", "--delay", "1.0", "--frame-rate", "2", "--out-dir", str(d)]
    assert cli_main(["simulate", *scene]) == 0
    return d


def _build_edited(scene, name, edit):
    """Exit status of building the scene's stream after ``edit(header, first frame record)``."""
    header, first, *rest = (scene / "stream.jsonl").read_text().splitlines()
    header, first = json.loads(header), json.loads(first)
    edit(header, first)
    stream = scene / f"{name}.jsonl"  # beside the original, so its depth files resolve
    stream.write_text("\n".join([dumps(header), dumps(first), *rest]) + "\n")
    return cli_main(["build", "--stream", str(stream), "--out", str(scene / f"{name}.graph.json")])


@pytest.mark.parametrize("key, side", [("image_height", 2**70), ("image_width", 4097)], ids=["height", "width"])
def test_a_stream_header_image_side_above_the_limit_is_one_json_error(two_fps_scene, capsys, key, side):
    def edit(header, first):
        header[key] = side
        del first["depth_ref"]  # read as zeros of the header's size

    capsys.readouterr()
    assert _build_edited(two_fps_scene, "large", edit) == 1
    out, err = capsys.readouterr()
    (line,) = err.splitlines()
    message = f"stream {two_fps_scene / 'large.jsonl'} header {key}: expected at most 4096 pixels, got {side}"
    assert out == "" and json.loads(line) == {"error": "format-error", "message": message}


@pytest.mark.filterwarnings("error")  # the refusal is the only word on it
def test_a_detection_feature_whose_norm_overflows_is_refused_naming_the_detection(two_fps_scene, capsys):
    def edit(header, first):
        feature = first["detections"][0]["f_img"]
        feature[:] = [1e200] * len(feature)

    capsys.readouterr()
    assert _build_edited(two_fps_scene, "huge", edit) == 1
    out, err = capsys.readouterr()
    (line,) = err.splitlines()
    assert out == "" and json.loads(line) == {"error": "input-rejected", "message": "detection 0: f_img norm overflows"}


def test_a_graph_file_of_the_previous_schema_is_one_json_error(scored_scene, tmp_path, capsys):
    data = json.loads((scored_scene / "graph.json").read_text())
    data["schema"] = "stovsg-graph/5"  # whose track records stored a status, and stayed once retired
    built = read_graph(scored_scene / "graph.json")
    for record in data["tracks"]:
        record["status"] = "active" if record["track_id"] in built.active else "disappeared"
    graph = tmp_path / "graph.json"
    graph.write_text(dumps(data) + "\n")
    command = tmp_path / "command.json"
    write_command_file(scored_scene / "scenario.json", command)
    capsys.readouterr()
    for subcommand in ("query", "export"):
        assert cli_main([subcommand, "--graph", str(graph), "--command", str(command)]) == 1
        out, err = capsys.readouterr()
        (line,) = err.splitlines()
        message = "graph: expected schema 'stovsg-graph/6', got 'stovsg-graph/5'"
        assert out == "" and json.loads(line) == {"error": "format-error", "message": message}


def test_a_slice_of_the_cli_manifest_sequence_repeats_byte_for_byte(tmp_path):
    one_scene = {"families": ("target_moved",), "seeds": (0,), "replay": ("--delays", "1.0", "--trials", "1")}
    for run in ("first", "second"):
        run_sequence(tmp_path / run, **one_scene)
    manifest = (tmp_path / "first" / "MANIFEST.sha256").read_text()
    assert manifest == (tmp_path / "second" / "MANIFEST.sha256").read_text()
    assert "  target_moved-0/graph.json\n" in manifest and "  log.jsonl\n" in manifest
    log = [json.loads(line) for line in (tmp_path / "first" / "log.jsonl").read_text().splitlines()]
    refused = [record for record in log if record["exit"] != 0]
    assert len(log) == 41 and len(refused) == 8  # each --as-of 0.01 cutoff is before every frame
    assert all(json.loads(record["stderr"])["error"] == "no-aligned-frame" for record in refused)


# SHA-256 of (the --out file, the printed text) of each run below: the bytes `score` and `replay` report
PINNED_SCORE_AND_REPLAY = {
    "score": ("750ef247b23db95cf0cc9c4d28203e05379f131cabbabbf2a51f017982efbcb4",) * 2,
    "score-naive": ("bad025548348b56163a288bdb46ad352e77825068e6720468d39d19694b6123e",) * 2,
    "replay": (
        "d90608e5c782710390c0227ba8707d32bd667aeb6775c91e11787666e5827854",
        "a7a596fcf1d8a79df7f2cfabccc54839e9690e539efd7910d1002ffb23b32c3d",
    ),
    "replay-naive": (
        "0c0dfb98d473418f0c2b5e2c1f69d7a6084f34749b3e75c4241ae58c233a5440",
        "7fd0fb6fe326bee9a4b58c3aca3b30cdb81158deb20ae7d7d9e918e62c4dcaf8",
    ),
}


def test_score_and_replay_outputs_are_pinned_byte_for_byte(scored_scene, tmp_path, capsys):
    files = [f"--{name}={scored_scene / name}.json" for name in ("graph", "truth", "scenario")]
    tight = tmp_path / "tight.json"  # a 1 mm tolerance: fractional node accuracy, and replay apart from ground
    save_config(dataclasses.replace(EngineConfig(), centroid_tol=0.001), tight)
    sweep = ["replay", "--config", str(tight), "--families", "target_moved,occlusion_after_command"]
    sweep += ["--delays", "0.5,2.0", "--trials", "2"]
    runs = {"score": ["score", *files], "score-naive": ["score", *files, "--naive"],
            "replay": sweep, "replay-naive": [*sweep, "--naive"]}
    capsys.readouterr()
    digests = {}
    for name, argv in runs.items():
        out = tmp_path / f"{name}.json"
        assert cli_main([*argv, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        digests[name] = tuple(hashlib.sha256(data).hexdigest() for data in (out.read_bytes(), printed.encode()))
    assert digests == PINNED_SCORE_AND_REPLAY
