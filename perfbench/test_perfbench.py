"""Tests of the benchmark's own code: every check must reject a wrong answer.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import stovsg as S  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import scenes  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from quantiles import percentile, spread  # noqa: E402


@pytest.fixture(scope="module")
def built():
    """A distractor episode, ingested, with its truth and one grounded command."""
    spec = S.make_scenario(S.FAMILY_DISTRACTOR, {"seed": 5, "delay": 0.5, "noise": scenes.replay_noise()})
    inputs, truth = S.generate_stream(spec)
    cfg = S.EngineConfig()
    graph = S.ingest_sequence(S.empty_graph(), inputs, cfg)
    command = S.commands_from_scenario(spec)[0]
    arrival = truth.commands[0].arrival_time
    result = S.ground_command(graph, command, cfg.query, as_of=arrival)
    text = S.serialize_subgraph(S.extract_subgraph(graph, command, cfg.query, as_of=arrival))
    return graph, truth, command, result, text


# --- percentiles -----------------------------------------------------------


def test_percentile_is_nearest_rank():
    assert percentile(list(range(100)), 90) == 89
    assert percentile(list(range(200, 0, -1)), 50) == 100


def test_percentile_refuses_a_tail_of_fewer_than_ten_samples():
    with pytest.raises(ValueError):
        percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        percentile(list(range(1000)), 99.5)


def test_spread_is_iqr_over_median():
    mid, q1, q3, share = spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert mid == 3.0 and q1 < mid < q3
    assert share == pytest.approx((q3 - q1) / 3.0)


def test_scale_follows_the_battery_readings_near_each_interval():
    ref = calibrate.REFERENCE_MS
    scale = calibrate.Scale([0.0, 0.5, 10.0, 10.5], [ref, ref, 2 * ref, 2 * ref])
    assert scale(0.2, 0.3) == 1.0
    assert scale(10.1, 10.2) == 0.5
    assert scale(5.0, 5.1) == pytest.approx(2 / 3)  # no reading nearby: the median of all
    with pytest.raises(ValueError):
        calibrate.Scale([], [])


def test_battery_is_timed_with_the_collector_restored():
    import gc

    assert calibrate.battery_ms() > 0 and gc.isenabled()


# --- checks against truth ----------------------------------------------------


def test_frames_of_a_correct_graph_pass(built):
    graph, truth, *_ = built
    assert checks.frame_problems(graph, truth, 0.05) == {}


def test_swapped_identity_is_caught(built):
    graph, truth, *_ = built
    mapping = S.node_truth_map(graph, truth)
    k, edge = next(
        (k, e) for k, e in enumerate(graph.temporal_edges) if e.relation == S.SAME_INSTANCE
    )
    frame = graph.frame(edge.dst_frame)
    other = next(n for n in frame.nodes if mapping[n.node_id].true_id != mapping[edge.dst_node].true_id)
    edges = list(graph.temporal_edges)
    edges[k] = replace(edge, dst_node=other.node_id)
    swapped = replace(graph, temporal_edges=tuple(edges))
    assert edge.dst_frame in checks.frame_problems(swapped, truth, 0.05)


def test_misplaced_or_mislabelled_node_is_caught(built):
    graph, truth, *_ = built
    frame = graph.frames[3]
    node = frame.nodes[0]
    for bad in (replace(node, centroid=node.centroid + 0.2), replace(node, label="blue bowl")):
        frames = list(graph.frames)
        frames[3] = replace(frame, nodes=(bad,) + frame.nodes[1:])
        assert frame.frame_index in checks.frame_problems(replace(graph, frames=tuple(frames)), truth, 0.05)


def test_grounding_on_the_wrong_object_is_caught(built):
    graph, truth, _, result, _ = built
    mapping = S.node_truth_map(graph, truth)
    intended = truth.commands[0].intended_id
    assert checks.grounding_problems(result, mapping, intended) == []
    assert checks.grounding_problems(result, mapping, intended + 1)
    assert checks.naive_problems(result, mapping, intended)
    assert checks.naive_problems(result, mapping, intended + 1) == []


# --- checks of method properties -------------------------------------------


def test_canonical_closed_subgraph_passes(built):
    *_, result, text = built
    assert checks.subgraph_problems(text, result.aligned_node.node_id) == []


def test_subgraph_anchored_elsewhere_is_caught(built):
    *_, result, text = built
    assert checks.subgraph_problems(text, result.aligned_node.node_id + 1000)


def test_non_canonical_subgraph_text_is_caught(built):
    *_, result, text = built
    assert checks.subgraph_problems(text.replace(",", ", ", 1), result.aligned_node.node_id)
    payload = S.parse_subgraph(text)
    payload["aligned_frame_time"] = 1.0 / 3.0
    full_precision = S.dumps(payload)
    assert checks.subgraph_problems(full_precision, result.aligned_node.node_id)


def test_open_subgraph_is_caught(built):
    *_, result, text = built
    payload = S.parse_subgraph(text)
    payload["nodes"][0]["spatial_relations"].append({"relation": "near", "subject": -1, "object": -2})
    assert any("leaves" in p for p in checks.subgraph_problems(S.serialize_subgraph(payload), result.aligned_node.node_id))


def test_graph_round_trip_that_changes_bytes_is_caught(built, tmp_path):
    graph = built[0]
    path = tmp_path / "graph.json"
    S.write_graph(graph, path)
    written = path.read_text()
    assert checks.graph_io_problems(written, S.read_graph(path)) == []
    changed = written.replace('"frames_dropped":0', '"frames_dropped":0.0')
    assert changed != written
    assert checks.graph_io_problems(changed, S.read_graph(path))


def test_invalid_graph_read_back_is_caught(built):
    graph = built[0]
    written = S.dumps(S.graph_to_dict(graph)) + "\n"
    broken = replace(graph, next_track_id=1)
    assert checks.graph_io_problems(written, broken)


def test_replayed_answer_must_match_live_answer(built):
    *_, result, text = built
    assert checks.same_answer_problems((result, text), (result, text)) == []
    assert checks.same_answer_problems((result, text), (result, text + " "))
    moved = replace(result, current_node=result.aligned_node, status=S.STATUS_LOST)
    assert checks.same_answer_problems((result, text), (moved, text))


def test_assignment_must_reach_the_optimum():
    cost = np.array([[1.0, 0.0, 5.0], [0.0, 1.0, 5.0]])
    assert checks.assignment_problems(cost, S.min_cost_assignment(cost)) == []
    assert checks.assignment_problems(cost, [(0, 0), (1, 1)])
    assert checks.assignment_problems(cost, [(0, 1)])


# --- tracing ----------------------------------------------------------------


def test_self_time_is_span_minus_children():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    calls, total, self_s = tracer.stats["outer"]
    assert calls == 1 and tracer.calls("inner") == 3
    assert self_s == pytest.approx(total - tracer.stats["inner"][1], abs=1e-12)
    names = [span[3] for span in tracer.spans]
    assert names == ["inner", "inner", "inner", "outer"]
    roots = {span[2] for span in tracer.spans}
    assert len(roots) == 1


def test_paused_work_is_not_charged_to_spans():
    tracer = spans.Tracer()

    def slow_check(t, result, args):
        sum(range(300000))

    fast = tracer.wrap("fast", lambda: None, slow_check)
    outer = tracer.wrap("outer", fast)
    outer()
    assert tracer.stats["outer"][1] < 0.002


def test_instrument_catches_engine_calls_and_restores(built):
    spec = S.make_scenario(S.FAMILY_OCCLUSION, {"seed": 1, "delay": 0.25})
    inputs, _ = S.generate_stream(spec)
    before = S.store.lift_mask
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        S.ingest_sequence(S.empty_graph(), inputs[:5], S.EngineConfig())
    assert S.store.lift_mask is before and S.geometry.lift_mask is before
    assert tracer.calls("store.ingest_frame") == 5
    assert tracer.calls("geometry.lift_mask") == sum(len(f.detections) for f in inputs[:5])
    assert tracer.calls("assignment.min_cost_assignment") >= 4
    assert tracer.counts["model.node_lookups"] > 0 and tracer.calls("model.node_index") > 0
    assert tracer.problems == []
    S.ingest_sequence(S.empty_graph(), inputs[:2], S.EngineConfig())
    assert tracer.calls("store.ingest_frame") == 5


# --- scenes and a whole round ------------------------------------------------


def test_dense_scene_boxes_never_overlap():
    inputs, _ = S.generate_stream(scenes.dense_scene_spec(3, frames=12, commands=5))
    for frame in inputs:
        boxes = [d.box for d in frame.detections]
        assert len(boxes) >= 40
        for i, a in enumerate(boxes):
            for b in boxes[i + 1 :]:
                assert S.iou(a, b) == 0.0


def test_scenes_are_a_function_of_the_seed():
    a, b, c = (scenes.long_stream_spec(s, frames=50, commands=5) for s in (7, 7, 8))
    assert [x.issue_time for x in a.commands] == [x.issue_time for x in b.commands]
    assert [x.intended_id for x in a.commands] == [x.intended_id for x in b.commands]
    assert a.seed == b.seed != c.seed


def _small_long_stream(frames: int, commands: int):
    def build(seed):
        spec = scenes.long_stream_spec(seed, frames=frames, commands=commands)
        inputs, truth = S.generate_stream(spec)
        return scenes.StreamScene(spec, inputs, truth, S.commands_from_scenario(spec))

    return build


def test_small_long_stream_round_passes_every_check(tmp_path):
    wl = workloads.StreamWorkload("long_stream", 4, tmp_path, _small_long_stream(300, 20))
    wl.set_up(workloads.Samples())
    samples = workloads.Samples()
    for _ in range(2):
        wl.check(wl.play(samples, workloads._clock), samples)
    assert samples.failed == 0, samples.problems
    assert samples.attempted == 2 * (300 + 20 + 1)
    assert len(samples.ground_ms) == len(samples.export_ms) == 40


def test_every_graph_write_read_pair_is_an_attempted_operation(tmp_path):
    wl = workloads.StreamWorkload("long_stream", 4, tmp_path, _small_long_stream(60, 4), io_repeats=2)
    wl.set_up(workloads.Samples())
    samples = workloads.Samples()
    wl.check(wl.play(samples, workloads._clock), samples)
    assert samples.failed == 0, samples.problems
    assert samples.attempted == 60 + 4 + 2
    assert len(samples.write_ms) == len(samples.read_ms) == 2


def test_a_round_that_differs_from_the_first_is_caught(tmp_path):
    wl = workloads.StreamWorkload("long_stream", 4, tmp_path, _small_long_stream(60, 4))
    wl.set_up(workloads.Samples())
    samples = workloads.Samples()
    wl.check(wl.play(samples, workloads._clock), samples)
    played = wl.play(samples, workloads._clock)
    command, truth, (result, text), naive = played[0].answers[1]
    played[0].answers[1] = (command, truth, (result, text.replace("0", "1", 1)), naive)
    wl.check(played, samples)
    assert samples.failed == 1
