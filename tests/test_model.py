from __future__ import annotations

import json
import math
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stovsg import (
    BoundingBox2D,
    Command,
    EngineConfig,
    FAMILY_TARGET_MOVED,
    InputRejected,
    LatencyTag,
    NotFound,
    PixelMask,
    cosine,
    empty_graph,
    generate_stream,
    ingest_frame,
    ingest_sequence,
    lifecycle_events,
    make_scenario,
    normalize_label,
    read_graph,
    validate_graph,
    write_graph,
)
from stovsg import model
from stovsg.model import feature_problems, freeze_array, label_problems

from conftest import DIM, axis, make_camera, make_detection, make_frame_input, make_node
from oracles import cosine_oracle


def test_normalize_label():
    assert normalize_label("  Red   MUG ") == "red mug"
    assert normalize_label("apple") == "apple"
    assert normalize_label(" \t ") == ""


def test_bounding_box_validity():
    assert BoundingBox2D(0, 0, 1, 1).is_valid()
    assert not BoundingBox2D(1, 0, 1, 2).is_valid()  # zero width
    assert not BoundingBox2D(0, 3, 2, 1).is_valid()
    assert not BoundingBox2D(0, 0, math.nan, 1).is_valid()


def test_pixel_mask_dedup_keeps_first_occurrence_order():
    mask = PixelMask.from_pixels([[3, 1], [1, 1], [3, 1], [2, 0]])
    assert mask.pixels.tolist() == [[3, 1], [1, 1], [2, 0]]
    assert len(mask) == 3


def test_pixel_mask_matches_the_dedup_reference_on_ordered_and_extreme_pixels():
    rng = np.random.default_rng(11)
    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    cases = [np.array([[hi, lo], [lo, hi]]), np.array([[lo, 0], [hi, 0], [lo, 1]]), np.zeros((1, 2))]
    for _ in range(40):
        arr = rng.integers(-3, 4, size=(int(rng.integers(1, 12)), 2))
        ordered = np.unique(arr, axis=0)[:, ::-1]  # unique pixels, ascending in (v, u) order
        cases += [arr, ordered, ordered[::-1]]
    for arr in cases:
        _, first = np.unique(arr, axis=0, return_index=True)
        assert PixelMask.from_pixels(arr).pixels.tolist() == arr[np.sort(first)].tolist()


def test_pixel_mask_bounds_and_shape():
    mask = PixelMask.from_pixels([[0, 0], [4, 3]])
    assert mask.in_bounds(5, 4)
    assert not mask.in_bounds(4, 4)
    assert PixelMask.from_pixels(np.zeros((0, 2))).in_bounds(1, 1)
    with pytest.raises(InputRejected):
        PixelMask.from_pixels([[1, 2, 3]])


def test_cosine_known_values_and_rejections():
    a = np.array([1.0, 0.0])
    b = np.array([1.0, 1.0])
    assert math.isclose(cosine(a, b), 1 / math.sqrt(2), rel_tol=1e-12)
    assert math.isclose(cosine(a, a), 1.0, rel_tol=1e-12)
    with pytest.raises(InputRejected):
        cosine(a, np.zeros(2))
    with pytest.raises(InputRejected):
        cosine(a, np.ones(3))


def test_cosine_self_similarity_never_exceeds_one():
    # normalized vectors can self-dot to 1 + 1ulp; a raw 1 - cos would then
    # go negative and poison downstream non-negative cost matrices
    rng = np.random.default_rng(0)
    for _ in range(300):
        v = rng.standard_normal(16)
        v = v / np.linalg.norm(v)
        assert cosine(v, v) <= 1.0
        assert cosine(v, -v) >= -1.0


@given(st.lists(st.floats(-5, 5), min_size=2, max_size=6), st.integers(0, 10_000))
def test_cosine_is_bounded_and_matches_oracle(values, seed):
    a = np.array(values)
    rng = np.random.default_rng(seed)
    b = rng.uniform(-5, 5, size=len(values))
    if np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
        return
    got = cosine(a, b)
    assert -1.0 <= got <= 1.0  # clamped: rounding must never leak past the bounds
    assert math.isclose(got, cosine_oracle(a, b), rel_tol=1e-12, abs_tol=1e-12)


def test_latency_tag_observed_time():
    tag = LatencyTag(capture_time=5.0, transmission_latency=0.5)
    assert tag.observed_time == 5.5


def test_command_arrival_time():
    cmd = Command(text="go", embedding=axis(0), issue_time=2.0, latency=0.75)
    assert cmd.arrival_time == 2.75


def test_freeze_array_is_read_only():
    arr = freeze_array([1.0, 2.0])
    with pytest.raises(ValueError):
        arr[0] = 3.0


def test_freeze_array_keeps_only_an_array_no_writable_array_can_reach():
    sealed = freeze_array([1.0, 2.0, 3.0, 4.0])
    assert freeze_array(sealed) is sealed
    rows = sealed.reshape(2, 2)  # a view of a read-only owner
    assert freeze_array(rows) is rows
    owner = np.array([1.0, 2.0, 3.0])
    view = owner[:]
    view.setflags(write=False)  # read-only, but its owner is not
    for copied in (owner, view, sealed[::2], sealed.astype(np.float32), rows.T):
        frozen = freeze_array(copied)
        assert frozen is not copied and not np.shares_memory(frozen, copied)
        assert not frozen.flags.writeable and frozen.dtype == np.float64
    assert freeze_array(sealed, dtype=np.float32) is not sealed


def test_a_callers_writable_arrays_are_copied_into_the_node():
    centroid = np.array([1.0, 2.0, 3.0])
    f_txt = axis(0)
    node = make_node(1, centroid=centroid, f_txt=f_txt)
    centroid[0] = 9.0
    f_txt[1] = 5.0
    assert node.centroid.tolist() == [1.0, 2.0, 3.0]
    np.testing.assert_array_equal(node.f_txt, axis(0))


class _CopyCountingNumpy:
    """``numpy`` as ``stovsg.model`` sees it, counting the ndarrays it copies with ``np.array``."""

    def __init__(self):
        self.copies = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def array(self, values, *args, **kwargs):
        self.copies += isinstance(values, np.ndarray)
        return np.array(values, *args, **kwargs)


def test_a_graph_read_back_keeps_the_arrays_its_reader_decoded(config, tmp_path, monkeypatch):
    path = tmp_path / "graph.json"
    write_graph(_two_frame_graph(config), path)
    seen = _CopyCountingNumpy()
    monkeypatch.setattr(model, "np", seen)
    graph = read_graph(path)
    assert seen.copies == 0
    arrays = [a for f in graph.frames for n in f.nodes for a in (n.f_img, n.f_txt, n.centroid, n.size, n.points)]
    arrays += [a for t in graph.tracks.values() for a in (t.centroid, t.descriptor)]
    assert len(arrays) == 2 * 5 + 2
    for arr in arrays:
        assert freeze_array(arr) is arr


def test_camera_violations():
    assert make_camera().violations == ()
    bad_rot = make_camera(rotation=np.eye(3) * 2.0)
    assert any("orthonormal" in v for v in bad_rot.violations)
    bad_focal = make_camera(fx=-1.0)
    assert any("focal" in v for v in bad_focal.violations)


def _two_frame_graph(config):
    frames = [
        make_frame_input(1.0, detections=(make_detection(),)),
        make_frame_input(2.0, detections=(make_detection(),)),
    ]
    return ingest_sequence(empty_graph(), frames, config)


def test_validate_graph_accepts_built_graph(config):
    graph = _two_frame_graph(config)
    assert validate_graph(graph) == []
    assert validate_graph(empty_graph()) == []


def test_validate_graph_flags_duplicate_node_ids(config):
    graph = _two_frame_graph(config)
    f0 = graph.frames[0]
    clone = replace(graph.frames[1], nodes=f0.nodes)
    broken = replace(graph, frames=(f0, clone))
    problems = validate_graph(broken)
    assert any("duplicate node id" in p for p in problems)


def test_validate_graph_flags_non_monotone_capture(config):
    graph = _two_frame_graph(config)
    f0, f1 = graph.frames
    swapped = replace(
        f1, latency_tag=LatencyTag(capture_time=0.5, transmission_latency=0.5)
    )
    problems = validate_graph(replace(graph, frames=(f0, swapped)))
    assert any("capture time" in p for p in problems)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"f_img": np.full(8, np.nan)}, "non-finite f_img"),
        ({"f_txt": np.zeros(8)}, "zero-norm f_txt"),
        ({"f_txt": np.ones(5)}, "f_txt dimension 5 != 8"),
        ({"label": "Red  Mug"}, "label 'Red  Mug' not normalized"),
        ({"centroid": np.zeros(2)}, "bad centroid"),
        ({"size": np.array([0.1, -0.1, 0.0])}, "bad size"),
        ({"points": np.zeros((0, 3))}, "points must be non-empty (N, 3)"),
        ({"points": np.full((2, 3), 5.0)}, "centroid outside point bounds"),
    ],
    ids=["feature", "zero-norm", "dimension", "label", "centroid", "size", "points", "bounds"],
)
def test_validate_graph_flags_each_node_violation(config, change, message):
    graph = _two_frame_graph(config)
    f0, f1 = graph.frames
    broken = replace(f0, nodes=(replace(f0.nodes[0], **change),))
    assert validate_graph(replace(graph, frames=(broken, f1))) == [f"frame 1 node 1: {message}"]


@pytest.mark.parametrize("name", ["f_txt", "f_img"])
def test_validate_graph_flags_a_zero_norm_feature_read_from_a_graph_file(config, tmp_path, name):
    path = tmp_path / "graph.json"
    write_graph(_two_frame_graph(config), path)
    data = json.loads(path.read_text())
    data["frames"][1]["nodes"][0][name] = [0.0] * 8
    path.write_text(json.dumps(data))
    # no command can be scored against it: every cosine with it is undefined
    assert validate_graph(read_graph(path)) == [f"frame 2 node 2: zero-norm {name}"]


@pytest.mark.parametrize(
    "make, rule, warning",
    [
        (lambda dim: np.full(dim, np.nan), "non-finite {name}", None),
        (lambda dim: np.full(dim, np.inf), "non-finite {name}", None),
        (np.zeros, "zero-norm {name}", None),
        (lambda dim: np.full(dim, 1e-200), "zero-norm {name}", None),  # its square underflows
        # finite, but its square is not: NumPy warns of the overflow, and the library lets it
        (lambda dim: np.full(dim, 1e200), "{name} norm overflows", "overflow encountered in dot"),
        (lambda dim: np.ones(dim - 1), "{name} dimension {short} != {dim}", None),
    ],
    ids=["nan", "inf", "zero", "underflow", "overflow", "short"],
)
def test_each_feature_fault_is_refused_by_one_rule_everywhere(config, make, rule, warning):
    with pytest.warns(RuntimeWarning, match=warning) if warning else nullcontext():
        graph = _two_frame_graph(config)
        f0, f1 = graph.frames
        for name in ("f_img", "f_txt"):
            text = rule.format(name=name, short=DIM - 1, dim=DIM)
            assert list(feature_problems(name, make(DIM), DIM)) == [text]
            frame = make_frame_input(3.0, detections=(make_detection(), make_detection(x0=30, **{name: make(DIM)})))
            with pytest.raises(InputRejected) as refused:
                ingest_frame(graph, frame, config)
            assert str(refused.value) == f"detection 1: {text}"
            broken = replace(f1, nodes=(replace(f1.nodes[0], **{name: make(DIM)}),))
            assert validate_graph(replace(graph, frames=(f0, broken))) == [f"frame 2 node 2: {text}"]

        spec = make_scenario(FAMILY_TARGET_MOVED)
        dim = spec.feature_dim
        first, second, third = spec.objects
        for name in ("txt_archetype", "img_archetype"):
            with pytest.raises(InputRejected) as refused:
                replace(spec, objects=(first, replace(second, **{name: make(dim)}), third))
            assert str(refused.value) == f"objects[1]: {rule.format(name=name, short=dim - 1, dim=dim)}"
        with pytest.raises(InputRejected) as refused:
            replace(spec, commands=(replace(spec.commands[0], embedding=make(dim)),))
        assert str(refused.value) == f"commands[0]: {rule.format(name='embedding', short=dim - 1, dim=dim)}"


@pytest.mark.parametrize("label", ["", "   ", " \t\n"])
def test_an_empty_label_is_refused_by_one_rule_everywhere(config, label):
    assert list(label_problems(label)) == ["empty label"]
    graph = _two_frame_graph(config)
    f0, f1 = graph.frames
    frame = make_frame_input(3.0, detections=(make_detection(), make_detection(x0=30, label=label)))
    with pytest.raises(InputRejected) as refused:
        ingest_frame(graph, frame, config)
    assert str(refused.value) == "detection 1: empty label"
    broken = replace(f1, nodes=(replace(f1.nodes[0], label=label),))
    assert validate_graph(replace(graph, frames=(f0, broken))) == ["frame 2 node 2: empty label"]
    spec = make_scenario(FAMILY_TARGET_MOVED)
    with pytest.raises(InputRejected, match="^empty label$"):
        replace(spec.objects[1], label=label)


def test_validate_graph_flags_dangling_temporal_edge(config):
    graph = _two_frame_graph(config)
    edge = replace(graph.temporal_edges[-1], dst_node=999)
    problems = validate_graph(replace(graph, temporal_edges=(graph.temporal_edges[0], edge)))
    assert problems


def test_validate_graph_flags_an_event_frame_that_is_not_stored(config):
    graph = _two_frame_graph(config)
    appeared, same = graph.temporal_edges
    broken = replace(graph, temporal_edges=(replace(appeared, event_frame=7), same))
    assert validate_graph(broken) == [
        "temporal_edges[1].event_frame: 2 is before 7 (temporal edges must be in event-frame order)",
        "track 1: temporal_edges[0]: destination 1 lies in frame 1, not in event frame 7",
    ]
    with pytest.raises(NotFound, match="frame 7"):
        lifecycle_events(broken, 0.0, 10.0)


def test_validate_graph_reports_each_temporal_edge_and_track_id_rule_once(config):
    # edges: track 1 appears at node 1, goes on to node 2, and disappears in frame 3
    graph = ingest_frame(_two_frame_graph(config), make_frame_input(3.0), config)
    for k, changes, message in [
        (2, {"relation": "teleported"}, "track 1: temporal_edges[2]: unknown relation 'teleported'"),
        (0, {"src_node": 2}, "track 1: temporal_edges[0]: appeared edge has source 2"),
        (2, {"dst_node": 2}, "track 1: temporal_edges[2]: disappeared edge has destination 2"),
        (2, {"event_frame": 7}, "track 1: temporal_edges[2]: event frame 7 is not in the graph"),
    ]:
        edges = list(graph.temporal_edges)
        edges[k] = replace(edges[k], **changes)
        assert validate_graph(replace(graph, temporal_edges=tuple(edges))) == [message]
    assert validate_graph(replace(graph, next_track_id=1)) == ["track 1: id not below next_track_id 1"]


def test_graph_lookup_helpers(config):
    graph = _two_frame_graph(config)
    node = graph.frames[0].nodes[0]
    assert graph.node(node.node_id) is node
    assert graph.frame(2) is graph.frames[1]
    with pytest.raises(NotFound):
        graph.node(12345)
    with pytest.raises(NotFound):
        graph.frame(3)


def test_frame_of_is_the_frame_holding_each_node_of_a_graph_read_back(tmp_path):
    inputs, _ = generate_stream(make_scenario("target_moved", {"seed": 0}))
    path = tmp_path / "graph.json"
    write_graph(ingest_sequence(empty_graph(), inputs, EngineConfig()), path)
    graph = read_graph(path)
    assert sum(len(fg.nodes) for fg in graph.frames) > len(graph.frames) > 1
    for fg in graph.frames:
        for node in fg.nodes:
            assert graph.frame_of(node.node_id) is fg
    for edge in graph.temporal_edges:  # an edge with a destination happens in the destination's frame
        want = None if edge.dst_node is None else graph.frame_of(edge.dst_node).frame_index
        assert edge.dst_frame == want and (want is None or want == edge.event_frame)
    with pytest.raises(NotFound, match="node 12345 not in graph"):
        graph.frame_of(12345)
    # an older snapshot on the same log does not hold the newer frames' nodes
    older = ingest_sequence(empty_graph(), inputs[:3], EngineConfig())
    newer = ingest_frame(older, inputs[3], EngineConfig())
    assert newer.log is older.log
    (newest_id, *_) = (node.node_id for node in newer.frames[3].nodes)
    assert newer.frame_of(newest_id) is newer.frames[3]
    with pytest.raises(NotFound, match=f"node {newest_id} not in graph"):
        older.frame_of(newest_id)
