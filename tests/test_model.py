from __future__ import annotations

import dataclasses
import json
import math
import re
from contextlib import nullcontext
from dataclasses import replace
from types import MappingProxyType

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
    SceneGraph4D,
    Track,
    associate,
    commands_from_scenario,
    cosine,
    empty_graph,
    ground_command,
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
from stovsg.model import SpatialEdge, chain_problems, feature_problems, freeze_array, label_problems

from conftest import DIM, axis, make_camera, make_detection, make_frame_input, make_node
from oracles import cosine_oracle


def test_normalize_label():
    assert normalize_label("  Red   MUG ") == "red mug"
    assert normalize_label("apple") == "apple"
    assert normalize_label(" \t ") == ""


def test_bounding_box_validity():
    box = BoundingBox2D(0, 0, 1, 1)
    for bad in [(1, 0, 1, 2), (0, 3, 2, 1), (0, 0, math.nan, 1)]:  # zero width, inverted, NaN
        with pytest.raises(InputRejected, match=f"^{re.escape(f'invalid box {bad}')}$"):
            BoundingBox2D(*bad)
    with pytest.raises(InputRejected, match=r"^invalid box \(0, 0, 0.0, 1\)$"):  # also under replace
        replace(box, x_max=0.0)


@pytest.mark.parametrize("edge", [math.nan, math.inf, -math.inf, 0.0, 1.0, 2.0])
@pytest.mark.parametrize("k", range(4))
def test_box_validity_is_finite_edges_with_each_min_below_its_max(k, edge):
    # 0.0 and 1.0 make a min equal to its max; 2.0 puts a min above it
    values = [0.0, 0.0, 1.0, 1.0]
    values[k] = edge
    finite_rule = all(math.isfinite(v) for v in values) and values[0] < values[2] and values[1] < values[3]
    with nullcontext() if finite_rule else pytest.raises(InputRejected, match=r"^invalid box \("):
        assert BoundingBox2D(*values).as_tuple() == tuple(values)


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
    arrays += [t.descriptor for t in graph.tracks.values()]
    assert len(arrays) == 2 * 5 + 1
    for arr in arrays:
        assert freeze_array(arr) is arr


def test_a_track_with_no_node_in_the_snapshot_is_not_found(config):
    built = SceneGraph4D(tracks=MappingProxyType({1: Track(1, axis(1))}), next_track_id=2)
    for graph, track_id in ((built, 1), (built, 7), (empty_graph(), 1)):
        with pytest.raises(NotFound, match=rf"^'track {track_id} has no node in graph'$"):
            graph.newest_node(track_id)
    with pytest.raises(NotFound, match="^'track 1 has no node in graph'$"):
        associate(built, [make_node(5)], config.temporal, now=0.0)
    # a track a newer snapshot opened on the shared log has no node in the older one
    older = ingest_frame(empty_graph(), make_frame_input(1.0, detections=(make_detection(),)), config)
    apple = make_detection(x0=110, label="apple", f_img=axis(3))
    newer = ingest_frame(older, make_frame_input(2.0, detections=(apple,)), config)
    assert newer.log is older.log and newer.newest_node(2).label == "apple"
    with pytest.raises(NotFound, match="^'track 2 has no node in graph'$"):
        older.newest_node(2)


def test_camera_violations():
    camera = make_camera()
    with pytest.raises(InputRejected, match="orthonormal"):
        make_camera(rotation=np.eye(3) * 2.0)
    with pytest.raises(InputRejected, match=r"^camera focal lengths must be positive \(fx=-1.0, fy=100.0\)$"):
        make_camera(fx=-1.0)
    with pytest.raises(InputRejected, match="focal"):  # also under replace
        replace(camera, fy=0.0)


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
    "descriptor, problem, built",
    [(np.zeros(16), "zero-norm descriptor", True), (np.ones(8), "descriptor dimension 8 != 16", False)],
    ids=["zero-norm", "dimension"],
)
def test_validate_graph_names_a_live_track_whose_descriptor_no_frame_could_match(config, descriptor, problem, built):
    inputs, _ = generate_stream(make_scenario(FAMILY_TARGET_MOVED, {"seed": 0}))
    graph = ingest_sequence(empty_graph(), inputs[:5], config)
    track_id = min(graph.tracks)
    if built:  # a descriptor no frame of any dimension could match: the track refuses it when built
        with pytest.raises(InputRejected, match=f"^{problem}$"):
            Track(track_id, descriptor)
        return
    broken = replace(graph, tracks=MappingProxyType({**graph.tracks, track_id: Track(track_id, descriptor)}))
    assert validate_graph(broken) == [f"track {track_id}: {problem}"]
    with pytest.raises(InputRejected, match=f"^track {track_id}: {problem}$"):  # the next ingest names the track
        ingest_frame(broken, inputs[5], config)


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
            # the detection refuses a fault of any dimension when built; ingest, one of the graph's dimension
            with pytest.raises(InputRejected) as refused:
                bad = make_detection(x0=30, **{name: make(DIM)})
                ingest_frame(graph, make_frame_input(3.0, detections=(make_detection(), bad)), config)
            assert str(refused.value) == (f"detection 1: {text}" if "dimension" in text else text)
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
    with pytest.raises(InputRejected, match="^empty label$"):  # when the detection is built
        make_detection(x0=30, label=label)
    broken = replace(f1, nodes=(replace(f1.nodes[0], label=label),))
    assert validate_graph(replace(graph, frames=(f0, broken))) == ["frame 2 node 2: empty label"]
    spec = make_scenario(FAMILY_TARGET_MOVED)
    with pytest.raises(InputRejected, match="^empty label$"):
        replace(spec.objects[1], label=label)


@pytest.mark.parametrize(
    "src, dst, message",
    [(1, 1, "frame 1 edge 1->1: self loop"), (1, 2, "frame 1 edge 1->2: endpoint not in frame")],
    ids=["self-loop", "other-frame"],
)
def test_validate_graph_flags_a_spatial_edge_that_leaves_its_frame_or_loops(config, src, dst, message):
    graph = _two_frame_graph(config)
    f0, f1 = graph.frames
    broken = replace(f0, spatial_edges=(SpatialEdge(src, dst, "near", 0.5),))
    assert validate_graph(replace(graph, frames=(broken, f1))) == [message]


def test_a_track_record_without_edges_has_no_appeared_edge(config):
    graph = _two_frame_graph(config)
    record = Track(2, graph.tracks[1].descriptor)
    broken = replace(graph, tracks=MappingProxyType({**graph.tracks, 2: record}), next_track_id=3)
    assert list(chain_problems(broken)) == [(2, "no appeared edge")]
    assert validate_graph(broken) == ["track 2: no appeared edge"]


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
    lost = "track 1: no disappeared edge leaves newest node 2, older than the newest frame 3"
    for k, changes, messages in [
        # an edge of no known relation is not the disappeared edge the track needs
        (2, {"relation": "teleported"}, ["track 1: temporal_edges[2]: unknown relation 'teleported'", lost]),
        (0, {"src_node": 2}, ["track 1: temporal_edges[0]: appeared edge has source 2"]),
        (2, {"dst_node": 2}, ["track 1: temporal_edges[2]: disappeared edge has destination 2"]),
        (2, {"event_frame": 7}, ["track 1: temporal_edges[2]: event frame 7 is not in the graph"]),
    ]:
        edges = list(graph.temporal_edges)
        edges[k] = replace(edges[k], **changes)
        assert validate_graph(replace(graph, temporal_edges=tuple(edges))) == messages
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


# --- records that refuse their own bad values when built ------------------------------------


def _nan_rotation() -> np.ndarray:
    rotation = np.eye(3)
    rotation[0, 1] = math.nan
    return rotation


# (record, field, bad value, message); each rule is written so that NaN fails it
_RECORD_FAULTS = [
    ("box", "x_max", 0.0, "invalid box (0.0, 0.0, 0.0, 4.0)"),
    ("box", "y_min", math.nan, "invalid box (0.0, nan, 4.0, 4.0)"),
    ("box", "x_max", math.inf, "invalid box (0.0, 0.0, inf, 4.0)"),
    ("camera", "fx", 0.0, "camera focal lengths must be positive (fx=0.0, fy=100.0)"),
    ("camera", "fy", math.inf, "camera intrinsics must be finite (fx=100.0, fy=inf, cx=64.0, cy=48.0)"),
    ("camera", "cx", math.nan, "camera intrinsics must be finite (fx=100.0, fy=100.0, cx=nan, cy=48.0)"),
    ("camera", "rotation", _nan_rotation(), "camera rotation not orthonormal (|R^T R - I| = nan)"),
    ("camera", "rotation", np.eye(2), "camera rotation must be 3x3, got (2, 2)"),
    ("camera", "translation", [0.0, 0.0, math.inf], "camera translation must be finite, got [0.0, 0.0, inf]"),
    ("camera", "translation", np.zeros(2), "camera translation must be length 3, got (2,)"),
    ("detection", "mask", PixelMask.from_pixels([]), "empty mask"),
    ("detection", "f_img", np.zeros(DIM), "zero-norm f_img"),
    ("detection", "f_txt", np.full(DIM, math.nan), "non-finite f_txt"),
    ("detection", "f_img", np.ones((2, DIM)), "feature vector must be 1-D, got shape (2, 8)"),
    ("detection", "label", " \t", "empty label"),
    ("tag", "capture_time", math.inf, "capture_time inf is not finite"),
    ("tag", "capture_time", math.nan, "capture_time nan is not finite"),
    ("tag", "transmission_latency", -0.25, "transmission_latency -0.25 is negative or not finite"),
    ("tag", "transmission_latency", math.inf, "transmission_latency inf is negative or not finite"),
    ("track", "descriptor", np.zeros(DIM), "zero-norm descriptor"),
    ("track", "descriptor", np.full(DIM, -math.inf), "non-finite descriptor"),
    ("command", "embedding", np.full(DIM, math.nan), "non-finite embedding"),
    ("command", "embedding", np.full(DIM, 1e-200), "zero-norm embedding"),
    ("command", "issue_time", math.nan, "issue_time nan is not finite"),
    ("command", "latency", -0.5, "latency -0.5 is negative or not finite"),
    ("command", "latency", math.inf, "latency inf is negative or not finite"),
]


def _valid(record: str):
    return {
        "box": lambda: BoundingBox2D(0.0, 0.0, 4.0, 4.0),
        "camera": make_camera,
        "detection": make_detection,
        "tag": lambda: LatencyTag(1.0, 0.5),
        "track": lambda: Track(1, axis(1)),
        "command": lambda: Command("pick up the mug", axis(0), 2.0, 0.5),
    }[record]()


@pytest.mark.parametrize("record, key, value, message", _RECORD_FAULTS)
def test_a_record_refuses_a_bad_value_when_built_in_code_and_under_replace(record, key, value, message):
    valid = _valid(record)
    values = {f.name: getattr(valid, f.name) for f in dataclasses.fields(valid) if f.init}
    with pytest.raises(InputRejected, match=f"^{re.escape(message)}$"):
        type(valid)(**{**values, key: value})
    with pytest.raises(InputRejected, match=f"^{re.escape(message)}$"):
        replace(valid, **{key: value})


def test_a_detection_keeps_the_norms_its_check_took():
    det = make_detection(f_img=np.full(DIM, 3.0), f_txt=axis(2))
    assert (det.img_norm, det.txt_norm) == (math.sqrt(9.0 * DIM), 1.0)
    moved = replace(det, f_img=axis(4))  # a replace takes the new feature's norm
    assert moved.img_norm == 1.0 and moved.txt_norm == 1.0


def test_a_command_with_a_nan_embedding_is_refused_rather_than_grounded(config):
    spec = make_scenario(FAMILY_TARGET_MOVED, {"seed": 0})
    inputs, _ = generate_stream(spec)
    graph = ingest_sequence(empty_graph(), inputs, config)
    (command,) = commands_from_scenario(spec)
    assert ground_command(graph, command).score > 0  # the command as the scenario gives it grounds
    with pytest.raises(InputRejected, match="^non-finite embedding$"):
        ground_command(graph, replace(command, embedding=np.full(spec.feature_dim, math.nan)))


def test_a_frame_captured_at_infinity_is_refused_before_a_graph_or_file_holds_it(config, tmp_path):
    with pytest.raises(InputRejected, match="^capture_time inf is not finite$"):
        frame = make_frame_input(math.inf, latency=0.1, detections=(make_detection(),))
        write_graph(ingest_frame(empty_graph(), frame, config), tmp_path / "graph.json")
    assert not (tmp_path / "graph.json").exists()


def test_a_camera_whose_rotation_holds_a_nan_is_refused_in_its_own_words(config):
    with pytest.raises(InputRejected, match=r"^camera rotation not orthonormal \(\|R\^T R - I\| = nan\)$"):
        camera = make_camera(rotation=_nan_rotation())
        ingest_frame(empty_graph(), make_frame_input(1.0, detections=(make_detection(),), camera=camera), config)


def test_validate_graph_allows_a_centroid_off_its_points_bounds_by_rounding_only(config):
    # a camera 1e300 m away: the mean of equal coordinates is rounded once, one unit in the last place off
    frame = make_frame_input(1.0, detections=(make_detection(),), camera=make_camera(translation=[1e300, 0.0, 0.0]))
    graph = ingest_frame(empty_graph(), frame, config)
    (node,) = graph.frames[0].nodes
    assert node.centroid[0] > node.points[:, 0].max() and validate_graph(graph) == []
    moved = replace(node, centroid=node.centroid + np.array([1e292, 0.0, 0.0]))  # beyond 1e-9 of its magnitude
    broken = replace(graph, frames=(replace(graph.frames[0], nodes=(moved,)),))
    assert validate_graph(broken) == ["frame 1 node 1: centroid outside point bounds"]
