from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from stovsg import sim
from stovsg import (
    CameraModel,
    EngineConfig,
    FAMILIES,
    FAMILY_DISTRACTOR,
    FAMILY_MOVED_REFERENCE,
    FAMILY_OCCLUSION,
    FAMILY_TARGET_MOVED,
    InputRejected,
    LatencyProfile,
    NoiseModel,
    ScenarioSpec,
    SimObject,
    evaluate,
    generate_stream,
    make_random_scenario,
    make_scenario,
    noise_preset,
)

from conftest import ingested


def simple_object(**overrides) -> SimObject:
    args = dict(
        true_id=1,
        label="red mug",
        size=(0.1, 0.1, 0.1),
        txt_archetype=np.eye(8)[0],
        img_archetype=np.eye(8)[1],
        waypoints=((0.0, np.zeros(3)),),
    )
    args.update(overrides)
    return SimObject(**args)


def test_position_interpolates_and_duplicate_times_step():
    obj = simple_object(
        waypoints=(
            (0.0, np.array([0.0, 0.0, 0.0])),
            (1.0, np.array([1.0, 0.0, 0.0])),
            (1.0, np.array([5.0, 0.0, 0.0])),  # instantaneous jump
            (2.0, np.array([6.0, 0.0, 0.0])),
        )
    )
    np.testing.assert_allclose(obj.position_at(-1.0), [0.0, 0.0, 0.0])
    np.testing.assert_allclose(obj.position_at(0.5), [0.5, 0.0, 0.0])
    np.testing.assert_allclose(obj.position_at(0.999), [0.999, 0.0, 0.0])
    np.testing.assert_allclose(obj.position_at(1.0), [5.0, 0.0, 0.0])  # post-jump
    np.testing.assert_allclose(obj.position_at(1.5), [5.5, 0.0, 0.0])
    np.testing.assert_allclose(obj.position_at(9.0), [6.0, 0.0, 0.0])


def test_visibility_intervals_are_half_open():
    obj = simple_object(visibility=((0.0, 2.0), (3.0, math.inf)))
    assert obj.visible_at(0.0)
    assert obj.visible_at(1.999)
    assert not obj.visible_at(2.0)
    assert not obj.visible_at(2.5)
    assert obj.visible_at(3.0)
    assert obj.visible_at(1e9)


def test_noise_preset_scales_one_dial():
    assert noise_preset(0.0) == NoiseModel()
    half = noise_preset(0.5)
    assert half.centroid_sigma == pytest.approx(0.01)
    assert half.feature_sigma == pytest.approx(0.04)
    assert half.dropout_prob == pytest.approx(0.05)
    assert half.label_flip_prob == pytest.approx(0.025)
    for bad in (-0.1, 1.0001):
        with pytest.raises(InputRejected):
            noise_preset(bad)


def test_latency_profile_is_piecewise_constant():
    profile = LatencyProfile(steps=((0.0, 0.5), (10.0, 2.0), (20.0, 0.25)))
    assert profile.delay_at(-5.0) == 0.5  # before the first step: first value
    assert profile.delay_at(5.0) == 0.5
    assert profile.delay_at(10.0) == 2.0
    assert profile.delay_at(15.0) == 2.0
    assert profile.delay_at(25.0) == 0.25
    with pytest.raises(InputRejected):
        LatencyProfile(steps=()).delay_at(0.0)
    with pytest.raises(InputRejected):
        LatencyProfile(steps=((0.0, -1.0),)).delay_at(0.0)
    # unsorted, the first would read delay_at(3) == 1.0 and delay_at(6) == 9.0
    for steps in (((0.0, 1.0), (5.0, 3.0), (2.0, 9.0)), ((1.0, 1.0), (math.nan, 2.0))):
        with pytest.raises(InputRejected, match="ascending from_time order"):
            LatencyProfile(steps=steps)
    assert LatencyProfile(steps=((0.0, 1.0), (2.0, 2.0), (2.0, 3.0))).delay_at(2.0) == 3.0


def test_stream_is_deterministic():
    spec = make_scenario(FAMILY_TARGET_MOVED, {"seed": 9, "noise": noise_preset(0.6)})
    inputs_a, truth_a = generate_stream(spec)
    inputs_b, truth_b = generate_stream(spec)
    assert len(inputs_a) == len(inputs_b)
    for fa, fb in zip(inputs_a, inputs_b):
        assert fa.latency_tag == fb.latency_tag
        assert len(fa.detections) == len(fb.detections)
        np.testing.assert_array_equal(fa.depth.values, fb.depth.values)
        for da, db in zip(fa.detections, fb.detections):
            assert da.box.as_tuple() == db.box.as_tuple()
            np.testing.assert_array_equal(da.f_img, db.f_img)
            np.testing.assert_array_equal(da.f_txt, db.f_txt)
    for ta, tb in zip(truth_a.frames, truth_b.frames):
        assert [d.true_id for d in ta.detections] == [d.true_id for d in tb.detections]


def test_stream_runs_on_the_frame_grid():
    spec = make_random_scenario(3)
    inputs, truth = generate_stream(spec)
    assert len(inputs) == int(spec.duration * spec.frame_rate)
    for k, (frame_input, frame_truth) in enumerate(zip(inputs, truth.frames), start=1):
        assert frame_input.latency_tag.capture_time == pytest.approx(k / spec.frame_rate)
        assert frame_input.latency_tag.transmission_latency == spec.uplink.delay_at(
            frame_input.latency_tag.capture_time
        )
        assert frame_truth.frame_index == k
        assert frame_truth.capture_time == frame_input.latency_tag.capture_time


def test_truth_stays_aligned_with_detections():
    for seed in range(12):
        spec = make_random_scenario(seed)
        inputs, truth = generate_stream(spec)
        declared = {obj.true_id for obj in spec.objects}
        for frame_input, frame_truth in zip(inputs, truth.frames):
            assert len(frame_input.detections) == len(frame_truth.detections)
            for det, det_truth in zip(frame_input.detections, frame_truth.detections):
                assert det_truth.true_id in declared
                box = det.box
                assert 0.0 <= box.x_min < box.x_max <= spec.image_width
                assert 0.0 <= box.y_min < box.y_max <= spec.image_height
                pixels = det.mask.pixels
                assert len(pixels) > 0
                assert (pixels[:, 0] >= 0).all() and (pixels[:, 0] < spec.image_width).all()
                assert (pixels[:, 1] >= 0).all() and (pixels[:, 1] < spec.image_height).all()
                depths = frame_input.depth.values[pixels[:, 1], pixels[:, 0]]
                assert (depths > 0).all()


@pytest.mark.parametrize("family", FAMILIES)
def test_families_put_their_defining_event_inside_the_latency_window(family):
    for delay in (0.25, 0.5, 1.0, 2.0, 5.0):
        spec = make_scenario(family, {"delay": delay})
        (command,) = spec.commands
        issue = command.issue_time
        arrival = issue + spec.downlink.delay_at(issue)
        objects = {obj.true_id: obj for obj in spec.objects}
        if family == FAMILY_OCCLUSION:
            event = objects[1].visibility[0][1]  # target drops out
        elif family == FAMILY_TARGET_MOVED:
            event = objects[1].waypoints[1][0]  # target jumps
        elif family == FAMILY_DISTRACTOR:
            event = objects[2].visibility[0][0]  # twin appears
        else:
            event = objects[2].waypoints[1][0]  # reference jumps
        assert issue < event < arrival
        assert spec.duration > arrival  # post-arrival footage exists
        # issue lands mid-interval on the frame grid after 1 s of footage
        k0 = round(issue * spec.frame_rate - 0.5)
        assert issue == pytest.approx((k0 + 0.5) / spec.frame_rate)
        assert k0 / spec.frame_rate >= 1.0


def test_moved_reference_relations_flip_sides():
    spec = make_scenario(FAMILY_MOVED_REFERENCE, {"delay": 1.0})
    _, truth = generate_stream(spec)
    assert truth.frames[0].relations == ((1, 2, "near"),)  # phone next to target apple
    assert truth.frames[-1].relations == ((2, 3, "near"),)  # phone next to the other one


def test_command_truth_records_motion():
    spec = make_scenario(FAMILY_TARGET_MOVED, {"delay": 1.0})
    (ct,) = generate_stream(spec)[1].commands
    assert ct.intended_id == 1
    assert ct.arrival_time == pytest.approx(ct.issue_time + 1.0)
    np.testing.assert_allclose(ct.centroid_at_issue, [0.15, 0.05, 1.5])
    np.testing.assert_allclose(ct.centroid_at_arrival, [-0.15, 0.05, 1.5])


def test_scenario_construction_rejections():
    with pytest.raises(InputRejected):
        make_scenario("unheard_of_family")
    with pytest.raises(InputRejected):
        make_scenario(FAMILY_OCCLUSION, {"delay": 0.05})  # no room for the event
    with pytest.raises(InputRejected):
        make_scenario(FAMILY_TARGET_MOVED, {"delay": 0.15})  # needs two event frames
    with pytest.raises(InputRejected):
        make_scenario(FAMILY_OCCLUSION, {"delay": -1.0})
    with pytest.raises(InputRejected):
        make_scenario(FAMILY_OCCLUSION, {"frame_rate": 0.0})


def test_scenario_refuses_two_objects_with_one_true_id():
    spec = make_scenario(FAMILY_TARGET_MOVED)
    first, second, third = spec.objects
    with pytest.raises(InputRejected, match=r"^objects\[2\]: true_id 1 is already used by objects\[0\]$"):
        replace(spec, objects=(first, second, replace(third, true_id=1)))


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("img_archetype", np.ones(8), "objects[1]: img_archetype dimension 8 != 16"),
        ("txt_archetype", np.ones(17), "objects[1]: txt_archetype dimension 17 != 16"),
        ("txt_archetype", np.zeros(16), "objects[1]: zero-norm txt_archetype"),
        ("img_archetype", np.full(16, 1e-200), "objects[1]: zero-norm img_archetype"),
    ],
    ids=["short", "long", "zero", "underflow"],
)
def test_scenario_refuses_an_archetype_the_engine_could_not_compare(name, value, message):
    spec = make_scenario(FAMILY_TARGET_MOVED)
    first, second, third = spec.objects
    with pytest.raises(InputRejected) as refused:
        replace(spec, objects=(first, replace(second, **{name: value}), third))
    assert str(refused.value) == message


@pytest.mark.parametrize(
    "value, message",
    [
        (np.ones(8), "commands[0]: embedding dimension 8 != 16"),
        (np.zeros(16), "commands[0]: zero-norm embedding"),
        (np.full(16, 1e-200), "commands[0]: zero-norm embedding"),
        (np.full(16, np.nan), "commands[0]: non-finite embedding"),
        (np.full(16, np.inf), "commands[0]: non-finite embedding"),
    ],
    ids=["short", "zero", "underflow", "nan", "inf"],
)
def test_scenario_refuses_a_command_embedding_no_node_could_be_scored_against(value, message):
    spec = make_scenario(FAMILY_TARGET_MOVED)
    (command,) = spec.commands
    with pytest.raises(InputRejected) as refused:
        replace(spec, commands=(replace(command, embedding=value),))
    assert str(refused.value) == message


@pytest.mark.parametrize("key", ["gap", "dealy", "feature_dim"])
def test_make_scenario_refuses_an_unknown_parameter_by_name(key):
    with pytest.raises(InputRejected, match=rf"^unknown scenario parameter '{key}'; expected one of"):
        make_scenario(FAMILY_OCCLUSION, {"seed": 1, key: 2.0})


def test_make_scenario_takes_four_parameters():
    assert sim.PARAMS == ("seed", "delay", "frame_rate", "noise")
    for family in FAMILIES:
        params = {"seed": 1, "delay": 2.0, "frame_rate": 15.0, "noise": noise_preset(0.6)}
        spec = make_scenario(family, params)
        assert (spec.seed, spec.frame_rate, spec.noise) == (1, 15.0, noise_preset(0.6))
        assert spec.uplink.delay_at(0.0) == spec.downlink.delay_at(0.0) == 2.0


def test_scenario_too_short_to_render_rejects():
    spec = make_random_scenario(0)
    shrunk = type(spec)(**{**spec.__dict__, "duration": 0.01})
    with pytest.raises(InputRejected):
        generate_stream(shrunk)


def test_too_many_frames_are_refused_before_any_is_rendered(monkeypatch):
    def render(*args, **kwargs):
        raise AssertionError("a frame was rendered")

    monkeypatch.setattr(sim, "LatencyTag", render)  # the first thing each frame builds
    spec = make_scenario(FAMILY_TARGET_MOVED, {"frame_rate": 1e5})  # 450 000 frames
    with pytest.raises(InputRejected, match="more than the 100000 frames a stream may have"):
        generate_stream(spec)
    monkeypatch.setattr(sim, "MAX_FRAMES", 10)
    with pytest.raises(InputRejected, match="scenario too long"):
        generate_stream(make_scenario(FAMILY_TARGET_MOVED))


def test_command_targeting_unknown_object_rejects():
    spec = make_scenario(FAMILY_DISTRACTOR, {"delay": 1.0})
    (cmd,) = spec.commands
    bad_cmd = type(cmd)(
        text=cmd.text, embedding=cmd.embedding, intended_id=99, issue_time=cmd.issue_time
    )
    bad = type(spec)(**{**spec.__dict__, "commands": (bad_cmd,)})
    with pytest.raises(InputRejected):
        generate_stream(bad)


def on_axis(true_id: int, label: str, size: float, z: float) -> SimObject:
    """A cube of edge ``size`` straight ahead of the camera, ``z`` metres away."""
    return simple_object(
        true_id=true_id,
        label=label,
        size=(size, size, size),
        txt_archetype=np.eye(8)[2 * true_id - 2],
        img_archetype=np.eye(8)[2 * true_id - 1],
        waypoints=((0.0, np.array([0.0, 0.0, z])),),
    )


def stacked_spec(*objects: SimObject) -> ScenarioSpec:
    return ScenarioSpec(
        family="handmade",
        seed=0,
        duration=1.0,
        frame_rate=10.0,
        image_width=160,
        image_height=120,
        feature_dim=8,
        camera=CameraModel(fx=130.0, fy=130.0, cx=80.0, cy=60.0),
        objects=objects,
    )


@pytest.mark.parametrize("mug_first", [True, False])
def test_nearer_object_hides_the_one_behind_it(mug_first):
    mug = on_axis(1, "red mug", 0.12, 1.5)
    box = on_axis(2, "box", 0.3, 2.5)
    config = EngineConfig()
    graph, truth = ingested(stacked_spec(*((mug, box) if mug_first else (box, mug))), config)
    assert evaluate(graph, truth, config=config).node_accuracy == 1.0


def test_object_hidden_entirely_is_not_detected():
    inputs, truth = generate_stream(stacked_spec(on_axis(1, "box", 0.3, 1.5), on_axis(2, "red mug", 0.12, 2.5)))
    for frame, frame_truth in zip(inputs, truth.frames):
        assert [d.label for d in frame.detections] == ["box"]
        assert [d.true_id for d in frame_truth.detections] == [1]
