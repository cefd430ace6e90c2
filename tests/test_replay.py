from __future__ import annotations

from dataclasses import replace

import pytest

from stovsg import (
    FAMILY_DISTRACTOR,
    FAMILY_TARGET_MOVED,
    commands_from_scenario,
    evaluate,
    format_suite,
    make_scenario,
    run_suite,
    run_trial,
    validate_graph,
)

from conftest import ingested


def test_trial_scores_every_detection_of_the_stream(config):
    spec = make_scenario(FAMILY_DISTRACTOR, {"seed": 4, "delay": 0.5})
    graph, truth = ingested(spec, config)
    assert len(graph.frames) == len(truth.frames) and validate_graph(graph) == []
    report = run_trial(spec, config)
    assert report.nodes_total == sum(len(frame.detections) for frame in truth.frames) > 0
    assert report.nodes_correct == report.nodes_total
    assert len(report.grounding) == len(truth.commands) == 1


def test_commands_carry_the_downlink_delay():
    spec = make_scenario(FAMILY_TARGET_MOVED, {"delay": 2.0})
    (command,) = commands_from_scenario(spec)
    assert command.latency == 2.0
    assert command.arrival_time == pytest.approx(command.issue_time + 2.0)


def test_trial_passes_aware_and_fails_naive(config):
    spec = make_scenario(FAMILY_TARGET_MOVED, {"seed": 2, "delay": 1.0})
    aware = run_trial(spec, config, latency_aware=True)
    naive = run_trial(spec, config, latency_aware=False)
    assert aware.grounding_success_rate == 1.0
    assert aware.replay_success_rate == 1.0
    assert naive.grounding_success_rate == 0.0
    assert naive.replay_success_rate == 0.0


def test_replay_success_needs_the_pose_within_centroid_tol(config):
    spec = make_scenario(FAMILY_TARGET_MOVED, {"seed": 2, "delay": 1.0})
    report = run_trial(spec, replace(config, centroid_tol=1e-3))  # the grounded pose is 1.9 mm off the truth
    assert report.grounding_success_rate == 1.0
    assert report.replay_success_rate == 0.0
    assert run_trial(spec, replace(config, centroid_tol=2e-3)).replay_success_rate == 1.0


def test_grounded_true_ids_reports_both_modes(config):
    spec = make_scenario(FAMILY_TARGET_MOVED, {"seed": 2, "delay": 1.0})
    graph, truth = ingested(spec, config)
    commands = commands_from_scenario(spec)
    [aware] = evaluate(graph, truth, commands, config, latency_aware=True).grounding
    [naive] = evaluate(graph, truth, commands, config, latency_aware=False).grounding
    assert aware.grounded_true_id == 1
    assert naive.grounded_true_id == 3  # the look-alike parked on the target's old spot


def test_small_suite_is_all_ones(config):
    suite = run_suite(
        families=(FAMILY_DISTRACTOR, FAMILY_TARGET_MOVED),
        delays=(0.5, 1.0),
        trials=1,
        config=config,
    )
    assert suite.latency_aware
    assert len(suite.rows) == 4
    for row in suite.rows:
        assert row.grounding_success_rate == 1.0
        assert row.replay_success_rate == 1.0
        assert row.temporal_accuracy == 1.0
        assert row.node_accuracy == 1.0


def test_suite_table_lists_every_cell(config):
    suite = run_suite(families=(FAMILY_DISTRACTOR,), delays=(0.5,), trials=1, config=config)
    text = format_suite(suite)
    lines = text.splitlines()
    assert lines[0] == "latency_aware=on"
    assert lines[1].split() == ["family", "delay", "trials", "ground", "replay", "A_tmp", "A_node"]
    assert len(lines) == 4  # mode line, header, rule, one row
    row = lines[3].split()
    assert row[0] == FAMILY_DISTRACTOR
    assert row[1:] == ["0.50", "1", "1.000", "1.000", "1.000", "1.000"]

    off = format_suite(run_suite(families=(FAMILY_DISTRACTOR,), delays=(0.5,), config=config, latency_aware=False))
    assert off.splitlines()[0] == "latency_aware=off"
