from __future__ import annotations

import pytest

from stovsg import (
    FAMILY_DISTRACTOR,
    FAMILY_TARGET_MOVED,
    build_graph,
    commands_from_scenario,
    format_suite,
    make_scenario,
    run_suite,
    run_trial,
    score_grounding,
    validate_graph,
)


def test_build_graph_ingests_every_frame(config):
    spec = make_scenario(FAMILY_DISTRACTOR, {"seed": 4, "delay": 0.5})
    graph, truth = build_graph(spec, config)
    assert len(graph.frames) == len(truth.frames)
    assert validate_graph(graph) == []


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
    assert aware.pose_matches == (True,)
    assert naive.grounding_success_rate == 0.0
    assert naive.replay_success_rate == 0.0
    assert aware.delay == 1.0 and aware.family == FAMILY_TARGET_MOVED


def test_grounded_true_ids_reports_both_modes(config):
    spec = make_scenario(FAMILY_TARGET_MOVED, {"seed": 2, "delay": 1.0})
    graph, truth = build_graph(spec, config)
    commands = commands_from_scenario(spec)
    [aware] = score_grounding(graph, truth, commands, config, latency_aware=True)
    [naive] = score_grounding(graph, truth, commands, config, latency_aware=False)
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
