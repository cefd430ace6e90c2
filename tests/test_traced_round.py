"""One small round under the benchmark's span tracer.

``perfbench/spans.py`` rebinds every traced engine function and reads some
of their arguments, so a change to one of them could break only traced
benchmark runs (``perfbench/run.py --trace 1``).  This imports the tracer
from ``perfbench/`` by path and plays one scenario through every layer it
traces.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

import stovsg as S

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # spans imports its sibling ``checks``
    return importlib.import_module("spans")


def test_one_traced_round_calls_every_layer(spans, tmp_path):
    spec = S.make_scenario(S.FAMILY_MOVED_REFERENCE, {"seed": 0, "delay": 1.0})
    inputs, truth = S.generate_stream(spec)
    cfg = S.EngineConfig()
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        S.write_stream(inputs, tmp_path / "stream.jsonl")
        _, frames = S.parse_stream(tmp_path / "stream.jsonl")
        graph = S.ingest_sequence(S.empty_graph(), frames, cfg)
        for command, expected in zip(S.commands_from_scenario(spec), truth.commands):
            S.ground_command(graph, command, cfg.query, as_of=expected.arrival_time)
            S.serialize_subgraph(S.extract_subgraph(graph, command, cfg.query, as_of=expected.arrival_time))
        S.write_graph(graph, tmp_path / "graph.json")
        back = S.read_graph(tmp_path / "graph.json")
        # graph files no longer pass through the dict codecs, which the benchmark's checks still call
        back = S.graph_from_dict(S.graph_to_dict(back))
    assert S.graph_to_dict(back) == S.graph_to_dict(graph)
    uncalled = [f"{module}.{attr}" for module, attr, _ in spans.LAYERS if not tracer.calls(f"{module}.{attr}")]
    assert uncalled == []
    assert tracer.problems == []
