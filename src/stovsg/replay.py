"""Closed-loop replay: stream a scenario, ground its commands, score the run.

The engine ingests frames at capture time (it runs next to the sensing
side and compensates for the operator's delayed view).  A command issued
at ``t`` travels back over the downlink and is grounded on arrival with
the frame cutoff at that moment; the aligned frame is the newest one the
operator had actually seen when issuing.  Because the graph is
persistent, grounding "as of" an earlier instant is an exact replay of
the state the engine had then.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import EngineConfig
from .errors import InputRejected
from .metrics import MetricsReport, evaluate, rate
from .model import Command, empty_graph
from .sim import FAMILIES, ScenarioSpec, generate_stream, make_scenario
from .store import ingest_sequence


def commands_from_scenario(spec: ScenarioSpec) -> list[Command]:
    """Attach the downlink delay in effect at issue time to each command."""
    return [
        Command(
            text=cmd.text,
            embedding=cmd.embedding,
            issue_time=cmd.issue_time,
            latency=spec.downlink.delay_at(cmd.issue_time),
        )
        for cmd in spec.commands
    ]


def run_trial(
    spec: ScenarioSpec,
    config: EngineConfig = EngineConfig(),
    latency_aware: bool = True,
) -> MetricsReport:
    """Stream the scenario into an empty graph and score it, grounding each command on arrival."""
    inputs, truth = generate_stream(spec)
    graph = ingest_sequence(empty_graph(), inputs, config)
    return evaluate(graph, truth, commands_from_scenario(spec), config, latency_aware=latency_aware)


@dataclass(frozen=True)
class SuiteRow:
    family: str
    delay: float
    trials: int
    grounding_success_rate: float
    replay_success_rate: float
    temporal_accuracy: float | None
    node_accuracy: float | None


@dataclass(frozen=True)
class SuiteResult:
    latency_aware: bool
    rows: tuple[SuiteRow, ...]


def run_suite(
    families: tuple[str, ...] = FAMILIES,
    delays: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 5.0),
    trials: int = 1,
    base_seed: int = 0,
    config: EngineConfig = EngineConfig(),
    latency_aware: bool = True,
) -> SuiteResult:
    """Sweep family x delay: the mean of the trials' success rates and the accuracies of their pooled counts."""
    if trials < 1:
        raise InputRejected(f"trials must be at least 1, got {trials}")
    if base_seed < 0:
        raise InputRejected(f"seed must be non-negative, got {base_seed}")
    rows = []
    for fi, family in enumerate(families):
        for di, delay in enumerate(delays):
            reports = [
                run_trial(
                    make_scenario(family, {"seed": base_seed + 100_000 * fi + 1_000 * di + trial, "delay": delay}),
                    config,
                    latency_aware=latency_aware,
                )
                for trial in range(trials)
            ]
            rows.append(
                SuiteRow(
                    family=family,
                    delay=delay,
                    trials=trials,
                    grounding_success_rate=sum(r.grounding_success_rate or 0.0 for r in reports) / trials,
                    replay_success_rate=sum(r.replay_success_rate or 0.0 for r in reports) / trials,
                    temporal_accuracy=rate(
                        sum(r.temporal_correct for r in reports), sum(r.temporal_total for r in reports)
                    ),
                    node_accuracy=rate(sum(r.nodes_correct for r in reports), sum(r.nodes_total for r in reports)),
                )
            )
    return SuiteResult(latency_aware=latency_aware, rows=tuple(rows))


def format_suite(suite: SuiteResult) -> str:
    """Fixed-width text table, one row per family/delay cell."""

    def fmt(x: float | None) -> str:
        return "   --" if x is None else f"{x:5.3f}"

    header = (
        f"{'family':<24} {'delay':>6} {'trials':>6} "
        f"{'ground':>6} {'replay':>6} {'A_tmp':>6} {'A_node':>6}"
    )
    lines = [f"latency_aware={'on' if suite.latency_aware else 'off'}", header, "-" * len(header)]
    for r in suite.rows:
        lines.append(
            f"{r.family:<24} {r.delay:>6.2f} {r.trials:>6d} "
            f"{fmt(r.grounding_success_rate):>6} {fmt(r.replay_success_rate):>6} "
            f"{fmt(r.temporal_accuracy):>6} {fmt(r.node_accuracy):>6}"
        )
    return "\n".join(lines)
