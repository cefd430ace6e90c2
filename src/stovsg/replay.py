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
from .metrics import MetricsReport, evaluate, node_truth_map
from .model import Command, SceneGraph4D, empty_graph
from .query import ground_command
from .sim import FAMILIES, GroundTruthLog, ScenarioSpec, generate_stream, make_scenario
from .store import ingest_frame


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


def build_graph(spec: ScenarioSpec, config: EngineConfig) -> tuple[SceneGraph4D, GroundTruthLog]:
    """Generate the scenario's stream and ingest every frame in order."""
    inputs, truth = generate_stream(spec)
    graph = empty_graph()
    for frame in inputs:
        graph = ingest_frame(graph, frame, config)
    return graph, truth


@dataclass(frozen=True)
class TrialResult:
    family: str
    seed: int
    delay: float
    latency_aware: bool
    report: MetricsReport
    pose_matches: tuple[bool, ...]

    @property
    def grounding_success_rate(self) -> float | None:
        return self.report.grounding_success_rate

    @property
    def replay_success_rate(self) -> float | None:
        """Identity and pose both right, per command."""
        if not self.report.grounding:
            return None
        joint = [
            g.success and pose for g, pose in zip(self.report.grounding, self.pose_matches)
        ]
        return sum(joint) / len(joint)


def run_trial(
    spec: ScenarioSpec,
    config: EngineConfig | None = None,
    latency_aware: bool = True,
    delay: float | None = None,
) -> TrialResult:
    config = config if config is not None else EngineConfig()
    graph, truth = build_graph(spec, config)
    commands = commands_from_scenario(spec)
    report = evaluate(graph, truth, commands, config, latency_aware=latency_aware)
    if delay is None:
        delay = spec.uplink.delay_at(0.0)
    return TrialResult(
        family=spec.family,
        seed=spec.seed,
        delay=delay,
        latency_aware=latency_aware,
        report=report,
        pose_matches=tuple(g.pose_error <= config.centroid_tol for g in report.grounding),
    )


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

    def to_dict(self) -> dict:
        return {
            "latency_aware": self.latency_aware,
            "rows": [
                {
                    "family": r.family,
                    "delay": r.delay,
                    "trials": r.trials,
                    "grounding_success_rate": r.grounding_success_rate,
                    "replay_success_rate": r.replay_success_rate,
                    "temporal_accuracy": r.temporal_accuracy,
                    "node_accuracy": r.node_accuracy,
                }
                for r in self.rows
            ],
        }


def run_suite(
    families: tuple[str, ...] = FAMILIES,
    delays: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 5.0),
    trials: int = 1,
    base_seed: int = 0,
    config: EngineConfig | None = None,
    latency_aware: bool = True,
) -> SuiteResult:
    """Sweep family x delay, averaging the per-trial rates."""
    if trials < 1:
        raise InputRejected(f"trials must be at least 1, got {trials}")
    if base_seed < 0:
        raise InputRejected(f"seed must be non-negative, got {base_seed}")
    config = config if config is not None else EngineConfig()
    rows = []
    for fi, family in enumerate(families):
        for di, delay in enumerate(delays):
            ground_rates: list[float] = []
            replay_rates: list[float] = []
            tmp_num = tmp_den = 0
            node_num = node_den = 0
            for trial in range(trials):
                seed = base_seed + 100_000 * fi + 1_000 * di + trial
                spec = make_scenario(family, {"seed": seed, "delay": delay})
                result = run_trial(spec, config, latency_aware=latency_aware, delay=delay)
                ground_rates.append(result.grounding_success_rate or 0.0)
                replay_rates.append(result.replay_success_rate or 0.0)
                tmp_num += result.report.temporal_correct
                tmp_den += result.report.temporal_total
                node_num += result.report.nodes_correct
                node_den += result.report.nodes_total
            rows.append(
                SuiteRow(
                    family=family,
                    delay=delay,
                    trials=trials,
                    grounding_success_rate=sum(ground_rates) / len(ground_rates),
                    replay_success_rate=sum(replay_rates) / len(replay_rates),
                    temporal_accuracy=None if tmp_den == 0 else tmp_num / tmp_den,
                    node_accuracy=None if node_den == 0 else node_num / node_den,
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


def grounded_true_ids(
    graph: SceneGraph4D, truth: GroundTruthLog, commands: list[Command], config: EngineConfig
) -> list[tuple[int, int]]:
    """(latency-aware, naive) grounded true ids per command, for comparisons."""
    mapping = node_truth_map(graph, truth)
    out = []
    for command, ct in zip(commands, truth.commands):
        pair = []
        for aware in (True, False):
            result = ground_command(
                graph, command, config.query, latency_aware=aware, as_of=ct.arrival_time
            )
            pair.append(mapping[result.current_node.node_id].true_id)
        out.append((pair[0], pair[1]))
    return out
