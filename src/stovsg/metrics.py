"""Accuracy metrics for a built graph against a simulator ground-truth log.

Detections are matched to truth positionally: the simulator emits
detections in a fixed object order and ingestion preserves that order, so
the k-th node of a frame corresponds to the k-th truth detection of the
same frame.  A count mismatch means the pipeline dropped a detection and
is reported as an error rather than silently skewing the metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .config import EngineConfig
from .errors import InputRejected
from .model import SAME_INSTANCE, Command, SceneGraph4D, normalize_label
from .query import GroundingResult, ground_command
from .sim import DetectionTruth, GroundTruthLog

METRICS_SCHEMA = "stovsg-metrics/1"


@dataclass(frozen=True)
class GroundingRecord:
    command_text: str
    intended_id: int
    grounded_true_id: int
    success: bool
    status: str
    issue_time: float
    arrival_time: float
    pose_error: float  # metres from the execution-time pose to the truth at arrival


@dataclass(frozen=True)
class MetricsReport:
    nodes_total: int
    nodes_correct: int
    spatial_total: int
    spatial_correct: int
    temporal_total: int
    temporal_correct: int
    grounding: tuple[GroundingRecord, ...] = field(default=())

    @property
    def node_accuracy(self) -> float | None:
        return None if self.nodes_total == 0 else self.nodes_correct / self.nodes_total

    @property
    def spatial_accuracy(self) -> float | None:
        return None if self.spatial_total == 0 else self.spatial_correct / self.spatial_total

    @property
    def temporal_accuracy(self) -> float | None:
        return None if self.temporal_total == 0 else self.temporal_correct / self.temporal_total

    @property
    def grounding_success_rate(self) -> float | None:
        if not self.grounding:
            return None
        return sum(1 for g in self.grounding if g.success) / len(self.grounding)

    def to_dict(self) -> dict:
        return {
            "schema": METRICS_SCHEMA,
            "node_accuracy": self.node_accuracy,
            "spatial_accuracy": self.spatial_accuracy,
            "temporal_accuracy": self.temporal_accuracy,
            "grounding_success_rate": self.grounding_success_rate,
            "counts": {
                "nodes_total": self.nodes_total,
                "nodes_correct": self.nodes_correct,
                "spatial_total": self.spatial_total,
                "spatial_correct": self.spatial_correct,
                "temporal_total": self.temporal_total,
                "temporal_correct": self.temporal_correct,
            },
            "commands": [
                {
                    "command_text": g.command_text,
                    "intended_id": g.intended_id,
                    "grounded_true_id": g.grounded_true_id,
                    "success": g.success,
                    "status": g.status,
                    "issue_time": g.issue_time,
                    "arrival_time": g.arrival_time,
                }
                for g in self.grounding
            ],
        }


def node_truth_map(graph: SceneGraph4D, truth: GroundTruthLog) -> dict[int, DetectionTruth]:
    """Map each node id to the truth detection it was built from."""
    truth_by_index = {ft.frame_index: ft for ft in truth.frames}
    mapping: dict[int, DetectionTruth] = {}
    for fg in graph.frames:
        ft = truth_by_index.get(fg.frame_index)
        if ft is None:
            raise InputRejected(f"truth log has no frame {fg.frame_index}")
        if len(fg.nodes) != len(ft.detections):
            raise InputRejected(
                f"frame {fg.frame_index}: {len(fg.nodes)} nodes but "
                f"{len(ft.detections)} truth detections — cannot match positionally"
            )
        for node, det in zip(fg.nodes, ft.detections):
            mapping[node.node_id] = det
    return mapping


def score_graph(
    graph: SceneGraph4D, truth: GroundTruthLog, centroid_tol: float = 0.05
) -> MetricsReport:
    """Node / spatial-edge / temporal-edge accuracy, without grounding."""
    mapping = node_truth_map(graph, truth)
    truth_by_index = {ft.frame_index: ft for ft in truth.frames}

    nodes_total = nodes_correct = 0
    for fg in graph.frames:
        for node in fg.nodes:
            det = mapping[node.node_id]
            nodes_total += 1
            label_ok = normalize_label(node.label) == normalize_label(det.label)
            dist = float(np.linalg.norm(node.centroid - det.centroid))
            if label_ok and dist <= centroid_tol:
                nodes_correct += 1

    spatial_total = spatial_correct = 0
    for fg in graph.frames:
        ft = truth_by_index[fg.frame_index]
        true_pairs = {frozenset((a, b)) for a, b, _ in ft.relations}
        for edge in fg.spatial_edges:
            spatial_total += 1
            pair = frozenset((mapping[edge.src].true_id, mapping[edge.dst].true_id))
            if pair in true_pairs:
                spatial_correct += 1

    temporal_total = temporal_correct = 0
    for edge in graph.temporal_edges:
        if edge.relation != SAME_INSTANCE:
            continue
        temporal_total += 1
        if mapping[edge.src_node].true_id == mapping[edge.dst_node].true_id:
            temporal_correct += 1

    return MetricsReport(
        nodes_total=nodes_total,
        nodes_correct=nodes_correct,
        spatial_total=spatial_total,
        spatial_correct=spatial_correct,
        temporal_total=temporal_total,
        temporal_correct=temporal_correct,
    )


def score_grounding(
    graph: SceneGraph4D,
    truth: GroundTruthLog,
    commands: list[Command],
    config: EngineConfig,
    latency_aware: bool = True,
) -> tuple[GroundingRecord, ...]:
    """Ground each command at its arrival time and compare against intent.

    Commands pair with truth entries positionally.  Success means the
    grounded target (followed to its newest node) is the intended object.
    """
    if len(commands) != len(truth.commands):
        raise InputRejected(
            f"{len(commands)} commands but truth log records {len(truth.commands)}"
        )
    mapping = node_truth_map(graph, truth)
    records = []
    for command, ct in zip(commands, truth.commands):
        result: GroundingResult = ground_command(
            graph,
            command,
            config.query,
            latency_aware=latency_aware,
            as_of=ct.arrival_time,
        )
        grounded = mapping[result.current_node.node_id].true_id
        records.append(
            GroundingRecord(
                command_text=command.text,
                intended_id=ct.intended_id,
                grounded_true_id=grounded,
                success=grounded == ct.intended_id,
                status=result.status,
                issue_time=ct.issue_time,
                arrival_time=ct.arrival_time,
                pose_error=float(np.linalg.norm(result.current_node.centroid - ct.centroid_at_arrival)),
            )
        )
    return tuple(records)


def evaluate(
    graph: SceneGraph4D,
    truth: GroundTruthLog,
    commands: list[Command] | None = None,
    config: EngineConfig | None = None,
    latency_aware: bool = True,
) -> MetricsReport:
    """Full report: graph accuracy plus grounding outcomes when commands given."""
    config = config if config is not None else EngineConfig()
    report = score_graph(graph, truth, centroid_tol=config.centroid_tol)
    if not commands:
        return report
    records = score_grounding(graph, truth, commands, config, latency_aware=latency_aware)
    return replace(report, grounding=records)
