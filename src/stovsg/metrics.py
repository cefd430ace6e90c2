"""Accuracy metrics for a built graph against a simulator ground-truth log.

Detections are matched to truth positionally: the simulator emits
detections in a fixed object order and ingestion preserves that order, so
the k-th node of a frame corresponds to the k-th truth detection of the
same frame.  A count mismatch means the pipeline dropped a detection and
is reported as an error rather than silently skewing the metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import EngineConfig
from .errors import InputRejected
from .model import SAME_INSTANCE, Command, SceneGraph4D, normalize_label
from .query import ground_command
from .sim import DetectionTruth, GroundTruthLog

METRICS_SCHEMA = "stovsg-metrics/1"


def rate(hits: int, total: int) -> float | None:
    """``hits / total``, or None when nothing was counted."""
    return None if total == 0 else hits / total


@dataclass(frozen=True)
class GroundingRecord:
    command_text: str
    intended_id: int
    grounded_true_id: int
    success: bool
    replay_success: bool  # success, and the execution-time pose within centroid_tol of the truth at arrival
    status: str
    issue_time: float
    arrival_time: float


@dataclass(frozen=True)
class MetricsReport:
    nodes_total: int
    nodes_correct: int
    spatial_total: int
    spatial_correct: int
    temporal_total: int
    temporal_correct: int
    grounding: tuple[GroundingRecord, ...] = ()

    @property
    def node_accuracy(self) -> float | None:
        return rate(self.nodes_correct, self.nodes_total)

    @property
    def spatial_accuracy(self) -> float | None:
        return rate(self.spatial_correct, self.spatial_total)

    @property
    def temporal_accuracy(self) -> float | None:
        return rate(self.temporal_correct, self.temporal_total)

    @property
    def grounding_success_rate(self) -> float | None:
        return rate(sum(g.success for g in self.grounding), len(self.grounding))

    @property
    def replay_success_rate(self) -> float | None:
        return rate(sum(g.replay_success for g in self.grounding), len(self.grounding))

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


def evaluate(
    graph: SceneGraph4D,
    truth: GroundTruthLog,
    commands: list[Command] | None = None,
    config: EngineConfig | None = None,
    latency_aware: bool = True,
) -> MetricsReport:
    """Score a run: node, spatial-edge and temporal-edge accuracy, and each command's grounding.

    A node is correct when its label and its centroid (within
    ``config.centroid_tol``) match its truth detection.  Commands pair with
    truth entries positionally and are grounded at their arrival time.  A
    command succeeds when the grounded target, followed to its newest node,
    is the intended object; it succeeds on replay when, besides, that
    node's pose lies within ``config.centroid_tol`` of the truth at arrival.
    """
    config = config if config is not None else EngineConfig()
    tol = config.centroid_tol
    mapping = node_truth_map(graph, truth)
    relations = {ft.frame_index: {frozenset((a, b)) for a, b, _ in ft.relations} for ft in truth.frames}

    nodes = [node for fg in graph.frames for node in fg.nodes]
    nodes_correct = sum(
        normalize_label(node.label) == normalize_label(mapping[node.node_id].label)
        and float(np.linalg.norm(node.centroid - mapping[node.node_id].centroid)) <= tol
        for node in nodes
    )
    spatial = [(fg.frame_index, edge) for fg in graph.frames for edge in fg.spatial_edges]
    spatial_correct = sum(
        frozenset((mapping[edge.src].true_id, mapping[edge.dst].true_id)) in relations[index]
        for index, edge in spatial
    )
    same = [edge for edge in graph.temporal_edges if edge.relation == SAME_INSTANCE]
    temporal_correct = sum(mapping[edge.src_node].true_id == mapping[edge.dst_node].true_id for edge in same)

    if commands and len(commands) != len(truth.commands):
        raise InputRejected(
            f"{len(commands)} commands but truth log records {len(truth.commands)}"
        )
    grounding = []
    for command, ct in zip(commands or (), truth.commands):
        result = ground_command(
            graph, command, config.query, latency_aware=latency_aware, as_of=ct.arrival_time
        )
        grounded = mapping[result.current_node.node_id].true_id
        success = grounded == ct.intended_id
        pose_error = float(np.linalg.norm(result.current_node.centroid - ct.centroid_at_arrival))
        grounding.append(
            GroundingRecord(
                command_text=command.text,
                intended_id=ct.intended_id,
                grounded_true_id=grounded,
                success=success,
                replay_success=success and pose_error <= tol,
                status=result.status,
                issue_time=ct.issue_time,
                arrival_time=ct.arrival_time,
            )
        )
    return MetricsReport(
        len(nodes), nodes_correct, len(spatial), spatial_correct, len(same), temporal_correct, tuple(grounding)
    )
