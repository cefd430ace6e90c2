"""Correctness checks against simulator truth and properties of the method.

Each check returns the problems it found (empty when the answer is right)
so that the workloads can count an operation as failed when any check on
it reports one.  None of them compares against a stored copy of earlier
output.
"""

from __future__ import annotations

import numpy as np

import stovsg as S


def frame_problems(graph: S.SceneGraph4D, truth: S.GroundTruthLog, centroid_tol: float) -> dict[int, list[str]]:
    """Per frame index: nodes off their true object, and wrong identity links.

    A node must carry its object's true label and lie within
    ``centroid_tol`` of its true position; a same-instance edge must join
    two detections of one true object (charged to its destination frame).
    """
    out: dict[int, list[str]] = {}
    try:
        mapping = S.node_truth_map(graph, truth)
    except S.InputRejected as exc:
        return {fg.frame_index: [str(exc)] for fg in graph.frames}
    for fg in graph.frames:
        for node in fg.nodes:
            det = mapping[node.node_id]
            if node.label != S.normalize_label(det.label):
                out.setdefault(fg.frame_index, []).append(f"node {node.node_id} label {node.label!r} != {det.label!r}")
            gap = float(np.linalg.norm(node.centroid - det.centroid))
            if gap > centroid_tol:
                out.setdefault(fg.frame_index, []).append(f"node {node.node_id} centroid {gap:.3f} m off")
    for edge in graph.temporal_edges:
        if edge.relation != S.SAME_INSTANCE:
            continue
        a, b = mapping[edge.src_node].true_id, mapping[edge.dst_node].true_id
        if a != b:
            out.setdefault(edge.dst_frame, []).append(
                f"same-instance edge {edge.src_node}->{edge.dst_node} joins objects {a} and {b}"
            )
    return out


def grounded_id(result: S.GroundingResult, mapping) -> int:
    """True object id of the node a grounding followed its target to."""
    return mapping[result.current_node.node_id].true_id


def grounding_problems(result: S.GroundingResult, mapping, intended_id: int) -> list[str]:
    got = grounded_id(result, mapping)
    return [] if got == intended_id else [f"grounded object {got}, intended {intended_id}"]


def naive_problems(naive: S.GroundingResult, mapping, intended_id: int) -> list[str]:
    """On the look-back families, grounding on the newest frame must miss."""
    got = grounded_id(naive, mapping)
    return [f"naive grounding found the intended object {got}"] if got == intended_id else []


def subgraph_problems(text: str, aligned_node_id: int) -> list[str]:
    """Closed, anchored at the grounded node, and canonical text."""
    try:
        payload = S.parse_subgraph(text)
    except S.FormatError as exc:
        return [str(exc)]
    ids = [node["id"] for node in payload["nodes"]]
    out = []
    if not ids or ids[0] != aligned_node_id:
        out.append(f"top node {ids[:1]} is not the grounded node {aligned_node_id}")
    members = set(ids)
    for node in payload["nodes"]:
        for rel in node["spatial_relations"]:
            if rel["subject"] not in members or rel["object"] not in members:
                out.append(f"relation {rel['subject']}->{rel['object']} leaves the subgraph")
    if S.serialize_subgraph(payload) != text:
        out.append("subgraph text is not canonical")
    return out


def graph_io_problems(written: str, graph: S.SceneGraph4D) -> list[str]:
    """A graph read back must serialize to the written bytes and validate."""
    out = list(S.validate_graph(graph))
    if S.dumps(S.graph_to_dict(graph)) + "\n" != written:
        out.append("graph read back does not serialize to the written bytes")
    return out


def same_answer_problems(live, replayed) -> list[str]:
    """Grounding and export replayed with ``as_of`` must equal the live answer.

    Both arguments are ``(result, subgraph_text)`` pairs.
    """
    (a, text_a), (b, text_b) = live, replayed
    key_a = (a.aligned_frame_index, a.aligned_node.node_id, a.current_node.node_id, a.track_id, a.status)
    key_b = (b.aligned_frame_index, b.aligned_node.node_id, b.current_node.node_id, b.track_id, b.status)
    out = []
    if key_a != key_b:
        out.append(f"replayed grounding {key_b} != live {key_a}")
    if text_a != text_b:
        out.append("replayed subgraph bytes differ from the live export")
    return out


def assignment_problems(cost: np.ndarray, pairs) -> list[str]:
    """The engine's assignment must reach SciPy's optimal total cost."""
    from scipy.optimize import linear_sum_assignment

    cost = np.asarray(cost, dtype=np.float64)
    if cost.size == 0:
        return [] if not pairs else [f"{len(pairs)} pairs from an empty matrix"]
    rows, cols = linear_sum_assignment(cost)
    best = float(cost[rows, cols].sum())
    got = float(sum(cost[i, j] for i, j in pairs))
    out = []
    if len(pairs) != len(rows):
        out.append(f"{len(pairs)} pairs, expected {len(rows)}")
    if abs(got - best) > 1e-9 * (1.0 + abs(best)):
        out.append(f"assignment total {got!r} != optimum {best!r}")
    return out
