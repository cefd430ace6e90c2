"""Independent reference implementations used to check the real ones.

Everything here is deliberately written the dumb way — exhaustive
enumeration, explicit matrix inverses, straight-line arithmetic — and
shares no code with the package under test beyond its data types.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Mapping

import numpy as np

from stovsg.errors import FormatError

_PERM_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _perms(n: int, k: int) -> np.ndarray:
    """All ordered selections of k items from range(n), as an array."""
    key = (n, k)
    if key not in _PERM_CACHE:
        _PERM_CACHE[key] = np.array(list(itertools.permutations(range(n), k)), dtype=np.intp)
    return _PERM_CACHE[key]


def brute_force_assignment(cost) -> tuple[list[tuple[int, int]], float]:
    """Exhaustive minimum-cost assignment.

    Returns (pairs sorted by row, total).  Among equal-total optima the
    lexicographically smallest pair list wins, mirroring the solver's
    documented tie-break.
    """
    a = np.asarray(cost, dtype=np.float64)
    r, c = a.shape
    if r == 0 or c == 0:
        return [], 0.0
    if r <= c:
        perms = _perms(c, r)  # column choice per row
        totals = a[np.arange(r)[None, :], perms].sum(axis=1)
        best = totals.min()
        candidates = [
            tuple((i, int(p[i])) for i in range(r)) for p in perms[totals == best]
        ]
    else:
        perms = _perms(r, c)  # row choice per column
        totals = a[perms, np.arange(c)[None, :]].sum(axis=1)
        best = totals.min()
        candidates = [
            tuple(sorted((int(p[j]), j) for j in range(c))) for p in perms[totals == best]
        ]
    pairs = list(min(candidates))
    # recompute the total in row order so float addition order is fixed
    return pairs, float(sum(a[i, j] for i, j in pairs))


def _hungarian_square(a: np.ndarray) -> tuple[list[int], list[float], list[float]]:
    """Potentials-based Hungarian on a square matrix.

    Returns (col_of_row, u, v) where ``u``/``v`` are dual potentials with
    ``a[i, j] - u[i] - v[j] >= 0`` (up to float noise) for all cells and
    equality on matched cells.
    """
    n = a.shape[0]
    INF = float("inf")
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    p = [0] * (n + 1)  # p[j] = 1-based row matched to column j; p[0] is scratch
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = 0
            row = a[i0 - 1]
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    col_of_row = [0] * n
    for j in range(1, n + 1):
        col_of_row[p[j] - 1] = j - 1
    return col_of_row, u[1:], v[1:]


def _lex_min_perfect_matching(adj: list[list[int]], initial: list[int]) -> list[int]:
    """Lexicographically smallest perfect matching of a bipartite graph.

    ``adj[i]`` lists row i's columns in ascending order and ``initial`` is
    any perfect matching.  Rows are fixed in order; for each row the
    smallest column that still leaves the remaining rows matchable wins.
    """
    n = len(adj)
    row_to_col = list(initial)
    col_to_row = [0] * n
    for i, j in enumerate(row_to_col):
        col_to_row[j] = i
    fixed_cols: set[int] = set()

    def try_augment(r: int, banned: set[int]) -> bool:
        for j in adj[r]:
            if j in fixed_cols or j in banned:
                continue
            banned.add(j)
            owner = col_to_row[j]
            if owner == -1 or try_augment(owner, banned):
                row_to_col[r] = j
                col_to_row[j] = r
                return True
        return False

    for i in range(n):
        for j in adj[i]:
            if j in fixed_cols:
                continue
            if j == row_to_col[i]:
                break  # already the smallest feasible column
            owner = col_to_row[j]
            saved = (list(row_to_col), list(col_to_row))
            col_to_row[row_to_col[i]] = -1
            row_to_col[i] = j
            col_to_row[j] = i
            row_to_col[owner] = -1
            if try_augment(owner, {j}):
                break
            row_to_col, col_to_row = saved  # infeasible, try next column
        fixed_cols.add(row_to_col[i])
    return row_to_col


def padded_hungarian_assignment(cost) -> list[tuple[int, int]]:
    """Square-padded Hungarian assignment: the reference for tie-breaking.

    This is the engine's earlier solver.  It pads to square with a cost
    above every entry, runs the scalar potentials Hungarian over every
    padded row (pad rows included), then takes the lexicographically
    smallest perfect matching of the tight-edge graph.
    """
    a = np.asarray(cost, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D, got shape {a.shape}")
    r, c = a.shape
    if r == 0 or c == 0:
        return []
    if not np.isfinite(a).all():
        raise ValueError("cost matrix contains non-finite entries")

    n = max(r, c)
    pad = float(a.max()) + 1.0
    sq = np.full((n, n), pad, dtype=np.float64)
    sq[:r, :c] = a

    col_of_row, u, v = _hungarian_square(sq)

    # Edges with zero reduced cost carry every optimal assignment.
    tol = 1e-9 * (1.0 + float(np.abs(sq).max()))
    reduced = sq - np.asarray(u)[:, None] - np.asarray(v)[None, :]
    adj = [list(np.nonzero(reduced[i] <= tol)[0]) for i in range(n)]
    col_of_row = _lex_min_perfect_matching(adj, col_of_row)

    return [(i, col_of_row[i]) for i in range(r) if col_of_row[i] < c]


def lift_pixel_oracle(u: float, v: float, depth: float, camera) -> np.ndarray:
    """Back-projection via an explicit inverse intrinsics matrix."""
    k = np.array(
        [[camera.fx, 0.0, camera.cx], [0.0, camera.fy, camera.cy], [0.0, 0.0, 1.0]]
    )
    cam = np.linalg.inv(k) @ np.array([u * depth, v * depth, depth])
    return np.asarray(camera.rotation) @ cam + np.asarray(camera.translation)


def project_point_oracle(point, camera) -> tuple[float, float, float]:
    k = np.array(
        [[camera.fx, 0.0, camera.cx], [0.0, camera.fy, camera.cy], [0.0, 0.0, 1.0]]
    )
    cam = np.asarray(camera.rotation).T @ (np.asarray(point, dtype=np.float64) - camera.translation)
    pix = k @ cam
    return float(pix[0] / pix[2]), float(pix[1] / pix[2]), float(cam[2])


def iou_oracle(a, b) -> float:
    ax0, ay0, ax1, ay1 = a.as_tuple()
    bx0, by0, bx1, by1 = b.as_tuple()
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    return inter / union


def spatial_cost_oracle(u, z, w_iou: float, w_area: float, w_ctr: float) -> float:
    ux0, uy0, ux1, uy1 = u.as_tuple()
    zx0, zy0, zx1, zy1 = z.as_tuple()
    area_u = (ux1 - ux0) * (uy1 - uy0)
    area_z = (zx1 - zx0) * (zy1 - zy0)
    ctr_u = ((ux0 + ux1) / 2.0, (uy0 + uy1) / 2.0)
    ctr_z = ((zx0 + zx1) / 2.0, (zy0 + zy1) / 2.0)
    offset = math.sqrt((ctr_u[0] - ctr_z[0]) ** 2 + (ctr_u[1] - ctr_z[1]) ** 2)
    diag_z = math.sqrt((zx1 - zx0) ** 2 + (zy1 - zy0) ** 2)
    return (
        w_iou * (1.0 - iou_oracle(u, z))
        + w_area * abs(math.log(area_u / area_z))
        + w_ctr * offset / diag_z
    )


def cosine_oracle(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def temporal_cost_oracle(
    track_centroid,
    track_descriptor,
    track_label: str,
    node_centroid,
    node_f_img,
    node_label: str,
    w_pos: float,
    w_vis: float,
    delta_cls: float,
    d_max: float,
) -> float:
    gap = float(np.linalg.norm(np.asarray(track_centroid) - np.asarray(node_centroid)))
    cost = w_pos * min(gap / d_max, 1.0)
    cost += w_vis * (1.0 - cosine_oracle(track_descriptor, node_f_img))
    if track_label != node_label:
        cost += delta_cls
    return cost


def node_score_oracle(embedding, f_txt, f_img, beta: float) -> float:
    return cosine_oracle(embedding, f_txt) + beta * cosine_oracle(embedding, f_img)


def exact_cosine_oracle(a, b) -> float:
    """Per-pair cosine from ``np.dot`` and two ``np.linalg.norm`` calls, clamped.

    These are the bits every node score must keep, since scores are written
    into exports.  Refusals raise ``ValueError`` with the engine's messages.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"feature dimensions differ: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity undefined for zero-norm vector")
    return min(1.0, max(-1.0, float(np.dot(a, b) / (na * nb))))


def score_nodes_oracle(nodes, embedding, beta: float) -> list[tuple[int, float]]:
    """(node_id, score) best first, ties by ascending id; one ``exact_cosine_oracle`` pair per feature."""
    if beta < 0:
        raise ValueError(f"beta must be non-negative, got {beta}")
    scored = [
        (n.node_id, exact_cosine_oracle(embedding, n.f_txt) + beta * exact_cosine_oracle(embedding, n.f_img))
        for n in nodes
    ]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish proper rotation via QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def frames_as_of_oracle(frames, as_of: float) -> tuple:
    """The frames captured at or before ``as_of``, by a full scan."""
    return tuple(fg for fg in frames if fg.latency_tag.capture_time <= as_of)


def frame_at_operator_time_oracle(frames, query_time: float):
    """The last frame whose tagged arrival is at or before ``query_time``, by a full scan; None when none."""
    chosen = None
    for fg in frames:
        if fg.latency_tag.capture_time + fg.latency_tag.transmission_latency <= query_time:
            chosen = fg
    return chosen


def lifecycle_events_oracle(frames, temporal_edges, start: float, end: float) -> tuple:
    """(capture time, track id, relation) of every appearance or disappearance in [start, end], by a full scan."""
    capture = {fg.frame_index: fg.latency_tag.capture_time for fg in frames}
    events = []
    for edge in temporal_edges:
        if edge.relation == "same-instance":
            continue
        when = capture[edge.event_frame]
        if start <= when <= end:
            events.append((when, edge.track_id, edge.relation))
    events.sort(key=lambda item: (item[0], item[1], item[2]))
    return tuple(events)


def histories_oracle(temporal_edges) -> dict[int, tuple[int, ...]]:
    """Each track's node ids, oldest first: the destinations of its appeared and same-instance edges, in edge order."""
    out: dict[int, list[int]] = {}
    for edge in temporal_edges:
        if edge.relation in ("appeared", "same-instance") and edge.dst_node is not None:
            out.setdefault(edge.track_id, []).append(edge.dst_node)
    return {track_id: tuple(ids) for track_id, ids in out.items()}


def track_states_oracle(frames, grace_period: float) -> tuple[list[tuple], list[dict[int, str]]]:
    """Temporal edges and per-frame track states of a stream whose objects never match another's track.

    ``frames`` holds each frame's ``(observed time, object ids)``, the ids
    in detection order; each detection is one node, numbered from 1 across
    the stream.  An object's detection continues its current track when
    that track is eligible, and otherwise opens a new track.  The rules are
    the ones the engine once kept as a stored status, replayed over every
    track ever opened in every frame: a track is eligible when active, or
    disappeared and observed within the grace period; an eligible track
    left unmatched disappears, with a disappeared edge when it was active;
    then every disappeared track observed more than the grace period ago
    retires, the one that disappeared in this frame too.  Edges are
    ``(relation, track id, event frame, source node, destination node)``:
    same-instance edges by track id, then appeared edges in detection
    order, then disappeared edges by track id, frame by frame.  The states
    are each track's ``"active"``, ``"disappeared"`` or ``"retired"`` after
    each frame.
    """
    status: dict[int, str] = {}
    newest: dict[int, tuple[int, float]] = {}  # track id -> (newest node id, its observed time)
    current: dict[int, int] = {}  # object id -> its newest track
    edges: list[tuple] = []
    states: list[dict[int, str]] = []
    node_id = 0
    for frame_index, (now, objects) in enumerate(frames, 1):
        eligible = {
            tid for tid, state in status.items()
            if state == "active" or (state == "disappeared" and now - newest[tid][1] <= grace_period)
        }
        linked, opened = [], []
        for obj in objects:
            node_id += 1
            tid = current.get(obj)
            if tid in eligible:
                linked.append((tid, node_id))
            else:
                opened.append((obj, node_id))
        for tid, node in sorted(linked):
            edges.append(("same-instance", tid, frame_index, newest[tid][0], node))
            newest[tid] = (node, now)
            status[tid] = "active"
        for obj, node in opened:
            tid = len(status) + 1
            edges.append(("appeared", tid, frame_index, None, node))
            current[obj], newest[tid], status[tid] = tid, (node, now), "active"
        for tid in sorted(eligible - {t for t, _ in linked}):
            if status[tid] == "active":
                edges.append(("disappeared", tid, frame_index, newest[tid][0], None))
                status[tid] = "disappeared"
        for tid in status:
            if status[tid] == "disappeared" and now - newest[tid][1] > grace_period:
                status[tid] = "retired"
        states.append(dict(status))
    return edges, states


def history_window_oracle(frames, temporal_edges, node_id: int, aligned_index: int, newest_index: int) -> tuple:
    """(obs time, centroid) of ``node_id``'s track in every frame from ``aligned_index`` to ``newest_index``, by a full scan."""
    holders = [ids for ids in histories_oracle(temporal_edges).values() if node_id in ids]
    assert len(holders) == 1, f"node {node_id} is on {len(holders)} tracks"
    on_track = set(holders[0])
    window = []
    for fg in frames:
        if aligned_index <= fg.frame_index <= newest_index:
            window.extend((fg.obs_time, node.centroid) for node in fg.nodes if node.node_id in on_track)
    return tuple(window)


def canonical_dumps_oracle(o) -> str:
    """The subgraph writer as one recursive ``isinstance`` chain, one string per value.

    Floats at six significant digits, ``-0.0`` written ``0``, a NumPy array
    as its ``tolist()`` (a 0-d one as its scalar), strings and keys through
    ``json.dumps``; refusals raise ``FormatError`` with the writer's
    messages.
    """
    if isinstance(o, (float, np.floating)):
        if not math.isfinite(o):
            raise FormatError(f"cannot serialize non-finite float {o}")
        return "0" if o == 0.0 else f"{float(o):.6g}"  # "-0" would reparse as the int 0
    if isinstance(o, np.ndarray):  # a 0-d array's list is its scalar
        return canonical_dumps_oracle(o.tolist())
    if isinstance(o, (list, tuple)):
        return "[" + ",".join([canonical_dumps_oracle(v) for v in o]) + "]"
    if isinstance(o, (dict, Mapping)):
        items = [f"{json.dumps(str(k))}:{canonical_dumps_oracle(v)}" for k, v in o.items()]
        return "{" + ",".join(items) + "}"
    if o is None or isinstance(o, (bool, str)):
        return json.dumps(o)
    if isinstance(o, (int, np.integer)):
        try:
            return str(int(o))
        except ValueError:  # more digits than Python prints
            raise FormatError("cannot serialize an integer of more digits than Python prints") from None
    raise FormatError(f"cannot serialize {type(o).__name__} canonically")
