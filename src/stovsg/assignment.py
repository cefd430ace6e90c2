"""Minimum-cost linear assignment with deterministic tie-breaking.

The solver is the shortest-augmenting-path Hungarian algorithm of Jonker &
Volgenant (1987) with row/column potentials (O(k^2 n) for k <= n).  It
searches only the real rows of the shorter side, transposing tall inputs,
so exactly ``min(rows, cols)`` real pairs come back.  Because several
assignments can share the optimal total, the result is then canonicalized
on the input padded to square with a dummy cost strictly above every real
entry: complementary slackness says every optimal assignment uses only
*tight* edges (zero reduced cost under the final potentials), and among
the perfect matchings of that tight-edge graph we return the
lexicographically smallest one (lowest row index first, then lowest column
index).
"""

from __future__ import annotations

import numpy as np

from .errors import InputRejected


def _shortest_augmenting_paths(rows: list[list[float]], m: int) -> tuple[list[int], list[float], list[float]]:
    """Match each of ``k <= m`` rows to its own column at minimum total cost.

    Jonker-Volgenant shortest augmenting paths: one Dijkstra-like search per
    row over the ``m`` columns.  Returns (col_of_row, u, v) with dual
    potentials such that ``rows[i][j] - u[i] - v[j] >= 0`` (up to float
    noise) on every cell and ``== 0`` on matched cells.  A column only gets
    a nonzero potential once it is matched, so every column left free keeps
    ``v[j] == 0``.
    """
    k = len(rows)
    INF = float("inf")
    u = [0.0] * k
    v = [0.0] * (m + 1)  # v[m] belongs to the virtual start column
    p = [-1] * (m + 1)  # p[j] = row matched to column j; p[m] is the row being added
    way = [0] * m
    for i in range(k):
        p[m] = i
        j0 = m
        minv = [INF] * m
        free = list(range(m))  # columns outside the search tree, ascending
        tree = [m]
        while True:
            i0 = p[j0]
            row = rows[i0]
            ui = u[i0]
            delta = INF
            j1 = -1
            for j in free:
                cur = row[j] - ui - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in tree:
                u[p[j]] += delta
                v[j] -= delta
            for j in free:
                minv[j] -= delta
            j0 = j1
            if p[j0] == -1:
                break
            free.remove(j0)
            tree.append(j0)
        while j0 != m:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    col_of_row = [0] * k
    for j in range(m):
        if p[j] != -1:
            col_of_row[p[j]] = j
    return col_of_row, u, v[:m]


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
            owner, old = col_to_row[j], row_to_col[i]
            col_to_row[old] = -1
            row_to_col[i] = j
            col_to_row[j] = i
            row_to_col[owner] = -1
            if try_augment(owner, {j}):
                break
            # infeasible: a failed augment wrote nothing, so undo the swap and try the next column
            row_to_col[owner], col_to_row[j], row_to_col[i], col_to_row[old] = j, owner, old, i
        fixed_cols.add(row_to_col[i])
    return row_to_col


def min_cost_assignment(cost: np.ndarray) -> list[tuple[int, int]]:
    """Solve the rectangular assignment problem.

    Returns ``min(rows, cols)`` disjoint (row, col) pairs of minimum total
    cost, sorted by row; among equal-cost optima the lexicographically
    smallest pair sequence is returned.  Empty matrices yield ``[]``.
    """
    a = np.asarray(cost, dtype=np.float64)
    if a.ndim != 2:
        raise InputRejected(f"cost matrix must be 2-D, got shape {a.shape}")
    r, c = a.shape
    if r == 0 or c == 0:
        return []
    if not np.isfinite(a).all():
        raise InputRejected("cost matrix contains non-finite entries")

    # Search the real rows of the shorter side only; a padded row has
    # nothing but pad columns free, so searching it walks every real column.
    n = max(r, c)
    pad = float(a.max()) + 1.0
    flip = r > c
    col_of, u_small, v_small = _shortest_augmenting_paths((a.T if flip else a).tolist(), n)
    # Each pad row takes a column left free at potential ``pad``: that column
    # kept v == 0, so the pad cell is tight and the duals stay feasible.
    taken = set(col_of)
    col_of += [j for j in range(n) if j not in taken]
    u_small += [pad] * (n - len(u_small))
    if flip:
        col_of_row = [0] * n
        for j, i in enumerate(col_of):
            col_of_row[i] = j
        u, v = v_small, u_small
    else:
        col_of_row, u, v = col_of, u_small, v_small

    sq = np.full((n, n), pad, dtype=np.float64)
    sq[:r, :c] = a
    # Edges with zero reduced cost carry every optimal assignment.
    tol = 1e-9 * (1.0 + float(np.abs(sq).max()))
    tight = sq - np.array(u)[:, None] - np.array(v)[None, :] <= tol
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in zip(*(idx.tolist() for idx in np.nonzero(tight))):
        adj[i].append(j)
    col_of_row = _lex_min_perfect_matching(adj, col_of_row)

    return [(i, col_of_row[i]) for i in range(r) if col_of_row[i] < c]
