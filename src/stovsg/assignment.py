"""Minimum-cost linear assignment with deterministic tie-breaking.

The answer is defined on the input padded to square (side ``n = max(rows,
cols)``) with a dummy cost strictly above every real entry: among the
optimal assignments of that square, the lexicographically smallest one
(lowest row index first, then lowest column index), cut back to its real
pairs.  Two routes reach it.

*Certificate.*  Call the lines of the shorter side (rows, or the columns of
a tall input) short lines.  If their minima lie in pairwise distinct
columns (rows), and every short line's second-smallest cost exceeds its
minimum by more than ``2·n·tol``, where ``tol = 1e-9·(1 + max|padded
square|)`` is the search's tightness tolerance below, the argmin pairs are
returned at once.  Proof: every assignment of the padded square pays the
same pad cells, so it costs a constant plus one cell of each short line.
The argmin pairs pay each line's minimum, the least possible; any other
assignment leaves some line's minimum and pays over ``2·n·tol`` more.  The
search ends with a perfect matching of edges whose reduced cost is at most
``tol`` under feasible duals, so any matching of its tight edges costs at
most the optimum plus ``n·tol`` (plus rounding far below ``tol``): only the
argmin pairs are that cheap, so the search would return them too.

*Search.*  Otherwise the shortest-augmenting-path Hungarian algorithm of
Jonker & Volgenant (1987) with row/column potentials (O(k^2 n) for k <= n)
runs over the real short lines only, transposing tall inputs, so exactly
``min(rows, cols)`` real pairs come back.  It starts from the row reduction
the certificate computed (each line's potential is its minimum, and each
column, or row, takes the first line whose minimum it holds) and searches
the lines left.  Because several assignments can share the optimal total, the
result is then canonicalized on the padded square: complementary slackness
says every optimal assignment uses only *tight* edges (zero reduced cost
under the final potentials, up to ``tol``), and among the perfect matchings
of that tight-edge graph the lexicographically smallest one is returned.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputRejected


def _shortest_augmenting_paths(
    rows: list[list[float]], m: int, best: list[int]
) -> tuple[list[int], list[float], list[float]]:
    """Match each of ``k <= m`` rows to its own column at minimum total cost.

    Jonker-Volgenant shortest augmenting paths from a row reduction.
    ``best[i]`` is the column of row i's minimum, which is row i's starting
    potential ``u[i]``; each column takes the first row whose minimum it
    holds, and one Dijkstra-like search over the ``m`` columns adds each row
    left.  Returns (col_of_row, u, v) with dual potentials such that
    ``rows[i][j] - u[i] - v[j] >= 0`` (up to float noise) on every cell and
    ``== 0`` on matched cells.  A column only gets a nonzero potential once
    it is matched, and no potential ever rises above 0, so every column left
    free keeps ``v[j] == 0`` and every other has ``v[j] <= 0``.
    """
    INF = float("inf")
    u = [row[j] for row, j in zip(rows, best)]
    v = [0.0] * (m + 1)  # v[m] belongs to the virtual start column
    p = [-1] * (m + 1)  # p[j] = row matched to column j; p[m] is the row being added
    for i, j in enumerate(best):
        if p[j] == -1:
            p[j] = i
    way = [0] * m
    for i in [i for i, j in enumerate(best) if p[j] != i]:
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
    col_of_row = [0] * len(rows)
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
        """Depth first from row ``r`` to a free column; each row tries its unfixed, unbanned columns in order.

        Every column tried stays banned, and only a found path is written, so
        a failed search changes nothing.  The path is an explicit stack: a
        chain of re-matched rows may be longer than the recursion limit.
        """
        stack, path = [(r, iter(adj[r]))], []  # the rows on the path with their untried columns; the column each took
        while stack:
            j = next((j for j in stack[-1][1] if j not in fixed_cols and j not in banned), None)
            if j is None:  # this row has no column left: back up, past the column that led to it
                stack.pop()
                del path[-1:]
                continue
            banned.add(j)
            path.append(j)
            owner = col_to_row[j]
            if owner == -1:
                for (row, _), col in zip(stack, path):
                    row_to_col[row] = col
                    col_to_row[col] = row
                return True
            stack.append((owner, iter(adj[owner])))
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
    bottom, top = float(a.min()), float(a.max())  # NaN where any entry is
    if not -math.inf < bottom <= top < math.inf:
        raise InputRejected("cost matrix contains non-finite entries")

    n = max(r, c)
    pad = top + 1.0
    # The tightness tolerance: 1e-9 of the padded square's largest magnitude, without building it.
    tol = 1e-9 * (1.0 + max(top, -bottom, abs(pad) if r != c else 0.0))
    flip = r > c
    b = a.T if flip else a  # one short line per row
    k = b.shape[0]
    best = b.argmin(axis=1).tolist()
    # The certificate (module docstring): distinct minima, each clear of its line's runner-up.
    if len(set(best)) == k and np.count_nonzero(b <= (b.min(axis=1) + 2 * n * tol)[:, None]) == k:
        return sorted(zip(best, range(k))) if flip else list(enumerate(best))

    # Otherwise search the real short lines only, from the row reduction; a
    # padded row has nothing but pad columns free, so searching it walks
    # every real column.
    col_of, u_small, v_small = _shortest_augmenting_paths(b.tolist(), n, best)
    # Each pad row takes a column left free at potential ``pad``: that column
    # kept v == 0, and no column's potential is positive, so the pad cell is
    # tight and the duals stay feasible.
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
    tight = sq - np.array(u)[:, None] - np.array(v)[None, :] <= tol
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in zip(*(idx.tolist() for idx in np.nonzero(tight))):
        adj[i].append(j)
    col_of_row = _lex_min_perfect_matching(adj, col_of_row)

    return [(i, col_of_row[i]) for i in range(r) if col_of_row[i] < c]
