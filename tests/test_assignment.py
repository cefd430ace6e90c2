from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stovsg import InputRejected, assignment, min_cost_assignment

from oracles import brute_force_assignment, padded_hungarian_assignment


def total(cost: np.ndarray, pairs) -> float:
    return float(sum(cost[i, j] for i, j in pairs))


def test_frozen_two_by_two_example():
    cost = np.array([[1.0, 2.0], [2.0, 4.0]])
    pairs = min_cost_assignment(cost)
    # diagonal costs 1 + 4 = 5; anti-diagonal costs 2 + 2 = 4
    assert pairs == [(0, 1), (1, 0)]
    assert total(cost, pairs) == 4.0


def test_all_equal_costs_take_lexicographically_smallest():
    pairs = min_cost_assignment(np.ones((3, 3)))
    assert pairs == [(0, 0), (1, 1), (2, 2)]


def test_structured_tie_prefers_lowest_columns_row_by_row():
    cost = np.array(
        [
            [0.0, 0.0, 1.0],
            [0.0, 0.0, 1.0],
            [1.0, 1.0, 0.0],
        ]
    )
    assert min_cost_assignment(cost) == [(0, 0), (1, 1), (2, 2)]


def test_rectangular_wide_and_tall():
    wide = np.array([[3.0, 1.0, 2.0]])
    assert min_cost_assignment(wide) == [(0, 1)]
    tall = wide.T
    assert min_cost_assignment(tall) == [(1, 0)]


def test_empty_matrix():
    assert min_cost_assignment(np.zeros((0, 4))) == []
    assert min_cost_assignment(np.zeros((4, 0))) == []


def test_rejects_bad_input():
    with pytest.raises(InputRejected):
        min_cost_assignment(np.zeros(3))
    with pytest.raises(InputRejected):
        min_cost_assignment(np.array([[1.0, np.inf], [0.0, 1.0]]))
    with pytest.raises(InputRejected):
        min_cost_assignment(np.array([[np.nan]]))


def test_matches_brute_force_on_grid_valued_matrices():
    # quarter-integer costs make every total exactly representable, so ties
    # are genuine and the comparison is meaningful at zero tolerance
    rng = np.random.default_rng(101)
    for size in range(1, 6):
        for _ in range(60):
            cost = rng.integers(0, 8, size=(size, size)) * 0.25
            pairs = min_cost_assignment(cost)
            want_pairs, want_total = brute_force_assignment(cost)
            assert pairs == want_pairs
            assert total(cost, pairs) == want_total


def test_matches_brute_force_on_rectangles():
    rng = np.random.default_rng(7)
    for shape in ((2, 5), (5, 2), (3, 6), (6, 3), (1, 4), (4, 1)):
        for _ in range(40):
            cost = rng.integers(0, 10, size=shape) * 0.5
            pairs = min_cost_assignment(cost)
            want_pairs, want_total = brute_force_assignment(cost)
            assert pairs == want_pairs
            assert total(cost, pairs) == want_total


def test_continuous_costs_reach_the_exhaustive_minimum():
    rng = np.random.default_rng(42)
    for _ in range(50):
        cost = rng.uniform(0, 1, size=(6, 6))
        pairs = min_cost_assignment(cost)
        _, want_total = brute_force_assignment(cost)
        assert abs(total(cost, pairs) - want_total) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 5),
    cols=st.integers(1, 5),
    seed=st.integers(0, 2**31),
)
def test_solution_shape_and_optimality_property(rows, cols, seed):
    rng = np.random.default_rng(seed)
    cost = rng.uniform(0, 100, size=(rows, cols))
    pairs = min_cost_assignment(cost)
    assert len(pairs) == min(rows, cols)
    assert len({i for i, _ in pairs}) == len(pairs)
    assert len({j for _, j in pairs}) == len(pairs)
    assert pairs == sorted(pairs)
    _, want_total = brute_force_assignment(cost)
    assert total(cost, pairs) <= want_total + 1e-9


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 40),
    cols=st.integers(1, 30),
    levels=st.integers(1, 6),
    transpose=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_matches_padded_reference_on_tie_heavy_rectangles(rows, cols, levels, transpose, seed):
    # few quarter-integer levels make most optimal totals shared by many
    # assignments, so the pairs check the tie-break, not just the optimum
    rng = np.random.default_rng(seed)
    cost = rng.integers(0, levels, size=(rows, cols)) * 0.25
    if transpose:
        cost = cost.T
    assert min_cost_assignment(cost) == padded_hungarian_assignment(cost)


def test_tie_heavy_200_square_reaches_the_scipy_optimum():
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    rng = np.random.default_rng(2026)
    # row and column offsets add the same amount to every assignment, so
    # whole families of assignments tie; quarter-integers keep sums exact
    n = 200
    cost = 0.25 * (rng.integers(0, 8, (n, 1)) + rng.integers(0, 8, (1, n)) + rng.integers(0, 4, (n, n)))
    pairs = min_cost_assignment(cost)
    rows, cols = linear_sum_assignment(cost)
    assert [i for i, _ in pairs] == list(range(n))
    assert sorted(j for _, j in pairs) == list(range(n))
    assert total(cost, pairs) == float(cost[rows, cols].sum())


def test_a_re_matching_chain_longer_than_the_recursion_limit_is_searched_without_recursion():
    # every shift cell (i, i + 1 mod n) costs 0 and every diagonal cell 1e-12, within the tightness
    # tolerance, so both are optimal; the lex-min answer is the diagonal, and row 0 taking column 0
    # re-matches a chain through every other row, deeper than the interpreter's recursion limit
    def chain(n):
        cost = np.ones((n, n))
        cost[np.arange(n), (np.arange(n) + 1) % n] = 0.0
        cost[np.arange(n), np.arange(n)] = 1e-12
        return cost

    assert min_cost_assignment(chain(40)) == padded_hungarian_assignment(chain(40)) == [(i, i) for i in range(40)]
    assert min_cost_assignment(chain(1100)) == [(i, i) for i in range(1100)]


def searches():
    """Count the calls of the augmenting-path search that the certificate skips."""
    return mock.patch.object(
        assignment, "_shortest_augmenting_paths", wraps=assignment._shortest_augmenting_paths
    )


def clear_block(rows: int, cols: int, seed: int, shift: float) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """A block whose short lines each have their minimum in their own column, 0.1 clear of the runner-up.

    Returns the block and its argmin pairs, sorted by row.  ``shift`` moves every cost, below zero too.
    """
    rng = np.random.default_rng(seed)
    k, m = min(rows, cols), max(rows, cols)
    lines = rng.uniform(0.5, 1.0, (k, m)) + shift
    best = rng.permutation(m)[:k]
    lines[np.arange(k), best] = rng.uniform(0.0, 0.4, k) + shift
    if rows <= cols:
        return lines, list(enumerate(best.tolist()))
    return lines.T, sorted((j, i) for i, j in enumerate(best.tolist()))


def margin(cost: np.ndarray) -> float:
    """``2·n·tol``, with ``tol`` taken from the padded square the oracle builds."""
    r, c = cost.shape
    n = max(r, c)
    sq = np.full((n, n), cost.max() + 1.0)
    sq[:r, :c] = cost
    return 2 * n * 1e-9 * (1.0 + float(np.abs(sq).max()))


shapes = dict(
    rows=st.integers(1, 60),
    cols=st.integers(1, 55),
    seed=st.integers(0, 2**31),
    shift=st.sampled_from([0.0, -0.7, -50.0, 30.0]),  # -0.7 straddles zero
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**shapes)
@example(rows=1, cols=55, seed=1, shift=-50.0)
@example(rows=60, cols=1, seed=2, shift=0.0)
@example(rows=60, cols=55, seed=3, shift=-0.7)
@example(rows=55, cols=55, seed=4, shift=30.0)
@example(rows=1, cols=1, seed=5, shift=-50.0)
def test_a_clear_block_takes_the_certificate_and_matches_the_padded_reference(rows, cols, seed, shift):
    cost, pairs = clear_block(rows, cols, seed, shift)
    with searches() as search:
        assert min_cost_assignment(cost) == pairs == padded_hungarian_assignment(cost)
    assert search.call_count == 0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**shapes, tied=st.booleans())
@example(rows=2, cols=55, seed=1, shift=-50.0, tied=True)
@example(rows=60, cols=2, seed=2, shift=0.0, tied=False)
@example(rows=60, cols=55, seed=3, shift=-0.7, tied=True)
def test_a_block_with_a_repeated_minimum_is_searched_and_matches_the_padded_reference(rows, cols, seed, shift, tied):
    if min(rows, cols) < 2:
        rows, cols = max(rows, 2), max(cols, 2)
    cost, pairs = clear_block(rows, cols, seed, shift)
    # the second short line's minimum moves into the first line's column: below its own, or tied with it
    (i0, j0), (i1, j1) = pairs[0], pairs[1]
    if rows <= cols:
        cost[i1, j0] = cost[i1, j1] - (0.0 if tied else 0.05)
    else:
        cost[i0, j1] = cost[i1, j1] - (0.0 if tied else 0.05)
    with searches() as search:
        assert min_cost_assignment(cost) == padded_hungarian_assignment(cost)
    assert search.call_count == 1


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**shapes, above=st.booleans())
@example(rows=1, cols=55, seed=1, shift=-50.0, above=False)
@example(rows=60, cols=1, seed=2, shift=30.0, above=True)
@example(rows=60, cols=55, seed=3, shift=-0.7, above=False)
def test_a_runner_up_just_past_the_margin_decides_the_route_but_not_the_pairs(rows, cols, seed, shift, above):
    if max(rows, cols) < 2:
        cols = 2
    cost, pairs = clear_block(rows, cols, seed, shift)
    # one short line's runner-up sits 1 % above or below its minimum plus 2·n·tol; it is set to the
    # minimum first, so that the margin is taken with the block's largest entries as they end up
    i, j = pairs[-1]
    runner_up = (i, (j + 1) % cols) if rows <= cols else ((i + 1) % rows, j)
    cost[runner_up] = cost[i, j]
    cost[runner_up] += margin(cost) * (1.01 if above else 0.99)
    with searches() as search:
        assert min_cost_assignment(cost) == pairs == padded_hungarian_assignment(cost)
    assert search.call_count == (0 if above else 1)


def test_a_clear_55_by_50_block_skips_the_search_and_one_shared_minimum_brings_it_back():
    cost, pairs = clear_block(55, 50, seed=27, shift=0.0)
    with searches() as search:
        assert min_cost_assignment(cost) == pairs
    assert search.call_count == 0
    # column 1 now has its minimum in the row of column 0's minimum
    (row0, _), = (p for p in pairs if p[1] == 0)
    cost[row0, 1] = cost[:, 1].min() - 0.05
    with searches() as search:
        assert min_cost_assignment(cost) == padded_hungarian_assignment(cost)
    assert search.call_count == 1
