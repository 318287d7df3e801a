"""Rectangular min-cost assignment against a flat permutation oracle."""
import random

import pytest

from vapep import assignment_cost, min_cost_assignment

import helpers


def test_zero_matrix():
    assign, total = min_cost_assignment([[0, 0], [0, 0]])
    assert total == 0
    assert assign == (0, 1)  # lexicographic tie-break


def test_diagonal_optimum():
    assign, total = min_cost_assignment([[0, 5], [5, 0]])
    assert total == 0
    assert assign == (0, 1)


def test_empty_matrix():
    assert min_cost_assignment([]) == ((), 0)
    assert assignment_cost([]) == 0


def test_more_slots_than_users_is_infeasible():
    with pytest.raises(ValueError):
        min_cost_assignment([[1], [2]])


def test_negative_costs_rejected():
    # and costs that are not ints, which the scaled tie-break cannot order
    for costs in ([[1, -2]], [[1, 2.0]], [[0.5, 1], [1, 0]]):
        with pytest.raises(ValueError):
            min_cost_assignment(costs)
        with pytest.raises(ValueError):
            assignment_cost(costs)


def test_ragged_matrix_rejected():
    with pytest.raises(ValueError):
        min_cost_assignment([[1, 2], [3]])


BIG = 1 << 62


def _oracle_inputs():
    rng = random.Random(31)
    for _ in range(300):
        m = rng.randint(1, 4)
        n = rng.randint(m, 6)
        yield [[rng.randint(0, 9) for _ in range(n)] for _ in range(m)]
    # costs at and past 2^62, where a fixed sentinel of 2^62 gave the wrong
    # assignment for the first and no assignment for the second
    yield [[BIG, BIG + 5], [BIG + 5, BIG]]
    yield [[2 * BIG, 3 * BIG, BIG], [BIG, 2 * BIG, 3 * BIG]]
    draws = [
        lambda: rng.randint(0, 1),  # many ties
        lambda: BIG * rng.randint(0, 3) + rng.randint(0, 9),
        lambda: rng.randint(BIG, 1 << 80),
    ]
    for t in range(600):
        m = rng.randint(1, 4)
        n = m if t % 2 else rng.randint(m, 6)  # every other matrix square
        draw = draws[t % 3]
        yield [[draw() for _ in range(n)] for _ in range(m)]


def test_matches_flat_oracle():
    for costs in _oracle_inputs():
        m = len(costs)
        want_assign, want_total = helpers.injection_optimum(costs)
        assign, total = min_cost_assignment(costs)
        assert total == want_total
        assert assign == want_assign
        assert assignment_cost(costs) == want_total
        assert sum(costs[i][assign[i]] for i in range(m)) == total
        assert len(set(assign)) == m  # injective


def test_zero_cost_dummy_rows_never_change_total():
    # the classic square reduction: filling the matrix up with zero-cost
    # slots must leave the optimum untouched
    rng = random.Random(32)
    for _ in range(100):
        m = rng.randint(1, 4)
        n = rng.randint(m, 5)
        costs = [[rng.randint(0, 9) for _ in range(n)] for _ in range(m)]
        squared = costs + [[0] * n for _ in range(n - m)]
        assert assignment_cost(squared) == assignment_cost(costs)


def _resolve_assignment(costs):
    """The tie-break found by re-solving: fix each row in turn to its first
    column that still admits an optimal completion of the remaining rows."""
    m, n = len(costs), len(costs[0])
    remaining = assignment_cost(costs)
    chosen, used = [], [False] * n
    for i in range(m):
        rest_rows = [
            [costs[r][j] for j in range(n) if not used[j]] for r in range(i + 1, m)
        ]
        free_cols = [j for j in range(n) if not used[j]]
        for pos, j in enumerate(free_cols):
            need = remaining - costs[i][j]
            if need < 0:
                continue
            if rest_rows:
                sub = [row[:pos] + row[pos + 1:] for row in rest_rows]
                ok = assignment_cost(sub) == need
            else:
                ok = need == 0
            if ok:
                chosen.append(j)
                used[j] = True
                remaining = need
                break
    return tuple(chosen)


def test_matches_resolve_tie_break_on_larger_matrices():
    # sizes where the permutation oracle is too slow
    rng = random.Random(33)
    for t in range(2000):
        m = rng.randint(1, 12)
        n = rng.randint(m, 40)
        hi = (1, 3, 20)[t % 3]
        costs = [[rng.randint(0, hi) for _ in range(n)] for _ in range(m)]
        assign, total = min_cost_assignment(costs)
        assert assign == _resolve_assignment(costs)
        assert total == assignment_cost(costs)
