"""Minimum-cost assignment of slots to users (rectangular Hungarian method).

Rows are slots, columns are users; every slot must be matched to a distinct
column, so the number of rows may not exceed the number of columns.
"""
from __future__ import annotations

from typing import Sequence

INF = 1 << 62


def _check(costs: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """Rows and columns of a valid cost matrix, and the sum of its costs,
    which bounds each of them.  The sum, run in C, is not an int exactly
    when some cost is not; it is cheaper than tracking the largest cost."""
    m = len(costs)
    n = len(costs[0]) if m else 0
    for row in costs:
        if len(row) != n:
            raise ValueError("cost matrix rows must have equal length")
        for v in row:
            if v < 0:
                raise ValueError("costs must be non-negative")
    top = sum(map(sum, costs))
    if type(top) is not int:
        raise ValueError("costs must be ints")
    if m > n:
        raise ValueError(f"infeasible: {m} slots but only {n} users")
    return m, n, top


def assignment_cost(costs: Sequence[Sequence[int]]) -> int:
    """Optimal total cost only; cheaper than recovering an assignment."""
    m, n, top = _check(costs)
    if m == 0:
        return 0
    return _hungarian(costs, m, n, top)[0]


def _hungarian(costs, m: int, n: int, top: int) -> tuple[int, list[int]]:
    # Potentials method on the (m+1) x (n+1) padded problem; p[j] is the row
    # matched to column j, 1-based with 0 as the virtual root.  With top at
    # least the largest cost: u only rises and v only falls, and phase i
    # lowers each v[j] by at most OPT_i - OPT_(i-1) <= top, so |v[j]| <= m * top
    # and no reduced cost exceeds (m + 1) * top; `big` is above all of them.
    big = (m + 1) * top + 1
    u = [0] * (m + 1)
    v = [0] * (n + 1)
    p = [0] * (n + 1)
    way = [0] * (n + 1)
    for i in range(1, m + 1):
        p[0] = i
        j0 = 0
        minv = [big] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = big
            j1 = -1
            row = costs[i0 - 1]
            u_i0 = u[i0]
            for j in range(1, n + 1):
                if not used[j]:
                    cur = row[j - 1] - u_i0 - v[j]
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
    match = [-1] * m
    total = 0
    for j in range(1, n + 1):
        if p[j]:
            match[p[j] - 1] = j - 1
            total += costs[p[j] - 1][j - 1]
    return total, match


def min_cost_assignment(costs: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], int]:
    """Optimal assignment (column index per row) with a deterministic tie-break:
    among equal-cost assignments, the lexicographically smallest column
    sequence (row 0 first) wins.

    One Hungarian run on the costs c * n^m + j * n^(m-1-i) for row i and
    column j finds it.  The added terms of an assignment sum to less than
    n^m, so a cheapest scaled assignment is a cheapest one; among those the
    added terms spell its columns, row 0 first, as a base-n number, and the
    smallest number is the lexicographically smallest sequence.
    """
    m, n, top = _check(costs)
    if m == 0:
        return (), 0
    scale = n**m
    scaled = []
    for i, row in enumerate(costs):
        w = n ** (m - 1 - i)
        scaled.append([c * scale + j * w for j, c in enumerate(row)])
    # every scaled cost is below (top + 1) * scale
    total, match = _hungarian(scaled, m, n, (top + 1) * scale)
    return tuple(match), total // scale
