"""Exact products of integer matrices, for the integer-point oracles that
check A(x)·A(y)[·A(z)] == A(map(x, y[, z])) through `matrix_of`, and an
exact rational solve, the oracle for `invert`."""

import operator
from fractions import Fraction
from typing import List, Optional, Sequence


def int_matrix_product(a: Sequence[Sequence[int]],
                       b: Sequence[Sequence[int]]) -> List[List[int]]:
    """Exact product of two integer matrices; a float raises TypeError."""
    if any(len(row) != len(b) for row in a):
        raise ValueError("matrix shapes do not match")
    index, mul = operator.index, operator.mul
    cols = list(zip(*[map(index, row) for row in b]))
    return [[sum(map(mul, row, col)) for col in cols]
            for row in [list(map(index, row)) for row in a]]


def solve_rational(matrix: Sequence[Sequence[int]],
                   rhs: Sequence[int]) -> Optional[List[Fraction]]:
    """The x with matrix @ x = rhs by Gauss-Jordan elimination over the
    rationals, or None where the matrix is singular."""
    n = len(matrix)
    a = [[Fraction(v) for v in row] + [Fraction(r)]
         for row, r in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col]), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        a[col] = [v / a[col][col] for v in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                factor = a[i][col]
                a[i] = [v - factor * w for v, w in zip(a[i], a[col])]
    return [row[n] for row in a]
