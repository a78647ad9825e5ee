"""Exact products of integer matrices, for the integer-point oracles that
check A(x)·A(y)[·A(z)] == A(map(x, y[, z])) through `matrix_of`."""

import operator
from typing import List, Sequence


def int_matrix_product(a: Sequence[Sequence[int]],
                       b: Sequence[Sequence[int]]) -> List[List[int]]:
    """Exact product of two integer matrices; a float raises TypeError."""
    if any(len(row) != len(b) for row in a):
        raise ValueError("matrix shapes do not match")
    index, mul = operator.index, operator.mul
    cols = list(zip(*[map(index, row) for row in b]))
    return [[sum(map(mul, row, col)) for col in cols]
            for row in [list(map(index, row)) for row in a]]
