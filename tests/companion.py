"""Norm forms of algebraic integers as a generic closed structure: the
companion-matrix family x1*I + x2*M + ... + xn*M^(n-1), parameter-free
and pairwise closed for every monic polynomial, read from its first
column rather than its first row."""

from operator import index
from typing import Sequence

from matform.catalog import FormFamily
from matform.linstruct import LinearStructure
from matform.polyring import VarTable


def companion_structure(monic_coeffs: Sequence[int]) -> LinearStructure:
    """Structure of x1*I + x2*M + ... + xn*M^(n-1) for the companion matrix M
    of x^n + a_1 x^(n-1) + ... + a_n.  Its determinant is the norm form of
    the corresponding algebraic integer, so pairwise closure always holds;
    its coordinates are read from the first column.
    """
    coeffs = [index(a) for a in monic_coeffs]
    n = len(coeffs)
    if n < 1:
        raise ValueError("need at least one coefficient")
    # M maps e_k -> e_{k+1} for k < n and e_n -> -(a_n e_1 + ... + a_1 e_n).
    M = [[0] * n for _ in range(n)]
    for k in range(n - 1):
        M[k + 1][k] = 1
    for i in range(n):
        M[i][n - 1] = -coeffs[n - 1 - i]
    powers = [[[1 if i == j else 0 for j in range(n)] for i in range(n)]]
    for _ in range(n - 1):
        prev = powers[-1]
        powers.append([
            [sum(prev[i][k] * M[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ])
    empty = VarTable(())
    coeff = [[[empty.const(powers[r][i][j]) for r in range(n)]
              for j in range(n)]
             for i in range(n)]
    return LinearStructure(n, n, (), coeff, [(i, 0) for i in range(n)])


def companion_family(monic_coeffs: Sequence[int]) -> FormFamily:
    """The norm-form family of `companion_structure`, with its closure as
    its law."""
    st = companion_structure(monic_coeffs)
    n = st.n
    return FormFamily(
        f"companion{n}",
        "norm form of an algebraic integer via its companion matrix",
        "pair", (), tuple(f"x{i + 1}" for i in range(n)), n, structure=st)
