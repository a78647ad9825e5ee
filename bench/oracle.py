"""Answer checks that do not reuse matform's arithmetic.

The families' *definitions* (structure coefficients, printed forms, factor
polynomials) are read from the catalog, but every value is computed here:
polynomials are evaluated term by term, matrices are assembled from the
structure's coefficient polynomials, and determinants use this module's own
fraction-free elimination.  matform's `evaluate`, `matrix_of`,
`int_matrix_determinant` and `eval_vector` are never called.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from matform import catalog

IntMatrix = List[List[int]]


def poly_value(poly, env: Dict[str, int]) -> int:
    """Value of a matform Polynomial at integer values for all its names."""
    values = [env[name] for name in poly.table.names]
    total = 0
    for monomial, coeff in poly.terms.items():
        term = coeff
        for v, e in zip(values, monomial):
            if e:
                term *= v ** e
        total += term
    return total


def det(rows: Sequence[Sequence[int]]) -> int:
    """Integer determinant by Bareiss elimination with row pivoting."""
    a = [list(row) for row in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


class Evaluator:
    """f(v) for one family at fixed numeric parameters.

    Families whose structure shares the family's parameters are evaluated
    as det A(v); the structure-less sextic_uv as the product of its two
    factor forms.
    """

    def __init__(self, name: str, params: Sequence[int]):
        fam = catalog.family(name)
        self.env = dict(zip(fam.param_names, params))
        st = fam.structure
        if st is not None and st.params == fam.param_names:
            # A(v) = sum_r v_r * C_r with C_r numeric
            self.basis = [[[poly_value(st.coeff[i][j][r], self.env)
                            for j in range(st.n)] for i in range(st.n)]
                          for r in range(st.h)]
            self.factors = None
        else:
            self.basis = None
            self.factors = fam.factors
            self.coord_names = fam.coord_names

    def matrix(self, v: Sequence[int]) -> IntMatrix:
        n = len(self.basis[0])
        return [[sum(c[i][j] * x for c, x in zip(self.basis, v) if c[i][j])
                 for j in range(n)] for i in range(n)]

    def __call__(self, v: Sequence[int]) -> int:
        if self.basis is not None:
            return det(self.matrix(v))
        env = dict(self.env, **dict(zip(self.coord_names, v)))
        total = 1
        for f in self.factors:
            total *= poly_value(f, env)
        return total


def printed_quartic_solutions(params: Sequence[int], bound: int
                              ) -> List[Tuple[int, ...]]:
    """All points of the box |x_i| <= bound where the transcribed quartic
    (not a determinant) equals 1, enumerated in reverse order."""
    printed = catalog.family("quartic4x4").printed_form
    env = dict(zip(("m", "n", "p", "q"), params))
    names = printed.table.names
    coords = [k for k, name in enumerate(names) if name not in env]
    # collapse parameters into one integer coefficient per x-monomial
    coeffs: Dict[Tuple[int, ...], int] = {}
    for monomial, c in printed.terms.items():
        for k, name in enumerate(names):
            if name in env and monomial[k]:
                c *= env[name] ** monomial[k]
        key = tuple(monomial[k] for k in coords)
        coeffs[key] = coeffs.get(key, 0) + c
    expr = " + ".join(
        f"({c})" + "".join(f"*x{k}**{e}" for k, e in enumerate(key) if e)
        for key, c in coeffs.items() if c) or "0"
    # one compiled expression: term-by-term evaluation of every box point
    # would dominate the run's checking time
    f = eval(f"lambda x0, x1, x2, x3: {expr}")
    box = range(bound, -bound - 1, -1)
    return sorted((a, b, c, d) for a in box for b in box for c in box
                  for d in box if f(a, b, c, d) == 1)
