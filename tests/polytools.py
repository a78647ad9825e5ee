"""Polynomial helpers that only the tests use: exact evaluation at a named
point, coefficient and degree queries, the graded-lex key and the dict
form that `Polynomial.to_json` writes as text (the oracles for its order
and its bytes), reading that form back, a matrix embedded in a larger
table (to multiply matrices at different coordinates), and the first-row
cofactor determinant, the oracle for `PolyMatrix.determinant`.

The tests have their own product kernel, over exponent tuples: `mul` of
two polynomials, `matmul` of two matrices, and `specialized`.  src/ takes
every product on packed monomials, so an oracle that multiplies with
these shares no product kernel with the code it checks.
"""

import operator
from typing import Dict, Mapping

from matform.polyring import (Monomial, PolyMatrix, Polynomial,
                              UnassignedVariable, UnknownVariable, VarTable,
                              VarTableMismatch, _exponents)


def _mul_terms(out: Dict[Monomial, int], a: Mapping[Monomial, int],
               b: Mapping[Monomial, int]) -> Dict[Monomial, int]:
    """out += a * b over exponent tuples, in place and returned; keeps
    `out` free of zeros."""
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(map(operator.add, m1, m2))
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def mul(a: Polynomial, b: Polynomial) -> Polynomial:
    """a * b over exponent tuples (the tests' own product)."""
    if a.table != b.table:
        raise VarTableMismatch(f"{b.table!r} differs from {a.table!r}")
    return Polynomial(a.table, _mul_terms({}, a.terms, b.terms))


def matmul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """a @ b over exponent tuples (the tests' own matrix product)."""
    if a.n != b.n or a.table != b.table:
        raise ValueError("matrix orders or tables differ")

    def entry(i: int, j: int) -> Polynomial:
        out: Dict[Monomial, int] = {}
        for k in range(a.n):
            _mul_terms(out, a[i, k].terms, b[k, j].terms)
        return Polynomial(a.table, out)
    return PolyMatrix([[entry(i, j) for j in range(a.n)] for i in range(a.n)])


def specialized(poly: Polynomial, values: Mapping[str, int]) -> Polynomial:
    """`poly` with integers for the variables in `values`, which leave
    the table: each term's coefficient times the values' powers, over
    exponent tuples restricted to the kept variables."""
    keep = [i for i, n in enumerate(poly.table.names) if n not in values]
    at = {poly.table.index(n): v for n, v in values.items()}
    out: Dict[Monomial, int] = {}
    for m, c in poly.terms.items():
        for i, v in at.items():
            c *= v ** m[i]
        key = tuple(m[i] for i in keep)
        out[key] = out.get(key, 0) + c
    return Polynomial(VarTable(poly.table.names[i] for i in keep), out)


def degree_in(poly: Polynomial, name: str) -> int:
    """Largest exponent of `name`; -1 for the zero polynomial."""
    i = poly.table.index(name)
    return max((m[i] for m in poly.terms), default=-1)


def coefficient_of(poly: Polynomial, monomial: Monomial) -> int:
    """Coefficient of an exponent tuple, 0 if the term is absent."""
    if len(monomial) != len(poly.table):
        raise VarTableMismatch("exponent tuple length != table size")
    return poly.terms.get(tuple(monomial), 0)


def as_int(poly: Polynomial) -> int:
    """The value of a constant polynomial; raises if non-constant."""
    if any(map(any, poly.terms)):
        raise ValueError("polynomial is not constant")
    return poly.constant_term()


def eval_int(poly: Polynomial, point: Mapping[str, int]) -> int:
    """Exact integer value at a fully assigned integer point."""
    values = []
    for name in poly.table.names:
        if name not in point:
            raise UnassignedVariable(name)
        values.append(operator.index(point[name]))
    extra = set(point) - set(poly.table.names)
    if extra:
        raise UnknownVariable(sorted(extra)[0])
    return poly.eval_vector(values)


def grlex_key(m: Monomial) -> tuple:
    """Sort key of the canonical order: total degree, then lex."""
    return (sum(m), m)


def json_obj(poly: Polynomial) -> dict:
    """The document `poly.to_json()` writes, built as a dict per term: its
    json.dumps is the text that `to_json` must equal byte for byte."""
    return {"vars": list(poly.table.names),
            "terms": [{"c": str(c), "e": list(m)}
                      for m, c in poly.sorted_terms()]}


def from_json_obj(obj: dict) -> Polynomial:
    """The polynomial of a parsed `to_json` document; bad or repeated
    exponents raise, and so does a coefficient that is not an int or its
    decimal string."""
    table = VarTable(obj["vars"])
    pairs = [(_exponents(t["e"], len(table)), int(str(t["c"])))
             for t in obj["terms"]]
    if len({m for m, _ in pairs}) != len(pairs):
        raise ValueError("repeated monomial in the terms")
    return Polynomial(table, dict(pairs))


def embedded(matrix: PolyMatrix, table: VarTable) -> PolyMatrix:
    """`matrix` with every entry over `table`, which has all its names."""
    return PolyMatrix([[p.embed(table) for p in row] for row in matrix.entries])


def determinant_cofactor(matrix: PolyMatrix) -> Polynomial:
    """Determinant by first-row cofactor expansion (reference oracle)."""
    n, rows = matrix.n, matrix.entries
    if n == 1:
        return rows[0][0]
    acc = matrix.table.zero()
    for j in range(n):
        entry = rows[0][j]
        if entry.is_zero():
            continue
        minor = determinant_cofactor(PolyMatrix([
            [rows[i][k] for k in range(n) if k != j] for i in range(1, n)]))
        term = mul(entry, minor)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc
