"""Polynomial helpers that only the tests use: exact evaluation at a named
point, coefficient and degree queries, the graded-lex key and the dict
form that `Polynomial.to_json` writes as text (the oracles for its order
and its bytes), reading that form back, a matrix embedded in a larger
table (to multiply matrices at different coordinates), and the first-row
cofactor determinant, the oracle for `PolyMatrix.determinant`.
"""

import operator
from typing import Mapping

from matform.polyring import (Monomial, PolyMatrix, Polynomial,
                              UnassignedVariable, UnknownVariable, VarTable,
                              VarTableMismatch, _exponents)


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
        term = entry * minor
        acc = acc + (term if j % 2 == 0 else -term)
    return acc
