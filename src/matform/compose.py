"""Symbolic identity verification of composition laws, and the group law on
integer solutions of f = 1.

A law is a linstruct.MultilinearMap (re-exported here with its errors), the
coefficient tensor of a bilinear (k=2) or trilinear (k=3) map: output_i =
sum lambda_{i,j1..jk} * arg1_{j1} * ... * argk_{jk}, with entries
polynomial in named parameters.  Identity verification is exact and takes
one of two routes.  Where the form is the determinant of a matrix family in
the map's own parameters, the proof goes through that family: the
entrywise product identity A(x)A(y) = A(z) is checked symbolically, and
multiplicativity of the determinant does the rest.  A form that is det(A)
by definition (passed as None) is never expanded; a form given explicitly
is checked to equal det(A).  Otherwise the residual of the whole form is
expanded termwise.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

# the law and its two errors are defined in linstruct and re-exported here
from .linstruct import (DimensionMismatch, LinearStructure, MultilinearMap,
                        NotClosed, WrongFamilyKind)
from .polyring import PolyError, Polynomial, VarTable, no_int_str_limit


class NotAUnit(PolyError):
    """Inversion asked for a vector with f(x) != 1 (solve is non-integral)."""


class SingularMap(PolyError):
    """The linear system defining the inverse is singular."""


class ZeroResidual(NamedTuple):
    """Certificate that the composition identity holds exactly.

    `method` records the proof route: "expand" for a termwise expansion of
    f(args...) - f(map(args...)), "matrix" for the entrywise matrix-product
    identity combined with det multiplicativity (and form == det where the
    form was given rather than defined as det).  `reason` names the rule
    that chose the route and what was expanded.
    """
    method: str
    reason: str


# -- identity verification -------------------------------------------------


def _expand_residual(form: Polynomial, cmap: MultilinearMap,
                     coord_names: Sequence[str]) -> Polynomial:
    """f(x)f(y)[f(z)] - f(map(x,y[,z])), fully expanded."""
    prefixes = ("x", "y", "z")[:cmap.k]
    coord_sets = [tuple(f"{p}_{name}" for name in coord_names) for p in prefixes]
    names = list(cmap.params)
    for cs in coord_sets:
        names.extend(cs)
    table = VarTable(names)
    product = table.one()
    for cs in coord_sets:
        product = product * form.substitute(
            {name: table.var(alias) for name, alias in zip(coord_names, cs)})
    outputs = cmap.forms(coord_sets, table=table)
    composed = form.substitute(
        {name: out for name, out in zip(coord_names, outputs)})
    return product - composed


def verify_identity(form: Optional[Polynomial], cmap: MultilinearMap,
                    coord_names: Sequence[str],
                    structure: Optional[LinearStructure] = None
                    ) -> Union[ZeroResidual, Polynomial]:
    """Decide whether f(x)f(y)[f(z)] == f(map(x,y[,z])) identically.

    `form=None` stands for det(structure); the determinant is then computed
    only where a route needs the polynomial itself.  The route follows from
    the arguments' structure, not their size:
    - "matrix" when `structure` is in the map's own parameters
      (structure.params == cmap.params).  It checks that the matrix family
      closes (read back on its first row) with `cmap` as its
      law, and det(A) == form where a form is given; multiplicativity of
      the determinant then proves the identity.
      Where the structure induces another map the route falls back to
      expansion.
    - otherwise "expand" of the whole form.
    Returns ZeroResidual on success; on failure, the nonzero residual
    polynomial ("expand"), or the offending entry residual or det - form
    ("matrix").
    """
    if form is None and structure is None:
        raise ValueError("form=None stands for det(structure): pass one")

    def expand(rule: str) -> Union[ZeroResidual, Polynomial]:
        residual = _expand_residual(
            form if form is not None else structure.form(coord_names),
            cmap, coord_names)
        if not residual.is_zero():
            return residual
        return ZeroResidual("expand", f"{rule}; whole form expanded")

    if structure is None or structure.params != cmap.params:
        return expand("no structure in the map's parameters")
    derived = structure.closure(cmap.k)
    if isinstance(derived, NotClosed):
        # no residual where a divisor does not divide: 1 on det's table
        return derived.witness.residual or \
            VarTable(structure.params + tuple(coord_names)).one()
    if derived != cmap:
        # The supplied map is not the one the matrix family induces; fall
        # back to the honest expansion to produce a residual.
        return expand("structure induces another map")
    if form is not None:
        det = structure.form(coord_names)
        if det.table != form.table:
            det = det.embed(form.table)
        if det != form:
            return det - form
    return ZeroResidual("matrix", "structure in the map's parameters")


# -- group law on f = 1 -----------------------------------------------------


def identity_element(h: int) -> Tuple[int, ...]:
    """(1, 0, ..., 0): the unit of the solution group of every catalog family."""
    return (1,) + (0,) * (h - 1)


def invert(cmap: MultilinearMap, x: Sequence[int]) -> Tuple[int, ...]:
    """The y with map(x, y) = (1, 0, ..., 0), by exact rational solve.

    Solves N y = e for N = cmap.argument_matrix(x), so the map must be
    bilinear and parameter-free.  Raises NotAUnit when the solution is not
    integral (which happens exactly when f(x) is not a unit) and
    SingularMap when the system is singular.
    """
    N = cmap.argument_matrix(x)
    e = identity_element(cmap.h)
    y = _solve_exact(N, list(e))
    out = []
    for v in y:
        if v.denominator != 1:
            with no_int_str_limit():
                raise NotAUnit(f"non-integral inverse component {v}")
        out.append(int(v))
    return tuple(out)


def _solve_exact(matrix: Sequence[Sequence[int]],
                 rhs: Sequence[int]) -> List["Fraction"]:
    from fractions import Fraction  # only `invert` needs it
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(r)]
         for row, r in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col]), None)
        if pivot is None:
            raise SingularMap(f"no pivot in column {col}")
        a[col], a[pivot] = a[pivot], a[col]
        inv = a[col][col]
        a[col] = [v / inv for v in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                factor = a[i][col]
                a[i] = [v - factor * w for v, w in zip(a[i], a[col])]
    return [a[i][n] for i in range(n)]
