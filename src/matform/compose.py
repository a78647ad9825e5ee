"""Symbolic identity verification of composition laws, and the group law on
integer solutions of f = 1.

A law is a linstruct.MultilinearMap (re-exported here with its errors), the
coefficient tensor of a bilinear (k=2) or trilinear (k=3) map: output_i =
sum lambda_{i,j1..jk} * arg1_{j1} * ... * argk_{jk}, with entries
polynomial in named parameters.  `verify_identity` decides an identity
f(x)f(y)[f(z)] = f(map(x, y[, z])) by expanding its residual termwise.
A catalog family's own law needs no expansion: it is its structure's
closure, A(x)A(y)[A(z)] = A(law) entry by entry, and its form is det A,
so det multiplicativity proves it (`FormFamily.verify`).  The expansion
decides every other map and form.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple, Union

# the law and its two errors are defined in linstruct and re-exported here
from .linstruct import DimensionMismatch, MultilinearMap, WrongFamilyKind
from .polyring import PolyError, Polynomial, VarTable, no_int_str_limit


class NotAUnit(PolyError):
    """Inversion asked for a vector with f(x) != 1 (solve is non-integral)."""


class SingularMap(PolyError):
    """The linear system defining the inverse is singular."""


class ZeroResidual(NamedTuple):
    """Certificate that the composition identity holds exactly.

    `method` records the proof route: "matrix" for a catalog family's own
    law, its structure's closure combined with det multiplicativity
    (`FormFamily.verify`), "expand" for a termwise expansion of
    f(args...) - f(map(args...)) (`verify_identity`).  `reason` says what
    the proof rests on.
    """
    method: str
    reason: str


# -- identity verification -------------------------------------------------


def verify_identity(form: Polynomial, cmap: MultilinearMap,
                    coord_names: Sequence[str]
                    ) -> Union[ZeroResidual, Polynomial]:
    """Decide whether f(x)f(y)[f(z)] == f(map(x,y[,z])) identically by
    expanding the residual f(x)f(y)[f(z)] - f(map(x,y[,z])) termwise.
    Returns ZeroResidual("expand", ...) where it is zero, else the
    residual, a polynomial in the map's parameters and the coordinates
    prefixed x_, y_[, z_]."""
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
    residual = product - form.substitute(
        {name: out for name, out in zip(coord_names, outputs)})
    if not residual.is_zero():
        return residual
    return ZeroResidual("expand", "whole form expanded")


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
