"""Symbolic identity verification of composition laws, and the group law on
integer solutions of f = 1.

A law is a linstruct.MultilinearMap (re-exported here with its error
DimensionMismatch), the coefficient tensor of a bilinear (k=2) or
trilinear (k=3) map: output_i = sum lambda_{i,j1..jk} * arg1_{j1} * ... *
argk_{jk}, with entries polynomial in named parameters.  At integer
parameters, `MultilinearMap.argument_matrix` is its one integer
linearization; `invert` solves it by one fraction-free elimination.
`verify_identity` decides an identity f(x)f(y)[f(z)] = f(map(x, y[, z]))
by expanding its residual termwise.
A catalog family's own law needs no expansion: it is its structure's
closure, A(x)A(y)[A(z)] = A(law) entry by entry, and its form is det A,
so det multiplicativity proves it (`FormFamily.verify`).  The expansion
decides every other map and form.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple, Sequence, Tuple, Union

# the law and its error are defined in linstruct and re-exported here
from .linstruct import DimensionMismatch, MultilinearMap
from .polyring import PolyError, Polynomial, bareiss, no_int_str_limit


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
    residual, a polynomial over the table of the map's forms in the
    coordinates prefixed x_, y_[, z_]: its parameters, then those."""
    prefixes = ("x", "y", "z")[:cmap.k]
    coord_sets = [tuple(f"{p}_{name}" for name in coord_names) for p in prefixes]
    outputs = cmap.forms(coord_sets)
    table = outputs[0].table  # the map's parameters, then the coordinates
    product = table.one()
    for cs in coord_sets:
        product = product * form.substitute(
            {name: table.var(alias) for name, alias in zip(coord_names, cs)})
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
    """The y with map(x, y) = N y = (1, 0, ..., 0), N =
    cmap.argument_matrix((x, None), 1) (a bilinear, parameter-free map):
    one Bareiss elimination of [N | e_1], then exact back-substitution of
    the integers D y_i, D = +-det N (Cramer).  Raises SingularMap when
    det N = 0 and NotAUnit, with y_i in lowest terms, at the first
    non-integral y_i (there is one exactly when f(x) is not a unit)."""
    h = cmap.h
    a = [row + [int(i == 0)] for i, row in
         enumerate(cmap.argument_matrix((x, None), 1))]
    det = bareiss(a, h) and a[h - 1][h - 1]
    if det == 0:
        raise SingularMap("the inverse's linear system has determinant 0")
    scaled = [0] * h  # D y, from the last row up
    for k in reversed(range(h)):
        scaled[k] = (det * a[k][h] - sum(
            a[k][j] * scaled[j] for j in range(k + 1, h))) // a[k][k]
    for num in scaled:
        g = gcd(num, det) * (1 if det > 0 else -1)
        if g != det:
            with no_int_str_limit():
                raise NotAUnit(
                    f"non-integral inverse component {num // g}/{det // g}")
    return tuple(num // det for num in scaled)
