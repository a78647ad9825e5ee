"""Matrix families whose entries are linear forms in coordinate variables.

A LinearStructure describes an n x n matrix A(x_1..x_h) whose (i,j) entry is
sum_r L[i][j][r] * x_r, with each L[i][j][r] a polynomial in named integer
parameters.  Closure of the family under matrix multiplication (for pairs or
for triples) is decided fully symbolically: coordinates and parameters are
ring variables, never sampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .polyring import (PolyError, PolyMatrix, Polynomial, VarTable, _mul_into)


class NameCollision(PolyError):
    """Coordinate names collide with parameter names."""


class ParameterCollision(PolyError):
    """Outer and inner structures share a parameter name."""


@dataclass(frozen=True)
class NotInSpan:
    """Witness that a matrix does not carry the structure.

    `entry` is the first offending (row, col), 0-based; `residual` is the
    difference between the matrix entry and its reconstruction from the
    extracted coordinates (None when extraction itself failed on a
    non-exact division).
    """
    entry: Tuple[int, int]
    residual: Optional[Polynomial]
    reason: str  # "division" or "mismatch"


@dataclass(frozen=True)
class NotClosed:
    """Witness that a structure is not closed under the attempted product."""
    order: int  # 2 for pairwise, 3 for triple
    witness: NotInSpan


@dataclass(frozen=True)
class ClosureCertificate:
    """Successful closure of `order` factors: A(x) A(y) [A(z)] = A(w)
    entrywise, with w read back by the structure's own recipe.

    `outputs[r]` is w_r, a polynomial multilinear in the coordinate sets,
    with coefficients polynomial in the structure's parameters.
    """
    order: int
    coord_sets: Tuple[Tuple[str, ...], ...]
    outputs: Tuple[Polynomial, ...]


Divisor = Tuple[int, Tuple[Tuple[str, int], ...]]  # c * monomial: t is (1, (("t", 1),))

UNIT: Divisor = (1, ())


def _multilinear_coeffs(poly: Polynomial, ptable: VarTable,
                        coord_sets: Sequence[Sequence[str]]
                        ) -> Dict[Tuple[int, ...], Polynomial]:
    """{(j1..jk): c} with poly = sum of c * s1[j1] * ... * sk[jk] over the
    coordinate sets s1..sk, each c a polynomial over `ptable`.

    Raises ValueError when a term is not of degree one in every set or
    involves a variable outside the parameters and coordinates.
    """
    table = poly.table
    set_idx = [[table.index(name) for name in cs] for cs in coord_sets]
    pidx = [table.index(name) for name in ptable.names]
    k = len(coord_sets)
    out: Dict[Tuple[int, ...], Dict[Tuple[int, ...], int]] = {}
    for m, c in poly.terms.items():
        js = []
        for idxs in set_idx:
            active = [j for j, pos in enumerate(idxs) if m[pos]]
            if len(active) != 1 or m[idxs[active[0]]] != 1:
                raise ValueError("not multilinear in the coordinate sets")
            js.append(active[0])
        pm = tuple(m[pos] for pos in pidx)
        if sum(m) != k + sum(pm):
            raise ValueError("involves variables outside params/coords")
        out.setdefault(tuple(js), {})[pm] = c
    return {js: Polynomial._own(ptable, terms) for js, terms in out.items()}


@dataclass(frozen=True)
class ExtractionRecipe:
    """Designated matrix positions from which coordinates are read back.

    `positions[r]` is a 0-based (row, col); `divisors[r]` is the Divisor
    (coefficient, ((name, exponent), ...)) by which the entry must be
    exactly divisible.  At the listed positions the structure's coefficient
    matrix must be diagonal with these divisors.
    """
    positions: Tuple[Tuple[int, int], ...]
    divisors: Tuple[Divisor, ...]

    @classmethod
    def first_row(cls, h: int) -> "ExtractionRecipe":
        return cls(tuple((0, j) for j in range(h)), (UNIT,) * h)

    @classmethod
    def first_column(cls, h: int) -> "ExtractionRecipe":
        return cls(tuple((i, 0) for i in range(h)), (UNIT,) * h)

    def specialize(self, values: Mapping[str, int]) -> "ExtractionRecipe":
        """The recipe with every divisor evaluated at integer parameter
        values (a divisor may evaluate to 0)."""
        divisors = []
        for coeff, monomial in self.divisors:
            for name, e in monomial:
                coeff *= index(values[name]) ** e
            divisors.append((coeff, ()))
        return ExtractionRecipe(self.positions, tuple(divisors))


class LinearStructure:
    """n x n matrix family with entries linear in h coordinate variables.

    `recipe` says where coordinates are read back from a product and what
    each entry is divided by; it is part of the family's definition and
    defaults to the first row with unit divisors.
    """

    def __init__(self, n: int, h: int, params: Sequence[str],
                 coeff: Sequence[Sequence[Sequence[Polynomial]]],
                 recipe: Optional[ExtractionRecipe] = None):
        self.n = n
        self.h = h
        self.recipe = recipe or ExtractionRecipe.first_row(h)
        self.param_table = VarTable(params)
        if len(coeff) != n or any(len(row) != n for row in coeff):
            raise ValueError("coefficient tensor must be n x n")
        for row in coeff:
            for cell in row:
                if len(cell) != h:
                    raise ValueError("each cell needs one coefficient per coordinate")
                for p in cell:
                    if p.table != self.param_table:
                        raise ValueError("coefficients must live over the parameter table")
        self.coeff = tuple(tuple(tuple(cell) for cell in row) for row in coeff)
        self._form_cache: Dict[Tuple[str, ...], Polynomial] = {}
        self._closure_cache: Dict[int, object] = {}
        # the map each certificate induces, kept by compose.induced_map
        self._induced: Dict[int, object] = {}
        self._cells: Optional[list] = None  # kept by matrix_of

    @property
    def params(self) -> Tuple[str, ...]:
        return self.param_table.names

    @classmethod
    def from_matrix(cls, params: Sequence[str], coords: Sequence[str],
                    entries: Sequence[Sequence[Polynomial]],
                    recipe: Optional[ExtractionRecipe] = None
                    ) -> "LinearStructure":
        """Build a structure from a symbolic matrix over params + coords.

        Every entry must be homogeneous linear in the coordinates with
        coefficients polynomial in the parameters.
        """
        ptable = VarTable(params)
        cells = [[_multilinear_coeffs(entry, ptable, (coords,)) for entry in row]
                 for row in entries]
        coeff = [[[cell.get((r,), ptable.zero()) for r in range(len(coords))]
                  for cell in row]
                 for row in cells]
        return cls(len(entries), len(coords), params, coeff, recipe)

    # -- instantiation ----------------------------------------------------

    def instantiate(self, coord_names: Sequence[str],
                    table: Optional[VarTable] = None) -> PolyMatrix:
        """The matrix A(coord_names) over params + coord_names.

        `table` may supply a larger shared VarTable (it must contain all
        parameters and coordinate names).
        """
        coord_names = tuple(coord_names)
        if len(coord_names) != self.h:
            raise ValueError(f"expected {self.h} coordinate names")
        if len(set(coord_names)) != self.h:
            raise NameCollision("coordinate names must be distinct")
        if set(coord_names) & set(self.params):
            raise NameCollision("coordinate names collide with parameters")
        if table is None:
            table = VarTable(self.params + coord_names)
        flat = [entry for _, entry in
                self._combine(table, [table.var(c) for c in coord_names])]
        return PolyMatrix([flat[i * self.n:(i + 1) * self.n]
                           for i in range(self.n)])

    def _combine(self, table: VarTable, values: Sequence[Polynomial]):
        """The entries ((i, j), sum_r L[i][j][r] * values[r]) of A(values)
        over `table`, row by row, each accumulated in place."""
        for i, row in enumerate(self.coeff):
            for j, cell in enumerate(row):
                acc: Dict[Tuple[int, ...], int] = {}
                for cr, v in zip(cell, values):
                    if cr.terms:
                        _mul_into(acc, cr.embed(table).terms, v.terms)
                yield (i, j), Polynomial._own(table, acc)

    def matrix_of(self, point: Sequence[int]) -> List[List[int]]:
        """Integer matrix A(point) of a parameter-free structure (one with
        parameters raises ValueError: `specialize` it first).

        The integer cells, [(r, c), ...] with A[i][j] = sum of c * point[r],
        are derived on first use and kept.
        """
        if len(point) != self.h:
            raise ValueError(f"expected {self.h} coordinates")
        if self._cells is None:
            if self.params:
                raise ValueError(f"structure has parameters "
                                 f"{','.join(self.params)}; specialize it first")
            self._cells = [[[(r, c.constant_term())
                             for r, c in enumerate(cell) if not c.is_zero()]
                            for cell in row]
                           for row in self.coeff]
        pt = list(map(index, point))
        return [[sum(c * pt[r] for r, c in cell) for cell in row]
                for row in self._cells]

    def form(self, coord_names: Sequence[str]) -> Polynomial:
        """det(A(coord_names)): the degree-n form carried by the family.

        Cached per coordinate tuple; the symbolic determinants of the larger
        families are expensive and requested repeatedly.
        """
        key = tuple(coord_names)
        got = self._form_cache.get(key)
        if got is None:
            got = self.instantiate(key).determinant()
            self._form_cache[key] = got
        return got

    def specialize(self, param_values: Sequence[int]) -> "LinearStructure":
        """Substitute integer values for all parameters (result has none),
        in the coefficients and in the recipe's divisors."""
        if len(param_values) != len(self.params):
            raise ValueError(f"expected {len(self.params)} parameter values")
        pv = [index(v) for v in param_values]
        empty = VarTable(())
        coeff = [[[empty.const(self.coeff[i][j][r].eval_vector(pv))
                   for r in range(self.h)]
                  for j in range(self.n)]
                 for i in range(self.n)]
        recipe = self.recipe.specialize(dict(zip(self.params, pv)))
        return LinearStructure(self.n, self.h, (), coeff, recipe)

    def to_json_obj(self) -> dict:
        """The coefficients only (the recipe is not written)."""
        return {
            "n": self.n,
            "h": self.h,
            "params": list(self.params),
            "coeff": [[[self.coeff[i][j][r].to_json_obj()
                        for r in range(self.h)]
                       for j in range(self.n)]
                      for i in range(self.n)],
        }

    def rename_params(self, mapping: Dict[str, str]) -> "LinearStructure":
        """Same structure with parameters renamed, in the recipe's divisors
        too."""
        new_names = tuple(mapping.get(p, p) for p in self.params)
        table = VarTable(new_names)
        coeff = [[[Polynomial(table, self.coeff[i][j][r].terms)
                   for r in range(self.h)]
                  for j in range(self.n)]
                 for i in range(self.n)]
        divisors = tuple((c, tuple((mapping.get(x, x), e) for x, e in mono))
                         for c, mono in self.recipe.divisors)
        recipe = ExtractionRecipe(self.recipe.positions, divisors)
        return LinearStructure(self.n, self.h, new_names, coeff, recipe)

    # -- extraction -------------------------------------------------------

    def extract_coordinates(self, matrix: PolyMatrix):
        """Read coordinates back from `matrix` by the structure's recipe,
        or report NotInSpan.

        Returns the list [z_1..z_h] such that instantiating this structure
        at the z's reproduces `matrix` exactly; otherwise a NotInSpan
        carrying the first offending entry.
        """
        if matrix.n != self.n:
            raise ValueError("matrix order differs from structure order")
        table = matrix.table
        outputs: List[Polynomial] = []
        for (i, j), (scale, monomial) in zip(self.recipe.positions,
                                             self.recipe.divisors):
            entry = matrix[i, j]
            if not scale:  # never read coordinates off a zero divisor
                return NotInSpan(entry=(i, j), residual=None, reason="division")
            need = [0] * len(table)
            for name, e in monomial:
                need[table.index(name)] = e
            divided: Dict[Tuple[int, ...], int] = {}
            for m, c in entry.terms.items():
                exps = tuple(a - b for a, b in zip(m, need))
                if c % scale or min(exps) < 0:
                    return NotInSpan(entry=(i, j), residual=None, reason="division")
                divided[exps] = c // scale
            outputs.append(Polynomial(table, divided))
        for (i, j), rebuilt in self._combine(table, outputs):
            residual = matrix[i, j] - rebuilt
            if not residual.is_zero():
                return NotInSpan(entry=(i, j), residual=residual, reason="mismatch")
        return outputs

    # -- closure checks ---------------------------------------------------

    def _coord_sets(self, count: int) -> Tuple[Tuple[str, ...], ...]:
        prefixes = ("x", "y", "z")[:count]
        return tuple(
            tuple(f"{p}{i + 1}" for i in range(self.h)) for p in prefixes)

    def verify_pair_closure(self):
        """Symbolically check A(x) A(y) = A(z) for bilinear z.

        Returns a ClosureCertificate carrying the z-forms, or NotClosed.
        """
        return self._closure(2)

    def verify_triple_closure(self):
        """Symbolically check A(x) A(y) A(z) = A(w) for trilinear w.

        Returns a ClosureCertificate carrying the w-forms, or NotClosed.
        """
        return self._closure(3)

    def _closure(self, order: int):
        """The closure result of `order` factors, cached per order:
        deriving a family's map and proving its identity by the matrix
        route both need the same certificate."""
        got = self._closure_cache.get(order)
        if got is None:
            sets = self._coord_sets(order)
            table = VarTable(self.params + sum(sets, ()))
            product = self.instantiate(sets[0], table)
            for cs in sets[1:]:
                product = product @ self.instantiate(cs, table)
            result = self.extract_coordinates(product)
            if isinstance(result, NotInSpan):
                got = NotClosed(order=order, witness=result)
            else:
                got = ClosureCertificate(order=order, coord_sets=sets,
                                         outputs=tuple(result))
            self._closure_cache[order] = got
        return got

    # -- block lifting ------------------------------------------------------

    def block_compose(self, inner: "LinearStructure") -> "LinearStructure":
        """Lift to an (n*m) x (n*m) structure with blocks P_ij = sum_r L[i][j][r] A_r.

        A_r is `inner` instantiated on coordinate slice r; coordinates are
        slice-major (all inner coordinates of outer slot 1, then slot 2, ...).
        Coordinate (r, s) of the lift is read at inner position s of the
        block at outer position r, divided by the product of the two
        factors' divisors.
        """
        if set(self.params) & set(inner.params):
            raise ParameterCollision(sorted(set(self.params) & set(inner.params))[0])
        n, m = self.n, inner.n
        H, hin = self.h, inner.h
        params = self.params + inner.params
        ptable = VarTable(params)
        zero = ptable.zero()
        N = n * m
        coeff = [[[zero for _ in range(H * hin)] for _ in range(N)] for _ in range(N)]
        for i in range(n):
            for j in range(n):
                for r in range(H):
                    outer_c = self.coeff[i][j][r]
                    if outer_c.is_zero():
                        continue
                    oc = outer_c.embed(ptable)
                    for a in range(m):
                        for b in range(m):
                            for s in range(hin):
                                inner_c = inner.coeff[a][b][s]
                                if inner_c.is_zero():
                                    continue
                                cell = coeff[i * m + a][j * m + b]
                                cell[r * hin + s] = cell[r * hin + s] + oc * inner_c.embed(ptable)
        outer_r, inner_r = self.recipe, inner.recipe
        recipe = ExtractionRecipe(
            tuple((oi * m + ii, oj * m + ij) for oi, oj in outer_r.positions
                  for ii, ij in inner_r.positions),
            tuple((oc * ic, om + im)  # params are disjoint
                  for oc, om in outer_r.divisors
                  for ic, im in inner_r.divisors))
        return LinearStructure(N, H * hin, params, coeff, recipe)

    def with_param_order(self, names: Sequence[str]) -> "LinearStructure":
        """Same structure with the parameter table reordered to `names`."""
        names = tuple(names)
        if set(names) != set(self.params) or len(names) != len(self.params):
            raise ValueError("names must be a permutation of the parameters")
        table = VarTable(names)
        coeff = [[[self.coeff[i][j][r].embed(table) for r in range(self.h)]
                  for j in range(self.n)]
                 for i in range(self.n)]
        return LinearStructure(self.n, self.h, names, coeff, self.recipe)


def companion_structure(monic_coeffs: Sequence[int]) -> LinearStructure:
    """Structure of x1*I + x2*M + ... + xn*M^(n-1) for the companion matrix M
    of x^n + a_1 x^(n-1) + ... + a_n.  Its determinant is the norm form of
    the corresponding algebraic integer, so pairwise closure always holds;
    its recipe reads coordinates from the first column.
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
    return LinearStructure(n, n, (), coeff, ExtractionRecipe.first_column(n))
