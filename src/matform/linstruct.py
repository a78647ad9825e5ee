"""Matrix families whose entries are linear forms in coordinate variables.

A LinearStructure describes an n x n matrix A(x_1..x_h) whose (i,j) entry is
sum_r L[i][j][r] * x_r, with each L[i][j][r] a polynomial in named integer
parameters: A(x) = sum_r x_r E_r for the basis matrices E_r = L[.][.][r].
Closure under matrix multiplication is a fact about the basis products:
A(x)A(y) = A(z) for bilinear z exactly when every E_r E_s equals
sum_t c_rs^t E_t, each c_rs^t read off the product by the structure's
recipe.  The c's are the structure constants of the algebra the matrices
span, and they are the coefficient table of the composition law.  A closed
pair table gives the triple table without a matrix product, as
c_rsu^t = sum_v c_rs^v c_vu^t; a structure closed only for triples has its
products (E_r E_s) E_u read the same way.  Every product, division and
entrywise check is exact over the parameters, never sampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import index
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .polyring import (Monomial, PolyError, PolyMatrix, Polynomial, VarTable,
                       _mul_into)


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


CoeffTable = Dict[Tuple[int, Tuple[int, ...]], Polynomial]  # {(t, (r, s[, u])): c}


@dataclass(frozen=True)
class ClosureCertificate:
    """Successful closure of `order` factors: A(x) A(y) [A(z)] = A(w)
    entrywise, with w read back by the structure's own recipe.

    `coeff` is the structure-constant table: c = coeff[(t, (r, s[, u]))],
    a polynomial over `params`, with E_r E_s [E_u] = sum_t c E_t (zero
    entries are left out).  `outputs[t]` is w_t, the same table written as
    a polynomial multilinear in the coordinate sets.
    """
    order: int
    coord_sets: Tuple[Tuple[str, ...], ...]
    params: Tuple[str, ...]
    coeff: CoeffTable

    @cached_property
    def outputs(self) -> Tuple[Polynomial, ...]:
        table = VarTable(self.params + sum(self.coord_sets, ()))
        return tuple(multilinear_forms(self.coeff, self.params,
                                       self.coord_sets, table))


Divisor = Tuple[int, Tuple[Tuple[str, int], ...]]  # c * monomial: t is (1, (("t", 1),))

UNIT: Divisor = (1, ())

Terms = Dict[Monomial, int]
Sparse = List[Dict[int, Dict[int, int]]]  # row i: {column: packed entry}


def multilinear_forms(coeff: CoeffTable, params: Sequence[str],
                      coord_sets: Sequence[Sequence[str]],
                      table: VarTable) -> List[Polynomial]:
    """[w_1..w_h] over `table`, with w_t the sum of c * s1[r] * s2[s] ...
    over the entries ((t, (r, s, ...)), c) of a coefficient table whose
    c's are polynomials over `params`; `table` holds the parameters and
    the names of the coordinate sets s1, s2, ..."""
    width = len(table)
    ppos = [table.index(name) for name in params]
    cpos = [[table.index(name) for name in cs] for cs in coord_sets]
    out: List[Terms] = [{} for _ in coord_sets[0]]
    for (t, js), c in coeff.items():
        coords = [pos[j] for pos, j in zip(cpos, js)]
        acc = out[t]
        for m, v in c.terms.items():
            exps = [0] * width
            for pos, e in zip(ppos, m):
                exps[pos] = e
            for pos in coords:
                exps[pos] += 1
            key = tuple(exps)
            s = acc.get(key, 0) + v
            if s:
                acc[key] = s
            else:
                del acc[key]
    return [Polynomial._own(table, terms) for terms in out]


class _Packing:
    """Monomials over `table` packed into one int each, `bits` per exponent
    with a guard bit on top, so that a monomial product is one int
    addition.  Every exponent packed or produced must stay <= `bound`;
    then no field carries into the next."""

    def __init__(self, table: VarTable, bound: int):
        bits = bound.bit_length() + 1
        self.table = table
        self.shifts = range(0, len(table) * bits, bits)
        self.mask = (1 << bits) - 1
        self.guard = sum(1 << (s + bits - 1) for s in self.shifts)

    def pack(self, m: Monomial) -> int:
        return sum(e << s for e, s in zip(m, self.shifts))

    def pack_named(self, monomial: Tuple[Tuple[str, int], ...]) -> int:
        """A Divisor's monomial ((name, exponent), ...), packed."""
        return sum(e << self.shifts[self.table.index(name)]
                   for name, e in dict(monomial).items())

    def poly(self, terms: Dict[int, int]) -> Polynomial:
        return Polynomial._own(self.table, {
            tuple((m >> s) & self.mask for s in self.shifts): c
            for m, c in terms.items()})

    def divide(self, terms: Dict[int, int], scale: int,
               need: int) -> Optional[Dict[int, int]]:
        """terms / (scale * the packed monomial `need`), or None where some
        term is not divisible (a field of m - need borrows its guard)."""
        guard = self.guard
        out = {}
        for m, c in terms.items():
            if c % scale or ((m | guard) - need) & guard != guard:
                return None
            out[m - need] = c // scale
        return out


def _mul_packed(out: Dict[int, int], a: Dict[int, int], b: Dict[int, int],
                scale: int = 1) -> None:
    """out += scale * a * b over packed monomials; keeps `out` free of
    zeros."""
    get = out.get
    for m1, c1 in a.items():
        c1 *= scale
        for m2, c2 in b.items():
            m = m1 + m2
            s = get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                del out[m]


def _sparse_product(a: Sparse, b: Sparse) -> Sparse:
    """a @ b for sparse matrices over packed monomials."""
    out = []
    for row in a:
        acc: Dict[int, Dict[int, int]] = {}
        for k, x in row.items():
            for j, y in b[k].items():
                _mul_packed(acc.setdefault(j, {}), x, y)
        out.append({j: terms for j, terms in acc.items() if terms})
    return out


def _cube(pair: CoeffTable, ptable: VarTable) -> CoeffTable:
    """The triple table of a closed pair table: E_r E_s E_u =
    sum_v c_rs^v E_v E_u = sum_t (sum_v c_rs^v c_vu^t) E_t."""
    by_rs: Dict[Tuple[int, int], List[Tuple[int, Terms]]] = {}
    by_v: Dict[int, List[Tuple[int, int, Terms]]] = {}
    for (t, (r, s)), c in pair.items():
        by_rs.setdefault((r, s), []).append((t, c.terms))
        by_v.setdefault(r, []).append((s, t, c.terms))
    out: Dict[Tuple[int, Tuple[int, ...]], Terms] = {}
    for (r, s), cs in by_rs.items():
        for v, c1 in cs:
            for u, t, c2 in by_v.get(v, ()):
                _mul_into(out.setdefault((t, (r, s, u)), {}), c1, c2)
    return {key: Polynomial._own(ptable, terms)
            for key, terms in out.items() if terms}


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
            got = self._decide(order)
            self._closure_cache[order] = got
        return got

    def _decide(self, order: int) -> Union[ClosureCertificate, NotClosed]:
        """Closure of `order` factors from the basis products: the triple
        table of a closed pair table is its contraction, any other table
        is read off the products E_r E_s [E_u]."""
        sets = self._coord_sets(order)
        if order == 3:
            pair = self._closure(2)
            if isinstance(pair, ClosureCertificate):
                return ClosureCertificate(3, sets, self.params,
                                          _cube(pair.coeff, self.param_table))
        # a product has exponents up to order * top, its reconstruction
        # (a quotient times a basis entry) up to (order + 1) * top
        top = max((e for row in self.coeff for cell in row for c in cell
                   for m in c.terms for e in m), default=0)
        divisor_top = max((e for _, monomial in self.recipe.divisors
                           for _, e in monomial), default=0)
        pack = _Packing(self.param_table, max((order + 1) * top, divisor_top))
        basis: List[Sparse] = [
            [{j: {pack.pack(m): c for m, c in cell[r].terms.items()}
              for j, cell in enumerate(row) if cell[r].terms}
             for row in self.coeff]
            for r in range(self.h)]
        products = {(r, s): _sparse_product(a, b)
                    for r, a in enumerate(basis) for s, b in enumerate(basis)}
        if order == 3:
            products = {(r, s, u): _sparse_product(p, c)
                        for (r, s), p in products.items()
                        for u, c in enumerate(basis)}
        got = self._read_table(sets, basis, products, pack)
        if isinstance(got, NotInSpan):
            return NotClosed(order=order, witness=got)
        return ClosureCertificate(order, sets, self.params, got)

    def _read_table(self, sets, basis: List[Sparse],
                    products: Dict[Tuple[int, ...], Sparse],
                    pack: _Packing) -> Union[CoeffTable, NotInSpan]:
        """The table read off the basis products (keyed by their factors'
        indices) at the recipe positions, or the witness that
        A(x)A(y)[A(z)] = sum of x_r y_s [z_u] E_r E_s [E_u] is not in the
        span.  Every product is read and checked before the witness is
        chosen: division fails at the first recipe position where any
        product does not divide, and a mismatch is at the first (i, j) in
        row-major order, with the residual summed over every product."""
        coeff: Dict[Tuple[int, Tuple[int, ...]], Dict[int, int]] = {}
        for t, ((i, j), (scale, monomial)) in enumerate(
                zip(self.recipe.positions, self.recipe.divisors)):
            need = pack.pack_named(monomial)
            for js, p in products.items():
                divided = pack.divide(p[i].get(j, {}), scale, need) if scale else None
                if divided is None:
                    return NotInSpan(entry=(i, j), residual=None, reason="division")
                if divided:
                    coeff[(t, js)] = divided
        misses: Dict[Tuple[int, int], CoeffTable] = {}  # (i, j) -> {(0, js): residual}
        for js, p in products.items():
            residual = [{j: dict(terms) for j, terms in row.items()} for row in p]
            for t, e in enumerate(basis):
                c = coeff.get((t, js))
                if c is not None:
                    for row, e_row in zip(residual, e):
                        for j, terms in e_row.items():
                            _mul_packed(row.setdefault(j, {}), c, terms, -1)
            for i, row in enumerate(residual):
                for j, terms in row.items():
                    if terms:
                        misses.setdefault((i, j), {})[(0, js)] = pack.poly(terms)
        if misses:
            first = min(misses)
            table = VarTable(self.params + sum(sets, ()))
            return NotInSpan(entry=first, reason="mismatch", residual=(
                multilinear_forms(misses[first], self.params, sets, table)[0]))
        return {key: pack.poly(terms) for key, terms in coeff.items()}

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
