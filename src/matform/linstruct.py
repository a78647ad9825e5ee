"""Matrix families whose entries are linear forms in coordinate variables.

A LinearStructure describes an n x n matrix A(x_1..x_h) whose (i,j) entry is
sum_r L[i][j][r] * x_r, with each L[i][j][r] a polynomial in named integer
parameters: A(x) = sum_r x_r E_r for the basis matrices E_r = L[.][.][r].
A structure is its coefficients alone: like every matrix in the paper, it
carries its h <= n coordinates on the first row, x_t at (0, t).
Closure under matrix multiplication is a fact about the basis products:
A(x)A(y) = A(z) for bilinear z exactly when every E_r E_s equals
sum_t c_rs^t E_t, each c_rs^t read off the product at (0, t) and divided
by E_t's own entry there, the divisor.  The c's are the structure
constants of the algebra the matrices span; closure returns them as the
composition law itself, a MultilinearMap with A(x)A(y) = A(map(x, y)).  A
closed pair table gives the triple table without a matrix product, as
c_rsu^t = sum_v c_rs^v c_vu^t; a structure closed only for triples has its
products (E_r E_s) E_u read the same way.  A block lift keeps its two
factors: its basis is E_r (x) F_s, so where both factors close its table is
the Kronecker product of theirs, c_(r,s)(r',s')^(t,u) = c_rr'^t c'_ss'^u
(and likewise for triples), and no product of its own basis is taken.
A lift specialized at integer values keeps its factors at their own
values, so its law there is the same product of their laws at those
values.  Every product, division and entrywise check is exact over the
parameters, never sampled.
"""

from __future__ import annotations

from operator import add, index, itemgetter
from typing import (Dict, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from .polyring import (Monomial, Packing, PolyError, PolyMatrix, Polynomial,
                       VarTable, _mul_packed, _top)


class NameCollision(PolyError):
    """Coordinate names collide with parameter names."""


class ParameterCollision(PolyError):
    """Outer and inner structures share a parameter name."""


class DimensionMismatch(PolyError):
    """Argument vector length differs from the map dimension."""


class NotInSpan(NamedTuple):
    """Witness that a matrix does not carry the structure.

    `entry` is the first offending (row, col), 0-based; `residual` is the
    difference between the matrix entry and its reconstruction from the
    extracted coordinates (None when extraction itself failed on a
    non-exact division).
    """
    entry: Tuple[int, int]
    residual: Optional[Polynomial]
    reason: str  # "division" or "mismatch"


class NotClosed(NamedTuple):
    """Witness that a structure is not closed under the attempted product."""
    order: int  # 2 for pairwise, 3 for triple
    witness: NotInSpan


CoeffTable = Dict[Tuple[int, Tuple[int, ...]], Polynomial]  # {(t, (r, s[, u])): c}


def argument_names(h: int, k: int) -> Tuple[Tuple[str, ...], ...]:
    """The default names x1..xh, y1..yh [, z1..zh] of the k arguments of a
    law on h-vectors."""
    return tuple(tuple(f"{p}{i + 1}" for i in range(h)) for p in "xyz"[:k])


Terms = Dict[Monomial, int]
Sparse = List[Dict[int, Dict[int, int]]]  # row i: {column: packed entry}
Packed = Dict[Tuple[int, Tuple[int, ...]], Dict[int, int]]  # a packed CoeffTable


def multilinear_forms(coeff: CoeffTable, params: Sequence[str],
                      coord_sets: Sequence[Sequence[str]]
                      ) -> Iterator[Polynomial]:
    """w_1..w_h, one at a time, with w_t the sum of c * s1[r] * s2[s] ...
    over the entries ((t, (r, s, ...)), c) of a coefficient table whose c's
    are polynomials over `params`, over the one table of a law's forms: the
    parameters, then the names of the coordinate sets s1, s2, ... (a name
    repeated raises ValueError), so a term's exponents are its parameter
    monomial followed by its entry's coordinate suffix.  The entries are
    grouped by output in one pass and the suffixes kept across outputs, so
    a caller that writes each form as it comes holds one form at a time."""
    names = sum(map(tuple, coord_sets), ())
    table, width = VarTable(tuple(params) + names), len(params)
    cpos = [[table.index(name) - width for name in cs] for cs in coord_sets]
    blank, suffixes = [0] * len(names), {}  # js -> its suffix
    by_output: List[List[Tuple[int, ...]]] = [[] for _ in coord_sets[0]]
    for t, js in coeff:
        by_output[t].append(js)
    for t, entries in enumerate(by_output):
        acc: Terms = {}
        for js in entries:
            suffix = suffixes.get(js)
            if suffix is None:
                suffix = blank[:]
                for pos, j in zip(cpos, js):
                    suffix[pos[j]] += 1
                suffix = suffixes[js] = tuple(suffix)
            for m, v in coeff[t, js].terms.items():
                key = m + suffix
                s = acc.get(key, 0) + v
                if s:
                    acc[key] = s
                else:
                    del acc[key]
        yield Polynomial._own(table, acc)


def _reorder(joined: Tuple[str, ...], names: Sequence[str]):
    """What puts exponents over `joined` in the order of `names`, a
    permutation of it: `tuple` (a tuple as it is) where the two agree."""
    return tuple if joined == tuple(names) else itemgetter(*map(joined.index, names))


def _kron_terms(order, a: Terms, b: Terms) -> Terms:
    """a * b over disjoint parameters, each term's exponents joined and
    put in `order` (`_reorder`): no two terms merge, and none is zero."""
    return {order(m1 + m2): c1 * c2 for m1, c1 in a.items() for m2, c2 in b.items()}


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


def _cube(pair: Packed) -> Packed:
    """The triple table of a closed pair table, both in the packing that
    read it (`_on_basis`): E_r E_s E_u = sum_v c_rs^v E_v E_u =
    sum_t (sum_v c_rs^v c_vu^t) E_t."""
    by_rs: Dict[Tuple[int, int], List[Tuple[int, Dict[int, int]]]] = {}
    by_v: Dict[int, List[Tuple[int, int, Dict[int, int]]]] = {}
    for (t, (r, s)), c in pair.items():
        by_rs.setdefault((r, s), []).append((t, c))
        by_v.setdefault(r, []).append((s, t, c))
    out: Packed = {}
    for (r, s), cs in by_rs.items():
        for v, c1 in cs:
            for u, t, c2 in by_v.get(v, ()):
                _mul_packed(out.setdefault((t, (r, s, u)), {}), c1, c2)
    return {key: terms for key, terms in out.items() if terms}


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


class MultilinearMap:
    """Arity-k multilinear map on h-vectors, output_t = sum of c *
    arg1[j1] * ... * argk[jk] over the entries ((t, (j1..jk)), c) of
    `coeff`, each c a polynomial over `params` (zero entries are dropped).

    The law a structure's closure induces is its structure-constant table:
    A(x)A(y)[A(z)] = A(map(x, y[, z])) with coeff[(t, (r, s[, u]))] the c
    of E_r E_s [E_u] = sum_t c E_t.
    """

    def __init__(self, k: int, h: int, params: Sequence[str], coeff: CoeffTable):
        if k not in (2, 3):
            raise ValueError("arity must be 2 or 3")
        self.k, self.h, self.param_table, self.coeff = k, h, VarTable(params), {}
        for (i, js), c in coeff.items():
            if c.table != self.param_table:
                raise ValueError("coefficients must live over the parameter table")
            if c.is_zero():
                continue
            if not (0 <= i < h) or len(js) != k or not all(0 <= j < h for j in js):
                raise ValueError("coefficient index out of range")
            self.coeff[(i, tuple(js))] = c

    @classmethod
    def _own(cls, k, h, table: VarTable, coeff: CoeffTable) -> "MultilinearMap":
        """The map of a table built correct (no zero entry, every key in
        range, every coefficient over `table`), taken as it is, unchecked."""
        law = object.__new__(cls)
        law.k, law.h, law.param_table, law.coeff = k, h, table, coeff
        return law

    @property
    def params(self) -> Tuple[str, ...]:
        return self.param_table.names

    @property
    def coord_sets(self) -> Tuple[Tuple[str, ...], ...]:
        """The default argument names x1..xh, y1..yh [, z1..zh]."""
        return argument_names(self.h, self.k)

    def __eq__(self, other) -> bool:
        """Same arity, dimension, parameter tuple (in order) and
        coefficients; zero coefficients are dropped on construction, so
        this is exact."""
        return isinstance(other, MultilinearMap) and \
            (self.k, self.h, self.params, self.coeff) == \
            (other.k, other.h, other.params, other.coeff)

    @classmethod
    def from_forms(cls, forms: Sequence[Polynomial], params: Sequence[str],
                   coord_sets: Sequence[Sequence[str]]) -> "MultilinearMap":
        """Build the tensor from output polynomials multilinear in the
        coordinate sets (e.g. a law transcribed in x1.., y1..)."""
        k = len(coord_sets)
        h = len(forms)
        if any(len(cs) != h for cs in coord_sets):
            raise DimensionMismatch("coordinate sets must have length h")
        ptable = VarTable(params)
        coeff = {(i, js): c for i, form in enumerate(forms)
                 for js, c in _multilinear_coeffs(form, ptable, coord_sets).items()}
        return cls(k, h, params, coeff)

    def forms(self, coord_sets: Sequence[Sequence[str]]) -> List[Polynomial]:
        """Output polynomials over params + the given coordinate sets (a
        caller that needs them over a larger table embeds them)."""
        if len(coord_sets) != self.k:
            raise DimensionMismatch(f"need {self.k} coordinate sets")
        if any(len(cs) != self.h for cs in coord_sets):
            raise DimensionMismatch(f"coordinate sets must have length {self.h}")
        return list(multilinear_forms(self.coeff, self.params, coord_sets))

    def apply(self, args: Sequence[Sequence[int]]) -> Tuple[int, ...]:
        """Exact output vector at integer arguments (parameter-free maps):
        M @ args[-1] for M = argument_matrix(args, k - 1)."""
        M = self.argument_matrix(args, self.k - 1)
        v = list(map(index, args[-1]))
        if len(v) != self.h:
            raise DimensionMismatch(f"argument vectors must have length {self.h}")
        return tuple(sum(m * x for m, x in zip(row, v)) for row in M)

    def specialize(self, param_values: Sequence[int]) -> "MultilinearMap":
        """Substitute integer values for all parameters."""
        pv = [index(v) for v in param_values]
        if len(pv) != len(self.params):
            raise ValueError(f"need {len(self.params)} parameter values")
        empty = VarTable(())
        return MultilinearMap._own(self.k, self.h, empty, {
            key: Polynomial._own(empty, {(): v}) for key, c in self.coeff.items()
            if (v := c.eval_vector(pv))})

    def argument_matrix(self, args: Sequence[Optional[Sequence[int]]],
                        slot: int) -> List[List[int]]:
        """Integer matrix M with map(args, with v in `slot`) = M @ v, for a
        parameter-free map of either arity (one with parameters raises
        ValueError: `specialize` it first); args[slot] is not read.  The
        one integer linearization of the law: `apply`, the `solve` step
        and `invert` all read it."""
        if len(args) != self.k:
            raise DimensionMismatch(f"need {self.k} argument vectors")
        if not 0 <= slot < self.k:
            raise ValueError(f"slot must be in 0..{self.k - 1}, got {slot}")
        # a vector of ones in the free slot leaves each term's coefficient
        # times the fixed arguments
        fixed = [[1] * self.h if s == slot else list(map(index, a))
                 for s, a in enumerate(args)]
        if any(len(a) != self.h for a in fixed):
            raise DimensionMismatch(f"argument vectors must have length {self.h}")
        if self.params:
            raise ValueError(f"map has parameters {','.join(self.params)}; "
                             "specialize it first")
        M = [[0] * self.h for _ in range(self.h)]
        for (i, js), c in self.coeff.items():
            v = c.constant_term()
            for a, j in zip(fixed, js):
                v *= a[j]
            M[i][js[slot]] += v
        return M


class LinearStructure:
    """n x n matrix family with entries linear in h <= n coordinate
    variables.

    Coordinate t is read back from a product at (0, t), on the first row,
    divided by `divisors[t]`, its own coefficient L[0][t][t] there: one
    term, or 0 where the structure cannot be read at these parameter
    values.
    """

    def __init__(self, n: int, h: int, params: Sequence[str],
                 coeff: Sequence[Sequence[Sequence[Polynomial]]]):
        table = VarTable(params)
        if h > n:
            raise ValueError(f"{h} coordinates do not fit the first row of "
                             f"a {n} x {n} matrix")
        if len(coeff) != n or any(len(row) != n for row in coeff):
            raise ValueError("coefficient tensor must be n x n")
        if any(len(cell) != h for row in coeff for cell in row):
            raise ValueError("each cell needs one coefficient per coordinate")
        if any(p.table != table for row in coeff for cell in row for p in cell):
            raise ValueError("coefficients must live over the parameter table")
        self._set(n, h, table, tuple(tuple(tuple(cell) for cell in row)
                                     for row in coeff))
        if any(d.term_count() > 1 for d in self.divisors):
            raise ValueError("each divisor must have at most one term")

    @classmethod
    def _own(cls, n, h, table, coeff, factors=None) -> "LinearStructure":
        """The structure of coefficients built correct (n x n tuples of h
        polynomials over `table`, each divisor one term or none), unchecked."""
        return object.__new__(cls)._set(n, h, table, coeff, factors)

    def _set(self, n, h, table, coeff, factors=None) -> "LinearStructure":
        self.n, self.h, self.param_table, self.coeff = n, h, table, coeff
        self.divisors = tuple(coeff[0][t][t] for t in range(h))
        self._cells: Optional[list] = None  # kept by matrix_of
        # (outer, inner) where block_compose built this structure
        self._factors: Optional[Tuple[LinearStructure, LinearStructure]] = factors
        return self

    @property
    def params(self) -> Tuple[str, ...]:
        return self.param_table.names

    @property
    def positions(self) -> Tuple[Tuple[int, int], ...]:
        """The (row, col) each coordinate is read at: (0, t) for t."""
        return tuple((0, t) for t in range(self.h))

    @classmethod
    def from_matrix(cls, params: Sequence[str], coords: Sequence[str],
                    entries: Sequence[Sequence[Polynomial]]
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
        return cls(len(entries), len(coords), params, coeff)

    # -- instantiation ----------------------------------------------------

    def instantiate(self, coord_names: Sequence[str]) -> PolyMatrix:
        """The matrix A(coord_names) over params + coord_names (a caller
        that multiplies it by another matrix embeds both in one table).
        A term map: each term (m, c) of L[i][j][r] is the term (m + e_r, c),
        e_r the unit exponents of coordinate r, so no product is taken, and
        terms of distinct r or m never merge."""
        coord_names = tuple(coord_names)
        if len(coord_names) != self.h:
            raise ValueError(f"expected {self.h} coordinate names")
        if len(set(coord_names)) != self.h:
            raise NameCollision("coordinate names must be distinct")
        if set(coord_names) & set(self.params):
            raise NameCollision("coordinate names collide with parameters")
        table = VarTable(self.params + coord_names)
        units = [tuple(int(r == s) for s in range(self.h)) for r in range(self.h)]
        return PolyMatrix([[Polynomial._own(table, {
            m + e: c for cr, e in zip(cell, units) for m, c in cr.terms.items()})
            for cell in row] for row in self.coeff])

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
        """det(A(coord_names)): the degree-n form carried by the family."""
        return self.instantiate(coord_names).determinant()

    def _mapped(self, table: VarTable, fn,
                factors: Optional[tuple] = None) -> "LinearStructure":
        """The structure over `table` with fn(c), a polynomial over it, for
        every coefficient c, a lift of `factors` where given."""
        return LinearStructure._own(
            self.n, self.h, table,
            tuple(tuple(tuple(map(fn, cell)) for cell in row)
                  for row in self.coeff), factors)

    def specialize(self, param_values: Sequence[int]) -> "LinearStructure":
        """Substitute integer values for all parameters (result has none);
        a lift keeps its factors, each specialized at its own values, so
        its closure is still their laws' Kronecker product."""
        if len(param_values) != len(self.params):
            raise ValueError(f"expected {len(self.params)} parameter values")
        pv = [index(v) for v in param_values]
        at = dict(zip(self.params, pv))
        empty = VarTable(())
        return self._mapped(empty, lambda c: empty.const(c.eval_vector(pv)),
                            self._factors and tuple(
                                f.specialize([at[p] for p in f.params])
                                for f in self._factors))

    def rename_params(self, mapping: Dict[str, str]) -> "LinearStructure":
        """Same structure with parameters renamed, a lift's factors too."""
        table = VarTable(mapping.get(p, p) for p in self.params)
        return self._mapped(table, lambda c: Polynomial._own(table, c.terms),
                            self._factors and tuple(f.rename_params(mapping)
                                                    for f in self._factors))

    # -- extraction -------------------------------------------------------

    def extract_coordinates(self, matrix: PolyMatrix):
        """Read coordinates back from `matrix`'s first row, or report
        NotInSpan.

        Returns the list [z_1..z_h] such that instantiating this structure
        at the z's reproduces `matrix` exactly, each entry rebuilt as
        sum_r L[i][j][r] * z_r by the ring's own `*` and `+`; otherwise a
        NotInSpan carrying the first offending entry.
        """
        if matrix.n != self.n:
            raise ValueError("matrix order differs from structure order")
        table = matrix.table
        outputs: List[Polynomial] = []
        for (i, j), divisor in zip(self.positions, self.divisors):
            entry = matrix[i, j]
            if not divisor:  # never read coordinates off a zero divisor
                return NotInSpan(entry=(i, j), residual=None, reason="division")
            (need, scale), = divisor.embed(table).terms.items()
            divided: Dict[Tuple[int, ...], int] = {}
            for m, c in entry.terms.items():
                exps = tuple(a - b for a, b in zip(m, need))
                if c % scale or min(exps) < 0:
                    return NotInSpan(entry=(i, j), residual=None, reason="division")
                divided[exps] = c // scale
            outputs.append(Polynomial(table, divided))
        for i, row in enumerate(self.coeff):
            for j, cell in enumerate(row):
                rebuilt = sum((c.embed(table) * z
                               for c, z in zip(cell, outputs) if c), table.zero())
                residual = matrix[i, j] - rebuilt
                if not residual.is_zero():
                    return NotInSpan(entry=(i, j), residual=residual,
                                     reason="mismatch")
        return outputs

    # -- closure checks ---------------------------------------------------

    def closure(self, order: int) -> Union[MultilinearMap, NotClosed]:
        """The law induced by closure of `order` factors (2 or 3), or the
        NotClosed witness."""
        if order == 2:
            return self.verify_pair_closure()
        if order == 3:
            return self.verify_triple_closure()
        raise ValueError("order must be 2 or 3")

    def verify_pair_closure(self) -> Union[MultilinearMap, NotClosed]:
        """closure(2): the bilinear law z = map(x, y) with A(x) A(y) = A(z),
        its coefficients the pair structure constants, or NotClosed."""
        return self._decide(2)

    def verify_triple_closure(self) -> Union[MultilinearMap, NotClosed]:
        """closure(3): the trilinear law w = map(x, y, z) with A(x) A(y) A(z)
        = A(w), its coefficients the triple structure constants, or
        NotClosed."""
        return self._decide(3)

    def _decide(self, order: int) -> Union[MultilinearMap, NotClosed]:
        """Closure of `order` factors, decided anew on every call (the
        family that reads it keeps its law, `FormFamily._laws`): a lift of
        two factors that close is their laws' Kronecker product, and any
        other structure is decided on its own basis (`_on_basis`), whose
        one pass takes each pair product once at either order."""
        if self._factors is not None:
            laws = [f._decide(order) for f in self._factors]
            if all(isinstance(law, MultilinearMap) for law in laws):
                return self._tensor(*laws)
        return self._on_basis(order)

    def _on_basis(self, order: int) -> Union[MultilinearMap, NotClosed]:
        """Closure of `order` factors on the structure's own basis, in one
        pass: the basis is packed once and its h^2 pair products E_r E_s
        taken once, and the pair table is read off them.  The division is
        decided on the products' first rows, where the table is read, so
        their other rows are taken only where it passes or at order 3.
        At order 3 a closed pair table gives the triple table by its
        contraction (`_cube`); otherwise the table is read off the triple
        products (E_r E_s) E_u, built from those same pair products.
        Every table stays packed, and the law is unpacked once."""
        # a product has exponents up to order * top, its reconstruction (a
        # quotient times a basis entry) up to (order + 1) * top, `_cube`'s
        # up to 4 * top; each divisor is a basis entry, so within top
        pack = Packing(self.param_table, (order + 1) * _top(
            c for row in self.coeff for cell in row for c in cell))
        basis: List[Sparse] = [
            [{j: pack.pack_terms(cell[r].terms)
              for j, cell in enumerate(row) if cell[r].terms}
             for row in self.coeff]
            for r in range(self.h)]
        firsts = {(r, s): _sparse_product(a[:1], b)
                  for r, a in enumerate(basis) for s, b in enumerate(basis)}
        got = self._read_table(firsts, pack)
        if order == 2 and isinstance(got, NotInSpan):
            return NotClosed(order=order, witness=got)
        products = {(r, s): first + _sparse_product(basis[r][1:], basis[s])
                    for (r, s), first in firsts.items()}
        got = self._check_table(2, basis, products, got, pack)
        if order == 3:
            if not isinstance(got, NotInSpan):
                got = _cube(got)
            else:
                products = {(r, s, u): _sparse_product(p, c)
                            for (r, s), p in products.items()
                            for u, c in enumerate(basis)}
                got = self._check_table(3, basis, products,
                                        self._read_table(products, pack), pack)
        if isinstance(got, NotInSpan):
            return NotClosed(order=order, witness=got)
        return MultilinearMap._own(order, self.h, self.param_table, {
            key: pack.poly(terms) for key, terms in got.items()})

    def _tensor(self, outer: MultilinearMap,
                inner: MultilinearMap) -> MultilinearMap:
        """The lift's law from its factors' laws of one arity:
        E_r E_r' [E_r''] (x) F_s F_s' [F_s''] = sum c_rr'[r'']^t
        c'_ss'[s'']^u E_t (x) F_u, keyed slice-major (t*h_in + u), over
        the lift's parameters (none for a specialized lift, whose factors'
        laws are at its values).  The factors' parameters are disjoint, so
        no two monomials of a product merge (`_kron_terms`).  A factor law
        has few distinct coefficients, so each (outer, inner) pair of them,
        keyed by value, is multiplied once and its product is the one
        (immutable) Polynomial of every entry it gives."""
        table = self.param_table
        order = _reorder(outer.params + inner.params, table.names)
        ids: Dict[frozenset, int] = {}  # a coefficient's terms -> its index

        def indexed(law: MultilinearMap, scale: int):
            return [(t * scale, [j * scale for j in js], c.terms,
                     ids.setdefault(frozenset(c.terms.items()), len(ids)))
                    for (t, js), c in law.coeff.items()]
        b = indexed(inner, 1)
        products: Dict[Tuple[int, int], Polynomial] = {}
        coeff: CoeffTable = {}
        for t, js, ca, i in indexed(outer, inner.h):
            for u, ks, cb, k in b:
                pair = i, k
                p = products.get(pair)
                if p is None:
                    p = products[pair] = Polynomial._own(
                        table, _kron_terms(order, ca, cb))
                coeff[(t + u, tuple(map(add, js, ks)))] = p
        return MultilinearMap._own(outer.k, self.h, table, coeff)

    def _read_table(self, products: Dict[Tuple[int, ...], Sparse],
                    pack: Packing) -> Union[Packed, NotInSpan]:
        """The table read off the basis products (keyed by their factors'
        indices; the first row of each is all it reads) at each position
        (0, t), divided by its divisor, packed, or the witness that
        A(x)A(y)[A(z)] = sum of x_r y_s [z_u] E_r E_s [E_u] is not in the
        span: division fails at the first position where any product does
        not divide."""
        coeff: Packed = {}
        for t, ((i, j), divisor) in enumerate(zip(self.positions, self.divisors)):
            if not divisor:
                return NotInSpan(entry=(i, j), residual=None, reason="division")
            (need, scale), = pack.pack_terms(divisor.terms).items()
            for js, p in products.items():
                divided = pack.divide(p[i].get(j, {}), scale, need)
                if divided is None:
                    return NotInSpan(entry=(i, j), residual=None, reason="division")
                if divided:
                    coeff[(t, js)] = divided
        return coeff

    def _check_table(self, order: int, basis: List[Sparse],
                     products: Dict[Tuple[int, ...], Sparse],
                     coeff: Union[Packed, NotInSpan],
                     pack: Packing) -> Union[Packed, NotInSpan]:
        """`coeff`, what `_read_table` read off the first rows of
        `products`, where it is a table and every whole product is its sum
        of c^t E_t; otherwise the witness, `coeff` itself where division
        failed.  Every product is checked before a mismatch is chosen: it
        is at the first (i, j) in row-major order, with the residual summed
        over every product."""
        if isinstance(coeff, NotInSpan):
            return coeff
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
            return NotInSpan(entry=first, reason="mismatch", residual=next(
                multilinear_forms(misses[first], self.params,
                                  argument_names(self.h, order))))
        return coeff

    # -- block lifting ------------------------------------------------------

    def block_compose(self, inner: "LinearStructure",
                      params: Optional[Sequence[str]] = None
                      ) -> "LinearStructure":
        """Lift to an (n*m) x (n*m) structure with blocks P_ij = sum_r L[i][j][r] A_r.

        A_r is `inner` instantiated on coordinate slice r; coordinates are
        slice-major (all inner coordinates of outer slot 1, then slot 2, ...).
        Coordinate (r, s) of the lift is read on its first row, at column
        r*h_in + s: inner column s of outer block r, where its coefficient
        is the product of the two factors' divisors.  That needs an inner
        structure with as many coordinates as rows (every catalog structure
        has); any other raises ValueError.

        Its parameters are `params`, a permutation of this structure's then
        the inner one's (that order by default), and L[(i,a)][(j,b)][(r,s)] is
        the one product L[i][j][r] * L_in[a][b][s] (`_kron_terms`).  It keeps
        both structures as its factors (`rename_params` renames them too):
        its basis is E_r (x) F_s, so its law at an order both factors close
        at is their laws' Kronecker product, proven by their closures.
        """
        if set(self.params) & set(inner.params):
            raise ParameterCollision(sorted(set(self.params) & set(inner.params))[0])
        if inner.h != inner.n:
            raise ValueError(f"a lift needs an inner structure with h = n, "
                             f"got h = {inner.h}, n = {inner.n}")
        joined = self.params + inner.params
        params = joined if params is None else tuple(params)
        if sorted(params) != sorted(joined):
            raise ValueError("params must be a permutation of " + ",".join(joined))
        table = VarTable(params)
        order = _reorder(joined, params)
        lifted = tuple(
            tuple(tuple(Polynomial._own(table, _kron_terms(order, o.terms, i.terms))
                        for o in outer_cell for i in inner_cell)
                  for outer_cell in outer_row for inner_cell in inner_row)
            for outer_row in self.coeff for inner_row in inner.coeff)
        return LinearStructure._own(self.n * inner.n, self.h * inner.h, table,
                                    lifted, (self, inner))
