"""Exact sparse multivariate polynomial arithmetic over arbitrary-precision integers.

A polynomial is a dict mapping exponent tuples (one non-negative int per
variable of its VarTable) to nonzero Python ints.  All arithmetic is exact;
there is no floating point anywhere.  Term order is graded lexicographic
(total degree first, then lex on the exponent tuple) and is applied only
when serializing or printing, so arithmetic stays hash-map fast while
output stays deterministic.
"""

from __future__ import annotations

import operator
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

Monomial = Tuple[int, ...]


class PolyError(Exception):
    """Base class for errors raised by this package."""


class VarTableMismatch(PolyError):
    """Two polynomials over different variable tables were combined."""


class UnknownVariable(PolyError):
    """A variable name is not present in the VarTable."""


class UnassignedVariable(PolyError):
    """Evaluation point leaves a variable without a value."""


class VarTable:
    """Ordered, immutable table of distinct variable names.

    The index of a name is stable for the table's lifetime; polynomials
    store exponent tuples positionally against this table.
    """

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return isinstance(other, VarTable) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VarTable({list(self.names)!r})"

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownVariable(name) from None

    def var(self, name: str) -> "Polynomial":
        """The polynomial consisting of the single variable `name`."""
        exps = [0] * len(self.names)
        exps[self.index(name)] = 1
        return Polynomial(self, {tuple(exps): 1})

    def const(self, c: int) -> "Polynomial":
        c = operator.index(c)
        if c == 0:
            return Polynomial(self, {})
        return Polynomial(self, {(0,) * len(self.names): c})

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def vars(self) -> Tuple["Polynomial", ...]:
        """All variables as polynomials, in table order."""
        return tuple(self.var(name) for name in self.names)


def grlex_key(m: Monomial) -> tuple:
    return (sum(m), m)


class Polynomial:
    """Immutable sparse polynomial with exact integer coefficients.

    `terms` is never mutated after construction, so data derived from it
    (the sparse term list `eval_vector` uses) is cached per polynomial.
    """

    __slots__ = ("table", "terms", "_sparse")

    def __init__(self, table: VarTable, terms: Mapping[Monomial, int]):
        self.table = table
        self.terms: Dict[Monomial, int] = {m: c for m, c in terms.items() if c}
        self._sparse = None

    @classmethod
    def _own(cls, table: VarTable, terms: Dict[Monomial, int]) -> "Polynomial":
        """Wrap a dict that already holds no zero coefficient; the new
        polynomial takes ownership of it (no copy, no zero filter)."""
        poly = object.__new__(cls)
        poly.table = table
        poly.terms = terms
        poly._sparse = None
        return poly

    # -- basics ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def term_count(self) -> int:
        return len(self.terms)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def degree_in(self, name: str) -> int:
        """Largest exponent of `name`; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        i = self.table.index(name)
        return max(m[i] for m in self.terms)

    def coefficient_of(self, monomial: Monomial) -> int:
        """Coefficient of an exponent tuple, 0 if the term is absent."""
        if len(monomial) != len(self.table):
            raise VarTableMismatch("exponent tuple length != table size")
        return self.terms.get(tuple(monomial), 0)

    def constant_term(self) -> int:
        return self.terms.get((0,) * len(self.table), 0)

    def as_int(self) -> int:
        """The value of a constant polynomial; raises if non-constant."""
        if not self.terms:
            return 0
        if len(self.terms) == 1:
            ((m, c),) = self.terms.items()
            if not any(m):
                return c
        raise ValueError("polynomial is not constant")

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.table.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.table, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- ring operations ------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, int):
            return self.table.const(other)
        if isinstance(other, Polynomial):
            if other.table != self.table:
                raise VarTableMismatch(
                    f"{other.table!r} differs from {self.table!r}")
            return other
        raise TypeError(f"cannot combine Polynomial with {type(other)!r}")

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        out = dict(self.terms)
        _add_into(out, other.terms)
        return Polynomial._own(self.table, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._own(self.table, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        out = dict(self.terms)
        _add_into(out, other.terms, -1)
        return Polynomial._own(self.table, out)

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        out: Dict[Monomial, int] = {}
        _mul_into(out, self.terms, other.terms)
        return Polynomial._own(self.table, out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = self.table.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base_needed = e >> 1
            if base_needed:
                base = base * base
            e = base_needed
        return result

    # -- substitution and evaluation -------------------------------------

    def substitute(self, assignment: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Substitute polynomials for variables.

        Unassigned variables map to themselves.  Values may live over a
        different (typically larger) VarTable; all values must share one
        table, which becomes the result's table.
        """
        if not assignment:
            return self
        for name in assignment:
            self.table.index(name)  # raises UnknownVariable
        values = dict(assignment)
        target = next(iter(values.values())).table
        for v in values.values():
            if v.table != target:
                raise VarTableMismatch("substitution values over mixed tables")
        images = []
        for name in self.table.names:
            if name in values:
                images.append(values[name])
            else:
                images.append(target.var(name))  # raises if name missing
        return self._map_through(target, images)

    def embed(self, target: VarTable) -> "Polynomial":
        """Reinterpret over a table containing all of this table's names."""
        positions = [target.index(name) for name in self.table.names]
        width = len(target)
        out: Dict[Monomial, int] = {}
        for m, c in self.terms.items():
            exps = [0] * width
            for pos, e in zip(positions, m):
                exps[pos] = e
            out[tuple(exps)] = c
        return Polynomial(target, out)

    def _map_through(self, target: VarTable, images: Sequence["Polynomial"]) -> "Polynomial":
        # Cache power products per distinct exponent to keep repeated
        # substitution of the same variables cheap.
        pow_cache: Dict[Tuple[int, int], Polynomial] = {}

        def power(i: int, e: int) -> Polynomial:
            key = (i, e)
            got = pow_cache.get(key)
            if got is None:
                got = images[i] ** e
                pow_cache[key] = got
            return got

        acc: Dict[Monomial, int] = {}
        one = target.one()
        for m, c in self.terms.items():
            factors = [power(i, e) for i, e in enumerate(m) if e]
            term = factors[0] if factors else one
            for f in factors[1:]:
                term = term * f
            _add_into(acc, term.terms, c)
        return Polynomial._own(target, acc)

    def specialize(self, values: Mapping[str, int]) -> "Polynomial":
        """Substitute integers for a subset of variables, dropping them
        from the table.  The remaining variables keep their order."""
        for name in values:
            self.table.index(name)  # raises UnknownVariable
        keep = [i for i, name in enumerate(self.table.names) if name not in values]
        vals = {self.table.index(name): operator.index(v)
                for name, v in values.items()}
        table = VarTable(tuple(self.table.names[i] for i in keep))
        out: Dict[Monomial, int] = {}
        for m, c in self.terms.items():
            v = c
            for i, x in vals.items():
                if m[i]:
                    v *= x ** m[i]
            if not v:
                continue
            key = tuple(m[i] for i in keep)
            s = out.get(key, 0) + v
            if s:
                out[key] = s
            else:
                del out[key]
        return Polynomial(table, out)

    def eval_int(self, point: Mapping[str, int]) -> int:
        """Exact integer value at a fully assigned integer point."""
        values = []
        for name in self.table.names:
            if name not in point:
                raise UnassignedVariable(name)
            values.append(operator.index(point[name]))
        extra = set(point) - set(self.table.names)
        if extra:
            raise UnknownVariable(sorted(extra)[0])
        return self.eval_vector(values)

    def eval_vector(self, values: Sequence[int]) -> int:
        """Exact value given one integer per table variable, in order."""
        if len(values) != len(self.table):
            raise UnassignedVariable("point length != table size")
        if self._sparse is None:
            self._sparse = _sparse_terms(self.terms, len(self.table))
        top, sparse = self._sparse
        powers: List[List[int]] = []
        for x, e_max in zip(values, top):
            row = [1]
            for _ in range(e_max):
                row.append(row[-1] * x)
            powers.append(row)
        total = 0
        for v, factors in sparse:
            for i, e in factors:
                v *= powers[i][e]
            total += v
        return total

    # -- printing and JSON ------------------------------------------------

    def sorted_terms(self):
        """Terms in graded-lex descending order (the canonical order)."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.table.names, m) if e
            ]
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self})"

    def to_json_obj(self) -> dict:
        return {
            "vars": list(self.table.names),
            "terms": [{"c": str(c), "e": list(m)} for m, c in self.sorted_terms()],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Polynomial":
        table = VarTable(obj["vars"])
        terms = {tuple(t["e"]): int(t["c"]) for t in obj["terms"]}
        return cls(table, terms)


def _sparse_terms(terms: Mapping[Monomial, int], width: int):
    """(largest exponent per variable, [(c, ((i, e), ...)), ...]) with only
    the nonzero exponents listed: the form `eval_vector` walks."""
    top = [0] * width
    sparse = []
    for m, c in terms.items():
        factors = tuple((i, e) for i, e in enumerate(m) if e)
        for i, e in factors:
            if e > top[i]:
                top[i] = e
        sparse.append((c, factors))
    return top, sparse


def _add_into(out: Dict[Monomial, int], terms: Mapping[Monomial, int],
              scale: int = 1) -> None:
    """out += scale * terms, in place; keeps `out` free of zeros."""
    get = out.get
    for m, c in terms.items():
        s = get(m, 0) + scale * c
        if s:
            out[m] = s
        else:
            del out[m]


def _mul_into(out: Dict[Monomial, int], a: Mapping[Monomial, int],
              b: Mapping[Monomial, int], scale: int = 1) -> None:
    """out += scale * a * b, in place; keeps `out` free of zeros."""
    if len(a) > len(b):
        a, b = b, a
    get = out.get
    for m1, c1 in a.items():
        c1 *= scale
        for m2, c2 in b.items():
            m = tuple(map(int.__add__, m1, m2))
            s = get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                del out[m]


class PolyMatrix:
    """Square matrix of polynomials over one shared VarTable."""

    __slots__ = ("n", "table", "entries")

    def __init__(self, entries: Sequence[Sequence[Polynomial]]):
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise ValueError("matrix must be square")
        if n == 0:
            raise ValueError("matrix order must be >= 1")
        table = entries[0][0].table
        for row in entries:
            for p in row:
                if p.table != table:
                    raise VarTableMismatch("matrix entries over mixed tables")
        self.n = n
        self.table = table
        self.entries = tuple(tuple(row) for row in entries)

    def __getitem__(self, ij: Tuple[int, int]) -> Polynomial:
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        return (isinstance(other, PolyMatrix) and self.n == other.n
                and self.entries == other.entries)

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if not isinstance(other, PolyMatrix) or other.n != self.n:
            raise ValueError("matrix orders differ")
        n = self.n
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc: Dict[Monomial, int] = {}
                for k in range(n):
                    _mul_into(acc, self.entries[i][k].terms,
                              other.entries[k][j].terms)
                row.append(Polynomial._own(self.table, acc))
            rows.append(row)
        return PolyMatrix(rows)

    def determinant(self) -> Polynomial:
        """Exact determinant by dynamic programming over column subsets.

        Processes rows in order; state `mask` holds the signed minor built
        from the first popcount(mask) rows and the columns in `mask`.  This
        needs O(2^n * n) polynomial multiplies and no division, which suits
        sparse polynomial entries.
        """
        n = self.n
        minors: Dict[int, Dict[Monomial, int]] = {0: self.table.one().terms}
        for i in range(n):
            nxt: Dict[int, Dict[Monomial, int]] = {}
            for mask, minor in minors.items():
                if not minor:
                    continue
                for j in range(n):
                    bit = 1 << j
                    if mask & bit:
                        continue
                    entry = self.entries[i][j].terms
                    if not entry:
                        continue
                    # Parity of columns already used that are above j.
                    sign = -1 if bin(mask >> (j + 1)).count("1") & 1 else 1
                    _mul_into(nxt.setdefault(mask | bit, {}), entry, minor, sign)
            minors = nxt
        return Polynomial._own(self.table, minors.get((1 << n) - 1, {}))

    def determinant_cofactor(self) -> Polynomial:
        """Determinant by first-row cofactor expansion (reference oracle)."""
        n = self.n
        if n == 1:
            return self.entries[0][0]
        acc = self.table.zero()
        for j in range(n):
            entry = self.entries[0][j]
            if entry.is_zero():
                continue
            minor = PolyMatrix([
                [self.entries[i][k] for k in range(n) if k != j]
                for i in range(1, n)
            ]).determinant_cofactor()
            term = entry * minor
            acc = acc + (term if j % 2 == 0 else -term)
        return acc


def int_matrix_product(a: Sequence[Sequence[int]],
                       b: Sequence[Sequence[int]]) -> List[List[int]]:
    """Exact product of two integer matrices."""
    if any(len(row) != len(b) for row in a):
        raise ValueError("matrix shapes do not match")
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


def int_matrix_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix (fraction-free Bareiss)."""
    n = len(rows)
    a = [[int(x) for x in row] for row in rows]
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]
