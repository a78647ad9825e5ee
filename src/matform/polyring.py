"""Exact sparse multivariate polynomial arithmetic over arbitrary-precision integers.

A polynomial is a dict mapping exponent tuples (one non-negative int per
variable of its VarTable) to nonzero Python ints.  All arithmetic is exact;
there is no floating point anywhere.  Term order is graded lexicographic
(total degree first, then lex on the exponent tuple) and is applied only
when serializing or printing, so arithmetic stays hash-map fast while
output stays deterministic.

Exponent tuples are the form at rest (`terms`, printing, JSON); every
product packs them into ints (`Packing`) so that a monomial product is one
int addition, and `_mul_packed` is the one product kernel: `*` (and `**`,
binary powering over it), the matrix product, `determinant`, the one
substitution kernel `substitute`, and closure in `linstruct`.  A packed
product runs only where two multi-term polynomials meet: `specialize`, like
`instantiate` in `linstruct`, is a term map that takes no product.
"""

from __future__ import annotations

import contextlib
import json
import operator
import sys
from itertools import chain
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, TextIO, Tuple)

Monomial = Tuple[int, ...]


class PolyError(Exception):
    """Base class for errors raised by this package."""


class VarTableMismatch(PolyError):
    """Two polynomials over different variable tables were combined."""


class UnknownVariable(PolyError):
    """A variable name is not present in the VarTable."""


class UnassignedVariable(PolyError):
    """Evaluation point leaves a variable without a value."""


@contextlib.contextmanager
def no_int_str_limit():
    """Lift CPython's int/str digit limit (3.10.7 and later) for the
    duration: output and error messages name values past 4300 digits."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


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

    def __repr__(self) -> str:
        return f"VarTable({list(self.names)!r})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownVariable(name) from None

    def var(self, name: str) -> "Polynomial":
        """The polynomial consisting of the single variable `name`."""
        exps = [0] * len(self.names)
        exps[self.index(name)] = 1
        return Polynomial._own(self, {tuple(exps): 1})

    def const(self, c: int) -> "Polynomial":
        c = operator.index(c)
        if c == 0:
            return Polynomial._own(self, {})
        return Polynomial._own(self, {(0,) * len(self.names): c})

    def zero(self) -> "Polynomial":
        return Polynomial._own(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def vars(self) -> Tuple["Polynomial", ...]:
        """All variables as polynomials, in table order."""
        return tuple(self.var(name) for name in self.names)


def _exponents(m: Iterable[int], width: int) -> Monomial:
    """`m` as a tuple of `width` non-negative ints; TypeError for a
    non-int, ValueError for a wrong length or a negative exponent."""
    m = tuple(map(operator.index, m))
    if len(m) != width or min(m, default=0) < 0:
        raise ValueError(f"{m} is not {width} non-negative exponents")
    return m


class Polynomial:
    """Immutable sparse polynomial with exact integer coefficients."""

    __slots__ = ("table", "terms")

    def __init__(self, table: VarTable, terms: Mapping[Monomial, int]):
        checked = [(_exponents(m, len(table)), c) for m, c in terms.items()]
        self.table = table
        self.terms: Dict[Monomial, int] = {m: c for m, c in checked if c}

    @classmethod
    def _own(cls, table: VarTable, terms: Dict[Monomial, int]) -> "Polynomial":
        """Wrap a dict that already holds no zero coefficient; the new
        polynomial takes ownership of it (no copy, no zero filter)."""
        poly = object.__new__(cls)
        poly.table, poly.terms = table, terms
        return poly

    # -- basics ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def term_count(self) -> int:
        return len(self.terms)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(map(sum, self.terms), default=-1)

    def constant_term(self) -> int:
        return self.terms.get((0,) * len(self.table), 0)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.table.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

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
        return Polynomial._own(self.table, _add_into(dict(self.terms),
                                                     self._coerce(other).terms))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._own(self.table, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return Polynomial._own(self.table, _add_into(dict(self.terms),
                                                     self._coerce(other).terms, -1))

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        # a product's exponent is the sum of one from each factor
        pack = Packing(self.table, _top((self,)) + _top((other,)))
        return pack.poly(_mul_packed({}, pack.pack_terms(self.terms),
                                     pack.pack_terms(other.terms)))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Polynomial":
        """self^e by binary powering over the bits of e from the top: square
        at every bit, then multiply by self at a set bit, each a `*`."""
        e = operator.index(e)
        if e < 0:
            raise ValueError("negative power of a polynomial")
        if not e:
            return self.table.one()
        result = self
        for bit in bin(e)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
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
        images = [values[name] if name in values else target.var(name)
                  for name in self.table.names]
        # sum of c * prod_i images[i] ** m[i] over the terms (m, c), with
        # every product taken on packed monomials.  A term of degree d maps
        # to a product of d image terms, so no exponent exceeds
        # total_degree(self) times the largest image one
        pack = Packing(target, max(self.total_degree(), 0) * _top(images))
        # powers[i][e] = images[i] ** e, each from the one before it
        powers = [[{0: 1}, pack.pack_terms(im.terms)] for im in images]

        def power(i: int, e: int) -> Dict[int, int]:
            row = powers[i]
            while len(row) <= e:
                row.append(_mul_packed({}, row[1], row[-1]))
            return row[e]

        acc: Dict[int, int] = {}
        for m, c in self.terms.items():
            *rest, last = [power(i, e) for i, e in enumerate(m) if e] or [{0: 1}]
            term = {0: c}
            for f in rest:
                term = _mul_packed({}, term, f)
            _mul_packed(acc, term, last)
        return pack.poly(acc)

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
        return Polynomial._own(target, out)

    def specialize(self, values: Mapping[str, int]) -> "Polynomial":
        """Substitute integers for a subset of variables, dropping them
        from the table.  The remaining variables keep their order.  Each
        term maps to the one term c * prod_i values[i] ** m[i] of the kept
        exponents, so no polynomial product is taken."""
        fixed = [(self.table.index(name), operator.index(v))
                 for name, v in values.items()]  # raises UnknownVariable
        keep = [i for i, name in enumerate(self.table.names)
                if name not in values]
        out: Dict[Monomial, int] = {}
        get = out.get
        for m, c in self.terms.items():
            for i, v in fixed:
                c *= v ** m[i]
            if c:
                key = tuple([m[i] for i in keep])
                s = get(key, 0) + c
                if s:
                    out[key] = s
                else:
                    del out[key]
        return Polynomial._own(VarTable(self.table.names[i] for i in keep), out)

    def eval_vector(self, values: Sequence[int]) -> int:
        """Exact value given one integer per table variable, in order."""
        if len(values) != len(self.table):
            raise UnassignedVariable("point length != table size")
        total = 0
        for m, c in self.terms.items():
            for x, e in zip(values, m):
                if e:
                    c *= x ** e
            total += c
        return total

    # -- printing and JSON ------------------------------------------------

    def sorted_terms(self) -> Iterator[Tuple[Monomial, int]]:
        """Terms in graded-lex descending order (the canonical order): total
        degree first, then lex on the exponent tuple; one pair at a time."""
        monos = sorted(self.terms, reverse=True)
        monos.sort(key=sum, reverse=True)  # stable: lex order within a degree
        return ((m, self.terms[m]) for m in monos)

    def __str__(self) -> str:
        """The text "c*x^e*y + ..." in `sorted_terms` order: the join of
        `text_pieces`."""
        return "".join(self.text_pieces())

    def text_pieces(self) -> Iterator[str]:
        """The text of `str` in pieces, one per term, so a large form goes
        out in chunks (`write_chunks`)."""
        if not self.terms:
            yield "0"
        plus, minus = "", "-"
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
            yield (plus if c > 0 else minus) + body
            plus, minus = " + ", " - "

    def __repr__(self) -> str:
        return f"Polynomial({self})"

    def to_json(self) -> str:
        """Canonical JSON text, {"vars": [...], "terms": [{"c": "<decimal>",
        "e": [...]}, ...]} in `sorted_terms` order, spaced as json.dumps is:
        the join of `json_pieces`."""
        return "".join(self.json_pieces())

    def json_pieces(self) -> Iterator[str]:
        """The text of `to_json` in pieces, one per term (exponents spelled
        from a table), so a large form goes out in chunks (`write_chunks`)."""
        yield '{"vars": %s, "terms": [' % _QUOTED[self.table.names]
        sep, spell = "", _SPELLING.__getitem__
        for m, c in self.sorted_terms():
            yield '%s{"c": "%d", "e": [%s]}' % (sep, c, ", ".join(map(spell, m)))
            sep = ", "
        yield "]}"


class _Spelling(dict):
    """{key: spell(key)}, each entry made on its first lookup."""
    def __init__(self, spell):
        super().__init__()
        self.spell = spell

    def __missing__(self, key) -> str:
        return self.setdefault(key, self.spell(key))


_SPELLING = _Spelling(str)  # {e: str(e)}
_QUOTED = _Spelling(json.dumps)  # {a table's names: their JSON list}

# The least text per write of a long output, in characters (all ASCII, so
# bytes).  Below glibc's default 128 KB mmap threshold: a larger chunk's
# join and its encoded copy take fresh pages and raise the peak RSS.
_CHUNK = 2 ** 16


def write_chunks(out: TextIO, pieces: Iterable[str]) -> None:
    """Write the concatenation of `pieces` in chunks of at least _CHUNK
    characters, the last one shorter, so an unbuffered `out` makes one
    system call per chunk rather than one per piece, and no more than a
    chunk and a piece of the text is held at once."""
    chunk, size = [], 0
    for text in pieces:
        chunk.append(text)
        size += len(text)
        if size >= _CHUNK:
            out.write("".join(chunk))
            chunk, size = [], 0
    out.write("".join(chunk))


def _add_into(out: Dict[Monomial, int], terms: Mapping[Monomial, int],
              scale: int = 1) -> Dict[Monomial, int]:
    """out += scale * terms, in place and returned; keeps `out` free of
    zeros."""
    get = out.get
    for m, c in terms.items():
        s = get(m, 0) + scale * c
        if s:
            out[m] = s
        else:
            del out[m]
    return out


def _top(polys: Iterable[Polynomial]) -> int:
    """The largest exponent of any variable in any of `polys`; 0 if none."""
    monomials = chain.from_iterable(p.terms for p in polys)
    return max(chain.from_iterable(monomials), default=0)


class Packing:
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

    def pack_terms(self, terms: Mapping[Monomial, int]) -> Dict[int, int]:
        return {self.pack(m): c for m, c in terms.items()}

    def poly(self, terms: Dict[int, int]) -> Polynomial:
        """The polynomial of zero-free packed `terms`, unpacked."""
        shifts, mask = self.shifts, self.mask
        return Polynomial._own(self.table, {
            tuple([(m >> s) & mask for s in shifts]): c
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
                scale: int = 1) -> Dict[int, int]:
    """out += scale * a * b over packed monomials, in place and returned;
    keeps `out` free of zeros.  The smaller factor is the outer loop."""
    if len(a) > len(b):
        a, b = b, a
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
    return out


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
        if any(p.table != table for row in entries for p in row):
            raise VarTableMismatch("matrix entries over mixed tables")
        self.n = n
        self.table = table
        self.entries = tuple(tuple(row) for row in entries)

    def __getitem__(self, ij: Tuple[int, int]) -> Polynomial:
        return self.entries[ij[0]][ij[1]]

    def __eq__(self, other) -> bool:
        return (isinstance(other, PolyMatrix) and self.n == other.n
                and self.entries == other.entries)

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if not isinstance(other, PolyMatrix) or other.n != self.n:
            raise ValueError("matrix orders differ")
        if other.table != self.table:
            raise VarTableMismatch(f"{other.table!r} differs from {self.table!r}")
        # an entry's term is a product of one entry term from each side
        pack = Packing(self.table, sum(_top(chain.from_iterable(m.entries))
                                       for m in (self, other)))
        a, b = ([[pack.pack_terms(p.terms) for p in row] for row in m.entries]
                for m in (self, other))

        def entry(i: int, j: int) -> Polynomial:
            acc: Dict[int, int] = {}
            for k in range(self.n):
                _mul_packed(acc, a[i][k], b[k][j])
            return pack.poly(acc)
        return PolyMatrix([[entry(i, j) for j in range(self.n)]
                           for i in range(self.n)])

    def determinant(self) -> Polynomial:
        """Exact determinant by dynamic programming over column subsets.

        Processes rows in order; state `mask` holds the signed minor built
        from the first popcount(mask) rows and the columns in `mask`.  This
        needs O(2^n * n) polynomial multiplies and no division, which suits
        sparse polynomial entries.
        """
        # a minor's term is a product of one entry term per row, so no
        # exponent exceeds the sum over rows of that row's largest one
        pack = Packing(self.table, sum(map(_top, self.entries)))
        rows = [[pack.pack_terms(p.terms) for p in row] for row in self.entries]
        minors: Dict[int, Dict[int, int]] = {0: {0: 1}}
        for row in rows:
            nxt: Dict[int, Dict[int, int]] = {}
            for mask, minor in minors.items():
                if not minor:
                    continue
                for j, entry in enumerate(row):
                    bit = 1 << j
                    if mask & bit or not entry:
                        continue
                    # Parity of columns already used that are above j.
                    sign = -1 if bin(mask >> (j + 1)).count("1") & 1 else 1
                    _mul_packed(nxt.setdefault(mask | bit, {}), entry, minor, sign)
            minors = nxt
        return pack.poly(minors.get((1 << self.n) - 1, {}))


def int_matrix_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix (fraction-free Bareiss); a
    float entry raises TypeError."""
    a = [list(map(operator.index, row)) for row in rows]
    if any(len(row) != len(a) for row in a):
        raise ValueError("matrix must be square")
    return bareiss(a, len(a)) * a[-1][-1]


def bareiss(a: List[List[int]], n: int) -> int:
    """Fraction-free elimination, in place, of integer rows whose first n
    columns are square (later columns carried along): a[n-1][n-1] becomes
    det of the rows as permuted; returns their sign, 0 if singular early."""
    sign, prev = 1, 1
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
            for j in range(k + 1, len(a[i])):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign
