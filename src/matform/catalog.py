"""Catalog of the concrete form families handled by this package.

Each family bundles a degree-n form in n coordinates (integer parameters),
usually realized as the determinant of a matrix with a linear structure,
together with the bilinear or trilinear composition law the family carries.
Every family has a structure, and its form and law come from the
structure alone.  Where it is in the family's own parameters, its
determinant is the form and its closure is the law.  sextic_uv's
structure is the regular representation of its law, block upper
triangular, so each diagonal block's determinant composes under the same
law; the tests check that those are the paper's two factors.
threefold_quadratic's structure is in (t, b, c): its law psi is the
triple closure and its form Q is -det, each with t^2 read as a.  The
paper's printed laws, expansions and factorizations are the test suite's
reference data, checked there against the derived ones.  A family's own
law is proven by its derivation: the closure holds, and det is
multiplicative (`FormFamily.verify`).

The registry holds each family's metadata (description, kind, parameter
and coordinate names; the degree is the coordinate count), which
`list_families` prints without building anything, and the builder of
its structure, which `family` calls once per process, on first use.
"""

from __future__ import annotations

from functools import cache
from operator import index
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from .compose import ZeroResidual, verify_identity
from .linstruct import LinearStructure, MultilinearMap, NotClosed
from .polyring import PolyError, Polynomial, VarTable, int_matrix_determinant


class UnknownFamily(PolyError):
    """No catalog family with the requested name."""


class ParamArity(PolyError):
    """Wrong number of parameter values for the family."""


def _vars(names: Sequence[str]) -> Tuple[VarTable, Dict[str, Polynomial]]:
    table = VarTable(tuple(names))
    return table, {name: table.var(name) for name in table.names}


def _coords(prefix: str, h: int) -> Tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(h))


class FormFamily:
    """One catalog family, either fully symbolic or with numeric parameters.

    `kind` is "pair" (bilinear composition law) or "triple" (trilinear
    law only).  A family has one law per arity, `pair_map` (bilinear) and
    `triple_map()` (trilinear); argument order is the caller's.  Each is
    its structure's closure, and its form is its structure's determinant
    (each with t^2 read as a for threefold_quadratic).  A numeric family
    owns everything that depends on its parameter values (structure, form
    and laws, each derived on first use and kept); its laws and form
    equal the symbolic ones specialized, a lift's law computed
    factor-first (`LinearStructure.law_at`).  The integer A(point) of
    `matrix` is the parameter-free structure's `matrix_of`.
    """

    def __init__(self, name: str, kind: str,
                 param_names: Sequence[str], coord_names: Sequence[str],
                 structure: LinearStructure,
                 param_values: Optional[Tuple[int, ...]] = None,
                 base: Optional["FormFamily"] = None):
        self.name = name
        self.kind = kind
        self.param_names = tuple(param_names)
        self.coord_names = tuple(coord_names)
        self._structure = structure
        self.param_values = param_values  # integers, from `specialize`
        self._base = base or self
        self._form: Optional[Polynomial] = None  # derived on first use
        self._own: tuple = ()  # (the own structure,) once derived
        self._laws: Dict[int, MultilinearMap] = {}

    # -- basics ----------------------------------------------------------

    @property
    def h(self) -> int:
        return len(self.coord_names)

    @property
    def arity(self) -> int:
        return len(self.param_names)

    def is_symbolic(self) -> bool:
        return self.param_values is None

    def __repr__(self) -> str:
        vals = "symbolic" if self.is_symbolic() else self.param_values
        return f"FormFamily({self.name}, {vals})"

    def specialize(self, param_values: Sequence[int]) -> "FormFamily":
        values = tuple(map(index, param_values))
        if len(values) != self.arity:
            raise ParamArity(
                f"{self.name} takes {self.arity} parameters, got {len(values)}")
        return FormFamily(
            self.name, self.kind, self.param_names, self.coord_names,
            structure=self._structure, param_values=values, base=self._base)

    # -- matrix realization -------------------------------------------------

    def _own_structure(self) -> Optional[LinearStructure]:
        """The family's structure at this instance's values, derived once;
        None unless it is in the family's own parameters
        (threefold_quadratic's is in (t, b, c))."""
        if not self._own:
            st = self._structure
            if st.params != self.param_names:
                st = None
            elif self.param_values is not None:
                st = st.specialize(self.param_values)
            self._own = (st,)
        return self._own[0]

    @property
    def structure(self) -> LinearStructure:
        """The matrix realization for closure: the family's own structure
        at these values where every divisor is nonzero there (extraction
        would otherwise divide by zero), else the symbolic family's
        structure (threefold_quadratic's is in t, b, c)."""
        st = self._own_structure()
        return st if st is not None and all(st.divisors) \
            else self._base._structure

    # -- forms -----------------------------------------------------------

    @property
    def form(self) -> Polynomial:
        """The family's form: det of the structure where it is in the
        family's parameters; threefold_quadratic's symbolic form is -det
        with t^2 read as a, and its numeric one that form at these
        values."""
        if self._form is None:
            st = self._own_structure()
            if st is not None:
                self._form = st.form(self.coord_names)
            elif self.is_symbolic():
                self._form = _t_squared_as_a(
                    -self._structure.form(self.coord_names),
                    VarTable(self.param_names + self.coord_names))
            else:
                self._form = self._base.form.specialize(
                    dict(zip(self.param_names, self.param_values)))
        return self._form

    @property
    def printed_form(self) -> Optional[Polynomial]:
        """The quartic's printed expansion, symbolic, which bench/oracle.py
        reads: built on first read and kept.  None for every other
        family."""
        return _quartic_printed_form() if self.name == "quartic4x4" else None

    # -- maps --------------------------------------------------------------

    def _law(self, k: int) -> MultilinearMap:
        """The law of arity k (2 or 3), derived on first use and kept: the
        closure of the family's structure.  That is the object the
        structure's closure cache holds where the structure is in the
        family's own parameters; threefold_quadratic's is in (t, b, c),
        and its closure with t^2 read as a is psi.  A numeric family's law
        equals the symbolic family's law specialized; where the structure
        is in the family's own parameters it is computed factor-first,
        `LinearStructure.law_at`, and a lift's symbolic law is not built."""
        law = self._laws.get(k)
        st = self._structure
        if law is None and not self.is_symbolic() \
                and st.params != self.param_names:
            law = self._base._law(k).specialize(self.param_values)
        elif law is None:
            word = {2: "bilinear", 3: "trilinear"}[k]
            if k == 2 and self.kind == "triple":
                raise PolyError(f"{self.name} has no {word} composition map")
            law = st.closure(k) if self.is_symbolic() \
                else st.law_at(k, self.param_values)
            if isinstance(law, NotClosed):
                raise PolyError(f"{self.name} {word} closure failed unexpectedly")
            if st.params != self.param_names:
                table = VarTable(self.param_names)
                law = MultilinearMap(k, law.h, table.names, {
                    key: _t_squared_as_a(c, table)
                    for key, c in law.coeff.items()})
        self._laws[k] = law
        return law

    @property
    def pair_map(self) -> MultilinearMap:
        """The bilinear law: f(x)f(y) = f(pair_map(x, y))."""
        return self._law(2)

    def triple_map(self) -> MultilinearMap:
        """The trilinear law: f(x)f(y)f(z) = f(triple_map()(x, y, z)).  It
        is not symmetric; the caller orders the arguments it applies to."""
        return self._law(3)

    # -- identity ------------------------------------------------------------

    def verify(self, cmap: MultilinearMap) -> Union[ZeroResidual, Polynomial]:
        """Decide f(x)f(y)[f(z)] == f(cmap(x, y[, z])) for the family's form.

        The family's own law is proven by its derivation, with no
        expansion: ZeroResidual("matrix").  `_law` returns a law only from
        a successful closure, A(x)A(y)[A(z)] = A(law) entry by entry, and
        the form is det A, so det multiplicativity gives the identity.
        threefold_quadratic's closure and det are in (t, b, c) and hold
        only even powers of t (`_t_squared_as_a` raises on an odd one), so
        reading t^2 as a keeps the identity, now in a: the closure becomes
        psi and -det becomes Q, and with three factors the signs agree,
        (-1)^3 = -1.  With two they would not, which is one reason `_law`
        refuses a bilinear law for a "triple" family.  A numeric family's
        law and form are the symbolic ones specialized, and the identity
        is polynomial in the parameters, so it holds at every value,
        divisors of 0 included ("symbolic identity specialized").  Any
        other map is expanded against the form by `verify_identity`."""
        if not self._is_own_law(cmap):
            return verify_identity(self.form, cmap, self.coord_names)
        return ZeroResidual("matrix", "closure of the family's structure"
                            if self.is_symbolic()
                            else "symbolic identity specialized")

    def _is_own_law(self, cmap: MultilinearMap) -> bool:
        try:
            return cmap == self._law(cmap.k)
        except PolyError:  # the family has no law of that arity
            return False

    # -- numeric evaluation -------------------------------------------------

    def _check_point(self, point: Sequence[int]) -> None:
        """Raise ValueError unless the family is numeric and `point` has
        one entry per coordinate; the callee converts it to integers."""
        if self.param_values is None and self.arity > 0:
            raise ValueError(f"{self.name} needs numeric parameter values")
        if len(point) != self.h:
            raise ValueError(f"point must have length {self.h}")

    def matrix(self, point: Sequence[int]) -> Optional[List[List[int]]]:
        """The integer matrix A(point) whose determinant is the form, or
        None where the family has no parameter-free structure at these
        values (threefold_quadratic)."""
        self._check_point(point)
        st = self._own_structure()
        return None if st is None else st.matrix_of(point)

    def evaluate(self, point: Sequence[int]) -> int:
        """Exact integer value of the form at an integer point: det of
        `matrix`, or the form evaluated where there is none."""
        a = self.matrix(point)
        if a is not None:
            return int_matrix_determinant(a)
        return self.form.eval_vector(list(map(index, point)))


# -- shared structure pieces --------------------------------------------------


def _pell_structure(c1: str, c2: str) -> LinearStructure:
    """[[a1, a2], [-c2*a2, a1 + c1*a2]]: the norm-like 2x2 family whose
    linear structure is closed under pairwise products."""
    t, v = _vars((c1, c2, "a1", "a2"))
    p, q, a1, a2 = (v[c1], v[c2], v["a1"], v["a2"])
    return LinearStructure.from_matrix(
        (c1, c2), ("a1", "a2"),
        [[a1, a2], [-q * a2, a1 + p * a2]])


def _tracefree_structure(ct: str, cb: str, cc: str) -> LinearStructure:
    """[[t*a1, a2], [b*a1 + c*a2, -t*a1]]: trace-free 2x2 family, closed
    only under triple products; the first row is read back divided by t
    and 1, the coefficients there."""
    t, v = _vars((ct, cb, cc, "a1", "a2"))
    tv, bv, cv, a1, a2 = (v[ct], v[cb], v[cc], v["a1"], v["a2"])
    return LinearStructure.from_matrix(
        (ct, cb, cc), ("a1", "a2"),
        [[tv * a1, a2], [bv * a1 + cv * a2, -tv * a1]])


def _cubic_structure() -> LinearStructure:
    """The 3x3 family in five parameters closed under pairwise products."""
    t, v = _vars(("l1", "l2", "l3", "l4", "l5", "x1", "x2", "x3"))
    l1, l2, l3, l4, l5 = (v["l1"], v["l2"], v["l3"], v["l4"], v["l5"])
    x1, x2, x3 = (v["x1"], v["x2"], v["x3"])
    return LinearStructure.from_matrix(
        ("l1", "l2", "l3", "l4", "l5"), ("x1", "x2", "x3"),
        [
            [x1, x2, x3],
            [-l3 * (l1 - l2 - l3 + l5) * x2 - l3 * (l2 - l4) * x3,
             x1 + l1 * x2 + l2 * x3,
             l3 * x2 + l3 * x3],
            [-l3 * (l2 - l4) * x2
             + (-l1 * l4 + l2 * l2 - l2 * l5 + l3 * l4) * x3,
             l2 * x2 + l4 * x3,
             x1 + l3 * x2 + l5 * x3],
        ])


# -- threefold_quadratic, from its structure in (t, b, c) ---------------------


def _t_squared_as_a(poly: Polynomial, table: VarTable) -> Polynomial:
    """`poly`, whose first variable is t, over `table`, whose first is a,
    with t^2 read as a; raises ValueError on an odd power of t."""
    terms = {}
    for m, c in poly.terms.items():
        if m[0] % 2:
            raise ValueError(f"odd power of {poly.table.names[0]} in {poly}")
        terms[(m[0] // 2,) + m[1:]] = c
    return Polynomial(table, terms)


# -- the printed quartic -------------------------------------------------------


@cache
def _quartic_printed_form() -> Polynomial:
    t, v = _vars(("m", "n", "p", "q", "x1", "x2", "x3", "x4"))
    m, n, p, q = v["m"], v["n"], v["p"], v["q"]
    x1, x2, x3, x4 = v["x1"], v["x2"], v["x3"], v["x4"]
    return (x1**4 + 2*m*x1**3*x2 + 2*p*x1**3*x3 + m*p*x1**3*x4
            + (m**2 + 2*n)*x1**2*x2**2 + 3*m*p*x1**2*x2*x3
            + (m**2 + 2*n)*p*x1**2*x2*x4
            + (p**2 + 2*q)*x1**2*x3**2 + (p**2 + 2*q)*m*x1**2*x3*x4
            + (m**2*q + n*p**2 - 2*n*q)*x1**2*x4**2
            + 2*m*n*x1*x2**3 + (m**2 + 2*n)*p*x1*x2**2*x3
            + 3*m*n*p*x1*x2**2*x4 + (p**2 + 2*q)*m*x1*x2*x3**2
            + (m**2*p**2 + 8*n*q)*x1*x2*x3*x4
            + (p**2 + 2*q)*m*n*x1*x2*x4**2 + 2*p*q*x1*x3**3
            + 3*m*p*q*x1*x3**2*x4 + (m**2 + 2*n)*p*q*x1*x3*x4**2
            + m*n*p*q*x1*x4**3 + n**2*x2**4
            + m*n*p*x2**3*x3 + 2*n**2*p*x2**3*x4
            + (m**2*q + n*p**2 - 2*n*q)*x2**2*x3**2
            + (p**2 + 2*q)*m*n*x2**2*x3*x4 + (p**2 + 2*q)*n**2*x2**2*x4**2
            + m*p*q*x2*x3**3 + (m**2 + 2*n)*p*q*x2*x3**2*x4
            + 3*m*n*p*q*x2*x3*x4**2 + 2*n**2*p*q*x2*x4**3 + q**2*x3**4
            + 2*m*q**2*x3**3*x4 + (m**2 + 2*n)*q**2*x3**2*x4**2
            + 2*m*n*q**2*x3*x4**3 + n**2*q**2*x4**4)


# -- the registry --------------------------------------------------------------


def _circulant_structure() -> LinearStructure:
    """The 6x6 block matrix of two 3x3 circulants, the lower one times q."""
    t, v = _vars(("q", "x1", "x2", "x3", "x4", "x5", "x6"))
    q = v["q"]
    x1, x2, x3, x4, x5, x6 = (v["x1"], v["x2"], v["x3"],
                              v["x4"], v["x5"], v["x6"])
    return LinearStructure.from_matrix(
        ("q",), ("x1", "x2", "x3", "x4", "x5", "x6"),
        [
            [x1, x2, x3, x4, x5, x6],
            [x3, x1, x2, x6, x4, x5],
            [x2, x3, x1, x5, x6, x4],
            [q*x4, q*x5, q*x6, x1, x2, x3],
            [q*x6, q*x4, q*x5, x3, x1, x2],
            [q*x5, q*x6, q*x4, x2, x3, x1],
        ])


def _sextic_uv_structure() -> LinearStructure:
    """A(u) = L(u)^T, L(u) the left-regular matrix of the law of a
    6-dimensional commutative algebra over Z[q] with unit e1.  A is block
    upper triangular, and its lower-left 4x2 block stays zero under
    products, so each diagonal block multiplies by itself: their
    determinants, u1^2 - q*u2^2 and a quartic, compose simultaneously
    under the one law, and det A is their product."""
    coords = _coords("u", 6)
    t, v = _vars(("q",) + coords)
    q, zero = v["q"], t.zero()
    u1, u2, u3, u4, u5, u6 = (v[name] for name in coords)
    return LinearStructure.from_matrix(("q",), coords, [
        [u1, u2, u3, u4, u5, u6],
        [q*u2, u1, q*u4, u6, u3, q*u2 - q*u4 - q*u5],
        [zero, zero, u1 - 2*u3 - u6, -u4 + u5, u2 - u4 - 2*u5, u3 - u6],
        [zero, zero, q*u2 - 2*q*u4 - q*u5, u1 - u3 - 2*u6, -u3 + u6,
         -q*u2 + q*u4 + 2*q*u5],
        [zero, zero, -q*u4 + q*u5, u3 - u6, u1 - 2*u3 - u6,
         -q*u2 + 2*q*u4 + q*u5],
        [zero, zero, -u3 + u6, u2 - 2*u4 - u5, u4 - u5, u1 - u3 - 2*u6],
    ])


def _quartic_block() -> LinearStructure:
    return _pell_structure("p", "q").block_compose(
        _pell_structure("m", "n"), ("m", "n", "p", "q"))


class _Entry(NamedTuple):
    """A family's registry entry.  The metadata, which `list_families`
    prints, is read without building anything; the degree is the number of
    coordinates (n variables, degree n).  `build()` returns the family's
    structure, all the run path reads."""
    description: str
    kind: str
    params: Tuple[str, ...]
    coords: Tuple[str, ...]
    build: Callable[[], LinearStructure]


_REGISTRY: Dict[str, _Entry] = {
    "quad2x2": _Entry(
        "binary quadratic x1^2 + p*x1*x2 + q*x2^2 as a 2x2 determinant",
        "pair", ("p", "q"), _coords("x", 2),
        lambda: _pell_structure("p", "q")),
    "cubic3x3": _Entry(
        "ternary cubic in five parameters; not a norm form in general",
        "pair", ("l1", "l2", "l3", "l4", "l5"), _coords("x", 3),
        _cubic_structure),
    "quartic4x4": _Entry(
        "quaternary quartic from a 2x2-of-2x2 block construction",
        "pair", ("m", "n", "p", "q"), _coords("x", 4),
        _quartic_block),
    "sextic6x6": _Entry(
        "senary sextic from a 2x2-of-3x3 block construction (11926 terms)",
        "pair", ("l1", "l2", "l3", "l4", "l5", "p", "q"), _coords("x", 6),
        lambda: _pell_structure("p", "q").block_compose(
            _cubic_structure(), ("l1", "l2", "l3", "l4", "l5", "p", "q"))),
    "sextic_circulant": _Entry(
        "senary sextic from a block matrix of two 3x3 circulants; splits "
        "into a quadratic times a quartic factor",
        "pair", ("q",), _coords("x", 6),
        _circulant_structure),
    "sextic_uv": _Entry(
        "simultaneous pair u1^2 - q*u2^2 and a quartic in u1..u6 composed "
        "by one shared bilinear map",
        "pair", ("q",), _coords("u", 6),
        _sextic_uv_structure),
    "octic8x8": _Entry(
        "octonary octic from a 2x2-of-4x4 block construction",
        "pair", ("m", "n", "p", "q", "r", "s"), _coords("x", 8),
        lambda: _pell_structure("r", "s").block_compose(
            _quartic_block(), ("m", "n", "p", "q", "r", "s"))),
    # the structure is in (t, b, c) with t^2 in the determinant; the
    # family's own form uses a in place of t^2: only even powers of t occur
    "threefold_quadratic": _Entry(
        "binary quadratic a*x1^2 + b*x1*x2 + c*x2^2 with one trilinear "
        "law, applied to its arguments in any order",
        "triple", ("a", "b", "c"), _coords("x", 2),
        lambda: _tracefree_structure("t", "b", "c")),
    "threefold4x4": _Entry(
        "quaternary quartic from trace-free 2x2 blocks; admits only a "
        "trilinear composition law",
        "triple", ("m", "n", "p", "q", "s", "t"), _coords("x", 4),
        lambda: _tracefree_structure("t", "p", "q").block_compose(
            _tracefree_structure("s", "m", "n"), ("m", "n", "p", "q", "s", "t"))),
    "threefold8x8": _Entry(
        "octonary octic mixing one pairwise-closed and one triple-only "
        "block level; admits only a trilinear composition law",
        "triple", ("m", "n", "p", "q", "r", "s", "t"), _coords("x", 8),
        lambda: _pell_structure("r", "s").block_compose(
            _pell_structure("p", "q").block_compose(
                _tracefree_structure("t", "m", "n")),
            ("m", "n", "p", "q", "r", "s", "t"))),
}

_SYMBOLIC: Dict[str, FormFamily] = {}


def family(name: str, params: Optional[Sequence[int]] = None) -> FormFamily:
    """Look up a family; `params=None` gives the fully symbolic version,
    built from its registry entry on first use and kept."""
    entry = _REGISTRY.get(name)
    if entry is None:
        raise UnknownFamily(name)
    fam = _SYMBOLIC.get(name)
    if fam is None:
        fam = _SYMBOLIC[name] = FormFamily(
            name, entry.kind, entry.params, entry.coords, entry.build())
    if params is None:
        return fam
    return fam.specialize(params)


def list_families() -> List[dict]:
    """Registry entries in catalog order, for the CLI; builds no family."""
    return [{"name": name, "kind": e.kind, "degree": len(e.coords),
             "coords": len(e.coords), "params": list(e.params),
             "description": e.description} for name, e in _REGISTRY.items()]

