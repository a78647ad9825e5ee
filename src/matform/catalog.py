"""Catalog of the concrete form families handled by this package.

Each family bundles a degree-n form in n coordinates (integer parameters),
usually realized as the determinant of a matrix with a linear structure,
together with the bilinear or trilinear composition law the family carries.
Where the structure is in the family's own parameters, its determinant is
the form and its closure is the law: both come from the structure alone.
A law is transcribed here only for the two families without such a
structure (sextic_uv has none, threefold_quadratic's is in t, b, c).  The
paper's printed laws and expansions are the test suite's reference data,
checked there against the derived ones.

The registry holds each family's metadata (description, kind, parameter
and coordinate names, degree), which `list_families` reads without
building anything, and the builder of its heavy parts, which `family`
calls once per process, on first use.
"""

from __future__ import annotations

import math
from operator import index
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from .compose import ZeroResidual, verify_identity
from .linstruct import (LinearStructure, MultilinearMap, NotClosed,
                        argument_names)
from .polyring import (PolyError, Polynomial, VarTable, int_matrix_determinant)


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

    `kind` is "pair" (bilinear composition law), "triple" (trilinear law
    only), or "uv" (the simultaneous two-form system with no matrix
    structure of its own).  A family has one law per arity, `pair_map`
    (bilinear) and `triple_map()` (trilinear); argument order is the
    caller's.  Each is its structure's closure where the structure is in
    the family's own parameters, else the `law` passed in (the only law a
    family without such a structure has).  A numeric family owns
    everything that depends on its parameter values (structure, form and
    laws, each derived on first use and kept; the structure carries its
    own read positions) and proves its identity with `verify`.  The
    integer A(point) of `matrix` is the parameter-free structure's
    `matrix_of`.
    """

    def __init__(self, name: str, description: str, kind: str,
                 param_names: Sequence[str], coord_names: Sequence[str],
                 degree: int,
                 structure: Optional[LinearStructure] = None,
                 law: Optional[MultilinearMap] = None,
                 printed_form: Optional[Polynomial] = None,
                 factors: Optional[Tuple[Polynomial, ...]] = None,
                 degenerate_witness: Optional[Tuple[int, ...]] = None,
                 param_values: Optional[Tuple[int, ...]] = None,
                 base: Optional["FormFamily"] = None):
        self.name = name
        self.description = description
        self.kind = kind
        self.param_names = tuple(param_names)
        self.coord_names = tuple(coord_names)
        self.degree = degree
        self._structure = structure
        # the quartic's printed expansion, symbolic; bench/oracle.py reads it
        self.printed_form = printed_form
        self._factors_symbolic = factors
        self.degenerate_witness = degenerate_witness
        self.param_values = param_values  # integers, from `specialize`
        self._base = base or self
        self._form: Optional[Polynomial] = None
        self._factors: Optional[Tuple[Polynomial, ...]] = None
        self._own: Optional[tuple] = None
        self._laws: Dict[int, MultilinearMap] = \
            {} if law is None else {law.k: law}

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
            self.name, self.description, self.kind, self.param_names,
            self.coord_names, self.degree, structure=self._structure,
            printed_form=self.printed_form,
            factors=self._factors_symbolic,
            degenerate_witness=self.degenerate_witness,
            param_values=values, base=self._base)

    # -- matrix realization -------------------------------------------------

    def _own_structure(self):
        """(structure, readable) at this instance's values, derived once.

        The structure is None unless it is in the family's own parameters
        (threefold_quadratic's is in (t, b, c), sextic_uv has none).
        `readable` means every divisor of the structure is nonzero at
        these values; extraction would otherwise divide by zero.
        """
        if self._own is None:
            st = self._structure
            if st is None or st.params != self.param_names:
                st = None
            elif self.param_values is not None:
                st = st.specialize(self.param_values)
            self._own = (st, st is not None and all(st.divisors))
        return self._own

    @property
    def structure(self) -> Optional[LinearStructure]:
        """The matrix realization for closure: the family's own structure
        at these values where `_own_structure` finds it readable, else the
        symbolic family's structure (threefold_quadratic's is in t, b, c;
        sextic_uv has none)."""
        st, readable = self._own_structure()
        return st if readable else self._base._structure

    # -- forms -----------------------------------------------------------

    @property
    def form(self) -> Polynomial:
        """The family's form: det of the structure where it is in the
        family's parameters, else the product of the factor forms."""
        if self._form is None:
            st = self._own_structure()[0]
            self._form = (st.form(self.coord_names) if st is not None
                          else math.prod(self.factors))
        return self._form

    @property
    def factors(self) -> Tuple[Polynomial, ...]:
        """The factor forms whose simultaneous composition the family's map
        realizes; a single-element tuple for irreducible families."""
        if self._factors is None:
            if self._factors_symbolic is None:
                self._factors = (self.form,)
            elif self.is_symbolic():
                self._factors = self._factors_symbolic
            else:
                values = dict(zip(self.param_names, self.param_values))
                self._factors = tuple(f.specialize(values)
                                      for f in self._factors_symbolic)
        return self._factors

    # -- maps --------------------------------------------------------------

    def _law(self, k: int) -> MultilinearMap:
        """The law of arity k (2 or 3), derived on first use and kept: the
        law passed in, else the closure of the structure in the family's
        own parameters (the object its closure cache holds).  A numeric
        family specializes the symbolic family's law."""
        law = self._laws.get(k)
        if law is None and not self.is_symbolic():
            law = self._base._law(k).specialize(self.param_values)
        elif law is None:
            word = {2: "bilinear", 3: "trilinear"}[k]
            st = self._own_structure()[0]
            if st is None or (k == 2 and self.kind == "triple"):
                raise PolyError(f"{self.name} has no {word} composition map")
            law = st.closure(k)
            if isinstance(law, NotClosed):
                raise PolyError(f"{self.name} {word} closure failed unexpectedly")
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
        """`verify_identity` of the family's form under `cmap`.  The form is
        passed as None (det of the family's own structure) wherever that
        structure is readable.  Where one of its divisors vanishes, the
        symbolic identity proves `cmap` if it is the family's map here."""
        st, readable = self._own_structure()
        if readable:
            return verify_identity(None, cmap, self.coord_names, structure=st)
        base = self._base
        if st is not None and base is not self and \
                (cmap.k == 3 or self.kind != "triple") and \
                cmap == self._law(cmap.k) and \
                isinstance(base.verify(base._law(cmap.k)), ZeroResidual):
            return ZeroResidual("matrix", "divisor vanishes; "
                                "symbolic identity specialized")
        return verify_identity(self.form, cmap, self.coord_names,
                               factors=self.factors)

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
        values (sextic_uv, threefold_quadratic)."""
        self._check_point(point)
        st = self._own_structure()[0]
        return None if st is None else st.matrix_of(point)

    def evaluate(self, point: Sequence[int]) -> int:
        """Exact integer value of the form at an integer point."""
        a = self.matrix(point)
        if a is not None:
            return int_matrix_determinant(a)
        return math.prod(self.evaluate_factors(point))

    def evaluate_factors(self, point: Sequence[int]) -> Tuple[int, ...]:
        """Exact value of each factor form at an integer point."""
        self._check_point(point)
        pt = list(map(index, point))
        return tuple(f.eval_vector(pt) for f in self.factors)


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


# -- laws of the families without a structure in their own parameters ---------


def _map_from(params: Sequence[str], h: int, k: int, builder) -> MultilinearMap:
    """The arity-k map whose outputs `builder` writes in x.., y.. [, z..]."""
    coord_sets = argument_names(h, k)
    _, v = _vars(tuple(params) + sum(coord_sets, ()))
    return MultilinearMap.from_forms(builder(v), params, coord_sets)


def _uv_map() -> MultilinearMap:
    # The map is written below in x (first argument) and y (second argument);
    # the family's own coordinates are named u1..u6.
    def build(v):
        q = v["q"]
        u1, u2, u3, u4, u5, u6 = (v["x1"], v["x2"], v["x3"],
                                  v["x4"], v["x5"], v["x6"])
        v1, v2, v3, v4, v5, v6 = (v["y1"], v["y2"], v["y3"],
                                  v["y4"], v["y5"], v["y6"])
        w1 = u1*v1 + q*u2*v2
        w2 = u1*v2 + u2*v1
        w3 = (u1*v3 + q*u2*v4 + u3*v1 - 2*u3*v3 - u3*v6 + q*u4*v2
              - 2*q*u4*v4 - q*u4*v5 - q*u5*v4 + q*u5*v5 - u6*v3 + u6*v6)
        w4 = (u1*v4 + u2*v6 - u3*v4 + u3*v5 + u4*v1 - u4*v3 - 2*u4*v6
              + u5*v3 - u5*v6 + u6*v2 - 2*u6*v4 - u6*v5)
        w5 = (u1*v5 + u2*v3 + u3*v2 - u3*v4 - 2*u3*v5 - u4*v3
              + u4*v6 + u5*v1 - 2*u5*v3 - u5*v6 + u6*v4 - u6*v5)
        w6 = (u1*v6 + q*u2*v2 - q*u2*v4 - q*u2*v5 + u3*v3 - u3*v6
              - q*u4*v2 + q*u4*v4 + 2*q*u4*v5 - q*u5*v2 + 2*q*u5*v4
              + q*u5*v5 + u6*v1 - u6*v3 - 2*u6*v6)
        return [w1, w2, w3, w4, w5, w6]
    return _map_from(("q",), 6, 2, build)


def _threefold_quadratic_map() -> MultilinearMap:
    """The trilinear law psi of Q = a*x1^2 + b*x1*x2 + c*x2^2:
    Q(x)Q(y)Q(z) = Q(psi(x, y, z)).  It is the triple closure of the
    trace-free structure in (t, b, c) with t^2 read as a."""
    def build(v):
        a, b, c, x1, x2, y1, y2, z1, z2 = (v[name] for name in (
            "a", "b", "c", "x1", "x2", "y1", "y2", "z1", "z2"))
        return [a*x1*y1*z1 + b*x1*y2*z1 + c*x1*y2*z2 - c*x2*y1*z2 + c*x2*y2*z1,
                a*x1*y1*z2 - a*x1*y2*z1 + a*x2*y1*z1 + b*x2*y1*z2 + c*x2*y2*z2]
    return _map_from(("a", "b", "c"), 2, 3, build)


# -- forms and factors --------------------------------------------------------


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


def _circulant_factors() -> Tuple[Polynomial, Polynomial]:
    t, v = _vars(("q", "x1", "x2", "x3", "x4", "x5", "x6"))
    q = v["q"]
    x1, x2, x3, x4, x5, x6 = (v["x1"], v["x2"], v["x3"],
                              v["x4"], v["x5"], v["x6"])
    f1 = (x1 + x2 + x3)**2 - q*(x4 + x5 + x6)**2
    f2 = (x1**4 - (2*x2 + 2*x3)*x1**3
          + (3*x2**2 + 3*x3**2 - 2*q*x4**2 + 2*q*x4*x5 + 2*q*x4*x6
             + q*x5**2 - 4*q*x5*x6 + q*x6**2)*x1**2
          + (-2*x2**3 + 2*q*x2*x4**2 - 8*q*x2*x4*x5 + 4*q*x2*x4*x6
             + 2*q*x2*x5**2 + 4*q*x2*x5*x6 - 4*q*x2*x6**2 - 2*x3**3
             + 2*q*x3*x4**2 + 4*q*x3*x4*x5 - 8*q*x3*x4*x6 - 4*q*x3*x5**2
             + 4*q*x3*x5*x6 + 2*q*x3*x6**2)*x1
          + x2**4 - 2*x2**3*x3 + 3*x2**2*x3**2 + q*x2**2*x4**2
          + 2*q*x2**2*x4*x5 - 4*q*x2**2*x4*x6 - 2*q*x2**2*x5**2
          + 2*q*x2**2*x5*x6 + q*x2**2*x6**2 - 2*x2*x3**3
          - 4*q*x2*x3*x4**2 + 4*q*x2*x3*x4*x5 + 4*q*x2*x3*x4*x6
          + 2*q*x2*x3*x5**2 - 8*q*x2*x3*x5*x6 + 2*q*x2*x3*x6**2
          + x3**4 + q*x3**2*x4**2 - 4*q*x3**2*x4*x5 + 2*q*x3**2*x4*x6
          + q*x3**2*x5**2 + 2*q*x3**2*x5*x6 - 2*q*x3**2*x6**2
          + q**2*x4**4 - 2*q**2*x4**3*x5 - 2*q**2*x4**3*x6
          + 3*q**2*x4**2*x5**2 + 3*q**2*x4**2*x6**2 - 2*q**2*x4*x5**3
          - 2*q**2*x4*x6**3 + q**2*x5**4 - 2*q**2*x5**3*x6
          + 3*q**2*x5**2*x6**2 - 2*q**2*x5*x6**3 + q**2*x6**4)
    return f1, f2


def _uv_factors() -> Tuple[Polynomial, Polynomial]:
    t, v = _vars(("q", "u1", "u2", "u3", "u4", "u5", "u6"))
    q = v["q"]
    u1, u2, u3, u4, u5, u6 = (v["u1"], v["u2"], v["u3"],
                              v["u4"], v["u5"], v["u6"])
    f1 = u1**2 - q*u2**2
    f2 = (u1**4 - (6*u3 + 6*u6)*u1**3
          + (q*u2**2 - 6*q*u2*u5 + 15*u3**2 + 24*u3*u6
             - 3*q*u4**2 + 6*q*u4*u5 + 6*q*u5**2 + 15*u6**2)*u1**2
          + (-6*q*u2**2*u6 - 12*q*u2*u3*u4 + 12*q*u2*u3*u5
             + 12*q*u2*u4*u6 + 24*q*u2*u5*u6 - 18*u3**3 - 36*u3**2*u6
             + 18*q*u3*u4**2 - 18*q*u3*u5**2 - 36*u3*u6**2
             - 36*q*u4*u5*u6 - 18*q*u5**2*u6 - 18*u6**3)*u1
          + q**2*u2**4 - 6*q**2*u2**3*u4 - 6*q**2*u2**3*u5
          + 15*q**2*u2**2*u4**2 + 24*q**2*u2**2*u4*u5
          + 15*q**2*u2**2*u5**2 - 18*q**2*u2*u4**3
          - 36*q**2*u2*u4**2*u5 - 36*q**2*u2*u4*u5**2
          - 18*q**2*u2*u5**3 + 9*q**2*u4**4 + 18*q**2*u4**3*u5
          + 27*q**2*u4**2*u5**2 + 18*q**2*u4*u5**3 + 9*q**2*u5**4
          - 3*q*u2**2*u3**2 + 6*q*u2**2*u3*u6 + 6*q*u2**2*u6**2
          + 18*q*u2*u3**2*u4 - 36*q*u2*u3*u5*u6 - 18*q*u2*u4*u6**2
          - 18*q*u2*u5*u6**2 - 18*q*u3**2*u4**2 - 18*q*u3**2*u4*u5
          + 9*q*u3**2*u5**2 - 18*q*u3*u4**2*u6 + 36*q*u3*u4*u5*u6
          + 36*q*u3*u5**2*u6 + 9*q*u4**2*u6**2 + 36*q*u4*u5*u6**2
          + 9*q*u5**2*u6**2 + 9*u3**4 + 18*u3**3*u6 + 27*u3**2*u6**2
          + 18*u3*u6**3 + 9*u6**4)
    return f1, f2


def _threefold_quadratic_form() -> Polynomial:
    t, v = _vars(("a", "b", "c", "x1", "x2"))
    a, b, c, x1, x2 = v["a"], v["b"], v["c"], v["x1"], v["x2"]
    return a*x1**2 + b*x1*x2 + c*x2**2


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


def _lift(outer: LinearStructure, inner: LinearStructure,
          params: Tuple[str, ...]) -> LinearStructure:
    """The block lift of `inner` over `outer`, in the parameter order
    `params`."""
    return outer.block_compose(inner).with_param_order(params)


def _quartic_block() -> LinearStructure:
    return _lift(_pell_structure("p", "q"), _pell_structure("m", "n"),
                 ("m", "n", "p", "q"))


class _Entry(NamedTuple):
    """A family's registry entry.  The metadata is read without building
    anything; `build()` returns the heavy parts (structure, factors, the
    quartic's printed form, and the law of a family without a structure
    in its own parameters) as `FormFamily` keywords."""
    description: str
    kind: str
    params: Tuple[str, ...]
    coords: Tuple[str, ...]
    degree: int
    build: Callable[[], dict]
    degenerate_witness: Optional[Tuple[int, ...]] = None


_REGISTRY: Dict[str, _Entry] = {
    "quad2x2": _Entry(
        "binary quadratic x1^2 + p*x1*x2 + q*x2^2 as a 2x2 determinant",
        "pair", ("p", "q"), _coords("x", 2), 2,
        lambda: dict(structure=_pell_structure("p", "q"))),
    "cubic3x3": _Entry(
        "ternary cubic in five parameters; not a norm form in general",
        "pair", ("l1", "l2", "l3", "l4", "l5"), _coords("x", 3), 3,
        lambda: dict(structure=_cubic_structure())),
    "quartic4x4": _Entry(
        "quaternary quartic from a 2x2-of-2x2 block construction",
        "pair", ("m", "n", "p", "q"), _coords("x", 4), 4,
        lambda: dict(structure=_quartic_block(),
                     printed_form=_quartic_printed_form())),
    "sextic6x6": _Entry(
        "senary sextic from a 2x2-of-3x3 block construction (11926 terms)",
        "pair", ("l1", "l2", "l3", "l4", "l5", "p", "q"), _coords("x", 6), 6,
        lambda: dict(
            structure=_lift(_pell_structure("p", "q"), _cubic_structure(),
                            ("l1", "l2", "l3", "l4", "l5", "p", "q")))),
    "sextic_circulant": _Entry(
        "senary sextic from a block matrix of two 3x3 circulants; splits "
        "into a quadratic times a quartic factor",
        "pair", ("q",), _coords("x", 6), 6,
        lambda: dict(structure=_circulant_structure(),
                     factors=_circulant_factors())),
    "sextic_uv": _Entry(
        "simultaneous pair u1^2 - q*u2^2 and a quartic in u1..u6 composed "
        "by one shared bilinear map",
        "uv", ("q",), _coords("u", 6), 6,
        lambda: dict(law=_uv_map(), factors=_uv_factors())),
    "octic8x8": _Entry(
        "octonary octic from a 2x2-of-4x4 block construction",
        "pair", ("m", "n", "p", "q", "r", "s"), _coords("x", 8), 8,
        lambda: dict(
            structure=_lift(_pell_structure("r", "s"), _quartic_block(),
                            ("m", "n", "p", "q", "r", "s")))),
    # the structure is in (t, b, c) with t^2 in the determinant; the
    # family's own form uses a in place of t^2: only even powers of t occur
    "threefold_quadratic": _Entry(
        "binary quadratic a*x1^2 + b*x1*x2 + c*x2^2 with one trilinear "
        "law, applied to its arguments in any order",
        "triple", ("a", "b", "c"), _coords("x", 2), 2,
        lambda: dict(structure=_tracefree_structure("t", "b", "c"),
                     law=_threefold_quadratic_map(),
                     factors=(_threefold_quadratic_form(),)),
        degenerate_witness=(-1, 0, -1)),
    "threefold4x4": _Entry(
        "quaternary quartic from trace-free 2x2 blocks; admits only a "
        "trilinear composition law",
        "triple", ("m", "n", "p", "q", "s", "t"), _coords("x", 4), 4,
        lambda: dict(
            structure=_lift(_tracefree_structure("t", "p", "q"),
                            _tracefree_structure("s", "m", "n"),
                            ("m", "n", "p", "q", "s", "t"))),
        degenerate_witness=(0, 1, 0, 2, 0, 0)),
    "threefold8x8": _Entry(
        "octonary octic mixing one pairwise-closed and one triple-only "
        "block level; admits only a trilinear composition law",
        "triple", ("m", "n", "p", "q", "r", "s", "t"), _coords("x", 8), 8,
        lambda: dict(structure=_lift(
            _pell_structure("r", "s"),
            _pell_structure("p", "q").block_compose(
                _tracefree_structure("t", "m", "n")),
            ("m", "n", "p", "q", "r", "s", "t"))),
        degenerate_witness=(0, 2, 0, 0, 0, 0, 0)),
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
            name, entry.description, entry.kind, entry.params, entry.coords,
            entry.degree, degenerate_witness=entry.degenerate_witness,
            **entry.build())
    if params is None:
        return fam
    return fam.specialize(params)


def list_families() -> List[dict]:
    """Registry entries in catalog order, for the CLI; builds no family."""
    return [{"name": name, "kind": e.kind, "degree": e.degree,
             "coords": len(e.coords), "params": list(e.params),
             "description": e.description} for name, e in _REGISTRY.items()]

