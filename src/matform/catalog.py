"""Catalog of the concrete form families handled by this package.

Each family bundles a degree-n form in n coordinates (integer parameters),
usually realized as the determinant of a matrix with a linear structure,
together with the bilinear or trilinear composition map the family carries.
Where an explicit map or form expansion is known in closed form, it is
transcribed here verbatim and the test suite cross-verifies it against the
version derived from the matrix structure, so a typo in either direction is
caught.
"""

from __future__ import annotations

import math
from operator import index
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .compose import ZeroResidual, verify_identity
from .linstruct import (UNIT, ExtractionRecipe, LinearStructure,
                        MultilinearMap, NotClosed, WrongFamilyKind,
                        argument_names, companion_structure)
from .polyring import (PolyError, Polynomial, VarTable, int_matrix_determinant)


class UnknownFamily(PolyError):
    """No catalog family with the requested name."""


class ParamArity(PolyError):
    """Wrong number of parameter values for the family."""


class NotTernaryCubic(PolyError):
    """The geometric-progression test needs a cubic form in three variables."""


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
    caller's.  A numeric family owns everything that depends on its
    parameter values (structure, form and laws, each derived on first use
    and kept; the structure carries its own extraction recipe) and proves
    its identity with `verify`.  The integer A(point) of `matrix` is the
    parameter-free structure's `matrix_of`.
    """

    def __init__(self, name: str, description: str, kind: str,
                 param_names: Sequence[str], coord_names: Sequence[str],
                 degree: int,
                 structure: Optional[LinearStructure] = None,
                 pair_map: Optional[MultilinearMap] = None,
                 triple_map: Optional[MultilinearMap] = None,
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
        self.printed_form = printed_form  # transcribed expansion, symbolic
        self._factors_symbolic = factors
        self.degenerate_witness = degenerate_witness
        self.param_values = param_values  # integers, from `specialize`
        self._base = base or self
        self._form: Optional[Polynomial] = None
        self._factors: Optional[Tuple[Polynomial, ...]] = None
        self._own: Optional[tuple] = None
        self._laws: Dict[int, MultilinearMap] = {
            k: law for k, law in ((2, pair_map), (3, triple_map))
            if law is not None}

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
        `readable` means every divisor of its recipe is nonzero at these
        values; extraction would otherwise divide by zero.
        """
        if self._own is None:
            st = self._structure
            if st is None or st.params != self.param_names:
                st = None
            elif self.param_values is not None:
                st = st.specialize(self.param_values)
            self._own = (st, st is not None and
                         all(coeff for coeff, _ in st.recipe.divisors))
        return self._own

    @property
    def structure(self) -> Optional[LinearStructure]:
        """The matrix realization for closure: the symbolic structure on
        a symbolic family (threefold_quadratic's is in t, b, c), else the
        structure at these values, or None where `_own_structure` finds
        it unreadable."""
        if self.is_symbolic():
            return self._structure
        st, readable = self._own_structure()
        return st if readable else None

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
        transcribed law, else the structure's closure (the object its
        closure cache holds), specialized to the values of a numeric
        family."""
        law = self._laws.get(k)
        if law is None and not self.is_symbolic():
            law = self._base._law(k).specialize(self.param_values)
        elif law is None:
            word = {2: "bilinear", 3: "trilinear"}[k]
            if self._structure is None or (k == 2 and self.kind == "triple"):
                raise PolyError(f"{self.name} has no {word} composition map")
            law = self._structure.closure(k)
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
        structure is readable.  Where a recipe divisor vanishes, the
        symbolic identity proves `cmap` if it is the family's map here."""
        st, readable = self._own_structure()
        if readable:
            return verify_identity(None, cmap, self.coord_names, structure=st)
        base = self._base
        if st is not None and base is not self and \
                (cmap.k == 3 or self.kind != "triple") and \
                cmap == self._law(cmap.k) and \
                isinstance(base.verify(base._law(cmap.k)), ZeroResidual):
            return ZeroResidual("matrix", "recipe divisor vanishes; "
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
    and 1."""
    t, v = _vars((ct, cb, cc, "a1", "a2"))
    tv, bv, cv, a1, a2 = (v[ct], v[cb], v[cc], v["a1"], v["a2"])
    return LinearStructure.from_matrix(
        (ct, cb, cc), ("a1", "a2"),
        [[tv * a1, a2], [bv * a1 + cv * a2, -tv * a1]],
        ExtractionRecipe(((0, 0), (0, 1)), ((1, ((ct, 1),)), UNIT)))


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


# -- transcribed bilinear maps -------------------------------------------------


def _map_from(params: Sequence[str], h: int, k: int, builder) -> MultilinearMap:
    """The arity-k map whose outputs `builder` writes in x.., y.. [, z..]."""
    coord_sets = argument_names(h, k)
    _, v = _vars(tuple(params) + sum(coord_sets, ()))
    return MultilinearMap.from_forms(builder(v), params, coord_sets)


def _quad_map() -> MultilinearMap:
    def build(v):
        p, q = v["p"], v["q"]
        x1, x2, y1, y2 = v["x1"], v["x2"], v["y1"], v["y2"]
        return [
            x1 * y1 - q * x2 * y2,
            x1 * y2 + x2 * y1 + p * x2 * y2,
        ]
    return _map_from(("p", "q"), 2, 2, build)


def _cubic_map() -> MultilinearMap:
    def build(v):
        l1, l2, l3, l4, l5 = v["l1"], v["l2"], v["l3"], v["l4"], v["l5"]
        x1, x2, x3 = v["x1"], v["x2"], v["x3"]
        y1, y2, y3 = v["y1"], v["y2"], v["y3"]
        return [
            (x1 * y1 - l3 * (l1 - l2 - l3 + l5) * x2 * y2
             - l3 * (l2 - l4) * x2 * y3 - l3 * (l2 - l4) * x3 * y2
             + (-l1 * l4 + l2 * l2 - l2 * l5 + l3 * l4) * x3 * y3),
            (x1 * y2 + x2 * y1 + l1 * x2 * y2 + l2 * x2 * y3
             + l2 * x3 * y2 + l4 * x3 * y3),
            (x1 * y3 + l3 * x2 * y2 + l3 * x2 * y3 + x3 * y1
             + l3 * x3 * y2 + l5 * x3 * y3),
        ]
    return _map_from(("l1", "l2", "l3", "l4", "l5"), 3, 2, build)


def _quartic_map() -> MultilinearMap:
    def build(v):
        m, n, p, q = v["m"], v["n"], v["p"], v["q"]
        x1, x2, x3, x4 = v["x1"], v["x2"], v["x3"], v["x4"]
        y1, y2, y3, y4 = v["y1"], v["y2"], v["y3"], v["y4"]
        return [
            x1*y1 - n*x2*y2 - q*x3*y3 + q*n*x4*y4,
            x1*y2 + x2*y1 + m*x2*y2 - q*x3*y4 - q*x4*y3 - m*q*x4*y4,
            x1*y3 - n*x2*y4 + x3*y1 + p*x3*y3 - n*x4*y2 - n*p*x4*y4,
            (x1*y4 + x2*y3 + m*x2*y4 + x3*y2 + p*x3*y4
             + x4*y1 + m*x4*y2 + p*x4*y3 + m*p*x4*y4),
        ]
    return _map_from(("m", "n", "p", "q"), 4, 2, build)


def _sextic_map() -> MultilinearMap:
    def build(v):
        l1, l2, l3, l4, l5 = v["l1"], v["l2"], v["l3"], v["l4"], v["l5"]
        p, q = v["p"], v["q"]
        x1, x2, x3, x4, x5, x6 = (v["x1"], v["x2"], v["x3"],
                                  v["x4"], v["x5"], v["x6"])
        y1, y2, y3, y4, y5, y6 = (v["y1"], v["y2"], v["y3"],
                                  v["y4"], v["y5"], v["y6"])
        # The two recurring cubic-family coefficient combinations.
        cA = l3 * (l1 - l2 - l3 + l5)
        cB = l3 * (l2 - l4)
        cC = -l1 * l4 + l2 * l2 - l2 * l5 + l3 * l4
        z1 = (x1*y1 - cA*x2*y2 - cB*x2*y3 - cB*x3*y2 + cC*x3*y3
              - q*x4*y4 + q*cA*x5*y5 + q*cB*x5*y6
              + q*cB*x6*y5 - q*cC*x6*y6)
        z2 = (x1*y2 + x2*y1 + l1*x2*y2 + l2*x2*y3 + l2*x3*y2 + l4*x3*y3
              - q*x4*y5 - q*x5*y4 - l1*q*x5*y5 - l2*q*x5*y6
              - l2*q*x6*y5 - l4*q*x6*y6)
        z3 = (x1*y3 + l3*x2*y2 + l3*x2*y3 + x3*y1 + l3*x3*y2 + l5*x3*y3
              - q*x4*y6 - q*l3*x5*y5 - q*l3*x5*y6 - q*x6*y4
              - q*l3*x6*y5 - l5*q*x6*y6)
        z4 = (x1*y4 - cA*x2*y5 - cB*x2*y6 - cB*x3*y5 + cC*x3*y6
              + x4*y1 + p*x4*y4 - cA*x5*y2 - cB*x5*y3 - cA*p*x5*y5
              - cB*p*x5*y6 - cB*x6*y2 + cC*x6*y3 - cB*p*x6*y5
              + p*cC*x6*y6)
        z5 = (x1*y5 + x2*y4 + l1*x2*y5 + l2*x2*y6 + l2*x3*y5 + l4*x3*y6
              + x4*y2 + p*x4*y5 + x5*y1 + l1*x5*y2 + l2*x5*y3 + p*x5*y4
              + l1*p*x5*y5 + l2*p*x5*y6 + l2*x6*y2 + l4*x6*y3
              + l2*p*x6*y5 + l4*p*x6*y6)
        z6 = (x1*y6 + l3*x2*y5 + l3*x2*y6 + x3*y4 + l3*x3*y5 + l5*x3*y6
              + x4*y3 + p*x4*y6 + l3*x5*y2 + l3*x5*y3 + l3*p*x5*y5
              + l3*p*x5*y6 + x6*y1 + l3*x6*y2 + l5*x6*y3 + p*x6*y4
              + l3*p*x6*y5 + l5*p*x6*y6)
        return [z1, z2, z3, z4, z5, z6]
    return _map_from(("l1", "l2", "l3", "l4", "l5", "p", "q"), 6, 2, build)


def _circulant_map() -> MultilinearMap:
    def build(v):
        q = v["q"]
        x = [v[f"x{i}"] for i in range(1, 7)]
        y = [v[f"y{i}"] for i in range(1, 7)]
        x1, x2, x3, x4, x5, x6 = x
        y1, y2, y3, y4, y5, y6 = y
        return [
            x1*y1 + x2*y3 + x3*y2 + q*x4*y4 + q*x5*y6 + q*x6*y5,
            x1*y2 + x2*y1 + x3*y3 + q*x4*y5 + q*x5*y4 + q*x6*y6,
            x1*y3 + x2*y2 + x3*y1 + q*x4*y6 + q*x5*y5 + q*x6*y4,
            x1*y4 + x2*y6 + x3*y5 + x4*y1 + x5*y3 + x6*y2,
            x1*y5 + x2*y4 + x3*y6 + x4*y2 + x5*y1 + x6*y3,
            x1*y6 + x2*y5 + x3*y4 + x4*y3 + x5*y2 + x6*y1,
        ]
    return _map_from(("q",), 6, 2, build)


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


def _octic_map() -> MultilinearMap:
    def build(v):
        m, n, p, q, r, s = v["m"], v["n"], v["p"], v["q"], v["r"], v["s"]
        x1, x2, x3, x4, x5, x6, x7, x8 = (v[f"x{i}"] for i in range(1, 9))
        y1, y2, y3, y4, y5, y6, y7, y8 = (v[f"y{i}"] for i in range(1, 9))
        z1 = (x1*y1 - n*x2*y2 - q*x3*y3 + q*n*x4*y4
              - s*x5*y5 + s*n*x6*y6 + s*q*x7*y7 - s*q*n*x8*y8)
        z2 = (x1*y2 + x2*y1 + m*x2*y2 - q*x3*y4 - q*x4*y3 - q*m*x4*y4
              - s*x5*y6 - s*x6*y5 - s*m*x6*y6 + s*q*x7*y8 + s*q*x8*y7
              + s*q*m*x8*y8)
        z3 = (x1*y3 - n*x2*y4 + x3*y1 + p*x3*y3 - n*x4*y2 - n*p*x4*y4
              - s*x5*y7 + s*n*x6*y8 - s*x7*y5 - s*p*x7*y7 + s*n*x8*y6
              + s*n*p*x8*y8)
        z4 = (x1*y4 + x2*y3 + m*x2*y4 + x3*y2 + p*x3*y4 + x4*y1
              + m*x4*y2 + p*x4*y3 + p*m*x4*y4 - s*x5*y8 - s*x6*y7
              - s*m*x6*y8 - s*x7*y6 - s*p*x7*y8 - s*x8*y5 - s*m*x8*y6
              - s*p*x8*y7 - s*p*m*x8*y8)
        z5 = (x1*y5 - n*x2*y6 - q*x3*y7 + q*n*x4*y8 + x5*y1 + r*x5*y5
              - n*x6*y2 - n*r*x6*y6 - q*x7*y3 - q*r*x7*y7 + q*n*x8*y4
              + n*q*r*x8*y8)
        z6 = (x1*y6 + x2*y5 + m*x2*y6 - q*x3*y8 - q*x4*y7 - q*m*x4*y8
              + x5*y2 + r*x5*y6 + x6*y1 + m*x6*y2 + r*x6*y5 + r*m*x6*y6
              - q*x7*y4 - q*r*x7*y8 - q*x8*y3 - q*m*x8*y4 - q*r*x8*y7
              - q*r*m*x8*y8)
        z7 = (x1*y7 - n*x2*y8 + x3*y5 + p*x3*y7 - n*x4*y6 - n*p*x4*y8
              + x5*y3 + r*x5*y7 - n*x6*y4 - n*r*x6*y8 + x7*y1 + p*x7*y3
              + r*x7*y5 + r*p*x7*y7 - n*x8*y2 - n*p*x8*y4 - n*r*x8*y6
              - r*n*p*x8*y8)
        z8 = (x1*y8 + x2*y7 + m*x2*y8 + x3*y6 + p*x3*y8 + x4*y5
              + m*x4*y6 + p*x4*y7 + p*m*x4*y8 + x5*y4 + r*x5*y8 + x6*y3
              + m*x6*y4 + r*x6*y7 + r*m*x6*y8 + x7*y2 + p*x7*y4 + r*x7*y6
              + r*p*x7*y8 + x8*y1 + m*x8*y2 + p*x8*y3 + p*m*x8*y4
              + r*x8*y5 + r*m*x8*y6 + r*p*x8*y7 + r*p*m*x8*y8)
        return [z1, z2, z3, z4, z5, z6, z7, z8]
    return _map_from(("m", "n", "p", "q", "r", "s"), 8, 2, build)


# -- transcribed trilinear maps ------------------------------------------------


def _threefold_quadratic_map() -> MultilinearMap:
    """The trilinear law psi of Q = a*x1^2 + b*x1*x2 + c*x2^2:
    Q(x)Q(y)Q(z) = Q(psi(x, y, z))."""
    def build(v):
        a, b, c, x1, x2, y1, y2, z1, z2 = (v[name] for name in (
            "a", "b", "c", "x1", "x2", "y1", "y2", "z1", "z2"))
        return [a*x1*y1*z1 + b*x1*y2*z1 + c*x1*y2*z2 - c*x2*y1*z2 + c*x2*y2*z1,
                a*x1*y1*z2 - a*x1*y2*z1 + a*x2*y1*z1 + b*x2*y1*z2 + c*x2*y2*z2]
    return _map_from(("a", "b", "c"), 2, 3, build)


def _threefold4x4_map() -> MultilinearMap:
    def build(v):
        m, n, p, q, s, t = v["m"], v["n"], v["p"], v["q"], v["s"], v["t"]
        x1, x2, x3, x4 = v["x1"], v["x2"], v["x3"], v["x4"]
        y1, y2, y3, y4 = v["y1"], v["y2"], v["y3"], v["y4"]
        z1, z2, z3, z4 = v["z1"], v["z2"], v["z3"], v["z4"]
        s2, t2 = s * s, t * t
        w1 = (s2*t2*x1*y1*z1 + m*t2*x1*y2*z1 + n*t2*x1*y2*z2
              - n*t2*x2*y1*z2 + n*t2*x2*y2*z1 + p*s2*x1*y3*z1
              + q*s2*x1*y3*z3 - q*s2*x3*y1*z3 + q*s2*x3*y3*z1
              + m*p*x1*y4*z1 + m*q*x1*y4*z3 - m*q*x3*y2*z3
              + m*q*x3*y4*z1 + n*p*x1*y4*z2 - n*p*x2*y3*z2
              + n*p*x2*y4*z1 + n*q*x1*y4*z4 - n*q*x2*y3*z4
              + n*q*x2*y4*z3 - n*q*x3*y2*z4 + n*q*x3*y4*z2
              + n*q*x4*y1*z4 - n*q*x4*y2*z3 - n*q*x4*y3*z2
              + n*q*x4*y4*z1)
        w2 = (s2*t2*x1*y1*z2 - s2*t2*x1*y2*z1 + s2*t2*x2*y1*z1
              + m*t2*x2*y1*z2 + n*t2*x2*y2*z2 + p*s2*x1*y3*z2
              - p*s2*x1*y4*z1 + p*s2*x2*y3*z1 + q*s2*x1*y3*z4
              - q*s2*x1*y4*z3 + q*s2*x2*y3*z3 - q*s2*x3*y1*z4
              + q*s2*x3*y2*z3 + q*s2*x3*y3*z2 - q*s2*x3*y4*z1
              - q*s2*x4*y1*z3 + q*s2*x4*y3*z1 + m*p*x2*y3*z2
              + m*q*x2*y3*z4 - m*q*x4*y1*z4 + m*q*x4*y3*z2
              + n*p*x2*y4*z2 + n*q*x2*y4*z4 - n*q*x4*y2*z4
              + n*q*x4*y4*z2)
        w3 = (s2*t2*x1*y1*z3 - s2*t2*x1*y3*z1 + s2*t2*x3*y1*z1
              + m*t2*x1*y2*z3 - m*t2*x1*y4*z1 + m*t2*x3*y2*z1
              + n*t2*x1*y2*z4 - n*t2*x1*y4*z2 - n*t2*x2*y1*z4
              + n*t2*x2*y2*z3 + n*t2*x2*y3*z2 - n*t2*x2*y4*z1
              + n*t2*x3*y2*z2 - n*t2*x4*y1*z2 + n*t2*x4*y2*z1
              + p*s2*x3*y1*z3 + q*s2*x3*y3*z3 + m*p*x3*y2*z3
              + m*q*x3*y4*z3 + n*p*x3*y2*z4 - n*p*x4*y1*z4
              + n*p*x4*y2*z3 + n*q*x3*y4*z4 - n*q*x4*y3*z4
              + n*q*x4*y4*z3)
        w4 = (s2*t2*x1*y1*z4 - s2*t2*x1*y2*z3 - s2*t2*x1*y3*z2
              + s2*t2*x1*y4*z1 + s2*t2*x2*y1*z3 - s2*t2*x2*y3*z1
              + s2*t2*x3*y1*z2 - s2*t2*x3*y2*z1 + s2*t2*x4*y1*z1
              + m*t2*x2*y1*z4 - m*t2*x2*y3*z2 + m*t2*x4*y1*z2
              + n*t2*x2*y2*z4 - n*t2*x2*y4*z2 + n*t2*x4*y2*z2
              + p*s2*x3*y1*z4 - p*s2*x3*y2*z3 + p*s2*x4*y1*z3
              + q*s2*x3*y3*z4 - q*s2*x3*y4*z3 + q*s2*x4*y3*z3
              + m*p*x4*y1*z4 + m*q*x4*y3*z4 + n*p*x4*y2*z4
              + n*q*x4*y4*z4)
        return [w1, w2, w3, w4]
    return _map_from(("m", "n", "p", "q", "s", "t"), 4, 3, build)


# -- transcribed closed-form expansions ----------------------------------------


def _cubic_printed_form() -> Polynomial:
    t, v = _vars(("l1", "l2", "l3", "l4", "l5", "x1", "x2", "x3"))
    l1, l2, l3, l4, l5 = v["l1"], v["l2"], v["l3"], v["l4"], v["l5"]
    x1, x2, x3 = v["x1"], v["x2"], v["x3"]
    return (x1**3 + (l1 + l3)*x1**2*x2 + (l2 + l5)*x1**2*x3
            + l3*(2*l1 - 2*l2 - l3 + l5)*x1*x2**2
            + (l1*l5 + 2*l2*l3 - 3*l3*l4)*x1*x2*x3
            + (l1*l4 - l2**2 + 2*l2*l5 - 2*l3*l4)*x1*x3**2
            + l3**2*(l1 - 2*l2 - l3 + l4 + l5)*x2**3
            - l3*(2*l1*l4 - l1*l5 - 2*l2**2 - l2*l3 + 3*l2*l5
                  - l3*l4 + l3*l5 - l5**2)*x2**2*x3
            + (l1**2*l4 - l1*l2**2 + l1*l2*l5 - 3*l1*l3*l4 + l2**2*l3
               + l2*l3*l4 + 2*l3**2*l4 - 2*l3*l4*l5)*x2*x3**2
            + (l1*l2*l4 - l2**3 + l2**2*l5 - 2*l2*l3*l4 + l3*l4**2)*x3**3)


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


def quartic_inverse_forms() -> List[Polynomial]:
    """Closed-form inverse of the quartic family's group law: the y with
    map(x, y) = (1,0,0,0), as cubic polynomials in x (valid when f(x)=1).
    Symbolic in m, n, p, q and x1..x4."""
    t, v = _vars(("m", "n", "p", "q", "x1", "x2", "x3", "x4"))
    m, n, p, q = v["m"], v["n"], v["p"], v["q"]
    x1, x2, x3, x4 = v["x1"], v["x2"], v["x3"], v["x4"]
    y1 = (x1**3 + 2*m*x1**2*x2 + 2*p*x1**2*x3 + m*p*x1**2*x4
          + (m**2 + n)*x1*x2**2
          + 3*m*p*x1*x2*x3 + p*(m**2 + 2*n)*x1*x2*x4 + (p**2 + q)*x1*x3**2
          + m*(p**2 + 2*q)*x1*x3*x4 + (m**2*q + n*p**2 - n*q)*x1*x4**2
          + m*n*x2**3
          + m**2*p*x2**2*x3 + 2*m*n*p*x2**2*x4 + m*p**2*x2*x3**2
          + (m**2*p**2 + 2*n*q)*x2*x3*x4 + m*n*(p**2 + q)*x2*x4**2
          + p*q*x3**3
          + 2*m*p*q*x3**2*x4 + p*q*(m**2 + n)*x3*x4**2 + m*n*p*q*x4**3)
    y2 = (-x1**2*x2 - m*x1*x2**2 - 2*p*x1*x2*x3 - m*p*x1*x2*x4
          - 2*q*x1*x3*x4
          - m*q*x1*x4**2 - n*x2**3 - m*p*x2**2*x3 - 2*n*p*x2**2*x4
          + (-p**2 + q)*x2*x3**2 - m*p**2*x2*x3*x4 - n*(p**2 + q)*x2*x4**2
          - p*q*x3**2*x4 - m*p*q*x3*x4**2 - n*p*q*x4**3)
    y3 = (-x1**2*x3 - 2*m*x1*x2*x3 - 2*n*x1*x2*x4 - p*x1*x3**2
          - m*p*x1*x3*x4
          - n*p*x1*x4**2 + (-m**2 + n)*x2**2*x3 - m*n*x2**2*x4
          - m*p*x2*x3**2
          - m**2*p*x2*x3*x4 - m*n*p*x2*x4**2 - q*x3**3 - 2*m*q*x3**2*x4
          - q*(m**2 + n)*x3*x4**2 - m*n*q*x4**3)
    y4 = (-x1**2*x4 + 2*x1*x2*x3 + m*x2**2*x3 + n*x2**2*x4 + p*x2*x3**2
          + m*p*x2*x3*x4 + n*p*x2*x4**2 + q*x3**2*x4 + m*q*x3*x4**2
          + n*q*x4**3)
    return [y1, y2, y3, y4]


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


def _threefold4x4_printed_form() -> Polynomial:
    t, v = _vars(("m", "n", "p", "q", "s", "t", "x1", "x2", "x3", "x4"))
    m, n, p, q, s, tt = v["m"], v["n"], v["p"], v["q"], v["s"], v["t"]
    x1, x2, x3, x4 = v["x1"], v["x2"], v["x3"], v["x4"]
    s2, t2 = s**2, tt**2
    s4, t4 = s**4, tt**4
    return (s4*t4*x1**4 + 2*s2*t4*m*x1**3*x2 + 2*s4*t2*p*x1**3*x3
            + s2*t2*m*p*x1**3*x4 + (m**2 + 2*s2*n)*t4*x1**2*x2**2
            + 3*s2*t2*m*p*x1**2*x2*x3
            + (m**2 + 2*s2*n)*t2*p*x1**2*x2*x4
            + (p**2 + 2*t2*q)*s4*x1**2*x3**2
            + (p**2 + 2*t2*q)*s2*m*x1**2*x3*x4
            + (s2*n*p**2 + t2*m**2*q - 2*s2*t2*n*q)*x1**2*x4**2
            + 2*t4*m*n*x1*x2**3 + (m**2 + 2*s2*n)*t2*p*x1*x2**2*x3
            + 3*t2*m*n*p*x1*x2**2*x4
            + (p**2 + 2*t2*q)*s2*m*x1*x2*x3**2
            + (m**2*p**2 + 8*s2*t2*n*q)*x1*x2*x3*x4
            + (p**2 + 2*t2*q)*m*n*x1*x2*x4**2 + 2*s4*p*q*x1*x3**3
            + 3*s2*m*p*q*x1*x3**2*x4
            + (m**2 + 2*s2*n)*p*q*x1*x3*x4**2 + m*n*p*q*x1*x4**3
            + t4*n**2*x2**4 + t2*m*n*p*x2**3*x3
            + 2*t2*n**2*p*x2**3*x4
            + (s2*n*p**2 + t2*m**2*q - 2*s2*t2*n*q)*x2**2*x3**2
            + (p**2 + 2*t2*q)*m*n*x2**2*x3*x4
            + (p**2 + 2*t2*q)*n**2*x2**2*x4**2 + s2*m*p*q*x2*x3**3
            + (m**2 + 2*s2*n)*p*q*x2*x3**2*x4
            + 3*m*n*p*q*x2*x3*x4**2 + 2*n**2*p*q*x2*x4**3
            + s4*q**2*x3**4 + 2*s2*m*q**2*x3**3*x4
            + (m**2 + 2*s2*n)*q**2*x3**2*x4**2 + 2*m*n*q**2*x3*x4**3
            + n**2*q**2*x4**4)


def _threefold_quadratic_form() -> Polynomial:
    t, v = _vars(("a", "b", "c", "x1", "x2"))
    a, b, c, x1, x2 = v["a"], v["b"], v["c"], v["x1"], v["x2"]
    return a*x1**2 + b*x1*x2 + c*x2**2


# -- family builders -----------------------------------------------------------


def _build_quad2x2() -> FormFamily:
    st = _pell_structure("p", "q")
    return FormFamily(
        "quad2x2",
        "binary quadratic x1^2 + p*x1*x2 + q*x2^2 as a 2x2 determinant",
        "pair", ("p", "q"), _coords("x", 2), 2,
        structure=st, pair_map=_quad_map())


def _build_cubic3x3() -> FormFamily:
    return FormFamily(
        "cubic3x3",
        "ternary cubic in five parameters; not a norm form in general",
        "pair", ("l1", "l2", "l3", "l4", "l5"), _coords("x", 3), 3,
        structure=_cubic_structure(), pair_map=_cubic_map(),
        printed_form=_cubic_printed_form())


def _quartic_block() -> LinearStructure:
    lifted = _pell_structure("p", "q").block_compose(_pell_structure("m", "n"))
    return lifted.with_param_order(("m", "n", "p", "q"))


def _build_quartic4x4() -> FormFamily:
    return FormFamily(
        "quartic4x4",
        "quaternary quartic from a 2x2-of-2x2 block construction",
        "pair", ("m", "n", "p", "q"), _coords("x", 4), 4,
        structure=_quartic_block(),
        pair_map=_quartic_map(), printed_form=_quartic_printed_form())


def _build_sextic6x6() -> FormFamily:
    lifted = _pell_structure("p", "q").block_compose(_cubic_structure())
    st = lifted.with_param_order(("l1", "l2", "l3", "l4", "l5", "p", "q"))
    return FormFamily(
        "sextic6x6",
        "senary sextic from a 2x2-of-3x3 block construction (11926 terms)",
        "pair", ("l1", "l2", "l3", "l4", "l5", "p", "q"), _coords("x", 6), 6,
        structure=st, pair_map=_sextic_map())


def _build_sextic_circulant() -> FormFamily:
    t, v = _vars(("q", "x1", "x2", "x3", "x4", "x5", "x6"))
    q = v["q"]
    x1, x2, x3, x4, x5, x6 = (v["x1"], v["x2"], v["x3"],
                              v["x4"], v["x5"], v["x6"])
    st = LinearStructure.from_matrix(
        ("q",), ("x1", "x2", "x3", "x4", "x5", "x6"),
        [
            [x1, x2, x3, x4, x5, x6],
            [x3, x1, x2, x6, x4, x5],
            [x2, x3, x1, x5, x6, x4],
            [q*x4, q*x5, q*x6, x1, x2, x3],
            [q*x6, q*x4, q*x5, x3, x1, x2],
            [q*x5, q*x6, q*x4, x2, x3, x1],
        ])
    return FormFamily(
        "sextic_circulant",
        "senary sextic from a block matrix of two 3x3 circulants; splits "
        "into a quadratic times a quartic factor",
        "pair", ("q",), _coords("x", 6), 6,
        structure=st, pair_map=_circulant_map(), factors=_circulant_factors())


def _build_sextic_uv() -> FormFamily:
    return FormFamily(
        "sextic_uv",
        "simultaneous pair u1^2 - q*u2^2 and a quartic in u1..u6 composed "
        "by one shared bilinear map",
        "uv", ("q",), _coords("u", 6), 6,
        pair_map=_uv_map(), factors=_uv_factors())


def _build_octic8x8() -> FormFamily:
    lifted = _pell_structure("r", "s").block_compose(_quartic_block())
    st = lifted.with_param_order(("m", "n", "p", "q", "r", "s"))
    return FormFamily(
        "octic8x8",
        "octonary octic from a 2x2-of-4x4 block construction",
        "pair", ("m", "n", "p", "q", "r", "s"), _coords("x", 8), 8,
        structure=st, pair_map=_octic_map())


def _build_threefold_quadratic() -> FormFamily:
    # The matrix realization lives in parameters (t, b, c) with t^2 in the
    # determinant; the family's own form uses a in place of t^2 since only
    # even powers of t occur.
    return FormFamily(
        "threefold_quadratic",
        "binary quadratic a*x1^2 + b*x1*x2 + c*x2^2 with one trilinear "
        "law, applied to its arguments in any order",
        "triple", ("a", "b", "c"), _coords("x", 2), 2,
        structure=_tracefree_structure("t", "b", "c"),
        triple_map=_threefold_quadratic_map(),
        factors=(_threefold_quadratic_form(),),
        degenerate_witness=(-1, 0, -1))


def _build_threefold4x4() -> FormFamily:
    lifted = _tracefree_structure("t", "p", "q").block_compose(
        _tracefree_structure("s", "m", "n"))
    st = lifted.with_param_order(("m", "n", "p", "q", "s", "t"))
    return FormFamily(
        "threefold4x4",
        "quaternary quartic from trace-free 2x2 blocks; admits only a "
        "trilinear composition law",
        "triple", ("m", "n", "p", "q", "s", "t"), _coords("x", 4), 4,
        structure=st, triple_map=_threefold4x4_map(),
        printed_form=_threefold4x4_printed_form(),
        degenerate_witness=(0, 1, 0, 2, 0, 0))


def _build_threefold8x8() -> FormFamily:
    a4 = _pell_structure("p", "q").block_compose(
        _tracefree_structure("t", "m", "n"))
    lifted = _pell_structure("r", "s").block_compose(a4)
    st = lifted.with_param_order(("m", "n", "p", "q", "r", "s", "t"))
    return FormFamily(
        "threefold8x8",
        "octonary octic mixing one pairwise-closed and one triple-only "
        "block level; admits only a trilinear composition law",
        "triple", ("m", "n", "p", "q", "r", "s", "t"), _coords("x", 8), 8,
        structure=st, degenerate_witness=(0, 2, 0, 0, 0, 0, 0))


_BUILDERS = {
    "quad2x2": _build_quad2x2,
    "cubic3x3": _build_cubic3x3,
    "quartic4x4": _build_quartic4x4,
    "sextic6x6": _build_sextic6x6,
    "sextic_circulant": _build_sextic_circulant,
    "sextic_uv": _build_sextic_uv,
    "octic8x8": _build_octic8x8,
    "threefold_quadratic": _build_threefold_quadratic,
    "threefold4x4": _build_threefold4x4,
    "threefold8x8": _build_threefold8x8,
}

_SYMBOLIC: Dict[str, FormFamily] = {}


def family(name: str, params: Optional[Sequence[int]] = None) -> FormFamily:
    """Look up a family; `params=None` gives the fully symbolic version."""
    builder = _BUILDERS.get(name)
    if builder is None:
        raise UnknownFamily(name)
    fam = _SYMBOLIC.get(name)
    if fam is None:
        fam = builder()
        _SYMBOLIC[name] = fam
    if params is None:
        return fam
    return fam.specialize(params)


def list_families() -> List[dict]:
    """Registry entries in catalog order, for the CLI."""
    out = []
    for name in _BUILDERS:
        fam = family(name)
        out.append({
            "name": name,
            "kind": fam.kind,
            "degree": fam.degree,
            "coords": len(fam.coord_names),
            "params": list(fam.param_names),
            "description": fam.description,
        })
    return out


def companion_family(monic_coeffs: Sequence[int]) -> FormFamily:
    """Norm-form family x1*I + x2*M + ... for the companion matrix M of a
    monic polynomial; reference point for the progression test below."""
    st = companion_structure(monic_coeffs)
    n = st.n
    return FormFamily(
        f"companion{n}",
        "norm form of an algebraic integer via its companion matrix",
        "pair", (), _coords("x", n), n, structure=st)


def cubic_norm_progression_test(fam: FormFamily) -> Tuple[bool, Tuple[int, int, int]]:
    """Necessary condition for a ternary cubic to be a norm form: the
    coefficients of x1^3, x2^3, x3^3 must be in geometric progression
    (c1*c3 = c2^2).  Returns (verdict, (c1, c2, c3)).

    It compares integer coefficients, so a symbolic family with parameters
    raises ValueError.
    """
    if fam.degree != 3 or fam.h != 3:
        raise NotTernaryCubic(f"{fam.name} is not a ternary cubic")
    if fam.is_symbolic() and fam.arity > 0:
        raise ValueError(f"{fam.name} needs numeric parameter values")
    form = fam.form
    c1, c2, c3 = (form.coefficient_of(tuple(3 if j == i else 0 for j in range(3)))
                  for i in range(3))
    return (c1 * c3 == c2 * c2, (c1, c2, c3))


def circulant_factor_check(q: Optional[int] = None):
    """Check the three facts behind the simultaneous sextic system:
    (i) det of the circulant block matrix equals f1*f2, (ii) both factor
    identities hold under the shared bilinear map in the x-coordinates,
    (iii) both hold for the u-coordinate pair under its own map.  Each
    family's factor-wise expansion checks that its factors multiply to its
    form, which for the circulant is the determinant: that is (i).

    Returns True, or the first nonzero residual polynomial.
    """
    for name in ("sextic_circulant", "sextic_uv"):
        fam = family(name) if q is None else family(name, (q,))
        res = verify_identity(fam.form, fam.pair_map, fam.coord_names,
                              factors=fam.factors)
        if not isinstance(res, ZeroResidual):
            return res
    return True


# -- three-fold specifics ------------------------------------------------------


def verify_threefold_genuineness(fam: FormFamily, witness_params) -> Polynomial:
    """A three-fold family's form at degenerate parameter values.

    Returns the reduced polynomial (a single monomial such as 4*x4^4 for the
    documented witnesses), whose shape rules out any bilinear composition law
    with integer coefficients.  The nonexistence conclusion itself is prose,
    not code.
    """
    if fam.kind != "triple":
        raise WrongFamilyKind(f"{fam.name!r} is not a three-fold family")
    return fam.specialize(witness_params).form


def diophantine_chain(a: int, b: int, c: int,
                      x: Sequence[int], y: Sequence[int], z: Sequence[int]):
    """Three value-sharing points of the quadratic a*u1^2 + b*u1*u2 + c*u2^2.

    The trilinear law psi applied to (x, y, z) and to its two rotations
    gives u = psi(x, y, z), v = psi(y, z, x) and w = psi(z, x, y), with
    Q(u) = Q(v) = Q(w) = Q(x)Q(y)Q(z); the shared value is returned
    alongside the points.
    """
    fam = family("threefold_quadratic", (a, b, c))
    psi = fam.triple_map()
    u, v, w = (psi.apply(args) for args in ((x, y, z), (y, z, x), (z, x, y)))
    value = fam.evaluate(u)
    if fam.evaluate(v) != value or fam.evaluate(w) != value:
        raise AssertionError("chain points disagree; composition data corrupt")
    return u, v, w, value
