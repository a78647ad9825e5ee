"""Bilinear/trilinear composition maps and identity verification."""

import math
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matform import catalog, compose
from matform.compose import (
    MultilinearMap,
    NotAUnit,
    ZeroResidual,
    identity_element,
    invert,
    verify_identity,
)
from matform.polyring import Polynomial, VarTable

import paper
from companion import companion_family
from intmatrix import solve_rational
from polytools import degree_in, eval_int

ivec = st.lists(st.integers(-20, 20), min_size=2, max_size=2).map(tuple)
ivec4 = st.lists(st.integers(-9, 9), min_size=4, max_size=4).map(tuple)

# every family's own law is its structure's closure: the matrix route
MATRIX_ROUTED = ("quad2x2", "cubic3x3", "quartic4x4", "sextic6x6",
                 "sextic_circulant", "sextic_uv", "octic8x8",
                 "threefold_quadratic", "threefold4x4", "threefold8x8")


# the values of the golden numeric `verify` argvs
GOLDEN_VALUES = {
    "quad2x2": (0, -2), "cubic3x3": (1, -1, 2, 1, -2),
    "quartic4x4": (5, -23, 2, -7), "sextic6x6": (1, -1, 2, 1, -2, 1, -3),
    "sextic_circulant": (3,), "sextic_uv": (3,),
    "octic8x8": (0, -5, 0, -3, 0, -14), "threefold_quadratic": (1, 0, -2),
    "threefold4x4": (-1, -4, 1, -1, 1, 1),
    "threefold8x8": (3, -1, 0, -3, 0, -14, 1)}
# divisors vanish: threefold4x4 at s = t = 0, at s = 0 and at t = 0,
# threefold8x8 at t = 0
VANISHING = [("threefold4x4", (0, 1, 0, 2, 0, 0)),
             ("threefold4x4", (-1, -4, 1, -1, 0, 1)),
             ("threefold4x4", (-1, -4, 1, -1, 1, 0)),
             ("threefold8x8", (3, -1, 0, -3, 0, -14, 0))]


def numeric_cases(cases):
    return [pytest.param(name, values,
                         id=f"{name}-{','.join(map(str, values))}")
            for name, values in cases]


# every catalog law, by family and arity: a "triple" family has no
# bilinear law
LAWS = [(f["name"], k) for f in catalog.list_families()
        for k in ((2, 3) if f["kind"] == "pair" else (3,))]


def unit_vector_matrix(cmap, args, slot):
    """The matrix of v -> map(args with v in `slot`), read column by column
    off the map's output forms evaluated at the unit vectors."""
    forms = cmap.forms(cmap.coord_sets)
    columns = []
    for j in range(cmap.h):
        e = [int(r == j) for r in range(cmap.h)]
        point = [c for s, a in enumerate(args)
                 for c in (e if s == slot else a)]
        columns.append([f.eval_vector(point) for f in forms])
    return [list(row) for row in zip(*columns)]


def unit_power(name, values, unit, k):
    """`unit` composed with itself k times under the family's pair law at
    `values`: a unit whose coordinates have about k times its digits."""
    cmap = catalog.family(name, values).pair_map
    x = unit
    for _ in range(k - 1):
        x = cmap.apply((x, unit))
    return x


def composition_map(fam):
    return fam.triple_map() if fam.kind == "triple" else fam.pair_map


def verify_auto(fam, cmap=None):
    """The family's own proof of its identity, as the CLI runs it."""
    return fam.verify(cmap or composition_map(fam))


def bumped_last(cmap):
    """cmap with the coefficient of x_h*y_h[*z_h] in output h increased
    by one."""
    bad = dict(cmap.coeff)
    key = (cmap.h - 1, (cmap.h - 1,) * cmap.k)
    one = cmap.param_table.const(1)
    bad[key] = bad[key] + one if key in bad else one
    return MultilinearMap(cmap.k, cmap.h, cmap.params, bad)


def mutated(cmap):
    """cmap with one coefficient increased by one."""
    bad = dict(cmap.coeff)
    key = next(iter(bad))
    bad[key] = bad[key] + 1
    return MultilinearMap(cmap.k, cmap.h, cmap.params, bad)


class TestZeroResidual:
    def test_equal_by_value(self):
        assert ZeroResidual("matrix", "r") == ZeroResidual(method="matrix",
                                                           reason="r")
        assert ZeroResidual("matrix", "r") != ZeroResidual("expand", "r")

    def test_fields_cannot_be_assigned(self):
        with pytest.raises(AttributeError):
            ZeroResidual("matrix", "r").method = "expand"


class TestMultilinearMap:
    def test_from_forms_round_trip(self):
        fam = catalog.family("quad2x2")
        cmap = fam.pair_map
        xs = ("x1", "x2")
        ys = ("y1", "y2")
        forms = cmap.forms((xs, ys))
        again = MultilinearMap.from_forms(forms, cmap.params, (xs, ys))
        assert cmap == again

    def test_from_forms_rejects_non_multilinear(self):
        table = VarTable(("x1", "x2", "y1", "y2"))
        x1 = table.var("x1")
        with pytest.raises(ValueError):
            MultilinearMap.from_forms(
                [x1 * x1, table.zero()], (), (("x1", "x2"), ("y1", "y2")))

    @given(ivec, ivec, st.integers(-5, 5), st.integers(-5, 5))
    def test_apply_matches_forms(self, x, y, p, q):
        cmap = catalog.family("quad2x2").pair_map
        forms = cmap.forms((("x1", "x2"), ("y1", "y2")))
        env = {"p": p, "q": q, "x1": x[0], "x2": x[1], "y1": y[0], "y2": y[1]}
        assert cmap.specialize((p, q)).apply((x, y)) == tuple(
            eval_int(f, env) for f in forms)

    @given(ivec, ivec, ivec, st.integers(-5, 5), st.integers(-5, 5))
    def test_bilinearity(self, x, xp, y, p, q):
        cmap = catalog.family("quad2x2").pair_map.specialize((p, q))
        left = cmap.apply((tuple(a + b for a, b in zip(x, xp)), y))
        split = tuple(u + v for u, v in zip(cmap.apply((x, y)),
                                            cmap.apply((xp, y))))
        assert left == split

    @given(ivec, ivec, ivec, st.integers(-3, 3), st.integers(-3, 3),
           st.integers(-3, 3))
    def test_trilinearity(self, x, y, z, a, b, c):
        cmap = catalog.family("threefold_quadratic").triple_map()
        spec = cmap.specialize((a, b, c))
        doubled = tuple(2 * v for v in x)
        assert spec.apply((doubled, y, z)) == tuple(
            2 * v for v in spec.apply((x, y, z)))

    @pytest.mark.parametrize("name, k", LAWS)
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_argument_matrix_matches_forms_at_unit_vectors(self, name, k,
                                                           data):
        fam = catalog.family(name, GOLDEN_VALUES[name])
        cmap = fam.triple_map() if k == 3 else fam.pair_map
        vec = st.lists(st.integers(-9, 9), min_size=cmap.h,
                       max_size=cmap.h).map(tuple)
        args = [data.draw(vec) for _ in range(k)]
        for slot in range(k):
            free = args[:slot] + [None] + args[slot + 1:]
            assert cmap.argument_matrix(free, slot) == \
                unit_vector_matrix(cmap, args, slot)

    def test_argument_matrix_checks_its_arguments(self):
        cmap = catalog.family("quad2x2", (0, -2)).pair_map
        with pytest.raises(compose.DimensionMismatch):
            cmap.argument_matrix(((1, 0),), 1)
        with pytest.raises(compose.DimensionMismatch):
            cmap.argument_matrix(((1, 0, 0), None), 1)
        with pytest.raises(ValueError):
            cmap.argument_matrix(((1, 0), (1, 0)), 2)
        # the free slot is not read, so its length is not checked either
        assert cmap.argument_matrix(((1, 0, 0), (3, 2)), 0) == \
            cmap.argument_matrix((None, (3, 2)), 0)

    def test_integer_terms_are_derived_once(self, monkeypatch):
        cmap = catalog.family("quartic4x4", (5, -23, 2, -7)).pair_map
        x, y = (6, 2, 3, 1), (352, 121, 192, 66)
        first = cmap.apply((x, y))
        calls = []
        constant_term = Polynomial.constant_term

        def counting(self):
            calls.append(self)
            return constant_term(self)
        monkeypatch.setattr(Polynomial, "constant_term", counting)
        for _ in range(100):
            assert cmap.apply((x, y)) == first
        cmap.argument_matrix((x, None), 1)
        cmap.argument_matrix((None, y), 0)
        assert invert(cmap, x) == (32, -4, -8, 1)
        assert calls == []


class TestVerifyIdentity:
    def test_expand_zero_residual(self):
        fam = catalog.family("quad2x2")
        res = verify_identity(fam.form, fam.pair_map, fam.coord_names)
        assert isinstance(res, ZeroResidual)

    def test_matrix_route_agrees_with_expansion(self):
        fam = catalog.family("quartic4x4")
        by_matrix = fam.verify(fam.pair_map)
        by_expand = verify_identity(fam.form, fam.pair_map, fam.coord_names)
        assert isinstance(by_matrix, ZeroResidual)
        assert isinstance(by_expand, ZeroResidual)
        assert (by_matrix.method, by_expand.method) == ("matrix", "expand")

    def test_mutated_map_yields_nonzero_residual(self):
        fam = catalog.family("quad2x2")
        cmap = fam.pair_map
        bad = dict(cmap.coeff)
        key = (0, (0, 0))
        bad[key] = bad[key] + 1
        mutant = MultilinearMap(2, 2, cmap.params, bad)
        res = verify_identity(fam.form, mutant, fam.coord_names)
        assert not isinstance(res, ZeroResidual)
        assert not res.is_zero()

    def test_mutated_map_is_expanded_by_the_family(self):
        # a map other than the family's law is not proven by its closure:
        # `verify` expands it, and the residual is left
        fam = catalog.family("quad2x2")
        res = fam.verify(mutated(fam.pair_map))
        assert not isinstance(res, ZeroResidual)
        assert not res.is_zero()

    def test_expansion_checks_a_form_other_than_the_familys(self):
        # (f(x) + 1)(f(y) + 1) - (f(z) + 1) = f(x) + f(y) where f(x)f(y) =
        # f(z); at x = y = (1, 0), f = 1 and the residual is 2
        fam = catalog.family("quad2x2")
        res = verify_identity(fam.form + 1, fam.pair_map, fam.coord_names)
        assert not isinstance(res, ZeroResidual)
        env = {"p": 5, "q": -7, "x_x1": 1, "x_x2": 0, "y_x1": 1, "y_x2": 0}
        assert eval_int(res, env) == 2

    def test_companion_structure_proves_by_its_own_recipe(self):
        fam = companion_family((0, 0, -2))
        res = fam.verify(fam.pair_map)
        assert res == ZeroResidual("matrix",
                                   "closure of the family's structure")


class TestRoute:
    """The route follows from the map, not from the size: a family's own
    law takes the matrix route, any other map is expanded."""

    @pytest.mark.parametrize("name", MATRIX_ROUTED)
    def test_own_law_takes_matrix_route(self, name):
        # threefold_quadratic's closure is in (t, b, c), its law in
        # (a, b, c): the closure with t^2 read as a proves it all the same
        res = verify_auto(catalog.family(name))
        assert res == ZeroResidual("matrix",
                                   "closure of the family's structure")

    def test_uv_factor_without_structure_expands(self):
        # each transcribed factor composes under the derived law on its
        # own: its whole form is expanded
        fam = catalog.family("sextic_uv")
        for f in paper.uv_factors():
            res = verify_identity(f, fam.pair_map, fam.coord_names)
            assert res == ZeroResidual("expand", "whole form expanded")

    def test_mutated_uv_map_yields_nonzero_residual(self):
        # the family's own proof is for its own law: another map is
        # expanded, whole form, at these values.  At q = 3 that takes
        # ~0.7 s; symbolic in q the sextic's expansion takes minutes.
        fam = catalog.family("sextic_uv", (3,))
        res = verify_auto(fam, cmap=mutated(fam.pair_map))
        assert not isinstance(res, ZeroResidual)
        assert not res.is_zero()

    def test_mutated_uv_map_leaves_f1_a_residual_of_its_own(self):
        # a mutated symbolic law, checked on the factor u1^2 - q*u2^2 by a
        # direct call: its residual is in u1 and u2 alone
        fam = catalog.family("sextic_uv")
        f1 = paper.uv_factors()[0]
        res = verify_identity(f1, mutated(fam.pair_map), fam.coord_names)
        assert not isinstance(res, ZeroResidual)
        assert not res.is_zero()
        assert {name for name in res.table.names if degree_in(res, name)} \
            <= {"q", "x_u1", "x_u2", "y_u1", "y_u2"}

    @pytest.mark.parametrize("name, values", numeric_cases(
        [*GOLDEN_VALUES.items(), *VANISHING]))
    def test_numeric_verify_is_the_symbolic_proof_specialized(self, name,
                                                              values):
        symbolic = verify_auto(catalog.family(name))
        assert verify_auto(catalog.family(name, values)) == ZeroResidual(
            symbolic.method, "symbolic identity specialized")

    # expanding a mutated map is the cost of the test: the other golden
    # values and threefold8x8's (a 722-term octic at t = 0) take seconds
    @pytest.mark.parametrize("name, values", numeric_cases(
        [(name, GOLDEN_VALUES[name]) for name in
         ("quad2x2", "cubic3x3", "quartic4x4", "threefold_quadratic")]
        + VANISHING[:3]))
    def test_mutated_map_at_numeric_values_leaves_a_residual(self, name,
                                                             values):
        # the specialized proof is for the family's own map only; another
        # map is expanded at these values.  The bumped coefficient is that
        # of x_h*y_h[*z_h] in the last output: at s = t = 0 threefold4x4's
        # form is 4*x4^4, so only the last output enters it.
        fam = catalog.family(name, values)
        cmap = composition_map(fam)
        res = verify_auto(fam, cmap=bumped_last(cmap))
        assert not isinstance(res, ZeroResidual)
        assert not res.is_zero()

    def test_vanishing_divisor_closes_the_symbolic_structure(self):
        fam = catalog.family("threefold4x4", (0, 1, 0, 2, 0, 0))
        assert fam.structure is catalog.family("threefold4x4").structure

    @pytest.mark.parametrize("name",
                             ["quad2x2", "sextic_circulant", "sextic_uv"])
    def test_matrix_route_proves_det_and_no_other_form(self, name):
        # a power of a factor composes under the family's map too, but the
        # matrix route proves the family's own form only, det A: another
        # form is checked by expansion alone
        fam = catalog.family(name)
        f1 = (paper.circulant_factors()[0] if name == "sextic_circulant"
              else paper.uv_factors()[0] if name == "sextic_uv"
              else fam.form)
        for power in (f1 * f1, f1 * f1 * f1):
            res = verify_identity(power, fam.pair_map, fam.coord_names)
            assert res == ZeroResidual("expand", "whole form expanded")


class TestIntegerPointOracle:
    """f(x)f(y)[f(z)] = f(map(...)) at integer points, evaluated term by
    term from the paper's printed forms and laws where it prints them.
    This is the check, independent of both proof routes and of the
    closure that gives the run-time law, for the identities that the
    matrix route proves without expanding them."""

    @pytest.mark.parametrize("name", MATRIX_ROUTED)
    @given(data=st.data())
    @settings(max_examples=5, deadline=None)
    def test_identity_at_integer_points(self, name, data):
        # nonzero values leave every monomial of a residual switched on
        # and every divisor nonzero, so each draw has its own numeric
        # structure (not the symbolic fallback); threefold_quadratic's is
        # in (t, b, c), so it keeps the symbolic one
        nonzero = st.sampled_from((-3, -2, -1, 1, 2, 3))
        base = catalog.family(name)
        values = data.draw(st.tuples(*[nonzero] * base.arity))
        fam = base.specialize(values)
        assert fam.structure.params == (
            ("t", "b", "c") if name == "threefold_quadratic" else ())
        cmap = (paper.law(name).specialize(values)
                if name in paper.LAW_FAMILIES else composition_map(fam))
        points = data.draw(st.tuples(
            *[st.tuples(*[nonzero] * fam.h)] * cmap.k))
        transcribed = ((paper.printed_form(name),)
                       if name in paper.PRINTED_FAMILIES else
                       paper.circulant_factors() if name == "sextic_circulant"
                       else paper.uv_factors() if name == "sextic_uv"
                       else (paper.threefold_quadratic_form(),)
                       if name == "threefold_quadratic" else (base.form,))
        at_values = [p.specialize(dict(zip(base.param_names, values)))
                     for p in transcribed]

        def f(point):
            env = dict(zip(base.coord_names, point))
            return math.prod(p.eval_vector([env[n] for n in p.table.names])
                             for p in at_values)

        assert math.prod(map(f, points)) == f(cmap.apply(points))

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_uv_triple_law_is_the_pair_law_twice(self, data):
        # the law is associative, which is why the structure closes at
        # order 3 as well: A(x)A(y)A(z) = A(pair(pair(x, y), z))
        base = catalog.family("sextic_uv")
        fam = base.specialize((data.draw(st.integers(-5, 5)),))
        ivec6 = st.tuples(*[st.integers(-9, 9)] * 6)
        x, y, z = (data.draw(ivec6) for _ in range(3))
        pair = fam.pair_map
        assert fam.triple_map().apply((x, y, z)) == \
            pair.apply((pair.apply((x, y)), z)) == \
            pair.apply((x, pair.apply((y, z))))


class TestGroupLaw:
    def test_identity_element(self):
        fam = catalog.family("quartic4x4", (5, -23, 2, -7))
        e = identity_element(4)
        assert e == (1, 0, 0, 0)
        assert fam.pair_map.apply(((6, 2, 3, 1), e)) == (6, 2, 3, 1)
        assert fam.pair_map.apply((e, (6, 2, 3, 1))) == (6, 2, 3, 1)

    def test_invert_round_trip(self):
        fam = catalog.family("quartic4x4", (5, -23, 2, -7))
        x = (6, 2, 3, 1)
        y = invert(fam.pair_map, x)
        assert fam.pair_map.apply((x, y)) == identity_element(4)

    def test_invert_rejects_non_unit(self):
        fam = catalog.family("quad2x2", (0, -1))
        with pytest.raises(NotAUnit):
            invert(fam.pair_map, (3, 1))  # f = 8

    @staticmethod
    def invert_outcome(cmap, x):
        """Check `invert` at x against Gauss-Jordan over the rationals on
        the matrix read off the law's forms, and say which outcome it was:
        a singular system raises SingularMap, a non-integral solution
        raises NotAUnit naming its first non-integral component, and an
        integral one is returned."""
        y = solve_rational(unit_vector_matrix(cmap, [x, None], 1),
                           identity_element(cmap.h))
        if y is None:
            with pytest.raises(compose.SingularMap):
                invert(cmap, x)
            return "singular"
        fractional = [v for v in y if v.denominator != 1]
        if fractional:
            with pytest.raises(NotAUnit) as exc:
                invert(cmap, x)
            assert str(exc.value) == \
                f"non-integral inverse component {fractional[0]}"
            return "non-unit"
        assert invert(cmap, x) == tuple(map(int, y))
        return "unit"

    @pytest.mark.parametrize("name, values, x, outcome", [
        ("quad2x2", (0, -1), (1, 1), "singular"),
        ("quad2x2", (0, -1), (3, 1), "non-unit"),
        ("quad2x2", (0, -2), (2, 0), "non-unit"),
        ("quad2x2", (0, -2), (5, -3), "non-unit"),
        ("quad2x2", (0, -2), (3, 2), "unit"),
        ("quartic4x4", (5, -23, 2, -7), (0, 0, 0, 0), "singular"),
        ("quartic4x4", (5, -23, 2, -7), (2, 0, 0, 0), "non-unit"),
        ("quartic4x4", (5, -23, 2, -7), (1, 1, 0, 0), "non-unit"),
        ("quartic4x4", (5, -23, 2, -7), (6, 2, 3, 2), "non-unit"),
        ("quartic4x4", (5, -23, 2, -7), (6, 2, 3, 1), "unit"),
        ("octic8x8", (0, -5, 0, -3, 0, -14), (0,) * 8, "singular"),
        ("octic8x8", (0, -5, 0, -3, 0, -14), (2,) + (0,) * 7, "non-unit"),
        ("octic8x8", (0, -5, 0, -3, 0, -14), (4, 2, 2, 1, 14, 7, 8, 5),
         "non-unit"),
        ("octic8x8", (0, -5, 0, -3, 0, -14), (4, 2, 2, 1, 14, 7, 8, 4),
         "unit"),
        # the 200th power of that unit, coordinates of ~470 digits
        ("octic8x8", (0, -5, 0, -3, 0, -14),
         unit_power("octic8x8", (0, -5, 0, -3, 0, -14),
                    (4, 2, 2, 1, 14, 7, 8, 4), 200), "unit"),
    ])
    def test_invert_agrees_with_gauss_jordan(self, name, values, x, outcome):
        cmap = catalog.family(name, values).pair_map
        assert self.invert_outcome(cmap, x) == outcome

    @pytest.mark.parametrize("name, values", [
        ("quad2x2", (0, -1)), ("quartic4x4", (5, -23, 2, -7)),
        ("octic8x8", (0, -5, 0, -3, 0, -14))])
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_invert_agrees_with_gauss_jordan_at_drawn_points(self, name,
                                                             values, data):
        cmap = catalog.family(name, values).pair_map
        x = data.draw(st.tuples(*[st.integers(-3, 3)] * cmap.h))
        self.invert_outcome(cmap, x)

    @given(ivec4, ivec4, ivec4)
    @settings(max_examples=25)
    def test_numeric_associativity(self, x, y, z):
        cmap = catalog.family("quartic4x4", (5, -23, 2, -7)).pair_map
        assert cmap.apply((cmap.apply((x, y)), z)) \
            == cmap.apply((x, cmap.apply((y, z))))

    def test_symbolic_associativity_quad(self):
        cmap = catalog.family("quad2x2").pair_map
        xs, ys, zs = ("x1", "x2"), ("y1", "y2"), ("z1", "z2")
        names = cmap.params + xs + ys + zs
        table = VarTable(names)
        xy = cmap.forms((xs, ys), table=table)
        yz = cmap.forms((ys, zs), table=table)
        # (x*y)*z via substitution of the intermediate outputs
        left = [f.substitute({"x1": xy[0], "x2": xy[1],
                              "y1": table.var("z1"), "y2": table.var("z2")})
                for f in cmap.forms((xs, ys), table=table)]
        right = [f.substitute({"y1": yz[0], "y2": yz[1]})
                 for f in cmap.forms((xs, ys), table=table)]
        assert left == right


class TestThreefold:
    def test_quadratic_witness_is_definite_negative(self):
        fam = catalog.family("threefold_quadratic")
        w = fam.specialize(paper.DEGENERATE_WITNESSES[fam.name]).form
        t = w.table
        x1, x2 = t.var("x1"), t.var("x2")
        assert w == -(x1 ** 2) - x2 ** 2

    def test_triple_identity_quadratic(self):
        fam = catalog.family("threefold_quadratic")
        res = verify_identity(fam.form, fam.triple_map(), fam.coord_names)
        assert isinstance(res, ZeroResidual)


def diophantine_chain(a: int, b: int, c: int,
                      x: Sequence[int], y: Sequence[int], z: Sequence[int]):
    """Three value-sharing points of the quadratic a*u1^2 + b*u1*u2 + c*u2^2.

    The trilinear law psi applied to (x, y, z) and to its two rotations
    gives u = psi(x, y, z), v = psi(y, z, x) and w = psi(z, x, y), with
    Q(u) = Q(v) = Q(w) = Q(x)Q(y)Q(z); the shared value is returned
    alongside the points.
    """
    fam = catalog.family("threefold_quadratic", (a, b, c))
    psi = fam.triple_map()
    u, v, w = (psi.apply(args) for args in ((x, y, z), (y, z, x), (z, x, y)))
    value = fam.evaluate(u)
    assert fam.evaluate(v) == value and fam.evaluate(w) == value
    return u, v, w, value


class TestDiophantineChain:
    @given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4),
           ivec, ivec, ivec)
    @settings(max_examples=40)
    def test_chain_values_agree(self, a, b, c, x, y, z):
        u, v, w, value = diophantine_chain(a, b, c, x, y, z)

        def q(p):
            return a * p[0] ** 2 + b * p[0] * p[1] + c * p[1] ** 2

        assert value == q(x) * q(y) * q(z)
        assert q(u) == q(v) == q(w) == value

    def test_chain_solutions_of_q_equals_one(self):
        # three solutions of u1^2 - 2*u2^2 = 1 chained together stay on it
        u, v, w, value = diophantine_chain(
            1, 0, -2, (3, 2), (17, 12), (99, 70))
        assert value == 1
