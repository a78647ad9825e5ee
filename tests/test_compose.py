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

ivec = st.lists(st.integers(-20, 20), min_size=2, max_size=2).map(tuple)
ivec4 = st.lists(st.integers(-9, 9), min_size=4, max_size=4).map(tuple)

# structure in the family's own parameters: the matrix route applies; the
# other two families, threefold_quadratic and sextic_uv, are expanded
MATRIX_ROUTED = ("quad2x2", "cubic3x3", "quartic4x4", "sextic6x6",
                 "sextic_circulant", "octic8x8", "threefold4x4",
                 "threefold8x8")


def composition_map(fam):
    return fam.triple_map() if fam.kind == "triple" else fam.pair_map


def verify_auto(fam, cmap=None):
    """The family's own proof of its identity, as the CLI runs it."""
    return fam.verify(cmap or composition_map(fam))


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
            f.eval_int(env) for f in forms)

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

    def test_argument_matrix_reproduces_apply(self):
        fam = catalog.family("quartic4x4", (5, -23, 2, -7))
        cmap = fam.pair_map
        x, y = (6, 2, 3, 1), (1, 0, 0, 0)
        N = cmap.argument_matrix(x)
        assert tuple(sum(N[i][j] * y[j] for j in range(4)) for i in range(4)) \
            == cmap.apply((x, y))

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
        cmap.argument_matrix(x)
        assert calls == []


class TestVerifyIdentity:
    def test_expand_zero_residual(self):
        fam = catalog.family("quad2x2")
        res = verify_identity(fam.form, fam.pair_map, fam.coord_names)
        assert isinstance(res, ZeroResidual)

    def test_matrix_route_agrees_with_expansion(self):
        fam = catalog.family("quartic4x4")
        by_matrix = verify_identity(fam.form, fam.pair_map, fam.coord_names,
                                    structure=fam.structure)
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

    def test_mutated_map_detected_by_matrix_route(self):
        fam = catalog.family("quartic4x4")
        cmap = fam.pair_map
        bad = dict(cmap.coeff)
        key = next(iter(bad))
        bad[key] = bad[key] + 1
        mutant = MultilinearMap(2, 4, cmap.params, bad)
        res = verify_identity(fam.form, mutant, fam.coord_names,
                              structure=fam.structure)
        assert not isinstance(res, ZeroResidual)

    def test_matrix_route_checks_a_form_other_than_det(self):
        # the family's own form is its structure's determinant, so only
        # another form exercises the det - form check
        fam = catalog.family("quartic4x4")
        res = verify_identity(fam.form + 1, fam.pair_map, fam.coord_names,
                              structure=fam.structure)
        assert not isinstance(res, ZeroResidual)
        assert res.as_int() == -1

    def test_companion_structure_proves_by_its_own_recipe(self):
        fam = companion_family((0, 0, -2))
        res = verify_identity(None, fam.pair_map, fam.coord_names,
                              structure=fam.structure)
        assert res == ZeroResidual("matrix",
                                   "structure in the map's parameters")

    def test_form_none_needs_a_structure(self):
        # form=None stands for det(structure)
        fam = catalog.family("quad2x2")
        with pytest.raises(ValueError):
            verify_identity(None, fam.pair_map, fam.coord_names)


class TestRoute:
    """The route follows from the structure passed, not from the size."""

    @pytest.mark.parametrize("name", MATRIX_ROUTED)
    def test_structure_in_map_parameters_takes_matrix_route(self, name):
        res = verify_auto(catalog.family(name))
        assert res == ZeroResidual("matrix",
                                   "structure in the map's parameters")

    def test_structure_in_other_parameters_expands(self):
        # threefold_quadratic's structure is in (t, b, c), its map in (a, b, c)
        res = verify_auto(catalog.family("threefold_quadratic"))
        assert res == ZeroResidual(
            "expand", "no structure in the map's parameters; "
                      "whole form expanded")

    def test_split_form_without_structure_expands_factorwise(self):
        res = verify_auto(catalog.family("sextic_uv"))
        assert res == ZeroResidual(
            "expand", "no structure in the map's parameters; "
                      "2 factors expanded one at a time")

    def test_mutated_uv_map_yields_nonzero_residual(self):
        fam = catalog.family("sextic_uv")
        res = verify_auto(fam, cmap=mutated(fam.pair_map))
        assert not isinstance(res, ZeroResidual)
        assert not res.is_zero()

    def test_vanishing_divisor_proves_only_the_familys_map(self):
        # s = t = 0: a divisor vanishes, so the symbolic identity stands
        # in, for the family's own map only; closure falls back to the
        # symbolic structure
        fam = catalog.family("threefold4x4", (0, 1, 0, 2, 0, 0))
        assert fam.structure is catalog.family("threefold4x4").structure
        assert verify_auto(fam) == ZeroResidual(
            "matrix", "divisor vanishes; symbolic identity specialized")
        # the form is 4*x4^4 here and w4 = 2*x4*y4*z4; 3*x4*y4*z4 fails
        bad = dict(fam.triple_map().coeff)
        bad[(3, (3, 3, 3))] = bad[(3, (3, 3, 3))] + 1
        res = verify_auto(fam, cmap=MultilinearMap(3, 4, (), bad))
        assert not isinstance(res, ZeroResidual)
        assert not res.is_zero()

    @pytest.mark.parametrize("name",
                             ["quad2x2", "sextic_circulant", "sextic_uv"])
    def test_factors_must_multiply_to_the_form(self, name):
        # each factor composes under the family's map on its own, so only
        # the product check stands between these tuples and a false proof
        fam = catalog.family(name)
        f1 = fam.factors[0]
        for factors in ((f1, f1), (f1, f1, f1)):
            for structure in (fam.structure, None):
                res = verify_identity(fam.form, fam.pair_map, fam.coord_names,
                                      structure=structure,
                                      factors=factors)
                assert not isinstance(res, ZeroResidual), (factors, structure)
                assert not res.is_zero()


class TestIntegerPointOracle:
    """f(x)f(y)[f(z)] = f(map(...)) at integer points, evaluated term by
    term from the paper's printed forms and laws where it prints them.
    This is the check, independent of both proof routes and of the
    closure that gives the run-time law, for the identities that the
    matrix route proves without expanding them; the expansion tests prove
    the other two."""

    @pytest.mark.parametrize("name", MATRIX_ROUTED)
    @given(data=st.data())
    @settings(max_examples=5, deadline=None)
    def test_identity_at_integer_points(self, name, data):
        # nonzero values leave every monomial of a residual switched on
        # and every divisor nonzero, so each draw has its own numeric
        # structure (not the symbolic fallback)
        nonzero = st.sampled_from((-3, -2, -1, 1, 2, 3))
        base = catalog.family(name)
        values = data.draw(st.tuples(*[nonzero] * base.arity))
        fam = base.specialize(values)
        assert fam.structure.params == ()
        cmap = (paper.law(name).specialize(values)
                if name in paper.LAW_FAMILIES else composition_map(fam))
        points = data.draw(st.tuples(
            *[st.tuples(*[nonzero] * fam.h)] * cmap.k))
        transcribed = ((paper.printed_form(name),)
                       if name in paper.PRINTED_FAMILIES else base.factors)
        at_values = [p.specialize(dict(zip(base.param_names, values)))
                     for p in transcribed]

        def f(point):
            env = dict(zip(base.coord_names, point))
            return math.prod(p.eval_vector([env[n] for n in p.table.names])
                             for p in at_values)

        assert math.prod(map(f, points)) == f(cmap.apply(points))


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
        w = fam.specialize(fam.degenerate_witness).form
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
