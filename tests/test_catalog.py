"""The built-in form families: the paper's transcriptions against the
data derived from the structures."""

from typing import Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matform import catalog
from matform.catalog import (FormFamily, ParamArity, UnknownFamily, family,
                             list_families)
from matform.compose import MultilinearMap, ZeroResidual, verify_identity
from matform.linstruct import NotClosed
from matform.polyring import PolyError, Polynomial, VarTable

import paper
from companion import companion_family

# the families whose structure is in their own parameters
STRUCTURED = ("quad2x2", "cubic3x3", "quartic4x4", "sextic6x6",
              "sextic_circulant", "octic8x8", "threefold4x4", "threefold8x8")


class TestRegistry:
    def test_all_families_listed(self):
        names = [e["name"] for e in list_families()]
        assert names == [
            "quad2x2", "cubic3x3", "quartic4x4", "sextic6x6",
            "sextic_circulant", "sextic_uv", "octic8x8",
            "threefold_quadratic", "threefold4x4", "threefold8x8",
        ]

    def test_unknown_family(self):
        with pytest.raises(UnknownFamily):
            family("nope")

    def test_param_arity_enforced(self):
        with pytest.raises(ParamArity):
            family("quad2x2", (1, 2, 3))

    def test_symbolic_instances_are_cached(self):
        assert family("quartic4x4") is family("quartic4x4")

    @pytest.mark.parametrize("name", list(catalog._REGISTRY))
    def test_registry_metadata_is_the_built_family(self, name):
        entry = catalog._REGISTRY[name]
        fam = family(name)
        [listed] = [e for e in list_families() if e["name"] == name]
        assert listed == {"name": name, "kind": fam.kind,
                          "degree": fam.degree, "coords": fam.h,
                          "params": list(fam.param_names),
                          "description": fam.description}
        assert (entry.coords, entry.degenerate_witness) == \
            (fam.coord_names, fam.degenerate_witness)
        # and the metadata describes the built parts
        law = fam.triple_map() if fam.kind == "triple" else fam.pair_map
        st = fam.structure
        numeric = fam.specialize((2,) * fam.arity)  # degree in x alone
        degree = st.n if st is not None else \
            sum(f.total_degree() for f in numeric.factors)
        assert (degree, fam.h, fam.param_names) == \
            (entry.degree, law.h, law.params)

    @pytest.mark.parametrize("name", list(catalog._REGISTRY))
    def test_law_is_built_only_without_an_own_structure(self, name):
        # one source per law: a structure in the family's own parameters
        # gives the law by its closure, so no such entry builds one
        entry = catalog._REGISTRY[name]
        parts = entry.build()
        st = parts.get("structure")
        assert ("law" in parts) == (st is None or st.params != entry.params)

    def test_kinds_and_dimensions(self):
        info = {e["name"]: e for e in list_families()}
        assert info["quad2x2"]["degree"] == 2 and info["quad2x2"]["coords"] == 2
        assert info["octic8x8"]["degree"] == 8 and info["octic8x8"]["coords"] == 8
        assert info["sextic_uv"]["kind"] == "uv"
        for name in ("threefold_quadratic", "threefold4x4", "threefold8x8"):
            assert info[name]["kind"] == "triple"


class TestTranscribedAgainstDerived:
    """The paper's printed composition maps must equal the maps the matrix
    structures induce (derived independently through symbolic closure),
    which are the families' laws at run time."""

    @pytest.mark.parametrize("name", ["quad2x2", "cubic3x3", "quartic4x4"])
    def test_pair_map_matches_closure_outputs(self, name):
        fam = family(name)
        law = fam.structure.verify_pair_closure()
        assert isinstance(law, MultilinearMap)
        derived = MultilinearMap.from_forms(
            law.forms(law.coord_sets), fam.structure.params,
            [tuple(cs) for cs in law.coord_sets])
        assert derived == paper.law(name)

    def test_threefold4x4_map_matches_closure_outputs(self):
        fam = family("threefold4x4")
        law = fam.structure.verify_triple_closure()
        assert isinstance(law, MultilinearMap)
        derived = MultilinearMap.from_forms(
            law.forms(law.coord_sets), fam.structure.params,
            [tuple(cs) for cs in law.coord_sets])
        assert derived == paper.law("threefold4x4")

    @pytest.mark.parametrize("name", ["quad2x2", "cubic3x3", "quartic4x4",
                                      "sextic6x6", "sextic_circulant",
                                      "octic8x8"])
    def test_pair_closure_is_the_transcribed_pair_map(self, name):
        fam = family(name)
        assert fam.structure.closure(2) == paper.law(name)

    @pytest.mark.parametrize("name", STRUCTURED)
    def test_derived_law_is_the_structure_closure(self, name):
        # one source and one cache: the family keeps the object its
        # structure's closure returned, not a copy
        fam = family(name)
        law = fam.triple_map() if fam.kind == "triple" else fam.pair_map
        assert law is fam.structure.closure(law.k)

    def test_threefold_quadratic_law_is_its_closure_with_t_squared_as_a(self):
        # the structure is in (t, b, c), the family in (a, b, c): its
        # triple closure holds only even powers of t, and t^2 -> a gives psi
        fam = family("threefold_quadratic")
        closure = fam.structure.closure(3)
        assert closure.params == ("t", "b", "c")
        abc = VarTable(fam.param_names)

        def t_squared_as_a(c: Polynomial) -> Polynomial:
            assert all(m[0] % 2 == 0 for m in c.terms), c
            return Polynomial(abc, {(m[0] // 2,) + tuple(m[1:]): v
                                    for m, v in c.terms.items()})

        assert len(closure.coeff) == 10
        psi = MultilinearMap(3, 2, fam.param_names,
                             {key: t_squared_as_a(c)
                              for key, c in closure.coeff.items()})
        assert psi == fam.triple_map()

    @pytest.mark.parametrize("name", paper.PRINTED_FAMILIES)
    def test_printed_form_equals_determinant(self, name):
        fam = family(name)
        det = fam.structure.form(fam.coord_names)
        printed = paper.printed_form(name)
        if printed.table != det.table:
            printed = printed.embed(det.table)
        assert printed == det

    def test_quartic_printed_form_spot_values(self):
        fam = family("quartic4x4", (5, -23, 2, -7))
        assert fam.evaluate((1, 0, 0, 0)) == 1
        assert fam.evaluate((6, 2, 3, 1)) == 1
        assert fam.evaluate((0, 1, 0, 0)) == (-23) ** 2  # n^2 coefficient slot


class TestEvaluation:
    def test_evaluate_matches_form(self):
        fam = family("cubic3x3", (2, -1, 3, 0, 4))
        point = (2, -5, 7)
        env = dict(zip(fam.coord_names, point))
        assert fam.evaluate(point) == fam.form.eval_int(env)

    def test_evaluate_uses_integer_matrices_for_structures(self):
        fam = family("octic8x8", (0, -5, 0, -3, 0, -14))
        assert fam.evaluate((4, 2, 2, 1, 14, 7, 8, 4)) == 1

    def test_uv_factors(self):
        fam = family("sextic_uv", (3,))
        assert fam.evaluate_factors((2, 1, 3, -1, 3, -4)) == (1, 1)
        f1, f2 = fam.evaluate_factors((2, 1, 0, 0, 0, 0))
        assert f1 == 1 and f2 != 1

    def test_circulant_splits(self):
        fam = family("sextic_circulant", (3,))
        point = (2, 1, 3, -1, 3, -4)
        a, b = fam.evaluate_factors(point)
        assert a * b == fam.evaluate(point)


class TestIntegerMatrix:
    """FormFamily.matrix, the integer A(point) of LinearStructure.matrix_of,
    against the symbolic structure instantiated and evaluated entrywise."""

    @staticmethod
    def symbolic_at(name, values, point):
        base = family(name)
        a = base.structure.instantiate(base.coord_names)
        env = {**dict(zip(base.param_names, values)),
               **dict(zip(base.coord_names, point))}
        return [[a[i, j].eval_int(env) for j in range(a.n)] for i in range(a.n)]

    @pytest.mark.parametrize("name", STRUCTURED)
    @given(data=st.data())
    @settings(max_examples=5, deadline=None)
    def test_matrix_equals_symbolic_instantiation(self, name, data):
        nonzero = st.sampled_from((-3, -2, -1, 1, 2, 3))
        base = family(name)
        values = data.draw(st.tuples(*[nonzero] * base.arity))
        point = data.draw(st.tuples(*[nonzero] * base.h))
        assert family(name, values).matrix(point) == \
            self.symbolic_at(name, values, point)

    def test_vanishing_divisor_still_gives_a_matrix(self):
        values, point = (0, 1, 0, 2, 0, 0), (2, -1, 3, 1)
        fam = family("threefold4x4", values)
        # closure falls back to the symbolic structure
        assert fam.structure is family("threefold4x4").structure
        assert fam.matrix(point) == self.symbolic_at("threefold4x4", values, point)

    @pytest.mark.parametrize("name, values", [
        ("sextic_uv", (3,)), ("threefold_quadratic", (1, 2, 3))])
    def test_no_parameter_free_structure_gives_none(self, name, values):
        fam = family(name, values)
        assert fam.matrix((1,) * fam.h) is None

    @pytest.mark.parametrize("name", ["quartic4x4", "sextic_uv"])
    def test_symbolic_family_needs_values(self, name):
        fam = family(name)
        for method in (fam.matrix, fam.evaluate):
            with pytest.raises(ValueError, match="needs numeric parameter values"):
                method((1,) + (0,) * (fam.h - 1))

    @pytest.mark.parametrize("name, values", [
        ("quartic4x4", (5, -23, 2, -7)), ("sextic_uv", (3,))])
    def test_point_length_checked(self, name, values):
        fam = family(name, values)
        for method in (fam.matrix, fam.evaluate):
            with pytest.raises(ValueError, match=f"point must have length {fam.h}"):
                method((1,) * (fam.h - 1))


class TestInverseFormulas:
    def test_printed_inverse_at_reference_point(self):
        forms = paper.quartic_inverse_forms()
        env = {"m": 5, "n": -23, "p": 2, "q": -7,
               "x1": 6, "x2": 2, "x3": 3, "x4": 1}
        assert tuple(f.eval_int(env) for f in forms) == (32, -4, -8, 1)

    def test_printed_inverse_is_group_inverse(self):
        fam = family("quartic4x4", (5, -23, 2, -7))
        forms = paper.quartic_inverse_forms()
        for point in [(6, 2, 3, 1), (352, 121, 192, 66)]:
            env = {"m": 5, "n": -23, "p": 2, "q": -7}
            env.update(zip(("x1", "x2", "x3", "x4"), point))
            inv = tuple(f.eval_int(env) for f in forms)
            assert fam.pair_map.apply((point, inv)) == (1, 0, 0, 0)


class NotTernaryCubic(PolyError):
    """The geometric-progression test needs a cubic form in three variables."""


def cubic_norm_progression_test(fam: FormFamily
                                ) -> Tuple[bool, Tuple[int, int, int]]:
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


class TestNormProgression:
    def test_all_ones_satisfies_the_necessary_condition(self):
        ok, coeffs = cubic_norm_progression_test(
            family("cubic3x3", (1, 1, 1, 1, 1)))
        assert ok is True
        assert coeffs == (1, 0, 0)

    def test_violating_parameters_detected(self):
        ok, coeffs = cubic_norm_progression_test(
            family("cubic3x3", (0, 0, 1, 0, 0)))
        assert ok is False
        c1, c2, c3 = coeffs
        assert c1 * c3 != c2 * c2

    def test_norm_forms_always_pass(self):
        ok, _ = cubic_norm_progression_test(companion_family((0, 0, -2)))
        assert ok is True

    def test_requires_ternary_cubic(self):
        with pytest.raises(NotTernaryCubic):
            cubic_norm_progression_test(family("quad2x2", (0, 1)))

    def test_symbolic_family_needs_values(self):
        # the symbolic form is over the parameters plus the coordinates
        with pytest.raises(ValueError,
                           match="cubic3x3 needs numeric parameter values"):
            cubic_norm_progression_test(family("cubic3x3"))


class TestCirculantFactorization:
    """The facts behind the simultaneous sextic system: the circulant's
    determinant is f1*f2, and each factor composes under the shared map,
    in the x-coordinates and in the u-coordinates.  Expansion factor by
    factor checks that the factors multiply to the form (the determinant
    for the circulant) before it expands each factor's identity."""

    @staticmethod
    def factorwise(params):
        for name in ("sextic_circulant", "sextic_uv"):
            fam = family(name, params)
            res = verify_identity(fam.form, fam.pair_map, fam.coord_names,
                                  factors=fam.factors)
            assert isinstance(res, ZeroResidual), name

    def test_symbolic_check_passes(self):
        self.factorwise(None)

    def test_numeric_check_passes(self):
        self.factorwise((3,))

    def test_mutated_factor_fails(self):
        # same machinery, wrong data: f1 shifted by one is no longer a
        # factor of the determinant
        circ = family("sextic_circulant")
        f1, f2 = circ.factors
        det = circ.form
        assert not (det - (f1 + 1) * f2).is_zero()


class TestThreefoldFamilies:
    def test_pairwise_extraction_fails_for_all(self):
        for name in ("threefold_quadratic", "threefold4x4", "threefold8x8"):
            fam = family(name)
            assert isinstance(fam.structure.verify_pair_closure(),
                              NotClosed)

    def test_degenerate_witnesses_recorded(self):
        for name in ("threefold_quadratic", "threefold4x4", "threefold8x8"):
            fam = family(name)
            assert fam.degenerate_witness is not None
            assert len(fam.degenerate_witness) == len(fam.param_names)


class TestCompanionFamily:
    def test_companion_family_composes(self):
        fam = companion_family((0, 0, -2))
        x = (1, 1, 0)
        y = (1, 0, 1)
        z = fam.pair_map.apply((x, y))
        assert fam.evaluate(z) == fam.evaluate(x) * fam.evaluate(y)
