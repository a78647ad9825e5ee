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
from matform.linstruct import LinearStructure, NotClosed, NotInSpan
from matform.polyring import PolyError, PolyMatrix, VarTable

import paper
from companion import companion_family
from polytools import coefficient_of, eval_int, mul

# the families whose structure is in their own parameters
STRUCTURED = ("quad2x2", "cubic3x3", "quartic4x4", "sextic6x6",
              "sextic_circulant", "sextic_uv", "octic8x8", "threefold4x4",
              "threefold8x8")


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
                          "degree": fam.h, "coords": fam.h,
                          "params": list(fam.param_names),
                          "description": entry.description}
        assert entry.coords == fam.coord_names
        # and the metadata describes the built parts
        law = fam.triple_map() if fam.kind == "triple" else fam.pair_map
        assert (fam.h, fam.param_names) == (law.h, law.params)

    @pytest.mark.parametrize("name", list(catalog._REGISTRY))
    def test_degree_is_the_coordinate_count(self, name):
        # the paper's forms have degree n in n variables: each structure is
        # n x n with n coordinates, so the listed degree is their count
        fam = family(name)
        assert fam.structure.n == fam.h == len(catalog._REGISTRY[name].coords)

    @pytest.mark.parametrize("name", list(catalog._REGISTRY))
    def test_only_what_no_structure_gives_is_built(self, name):
        # one source per law and form: every family has a structure, which
        # gives the law by its closure and the form by its determinant
        # (threefold_quadratic's with t^2 read as a), so none builds a law
        # or a form; only the quartic has a printed form, because
        # bench/oracle.py reads it, and it is built when read
        assert isinstance(catalog._REGISTRY[name].build(), LinearStructure)
        assert (family(name).printed_form is not None) == \
            (name == "quartic4x4")

    def test_kinds_and_dimensions(self):
        info = {e["name"]: e for e in list_families()}
        assert info["quad2x2"]["degree"] == 2 and info["quad2x2"]["coords"] == 2
        assert info["octic8x8"]["degree"] == 8 and info["octic8x8"]["coords"] == 8
        triple = ("threefold_quadratic", "threefold4x4", "threefold8x8")
        for name, e in info.items():
            assert e["kind"] == ("triple" if name in triple else "pair")

    @pytest.mark.parametrize("name", ["threefold_quadratic", "threefold4x4",
                                      "threefold8x8"])
    @pytest.mark.parametrize("values", [None, "numeric"])
    def test_triple_family_has_no_bilinear_law(self, name, values):
        fam = family(name)
        if values is not None:
            fam = fam.specialize(paper.DEGENERATE_WITNESSES[name])
        with pytest.raises(PolyError) as info:
            fam.pair_map
        assert type(info.value) is PolyError
        assert str(info.value) == f"{name} has no bilinear composition map"


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
                                      "sextic_uv", "octic8x8"])
    def test_pair_closure_is_the_transcribed_pair_map(self, name):
        fam = family(name)
        assert fam.structure.closure(2) == paper.law(name)

    @pytest.mark.parametrize("name", STRUCTURED)
    def test_derived_law_is_the_structure_closure(self, name):
        fam = family(name)
        law = fam.triple_map() if fam.kind == "triple" else fam.pair_map
        assert law == fam.structure.closure(law.k)

    def test_threefold_quadratic_law_is_its_closure_with_t_squared_as_a(self):
        # the structure is in (t, b, c), the family in (a, b, c): its
        # triple closure holds only even powers of t, and t^2 -> a gives psi
        fam = family("threefold_quadratic")
        closure = fam.structure.closure(3)
        assert closure.params == ("t", "b", "c")
        assert len(closure.coeff) == 10
        assert fam.triple_map() == paper.law("threefold_quadratic")

    def test_threefold_quadratic_form_is_minus_det_with_t_squared_as_a(self):
        fam = family("threefold_quadratic")
        assert fam.form == paper.threefold_quadratic_form()
        det = fam.structure.form(fam.coord_names)
        t, b, c, x1, x2 = det.table.vars()
        assert det == -(t**2 * x1**2 + b * x1 * x2 + c * x2**2)

    def test_odd_power_of_t_is_rejected(self):
        t, b = VarTable(("t", "b")).vars()
        with pytest.raises(ValueError, match="odd power of t"):
            catalog._t_squared_as_a(t**2 + t * b, VarTable(("a", "b")))

    @pytest.mark.parametrize("name", paper.PRINTED_FAMILIES)
    def test_printed_form_equals_determinant(self, name):
        det = family(name).form
        printed = paper.printed_form(name)
        if printed.table != det.table:
            printed = printed.embed(det.table)
        assert printed == det

    def test_uv_form_is_the_transcribed_factor_product(self):
        # det A, term for term and as printed
        form = family("sextic_uv").form
        f1, f2 = paper.uv_factors()
        assert form == f1 * f2 and str(form) == str(f1 * f2)

    def test_uv_factors_are_the_diagonal_block_determinants(self):
        # the transcription, string for string, is derived from the
        # structure: the forms its law composes simultaneously
        fam = family("sextic_uv")
        a = fam.structure.instantiate(fam.coord_names)
        dets = tuple(PolyMatrix([[a[i, j] for j in cut] for i in cut])
                     .determinant() for cut in (range(2), range(2, 6)))
        assert dets == paper.uv_factors()
        assert list(map(str, dets)) == list(map(str, paper.uv_factors()))

    def test_uv_structure_is_block_upper_triangular(self):
        # the zero lower-left 4x2 block is closed under products, so each
        # diagonal block multiplies by itself and each factor composes
        # under the one law
        st = family("sextic_uv").structure
        assert all(st.coeff[i][j][r].is_zero() for i in range(2, 6)
                   for j in range(2) for r in range(st.h))

    def test_quartic_printed_form_spot_values(self):
        fam = family("quartic4x4", (5, -23, 2, -7))
        assert fam.evaluate((1, 0, 0, 0)) == 1
        assert fam.evaluate((6, 2, 3, 1)) == 1
        assert fam.evaluate((0, 1, 0, 0)) == (-23) ** 2  # n^2 coefficient slot


class TestFormIsDerivedOnce:
    @pytest.mark.parametrize("name, values", [
        ("quartic4x4", None), ("quartic4x4", (5, -23, 2, -7)),
        ("threefold_quadratic", (1, 0, -2))])
    def test_second_read_takes_no_determinant(self, monkeypatch, name,
                                              values):
        # a fresh registry, so no earlier test has derived the form
        monkeypatch.setattr(catalog, "_SYMBOLIC", {})
        fam = family(name, values)
        dets = []
        determinant = PolyMatrix.determinant

        def counting(self):
            dets.append(self)
            return determinant(self)
        monkeypatch.setattr(PolyMatrix, "determinant", counting)
        first = fam.form
        assert fam.form is first
        assert len(dets) <= 1


class TestLawHasOneOwner:
    """The family keeps its laws; no structure keeps a closure."""

    def structures(self, st):
        """`st` and, for a lift, its factors, recursively."""
        yield st
        for f in st._factors or ():
            yield from self.structures(f)

    def test_no_structure_holds_a_law(self, monkeypatch):
        monkeypatch.setattr(catalog, "_SYMBOLIC", {})
        fam = family("threefold8x8", (3, -1, 0, -3, 0, -14, 1))
        fam.triple_map()
        # an attribute, or an entry of a dict attribute
        kept = [(st, value) for root in (fam._own_structure, fam.structure)
                for st in self.structures(root) for attr in vars(st).values()
                for value in (attr, *(attr.values() if isinstance(attr, dict)
                                      else ()))
                if isinstance(value, (MultilinearMap, NotClosed))]
        assert kept == []
        assert len(list(self.structures(fam._own_structure))) == 5

    @pytest.mark.parametrize("name, values, read", [
        ("threefold8x8", (3, -1, 0, -3, 0, -14, 1), lambda f: f.triple_map()),
        ("quartic4x4", (5, -23, 2, -7), lambda f: f.pair_map),
        ("quartic4x4", None, lambda f: f.triple_map())])
    def test_second_read_decides_nothing(self, monkeypatch, name, values,
                                         read):
        monkeypatch.setattr(catalog, "_SYMBOLIC", {})
        fam = family(name, values)
        first = read(fam)
        calls = []
        decide = LinearStructure._decide

        def counting(self, order):
            calls.append((self, order))
            return decide(self, order)
        monkeypatch.setattr(LinearStructure, "_decide", counting)
        assert read(fam) is first
        assert calls == []

    @pytest.mark.parametrize("k", [2, 3])
    def test_a_failed_closure_raises_rather_than_expands(self, monkeypatch,
                                                         k):
        """A family's law of arity k exists (k = 3, or a pair family), so
        a closure that fails is an internal fault: `verify` raises it
        instead of proving the map by expansion."""
        other = family("quad2x2")
        cmap = other.pair_map if k == 2 else other.triple_map()
        monkeypatch.setattr(catalog, "_SYMBOLIC", {})
        fam = family("quad2x2")
        witness = NotInSpan(entry=(0, 0), residual=None, reason="division")
        monkeypatch.setattr(LinearStructure, "closure",
                            lambda self, order: NotClosed(order, witness))
        with pytest.raises(PolyError, match="closure failed unexpectedly"):
            fam.verify(cmap)

    def test_a_triple_family_expands_a_bilinear_map(self, monkeypatch):
        """A triple family has no bilinear law, so a bilinear map is
        decided by expansion, and no closure is taken."""
        monkeypatch.setattr(catalog, "_SYMBOLIC", {})
        fam = family("threefold4x4")
        monkeypatch.setattr(LinearStructure, "closure", None)
        zero = MultilinearMap(2, fam.h, fam.param_names, {})
        assert not isinstance(fam.verify(zero), ZeroResidual)


class TestEvaluation:
    def test_evaluate_matches_form(self):
        fam = family("cubic3x3", (2, -1, 3, 0, 4))
        point = (2, -5, 7)
        env = dict(zip(fam.coord_names, point))
        assert fam.evaluate(point) == eval_int(fam.form, env)

    def test_evaluate_uses_integer_matrices_for_structures(self):
        fam = family("octic8x8", (0, -5, 0, -3, 0, -14))
        assert fam.evaluate((4, 2, 2, 1, 14, 7, 8, 4)) == 1

    def test_uv_factors(self):
        # each factor's value, and the form's as their product
        fam = family("sextic_uv", (3,))

        def factors_at(point):
            env = {"q": 3, **dict(zip(fam.coord_names, point))}
            return tuple(eval_int(f, env) for f in paper.uv_factors())

        assert factors_at((2, 1, 3, -1, 3, -4)) == (1, 1)
        f1, f2 = factors_at((2, 1, 0, 0, 0, 0))
        assert f1 == 1 and f2 != 1
        assert fam.evaluate((2, 1, 0, 0, 0, 0)) == f1 * f2

    @given(st.tuples(*[st.integers(-9, 9)] * 3),
           st.tuples(*[st.integers(-9, 9)] * 2))
    @settings(max_examples=25)
    def test_threefold_quadratic_is_the_printed_quadratic(self, values,
                                                          point):
        # no matrix at these values: `evaluate` reads the form, which is
        # the symbolic form specialized
        a, b, c = values
        fam = family("threefold_quadratic", values)
        assert fam.matrix(point) is None
        assert fam.form == family("threefold_quadratic").form.specialize(
            dict(zip(fam.param_names, values)))
        x1, x2 = point
        assert fam.evaluate(point) == a*x1**2 + b*x1*x2 + c*x2**2

    def test_circulant_splits(self):
        fam = family("sextic_circulant", (3,))
        point = (2, 1, 3, -1, 3, -4)
        a, b = (eval_int(f, {"q": 3, **dict(zip(fam.coord_names, point))})
                for f in paper.circulant_factors())
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
        return [[eval_int(a[i, j], env) for j in range(a.n)] for i in range(a.n)]

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

    def test_no_parameter_free_structure_gives_none(self):
        # threefold_quadratic's structure is in (t, b, c)
        fam = family("threefold_quadratic", (1, 2, 3))
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
        assert tuple(eval_int(f, env) for f in forms) == (32, -4, -8, 1)

    def test_printed_inverse_is_group_inverse(self):
        fam = family("quartic4x4", (5, -23, 2, -7))
        forms = paper.quartic_inverse_forms()
        for point in [(6, 2, 3, 1), (352, 121, 192, 66)]:
            env = {"m": 5, "n": -23, "p": 2, "q": -7}
            env.update(zip(("x1", "x2", "x3", "x4"), point))
            inv = tuple(eval_int(f, env) for f in forms)
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
    if fam.h != 3 or fam.structure.n != 3:
        raise NotTernaryCubic(f"{fam.name} is not a ternary cubic")
    if fam.is_symbolic() and fam.arity > 0:
        raise ValueError(f"{fam.name} needs numeric parameter values")
    form = fam.form
    c1, c2, c3 = (coefficient_of(form, tuple(3 * (j == i) for j in range(3)))
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
    determinant is the paper's f1*f2, and so is sextic_uv's, and each
    factor composes under the shared map on its own, in the x-coordinates
    and in the u-coordinates.  Each factor's identity is expanded by its
    own `verify_identity` call; the product is checked against the form."""

    @staticmethod
    def factorwise(params):
        for name, factors in (("sextic_circulant", paper.circulant_factors()),
                              ("sextic_uv", paper.uv_factors())):
            fam = family(name, params)
            env = {} if params is None else dict(zip(fam.param_names, params))
            f1, f2 = (f.specialize(env) for f in factors)
            assert f1 * f2 == fam.form, name
            for f in (f1, f2):
                res = verify_identity(f, fam.pair_map, fam.coord_names)
                assert isinstance(res, ZeroResidual), (name, str(f))

    def test_symbolic_check_passes(self):
        self.factorwise(None)

    def test_numeric_check_passes(self):
        self.factorwise((3,))

    def test_mutated_factor_fails(self):
        # same machinery, wrong data: f1 shifted by one is no longer a
        # factor of the determinant
        circ = family("sextic_circulant")
        f1, f2 = paper.circulant_factors()
        det = circ.form
        assert not (det - (f1 + 1) * f2).is_zero()


# the numeric --params of the golden argvs, by whether the form is
# irreducible there
REDUCIBLE_AT = [key for key, yes in paper.IRREDUCIBLE.items() if not yes]
IRREDUCIBLE_AT = [key for key, yes in paper.IRREDUCIBLE.items() if yes]


def test_irreducibility_record_covers_the_golden_values():
    """Every numeric --params of a golden argv has its irreducibility
    recorded, and cubic3x3 and sextic6x6 each have a golden value at
    which their form is irreducible."""
    assert set(paper.IRREDUCIBLE) == set(paper.golden_params())
    assert {name for name, _ in IRREDUCIBLE_AT} >= {"cubic3x3", "sextic6x6"}


@pytest.mark.parametrize("name,values", REDUCIBLE_AT,
                         ids=[name for name, _ in REDUCIBLE_AT])
def test_golden_values_give_reducible_forms(name, values):
    """Where a golden argv's --params give a reducible form, it equals the
    product of its transcribed factors, at least two of positive degree,
    taken with the tests' own product (`polytools.mul`), which shares no
    kernel with the determinant.  cubic3x3's and sextic6x6's forms, which
    are irreducible at other values, have a square among them."""
    factors = paper.golden_value_factors(name, values)
    assert sum(e for f, e in factors if f.total_degree() > 0) >= 2
    if name in ("cubic3x3", "sextic6x6"):
        assert any(e > 1 and f.total_degree() > 0 for f, e in factors)
    product = None
    for f, e in factors:
        for _ in range(e):
            product = f if product is None else mul(product, f)
    assert product == family(name, values).form


@pytest.mark.parametrize("name,values", IRREDUCIBLE_AT,
                         ids=[f"{name}-{','.join(map(str, values))}"
                              for name, values in IRREDUCIBLE_AT])
def test_irreducibility_at_the_golden_values(name, values):
    """The form's restriction to `irreducibility_line` has full degree and
    is irreducible over Q, so the form is: a factorization f = g * h would
    restrict to one.  The restriction is interpolated from the form's own
    values (`FormFamily.evaluate`) at T = 0..h, so sympy sees one
    univariate polynomial."""
    sympy = pytest.importorskip("sympy")
    fam = family(name, values)
    a, b = paper.irreducibility_line(fam.h)
    T = sympy.Symbol("T")
    restriction = sympy.Poly(sympy.interpolate(
        [(t, fam.evaluate([ai * t + bi for ai, bi in zip(a, b)]))
         for t in range(fam.h + 1)], T), T)
    assert restriction.degree() == fam.h
    assert restriction.is_irreducible


class TestThreefoldFamilies:
    def test_pairwise_extraction_fails_for_all(self):
        for name in ("threefold_quadratic", "threefold4x4", "threefold8x8"):
            fam = family(name)
            assert isinstance(fam.structure.verify_pair_closure(),
                              NotClosed)

    def test_degenerate_witnesses_recorded(self):
        assert set(paper.DEGENERATE_WITNESSES) == \
            {"threefold_quadratic", "threefold4x4", "threefold8x8"}
        for name, witness in paper.DEGENERATE_WITNESSES.items():
            assert len(witness) == family(name).arity


class TestCompanionFamily:
    def test_companion_family_composes(self):
        fam = companion_family((0, 0, -2))
        x = (1, 1, 0)
        y = (1, 0, 1)
        z = fam.pair_map.apply((x, y))
        assert fam.evaluate(z) == fam.evaluate(x) * fam.evaluate(y)
