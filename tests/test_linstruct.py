"""Structured-matrix families: extraction, closure, block lifting."""

import json

import pytest

from matform.compose import MultilinearMap
from matform.linstruct import (
    ClosureCertificate,
    ExtractionRecipe,
    LinearStructure,
    NameCollision,
    NotClosed,
    NotInSpan,
    ParameterCollision,
    companion_structure,
)
from matform.polyring import PolyMatrix, Polynomial, VarTable


def pell(c1: str, c2: str) -> LinearStructure:
    """[[a1, a2], [-c2*a2, a1 + c1*a2]]: pairwise closed for all parameters."""
    table = VarTable((c1, c2, "a1", "a2"))
    p, q, a1, a2 = table.vars()
    return LinearStructure.from_matrix(
        (c1, c2), ("a1", "a2"),
        [[a1, a2], [-q * a2, a1 + p * a2]])


def tracefree(ct: str, cb: str, cc: str, recipe=None) -> LinearStructure:
    """[[t*a1, a2], [b*a1 + c*a2, -t*a1]]: closed only for triples."""
    table = VarTable((ct, cb, cc, "a1", "a2"))
    t, b, c, a1, a2 = table.vars()
    return LinearStructure.from_matrix(
        (ct, cb, cc), ("a1", "a2"),
        [[t * a1, a2], [b * a1 + c * a2, -t * a1]], recipe)


def tracefree_recipe(ct: str) -> ExtractionRecipe:
    return ExtractionRecipe(((0, 0), (0, 1)), ((1, ((ct, 1),)), (1, ())))


READER_TABLE = VarTable(("p", "w", "x1", "x2", "y1", "y2"))


def as_entry(q):
    """`q`, linear in x1, x2, as the one entry of a 1x1 structure in p."""
    return LinearStructure.from_matrix(("p",), ("x1", "x2"), [[q]])


def as_forms(q):
    """q*y1 and q*y2 as the outputs of a bilinear map in p."""
    y1, y2 = READER_TABLE.var("y1"), READER_TABLE.var("y2")
    return MultilinearMap.from_forms(
        [q * y1, q * y2], ("p",), (("x1", "x2"), ("y1", "y2")))


class TestConstruction:
    def test_from_matrix_instantiate_round_trip(self):
        st = pell("p", "q")
        M = st.instantiate(("x1", "x2"))
        table = M.table
        p, q, x1, x2 = (table.var(n) for n in ("p", "q", "x1", "x2"))
        assert M[0, 0] == x1
        assert M[0, 1] == x2
        assert M[1, 0] == -q * x2
        assert M[1, 1] == x1 + p * x2
        assert M.determinant() == x1 ** 2 + p * x1 * x2 + q * x2 ** 2

    def test_from_matrix_rejects_nonlinear_entries(self):
        table = VarTable(("p", "x1", "x2"))
        p, x1, x2 = table.vars()
        with pytest.raises(ValueError):
            LinearStructure.from_matrix(
                ("p",), ("x1", "x2"), [[x1 * x1, x2], [x2, x1]])
        with pytest.raises(ValueError):
            LinearStructure.from_matrix(
                ("p",), ("x1", "x2"), [[x1 + table.one(), x2], [x2, x1]])

    @pytest.mark.parametrize("read", [as_entry, as_forms],
                             ids=["from_matrix", "from_forms"])
    @pytest.mark.parametrize("term, message", [
        (lambda v: v["x1"] * v["x1"], "not multilinear"),
        (lambda v: v["w"] * v["x1"], "outside params/coords"),
    ], ids=["not_multilinear", "foreign_variable"])
    def test_multilinear_reader_rejections(self, read, term, message):
        v = dict(zip(READER_TABLE.names, READER_TABLE.vars()))
        read(v["p"] * v["x1"] + v["x2"])  # the same shape, accepted
        with pytest.raises(ValueError, match=message):
            read(term(v))

    def test_instantiate_name_collisions(self):
        st = pell("p", "q")
        with pytest.raises(NameCollision):
            st.instantiate(("p", "x2"))
        with pytest.raises(NameCollision):
            st.instantiate(("x1", "x1"))

    def test_matrix_of_matches_symbolic_instantiation(self):
        st = pell("p", "q")
        S = st.instantiate(("x1", "x2"))
        for params in [(5, 7), (1, -2)]:
            M = st.specialize(params).matrix_of((3, -2))
            env = {"p": params[0], "q": params[1], "x1": 3, "x2": -2}
            for i in range(2):
                for j in range(2):
                    assert M[i][j] == S[i, j].eval_int(env)
        with pytest.raises(ValueError, match="specialize it first"):
            st.matrix_of((3, -2))

    def test_specialize_removes_parameters(self):
        st = pell("p", "q").specialize((0, -1))
        assert st.params == ()
        x = st.form(("x1", "x2"))
        t = x.table
        x1, x2 = t.var("x1"), t.var("x2")
        assert x == x1 ** 2 - x2 ** 2

    def test_json_round_trip(self):
        st = tracefree("t", "b", "c")
        obj = json.loads(json.dumps(st.to_json_obj()))
        assert (obj["n"], obj["h"]) == (st.n, st.h)
        assert tuple(obj["params"]) == st.params
        assert [[[Polynomial.from_json_obj(c) for c in cell] for cell in row]
                for row in obj["coeff"]] == \
            [[list(cell) for cell in row] for row in st.coeff]


class TestExtraction:
    def test_round_trip_through_default_recipe(self):
        st = pell("p", "q")
        M = st.instantiate(("u1", "u2"))
        out = st.extract_coordinates(M)
        assert not isinstance(out, NotInSpan)
        u1, u2 = M.table.var("u1"), M.table.var("u2")
        assert list(out) == [u1, u2]

    def test_divisor_recipe(self):
        st = tracefree("t", "b", "c", tracefree_recipe("t"))
        M = st.instantiate(("u1", "u2"))
        out = st.extract_coordinates(M)
        assert list(out) == [M.table.var("u1"), M.table.var("u2")]

    def test_not_in_span_mismatch(self):
        st = pell("p", "q")
        table = VarTable(("p", "q", "u1", "u2"))
        u1, u2 = table.var("u1"), table.var("u2")
        # symmetric matrix: not of the pell shape
        M = PolyMatrix([[u1, u2], [u2, u1]])
        out = st.extract_coordinates(M)
        assert isinstance(out, NotInSpan)
        assert out.reason == "mismatch"
        assert out.residual is not None and not out.residual.is_zero()

    def test_specialized_divisor_recipe(self):
        values = {"t": 3, "b": -2, "c": 5}
        st = tracefree("t", "b", "c", tracefree_recipe("t")).specialize(
            tuple(values.values()))
        assert st.recipe.divisors == ((3, ()), (1, ()))
        M = st.instantiate(("u1", "u2"))
        out = st.extract_coordinates(M)
        assert list(out) == [M.table.var("u1"), M.table.var("u2")]

    def test_vanishing_divisor_is_not_divided_by(self):
        values = {"t": 0, "b": 1, "c": 1}
        st = tracefree("t", "b", "c", tracefree_recipe("t")).specialize(
            tuple(values.values()))
        out = st.extract_coordinates(st.instantiate(("u1", "u2")))
        assert isinstance(out, NotInSpan)
        assert out.reason == "division"

    def test_not_in_span_division(self):
        st = tracefree("t", "b", "c", tracefree_recipe("t"))
        table = VarTable(("t", "b", "c", "u1", "u2"))
        u1, u2 = table.var("u1"), table.var("u2")
        # (0,0) entry not divisible by t
        M = PolyMatrix([[u1, u2], [u2, -u1]])
        out = st.extract_coordinates(M)
        assert isinstance(out, NotInSpan)
        assert out.reason == "division"


class TestClosure:
    def test_pell_pairwise_closed(self):
        cert = pell("p", "q").verify_pair_closure()
        assert isinstance(cert, ClosureCertificate)
        assert cert.order == 2
        t = cert.outputs[0].table
        x1, x2, y1, y2 = (t.var(n) for n in ("x1", "x2", "y1", "y2"))
        q = t.var("q")
        p = t.var("p")
        assert cert.outputs[0] == x1 * y1 - q * x2 * y2
        assert cert.outputs[1] == x1 * y2 + x2 * y1 + p * x2 * y2

    def test_tracefree_pairwise_fails_triple_closes(self):
        st = tracefree("t", "b", "c", tracefree_recipe("t"))
        pair = st.verify_pair_closure()
        assert isinstance(pair, NotClosed)
        assert pair.order == 2
        triple = st.verify_triple_closure()
        assert isinstance(triple, ClosureCertificate)
        assert triple.order == 3
        assert isinstance(st.verify_pair_closure(), NotClosed)

    def test_pairwise_closed_implies_triple_closed(self):
        st = pell("p", "q")
        triple = st.verify_triple_closure()
        assert isinstance(triple, ClosureCertificate)
        assert isinstance(st.verify_pair_closure(), ClosureCertificate)

    def test_closure_outputs_reproduce_product(self):
        st = pell("p", "q")
        cert = st.verify_pair_closure()
        table = cert.outputs[0].table
        ax = st.instantiate(cert.coord_sets[0], table)
        ay = st.instantiate(cert.coord_sets[1], table)
        prod = ax @ ay
        # reassemble A(z) from the certificate outputs
        for i in range(st.n):
            for j in range(st.n):
                acc = table.zero()
                for r in range(st.h):
                    acc = acc + st.coeff[i][j][r].embed(table) * cert.outputs[r]
                assert acc == prod[i, j]


    def test_numeric_triple_closure_is_symbolic_closure_specialized(self):
        from matform.catalog import family
        values = (-1, -4, 1, -1, 1, 1)
        numeric = family("threefold4x4", values)
        cert = numeric.structure.verify_triple_closure()
        assert isinstance(cert, ClosureCertificate)
        symbolic = family("threefold4x4")
        ref = symbolic.structure.verify_triple_closure()
        env = dict(zip(symbolic.param_names, values))
        assert list(cert.outputs) == [w.specialize(env) for w in ref.outputs]


class TestBlockLifting:
    def test_parameter_collision_rejected(self):
        with pytest.raises(ParameterCollision):
            pell("p", "q").block_compose(pell("p", "n"))

    def test_dimensions_and_params(self):
        lifted = pell("p", "q").block_compose(pell("m", "n"))
        assert lifted.n == 4 and lifted.h == 4
        assert lifted.params == ("p", "q", "m", "n")
        assert len(lifted.recipe.positions) == 4

    def test_pair_times_pair_is_pair_closed(self):
        lifted = pell("p", "q").block_compose(pell("m", "n"))
        cert = lifted.verify_pair_closure()
        assert isinstance(cert, ClosureCertificate)

    def test_any_triple_only_factor_forces_triple_only(self):
        # triple-only inner under a pairwise-closed outer
        lifted = pell("p", "q").block_compose(
            tracefree("t", "b", "c", tracefree_recipe("t")))
        assert isinstance(lifted.verify_pair_closure(), NotClosed)
        assert isinstance(lifted.verify_triple_closure(),
                          ClosureCertificate)
        # triple-only outer over a pairwise-closed inner
        outer = tracefree("t", "b", "c", tracefree_recipe("t"))
        lifted2 = outer.block_compose(pell("p", "q"))
        assert isinstance(lifted2.verify_pair_closure(), NotClosed)
        assert isinstance(lifted2.verify_triple_closure(),
                          ClosureCertificate)
        # triple-only on both levels
        lifted3 = outer.block_compose(
            tracefree("s", "e", "f", tracefree_recipe("s")))
        assert isinstance(lifted3.verify_pair_closure(), NotClosed)
        assert isinstance(lifted3.verify_triple_closure(),
                          ClosureCertificate)

    def test_lifted_determinant_multiplicative(self):
        lifted = pell("p", "q").block_compose(pell("m", "n"))
        lifted = lifted.specialize((1, 1, 1, 1))
        x = lifted.matrix_of((1, 2, 3, 4))
        y = lifted.matrix_of((5, 6, 7, 8))
        from matform.polyring import int_matrix_determinant
        prod = [[sum(x[i][k] * y[k][j] for k in range(4)) for j in range(4)]
                for i in range(4)]
        assert (int_matrix_determinant(prod)
                == int_matrix_determinant(x) * int_matrix_determinant(y))

    def test_lifted_recipe_is_derived_from_both_factors(self):
        # what `matform block` builds from threefold_quadratic twice
        from matform.catalog import family
        st = family("threefold_quadratic").structure
        lifted = st.block_compose(
            st.rename_params({p: f"i_{p}" for p in st.params}))
        assert isinstance(lifted.verify_pair_closure(), NotClosed)
        assert isinstance(lifted.verify_triple_closure(), ClosureCertificate)
        assert {name for _, monomial in lifted.recipe.divisors
                for name, _ in monomial} == {"t", "i_t"}

    def test_slice_major_coordinate_order(self):
        lifted = pell("p", "q").block_compose(pell("m", "n"))
        M = lifted.instantiate(("x1", "x2", "x3", "x4"))
        t = M.table
        # top-left block is the inner matrix on the first coordinate slice
        assert M[0, 0] == t.var("x1")
        assert M[0, 1] == t.var("x2")
        # top-right block is the inner matrix on the second slice
        assert M[0, 2] == t.var("x3")
        assert M[0, 3] == t.var("x4")


class TestCompanion:
    def test_quadratic_companion_matches_pell_form_up_to_sign(self):
        st = companion_structure((3, 5))  # x^2 + 3x + 5
        det = st.form(("x1", "x2"))
        t = det.table
        x1, x2 = t.var("x1"), t.var("x2")
        # norm of x1 + x2*alpha with alpha^2 = -3 alpha - 5
        assert det == x1 ** 2 - 3 * x1 * x2 + 5 * x2 ** 2

    def test_cubic_companion_norm_form(self):
        st = companion_structure((0, 0, -2))  # x^3 - 2
        det = st.form(("x1", "x2", "x3"))
        t = det.table
        x1, x2, x3 = t.var("x1"), t.var("x2"), t.var("x3")
        assert det == (x1 ** 3 + 2 * x2 ** 3 + 4 * x3 ** 3
                       - 6 * x1 * x2 * x3)

    def test_companion_always_pairwise_closed(self):
        st = companion_structure((1, -4, 2))
        assert st.recipe == ExtractionRecipe.first_column(3)
        cert = st.verify_pair_closure()
        assert isinstance(cert, ClosureCertificate)

    def test_companion_reads_its_own_first_column(self):
        cert = companion_structure((0, 0, -2)).verify_pair_closure()
        assert isinstance(cert, ClosureCertificate)

    def test_companion_closure_gives_norm_multiplicativity(self):
        st = companion_structure((0, 0, -2))
        x = st.matrix_of((1, 1, 0))
        y = st.matrix_of((1, 0, 1))
        from matform.polyring import int_matrix_determinant
        prod = [[sum(x[i][k] * y[k][j] for k in range(3)) for j in range(3)]
                for i in range(3)]
        assert (int_matrix_determinant(prod)
                == int_matrix_determinant(x) * int_matrix_determinant(y))
