"""Structured-matrix families: extraction, closure, block lifting."""

import json

import pytest

from matform.compose import MultilinearMap
from matform.linstruct import (
    LinearStructure,
    NameCollision,
    NotClosed,
    NotInSpan,
    ParameterCollision,
    _multilinear_coeffs,
)
from matform.polyring import PolyError, PolyMatrix, VarTable

from companion import companion_structure
from polytools import eval_int, from_json_obj


def pell(c1: str, c2: str) -> LinearStructure:
    """[[a1, a2], [-c2*a2, a1 + c1*a2]]: pairwise closed for all parameters."""
    table = VarTable((c1, c2, "a1", "a2"))
    p, q, a1, a2 = table.vars()
    return LinearStructure.from_matrix(
        (c1, c2), ("a1", "a2"),
        [[a1, a2], [-q * a2, a1 + p * a2]])


def tracefree(ct: str, cb: str, cc: str) -> LinearStructure:
    """[[t*a1, a2], [b*a1 + c*a2, -t*a1]]: closed only for triples, its
    first row read back divided by t and 1."""
    table = VarTable((ct, cb, cc, "a1", "a2"))
    t, b, c, a1, a2 = table.vars()
    return LinearStructure.from_matrix(
        (ct, cb, cc), ("a1", "a2"),
        [[t * a1, a2], [b * a1 + c * a2, -t * a1]])


READER_TABLE = VarTable(("p", "w", "x1", "x2", "y1", "y2"))


def as_entry(q):
    """`q`, linear in x1, x2, read as a matrix entry in p (the reader of
    `LinearStructure.from_matrix`)."""
    return _multilinear_coeffs(q, VarTable(("p",)), (("x1", "x2"),))


def as_forms(q):
    """q*y1 and q*y2 as the outputs of a bilinear map in p."""
    y1, y2 = READER_TABLE.var("y1"), READER_TABLE.var("y2")
    return MultilinearMap.from_forms(
        [q * y1, q * y2], ("p",), (("x1", "x2"), ("y1", "y2")))


class TestRecords:
    """NotInSpan and NotClosed are immutable values."""

    def test_equal_by_value(self):
        w = NotInSpan(entry=(0, 1), residual=None, reason="division")
        assert w == NotInSpan(entry=(0, 1), residual=None, reason="division")
        assert w != NotInSpan(entry=(1, 0), residual=None, reason="division")
        assert NotClosed(order=2, witness=w) == NotClosed(order=2, witness=w)
        assert NotClosed(order=2, witness=w) != NotClosed(order=3, witness=w)

    def test_witness_of_a_closure_equals_its_rebuilt_value(self):
        got = tracefree("t", "b", "c").closure(2)
        assert got == NotClosed(order=2, witness=NotInSpan(
            entry=got.witness.entry, residual=got.witness.residual,
            reason=got.witness.reason))

    def test_fields_cannot_be_assigned(self):
        w = NotInSpan(entry=(0, 1), residual=None, reason="division")
        with pytest.raises(AttributeError):
            w.reason = "mismatch"
        with pytest.raises(AttributeError):
            NotClosed(order=2, witness=w).order = 3


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
                    assert M[i][j] == eval_int(S[i, j], env)
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
        # each coefficient's JSON text reads back; `matform block` prints
        # a structure as these texts (test_cli reads a whole one back)
        st = tracefree("t", "b", "c")
        assert [[[from_json_obj(json.loads(c.to_json())) for c in cell]
                 for cell in row] for row in st.coeff] == \
            [[list(cell) for cell in row] for row in st.coeff]


class TestPositions:
    """A structure is read back on its first row, each coordinate divided
    by its own coefficient there."""

    def test_divisors_are_the_coefficients_at_the_positions(self):
        st = tracefree("t", "b", "c")
        t = st.param_table.var("t")
        assert st.positions == ((0, 0), (0, 1))
        assert st.divisors == (t, st.param_table.one())
        pell_st = pell("p", "q")
        assert pell_st.divisors == (pell_st.param_table.one(),) * 2
        assert isinstance(pell_st.closure(2), MultilinearMap)

    def test_more_coordinates_than_columns_is_rejected(self):
        a1, a2, a3 = VarTable(("a1", "a2", "a3")).vars()
        with pytest.raises(ValueError, match="first row"):
            LinearStructure.from_matrix(
                (), ("a1", "a2", "a3"), [[a1, a2 + a3], [a2, a1]])

    def test_two_term_divisor_is_rejected(self):
        p, q, a1, a2 = VarTable(("p", "q", "a1", "a2")).vars()
        entries = [[(p + q) * a1, a2], [-q * a2, a1 + p * a2]]
        with pytest.raises(ValueError, match="one term"):
            LinearStructure.from_matrix(("p", "q"), ("a1", "a2"), entries)


def bad_structure(case: str):
    """The arguments (n, h, params, coeff) of a 2 x 2 structure in p with
    two coordinates, spoiled as `case` says."""
    one, p = VarTable(("p",)).one(), VarTable(("p",)).var("p")
    cells = [[(one, p), (p, one)], [(p, p), (one, one)]]
    if case == "rows":
        cells = cells[:1]
    elif case == "columns":
        cells = [cells[0][:1], cells[1]]
    elif case == "cell":
        cells[1][0] = (p,)
    elif case == "table":
        cells[1][1] = (one, VarTable(("q",)).var("q"))
    return 2, 2, ("p",), cells


class TestPublicConstructorsCheckTheirInput:
    """The constructors that take outside input check every entry; the
    tables closure and lifting build skip the checks, and still pass
    them."""

    @pytest.mark.parametrize("case, message", [
        ("rows", "must be n x n"), ("columns", "must be n x n"),
        ("cell", "one coefficient per coordinate"),
        ("table", "over the parameter table")])
    def test_structure_rejections(self, case, message):
        # with the "first row" and "one term" cases of TestPositions
        LinearStructure(*bad_structure("none"))  # unspoiled, accepted
        with pytest.raises(ValueError, match=message):
            LinearStructure(*bad_structure(case))

    @pytest.mark.parametrize("k, key, table, message", [
        (1, (0, (0,)), ("p",), "arity"), (4, (0, (0,) * 4), ("p",), "arity"),
        (2, (0, (0, 0)), ("q",), "over the parameter table"),
        (2, (2, (0, 0)), ("p",), "out of range"),
        (2, (-1, (0, 0)), ("p",), "out of range"),
        (2, (0, (0,)), ("p",), "out of range"),
        (2, (0, (0, 2)), ("p",), "out of range")])
    def test_law_rejections(self, k, key, table, message):
        c = VarTable(table).var(table[0])
        with pytest.raises(ValueError, match=message):
            MultilinearMap(k, 2, ("p",), {key: c})

    def test_law_drops_zero_entries(self):
        table = VarTable(("p",))
        law = MultilinearMap(2, 2, ("p",), {(0, (0, 0)): table.var("p"),
                                            (1, (1, 1)): table.zero()})
        assert list(law.coeff) == [(0, (0, 0))]

    @pytest.mark.parametrize("sets, names, error", [
        ((("x1", "x2"),), None, "DimensionMismatch"),
        ((("x1",), ("y1", "y2")), None, "DimensionMismatch"),
        ((("x1", "x2"), ("y1", "y2")), ("p", "q", "x1", "x2", "y1"),
         "UnknownVariable"),
        ((("x1", "x2"), ("y1", "y2")), ("x1", "x2", "y1", "y2", "p", "q"),
         "ValueError"),
        ((("x1", "x2"), ("q", "y2")), ("p", "q", "x1", "x2", "y2"),
         "ValueError")])
    def test_forms_rejections(self, sets, names, error):
        """Wrong coordinate sets, a table without a coordinate name, one
        that does not list the parameters first, and a coordinate named as
        a parameter."""
        law = pell("p", "q").closure(2)
        table = None if names is None else VarTable(names)
        with pytest.raises((PolyError, ValueError)) as exc:
            law.forms(sets, table=table)
        assert type(exc.value).__name__ == error

    @pytest.mark.parametrize("name", ["quartic4x4", "threefold8x8"])
    def test_built_tables_pass_the_checks_they_skip(self, name):
        from matform.catalog import family
        st = family(name).structure
        checked = LinearStructure(st.n, st.h, st.params, st.coeff)
        assert (checked.coeff, checked.divisors) == (st.coeff, st.divisors)
        for values in (None, (1,) * len(st.params)):
            law = st.closure(3) if values is None else st.law_at(3, values)
            assert MultilinearMap(law.k, law.h, law.params, law.coeff) == law


class TestExtraction:
    def test_round_trip_through_default_recipe(self):
        st = pell("p", "q")
        M = st.instantiate(("u1", "u2"))
        out = st.extract_coordinates(M)
        assert not isinstance(out, NotInSpan)
        u1, u2 = M.table.var("u1"), M.table.var("u2")
        assert list(out) == [u1, u2]

    def test_divisor_recipe(self):
        st = tracefree("t", "b", "c")
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
        st = tracefree("t", "b", "c").specialize(
            tuple(values.values()))
        assert st.divisors == (st.param_table.const(3), st.param_table.one())
        M = st.instantiate(("u1", "u2"))
        out = st.extract_coordinates(M)
        assert list(out) == [M.table.var("u1"), M.table.var("u2")]

    def test_vanishing_divisor_is_not_divided_by(self):
        values = {"t": 0, "b": 1, "c": 1}
        st = tracefree("t", "b", "c").specialize(
            tuple(values.values()))
        out = st.extract_coordinates(st.instantiate(("u1", "u2")))
        assert isinstance(out, NotInSpan)
        assert out.reason == "division"

    def test_not_in_span_division(self):
        st = tracefree("t", "b", "c")
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
        assert isinstance(cert, MultilinearMap)
        assert cert.k == 2
        outputs = cert.forms(cert.coord_sets)
        t = outputs[0].table
        x1, x2, y1, y2 = (t.var(n) for n in ("x1", "x2", "y1", "y2"))
        q = t.var("q")
        p = t.var("p")
        assert outputs[0] == x1 * y1 - q * x2 * y2
        assert outputs[1] == x1 * y2 + x2 * y1 + p * x2 * y2

    def test_tracefree_pairwise_fails_triple_closes(self):
        st = tracefree("t", "b", "c")
        pair = st.verify_pair_closure()
        assert isinstance(pair, NotClosed)
        assert pair.order == 2
        triple = st.verify_triple_closure()
        assert isinstance(triple, MultilinearMap)
        assert triple.k == 3
        assert isinstance(st.verify_pair_closure(), NotClosed)

    def test_closure_names_its_order(self):
        st = pell("p", "q")
        assert st.closure(2) is st.verify_pair_closure()
        assert st.closure(3) is st.verify_triple_closure()
        with pytest.raises(ValueError):
            st.closure(4)

    def test_pairwise_closed_implies_triple_closed(self):
        st = pell("p", "q")
        triple = st.verify_triple_closure()
        assert isinstance(triple, MultilinearMap)
        assert isinstance(st.verify_pair_closure(), MultilinearMap)

    def test_closure_outputs_reproduce_product(self):
        st = pell("p", "q")
        cert = st.verify_pair_closure()
        outputs = cert.forms(cert.coord_sets)
        table = outputs[0].table
        ax = st.instantiate(cert.coord_sets[0], table)
        ay = st.instantiate(cert.coord_sets[1], table)
        prod = ax @ ay
        # reassemble A(z) from the certificate outputs
        for i in range(st.n):
            for j in range(st.n):
                acc = table.zero()
                for r in range(st.h):
                    acc = acc + st.coeff[i][j][r].embed(table) * outputs[r]
                assert acc == prod[i, j]


    def test_numeric_triple_closure_is_symbolic_closure_specialized(self):
        from matform.catalog import family
        values = (-1, -4, 1, -1, 1, 1)
        numeric = family("threefold4x4", values)
        cert = numeric.structure.verify_triple_closure()
        assert isinstance(cert, MultilinearMap)
        symbolic = family("threefold4x4")
        ref = symbolic.structure.verify_triple_closure()
        env = dict(zip(symbolic.param_names, values))
        assert cert.forms(cert.coord_sets) == \
            [w.specialize(env) for w in ref.forms(ref.coord_sets)]


class TestBlockLifting:
    def test_parameter_collision_rejected(self):
        with pytest.raises(ParameterCollision):
            pell("p", "q").block_compose(pell("p", "n"))

    @pytest.mark.parametrize("params", [("p", "q", "m"),
                                        ("p", "q", "m", "m"),
                                        ("p", "q", "m", "x")])
    def test_parameter_order_must_permute_both(self, params):
        with pytest.raises(ValueError, match="permutation of p,q,m,n"):
            pell("p", "q").block_compose(pell("m", "n"), params)

    def test_inner_with_fewer_coordinates_than_columns_is_rejected(self):
        # the lift's first row would hold an inner zero where a coordinate
        # is read, and closure would report a closed lift as not closed
        b1, zero = VarTable(("b1",)).var("b1"), VarTable(("b1",)).zero()
        scalar = LinearStructure.from_matrix((), ("b1",),
                                             [[b1, zero], [zero, b1]])
        with pytest.raises(ValueError, match="inner structure with h = n"):
            pell("p", "q").block_compose(scalar)

    def test_dimensions_and_params(self):
        lifted = pell("p", "q").block_compose(pell("m", "n"))
        assert lifted.n == 4 and lifted.h == 4
        assert lifted.params == ("p", "q", "m", "n")
        assert len(lifted.positions) == 4

    def test_pair_times_pair_is_pair_closed(self):
        lifted = pell("p", "q").block_compose(pell("m", "n"))
        cert = lifted.verify_pair_closure()
        assert isinstance(cert, MultilinearMap)

    def test_any_triple_only_factor_forces_triple_only(self):
        # triple-only inner under a pairwise-closed outer
        lifted = pell("p", "q").block_compose(
            tracefree("t", "b", "c"))
        assert isinstance(lifted.verify_pair_closure(), NotClosed)
        assert isinstance(lifted.verify_triple_closure(),
                          MultilinearMap)
        # triple-only outer over a pairwise-closed inner
        outer = tracefree("t", "b", "c")
        lifted2 = outer.block_compose(pell("p", "q"))
        assert isinstance(lifted2.verify_pair_closure(), NotClosed)
        assert isinstance(lifted2.verify_triple_closure(),
                          MultilinearMap)
        # triple-only on both levels
        lifted3 = outer.block_compose(
            tracefree("s", "e", "f"))
        assert isinstance(lifted3.verify_pair_closure(), NotClosed)
        assert isinstance(lifted3.verify_triple_closure(),
                          MultilinearMap)

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
        assert isinstance(lifted.verify_triple_closure(), MultilinearMap)
        t, i_t = lifted.param_table.var("t"), lifted.param_table.var("i_t")
        assert lifted.positions == ((0, 0), (0, 1), (0, 2), (0, 3))
        assert lifted.divisors == (t * i_t, t, i_t, lifted.param_table.one())

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
        assert st.matrix_of((2, -3, 5))[0] == [2, -3, 5]
        cert = st.verify_pair_closure()
        assert isinstance(cert, MultilinearMap)

    def test_companion_closure_gives_norm_multiplicativity(self):
        st = companion_structure((0, 0, -2))
        x = st.matrix_of((1, 1, 0))
        y = st.matrix_of((1, 0, 1))
        from matform.polyring import int_matrix_determinant
        prod = [[sum(x[i][k] * y[k][j] for k in range(3)) for j in range(3)]
                for i in range(3)]
        assert (int_matrix_determinant(prod)
                == int_matrix_determinant(x) * int_matrix_determinant(y))
