"""Ring axioms, determinants, and serialization for the polynomial core."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matform.polyring import (
    Polynomial,
    PolyMatrix,
    UnassignedVariable,
    UnknownVariable,
    VarTable,
    VarTableMismatch,
    grlex_key,
    int_matrix_determinant,
    int_matrix_product,
)

T = VarTable(("a", "b", "c"))


@st.composite
def polys(draw, table=T, max_terms=6, max_exp=3, max_coeff=50):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = tuple(draw(st.integers(0, max_exp)) for _ in range(len(table)))
        coeff = draw(st.integers(-max_coeff, max_coeff))
        terms[mono] = terms.get(mono, 0) + coeff
    return Polynomial(table, terms)


class TestRingAxioms:
    @given(polys(), polys(), polys())
    def test_add_associative_commutative(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p

    @given(polys(), polys(), polys())
    def test_mul_associative_commutative(self, p, q, r):
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p

    @given(polys(), polys(), polys())
    def test_distributive(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polys())
    def test_units_and_negation(self, p):
        assert p + T.zero() == p
        assert p * T.one() == p
        assert p * T.zero() == T.zero()
        assert p + (-p) == T.zero()
        assert p - p == T.zero()

    @given(polys(), st.integers(0, 4))
    def test_pow_matches_repeated_mul(self, p, e):
        expected = T.one()
        for _ in range(e):
            expected = expected * p
        assert p ** e == expected

    @given(polys(), polys(), st.lists(st.integers(-9, 9), min_size=3, max_size=3))
    def test_evaluation_is_ring_homomorphism(self, p, q, v):
        assert (p + q).eval_vector(v) == p.eval_vector(v) + q.eval_vector(v)
        assert (p * q).eval_vector(v) == p.eval_vector(v) * q.eval_vector(v)

    @given(polys(), polys())
    def test_subtraction(self, p, q):
        assert p - q == p + (-q)
        assert 3 - p == T.const(3) + (-p)
        assert (p - p).is_zero()

    @given(polys(), st.lists(st.lists(st.integers(-9, 9), min_size=3,
                                      max_size=3), min_size=1, max_size=4))
    def test_eval_vector_is_the_term_sum(self, p, points):
        # repeated calls reuse the polynomial's cached term list
        for v in points:
            expected = sum(c * v[0] ** m[0] * v[1] ** m[1] * v[2] ** m[2]
                           for m, c in p.terms.items())
            assert p.eval_vector(v) == expected


class TestPolynomialBasics:
    def test_zero_normalization(self):
        p = Polynomial(T, {(1, 0, 0): 0, (0, 0, 0): 0})
        assert p.is_zero()
        assert p.term_count() == 0

    def test_degrees(self):
        a, b, c = T.vars()
        p = a ** 2 * b + c
        assert p.total_degree() == 3
        assert p.degree_in("a") == 2
        assert p.degree_in("c") == 1

    def test_as_int(self):
        assert T.const(-7).as_int() == -7
        with pytest.raises(ValueError):
            (T.var("a") + 1).as_int()

    def test_table_mismatch_rejected(self):
        other = VarTable(("x",))
        with pytest.raises(VarTableMismatch):
            T.var("a") + other.var("x")

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            T.var("zz")

    def test_substitute_and_specialize(self):
        a, b, c = T.vars()
        p = a * b + c ** 2
        q = p.substitute({"a": b, "b": b, "c": T.one()})
        assert q == b * b + T.one()
        s = p.specialize({"a": 2})
        assert tuple(s.table.names) == ("b", "c")
        bb, cc = s.table.vars()
        assert s == bb * 2 + cc ** 2

    def test_eval_requires_all_variables(self):
        with pytest.raises(UnassignedVariable):
            (T.var("a") + T.var("b")).eval_int({"a": 1})

    @pytest.mark.parametrize("call", [
        lambda: (T.var("a") * T.var("b")).specialize({"a": 0.5}),
        lambda: (T.var("a") + T.var("b")).eval_int({"a": 1, "b": 0.5}),
        lambda: T.const(2.5),
        lambda: T.const(0.0),
    ], ids=["specialize", "eval_int", "const", "const-zero"])
    def test_non_integer_input_is_rejected(self, call):
        """A float is never truncated to an integer: it raises TypeError."""
        with pytest.raises(TypeError):
            call()

    def test_family_form_specialize_rejects_a_float(self):
        from matform.catalog import family
        with pytest.raises(TypeError):
            family("quad2x2").form.specialize({"p": 0.5, "q": -2})


class TestSerialization:
    @given(polys())
    def test_json_round_trip(self, p):
        again = Polynomial.from_json_obj(
            json.loads(json.dumps(p.to_json_obj())))
        assert again == p

    def test_big_coefficients_survive(self):
        big = 10 ** 40 + 7
        p = Polynomial(T, {(1, 2, 3): big, (0, 0, 0): -big})
        obj = p.to_json_obj()
        assert obj["terms"][0]["c"] == str(big)
        assert Polynomial.from_json_obj(obj) == p

    def test_terms_in_graded_lex_descending(self):
        a, b, c = T.vars()
        p = a + b ** 3 + a * c + T.one() + c ** 2
        monos = [m for m, _ in p.sorted_terms()]
        assert monos == sorted(monos, key=grlex_key, reverse=True)
        # graded first: total degree never increases down the list
        degs = [sum(m) for m in monos]
        assert degs == sorted(degs, reverse=True)

    def test_str_form(self):
        a, b, c = T.vars()
        assert str(a ** 2 - 2 * b + 1) == "a^2 - 2*b + 1"
        assert str(T.zero()) == "0"


def _int_matrix(rows, table):
    return PolyMatrix([[table.const(v) for v in row] for row in rows])


class TestDeterminants:
    @given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                    min_size=3, max_size=3),
           st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                    min_size=3, max_size=3))
    @settings(max_examples=40)
    def test_det_multiplicative(self, m, n):
        M = _int_matrix(m, T)
        N = _int_matrix(n, T)
        assert (M @ N).determinant() == M.determinant() * N.determinant()

    @given(st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4),
                    min_size=4, max_size=4))
    @settings(max_examples=40)
    def test_bareiss_matches_polynomial_det(self, rows):
        M = _int_matrix(rows, T)
        assert int_matrix_determinant(rows) == M.determinant().as_int()

    @given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                    min_size=3, max_size=3),
           st.lists(st.lists(st.integers(-10 ** 30, 10 ** 30), min_size=3,
                             max_size=3), min_size=3, max_size=3))
    @settings(max_examples=40)
    def test_int_matrix_product(self, m, n):
        product = int_matrix_product(m, n)
        assert product == [[sum(m[i][k] * n[k][j] for k in range(3))
                            for j in range(3)] for i in range(3)]
        assert int_matrix_determinant(product) \
            == int_matrix_determinant(m) * int_matrix_determinant(n)

    def test_int_matrix_product_shapes(self):
        assert int_matrix_product([[1, 2]], [[3], [4]]) == [[11]]
        with pytest.raises(ValueError):
            int_matrix_product([[1, 2]], [[3, 4]])

    def test_symbolic_det_agrees_with_cofactor_expansion(self):
        names = tuple(f"m{i}{j}" for i in range(4) for j in range(4))
        table = VarTable(names)
        M = PolyMatrix([[table.var(f"m{i}{j}") for j in range(4)]
                        for i in range(4)])
        assert M.determinant() == M.determinant_cofactor()

    def test_known_2x2(self):
        table = VarTable(("x", "y"))
        x, y = table.vars()
        M = PolyMatrix([[x, -y], [y, x]])
        assert M.determinant() == x ** 2 + y ** 2

    def test_matmul_identity(self):
        I = _int_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]], T)
        a, b, c = T.vars()
        M = PolyMatrix([[a, b, c], [c, a, b], [b, c, a]])
        assert I @ M == M
        assert M @ I == M
