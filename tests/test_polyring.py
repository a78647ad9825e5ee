"""Ring axioms, determinants, and serialization for the polynomial core."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matform.linstruct import LinearStructure
from matform.polyring import (
    Packing,
    Polynomial,
    PolyMatrix,
    UnassignedVariable,
    UnknownVariable,
    VarTable,
    VarTableMismatch,
    int_matrix_determinant,
    no_int_str_limit,
)

from polytools import (as_int, degree_in, determinant_cofactor, eval_int,
                       from_json_obj, grlex_key, json_obj, matmul, mul,
                       specialized)

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

    @given(polys(max_exp=9), st.integers(0, 6))
    def test_pow_matches_repeated_mul(self, p, e):
        expected = T.one()
        for _ in range(e):
            expected = mul(expected, p)
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
        assert degree_in(p, "a") == 2
        assert degree_in(p, "c") == 1

    def test_as_int(self):
        assert as_int(T.const(-7)) == -7
        with pytest.raises(ValueError):
            as_int(T.var("a") + 1)

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
            eval_int(T.var("a") + T.var("b"), {"a": 1})

    @pytest.mark.parametrize("call", [
        lambda: (T.var("a") * T.var("b")).specialize({"a": 0.5}),
        lambda: eval_int(T.var("a") + T.var("b"), {"a": 1, "b": 0.5}),
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


class TestExponentValidation:
    """Every exponent tuple has one non-negative int per table variable;
    anything else raises instead of being truncated or kept."""

    XY = VarTable(("x", "y"))

    @pytest.mark.parametrize("monomial, error", [
        ((1,), ValueError),
        ((1, 0, 0), ValueError),
        ((-1, 2), ValueError),
        ((1.5, 0), TypeError),
        ((1.0, 0), TypeError),
    ], ids=["short", "long", "negative", "fraction", "integral-float"])
    def test_constructor_rejects(self, monomial, error):
        with pytest.raises(error):
            Polynomial(self.XY, {monomial: 1})

    def test_short_tuple_is_not_truncated_in_a_product(self):
        # zip would drop the missing exponent and return x for x * y
        with pytest.raises(ValueError):
            Polynomial(self.XY, {(1,): 1}) * self.XY.var("y")

    def test_valid_exponents_are_kept(self):
        p = Polynomial(self.XY, {(2, 0): 3, (0, 1): -1, (1, 1): 0})
        assert p.terms == {(2, 0): 3, (0, 1): -1}

    @pytest.mark.parametrize("vars_, terms, error", [
        (["x", "y"], [{"c": "1", "e": [-1, 2]}], ValueError),
        (["x"], [{"c": "1", "e": [1.5]}], TypeError),
        (["x"], [{"c": "1", "e": [1, 2]}], ValueError),
        (["x"], [{"c": "1", "e": []}], ValueError),
        (["x"], [{"c": "1", "e": [1]}, {"c": "2", "e": [1]}], ValueError),
        (["x"], [{"c": 1.5, "e": [1]}], ValueError),
        (["x"], [{"c": 2.0, "e": [1]}], ValueError),
    ], ids=["negative", "fraction", "long", "short", "duplicate",
            "float-coefficient", "integral-float-coefficient"])
    def test_from_json_obj_rejects(self, vars_, terms, error):
        with pytest.raises(error):
            from_json_obj({"vars": vars_, "terms": terms})


class TestSerialization:
    @given(polys())
    def test_json_round_trip(self, p):
        assert from_json_obj(json.loads(p.to_json())) == p

    @given(st.one_of(polys(), polys(VarTable(("x",))), polys(VarTable(()))))
    def test_text_is_json_dumps_of_the_dict_form(self, p):
        assert p.to_json() == json.dumps(json_obj(p))

    @pytest.mark.parametrize("p", [
        T.zero(), VarTable(()).zero(), VarTable(()).const(-3),
        VarTable(("x",)).var("x") ** 5 - 2, VarTable(("x",)).zero()],
        ids=["zero", "no-vars-zero", "no-vars-const", "one-var",
             "one-var-zero"])
    def test_text_at_the_edges(self, p):
        # a one-variable monomial is (e,), whose str is no JSON list; the
        # zero polynomial and an empty table are both []
        assert p.to_json() == json.dumps(json_obj(p))
        assert from_json_obj(json.loads(p.to_json())) == p

    def test_text_past_the_digit_limit(self):
        big = -(10 ** 4400) - 1
        p = Polynomial(T, {(1, 0, 2): big, (0, 0, 0): 7})
        with no_int_str_limit():
            text = p.to_json()
            assert text == json.dumps(json_obj(p))
            assert json.loads(text)["terms"][0]["c"] == str(big)
            assert from_json_obj(json.loads(text)) == p

    def test_int_coefficients_are_read(self):
        p = from_json_obj({"vars": ["x"], "terms": [
            {"c": -7, "e": [2]}, {"c": " 12", "e": [0]}]})
        assert p.terms == {(2,): -7, (0,): 12}

    def test_big_coefficients_survive(self):
        big = 10 ** 40 + 7
        p = Polynomial(T, {(1, 2, 3): big, (0, 0, 0): -big})
        obj = json.loads(p.to_json())
        assert obj["terms"][0]["c"] == str(big)
        assert from_json_obj(obj) == p

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
        assert int_matrix_determinant(rows) == as_int(M.determinant())

    @pytest.mark.parametrize("call", [
        lambda: int_matrix_determinant([[0.5, 1], [1, 2.9]]),
        lambda: int_matrix_determinant([[2.0]]),
    ], ids=["det", "det-integral-float"])
    def test_int_matrix_rejects_a_float(self, call):
        """A float entry is never truncated or carried into the result:
        it raises TypeError."""
        with pytest.raises(TypeError):
            call()

    def test_symbolic_det_agrees_with_cofactor_expansion(self):
        names = tuple(f"m{i}{j}" for i in range(4) for j in range(4))
        table = VarTable(names)
        M = PolyMatrix([[table.var(f"m{i}{j}") for j in range(4)]
                        for i in range(4)])
        assert M.determinant() == determinant_cofactor(M)

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

    def test_matmul_rejects_mixed_tables(self):
        """A product over two tables raises, as `*` of two polynomials
        does: exponents over ("b", "c") are never read against ("a",)."""
        a = PolyMatrix([[VarTable(("a",)).var("a")]])
        bc = PolyMatrix([[VarTable(("b", "c")).var("b")]])
        with pytest.raises(VarTableMismatch):
            a @ bc
        with pytest.raises(VarTableMismatch):
            bc @ a


# -- the packed kernels against independent oracles --------------------------
#
# Every product in src/ is taken on packed monomials.  The DP determinant
# is checked against cofactor expansion, substitution against evaluation,
# and `*`, `**`, `@`, `instantiate` and `specialize` against the tests' own
# kernel over exponent tuples (`polytools`), which shares nothing with them.


def _matrices(n, max_exp=4):
    row = st.lists(polys(max_terms=3, max_exp=max_exp, max_coeff=9),
                   min_size=n, max_size=n)
    return st.lists(row, min_size=n, max_size=n).map(PolyMatrix)


# field widths come from these bounds: exponents exactly at 2^k - 1 and 2^k
BOUNDARIES = [(1 << k) - d for k in range(1, 7) for d in (1, 0)]


class TestPackedKernels:
    @given(_matrices(3))
    @settings(max_examples=60)
    def test_det_3x3_matches_cofactor(self, M):
        assert M.determinant() == determinant_cofactor(M)

    @given(_matrices(4, max_exp=3))
    @settings(max_examples=15, deadline=None)
    def test_det_4x4_matches_cofactor(self, M):
        assert M.determinant() == determinant_cofactor(M)

    @pytest.mark.parametrize("total", BOUNDARIES)
    def test_det_at_a_field_boundary(self, total):
        """The det reaches the bound (the sum of the row maxima) in both a
        and b; a field too narrow carries into its neighbour."""
        a, b, _ = T.vars()
        top = a ** (total // 2) * b ** (total // 2)
        rest = a ** (total - total // 2) * b ** (total - total // 2)
        one, zero = T.one(), T.zero()
        M = PolyMatrix([[top, zero, one], [zero, rest, zero], [one, zero, one]])
        want = a ** total * b ** total - rest
        assert M.determinant() == want == determinant_cofactor(M)

    @given(polys(max_exp=4),
           st.lists(polys(max_terms=3, max_exp=3), min_size=3, max_size=3),
           st.lists(st.integers(-5, 5), min_size=3, max_size=3))
    @settings(max_examples=60)
    def test_substitute_is_a_ring_homomorphism(self, p, images, v):
        """p(images) at v equals p at the images' values at v."""
        got = p.substitute(dict(zip(T.names, images)))
        assert got.eval_vector(v) == p.eval_vector([im.eval_vector(v) for im in images])

    @pytest.mark.parametrize("total", BOUNDARIES)
    def test_substitute_at_a_field_boundary(self, total):
        """x^d y^(total - d) under x -> a, y -> a*b: the result's exponent
        of a is the bound total_degree * largest image exponent."""
        src = VarTable(("x", "y"))
        x, y = src.vars()
        a, b, _ = T.vars()
        d = total // 2
        p = x ** d * y ** (total - d) + 3 * x
        got = p.substitute({"x": a, "y": a * b})
        assert got == a ** total * b ** (total - d) + 3 * a
        at = [2, -1, 5]
        assert got.eval_vector(at) == p.eval_vector([2, -2])

    @pytest.mark.parametrize("e", [1, 2, 3, 4, 5, 7, 8])
    @pytest.mark.parametrize("t", [1, 3, 4, 5, 8])
    def test_pow_at_a_field_boundary(self, t, e):
        """x^e under x -> a^t + b^t - c: the powers `substitute` packs
        reach the exponent e*t, the bound, in a and b."""
        a, b, c = T.vars()
        p = a ** t + b ** t - c
        expected = T.one()
        for _ in range(e):
            expected = mul(expected, p)
        x = VarTable(("x",)).var("x")
        assert (x ** e).substitute({"x": p}) == expected

    def test_sympy_agrees_on_det_and_substitute(self):
        sympy = pytest.importorskip("sympy")
        ring, *gens = sympy.ring(T.names, sympy.ZZ)
        a, b, c = T.vars()

        def element(poly):
            return ring(dict(poly.terms))

        rows = [[a ** 3 - b, c ** 2, a * b],
                [b ** 4, a + c, 7 - c ** 3],
                [a * b * c, b - 2, c ** 5 + a]]
        M = PolyMatrix(rows)
        want = sympy.Matrix(3, 3, lambda i, j: element(rows[i][j]).as_expr()).det()
        assert element(M.determinant()) == ring(sympy.expand(want))
        p = a ** 3 * b - 2 * b * c ** 2 + 5
        images = {"a": b + c, "b": a * c - 1, "c": a ** 2}
        want = element(p).as_expr().subs(
            {g.as_expr(): element(images[n]).as_expr()
             for g, n in zip(gens, T.names)}, simultaneous=True)
        assert element(p.substitute(images)) == ring(sympy.expand(want))


# tables of 0-4 variables, exponents on both sides of the powers of two
# that set a packed field's width, and coefficients +-1, +-2, so that
# products cancel
NAMES = ("a", "b", "c", "d")
EXPONENTS = st.sampled_from([0, 1, 2, 3, 4, 5, 7, 8])
KERNEL = settings(derandomize=True, max_examples=25, deadline=None)


@st.composite
def tables(draw):
    return VarTable(NAMES[:draw(st.integers(0, len(NAMES)))])


def table_polys(table, max_terms=4):
    return st.dictionaries(st.tuples(*[EXPONENTS] * len(table)),
                           st.sampled_from([-2, -1, 1, 2]),
                           max_size=max_terms).map(
        lambda terms: Polynomial(table, terms))


@st.composite
def matrix_pairs(draw):
    table, n = draw(tables()), draw(st.integers(1, 3))

    def matrix():
        return PolyMatrix([[draw(table_polys(table, 3)) for _ in range(n)]
                           for _ in range(n)])
    return matrix(), matrix()


@st.composite
def structures(draw):
    """A structure over a drawn parameter table, each divisor one term or
    none, as `LinearStructure` requires."""
    table, n = draw(tables()), draw(st.integers(1, 3))
    h = draw(st.integers(1, n))
    return LinearStructure(n, h, table.names, [
        [[draw(table_polys(table, 1 if (i, j) == (0, r) else 3))
          for r in range(h)] for j in range(n)] for i in range(n)])


class TestProductKernel:
    """Every product in src/ is packed (`_mul_packed`); each is checked
    against the tests' own product over exponent tuples."""

    @given(st.data())
    @KERNEL
    def test_mul_and_pow(self, data):
        table = data.draw(tables())
        a, b = (data.draw(table_polys(table)) for _ in range(2))
        assert a * b == mul(a, b)
        # (a + b)(a - b): the cross terms cancel
        assert (a + b) * (a - b) == mul(a + b, a - b)
        e = data.draw(st.integers(0, 5))
        want = table.one()
        for _ in range(e):
            want = mul(want, a)
        assert a ** e == want

    @given(matrix_pairs())
    @KERNEL
    def test_matmul(self, pair):
        M, N = pair
        assert M @ N == matmul(M, N)

    @given(structures())
    @KERNEL
    def test_instantiate(self, structure):
        coords = tuple(f"x{r + 1}" for r in range(structure.h))
        A = structure.instantiate(coords)
        xs = [A.table.var(c) for c in coords]
        for i, row in enumerate(structure.coeff):
            for j, cell in enumerate(row):
                want = A.table.zero()
                for c, x in zip(cell, xs):
                    want = want + mul(c.embed(A.table), x)
                assert A[i, j] == want

    @given(st.data())
    @KERNEL
    def test_specialize(self, data):
        """`specialize` equals the tuple oracle and `substitute` of the
        constants over the table of the variables it keeps."""
        table = data.draw(tables())
        p = data.draw(table_polys(table))
        drop = data.draw(st.lists(st.booleans(), min_size=len(table),
                                  max_size=len(table)))
        values = {n: data.draw(st.integers(-3, 3))
                  for n, d in zip(table.names, drop) if d}
        got = p.specialize(values)
        kept = VarTable(n for n in table.names if n not in values)
        assert got.table == kept
        assert got == specialized(p, values)
        assert got == p.substitute({n: kept.const(v)
                                    for n, v in values.items()})

    @given(st.data())
    @KERNEL
    def test_substitute_monomial_images(self, data):
        """Every variable to a constant in [-3, 3], 0 included, or to any
        variable of the same table, so that terms merge: each term maps to
        one term, and the sum equals the tuple oracle's."""
        table = data.draw(tables())
        p = data.draw(table_polys(table))
        image = st.one_of(st.integers(-3, 3).map(table.const),
                          st.sampled_from(table.names).map(table.var)
                          if table.names else st.nothing())
        images = {n: data.draw(image) for n in table.names}
        want = table.zero()
        for m, c in p.terms.items():
            term = table.const(c)
            for n, e in zip(table.names, m):
                for _ in range(e):
                    term = mul(term, images[n])
            want = want + term
        assert p.substitute(images) == want


class TestPacking:
    """The field layout directly: a round trip, a product at the bound and
    the borrow test of `divide`, for bounds on both sides of a power of
    two."""

    @pytest.mark.parametrize("bound", BOUNDARIES)
    def test_round_trip_and_product_at_the_bound(self, bound):
        pack = Packing(T, bound)
        m1, m2 = (bound, 0, bound // 2), (0, bound, bound - bound // 2)
        terms = {m1: 2, m2: -3}
        assert pack.poly(pack.pack_terms(terms)).terms == terms
        product = pack.pack(m1) + pack.pack(m2)
        assert pack.poly({product: 1}).terms == {(bound, bound, bound): 1}

    @pytest.mark.parametrize("bound", BOUNDARIES)
    def test_divide_detects_a_borrow(self, bound):
        pack = Packing(T, bound)
        top = {pack.pack((bound, bound, 0)): 6}
        assert pack.divide(top, 3, pack.pack((bound, 0, 0))) == \
            {pack.pack((0, bound, 0)): 2}
        # b^bound / a: the a field would borrow from the b field
        assert pack.divide(top, 3, pack.pack((0, 0, 1))) is None
        assert pack.divide({pack.pack((0, bound, 0)): 1}, 1,
                           pack.pack((1, 0, 0))) is None
        assert pack.divide(top, 4, 0) is None
