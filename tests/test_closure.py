"""Closure decided from the basis multiplication table, against oracles
that never read the table:

- the symbolic product A(x) @ A(y) [@ A(z)] read back by
  `extract_coordinates`, which must give the same law or the same
  NotClosed witness;
- integer points: A(x)·A(y)[·A(z)] == A(map(x, y[, z])) through
  `matrix_of`, at seeded random parameters and points;
- sympy, multiplying the instantiated matrices itself.

A block lift's table, the Kronecker product of its factors' tables, is
also checked against the same structure without factors, which reads its
table off its own basis products.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matform import catalog, linstruct
from matform.linstruct import (LinearStructure, MultilinearMap, NotClosed,
                               NotInSpan)
from matform.polyring import Polynomial, VarTable, int_matrix_determinant

from intmatrix import int_matrix_product
from polytools import embedded

# every catalog family: each has a matrix structure
FAMILIES = ("quad2x2", "cubic3x3", "quartic4x4", "sextic6x6",
            "sextic_circulant", "octic8x8", "threefold_quadratic",
            "threefold4x4", "threefold8x8", "sextic_uv")
CASES = [(name, order) for name in FAMILIES for order in (2, 3)]


def fresh(name: str) -> LinearStructure:
    """The family's structure, built anew: not the one the catalog shares."""
    return catalog._REGISTRY[name].build()


def product_route(st: LinearStructure, order: int):
    """Closure by multiplying the symbolic matrices and reading the product
    back at the structure's positions."""
    sets = tuple(tuple(f"{p}{i + 1}" for i in range(st.h)) for p in "xyz"[:order])
    table = VarTable(st.params + sum(sets, ()))
    product = embedded(st.instantiate(sets[0]), table)
    for cs in sets[1:]:
        product = product @ embedded(st.instantiate(cs), table)
    got = st.extract_coordinates(product)
    if isinstance(got, NotInSpan):
        return NotClosed(order=order, witness=got)
    return sets, tuple(got)


def assert_same_as_product_route(st: LinearStructure, order: int):
    got, want = st.closure(order), product_route(st, order)
    if isinstance(want, NotClosed):
        assert got == want
    else:
        assert isinstance(got, MultilinearMap)
        assert (got.k, got.coord_sets, tuple(got.forms(got.coord_sets))) \
            == (order, *want)


def tracefree() -> LinearStructure:
    """[[t*a1, a2], [b*a1 + c*a2, -t*a1]]: closed only for triples, with
    the first row read back divided by t and 1."""
    t, b, c, a1, a2 = VarTable(("t", "b", "c", "a1", "a2")).vars()
    return LinearStructure.from_matrix(
        ("t", "b", "c"), ("a1", "a2"),
        [[t * a1, a2], [b * a1 + c * a2, -t * a1]])


def doubled(d: int) -> LinearStructure:
    """[[d*a1, d*a2], [d*p*a2, d*a1]], read back divided by d."""
    p, a1, a2 = VarTable(("p", "a1", "a2")).vars()
    return LinearStructure.from_matrix(
        ("p",), ("a1", "a2"), [[d * a1, d * a2], [d * p * a2, d * a1]])


def scaled_diagonal(d: int) -> LinearStructure:
    """[[d*a1, a2], [p*a2, d*a1]]: E_2 E_2 = p*I, its (0, 0) entry p read
    back divided by d."""
    p, a1, a2 = VarTable(("p", "a1", "a2")).vars()
    return LinearStructure.from_matrix(
        ("p",), ("a1", "a2"), [[d * a1, a2], [p * a2, d * a1]])


def symmetric() -> LinearStructure:
    """[[a1, a2], [a2, 0]]: its first row reads E_1 E_2 = [[0, 1], [0, 0]]
    as E_2 and E_2 E_2 = I as E_1, neither of them in the span."""
    table = VarTable(("a1", "a2"))
    a1, a2 = table.vars()
    return LinearStructure.from_matrix(
        (), ("a1", "a2"), [[a1, a2], [a2, table.zero()]])


def upper_triangular() -> LinearStructure:
    """[[a1, p*a2, a3], [0, a1, 0], [0, p*a2, a1 + a3]]: the transposed
    left-regular representation of the upper-triangular 2 x 2 matrices
    a1*I + p*a2*E12 + a3*E22, a pair-closed algebra that is not
    commutative, with a2 read back divided by p."""
    table = VarTable(("p", "a1", "a2", "a3"))
    p, a1, a2, a3 = table.vars()
    zero = table.zero()
    return LinearStructure.from_matrix(
        ("p",), ("a1", "a2", "a3"),
        [[a1, p * a2, a3], [zero, a1, zero], [zero, p * a2, a1 + a3]])


def assert_integer_points(st: LinearStructure, order: int, seed: int,
                          trials: int = 3):
    """A(x)·A(y)[·A(z)] == A(map(...)) at random integer parameters and
    points, each side computed from `matrix_of`."""
    law = st.closure(order)
    rng = random.Random(seed)
    for _ in range(trials):
        values = [rng.randint(-3, 3) for _ in st.params]
        numeric = st.specialize(values)
        points = [[rng.randint(-4, 4) for _ in range(st.h)] for _ in range(order)]
        product = numeric.matrix_of(points[0])
        for point in points[1:]:
            product = int_matrix_product(product, numeric.matrix_of(point))
        assert product == numeric.matrix_of(law.specialize(values).apply(points))


@pytest.mark.parametrize("name,order", CASES)
def test_catalog_closure_matches_product_route(name, order):
    assert_same_as_product_route(fresh(name), order)


@pytest.mark.parametrize("label,build,order", [
    # products outside the span of E_1 = diag(1, 0) and E_2: a mismatch
    ("mismatch-pair", symmetric, 2),
    ("mismatch-triple", symmetric, 3),
    # a divisor that vanishes at these parameter values
    ("zero-divisor", lambda: fresh("threefold4x4").specialize((0, 1, 0, 2, 0, 0)), 3),
    ("zero-divisor-pair", lambda: tracefree().specialize((0, 1, 2)), 2),
    ("numeric-pair", lambda: fresh("octic8x8").specialize((1, -2, 3, 1, 0, -1)), 2),
    ("numeric-triple", lambda: fresh("threefold4x4").specialize((-1, -4, 1, -1, 1, 1)), 3),
    # an integer divisor that divides every product entry, and one that
    # does not
    ("scaled-divisor", lambda: doubled(2), 2),
    ("scaled-divisor-triple", lambda: doubled(2), 3),
    ("indivisible", lambda: scaled_diagonal(3), 2),
    # E_r E_s != E_s E_r: the derived triple table keeps the factor order
    ("noncommutative-pair", upper_triangular, 2),
    ("noncommutative-triple", upper_triangular, 3),
])
def test_other_structures_match_product_route(label, build, order):
    assert_same_as_product_route(build(), order)


@st.composite
def first_row_structures(draw) -> LinearStructure:
    """An n x n structure, n <= 3, with h <= n coordinates on the first row
    and 0-2 parameters.  Each divisor L[0][t][t] is one term, sometimes 0;
    every other cell coefficient is c * p^i * q^j with a small c, often 0."""
    n = draw(st.integers(1, 3))
    h = draw(st.integers(1, n))
    table = VarTable(("p", "q")[:draw(st.integers(0, 2))])
    exponents = st.tuples(*[st.integers(0, 2)] * len(table))

    def term(values):
        return Polynomial(table, {draw(exponents): draw(st.sampled_from(values))})

    return LinearStructure(n, h, table.names, [
        [[term((0, -2, -1, 1, 2, 3) if (i, j) == (0, r) else (0, 0, 0, -1, 1, 2))
          for r in range(h)] for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("order", [2, 3])
@given(structure=first_row_structures())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_random_structures_match_product_route(order, structure):
    """The law, or the witness with its rule (division at the first
    position, mismatch at the first entry with its residual), is the
    product route's on structures the catalog does not have.  A zero
    divisor is never read: division fails there at the latest."""
    assert_same_as_product_route(structure, order)
    zero = [t for t, d in enumerate(structure.divisors) if not d]
    if zero:
        witness = structure.closure(order).witness
        assert witness.reason == "division" and witness.entry <= (0, zero[0])


class TestIntMatrixProduct:
    """The oracles' integer product, against the sum it abbreviates and
    the multiplicativity of the exact determinant."""

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

    @pytest.mark.parametrize("a, b", [([[0.5]], [[2]]), ([[2]], [[1.0]])],
                             ids=["product-left", "product-right"])
    def test_int_matrix_product_rejects_a_float(self, a, b):
        """A float entry is never carried into the result: it raises
        TypeError."""
        with pytest.raises(TypeError):
            int_matrix_product(a, b)


@pytest.mark.parametrize("order", [2, 3])
def test_noncommutative_integer_points(order):
    assert_integer_points(upper_triangular(), order, seed=order, trials=5)


def test_symmetric_square_gives_a_mismatch():
    """The witness case the catalog never reaches: E_1 E_2, read as E_2,
    first differs from it at (1, 0)."""
    got = symmetric().verify_pair_closure()
    assert isinstance(got, NotClosed)
    assert (got.witness.reason, got.witness.entry) == ("mismatch", (1, 0))
    assert not got.witness.residual.is_zero()


@pytest.mark.parametrize("name,order", [
    (name, order) for name, order in CASES
    if not (order == 2 and name.startswith("threefold"))])
def test_integer_point_oracle(name, order):
    assert_integer_points(catalog.family(name).structure, order,
                          seed=FAMILIES.index(name) * 10 + order)


def test_block_lift_of_two_quartics():
    """The 16 x 16 lift `matform block --outer quartic4x4 --inner
    quartic4x4` builds is pair- and triple-closed."""
    outer = catalog.family("quartic4x4").structure
    inner = outer.rename_params({p: f"i_{p}" for p in outer.params})
    lifted = outer.block_compose(inner)
    assert (lifted.n, lifted.h) == (16, 16)
    for order in (2, 3):
        assert isinstance(lifted.closure(order), MultilinearMap)
        assert_integer_points(lifted, order, seed=1600 + order, trials=2)


# -- block lifts: the Kronecker product of the factors' tables ----------------

# the catalog's block lifts; threefold8x8's inner structure is itself one
LIFTS = ("quartic4x4", "sextic6x6", "octic8x8", "threefold4x4", "threefold8x8")


def basis_route(st: LinearStructure) -> LinearStructure:
    """The same structure without factors: its closure is read off its own
    basis products."""
    return LinearStructure(st.n, st.h, st.params, st.coeff)


def renamed_quartic() -> LinearStructure:
    """quartic4x4's structure with its parameters renamed as `matform
    block` renames an inner structure that collides with the outer."""
    st = fresh("quartic4x4")
    return st.rename_params({p: f"i_{p}" for p in st.params})


def test_lifts_are_the_catalog_block_compositions():
    assert tuple(name for name in FAMILIES
                 if fresh(name)._factors is not None) == LIFTS


@pytest.mark.parametrize("name,order", [
    (name, order) for name in LIFTS + ("threefold8x8-inner",) for order in (2, 3)])
def test_lift_closure_is_the_basis_route(name, order):
    """The law (or the witness, where a factor does not close) equals the
    one read off the lift's own basis products."""
    st = (fresh("threefold8x8")._factors[1] if name == "threefold8x8-inner"
          else fresh(name))
    assert st._factors is not None
    assert st.closure(order) == basis_route(st).closure(order)


@pytest.mark.parametrize("name", ["threefold4x4", "threefold8x8"])
def test_lift_of_a_factor_not_closed_keeps_the_witness(name):
    """A trace-free factor does not close pairwise, so the lift takes the
    basis route and gives its division witness."""
    st = fresh(name)
    assert any(isinstance(f.closure(2), NotClosed) for f in st._factors)
    got = st.closure(2)
    assert isinstance(got, NotClosed) and got.witness.reason == "division"
    assert got == basis_route(st).closure(2)


@pytest.mark.parametrize("label", ["symbolic", "golden"])
@pytest.mark.parametrize("name,order", [
    (name, order) for name in LIFTS for order in (2, 3)
    if order == 3 or not name.startswith("threefold")])
def test_closed_lift_takes_no_product_of_its_own_basis(name, order, label,
                                                       monkeypatch):
    """Where both factors close, the lift multiplies no n x n matrices:
    only its factors' smaller bases are multiplied out.  A lift
    specialized at integer values keeps its factors at their values, so
    its law is built the same way."""
    st = fresh(name)
    if label == "golden":
        st = st.specialize(GOLDEN_VALUES[name])
    sizes = []
    product = linstruct._sparse_product

    def counting(a, b):
        sizes.append(len(a))
        return product(a, b)
    monkeypatch.setattr(linstruct, "_sparse_product", counting)
    assert isinstance(st.closure(order), MultilinearMap)
    assert st.n not in sizes


def test_renamed_and_reordered_lift_keeps_its_factors():
    """`rename_params` renames the factors with the lift, a lift built in
    another parameter order (`block_compose(inner, params)`) keeps them,
    and `specialize` keeps them, each specialized at its own values."""
    st = fresh("octic8x8").rename_params({"p": "P", "m": "M"})
    assert st._factors is not None
    assert {p for f in st._factors for p in f.params} == set(st.params)
    outer, inner = st._factors
    reordered = outer.block_compose(inner, sorted(st.params))
    assert reordered.params == tuple(sorted(st.params))
    assert reordered._factors[0] is outer and reordered._factors[1] is inner
    values = (1, -2, 3, 1, 0, -1)
    at = dict(zip(st.params, values))
    numeric = st.specialize(values)
    assert [f.coeff for f in numeric._factors] == \
        [f.specialize([at[p] for p in f.params]).coeff for f in st._factors]
    for lift in (st, reordered, numeric):
        assert lift.closure(2) == basis_route(lift).closure(2)


def kronecker_lift(name: str, order: str):
    """(outer, inner, lift): a catalog lift's factors and the lift built
    from them in the default parameter order (outer's, then inner's) or in
    the family's own; "quartic4x4*quartic4x4" is quartic4x4 over the
    renamed quartic, its "family" order the reverse of the default."""
    if name == "quartic4x4*quartic4x4":
        outer, inner = fresh("quartic4x4"), renamed_quartic()
        params = (outer.params + inner.params)[::-1]
    else:
        outer, inner = fresh(name)._factors
        params = catalog._REGISTRY[name].params
    return outer, inner, outer.block_compose(
        inner, None if order == "default" else params)


@pytest.mark.parametrize("order", ["default", "family"])
@pytest.mark.parametrize("name", LIFTS + ("quartic4x4*quartic4x4",))
def test_lift_coefficients_are_kronecker_products(name, order):
    """Every lift coefficient L[(i,a)][(j,b)][(r,s)] is the product of
    outer L[i][j][r] and inner L[a][b][s], each embedded in the lift's
    table and multiplied by `Polynomial.__mul__`."""
    outer, inner, lift = kronecker_lift(name, order)
    table = lift.param_table
    assert set(lift.params) == set(outer.params + inner.params)
    if order == "family" and name in LIFTS:
        assert lift.params == fresh(name).params
    m, hin = inner.n, inner.h
    assert (lift.n, lift.h) == (outer.n * m, outer.h * hin)
    for i, j, r in ((i, j, r) for i in range(outer.n)
                    for j in range(outer.n) for r in range(outer.h)):
        oc = outer.coeff[i][j][r].embed(table)
        for a, b, s in ((a, b, s) for a in range(m) for b in range(m)
                        for s in range(hin)):
            got = lift.coeff[i * m + a][j * m + b][r * hin + s]
            assert got.table == table
            assert got == oc * inner.coeff[a][b][s].embed(table)


def test_block_lift_of_two_quartics_is_the_basis_route():
    """The 16 x 16 lift `matform block --outer quartic4x4 --inner
    quartic4x4` builds, with its inner parameters renamed."""
    lifted = fresh("quartic4x4").block_compose(renamed_quartic())
    assert lifted.closure(3) == basis_route(lifted).closure(3)


def test_32x32_lift_integer_points():
    """octic8x8 over the renamed quartic: a 32 x 32 lift in ten parameters,
    pairwise closed from its factors' tables."""
    lifted = fresh("octic8x8").block_compose(renamed_quartic())
    assert (lifted.n, lifted.h, len(lifted.params)) == (32, 32, 10)
    assert_integer_points(lifted, 2, seed=3200, trials=1)


# -- a numeric lift's law: its factors' laws at its values, multiplied -------

# the lifts and orders where both factors close; a trace-free factor does
# not close pairwise
LIFT_ORDERS = [(name, order) for name in LIFTS for order in (2, 3)
               if order == 3 or not name.startswith("threefold")]
# the values of the golden numeric argvs
GOLDEN_VALUES = {
    "quartic4x4": (5, -23, 2, -7), "sextic6x6": (1, -1, 2, 1, -2, 1, -3),
    "octic8x8": (0, -5, 0, -3, 0, -14),
    "threefold4x4": (-1, -4, 1, -1, 1, 1),
    "threefold8x8": (3, -1, 0, -3, 0, -14, 1)}


def assert_law_is_specialized(name: str, order: int, values) -> None:
    """The numeric family's law, built from its factors' laws at their
    values, equals the symbolic family's law specialized (the route a
    numeric law took before), zero entries dropped included."""
    want = catalog.family(name)._law(order).specialize(values)
    assert catalog.family(name, values)._law(order) == want


@pytest.mark.parametrize("name,order", LIFT_ORDERS)
@pytest.mark.parametrize("label", ["golden", "zero"])
def test_numeric_lift_law_is_the_symbolic_law_specialized(name, order, label):
    """At the golden values and at zero, where every divisor vanishes."""
    values = GOLDEN_VALUES[name]
    assert_law_is_specialized(
        name, order, values if label == "golden" else (0,) * len(values))


@pytest.mark.parametrize("name,order", LIFT_ORDERS)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_numeric_lift_law_at_random_values(name, order, data):
    arity = len(GOLDEN_VALUES[name])
    assert_law_is_specialized(name, order, data.draw(
        st.lists(st.integers(-9, 9), min_size=arity, max_size=arity)))


@pytest.mark.parametrize("name", ["threefold4x4", "threefold8x8"])
def test_numeric_law_of_a_lift_whose_factor_does_not_close(name):
    """A trace-free factor does not close pairwise, at integer values
    either: the specialized lift takes its own basis route, and its
    witness is the one read off its basis products at those values."""
    lift = fresh(name).specialize(GOLDEN_VALUES[name])
    assert any(isinstance(f.closure(2), NotClosed) for f in lift._factors)
    got = lift.closure(2)
    assert isinstance(got, NotClosed)
    assert got == basis_route(lift).closure(2)


def test_lift_whose_factors_do_not_close_reads_each_table_once(monkeypatch):
    """At these values no factor of the lift closes, at order 2 or 3.  Its
    triple closure reads each table, (structure, order), off a basis once:
    each factor's pair and triple table, then the lift's own pair and
    triple table.  A factor that does not close at 3 does not close at 2
    either, so the lift's pair closure is read off its own basis, and the
    witness is the one read off there."""
    lift = fresh("threefold4x4").specialize((0, 1, 0, 2, 0, 0))
    reads = []
    read = LinearStructure._read_table

    def spy(self, order, *args):
        reads.append((self, order))
        return read(self, order, *args)
    monkeypatch.setattr(LinearStructure, "_read_table", spy)
    got = lift.closure(3)
    assert isinstance(got, NotClosed)
    assert len(reads) == len(set(reads)) == 6
    assert {st for st, _ in reads} == {lift, *lift._factors}
    monkeypatch.undo()
    assert got == basis_route(lift).closure(3)


@pytest.mark.parametrize("inner_values", [(5, -23, 2, -7), (1, -2, 3, 0)])
def test_block_lift_of_two_quartics_pair_law_at_values(inner_values):
    """The 16 x 16 lift `matform block --outer quartic4x4 --inner
    quartic4x4` builds (inner parameters renamed i_*): its pair law at
    integer values, factor-first, is its symbolic pair law specialized."""
    lifted = fresh("quartic4x4").block_compose(renamed_quartic())
    values = (5, -23, 2, -7) + inner_values
    assert lifted.specialize(values).closure(2) == \
        lifted.closure(2).specialize(values)


# -- sympy as an independent multiplier --------------------------------------


@pytest.mark.parametrize("name,order", [
    (name, order) for name, order in CASES
    if order == 2 or catalog.family(name).structure.n <= 4])
def test_sympy_product_matches_certificate(name, order):
    """sympy.Matrix multiplies the instantiated matrices; each product
    entry, expanded in sympy's ring ZZ[params, coordinates], must equal
    A(outputs), or the witness's divisor must leave a remainder."""
    sympy = pytest.importorskip("sympy")
    st = catalog.family(name).structure
    got = st.closure(order)
    sets = tuple(tuple(f"{p}{i + 1}" for i in range(st.h)) for p in "xyz"[:order])
    table = VarTable(st.params + sum(sets, ()))
    ring, *_ = sympy.ring(table.names, sympy.ZZ)

    def element(poly):
        return ring(dict(poly.embed(table).terms))

    product = sympy.eye(st.n)
    for cs in sets:
        a = embedded(st.instantiate(cs), table)
        product = product * sympy.Matrix(st.n, st.n, lambda i, j: element(a[i, j]).as_expr())
    if isinstance(got, NotClosed):
        # the three-fold families: the divisor does not divide the product
        # entry it reads
        assert got.witness.reason == "division"
        i, j = got.witness.entry
        divisor = element(st.divisors[st.positions.index((i, j))])
        assert ring(product[i, j]).div(divisor)[1] != 0
        return
    w = [element(out) for out in got.forms(got.coord_sets)]
    for i in range(st.n):
        for j in range(st.n):
            rebuilt = sum((element(st.coeff[i][j][r]) * w[r] for r in range(st.h)),
                          ring.zero)
            assert ring(product[i, j]) == rebuilt, (i, j)
