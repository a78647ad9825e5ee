"""Closure decided from the basis multiplication table, against oracles
that never read the table:

- the symbolic product A(x) @ A(y) [@ A(z)] read back by
  `extract_coordinates`, which must give the same law or the same
  NotClosed witness;
- integer points: A(x)·A(y)[·A(z)] == A(map(x, y[, z])) through
  `matrix_of`, at seeded random parameters and points;
- sympy, multiplying the instantiated matrices itself.
"""

import random

import pytest

from matform import catalog
from matform.linstruct import (ExtractionRecipe, LinearStructure,
                               MultilinearMap, NotClosed, NotInSpan)
from matform.polyring import VarTable, int_matrix_product

# every catalog family with a matrix structure
NINE = ("quad2x2", "cubic3x3", "quartic4x4", "sextic6x6", "sextic_circulant",
        "octic8x8", "threefold_quadratic", "threefold4x4", "threefold8x8")
CASES = [(name, order) for name in NINE for order in (2, 3)]


def fresh(name: str) -> LinearStructure:
    """The family's structure, built anew so that no closure is cached."""
    return catalog._BUILDERS[name]().structure


def product_route(st: LinearStructure, order: int):
    """Closure by multiplying the symbolic matrices and reading the product
    back with the structure's recipe."""
    sets = tuple(tuple(f"{p}{i + 1}" for i in range(st.h)) for p in "xyz"[:order])
    table = VarTable(st.params + sum(sets, ()))
    product = st.instantiate(sets[0], table)
    for cs in sets[1:]:
        product = product @ st.instantiate(cs, table)
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


def tracefree(recipe=None) -> LinearStructure:
    """[[t*a1, a2], [b*a1 + c*a2, -t*a1]]: closed only for triples, with
    the first row read back divided by t and 1."""
    t, b, c, a1, a2 = VarTable(("t", "b", "c", "a1", "a2")).vars()
    return LinearStructure.from_matrix(
        ("t", "b", "c"), ("a1", "a2"),
        [[t * a1, a2], [b * a1 + c * a2, -t * a1]],
        recipe or ExtractionRecipe(((0, 0), (0, 1)), ((1, (("t", 1),)), (1, ()))))


def doubled(d: int, scale: int = 2) -> LinearStructure:
    """[[d*a1, d*a2], [d*p*a2, d*a1]] read back divided by `scale`."""
    p, a1, a2 = VarTable(("p", "a1", "a2")).vars()
    return LinearStructure.from_matrix(
        ("p",), ("a1", "a2"), [[d * a1, d * a2], [d * p * a2, d * a1]],
        ExtractionRecipe(((0, 0), (0, 1)), ((scale, ()), (scale, ()))))


def upper_triangular() -> LinearStructure:
    """[[a1, p*a2], [0, a3]]: a pair-closed algebra that is not commutative,
    with the corner read back divided by p."""
    table = VarTable(("p", "a1", "a2", "a3"))
    p, a1, a2, a3 = table.vars()
    return LinearStructure.from_matrix(
        ("p",), ("a1", "a2", "a3"), [[a1, p * a2], [table.zero(), a3]],
        ExtractionRecipe(((0, 0), (0, 1), (1, 1)),
                         ((1, ()), (1, (("p", 1),)), (1, ()))))


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
    # the first row read without dividing by t: a mismatch at (0, 0)
    ("undivided-pair", lambda: tracefree(ExtractionRecipe.first_row(2)), 2),
    ("undivided-triple", lambda: tracefree(ExtractionRecipe.first_row(2)), 3),
    # coordinates read where the basis is not diagonal
    ("second-row", lambda: tracefree(ExtractionRecipe(
        ((1, 0), (1, 1)), ((1, ()), (1, ())))), 3),
    # a divisor that vanishes at these parameter values
    ("zero-divisor", lambda: fresh("threefold4x4").specialize((0, 1, 0, 2, 0, 0)), 3),
    ("zero-divisor-pair", lambda: tracefree().specialize((0, 1, 2)), 2),
    ("numeric-pair", lambda: fresh("octic8x8").specialize((1, -2, 3, 1, 0, -1)), 2),
    ("numeric-triple", lambda: fresh("threefold4x4").specialize((-1, -4, 1, -1, 1, 1)), 3),
    # an integer divisor that divides every product entry, and one that
    # does not
    ("scaled-divisor", lambda: doubled(2), 2),
    ("scaled-divisor-triple", lambda: doubled(2), 3),
    ("indivisible", lambda: doubled(1, scale=3), 2),
    # E_r E_s != E_s E_r: the derived triple table keeps the factor order
    ("noncommutative-pair", upper_triangular, 2),
    ("noncommutative-triple", upper_triangular, 3),
])
def test_other_structures_match_product_route(label, build, order):
    assert_same_as_product_route(build(), order)


@pytest.mark.parametrize("order", [2, 3])
def test_noncommutative_integer_points(order):
    assert_integer_points(upper_triangular(), order, seed=order, trials=5)


def test_undivided_recipe_gives_a_mismatch():
    """The witness case the catalog never reaches: reading t*x1 as x1."""
    got = tracefree(ExtractionRecipe.first_row(2)).verify_pair_closure()
    assert isinstance(got, NotClosed)
    assert (got.witness.reason, got.witness.entry) == ("mismatch", (0, 0))
    assert not got.witness.residual.is_zero()


@pytest.mark.parametrize("name,order", [
    (name, order) for name, order in CASES
    if not (order == 2 and name.startswith("threefold"))])
def test_integer_point_oracle(name, order):
    assert_integer_points(catalog.family(name).structure, order,
                          seed=NINE.index(name) * 10 + order)


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
    ring, *gens = sympy.ring(table.names, sympy.ZZ)

    def element(poly):
        return ring(dict(poly.embed(table).terms))

    product = sympy.eye(st.n)
    for cs in sets:
        a = st.instantiate(cs, table)
        product = product * sympy.Matrix(st.n, st.n, lambda i, j: element(a[i, j]).as_expr())
    if isinstance(got, NotClosed):
        # the three-fold families: the recipe's divisor does not divide the
        # product entry it reads
        assert got.witness.reason == "division"
        i, j = got.witness.entry
        scale, monomial = st.recipe.divisors[st.recipe.positions.index((i, j))]
        divisor = scale * ring.one
        for x, e in monomial:
            divisor *= gens[table.index(x)] ** e
        assert ring(product[i, j]).div(divisor)[1] != 0
        return
    w = [element(out) for out in got.forms(got.coord_sets)]
    for i in range(st.n):
        for j in range(st.n):
            rebuilt = sum((element(st.coeff[i][j][r]) * w[r] for r in range(st.h)),
                          ring.zero)
            assert ring(product[i, j]) == rebuilt, (i, j)
