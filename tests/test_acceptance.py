"""End-to-end acceptance suite: one test (one pass/fail line) per criterion.

All arithmetic is exact; every comparison is equality of integers or of
polynomials over the integers.
"""

from matform.catalog import family
from matform.compose import (
    MultilinearMap,
    ZeroResidual,
    identity_element,
    invert,
    verify_identity,
)
from matform.dioph import brute_force_search, generate_sequence
from matform.linstruct import NotClosed, NotInSpan
from matform.polyring import VarTable

import paper
from polytools import embedded, eval_int


def _apply_polys(cmap, args, table):
    """cmap applied to argument vectors of polynomials (for symbolic
    composition of maps)."""
    out = [table.zero() for _ in range(cmap.h)]
    for (i, js), c in cmap.coeff.items():
        term = c.embed(table)
        for arg, j in zip(args, js):
            term = term * arg[j]
        out[i] = out[i] + term
    return out


def test_criterion_1_symbolic_identity_suite():
    """f(x)f(y) - f(z(x,y)) == 0 identically for every two-argument family,
    all parameters symbolic, with z the paper's printed law: it is the
    family's closure exactly, so the matrix route proves it."""
    for name in ("quad2x2", "cubic3x3", "quartic4x4", "sextic6x6",
                 "sextic_circulant", "octic8x8"):
        result = family(name).verify(paper.law(name))
        assert isinstance(result, ZeroResidual), name
        assert result.method == "matrix", name


def test_criterion_2_threefold_suite():
    """Trilinear identities hold symbolically; the three-fold structures
    genuinely fail pairwise; degenerate reductions are 4*x4^4 and 16*x2^8."""
    # the quadratic law, by expansion: an oracle independent of the
    # closure that proves it in `verify`
    quad = family("threefold_quadratic")
    res = verify_identity(quad.form, quad.triple_map(), quad.coord_names)
    assert isinstance(res, ZeroResidual), "quadratic"

    # the trilinear identities by the matrix route: the paper's printed
    # law for the quadratic and the quartic, the structure's own for the
    # octic
    for name, law in (("threefold_quadratic",
                       paper.law("threefold_quadratic")),
                      ("threefold4x4", paper.law("threefold4x4")),
                      ("threefold8x8", family("threefold8x8").triple_map())):
        res = family(name).verify(law)
        assert isinstance(res, ZeroResidual), name
        assert res.method == "matrix", name

    # pairwise products leave the span for all three structures
    for name in ("threefold_quadratic", "threefold4x4", "threefold8x8"):
        fam = family(name)
        failed = fam.structure.verify_pair_closure()
        assert isinstance(failed, NotClosed), name
        assert isinstance(failed.witness, NotInSpan), name

    # degenerate parameter choices collapse the forms to powers
    q4 = family("threefold4x4", paper.DEGENERATE_WITNESSES["threefold4x4"]).form
    t = q4.table
    assert q4 == 4 * t.var("x4") ** 4

    q8 = family("threefold8x8", paper.DEGENERATE_WITNESSES["threefold8x8"]).form
    t = q8.table
    assert q8 == 16 * t.var("x2") ** 8


def test_criterion_3_form_cross_checks():
    """Printed quartic == determinant; sextic has 11926 terms; the circulant
    determinant splits into its quadratic and quartic factors."""
    det = family("quartic4x4").form
    printed = paper.printed_form("quartic4x4")
    if printed.table != det.table:
        printed = printed.embed(det.table)
    assert printed == det

    sextic = family("sextic6x6")
    assert sextic.form.term_count() == 11926

    circ = family("sextic_circulant")
    f1, f2 = paper.circulant_factors()
    assert (circ.form - f1 * f2).is_zero()


def test_criterion_4_sequence_reproduction():
    """The five published solution tables, exactly."""
    for table in paper.SOLUTION_TABLES.values():
        assert generate_sequence(table.spec()).solutions == table.rows, \
            table.name

    # every table entry satisfies f = 1 exactly (checked independently of
    # the generator's own re-verification)
    for table in paper.SOLUTION_TABLES.values():
        for v in table.rows:
            assert table.family.evaluate(v) == 1, (table.name, v)


def test_criterion_5_group_law_suite():
    """Identity, inverse round-trip, symbolic associativity; the printed
    quartic inverse formulas at (6,2,3,1)."""
    quartic = family("quartic4x4", (5, -23, 2, -7))
    octic = family("octic8x8", (0, -5, 0, -3, 0, -14))

    for fam, x in ((quartic, (6, 2, 3, 1)),
                   (octic, (4, 2, 2, 1, 14, 7, 8, 4))):
        e = identity_element(fam.h)
        assert fam.pair_map.apply((x, e)) == x
        assert fam.pair_map.apply((e, x)) == x
        y = invert(fam.pair_map, x)
        assert fam.pair_map.apply((x, y)) == e
        assert fam.pair_map.apply((y, x)) == e

    # symbolic associativity: m(m(x,y),z) == m(x,m(y,z)) with symbolic
    # parameters and coordinates
    for name in ("quartic4x4", "octic8x8"):
        cmap = family(name).pair_map
        h = cmap.h
        xs = [f"x{i + 1}" for i in range(h)]
        ys = [f"y{i + 1}" for i in range(h)]
        zs = [f"z{i + 1}" for i in range(h)]
        table = VarTable(tuple(cmap.params) + tuple(xs + ys + zs))
        xv = [table.var(n) for n in xs]
        yv = [table.var(n) for n in ys]
        zv = [table.var(n) for n in zs]
        left = _apply_polys(cmap, [_apply_polys(cmap, [xv, yv], table), zv],
                            table)
        right = _apply_polys(cmap, [xv, _apply_polys(cmap, [yv, zv], table)],
                             table)
        assert left == right, name

    # printed inverse formulas agree with the solver at the reference point
    env = {"m": 5, "n": -23, "p": 2, "q": -7,
           "x1": 6, "x2": 2, "x3": 3, "x4": 1}
    printed_inverse = tuple(eval_int(f, env)
                            for f in paper.quartic_inverse_forms())
    assert printed_inverse == (32, -4, -8, 1)
    assert printed_inverse == invert(quartic.pair_map, (6, 2, 3, 1))


def test_criterion_6_brute_force_oracle():
    """Exhaustive search on the quartic box |x_i| <= 6 matches an
    independent enumeration and contains the reference solutions."""
    quartic = family("quartic4x4", (5, -23, 2, -7))
    found = brute_force_search(quartic, 6)

    # independent route: evaluate the printed polynomial, not the matrix
    # determinant, over the same box traversed in reverse
    printed = paper.printed_form("quartic4x4").specialize(
        {"m": 5, "n": -23, "p": 2, "q": -7})
    box = range(6, -7, -1)
    expected = set()
    for x1 in box:
        for x2 in box:
            for x3 in box:
                for x4 in box:
                    if printed.eval_vector((x1, x2, x3, x4)) == 1:
                        expected.add((x1, x2, x3, x4))
    assert set(found) == expected
    assert (1, 0, 0, 0) in expected
    assert (6, 2, 3, 1) in expected


def test_criterion_7_block_lifting_suite():
    """The lifted structures reproduce the printed 4x4 and 6x6 matrices
    entrywise, and closure class propagates through lifting."""
    # 4x4: entries transcribed from the printed matrix
    quartic = family("quartic4x4")
    M = quartic.structure.instantiate(("x1", "x2", "x3", "x4"))
    t = M.table
    m, n, p, q = (t.var(v) for v in ("m", "n", "p", "q"))
    x1, x2, x3, x4 = (t.var(v) for v in ("x1", "x2", "x3", "x4"))
    expected_rows = [
        [x1, x2, x3, x4],
        [-n * x2, x1 + m * x2, -n * x4, x3 + m * x4],
        [-q * x3, -q * x4, x1 + p * x3, x2 + p * x4],
        [q * n * x4, -q * (x3 + m * x4), -n * x2 - p * n * x4,
         x1 + m * x2 + p * (x3 + m * x4)],
    ]
    for i in range(4):
        for j in range(4):
            assert M[i, j] == expected_rows[i][j], (i, j)

    # 6x6: blocks [[A(x1..x3), A(x4..x6)], [-q*A(x4..x6), A(x1..x3)+p*A(x4..x6)]]
    sextic = family("sextic6x6")
    P = sextic.structure.instantiate(tuple(f"x{i + 1}" for i in range(6)))
    tp = P.table
    cubic = family("cubic3x3")
    A1 = embedded(cubic.structure.instantiate(("x1", "x2", "x3")), tp)
    A2 = embedded(cubic.structure.instantiate(("x4", "x5", "x6")), tp)
    pp, qq = tp.var("p"), tp.var("q")
    for i in range(3):
        for j in range(3):
            assert P[i, j] == A1[i, j], ("TL", i, j)
            assert P[i, j + 3] == A2[i, j], ("TR", i, j)
            assert P[i + 3, j] == -qq * A2[i, j], ("BL", i, j)
            assert P[i + 3, j + 3] == A1[i, j] + pp * A2[i, j], ("BR", i, j)

    # closure class propagation on the catalog's own constructions:
    # pair (x) pair stays pairwise closed; any triple-only factor makes the
    # lift triple-only
    for name in ("quartic4x4", "sextic6x6", "octic8x8"):
        fam = family(name)
        assert isinstance(fam.structure.verify_pair_closure(),
                          MultilinearMap), name
    for name in ("threefold4x4", "threefold8x8"):
        fam = family(name)
        assert isinstance(fam.structure.verify_pair_closure(),
                          NotClosed), name
        assert isinstance(fam.structure.verify_triple_closure(),
                          MultilinearMap), name
