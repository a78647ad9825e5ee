"""Solution sequences of f = 1 and the brute-force oracle."""

import hashlib
import io
import itertools
import json
import os
import signal
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import dataclass, field
from decimal import localcontext
from operator import index
from pathlib import Path
from typing import List, Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matform import dioph, polyring
from matform.catalog import FormFamily, family, list_families
from matform.cli import main
from matform.linstruct import LinearStructure
from matform.polyring import VarTable, no_int_str_limit
from matform.compose import MultilinearMap, NotAUnit, ZeroResidual, invert
from matform.dioph import (
    SearchSpaceTooLarge,
    SearchVerificationError,
    SeedNotSolution,
    SequenceSpec,
    SequenceVerificationError,
    StepNotSolution,
    brute_force_search,
    generate_sequence,
)

import paper
from companion import companion_family, companion_structure
from polytools import eval_int


GOLDEN = json.loads((Path(__file__).with_name("cli_golden.json")).read_text())


def is_solution(fam: FormFamily, v: Sequence[int]) -> bool:
    """Exact check f(v) = 1."""
    return fam.evaluate(v) == 1


def simultaneous_is_solution(q: int, v: Sequence[int]) -> bool:
    """Both equations of the simultaneous sextic system at once:
    f1(v) = 1 and f2(v) = 1 for the paper's factors of sextic_uv's form
    with parameter q."""
    env = {"q": q, **dict(zip(family("sextic_uv").coord_names, v))}
    return tuple(eval_int(f, env) for f in paper.uv_factors()) == (1, 1)


@dataclass
class MonotoneReport:
    ok: bool
    violations: List[str] = field(default_factory=list)


def check_monotone_positive(solutions: Sequence[Sequence[int]],
                            increasing: Sequence[int] = (0,),
                            positive: Optional[Sequence[int]] = None
                            ) -> MonotoneReport:
    """Check strict growth of the designated coordinates and positivity of
    the designated coordinate set (all coordinates by default)."""
    report = MonotoneReport(ok=True)
    seq = [tuple(map(index, v)) for v in solutions]
    if positive is None:
        pos: Sequence[int] = range(len(seq[0])) if seq else ()
    else:
        pos = positive
    for i, v in enumerate(seq):
        for j in pos:
            if v[j] <= 0:
                report.ok = False
                report.violations.append(
                    f"solution {i}: coordinate {j + 1} = {v[j]} not positive")
        if i > 0:
            for j in increasing:
                if v[j] <= seq[i - 1][j]:
                    report.ok = False
                    report.violations.append(
                        f"solution {i}: coordinate {j + 1} did not increase "
                        f"({seq[i - 1][j]} -> {v[j]})")
    return report


QUARTIC = family("quartic4x4", (5, -23, 2, -7))
OCTIC = family("octic8x8", (0, -5, 0, -3, 0, -14))

QUARTIC_SEQ = [
    (6, 2, 3, 1),
    (352, 121, 192, 66),
    (22336, 7680, 12215, 4200),
    (1420011, 488257, 776628, 267036),
]

OCTIC_SEQ = [
    (4, 2, 2, 1, 14, 7, 8, 4),
    (12285, 5460, 7092, 3152, 468, 208, 270, 120),
    (578740, 258910, 334134, 149481, 729790, 326485, 421344, 188496),
    (612075793, 273723336, 353382120, 158034240,
     45691800, 20433600, 26380172, 11797344),
]

UV_SEQ = [
    (2, 1, 3, -1, 3, -4),
    (7, 4, 67, 20, 20, -30),
    (26, 15, 459, 525, -255, 459),
    (97, 56, -6240, 3640, -7224, 12577),
]

T4_SEQ = [
    (21, 8, 33, 13),
    (2462, 961, 3983, 1555),
    (294753, 115068, 476920, 186184),
    (35291917, 13777548, 57103521, 22292541),
]

T8_SEQ = [
    (2, 6, 1, 3, 7, 21, 4, 12),
    (13650, 45045, 7880, 26004, 520, 1716, 300, 990),
    (1660070, 5482800, 958437, 3165480,
     2093345, 6913800, 1208592, 3991680),
    (4520236757, 14929326951, 2609759880, 8619450840,
     337438200, 1114482600, 194820028, 643446804),
]


class TestIsSolution:
    def test_reference_solutions(self):
        assert is_solution(QUARTIC, (6, 2, 3, 1))
        assert is_solution(QUARTIC, (1, 0, 0, 0))
        assert is_solution(OCTIC, (4, 2, 2, 1, 14, 7, 8, 4))
        assert not is_solution(QUARTIC, (1, 1, 1, 1))

    def test_simultaneous(self):
        assert simultaneous_is_solution(3, (2, 1, 3, -1, 3, -4))
        assert simultaneous_is_solution(3, (1, 0, 0, 0, 0, 0))
        assert not simultaneous_is_solution(3, (2, 1, 0, 0, 0, 0))


class TestRecords:
    def test_spec_by_keyword_with_default_order(self):
        spec = SequenceSpec(family=QUARTIC, seed=(6, 2, 3, 1), count=4,
                            partners=((6, 2, 3, 1),))
        assert spec.order is None
        assert spec == SequenceSpec(QUARTIC, (6, 2, 3, 1), 4,
                                    ((6, 2, 3, 1),), None)
        with pytest.raises(AttributeError):
            spec.count = 5

    def test_solutions_is_a_replay_and_results_compare_by_field(self):
        spec = SequenceSpec(family=QUARTIC, seed=(6, 2, 3, 1), count=4,
                            partners=((6, 2, 3, 1),))
        a, b = generate_sequence(spec), generate_sequence(spec)
        assert a == b
        first = a.solutions
        assert first == QUARTIC_SEQ and first is not a.solutions
        first.append((1, 0, 0, 0))
        assert a.solutions == QUARTIC_SEQ and a == b
        with pytest.raises(AttributeError):
            a.solutions = []
        fields = {f: getattr(a, f) for f in dioph.SequenceResult.__slots__}
        assert dioph.SequenceResult(**fields) == a
        for f, other in [("spec", spec._replace(count=3)),
                         ("step", a.step[1:]),
                         ("proof", "expand"),
                         ("seed", (1, 0, 0, 0)),
                         ("evaluated", 1),
                         ("last", QUARTIC_SEQ[2])]:
            assert dioph.SequenceResult(**{**fields, f: other}) != a, f
        assert a.last == QUARTIC_SEQ[-1] and a.certified


class TestSequences:
    def test_quartic_reference_table(self):
        r = generate_sequence(SequenceSpec(
            family=QUARTIC, seed=(6, 2, 3, 1), count=4,
            partners=((6, 2, 3, 1),)))
        assert r.solutions == QUARTIC_SEQ

    def test_octic_reference_table(self):
        r = generate_sequence(SequenceSpec(
            family=OCTIC, seed=OCTIC_SEQ[0], count=4,
            partners=(OCTIC_SEQ[0],)))
        assert r.solutions == OCTIC_SEQ

    def test_simultaneous_sextic_reference_table(self):
        fam = family("sextic_uv", (3,))
        r = generate_sequence(SequenceSpec(
            family=fam, seed=UV_SEQ[0], partners=(UV_SEQ[0],), count=4))
        assert r.solutions == UV_SEQ
        for v in r.solutions:
            assert simultaneous_is_solution(3, v)

    def test_threefold4x4_reference_table(self):
        fam = family("threefold4x4", (-1, -4, 1, -1, 1, 1))
        e = (1, 0, 0, 0)
        r = generate_sequence(SequenceSpec(
            family=fam, seed=T4_SEQ[0], count=4,
            partners=(e, T4_SEQ[0])))
        assert r.solutions == T4_SEQ

    def test_threefold8x8_reference_table(self):
        fam = family("threefold8x8", (3, -1, 0, -3, 0, -14, 1))
        e = (1, 0, 0, 0, 0, 0, 0, 0)
        r = generate_sequence(SequenceSpec(
            family=fam, seed=T8_SEQ[0], count=4,
            partners=(e, T8_SEQ[0])))
        assert r.solutions == T8_SEQ

    def test_bad_seed_rejected(self):
        with pytest.raises(SeedNotSolution):
            generate_sequence(SequenceSpec(
                family=QUARTIC, seed=(1, 1, 1, 1), count=2,
                partners=((6, 2, 3, 1),)))

    def test_bad_step_rejected(self):
        with pytest.raises(StepNotSolution):
            generate_sequence(SequenceSpec(
                family=QUARTIC, seed=(6, 2, 3, 1), count=2,
                partners=((1, 1, 1, 1),)))

    def test_negative_count_rejected(self):
        # before the seed, which is no solution here, is evaluated
        with pytest.raises(ValueError, match="count must be >= 0, got -1"):
            generate_sequence(SequenceSpec(
                family=QUARTIC, seed=(1, 1, 1, 1), count=-1,
                partners=((6, 2, 3, 1),)))

    @pytest.mark.parametrize("partners, order", [
        ((), None),
        (((6, 2, 3, 1),) * 3, None),
        (((6, 2, 3, 1),), (0, 0)),
        (((6, 2, 3, 1),), (0, 1, 2)),
    ])
    def test_malformed_spec_rejected(self, partners, order):
        with pytest.raises(ValueError):
            generate_sequence(SequenceSpec(
                QUARTIC, (6, 2, 3, 1), 2, partners, order))

    def test_json_wire_format(self):
        r = generate_sequence(SequenceSpec(
            family=QUARTIC, seed=(6, 2, 3, 1), count=2,
            partners=((6, 2, 3, 1),)))
        out = io.StringIO()
        r.write_json(out)
        obj = json.loads(out.getvalue())
        assert obj["family"] == "quartic4x4"
        assert obj["params"] == ["5", "-23", "2", "-7"]
        assert obj["mode"] == "pairwise"
        assert obj["solutions"][1] == ["352", "121", "192", "66"]
        assert obj["verified"] is True

    def test_deterministic(self):
        spec = SequenceSpec(family=QUARTIC, seed=(6, 2, 3, 1),
                            partners=((6, 2, 3, 1),), count=4)
        assert generate_sequence(spec).solutions \
            == generate_sequence(spec).solutions


T4 = family("threefold4x4", (-1, -4, 1, -1, 1, 1))
E4 = (1, 0, 0, 0)
T8 = family("threefold8x8", (3, -1, 0, -3, 0, -14, 1))
E8 = (1,) + (0,) * 7
TQ = family("threefold_quadratic", (1, 0, -2))  # x1^2 - 2*x2^2
TQ_SEED = (3, 2)
E2 = (1, 0)


def bumped(cmap, key):
    """cmap with the coefficient at `key` increased by one."""
    coeff = dict(cmap.coeff)
    one = cmap.param_table.const(1)
    coeff[key] = coeff[key] + one if key in coeff else one
    return MultilinearMap(cmap.k, cmap.h, cmap.params, coeff)


def printed(fam):
    """f at a point, term by term from the paper's printed form."""
    form = paper.printed_form(fam.name).specialize(
        dict(zip(fam.param_names, fam.param_values)))

    def f(v):
        env = dict(zip(fam.coord_names, v))
        return form.eval_vector([env[n] for n in form.table.names])
    return f


@pytest.fixture
def evaluations(monkeypatch):
    """Every point FormFamily.evaluate is called on, in call order."""
    seen = []
    evaluate = FormFamily.evaluate

    def counting(self, point):
        seen.append(tuple(point))
        return evaluate(self, point)
    monkeypatch.setattr(FormFamily, "evaluate", counting)
    return seen


class TestIterateCertificate:
    """A chain rests on the family's composition identity, proven once
    (`FormFamily.verify`, by its derivation for the family's own law): a
    map it does not prove raises before any iterate.  Besides the seed
    and the partners, only the last iterate is evaluated."""

    @pytest.mark.parametrize("name, params, seed, key", [
        ("quartic4x4", (5, -23, 2, -7), QUARTIC_SEQ[0], (0, (0, 0))),
        ("sextic_uv", (3,), UV_SEQ[0], (0, (0, 0))),
    ])
    def test_mutated_pair_map_fails_before_any_iterate(
            self, monkeypatch, evaluations, name, params, seed, key):
        fam = family(name, params)
        bad = bumped(fam.pair_map, key)
        monkeypatch.setattr(FormFamily, "pair_map", property(lambda self: bad))
        with pytest.raises(SequenceVerificationError,
                           match="composition identity fails"):
            generate_sequence(SequenceSpec(
                family=fam, seed=seed, partners=(seed,), count=4))
        assert evaluations == [seed, seed]  # seed and partner only

    def test_mutated_triple_map_fails_before_any_iterate(self, monkeypatch,
                                                         evaluations):
        fam = TQ.specialize(TQ.param_values)  # patched below
        bad = bumped(fam.triple_map(), (0, (0, 0, 0)))
        monkeypatch.setattr(fam, "triple_map", lambda: bad)
        with pytest.raises(SequenceVerificationError,
                           match="composition identity fails"):
            generate_sequence(SequenceSpec(
                family=fam, seed=TQ_SEED, count=4, partners=(E2, TQ_SEED)))
        assert evaluations == [TQ_SEED, E2, TQ_SEED]

    def test_another_map_is_proven_at_the_values(self, monkeypatch,
                                                 evaluations):
        # Every catalog pair law is commutative, so a pair map with its
        # arguments swapped is the same map.  The trilinear law is not:
        # map(y, x, z) still has f = 1 but is not the family's law, so it
        # is proven by expanding its identity at these values.
        fam = TQ.specialize(TQ.param_values)  # patched below
        cmap = fam.triple_map()
        swapped = MultilinearMap(3, 2, (), {
            (i, (j2, j1, j3)): c for (i, (j1, j2, j3)), c in cmap.coeff.items()})
        assert fam.verify(swapped) == ZeroResidual("expand",
                                                   "whole form expanded")
        monkeypatch.setattr(fam, "triple_map", lambda: swapped)
        r = generate_sequence(SequenceSpec(
            family=fam, seed=TQ_SEED, count=6, partners=(E2, TQ_SEED)))
        assert evaluations == [TQ_SEED, E2, TQ_SEED, r.solutions[-1]]
        assert (r.proof, r.evaluated) == ("expand", 2)
        assert r.solutions[1] != generate_sequence(SequenceSpec(
            TQ, TQ_SEED, 2, (E2, TQ_SEED))).solutions[1]
        assert all(x * x - 2 * y * y == 1 for x, y in r.solutions)

    def test_proven_iterates_are_not_evaluated(self, evaluations):
        r = generate_sequence(SequenceSpec(
            family=QUARTIC, seed=QUARTIC_SEQ[0], partners=(QUARTIC_SEQ[0],),
            count=50))
        assert r.solutions[:4] == QUARTIC_SEQ
        assert evaluations == [QUARTIC_SEQ[0], QUARTIC_SEQ[0],
                               r.solutions[-1]]  # seed, partner, last
        assert (r.proof, r.evaluated) == ("matrix", 2)
        assert printed(QUARTIC)(r.solutions[-1]) == 1

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_every_slot_order_is_proven(self, order, evaluations):
        # a second solution besides the seed, so no slot holds (1, 0, 0, 0)
        r = generate_sequence(SequenceSpec(
            family=T4, seed=T4_SEQ[0], count=6,
            partners=((-4, 1, -3, 3), T4_SEQ[0]), order=order))
        assert len(evaluations) == 4  # seed, two partners, last
        assert r.proof == "matrix"
        f = printed(T4)
        assert all(f(v) == 1 for v in r.solutions)

    def test_family_without_matrix_is_proven_by_its_closure(self,
                                                            evaluations):
        # threefold_quadratic has no integer matrix: its structure is in
        # (t, b, c), not in (a, b, c), and its closure proves its law
        r = generate_sequence(SequenceSpec(
            family=TQ, seed=TQ_SEED, partners=(E2, TQ_SEED), count=4))
        assert evaluations == [TQ_SEED, E2, TQ_SEED, r.solutions[-1]]
        assert (r.proof, r.evaluated) == ("matrix", 2)
        f = paper.threefold_quadratic_form().specialize(
            dict(zip(TQ.param_names, TQ.param_values)))
        assert all(f.eval_vector(list(v)) == 1 for v in r.solutions)

    @pytest.mark.parametrize("count", [0, 1])
    def test_chain_without_a_step_is_its_evaluated_seed(self, count):
        r = generate_sequence(SequenceSpec(
            QUARTIC, QUARTIC_SEQ[0], count, (QUARTIC_SEQ[0],)))
        assert (r.proof, r.evaluated) == ("matrix", count)

    # the six families of the golden `solve` argvs, with their partners
    @pytest.mark.parametrize("fam, seed, partners, order, proof", [
        pytest.param(QUARTIC, QUARTIC_SEQ[0], (QUARTIC_SEQ[0],), None,
                     "matrix", id="quartic4x4"),
        pytest.param(OCTIC, OCTIC_SEQ[0], (OCTIC_SEQ[0],), None, "matrix",
                     id="octic8x8"),
        pytest.param(family("sextic_uv", (3,)), UV_SEQ[0], (UV_SEQ[0],),
                     None, "matrix", id="sextic_uv"),
        pytest.param(T8, T8_SEQ[0], (E8, T8_SEQ[0]), None, "matrix",
                     id="threefold8x8"),
        pytest.param(TQ, TQ_SEED, (E2, TQ_SEED), (2, 1, 0), "matrix",
                     id="threefold_quadratic-zyx"),
        *[pytest.param(T4, T4_SEQ[0], ((-4, 1, -3, 3), T4_SEQ[0]), order,
                       "matrix",
                       id="threefold4x4-" + "".join("xyz"[s] for s in order))
          for order in itertools.permutations(range(3))],
    ])
    def test_proof_cost_does_not_grow_with_count(self, evaluations, fam,
                                                 seed, partners, order,
                                                 proof):
        for count in (50, 500):
            evaluations.clear()
            r = generate_sequence(SequenceSpec(fam, seed, count, partners,
                                               order))
            assert (r.proof, r.evaluated) == (proof, 2)
            assert evaluations == [seed, *partners, r.solutions[-1]]

    @pytest.mark.parametrize("fam, seed, partners, certified", [
        (QUARTIC, QUARTIC_SEQ[0], (QUARTIC_SEQ[0],), True),
        (T4, T4_SEQ[0], (E4, T4_SEQ[0]), True),
        (family("sextic_uv", (3,)), UV_SEQ[0], (UV_SEQ[0],), False),
    ], ids=["quartic4x4", "threefold4x4", "sextic_uv"])
    def test_wrong_integer_step_at_a_middle_iterate_raises(
            self, monkeypatch, fam, seed, partners, certified):
        """A slip in the binary powering raises, on a certified chain and
        on one that is not (sextic_uv's).  A chain of 12 iterates takes its
        last as S^11 seed, with S^11 = ((S^2)^2 S)^2 S: the slip is in the
        third product, S^5, the power that takes the seed to iterate 5."""
        assert generate_sequence(SequenceSpec(
            fam, seed, 2, partners)).certified is certified
        real, results = dioph._product, []

        def slip(*args):
            results.append(real(*args))
            M = results[-1]
            return ((M[0][0] + 1,) + M[0][1:],) + M[1:] \
                if len(results) == 3 else M
        monkeypatch.setattr(dioph, "_product", slip)
        with pytest.raises(SequenceVerificationError, match="fails f = 1"):
            generate_sequence(SequenceSpec(fam, seed, 12, partners))
        assert len(results) >= 3  # the slip happened


Q2 = family("quad2x2", (0, -2))  # x1^2 - 2*x2^2


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int/str digit limit on this Python")
class TestErrorsPastTheDigitLimit:
    """Library errors that name a value past CPython's int/str digit
    limit (4300 by default) are still their own class, not the ValueError
    of the conversion.  f(10^2200, 1) = 10^4400 - 2 has 4400 digits."""

    BIG = (10 ** 2200, 1)
    F_BIG = r"9{4399}8"

    @pytest.fixture(autouse=True)
    def default_limit(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield
        sys.set_int_max_str_digits(limit)

    def test_seed(self):
        with pytest.raises(SeedNotSolution, match=f"= {self.F_BIG} != 1$"):
            generate_sequence(SequenceSpec(Q2, self.BIG, 3, ((3, 2),)))

    def test_step(self):
        with pytest.raises(StepNotSolution, match=f"= {self.F_BIG} != 1$"):
            generate_sequence(SequenceSpec(Q2, (3, 2), 3, (self.BIG,)))

    @pytest.mark.parametrize("partner", [(3, 2), (3, -2)],
                             ids=["certified", "exact"])
    def test_iterate(self, monkeypatch, partner):
        """A wrong last iterate from binary powering, where
        S = [[3, 4], [2, 3]] is certified and where S = [[3, -4], [-2, 3]]
        is not."""
        monkeypatch.setattr(dioph, "_power", lambda *args: (10 ** 4400, 1))
        with pytest.raises(SequenceVerificationError,
                           match=r"iterate 1 fails f = 1: \(10{4400}, 1\)$"):
            generate_sequence(SequenceSpec(Q2, (3, 2), 2, (partner,)))

    def test_search_hit(self, monkeypatch):
        monkeypatch.setattr(FormFamily, "evaluate",
                            lambda self, point: 10 ** 4400)
        with pytest.raises(SearchVerificationError,
                           match=r"has f = 10{4400} != 1$"):
            brute_force_search(Q2, 1)

    def test_invert(self):
        with pytest.raises(NotAUnit, match="non-integral inverse component"):
            invert(Q2.pair_map, self.BIG)


@pytest.mark.parametrize("call", [
    lambda: family("quad2x2", (0.5, -2)),
    lambda: Q2.evaluate((1.5, 0)),
    lambda: family("threefold_quadratic", (1, 0, -2)).evaluate((1.5, 0)),
    lambda: Q2.structure.matrix_of((1.5, 0)),
    lambda: Q2.pair_map.apply(((1.5, 0), (1, 0))),
    lambda: Q2.pair_map.argument_matrix(((1.5, 0), None), 1),
    lambda: generate_sequence(SequenceSpec(Q2, (3.0, 2), 2, ((3, 2),))),
    lambda: generate_sequence(SequenceSpec(Q2, (3, 2), 2, ((3.0, 2),))),
    lambda: brute_force_search(Q2, 1.5),
    lambda: brute_force_search(Q2, 1, target=1.5),
    lambda: family("quad2x2").pair_map.specialize((0.5, -2)),
    lambda: family("quad2x2").structure.specialize((0.5, -2)),
    lambda: companion_structure((0.7, 5)),
    lambda: check_monotone_positive([(1.5, 2), (2.2, 3)]),
], ids=["specialize", "evaluate", "evaluate-form", "matrix_of", "apply",
        "argument_matrix", "sequence-seed", "sequence-partner", "search",
        "search-target",
        "map-specialize", "structure-specialize", "companion", "monotone"])
def test_non_integer_input_is_rejected(call):
    """A float is never truncated to an integer: it raises TypeError."""
    with pytest.raises(TypeError):
        call()


class TestPrintedChain:
    """The printed chain is a Decimal replay of the proven one: the same
    step matrix from the same seed, checked digit by digit at the tail."""

    def test_last_quartic_iterate_matches_str_of_the_int(self):
        r = generate_sequence(SequenceSpec(
            QUARTIC, QUARTIC_SEQ[0], 2600, (QUARTIC_SEQ[0],)))
        *_, last = r.rows()
        with no_int_str_limit():
            assert last == [str(c) for c in r.solutions[-1]]
        assert len(last[0]) > 4300

    @pytest.mark.parametrize("count", [0, 1])
    def test_short_chains(self, capsys, count):
        r = generate_sequence(SequenceSpec(
            QUARTIC, QUARTIC_SEQ[0], count, (QUARTIC_SEQ[0],)))
        assert list(r.rows()) == [["6", "2", "3", "1"]][:count]
        out = io.StringIO()
        r.write_json(out)
        assert json.loads(out.getvalue())["solutions"] \
            == [["6", "2", "3", "1"]][:count]
        argv = ["solve", "--family", "quartic4x4", "--params=5,-23,2,-7",
                "--seed", "6,2,3,1", "--step", "6,2,3,1",
                "--count", str(count), "--format", "text"]
        assert main(argv) == 0
        assert capsys.readouterr().out == ("6,2,3,1\n" if count else "\n")

    def test_seed_row_prints_the_int_seed(self):
        r = generate_sequence(SequenceSpec(Q2, (True, False), 3, ((3, 2),)))
        assert list(r.rows()) == [["1", "0"], ["3", "2"], ["17", "12"]]
        assert r.solutions[0] == (1, 0)
        assert all(type(c) is int for c in r.solutions[0])

    @pytest.mark.parametrize("seed, partner", [
        ((1, 0), (-1, 0)),   # S = -I: every step multiplies a 0 by -1
        ((3, 2), (3, -2)),   # through (1, 0) to negative coordinates
    ])
    def test_zero_and_negative_coordinates(self, seed, partner):
        r = generate_sequence(SequenceSpec(Q2, seed, 6, (partner,)))
        rows = list(r.rows())
        assert rows == [[str(c) for c in v] for v in r.solutions]
        assert any(c == "0" for row in rows for c in row)
        assert any(c.startswith("-") for row in rows for c in row)
        assert all(c != "-0" for row in rows for c in row)

    @pytest.mark.parametrize("argv", [
        "--family quartic4x4 --params=5,-23,2,-7 --seed 6,2,3,1 "
        "--step 6,2,3,1 --count 30",
        "--family quad2x2 --params=0,-2 --seed 1,0 --step=-1,0 --count 5",
        "--family threefold4x4 --params=-1,-4,1,-1,1,1 --seed 21,8,33,13 "
        "--fixed 1,0,0,0 --step=-4,1,-3,3 --order zxy --count 12",
    ])
    def test_text_rows_equal_json_rows(self, capsys, argv):
        assert main(["solve", *argv.split(), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["solutions"]
        assert main(["solve", *argv.split(), "--format", "text"]) == 0
        text = capsys.readouterr().out
        assert text.endswith("\n")
        assert [line.split(",") for line in text[:-1].split("\n")] == rows

    @pytest.mark.parametrize("diverge, at", [
        (lambda d: d + 1, 1), (lambda d: -d, 1), (lambda d: d + 10 ** 30, 1),
        (lambda d: d + 10 ** 60, 3),
    ], ids=["last-digit", "sign", "high-digit", "digit-61"])
    @pytest.mark.parametrize("fam, seq", [(QUARTIC, QUARTIC_SEQ),
                                          (family("sextic_uv", (3,)), UV_SEQ)],
                             ids=["quartic4x4", "sextic_uv"])
    def test_printed_chain_diverging_from_proven_raises(self, monkeypatch,
                                                        fam, seq, diverge,
                                                        at):
        """The printout is checked against the proven ints, mod 2**60 on
        a certified chain (quartic4x4) and exactly on one that is not
        (sextic_uv): a printed value off in its last digit, its sign or
        its 31st digit from the end raises at the iterate where it is
        printed.  The 31st keeps the last 18 digits, so only a residue of
        more digits catches it.  An error of 10**60 in the last iterate
        keeps every residue mod 2**60, since 2**60 divides it, and the
        exact comparison of the last iterate catches it."""
        printed = dioph._printed

        def off(step, seed, count):  # the printout's Decimal iterates
            for i, w in enumerate(printed(step, seed, count)):
                if i == at:
                    with localcontext(dioph._EXACT):
                        w = (diverge(w[0]),) + w[1:]
                yield w
        monkeypatch.setattr(dioph, "_printed", off)
        r = generate_sequence(SequenceSpec(fam, seq[0], 4, (seq[0],)))
        assert r.solutions == seq  # the proof ran over ints
        where = "iterate 3: " if at == 3 else "iterate 1, coordinate 1"
        with pytest.raises(SequenceVerificationError, match=where):
            r.write_json(io.StringIO())

    @pytest.mark.parametrize("step, seed", [
        (None, UV_SEQ[0]),           # sextic_uv's S: 13 of its 36 entries 0
        (((0, 1), (-1, 0)), (1, 0)),  # a rotation: every row half zeros
    ], ids=["sextic_uv", "rotation"])
    def test_printed_dense_step_prints_no_negative_zero(self, step, seed):
        """`_printed` steps every entry of S, zeros included, so a zero
        entry times a negative coordinate is Decimal -0; each sum starts at
        the int 0, and every string is str of the exact int, never
        "-0"."""
        if step is None:
            step = generate_sequence(SequenceSpec(
                family("sextic_uv", (3,)), seed, 2, (seed,))).step
            assert sum(c == 0 for row in step for c in row) == 13
        rows = [[str(c) for c in v] for v in dioph._printed(step, seed, 30)]
        assert rows == [[str(c) for c in v]
                        for v in dioph._iterates(step, seed, 30)]
        assert any(c.startswith("-") for row in rows for c in row)
        assert all(c != "-0" for row in rows for c in row)

    @pytest.mark.parametrize("fam, seq", [(QUARTIC, QUARTIC_SEQ),
                                          (family("sextic_uv", (3,)), UV_SEQ)],
                             ids=["quartic4x4", "sextic_uv"])
    def test_a_proven_chain_one_iterate_short_raises(self, monkeypatch, fam,
                                                     seq):
        """The exact comparison with the last iterate runs at the last
        index, so an int recurrence one iterate shorter than the printed
        chain must not end the printout early without it: the rows raise
        where the two runs part."""
        iterates = dioph._iterates

        def short(step, seed, count, mask=-1):
            return iterates(step, seed, count - 1, mask)
        monkeypatch.setattr(dioph, "_iterates", short)
        r = generate_sequence(SequenceSpec(fam, seq[0], 4, (seq[0],)))
        rows = []
        with pytest.raises(ValueError):
            rows.extend(r.rows())
        assert rows == [[str(c) for c in v] for v in seq[:3]]

    @pytest.mark.parametrize("v", [
        0, 7, -7, 10 ** 18 - 1, 10 ** 18, -10 ** 18,
        3 * 10 ** 40 + 10 ** 17 + 9, -(3 * 10 ** 40 + 10 ** 17 + 9),
        2 ** 60, -2 ** 60, 2 ** 60 - 1])
    def test_key_is_the_sign_and_the_residue_mod_2_to_the_60(self, v):
        """`_check_printed` reads the sign and |v| mod 2**60 of the proven
        int, given exactly or, for v > 0, as its residue mod 2**60 (the
        recurrence mod 2**60 of a certified chain)."""
        for proven in [v] + [v % 2 ** 60] * (v > 0):
            dioph._check_printed(0, [str(v)], (proven,))
            digit_18 = 10 ** 17 if v >= 0 else -10 ** 17  # keeps the sign
            for wrong in (str(-v) if v else "-0", str(v + digit_18)):
                with pytest.raises(SequenceVerificationError):
                    dioph._check_printed(0, [wrong], (proven,))

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(st.integers(-10 ** 3000, 10 ** 3000)
           | st.integers(0, 3000).flatmap(
               lambda n: st.integers(-10 ** n, 10 ** n)),  # every length
           st.integers(19, 57), st.integers(1, 9))
    def test_printed_check_catches_every_low_digit_change(self, v, far,
                                                          shift):
        """`_check_printed`, given the proven int exactly or, for v > 0,
        as its residue mod 2**60, accepts str(v) and refuses a flipped
        sign, every one-digit change among the last 18 digits, an error
        of 2**59 (below 10**18, and a multiple of 2**59, so a mask of
        fewer than 60 bits would miss it) that keeps the sign, and a
        one-digit change at position `far` from the end (19..57) where v
        has it."""
        text = str(v)
        sign, digits = ("-", text[1:]) if v < 0 else ("", text)

        def changed(p, d):  # digit p from the end set to d
            k = len(digits) - p
            return sign + digits[:k] + d + digits[k + 1:]
        wrongs = [str(-v) if v else "-0"]
        for p in range(1, min(18, len(digits)) + 1):
            wrongs += [changed(p, d) for d in "0123456789" if d != digits[-p]]
        if far <= len(digits):
            wrongs.append(changed(far, str((int(digits[-far]) + shift) % 10)))
        d = 2 ** 59 if v >= 0 else -2 ** 59  # away from 0: keeps the sign
        wrongs.append(str(v + d))
        if abs(v) > 2 ** 59:
            wrongs.append(str(v - d))
        for proven in [v] + [v % 2 ** 60] * (v > 0):
            dioph._check_printed(0, [text], (proven,))
            for wrong in wrongs:
                with pytest.raises(SequenceVerificationError):
                    dioph._check_printed(0, [wrong], (proven,))

    def test_quartic_json_is_written_in_byte_bounded_chunks(self):
        """The 2600-iterate quartic's JSON is the golden CLI stdout, written
        in at most ceil(bytes / chunk) + 1 calls: every call but the last
        holds at least one chunk, and none holds more than a chunk and one
        row."""
        class Counting:
            def __init__(self):
                self.calls = []

            def write(self, text):
                self.calls.append(text)
                return len(text)
        out = Counting()
        generate_sequence(SequenceSpec(
            QUARTIC, QUARTIC_SEQ[0], 2600, (QUARTIC_SEQ[0],))).write_json(out)
        text = "".join(out.calls)
        argv = ("solve --family quartic4x4 --params=5,-23,2,-7 "
                "--seed 6,2,3,1 --step 6,2,3,1 --count 2600")
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[argv][1]
        chunk = polyring._CHUNK
        assert len(out.calls) <= -(-len(text) // chunk) + 1
        assert all(len(c) >= chunk for c in out.calls[:-1])
        longest = max(len(", " + json.dumps(row))
                      for row in json.loads(text)["solutions"])
        assert all(len(c) < chunk + longest for c in out.calls)

    def test_peak_memory_is_not_quadratic_in_the_count(self, monkeypatch,
                                                       split):
        """The chain keeps no per-iterate state, only its current and last
        iterates, and the text of the range printed by another process
        waits in a file of at most _HELD_TEXT characters: from 300 to 1200
        iterates, split at the cut, the traced peak plus that file
        grows far less than the 16x of holding every iterate (the ints
        take count^2 digits)."""
        class Null:
            def write(self, text):
                return len(text)

        split()
        monkeypatch.setattr(dioph, "_HELD_TEXT", 2 ** 16)
        held, read = [], dioph._read

        def counted(fd, size):
            held.append(os.fstat(fd).st_size)
            return read(fd, size)
        monkeypatch.setattr(dioph, "_read", counted)

        def peak(count):
            held.clear()
            tracemalloc.start()
            try:
                generate_sequence(SequenceSpec(
                    QUARTIC, QUARTIC_SEQ[0], count, (QUARTIC_SEQ[0],))
                ).write_json(Null())
                assert len(held) == 1 and held[0] <= dioph._HELD_TEXT
                return tracemalloc.get_traced_memory()[1] + held[0]
            finally:
                tracemalloc.stop()

        peak(2)  # the law is derived once per family
        assert peak(1200) < 6 * peak(300)

    @pytest.mark.parametrize("spec", [
        SequenceSpec(OCTIC, OCTIC_SEQ[0], 40, (OCTIC_SEQ[0],)),
        SequenceSpec(OCTIC, OCTIC_SEQ[0], 40, (OCTIC_SEQ[0],), order=(1, 0)),
        *(SequenceSpec(T4, T4_SEQ[0], 6, ((-4, 1, -3, 3), T4_SEQ[0]),
                       order=order)
          for order in itertools.permutations(range(3)))],
        ids=["octic", "octic-yx", *("t4-" + "".join(map(str, o))
                                    for o in itertools.permutations(range(3)))])
    def test_step_matrix_is_the_map_at_unit_vectors(self, spec):
        r = generate_sequence(spec)
        fam = spec.family
        cmap = fam.pair_map if len(spec.partners) == 1 else fam.triple_map()
        order = spec.order or tuple(range(cmap.k))
        slots = [None, *spec.partners]
        columns = []
        for j in range(cmap.h):
            slots[0] = tuple(int(i == j) for i in range(cmap.h))
            columns.append(cmap.apply([slots[s] for s in order]))
        assert r.step == tuple(zip(*columns))
        for v, w in zip(r.solutions, r.solutions[1:]):
            assert w == tuple(sum(c * x for c, x in zip(row, v))
                              for row in r.step)


SOLVE_ARGVS = [a for a in GOLDEN  # the chains printed, not the usage errors
               if a.startswith("solve ") and GOLDEN[a][0] == 0]
UV = family("sextic_uv", (3,))


@pytest.fixture
def split(monkeypatch):
    """force() makes every printout of 2 iterates or more split at its cut,
    the second range printed by its own process, whatever the machine: 2
    CPUs and a range cost of one digit; force(cpus=1) makes every printout
    one range."""
    def force(cpus=2):
        monkeypatch.setattr(dioph.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        monkeypatch.setattr(dioph, "_RANGE_DIGITS", 1)
    return force


def process_statuses(monkeypatch) -> list:
    """The wait statuses of the processes the printout reaps, as exit
    codes, in the order they are reaped."""
    codes, waitpid = [], os.waitpid

    def spy(pid, options):
        got = waitpid(pid, options)
        codes.append(os.waitstatus_to_exitcode(got[1]))
        return got
    monkeypatch.setattr(dioph.os, "waitpid", spy)
    return codes


def in_a_range_process(parent: int) -> bool:
    """Whether this is a process the printout forked from `parent`."""
    return os.getpid() != parent


def chain(fam, seed, count) -> dioph.SequenceResult:
    return generate_sequence(SequenceSpec(fam, seed, count, (seed,)))


class TestPrintedRanges:
    """A long printout is split at one cut: the range after it is printed
    by its own process, one int step past the proven iterate before the
    cut, and each range ends in an exact check; stdout is the same split
    or not."""

    @pytest.mark.parametrize("cpus", [2, 1], ids=["split", "unsplit"])
    @pytest.mark.parametrize("argv", SOLVE_ARGVS)
    def test_stdout_is_the_golden_stdout(self, capsys, monkeypatch, split,
                                         cpus, argv):
        split(cpus)
        cuts = []
        cut = dioph.SequenceResult._cut

        def spy(self):
            cuts.append(cut(self))
            return cuts[-1]
        monkeypatch.setattr(dioph.SequenceResult, "_cut", spy)
        code = main(argv.split(" "))
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert [code, digest] == GOLDEN[argv]
        [c] = cuts
        count = int(argv.split("--count ")[1].split(" ")[0])
        assert 0 < c < count if cpus > 1 and count > 1 else c == count

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("count", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("fam, seq", [(QUARTIC, QUARTIC_SEQ),
                                          (UV, UV_SEQ)],
                             ids=["quartic4x4", "sextic_uv"])
    def test_short_chains_print_the_same_split_or_not(self, split, fam, seq,
                                                      count, fmt):
        """Counts 0 and 1 stay one range; from 2 on the cut falls inside
        the chain, and stdout is the one-range printout's."""
        r = chain(fam, seq[0], count)
        texts = []
        for cpus in (1, 2):
            split(cpus)
            cut = r._cut()
            assert 0 < cut < count if cpus > 1 and count > 1 else \
                cut == count
            out = io.StringIO()
            getattr(r, "write_" + fmt)(out)
            texts.append(out.getvalue())
        assert texts[0] == texts[1]
        if fmt == "text":
            assert texts[0] == ("".join(
                ",".join(map(str, v)) + "\n" for v in seq[:count]) or "\n")

    @pytest.mark.parametrize("cpus", [1, 2, 64])
    def test_one_cut_whatever_the_cpus(self, monkeypatch, cpus):
        """The 2600-iterate quartic (24 MB) is cut once given 2 CPUs or
        more, however many there are, and not at all given one; the file
        of its second range (13 MB) is under _HELD_TEXT, so the cut is the
        one without that bound."""
        monkeypatch.setattr(dioph.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        r = chain(QUARTIC, QUARTIC_SEQ[0], 2600)
        cut = r._cut()
        assert cut == (2600 if cpus < 2 else 1767)
        monkeypatch.setattr(dioph, "_HELD_TEXT", 10 ** 30)
        assert r._cut() == cut

    @pytest.mark.parametrize("fam, seq, count, cut", [
        (QUARTIC, QUARTIC_SEQ, 2600, 1767), (OCTIC, OCTIC_SEQ, 700, 450)],
        ids=["quartic4x4-2600", "octic8x8-700"])
    def test_the_benchmark_chains_cut_where_they_did(self, monkeypatch, fam,
                                                     seq, count, cut):
        """The two chains of the benchmark that split, at 2 CPUs: the cut
        sets the parallel printout's balance, and the cost model
        (_ITERATE_DIGITS per coordinate besides the digits) sets the cut."""
        monkeypatch.setattr(dioph.os, "sched_getaffinity",
                            lambda pid: {0, 1})
        assert chain(fam, seq[0], count)._cut() == cut

    @pytest.mark.parametrize("fam, seq, count, cut, bound", [
        (QUARTIC, QUARTIC_SEQ, 800, 800, False),
        (QUARTIC, QUARTIC_SEQ, 837, 535, False),
        (QUARTIC, QUARTIC_SEQ, 2983, 2063, True),
        (OCTIC, OCTIC_SEQ, 467, 467, False),
        (OCTIC, OCTIC_SEQ, 504, 316, False),
        (OCTIC, OCTIC_SEQ, 1836, 1268, True)],
        ids=["quartic4x4-800", "quartic4x4-837", "quartic4x4-2983",
             "octic8x8-467", "octic8x8-504", "octic8x8-1836"])
    def test_the_cut_at_each_guard(self, monkeypatch, fam, seq, count, cut,
                                   bound):
        """At 2 CPUs: the last chain (in steps of 37 iterates) that costs
        less than two ranges and is printed unsplit, the first that is
        cut, and the first whose forked range _HELD_TEXT bounds, so that
        without the bound the cut falls earlier.  Each is the cut the
        k-range split of earlier versions made at 2 CPUs."""
        monkeypatch.setattr(dioph.os, "sched_getaffinity",
                            lambda pid: {0, 1})
        r = chain(fam, seq[0], count)
        assert r._cut() == cut
        monkeypatch.setattr(dioph, "_HELD_TEXT", 10 ** 30)
        assert (r._cut() < cut) == bound

    def test_the_cut_balances_the_cost(self, monkeypatch, split):
        """With no bound on the forked range's text, the cut of the
        2600-iterate quartic gives two ranges of about equal cost, a
        range's cost its digits and _ITERATE_DIGITS per coordinate of each
        iterate: iterate i has about i/2599 of the last one's digits, so
        the first range holds more iterates."""
        split()
        monkeypatch.setattr(dioph, "_RANGE_DIGITS", 2_000_000)
        monkeypatch.setattr(dioph, "_HELD_TEXT", 10 ** 30)
        r = chain(QUARTIC, QUARTIC_SEQ[0], 2600)
        cut = r._cut()
        assert cut > 2600 - cut
        at = dioph._power(r.step, cut - 1, r.seed)
        costs = [sum(len(c) for row in rows for c in row)
                 + dioph._ITERATE_DIGITS * 4 * n
                 for rows, n in ((r._range(0, cut, None, at), cut),
                                 (r._range(cut, 2600, at, r.last),
                                  2600 - cut))]
        assert all(abs(c * 2 / sum(costs) - 1) < 0.01 for c in costs)

    @pytest.mark.parametrize("count, held", [
        (1200, 2 ** 16), (1200, 2 ** 20), (3200, dioph._HELD_TEXT)])
    def test_the_forked_range_holds_at_most_held_text(self, monkeypatch,
                                                      split, count, held):
        """The range after the cut waits in a file until this process
        copies it: its text is at most _HELD_TEXT, counted from the file
        (os.fstat), and the bytes are unchanged.  The 3200-iterate
        quartic's second range at an equal cost would hold 18 MB; the
        default bound holds 16 MiB."""
        r = chain(QUARTIC, QUARTIC_SEQ[0], count)
        split(cpus=1)
        want = io.StringIO()
        r.write_json(want)
        split()
        monkeypatch.setattr(dioph, "_RANGE_DIGITS", 2_000_000)
        monkeypatch.setattr(dioph, "_HELD_TEXT", held)
        sizes, read = [], dioph._read

        def counted(fd, size):
            sizes.append(os.fstat(fd).st_size)
            return read(fd, size)
        monkeypatch.setattr(dioph, "_read", counted)
        got = io.StringIO()
        r.write_json(got)
        assert got.getvalue() == want.getvalue()
        assert len(sizes) == 1 and 0.9 * held < sizes[0] <= held

    def test_a_small_chain_stays_in_one_range(self, monkeypatch):
        """The 300-iterate threefold8x8 chain, 1 MB of digits, costs less
        than two ranges' worth, so it forks nothing on any machine."""
        monkeypatch.setattr(dioph.os, "sched_getaffinity",
                            lambda pid: set(range(64)))
        r = generate_sequence(SequenceSpec(
            T8, T8_SEQ[0], 300, ((1,) + (0,) * 7, T8_SEQ[0])))
        assert r._cut() == 300

    def test_a_process_with_threads_forks_nothing(self, split):
        split()
        r = chain(QUARTIC, QUARTIC_SEQ[0], 8)
        assert r._cut() < 8
        done = threading.Event()
        thread = threading.Thread(target=done.wait, args=(60,))
        thread.start()
        try:
            assert r._cut() == 8
        finally:
            done.set()
            thread.join(timeout=60)
        assert not thread.is_alive()

    def test_a_range_restarts_at_its_first_proven_iterate(self):
        """`_range` prints iterates start..stop-1 one int step past the
        proven iterate start-1, S^(start-1) seed by `_power`."""
        r = chain(UV, UV_SEQ[0], 4)
        P = [dioph._power(r.step, e, r.seed) for e in range(4)]
        assert P == UV_SEQ and P[3] == r.last
        assert list(r._range(1, 3, P[0], P[2])) \
            == [[str(c) for c in v] for v in UV_SEQ[1:3]]
        assert list(r._range(3, 4, P[2], r.last)) \
            == [[str(c) for c in UV_SEQ[3]]]
        assert list(r._range(2, 2, P[1], P[1])) == []

    def test_one_power_before_the_fork(self, monkeypatch, split):
        """The proven iterate cut-1 is taken once, by binary powering in
        this process: it ends the first range's exact check and starts the
        second range one step past it.  The range process takes no power
        of its own: one that did would exit 3."""
        split()
        r = chain(QUARTIC, QUARTIC_SEQ[0], 300)
        cut = r._cut()
        assert 1 < cut < 300
        parent, power, calls = os.getpid(), dioph._power, []

        def counted(S, e, v):
            if in_a_range_process(parent):
                os._exit(3)
            calls.append(e)
            return power(S, e, v)
        monkeypatch.setattr(dioph, "_power", counted)
        statuses = process_statuses(monkeypatch)
        want = io.StringIO()
        for row in r.rows():
            want.write(",".join(row) + "\n")
        got = io.StringIO()
        r.write_text(got)
        assert got.getvalue() == want.getvalue()
        assert calls == [cut - 1]
        assert statuses == [0]

    @pytest.mark.parametrize("fam, seq", [(QUARTIC, QUARTIC_SEQ),
                                          (UV, UV_SEQ)],
                             ids=["quartic4x4", "sextic_uv"])
    def test_a_divergence_in_a_range_process_is_raised_here(
            self, monkeypatch, split, fam, seq):
        """A printed value off in its last digit inside the second range,
        in every process, ends that range's process with status 1; the
        range is printed here again, which raises SequenceVerificationError
        naming its iterate, and writes nothing of that range."""
        split()
        statuses = process_statuses(monkeypatch)
        printed = dioph._printed

        def off(step, seed, count):
            for i, w in enumerate(printed(step, seed, count)):
                if i == 1 and type(seed[0]) is dioph.Decimal:  # restarted
                    with localcontext(dioph._EXACT):
                        w = (w[0] + 1,) + w[1:]
                yield w
        monkeypatch.setattr(dioph, "_printed", off)
        r = chain(fam, seq[0], 8)
        cut = r._cut()
        assert 0 < cut < 7
        out = io.StringIO()
        with pytest.raises(SequenceVerificationError,
                           match=f"^iterate {cut + 1}, coordinate 1: "):
            r.write_text(out)
        assert out.getvalue().count("\n") <= cut
        assert statuses == [1]

    def test_a_short_recurrence_in_a_range_process_raises_value_error(
            self, monkeypatch, split):
        """An int run one iterate short in the second range, in every
        process, ends that range's process with status 1, and raises its
        ValueError here, with its type and message."""
        split()
        statuses = process_statuses(monkeypatch)
        iterates = dioph._iterates

        def short(step, seed, count, mask=-1):
            if seed != QUARTIC_SEQ[0]:  # the range after the cut
                count -= 1
            return iterates(step, seed, count, mask)
        monkeypatch.setattr(dioph, "_iterates", short)
        with pytest.raises(ValueError) as caught:
            chain(QUARTIC, QUARTIC_SEQ[0], 8).write_json(io.StringIO())
        assert type(caught.value) is ValueError
        assert "zip()" in str(caught.value)
        assert statuses == [1]

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_a_range_whose_process_is_killed_is_printed_here(
            self, monkeypatch, split, fmt):
        """A range's process that a signal ends, as the kernel's OOM killer
        would, leaves a partial file; the range is printed here instead,
        and stdout is the one-range printout."""
        r = chain(QUARTIC, QUARTIC_SEQ[0], 300)
        split(cpus=1)
        want = io.StringIO()
        getattr(r, "write_" + fmt)(want)
        split()
        statuses = process_statuses(monkeypatch)
        parent, printed = os.getpid(), dioph._printed

        def killed(step, seed, count):
            for i, w in enumerate(printed(step, seed, count)):
                if i == count // 2 and in_a_range_process(parent):
                    os.kill(os.getpid(), signal.SIGKILL)
                yield w
        monkeypatch.setattr(dioph, "_printed", killed)
        got = io.StringIO()
        getattr(r, "write_" + fmt)(got)
        assert got.getvalue() == want.getvalue()
        assert statuses == [-signal.SIGKILL]

    @pytest.mark.parametrize("which", [0, 1], ids=["this", "forked"])
    def test_an_error_past_the_residue_at_a_range_end_raises(
            self, monkeypatch, split, which):
        """An error of 10**60 keeps every residue mod 2**60.  At iterate
        cut-1, the last one this process prints, nothing after it would
        carry it, since the second range restarts from S^cut seed: only
        the exact check at the cut catches it.  At the last iterate, which
        the forked process prints, the exact check against `last` ends
        that process with status 1, and raises when the range is printed
        here again.  No process is left either way."""
        split()
        r = chain(QUARTIC, QUARTIC_SEQ[0], 9)
        cut = r._cut()
        assert 1 < cut < 9
        at = (cut, 9)[which] - 1  # the last iterate of range `which`
        first = (int, dioph.Decimal)[which]
        proven = dioph._power(r.step, at, r.seed)
        printed = dioph._printed

        def off(step, seed, count):
            for i, w in enumerate(printed(step, seed, count)):
                if i == count - 1 and type(seed[0]) is first \
                        and w == proven:
                    with localcontext(dioph._EXACT):
                        w = (w[0] + 10 ** 60,) + w[1:]
                yield w
        monkeypatch.setattr(dioph, "_printed", off)
        statuses = process_statuses(monkeypatch)
        with pytest.raises(SequenceVerificationError,
                           match=f"^iterate {at}: the printed chain"):
            r.write_json(io.StringIO())
        if which:
            assert statuses == [1]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("call", ["fork", "memfd_create"])
    def test_a_range_no_process_can_print_is_printed_here(
            self, monkeypatch, split, call):
        """Where os.fork fails, as it does at a process limit, or the file
        cannot be made, this process prints the second range itself: the
        same bytes, and no process left."""
        split()
        r = chain(QUARTIC, QUARTIC_SEQ[0], 300)
        want = io.StringIO()
        r.write_text(want)
        calls = []

        def failing(*args):
            calls.append(args)
            raise BlockingIOError(11, "Resource temporarily unavailable")
        monkeypatch.setattr(dioph.os, call, failing)
        got = io.StringIO()
        r.write_text(got)
        assert len(calls) == 1
        assert got.getvalue() == want.getvalue()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("fault", ["check", BrokenPipeError,
                                       KeyboardInterrupt])
    def test_a_failure_here_leaves_no_process(self, monkeypatch, split,
                                              fault):
        """A failed check in this process's range, a reader that closed
        `out` and an interrupt, each while the forked range's process
        still prints, kill and reap it before they propagate."""
        split()
        r = chain(QUARTIC, QUARTIC_SEQ[0], 2600)
        out = io.StringIO()
        if fault == "check":
            fault, parent, printed = (SequenceVerificationError, os.getpid(),
                                      dioph._printed)

            def off(step, seed, count):
                for i, w in enumerate(printed(step, seed, count)):
                    if i == 1 and not in_a_range_process(parent):
                        w = (w[0] + 1,) + w[1:]
                    yield w
            monkeypatch.setattr(dioph, "_printed", off)
        else:
            class Failing:
                def write(self, text):
                    raise fault("planted")
            out = Failing()
        with pytest.raises(fault):
            r.write_json(out)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not Path("/proc/self/cmdline").exists(),
                        reason="lists processes through /proc")
    def test_a_closed_pipe_exits_1_and_leaves_no_process(self):
        """`matform solve ... --count 2600 | head -c 100`, split at its cut
        on 2 CPUs: exit status 1, nothing on stderr and, once it has
        exited, no process of it left."""
        code = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}"
                "; from matform.cli import main; sys.exit(main())")
        argv = [sys.executable, "-c", code, *(
            "solve --family quartic4x4 --params=5,-23,2,-7 --seed 6,2,3,1 "
            "--step 6,2,3,1 --count 2600").split()]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        run = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE)
        assert run.stdout.read(100).startswith(b'{"family": "quartic4x4"')
        run.stdout.close()
        assert run.wait(timeout=60) == 1
        cmdline = "\0".join(argv).encode() + b"\0"
        left = []
        for proc in Path("/proc").iterdir():
            try:
                if (proc / "cmdline").read_bytes() == cmdline:
                    left.append(proc.name)
            except OSError:  # not a process, or one that has ended
                pass
        # read only now: a process left running would hold stderr open
        assert run.stderr.read() == b""
        run.stderr.close()
        assert left == []


class TestMonotoneReports:
    def test_quartic_sequence_monotone_positive(self):
        rep = check_monotone_positive(QUARTIC_SEQ)
        assert rep.ok and rep.violations == []

    def test_octic_sequence_first_coordinate_grows(self):
        rep = check_monotone_positive(OCTIC_SEQ)
        assert rep.ok

    def test_sextic_system_first_two_coordinates(self):
        rep = check_monotone_positive(UV_SEQ, increasing=(0, 1),
                                      positive=(0, 1))
        assert rep.ok

    def test_sextic_system_not_all_positive(self):
        rep = check_monotone_positive(UV_SEQ)
        assert not rep.ok  # later coordinates go negative

    def test_constant_sequence_flagged(self):
        e = (1, 0, 0, 0)
        rep = check_monotone_positive([e, e])
        assert not rep.ok
        assert any("did not increase" in v for v in rep.violations)


def result_of(step, seed, count) -> dioph.SequenceResult:
    """A result for the chain v <- S v from `seed`, its last iterate by
    binary powering as `generate_sequence` takes it, for any S: no
    family's law is proven."""
    return dioph.SequenceResult(
        spec=SequenceSpec(Q2, seed, count, ((1, 0),)), step=step,
        proof="matrix", seed=seed, evaluated=min(count, 2),
        last=dioph._power(step, count - 1, seed) if count > 1 else seed)


def residues(chain) -> list:
    """Every coordinate of every iterate mod 2**60."""
    return [tuple(c % 2 ** 60 for c in v) for v in chain]


def quartic_step():
    """The golden quartic chain's S, all entries >= 1 (a chain of one
    iterate takes no power of it)."""
    return generate_sequence(SequenceSpec(
        QUARTIC, QUARTIC_SEQ[0], 1, (QUARTIC_SEQ[0],))).step


def chains(h: int, positive: bool):
    """An h x h S and a seed of small entries, some past 2**60: all
    positive, or with zero and negative ones too."""
    entry = st.integers(1, 4) | st.integers(2 ** 59, 2 ** 61)
    coordinate = st.integers(1, 5) | st.integers(1, 2 ** 70)
    if not positive:
        entry |= st.integers(-4, 0)
        coordinate |= st.integers(-2 ** 70, 0)
    row = st.lists(entry, min_size=h, max_size=h).map(tuple)
    return st.tuples(st.lists(row, min_size=h, max_size=h).map(tuple),
                     st.lists(coordinate, min_size=h, max_size=h).map(tuple))


class TestPositivityCertificate:
    """h >= 2, S >= 1 entrywise and a positive seed certify a chain: every
    iterate is positive and increases strictly.  Every chain of two
    iterates or more takes its last by binary powering, equal to the exact
    replay's.  A certified chain's printout is checked against the
    recurrence mod 2**60, equal to the exact replay mod 2**60; any
    other's against the exact replay."""

    @pytest.mark.parametrize("fam, seed, partners, certified", [
        (QUARTIC, QUARTIC_SEQ[0], (QUARTIC_SEQ[0],), True),
        (OCTIC, OCTIC_SEQ[0], (OCTIC_SEQ[0],), True),
        (T4, T4_SEQ[0], (E4, T4_SEQ[0]), True),
        (T8, T8_SEQ[0], (E8, T8_SEQ[0]), True),
        (family("sextic_uv", (3,)), UV_SEQ[0], (UV_SEQ[0],), False),
    ], ids=["quartic4x4", "octic8x8", "threefold4x4", "threefold8x8",
            "sextic_uv"])
    def test_golden_chains(self, fam, seed, partners, certified):
        r = generate_sequence(SequenceSpec(fam, seed, 30, partners))
        assert r.certified is certified
        solutions = r.solutions
        assert list(dioph._iterates(r.step, r.seed, 30, dioph._MASK)) \
            == residues(solutions)
        assert r.last == solutions[-1]
        everywhere = range(fam.h)
        assert check_monotone_positive(solutions, everywhere).ok is certified

    @pytest.mark.parametrize("i, j, entry", [
        (0, 0, 0), (0, 0, -1), (2, 1, 0), (3, 3, -1)])
    def test_an_entry_below_one_takes_the_exact_route(self, i, j, entry):
        step = quartic_step()
        step = tuple(tuple(entry if (r, c) == (i, j) else x
                           for c, x in enumerate(row))
                     for r, row in enumerate(step))
        r = result_of(step, QUARTIC_SEQ[0], 12)
        assert not r.certified
        assert r.last == r.solutions[-1]
        assert list(r.rows()) == [[str(c) for c in v] for v in r.solutions]

    @pytest.mark.parametrize("seed", [(0, 2, 3, 1), (6, 2, -3, 1)])
    def test_a_seed_coordinate_below_one_takes_the_exact_route(self, seed):
        r = result_of(quartic_step(), seed, 12)
        assert not r.certified
        assert r.last == r.solutions[-1]
        assert list(r.rows()) == [[str(c) for c in v] for v in r.solutions]

    def test_one_coordinate_takes_the_exact_route(self):
        r = result_of(((2,),), (1,), 12)  # v <- 2 v: positive, but h = 1
        assert not r.certified
        assert r.last == (2 ** 11,) == r.solutions[-1]

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.tuples(st.integers(1, 4), st.booleans()).flatmap(
        lambda args: chains(*args)))
    def test_certified_chain_is_its_exact_replay(self, chain):
        """S and seeds with small entries, zero and negative ones among
        them, some past 2**60, and h from 1 to 4, certified or not: over
        20 steps the last iterate by binary powering equals the exact
        replay's, the recurrence mod 2**60 is the replay mod 2**60, a
        certified chain increases strictly in every coordinate, and the
        chain prints as the replay."""
        step, seed = chain
        r = result_of(step, seed, 21)
        assert r.certified == (len(seed) >= 2 and min(map(min, step)) >= 1
                               and min(seed) >= 1)
        solutions = r.solutions
        assert r.last == solutions[-1]
        assert list(dioph._iterates(step, seed, 21, dioph._MASK)) \
            == residues(solutions)
        if r.certified:
            assert check_monotone_positive(solutions, range(len(seed))).ok
        assert list(r.rows()) == [[str(c) for c in v] for v in solutions]


class TestBruteForce:
    def test_quartic_bound_six_contains_references(self):
        found = brute_force_search(QUARTIC, 6)
        assert (1, 0, 0, 0) in found
        assert (6, 2, 3, 1) in found

    def test_lexicographic_order(self):
        found = brute_force_search(QUARTIC, 6)
        assert found == sorted(found)

    def test_oracle_against_independent_enumeration(self):
        # re-enumerate with a different traversal and the printed form
        fam = family("quad2x2", (0, -2))
        found = set(brute_force_search(fam, 3))
        expected = {(x1, x2)
                    for x1 in range(3, -4, -1) for x2 in range(3, -4, -1)
                    if x1 * x1 - 2 * x2 * x2 == 1}
        assert found == expected

    def test_bound_zero_is_empty(self):
        assert brute_force_search(QUARTIC, 0) == []

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError, match="bound must be >= 0, got -1"):
            brute_force_search(QUARTIC, -1)

    def test_custom_target(self):
        fam = family("quad2x2", (0, 1))
        found = brute_force_search(fam, 2, target=4)
        assert (0, 2) in found and (2, 0) in found

    def test_guard(self):
        with pytest.raises(SearchSpaceTooLarge):
            brute_force_search(OCTIC, 100)

    def test_every_result_is_a_solution(self):
        for v in brute_force_search(QUARTIC, 3):
            assert is_solution(QUARTIC, v)


def box_oracle(fam, bound, target):
    """Every point of the box with f = target, by exact evaluation of each
    point in turn; shares nothing with the packed search."""
    box = range(-bound, bound + 1)
    return [v for v in itertools.product(box, repeat=fam.h)
            if fam.evaluate(v) == target]


@pytest.fixture
def form_reads(monkeypatch):
    """How often FormFamily.form has been read."""
    reads = []
    form = FormFamily.form

    def counting(self):
        reads.append(self)
        return form.fget(self)
    monkeypatch.setattr(FormFamily, "form", property(counting))
    return reads


SMALL_FAMILIES = [d["name"] for d in list_families() if d["coords"] <= 6]


class TestFoldedSearch:
    """brute_force_search, each prefix value folded into the packed
    coefficients of the numeric form, against the per-point oracle
    above."""

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_per_point_oracle(self, data):
        name = data.draw(st.sampled_from(SMALL_FAMILIES))
        base = family(name)
        nonzero = st.sampled_from((-3, -2, -1, 1, 2, 3))
        fam = family(name, data.draw(st.tuples(*[nonzero] * base.arity)))
        bound = data.draw(st.integers(0, 1 if fam.h == 6 else 2))
        box = st.integers(-bound, bound)
        target = data.draw(st.one_of(
            st.sampled_from((1, 0)),
            st.tuples(*[box] * fam.h).map(fam.evaluate)))
        assert brute_force_search(fam, bound, target=target) == \
            box_oracle(fam, bound, target)

    @pytest.mark.parametrize("name, values", [
        ("octic8x8", (0, -5, 0, -3, 0, -14)),
        ("threefold8x8", (3, -1, 0, -3, 0, -14, 1))])
    def test_eight_coordinates(self, name, values):
        fam = family(name, values)
        found = brute_force_search(fam, 1)
        assert found == box_oracle(fam, 1, 1)
        assert (1,) + (0,) * 7 in found

    @pytest.mark.parametrize("coeffs", [(3,), (1, 2), (0, -2, 1)])
    def test_companion_families(self, coeffs):
        # h = 1 starts at the last coordinate: the form itself is g(x1)
        fam = companion_family(coeffs)
        for target in (1, 2, -2):
            assert brute_force_search(fam, 3, target=target) == \
                box_oracle(fam, 3, target)

    def test_guard_reads_no_form(self, form_reads):
        with pytest.raises(SearchSpaceTooLarge):
            brute_force_search(OCTIC, 100)
        assert form_reads == []

    def test_symbolic_family_with_parameters(self, form_reads):
        with pytest.raises(ValueError, match="needs numeric parameter values"):
            brute_force_search(family("quartic4x4"), 1)
        assert form_reads == []

    def test_one_form_per_search(self, form_reads):
        brute_force_search(QUARTIC, 2)
        assert len(form_reads) == 1

    def test_hit_that_fails_evaluation_raises(self, monkeypatch):
        monkeypatch.setattr(FormFamily, "evaluate", lambda self, point: 2)
        with pytest.raises(SearchVerificationError, match="f = 2 != 1"):
            brute_force_search(QUARTIC, 1)


class TestPackedSearch:
    """The packed pass at its edges, against the per-point oracle: fields
    wider than a machine word, targets at and just past the range of f,
    every point a hit, a last coordinate wider than the cap, and trailing
    boxes with and without folded coordinates before them."""

    @pytest.fixture
    def boxes(self, monkeypatch):
        """The number of trailing points of every packed int searched: the
        values to the power of the trailing coordinates, h - p."""
        sizes = []
        packed = dioph._packed_coefficients

        def recording(terms, p, values, w):
            h = len(next(iter(terms)))
            sizes.append(len(values) ** (h - p))
            return packed(terms, p, values, w)
        monkeypatch.setattr(dioph, "_packed_coefficients", recording)
        return sizes

    @given(data=st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_per_point_oracle_at_any_cap(self, data):
        # a cap of 1 or 2 is narrower than the last coordinate, which still
        # fills one int; 3 and 9 pack one or two coordinates at bound 1
        name = data.draw(st.sampled_from(
            ["quad2x2", "threefold_quadratic", "cubic3x3", "quartic4x4"]))
        base = family(name)
        fam = family(name, data.draw(st.tuples(
            *[st.integers(-10 ** 6, 10 ** 6)] * base.arity)))
        bound = data.draw(st.integers(0, {2: 4, 3: 2}.get(fam.h, 1)))
        box = st.integers(-bound, bound)
        target = data.draw(st.one_of(
            st.sampled_from((1, 0, -1)),
            st.tuples(*[box] * fam.h).map(fam.evaluate)))
        cap = data.draw(st.sampled_from((1, 2, 3, 9, dioph._FIELDS)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dioph, "_FIELDS", cap)
            found = brute_force_search(fam, bound, target=target)
        assert found == box_oracle(fam, bound, target)

    def test_fields_wider_than_a_machine_word(self):
        fam = family("quartic4x4", (10 ** 6, -10 ** 6, 999_999, -999_998))
        assert max(map(abs, fam.form.terms.values())) >= 2 ** 64
        for target in (1, 0, fam.evaluate((1, 1, -1, 1))):
            assert brute_force_search(fam, 2, target=target) == \
                box_oracle(fam, 2, target)

    @pytest.mark.parametrize("name, params, bound", [
        ("quad2x2", (3, -7), 6), ("cubic3x3", (1, -1, 2, 1, -2), 3),
        ("quartic4x4", (5, -23, 2, -7), 2)])
    def test_targets_at_and_past_the_range_of_f(self, name, params, bound):
        # the bias maps f - target into [0, 2L]: the extremes hit, one past
        # them hits nothing
        fam = family(name, params)
        box = range(-bound, bound + 1)
        f = [fam.evaluate(v) for v in itertools.product(box, repeat=fam.h)]
        low, high = min(f), max(f)
        for target in (low - 1, low, high, high + 1):
            assert brute_force_search(fam, bound, target=target) == \
                box_oracle(fam, bound, target)
        assert brute_force_search(fam, bound, target=low)
        assert brute_force_search(fam, bound, target=high)
        assert not brute_force_search(fam, bound, target=low - 1)
        assert not brute_force_search(fam, bound, target=high + 1)

    def test_zero_form_hits_every_point(self):
        fam = family("threefold_quadratic", (0, 0, 0))
        assert fam.form.terms == {}
        box = range(-30, 31)
        assert brute_force_search(fam, 30, target=0) == \
            list(itertools.product(box, repeat=2))
        assert brute_force_search(fam, 30, target=1) == []

    @pytest.mark.parametrize("name", [d["name"] for d in list_families()])
    def test_bound_zero(self, name):
        base = family(name)
        fam = family(name, tuple(range(2, 2 + base.arity)))
        origin = (0,) * fam.h
        for target in (fam.evaluate(origin), 1, -1):
            assert brute_force_search(fam, 0, target=target) == \
                box_oracle(fam, 0, target)

    @pytest.mark.parametrize("coeffs", [(3,), (-5,)])
    def test_one_coordinate_wider_than_a_packed_int(self, coeffs, boxes):
        # h = 1: the only coordinate, 1 251 values, fills one int; f = x1,
        # so the last target is past its reach and packs nothing
        fam = companion_family(coeffs)
        bound = dioph._FIELDS
        for target in (1, -bound, bound, 0, bound + 1):
            assert brute_force_search(fam, bound, target=target) == \
                box_oracle(fam, bound, target)
        assert boxes == [2 * bound + 1] * 4 == [1251] * 4

    def test_slices_of_the_last_coordinate_come_out_in_order(
            self, boxes, monkeypatch):
        # x2 spans 21 values, wider than the cap of 9: all 21 fill one
        # int, and one pass over x1 reads the hits off in order
        monkeypatch.setattr(dioph, "_FIELDS", 9)
        fam = family("quad2x2", (0, -2))
        found = brute_force_search(fam, 10)
        assert found == box_oracle(fam, 10, 1)
        assert found == [(-3, -2), (-3, 2), (-1, 0), (1, 0), (3, -2), (3, 2)]
        assert boxes == [21]

    def test_whole_box_in_one_int_and_folds_before_it(self, boxes):
        # quad2x2 fits one int at bound 1 (r = h, nothing to fold);
        # quartic4x4 at bound 3 leaves its first coordinates to fold (r < h)
        quad = family("quad2x2", (0, -2))
        assert brute_force_search(quad, 1) == box_oracle(quad, 1, 1)
        assert boxes == [9]
        assert brute_force_search(QUARTIC, 3) == box_oracle(QUARTIC, 3, 1)
        assert boxes[1] < 7 ** 4

    @pytest.mark.parametrize("cap", [3, 9])
    def test_folds_then_horner(self, cap, boxes, monkeypatch):
        # quartic4x4 at bound 1 packs one trailing coordinate (cap 3, p = 3)
        # or two (cap 9, p = 2): two fold levels or one, then Horner's rule
        monkeypatch.setattr(dioph, "_FIELDS", cap)
        for target in (1, 0, QUARTIC.evaluate((1, 1, -1, 1))):
            assert brute_force_search(QUARTIC, 1, target=target) == \
                box_oracle(QUARTIC, 1, target)
        assert boxes == [cap] * 3

    def test_horner_takes_the_degree_in_the_last_prefix_coordinate(
            self, boxes, monkeypatch):
        # [[x1, x2, x3], [0, x2, 0], [0, 0, x2]] has f = x1*x2^2: with cap 3
        # Horner's rule runs over x2 (p = 2), of higher degree than x1.
        # Every catalog form has its full degree in x1, so none shows this.
        # At bound 2, x3's 5 values, wider than the cap, fill one int.
        empty = VarTable(())
        x1, x2, x3 = ([empty.const(int(r == t)) for r in range(3)]
                      for t in range(3))
        zero = [empty.zero()] * 3
        st = LinearStructure(3, 3, (), [[x1, x2, x3], [zero, x2, zero],
                                        [zero, zero, x2]])
        fam = FormFamily("x1x2sq", "pair", (), ("x1", "x2", "x3"),
                         structure=st)
        assert fam.form.terms == {(1, 2, 0): 1}
        monkeypatch.setattr(dioph, "_FIELDS", 3)
        for bound in (1, 2):
            for target in (1, 4):
                assert brute_force_search(fam, bound, target=target) == \
                    box_oracle(fam, bound, target)
        assert brute_force_search(fam, 2, target=4)
        # one trailing coordinate, x3 (p = 2); at bound 1, |f| <= 1 < 4
        # leaves nothing to pack
        assert boxes == [3, 5, 5, 5]
