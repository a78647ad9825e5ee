"""Integer-solution sequences of f = 1 and an exhaustive box search.

Sequences iterate a family's composition map from a seed solution; every
emitted vector is proven to satisfy f = 1 exactly, so a transcription error
anywhere upstream surfaces immediately instead of silently corrupting the
chain.  The proof of an iterate is the matrix identity A(v) = A(x)A(y)
(A(x)A(y)A(z) for a trilinear map), checked entrywise on integers, with
exact evaluation of f(v) where the identity fails or the family has no
integer matrix.

The box search walks a specialization tree over the numeric form (the
multivariate Horner scheme): it fixes one coordinate at a time, depth
first, and evaluates the univariate polynomial left at the last coordinate
by Horner's rule.  Every hit is confirmed by exact evaluation of f before
it is returned.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, TextIO, Tuple

from .catalog import FormFamily, family as catalog_family
from .polyring import PolyError, int_matrix_product


class SeedNotSolution(PolyError):
    """The sequence seed does not satisfy f = 1."""


class StepNotSolution(PolyError):
    """A fixed step/partner vector does not satisfy f = 1."""


class SearchSpaceTooLarge(PolyError):
    """Brute-force box exceeds the enumeration guard."""


class SequenceVerificationError(PolyError):
    """An iterate failed re-verification (internal inconsistency)."""


class SearchVerificationError(PolyError):
    """A search hit failed exact evaluation (internal inconsistency)."""


Vec = Tuple[int, ...]


def is_solution(fam: FormFamily, v: Sequence[int]) -> bool:
    """Exact check f(v) = 1 (the product of all factors for multi-factor
    families)."""
    return fam.evaluate(v) == 1


def simultaneous_is_solution(q: int, v: Sequence[int]) -> bool:
    """Both equations of the simultaneous sextic system at once:
    f1(v) = 1 and f2(v) = 1 for the u-coordinate pair with parameter q."""
    fam = catalog_family("sextic_uv", (q,))
    return fam.evaluate_factors(v) == (1, 1)


@dataclass(frozen=True)
class SequenceSpec:
    """Recipe for one solution chain: x_{i+1} = map(slots), x_0 = seed.

    `partners` holds the fixed vectors the map is applied to besides the
    previous iterate: one for the bilinear map, two for the trilinear one.
    `order[s]` says what fills argument slot s: 0 is the previous iterate
    and j is partners[j-1].  The default is the identity order; trilinear
    maps are not symmetric, so the order is part of the chain.
    """
    family: FormFamily
    seed: Vec
    count: int
    partners: Tuple[Vec, ...]
    order: Optional[Tuple[int, ...]] = None


@dataclass
class SequenceResult:
    spec: SequenceSpec
    solutions: List[Vec] = field(default_factory=list)

    def write_json(self, out: TextIO) -> None:
        """Write the chain as one JSON document and a newline: family,
        params, "mode" ("pairwise" for one partner, "triple" for two),
        the solutions as decimal strings, and "verified": true, since every
        iterate is proven before it is returned.  The solutions are written
        one iterate at a time: a long sequence's decimal strings, all held
        at once, take several times the memory of its integers."""
        fam = self.spec.family
        head, _, tail = json.dumps({
            "family": fam.name,
            "params": [str(v) for v in (fam.param_values or ())],
            "mode": "pairwise" if len(self.spec.partners) == 1 else "triple",
            "solutions": None,
            "verified": True,
        }).partition('"solutions": null')
        out.write(head + '"solutions": [')
        for i, v in enumerate(self.solutions):
            out.write((", " if i else "") + json.dumps([str(c) for c in v]))
        out.write("]" + tail + "\n")


def generate_sequence(spec: SequenceSpec) -> SequenceResult:
    """Iterate the composition map `count` times total, seed included.

    The map is the family's bilinear `pair_map` for one partner and its
    trilinear `triple_map()` for two; argument slot s gets
    slots[order[s]], where slots = [previous iterate, *partners].  Raises
    ValueError for no partners, more than two, or an order that is not a
    permutation of 0..len(partners), and SeedNotSolution /
    StepNotSolution up front.  Each iterate v is then proven to satisfy
    f(v) = 1 by its certificate A(v) == A(a)·A(b)[·A(c)], checked
    entrywise, where a, b[, c] are the arguments the map was applied to:
    by induction each has f = 1, so det A(v) = 1 by multiplicativity of
    the determinant.  Where the certificate does not hold, or the family
    has no integer matrix at these values, f(v) = 1 is checked by exact
    evaluation instead; SequenceVerificationError is raised if that fails
    too.  The last iterate is always evaluated exactly.
    """
    fam = spec.family
    k = len(spec.partners) + 1
    if k not in (2, 3):
        raise ValueError(f"need one or two partners, got {k - 1}")
    order = tuple(range(k)) if spec.order is None else tuple(spec.order)
    if sorted(order) != list(range(k)):
        raise ValueError(f"order must be a permutation of 0..{k - 1}")
    seed = tuple(int(v) for v in spec.seed)
    if fam.evaluate(seed) != 1:
        raise SeedNotSolution(f"f{seed} = {fam.evaluate(seed)} != 1")
    cmap = fam.pair_map if k == 2 else fam.triple_map()
    slots = [seed] + [tuple(int(v) for v in p) for p in spec.partners]
    for j, vec in enumerate(slots[1:], 1):
        if fam.evaluate(vec) != 1:
            where = "" if k == 2 else f"fixed{j}: "
            raise StepNotSolution(f"{where}f{vec} = {fam.evaluate(vec)} != 1")

    matrices = [fam.matrix(vec) for vec in slots]
    result = SequenceResult(spec=spec)
    current = seed
    evaluated = True  # whether `current` was checked by exact evaluation
    for i in range(spec.count):
        if i > 0:
            current = cmap.apply([slots[s] for s in order])
            a = fam.matrix(current)
            evaluated = a is None or a != functools.reduce(
                int_matrix_product, [matrices[s] for s in order])
            if evaluated and fam.evaluate(current) != 1:
                raise SequenceVerificationError(
                    f"iterate {i} fails f = 1: {current}")
            slots[0], matrices[0] = current, a
        result.solutions.append(current)
    if not evaluated and fam.evaluate(current) != 1:
        raise SequenceVerificationError(
            f"iterate {spec.count - 1} fails f = 1: {current}")
    return result


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
    seq = [tuple(int(c) for c in v) for v in solutions]
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


_SEARCH_GUARD = 10 ** 9


def _specialization_tree(terms, h: int):
    """The plan `brute_force_search` walks for a polynomial in h variables.

    Returns (coeffs, levels).  `coeffs` lists the coefficients of `terms`.
    levels[k] turns the coefficient list of the polynomial in x_{k+1}..x_h
    into that of the polynomial in x_{k+2}..x_h once x_{k+1} is fixed: one
    group per monomial left, each group the (index, exponent of x_{k+1})
    pairs that fold into it.  The last level's monomials are x_h^d..x_h^0,
    so the polynomial left at the last coordinate is the dense coefficient
    list of g(x_h), highest degree first.  For h = 1, `coeffs` is that list
    and there is no level.
    """
    monos = list(terms)
    if h == 1:
        top = max((m[0] for m in monos), default=0)
        return [terms.get((e,), 0) for e in range(top, -1, -1)], []
    coeffs = [terms[m] for m in monos]
    levels = []
    for k in range(h - 1):
        if k == h - 2:
            top = max((m[1] for m in monos), default=0)
            left = [(e,) for e in range(top, -1, -1)]
        else:
            left = sorted({m[1:] for m in monos})
        at = {m: j for j, m in enumerate(left)}
        groups: List[list] = [[] for _ in left]
        for i, m in enumerate(monos):
            groups[at[m[1:]]].append((i, m[0]))
        levels.append(groups)
        monos = left
    return coeffs, levels


def brute_force_search(fam: FormFamily, bound: int,
                       target: int = 1) -> List[Vec]:
    """All v with max|v_i| <= bound and f(v) = target, in lexicographic
    order.

    Every point of the signed box is decided by a specialization tree
    over the family's numeric form: x_1 is fixed to each of the 2B+1
    values in turn, then x_2, and so on depth first, each level folding
    one value into the coefficients of the polynomial in the coordinates
    left.  At the last coordinate that polynomial is univariate, of degree
    at most n, and Horner's rule evaluates it at all 2B+1 values.  A level
    costs its number of prefixes times the number of terms left.  Each hit
    is confirmed by `FormFamily.evaluate` before it is returned;
    SearchVerificationError is raised if one fails.
    """
    side = 2 * int(bound) + 1
    if side ** fam.h > _SEARCH_GUARD:
        raise SearchSpaceTooLarge(f"{side}^{fam.h} candidate points")
    if fam.is_symbolic() and fam.arity > 0:
        raise ValueError(f"{fam.name} needs numeric parameter values")
    values = range(-int(bound), int(bound) + 1)
    form = fam.form
    coeffs, levels = _specialization_tree(form.terms, fam.h)
    powers = {v: [v ** e for e in range(form.total_degree() + 1)]
              for v in values}
    out: List[Vec] = []

    def walk(k: int, prefix: Vec, poly: List[int]) -> None:
        if k == len(levels):
            for t in values:
                acc = 0
                for c in poly:
                    acc = acc * t + c
                if acc == target:
                    out.append(prefix + (t,))
            return
        for v in values:
            pw = powers[v]
            walk(k + 1, prefix + (v,),
                 [sum([poly[i] * pw[e] for i, e in group])
                  for group in levels[k]])

    walk(0, (), coeffs)
    for v in out:
        if fam.evaluate(v) != target:
            raise SearchVerificationError(
                f"search hit {v} has f = {fam.evaluate(v)} != {target}")
    return out
