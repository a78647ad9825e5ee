"""Integer-solution sequences of f = 1 and an exhaustive box search.

Sequences iterate a family's composition map from a seed solution.  With
its partners fixed, the map is linear in the iterate, so a chain is the
linear recurrence v <- S v for one h x h integer step matrix S.  Every
emitted vector is proven to satisfy f = 1 exactly, so a transcription error
anywhere upstream surfaces immediately instead of silently corrupting the
chain.  The proof is the family's composition identity, once per chain:
the partners have f = 1, so the identity gives f(S v) = f(v) for every v,
and f = 1 follows along the chain by induction.  The last iterate is
evaluated exactly, which catches a slip in the integer step.

The integer chain runs once and keeps no iterate, only a key per
coordinate: its sign and |v| mod 2**60, a mask of its lowest limbs.  The
chain is printed from a second run of the same recurrence in exact
`decimal` arithmetic, whose str() is linear in the digit count where
CPython's int-to-str is quadratic, and every printed string is checked
against its key: 2**60 divides 10**60, so the last 60 printed digits fix
the residue, and any error confined to the last 18 digits changes it.
Each step is a C-level dot product per row, and the JSON rows are
written in chunks of about 64 KB.

The box search walks a specialization tree over the numeric form (the
multivariate Horner scheme): it fixes one coordinate at a time, depth
first, and evaluates the univariate polynomial left at the last coordinate
by Horner's rule.  Every hit is confirmed by exact evaluation of f before
it is returned.
"""

from __future__ import annotations

import json
from array import array
from decimal import (MAX_EMAX, MAX_PREC, Context, Decimal, Inexact,
                     InvalidOperation, Rounded, localcontext)
from operator import index, mul
from typing import Iterator, List, NamedTuple, Optional, TextIO, Tuple

from .catalog import FormFamily
from .compose import ZeroResidual
from .polyring import PolyError, no_int_str_limit


class SeedNotSolution(PolyError):
    """The sequence seed does not satisfy f = 1."""


class StepNotSolution(PolyError):
    """A fixed step/partner vector does not satisfy f = 1."""


class SearchSpaceTooLarge(PolyError):
    """Brute-force box exceeds the enumeration guard."""


class SequenceVerificationError(PolyError):
    """The chain's identity or its last iterate failed verification
    (internal inconsistency)."""


class SearchVerificationError(PolyError):
    """A search hit failed exact evaluation (internal inconsistency)."""


Vec = Tuple[int, ...]


class SequenceSpec(NamedTuple):
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


def _step(S, v):
    """S v, with S given row by row as (columns, entries) over its nonzero
    entries, over whatever number type S and v hold.  Each row is one
    C-level dot product.  Each sum starts at the int 0 and skips the zero
    entries of S, so a Decimal sum of signed zeros (-3 * Decimal(0) is -0)
    comes out +0."""
    return tuple([sum(map(mul, entries, map(v.__getitem__, columns)))
                  for columns, entries in S])


# Every operation in this context is exact or raises: a result that would
# need more digits than MAX_PREC, or an exponent past MAX_EMAX, signals
# Rounded and Inexact, and any invalid operation signals InvalidOperation.
# localcontext() works on a copy, so no flag is ever set on this one.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX,
                 traps=[Inexact, Rounded, InvalidOperation])
_MASK = 2 ** 60 - 1
# The least JSON per `write_json` write, in characters (all ASCII, so
# bytes).  Below glibc's default 128 KB mmap threshold: a larger chunk's
# join and its encoded copy take fresh pages and raise the peak RSS.
_CHUNK = 2 ** 16


def _key(v: int) -> int:
    """The sign of v and r = |v| mod 2**60 in one int: r for v >= 0 and
    ~r = -r - 1 for v < 0, so it fits a signed 64-bit slot.  The mask
    reads the lowest limbs of |v| and divides nothing (abs copies a
    negative v)."""
    r = abs(v) & _MASK
    return ~r if v < 0 else r


def _check_printed(i: int, row: List[str], keys) -> None:
    """Guard on one printed iterate: each string has the sign of its
    proven integer, and its last 60 characters read as an int have the
    residue mod 2**60 in its `_key`.  2**60 divides 10**60, so those
    digits fix |v| mod 2**60.  A wrong value whose error d is confined to
    the last 18 digits fails, since 0 < |d| < 10**18 < 2**60, as does a
    one-digit change up to the 57th digit from the end (a digit change is
    c * 10**(p-1) with |c| <= 9, and 2**60 divides it only from p = 58 on).
    Each string costs the parse of at most 60 characters."""
    if len(row) != len(keys):
        raise SequenceVerificationError(
            f"iterate {i}: printed {len(row)} coordinates, proved "
            f"{len(keys)}")
    for j, (text, key) in enumerate(zip(row, keys)):
        negative = text.startswith("-")
        try:
            # a string of at most 60 characters may keep its "-"
            ok = negative == (key < 0) and \
                abs(int(text[-60:])) & _MASK == (~key if negative else key)
        except ValueError:  # not an integer's digits
            ok = False
        if not ok:
            raise SequenceVerificationError(
                f"iterate {i}, coordinate {j + 1}: the printed digits differ "
                f"from the proven value")


class SequenceResult:
    """The proven chain of spec.count iterates v_0 = seed, v_{i+1} = S v_i,
    with `step` the step matrix S and `seed` the int seed.

    The chain keeps no iterate: iterate i has O(i) digits, so all of them
    would take memory quadratic in the count.  `keys` holds what the
    printout is checked against, the `_key` of every coordinate (sign and
    |v| mod 2**60), h per iterate in a signed 64-bit array.  `solutions`
    replays the int chain on each read.

    `proof` is the method of the identity proof the chain rests on,
    "matrix" or "expand" (see `FormFamily.verify`).  `evaluated` counts
    the iterates checked by exact evaluation: the seed and the last one.
    Results are equal when all six fields are."""
    __slots__ = ("spec", "step", "proof", "seed", "keys", "evaluated")

    def __init__(self, spec: SequenceSpec, step: Tuple[Vec, ...], proof: str,
                 seed: Vec, keys: array, evaluated: int):
        self.spec, self.step, self.proof = spec, step, proof
        self.seed, self.keys, self.evaluated = seed, keys, evaluated

    def __eq__(self, other):
        if type(other) is not SequenceResult:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f)
                   for f in self.__slots__)

    def _replay(self, number=int) -> Iterator[Vec]:
        """The chain from the seed under `_step`, with S's entries
        converted by `number`: int for the proof, whose steps read no
        context, or Decimal for the printout, each step in _EXACT."""
        S = [(tuple(j for j, c in enumerate(row) if c),
              tuple(number(c) for c in row if c)) for row in self.step]
        v = self.seed
        for i in range(self.spec.count):
            if i:
                if number is int:
                    v = _step(S, v)
                else:
                    with localcontext(_EXACT):
                        v = _step(S, v)
            yield v

    @property
    def solutions(self) -> List[Vec]:
        """The int iterates, replayed from the seed with the same S as
        `generate_sequence` proved them with: a new list on every read,
        which holds the whole chain.  `rows()` prints without it."""
        return list(self._replay())

    def rows(self) -> Iterator[List[str]]:
        """The iterates as decimal strings, one iterate at a time.

        The strings come from replaying the chain in `decimal` rather than
        from str() of the ints, which is quadratic in the digit count.  Each
        printed value equals its proven int:
        - the replay runs the step function with the same S from the same
          seed as `generate_sequence` did over ints (S's entries are
          converted exactly, an iterate never is; the seed row is the int
          seed);
        - in _EXACT every Decimal operation is exact or raises;
        - so the Decimal at each index equals the int there, and str() of
          an integral Decimal with exponent 0 is its plain decimal digits.
        `_check_printed` then compares every string's sign, and the
        residue mod 2**60 of its last 60 characters, with the int's key; a
        mismatch raises SequenceVerificationError.  Rows are produced one
        at a time, so only the current iterate is held.
        """
        h = len(self.seed)
        for i, v in enumerate(self._replay(Decimal)):
            row = [str(c) for c in v]
            _check_printed(i, row, self.keys[i * h:(i + 1) * h])
            yield row

    def write_json(self, out: TextIO) -> None:
        """Write the chain as one JSON document and a newline: family,
        params, "mode" ("pairwise" for one partner, "triple" for two),
        the solutions as decimal strings, and "verified": true, since every
        iterate is proven before it is returned.  The solutions come from
        `rows()`, without json.dumps: a string of digits and "-" needs no
        escaping.  They are written in chunks of at least _CHUNK
        characters, the last one shorter, so an unbuffered `out` makes one
        system call per chunk rather than one per iterate."""
        fam = self.spec.family
        head, _, tail = json.dumps({
            "family": fam.name,
            "params": [str(v) for v in (fam.param_values or ())],
            "mode": "pairwise" if len(self.spec.partners) == 1 else "triple",
            "solutions": None,
            "verified": True,
        }).partition('"solutions": null')
        text = head + '"solutions": ['
        chunk, size = [text], len(text)
        for i, row in enumerate(self.rows()):
            text = (", " if i else "") + '["' + '", "'.join(row) + '"]'
            chunk.append(text)
            size += len(text)
            if size >= _CHUNK:
                out.write("".join(chunk))
                chunk, size = [], 0
        chunk.append("]" + tail + "\n")
        out.write("".join(chunk))


def generate_sequence(spec: SequenceSpec) -> SequenceResult:
    """Iterate the composition map `count` times total, seed included.

    The map is the family's bilinear `pair_map` for one partner and its
    trilinear `triple_map()` for two; argument slot s gets slots[order[s]],
    where slots = [previous iterate, *partners].  The map is linear in the
    previous iterate, so the chain is v_{i+1} = S v_i for the step matrix S
    whose column j is the map with e_j in the iterate's slot: S costs h map
    applications, and each iterate h^2 products.  Raises ValueError for no
    partners, more than two, an order that is not a permutation of
    0..len(partners) or a negative count, and SeedNotSolution /
    StepNotSolution up front.

    The chain is then proven once, by the family's composition identity
    f(x)f(y)[f(z)] = f(map(x, y[, z])) (`FormFamily.verify`, the symbolic
    family's proof specialized), and SequenceVerificationError is raised
    up front where that is no ZeroResidual.  With the partners' f = 1, the
    identity gives f(S v) = f(v) for every v, so f(v_i) = f(seed) = 1 by
    induction.  The ints are run once, keeping only the current iterate
    and each coordinate's key (see `SequenceResult`).  The last iterate is
    evaluated exactly: f is invariant under S, so a slip in the integer
    step anywhere shows in f of the last iterate, and
    SequenceVerificationError is raised if it is not 1.
    """
    fam = spec.family
    k = len(spec.partners) + 1
    if k not in (2, 3):
        raise ValueError(f"need one or two partners, got {k - 1}")
    order = tuple(range(k)) if spec.order is None else tuple(spec.order)
    if sorted(order) != list(range(k)):
        raise ValueError(f"order must be a permutation of 0..{k - 1}")
    if spec.count < 0:
        raise ValueError(f"count must be >= 0, got {spec.count}")
    seed = tuple(map(index, spec.seed))
    value = fam.evaluate(seed)
    if value != 1:
        with no_int_str_limit():
            raise SeedNotSolution(f"f{seed} = {value} != 1")
    cmap = fam.pair_map if k == 2 else fam.triple_map()
    slots = [seed] + [tuple(map(index, p)) for p in spec.partners]
    for j, vec in enumerate(slots[1:], 1):
        value = fam.evaluate(vec)
        if value != 1:
            where = "" if k == 2 else f"fixed{j}: "
            with no_int_str_limit():
                raise StepNotSolution(f"{where}f{vec} = {value} != 1")
    proof = fam.verify(cmap)
    if not isinstance(proof, ZeroResidual):
        raise SequenceVerificationError(
            f"{fam.name}: the composition identity fails for this map")

    args = [slots[s] for s in order]
    at = order.index(0)
    h = cmap.h
    units = [tuple(int(r == j) for r in range(h)) for j in range(h)]
    columns = [cmap.apply(args[:at] + [e] + args[at + 1:]) for e in units]
    result = SequenceResult(spec=spec, step=tuple(zip(*columns)),
                            proof=proof.method, seed=seed, keys=array("q"),
                            evaluated=min(spec.count, 2))  # seed and last
    for current in result._replay():
        result.keys.extend(map(_key, current))
    if spec.count > 1 and fam.evaluate(current) != 1:
        with no_int_str_limit():
            raise SequenceVerificationError(
                f"iterate {spec.count - 1} fails f = 1: {current}")
    return result


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
    SearchVerificationError is raised if one fails.  A negative bound
    raises ValueError and a non-integer one TypeError.
    """
    bound = index(bound)
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    side = 2 * bound + 1
    if side ** fam.h > _SEARCH_GUARD:
        raise SearchSpaceTooLarge(f"{side}^{fam.h} candidate points")
    if fam.is_symbolic() and fam.arity > 0:
        raise ValueError(f"{fam.name} needs numeric parameter values")
    values = range(-bound, bound + 1)
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
        value = fam.evaluate(v)
        if value != target:
            with no_int_str_limit():
                raise SearchVerificationError(
                    f"search hit {v} has f = {value} != {target}")
    return out
