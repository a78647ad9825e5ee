"""Integer-solution sequences of f = 1 and an exhaustive box search.

Sequences iterate a family's composition map from a seed solution.  With
its partners fixed, the map is linear in the iterate, so a chain is the
linear recurrence v <- S v for one h x h integer step matrix S.  Every
emitted vector is proven to satisfy f = 1 exactly, so a transcription error
anywhere upstream surfaces immediately instead of silently corrupting the
chain.  The proof is the family's composition identity, once per chain:
the partners have f = 1, so the identity gives f(S v) = f(v) for every v,
and f = 1 follows along the chain by induction.  The last iterate is
evaluated exactly, which catches a slip in the integer arithmetic.

The last iterate is S^(count-1) seed by binary powering, a few products
of big-integer matrices.  The chain is printed from a run of the same
recurrence in exact `decimal` arithmetic, whose str() is linear in the
digit count where CPython's int-to-str is quadratic.  Every printed
string is checked against the int recurrence run beside it: its sign,
and its last 60 digits against |v| mod 2**60, a mask of the int's lowest
limbs.  2**60 divides 10**60, so those digits fix the residue, and any
error confined to the last 18 digits changes it.  The printed last
iterate is compared exactly with the proven one, which catches an error
in the higher digits.  A chain can be certified positive: if h >= 2,
every entry of S is at least 1 and the seed is positive, then
(S v)_i >= sum_j v_j > v_i, so every iterate is positive and every
coordinate increases strictly, and the chain gives infinitely many
solutions in positive integers.  Its signs are known, so the int
recurrence beside the printout runs mod 2**60 in small ints; any other
chain's runs exactly.  No chain keeps an iterate but its last.  Both
runs, and the powering, step the same dense rows of S, converted to
Decimal once for the printout: each row of a step is one C-level dot
product, and the rows, JSON or text, are written in pieces, in chunks of
about 64 KB.

A long printout is split at most once, where the CPUs this process may
run on and the digits allow: at one cut, into two contiguous ranges of
about equal cost, the second printed by a forked process.  The iterate
just before the cut is S^(cut-1) seed by binary powering, taken once: the
first range ends in an exact comparison of its printed last iterate with
it, and the second restarts both runs one step past it; this process
prints the first range, then copies the second's text, the bytes one
range would print.  That text waits in a file, at most _HELD_TEXT
characters of it, so the printout's memory does not grow with the square
of the count either.

The box search decides a packed sub-box at a time.  The values of f at
every point of the box's last few coordinates sit in w-bit fields of one
int, so the form's coefficients over the first coordinates become packed
ints (the tensor-product layout of the trailing points).  The first
coordinates are fixed one at a time, depth first, each value folded
straight into the packed coefficients, and Horner's rule runs over the
last of them: every multiply-add is one big-integer operation for the
whole sub-box.  Each leaf is tested without a carry: w exceeds the bound
L on |f - target| by two bits, so a bias of L - target per field makes
every field f - target + L, in [0, 2L], and one XOR and one addition flag
the fields with f = target.  Every hit is confirmed by exact evaluation
of f before it is returned.
"""

from __future__ import annotations

import json
import os
import sys
from decimal import (MAX_EMAX, MAX_PREC, Context, Decimal, Inexact,
                     InvalidOperation, Rounded, localcontext)
from itertools import product
from math import ceil, log10, sqrt
from operator import index, mul
from typing import Iterator, List, NamedTuple, Optional, TextIO, Tuple

from .catalog import FormFamily
from .compose import ZeroResidual
from .polyring import PolyError, no_int_str_limit, write_chunks


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


# Every operation in this context is exact or raises: a result that would
# need more digits than MAX_PREC, or an exponent past MAX_EMAX, signals
# Rounded and Inexact, and any invalid operation signals InvalidOperation.
# localcontext() works on a copy, so no flag is ever set on this one.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX,
                 traps=[Inexact, Rounded, InvalidOperation])
_MASK = 2 ** 60 - 1
# The printout's cost model and cut (`SequenceResult._cut`): the cost of
# a step's work per coordinate that does not grow with the digits, in
# printed digits; the least estimated cost of each of the two ranges, one
# process each; and the most text, in characters, that the forked range's
# file may hold.
_ITERATE_DIGITS = 500
_RANGE_DIGITS = 2_000_000
_HELD_TEXT = 2 ** 24


def _printed(step: Tuple[Vec, ...], seed: Vec, count: int
             ) -> Iterator[Vec]:
    """The chain v_0 = seed, v_{i+1} = S v_i of `count` iterates in
    Decimal, for the printout: S's dense rows converted exactly once, each
    row of a step one C-level dot product in _EXACT, as in `_iterates`,
    and the seed row the int seed.  No printed zero is -0: a zero entry of
    S times a negative coordinate is Decimal -0, but each sum starts at the
    int 0, and 0 + Decimal('-0') is +0 under _EXACT's rounding, as is any
    sum of opposite values."""
    S = [tuple(map(Decimal, row)) for row in step]
    v = seed
    for i in range(count):
        if i:
            with localcontext(_EXACT):
                v = tuple([sum(map(mul, row, v)) for row in S])
        yield v


def _iterates(step: Tuple[Vec, ...], seed: Vec, count: int,
              mask: int = -1) -> Iterator[Vec]:
    """The chain v_0 = seed, v_{i+1} = S v_i of `count` iterates over
    ints, each coordinate & mask: with -1, every bit kept, the exact
    chain; with _MASK the chain mod 2**60 in small ints, since S v mod
    2**60 depends only on S and v mod 2**60.  Each row of a step is one
    C-level dot product over the dense row of S."""
    v = tuple([c & mask for c in seed])
    for i in range(count):
        if i:
            v = tuple([sum(map(mul, row, v)) & mask for row in step])
        yield v


def _certified(step: Tuple[Vec, ...], seed: Vec) -> bool:
    """The positivity certificate of the chain v_{i+1} = S v_i from the
    seed: h >= 2, every entry of S at least 1 and every seed coordinate
    positive.  Then (S v)_i >= sum_j v_j > v_i for every positive v, so
    every iterate is positive, every coordinate increases strictly, and no
    two iterates are equal.  h^2 + h comparisons, no big-integer work."""
    return (len(seed) >= 2 and all(c >= 1 for row in step for c in row)
            and all(c > 0 for c in seed))


def _product(A: Tuple[Vec, ...], B: Tuple[Vec, ...]) -> Tuple[Vec, ...]:
    """The matrix product A B of int matrices given row by row, each
    entry one C-level dot product."""
    columns = tuple(zip(*B))
    return tuple([tuple([sum(map(mul, row, col)) for col in columns])
                  for row in A])


def _power(S: Tuple[Vec, ...], e: int, v: Vec) -> Vec:
    """S^e v for e >= 0, by binary powering over the bits of e from the
    top: square at every bit, then multiply by S at a set bit.  Only the
    squarings multiply big ints by big ints, about log2(e) of them, where
    the chain takes e steps of h^2 products each."""
    if not e:
        return v
    M = S
    for bit in bin(e)[3:]:
        M = _product(M, M)
        if bit == "1":
            M = _product(M, S)
    return tuple([sum(map(mul, row, v)) for row in M])


def _check_printed(i: int, row: List[str], proven: Vec) -> None:
    """Guard on one printed iterate against its proven ints, exact or,
    for a positive chain, mod 2**60: each string has the sign of its int,
    and its last 60 characters read as an int have the int's |v| mod
    2**60.  2**60 divides 10**60, so those digits fix |v| mod 2**60.  A
    wrong value whose error d is confined to the last 18 digits fails,
    since 0 < |d| < 10**18 < 2**60, as does a one-digit change up to the
    57th digit from the end (a digit change is c * 10**(p-1) with
    |c| <= 9, and 2**60 divides it only from p = 58 on).  Each string
    costs the parse of at most 60 characters, and each int a mask of its
    lowest limbs (abs copies a negative one)."""
    if len(row) != len(proven):
        raise SequenceVerificationError(
            f"iterate {i}: printed {len(row)} coordinates, proved "
            f"{len(proven)}")
    for j, (text, v) in enumerate(zip(row, proven)):
        try:
            # a string of at most 60 characters may keep its "-"
            ok = text.startswith("-") == (v < 0) and \
                abs(int(text[-60:])) & _MASK == abs(v) & _MASK
        except ValueError:  # not an integer's digits
            ok = False
        if not ok:
            raise SequenceVerificationError(
                f"iterate {i}, coordinate {j + 1}: the printed digits differ "
                f"from the proven value")


class SequenceResult:
    """The proven chain of spec.count iterates v_0 = seed, v_{i+1} = S v_i,
    with `step` the step matrix S and `seed` the int seed.

    The chain keeps no iterate but `last`, the proven last iterate
    S^(count-1) seed by binary powering (the seed for a chain of at most
    one): iterate i has O(i) digits, so all of them would take memory
    quadratic in the count.  `solutions` and `rows()` run the int
    recurrence again on each read.

    `certified` says whether the chain is certified positive
    (`_certified`: h >= 2, S >= 1 entrywise, a positive seed): every
    iterate is positive and increases strictly in every coordinate, so
    f = 1 has infinitely many solutions in positive integers.  Such a
    chain's printout is checked against the int recurrence mod 2**60;
    any other chain's against the exact one.

    `proof` is the method of the identity proof the chain rests on,
    `FormFamily.verify` of the family's own law: "matrix".  `evaluated`
    counts the iterates checked by exact evaluation: the seed and the
    last one.
    Results are equal when all six fields are."""
    __slots__ = ("spec", "step", "proof", "seed", "evaluated", "last")

    def __init__(self, spec: SequenceSpec, step: Tuple[Vec, ...], proof: str,
                 seed: Vec, evaluated: int, last: Vec):
        self.spec, self.step, self.proof = spec, step, proof
        self.seed, self.evaluated, self.last = seed, evaluated, last

    def __eq__(self, other):
        if type(other) is not SequenceResult:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f)
                   for f in self.__slots__)

    @property
    def certified(self) -> bool:
        """Whether the chain is certified positive (`_certified`)."""
        return _certified(self.step, self.seed)

    @property
    def solutions(self) -> List[Vec]:
        """The int iterates, run from the seed by the exact recurrence
        (`_iterates`) with the same S as `generate_sequence` proved the
        chain with: a new list on every read, which holds the whole chain.
        `rows()` prints without it."""
        return list(_iterates(self.step, self.seed, self.spec.count))

    def rows(self) -> Iterator[List[str]]:
        """The iterates as decimal strings, one iterate at a time (`_range`
        over the whole chain, ended by the proven `last`)."""
        return self._range(0, self.spec.count, None, self.last)

    def _range(self, start: int, stop: int, before: Optional[Vec],
               end: Vec) -> Iterator[List[str]]:
        """The iterates start..stop-1 as decimal strings, given the proven
        iterate start-1 as `before` (None at start 0) and stop-1 as `end`.

        The strings come from running the chain in `decimal` (`_printed`)
        rather than from str() of the ints, which is quadratic in the
        digit count.  Each printed value equals its proven int:
        - the Decimal run applies the same S as the int recurrence to the
          same first iterate: the int seed at start 0, and otherwise
          S before, one int step, converted exactly by Decimal(int) (str()
          would be quadratic, and refused past 4300 digits); S's entries
          are converted exactly too;
        - in _EXACT every Decimal operation is exact or raises;
        - so the Decimal at each index equals the int there, and str() of
          an integral Decimal with exponent 0 is its plain decimal digits.
        Beside it runs the int recurrence (`_iterates`) from the same
        first iterate, mod 2**60 on a certified chain, whose every
        iterate is positive, and exactly on any other.  `_check_printed`
        compares every string's sign, and the residue mod 2**60 of its
        last 60 characters, with the int's, and the iterate stop-1 is
        compared exactly with `end`, which also catches an error past the
        60th digit from the end (2**60 divides 10**60); a mismatch raises
        SequenceVerificationError before the row is produced, and an int
        run of another length ValueError.  Rows are produced one at a
        time, so only the current iterate is held.
        """
        v = self.seed if before is None else tuple(
            [sum(map(mul, row, before)) for row in self.step])
        first = v if before is None else tuple(map(Decimal, v))
        proven = _iterates(self.step, v, stop - start,
                           _MASK if self.certified else -1)
        for i, (p, w) in enumerate(zip(_printed(self.step, first,
                                                stop - start),
                                       proven, strict=True), start):
            row = [str(c) for c in p]
            _check_printed(i, row, w)
            if i == stop - 1 and p != end:  # exact: Decimal == int
                raise SequenceVerificationError(
                    f"iterate {i}: the printed chain differs from the "
                    f"proven iterate")
            yield row

    def write_json(self, out: TextIO) -> None:
        """Write the chain as one JSON document and a newline: family,
        params, "mode" ("pairwise" for one partner, "triple" for two),
        the solutions as decimal strings, and "verified": true, since every
        iterate is proven before it is returned.  The solutions come from
        `rows()`, without json.dumps: a string of digits and "-" needs no
        escaping."""
        fam = self.spec.family
        head, _, tail = json.dumps({
            "family": fam.name,
            "params": [str(v) for v in (fam.param_values or ())],
            "mode": "pairwise" if len(self.spec.partners) == 1 else "triple",
            "solutions": None,
            "verified": True,
        }).partition('"solutions": null')
        self._write(out, head + '"solutions": [',
                    lambda row: ('["', '", "'.join(row), '"]'), ", ",
                    "]" + tail + "\n")

    def write_text(self, out: TextIO) -> None:
        """Write the chain one iterate per line, its coordinates joined by
        commas."""
        self._write(out, "", lambda row: (",".join(row),), "\n", "\n")

    def _cut(self) -> int:
        """The iterate at which the printout splits into the ranges
        [0, cut) and [cut, count), or count for one range.

        Printing iterate i is taken to cost its digits, plus
        _ITERATE_DIGITS per coordinate for the work of a step that does
        not grow with them, and the digits to grow linearly from the
        seed's to the last iterate's, read off their bit lengths: a cost
        a + g i, and C(n) = a n + g n^2 / 2 for the first n.  Its text is
        taken the same way, with 6 characters per coordinate and 2 per
        iterate in place of _ITERATE_DIGITS (a digit past the bits'
        estimate, a sign and JSON's separators): X(n) = x n + g n^2 / 2.

        The printout is one range, in this process, for a count below 2,
        on a platform without os.fork, os.memfd_create or
        os.sched_getaffinity, in a process that runs more than one thread,
        where a forked process could wait forever on a lock another thread
        held, with fewer than 2 CPUs this process may run on, and where
        C(count) is below 2 _RANGE_DIGITS.  Otherwise the cut solves
        C(cut) = C(count) / 2, so both ranges cost about the same (with
        digits in proportion to i, cut = count / sqrt(2)), except that the
        second range, whose text waits in a file until this process copies
        it, holds at most _HELD_TEXT: the cut is at least the n with
        X(count) - X(n) = _HELD_TEXT."""
        count = self.spec.count
        threading = sys.modules.get("threading")
        if count < 2 or not all(hasattr(os, f) for f in (
                "fork", "memfd_create", "sched_getaffinity")) or (
                threading and threading.active_count() > 1) or len(
                os.sched_getaffinity(0)) < 2:
            return count
        h = len(self.seed)
        d, e = (sum(c.bit_length() for c in v) * log10(2)
                for v in (self.seed, self.last))
        g = (e - d) / (count - 1)
        a, x = d + _ITERATE_DIGITS * h, d + 6 * h + 2

        def first(t: float, a: float) -> float:  # the n of a n + g n^2/2 = t
            return 2 * t / (a + sqrt(a * a + 2 * g * t)) if t > 0 else 0

        total = a * count + g * count * count / 2
        if total < 2 * _RANGE_DIGITS:
            return count
        n = ceil(first(x * count + g * count * count / 2 - _HELD_TEXT, x))
        t = max(total / 2, a * n + g * n * n / 2)
        return min(count - 1, max(1, round(first(t, a))))

    def _write(self, out: TextIO, head: str, row_pieces, sep: str,
               tail: str) -> None:
        """Write head, the pieces row_pieces(row) of every row with sep
        between rows, and tail, in chunks (`write_chunks`): one system call
        per chunk rather than one per iterate, and no row's text copied
        before its chunk is joined.

        The rows are printed as the ranges [0, cut) and [cut, count) of
        `_cut`, each by `_range`.  The proven iterate cut-1 is taken once,
        S^(cut-1) seed by binary powering, before the fork: the first range
        is checked against it exactly at its end, and the second restarts
        one int step past it.  The second range is printed by a forked
        process (`_spawn`) into an anonymous file, started before the first
        range so that the two run at once.  This process prints the first
        range straight to `out`, then waits for the forked process and
        copies its text to `out` in pieces no longer than a row, through
        the same chunks.  Where the fork raised OSError, or the forked
        process did not exit 0, this process prints the second range
        itself: the rows are the same in every process, so a failed check
        raises here with its type and message, and a range whose process a
        signal ended is printed whole.  The forked process is killed and
        reaped on every way out, an error or a closed `out` included, and
        its file is closed."""
        count, cut = self.spec.count, self._cut()
        at = self.last if cut == count else _power(self.step, cut - 1,
                                                   self.seed)
        rest = (text for row in self._range(cut, count, at, self.last)
                for text in (sep, *row_pieces(row)))
        child = None  # the forked process's id, 0 once reaped, and file

        def pieces():
            nonlocal child, rest
            yield head
            for i, row in enumerate(self._range(0, cut, None, at)):
                if i:
                    yield sep
                parts = row_pieces(row)
                yield from parts
            if child:
                pid, fd = child
                status = os.waitpid(pid, 0)[1]
                child = 0, fd  # reaped: only its file is left to close
                if not status:  # it printed the rest into its file
                    rest = _read(fd, len(sep) + sum(map(len, parts)))
            if cut < count:
                yield from rest
            yield tail

        try:
            if cut < count:
                try:
                    child = _spawn(rest)
                except OSError:  # no process to spare: the rest prints here
                    pass
            write_chunks(out, pieces())
        finally:
            if child:
                pid, fd = child
                if pid:
                    import signal
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                os.close(fd)


def _spawn(pieces: Iterator[str]) -> Tuple[int, int]:
    """Fork a process that writes the concatenation of `pieces` in chunks
    (`write_chunks`) to a new anonymous file (os.memfd_create) and exits
    0, or 1 on an exception.  The forked process never returns from here:
    os._exit skips every cleanup, so no buffer it inherited is flushed
    twice.  Returns its process id and the file's descriptor."""
    fd = os.memfd_create("matform-range")
    try:
        pid = os.fork()
    except BaseException:
        os.close(fd)
        raise
    if pid:
        return pid, fd
    code = 1
    try:
        with open(fd, "w", encoding="ascii", closefd=False) as f:
            write_chunks(f, pieces)
        code = 0
    finally:
        os._exit(code)


def _read(fd: int, size: int) -> Iterator[str]:
    """The text of the file `fd` from its start, in pieces of at most
    `size` characters."""
    offset = 0
    while data := os.pread(fd, size, offset):
        offset += len(data)
        yield data.decode("ascii")


def generate_sequence(spec: SequenceSpec) -> SequenceResult:
    """Iterate the composition map `count` times total, seed included.

    The map is the family's bilinear `pair_map` for one partner and its
    trilinear `triple_map()` for two; argument slot s gets slots[order[s]],
    where slots = [previous iterate, *partners].  The map is linear in the
    previous iterate, so the chain is v_{i+1} = S v_i for the step matrix
    S, the map's `argument_matrix` at the partners with the iterate's slot
    free: one pass over the law's integer terms, and each iterate h^2
    products.  Raises ValueError for no partners, more than two, an order
    that is not a permutation of 0..len(partners) or a negative count, and
    SeedNotSolution / StepNotSolution up front.

    The chain is then proven once, by the family's composition identity
    f(x)f(y)[f(z)] = f(map(x, y[, z])) (`FormFamily.verify` of the
    family's own law, which its derivation proves), and
    SequenceVerificationError is raised up front where that is no
    ZeroResidual.  With the partners' f = 1, the
    identity gives f(S v) = f(v) for every v, so f(v_i) = f(seed) = 1 by
    induction.  The last iterate is S^(count-1) seed by binary powering
    (`_power`), and is evaluated exactly: f is invariant under S, so a
    slip in the integer arithmetic anywhere shows in f of the last
    iterate, and SequenceVerificationError is raised if it is not 1.
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

    step = tuple(map(tuple, cmap.argument_matrix(
        [slots[s] for s in order], order.index(0))))
    last = seed
    if spec.count > 1:
        last = _power(step, spec.count - 1, seed)
        if fam.evaluate(last) != 1:
            with no_int_str_limit():
                raise SequenceVerificationError(
                    f"iterate {spec.count - 1} fails f = 1: {last}")
    return SequenceResult(spec=spec, step=step, proof=proof.method,
                          seed=seed,
                          evaluated=min(spec.count, 2),  # seed and last
                          last=last)


_SEARCH_GUARD = 10 ** 9
# The most fields, one per trailing point, in one packed int of
# `brute_force_search`; a wider last coordinate fills one int alone.  More
# fields leave fewer prefixes to walk, but each monomial costs an operation
# on a longer int: 625 was the fastest cap, or close, on boxes of 81-2187.
_FIELDS = 625


def _packed_coefficients(terms, p: int, values, w: int):
    """The polynomial `terms` in x_1..x_h as one in its first p coordinates
    whose coefficients are packed ints over the trailing box
    values^(h - p) of x_{p+1}..x_h.

    Field i, w bits wide at bit w*i, stands for the i-th trailing point q
    in lexicographic order.  A monomial c * x^a * q^b adds c * Q_b to the
    coefficient of x^a, where Q_b = sum_i q^b * 2**(w*i) over the trailing
    points.  That is the tensor-product layout: with b = (e, *rest),
    Q_b = sum_j v_j^e * Q_rest * 2**(w * j * n_rest) over the values v_j,
    where Q_rest, over the n_rest points of the coordinates after the
    first trailing one, fills the fields of one value v_j.  Both are
    identities of integers whatever the fields' signs.  Each suffix of
    each b is built once, by len(values) shifts and small multiplies, the
    shortest first.
    """
    suffixes = {(): (1, 1)}  # b -> (Q_b, number of fields)

    def trailing(b):
        got = suffixes.get(b)
        if got is None:
            rest, n = trailing(b[1:])
            shift, e = w * n, b[0]
            q = 0
            for v in reversed(values):
                q = (q << shift) + v ** e * rest
            got = suffixes[b] = (q, n * len(values))
        return got

    out: dict = {}
    for m, c in terms.items():
        a = m[:p]
        out[a] = out.get(a, 0) + c * trailing(m[p:])[0]
    return out


def brute_force_search(fam: FormFamily, bound: int,
                       target: int = 1) -> List[Vec]:
    """All v with max|v_i| <= bound and f(v) = target, in lexicographic
    order.

    The box is searched in one packed pass.  Its last r coordinates, r
    as large as keeps (2B+1)^r <= _FIELDS but at least 1, make the
    trailing box, and f at every trailing point is held in one w-bit field
    of one int (`_packed_coefficients`).  The first p = h - r coordinates
    are then fixed one at a time, depth first and in increasing order: a
    value v of the next one folds the packed coefficients {m: c} left into
    {m[1:]: sum of c * v^m[0]}, and Horner's rule runs over the last of
    them.  Every multiply-add is one big-integer operation for the whole
    trailing box; for p = 0 the whole box is one int.

    Each leaf g, whose fields are the signed values of f, is tested
    without a carry.  L = sum |c_m| B^|m| + |target| bounds |f - target|
    on the box, and w is chosen with 2**(w-1) > 2L.  Adding the bias
    (L - target) * ones to g gives the exact base-2**w expansion of the
    fields f - target + L, all in [0, 2L], so every top bit is clear.  XOR
    with L * ones keeps the top bits clear and zeroes exactly the fields
    with f = target.  For such a field y, y + low (low = 2**(w-1) - 1 in
    every field) sets the top bit unless y = 0 and carries out of no
    field, so high & ~(z + low) has its top bit set at exactly the hits,
    read off in lexicographic order after their prefix, so the hits need
    no sort.  The same bound shows that no point hits when |target|
    exceeds sum |c_m| B^|m|.

    Each hit is confirmed by `FormFamily.evaluate` before it is returned;
    SearchVerificationError is raised if one fails.  A negative bound
    raises ValueError, and a non-integer bound or target TypeError.
    """
    bound, target = index(bound), index(target)
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    side = 2 * bound + 1
    h = fam.h
    if side ** h > _SEARCH_GUARD:
        raise SearchSpaceTooLarge(f"{side}^{h} candidate points")
    if fam.is_symbolic() and fam.arity > 0:
        raise ValueError(f"{fam.name} needs numeric parameter values")
    terms = fam.form.terms
    reach = sum(abs(c) * bound ** sum(m) for m, c in terms.items())
    if abs(target) > reach:
        return []
    values = range(-bound, bound + 1)
    r = 1
    while r < h and side ** (r + 1) <= _FIELDS:
        r += 1
    p = h - r
    L = reach + abs(target)
    w = (2 * L).bit_length() + 1
    powers = {v: [v ** e for e in range(max(map(sum, terms), default=0) + 1)]
              for v in values} if p > 1 else {}
    out: List[Vec] = []
    points = list(product(values, repeat=r))
    ones = ((1 << w * len(points)) - 1) // ((1 << w) - 1)
    bias, xor = (L - target) * ones, L * ones
    high = ones << (w - 1)
    low = high - ones

    def test(g: int, prefix: Vec) -> None:
        hits = high & ~(((g + bias) ^ xor) + low)
        while hits:
            bit = hits & -hits
            out.append(prefix + points[bit.bit_length() // w - 1])
            hits ^= bit

    def walk(prefix: Vec, poly: dict) -> None:
        if len(prefix) == p - 1:  # the last prefix coordinate
            coeffs = [poly.get((e,), 0) for e in range(top, -1, -1)]
            for t in values:
                acc = 0
                for c in coeffs:
                    acc = acc * t + c
                test(acc, prefix + (t,))
            return
        for v in values:
            pw, folded = powers[v], {}
            for m, c in poly.items():
                rest = m[1:]
                folded[rest] = folded.get(rest, 0) + c * pw[m[0]]
            walk(prefix + (v,), folded)

    packed = _packed_coefficients(terms, p, values, w)
    if p:
        top = max((m[-1] for m in packed), default=0)  # degree in x_p
        walk((), packed)
    else:
        test(packed.get((), 0), ())
    for v in out:
        value = fam.evaluate(v)
        if value != target:
            with no_int_str_limit():
                raise SearchVerificationError(
                    f"search hit {v} has f = {value} != {target}")
    return out
