"""Mutation check: does the suite catch a planted defect?

Each mutant is one string edit of one file under src/matform, which must
match exactly once, so an edit whose target a refactor removed fails the
run instead of being skipped.  The edit is made in a temporary copy of
src/ and tests/, and the test files named beside it run there with
`pytest -x`: at least one test must fail (the mutant is killed).  The
unmutated copy runs every named file first and must pass.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME [NAME]  # the named ones

It prints each mutant's outcome, its killing test and its time, then the
count killed out of the total and the whole run's time.  The exit status
is 0 when every mutant is killed and 1 otherwise.  A surviving mutant
names a defect no test catches: it stays on the list until a test does.
Tier-1 does not collect this file (its name does not start with test_).
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 600  # seconds per pytest run; a run past it counts as killed


class Mutant(NamedTuple):
    name: str
    path: str  # under src/matform
    old: str
    new: str
    tests: Tuple[str, ...]  # test files under tests/, one must fail


DIOPH = ("test_dioph.py",)

MUTANTS = (
    # dioph: the certificate, the powering, the printout's guards
    Mutant("certificate-bound", "dioph.py",
           "all(c >= 1 for row in step for c in row)",
           "all(c >= 0 for row in step for c in row)", DIOPH),
    Mutant("power-extra-bit", "dioph.py",
           "for bit in bin(e)[3:]:", "for bit in bin(e)[2:]:", DIOPH),
    Mutant("last-iterate-comparison-removed", "dioph.py",
           "if i == stop - 1 and p != end:", "if False:", DIOPH),
    Mutant("sign-comparison-removed", "dioph.py",
           'ok = text.startswith("-") == (v < 0) and \\\n',
           "ok = \\\n", DIOPH),
    Mutant("residue-comparison-removed", "dioph.py",
           "abs(int(text[-60:])) & _MASK == abs(v) & _MASK",
           "int(text[-60:]) is not None", DIOPH),
    Mutant("decimal-step-slip", "dioph.py",
           "sum(map(mul, row, v)) for row in S]",
           "sum(map(mul, row, v), 1) for row in S]", DIOPH),
    Mutant("recurrence-one-short", "dioph.py",
           "    for i in range(count):\n        if i:\n"
           "            v = tuple([sum(map(mul, row, v)) & mask",
           "    for i in range(count - 1):\n        if i:\n"
           "            v = tuple([sum(map(mul, row, v)) & mask", DIOPH),
    Mutant("printout-zip-not-strict", "dioph.py",
           "proven, strict=True)", "proven)", DIOPH),
    Mutant("mask-59-bits", "dioph.py",
           "_MASK = 2 ** 60 - 1", "_MASK = 2 ** 59 - 1", DIOPH),
    Mutant("uncertified-chain-masked", "dioph.py",
           "_MASK if self.certified else -1", "_MASK", DIOPH),
    # dioph: the printout's cut and its forked range
    Mutant("range-end-comparison-dropped", "dioph.py",
           "if i == stop - 1 and p != end:",
           "if i == self.spec.count - 1 and p != end:", DIOPH),
    Mutant("range-exit-status-ignored", "dioph.py",
           "if not status:", "if True:", DIOPH),
    Mutant("range-start-off-by-one", "dioph.py",
           "self._range(cut, count, at, self.last)",
           "self._range(cut - 1, count, at, self.last)", DIOPH),
    Mutant("range-boundary-step-skipped", "dioph.py",
           "v = self.seed if before is None else tuple(\n"
           "            [sum(map(mul, row, before)) for row in self.step])",
           "v = self.seed if before is None else before", DIOPH),
    Mutant("range-processes-not-reaped", "dioph.py",
           "if pid:\n                    import signal",
           "if False:\n                    import signal", DIOPH),
    Mutant("held-text-bound-dropped", "dioph.py",
           "t = max(total / 2, a * n + g * n * n / 2)", "t = total / 2",
           DIOPH),
    Mutant("cut-cost-iterate-digits-dropped", "dioph.py",
           "a, x = d + _ITERATE_DIGITS * h, d + 6 * h + 2",
           "a, x = d, d + 6 * h + 2", DIOPH),
    Mutant("search-leaf-bias", "dioph.py",
           "bias, xor = (L - target) * ones, L * ones",
           "bias, xor = (L - target + 1) * ones, L * ones", DIOPH),
    Mutant("search-horner", "dioph.py",
           "acc = acc * t + c", "acc = acc * t - c", DIOPH),
    # the hits are read off in the walk's order, with no sort after it
    Mutant("search-point-order", "dioph.py",
           "for t in values:", "for t in reversed(values):", DIOPH),
    # linstruct: the integer linearization, lifts and closure tables
    Mutant("argument-matrix-slot", "linstruct.py",
           "M[i][js[slot]] += v", "M[i][js[-1]] += v",
           ("test_compose.py", "test_dioph.py")),
    Mutant("kron-terms-order", "linstruct.py",
           "order(m1 + m2)", "order(m2 + m1)",
           ("test_closure.py", "test_linstruct.py")),
    Mutant("cube-index", "linstruct.py",
           "out.setdefault((t, (r, s, u)), {})",
           "out.setdefault((v, (r, s, u)), {})", ("test_closure.py",)),
    Mutant("read-table-divisor-test", "linstruct.py",
           "if divided is None:", "if divided is None and False:",
           ("test_closure.py", "test_linstruct.py")),
    Mutant("combine-values-top-dropped", "linstruct.py",
           "for c in cell) + _top(values))", "for c in cell))",
           ("test_linstruct.py",)),
    Mutant("specialize-factor-values", "linstruct.py",
           "f.specialize([at[p] for p in f.params])",
           "f.specialize(pv[:len(f.params)])",
           ("test_closure.py", "test_catalog.py")),
    # equivalent in its law: only the count of basis products shows it.
    # 3 * top as the pass's field bound, for (order + 1) * top, would be
    # equivalent: a field of bound.bit_length() + 1 bits holds 4 * top
    Mutant("contraction-skipped", "linstruct.py",
           "if not isinstance(got, NotInSpan):", "if False:",
           ("test_linstruct.py",)),
    # catalog and compose: which law is the family's own, the expansion
    # of any other map, and the inverse
    Mutant("own-law-arity-guard-dropped", "catalog.py",
           '(cmap.k == 3 or self.kind == "pair") and ', "",
           ("test_catalog.py",)),
    Mutant("verify-expand-route-skipped", "catalog.py",
           "if not self._is_own_law(cmap):", "if False:",
           ("test_compose.py",)),
    Mutant("invert-back-substitution", "compose.py",
           "for j in range(k + 1, h))) // a[k][k]",
           "for j in range(k + 2, h))) // a[k][k]",
           ("test_compose.py", "test_catalog.py")),
    # cli: usage errors, exit 2 with nothing on stdout
    Mutant("vector-length-guard-short", "cli.py",
           "if vec is not None and len(vec) != fam.h:",
           "if vec is not None and len(vec) > fam.h:",
           ("test_cli_golden.py",)),
    Mutant("pairwise-order-guard-dropped", "cli.py",
           "elif args.order is not None:", "elif False:",
           ("test_cli_golden.py",)),
    # polyring: the CLI's JSON writers
    Mutant("json-pieces-term-separator", "polyring.py",
           'sep = ", "\n        yield "]}"', 'sep = ","\n        yield "]}"',
           ("test_cli_golden.py", "test_polyring.py")),
    Mutant("quoted-names-spelled-by-str", "polyring.py",
           "_QUOTED = _Spelling(json.dumps)", "_QUOTED = _Spelling(str)",
           ("test_cli_golden.py", "test_polyring.py")),
    Mutant("write-chunks-last-chunk-dropped", "polyring.py",
           '            chunk, size = [], 0\n    out.write("".join(chunk))\n',
           "            chunk, size = [], 0\n",
           ("test_cli_golden.py", "test_polyring.py")),
    # polyring: the one product kernel, the field layout of packed
    # monomials, the one substitution kernel, powering, the packed
    # division, the DP determinant and the one fraction-free elimination
    Mutant("mul-packed-zero-filter-dropped", "polyring.py",
           "            s = get(m, 0) + c1 * c2\n            if s:\n"
           "                out[m] = s\n            else:\n"
           "                del out[m]\n",
           "            out[m] = get(m, 0) + c1 * c2\n",
           ("test_polyring.py",)),
    # the larger top would be equivalent: a field of bound.bit_length() + 1
    # bits holds the sum of two exponents at most `bound`
    Mutant("mul-field-bound-smaller-top", "polyring.py",
           "Packing(self.table, _top((self,)) + _top((other,)))",
           "Packing(self.table, min(_top((self,)), _top((other,))))",
           ("test_polyring.py",)),
    Mutant("packing-mask-one-bit-wide", "polyring.py",
           "self.mask = (1 << bits) - 1", "self.mask = (1 << bits + 1) - 1",
           ("test_polyring.py",)),
    Mutant("specialize-kept-variable-constant", "polyring.py",
           "else table.var(n)", "else table.const(1)", ("test_polyring.py",)),
    Mutant("substitute-power-squared", "polyring.py",
           "row.append(_mul_packed({}, row[1], row[-1]))",
           "row.append(_mul_packed({}, row[-1], row[-1]))",
           ("test_polyring.py",)),
    Mutant("pow-extra-bit", "polyring.py",
           "for bit in bin(e)[3:]:", "for bit in bin(e)[2:]:",
           ("test_polyring.py",)),
    Mutant("packing-divide-guard", "polyring.py",
           "if c % scale or ((m | guard) - need) & guard != guard:",
           "if c % scale:", ("test_polyring.py", "test_closure.py")),
    Mutant("det-sign-parity", "polyring.py",
           'sign = -1 if bin(mask >> (j + 1)).count("1") & 1 else 1',
           'sign = -1 if bin(mask >> (j + 2)).count("1") & 1 else 1',
           ("test_polyring.py", "test_catalog.py")),
    Mutant("bareiss-division", "polyring.py",
           "a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev",
           "a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev ** 2",
           ("test_polyring.py", "test_compose.py")),
    Mutant("bareiss-swap-sign", "polyring.py",
           "sign = -sign", "sign = sign",
           ("test_polyring.py", "test_compose.py")),
)


def _pytest(copy: Path, files, stop_at_first: bool
            ) -> Tuple[Optional[int], List[str]]:
    """Run pytest on tests/<file> for each file in the copy, with its src/
    first on the import path: the exit code (None past TIMEOUT) and the
    failed and errored test ids."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
            "no:cacheprovider", *(["-x"] if stop_at_first else []),
            *(f"tests/{f}" for f in files)]
    try:
        run = subprocess.run(argv, cwd=copy, env=env, text=True,
                             stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, []
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0]
              for line in run.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    if run.returncode not in (0, 1, 2):  # usage error, nothing collected
        sys.exit(f"pytest exited {run.returncode}:\n{run.stdout}")
    return run.returncode, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help="mutants to run (default: all of them)")
    names = parser.parse_args(argv).names
    known = {m.name for m in MUTANTS}
    if set(names) - known:
        parser.error(f"unknown mutants: {sorted(set(names) - known)}; "
                     f"known: {sorted(known)}")
    chosen = [m for m in MUTANTS if not names or m.name in names]
    sources = {}
    for m in chosen:
        text = sources.setdefault(
            m.path, (ROOT / "src" / "matform" / m.path).read_text())
        if text.count(m.old) != 1:
            sys.exit(f"mutant {m.name}: its edit matches {m.path} "
                     f"{text.count(m.old)} times, not once")

    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="matform-mutants-") as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__",
                                                          ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        files = sorted({f for m in chosen for f in m.tests})
        code, failed = _pytest(copy, files, stop_at_first=False)
        if code != 0:
            sys.exit(f"the unmutated copy fails {', '.join(files)}: "
                     f"{failed or 'exit ' + str(code)}")
        print(f"unmutated: {', '.join(files)} pass "
              f"({time.perf_counter() - start:.1f} s)", flush=True)

        killed = 0
        for m in chosen:
            target = copy / "src" / "matform" / m.path
            target.write_text(sources[m.path].replace(m.old, m.new))
            began = time.perf_counter()
            try:
                code, failed = _pytest(copy, m.tests, stop_at_first=True)
            finally:
                target.write_text(sources[m.path])
            seconds = time.perf_counter() - began
            if code is None:
                outcome = f"killed by the {TIMEOUT} s timeout"
            elif code:
                outcome = "killed by " + (failed[0] if failed
                                          else f"exit {code}")
            else:
                outcome = f"SURVIVED {', '.join(m.tests)}"
            killed += code != 0
            print(f"{m.name}: {outcome} ({seconds:.1f} s)", flush=True)
    print(f"{killed}/{len(chosen)} mutants killed in "
          f"{time.perf_counter() - start:.1f} s")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main())
