"""CLI stdout, byte for byte: each argv of cli_golden.json against its
recorded exit code and the SHA-256 of its stdout.

The argvs cover every subcommand over the catalog: symbolic and numeric
proofs, closures, solution chains under every slot order, search boxes,
inversion and block composition, and every usage error the CLI raises
itself, each with exit 2 and an empty stdout.  Only stdout is digested; the
stderr of a usage error is argparse wording, which differs across Python
versions.
"""

import hashlib
import json
from pathlib import Path

import pytest

from matform import catalog, compose, dioph
from matform.cli import main
from matform.linstruct import LinearStructure

from polytools import from_json_obj

GOLDEN = json.loads((Path(__file__).with_name("cli_golden.json")).read_text())


@pytest.mark.parametrize("argv", list(GOLDEN))
def test_stdout_unchanged(capsys, monkeypatch, argv):
    """Each argv, run from a fresh registry as a process runs it, prints
    its digest and decides each (structure, order) closure at most once:
    no structure keeps its closure, so a second decision would be the
    work a cache saved."""
    monkeypatch.setattr(catalog, "_SYMBOLIC", {})
    calls = []
    decide = LinearStructure._decide

    def spy(self, order):
        calls.append((self, order))
        return decide(self, order)
    monkeypatch.setattr(LinearStructure, "_decide", spy)
    code = main(argv.split(" "))
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert [code, digest] == GOLDEN[argv], \
        f"matform {argv}: now exit {code}, stdout sha256 {digest}"
    assert len(set(calls)) == len(calls), calls


# How `solve` proves each family's chain: by the method of the family's
# identity proof, the matrix route for every family's own law.
ROUTES = {"quartic4x4": "matrix", "octic8x8": "matrix",
          "threefold4x4": "matrix", "threefold8x8": "matrix",
          "sextic_uv": "matrix", "threefold_quadratic": "matrix"}


@pytest.mark.parametrize("argv", [a for a in GOLDEN if a.startswith("solve ")
                                  and GOLDEN[a][0] == 0])
def test_solve_reports_its_route(capsys, monkeypatch, argv):
    results = []
    generate = dioph.generate_sequence

    def recording(spec):
        results.append(generate(spec))
        return results[-1]
    monkeypatch.setattr(dioph, "generate_sequence", recording)
    assert main(argv.split(" ")) == 0
    capsys.readouterr()
    [r] = results
    assert (r.proof, r.evaluated) == (ROUTES[r.spec.family.name], 2)


@pytest.mark.parametrize("argv", [a for a in GOLDEN
                                  if a.startswith(("verify ", "solve "))])
def test_proofs_expand_nothing(capsys, monkeypatch, argv):
    # every `verify` and `solve` proves the family's own law, which its
    # closure proves: the expansion is never reached
    def refuse(*args):
        raise AssertionError("verify_identity expanded an identity")
    monkeypatch.setattr(catalog, "verify_identity", refuse)
    monkeypatch.setattr(compose, "verify_identity", refuse)
    code = main(argv.split(" "))
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert [code, digest] == GOLDEN[argv]


def _numeric_family(words):
    """The family a numeric argv names, at its --params values, or None."""
    params = next((w for w in words if w.startswith("--params=")), None)
    return params and catalog.family(
        words[words.index("--family") + 1],
        [int(v) for v in params[len("--params="):].split(",")])


def _prints_its_own_numeric_law(argv: str) -> bool:
    """A numeric `closure --format json` argv that closes and prints the
    closure of the family's own structure at its values: not
    threefold_quadratic's (in t, b, c) and not the symbolic one where a
    divisor vanishes."""
    words = argv.split(" ")
    fam = words[0] == "closure" and "json" in words and _numeric_family(words)
    return bool(fam) and GOLDEN[argv][0] == 0 and \
        fam.structure is fam._own_structure


@pytest.mark.parametrize("argv", [a for a in GOLDEN
                                  if _prints_its_own_numeric_law(a)])
def test_numeric_closure_prints_the_law_solve_steps_by(capsys, argv):
    """The outputs `closure --params` prints are the forms of the family's
    own law at those values, the law `solve`, `invert` and `verify` use."""
    words = argv.split(" ")
    assert main(words) == 0
    printed = json.loads(capsys.readouterr().out)["outputs"]
    fam = _numeric_family(words)
    law = fam.pair_map if "pair" in words else fam.triple_map()
    assert [from_json_obj(obj) for obj in printed] == law.forms(law.coord_sets)
