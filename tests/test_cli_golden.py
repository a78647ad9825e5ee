"""CLI stdout, byte for byte: each argv of cli_golden.json against its
recorded exit code and the SHA-256 of its stdout.

The argvs cover every subcommand over the catalog: symbolic and numeric
proofs, closures, solution chains under every slot order, search boxes,
inversion and block composition.  Only stdout is digested; the stderr of a
usage error is argparse wording, which differs across Python versions.
"""

import hashlib
import json
from pathlib import Path

import pytest

from matform import dioph
from matform.cli import main

GOLDEN = json.loads((Path(__file__).with_name("cli_golden.json")).read_text())


@pytest.mark.parametrize("argv", list(GOLDEN))
def test_stdout_unchanged(capsys, argv):
    code = main(argv.split(" "))
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert [code, digest] == GOLDEN[argv], \
        f"matform {argv}: now exit {code}, stdout sha256 {digest}"


# How `solve` proves each family's chain: once by the step identity where
# the family has an integer matrix, else by evaluating every iterate.
ROUTES = {"quartic4x4": "step identity", "octic8x8": "step identity",
          "threefold4x4": "step identity", "threefold8x8": "step identity",
          "sextic_uv": "evaluated", "threefold_quadratic": "evaluated"}


@pytest.mark.parametrize("argv", [a for a in GOLDEN if a.startswith("solve ")])
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
    assert r.proof == ROUTES[r.spec.family.name]
    assert r.evaluated == (2 if r.proof == "step identity"
                           else len(r.solutions))
