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

from matform.cli import main

GOLDEN = json.loads((Path(__file__).with_name("cli_golden.json")).read_text())


@pytest.mark.parametrize("argv", list(GOLDEN))
def test_stdout_unchanged(capsys, argv):
    code = main(argv.split(" "))
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert [code, digest] == GOLDEN[argv], \
        f"matform {argv}: now exit {code}, stdout sha256 {digest}"
