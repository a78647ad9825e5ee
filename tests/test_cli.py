"""Command-line interface: output formats, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matform import catalog, cli, polyring
from matform.catalog import FormFamily
from matform.cli import main
from matform.polyring import no_int_str_limit
from matform.linstruct import LinearStructure, MultilinearMap
from matform.polyring import PolyMatrix, Polynomial

import paper
from polytools import from_json_obj

QUARTIC = ("--family", "quartic4x4", "--params", "5,-23,2,-7")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_commands():
    """The `matform ...` argvs of the README's "CLI usage" block, with
    backslash continuations joined and comments dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI usage", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("matform ")]


def readme_library_example() -> str:
    """The README's "Library example" python block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Library example", 1)[1].split("```python\n", 1)[1]
    return block.split("```", 1)[0]


class TestListFamilies:
    def test_json_output(self, capsys):
        code, out, err = run_cli(capsys, "list-families")
        assert code == 0
        entries = json.loads(out)
        assert any(e["name"] == "octic8x8" for e in entries)

    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "list-families", "--format", "text")
        assert code == 0
        assert "quartic4x4" in out


    def test_builds_no_family(self, capsys, monkeypatch):
        # the registry alone answers: no builder, structure, law or family
        def refuse(*args, **kwargs):
            raise AssertionError("list-families built part of a family")
        for name, entry in catalog._REGISTRY.items():
            monkeypatch.setitem(catalog._REGISTRY, name,
                                entry._replace(build=refuse))
        monkeypatch.setattr(catalog, "_SYMBOLIC", {})
        monkeypatch.setattr(FormFamily, "__init__", refuse)
        monkeypatch.setattr(LinearStructure, "from_matrix", refuse)
        monkeypatch.setattr(MultilinearMap, "from_forms", refuse)
        golden = json.loads(
            Path(__file__).with_name("cli_golden.json").read_text())
        for argv in ("list-families", "list-families --format text"):
            code, out, _ = run_cli(capsys, *argv.split(" "))
            digest = hashlib.sha256(out.encode()).hexdigest()
            assert [code, digest] == golden[argv]


def modules_after(code: str) -> set:
    """The names in sys.modules of a fresh interpreter once it has run
    `code`; they are written to stderr, after whatever `code` prints."""
    proc = subprocess.run(
        [sys.executable, "-c",
         code + "\nimport sys\nprint(*sys.modules, file=sys.stderr)"],
        capture_output=True, text=True, check=True)
    return set(proc.stderr.splitlines()[-1].split())


class TestStartupBudget:
    """What a CLI process imports (see README, "Start-up and exit"): `import
    matform.cli` loads the four layers every command may run, `polyring`,
    `linstruct`, `compose` and `catalog`, up front, whatever the command;
    only `solve` and `search` add `matform.dioph`, and with it `decimal`;
    and no command loads the modules in UNUSED.  Measured against `python
    -c pass` in the same interpreter, so whatever `site` loads does not
    count."""

    LAYERS = {"matform.polyring", "matform.linstruct", "matform.compose",
              "matform.catalog"}
    UNUSED = {"inspect", "dataclasses", "fractions", "decimal",
              "matform.dioph"}

    def test_import_loads_the_four_layers_and_no_unused_module(self):
        added = modules_after("import matform.cli") - modules_after("pass")
        assert "matform.cli" in added
        assert self.LAYERS <= added
        assert not added & self.UNUSED

    @pytest.mark.parametrize("argv, loads", [
        ("list-families", False),
        ("verify --family quad2x2", False),
        ("solve --family quad2x2 --params 0,-2 --seed 3,2 --step 3,2 "
         "--count 3", True),
        ("search --family quad2x2 --params 0,-2 --bound 3", True),
    ])
    def test_only_solve_and_search_load_dioph(self, argv, loads):
        after = modules_after(
            f"from matform.cli import main\nmain({argv.split(' ')!r})")
        assert ("matform.dioph" in after) == loads

    @pytest.mark.parametrize("point", ["6,2,3,1", "1,1,0,0", "0,0,0,0"])
    def test_invert_loads_no_rational_arithmetic(self, point):
        # invert solves by integer cofactors: neither `fractions` nor the
        # `decimal` that it imports
        argv = ["invert", "--family", "quartic4x4", "--params=5,-23,2,-7",
                "--point", point]
        added = modules_after(f"from matform.cli import main\nmain({argv!r})") \
            - modules_after("pass")
        assert "matform.compose" in added
        assert not added & {"fractions", "decimal"}


class TestEmitForm:
    def test_text_quad(self, capsys):
        code, out, _ = run_cli(capsys, "emit-form", "--family", "quad2x2",
                               "--params", "0,1", "--format", "text")
        assert code == 0
        assert out.strip() == "x1^2 + x2^2"

    def test_json_symbolic(self, capsys):
        code, out, _ = run_cli(capsys, "emit-form", "--family", "quad2x2",
                               "--params", "symbolic")
        assert code == 0
        obj = json.loads(out)
        assert set(obj["vars"]) == {"p", "q", "x1", "x2"}

    def test_unknown_family_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "emit-form", "--family", "zzz")
        assert code == 2
        assert out == ""
        assert "unknown family" in err


class TestVerify:
    def test_zero_residual_text(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "quad2x2")
        assert code == 0
        assert out.strip() == "ZERO-RESIDUAL"

    def test_zero_residual_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "cubic3x3",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["status"] == "zero-residual"

    def test_threefold_family_verifies_trilinear_law(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family",
                               "threefold_quadratic")
        assert code == 0
        assert out.strip() == "ZERO-RESIDUAL"


class TestOnlyTheAskedFormatIsBuilt:
    """`--format json` renders no polynomial as text, neither its whole
    text nor its text's pieces, and `--format text` writes no JSON, neither
    a polynomial's text nor any json.dumps: the other rendering of a large
    form is waste."""

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("argv, exit_code", [
        (("emit-form", "--family", "quad2x2"), 0),
        (("closure", "--family", "quad2x2", "--order", "pair"), 0),
        (("closure", "--family", "threefold4x4",
          "--params=-1,-4,1,-1,1,1", "--order", "pair"), 1),
        (("verify", "--family", "quad2x2"), 1),
        (("block", "--outer", "quad2x2", "--inner", "cubic3x3"), 0),
    ], ids=["emit-form", "closure", "not-closed-residual", "failing-verify",
            "block"])
    def test_other_format_is_not_built(self, capsys, monkeypatch, argv,
                                       exit_code, fmt):
        if argv[0] == "verify":  # a nonzero residual: the form itself
            monkeypatch.setattr(FormFamily, "verify",
                                lambda self, cmap: self.form)
        written = []
        json_pieces = Polynomial.json_pieces  # to_json joins its pieces

        def refuse(name):
            def refused(*args, **kwargs):
                raise AssertionError(f"{name} called")
            return refused

        def counting(self):
            written.append(self)
            return json_pieces(self)

        with monkeypatch.context() as patch:
            if fmt == "json":
                patch.setattr(Polynomial, "__str__",
                              refuse("Polynomial.__str__"))
                patch.setattr(Polynomial, "text_pieces",
                              refuse("Polynomial.text_pieces"))
                patch.setattr(Polynomial, "json_pieces", counting)
            else:
                patch.setattr(Polynomial, "json_pieces",
                              refuse("Polynomial.json_pieces"))
                patch.setattr(json, "dumps", refuse("json.dumps"))
            code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert code == exit_code, err
        assert out.strip()
        if fmt == "json":  # every polynomial came from its own writer
            obj = json.loads(out)
            assert written
            assert obj.get("residual", True)  # a NotClosed one has one


def _joined(texts) -> str:
    """The JSON list of items that are JSON text already, joined whole."""
    return "[%s]" % ", ".join(texts)


def _closure_document() -> str:
    law = catalog.family("octic8x8").structure.closure(3)
    return '{"closed": true, "order": "triple", "outputs": %s}' % _joined(
        p.to_json() for p in law.forms(law.coord_sets))


def _not_closed_document() -> str:
    fam = catalog.family("threefold4x4", (-1, -4, 1, -1, 1, 1))
    witness = fam.structure.closure(2).witness
    return ('{"closed": false, "order": "pair", "reason": "%s", "entry": %s, '
            '"residual": %s}' % (witness.reason, list(witness.entry),
                                 witness.residual.to_json()))


def _block_document() -> str:
    st = catalog.family("quartic4x4").structure
    lifted = st.block_compose(st.rename_params(
        {p: f"i_{p}" for p in st.params}))
    return '{"n": %d, "h": %d, "params": %s, "coeff": %s, "positions": %s}' % (
        lifted.n, lifted.h, json.dumps(lifted.params),
        _joined(_joined(_joined(c.to_json() for c in cell) for cell in row)
                for row in lifted.coeff),
        json.dumps(lifted.positions))


class TestChunkedOutput:
    """Each document goes out through one writer, in chunks, as its
    pieces are formed: at most ceil(bytes / chunk) + 1 writes, every write
    but the last at least one chunk and none holding the whole text of a
    large document.  The expected text of each is built whole from
    `to_json`, apart from the pieces the CLI writes."""

    @staticmethod
    def writes(monkeypatch, argv, exit_code: int) -> list:
        class Counting:
            def __init__(self):
                self.calls = []

            def write(self, text):
                self.calls.append(text)
                return len(text)

            def flush(self):
                pass
        out = Counting()
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", out)
            assert main(list(argv)) == exit_code
        text = "".join(out.calls)
        chunk = polyring._CHUNK
        assert len(out.calls) <= -(-len(text) // chunk) + 1
        assert all(len(c) >= chunk for c in out.calls[:-1])
        assert all(len(c) < 2 * chunk for c in out.calls)
        assert (len(out.calls) > 1) == (len(text) >= chunk)
        return out.calls

    @pytest.mark.parametrize("argv, exit_code, document", [
        (("emit-form", "--family", "sextic6x6"), 0,
         lambda: catalog.family("sextic6x6").form.to_json()),
        (("closure", "--family", "octic8x8", "--order", "triple",
          "--format", "json"), 0, _closure_document),
        (("block", "--outer", "quartic4x4", "--inner", "quartic4x4"), 0,
         _block_document),
        (("closure", "--family", "threefold4x4", "--params=-1,-4,1,-1,1,1",
          "--order", "pair", "--format", "json"), 1, _not_closed_document),
        # no argv reaches it: the family's verify is made to return its
        # form as the residual
        (("verify", "--family", "sextic6x6", "--format", "json"), 1,
         lambda: '{"status": "nonzero-residual", "residual": '
                 + catalog.family("sextic6x6").form.to_json() + "}"),
    ], ids=["emit-form", "closure", "block", "not-closed-residual",
            "nonzero-residual"])
    def test_json_is_written_in_byte_bounded_chunks(self, monkeypatch, argv,
                                                    exit_code, document):
        if argv[0] == "verify":
            monkeypatch.setattr(FormFamily, "verify",
                                lambda self, cmap: self.form)
        calls = self.writes(monkeypatch, argv, exit_code)
        assert "".join(calls) == document() + "\n"

    def test_form_text_is_written_in_byte_bounded_chunks(self, monkeypatch):
        # the octic's 42 616 terms, 1.5 MB of text
        calls = self.writes(monkeypatch, ("emit-form", "--family", "octic8x8",
                                          "--format", "text"), 0)
        assert len(calls) > 20
        assert "".join(calls) == str(catalog.family("octic8x8").form) + "\n"


class TestLiftLawMemory:
    """The octic triple closure's JSON, run in-process as a process runs
    it (a fresh registry, stdout discarded), peaks at 1.19 MB of traced
    allocations (tracemalloc, Python 3.11.7), against 2.53 MB when every
    entry of the 1 728-entry lift law was a polynomial of its own and the
    eight output forms and their whole text were held at once: each of
    the law's 125 distinct coefficients is built once, and each output
    form is written as it is formed."""

    def test_octic_triple_closure_peak(self, monkeypatch):
        class Discarding:
            def write(self, text):
                return len(text)

            def flush(self):
                pass
        monkeypatch.setattr(catalog, "_SYMBOLIC", {})
        monkeypatch.setattr(sys, "stdout", Discarding())
        tracemalloc.start()
        try:
            code = main(["closure", "--family", "octic8x8", "--order",
                         "triple", "--format", "json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 1.6e6, f"{peak / 1e6:.2f} MB"


class TestVerifyWithoutDeterminant:
    """A realized family's identity follows from its closure certificate:
    verify asks for no form and computes no symbolic determinant."""

    @pytest.mark.parametrize("argv", [
        # verify proves every family's own law by the matrix route
        *(("--family", f["name"]) for f in catalog.list_families()),
        ("--family", "octic8x8", "--params=0,-5,0,-3,0,-14"),
        ("--family", "threefold4x4", "--params=-1,-4,1,-1,1,1"),
        ("--family", "threefold8x8", "--params=3,-1,0,-3,0,-14,1"),
    ])
    def test_no_determinant(self, capsys, monkeypatch, argv):
        # both form accessors are counted too: the family's form cache
        # would hide a determinant that an earlier test already computed
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(PolyMatrix, "determinant",
                            counting("det", PolyMatrix.determinant))
        monkeypatch.setattr(LinearStructure, "form",
                            counting("structure.form", LinearStructure.form))
        monkeypatch.setattr(FormFamily, "form", property(
            counting("family.form", FormFamily.form.fget)))
        code, out, err = run_cli(capsys, "verify", *argv, "--format", "json")
        assert code == 0, err
        assert json.loads(out) == {"status": "zero-residual",
                                   "method": "matrix"}
        assert calls == []

    def test_one_induced_map(self, capsys, monkeypatch):
        # the lift's closure table is derived once, although both the
        # family's triple map and the matrix route ask for it: the triple
        # table alone, as the Kronecker product of its factors' (whose own
        # decisions are not counted here)
        monkeypatch.setattr(catalog, "_SYMBOLIC", {})
        calls = []
        decide = LinearStructure._decide

        def counting(self, order):
            calls.append((self, order))
            return decide(self, order)
        monkeypatch.setattr(LinearStructure, "_decide", counting)
        code, out, err = run_cli(capsys, "verify", "--family", "threefold8x8")
        assert code == 0, err
        st = catalog.family("threefold8x8").structure
        assert [order for s, order in calls if s is st] == [3]


class TestClosure:
    def test_pair_closed(self, capsys):
        code, out, _ = run_cli(capsys, "closure", "--family", "quad2x2",
                               "--order", "pair")
        assert code == 0
        assert out.startswith("CLOSED (pair)")

    def test_triple_only_family_fails_pairwise(self, capsys):
        code, out, _ = run_cli(capsys, "closure", "--family", "threefold4x4",
                               "--order", "pair")
        assert code == 1
        assert out.startswith("NOT-CLOSED (pair)")

    def test_triple_only_family_closes_in_triples(self, capsys):
        code, out, _ = run_cli(capsys, "closure", "--family", "threefold4x4",
                               "--order", "triple", "--format", "json")
        assert code == 0
        assert json.loads(out)["closed"] is True


class TestNumericParams:
    """Numeric closure uses the structure and its divisors at the given
    values; numeric `verify` is the symbolic proof specialized."""

    @pytest.mark.parametrize("argv", [
        ("closure", "--family", "threefold4x4", "--params=-1,-4,1,-1,1,1",
         "--order", "triple"),
        ("closure", "--family", "threefold8x8", "--params=3,-1,0,-3,0,-14,1",
         "--order", "triple"),
        ("verify", "--family", "threefold8x8", "--params=3,-1,0,-3,0,-14,1"),
    ])
    def test_recipe_divisors_are_specialized(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert code == 0, err
        obj = json.loads(out)
        assert obj.get("closed") is True or obj["status"] == "zero-residual"

    @pytest.mark.parametrize("argv", [
        ("--family", "octic8x8", "--params=0,-5,0,-3,0,-14"),
        ("--family", "sextic6x6", "--params=1,2,-1,3,1,-2,3"),
        ("--family", "threefold4x4"),
    ])
    def test_structured_families_verify_by_matrix(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv, "--format", "json")
        assert code == 0, err
        assert json.loads(out) == {"status": "zero-residual",
                                   "method": "matrix"}

    def test_vanishing_divisors_fall_back_to_symbolic_closure(self, capsys):
        # s = t = 0 here, so the divisors t*s, t and s all vanish
        code, out, err = run_cli(capsys, "closure", "--family", "threefold4x4",
                                 "--params=0,1,0,2,0,0", "--order", "triple",
                                 "--format", "json")
        assert code == 0, err
        symbolic = run_cli(capsys, "closure", "--family", "threefold4x4",
                           "--order", "triple", "--format", "json")
        assert (code, out, err) == symbolic

    def test_vanishing_divisors_verify_the_symbolic_identity(self, capsys):
        # the divisors vanish at s = t = 0: the proof is the symbolic
        # family's, for the map specialized to these values, not an expansion
        code, out, err = run_cli(capsys, "verify", "--family", "threefold4x4",
                                 "--params=0,1,0,2,0,0", "--format", "json")
        assert code == 0, err
        assert json.loads(out) == {"status": "zero-residual",
                                   "method": "matrix"}

    @pytest.mark.parametrize("argv", [
        "solve --family quartic4x4 --params=symbolic --seed 1,0,0,0 "
        "--step 1,0,0,0 --count 1",
        "search --family quad2x2 --params=symbolic --bound 1",
        "invert --family quartic4x4 --params=symbolic --point 6,2,3,1",
    ], ids=lambda argv: argv.split(" ")[0])
    def test_symbolic_params_rejected(self, capsys, argv):
        """The commands that take numeric --params only reject symbolic
        ones with one line, which names the command."""
        code, out, err = run_cli(capsys, *argv.split(" "))
        assert (code, out) == (2, "")
        assert err == f"error: {argv.split(' ')[0]} needs numeric --params\n"


class TestSolve:
    def test_quartic_sequence(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--family", "quartic4x4",
            "--params", "5,-23,2,-7", "--seed", "6,2,3,1",
            "--step", "6,2,3,1", "--count", "2")
        assert code == 0
        obj = json.loads(out)
        assert obj["solutions"] == [
            list(map(str, v))
            for v in paper.SOLUTION_TABLES["quartic4x4"].rows[:2]]

    def test_triple_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--family", "threefold8x8",
            "--params", "3,-1,0,-3,0,-14,1",
            "--seed", "2,6,1,3,7,21,4,12",
            "--fixed", "1,0,0,0,0,0,0,0",
            "--step", "2,6,1,3,7,21,4,12", "--count", "2")
        assert code == 0
        obj = json.loads(out)
        assert obj["mode"] == "triple"
        assert obj["solutions"][1][0] == \
            str(paper.SOLUTION_TABLES["threefold8x8"].rows[1][0])

    @pytest.mark.parametrize("argv", [
        (*QUARTIC, "--seed", "1,1,1,1", "--step", "6,2,3,1", "--count", "2"),
        # argv bounds the digits of an input number: a seed past the
        # interpreter's 4300-digit limit parses, and its f is no 1
        ("--family", "quad2x2", "--params", "0,-2", "--seed", "1" * 4301 +
         ",0", "--step", "3,2", "--count", "1"),
    ], ids=["quartic", "past-the-digit-limit"])
    def test_bad_seed_exit_one(self, capsys, argv):
        code, out, _ = run_cli(capsys, "solve", *argv)
        assert code == 1
        assert json.loads(out)["error"] == "SeedNotSolution"

    def test_sequence_past_the_int_str_digit_limit(self, capsys):
        # x1^2 - 2*x2^2 = 1: a ~500-digit power of the unit (3, 2) as the
        # step takes the iterates past 4300 decimal digits
        s1, s2 = 1, 0
        for _ in range(653):
            s1, s2 = 3 * s1 + 4 * s2, 2 * s1 + 3 * s2
        code, out, err = run_cli(
            capsys, "solve", "--family", "quad2x2", "--params", "0,-2",
            "--seed", "1,0", "--step", f"{s1},{s2}", "--count", "10")
        assert code == 0, err
        powers = [(1, 0)]
        for _ in range(9):
            a, b = powers[-1]
            powers.append((a * s1 + 2 * b * s2, a * s2 + b * s1))
        with no_int_str_limit():
            assert len(str(powers[-1][0])) > 4300
            assert out == json.dumps({
                "family": "quad2x2", "params": ["0", "-2"],
                "mode": "pairwise",
                "solutions": [[str(a), str(b)] for a, b in powers],
                "verified": True}) + "\n"

    def test_what_solve_prints_reads_back(self, capsys):
        # the golden 2600-iterate quartic ends past 4300 digits: its last
        # iterate continues the chain as --seed and inverts as --point
        chain = ("solve", *QUARTIC, "--step", "6,2,3,1", "--format", "text")
        code, out, _ = run_cli(capsys, *chain, "--seed", "6,2,3,1",
                               "--count", "2600")
        assert code == 0
        last = out.splitlines()[-1]
        assert max(map(len, last.split(","))) > 4300
        code, out, err = run_cli(capsys, *chain, "--seed", last,
                                 "--count", "2")
        assert code == 0, err
        assert out.splitlines()[0] == last
        code, out, err = run_cli(capsys, "invert", *QUARTIC, "--point", last)
        assert code == 0, err
        assert json.loads(out)["verified"] is True

    def test_text_is_written_in_byte_bounded_chunks(self, monkeypatch):
        """The 2600-iterate quartic as text: its JSON's solutions, one per
        line, written in at most ceil(bytes / chunk) + 1 calls, every call
        but the last at least one chunk, not one call per iterate."""
        class Counting:
            def __init__(self):
                self.calls = []

            def write(self, text):
                self.calls.append(text)
                return len(text)

            def flush(self):
                pass

        def stdout(*fmt):
            out = Counting()
            monkeypatch.setattr(sys, "stdout", out)
            assert main(["solve", *QUARTIC, "--seed", "6,2,3,1", "--step",
                         "6,2,3,1", "--count", "2600", *fmt]) == 0
            return out.calls
        calls = stdout("--format", "text")
        text = "".join(calls)
        rows = json.loads("".join(stdout()))["solutions"]
        assert text == "\n".join(",".join(row) for row in rows) + "\n"
        chunk = polyring._CHUNK
        assert len(calls) <= -(-len(text) // chunk) + 1
        assert all(len(c) >= chunk for c in calls[:-1])


class TestSearchInvertBlock:
    def test_search(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--family", "quad2x2",
                               "--params", "0,-2", "--bound", "3")
        assert code == 0
        obj = json.loads(out)
        assert ["3", "2"] in obj["solutions"]

    def test_invert(self, capsys):
        code, out, _ = run_cli(capsys, "invert", "--family", "quartic4x4",
                               "--params", "5,-23,2,-7", "--point", "6,2,3,1")
        assert code == 0
        obj = json.loads(out)
        assert obj["inverse"] == ["32", "-4", "-8", "1"]
        assert obj["verified"] is True

    def test_invert_non_unit_exit_one(self, capsys):
        code, out, _ = run_cli(capsys, "invert", "--family", "quad2x2",
                               "--params", "0,-1", "--point", "3,1")
        assert code == 1

    def test_invert_non_unit_writes_one_error_document(self, capsys):
        code, out, err = run_cli(capsys, "invert", "--family", "quad2x2",
                                 "--params", "0,-1", "--point", "3,1")
        assert code == 1
        assert out.endswith("\n") and out.count("\n") == 1
        obj = json.loads(out)
        assert set(obj) == {"error", "detail"}
        assert obj["error"] == "NotAUnit" and obj["detail"]
        assert err == ""

    def test_invert_at_a_zero_of_the_form_is_singular(self, capsys):
        # f(0, 0, 0, 0) = 0: the inverse's linear system has det 0
        code, out, err = run_cli(capsys, "invert", "--family", "quartic4x4",
                                 "--params=5,-23,2,-7", "--point", "0,0,0,0")
        assert code == 1
        obj = json.loads(out)
        assert set(obj) == {"error", "detail"}
        assert obj["error"] == "SingularMap" and obj["detail"]
        assert err == ""

    def test_invert_names_the_first_non_integral_component(self, capsys):
        code, out, _ = run_cli(capsys, "invert", "--family", "quartic4x4",
                               "--params=5,-23,2,-7", "--point", "1,1,0,0")
        assert code == 1
        assert json.loads(out) == {
            "error": "NotAUnit",
            "detail": "non-integral inverse component -6/17"}

    def test_block_prefixes_colliding_params(self, capsys):
        code, out, _ = run_cli(capsys, "block", "--outer", "quad2x2",
                               "--inner", "quad2x2")
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 4 and obj["h"] == 4
        assert obj["params"] == ["p", "q", "i_p", "i_q"]

    def test_block_reads_back_as_the_lifted_structure(self, capsys):
        code, out, _ = run_cli(capsys, "block", "--outer", "quad2x2",
                               "--inner", "quad2x2")
        assert code == 0
        st = catalog.family("quad2x2").structure
        lifted = st.block_compose(st.rename_params({"p": "i_p", "q": "i_q"}))
        obj = json.loads(out)
        assert (obj["n"], obj["h"]) == (lifted.n, lifted.h)
        assert obj["params"] == list(lifted.params)
        assert [[[from_json_obj(c) for c in cell] for cell in row]
                for row in obj["coeff"]] == \
            [[list(cell) for cell in row] for row in lifted.coeff]
        assert obj["positions"] == [list(pos) for pos in lifted.positions]


class TestRunPathBuildsNoPrintedForm:
    @pytest.mark.parametrize("argv", [
        ("solve", *QUARTIC, "--seed", "6,2,3,1", "--step", "6,2,3,1",
         "--count", "3"),
        ("search", *QUARTIC, "--bound", "2"),
        ("invert", *QUARTIC, "--point", "6,2,3,1"),
    ], ids=["solve", "search", "invert"])
    def test_quartic_commands_never_build_the_printed_form(
            self, capsys, monkeypatch, argv):
        # only the benchmark's oracle and the tests read the printed quartic
        calls = []
        monkeypatch.setattr(catalog, "_SYMBOLIC", {})
        monkeypatch.setattr(catalog, "_quartic_printed_form",
                            lambda: calls.append(argv[0]))
        assert run_cli(capsys, *argv)[0] == 0
        assert calls == []


OCTIC = ("--family", "octic8x8", "--params=0,-5,0,-3,0,-14")
THREEFOLD4 = ("--family", "threefold4x4", "--params=-1,-4,1,-1,1,1")
THREEFOLD8 = ("--family", "threefold8x8", "--params=3,-1,0,-3,0,-14,1")


class TestRunPathBuildsNoSymbolicLiftLaw:
    """A numeric lift's law is the closure of the lift specialized at its
    values, which keeps its factors at those values and multiplies their
    laws: solve, invert and numeric verify decide the closure of no
    symbolic lift, at any level.  Symbolic verify and closure still decide
    the lift's own, and so do values where a divisor vanishes."""

    def decided(self, capsys, monkeypatch, argv):
        """The symbolic lifts whose closure `argv` decided, as (lift,
        order); no family, and so no law, is cached beforehand."""
        monkeypatch.setattr(catalog, "_SYMBOLIC", {})
        calls = []
        decide = LinearStructure._decide

        def spy(self, order):
            if self._factors is not None and self.params:
                calls.append((self, order))
            return decide(self, order)
        monkeypatch.setattr(LinearStructure, "_decide", spy)
        assert run_cli(capsys, *argv)[0] == 0
        return calls

    @pytest.mark.parametrize("argv", [
        ("solve", *QUARTIC, "--seed", "6,2,3,1", "--step", "6,2,3,1",
         "--count", "3"),
        ("invert", *QUARTIC, "--point", "6,2,3,1"),
        ("verify", *QUARTIC),
        ("solve", *OCTIC, "--seed", "4,2,2,1,14,7,8,4",
         "--step", "4,2,2,1,14,7,8,4", "--count", "3"),
        ("invert", *OCTIC, "--point", "4,2,2,1,14,7,8,4"),
        ("verify", *OCTIC),
        ("solve", *THREEFOLD4, "--seed", "21,8,33,13", "--step",
         "21,8,33,13", "--fixed", "1,0,0,0", "--count", "3"),
        ("verify", *THREEFOLD4),
        ("solve", *THREEFOLD8, "--seed", "2,6,1,3,7,21,4,12", "--step",
         "2,6,1,3,7,21,4,12", "--fixed", "1,0,0,0,0,0,0,0", "--count", "3"),
        ("verify", *THREEFOLD8),
    ], ids=["solve-quartic4x4", "invert-quartic4x4", "verify-quartic4x4",
            "solve-octic8x8", "invert-octic8x8", "verify-octic8x8",
            "solve-threefold4x4", "verify-threefold4x4", "solve-threefold8x8",
            "verify-threefold8x8"])
    def test_numeric_commands_decide_no_lift(self, capsys, monkeypatch, argv):
        assert self.decided(capsys, monkeypatch, argv) == []

    def test_zero_divisors_specialize_the_symbolic_closure(self, capsys,
                                                           monkeypatch):
        """Every divisor of the lift vanishes at s = t = 0, so the family's
        structure there is the symbolic one: its law is the symbolic
        closure, specialized."""
        values = (0, 1, 0, 2, 0, 0)
        calls = self.decided(capsys, monkeypatch, (
            "verify", "--family", "threefold4x4",
            "--params=" + ",".join(map(str, values))))
        symbolic = catalog.family("threefold4x4")._structure
        assert (symbolic, 3) in calls
        assert catalog.family("threefold4x4", values).triple_map() == \
            symbolic.closure(3).specialize(values)

    @pytest.mark.parametrize("name", ["quartic4x4", "octic8x8",
                                      "threefold4x4", "threefold8x8"])
    @pytest.mark.parametrize("command", [("verify",),
                                         ("closure", "--order", "triple")])
    def test_symbolic_commands_decide_the_lift(self, capsys, monkeypatch,
                                               name, command):
        calls = self.decided(capsys, monkeypatch,
                             (command[0], "--family", name, *command[1:]))
        assert catalog.family(name)._structure in [st for st, _ in calls]


class TestContract:
    def test_missing_subcommand_is_usage_error(self, capsys):
        assert run_cli(capsys)[0] == 2

    @pytest.mark.parametrize("argv", [
        ("solve", *QUARTIC, "--seed", "6,2,3", "--step", "6,2,3,1",
         "--count", "2"),
        ("solve", *QUARTIC, "--seed", "6,2,3,1", "--step", "6,2,3,1,0",
         "--count", "2"),
        ("solve", *QUARTIC, "--seed", "6,2,3,1", "--step", "6,2,3,1",
         "--fixed", "1,0", "--count", "2"),
        ("solve", *QUARTIC, "--seed", "6,2,x,1", "--step", "6,2,3,1",
         "--count", "2"),
        ("invert", *QUARTIC, "--point", "6,2,3"),
        ("solve", *QUARTIC, "--seed", "6,2,3,1", "--step", "6,2,3,1",
         "--count", "-3"),
        ("search", *QUARTIC, "--bound", "-2"),
        # --order names the slots of a three-argument map only
        ("solve", *QUARTIC, "--seed", "6,2,3,1", "--step", "6,2,3,1",
         "--order", "zzz", "--count", "2"),
    ])
    def test_malformed_input_is_one_line_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("bound", ["2²", "²", "①", "-2", "2.0", ""])
    def test_bound_that_is_no_integer_gets_the_parsers_own_line(
            self, capsys, bound):
        # "2²".isdigit() is true and int() refuses it: the line must
        # still be the parser's own, not argparse's "invalid <function>"
        code, out, err = run_cli(capsys, "search", *QUARTIC, "--bound", bound)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert f"expected a non-negative integer, got {bound!r}" in err

    def test_byte_identical_reruns(self, capsys):
        args = ("emit-form", "--family", "cubic3x3")
        first = run_cli(capsys, *args)
        second = run_cli(capsys, *args)
        assert first == second

    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "matform.cli", "verify",
             "--family", "quad2x2"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "ZERO-RESIDUAL"

    @pytest.mark.parametrize("argv, span", [
        (("closure", "--family", "quad2x2", "--order", "pair", "--format",
          "json"), "linstruct.closure"),
        (("solve", *QUARTIC, "--seed", "6,2,3,1", "--step", "6,2,3,1",
          "--count", "5"), "dioph.sequence"),
        (("search", *QUARTIC, "--bound", "2"), "dioph.search"),
    ], ids=["closure", "solve", "search"])
    def test_traced_run_prints_what_the_untraced_cli_prints(self, argv, span):
        """bench/trace_child.py wraps every name of src/ it reads before it
        runs the command, so a name src/ drops makes it exit nonzero, and
        its hooks read what the command returns (`solve`'s
        `SequenceResult.solutions`, `search`'s hits).  Traced, the command
        prints the same bytes as untraced, and the last line of stderr is
        the span summary, the command's span in it."""
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (str(root / "src"), os.environ.get("PYTHONPATH"))))}
        traced, plain = (
            subprocess.run([sys.executable, *head, *argv], cwd=root, env=env,
                           capture_output=True)
            for head in ([str(root / "bench" / "trace_child.py")],
                         ["-m", "matform.cli"]))
        assert traced.returncode == 0, traced.stderr.decode()
        assert plain.returncode == 0
        assert traced.stdout == plain.stdout
        mark, _, summary = traced.stderr.decode().splitlines()[-1].partition(" ")
        assert mark == "BENCH-SPANS"
        assert span in json.loads(summary)["spans"]

    @pytest.mark.parametrize("argv", [
        ("solve", *QUARTIC, "--seed", "6,2,3,1", "--step", "6,2,3,1",
         "--count", "2600"),
        ("emit-form", "--family", "octic8x8"),
    ], ids=["solve", "emit-form"])
    def test_closed_stdout_is_exit_one_without_a_traceback(self, argv):
        # as `matform ... | head -c 10`: the reader takes 10 bytes and
        # closes the pipe while the command is still writing
        proc = subprocess.Popen(
            [sys.executable, "-m", "matform.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert len(head) == 10
        assert (proc.wait(), err) == (1, b"")


class _Stream(io.StringIO):
    """A text stream that logs each flush, with the text written so far,
    to `events`, and then raises `fails` if it is set."""

    def __init__(self, name, events, fails=None):
        super().__init__()
        self.name, self.events, self.fails = name, events, fails

    def flush(self):
        self.events.append(("flush", self.name, self.getvalue()))
        if self.fails is not None:
            raise self.fails


class _Exited(Exception):
    pass


class TestRun:
    """`cli.run`, the process entry point, in-process with os._exit
    logged instead of taken: main's exit code, once stdout and stderr are
    flushed."""

    def run(self, monkeypatch, argv, stdout_fails=None):
        """The events of `run` on `argv`: each flush and the exit."""
        events = []

        def exit(code):
            events.append(("exit", code))
            raise _Exited
        monkeypatch.setattr(os, "_exit", exit)
        monkeypatch.setattr(sys, "argv", ["matform", *argv])
        monkeypatch.setattr(sys, "stdout",
                            _Stream("stdout", events, stdout_fails))
        monkeypatch.setattr(sys, "stderr", _Stream("stderr", events))
        with pytest.raises(_Exited):
            cli.run()
        return events

    @pytest.mark.parametrize("argv", [
        "verify --family quad2x2",
        "closure --family threefold_quadratic --order pair",
        "emit-form --family nosuch",
    ])
    def test_exits_with_mains_code_once_both_streams_are_flushed(
            self, monkeypatch, argv):
        golden = json.loads(
            Path(__file__).with_name("cli_golden.json").read_text())
        code, digest = golden[argv]
        *_, out, err, exit = self.run(monkeypatch, argv.split(" "))
        assert exit == ("exit", code)
        assert (out[:2], err[:2]) == (("flush", "stdout"), ("flush", "stderr"))
        assert hashlib.sha256(out[2].encode()).hexdigest() == digest
        assert err[2].startswith("error: ") == (code == 2)

    def test_closed_stdout_at_the_last_flush_is_exit_one(self, monkeypatch):
        # main returned 0 with text still buffered, and the reader has
        # closed stdout since: exit 1, and nothing on stderr
        def main():
            print("buffered")
            return 0
        monkeypatch.setattr(cli, "main", main)
        *_, err, exit = self.run(monkeypatch, [], BrokenPipeError())
        assert (err, exit) == (("flush", "stderr", ""), ("exit", 1))

    def test_exception_from_main_takes_the_normal_exit(self, monkeypatch):
        def main():
            raise RuntimeError("escaped")
        monkeypatch.setattr(cli, "main", main)
        exits = []
        monkeypatch.setattr(os, "_exit", exits.append)
        with pytest.raises(RuntimeError, match="escaped"):
            cli.run()
        assert exits == []


# -- fuzzing the whole surface -------------------------------------------------

# small families: name -> (parameter count, coordinate count)
FUZZ_SHAPES = {f["name"]: (len(f["params"]), f["coords"])
               for f in catalog.list_families() if f["name"] in (
                   "quad2x2", "cubic3x3", "quartic4x4", "threefold_quadratic")}
# subcommand -> its flags; True marks a required one
FUZZ_FLAGS = {
    "list-families": {},
    "emit-form": {"--family": True, "--params": False},
    "verify": {"--family": True, "--params": False, "--threefold": False},
    "closure": {"--family": True, "--params": False, "--order": True},
    "solve": {"--family": True, "--params": True, "--seed": True,
              "--step": True, "--fixed": False, "--order": False,
              "--count": True},
    "search": {"--family": True, "--params": True, "--bound": True},
    "invert": {"--family": True, "--params": True, "--point": True},
    "block": {"--outer": True, "--inner": True},
    "zzz": {},
}
JUNK_NAME = st.sampled_from(("zzz", "", "QUAD2X2", "quad2x2 ", "sextic"))
JUNK_VECTOR = st.one_of(
    st.lists(st.integers(-3, 3), max_size=6).map(
        lambda v: ",".join(map(str, v))),
    st.sampled_from((",", "1,,2", "x", "1.5", " 1", "1e3", "--", "symbolic",
                     "1" * 4400)))
JUNK_NUMBER = st.sampled_from(("", "x", "1.0", "+1", "-1", "\u00b2",
                               "1" * 4400))
JUNK = {"--family": JUNK_NAME, "--outer": JUNK_NAME, "--inner": JUNK_NAME,
        "--params": JUNK_VECTOR, "--seed": JUNK_VECTOR, "--step": JUNK_VECTOR,
        "--fixed": JUNK_VECTOR, "--point": JUNK_VECTOR,
        "--count": JUNK_NUMBER, "--bound": JUNK_NUMBER,
        "--order": st.sampled_from(("", "xxy", "zzz")),
        "--format": st.sampled_from(("xml", ""))}


def _csv(values) -> str:
    return ",".join(map(str, values))


@st.composite
def fuzz_argv(draw):
    """A subcommand with well-formed values for a small family; in half
    the draws up to two of them are junk, and some flags are left out."""
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    name = draw(st.sampled_from(sorted(FUZZ_SHAPES)))
    arity, h = FUZZ_SHAPES[name]
    ints = st.lists(st.integers(-3, 3), min_size=h, max_size=h)
    vector = st.one_of(st.just((1,) + (0,) * (h - 1)), ints).map(_csv)
    good = {
        "--family": st.just(name), "--outer": st.just(name),
        "--inner": st.sampled_from(sorted(FUZZ_SHAPES)),
        "--params": st.one_of(st.just("symbolic"), *[st.lists(
            st.integers(-3, 3), min_size=arity, max_size=arity).map(_csv)] * 3),
        "--seed": vector, "--step": vector, "--fixed": vector,
        "--point": vector,
        "--count": st.integers(0, 4).map(str),
        "--bound": st.integers(0, 2).map(str),
        "--order": st.sampled_from(("pair", "triple") if command == "closure"
                                   else ("xyz", "zyx")),
        "--format": st.sampled_from(("json", "text")),
    }
    flags = dict(FUZZ_FLAGS[command], **{"--format": False})
    bad = (draw(st.sets(st.sampled_from(sorted(JUNK)), max_size=2))
           if draw(st.booleans()) else ())
    argv = [command]
    for flag, required in flags.items():
        if draw(st.integers(0, 15 if required else 1)) == 0:
            continue
        if flag == "--threefold":
            argv.append(flag)
        else:
            # "=" keeps a leading "-" in the value from reading as a flag
            value = draw((JUNK if flag in bad else good)[flag])
            argv.append(f"{flag}={value}")
    return argv


class TestFuzz:
    @given(fuzz_argv())
    @settings(max_examples=150, deadline=None)
    def test_any_argv_keeps_the_exit_and_output_contract(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err
        if code == 2:
            assert out == "" and err.startswith("error: ") \
                and err.count("\n") == 1, (argv, err)
        elif "--format=json" in argv or (
                argv[0] not in ("verify", "closure")  # text by default
                and "--format=text" not in argv):
            json.loads(out)  # one JSON document


class TestReadmeUsage:
    """Every command of the README's "CLI usage" block runs as documented,
    and so does its "Library example"."""

    EXIT = {"closure --family threefold4x4 --order pair": 1}  # else 0
    STDOUT = {"emit-form --family quad2x2 --params 0,1 --format text":
              "x1^2 + x2^2\n",
              "verify --family octic8x8": "ZERO-RESIDUAL\n"}

    def test_documented_cases_are_in_the_readme(self):
        commands = {" ".join(argv) for argv in readme_commands()}
        assert set(self.EXIT) | set(self.STDOUT) <= commands

    @pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
    def test_readme_command(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        key = " ".join(argv)
        assert code == self.EXIT.get(key, 0), err
        assert "Traceback" not in err
        if key in self.STDOUT:
            assert out == self.STDOUT[key]

    def test_library_example(self):
        exec(compile(readme_library_example(), "README.md", "exec"), {})
