"""Command-line interface: output formats, exit codes, determinism."""

import contextlib
import io
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matform import catalog
from matform.catalog import FormFamily
from matform.cli import _no_int_str_limit, main
from matform.compose import MultilinearMap
from matform.linstruct import LinearStructure
from matform.polyring import PolyMatrix

QUARTIC = ("--family", "quartic4x4", "--params", "5,-23,2,-7")
# structure in the family's own parameters: verify takes the matrix route
MATRIX_ROUTED = ("quad2x2", "cubic3x3", "quartic4x4", "sextic6x6",
                 "sextic_circulant", "octic8x8", "threefold4x4",
                 "threefold8x8")


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


class TestVerifyWithoutDeterminant:
    """A realized family's identity follows from its closure certificate:
    verify asks for no form and computes no symbolic determinant."""

    @pytest.mark.parametrize("argv", [
        *(("--family", name) for name in MATRIX_ROUTED),
        ("--family", "octic8x8", "--params=0,-5,0,-3,0,-14"),
        ("--family", "threefold4x4", "--params=-1,-4,1,-1,1,1"),
        ("--family", "threefold8x8", "--params=3,-1,0,-3,0,-14,1"),
    ])
    def test_no_determinant(self, capsys, monkeypatch, argv):
        # both form accessors are counted too: their caches would hide a
        # determinant that an earlier test already computed
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
        # the map is read from the closure certificate once, although both
        # the family's triple map and the matrix route ask for it
        monkeypatch.setattr(catalog, "_SYMBOLIC", {})
        calls = []
        from_forms = MultilinearMap.from_forms.__func__

        def counting(cls, *args, **kwargs):
            calls.append(cls)
            return from_forms(cls, *args, **kwargs)
        monkeypatch.setattr(MultilinearMap, "from_forms", classmethod(counting))
        code, out, err = run_cli(capsys, "verify", "--family", "threefold8x8")
        assert code == 0, err
        assert len(calls) == 1


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
    """Numeric proofs use the structure and recipe at the given values."""

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
        # s = t = 0 here, so the recipe divisors t*s, t and s all vanish
        code, out, err = run_cli(capsys, "closure", "--family", "threefold4x4",
                                 "--params=0,1,0,2,0,0", "--order", "triple",
                                 "--format", "json")
        assert code == 0, err
        symbolic = run_cli(capsys, "closure", "--family", "threefold4x4",
                           "--order", "triple", "--format", "json")
        assert (code, out, err) == symbolic

    def test_vanishing_divisors_verify_the_symbolic_identity(self, capsys):
        # recipe divisors vanish at s = t = 0: the proof is the symbolic
        # family's, for the map specialized to these values, not an expansion
        code, out, err = run_cli(capsys, "verify", "--family", "threefold4x4",
                                 "--params=0,1,0,2,0,0", "--format", "json")
        assert code == 0, err
        assert json.loads(out) == {"status": "zero-residual",
                                   "method": "matrix"}


class TestSolve:
    def test_quartic_sequence(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--family", "quartic4x4",
            "--params", "5,-23,2,-7", "--seed", "6,2,3,1",
            "--step", "6,2,3,1", "--count", "2")
        assert code == 0
        obj = json.loads(out)
        assert obj["solutions"] == [["6", "2", "3", "1"],
                                    ["352", "121", "192", "66"]]

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
        assert obj["solutions"][1][0] == "13650"

    def test_bad_seed_exit_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--family", "quartic4x4",
            "--params", "5,-23,2,-7", "--seed", "1,1,1,1",
            "--step", "6,2,3,1", "--count", "2")
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
        with _no_int_str_limit():
            assert len(str(powers[-1][0])) > 4300
            assert out == json.dumps({
                "family": "quad2x2", "params": ["0", "-2"],
                "mode": "pairwise",
                "solutions": [[str(a), str(b)] for a, b in powers],
                "verified": True}) + "\n"

    def test_symbolic_params_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", "--family", "quartic4x4",
            "--params", "symbolic", "--seed", "1,0,0,0",
            "--step", "1,0,0,0", "--count", "1")
        assert code == 2
        assert "numeric" in err


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

    def test_block_prefixes_colliding_params(self, capsys):
        code, out, _ = run_cli(capsys, "block", "--outer", "quad2x2",
                               "--inner", "quad2x2")
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 4 and obj["h"] == 4
        assert obj["params"] == ["p", "q", "i_p", "i_q"]


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
        pytest.param(
            ("solve", "--family", "quad2x2", "--params", "0,-2",
             "--seed", "1" * 4301 + ",0", "--step", "3,2", "--count", "1"),
            marks=pytest.mark.skipif(
                not hasattr(sys, "get_int_max_str_digits"),
                reason="no int/str digit limit on this Python")),
        # --fixed asks for the three-argument law, which sextic_uv lacks
        ("solve", "--family", "sextic_uv", "--params", "3",
         "--seed", "2,1,3,-1,3,-4", "--step", "2,1,3,-1,3,-4",
         "--fixed", "1,0,0,0,0,0", "--count", "2"),
        ("verify", "--family", "sextic_uv", "--threefold"),
        # --order names the slots of a three-argument map only
        ("solve", *QUARTIC, "--seed", "6,2,3,1", "--step", "6,2,3,1",
         "--order", "zzz", "--count", "2"),
    ])
    def test_malformed_input_is_one_line_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        if "sextic_uv" in argv:  # the family is named once
            assert err == "error: sextic_uv has no trilinear composition map\n"

    def test_threads_flag_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "quad2x2",
                               "--threads", "4")
        assert code == 0

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


# -- fuzzing the whole surface -------------------------------------------------

# small families: name -> (parameter count, coordinate count)
FUZZ_SHAPES = {"quad2x2": (2, 2), "cubic3x3": (5, 3), "quartic4x4": (4, 4),
               "threefold_quadratic": (3, 2)}
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
        "--threads": JUNK_NUMBER, "--order": st.sampled_from(("", "xxy", "zzz")),
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
        "--threads": st.integers(1, 4).map(str),
    }
    flags = dict(FUZZ_FLAGS[command], **{"--format": False, "--threads": False})
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
    """Every command of the README's "CLI usage" block runs as documented."""

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
