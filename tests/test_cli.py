"""Command-line interface: output formats, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from matform.cli import _no_int_str_limit, main

QUARTIC = ("--family", "quartic4x4", "--params", "5,-23,2,-7")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
