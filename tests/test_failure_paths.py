"""The failure paths: suite FAIL witnesses and the CLI's error exits."""

import re
from fractions import Fraction
from random import Random

import pytest

from tapecalc.frontend.cli import main
from tapecalc.objects import mono
from tapecalc.suites import Freshener, _check_instance, standard_interpretation
from tapecalc.tape import TCirc, codiag_tape, id_tape, op_inj_tape, tseq
from tapecalc.theory import choice

A = mono("A")
INTERP = standard_interpretation()

MODULE = """sort A;
gen F0 : 1 -> A;
gen F1 : 1 -> A;
theory PCA with p = 1/3;
interp I {
  A = {0, 1};
  F0 = [[1], [0]];
  F1 = [[0], [1]];
  model = PCA;
}
def zero = [ F0 ];
def one = [ F1 ];
def idA = id@A;
def idAA = id@A A;
"""


def test_check_instance_fail_carries_a_repro_witness():
    fresh = Freshener(INTERP, Random(0))
    g = TCirc(fresh.circuit(A, A))
    pad = (g, id_tape(A)) * 3
    lhs = tseq(*pad, op_inj_tape(choice(Fraction(1, 2)), A))
    rhs = tseq(*pad, op_inj_tape(choice(Fraction(1, 3)), A))
    result = _check_instance("law", "P=A#0", fresh.interp(), lhs, rhs)
    assert not result.ok
    assert result.instance == "law[P=A#0]"
    assert result.line().startswith("law[P=A#0]\tFAIL\tentry (")
    match = re.fullmatch(
        r"entry \((\d+),(\d+)\): lhs=(\S+) rhs=(\S+) \| carriers\[(.*?)\] "
        r"gens\[(.*?)\] lhs=(.*) rhs=(.*)", result.witness)
    assert match, result.witness
    assert match[3] != match[4]
    assert match[5] == "A=2,B=3"
    assert match[6].startswith("?g0=[[")
    for term, text in ((lhs, match[7]), (rhs, match[8])):
        assert len(repr(term)) > 400
        assert text == repr(term)[:400] + "..."


def test_check_instance_short_terms_are_not_clipped():
    fresh = Freshener(INTERP, Random(0))
    lhs = op_inj_tape(choice(Fraction(1, 2)), A)
    rhs = op_inj_tape(choice(Fraction(1, 3)), A)
    result = _check_instance("law", "x", fresh.interp(), lhs, rhs)
    assert result.witness.endswith(f"gens[] lhs={lhs!r} rhs={rhs!r}")


def test_check_instance_type_error():
    fresh = Freshener(INTERP, Random(0))
    result = _check_instance("law", "x", fresh.interp(), codiag_tape(A),
                             codiag_tape(mono("B")))
    assert not result.ok
    assert result.witness.startswith("type error: type mismatch: ")


def module_file(tmp_path, extra: str):
    path = tmp_path / "m.tape"
    path.write_text(MODULE + extra)
    return str(path)


def test_cli_check_unequal_exits_1(tmp_path, capsys):
    path = module_file(tmp_path, "check zero = one with I;\n")
    assert main(["check", path]) == 1
    out = capsys.readouterr().out
    assert out == "check zero = one with I: unequal at entry (0,0): 1 vs 0\n"


def test_cli_check_ill_typed_definition_exits_3(tmp_path, capsys):
    path = module_file(tmp_path, "def bad = idA ; idAA;\n")
    assert main(["check", path]) == 3
    assert capsys.readouterr().err.startswith("error: definition bad: ")


def test_cli_check_mismatched_directive_exits_3(tmp_path, capsys):
    path = module_file(tmp_path, "check zero = idA with I;\n")
    assert main(["check", path]) == 3
    assert capsys.readouterr().err.startswith(
        "error: check zero = idA: type mismatch: ")


@pytest.mark.parametrize("argv", [
    ["eval", "{f}", "--term", "nope", "--interp", "I"],
    ["eq", "{f}", "--left", "nope", "--right", "zero", "--interp", "I"],
    ["eq", "{f}", "--left", "zero", "--right", "nope", "--interp", "I"],
    ["render", "{f}", "--term", "nope", "-o", "{svg}"],
], ids=["eval", "eq-left", "eq-right", "render"])
def test_cli_unknown_definition_exits_3(tmp_path, capsys, argv):
    path = module_file(tmp_path, "")
    svg = tmp_path / "out.svg"
    argv = [a.format(f=path, svg=svg) for a in argv]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: no definition named nope\n"
    assert captured.out == ""
    assert not svg.exists()


@pytest.mark.parametrize("body, at, got", [
    ("op<+_3/2>@A", "1:47", "3/2"),
    ("term<x1 +_1 x2>@A", "1:52", "1"),
])
def test_cli_choice_parameter_out_of_range_has_a_position(
        tmp_path, capsys, body, at, got):
    path = tmp_path / "p.tape"
    path.write_text(f"sort A; theory PCA with p = 1/2; def d = {body};")
    assert main(["check", str(path)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"error: {at}: choice parameter must lie in (0,1), "
                       f"got {got}\n")
