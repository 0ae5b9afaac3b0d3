"""SVG output: validity, lane structure, byte determinism."""

import xml.etree.ElementTree as ET

from tapecalc.circuit import CGen, MonSignature
from tapecalc.frontend.render import render_svg
from tapecalc.objects import mono, poly
from tapecalc.tape import TCirc, TCodiag, TOpInj, id_tape, tseq, tsum
from tapecalc.theory import choice
from fractions import Fraction

SIG = MonSignature(("A", "B"), {"G": (mono("A"), mono("B"))})


def rect_count(svg: str) -> int:
    root = ET.fromstring(svg)
    return sum(1 for el in root.iter()
               if el.tag.endswith("rect") and el.get("fill") == "#f2f2ef")


def test_identity_sum_renders_two_lanes():
    svg = render_svg(id_tape(poly(("A",), ("B",))), SIG)
    ET.fromstring(svg)
    assert rect_count(svg) == 2


def test_codiag_renders_merge_of_three_bands():
    svg = render_svg(TCodiag(mono("A")), SIG)
    ET.fromstring(svg)
    assert rect_count(svg) == 3


def test_op_split_renders_branches():
    svg = render_svg(TOpInj(choice(Fraction(1, 2)), mono("A")), SIG)
    ET.fromstring(svg)
    assert rect_count(svg) == 3  # one input band, two branch bands


def test_render_is_byte_deterministic():
    tape = tseq(TOpInj(choice(Fraction(1, 3)), mono("A")),
                tsum(TCirc(CGen("G")), TCirc(CGen("G"))),
                TCodiag(mono("B")))
    assert render_svg(tape, SIG) == render_svg(tape, SIG)


def test_render_is_valid_xml_for_varied_terms():
    from tapecalc.tape import cobang_tape, copier_tape, symplus_tape
    for tape in (cobang_tape(poly(("A", "B"), ())),
                 copier_tape(poly(("A",), ("B",))),
                 symplus_tape(poly(("A",)), poly(("B",)))):
        ET.fromstring(render_svg(tape, SIG))


def test_render_of_ill_typed_definition_is_bad_input(tmp_path, capsys):
    from tapecalc.frontend.cli import main
    path, svg = tmp_path / "m.tape", tmp_path / "out.svg"
    path.write_text("sort A;\nsort B;\ngen G : A -> B;\ndef bad = [ G ] ; [ G ];\n",
                    encoding="utf-8")
    code = main(["render", str(path), "--term", "bad", "-o", str(svg)])
    assert code == 3
    assert capsys.readouterr().err == "error: tape composition mismatch: B vs A\n"
    assert not svg.exists()


def test_render_to_a_bad_output_path_is_a_usage_error(tmp_path, capsys):
    """A directory, or a path in a missing directory: exit 2 with one
    error line, as for an unreadable input file."""
    from tapecalc.frontend.cli import main
    path = tmp_path / "m.tape"
    path.write_text("sort A;\ndef d = id@A;\n", encoding="utf-8")
    for out in (tmp_path, tmp_path / "missing" / "out.svg"):
        code = main(["render", str(path), "--term", "d", "-o", str(out)])
        captured = capsys.readouterr()
        assert code == 2, out
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
