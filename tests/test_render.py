"""SVG output: validity, lane structure, byte determinism, and the
drawing of derived nodes from their maps, at the size of the DAG."""

import time
import xml.etree.ElementTree as ET

from tapecalc import tape
from tapecalc.circuit import CGen, MonSignature
from tapecalc.frontend.parser import parse_module
from tapecalc.frontend.render import LANE_GAP, LANE_H, render_svg
from tapecalc.frontend.surface import elaborate
from tapecalc.objects import mono, poly
from tapecalc.tape import (TBlock, TCirc, TCodiag, TOpInj, TSeq, TSum,
                           TWhisker, id_tape, tseq, tsum)
from tapecalc.theory import Var, choice
from fractions import Fraction

from full_trees import term_tree

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


# --- block tapes drawn from their block maps ----------------------------------

def draw_order(t):
    """The block tapes of t in the order render_svg draws them: each
    node before its subterms, the first subterm before the second, a
    whiskered tape as the tape it whiskers."""
    found, stack = [], [t]
    while stack:
        node = stack.pop()
        if isinstance(node, TSum):
            stack += (node.bottom, node.top)
        elif isinstance(node, TSeq):
            stack += (node.second, node.first)
        elif isinstance(node, TWhisker):
            stack.append(node.tape)
        elif isinstance(node, TBlock):
            found.append(node)
    return found


def read_block(group):
    """(dom labels, cod labels, blocks, capped cod bands, merged cod
    bands) of the drawing of one block tape, from its geometry alone.
    Lanes are LANE_H + LANE_GAP apart from the block's top.  A thick line
    caps a cod band and a dot merges bands into one; a thin line joins a
    dom band to a cod band.  A band across the whole block with no cap
    runs straight along its lane; any other band is a cod band if it ends
    at the block's right edge, and a dom band if not."""
    def at(el, *names):
        return [float(el.get(n)) for n in names]

    def lane(y_mid):
        return round((y_mid - top - LANE_H / 2) / (LANE_H + LANE_GAP))

    def near(a, b):
        return abs(a - b) < 0.15

    rects = [at(el, "x", "y", "width") for el in group if el.tag.endswith("rect")]
    top = min(y for _, y, _ in rects)
    left = min(x for x, _, _ in rects)
    right = max(x + w for x, _, w in rects)
    blocks, caps, dots = {}, set(), set()
    for el in group:
        if el.tag.endswith("line"):
            y1, y2 = at(el, "y1", "y2")
            if el.get("stroke-width") == "1.0":
                blocks[lane(y1)] = lane(y2)
            else:
                caps.add(lane((y1 + y2) / 2))
        elif el.tag.endswith("circle"):
            dots.add(lane(float(el.get("cy"))))
    dom, cod = {}, {}           # lane -> the x of the band's centre
    for x, y, w in rects:
        i = lane(y + LANE_H / 2)
        if near(x, left) and near(x + w, right) and i not in caps:
            dom[i] = cod[i] = x + w / 2
            blocks[i] = i
        elif near(x + w, right):
            cod[i] = x + w / 2
        else:
            dom[i] = x + w / 2
    dom_labels, cod_labels = [None] * len(dom), [None] * len(cod)
    for el in group:
        if el.tag.endswith("text"):
            i, x = lane(float(el.get("y")) - 4), float(el.get("x"))
            if i in dom and near(x, dom[i]):
                dom_labels[i] = el.text
            if i in cod and near(x, cod[i]):
                cod_labels[i] = el.text
    return (dom_labels, cod_labels, [blocks[i] for i in range(len(dom))],
            caps, dots)


def expected_block(t):
    dom, cod, blocks = t.block_layout
    joins = [list(blocks).count(j) for j in range(len(cod))]
    return ([str(u) for u in dom], [str(u) for u in cod], list(blocks),
            {j for j, n in enumerate(joins) if n == 0},
            {j for j, n in enumerate(joins) if n > 1})


def block_tapes():
    """A call of each block builder, and terms that hold block tapes in
    sums, compositions and whiskerings: among them the step construction
    of term<x1 +_1/2 x8>@A, whose cobangs and codiagonal range over
    copies of A."""
    a, b = poly(("A",)), poly(("B",))
    ab = poly(("A",), ("A", "B"), ("B",))
    yield from (tape.id_tape(ab), tape.cobang_tape(ab),
                tape.symplus_tape(ab, a), tape.symplus_tape(a, ab),
                tape.codiag_tape(ab), tape.nfold_codiag(a + b, 3),
                tape.distributor(ab, a, b), tape.distributor(ab, a, b, True),
                tape.dl_nary(ab, [a, b, ab]), tape.dl_nary(a, [b, a], True))
    c = tape.copier_tape(ab)
    yield tape.tensor_tape(c, c, SIG)
    yield tsum(tape.cobang_tape(a + b), tape.whisker_left_mono(
        mono("B"), tsum(TCodiag(mono("A")), id_tape(a + b))))
    yield term_tree(choice(Fraction(1, 2))(Var(1), Var(8)), mono("A"), 8)


def test_each_block_tape_draws_its_block_map():
    """Every block tape of each term, read back from the SVG in drawing
    order, has the bands, labels, connectors, caps and merges of its
    ``block_layout``."""
    for t in block_tapes():
        root = ET.fromstring(render_svg(t, SIG))
        groups = [g for g in root.iter() if g.tag.endswith("g")
                  and g.get("class", "").startswith("block ")]
        order = draw_order(t)
        assert len(groups) == len(order) > 0
        for group, node in zip(groups, order):
            assert group.get("class") == f"block {node.builder}"
            assert read_block(group) == expected_block(node), node


def test_svg_grows_with_the_term_not_its_trees():
    """The SVG of [ copy@A...A ] and of term<x1 +_1/2 xN>@A grows at most
    2.5x per doubling of the word or of N, and the term renders at
    N = 2000 in under a second."""
    def render(text):
        module = parse_module(text)
        tape = elaborate(module.defs["d"], module)
        start = time.perf_counter()
        svg = render_svg(tape, module.signature())
        return len(svg), time.perf_counter() - start

    for make, sizes in (
            (lambda n: f"sort A;\ndef d = [ copy@{'A' * n} ];\n",
             (25, 50, 100, 200)),
            (lambda n: "sort A;\ntheory PCA with p = 1/2;\n"
                       f"def d = term<x1 +_1/2 x{n}>@A;\n",
             (250, 500, 1000, 2000))):
        lengths = [render(make(n)) for n in sizes]
        for (small, _), (large, _) in zip(lengths, lengths[1:]):
            assert large <= 2.5 * small, lengths
    assert lengths[-1][1] < 1, lengths
