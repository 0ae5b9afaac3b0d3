"""Deterministic SVG rendering of tapes.

One horizontal lane per sum-summand; circuits are drawn as boxes on
wires inside their lane.  Nothing is optimized: box sizes and lane
heights are constants, a leaf takes one lane per monomial on the longer
side of its type, so identical terms produce identical bytes.  The DAG
that typing walks is drawn, so the drawing grows with the term.  A
builder call gets a fixed glyph where it has one: the identity on 0 or
on one monomial, the cobang of one monomial, the identity and the
discharger of at most one sort, and a branching, labelled with its
operation if its term is one applied to x1, ..., xn, else with its
term.  Any other block tape is drawn from its ``block_layout``, any
other structural circuit as its ``wires``, and a whiskered tape as the
tape it whiskers, labelled with its whiskerings.  The fold that sizes a
tape types it first, as ``check`` does, so an ill-typed one fails
before drawing.
"""

from __future__ import annotations

from ..circuit import CBlock, CGen, CSeq, CTensor, CircuitTerm, MonSignature
from ..errors import TypeCheckError
from ..hashcons import fold
from ..objects import Monomial
from ..tape import (TERM_KIDS, TBlock, TCirc, TSeq, TSum, TTerm, TWhisker,
                    TapeTerm, node_type)
from ..theory import App, Var

LANE_H = 48.0
LANE_GAP = 10.0
UNIT_W = 56.0
PAD = 12.0
FONT = "font-family=\"monospace\" font-size=\"11\""


def _fmt(x: float) -> str:
    return f"{x:.1f}"


def _line(x1, y1, x2, y2, width=1.0) -> str:
    return (f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="black" stroke-width="{_fmt(width)}"/>')


def _rect(x, y, w, h, fill="white") -> str:
    return (f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
            f'height="{_fmt(h)}" fill="{fill}" stroke="black"/>')


def _text(x, y, s, anchor="middle") -> str:
    return (f'<text x="{_fmt(x)}" y="{_fmt(y)}" text-anchor="{anchor}" '
            f'{FONT}>{s}</text>')


def _dot(x, y) -> str:
    return f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="black"/>'


def _tape_band(x, y, w, h, elems):
    elems.append(f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
                 f'height="{_fmt(h)}" fill="#f2f2ef" stroke="#888888"/>')


# --- circuits ---------------------------------------------------------------

def _wire_ys(count: int, y: float, h: float) -> list[float]:
    if count == 0:
        return []
    step = h / (count + 1)
    return [y + step * (i + 1) for i in range(count)]


def _draw_gate(c: CircuitTerm, memo: _Memo, x: float, y: float,
               w: float, h: float, elems: list[str]) -> None:
    """Draw a circuit that is not a composite at (x, y), w wide, h high."""
    dom, cod = memo.types[c]
    ys_in = _wire_ys(len(dom), y, h)
    ys_out = _wire_ys(len(cod), y, h)
    if c.__class__ is CBlock:
        if len(dom) > 1 or c.builder not in ("identity_circuit",
                                             "discharger_circuit"):
            _draw_wire_map(c, ys_in, ys_out, x, w, elems)
        elif c.builder == "discharger_circuit":
            mid = y + h / 2
            elems.append(_line(x, mid, x + w / 2, mid))
            elems.append(_line(x + w / 2, mid - 5, x + w / 2, mid + 5, 2.0))
        else:
            for sort, wy in zip(dom, ys_in):
                elems.append(_line(x, wy, x + w, wy))
                elems.append(_text(x + w / 2, wy - 3, sort))
        return
    if isinstance(c, CGen):
        bx, bw = x + w * 0.2, w * 0.6
        by, bh = y + h * 0.18, h * 0.64
        for wy in ys_in:
            elems.append(_line(x, wy, bx, wy))
        for wy in ys_out:
            elems.append(_line(bx + bw, wy, x + w, wy))
        elems.append(_rect(bx, by, bw, bh))
        elems.append(_text(x + w / 2, y + h / 2 + 4, c.name))
        return
    raise TypeCheckError(f"not a circuit term: {c!r}")


def _draw_wire_map(c: CBlock, ys_in, ys_out, x: float, w: float,
                   elems: list[str]) -> None:
    """Each input wire, labelled with its sort, joined to each output wire
    it reaches: a dot where it forks, a bar where it ends."""
    x1, x2 = x + w * 0.3, x + w * 0.7
    dom, _, wires = c.wires
    elems.append(f'<g class="wires {c.builder}">')
    for sort, wy, targets in zip(dom, ys_in, wires):
        elems.append(_line(x, wy, x1, wy))
        elems.append(_text(x + w * 0.15, wy - 3, sort))
        for j in targets:
            elems.append(_line(x1, wy, x2, ys_out[j]))
        if not targets:
            elems.append(_line(x1, wy - 5, x1, wy + 5, 2.0))
        elif len(targets) > 1:
            elems.append(_dot(x1, wy))
    for wy in ys_out:
        elems.append(_line(x2, wy, x + w, wy))
    elems.append("</g>")


# --- tapes ------------------------------------------------------------------

class _Memo:
    """Types, sizes and heights of every distinct subterm, computed once a
    render.

    A circuit's size is its width in units; a tape's is (width in units,
    number of stacked lanes).  A tape's height is the height its drawing
    takes, which does not depend on where it is drawn: a leaf's is that
    of one lane per monomial on the longer side of its type."""

    def __init__(self, t: TapeTerm, sig: MonSignature):
        if not isinstance(t, TapeTerm):
            raise TypeCheckError(f"not a tape term: {t!r}")
        self.sig, self.types, self.sizes, self.heights = sig, {}, {}, {}
        fold((t,), TERM_KIDS, self._visit)

    def _visit(self, node, kids: tuple) -> tuple:
        self.types[node] = typ = node_type(node, self.sig, kids)
        self.sizes[node] = self._size(node)
        if isinstance(node, TapeTerm):
            self.heights[node] = self._height(node)
        return typ

    def _size(self, t):
        sizes = self.sizes
        if isinstance(t, CSeq):
            return sizes[t.first] + sizes[t.second]
        if isinstance(t, CTensor):
            return max(sizes[t.top], sizes[t.bottom])
        if isinstance(t, CircuitTerm):
            return 1.0
        dom, cod = self.types[t]
        lanes = max(len(dom), len(cod), 1)
        if isinstance(t, TSeq):
            w1, l1 = sizes[t.first]
            w2, l2 = sizes[t.second]
            return w1 + w2, max(l1, l2, lanes)
        if isinstance(t, TSum):
            w1, l1 = sizes[t.top]
            w2, l2 = sizes[t.bottom]
            return max(w1, w2), l1 + l2
        if isinstance(t, TCirc):
            return sizes[t.circuit], 1
        if isinstance(t, TWhisker):
            return sizes[t.tape]
        return (1.0 if _has_glyph(t) else 1.5), lanes

    def _height(self, t) -> float:
        heights = self.heights
        if isinstance(t, TSum):
            h1 = heights[t.top]
            return h1 + (LANE_GAP if h1 else 0.0) + heights[t.bottom]
        if isinstance(t, TSeq):
            return max(heights[t.first], heights[t.second])
        if isinstance(t, TWhisker):
            return heights[t.tape]
        dom, cod = self.types[t]
        lanes = max(len(dom), len(cod))
        return lanes * LANE_H + (lanes - 1) * LANE_GAP if lanes else 0.0


def _draw_lane_wires(u: Monomial, x, y, w, elems):
    for wy, name in zip(_wire_ys(len(u), y, LANE_H), u):
        elems.append(_line(x, wy, x + w, wy))
        elems.append(_text(x + w / 2, wy - 3, name))


def _draw(t: TapeTerm, memo: _Memo, x: float, y: float, w: float,
          elems: list[str]) -> None:
    """Draw t at (x, y) with width w: each node before its subterms, the
    first subterm before the second, on an explicit stack of
    (term, x, y, width, height)."""
    stack = [(t, x, y, w, memo.heights[t])]
    while stack:
        node, x, y, w, h = stack.pop()
        if isinstance(node, TSum):
            h1 = memo.heights[node.top]
            gap = LANE_GAP if h1 else 0.0
            stack.append((node.bottom, x, y + h1 + gap, w,
                          memo.heights[node.bottom]))
            stack.append((node.top, x, y, w, h1))
        elif isinstance(node, TSeq):
            w1 = w * memo.sizes[node.first][0] / memo.sizes[node][0]
            stack.append((node.second, x + w1, y, w - w1,
                          memo.heights[node.second]))
            stack.append((node.first, x, y, w1, memo.heights[node.first]))
        elif isinstance(node, CSeq):
            w1 = w * memo.sizes[node.first] / memo.sizes[node]
            stack.append((node.second, x + w1, y, w - w1, h))
            stack.append((node.first, x, y, w1, h))
        elif isinstance(node, CTensor):
            dom1, cod1 = memo.types[node.top]
            lanes_top = max(len(dom1), len(cod1), 1)
            dom2, cod2 = memo.types[node.bottom]
            lanes_bot = max(len(dom2), len(cod2), 1)
            h1 = h * lanes_top / (lanes_top + lanes_bot)
            stack.append((node.bottom, x, y + h1, w, h - h1))
            stack.append((node.top, x, y, w, h1))
        elif isinstance(node, CircuitTerm):
            _draw_gate(node, memo, x, y, w, h, elems)
        elif isinstance(node, TCirc):
            _tape_band(x, y, w, LANE_H, elems)
            stack.append((node.circuit, x, y, w, LANE_H))
        elif isinstance(node, TWhisker):
            label = "-"     # "U |> -" for U |> t, "- <| U" for t <| U
            for left, u in node.steps:
                label = f"{u} |&gt; {label}" if left else f"{label} &lt;| {u}"
            elems.append(_text(x, y - 2, label, "start"))
            stack.append((node.tape, x, y, w, h))
        elif _has_glyph(node):
            _draw_tape_leaf(node, x, y, w, elems)
        elif node.__class__ is TBlock:
            _draw_block(node, x, y, w, elems)
        else:
            _draw_branching(node, x, y, w, h, elems)


def _has_glyph(t: TapeTerm) -> bool:
    """Whether t is drawn as the glyph of the identity on 0 or on one
    monomial, or of the cobang of one monomial."""
    return (t.__class__ is TBlock and len(t.args[0]) < 2
            and t.builder in ("id_tape", "cobang_tape"))


def _draw_block(t: TBlock, x: float, y: float, w: float,
                elems: list[str]) -> None:
    """A block tape from its ``block_layout``: the band of the i-th dom
    monomial runs to the cod band ``blocks[i]``, and each band is
    labelled with its monomial.  A band that alone stays in its lane is
    one band across; any other is a dom band on the left, joined by a
    connector to a cod band on the right, with a dot where several bands
    merge into it and a cap where none reaches it."""
    dom, cod, blocks = t.block_layout
    band_w, x2 = w * 0.3, x + w * 0.7
    mids = [y + i * (LANE_H + LANE_GAP) + LANE_H / 2
            for i in range(max(len(dom), len(cod)))]
    joins = [0] * len(cod)
    for b in blocks:
        joins[b] += 1
    straight = {i for i, b in enumerate(blocks) if b == i and joins[b] == 1}
    elems.append(f'<g class="block {t.builder}">')
    for i, (mid, u) in enumerate(zip(mids, dom)):
        width = w if i in straight else band_w
        _tape_band(x, mid - LANE_H / 2, width, LANE_H, elems)
        elems.append(_text(x + width / 2, mid + 4, str(u)))
        if i not in straight:
            elems.append(_line(x + band_w, mid, x2, mids[blocks[i]]))
    for j, (mid, u) in enumerate(zip(mids, cod)):
        if j in straight:
            continue
        _tape_band(x2, mid - LANE_H / 2, band_w, LANE_H, elems)
        elems.append(_text(x2 + band_w / 2, mid + 4, str(u)))
        if joins[j] > 1:
            elems.append(_dot(x2, mid))
        elif not joins[j]:
            elems.append(_line(x2, mid - LANE_H / 2, x2, mid + LANE_H / 2, 2.0))
    elems.append("</g>")


def _draw_tape_leaf(t: TBlock, x: float, y: float, w: float,
                    elems: list[str]) -> None:
    """Draw the glyph of an identity on at most one monomial, or of a
    cobang of one."""
    p = t.args[0]
    if not p:
        return
    if t.builder == "id_tape":
        _tape_band(x, y, w, LANE_H, elems)
        _draw_lane_wires(p[0], x, y, w, elems)
    else:
        _tape_band(x + w * 0.3, y, w * 0.7, LANE_H, elems)
        elems.append(_line(x + w * 0.3, y, x + w * 0.3, y + LANE_H, 2.0))
        _draw_lane_wires(p[0], x + w * 0.5, y, w * 0.5, elems)


def _draw_branching(t: TTerm, x: float, y: float, w: float, h: float,
                    elems: list[str]) -> None:
    """Dom bands stacked in the middle, each joined to its n copies,
    labelled with the operation f of a term f(x1, ..., xn), else with
    the term."""
    term, dom, n = t.branch
    step = LANE_H + LANE_GAP
    top = y + (h - len(dom) * step + LANE_GAP) / 2
    mids = [top + j * step + LANE_H / 2 for j in range(len(dom))]
    for mid in mids:
        _tape_band(x, mid - LANE_H / 2, w * 0.35, LANE_H, elems)
        elems.append(_line(x, mid, x + w * 0.45, mid))
    for k in range(n * len(dom)):
        _tape_band(x + w * 0.55, y + k * step, w * 0.45, LANE_H, elems)
        elems.append(_line(x + w * 0.45, mids[k % len(dom)],
                           x + w * 0.55, y + k * step + LANE_H / 2))
    applied = (term.__class__ is App
               and term.args == tuple(map(Var, range(1, n + 1))))
    elems.append(_text(x + w / 2, top - 2, str(term.op if applied else term)))


def render_svg(t: TapeTerm, sig: MonSignature) -> str:
    """Valid SVG 1.1 text for a typeable tape, drawn as its DAG;
    byte-stable per term.  An ill-typed tape fails as ``check`` does,
    before anything is drawn."""
    memo = _Memo(t, sig)
    w_units, lanes = memo.sizes[t]
    width = w_units * UNIT_W + 2 * PAD
    height = lanes * (LANE_H + LANE_GAP) + 2 * PAD
    elems: list[str] = []
    _draw(t, memo, PAD, PAD, w_units * UNIT_W, elems)
    height = max(height, memo.heights[t] + 2 * PAD)
    head = ('<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_fmt(width)}" height="{_fmt(height)}" '
            f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n')
    return head + "\n".join(elems) + "\n</svg>\n"
