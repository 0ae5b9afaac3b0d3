"""Deterministic SVG rendering of tapes.

One horizontal lane per sum-summand; circuits are drawn as boxes on
wires inside their lane.  Merges, caps and operation splits get fixed
glyphs.  Nothing is optimized: box sizes and lane heights are constants,
so identical terms produce identical bytes.
"""

from __future__ import annotations

from ..circuit import (CCopier, CDischarger, CGen, CIdOne, CIdSort, CSeq,
                       CSym, CTensor, CircuitTerm, MonSignature)
from ..errors import TypeCheckError
from ..objects import Monomial
from ..tape import (TCirc, TCobang, TCodiag, TIdMon, TIdZero, TOpInj, TSeq,
                    TSum, TSymPlus, TapeTerm, type_of_tape)

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


def _tape_band(x, y, w, h, elems):
    elems.append(f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
                 f'height="{_fmt(h)}" fill="#f2f2ef" stroke="#888888"/>')


# --- circuits ---------------------------------------------------------------

def _wire_ys(count: int, y: float, h: float) -> list[float]:
    if count == 0:
        return []
    step = h / (count + 1)
    return [y + step * (i + 1) for i in range(count)]


def _draw_circuit(c: CircuitTerm, memo: _Memo, x: float, y: float,
                  w: float, h: float, elems: list[str]) -> None:
    dom, cod = memo.types[c]
    ys_in = _wire_ys(len(dom), y, h)
    ys_out = _wire_ys(len(cod), y, h)

    if isinstance(c, CSeq):
        w1 = w * memo.sizes[c.first] / memo.sizes[c]
        _draw_circuit(c.first, memo, x, y, w1, h, elems)
        _draw_circuit(c.second, memo, x + w1, y, w - w1, h, elems)
        return
    if isinstance(c, CTensor):
        dom1, cod1 = memo.types[c.top]
        lanes_top = max(len(dom1), len(cod1), 1)
        dom2, cod2 = memo.types[c.bottom]
        lanes_bot = max(len(dom2), len(cod2), 1)
        h1 = h * lanes_top / (lanes_top + lanes_bot)
        _draw_circuit(c.top, memo, x, y, w, h1, elems)
        _draw_circuit(c.bottom, memo, x, y + h1, w, h - h1, elems)
        return
    if isinstance(c, (CIdSort, CIdOne)):
        for wy in ys_in:
            elems.append(_line(x, wy, x + w, wy))
        if isinstance(c, CIdSort):
            elems.append(_text(x + w / 2, ys_in[0] - 3, c.sort))
        return
    if isinstance(c, CSym):
        elems.append(_line(x, ys_in[0], x + w, ys_out[1]))
        elems.append(_line(x, ys_in[1], x + w, ys_out[0]))
        return
    if isinstance(c, CCopier):
        mid = y + h / 2
        elems.append(_line(x, mid, x + w / 2, mid))
        elems.append(_line(x + w / 2, mid, x + w, ys_out[0]))
        elems.append(_line(x + w / 2, mid, x + w, ys_out[1]))
        elems.append(f'<circle cx="{_fmt(x + w / 2)}" cy="{_fmt(mid)}" r="3" '
                     f'fill="black"/>')
        return
    if isinstance(c, CDischarger):
        mid = y + h / 2
        elems.append(_line(x, mid, x + w / 2, mid))
        elems.append(_line(x + w / 2, mid - 5, x + w / 2, mid + 5, 2.0))
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


# --- tapes ------------------------------------------------------------------

class _Memo:
    """Types and sizes of every distinct subterm, computed once a render.

    A circuit's size is its width in units; a tape's is (width in units,
    number of stacked lanes)."""

    def __init__(self, t: TapeTerm, sig: MonSignature):
        self.types: dict = {}
        type_of_tape(t, sig, self.types)
        self.sizes: dict = {}
        for node in self.types:     # each after its own subterms
            self.sizes[node] = self._size(node)

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
        if isinstance(t, (TSymPlus, TCodiag, TOpInj)):
            return 1.5, lanes
        return 1.0, lanes


def _mono_label(u: Monomial) -> str:
    return str(u)


def _draw_lane_wires(u: Monomial, x, y, w, elems, label=True):
    ys = _wire_ys(max(len(u), 1), y, LANE_H)
    if u.is_unit:
        return
    for wy, name in zip(ys, u.sorts):
        elems.append(_line(x, wy, x + w, wy))
        if label:
            elems.append(_text(x + w / 2, wy - 3, name))


def _draw_tape(t: TapeTerm, memo: _Memo, x: float, y: float,
               w: float, elems: list[str]) -> float:
    """Draw t at (x, y) with width w; returns the height used."""
    if isinstance(t, TIdZero):
        return 0.0
    if isinstance(t, TSum):
        h1 = _draw_tape(t.top, memo, x, y, w, elems)
        gap = LANE_GAP if h1 else 0.0
        h2 = _draw_tape(t.bottom, memo, x, y + h1 + gap, w, elems)
        return h1 + gap + h2
    if isinstance(t, TSeq):
        total_w1, _ = memo.sizes[t.first]
        total_w, _ = memo.sizes[t]
        w1 = w * total_w1 / total_w
        h1 = _draw_tape(t.first, memo, x, y, w1, elems)
        h2 = _draw_tape(t.second, memo, x + w1, y, w - w1, elems)
        return max(h1, h2)
    if isinstance(t, TIdMon):
        _tape_band(x, y, w, LANE_H, elems)
        _draw_lane_wires(t.mono, x, y, w, elems)
        return LANE_H
    if isinstance(t, TCirc):
        _tape_band(x, y, w, LANE_H, elems)
        _draw_circuit(t.circuit, memo, x, y, w, LANE_H, elems)
        return LANE_H
    if isinstance(t, TSymPlus):
        _tape_band(x, y, w, LANE_H, elems)
        _tape_band(x, y + LANE_H + LANE_GAP, w, LANE_H, elems)
        m1 = y + LANE_H / 2
        m2 = y + LANE_H + LANE_GAP + LANE_H / 2
        elems.append(_line(x, m1, x + w, m2))
        elems.append(_line(x, m2, x + w, m1))
        elems.append(_text(x + w / 2, y - 2, f"{t.left}/{t.right}"))
        return 2 * LANE_H + LANE_GAP
    if isinstance(t, TCodiag):
        h = 2 * LANE_H + LANE_GAP
        mid = y + h / 2
        _tape_band(x, y, w * 0.4, LANE_H, elems)
        _tape_band(x, y + LANE_H + LANE_GAP, w * 0.4, LANE_H, elems)
        _tape_band(x + w * 0.6, mid - LANE_H / 2, w * 0.4, LANE_H, elems)
        elems.append(_line(x + w * 0.4, y + LANE_H / 2, x + w * 0.6, mid))
        elems.append(_line(x + w * 0.4, y + LANE_H + LANE_GAP + LANE_H / 2,
                           x + w * 0.6, mid))
        elems.append(_line(x + w * 0.6, mid, x + w, mid))
        elems.append(_text(x + w / 2, y - 2, str(t.mono)))
        return h
    if isinstance(t, TCobang):
        _tape_band(x + w * 0.3, y, w * 0.7, LANE_H, elems)
        elems.append(_line(x + w * 0.3, y, x + w * 0.3, y + LANE_H, 2.0))
        _draw_lane_wires(t.mono, x + w * 0.5, y, w * 0.5, elems)
        return LANE_H
    if isinstance(t, TOpInj):
        n = max(t.op.arity, 1)
        h = n * LANE_H + (n - 1) * LANE_GAP if t.op.arity else LANE_H
        mid_in = y + h / 2
        _tape_band(x, mid_in - LANE_H / 2, w * 0.35, LANE_H, elems)
        elems.append(_line(x, mid_in, x + w * 0.45, mid_in))
        for k in range(t.op.arity):
            ly = y + k * (LANE_H + LANE_GAP)
            _tape_band(x + w * 0.55, ly, w * 0.45, LANE_H, elems)
            elems.append(_line(x + w * 0.45, mid_in, x + w * 0.55,
                               ly + LANE_H / 2))
        elems.append(_text(x + w / 2, mid_in - LANE_H / 2 - 2, str(t.op)))
        return h
    raise TypeCheckError(f"not a tape term: {t!r}")


def render_svg(t: TapeTerm, sig: MonSignature) -> str:
    """Valid SVG 1.1 text for a typeable tape; byte-stable per term."""
    memo = _Memo(t, sig)
    w_units, lanes = memo.sizes[t]
    width = w_units * UNIT_W + 2 * PAD
    height = lanes * (LANE_H + LANE_GAP) + 2 * PAD
    elems: list[str] = []
    used = _draw_tape(t, memo, PAD, PAD, w_units * UNIT_W, elems)
    height = max(height, used + 2 * PAD)
    head = ('<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_fmt(width)}" height="{_fmt(height)}" '
            f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n')
    return head + "\n".join(elems) + "\n</svg>\n"
