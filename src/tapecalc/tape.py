"""Outer-layer tape terms and every derived structural construction.

Tapes are typed by polynomials.  The primitive constructors live at the
monomial level (identities, tape-of-circuit, sum symmetry, codiagonal,
cobang and the operation branchings); identities, symmetries, codiagonals,
distributors, whiskerings, the tensor of tapes, term branchings and the
polynomial copy/discard structure are all built inductively from them.

Nodes are hash-consed like circuits (see ``circuit``): equal terms are
identical and ``==`` is identity.  It is syntactic equality only; equality
of tapes is decided semantically, per interpretation.  Typing and
whiskering visit each distinct subterm once a call, without recursion.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Sequence, Union

from .circuit import (CIRCUIT_KIDS, DONE, CircuitTerm, MonSignature, Term,
                      circuit_node_type, copier_circuit, discharger_circuit,
                      ctensor, identity_circuit, postorder, sym_circuit,
                      term_node)
from .errors import TypeCheckError
from .objects import Monomial, ONE, Polynomial, ZERO, nfold_sum, poly_of_mono
from .theory import App, OpSymbol, SigmaTerm, Var, check_term


class TapeTerm(Term):
    pass


@term_node
class TIdMon(TapeTerm):
    mono: Monomial


@term_node
class TIdZero(TapeTerm):
    pass


@term_node
class TCirc(TapeTerm):
    circuit: CircuitTerm


@term_node
class TSymPlus(TapeTerm):
    left: Monomial
    right: Monomial


@term_node
class TSeq(TapeTerm):
    first: TapeTerm
    second: TapeTerm


@term_node
class TSum(TapeTerm):
    top: TapeTerm
    bottom: TapeTerm


@term_node
class TCobang(TapeTerm):
    mono: Monomial


@term_node
class TCodiag(TapeTerm):
    mono: Monomial


@term_node
class TOpInj(TapeTerm):
    op: OpSymbol
    mono: Monomial


TAPE_KIDS: dict[type, Callable] = {
    TSeq: attrgetter("first", "second"), TSum: attrgetter("top", "bottom")}
TERM_KIDS: dict[type, Callable] = {
    **CIRCUIT_KIDS, **TAPE_KIDS, TCirc: lambda t: (t.circuit,)}


def type_of_tape(t: TapeTerm, sig: MonSignature,
                 types: dict | None = None) -> tuple[Polynomial, Polynomial]:
    """(dom, cod) of t, each distinct subterm typed once, without
    recursion.  If ``types`` is given, it receives the type of every
    subterm, circuits included, each entered after its own subterms."""
    if not isinstance(t, TapeTerm):
        raise TypeCheckError(f"not a tape term: {t!r}")
    if types is None:
        types = {}
    stack = [t]
    while stack:
        node = stack.pop()
        if node is DONE:
            node = stack.pop()
        elif node in types:
            continue
        elif node.__class__ in TERM_KIDS:
            stack += (node, DONE, *reversed(TERM_KIDS[node.__class__](node)))
            continue
        cls = node.__class__
        if cls is TSeq:
            dom, cod1 = types[node.first]
            dom2, cod = types[node.second]
            if cod1 != dom2:
                raise TypeCheckError(
                    f"tape composition mismatch: {cod1} vs {dom2}")
        elif cls is TSum:
            dom1, cod1 = types[node.top]
            dom2, cod2 = types[node.bottom]
            dom, cod = dom1 + dom2, cod1 + cod2
        elif cls is TCirc:
            dom, cod = types[node.circuit]
            dom, cod = poly_of_mono(dom), poly_of_mono(cod)
        elif cls is TIdMon:
            for s in node.mono:
                sig.check_sort(s)
            dom = cod = poly_of_mono(node.mono)
        elif isinstance(node, CircuitTerm):
            dom, cod = circuit_node_type(node, sig, types)
        elif cls is TSymPlus:
            p, q = poly_of_mono(node.left), poly_of_mono(node.right)
            dom, cod = p + q, q + p
        elif cls is TCodiag:
            cod = poly_of_mono(node.mono)
            dom = cod + cod
        elif cls is TCobang:
            dom, cod = ZERO, poly_of_mono(node.mono)
        elif cls is TOpInj:
            dom = poly_of_mono(node.mono)
            cod = nfold_sum(dom, node.op.arity)
        elif cls is TIdZero:
            dom = cod = ZERO
        else:
            raise TypeCheckError(f"not a tape term: {node!r}")
        types[node] = dom, cod
    return types[t]


# --- composition helpers ------------------------------------------------------

def tseq(*parts: TapeTerm) -> TapeTerm:
    term = parts[0]
    for p in parts[1:]:
        term = TSeq(term, p)
    return term


def tsum(*parts: TapeTerm) -> TapeTerm:
    """Sum of tapes; identity-on-zero summands are dropped."""
    parts = tuple(p for p in parts if not isinstance(p, TIdZero))
    if not parts:
        return TIdZero()
    term = parts[0]
    for p in parts[1:]:
        term = TSum(term, p)
    return term


def as_poly(x: Union[Polynomial, Monomial]) -> Polynomial:
    return poly_of_mono(x) if isinstance(x, Monomial) else x


# --- structural tapes over polynomials ----------------------------------------

def id_tape(p: Union[Polynomial, Monomial]) -> TapeTerm:
    p = as_poly(p)
    return tsum(*(TIdMon(u) for u in p))


def cobang_tape(p: Union[Polynomial, Monomial]) -> TapeTerm:
    p = as_poly(p)
    return tsum(*(TCobang(u) for u in p))


def symplus_tape(p: Union[Polynomial, Monomial],
                 q: Union[Polynomial, Monomial]) -> TapeTerm:
    """sigma+_{P,Q} : P (+) Q -> Q (+) P."""
    p, q = as_poly(p), as_poly(q)

    def mono_vs_poly(u: Monomial, q: Polynomial) -> TapeTerm:
        if q.is_zero:
            return TIdMon(u)
        w, q_rest = q.monomials[0], Polynomial(q.monomials[1:])
        return tseq(tsum(TSymPlus(u, w), id_tape(q_rest)),
                    tsum(TIdMon(w), mono_vs_poly(u, q_rest)))

    if p.is_zero:
        return id_tape(q)
    if q.is_zero:
        return id_tape(p)
    u, p_rest = p.monomials[0], Polynomial(p.monomials[1:])
    return tseq(tsum(TIdMon(u), symplus_tape(p_rest, q)),
                tsum(mono_vs_poly(u, q), id_tape(p_rest)))


def codiag_tape(p: Union[Polynomial, Monomial]) -> TapeTerm:
    """codiag_P : P (+) P -> P."""
    p = as_poly(p)
    if p.is_zero:
        return TIdZero()
    u, p_rest = p.monomials[0], Polynomial(p.monomials[1:])
    shuffle = tsum(TIdMon(u), symplus_tape(p_rest, poly_of_mono(u)), id_tape(p_rest))
    return tseq(shuffle, tsum(TCodiag(u), codiag_tape(p_rest)))


def distributor(p: Union[Polynomial, Monomial],
                q: Union[Polynomial, Monomial],
                r: Union[Polynomial, Monomial],
                inverse: bool = False) -> TapeTerm:
    """dl_{P,Q,R} : P (x) (Q (+) R) -> PQ (+) PR, or its inverse.

    Both directions are composites of block permutations; the inverse is
    the mirrored composite with each sum symmetry flipped.
    """
    p, q, r = as_poly(p), as_poly(q), as_poly(r)
    if p.is_zero:
        return TIdZero()
    u, p_rest = p.monomials[0], Polynomial(p.monomials[1:])
    u_poly = poly_of_mono(u)
    head = tsum(id_tape(u_poly * (q + r)), distributor(p_rest, q, r, inverse))
    swap = (symplus_tape(p_rest * q, u_poly * r) if inverse
            else symplus_tape(u_poly * r, p_rest * q))
    shuffle = tsum(id_tape(u_poly * q), swap, id_tape(p_rest * r))
    return tseq(shuffle, head) if inverse else tseq(head, shuffle)


def dl_nary(p: Union[Polynomial, Monomial],
            qs: Sequence[Union[Polynomial, Monomial]],
            inverse: bool = False) -> TapeTerm:
    """dl_{P,(Q1,...,Qk)} : P (x) (Q1 (+) ... (+) Qk) -> PQ1 (+) ... (+) PQk."""
    p = as_poly(p)
    qs = [as_poly(q) for q in qs]
    if not qs:
        return TIdZero()
    if len(qs) == 1:
        return id_tape(p * qs[0])
    q_rest = ZERO
    for q in qs[1:]:
        q_rest = q_rest + q
    step = distributor(p, qs[0], q_rest, inverse)
    rest = tsum(id_tape(p * qs[0]), dl_nary(p, qs[1:], inverse))
    return tseq(rest, step) if inverse else tseq(step, rest)


def symtensor_tape(p: Union[Polynomial, Monomial],
                   q: Union[Polynomial, Monomial]) -> TapeTerm:
    """sigma_{P,Q} : P (x) Q -> Q (x) P."""
    p, q = as_poly(p), as_poly(q)
    if q.is_zero:
        return TIdZero()
    v, q_rest = q.monomials[0], Polynomial(q.monomials[1:])
    blocks = tsum(*(TCirc(sym_circuit(u, v)) for u in p))
    return tseq(distributor(p, poly_of_mono(v), q_rest),
                tsum(blocks, symtensor_tape(p, q_rest)))


def op_inj_tape(op: OpSymbol, p: Union[Polynomial, Monomial]) -> TapeTerm:
    """<f>_P : P -> (+)^n P for arbitrary polynomials."""
    p = as_poly(p)
    if p.is_zero:
        return TIdZero()
    if len(p) == 1:
        return TOpInj(op, p.monomials[0])
    u, p_rest = p.monomials[0], Polynomial(p.monomials[1:])
    n_ones = nfold_sum(poly_of_mono(ONE), op.arity)
    return tseq(tsum(TOpInj(op, u), op_inj_tape(op, p_rest)),
                distributor(n_ones, poly_of_mono(u), p_rest, inverse=True))


def nfold_codiag(p: Union[Polynomial, Monomial], m: int) -> TapeTerm:
    """codiag^m_P : (+)^m P -> P; cobang at 0, identity at 1, right-nested."""
    p = as_poly(p)
    if m == 0:
        return cobang_tape(p)
    if m == 1:
        return id_tape(p)
    return tseq(tsum(id_tape(p), nfold_codiag(p, m - 1)), codiag_tape(p))


def term_tape(term: SigmaTerm, p: Union[Polynomial, Monomial],
              context: int) -> TapeTerm:
    """<t>_P : P -> (+)^n P realizing the term's branching behaviour."""
    p = as_poly(p)
    check_term(term, context)

    def go(t: SigmaTerm) -> TapeTerm:
        if isinstance(t, Var):
            return tsum(cobang_tape(nfold_sum(p, t.index - 1)),
                        id_tape(p),
                        cobang_tape(nfold_sum(p, context - t.index)))
        assert isinstance(t, App)
        branches = tsum(*(go(arg) for arg in t.args))
        split = op_inj_tape(t.op, p)
        if not t.args:
            return tseq(split, nfold_codiag(nfold_sum(p, context), 0))
        return tseq(split, branches, nfold_codiag(nfold_sum(p, context), len(t.args)))

    return go(term)


# --- whiskerings and the tensor of tapes ---------------------------------------

def _whisker_mono(t: TapeTerm, u: Monomial, left: bool) -> TapeTerm:
    """U |> t if left, else t <| U: each distinct node of t rebuilt once."""
    grow = (lambda m: u * m) if left else (lambda m: m * u)
    out: dict = {}
    for node in postorder(t, TAPE_KIDS)[0]:
        cls = type(node)
        if cls in TAPE_KIDS:
            new = cls(*(out[k] for k in TAPE_KIDS[cls](node)))
        elif isinstance(node, TIdZero):
            new = node
        elif isinstance(node, (TIdMon, TCobang, TCodiag)):
            new = cls(grow(node.mono))
        elif isinstance(node, TCirc):
            idu = identity_circuit(u)
            new = TCirc(ctensor(idu, node.circuit) if left
                        else ctensor(node.circuit, idu))
        elif isinstance(node, TSymPlus):
            new = TSymPlus(grow(node.left), grow(node.right))
        elif isinstance(node, TOpInj):
            new = TOpInj(node.op, grow(node.mono))
        else:
            raise TypeCheckError(f"not a tape term: {node!r}")
        out[node] = new
    return out[t]


def whisker_left_mono(u: Monomial, t: TapeTerm) -> TapeTerm:
    """U |> t, the left monomial whiskering."""
    return _whisker_mono(t, u, left=True)


def whisker_right_mono(t: TapeTerm, u: Monomial) -> TapeTerm:
    """t <| U, the right monomial whiskering."""
    return _whisker_mono(t, u, left=False)


def whisker_left(s: Union[Polynomial, Monomial], t: TapeTerm,
                 sig: MonSignature) -> TapeTerm:
    """S |> t for a polynomial S: the sum of the monomial whiskerings."""
    if isinstance(s, Monomial):
        return whisker_left_mono(s, t)
    return tsum(*(whisker_left_mono(u, t) for u in s))


def whisker_right(t: TapeTerm, s: Union[Polynomial, Monomial],
                  sig: MonSignature) -> TapeTerm:
    """t <| S for a polynomial S, sandwiched between left distributors."""
    if isinstance(s, Monomial):
        return whisker_right_mono(t, s)
    if s.is_zero:
        return TIdZero()
    if len(s) == 1:
        return whisker_right_mono(t, s.monomials[0])
    dom, cod = type_of_tape(t, sig)
    parts = tsum(*(whisker_right_mono(t, u) for u in s))
    return tseq(dl_nary(dom, [poly_of_mono(u) for u in s]),
                parts,
                dl_nary(cod, [poly_of_mono(u) for u in s], inverse=True))


def tensor_tape(t1: TapeTerm, t2: TapeTerm, sig: MonSignature) -> TapeTerm:
    """t1 (x) t2, defined by whiskering: (P |> t2) ; (t1 <| S)."""
    dom1, _ = type_of_tape(t1, sig)
    _, cod2 = type_of_tape(t2, sig)
    return TSeq(whisker_left(dom1, t2, sig), whisker_right(t1, cod2, sig))


# --- polynomial copy/discard ----------------------------------------------------

def copier_tape(p: Union[Polynomial, Monomial]) -> TapeTerm:
    """copier_P : P -> P (x) P via the coherence between sums and copying."""
    p = as_poly(p)
    if p.is_zero:
        return TIdZero()
    u, p_rest = p.monomials[0], Polynomial(p.monomials[1:])
    top = tsum(TCirc(copier_circuit(u)), cobang_tape(poly_of_mono(u) * p_rest))
    if p_rest.is_zero:
        return top
    bottom = tseq(
        tsum(cobang_tape(p_rest * poly_of_mono(u)), copier_tape(p_rest)),
        distributor(p_rest, poly_of_mono(u), p_rest, inverse=True))
    return tsum(top, bottom)


def discharger_tape(p: Union[Polynomial, Monomial]) -> TapeTerm:
    """discharger_P : P -> 1."""
    p = as_poly(p)
    if p.is_zero:
        return TCobang(ONE)
    u, p_rest = p.monomials[0], Polynomial(p.monomials[1:])
    if p_rest.is_zero:
        return TCirc(discharger_circuit(u))
    return tseq(tsum(TCirc(discharger_circuit(u)), discharger_tape(p_rest)),
                TCodiag(ONE))
