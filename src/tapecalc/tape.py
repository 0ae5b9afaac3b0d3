"""Outer-layer tape terms and every derived structural construction.

Tapes are typed by polynomials.  In the calculus, a tape is built from
generators at one monomial (identities, tape-of-circuit, sum symmetry,
codiagonal, cobang and the operation branchings), and every other tape
(identities, symmetries, codiagonals, distributors, whiskerings, the
tensor of tapes and the polynomial copy/discard structure) is derived
from them by induction.

Nodes are hash-consed like circuits (see ``hashcons``): equal terms are
identical and ``==`` is identity.  It is syntactic equality only; equality
of tapes is decided semantically, per interpretation.  Each walker visits
each distinct subterm once a call, without recursion.

A builder call is one node, at one monomial as at any polynomial, so
that building a derived tape costs a single node and a generator is
the builder call at its monomial.  A ``TBlock`` is a call of a builder
of *block tapes* (identities, cobangs, sum symmetries, codiagonals,
distributors), which move whole monomial blocks, so that the meaning of
one is a block map (``block_map``), kept in its ``block_layout``: its
type and matrix are read from that alone.  A ``TTerm`` <t>_P :
P -> (+)^n P is the branching of a Σ-term t over n variables, an
operation's <f>_P that of f(x1, ..., xn), read from its ``branch``
(t, P, n): no tape is built per variable or operation of t.  A
``TWhisker`` is any tape t whiskered by a chain of monomials, and
whiskering a whiskered tape extends its chain.  In ``TERM_KIDS``, the
one map of children that every walk reads, a block tape and a branching
are leaves and a whiskered tape has one child, t, so typing, evaluation
and rendering walk t once however many copies a tensor makes.  A
builder's node is the only form of its tape: no tree of generators is
built for it.  An error is the one the walk over these nodes raises, so
it names the subterm where that walk failed: for a failure inside a
whiskered tape, the composition the user wrote.

A tape keeps its type: ``tape_types`` stores the type of each node it
types, tape or circuit, on the node, with the signature object it was
typed under, and its walk stops at a node kept under that object.  So
each node is typed once per signature however many callers
(``tensor_tape``, ``whisker_right``, ``sem_eq``, the evaluator) ask for
its type or the type of a term that holds it.
"""

from __future__ import annotations

from functools import reduce
from operator import attrgetter
from typing import Callable, Sequence, Union

from .circuit import (CIRCUIT_KIDS, CircuitTerm, MonSignature,
                      circuit_node_type, copier_circuit, discharger_circuit,
                      sym_circuit)
from .errors import TypeCheckError
from .hashcons import Term, kept, postorder, term_node
from .objects import Monomial, ONE, Polynomial, ZERO, poly_of_mono
from .theory import OpSymbol, SigmaTerm, Var, check_term


class TapeTerm(Term):
    """Base of the tape nodes."""


@term_node
class TCirc(TapeTerm):
    circuit: CircuitTerm


@term_node
class TSeq(TapeTerm):
    first: TapeTerm
    second: TapeTerm


@term_node
class TSum(TapeTerm):
    top: TapeTerm
    bottom: TapeTerm


@term_node
class TTerm(TapeTerm):
    """The branching <term>_poly : P -> (+)^n P of a Σ-term over n =
    ``context`` variables, whose matrix stacks w_i(term) times the
    identity on P; ``branch`` is (term, P as a tuple, n)."""
    term: SigmaTerm
    poly: Polynomial
    context: int
    branch = kept(lambda t: (t.term, tuple(t.poly), t.context))


@term_node
class TBlock(TapeTerm):
    """The block tape of the builder named ``builder`` at ``args``;
    ``block_layout`` is the ``block_map`` of the call, kept."""
    builder: str
    args: tuple
    block_layout = kept(lambda t: block_map(t.builder, *t.args))


@term_node
class TWhisker(TapeTerm):
    """The composite tape ``tape`` whiskered by each step (left, U) of
    ``steps`` in turn (see ``whisker_chain``)."""
    tape: TapeTerm
    steps: tuple


_ID_ZERO = TBlock("id_tape", (ZERO,))   # the unit of tsum


TERM_KIDS: dict[type, Callable] = {
    **CIRCUIT_KIDS, TSeq: attrgetter("first", "second"),
    TSum: attrgetter("top", "bottom"), TCirc: lambda t: (t.circuit,),
    TWhisker: lambda t: (t.tape,)}
"""The children of a node in the walks: a structural tape is a leaf,
given its value by ``block_map``, and a whiskered tape has one child,
the tape it whiskers, whose value its chain of whiskerings maps to its
own."""


def block_map(builder: str, p: Polynomial, *args
              ) -> tuple[tuple, tuple, Sequence[int]]:
    """(dom, cod, blocks) of the structural tape of the call
    builder(p, *args): dom and cod are tuples of monomials, and the i-th
    dom monomial lands identically in the cod monomial blocks[i].  The
    calls are id_tape(P), cobang_tape(P), symplus_tape(P, Q),
    codiag_tape(P), nfold_codiag(P, m), distributor(P, Q, R, inverse)
    and dl_nary(P, (Q1, ..., Qk), inverse)."""
    p, n = tuple(p), len(p)
    if builder == "id_tape":
        dom, cod, blocks = p, p, range(n)
    elif builder == "cobang_tape":
        dom, cod, blocks = (), p, ()
    elif builder == "symplus_tape":
        q = tuple(args[0])
        dom, cod = p + q, q + p
        blocks = [*range(len(q), len(q) + n), *range(len(q))]
    elif builder == "codiag_tape" or builder == "nfold_codiag":
        m = args[0] if args else 2
        dom, cod, blocks = p * m, p, [*range(n)] * m
    else:   # distributors: block (i, j), j the c-th of Qk, to PQk's (i, c)
        qs, inverse = (args[:2], args[2]) if builder == "distributor" else args
        dom = tuple([u * v for u in p for q in qs for v in q])
        cod = tuple([u * v for q in qs for u in p for v in q])
        blocks = []
        for i in range(n):
            start = 0       # PQk starts at block n * (len Q1 + ... + len Qk-1)
            for q in qs:
                first = n * start + i * len(q)
                blocks += range(first, first + len(q))
                start += len(q)
        if inverse:
            dom, cod, forward, blocks = cod, dom, blocks, [0] * len(blocks)
            for x, b in enumerate(forward):
                blocks[b] = x
    return dom, cod, blocks


def node_type(node: Term, sig: MonSignature, kids: tuple) -> tuple:
    """The type of a tape node or circuit node, given its children's
    types, in order (the ``fold`` step of ``tape_types``): a circuit's
    is a pair of ``Monomial``s, a tape's a pair of plain tuples of
    ``Monomial``s, so a sum is one tuple concatenation and a composition
    check one tuple comparison.  A structural tape's type is its block
    map's; a branching tape's P -> P repeated n times; a whiskered
    tape's is that of the tape it whiskers, its one child, with each
    step's monomial multiplied into every monomial on its side.
    Raises if a step, or the type of a leaf, names a sort not in sig."""
    cls = node.__class__
    if cls is TSeq:
        (dom, cod1), (dom2, cod) = kids
        if cod1 != dom2:
            raise TypeCheckError(
                f"tape composition mismatch: {Polynomial(cod1)} vs "
                f"{Polynomial(dom2)}")
    elif cls is TSum:
        (dom1, cod1), (dom2, cod2) = kids
        dom, cod = dom1 + dom2, cod1 + cod2
    elif cls is TCirc:
        (dom, cod), = kids
        dom, cod = (dom,), (cod,)
    elif isinstance(node, CircuitTerm):
        dom, cod = circuit_node_type(node, sig, kids)
    elif cls is TWhisker:
        (dom, cod), = kids
        sig.check_sorts(*[u for _, u in node.steps])
        for left, u in node.steps:
            dom, cod = (tuple([u * x if left else x * u for x in side])
                        for side in (dom, cod))
    else:
        if cls is TBlock:
            dom, cod, _ = node.block_layout
        elif cls is TTerm:
            _, dom, n = node.branch
            cod = dom * n
        else:
            raise TypeCheckError(f"not a tape term: {node!r}")
        sig.check_sorts(*dom, *cod)
    return dom, cod


_UNTYPED = (None,)


def tape_types(roots: Sequence[TapeTerm], sig: MonSignature,
               walk: tuple[list, dict] | None = None) -> tuple:
    """The types of the roots (see ``node_type``) under sig.  Every node
    typed keeps its type in its ``__dict__``, as ``typed`` = (sig, type),
    so it dies with the node, and a node kept under the very same
    signature object is not typed again.  The nodes are typed in
    ``postorder`` over ``TERM_KIDS``, from ``walk``, the roots' postorder
    if the caller has made it already, or else from a walk that stops at
    each kept node.  A kept node is well-typed, so the first node that
    fails is the one a walk that keeps no type fails at, and an error is
    never kept, on the failing node or on any node above it."""
    for i, t in enumerate(roots):
        if not isinstance(t, TapeTerm):
            tape_types(roots[:i], sig)
            raise TypeCheckError(f"not a tape term: {t!r}")
    if walk is None:
        walk = postorder(roots, TERM_KIDS, lambda node: (
            node.__dict__.get("typed", _UNTYPED)[0] is sig))
    for node in walk[0]:
        facts = getattr(node, "__dict__", {})   # node_type rejects a non-term
        if facts.get("typed", _UNTYPED)[0] is not sig:
            get = TERM_KIDS.get(node.__class__)
            facts["typed"] = sig, node_type(node, sig, () if get is None else
                                            tuple([k.__dict__["typed"][1]
                                                   for k in get(node)]))
    return tuple([t.__dict__["typed"][1] for t in roots])


def type_of_tape(t: TapeTerm, sig: MonSignature) -> tuple[Polynomial, Polynomial]:
    """(dom, cod) of t, each distinct subterm typed once."""
    dom, cod = tape_types((t,), sig)[0]
    return Polynomial(dom), Polynomial(cod)


# --- composition helpers ------------------------------------------------------

def tseq(*parts: TapeTerm) -> TapeTerm:
    return reduce(TSeq, parts)


def tsum(*parts: TapeTerm) -> TapeTerm:
    """Sum of tapes; identity-on-zero summands are dropped."""
    return reduce(TSum, [p for p in parts if p is not _ID_ZERO] or [_ID_ZERO])


def as_poly(x: Union[Polynomial, Monomial]) -> Polynomial:
    return poly_of_mono(x) if isinstance(x, Monomial) else x


# --- structural tapes over polynomials ----------------------------------------
#
# The structural tapes are defined by recursion on the first monomial of a
# polynomial.  A block tape's builder returns its call as one ``TBlock``
# node, whose meaning is its ``block_map``, the identity on 0 for a call
# at 0; the other builders compute the recursion by a loop
# (``_right_fold``).

def _right_fold(p: Polynomial, t: TapeTerm,
                step: Callable[[Monomial, Polynomial, TapeTerm], TapeTerm]
                ) -> TapeTerm:
    """The tape that is t at 0 and step(u, rest, tape at rest) at
    u (+) rest, from p's last monomial to its first."""
    for i in reversed(range(len(p))):
        t = step(p[i], Polynomial(p[i + 1:]), t)
    return t


def id_tape(p: Union[Polynomial, Monomial]) -> TapeTerm:
    return TBlock("id_tape", (as_poly(p),))


def cobang_tape(p: Union[Polynomial, Monomial]) -> TapeTerm:
    p = as_poly(p)
    return TBlock("cobang_tape", (p,)) if p else _ID_ZERO


def symplus_tape(p: Union[Polynomial, Monomial],
                 q: Union[Polynomial, Monomial]) -> TapeTerm:
    """sigma+_{P,Q} : P (+) Q -> Q (+) P."""
    p, q = as_poly(p), as_poly(q)
    if p.is_zero or q.is_zero:
        return id_tape(p + q)
    return TBlock("symplus_tape", (p, q))


def codiag_tape(p: Union[Polynomial, Monomial]) -> TapeTerm:
    """codiag_P : P (+) P -> P."""
    p = as_poly(p)
    return TBlock("codiag_tape", (p,)) if p else _ID_ZERO


def distributor(p: Union[Polynomial, Monomial],
                q: Union[Polynomial, Monomial],
                r: Union[Polynomial, Monomial],
                inverse: bool = False) -> TapeTerm:
    """dl_{P,Q,R} : P (x) (Q (+) R) -> PQ (+) PR, or its inverse.

    Both directions are composites of block permutations; the inverse is
    the mirrored composite with each sum symmetry flipped.
    """
    p = as_poly(p)
    if p.is_zero:
        return _ID_ZERO
    return TBlock("distributor", (p, as_poly(q), as_poly(r), bool(inverse)))


def dl_nary(p: Union[Polynomial, Monomial],
            qs: Sequence[Union[Polynomial, Monomial]],
            inverse: bool = False) -> TapeTerm:
    """dl_{P,(Q1,...,Qk)} : P (x) (Q1 (+) ... (+) Qk) -> PQ1 (+) ... (+) PQk."""
    p = as_poly(p)
    qs = tuple([as_poly(q) for q in qs])
    if len(qs) < 2:
        return id_tape(p * qs[0]) if qs else _ID_ZERO
    return TBlock("dl_nary", (p, qs, bool(inverse)))


def nfold_codiag(p: Union[Polynomial, Monomial], m: int) -> TapeTerm:
    """codiag^m_P : (+)^m P -> P; cobang at 0, identity at 1, right-nested."""
    p = as_poly(p)
    if m < 2:
        return cobang_tape(p) if m == 0 else id_tape(p)
    return TBlock("nfold_codiag", (p, m))


def symtensor_tape(p: Union[Polynomial, Monomial],
                   q: Union[Polynomial, Monomial]) -> TapeTerm:
    """sigma_{P,Q} : P (x) Q -> Q (x) P."""
    p = as_poly(p)

    def step(v: Monomial, q_rest: Polynomial, t: TapeTerm) -> TapeTerm:
        blocks = tsum(*(TCirc(sym_circuit(u, v)) for u in p))
        return tseq(distributor(p, poly_of_mono(v), q_rest), tsum(blocks, t))

    return _right_fold(as_poly(q), _ID_ZERO, step)


def op_inj_tape(op: OpSymbol, p: Union[Polynomial, Monomial]) -> TapeTerm:
    """<f>_P : P -> (+)^n P, the ``term_tape`` of f(x1, ..., xn)."""
    return term_tape(op(*map(Var, range(1, op.arity + 1))), p, op.arity)


def term_tape(term: SigmaTerm, p: Union[Polynomial, Monomial],
              context: int) -> TapeTerm:
    """<t>_P : P -> (+)^n P realizing the term's branching behaviour."""
    check_term(term, context)
    p = as_poly(p)
    return TTerm(term, p, context) if p else _ID_ZERO


# --- whiskerings and the tensor of tapes ---------------------------------------

def whisker_chain(t: TapeTerm, steps: tuple) -> TapeTerm:
    """t whiskered by each step (left, U) of steps in turn: U |> - if left,
    else - <| U, as one ``TWhisker`` node.  A step by ONE changes nothing
    and is dropped, and a whiskered t extends its chain."""
    steps = tuple([step for step in steps if step[1]])
    if not steps:
        return t
    if not isinstance(t, TapeTerm):
        raise TypeCheckError(f"not a tape term: {t!r}")
    if t.__class__ is TWhisker:
        return TWhisker(t.tape, t.steps + steps)
    return TWhisker(t, steps)


def _whiskers(t: TapeTerm, monos: Sequence[Monomial], left: bool) -> tuple:
    """(U |> t for U in monos) if left, else (t <| U for U in monos)."""
    return tuple([whisker_chain(t, ((left, u),)) for u in monos])


def whisker_left_mono(u: Monomial, t: TapeTerm) -> TapeTerm:
    """U |> t, the left monomial whiskering."""
    return _whiskers(t, (u,), left=True)[0]


def whisker_right_mono(t: TapeTerm, u: Monomial) -> TapeTerm:
    """t <| U, the right monomial whiskering."""
    return _whiskers(t, (u,), left=False)[0]


def whisker_left(s: Union[Polynomial, Monomial], t: TapeTerm) -> TapeTerm:
    """S |> t for a polynomial S: the sum of the monomial whiskerings."""
    return tsum(*_whiskers(t, as_poly(s), left=True))


def whisker_right(t: TapeTerm, s: Union[Polynomial, Monomial],
                  sig: MonSignature) -> TapeTerm:
    """t <| S for a polynomial S, sandwiched between left distributors."""
    s = as_poly(s)
    parts = _whiskers(t, s, left=False)
    if len(parts) < 2:
        return tsum(*parts)
    dom, cod = type_of_tape(t, sig)
    summands = [poly_of_mono(u) for u in s]
    return tseq(dl_nary(dom, summands), tsum(*parts),
                dl_nary(cod, summands, inverse=True))


def tensor_tape(t1: TapeTerm, t2: TapeTerm, sig: MonSignature) -> TapeTerm:
    """t1 (x) t2, defined by whiskering: (P |> t2) ; (t1 <| S)."""
    (dom1, _), (_, cod2) = tape_types((t1, t2), sig)
    return TSeq(whisker_left(Polynomial(dom1), t2),
                whisker_right(t1, Polynomial(cod2), sig))


# --- polynomial copy/discard ----------------------------------------------------

def copier_tape(p: Union[Polynomial, Monomial]) -> TapeTerm:
    """copier_P : P -> P (x) P via the coherence between sums and copying."""
    def step(u: Monomial, p_rest: Polynomial, t: TapeTerm) -> TapeTerm:
        u_poly = poly_of_mono(u)
        top = tsum(TCirc(copier_circuit(u)), cobang_tape(u_poly * p_rest))
        if p_rest.is_zero:
            return top
        bottom = tseq(tsum(cobang_tape(p_rest * u_poly), t),
                      distributor(p_rest, u_poly, p_rest, inverse=True))
        return tsum(top, bottom)

    return _right_fold(as_poly(p), _ID_ZERO, step)


def discharger_tape(p: Union[Polynomial, Monomial]) -> TapeTerm:
    """discharger_P : P -> 1."""
    def step(u: Monomial, p_rest: Polynomial, t: TapeTerm) -> TapeTerm:
        if p_rest.is_zero:
            return TCirc(discharger_circuit(u))
        return tseq(tsum(TCirc(discharger_circuit(u)), t), codiag_tape(ONE))

    return _right_fold(as_poly(p), cobang_tape(ONE), step)


# --- the generators by name, each its builder's node at one monomial ----------

def TIdMon(u: Monomial) -> TapeTerm:
    return id_tape(u)


def TCodiag(u: Monomial) -> TapeTerm:
    return codiag_tape(u)


def TOpInj(op: OpSymbol, u: Monomial) -> TapeTerm:
    return op_inj_tape(op, u)
