"""Outer-layer tape terms and every derived structural construction.

Tapes are typed by polynomials.  The primitive constructors live at the
monomial level (identities, tape-of-circuit, sum symmetry, codiagonal,
cobang and the operation branchings); identities, symmetries, codiagonals,
distributors, whiskerings, the tensor of tapes, term branchings and the
polynomial copy/discard structure are all built inductively from them.

Nodes are hash-consed like circuits (see ``hashcons``): equal terms are
identical and ``==`` is identity.  It is syntactic equality only; equality
of tapes is decided semantically, per interpretation.  Each walker visits
each distinct subterm once a call, without recursion.

A *block tape* is built only from ``TIdMon``, ``TSymPlus``, ``TCodiag``,
``TCobang`` and ``TIdZero`` under ``TSum`` and ``TSeq``: it moves whole
monomial blocks, so its meaning is a block map, for each dom monomial the
cod monomial it lands in, with the identity inside the block.  The
builders of such tapes (identities, cobangs, sum symmetries, codiagonals,
distributors) tag the composite node they return with its closed form,
the builder call that made it (``block_map``).  Whiskering such a tape by
a monomial gives the same builder's tape at the whiskered objects, so
``_whiskers`` makes that call instead of entering the tree.  Whiskering
any other composite tape t tags each copy with its builder call too,
``(whisker_chain, t, steps)``, and whiskering a copy again extends its
chain of steps.  Whiskering takes its children from ``TAPE_KIDS``, where
a tagged node is a leaf; typing and evaluation from ``SEM_KIDS``, where a
block tape is a leaf and a whiskered copy's one child is t, so t is
walked once however many copies a tensor makes.  Should a walk over
``SEM_KIDS`` fail, ``sem_fold`` walks the full tree, ``TERM_KIDS``, and
reports its value or error; rendering always walks ``TERM_KIDS``.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from operator import attrgetter
from typing import Callable, Sequence, Union
from weakref import WeakValueDictionary

from .circuit import (CIRCUIT_KIDS, CircuitTerm, MonSignature,
                      circuit_node_type, copier_circuit, discharger_circuit,
                      ctensor, identity_circuit, sym_circuit)
from .errors import TapecalcError, TypeCheckError, UnknownSortError
from .hashcons import Term, fold, term_node
from .objects import Monomial, ONE, Polynomial, nfold_sum, poly_of_mono
from .theory import SIGMA_KIDS, OpSymbol, SigmaTerm, Var, check_term


class TapeTerm(Term):
    form = None
    """The closed form of a tagged block tape, the builder call that made
    it, ``(builder, *args)`` (see ``block_map``).  Not a field: set once,
    in the node's ``__dict__``, by the builder that returns the node, so it
    dies with the node."""

    @cached_property
    def block_layout(self) -> tuple[tuple, tuple, Sequence[int]]:
        """``block_map(self.form)`` of a tagged node, computed on first use
        and kept in the node's ``__dict__`` as ``form`` is."""
        return block_map(self.form)


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


TERM_KIDS: dict[type, Callable] = {
    **CIRCUIT_KIDS, TSeq: attrgetter("first", "second"),
    TSum: attrgetter("top", "bottom"), TCirc: lambda t: (t.circuit,)}
TAPE_KIDS: dict[type, Callable] = {
    TSeq: lambda t: () if t.form else (t.first, t.second),
    TSum: lambda t: () if t.form else (t.top, t.bottom)}
"""The children of a tape node down to its tagged tapes and circuits,
which are leaves: the walk of whiskering."""


def _semantic(children: Callable) -> Callable:
    """The children of a ``TSeq`` or ``TSum`` in the semantic walks: none
    for a tagged block tape, the tape it whiskers for a whiskered one."""
    def kids(t: TapeTerm) -> tuple:
        form = t.form
        if form is None:
            return children(t)
        return form[1:2] if form[0] is whisker_chain else ()
    return kids


SEM_KIDS: dict[type, Callable] = {
    **TERM_KIDS, TSeq: _semantic(TERM_KIDS[TSeq]),
    TSum: _semantic(TERM_KIDS[TSum])}
"""The children of the semantic walks: a block tape is a leaf, given its
value by ``block_map`` from its closed form, and a whiskered tape has one
child, the tape it whiskers, whose value its chain of whiskerings maps to
its own."""


def _tag(t: TapeTerm, *form) -> TapeTerm:
    """t, tagged with its closed form unless it is a leaf or tagged; a
    block tape's form replaces a whiskering's, as the walks stop there."""
    if t.__class__ is TSeq or t.__class__ is TSum:
        old = t.form
        if old is None or (old[0] is whisker_chain
                            and form[0] is not whisker_chain):
            t.__dict__["form"] = form
    return t


def block_map(form: tuple) -> tuple[tuple, tuple, Sequence[int]]:
    """(dom, cod, blocks) of a tape tagged with form: dom and cod are
    tuples of monomials, and the i-th dom monomial lands identically in
    the cod monomial blocks[i].  The forms are (id_tape, P),
    (cobang_tape, P), (symplus_tape, P, Q), (codiag_tape, P),
    (nfold_codiag, P, m), (distributor, P, Q, R, inverse) and
    (dl_nary, P, (Q1, ..., Qk), inverse)."""
    builder, p, *args = form
    p, n = tuple(p), len(p)
    if builder is id_tape:
        dom, cod, blocks = p, p, range(n)
    elif builder is cobang_tape:
        dom, cod, blocks = (), p, ()
    elif builder is symplus_tape:
        q = tuple(args[0])
        dom, cod = p + q, q + p
        blocks = [*range(len(q), len(q) + n), *range(len(q))]
    elif builder is codiag_tape or builder is nfold_codiag:
        m = args[0] if args else 2
        dom, cod, blocks = p * m, p, [*range(n)] * m
    else:   # distributors: block (i, j), j the c-th of Qk, to PQk's (i, c)
        qs, inverse = (args[:2], args[2]) if builder is distributor else args
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
    check one tuple comparison.  A tagged tape (a ``TSeq`` or ``TSum``
    with fewer than two children) is typed by ``tagged_type``."""
    cls = node.__class__
    if cls is TSeq:
        if len(kids) < 2:
            return tagged_type(node, sig, kids)
        (dom, cod1), (dom2, cod) = kids
        if cod1 != dom2:
            raise TypeCheckError(
                f"tape composition mismatch: {Polynomial(cod1)} vs "
                f"{Polynomial(dom2)}")
    elif cls is TSum:
        if len(kids) < 2:
            return tagged_type(node, sig, kids)
        (dom1, cod1), (dom2, cod2) = kids
        dom, cod = dom1 + dom2, cod1 + cod2
    elif cls is TCirc:
        (dom, cod), = kids
        dom, cod = (dom,), (cod,)
    elif cls is TIdMon:
        for s in node.mono:
            sig.check_sort(s)
        dom = cod = (node.mono,)
    elif isinstance(node, CircuitTerm):
        dom, cod = circuit_node_type(node, sig, kids)
    elif cls is TSymPlus:
        u, v = node.left, node.right
        dom, cod = (u, v), (v, u)
    elif cls is TCodiag:
        cod = (node.mono,)
        dom = cod + cod
    elif cls is TCobang:
        dom, cod = (), (node.mono,)
    elif cls is TOpInj:
        dom = (node.mono,)
        cod = dom * node.op.arity
    elif cls is TIdZero:
        dom = cod = ()
    else:
        raise TypeCheckError(f"not a tape term: {node!r}")
    return dom, cod


def tagged_type(node: TapeTerm, sig: MonSignature, kids: tuple) -> tuple:
    """The type of a tagged tape: a block tape's from its closed form, a
    whiskered tape's from the type of the tape it whiskers, its one child,
    with each step's monomial multiplied into every monomial on its side.
    Raises if a sort of a block tape's dom or of a step is not in sig;
    ``sem_fold`` then types the full tree, whose type or error it is."""
    if not kids:
        dom, cod, _ = node.block_layout
        if not sig.sort_set.issuperset(chain.from_iterable(dom)):
            raise UnknownSortError(f"unregistered sort in {Polynomial(dom)}")
        return dom, cod
    (dom, cod), = kids
    for left, u in node.form[2]:
        for s in u:
            sig.check_sort(s)
        dom, cod = ([u * x if left else x * u for x in side]
                    for side in (dom, cod))
    return tuple(dom), tuple(cod)


def sem_fold(roots, step: Callable, walk: tuple[list, dict] | None = None
             ) -> tuple:
    """``fold(roots, SEM_KIDS, step, walk)``; should that raise a library
    error, the fold over the full trees, ``TERM_KIDS``, whose values or
    error are then the result.  So the tagged tapes' shortcuts change how
    fast typing and evaluation are, never what they give."""
    try:
        return fold(roots, SEM_KIDS, step, walk)
    except TapecalcError:
        return fold(roots, TERM_KIDS, step)


def tape_types(roots: Sequence[TapeTerm], sig: MonSignature,
               walk: tuple[list, dict] | None = None) -> tuple:
    """The types of the roots (see ``node_type``), each distinct subterm
    typed once, by ``sem_fold``; ``walk`` as for ``fold``, a ``postorder``
    over ``SEM_KIDS``.  The roots are typed in turn, so an error of the
    first is raised first."""
    for i, t in enumerate(roots):
        if not isinstance(t, TapeTerm):
            tape_types(roots[:i], sig)
            raise TypeCheckError(f"not a tape term: {t!r}")
    return sem_fold(roots, lambda node, kids: node_type(node, sig, kids), walk)


def type_of_tape(t: TapeTerm, sig: MonSignature) -> tuple[Polynomial, Polynomial]:
    """(dom, cod) of t, each distinct subterm typed once."""
    dom, cod = tape_types((t,), sig)[0]
    return Polynomial(dom), Polynomial(cod)


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
#
# The structural tapes are defined by recursion on the first monomial of a
# polynomial.  Each is computed by a loop instead (``_right_fold``), and
# every tape built is kept in ``_BUILT`` while it lives, so a builder
# called again on the same arguments returns the same node at once.

_BUILT: WeakValueDictionary = WeakValueDictionary()
"""(builder name or node class, arguments) -> the tape built, for as long
as it lives.  A polynomial argument is keyed by itself, a suffix or prefix
by its slice.  A Monomial equals the plain tuple of its sorts and ONE
equals ZERO, so each key slot holds one kind of object."""


def _right_fold(name: str, p: Polynomial, args: tuple,
                base: Callable[[], TapeTerm],
                step: Callable[[Monomial, Polynomial, TapeTerm], TapeTerm]
                ) -> TapeTerm:
    """The tape of the builder ``name`` at p, where its tape is base() at
    0 and step(u, rest, tape at rest) at u (+) rest.  Starts from the
    longest suffix of p whose tape is in ``_BUILT`` and keeps the tape of
    every longer suffix there."""
    pending = []
    for i in range(len(p) + 1):
        key = (name, p[i:], *args)
        t = _BUILT.get(key)
        if t is not None:
            break
        pending.append((i, key))
    else:
        t = _BUILT[pending.pop()[1]] = base()
    for i, key in reversed(pending):
        t = _BUILT[key] = step(p[i], Polynomial(p[i + 1:]), t)
    return t


def _monowise(cls: type, builder: Callable,
              p: Union[Polynomial, Monomial]) -> TapeTerm:
    """The sum of cls(u) over the monomials u of p, tagged ``(builder, p)``.
    Starts from the longest prefix of p whose tape is in ``_BUILT`` and
    adds one monomial at a time, keeping the tape of every longer prefix
    there."""
    p = as_poly(p)
    i = len(p)
    while i and (t := _BUILT.get((cls, p[:i]))) is None:
        i -= 1
    if not i:
        t = TIdZero()
    for j in range(i, len(p)):
        t = _BUILT[(cls, p[:j + 1])] = tsum(t, cls(p[j]))
    return _tag(t, builder, p)


def id_tape(p: Union[Polynomial, Monomial]) -> TapeTerm:
    return _monowise(TIdMon, id_tape, p)


def cobang_tape(p: Union[Polynomial, Monomial]) -> TapeTerm:
    return _monowise(TCobang, cobang_tape, p)


def _mono_vs_poly(u: Monomial, q: Polynomial) -> TapeTerm:
    """sigma+_{U,Q} : U (+) Q -> Q (+) U, one monomial of Q at a time."""
    return _right_fold(
        "mono_vs_poly", q, (u,), lambda: TIdMon(u),
        lambda w, q_rest, t: tseq(tsum(TSymPlus(u, w), id_tape(q_rest)),
                                  tsum(TIdMon(w), t)))


def symplus_tape(p: Union[Polynomial, Monomial],
                 q: Union[Polynomial, Monomial]) -> TapeTerm:
    """sigma+_{P,Q} : P (+) Q -> Q (+) P."""
    p, q = as_poly(p), as_poly(q)
    if q.is_zero:
        return id_tape(p)
    return _tag(_right_fold(
        "symplus", p, (q,), lambda: id_tape(q),
        lambda u, p_rest, t: tseq(tsum(TIdMon(u), t),
                                  tsum(_mono_vs_poly(u, q), id_tape(p_rest)))),
        symplus_tape, p, q)


def codiag_tape(p: Union[Polynomial, Monomial]) -> TapeTerm:
    """codiag_P : P (+) P -> P."""
    def step(u: Monomial, p_rest: Polynomial, t: TapeTerm) -> TapeTerm:
        shuffle = tsum(TIdMon(u), symplus_tape(p_rest, poly_of_mono(u)),
                       id_tape(p_rest))
        return tseq(shuffle, tsum(TCodiag(u), t))

    p = as_poly(p)
    return _tag(_right_fold("codiag", p, (), TIdZero, step), codiag_tape, p)


def distributor(p: Union[Polynomial, Monomial],
                q: Union[Polynomial, Monomial],
                r: Union[Polynomial, Monomial],
                inverse: bool = False) -> TapeTerm:
    """dl_{P,Q,R} : P (x) (Q (+) R) -> PQ (+) PR, or its inverse.

    Both directions are composites of block permutations; the inverse is
    the mirrored composite with each sum symmetry flipped.
    """
    q, r = as_poly(q), as_poly(r)

    def step(u: Monomial, p_rest: Polynomial, t: TapeTerm) -> TapeTerm:
        u_poly = poly_of_mono(u)
        head = tsum(id_tape(u_poly * (q + r)), t)
        swap = (symplus_tape(p_rest * q, u_poly * r) if inverse
                else symplus_tape(u_poly * r, p_rest * q))
        shuffle = tsum(id_tape(u_poly * q), swap, id_tape(p_rest * r))
        return tseq(shuffle, head) if inverse else tseq(head, shuffle)

    p = as_poly(p)
    return _tag(_right_fold("distributor", p, (q, r, inverse), TIdZero, step),
                distributor, p, q, r, inverse)


def dl_nary(p: Union[Polynomial, Monomial],
            qs: Sequence[Union[Polynomial, Monomial]],
            inverse: bool = False) -> TapeTerm:
    """dl_{P,(Q1,...,Qk)} : P (x) (Q1 (+) ... (+) Qk) -> PQ1 (+) ... (+) PQk."""
    p = as_poly(p)
    qs = tuple([as_poly(q) for q in qs])
    if not qs:
        return TIdZero()
    key = ("dl_nary", p, qs, inverse)
    t = _BUILT.get(key)
    if t is None:
        t = id_tape(p * qs[-1])
        q_rest = qs[-1]
        for q in reversed(qs[:-1]):
            step = distributor(p, q, q_rest, inverse)
            rest = tsum(id_tape(p * q), t)
            t = tseq(rest, step) if inverse else tseq(step, rest)
            q_rest = q + q_rest
        _BUILT[key] = t
    return _tag(t, dl_nary, p, qs, inverse)


def symtensor_tape(p: Union[Polynomial, Monomial],
                   q: Union[Polynomial, Monomial]) -> TapeTerm:
    """sigma_{P,Q} : P (x) Q -> Q (x) P."""
    p = as_poly(p)

    def step(v: Monomial, q_rest: Polynomial, t: TapeTerm) -> TapeTerm:
        blocks = tsum(*(TCirc(sym_circuit(u, v)) for u in p))
        return tseq(distributor(p, poly_of_mono(v), q_rest), tsum(blocks, t))

    return _right_fold("symtensor", as_poly(q), (p,), TIdZero, step)


def op_inj_tape(op: OpSymbol, p: Union[Polynomial, Monomial]) -> TapeTerm:
    """<f>_P : P -> (+)^n P for arbitrary polynomials."""
    def step(u: Monomial, p_rest: Polynomial, t: TapeTerm) -> TapeTerm:
        if p_rest.is_zero:
            return TOpInj(op, u)
        n_ones = nfold_sum(poly_of_mono(ONE), op.arity)
        return tseq(tsum(TOpInj(op, u), t),
                    distributor(n_ones, poly_of_mono(u), p_rest, inverse=True))

    return _right_fold("op_inj", as_poly(p), (op,), TIdZero, step)


def nfold_codiag(p: Union[Polynomial, Monomial], m: int) -> TapeTerm:
    """codiag^m_P : (+)^m P -> P; cobang at 0, identity at 1, right-nested."""
    p = as_poly(p)
    if m == 0:
        return cobang_tape(p)
    key = ("nfold_codiag", p)
    t, k = None, m      # k: the largest count up to m whose tape is kept
    while k > 1 and (t := _BUILT.get((*key, k))) is None:
        k -= 1
    if t is None:
        t = id_tape(p)
    for k in range(k + 1, m + 1):
        t = _BUILT[(*key, k)] = tseq(tsum(id_tape(p), t), codiag_tape(p))
    return _tag(t, nfold_codiag, p, m)


def term_tape(term: SigmaTerm, p: Union[Polynomial, Monomial],
              context: int) -> TapeTerm:
    """<t>_P : P -> (+)^n P realizing the term's branching behaviour."""
    p = as_poly(p)
    check_term(term, context)

    def step(t: SigmaTerm, branches: tuple) -> TapeTerm:
        if isinstance(t, Var):
            return tsum(cobang_tape(nfold_sum(p, t.index - 1)),
                        id_tape(p),
                        cobang_tape(nfold_sum(p, context - t.index)))
        split = op_inj_tape(t.op, p)
        if not branches:
            return tseq(split, nfold_codiag(nfold_sum(p, context), 0))
        return tseq(split, tsum(*branches),
                    nfold_codiag(nfold_sum(p, context), len(branches)))

    return fold((term,), SIGMA_KIDS, step)[0]


# --- whiskerings and the tensor of tapes ---------------------------------------

def _whiskered(form: tuple, u: Monomial, left: bool) -> TapeTerm:
    """U |> t if left, else t <| U, for a block tape t tagged with form:
    its builder at the whiskered objects.  U multiplies every polynomial
    argument on its side, except that for the distributors U joins P on
    the left and the Q's on the right: U |> dl_{P,Q,R} = dl_{UP,Q,R} and
    dl_{P,Q,R} <| U = dl_{P,QU,RU}."""
    u = poly_of_mono(u)

    def grow(x):
        if isinstance(x, Polynomial):
            return u * x if left else x * u
        return tuple(map(grow, x)) if isinstance(x, tuple) else x

    builder, *args = form
    grown = [*map(grow, args)]
    if builder is distributor or builder is dl_nary:
        grown = grown[:1] + args[1:] if left else args[:1] + grown[1:]
    return builder(*grown)


def _whisker_leaf(node: TapeTerm, steps: tuple, ids: dict) -> TapeTerm:
    """node whiskered by each step of steps in turn (see ``whisker_chain``),
    for a leaf of ``TAPE_KIDS``: a whiskered tape is its builder's call
    with the steps appended to its chain, a block tape is whiskered by its
    builder, and a primitive tape by whiskering its fields; ``ids`` holds
    the identity circuit of each step's monomial."""
    for k, (left, u) in enumerate(steps):
        form = node.form
        if form and form[0] is whisker_chain:
            return whisker_chain(form[1], form[2] + steps[k:])
        if form:
            node = _whiskered(form, u, left)
            continue
        cls = node.__class__
        if cls is TIdZero:
            continue
        times = (lambda m: u * m) if left else (lambda m: m * u)
        if cls is TIdMon or cls is TCobang or cls is TCodiag:
            node = cls(times(node.mono))
        elif cls is TCirc:
            node = TCirc(ctensor(ids[u], node.circuit) if left
                         else ctensor(node.circuit, ids[u]))
        elif cls is TSymPlus:
            node = TSymPlus(times(node.left), times(node.right))
        elif cls is TOpInj:
            node = TOpInj(node.op, times(node.mono))
        else:
            raise TypeCheckError(f"not a tape term: {node!r}")
    return node


def _whiskers_by(t: TapeTerm, chains: Sequence[tuple]) -> tuple:
    """(whisker_chain(t, steps) for steps in chains): one walk over t down
    to its tagged tapes, each distinct node rebuilt once per chain and
    each leaf whiskered by ``_whisker_leaf``.  When t is an untagged
    composite, each result but t itself is tagged (whisker_chain, t,
    steps), so that the semantic walks enter t once in its place."""
    if not chains:
        return ()
    untagged = (t.__class__ is TSeq or t.__class__ is TSum) and not t.form
    ids = {u: identity_circuit(u) for steps in chains for _, u in steps}
    roots = fold((t,), TAPE_KIDS, lambda node, kids: (
        tuple(map(node.__class__, *kids)) if kids
        else tuple([_whisker_leaf(node, steps, ids) for steps in chains])))[0]
    if untagged:
        for r, steps in zip(roots, chains):
            if r is not t:
                _tag(r, whisker_chain, t, steps)
    return roots


def whisker_chain(t: TapeTerm, steps: tuple) -> TapeTerm:
    """t whiskered by each step (left, U) of steps in turn: U |> - if left,
    else - <| U.  Applied leaf by leaf, in order, so U |> (t <| V) is the
    node that whiskering t <| V by U builds, down to how ``ctensor``
    groups a circuit's factors.  Its call tags the tape it returns."""
    return _whiskers_by(t, (steps,))[0]


def _whiskers(t: TapeTerm, monos: Sequence[Monomial], left: bool) -> tuple:
    """(U |> t for U in monos) if left, else (t <| U for U in monos)."""
    return _whiskers_by(t, [((left, u),) for u in monos])


def whisker_left_mono(u: Monomial, t: TapeTerm) -> TapeTerm:
    """U |> t, the left monomial whiskering."""
    return _whiskers(t, (u,), left=True)[0]


def whisker_right_mono(t: TapeTerm, u: Monomial) -> TapeTerm:
    """t <| U, the right monomial whiskering."""
    return _whiskers(t, (u,), left=False)[0]


def whisker_left(s: Union[Polynomial, Monomial], t: TapeTerm) -> TapeTerm:
    """S |> t for a polynomial S: the sum of the monomial whiskerings."""
    if isinstance(s, Monomial):
        return whisker_left_mono(s, t)
    return tsum(*_whiskers(t, s, left=True))


def whisker_right(t: TapeTerm, s: Union[Polynomial, Monomial],
                  sig: MonSignature) -> TapeTerm:
    """t <| S for a polynomial S, sandwiched between left distributors."""
    s = as_poly(s)
    return _whisker_right(t, s, type_of_tape(t, sig) if len(s) > 1 else None)


def _whisker_right(t: TapeTerm, s: Polynomial, typ) -> TapeTerm:
    """t <| S, given t's (dom, cod) when S has two monomials or more."""
    parts = _whiskers(t, s, left=False)
    if len(parts) < 2:
        return tsum(*parts)
    summands = [poly_of_mono(u) for u in s]
    return tseq(dl_nary(typ[0], summands), tsum(*parts),
                dl_nary(typ[1], summands, inverse=True))


def tensor_tape(t1: TapeTerm, t2: TapeTerm, sig: MonSignature) -> TapeTerm:
    """t1 (x) t2, defined by whiskering: (P |> t2) ; (t1 <| S)."""
    (dom1, cod1), (_, cod2) = tape_types((t1, t2), sig)
    dom1, cod1, cod2 = map(Polynomial, (dom1, cod1, cod2))
    return TSeq(whisker_left(dom1, t2), _whisker_right(t1, cod2, (dom1, cod1)))


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

    return _right_fold("copier", as_poly(p), (), TIdZero, step)


def discharger_tape(p: Union[Polynomial, Monomial]) -> TapeTerm:
    """discharger_P : P -> 1."""
    def step(u: Monomial, p_rest: Polynomial, t: TapeTerm) -> TapeTerm:
        if p_rest.is_zero:
            return TCirc(discharger_circuit(u))
        return tseq(tsum(TCirc(discharger_circuit(u)), t), TCodiag(ONE))

    return _right_fold("discharger", as_poly(p), (), lambda: TCobang(ONE),
                       step)
