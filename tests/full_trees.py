"""The full trees of builder calls: the reference the tests check them by.

In the calculus, a tape or circuit is built from generators at one
monomial (one sort), and a call of a builder at a larger polynomial or
word stands for the tree its inductive definition gives.  The library
keeps only the call: a ``TBlock`` and a ``CBlock`` are read from their
block or wire maps, a ``TTerm`` from its term's weights, and a
``TWhisker`` from the tape it whiskers.  A generator is the same call
at one monomial or sort (``is_leaf``).  This module builds the trees
those definitions give, with the generators as their leaves:

- the structural circuits by the inductive clauses, a loop each
  (``identity_circuit``, ``sym_circuit``, ``copier_circuit``,
  ``discharger_circuit``), and ``circuit_tree`` of a ``CBlock``;
- a block tape's definition unfolded once (``_body``, with
  ``_mono_vs_poly``);
- a branching tape's step construction (``op_inj_tree``, ``term_tree``
  and ``branching_tree``): a tape per variable and per operation of its
  term, and one distributor chain per operation over a polynomial;
- the whiskering of a leaf (``whiskered``): a block tape's or a
  branching's builder called again at the whiskered objects, and
  U |> [c] = [id_U (x) c] for a circuit's tape;
- ``expand``, the full tree of any term, whose only builder calls are
  generators.

Terms are hash-consed, so a builder call agrees with its definition
exactly when ``expand`` of it is the node the definition builds.
"""

from itertools import chain

from tapecalc import circuit, tape
from tapecalc.circuit import CBlock, CSeq, CTensor, CircuitTerm, ctensor
from tapecalc.hashcons import Term, fold
from tapecalc.objects import (ONE, Monomial, Polynomial, ZERO, nfold_sum,
                              poly_of_mono)
from tapecalc.tape import (TERM_KIDS, TBlock, TCirc, TSeq, TSum, TTerm,
                           TWhisker, TapeTerm, _right_fold, as_poly,
                           cobang_tape, codiag_tape, distributor, dl_nary,
                           id_tape, nfold_codiag, op_inj_tape, symplus_tape,
                           tseq, tsum, whisker_chain)
from tapecalc.theory import SIGMA_KIDS, App, Var

GENERATOR_BUILDERS = ("id_tape", "cobang_tape", "codiag_tape", "symplus_tape")


def is_applied(term, n: int) -> bool:
    """Whether term is an operation applied to x1, ..., xn."""
    return term.__class__ is App and term.args == tuple(map(Var, range(1, n + 1)))


def is_leaf(node: Term) -> bool:
    """Whether node is a generator, a leaf of the full trees: a block
    tape's builder call at one monomial per argument (or the identity on
    0), a structural circuit's at one sort per word (or the identity on
    1), or an operation's branching <f>_U at one monomial."""
    cls = node.__class__
    if cls is TBlock:
        return (node.builder in GENERATOR_BUILDERS
                and all(len(p) <= 1 for p in node.args))
    if cls is CBlock:
        return all(len(w) <= 1 for w in node.words)
    if cls is TTerm:
        return len(node.poly) == 1 and is_applied(node.term, node.context)
    return False


def _sort(a: str) -> Monomial:
    return Monomial((a,))


# --- the structural circuits by their inductive clauses -------------------------

def identity_circuit(u: Monomial) -> CircuitTerm:
    return ctensor(*(circuit.identity_circuit(_sort(a)) for a in u))


def _suffix_identities(u: tuple) -> list[CircuitTerm]:
    """identity_circuit of u[i:] for i = 0 .. len(u), each built once."""
    return [identity_circuit(u[i:]) for i in range(len(u) + 1)]


def _sort_syms(a: str, w: tuple, w_ids: list) -> list[CircuitTerm]:
    """sigma_{A,w[j:]} for j = 0 .. len(w), given w's
    ``_suffix_identities``, each from the next shorter one:
    sigma_{A,1} = id_A, sigma_{A,B} is the generator, and
    sigma_{A, B.W'} = (sigma_{A,B} (x) id_{W'}) ; (id_B (x) sigma_{A,W'})."""
    syms = [identity_circuit(_sort(a))]
    for j in reversed(range(len(w))):
        sym = circuit.sym_circuit(_sort(a), _sort(w[j]))
        syms.append(sym if j == len(w) - 1 else
                    CSeq(ctensor(sym, w_ids[j + 1]),
                         CTensor(identity_circuit(_sort(w[j])), syms[-1])))
    return syms[::-1]


def sym_circuit(u: Monomial, w: Monomial) -> CircuitTerm:
    """sigma_{U,W} : U (x) W -> W (x) U by the inductive clauses, from the
    last sort of u to the first:
    sigma_{A.U',W} = (id_A (x) sigma_{U',W}) ; (sigma_{A,W} (x) id_{U'})
    for U' other than 1."""
    if u.is_unit or w.is_unit:
        return identity_circuit(u * w)
    u_ids, w_ids = _suffix_identities(u), _suffix_identities(w)
    syms = {a: _sort_syms(a, w, w_ids)[0] for a in dict.fromkeys(u)}
    t = syms[u[-1]]
    for i in reversed(range(len(u) - 1)):
        t = CSeq(CTensor(identity_circuit(_sort(u[i])), t),
                 ctensor(syms[u[i]], u_ids[i + 1]))
    return t


def copier_circuit(u: Monomial) -> CircuitTerm:
    """copier_U : U -> UU, interleaving the per-sort copies, from the last
    sort of u to the first:
    copier_{A.U'} = (copier_A (x) copier_{U'}) ;
                    (id_A (x) sigma_{A,U'} (x) id_{U'})
    for U' other than 1, with sigma_{A,U'} built as ``sym_circuit``
    builds it; copier_A is the generator."""
    if not u:
        return identity_circuit(u)
    ids = _suffix_identities(u)
    syms = {a: _sort_syms(a, u, ids) for a in dict.fromkeys(u)}
    t = circuit.copier_circuit(_sort(u[-1]))
    for i in reversed(range(len(u) - 1)):
        a, id_rest = u[i], ids[i + 1]
        id_a = identity_circuit(_sort(a))
        sym = CSeq(CTensor(id_a, id_rest), syms[a][i + 1])
        t = CSeq(ctensor(circuit.copier_circuit(_sort(a)), t),
                 CTensor(id_a, ctensor(sym, id_rest)))
    return t


def discharger_circuit(u: Monomial) -> CircuitTerm:
    return ctensor(*(circuit.discharger_circuit(_sort(a)) for a in u))


CIRCUIT_BUILDERS = {builder.__name__: builder for builder in (
    identity_circuit, sym_circuit, copier_circuit, discharger_circuit)}


def circuit_tree(c: CBlock) -> CircuitTerm:
    """The tree of one-sort circuit generators that c stands for."""
    return CIRCUIT_BUILDERS[c.builder](*c.words)


# --- the block tapes by their inductive definitions -----------------------------

def _mono_vs_poly(u: Monomial, q: Polynomial) -> TapeTerm:
    """sigma+_{U,Q} : U (+) Q -> Q (+) U, one monomial of Q at a time."""
    return _right_fold(
        q, id_tape(u),
        lambda w, q_rest, t: tseq(tsum(symplus_tape(u, w), id_tape(q_rest)),
                                  tsum(id_tape(w), t)))


def _body(node: TBlock) -> TapeTerm:
    """The definition of a block tape that is not a generator unfolded
    once: a term over generators and the block tapes of smaller
    arguments."""
    builder, (p, *args) = node.builder, node.args
    if builder == "id_tape":
        return TSum(id_tape(Polynomial(p[:-1])), id_tape(p[-1]))
    if builder == "cobang_tape":
        return TSum(cobang_tape(Polynomial(p[:-1])), cobang_tape(p[-1]))
    if builder == "nfold_codiag":
        return tseq(tsum(id_tape(p), nfold_codiag(p, args[0] - 1)),
                    codiag_tape(p))
    if builder == "dl_nary":
        (q, *qs), inverse = args
        step = distributor(p, q, Polynomial(chain.from_iterable(qs)), inverse)
        rest = tsum(id_tape(p * q), dl_nary(p, qs, inverse))
        return tseq(rest, step) if inverse else tseq(step, rest)
    u, p_rest = p[0], Polynomial(p[1:])
    u_poly = poly_of_mono(u)
    if builder == "symplus_tape":
        q, = args
        return tseq(tsum(id_tape(u), symplus_tape(p_rest, q)),
                    tsum(_mono_vs_poly(u, q), id_tape(p_rest)))
    if builder == "codiag_tape":
        shuffle = tsum(id_tape(u), symplus_tape(p_rest, u_poly),
                       id_tape(p_rest))
        return tseq(shuffle, tsum(codiag_tape(u), codiag_tape(p_rest)))
    q, r, inverse = args    # the distributor
    head = tsum(id_tape(u_poly * (q + r)), distributor(p_rest, q, r, inverse))
    swap = (symplus_tape(p_rest * q, u_poly * r) if inverse
            else symplus_tape(u_poly * r, p_rest * q))
    shuffle = tsum(id_tape(u_poly * q), swap, id_tape(p_rest * r))
    return tseq(shuffle, head) if inverse else tseq(head, shuffle)


# --- the branching tapes by their step construction -----------------------------

def op_inj_tree(op, p) -> TapeTerm:
    """<f>_P one monomial at a time: f's branching at each monomial of P,
    side by side, then an inverse distributor that gathers the i-th
    branches of every monomial into the i-th copy of P."""
    def step(u: Monomial, p_rest: Polynomial, t: TapeTerm) -> TapeTerm:
        if p_rest.is_zero:
            return op_inj_tape(op, u)
        n_ones = nfold_sum(poly_of_mono(ONE), op.arity)
        return tseq(tsum(op_inj_tape(op, u), t),
                    distributor(n_ones, poly_of_mono(u), p_rest, inverse=True))

    return _right_fold(as_poly(p), id_tape(ZERO), step)


def term_tree(term, p, context: int) -> TapeTerm:
    """<t>_P : P -> (+)^n P step by step over t: x_i is the identity onto
    the i-th of the n copies of P, between cobangs of the others, and an
    application splits P by its operation's ``op_inj_tree``, runs its
    arguments' tapes side by side and merges their copies of (+)^n P by
    a codiagonal."""
    p = as_poly(p)

    def step(t, branches: tuple) -> TapeTerm:
        if isinstance(t, Var):
            return tsum(cobang_tape(nfold_sum(p, t.index - 1)), id_tape(p),
                        cobang_tape(nfold_sum(p, context - t.index)))
        split = op_inj_tree(t.op, p)
        if not branches:
            return tseq(split, nfold_codiag(nfold_sum(p, context), 0))
        return tseq(split, tsum(*branches),
                    nfold_codiag(nfold_sum(p, context), len(branches)))

    return fold((term,), SIGMA_KIDS, step)[0]


def branching_tree(node: TTerm) -> TapeTerm:
    """The tree a term's branching stands for: the ``op_inj_tree`` of an
    operation applied to its context's variables in order, which is what
    ``op_inj_tape`` builds at a polynomial, else the ``term_tree``."""
    term, p, n = node.term, node.poly, node.context
    if is_applied(term, n):
        return op_inj_tree(term.op, p)
    return term_tree(term, p, n)


# --- whiskering a leaf ------------------------------------------------------------

def whiskered_call(node: TBlock, u: Monomial, left: bool) -> TapeTerm:
    """U |> t if left, else t <| U, for a block tape t: its builder at the
    whiskered objects.  U multiplies every polynomial argument on its
    side, except that for the distributors U joins P on the left and the
    Q's on the right: U |> dl_{P,Q,R} = dl_{UP,Q,R} and
    dl_{P,Q,R} <| U = dl_{P,QU,RU}."""
    u = poly_of_mono(u)

    def grow(x):
        if isinstance(x, Polynomial):
            return u * x if left else x * u
        return tuple(map(grow, x)) if isinstance(x, tuple) else x

    args = node.args
    grown = [*map(grow, args)]
    if node.builder == "distributor" or node.builder == "dl_nary":
        grown = grown[:1] + [*args[1:]] if left else [args[0], *grown[1:]]
    return getattr(tape, node.builder)(*grown)


def whiskered(t: TapeTerm, steps: tuple) -> TapeTerm:
    """t whiskered by each step (left, U) of steps in turn, leaf by leaf:
    a composite by ``whisker_chain``, a block tape by its builder
    (``whiskered_call``), a circuit's tape beside the identity on U, and
    a branching at the whiskered polynomial (U |> <t>_P = <t>_{UP}).
    The identity on 0 whiskers to itself, and its full tree names no
    sort of U."""
    for left, u in steps:
        if not u:
            continue
        cls = t.__class__
        if cls is TSeq or cls is TSum or cls is TWhisker:
            t = whisker_chain(t, ((left, u),))
        elif cls is TBlock:
            t = whiskered_call(t, u, left)
        elif cls is TCirc:
            ids = circuit.identity_circuit(u)
            t = TCirc(ctensor(ids, t.circuit) if left
                      else ctensor(t.circuit, ids))
        else:
            x = poly_of_mono(u)
            t = TTerm(t.term, x * t.poly if left else t.poly * x, t.context)
    return t


# --- full trees -------------------------------------------------------------------

def expand(t: Term) -> Term:
    """The full tree of t: t with each block tape that is not a
    generator replaced by the tree of its builder's inductive
    definition, each such block circuit by its ``circuit_tree``, each
    such branching by its ``branching_tree``, and each whiskered tape by
    the tree that whiskering its tape leaf by leaf (``whiskered``)
    gives.  Each ``TBlock``, ``CBlock`` and ``TTerm`` of it is a leaf
    (``is_leaf``), and no node of it is a ``TWhisker``."""
    unfolded: dict = {}

    def unfold(node: TBlock | CBlock | TTerm | TWhisker) -> tuple:
        """The children of a builder call in the walk: none for a
        leaf, a block tape's body, a block circuit's tree, a branching's
        tree, and the
        children of the composite a whiskered tape whiskers, each
        whiskered by its chain, or else the whiskered leaf, so that
        U |> (t <| V) is whiskered leaf by leaf, in order, down to how
        ``ctensor`` groups a circuit's factors."""
        kids = unfolded.get(node)
        if kids is None:
            if is_leaf(node):
                kids = ()
            elif node.__class__ is TBlock:
                kids = (_body(node),)
            elif node.__class__ is CBlock:
                kids = (circuit_tree(node),)
            elif node.__class__ is TTerm:
                kids = (branching_tree(node),)
            elif node.tape.__class__ in (TSeq, TSum):
                t = node.tape
                kids = tuple([whiskered(kid, node.steps)
                              for kid in TERM_KIDS[t.__class__](t)])
            else:
                kids = (whiskered(node.tape, node.steps),)
            unfolded[node] = kids
        return kids

    def step(node, kids: tuple):
        cls = node.__class__
        if cls is TBlock or cls is CBlock or cls is TTerm:
            return kids[0] if kids else node
        if cls is TWhisker:     # a composite's two children, or the leaf
            return node.tape.__class__(*kids) if len(kids) == 2 else kids[0]
        if kids and kids != TERM_KIDS[cls](node):
            return cls(*kids)
        return node

    return fold((t,), {**TERM_KIDS, TBlock: unfold, CBlock: unfold,
                       TTerm: unfold, TWhisker: unfold}, step)[0]
