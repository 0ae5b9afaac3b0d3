"""The structural tape builders against their recursive definitions.

``tape`` returns each block tape as one node, its builder call, and each
whiskered composite as one node, the tape and its chain of whiskerings;
``full_trees.expand`` builds the full trees they stand for.  The references
below are the recursive definitions, one call per monomial, with no
memo.  Terms are hash-consed, so a builder agrees with its reference
exactly when the builder's full tree is the very node the reference
returns.  Typing and evaluation, which read the derived nodes as they
are, are checked against the same calls on the full trees.
"""

import dataclasses
import gc
import inspect
import itertools
import time
import weakref
from contextlib import contextmanager
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from tapecalc import circuit, hashcons, suites, tape
from tapecalc import interp as interp_module
from tapecalc.circuit import (CBlock, CGen, CSeq, CTensor, MonSignature, cseq,
                              ctensor)
from tapecalc.errors import TapecalcError, TypeCheckError
from tapecalc.frontend.cli import main
from tapecalc.frontend.render import render_svg
from tapecalc.hashcons import postorder
from tapecalc.interp import Interpretation, eval_tape
from tapecalc.kleisli import Matrix, model_for
from tapecalc.objects import (ONE, Monomial, Polynomial, ZERO, mono, nfold_sum,
                              poly, poly_of_mono)
from tapecalc.suites import (Freshener, SemEqResult, rand_poly, sem_eq,
                             standard_interpretation)
from tapecalc.tape import (TERM_KIDS, TBlock, TCirc, TSeq, TSum, TTerm,
                           TWhisker, as_poly, tape_types, tseq, tsum,
                           type_of_tape)
from tapecalc.theory import STAR, OpSymbol, Var, builtin_theory, choice

from full_trees import (copier_circuit, discharger_circuit, expand,
                        identity_circuit, sym_circuit)


# --- the recursive references --------------------------------------------------
#
# Their leaves are the generators: each builder's call at one monomial.

def ref_id_tape(p):
    return tsum(*(tape.id_tape(u) for u in as_poly(p)))


def ref_cobang_tape(p):
    return tsum(*(tape.cobang_tape(u) for u in as_poly(p)))


def ref_symplus_tape(p, q):
    p, q = as_poly(p), as_poly(q)

    def mono_vs_poly(u, q):
        if q.is_zero:
            return tape.id_tape(u)
        w, q_rest = q[0], Polynomial(q[1:])
        return tseq(tsum(tape.symplus_tape(u, w), ref_id_tape(q_rest)),
                    tsum(tape.id_tape(w), mono_vs_poly(u, q_rest)))

    if p.is_zero:
        return ref_id_tape(q)
    if q.is_zero:
        return ref_id_tape(p)
    if len(p) == len(q) == 1:
        return tape.symplus_tape(p, q)
    u, p_rest = p[0], Polynomial(p[1:])
    return tseq(tsum(tape.id_tape(u), ref_symplus_tape(p_rest, q)),
                tsum(mono_vs_poly(u, q), ref_id_tape(p_rest)))


def ref_codiag_tape(p):
    p = as_poly(p)
    if len(p) < 2:
        return tape.codiag_tape(p)
    u, p_rest = p[0], Polynomial(p[1:])
    shuffle = tsum(tape.id_tape(u), ref_symplus_tape(p_rest, poly_of_mono(u)),
                   ref_id_tape(p_rest))
    return tseq(shuffle, tsum(tape.codiag_tape(u), ref_codiag_tape(p_rest)))


def ref_distributor(p, q, r, inverse=False):
    p, q, r = as_poly(p), as_poly(q), as_poly(r)
    if p.is_zero:
        return tape.id_tape(ZERO)
    u, p_rest = p[0], Polynomial(p[1:])
    u_poly = poly_of_mono(u)
    head = tsum(ref_id_tape(u_poly * (q + r)),
                ref_distributor(p_rest, q, r, inverse))
    swap = (ref_symplus_tape(p_rest * q, u_poly * r) if inverse
            else ref_symplus_tape(u_poly * r, p_rest * q))
    shuffle = tsum(ref_id_tape(u_poly * q), swap, ref_id_tape(p_rest * r))
    return tseq(shuffle, head) if inverse else tseq(head, shuffle)


def ref_dl_nary(p, qs, inverse=False):
    p = as_poly(p)
    qs = [as_poly(q) for q in qs]
    if not qs:
        return tape.id_tape(ZERO)
    if len(qs) == 1:
        return ref_id_tape(p * qs[0])
    q_rest = ZERO
    for q in qs[1:]:
        q_rest = q_rest + q
    step = ref_distributor(p, qs[0], q_rest, inverse)
    rest = tsum(ref_id_tape(p * qs[0]), ref_dl_nary(p, qs[1:], inverse))
    return tseq(rest, step) if inverse else tseq(step, rest)


def ref_symtensor_tape(p, q):
    p, q = as_poly(p), as_poly(q)
    if q.is_zero:
        return tape.id_tape(ZERO)
    v, q_rest = q[0], Polynomial(q[1:])
    blocks = tsum(*(TCirc(sym_circuit(u, v)) for u in p))
    return tseq(ref_distributor(p, poly_of_mono(v), q_rest),
                tsum(blocks, ref_symtensor_tape(p, q_rest)))


def ref_op_inj_tape(op, p):
    p = as_poly(p)
    if p.is_zero:
        return tape.id_tape(ZERO)
    if len(p) == 1:
        return tape.op_inj_tape(op, p[0])
    u, p_rest = p[0], Polynomial(p[1:])
    n_ones = nfold_sum(poly_of_mono(ONE), op.arity)
    return tseq(tsum(tape.op_inj_tape(op, u), ref_op_inj_tape(op, p_rest)),
                ref_distributor(n_ones, poly_of_mono(u), p_rest, inverse=True))


def ref_nfold_codiag(p, m):
    p = as_poly(p)
    if m == 0:
        return ref_cobang_tape(p)
    if m == 1:
        return ref_id_tape(p)
    return tseq(tsum(ref_id_tape(p), ref_nfold_codiag(p, m - 1)),
                ref_codiag_tape(p))


def ref_copier_tape(p):
    p = as_poly(p)
    if p.is_zero:
        return tape.id_tape(ZERO)
    u, p_rest = p[0], Polynomial(p[1:])
    top = tsum(TCirc(copier_circuit(u)),
               ref_cobang_tape(poly_of_mono(u) * p_rest))
    if p_rest.is_zero:
        return top
    bottom = tseq(
        tsum(ref_cobang_tape(p_rest * poly_of_mono(u)),
             ref_copier_tape(p_rest)),
        ref_distributor(p_rest, poly_of_mono(u), p_rest, inverse=True))
    return tsum(top, bottom)


def ref_discharger_tape(p):
    p = as_poly(p)
    if p.is_zero:
        return tape.cobang_tape(ONE)
    u, p_rest = p[0], Polynomial(p[1:])
    if p_rest.is_zero:
        return TCirc(discharger_circuit(u))
    return tseq(tsum(TCirc(discharger_circuit(u)), ref_discharger_tape(p_rest)),
                tape.codiag_tape(ONE))


# --- random calls --------------------------------------------------------------

SORTS = ("A", "B", "C")
OPS = (choice(Fraction(1, 3)), OpSymbol("+", 2), OpSymbol("zero", 0),
       OpSymbol("three", 3))


def random_call(rng):
    """(builder, reference, arguments) for a random builder."""
    def p():
        # a monomial now and then: the builders take either
        x = rand_poly(rng, SORTS, 3, 2)
        return x[0] if len(x) == 1 and rng.random() < 0.3 else x

    kind = rng.randrange(11)
    if kind == 0:
        return tape.id_tape, ref_id_tape, (p(),)
    if kind == 1:
        return tape.cobang_tape, ref_cobang_tape, (p(),)
    if kind == 2:
        return tape.symplus_tape, ref_symplus_tape, (p(), p())
    if kind == 3:
        return tape.codiag_tape, ref_codiag_tape, (p(),)
    if kind == 4:
        return (tape.distributor, ref_distributor,
                (p(), p(), p(), rng.random() < 0.5))
    if kind == 5:
        qs = [p() for _ in range(rng.randrange(5))]
        return tape.dl_nary, ref_dl_nary, (p(), qs, rng.random() < 0.5)
    if kind == 6:
        return tape.symtensor_tape, ref_symtensor_tape, (p(), p())
    if kind == 7:
        return tape.op_inj_tape, ref_op_inj_tape, (rng.choice(OPS), p())
    if kind == 8:
        return tape.nfold_codiag, ref_nfold_codiag, (p(), rng.randrange(5))
    if kind == 9:
        return tape.copier_tape, ref_copier_tape, (p(),)
    return tape.discharger_tape, ref_discharger_tape, (p(),)


@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_builders_return_the_reference_node(seed):
    """Random builders on random arguments in random order, some repeated
    and some on the suffix of an earlier polynomial, so that the memo both
    hits and misses; the tapes of earlier calls are kept alive or dropped
    at random."""
    rng = Random(seed)
    kept = []
    calls = [random_call(rng) for _ in range(8)]
    for _ in range(3 * len(calls)):
        built, ref, args = rng.choice(calls)
        if rng.random() < 0.3 and isinstance(args[0], Polynomial) \
                and len(args[0]) > 1:
            args = (Polynomial(args[0][1:]),) + args[1:]
        t = built(*args)
        assert expand(t) is ref(*args), (built.__name__, args)
        if rng.random() < 0.5:
            kept.append(t)


def test_builders_on_the_empty_and_unit_polynomials():
    for p in (ZERO, poly(()), mono(), poly((), ()), poly(("A",), ())):
        assert expand(tape.codiag_tape(p)) is ref_codiag_tape(p)
        assert expand(tape.copier_tape(p)) is ref_copier_tape(p)
        assert expand(tape.discharger_tape(p)) is ref_discharger_tape(p)
        assert expand(tape.symplus_tape(p, p)) is ref_symplus_tape(p, p)
        for inverse in (False, True):
            assert expand(tape.distributor(p, p, p, inverse)) is \
                ref_distributor(p, p, p, inverse)


def test_long_polynomial_needs_no_recursion():
    """A polynomial of 1100 monomials, past the default recursion limit:
    the references recurse once per monomial, the builders and ``expand``
    do not."""
    a = poly(("A",))
    p = nfold_sum(a, 1100)
    sig = MonSignature(("A",), {})
    assert type_of_tape(tape.codiag_tape(p), sig) == (p + p, p)
    assert type_of_tape(expand(tape.codiag_tape(p)), sig) == (p + p, p)
    assert type_of_tape(tape.nfold_codiag(a, 1100), sig) == (p, a)
    assert type_of_tape(tape.symplus_tape(p, a), sig) == (p + a, a + p)
    assert type_of_tape(tape.symplus_tape(a, p), sig) == (a + p, p + a)
    assert type_of_tape(tape.discharger_tape(p), sig) == (p, poly(()))


def test_memo_keeps_nothing_alive():
    """A block tape is its builder call, and ``expand`` builds its full
    tree per call and keeps none: both die once the last reference to
    them is dropped."""
    p, q, r = poly(("Dead1",), ("Dead2",)), poly(("Dead3",)), poly(("Dead4",))
    t = tape.distributor(p, q, r)
    assert (t.builder, t.args) == ("distributor", (p, q, r, False))
    tree = expand(t)
    assert not isinstance(tree, TBlock)
    refs = [weakref.ref(t), weakref.ref(tree)]
    del t, tree
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


@contextmanager
def counting_constructions():
    """The classes of the nodes constructed, or found interned, inside."""
    constructed = []
    new = tape.Term.__new__

    def counting(cls, *args, **kwargs):
        constructed.append(cls)
        return new(cls, *args, **kwargs)

    tape.Term.__new__ = counting
    try:
        yield constructed
    finally:
        tape.Term.__new__ = new


def test_repeated_monomial_builds_in_linear_constructions():
    """id_tape extends the longest prefix it has built already, so the
    codiagonal of n copies of one monomial, which needs the identity of
    every shorter run of copies, constructs O(n) nodes, not n^2/2."""
    for n in (100, 400):
        p = nfold_sum(poly((f"Linear{n}",)), n)
        with counting_constructions() as constructed:
            tape.codiag_tape(p)
        assert len(constructed) <= 20 * n, n


def test_repeated_monomial_expands_in_linear_constructions():
    """A block tape's definition refers to the block tapes of shorter
    polynomials, each one node whose tree ``expand`` builds once, so the
    full tree of the codiagonal of n copies of one monomial, which holds
    the identity of every shorter run of copies, constructs O(n) nodes,
    not n^2/2."""
    counts = []
    for n in (100, 400):
        p = nfold_sum(poly((f"Expanded{n}",)), n)
        with counting_constructions() as constructed:
            expand(tape.codiag_tape(p))
        counts.append(len(constructed))
        assert len(constructed) <= 40 * n, n
    assert counts[1] <= 4.5 * counts[0]


# --- closed forms: block tapes against their full trees ------------------------

def outcome(f, *args):
    """f(*args), or the class and text of the library error it raised."""
    try:
        return f(*args)
    except TapecalcError as exc:
        return type(exc), str(exc)


def full_tree(x):
    """x with each tape in it, itself or in a tuple, replaced by its full
    tree (``expand``), and its signature, if it is or holds one, by an
    equal new object, under which no tape keeps a type."""
    if isinstance(x, tape.TapeTerm):
        return expand(x)
    if isinstance(x, tuple):
        return tuple(map(full_tree, x))
    if isinstance(x, MonSignature):
        return MonSignature(x.sorts, x.gens)
    if isinstance(x, Interpretation):
        return dataclasses.replace(x, sig=full_tree(x.sig))
    return x


def both_ways(f, *args):
    """f(*args) as the library computes it, and f on the full trees of the
    tapes under a fresh signature, so that no type that the first call, or
    an earlier one, kept on a root answers for the second."""
    return outcome(f, *args), outcome(f, *map(full_tree, args))


monomials = st.lists(st.sampled_from(SORTS), max_size=2).map(
    lambda sorts: Monomial(tuple(sorts)))
polynomials = st.lists(monomials, max_size=3).map(Polynomial)


BLOCK_BUILDERS = (tape.id_tape, tape.cobang_tape, tape.symplus_tape,
                   tape.codiag_tape, tape.distributor, tape.dl_nary,
                   tape.nfold_codiag)


@st.composite
def builder_calls(draw):
    """A block tape's builder and its arguments, in either direction."""
    p, q, r = draw(polynomials), draw(polynomials), draw(polynomials)
    inverse = draw(st.booleans())
    builder = draw(st.sampled_from(BLOCK_BUILDERS))
    if builder is tape.symplus_tape:
        return builder, (p, q)
    if builder is tape.distributor:
        return builder, (p, q, r, inverse)
    if builder is tape.dl_nary:
        return builder, (p, draw(st.lists(polynomials, max_size=4)), inverse)
    if builder is tape.nfold_codiag:
        return builder, (p, draw(st.integers(0, 4)))
    return builder, (p,)


@st.composite
def block_tapes(draw):
    """A block tape's builder's tape, maybe whiskered on a side."""
    builder, args = draw(builder_calls())
    t = builder(*args)
    side = draw(st.sampled_from((None, "left", "right")))
    if side == "left":
        t = tape.whisker_left_mono(draw(monomials), t)
    elif side == "right":
        t = tape.whisker_right_mono(t, draw(monomials))
    assert not isinstance(t, (TSeq, TSum)), (builder, side)
    return t


circuit_tapes = st.tuples(monomials, monomials).flatmap(
    lambda uv: st.sampled_from((
        circuit.identity_circuit(uv[0]), circuit.sym_circuit(*uv),
        circuit.copier_circuit(uv[0]), circuit.discharger_circuit(uv[0])))
).map(TCirc)
"""A structural circuit's tape over SORTS."""


@st.composite
def composite_tapes(draw):
    """A sum of two block or circuit tapes, or one of them composed with
    a sum symmetry that swaps two parts of its codomain."""
    x = draw(st.one_of(block_tapes(), circuit_tapes))
    if draw(st.booleans()):
        return TSum(x, draw(st.one_of(block_tapes(), circuit_tapes)))
    cod = type_of_tape(x, MonSignature(SORTS, {}))[1]
    i = draw(st.integers(0, len(cod)))
    return TSeq(x, tape.symplus_tape(Polynomial(cod[:i]), Polynomial(cod[i:])))


@st.composite
def closed_form_tapes(draw):
    """A ``block_tapes`` tape, or a circuit's tape or a composite
    whiskered on the left, whose matrix is reordered by ``pairing``."""
    if draw(st.booleans()):
        return draw(block_tapes())
    return tape.whisker_left_mono(
        draw(monomials), draw(st.one_of(circuit_tapes, composite_tapes())))


def interpretation_over(carriers, sorts=SORTS):
    sig = MonSignature(tuple(sorts), {})
    return Interpretation(sig, dict(zip(SORTS, carriers)), {},
                          model_for(builtin_theory("PCA", (Fraction(1, 2),))))


@given(t=closed_form_tapes(), carriers=st.tuples(*[st.integers(0, 3)] * 3))
@settings(max_examples=300, deadline=None)
def test_closed_forms_match_the_full_tree(t, carriers):
    check_closed_form(t, interpretation_over(carriers))


def check_closed_form(t, interp):
    types, full_types = both_ways(tape_types, (t,), interp.sig)
    assert types == full_types
    matrix, full_matrix = both_ways(eval_tape, t, interp)
    assert matrix == full_matrix
    assert (matrix.dom, matrix.cod) == tuple(
        sum(interp.mono_size(u) for u in side) for side in types[0])


def test_a_corrupted_kept_type_fails_the_closed_form_check():
    """The full-tree side reads no kept type: a root's kept type, with its
    dom and cod swapped by hand, fails the check that the true one
    passes."""
    t = tape.symplus_tape(poly(("A",)), poly(("B",), ("A", "B")))
    interp = interpretation_over((1, 2, 3))
    check_closed_form(t, interp)
    (dom, cod), = tape_types((t,), interp.sig)
    t.__dict__["typed"] = interp.sig, (cod, dom)
    try:
        with pytest.raises(AssertionError):
            check_closed_form(t, interp)
    finally:
        del t.__dict__["typed"]


MISSING = [set(c) for n in (1, 2) for c in itertools.combinations(SORTS, n)]


def tape_subterms(roots):
    """The tape subterms of the roots, in the walks' order."""
    return [node for node in postorder(roots, TERM_KIDS)[0]
            if isinstance(node, tape.TapeTerm)]


def walk_types(roots, sig):
    """The roots' types by their full trees, each tape subterm's full
    tree typed in the walk's order, and the sorts of a whiskered tape's
    chain checked after the tape it whiskers: the walk types U |> t as t,
    then U, where t's full tree, whiskered leaf by leaf, may name a sort
    of U first, and names none when t is a zero tape."""
    for node in tape_subterms(roots):
        if node.__class__ is TWhisker:
            sig.check_sorts(*[u for _, u in node.steps])
        tape_types((expand(node),), sig)
    return tape_types(tuple(map(expand, roots)), sig)


def walk_matrices(roots, interp):
    """The matrices of the tape subterms of the roots by their full
    trees, each evaluated in the walk's order, and the carriers of a
    whiskered tape's chain read after the tape it whiskers: the walk
    evaluates U |> t as t, then U, where t's full tree, whiskered leaf
    by leaf, may read a carrier of U first, and reads none when t is a
    zero tape."""
    matrices = {}
    for node in tape_subterms(roots):
        if node.__class__ is TWhisker:
            for _, u in node.steps:
                interp.mono_size(u)
        matrices[node] = eval_tape(expand(node), interp)
    return matrices


def walk_eval(t, interp):
    """t's matrix by ``walk_matrices``."""
    return walk_matrices((t,), interp)[t]


def walk_sem_eq(t1, t2, interp):
    """``sem_eq`` on the full trees, after ``walk_types`` of both sides
    and, if their types agree, ``walk_matrices``, whose errors come
    first."""
    try:
        types = walk_types((t1, t2), interp.sig)
    except TypeCheckError as exc:
        return SemEqResult("type-error", message=str(exc))
    if types[0] == types[1]:
        walk_matrices((t1, t2), interp)
    return sem_eq(expand(t1), expand(t2), interp)


def walk_order(f, *args):
    """``outcome`` of ``tape_types``, ``eval_tape`` or ``sem_eq`` on args
    and of its walk-order reference, which expands the tapes itself,
    under a fresh signature."""
    reference = {tape_types: walk_types, eval_tape: walk_eval,
                 sem_eq: walk_sem_eq}[f]
    return outcome(f, *args), outcome(reference, *[
        x if isinstance(x, (tape.TapeTerm, tuple)) else full_tree(x)
        for x in args])


def reordered(roots, missing, sorts):
    """Whether the walk may name a missing sort before the roots' full
    trees do: some whiskered tape U |> t or t <| U among their subterms
    has a missing sort in U and one in t's type over sorts, where the
    walk names t's first, or t is a zero tape, whose full tree names no
    sort of U."""
    sig = MonSignature(sorts, {})
    for node in tape_subterms(roots):
        if node.__class__ is TWhisker and not missing.isdisjoint(
                itertools.chain(*[u for _, u in node.steps])):
            dom, cod = type_of_tape(node.tape, sig)
            if not (dom or cod) or not missing.isdisjoint(
                    itertools.chain(*dom, *cod)):
                return True
    return False


def full_tree_or_walk(missing, sorts, f, *args):
    """``both_ways`` of f on args, or ``walk_order`` where the roots'
    walk and full trees name missing sorts in another order
    (``reordered``, sorts being every sort of the roots)."""
    roots = args[0] if f is tape_types else args[:-1]
    check = walk_order if reordered(roots, missing, sorts) else both_ways
    return check(f, *args)


@given(t1=closed_form_tapes(), t2=closed_form_tapes(),
       carriers=st.tuples(*[st.integers(0, 3)] * 3))
@settings(max_examples=200, deadline=None)
def test_closed_forms_fail_as_the_full_tree_does(t1, t2, carriers):
    """One or two sorts missing from the signature or from the carriers:
    the same error class and text, naming the same sort, or the same
    value, either way; where a whiskered tape and its chain both miss a
    sort, or the tape is a zero tape, a whiskering's sorts are checked
    in the walk's order (``walk_types``)."""
    for missing in MISSING:
        kept = [s for s in SORTS if s not in missing]
        unsorted = interpretation_over(carriers, kept)
        full = interpretation_over(carriers)
        uncarried = Interpretation(full.sig, {
            s: n for s, n in full.carriers.items() if s in kept},
            {}, full.model)
        for interp in (unsorted, uncarried):
            for f, *args in ((tape_types, (t1, t2), interp.sig),
                             (eval_tape, t1, interp),
                             (sem_eq, t1, t2, interp)):
                semantic, full_tree = full_tree_or_walk(
                    missing, SORTS, f, *args)
                assert semantic == full_tree, f.__name__


def test_a_left_whiskered_circuit_or_composite_reads_no_sort_of_sig():
    """B |> [copier_A], and B |> t for composites t of it, under a
    signature without A, with A's carrier: the matrices of their full
    trees, which read no sort of the signature, though t does not type
    under it; and B |> [G], for G a generator on A, with no carrier for
    A: id_B (x) G, as its full tree is, since a circuit's tape has one
    monomial a side."""
    model = model_for(builtin_theory("PCA", (Fraction(1, 2),)))
    a, b = mono("A"), mono("B")
    copier = TCirc(circuit.copier_circuit(a))
    composites = (copier, tsum(copier, TCirc(circuit.discharger_circuit(a))),
                  tseq(tsum(copier, tape.id_tape(a)),
                       tape.symplus_tape(poly(("A", "A")), poly(("A",)))))
    interp = Interpretation(MonSignature(("B",), {}), {"B": 2, "A": 3}, {},
                            model)
    shapes = []
    for t in composites:
        m = eval_tape(tape.whisker_left_mono(b, t), interp)
        assert m == eval_tape(expand(tape.whisker_left_mono(b, t)), interp)
        shapes.append((m.dom, m.cod))
    assert shapes == [(6, 18), (12, 20), (12, 24)]
    g = Matrix.make(3, 3, [(1, 0, 1), (0, 1, 1), (2, 2, 1)])
    interp = Interpretation(MonSignature(("A", "B"), {"G": (a, a)}),
                            {"B": 2}, {"G": g}, model)
    t = tape.whisker_left_mono(b, TCirc(CGen("G")))
    assert eval_tape(t, interp) == eval_tape(expand(t), interp) == \
        Matrix.identity(2).tensor(g)


leaf_chains = st.lists(st.tuples(st.booleans(), st.lists(
    st.sampled_from(("A", "W")), max_size=2).map(
        lambda sorts: Monomial(tuple(sorts)))), min_size=1, max_size=3)
"""Chains of one to three whiskerings (left, U), U over A and W, a sort
that no leaf below holds."""


@st.composite
def leaf_tapes(draw):
    """A leaf of the walks: a block tape's builder call, one of the five
    structural generators (a block builder's call at one monomial), a
    structural circuit's tape, an operation's branching at a monomial or
    a term's at a polynomial."""
    kind = draw(st.sampled_from(("block", "primitive", "circuit", "branching")))
    u, v = draw(monomials), draw(monomials)
    if kind == "block":
        builder, args = draw(builder_calls())
        return builder(*args)
    if kind == "primitive":
        return draw(st.sampled_from((
            tape.id_tape(u), tape.id_tape(ZERO), tape.symplus_tape(u, v),
            tape.codiag_tape(u), tape.cobang_tape(u))))
    if kind == "circuit":
        return TCirc(draw(st.sampled_from((
            circuit.identity_circuit(u), circuit.sym_circuit(u, v),
            circuit.copier_circuit(u), circuit.discharger_circuit(u)))))
    op = choice(Fraction(1, draw(st.integers(2, 5))))
    context = draw(st.integers(0, 3))
    pool = [*map(Var, range(1, context + 1)), STAR()]
    for _ in range(draw(st.integers(0, 3))):
        pool.append(op(draw(st.sampled_from(pool)), draw(st.sampled_from(pool))))
    if draw(st.booleans()):
        return tape.op_inj_tape(op, u)
    term = pool[-1] if context == 0 else draw(st.sampled_from(pool))
    return tape.term_tape(term, draw(polynomials), context)


@given(t=leaf_tapes(), chain=leaf_chains,
       carriers=st.tuples(*[st.integers(0, 2)] * 4))
@settings(max_examples=300, deadline=None)
def test_a_whiskered_leaf_is_its_reference_whiskering(t, chain, carriers):
    """A leaf whiskered by a chain of one to three steps, each U |> - or
    - <| U by a monomial over A and W, ONE among them, is one
    ``TWhisker`` of the leaf (the leaf itself if every U is ONE).  Its
    type and matrix, or error class and text, are those of the leaf
    whiskered as ``full_trees.whiskered`` does (a block tape by its
    builder, a circuit's tape beside the identity on U, any other leaf
    field by field), under a signature with W and one without, and with
    W's carrier and without."""
    w = t
    for left, u in chain:
        w = (tape.whisker_left_mono(u, w) if left
             else tape.whisker_right_mono(w, u))
    steps = tuple([(left, u) for left, u in chain if u])
    assert w is (TWhisker(t, steps) if steps else t)
    sizes = dict(zip(SORTS + ("W",), carriers))
    model = model_for(builtin_theory("PCA", (Fraction(1, 2),)))
    for sorts, carried in ((SORTS + ("W",), sizes), (SORTS, sizes),
                           (SORTS + ("W",), {**sizes, "W": None})):
        interp = Interpretation(MonSignature(sorts, {}), {
            s: n for s, n in carried.items() if n is not None}, {}, model)
        missing = {"W"} - set(sorts).intersection(interp.carriers)
        for f, *args in ((tape_types, (w,), interp.sig), (eval_tape, w, interp)):
            semantic, reference = full_tree_or_walk(
                missing, SORTS + ("W",), f, *args)
            assert semantic == reference, f.__name__


def cold_types(roots, sig):
    """The roots' types under sig by a walk of every node that reads and
    keeps no type, or the class and text of the error it raised."""
    return outcome(hashcons.fold, roots, TERM_KIDS,
                   lambda node, kids: tape.node_type(node, sig, kids))


@given(t1=block_tapes(), t2=block_tapes(), u=monomials, v=monomials,
       missing=st.sampled_from([set(), *MISSING]), lacks_g=st.booleans(),
       b_first=st.booleans())
@settings(max_examples=200, deadline=None)
def test_kept_types_change_no_result(t1, t2, u, v, missing, lacks_g, b_first):
    """Typing under a signature A and under a signature B that lacks a
    sort or the generator G, in turn, warm and cold, and from the roots'
    typing walk or their whole postorder, gives the types, or the error
    class and text, of a walk that keeps no type; and after each walk,
    every node kept under its signature is well-typed, of the kept type,
    so a failed walk keeps no type on the failing node or above it."""
    a = MonSignature(SORTS, {"G": (u, u)})
    sorts = tuple(s for s in SORTS if s not in missing)
    lacks_g = lacks_g or not missing or not set(u) <= set(sorts)
    b = MonSignature(sorts, {} if lacks_g else {"G": (u, u)})
    g = TCirc(CGen("G"))
    roots = (TSum(tape.whisker_left_mono(v, TSum(t1, TSeq(g, g))), t2),
             TSeq(t1, t2))
    for i, sig in enumerate((b, b, a, a, b, a, b) if b_first
                            else (a, a, b, b, a, b, a)):
        walk = postorder(roots, TERM_KIDS) if i % 2 else None
        assert outcome(tape_types, roots, sig, walk) == cold_types(roots, sig)
        kept = [(node, node.__dict__["typed"][1])
                for node in postorder(roots, TERM_KIDS)[0]
                if node.__dict__.get("typed", (None,))[0] is sig]
        for node, typ in kept:
            assert cold_types((node,), sig) == (typ,)


# --- node counts of the semantic walks -----------------------------------------

P = poly(("A",), ("A", "B"), ("B",))


def test_tensor_law_walks_few_nodes():
    """The interchange law c (x) f = (c (x) id) ; (id (x) f) of the bench's
    tensor workload, f drawn by a fixed-seed Freshener."""
    fresh = Freshener(standard_interpretation("PCA", carriers=(1, 1)),
                      Random(3))
    f = fresh.tape(P, P * P)
    interp = fresh.interp()
    sig = interp.sig
    c = tape.copier_tape(P)
    lhs = tape.tensor_tape(c, f, sig)
    rhs = tseq(tape.tensor_tape(c, tape.id_tape(P), sig),
               tape.tensor_tape(tape.id_tape(P * P), f, sig))
    assert len(postorder((expand(lhs), expand(rhs)), TERM_KIDS)[0]) == 21255
    assert len(postorder((lhs, rhs), TERM_KIDS)[0]) <= 400
    assert sem_eq(lhs, rhs, interp).kind == "equal"


def test_warm_tensor_law_types_each_node_of_its_walk_once(monkeypatch):
    """The bench's tensor law op (f drawn with seed 5), run a second time
    on the same operands, after a collection: every node typed keeps its
    type, so only nodes that no earlier walk typed under the signature
    are typed, each once, and no subterm of f, whose nodes the first run
    typed, is typed again."""
    fresh = Freshener(standard_interpretation("PCA", carriers=(1, 1)),
                      Random(5))
    f = fresh.tape(P, P * P)
    interp = fresh.interp()
    sig = interp.sig
    c, ids = tape.copier_tape(P), (tape.id_tape(P), tape.id_tape(P * P))
    calls = []
    node_type = tape.node_type

    def counting(node, *args):
        assert node.__dict__.get("typed", (None,))[0] is not sig
        calls.append(node)
        return node_type(node, *args)

    def law():
        lhs = tape.tensor_tape(c, f, sig)
        rhs = tseq(tape.tensor_tape(c, ids[0], sig),
                   tape.tensor_tape(ids[1], f, sig))
        assert sem_eq(lhs, rhs, interp).kind == "equal"

    law()
    gc.collect()
    monkeypatch.setattr(tape, "node_type", counting)
    law()
    assert calls and len(calls) == len(set(calls))
    assert not set(calls) & set(postorder((f,), TERM_KIDS)[0])


def primed(t):
    """t over primed copies of its generators, each node above one
    rebuilt from its fields, as the bench builds its control's f: a
    branching holds no generator, so it is t's very node."""
    if isinstance(t, CGen):
        return CGen(t.name + "'")
    terms = (tape.TapeTerm, circuit.CircuitTerm)
    return dataclasses.replace(t, **{
        f.name: primed(getattr(t, f.name)) for f in dataclasses.fields(t)
        if isinstance(getattr(t, f.name), terms)})


def test_a_law_and_its_control_weigh_their_term_tapes_once(monkeypatch):
    """The bench's tensor law op and its control, whose f has primed
    generators, one weight halved, and f's branchings: after a
    collection, a first round weighs each of f's three term tapes once,
    for both ops, and a second round on the same operands weighs none,
    since each keeps its weight vector under the model."""
    fresh = Freshener(standard_interpretation("PCA", carriers=(1, 1)),
                      Random(11))
    f = fresh.tape(P, P * P)
    f_control = primed(f)
    mats = {n + "'": m for n, m in fresh.extra_mats.items()}
    first = next(iter(mats))
    (y, x, w), *rest = mats[first].nonzeros()
    mats[first] = Matrix.make(mats[first].dom, mats[first].cod,
                              [(y, x, w / 2), *rest])
    interp = fresh.interp().with_gens(
        {n + "'": t for n, t in fresh.extra_sig.items()}, mats)
    sig = interp.sig
    branchings = {node for node in postorder((f, f_control), TERM_KIDS)[0]
                  if node.__class__ is TTerm}
    assert len(branchings) == 3
    calls = []
    eval_vector = interp_module.eval_vector

    def counting(term, *args):
        calls.append(term)
        return eval_vector(term, *args)

    def law_and_control():
        c = tape.copier_tape(P)
        for right, kind in ((f, "equal"), (f_control, "unequal")):
            lhs = tape.tensor_tape(c, f, sig)
            rhs = tseq(tape.tensor_tape(c, tape.id_tape(P), sig),
                       tape.tensor_tape(tape.id_tape(P * P), right, sig))
            assert sem_eq(lhs, rhs, interp).kind == kind

    monkeypatch.setattr(interp_module, "eval_vector", counting)
    gc.collect()
    law_and_control()
    assert len(calls) == 3
    assert set(calls) == {node.branch[0] for node in branchings}
    calls.clear()
    gc.collect()
    law_and_control()
    assert calls == []


def test_copier_tensor_copier_walks_few_nodes():
    sig = MonSignature(("A", "B"), {})
    c = tape.copier_tape(P)
    t = tape.tensor_tape(c, c, sig)
    assert len(postorder((expand(t),), TERM_KIDS)[0]) == 8581
    assert len(postorder((t,), TERM_KIDS)[0]) <= 70


# --- a whiskered block tape means its builder's call ---------------------------

def whiskered_args(builder, args, u, left):
    """The builder's arguments at U |> t if left, else t <| U: whiskering
    a structural tape gives the same structural tape at the whiskered
    objects, sigma+_{P,Q} <| U = sigma+_{PU,QU} for instance, but
    U |> dl_{P,Q,R} = dl_{UP,Q,R} and dl_{P,Q,R} <| U = dl_{P,QU,RU}."""
    def grow(x):
        return poly_of_mono(u) * x if left else x * poly_of_mono(u)

    p, *rest = args
    if builder is tape.distributor or builder is tape.dl_nary:
        if left:
            return (grow(p), *rest)
        if builder is tape.distributor:
            q, r, inverse = rest
            return p, grow(q), grow(r), inverse
        qs, inverse = rest
        return p, [grow(q) for q in qs], inverse
    return tuple(grow(x) if isinstance(x, Polynomial) else x for x in args)


@given(call=builder_calls(), u=monomials, left=st.booleans())
@settings(max_examples=400, deadline=None)
def test_whiskering_a_tagged_tape_calls_its_builder(call, u, left):
    """U |> t and t <| U are one ``TWhisker`` of the builder's tape t,
    whose full tree is that of the builder's tape at the whiskered
    arguments; a block tape is the call of the builder that returned
    it."""
    builder, args = call
    t = builder(*args)
    w = (tape.whisker_left_mono(u, t) if left
         else tape.whisker_right_mono(t, u))
    assert w is (t if u.is_unit else TWhisker(t, ((left, u),)))
    assert expand(w) is expand(builder(*whiskered_args(builder, args, u, left)))
    if isinstance(t, TBlock):
        assert getattr(tape, t.builder)(*t.args) is t


@given(call=builder_calls(), u=monomials, left=st.booleans())
@settings(max_examples=200, deadline=None)
def test_whiskering_a_block_tape_constructs_one_node(call, u, left):
    """Whiskering a block tape constructs one tape node, a ``TWhisker``
    of it, and enters no tree; whiskering by ONE returns the tape
    itself."""
    builder, args = call
    t = builder(*args)
    if not isinstance(t, TBlock):
        return
    with counting_constructions() as constructed:
        w = (tape.whisker_left_mono(u, t) if left
             else tape.whisker_right_mono(t, u))
    assert w is t if u.is_unit else w.tape is t
    assert [cls for cls in constructed if issubclass(cls, tape.TapeTerm)] \
        == ([] if u.is_unit else [TWhisker])


def test_sem_eq_computes_each_block_layout_once(monkeypatch):
    """Building the tensor law and two sem_eq calls on it, typing and
    evaluating both sides each time, compute the closed form of each
    distinct block tape of their walk once, and keep it on the leaf."""
    gc.collect()
    hashcons._sweep()   # the keys of dead parents keep no earlier tape alive
    layouts = []
    block_map = tape.block_map

    def counting(builder, *args):
        layouts.append((builder, args))
        return block_map(builder, *args)

    monkeypatch.setattr(tape, "block_map", counting)
    fresh = Freshener(standard_interpretation("PCA", carriers=(1, 1)),
                      Random(3))
    f = fresh.tape(P, P * P)
    interp = fresh.interp()
    c = tape.copier_tape(P)
    lhs = tape.tensor_tape(c, f, interp.sig)
    rhs = tseq(tape.tensor_tape(c, tape.id_tape(P), interp.sig),
               tape.tensor_tape(tape.id_tape(P * P), f, interp.sig))
    for _ in range(2):
        assert sem_eq(lhs, rhs, interp).kind == "equal"
    leaves = [node for node in postorder((lhs, rhs), TERM_KIDS)[0]
              if isinstance(node, TBlock)]
    assert len(layouts) == len(set(layouts))
    assert {(leaf.builder, leaf.args) for leaf in leaves} <= set(layouts)
    assert all("block_layout" in leaf.__dict__ for leaf in leaves)


def test_each_structural_circuit_computes_its_wires_once(monkeypatch):
    """Two sem_eq calls on terms holding every kind of structural circuit,
    each builder's call at one sort and at longer words, and a render of
    one side, compute the wire map of each distinct structural circuit
    once, and keep it on the node.  A node that other live terms share,
    such as the identity on 1, may have kept its wire map before."""
    gc.collect()
    hashcons._sweep()   # the keys of dead parents keep no earlier circuit alive
    calls = []
    wire_map = circuit.wire_map

    def counting(*call):
        calls.append(call)
        return wire_map(*call)

    sig = MonSignature(("X", "Y"))
    interp = Interpretation(sig, {"X": 2, "Y": 3}, {},
                            model_for(builtin_theory("CM")))
    x, y, xy = mono("X"), mono("Y"), mono("X", "Y")
    lhs = tsum(
        TCirc(CSeq(circuit.sym_circuit(x, y), circuit.sym_circuit(y, x))),
        TCirc(CSeq(circuit.copier_circuit(x),
                   CTensor(circuit.identity_circuit(x),
                           circuit.discharger_circuit(x)))),
        TCirc(circuit.identity_circuit(ONE)),
        TCirc(cseq(circuit.copier_circuit(xy),
                   ctensor(circuit.identity_circuit(xy),
                           circuit.discharger_circuit(xy)))),
        TCirc(cseq(circuit.sym_circuit(xy, x), circuit.sym_circuit(x, xy))))
    rhs = tsum(*map(TCirc, (circuit.identity_circuit(xy),
                            circuit.identity_circuit(x),
                            circuit.identity_circuit(ONE),
                            circuit.identity_circuit(xy),
                            circuit.identity_circuit(xy * x))))
    nodes = [node for node in postorder((lhs, rhs), TERM_KIDS)[0]
             if isinstance(node, CBlock)]
    kept_before = {node for node in nodes if "wires" in node.__dict__}
    monkeypatch.setattr(circuit, "wire_map", counting)
    for _ in range(2):
        assert sem_eq(lhs, rhs, interp).kind == "equal"
    render_svg(lhs, sig)
    assert {(node.builder, max(map(len, node.words))) for node in nodes} == {
        (builder, n) for builder in ("sym_circuit", "copier_circuit",
                                     "discharger_circuit", "identity_circuit")
        for n in (1, 2)} | {("identity_circuit", 0), ("identity_circuit", 3)}
    assert len(calls) == len(set(calls))
    assert set(calls) == {(node.builder, *node.words) for node in nodes
                          if node not in kept_before}
    assert all("wires" in node.__dict__ for node in nodes)


# --- whiskered tapes: one semantic child, the tape they whisker ----------------

whisker_monomials = st.lists(st.sampled_from(SORTS), max_size=2).map(
    lambda sorts: Monomial(tuple(sorts)))
whisker_polynomials = st.lists(whisker_monomials, min_size=1, max_size=2).map(
    Polynomial)
whisker_objects = st.one_of(whisker_monomials, whisker_polynomials)
small_polynomials = st.lists(st.lists(st.sampled_from(("A", "B")), max_size=2)
                             .map(lambda s: Monomial(tuple(s))),
                             min_size=1, max_size=2).map(Polynomial)


def whisker_step(t, kind, s, sig):
    """t whiskered by the object s, through the public builders."""
    if kind == "left":
        return tape.whisker_left(s, t)
    if kind == "right":
        return tape.whisker_right(t, s, sig)
    if kind == "tensor-left":
        return tape.tensor_tape(tape.id_tape(s), t, sig)
    return tape.tensor_tape(t, tape.id_tape(s), sig)


whisker_chains = st.lists(st.tuples(st.sampled_from(
    ("left", "right", "tensor-left", "tensor-right")), whisker_objects),
    min_size=1, max_size=3)


def whiskered_pair(fresh, p, q, chain, ill_typed):
    """Two fresh tapes P -> Q, or two ill-typed composites of fresh
    tapes, each whiskered by the same chain of steps."""
    if ill_typed:
        def draw():
            return tseq(fresh.tape(p, q), fresh.tape(q + p, q))
    else:
        def draw():
            return fresh.tape(p, q)
    pair = [draw(), draw()]
    sig = fresh.interp().sig
    for kind, s in chain:
        if ill_typed:   # only the whiskerings that do not type t
            kind = "left" if kind in ("left", "tensor-left") else "right"
            s = s if kind == "left" else as_poly(s)[0]
        pair = [whisker_step(t, kind, s, sig) for t in pair]
    return pair


def variants(interp):
    """interp, then for each set of sorts in MISSING, interp with those
    sorts, and the generators that mention them, missing from its
    signature, and interp with their carriers missing."""
    yield interp
    for missing in MISSING:
        gens = {name: (a, b) for name, (a, b) in interp.sig.gens.items()
                if missing.isdisjoint(a) and missing.isdisjoint(b)}
        sig = MonSignature(tuple(s for s in SORTS if s not in missing), gens)
        yield Interpretation(sig, interp.carriers, interp.gen_matrices,
                             interp.model)
        carriers = {s: n for s, n in interp.carriers.items()
                    if s not in missing}
        yield Interpretation(interp.sig, carriers, interp.gen_matrices,
                             interp.model)


@given(p=small_polynomials, q=small_polynomials, chain=whisker_chains,
       ill_typed=st.booleans(), carriers=st.tuples(*[st.integers(0, 2)] * 3),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=100, deadline=None)
def test_whiskered_tapes_type_and_evaluate_as_the_full_tree(
        p, q, chain, ill_typed, carriers, seed):
    """Fresh tapes whiskered by chains of one to three steps, each a left
    or right whiskering or a tensor with an identity: the verdicts are the
    full tree's, also when a sort is missing from the signature or the
    carriers, or t is ill-typed.  Types and matrices are equal, or both
    sides raise; sem_eq gives the same kind, and the same witness when
    the tapes are unequal.  Error texts may differ, since the walk names
    the subterm it fails at, and that may lie inside a whiskered tape.
    Matrices are compared for a tape that types: evaluating a full tree
    types none of it, so an ill-typed one whose dimensions happen to
    agree (all 0, say) has a matrix, where the walk, which reads the
    type of a tape it whiskers on the left, raises."""
    fresh = Freshener(standard_interpretation("PCA", carriers=carriers),
                      Random(seed))
    w1, w2 = whiskered_pair(fresh, p, q, chain, ill_typed)
    for interp in variants(fresh.interp()):
        calls = [(tape_types, (w1, w2), interp.sig), (sem_eq, w1, w2, interp)]
        if verdict(outcome(tape_types, (w1,), interp.sig)) is not TapecalcError:
            calls.append((eval_tape, w1, interp))
        for f, *args in calls:
            semantic, full = map(verdict, both_ways(f, *args))
            assert semantic == full, f.__name__


def verdict(result):
    """What an ``outcome`` decides: ``TapecalcError`` for any library
    error, and for a ``sem_eq`` type error, which the CLI reports alike
    (exit 3); a ``sem_eq`` result's kind and witness (None unless
    unequal); else the value itself.  An ill-typed tape over a missing
    sort may fail at its composition on the walk and at the sort in the
    full tree, which ``sem_eq`` returns and raises respectively."""
    if isinstance(result, SemEqResult):
        if result.kind == "type-error":
            return TapecalcError
        return result.kind, result.witness
    if (isinstance(result, tuple) and len(result) == 2
            and isinstance(result[0], type)
            and issubclass(result[0], TapecalcError)):
        return TapecalcError
    return result


def test_whiskered_ill_typed_tape_fails_at_the_composition_it_whiskers():
    """B |> (id_A ; id_B) is ill-typed at A vs B, the composition the walk
    reaches, inside the whiskered tape; its full tree fails at BA vs BB,
    the whiskered copy of that composition."""
    sig = MonSignature(("A", "B"), {})
    t = tape.whisker_left_mono(
        mono("B"), TSeq(tape.id_tape(mono("A")), tape.id_tape(mono("B"))))
    assert isinstance(t, TWhisker) and TERM_KIDS[TWhisker](t) == (t.tape,)
    assert outcome(tape_types, (t,), sig) == (
        TypeCheckError, "tape composition mismatch: A vs B")
    assert outcome(tape_types, (expand(t),), sig) == (
        TypeCheckError, "tape composition mismatch: BA vs BB")


def test_a_hand_built_tree_and_its_block_tape_share_a_full_tree():
    """A sum of identities built by hand is a composite, so whiskering it
    gives a whiskered tape; id_tape at the whiskered polynomial gives
    another node, a leaf of the walks, with the same full tree."""
    a, b, u = mono("Hand1"), mono("Hand2"), mono("Hand3")
    w = tape.whisker_left_mono(u, tsum(tape.id_tape(a), tape.id_tape(b)))
    assert isinstance(w, TWhisker)
    p = Polynomial((u * a, u * b))
    block = tape.id_tape(p)
    assert block is not w
    assert (block.builder, block.args) == ("id_tape", (p,))
    assert TERM_KIDS.get(TBlock) is None
    assert expand(block) is expand(w) is tsum(tape.id_tape(u * a),
                                              tape.id_tape(u * b))


TAPE_TREE = {TSeq: lambda t: (t.first, t.second),
             TSum: lambda t: (t.top, t.bottom)}


def ref_whisker_mono(t, u, left):
    """U |> t if left, else t <| U, node by node over the full tree t,
    a generator at its whiskered monomials."""
    def times(m):
        return u * m if left else m * u

    def step(node, kids):
        cls = node.__class__
        if kids:
            return cls(*kids)
        if cls is TCirc:
            i = identity_circuit(u)
            return TCirc(ctensor(i, node.circuit) if left
                         else ctensor(node.circuit, i))
        if cls is TTerm:
            return TTerm(node.term, Polynomial(map(times, node.poly)),
                         node.context)
        return getattr(tape, node.builder)(
            *[Polynomial(map(times, p)) for p in node.args])

    return hashcons.fold((t,), TAPE_TREE, step)[0]


def ref_whisker(t, s, left, sig):
    """S |> t if left, else t <| S, for a polynomial S, with the monomial
    whiskerings of ``ref_whisker_mono``."""
    parts = [ref_whisker_mono(t, u, left) for u in s]
    if left or len(parts) < 2:
        return tsum(*parts)
    dom, cod = type_of_tape(t, sig)
    summands = [poly_of_mono(u) for u in s]
    return tseq(ref_dl_nary(dom, summands), tsum(*parts),
                ref_dl_nary(cod, summands, inverse=True))


@given(p=small_polynomials, q=small_polynomials, s=whisker_polynomials,
       r=whisker_polynomials, seed=st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_nested_whiskerings_build_the_sequential_walks_node(p, q, s, r, seed):
    """U |> (t <| V) and (U |> t) <| V, for monomials and for polynomials
    as in W13, end, and their full trees are the node that whiskering
    t's full tree twice, node by node, builds."""
    fresh = Freshener(standard_interpretation("PCA", carriers=(1, 1, 1)),
                      Random(seed))
    t = fresh.tape(p, q)
    x = expand(t)
    sig = fresh.interp().sig
    u, v = s[0], r[0]
    assert expand(tape.whisker_left_mono(u, tape.whisker_right_mono(t, v))) \
        is ref_whisker_mono(ref_whisker_mono(x, v, False), u, True)
    assert expand(tape.whisker_right_mono(tape.whisker_left_mono(u, t), v)) \
        is ref_whisker_mono(ref_whisker_mono(x, u, True), v, False)
    assert expand(tape.whisker_left(s, tape.whisker_right(t, r, sig))) is \
        ref_whisker(ref_whisker(x, r, False, sig), s, True, sig)
    assert expand(tape.whisker_right(tape.whisker_left(s, t), r, sig)) is \
        ref_whisker(ref_whisker(x, s, True, sig), r, False, sig)


def test_whiskering_suite_reports_as_the_full_trees(monkeypatch):
    """The W-laws compare whiskered tapes built by the syntactic
    construction: the same report lines whether ``sem_eq`` reads the
    derived nodes or is given the full trees of its two terms."""
    def lines(model):   # a fresh signature each run: no kept type is shared
        interp = standard_interpretation(model)
        return list(suites.whiskering_suite(interp, seed=7).lines())

    sem_eq_on_derived_nodes = suites.sem_eq
    for model in ("PCA", "CM"):
        semantic = lines(model)
        with monkeypatch.context() as patch:
            patch.setattr(suites, "sem_eq", lambda t1, t2, interp:
                          sem_eq_on_derived_nodes(expand(t1), expand(t2),
                                                  interp))
            full = lines(model)
        assert semantic == full, model


# --- one node per builder call -------------------------------------------------

def test_each_builder_call_is_its_own_node():
    """dl_nary(0, [A, B]) and nfold_codiag(0, 2) have the same full tree,
    (id_0 ; id_0), but are two nodes, each its own builder's call, each
    typed and evaluated as the identity on 0, and each whiskered as its
    own node."""
    a, b, u = poly(("A",)), poly(("B",)), mono("B")
    dl, codiag = tape.dl_nary(ZERO, [a, b]), tape.nfold_codiag(ZERO, 2)
    assert dl is not codiag
    assert (dl.builder, dl.args) == ("dl_nary", (ZERO, (a, b), False))
    assert (codiag.builder, codiag.args) == ("nfold_codiag", (ZERO, 2))
    id0 = tape.id_tape(ZERO)
    assert expand(dl) is expand(codiag) is TSeq(id0, id0)
    interp = interpretation_over((2, 2, 2))
    for t in (dl, codiag):
        for w in (t, tape.whisker_left_mono(u, t),
                  tape.whisker_right_mono(t, u)):
            assert w is t or w.tape is t
            assert type_of_tape(w, interp.sig) == (ZERO, ZERO)
            assert eval_tape(w, interp) == eval_tape(id0, interp)


THEORY_OPS = (*builtin_theory("PCA", (Fraction(1, 2), Fraction(1, 3))).ops,
              *builtin_theory("CM").ops)


@given(u=monomials, v=monomials, a=st.sampled_from(SORTS),
       b=st.sampled_from(SORTS), op=st.sampled_from(THEORY_OPS))
@settings(max_examples=200, deadline=None)
def test_a_generator_is_its_builder_call(u, v, a, b, op):
    """A generator is its builder's call at one monomial (one sort), one
    node: each name of a generator returns the builder's node, each tape
    generator is a ``TBlock`` or a ``TTerm`` and each circuit generator
    a ``CBlock``, so each equal pair walks as one node."""
    a1, b1 = Monomial((a,)), Monomial((b,))
    applied = op(*map(Var, range(1, op.arity + 1)))
    pairs = ((tape.TCodiag(u), tape.codiag_tape(u)),
             (tape.TIdMon(u), tape.id_tape(u)),
             (tape.TOpInj(op, u), tape.term_tape(applied, u, op.arity)),
             (tape.TOpInj(op, u), tape.op_inj_tape(op, poly_of_mono(u))),
             (circuit.CSym(a, b), circuit.sym_circuit(a1, b1)),
             (circuit.CCopier(a), circuit.copier_circuit(a1)),
             (circuit.CIdSort(a), circuit.identity_circuit(a1)))
    for x, y in pairs:
        assert x is y
        assert len(postorder((x, y), TERM_KIDS)[0]) == 1
    assert tape.TOpInj(op, u).__class__ is TTerm
    for t in (tape.symplus_tape(u, v), tape.cobang_tape(u), tape.id_tape(u),
              tape.codiag_tape(u), tape.id_tape(ZERO)):
        assert t.__class__ is TBlock
    for c in (circuit.sym_circuit(a1, b1), circuit.copier_circuit(a1),
              circuit.discharger_circuit(a1), circuit.identity_circuit(a1),
              circuit.identity_circuit(ONE)):
        assert c.__class__ is CBlock


def test_the_node_classes_are_the_builder_calls_and_composites():
    """The tape nodes are the composites and one class per kind of
    builder call; the names of the generators are plain functions."""
    def node_classes(module, base):
        return {cls for cls in vars(module).values() if isinstance(cls, type)
                and issubclass(cls, base) and cls is not base}

    assert node_classes(tape, tape.TapeTerm) == {
        TCirc, TSeq, TSum, TTerm, TBlock, TWhisker}
    assert node_classes(circuit, circuit.CircuitTerm) == {
        CGen, CSeq, CTensor, CBlock}
    for name in ("TIdMon", "TCodiag", "TOpInj"):
        assert inspect.isfunction(getattr(tape, name)), name
    for name in ("CIdSort", "CSym", "CCopier"):
        assert inspect.isfunction(getattr(circuit, name)), name


def law_sides(sig, f):
    """Both sides of the bench's interchange law c (x) f =
    (c (x) id) ; (id (x) f)."""
    c = tape.copier_tape(P)
    return (tape.tensor_tape(c, f, sig),
            tseq(tape.tensor_tape(c, tape.id_tape(P), sig),
                 tape.tensor_tape(tape.id_tape(P * P), f, sig)))


def test_tensor_law_builds_in_few_constructions():
    """Building both sides of the law constructs a few hundred nodes, as
    many on the first build as on the next, since no builder builds a
    tree: the full trees hold 21,735 distinct nodes."""
    fresh = Freshener(standard_interpretation("PCA", carriers=(1, 1)),
                      Random(3))
    f = fresh.tape(P, P * P)
    sig = fresh.interp().sig
    counts = []
    for _ in range(2):
        with counting_constructions() as constructed:
            law_sides(sig, f)
        counts.append(len(constructed))
    assert counts[0] == counts[1] <= 500


def test_dead_law_keeps_no_leaf_alive():
    """A law built and evaluated inside a function leaves none of its
    block and whiskered tapes alive after a full collection: the keys of
    dead parents in the intern table are dropped with them."""
    def evaluated_law():
        fresh = Freshener(standard_interpretation("PCA", carriers=(1, 1)),
                          Random(7))
        f = fresh.tape(P, P * P)
        interp = fresh.interp()
        lhs, rhs = law_sides(interp.sig, f)
        assert sem_eq(lhs, rhs, interp).kind == "equal"
        return [weakref.ref(node)
                for node in postorder((lhs, rhs), TERM_KIDS)[0]
                if isinstance(node, (TBlock, TWhisker))]

    leaves = evaluated_law()
    assert len(leaves) > 40
    gc.collect()
    assert [leaf for leaf in leaves if leaf() is not None] == []


def test_wide_term_check_builds_no_tree(tmp_path):
    """``check`` of term<x1 +_1/2 xN>@A constructs a fixed number of nodes,
    whose keys hold about 3N polynomial slots: no identity or codiagonal
    of (+)^N A is built monomial by monomial."""
    def slots(x):
        if isinstance(x, Polynomial):
            return len(x)
        return sum(map(slots, x)) if isinstance(x, tuple) else 0

    for n in (2000, 4000):
        path = tmp_path / f"term{n}.tape"
        path.write_text(f"sort A;\ntheory PCA with p = 1/2;\n"
                        f"def d = term<x1 +_1/2 x{n}>@A;\n")
        keys = []
        new = tape.Term.__new__

        def recording(cls, *args, **kwargs):
            keys.append(args)
            return new(cls, *args, **kwargs)

        tape.Term.__new__ = recording
        try:
            assert main(["check", str(path)]) == 0
        finally:
            tape.Term.__new__ = new
        assert len(keys) <= 50, n
        assert sum(map(slots, keys)) <= 4 * n, n


def test_ill_typed_terms_build_no_full_tree(tmp_path, capsys):
    """An ill-typed tape fails on the walk over its derived nodes, and no
    full tree is built to report it: ``check`` and ``render`` of
    term<x1 +_1/2 x4000>@A ; id@B exit 3 with an ``error:`` line, and
    sem_eq of copier(P) (x) copier(P) ; id@A is a type error, each in
    well under a second."""
    path = tmp_path / "term4000.tape"
    path.write_text("sort A;\nsort B;\ntheory PCA with p = 1/2;\n"
                    "def d = term<x1 +_1/2 x4000>@A ; id@B;\n")
    for argv in (["check", str(path)],
                 ["render", str(path), "--term", "d",
                  "-o", str(tmp_path / "d.svg")]):
        start = time.perf_counter()
        assert main(argv) == 3, argv[0]
        assert time.perf_counter() - start < 1, argv[0]
        assert capsys.readouterr().err.startswith("error: "), argv[0]
    interp = standard_interpretation("PCA")
    c = tape.copier_tape(P)
    t = tseq(tape.tensor_tape(c, c, interp.sig), tape.id_tape(poly(("A",))))
    start = time.perf_counter()
    assert sem_eq(t, t, interp).kind == "type-error"
    assert time.perf_counter() - start < 1
