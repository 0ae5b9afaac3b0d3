"""Hash-consed terms and the DAG walkers.

Equal constructions give one node, each distinct subterm is typed and
evaluated once a call, deep terms need no recursion, and the DAG typer
and evaluator agree with the tree-recursive reference typer and
evaluator below, run on the full trees (``full_trees.expand``).
"""

import copy
import dataclasses
import gc
import importlib
import pickle
import sys
import weakref
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from tapecalc import hashcons, kleisli, suites
from tapecalc.circuit import (CBlock, CCopier, CDischarger, CGen, CIdOne,
                              CIdSort, CSeq, CSym, CTensor, CircuitTerm,
                              MonSignature, type_of_circuit)
from tapecalc.errors import ModelError, TapecalcError, TypeCheckError
from tapecalc.frontend.render import render_svg
from tapecalc.hashcons import fold, postorder
from tapecalc.interp import Interpretation, eval_tape
from tapecalc.kleisli import Matrix, model_for, op_matrix
from tapecalc.objects import (Monomial, ZERO, mono, nfold_sum, poly,
                              poly_of_mono)
from tapecalc.suites import (Freshener, SemEqResult, SuiteBounds, axiom_suite,
                             lemma_suite, rand_poly, sem_eq,
                             standard_interpretation)
from tapecalc.tape import (TERM_KIDS, TCirc, TCobang, TCodiag, TIdMon,
                           TIdZero, TOpInj, TSeq, TSum, TSymPlus, distributor,
                           id_tape, tensor_tape, tseq, tsum,
                           type_of_tape, whisker_left, whisker_left_mono, whisker_right,
                           whisker_right_mono)
from tapecalc.theory import OpSymbol, builtin_theory

from full_trees import expand


# --- the tree-recursive reference evaluator ------------------------------------

def ref_eval_circuit(c, interp):
    if isinstance(c, CIdSort):
        return Matrix.identity(interp.sort_size(c.sort))
    if isinstance(c, CIdOne):
        return Matrix.identity(1)
    if isinstance(c, CGen):
        interp.sig.gen_type(c.name)
        try:
            return interp.gen_matrices[c.name]
        except KeyError:
            raise ModelError(f"generator {c.name} has no matrix")
    if isinstance(c, CSym):
        return kleisli.sym_tensor(interp.sort_size(c.left),
                                  interp.sort_size(c.right))
    if isinstance(c, CSeq):
        return ref_eval_circuit(c.first, interp).then(
            ref_eval_circuit(c.second, interp))
    if isinstance(c, CTensor):
        return ref_eval_circuit(c.top, interp).tensor(
            ref_eval_circuit(c.bottom, interp))
    if isinstance(c, CCopier):
        return kleisli.copier(interp.sort_size(c.sort))
    if isinstance(c, CDischarger):
        return kleisli.discharger(interp.sort_size(c.sort))
    raise ModelError(f"not a circuit term: {c!r}")


def ref_eval_tape(t, interp):
    if isinstance(t, TIdMon):
        return Matrix.identity(interp.mono_size(t.mono))
    if isinstance(t, TIdZero):
        return Matrix.identity(0)
    if isinstance(t, TCirc):
        return ref_eval_circuit(t.circuit, interp)
    if isinstance(t, TSymPlus):
        return kleisli.sym_plus(interp.mono_size(t.left),
                                interp.mono_size(t.right))
    if isinstance(t, TSeq):
        return ref_eval_tape(t.first, interp).then(ref_eval_tape(t.second, interp))
    if isinstance(t, TSum):
        return ref_eval_tape(t.top, interp).oplus(ref_eval_tape(t.bottom, interp))
    if isinstance(t, TCobang):
        return kleisli.cobang(interp.mono_size(t.mono))
    if isinstance(t, TCodiag):
        return kleisli.codiag(interp.mono_size(t.mono))
    if isinstance(t, TOpInj):
        return op_matrix(t.op, interp.model, interp.mono_size(t.mono))
    raise ModelError(f"not a tape term: {t!r}")


# --- the tree-recursive reference typer ----------------------------------------

def ref_type_circuit(c, sig):
    if isinstance(c, CGen):
        return sig.gen_type(c.name)
    if isinstance(c, CSeq):
        dom, cod1 = ref_type_circuit(c.first, sig)
        dom2, cod = ref_type_circuit(c.second, sig)
        if cod1 != dom2:
            raise TypeCheckError(
                f"circuit composition mismatch: {cod1} vs {dom2}")
        return dom, cod
    if isinstance(c, CTensor):
        dom1, cod1 = ref_type_circuit(c.top, sig)
        dom2, cod2 = ref_type_circuit(c.bottom, sig)
        return dom1 * dom2, cod1 * cod2
    if isinstance(c, CIdSort):
        sig.check_sorts((c.sort,))
        return mono(c.sort), mono(c.sort)
    if isinstance(c, CIdOne):
        return mono(), mono()
    if isinstance(c, CSym):
        sig.check_sorts((c.left,))
        sig.check_sorts((c.right,))
        return mono(c.left, c.right), mono(c.right, c.left)
    if isinstance(c, CCopier):
        sig.check_sorts((c.sort,))
        return mono(c.sort), mono(c.sort, c.sort)
    if isinstance(c, CDischarger):
        sig.check_sorts((c.sort,))
        return mono(c.sort), mono()
    raise TypeCheckError(f"not a circuit term: {c!r}")


def ref_type_tape(t, sig):
    if isinstance(t, TSeq):
        dom, cod1 = ref_type_tape(t.first, sig)
        dom2, cod = ref_type_tape(t.second, sig)
        if cod1 != dom2:
            raise TypeCheckError(f"tape composition mismatch: {cod1} vs {dom2}")
        return dom, cod
    if isinstance(t, TSum):
        dom1, cod1 = ref_type_tape(t.top, sig)
        dom2, cod2 = ref_type_tape(t.bottom, sig)
        return dom1 + dom2, cod1 + cod2
    if isinstance(t, TCirc):
        dom, cod = ref_type_circuit(t.circuit, sig)
        return poly_of_mono(dom), poly_of_mono(cod)
    if isinstance(t, TIdMon):
        for s in t.mono:
            sig.check_sorts((s,))
        return poly_of_mono(t.mono), poly_of_mono(t.mono)
    if isinstance(t, TSymPlus):
        p, q = poly_of_mono(t.left), poly_of_mono(t.right)
        return p + q, q + p
    if isinstance(t, TCodiag):
        p = poly_of_mono(t.mono)
        return p + p, p
    if isinstance(t, TCobang):
        return ZERO, poly_of_mono(t.mono)
    if isinstance(t, TOpInj):
        p = poly_of_mono(t.mono)
        return p, nfold_sum(p, t.op.arity)
    if isinstance(t, TIdZero):
        return ZERO, ZERO
    raise TypeCheckError(f"not a tape term: {t!r}")


# --- random well-typed tapes ---------------------------------------------------

SORTS = ("A", "B")


def random_poly(rng):
    return rand_poly(rng, SORTS, 2, 2)


def random_tape(fresh, rng, depth):
    """A random tape built by the derived constructions."""
    if depth == 0:
        return fresh.tape(random_poly(rng), random_poly(rng))
    kind = rng.randrange(6)
    t = random_tape(fresh, rng, depth - 1)
    if kind == 0:
        t2 = random_tape(fresh, rng, depth - 1)
        return tensor_tape(t, t2, fresh.sig)
    sig = fresh.sig
    if kind == 1:
        return whisker_left(random_poly(rng), t)
    if kind == 2:
        return whisker_right(t, random_poly(rng), sig)
    if kind == 3:
        u = rng.choice([mono(), mono("A"), mono("B", "A")])
        return (whisker_left_mono(u, t) if rng.random() < 0.5
                else whisker_right_mono(t, u))
    if kind == 4:
        _, cod = type_of_tape(t, sig)
        return tseq(t, fresh.tape(cod, random_poly(rng)))
    p, q, r = random_poly(rng), random_poly(rng), random_poly(rng)
    return tsum(t, distributor(p, q, r, inverse=rng.random() < 0.5))


def interpretation(model: str) -> Interpretation:
    return standard_interpretation(model, carriers=(1, 2))


@pytest.mark.parametrize("model", ["PCA", "CM"])
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_dag_evaluator_matches_reference(model, seed):
    rng = Random(seed)
    fresh = Freshener(interpretation(model), rng)
    t = random_tape(fresh, rng, rng.randrange(3))
    interp = fresh.interp()
    type_of_tape(t, interp.sig)
    assert eval_tape(t, interp) == ref_eval_tape(expand(t), interp)


@pytest.mark.parametrize("model", ["PCA", "CM"])
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_sem_eq_verdicts_match_reference(model, seed):
    rng = Random(seed)
    fresh = Freshener(interpretation(model), rng)
    t1 = random_tape(fresh, rng, 1)
    t2 = random_tape(fresh, rng, 1)
    dom1, cod1 = type_of_tape(t1, fresh.sig)
    dom2, cod2 = type_of_tape(t2, fresh.sig)
    pairs = [
        (t1, t1),
        # the interchange law: equal
        (tensor_tape(t1, t2, fresh.sig),
         tseq(tensor_tape(t1, id_tape(dom2), fresh.sig),
              tensor_tape(id_tape(cod1), t2, fresh.sig))),
        # a second random tape of the same type: unequal as a rule
        (t1, fresh.tape(dom1, cod1)),
        (t1, t2),           # a type error unless the types agree
    ]
    interp = fresh.interp()
    verdicts = [sem_eq(a, b, interp) for a, b in pairs]
    assert verdicts == [ref_sem_eq(a, b, interp) for a, b in pairs]
    assert verdicts[0].equal and verdicts[1].equal


def ref_sem_eq(t1, t2, interp):
    """sem_eq from the reference typer and evaluator: each side typed,
    then each side evaluated, one after the other, over their full trees."""
    t1, t2 = expand(t1), expand(t2)
    try:
        dom1, cod1 = ref_type_tape(t1, interp.sig)
        dom2, cod2 = ref_type_tape(t2, interp.sig)
    except TypeCheckError as exc:
        return SemEqResult("type-error", message=str(exc))
    if (dom1, cod1) != (dom2, cod2):
        return SemEqResult(
            "type-error",
            message=f"type mismatch: {dom1} -> {cod1} vs {dom2} -> {cod2}")
    diff = suites.first_difference(ref_eval_tape(t1, interp),
                                   ref_eval_tape(t2, interp))
    if diff is None:
        return SemEqResult("equal")
    return SemEqResult("unequal", witness=diff)


def one_sort_interpretation(matrices):
    sig = MonSignature(("A",), {"F": (mono("A"), mono("A"))})
    return Interpretation(sig, {"A": 2}, matrices,
                          model_for(builtin_theory("CM")))


def test_sem_eq_type_error_wins_over_missing_matrix():
    """Both sides are typed before either is evaluated: the lhs uses F,
    which has no matrix, and the rhs is ill-typed."""
    interp = one_sort_interpretation({})
    lhs = TCirc(CGen("F"))
    rhs = TSeq(TCirc(CGen("F")), TIdZero())
    with pytest.raises(ModelError):
        eval_tape(lhs, interp)
    result = sem_eq(lhs, rhs, interp)
    assert result == SemEqResult(
        "type-error", message="tape composition mismatch: A vs 0")
    assert result == ref_sem_eq(lhs, rhs, interp)


def test_sem_eq_reports_the_lhs_type_error_first():
    interp = one_sort_interpretation({"F": Matrix.identity(2)})
    lhs = TSum(TCirc(CGen("F")), TSeq(TIdMon(mono("A")), TIdZero()))
    rhs = TSeq(TIdZero(), TCirc(CGen("F")))
    result = sem_eq(lhs, rhs, interp)
    assert result.message == "tape composition mismatch: A vs 0"
    assert sem_eq(rhs, lhs, interp).message == \
        "tape composition mismatch: 0 vs A"
    assert result == ref_sem_eq(lhs, rhs, interp)


def test_sem_eq_evaluates_a_shared_subterm_once(monkeypatch):
    """Both sides share F ; F: its product is computed once a call."""
    interp = one_sort_interpretation(
        {"F": Matrix.from_rows([[0, 1], [1, 1]])})
    shared = TSeq(TCirc(CGen("F")), TCirc(CGen("F")))
    calls = []
    original = Matrix.then

    def counted(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(Matrix, "then", counted)
    result = sem_eq(TSum(shared, TIdZero()), shared, interp)
    assert result.equal and len(calls) == 1


def tape_nodes(t, seen=None):
    """The distinct tape nodes of t, each after its own, in first-visit
    order."""
    seen = [] if seen is None else seen
    if t not in seen:
        if isinstance(t, TSeq):
            tape_nodes(t.first, seen)
            tape_nodes(t.second, seen)
        elif isinstance(t, TSum):
            tape_nodes(t.top, seen)
            tape_nodes(t.bottom, seen)
        seen.append(t)
    return seen


def splice(t, target, new, done=None):
    """t with every occurrence of target replaced by new."""
    done = {} if done is None else done
    if t is target:
        return new
    if t not in done:
        if isinstance(t, TSeq):
            done[t] = TSeq(splice(t.first, target, new, done),
                           splice(t.second, target, new, done))
        elif isinstance(t, TSum):
            done[t] = TSum(splice(t.top, target, new, done),
                           splice(t.bottom, target, new, done))
        else:
            done[t] = t
    return done[t]


def outcome(f, *args):
    """f(*args), or the class and message of the library error it raises."""
    try:
        return f(*args)
    except TapecalcError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("model", ["PCA", "CM"])
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_typer_matches_reference(model, seed):
    """Random tapes, and the same tapes with one node n replaced by
    n ; x for an x that mostly does not fit: a fresh tape of a random
    type, an identity on an unregistered sort or an unknown generator.
    Typed under the fresh signature or under the base one, which lacks
    the fresh generators."""
    rng = Random(seed)
    fresh = Freshener(interpretation(model), rng)
    t = random_tape(fresh, rng, rng.randrange(3))
    if rng.random() < 0.7:
        target = rng.choice(tape_nodes(t))
        x = rng.choice([lambda: fresh.tape(random_poly(rng), random_poly(rng)),
                        lambda: TIdMon(mono("A", "C")),
                        lambda: TCirc(CSeq(CIdSort("A"), CGen("unknown")))])()
        t = splice(t, target, TSeq(target, x))
    sig = fresh.sig if rng.random() < 0.8 else fresh.base.sig
    expected = outcome(ref_type_tape, expand(t), sig)
    assert outcome(type_of_tape, t, sig) == expected
    if not isinstance(expected[0], type):
        for node in postorder((t,), TERM_KIDS)[0]:
            if isinstance(node, CircuitTerm):
                assert type_of_circuit(node, sig) == ref_type_circuit(node, sig)
            else:
                assert type_of_tape(node, sig) == ref_type_tape(expand(node),
                                                                sig)
    svg = outcome(render_svg, t, sig)
    if isinstance(expected, tuple) and len(expected) == 2 \
            and isinstance(expected[0], type):
        assert svg == expected
    else:
        assert svg.startswith("<?xml")


def test_type_error_texts():
    """Word types are printed as polynomials and monomials: the zero
    polynomial as 0 and the unit monomial as 1."""
    sig = MonSignature(("A", "B"), {"F": (mono("A"), mono("B"))})
    cases = [
        (TSeq(TIdZero(), TCodiag(mono("A"))),
         "tape composition mismatch: 0 vs A (+) A"),
        (TSeq(TCirc(CGen("F")), TCobang(mono("B", "A"))),
         "tape composition mismatch: B vs 0"),
        (TSeq(TSymPlus(mono(), mono("A", "B")), TIdMon(mono("A", "B"))),
         "tape composition mismatch: AB (+) 1 vs AB"),
        (TCirc(CSeq(CIdOne(), CGen("F"))),
         "circuit composition mismatch: 1 vs A"),
        (TCirc(CSeq(CTensor(CGen("F"), CIdSort("A")), CCopier("B"))),
         "circuit composition mismatch: BA vs B"),
    ]
    for t, text in cases:
        with pytest.raises(TypeCheckError) as exc:
            type_of_tape(t, sig)
        assert str(exc.value) == text
    interp = one_sort_interpretation({})
    plus = OpSymbol("+", 2)
    results = [sem_eq(TIdMon(mono("A")), TCobang(mono("A")), interp),
               sem_eq(TIdMon(mono()), TIdZero(), interp),
               sem_eq(TCodiag(mono("A", "A")), TOpInj(plus, mono()), interp)]
    assert [r.message for r in results] == [
        "type mismatch: A -> A vs 0 -> A",
        "type mismatch: 1 -> 1 vs 0 -> 0",
        "type mismatch: AA (+) AA -> AA vs 1 -> 1 (+) 1"]
    assert {r.kind for r in results} == {"type-error"}


def test_type_errors_match_reference():
    sig = MonSignature(("A", "B"), {"F": (mono("A"), mono("B"))})
    cases = [
        TSeq(TCirc(CGen("F")), TCirc(CGen("F"))),
        TSum(TIdMon(mono("C")), TCirc(CGen("G"))),
        TCirc(CSeq(CGen("F"), CGen("F"))),
        TCirc(CTensor(CSym("A", "C"), CGen("F"))),
        TSeq(TIdZero(), TCodiag(mono("A"))),
        CGen("F"),
        TCirc(CIdSort("C")),
        TCirc(CTensor(CIdOne(), CIdSort("C"))),
        TCirc(CSym("D", "C")),
        TCirc(CCopier("C")),
        TCirc(CDischarger("C")),
        TCirc(CBlock("identity_circuit", (mono("A", "C"),))),
        TCirc(CBlock("sym_circuit", (mono("A", "B"), mono("C")))),
        TCirc(CBlock("copier_circuit", (mono("B", "C"),))),
        TCirc(CBlock("discharger_circuit", (mono("C", "A"),))),
    ]
    for t in cases:
        expected = outcome(ref_type_tape, expand(t), sig)
        assert isinstance(expected[0], type)
        assert outcome(type_of_tape, t, sig) == expected
        assert outcome(render_svg, t, sig) == expected


# --- hash-consing -------------------------------------------------------------

def test_equal_constructions_are_identical():
    a = TSeq(TCirc(CGen("f")), TIdMon(mono("A", "B")))
    b = TSeq(first=TCirc(circuit=CGen(name="f")),
             second=TIdMon(mono=mono("A", "B")))
    assert a is b
    assert dataclasses.replace(a) is a
    assert dataclasses.replace(a, second=TIdMon(mono("A", "B"))) is a
    assert dataclasses.replace(a, first=TIdZero()) is TSeq(TIdZero(), a.second)
    assert copy.copy(a) is a and copy.deepcopy(a) is a
    assert pickle.loads(pickle.dumps(a)) is a
    assert a == b and hash(a) == hash(b)
    assert TSeq(TIdZero(), TIdZero()) != TSum(TIdZero(), TIdZero())
    assert repr(a) == ("TSeq(first=TCirc(circuit=CGen(name='f')), "
                       "second=TIdMon(mono=Monomial(sorts=('A', 'B'))))")
    for bad in ((TIdZero(),), (TIdZero(), TIdZero(), TIdZero())):
        with pytest.raises(TypeError):
            TSeq(*bad)
    with pytest.raises(TypeError):
        TSeq(TIdZero(), third=TIdZero())


def test_a_fresh_import_replaces_the_collection_callback():
    """Importing hashcons afresh, as the benchmark does before each set-up,
    leaves one sweeping callback, the fresh module's: the earlier one
    would keep its module alive and sweep its table at every full
    collection."""
    saved_callbacks, saved_module = gc.callbacks[:], hashcons
    try:
        del sys.modules["tapecalc.hashcons"]
        fresh = importlib.import_module("tapecalc.hashcons")
        assert fresh is not saved_module
        assert [c for c in gc.callbacks
                if getattr(c, "__qualname__", None) == "_collected"] \
            == [fresh._collected]
    finally:
        sys.modules["tapecalc.hashcons"] = saved_module
        gc.callbacks[:] = saved_callbacks


def test_dead_terms_are_not_kept():
    node = TCirc(CGen("dropped-generator"))
    ref = weakref.ref(node)
    del node
    gc.collect()
    assert ref() is None


def test_shared_subterm_is_evaluated_once(monkeypatch):
    sig = MonSignature(("A",), {"F": (mono("A"), mono("A")),
                                "G": (mono("A"), mono("A"))})
    interp = Interpretation(
        sig, {"A": 2},
        {"F": Matrix.from_rows([[Fraction(1, 2), 0], [Fraction(1, 2), 1]]),
         "G": Matrix.from_rows([[0, 1], [1, 0]])},
        model_for(builtin_theory("PCA", [Fraction(1, 2)])))
    shared = TSeq(TCirc(CGen("F")), TCirc(CGen("G")))
    calls = {"then": 0, "oplus": 0}
    for name in calls:
        original = getattr(Matrix, name)

        def counted(self, other, name=name, original=original):
            calls[name] += 1
            return original(self, other)

        monkeypatch.setattr(Matrix, name, counted)
    k = 5
    t = tsum(*[shared] * k)
    m = eval_tape(t, interp)
    assert calls == {"then": 1, "oplus": k - 1}
    assert m == ref_eval_tape(t, interp)


def test_deep_chain_types_and_evaluates():
    """20 000 steps: far past the interpreter's recursion limit."""
    sig = MonSignature(("A",), {"S": (mono("A"), mono("A"))})
    interp = Interpretation(sig, {"A": 2},
                            {"S": Matrix.from_rows([[0, 1], [1, 0]])},
                            model_for(builtin_theory("CM")))
    steps = [TCirc(CSeq(CGen("S"), CIdSort("A"))) for _ in range(20000)]
    chain = tseq(*steps)
    assert type_of_tape(chain, sig) == (poly(("A",)), poly(("A",)))
    assert eval_tape(chain, interp) == Matrix.identity(2)
    assert tseq(*steps) is chain
    deep_circuit = CGen("S")
    for _ in range(20000):
        deep_circuit = CSeq(deep_circuit, CGen("S"))
    assert type_of_circuit(deep_circuit, sig) == (mono("A"), mono("A"))
    assert eval_tape(deep_circuit, interp) == Matrix.from_rows([[0, 1], [1, 0]])
    assert expand(whisker_right_mono(chain, mono("A"))) is tseq(
        *[expand(whisker_right_mono(s, mono("A"))) for s in steps])


# --- fold ----------------------------------------------------------------------

class Value:
    """A fold value that can be weakly referenced."""

    def __init__(self, node):
        self.node = node


def test_fold_drops_each_value_after_its_last_use():
    """Along a 10 000-step chain, a constant number of values is alive at
    every step: the children's values of the node being built, and the
    shared step's."""
    step_tape = TCirc(CGen("S"))
    chain = tseq(*[step_tape] * 10000)
    alive = weakref.WeakSet()
    most = 0

    def step(node, kids):
        nonlocal most
        most = max(most, len(alive))
        value = Value(node)
        alive.add(value)
        return value

    root, = fold((chain,), TERM_KIDS, step)
    assert root.node is chain
    assert 1 <= most <= 3
    del root
    assert not alive


def test_fold_returns_the_roots_values_in_roots_order():
    shared = TSeq(TCirc(CGen("F")), TIdMon(mono("A")))
    roots = (TSum(shared, TIdZero()), shared, TCirc(CGen("F")), shared)
    walk = postorder(roots, TERM_KIDS)
    uses = dict(walk[1])

    def size(node, kids):
        return 1 + sum(kids)

    expected = (6, 4, 2, 4)     # tree sizes, counting the circuit nodes
    assert fold(roots, TERM_KIDS, size) == expected
    assert fold(roots, TERM_KIDS, size, walk) == expected
    assert walk[1] == uses      # the walk's use counts are left as they were
    assert fold(roots[::-1], TERM_KIDS, size) == expected[::-1]


@pytest.mark.parametrize("model", ["PCA", "CM"])
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_polynomial_whiskering_is_the_sum_of_monomial_ones(model, seed):
    """Whiskering by a polynomial walks t once for all its monomials, and
    builds the very node that whiskering monomial by monomial builds."""
    rng = Random(seed)
    fresh = Freshener(interpretation(model), rng)
    t = random_tape(fresh, rng, rng.randrange(3))
    s = rand_poly(rng, SORTS, 3, 2)
    assert whisker_left(s, t) is tsum(*(whisker_left_mono(u, t) for u in s))
    parts = tsum(*(whisker_right_mono(t, u) for u in s))
    right = whisker_right(t, s, fresh.sig)
    if len(s) > 1:
        assert isinstance(right, TSeq) and isinstance(right.first, TSeq)
        right = right.first.second      # between the two distributors
    assert right is parts


@pytest.mark.parametrize("model", ["PCA", "CM"])
def test_every_monomial_field_is_a_monomial(monkeypatch, model):
    """A Monomial equals the plain tuple of its sort names, and the intern
    table compares keys with ==, so a node built from a plain tuple would
    be handed back for the equal Monomial and print without it.  The
    suites construct every node with a real Monomial in each monomial
    field, and every live node holds one (all are kept alive for the
    check)."""
    fields = {TIdMon: ("mono",), TCobang: ("mono",), TCodiag: ("mono",),
              TOpInj: ("mono",), TSymPlus: ("left", "right")}
    kept, new = [], hashcons.Term.__new__

    def keeping(cls, *args, **kwargs):
        given = {**dict(zip(cls.__match_args__, args)), **kwargs}
        for name in fields.get(cls, ()):
            assert type(given[name]) is Monomial, (cls, given)
        kept.append(new(cls, *args, **kwargs))
        return kept[-1]

    monkeypatch.setattr(hashcons.Term, "__new__", keeping)
    interp = standard_interpretation(model)
    bounds = SuiteBounds(mono_len=1, poly_len=2, samples=1, max_tuples=12)
    assert axiom_suite(interp, bounds, seed=2).failed == 0
    assert lemma_suite(interp, bounds, seed=2).failed == 0
    seen = set()
    for entry in list(hashcons._LIVE.values()):
        node = entry()
        for name in fields.get(type(node), ()):
            assert type(getattr(node, name)) is Monomial, node
            seen.add(type(node))
    assert seen == set(fields)
