"""Hash-consed terms and the DAG walkers.

Equal constructions give one node, each distinct subterm is typed and
evaluated once a call, deep terms need no recursion, and the DAG
evaluator agrees with the tree-recursive reference evaluator below.
"""

import copy
import dataclasses
import gc
import pickle
import weakref
from fractions import Fraction
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from tapecalc import kleisli, suites
from tapecalc.circuit import (CCopier, CDischarger, CGen, CIdOne, CIdSort,
                              CSeq, CSym, CTensor, MonSignature,
                              type_of_circuit)
from tapecalc.errors import ModelError
from tapecalc.interp import Interpretation, eval_circuit, eval_tape
from tapecalc.kleisli import Matrix, model_for, op_matrix
from tapecalc.objects import mono, poly
from tapecalc.suites import Freshener, rand_poly, sem_eq, standard_interpretation
from tapecalc.tape import (TCirc, TCobang, TCodiag, TIdMon, TIdZero, TOpInj,
                           TSeq, TSum, TSymPlus, distributor, id_tape,
                           tensor_tape, tseq, tsum, type_of_tape, whisker_left,
                           whisker_left_mono, whisker_right,
                           whisker_right_mono)
from tapecalc.theory import builtin_theory


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
        return whisker_left(random_poly(rng), t, sig)
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
    assert eval_tape(t, interp) == ref_eval_tape(t, interp)


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
    with mock.patch.object(suites, "eval_tape", ref_eval_tape):
        assert verdicts == [sem_eq(a, b, interp) for a, b in pairs]
    assert verdicts[0].equal and verdicts[1].equal


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
    assert eval_circuit(deep_circuit, interp) == Matrix.from_rows([[0, 1], [1, 0]])
    assert whisker_right_mono(chain, mono("A")) is tseq(
        *[whisker_right_mono(s, mono("A")) for s in steps])
