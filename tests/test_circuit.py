"""Circuit typing and the derived structural circuits.

``sym_circuit``, ``copier_circuit``, ``discharger_circuit`` and
``identity_circuit`` return one ``CBlock`` node, their call, at one sort
as at many; a call with nothing to do returns the identity on 1.  The
references are the trees the inductive clauses build (``full_trees``),
whose leaves are the one-sort calls.  A block circuit agrees with its
tree when both have the same type, the same matrix, the same first error
(class and text) and the same whiskerings, over words of 0 to 3 sorts
and carriers of 0 to 3 elements.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tapecalc import circuit, hashcons
from tapecalc.circuit import (CBlock, CGen, CSeq, CTensor, MonSignature,
                              copier_circuit, ctensor,
                              discharger_circuit, identity_circuit,
                              sym_circuit, type_of_circuit)
from tapecalc.errors import (TapecalcError, TypeCheckError,
                             UnknownGeneratorError, UnknownSortError)
from tapecalc.interp import Interpretation, eval_tape
from tapecalc.kleisli import Matrix, model_for
from tapecalc.objects import Monomial, ONE, mono
from tapecalc.tape import (TCirc, type_of_tape, whisker_left_mono,
                           whisker_right_mono)
from tapecalc.theory import builtin_theory

import full_trees
from full_trees import expand

SIG = MonSignature(("A", "B"), {
    "AND": (mono("A", "A"), mono("A")),
    "NOT": (mono("A"), mono("A")),
})

INTERP = Interpretation(
    SIG, {"A": 2, "B": 3},
    {"AND": Matrix.from_rows([[1, 1, 1, 0], [0, 0, 0, 1]]),
     "NOT": Matrix.from_rows([[0, 1], [1, 0]])},
    model_for(builtin_theory("CM")))


def monomials(max_len=2):
    out = []
    for n in range(max_len + 1):
        out.extend(Monomial(t) for t in itertools.product(("A", "B"), repeat=n))
    return out


def test_generator_type():
    assert type_of_circuit(CGen("AND"), SIG) == (mono("A", "A"), mono("A"))


def test_id_one_type():
    assert type_of_circuit(identity_circuit(ONE), SIG) == (ONE, ONE)


def test_copier_then_discard_type():
    a = mono("A")
    c = CSeq(copier_circuit(a),
             CTensor(identity_circuit(a), discharger_circuit(a)))
    assert type_of_circuit(c, SIG) == (mono("A"), mono("A"))


def test_type_errors():
    with pytest.raises(UnknownGeneratorError):
        type_of_circuit(CGen("XOR"), SIG)
    with pytest.raises(TypeCheckError):
        type_of_circuit(CSeq(CGen("AND"), CGen("AND")), SIG)
    with pytest.raises(UnknownSortError):
        type_of_circuit(identity_circuit(mono("Z")), SIG)


def test_sym_base_cases():
    w = mono("A", "B")
    assert sym_circuit(ONE, w) == identity_circuit(w)
    assert sym_circuit(w, ONE) == identity_circuit(w)
    assert copier_circuit(ONE) is identity_circuit(ONE)
    assert discharger_circuit(ONE) is identity_circuit(ONE)


def count_constructions(build):
    """The number of nodes build() constructs, or finds interned."""
    calls = []
    new = hashcons.Term.__new__

    def counting(cls, *args, **kwargs):
        calls.append(cls)
        return new(cls, *args, **kwargs)

    hashcons.Term.__new__ = counting
    try:
        build()
    finally:
        hashcons.Term.__new__ = new
    return len(calls)


@pytest.mark.parametrize("build", [
    lambda w: sym_circuit(w, mono("A")), lambda w: sym_circuit(mono("A"), w),
    lambda w: sym_circuit(w, w), copier_circuit,
], ids=["sym-long-left", "sym-long-right", "sym-both-long", "copy"])
def test_long_words_build_in_quadratic_constructions(build):
    """A structural circuit of long words is one ``CBlock``, its builder
    call, and no tree of it is built: doubling the words' length leaves
    the number of constructions the same."""
    counts = [count_constructions(lambda: build(Monomial(("A", "B") * n)))
              for n in (50, 100)]
    assert counts[0] == counts[1] == 1, counts


def test_structural_types():
    for u in monomials():
        for v in monomials():
            s = sym_circuit(u, v)
            assert type_of_circuit(s, SIG) == (u * v, v * u)
        assert type_of_circuit(copier_circuit(u), SIG) == (u, u * u)
        assert type_of_circuit(discharger_circuit(u), SIG) == (u, ONE)


def carrier(u):
    return INTERP.mono_size(u)


def test_sym_semantics_is_block_transpose():
    for u in monomials():
        for v in monomials():
            m = eval_tape(sym_circuit(u, v), INTERP)
            nu, nv = carrier(u), carrier(v)
            assert m.is_permutation()
            for x in range(nu):
                for y in range(nv):
                    assert m.entry(y * nu + x, x * nv + y) == 1


def test_copier_semantics_is_canonical_copy():
    for u in monomials():
        m = eval_tape(copier_circuit(u), INTERP)
        n = carrier(u)
        expected = Matrix.make(n, n * n, ((x * n + x, x, 1) for x in range(n)))
        assert m == expected


def test_comonoid_laws_semantically():
    for u in monomials():
        cop = copier_circuit(u)
        disc = discharger_circuit(u)
        i = identity_circuit(u)
        lhs = eval_tape(CSeq(cop, CTensor(cop, i)), INTERP)
        rhs = eval_tape(CSeq(cop, CTensor(i, cop)), INTERP)
        assert lhs == rhs
        left_unit = eval_tape(CSeq(cop, CTensor(disc, i)), INTERP)
        right_unit = eval_tape(CSeq(cop, CTensor(i, disc)), INTERP)
        assert left_unit == right_unit == Matrix.identity(carrier(u))
        assert eval_tape(CSeq(cop, sym_circuit(u, u)), INTERP) == \
            eval_tape(cop, INTERP)


def test_and_gate_semantics():
    m = eval_tape(CGen("AND"), INTERP)
    truth = {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1}
    for (x, y), out in truth.items():
        col = x * 2 + y
        assert m.entry(out, col) == 1
        assert m.entry(1 - out, col) == 0


# --- block circuits against their trees -----------------------------------------

SORTS = ("A", "B", "C")
MODEL = model_for(builtin_theory("PCA", (Fraction(1, 2),)))

words = st.lists(st.sampled_from(SORTS), max_size=3).map(
    lambda sorts: Monomial(tuple(sorts)))
calls = st.one_of(
    st.tuples(st.just("sym_circuit"), st.tuples(words, words)),
    st.tuples(st.sampled_from(("copier_circuit", "discharger_circuit",
                               "identity_circuit")), st.tuples(words)))
sort_sets = st.sets(st.sampled_from(SORTS)).map(sorted)
carrier_maps = st.dictionaries(st.sampled_from(SORTS), st.integers(0, 3))


def outcome(f, *args):
    """f(*args), or the class and text of the error it raises."""
    try:
        return f(*args)
    except TapecalcError as exc:
        return exc.__class__, str(exc)


def same_matrix(got, expected):
    assert got == expected
    if isinstance(got, Matrix):
        assert (got.dom, got.cod) == (expected.dom, expected.cod)


@given(call=calls)
@settings(max_examples=300, deadline=None)
def test_a_call_is_one_block_or_its_one_primitive_node(call):
    """One ``CBlock``, a leaf of the full trees exactly when its words
    have at most one sort each, and then its own tree."""
    builder, args = call
    c = getattr(circuit, builder)(*args)
    tree = getattr(full_trees, builder)(*args)
    assert c.__class__ is CBlock
    assert full_trees.is_leaf(c) == all(len(w) <= 1 for w in args)
    if full_trees.is_leaf(c):
        assert c is tree
    assert expand(c) is tree


@given(call=calls, sorts=sort_sets)
@settings(max_examples=300, deadline=None)
def test_a_block_is_typed_as_its_tree(call, sorts):
    """The type, or the unregistered sort that the tree's walk names
    first."""
    builder, args = call
    sig = MonSignature(tuple(sorts))
    assert outcome(type_of_circuit, getattr(circuit, builder)(*args), sig) \
        == outcome(type_of_circuit, getattr(full_trees, builder)(*args), sig)


@given(call=calls, carriers=carrier_maps)
@settings(max_examples=300, deadline=None)
def test_a_block_evaluates_as_its_tree(call, carriers):
    """The matrix, or the sort that the tree's walk finds first with no
    carrier."""
    builder, args = call
    interp = Interpretation(MonSignature(SORTS), carriers, {}, MODEL)
    same_matrix(outcome(eval_tape, getattr(circuit, builder)(*args), interp),
                outcome(eval_tape, getattr(full_trees, builder)(*args), interp))


@given(call=calls, u=words, left=st.booleans(),
       carriers=st.tuples(*[st.integers(0, 3)] * len(SORTS)))
@settings(max_examples=300, deadline=None)
def test_a_block_is_whiskered_as_its_tree(call, u, left, carriers):
    """U |> [c] and [c] <| U put the identity on U beside c; their full
    trees, types and matrices are those of whiskering c's tree."""
    builder, args = call
    c = TCirc(getattr(circuit, builder)(*args))
    tree = getattr(full_trees, builder)(*args)
    ids = full_trees.identity_circuit(u)
    whiskered = whisker_left_mono(u, c) if left else whisker_right_mono(c, u)
    expected = TCirc(ctensor(ids, tree) if left else ctensor(tree, ids))
    assert expand(whiskered) is expected
    sig = MonSignature(SORTS)
    assert type_of_tape(whiskered, sig) == type_of_tape(expected, sig)
    interp = Interpretation(sig, dict(zip(SORTS, carriers)), {}, MODEL)
    same_matrix(eval_tape(whiskered, interp), eval_tape(expected, interp))
