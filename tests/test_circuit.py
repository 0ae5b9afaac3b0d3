"""Circuit typing and the derived structural circuits."""

import itertools

import pytest

from tapecalc import hashcons
from tapecalc.circuit import (CCopier, CDischarger, CGen, CIdOne, CIdSort,
                              CSeq, CTensor, MonSignature,
                              copier_circuit, discharger_circuit,
                              identity_circuit, sym_circuit, type_of_circuit)
from tapecalc.errors import TypeCheckError, UnknownGeneratorError, UnknownSortError
from tapecalc.interp import Interpretation, eval_circuit
from tapecalc.kleisli import Matrix, model_for
from tapecalc.objects import Monomial, ONE, mono
from tapecalc.theory import builtin_theory

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
    assert type_of_circuit(CIdOne(), SIG) == (ONE, ONE)


def test_copier_then_discard_type():
    c = CSeq(CCopier("A"), CTensor(CIdSort("A"), CDischarger("A")))
    assert type_of_circuit(c, SIG) == (mono("A"), mono("A"))


def test_type_errors():
    with pytest.raises(UnknownGeneratorError):
        type_of_circuit(CGen("XOR"), SIG)
    with pytest.raises(TypeCheckError):
        type_of_circuit(CSeq(CGen("AND"), CGen("AND")), SIG)
    with pytest.raises(UnknownSortError):
        type_of_circuit(CIdSort("Z"), SIG)


def test_sym_base_cases():
    w = mono("A", "B")
    assert sym_circuit(ONE, w) == identity_circuit(w)
    assert sym_circuit(w, ONE) == identity_circuit(w)
    assert copier_circuit(ONE) == CIdOne()
    assert discharger_circuit(ONE) == CIdOne()


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
    """Each identity of a suffix is built once a call, so doubling the
    word's length multiplies the constructions by about 4, not 8."""
    counts = [count_constructions(lambda: build(Monomial(("A", "B") * n)))
              for n in (50, 100)]
    assert counts[1] <= 4.5 * counts[0], counts


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
            m = eval_circuit(sym_circuit(u, v), INTERP)
            nu, nv = carrier(u), carrier(v)
            assert m.is_permutation()
            for x in range(nu):
                for y in range(nv):
                    assert m.entry(y * nu + x, x * nv + y) == 1


def test_copier_semantics_is_canonical_copy():
    for u in monomials():
        m = eval_circuit(copier_circuit(u), INTERP)
        n = carrier(u)
        expected = Matrix.make(n, n * n, ((x * n + x, x, 1) for x in range(n)))
        assert m == expected


def test_comonoid_laws_semantically():
    for u in monomials():
        cop = copier_circuit(u)
        disc = discharger_circuit(u)
        i = identity_circuit(u)
        lhs = eval_circuit(CSeq(cop, CTensor(cop, i)), INTERP)
        rhs = eval_circuit(CSeq(cop, CTensor(i, cop)), INTERP)
        assert lhs == rhs
        left_unit = eval_circuit(CSeq(cop, CTensor(disc, i)), INTERP)
        right_unit = eval_circuit(CSeq(cop, CTensor(i, disc)), INTERP)
        assert left_unit == right_unit == Matrix.identity(carrier(u))
        assert eval_circuit(CSeq(cop, sym_circuit(u, u)), INTERP) == \
            eval_circuit(cop, INTERP)


def test_and_gate_semantics():
    m = eval_circuit(CGen("AND"), INTERP)
    truth = {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1}
    for (x, y), out in truth.items():
        col = x * 2 + y
        assert m.entry(out, col) == 1
        assert m.entry(1 - out, col) == 0
