"""Tape typing and every derived construction, checked semantically."""

import itertools
from fractions import Fraction
from random import Random

import pytest

from tapecalc.circuit import CGen, MonSignature
from tapecalc.errors import (TypeCheckError, UnknownGeneratorError,
                             UnknownSortError)
from tapecalc.interp import carrier_of, eval_tape, prod_index
from tapecalc.kleisli import Matrix
from tapecalc.objects import (Monomial, ONE, Polynomial, ZERO, mono,
                              poly, poly_of_mono)
from tapecalc.suites import Freshener, sem_eq, standard_interpretation
from tapecalc.tape import (TCirc, TSeq, cobang_tape, codiag_tape,
                           copier_tape, discharger_tape, distributor, id_tape,
                           nfold_codiag, op_inj_tape, symplus_tape,
                           symtensor_tape, tape_types, tensor_tape, term_tape,
                           tseq, tsum, type_of_tape, whisker_left,
                           whisker_left_mono, whisker_right, whisker_right_mono)
from tapecalc.theory import App, STAR, Var, choice

from full_trees import expand

H = Fraction(1, 2)
INTERP = standard_interpretation()
SIG = INTERP.sig
A, B = mono("A"), mono("B")
pA, pB = poly_of_mono(A), poly_of_mono(B)


def polynomials(max_monos=2, max_len=2):
    monos = []
    for n in range(max_len + 1):
        monos.extend(Monomial(t) for t in itertools.product(("A", "B"), repeat=n))
    out = []
    for n in range(max_monos + 1):
        out.extend(Polynomial(t) for t in itertools.product(monos, repeat=n))
    return out


def assert_equal_tapes(t1, t2, interp=INTERP):
    result = sem_eq(t1, t2, interp)
    assert result.equal, result


# --- typing ---------------------------------------------------------------------

def test_codiag_type():
    assert type_of_tape(codiag_tape(A), SIG) == (pA + pA, pA)


def test_op_inj_type():
    assert type_of_tape(op_inj_tape(choice(H), A), SIG) == (pA, pA + pA)
    assert type_of_tape(op_inj_tape(STAR, A), SIG) == (pA, ZERO)


def test_id_zero_type():
    assert type_of_tape(id_tape(ZERO), SIG) == (ZERO, ZERO)


def test_seq_mismatch():
    with pytest.raises(TypeCheckError):
        type_of_tape(TSeq(id_tape(A), id_tape(B)), SIG)


def test_every_primitive_checks_its_sorts():
    """Each generator, a builder call at one monomial, and a block tape on
    either side raise on a sort that the signature lacks, with the
    generator's error text."""
    sig = MonSignature(("A",), {})
    z, az = mono("Z"), poly(("A",), ("Z",))
    for t in (id_tape(z), cobang_tape(z), codiag_tape(z), symplus_tape(A, z),
              symplus_tape(z, A), op_inj_tape(choice(H), z), id_tape(az),
              cobang_tape(az), codiag_tape(az), symplus_tape(pA, az)):
        with pytest.raises(UnknownSortError, match="unregistered sort: Z$"):
            type_of_tape(t, sig)


def test_a_kept_type_answers_only_under_its_signature():
    """A root keeps its type under the signature object it was typed
    under; under another, even an equal one, it is typed again, so a
    signature that lacks its generator still raises, and the error is
    not kept."""
    gen = {"kept_g": (A, A)}
    with_g, without_g = MonSignature(("A",), gen), MonSignature(("A",), {})
    t = tseq(TCirc(CGen("kept_g")), id_tape(A))
    assert type_of_tape(t, with_g) == (pA, pA)
    assert t.__dict__["typed"] == (with_g, ((A,), (A,)))
    with pytest.raises(UnknownGeneratorError):
        type_of_tape(t, without_g)
    assert t.__dict__["typed"][0] is with_g
    equal = MonSignature(("A",), gen)
    assert type_of_tape(t, equal) == (pA, pA)
    assert t.__dict__["typed"][0] is equal


@pytest.mark.parametrize("leaf", ["x", 3, (A,)])
def test_a_child_that_is_not_a_term_is_a_type_error(leaf):
    """A child that is not a term fails the walk with the type error that
    names it, the nodes above it keep no type, and the node typed before
    it keeps its own."""
    t = tseq(id_tape(A), TSeq(id_tape(A), leaf))
    with pytest.raises(TypeCheckError, match=r"^not a tape term: "):
        type_of_tape(t, SIG)
    assert "typed" not in t.__dict__
    assert id_tape(A).__dict__["typed"][0] is SIG


# --- structural sums ---------------------------------------------------------------

def test_codiag_over_sum_type():
    p = poly(("A",), ("B",), ("A", "B"))
    t = codiag_tape(p)
    assert type_of_tape(t, SIG) == (p + p, p)


def test_symplus_zero_clause():
    q = pA + pB
    assert symplus_tape(ZERO, q) == id_tape(q)


def test_id_tape_semantics():
    p = poly(("A",), ("A", "B"))
    assert eval_tape(id_tape(p), INTERP) == Matrix.identity(carrier_of(p, INTERP))


def test_symplus_block_swap():
    for p in (pA, pA + pB, poly_of_mono(ONE) + pA):
        for q in (pB, pA + pA):
            m = eval_tape(symplus_tape(p, q), INTERP)
            np, nq = carrier_of(p, INTERP), carrier_of(q, INTERP)
            for x in range(np):
                assert m.entry(nq + x, x) == 1
            for y in range(nq):
                assert m.entry(y, np + y) == 1


def test_codiag_semantics_all_polys():
    for p in polynomials():
        m = eval_tape(codiag_tape(p), INTERP)
        n = carrier_of(p, INTERP)
        expected = Matrix.make(2 * n, n, [(i, i, 1) for i in range(n)] +
                               [(i, n + i, 1) for i in range(n)])
        assert m == expected


# --- distributor --------------------------------------------------------------------

def test_distributor_on_monomial_is_identity():
    t = distributor(pA, pB, pB + pA)
    assert_equal_tapes(t, id_tape(pA * (pB + pB + pA)))


def test_distributor_inverse():
    rng = Random(3)
    for p in (pA + pB, poly(("A", "B"), ()), pA):
        for q, r in ((pB, pA), (pA + pA, poly_of_mono(ONE))):
            around = tseq(distributor(p, q, r), distributor(p, q, r, inverse=True))
            assert_equal_tapes(around, id_tape(p * (q + r)))


def test_distributor_is_transported_index_bijection():
    for p in (pA + pB, poly(("A", "B"), ("B",))):
        for q, r in ((pA, pB), (pB + pA, poly_of_mono(ONE))):
            m = eval_tape(distributor(p, q, r), INTERP)
            assert m.is_permutation()
            idx_dom = prod_index(p, q + r, INTERP)
            idx_q = prod_index(p, q, INTERP)
            idx_r = prod_index(p, r, INTERP)
            nq = carrier_of(q, INTERP)
            npq = carrier_of(p * q, INTERP)
            for x in range(carrier_of(p, INTERP)):
                for w in range(carrier_of(q + r, INTERP)):
                    src = idx_dom(x, w)
                    dst = idx_q(x, w) if w < nq else npq + idx_r(x, w - nq)
                    assert m.entry(dst, src) == 1


# --- tensor symmetry and operation branchings -----------------------------------------

def test_symtensor_zero_clause():
    assert symtensor_tape(pA + pB, ZERO) is id_tape(ZERO)


def test_symtensor_on_sorts_is_transpose():
    m = eval_tape(symtensor_tape(pA, pB), INTERP)
    na, nb = 2, 3
    for x in range(na):
        for y in range(nb):
            assert m.entry(y * na + x, x * nb + y) == 1


def test_symtensor_invertible():
    for p in (pA + pB, poly(("A", "B"), ())):
        for q in (pB, pA + pA):
            t = tseq(symtensor_tape(p, q), symtensor_tape(q, p))
            assert_equal_tapes(t, id_tape(p * q))


def test_op_inj_zero_clause():
    assert op_inj_tape(choice(H), ZERO) is id_tape(ZERO)


def test_op_inj_on_sort_semantics():
    m = eval_tape(op_inj_tape(choice(Fraction(1, 3)), A), INTERP)
    assert m.to_rows() == [[Fraction(1, 3), 0], [0, Fraction(1, 3)],
                           [Fraction(2, 3), 0], [0, Fraction(2, 3)]]


def test_op_inj_poly_is_blockwise():
    p = pA + pB
    op = choice(H)
    m = eval_tape(op_inj_tape(op, p), INTERP)
    n = carrier_of(p, INTERP)
    expected = Matrix.make(n, 2 * n,
                           [(i, i, H) for i in range(n)] +
                           [(n + i, i, H) for i in range(n)])
    assert m == expected


def test_op_inj_naturality():
    rng = Random(4)
    fresh = Freshener(INTERP, rng)
    p, q = pA + pB, poly_of_mono(ONE) + pA
    h = fresh.tape(p, q)
    op = choice(Fraction(2, 5))
    lhs = tseq(h, op_inj_tape(op, q))
    rhs = tseq(op_inj_tape(op, p), tsum(h, h))
    result = sem_eq(lhs, rhs, fresh.interp())
    assert result.equal, result


# --- whiskerings -------------------------------------------------------------------

def test_whisker_circuit_clause():
    fresh = Freshener(INTERP, Random(5))
    c = fresh.circuit(A, B)
    t = whisker_left_mono(mono("B"), TCirc(c))
    dom, cod = type_of_tape(t, fresh.sig)
    assert (dom, cod) == (poly_of_mono(mono("B", "A")), poly_of_mono(mono("B", "B")))


def test_whisker_zero_clause():
    assert whisker_left(ZERO, codiag_tape(A)) is id_tape(ZERO)
    assert whisker_right(codiag_tape(A), ZERO, SIG) is id_tape(ZERO)


def test_whisker_op_inj_clause():
    """<f>_A <| B and B |> <f>_A have the full trees <f>_{AB} and
    <f>_{BA}, and their types and matrices."""
    op = choice(H)
    for w, grown in ((whisker_right_mono(op_inj_tape(op, A), B),
                      op_inj_tape(op, mono("A", "B"))),
                     (whisker_left_mono(B, op_inj_tape(op, A)),
                      op_inj_tape(op, mono("B", "A")))):
        assert expand(w) is grown
        assert type_of_tape(w, SIG) == type_of_tape(grown, SIG)
        assert eval_tape(w, INTERP) == eval_tape(grown, INTERP)


@pytest.mark.parametrize("t", [id_tape(ZERO),
                               TSeq(id_tape(ZERO), id_tape(ZERO))])
def test_a_zero_tape_whiskers_like_any_other_tape(t):
    """B |> t and t <| B name the unregistered sort B for the identity on
    0 as for a composite of 0 -> 0, though neither type holds a sort."""
    sig = MonSignature(("A",))
    for w in (whisker_left_mono(mono("B"), t), whisker_right_mono(t, mono("B"))):
        with pytest.raises(UnknownSortError, match="^unregistered sort: B$"):
            tape_types((w,), sig)


def test_tensor_with_identity_is_whiskering():
    fresh = Freshener(INTERP, Random(6))
    p, q = pA, pB + poly_of_mono(ONE)
    t = fresh.tape(p, q)
    s = pB + pA
    lhs = tensor_tape(id_tape(s), t, fresh.sig)
    rhs = whisker_left(s, t)
    result = sem_eq(lhs, rhs, fresh.interp())
    assert result.equal, result


def test_tensor_interchange():
    fresh = Freshener(INTERP, Random(7))
    t1 = fresh.tape(pA, pB)
    t2 = fresh.tape(pB, pA + pB)
    s1 = fresh.tape(pB, pA)
    s2 = fresh.tape(pA + pB, pB)
    sig = fresh.sig
    lhs = tseq(tensor_tape(t1, t2, sig), tensor_tape(s1, s2, sig))
    rhs = tensor_tape(tseq(t1, s1), tseq(t2, s2), sig)
    result = sem_eq(lhs, rhs, fresh.interp())
    assert result.equal, result


# --- term branchings -----------------------------------------------------------------

def test_term_tape_variable_is_identity():
    assert_equal_tapes(term_tape(Var(1), A, 1), id_tape(pA))


def test_term_tape_single_op_matches_op_inj():
    term = App(choice(H), (Var(1), Var(2)))
    assert_equal_tapes(term_tape(term, A, 2), op_inj_tape(choice(H), A))


def test_term_tape_drawn_example_weight():
    # (star +_p x1) +_q x1 keeps the input with weight q(1-p) + (1-q)
    p, q = Fraction(1, 3), Fraction(1, 2)
    term = App(choice(q), (App(choice(p), (App(STAR, ()), Var(1))), Var(1)))
    w = q * (1 - p) + (1 - q)
    m = eval_tape(term_tape(term, A, 1), INTERP)
    assert m.to_rows() == [[w, 0], [0, w]]


def test_nfold_codiag_conventions():
    assert nfold_codiag(pA, 0) == cobang_tape(pA)
    assert nfold_codiag(pA, 1) == id_tape(pA)
    m = eval_tape(nfold_codiag(pA, 3), INTERP)
    expected = Matrix.make(6, 2, ((i % 2, i, 1) for i in range(6)))
    assert m == expected


# --- polynomial copy/discard -----------------------------------------------------------

def test_copier_type_on_two_sorts():
    t = copier_tape(pA + pB)
    dom, cod = type_of_tape(t, SIG)
    assert dom == pA + pB
    assert cod == poly(("A", "A"), ("A", "B"), ("B", "A"), ("B", "B"))


def test_copier_base_clause():
    assert copier_tape(ZERO) is id_tape(ZERO)
    assert discharger_tape(ZERO) is cobang_tape(ONE)


def test_copier_is_canonical_copy():
    for p in polynomials():
        m = eval_tape(copier_tape(p), INTERP)
        idx = prod_index(p, p, INTERP)
        n = carrier_of(p, INTERP)
        expected = Matrix.make(n, carrier_of(p * p, INTERP),
                               ((idx(x, x), x, 1) for x in range(n)))
        assert m == expected


def test_discharger_is_all_ones():
    for p in polynomials():
        m = eval_tape(discharger_tape(p), INTERP)
        n = carrier_of(p, INTERP)
        assert m == Matrix.make(n, 1, ((0, x, 1) for x in range(n)))
