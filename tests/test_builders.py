"""The structural tape builders against their recursive definitions.

``tape`` builds each structural tape with a loop over the suffixes of a
polynomial and keeps every tape it built in a weak-valued memo.  The
references below are the recursive definitions, one call per monomial,
with no memo.  Terms are hash-consed, so a builder agrees with its
reference exactly when both return the very same node.
"""

import gc
import weakref
from fractions import Fraction
from random import Random

from hypothesis import given, settings, strategies as st

from tapecalc import tape
from tapecalc.circuit import (MonSignature, copier_circuit, discharger_circuit,
                              sym_circuit)
from tapecalc.objects import (ONE, Polynomial, ZERO, mono, nfold_sum, poly,
                              poly_of_mono)
from tapecalc.suites import rand_poly
from tapecalc.tape import (TCirc, TCobang, TCodiag, TIdMon, TIdZero, TOpInj,
                           TSymPlus, as_poly, tseq, tsum, type_of_tape)
from tapecalc.theory import OpSymbol, choice


# --- the recursive references --------------------------------------------------

def ref_id_tape(p):
    return tsum(*(TIdMon(u) for u in as_poly(p)))


def ref_cobang_tape(p):
    return tsum(*(TCobang(u) for u in as_poly(p)))


def ref_symplus_tape(p, q):
    p, q = as_poly(p), as_poly(q)

    def mono_vs_poly(u, q):
        if q.is_zero:
            return TIdMon(u)
        w, q_rest = q[0], Polynomial(q[1:])
        return tseq(tsum(TSymPlus(u, w), ref_id_tape(q_rest)),
                    tsum(TIdMon(w), mono_vs_poly(u, q_rest)))

    if p.is_zero:
        return ref_id_tape(q)
    if q.is_zero:
        return ref_id_tape(p)
    u, p_rest = p[0], Polynomial(p[1:])
    return tseq(tsum(TIdMon(u), ref_symplus_tape(p_rest, q)),
                tsum(mono_vs_poly(u, q), ref_id_tape(p_rest)))


def ref_codiag_tape(p):
    p = as_poly(p)
    if p.is_zero:
        return TIdZero()
    u, p_rest = p[0], Polynomial(p[1:])
    shuffle = tsum(TIdMon(u), ref_symplus_tape(p_rest, poly_of_mono(u)),
                   ref_id_tape(p_rest))
    return tseq(shuffle, tsum(TCodiag(u), ref_codiag_tape(p_rest)))


def ref_distributor(p, q, r, inverse=False):
    p, q, r = as_poly(p), as_poly(q), as_poly(r)
    if p.is_zero:
        return TIdZero()
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
        return TIdZero()
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
        return TIdZero()
    v, q_rest = q[0], Polynomial(q[1:])
    blocks = tsum(*(TCirc(sym_circuit(u, v)) for u in p))
    return tseq(ref_distributor(p, poly_of_mono(v), q_rest),
                tsum(blocks, ref_symtensor_tape(p, q_rest)))


def ref_op_inj_tape(op, p):
    p = as_poly(p)
    if p.is_zero:
        return TIdZero()
    if len(p) == 1:
        return TOpInj(op, p[0])
    u, p_rest = p[0], Polynomial(p[1:])
    n_ones = nfold_sum(poly_of_mono(ONE), op.arity)
    return tseq(tsum(TOpInj(op, u), ref_op_inj_tape(op, p_rest)),
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
        return TIdZero()
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
        return TCobang(ONE)
    u, p_rest = p[0], Polynomial(p[1:])
    if p_rest.is_zero:
        return TCirc(discharger_circuit(u))
    return tseq(tsum(TCirc(discharger_circuit(u)), ref_discharger_tape(p_rest)),
                TCodiag(ONE))


# --- random calls -----------------------------------------------------------------

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
        assert t is ref(*args), (built.__name__, args)
        if rng.random() < 0.5:
            kept.append(t)


def test_builders_on_the_empty_and_unit_polynomials():
    for p in (ZERO, poly(()), mono(), poly((), ()), poly(("A",), ())):
        assert tape.codiag_tape(p) is ref_codiag_tape(p)
        assert tape.copier_tape(p) is ref_copier_tape(p)
        assert tape.discharger_tape(p) is ref_discharger_tape(p)
        assert tape.symplus_tape(p, p) is ref_symplus_tape(p, p)
        for inverse in (False, True):
            assert tape.distributor(p, p, p, inverse) is \
                ref_distributor(p, p, p, inverse)


def test_long_polynomial_needs_no_recursion():
    """A polynomial of 1100 monomials, past the default recursion limit:
    the references recurse once per monomial, the builders loop."""
    a = poly(("A",))
    p = nfold_sum(a, 1100)
    sig = MonSignature(("A",), {})
    assert type_of_tape(tape.codiag_tape(p), sig) == (p + p, p)
    assert type_of_tape(tape.nfold_codiag(a, 1100), sig) == (p, a)
    assert type_of_tape(tape.symplus_tape(p, a), sig) == (p + a, a + p)
    assert type_of_tape(tape.symplus_tape(a, p), sig) == (a + p, p + a)
    assert type_of_tape(tape.discharger_tape(p), sig) == (p, poly(()))


def test_memo_keeps_nothing_alive():
    """A built tape dies with its last reference outside the memo, and its
    entry goes with it."""
    p, q, r = poly(("Dead1",), ("Dead2",)), poly(("Dead3",)), poly(("Dead4",))
    key = ("distributor", p, q, r, False)
    t = tape.distributor(p, q, r)
    assert tape._BUILT.get(key) is t
    ref = weakref.ref(t)
    del t
    gc.collect()
    assert ref() is None
    assert key not in tape._BUILT.data


def test_repeated_monomial_builds_in_linear_constructions(monkeypatch):
    """id_tape extends the longest prefix it has built already, so the
    codiagonal of n copies of one monomial, which needs the identity of
    every shorter run of copies, constructs O(n) nodes, not n^2/2."""
    constructed = []
    new = tape.Term.__new__

    def counting(cls, *args, **kwargs):
        constructed.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(tape.Term, "__new__", counting)
    for n in (100, 400):
        p = nfold_sum(poly((f"Linear{n}",)), n)
        constructed.clear()
        tape.codiag_tape(p)
        assert len(constructed) <= 20 * n, n
