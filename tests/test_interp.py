"""Interpretations, carriers and the compositional semantics."""

from fractions import Fraction
from random import Random

import pytest

from tapecalc.circuit import (CGen, CSeq, CTensor, MonSignature,
                              copier_circuit, identity_circuit)
from tapecalc.errors import DimensionError, ModelError
from tapecalc.interp import Interpretation, carrier_of, eval_tape, prod_index
from tapecalc.kleisli import Matrix, model_for
from tapecalc.objects import ONE, ZERO, mono, poly, poly_of_mono
from tapecalc.suites import Freshener, standard_interpretation
from tapecalc.tape import (TCirc, TSeq, TSum, TTerm, codiag_tape, id_tape,
                           op_inj_tape, tseq, tsum)
from tapecalc.theory import builtin_theory, choice

H = Fraction(1, 2)

SIG = MonSignature(("A", "B"), {
    "AND": (mono("A", "A"), mono("A")),
    "NOT": (mono("A"), mono("A")),
    "F1": (ONE, mono("A")),
})

INTERP = Interpretation(
    SIG, {"A": 2, "B": 3},
    {"AND": Matrix.from_rows([[1, 1, 1, 0], [0, 0, 0, 1]]),
     "NOT": Matrix.from_rows([[0, 1], [1, 0]]),
     "F1": Matrix.from_rows([[0], [1]])},
    model_for(builtin_theory("PCA", [H, Fraction(1, 3)])))


def test_carrier_sizes():
    assert carrier_of(poly(("A",), ("B",)), INTERP) == 5
    assert carrier_of(mono("A", "B"), INTERP) == 6
    assert carrier_of(ZERO, INTERP) == 0
    assert carrier_of(poly_of_mono(ONE), INTERP) == 1


def test_prod_index_left_major():
    p, q = poly_of_mono(mono("A")), poly_of_mono(mono("B"))
    idx = prod_index(p, q, INTERP)
    for x in range(2):
        for y in range(3):
            assert idx(x, y) == 3 * x + y


def test_prod_index_blocks():
    p = poly(("A",), ("B",))
    q = poly((), ("A",))
    idx = prod_index(p, q, INTERP)
    # blocks of p (x) q in order: A1, AA, B1, BA with sizes 2, 4, 3, 6
    assert idx(0, 0) == 0            # (A:0, unit)
    assert idx(1, 0) == 1
    assert idx(0, 1) == 2            # (A:0, A:0) in the AA block
    assert idx(2, 0) == 6            # (B:0, unit) in the B1 block
    assert idx(4, 2) == 9 + 2 * 2 + 1  # (B:2, A:1) in the BA block


def test_eval_and_gate():
    m = eval_tape(CGen("AND"), INTERP)
    assert m.to_rows() == [[1, 1, 1, 0], [0, 0, 0, 1]]


def test_eval_id_one():
    assert eval_tape(identity_circuit(ONE), INTERP) == Matrix.identity(1)


def test_eval_copier_then_not():
    a = mono("A")
    c = CSeq(copier_circuit(a), CTensor(CGen("NOT"), identity_circuit(a)))
    m = eval_tape(c, INTERP)
    # x maps to (not x, x): column x has a single 1 at row (1-x)*2 + x
    assert m.to_rows() == [[0, 0], [0, 1], [1, 0], [0, 0]]


def test_eval_flip():
    flip = tseq(op_inj_tape(choice(Fraction(1, 3)), ONE),
                tsum(TCirc(CGen("F1")),
                     TCirc(CSeq(CGen("F1"), CGen("NOT")))),
                codiag_tape(mono("A")))
    m = eval_tape(flip, INTERP)
    assert m.to_rows() == [[Fraction(2, 3)], [Fraction(1, 3)]]


def test_eval_id_zero():
    m = eval_tape(id_tape(ZERO), INTERP)
    assert (m.dom, m.cod) == (0, 0)


def test_functoriality_randomized():
    interp = standard_interpretation()
    fresh = Freshener(interp, Random(21))
    p, q, r = poly(("A",)), poly(("B",), ()), poly(("A", "B"))
    t1, t2 = fresh.tape(p, q), fresh.tape(q, r)
    extended = fresh.interp()
    assert eval_tape(TSeq(t1, t2), extended) == \
        eval_tape(t1, extended).then(eval_tape(t2, extended))
    assert eval_tape(TSum(t1, t2), extended) == \
        eval_tape(t1, extended).oplus(eval_tape(t2, extended))


def test_tensor_tape_is_transported_kronecker():
    from tapecalc.suites import rand_poly
    from tapecalc.tape import tensor_tape
    interp = standard_interpretation()
    for seed in range(6):
        rng = Random(100 + seed)
        fresh = Freshener(interp, rng)
        p, q = (rand_poly(rng, ("A", "B"), 2, 2) for _ in range(2))
        r, s = (rand_poly(rng, ("A", "B"), 2, 2) for _ in range(2))
        t1, t2 = fresh.tape(p, q), fresh.tape(r, s)
        extended = fresh.interp()
        m1 = eval_tape(t1, extended)
        m2 = eval_tape(t2, extended)
        mt = eval_tape(tensor_tape(t1, t2, fresh.sig), extended)
        idx_dom = prod_index(p, r, extended)
        idx_cod = prod_index(q, s, extended)
        for x1 in range(m1.dom):
            for x2 in range(m2.dom):
                for y1 in range(m1.cod):
                    for y2 in range(m2.cod):
                        assert mt.entry(idx_cod(y1, y2), idx_dom(x1, x2)) == \
                            m1.entry(y1, x1) * m2.entry(y2, x2)


def test_validation_catches_bad_dims():
    bad = Interpretation(
        SIG, {"A": 2, "B": 3},
        {"AND": Matrix.identity(2), "NOT": Matrix.identity(2),
         "F1": Matrix.from_rows([[0], [1]])},
        model_for(builtin_theory("PCA", [H])))
    with pytest.raises(DimensionError):
        bad.validate()


def test_validation_catches_missing_matrix():
    bad = Interpretation(SIG, {"A": 2, "B": 3}, {},
                         model_for(builtin_theory("PCA", [H])))
    with pytest.raises(ModelError):
        bad.validate()


@pytest.mark.parametrize("model, rows, message", [
    ("CM", [[H]], "weight that is not a natural number, as CM needs"),
    ("PCA", [[2, 0], [3, 1]], "column summing above 1, as PCA forbids"),
], ids=["CM-fraction", "PCA-column-above-1"])
def test_validation_rejects_a_matrix_outside_the_models_monad(model, rows,
                                                              message):
    """A generator's matrix is a morphism of the model's monad: natural
    weights for CM, columns summing to at most 1 for PCA."""
    sig = MonSignature(("A",), {"G": (mono("A"), mono("A"))})
    theory = builtin_theory(model, [H] if model == "PCA" else [])
    bad = Interpretation(sig, {"A": len(rows)},
                         {"G": Matrix.from_rows(rows)}, model_for(theory))
    with pytest.raises(ModelError, match=f"matrix of G has a {message}"):
        bad.validate()


def test_validation_accepts_partial_and_natural_matrices():
    """PCA allows columns summing below 1; CM allows any natural weight."""
    sig = MonSignature(("A",), {"G": (mono("A"), mono("A"))})
    for model, rows in (("PCA", [[H, 0], [0, 0]]), ("CM", [[2, 0], [3, 1]])):
        theory = builtin_theory(model, [H] if model == "PCA" else [])
        Interpretation(sig, {"A": 2}, {"G": Matrix.from_rows(rows)},
                       model_for(theory)).validate()


def test_copier_tensor_copier_is_a_row_map():
    """copier(P) (x) copier(P) at carriers (2, 3), P = A (+) AB (+) B, is a
    total function: it comes back as a row map, and each column's unit
    entry sits where the left-major/block carrier encoding puts it."""
    from tapecalc.tape import copier_tape, tensor_tape
    interp = standard_interpretation("PCA", carriers=(2, 3))
    size = {"A": 2, "B": 3}
    p = [("A",), ("A", "B"), ("B",)]
    pp = [u + v for u in p for v in p]

    def width(u):
        n = 1
        for s in u:
            n *= size[s]
        return n

    def split(q, z):                # carrier index of q -> (block, offset)
        for block, u in enumerate(q):
            if z < width(u):
                return block, z
            z -= width(u)

    def pair(q, r, x, y):           # (x in q, y in r) -> index in q (x) r
        (i, a), (j, b) = split(q, x), split(r, y)
        before = sum(width(u + v) for u, v in
                     [(u, v) for u in q for v in r][:i * len(r) + j])
        return before + a * width(r[j]) + b

    c = copier_tape(poly(*p))
    m = eval_tape(tensor_tape(c, c, interp.sig), interp)
    n = sum(map(width, p))
    assert (m.dom, m.cod) == (n * n, n ** 4) and m.image is not None
    expected = {pair(p, p, x1, x2):
                pair(pp, pp, pair(p, p, x1, x1), pair(p, p, x2, x2))
                for x1 in range(n) for x2 in range(n)}
    assert list(m.nonzeros()) == [(expected[z], z, 1) for z in range(n * n)]


def test_a_whiskered_leaf_is_tensored_on_the_right(monkeypatch):
    """U |> t and t <| U for a structural or branching t are both t's
    matrix tensored on the right with the identity on U, with no
    ``pairing`` and no type of t read: a row map for the structural t,
    equal to the block tape at the whiskered objects, and so for an
    operation's branching, under a signature with U's sorts and under
    one without t's."""
    from tapecalc import interp
    from tapecalc.tape import distributor, whisker_left_mono, whisker_right_mono
    p, q = poly(("A",), ("B",)), poly(("A", "B"))
    u = mono("B", "A")
    t, op = distributor(p, q, p, inverse=True), choice(H)
    cases = ((whisker_left_mono(u, t), distributor(poly_of_mono(u) * p, q, p,
                                                   inverse=True)),
             (whisker_right_mono(t, u), distributor(p, q * poly_of_mono(u),
                                                    p * poly_of_mono(u),
                                                    inverse=True)),
             (whisker_left_mono(u, op_inj_tape(op, mono("B"))),
              op_inj_tape(op, mono("B", "A", "B"))),
             (whisker_right_mono(op_inj_tape(op, mono("B")), u),
              op_inj_tape(op, mono("B", "B", "A"))))
    pairings, tensors = [], []
    tensor, pairing = Matrix.tensor, interp.pairing
    monkeypatch.setattr(Matrix, "tensor", lambda *args: (
        tensors.append(args[1]), tensor(*args))[1])
    monkeypatch.setattr(interp, "pairing", lambda *args: (
        pairings.append(args), pairing(*args))[1])
    unsorted = Interpretation(MonSignature(("A",), {}), INTERP.carriers, {},
                              INTERP.model)
    for whiskered, grown in cases:
        m = eval_tape(whiskered, INTERP)
        assert m == eval_tape(grown, INTERP)
        assert (m.image is not None) == (grown.__class__ is not TTerm)
        assert eval_tape(whiskered, unsorted) == m
    assert pairings == []
    assert tensors == [Matrix.identity(6)] * 8
