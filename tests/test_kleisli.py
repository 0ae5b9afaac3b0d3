"""The exact matrix kernel: composition, products, structural morphisms."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import tapecalc.kleisli as K
from tapecalc.errors import DimensionError, ModelError
from tapecalc.kleisli import (Matrix, NATURALS, RATIONALS, eval_vector,
                              model_for, model_soundness, op_matrix)
from tapecalc.suites import rand_natural, rand_substochastic
from tapecalc.theory import App, CM_PLUS, STAR, Var, builtin_theory, choice

H = Fraction(1, 2)


def flip(p):
    return Matrix.from_rows([[1 - p], [p]])


NOT = Matrix.from_rows([[0, 1], [1, 0]])


def test_compose_with_identity():
    rng = random.Random(5)
    m = rand_substochastic(3, 2, rng)
    assert Matrix.identity(3).then(m) == m
    assert m.then(Matrix.identity(2)) == m


def test_flip_then_not():
    assert flip(H).then(NOT) == Matrix.from_rows([[H], [H]])


def test_compose_equals_middle_sum():
    rng = random.Random(6)
    f = rand_substochastic(2, 2, rng)
    g = rand_substochastic(2, 2, rng)
    h = f.then(g)
    for x in range(2):
        for z in range(2):
            total = sum(f.entry(y, x) * g.entry(z, y) for y in range(2))
            assert h.entry(z, x) == total


def test_tensor_of_identities():
    assert Matrix.identity(2).tensor(Matrix.identity(3)) == Matrix.identity(6)


def test_oplus_blocks():
    rng = random.Random(7)
    f = rand_substochastic(2, 3, rng)
    g = rand_substochastic(2, 2, rng)
    s = f.oplus(g)
    for y in range(3):
        for x in range(2):
            assert s.entry(y, 2 + x) == 0
    for y in range(2):
        for x in range(2):
            assert s.entry(3 + y, x) == 0


def test_tensor_entry_is_product():
    m = flip(Fraction(1, 3)).tensor(flip(H))
    assert m.entry(1 * 2 + 1, 0) == Fraction(1, 6)


def test_dl_base_and_concrete():
    for y, z in itertools.product(range(4), repeat=2):
        d = K.dl(1, y, z)
        assert d == Matrix.identity(y + z)
    perm = {x: y for y, x, _ in K.dl(2, 1, 1).nonzeros()}
    assert perm == {0: 0, 1: 2, 2: 1, 3: 3}


def test_codiag_merges():
    m = K.codiag(2)
    for x in range(2):
        assert m.entry(x, x) == 1
        assert m.entry(x, 2 + x) == 1


def test_op_matrix_examples():
    pca = model_for(builtin_theory("PCA", [H]))
    star = op_matrix(STAR, pca, 3)
    assert (star.dom, star.cod) == (3, 0)
    assert op_matrix(choice(H), pca, 1) == Matrix.from_rows([[H], [H]])
    cm = model_for(builtin_theory("CM"))
    stacked = op_matrix(CM_PLUS, cm, 2)
    assert stacked.to_rows() == [[1, 0], [0, 1], [1, 0], [0, 1]]


def test_eval_vector_and_soundness():
    pca = model_for(builtin_theory("PCA", [H, Fraction(1, 3)]))
    idem = App(choice(H), (Var(1), Var(1)))
    assert eval_vector(idem, 1, pca) == (Fraction(1),)
    lhs = App(choice(H), (App(choice(Fraction(1, 3)), (Var(1), Var(2))), Var(3)))
    assert eval_vector(lhs, 3, pca) == (Fraction(1, 6), Fraction(1, 3), H)
    assert model_soundness(pca) == []
    cm = model_for(builtin_theory("CM"))
    swap = App(CM_PLUS, (Var(2), Var(1)))
    assert eval_vector(swap, 2, cm) == (1, 1)
    assert model_soundness(cm) == []


def test_unsound_weights_detected():
    theory = builtin_theory("PCA", [H])
    bad = {op: ((Fraction(1, 4), Fraction(3, 4)) if op.params else ())
           for op in theory.ops}
    model = K.TheoryModel(theory, RATIONALS, bad)
    assert model_soundness(model) != []


def test_canonical_model_is_one_read_only_model_per_theory():
    """model_for returns one model per theory, and builtin_theory one
    theory per (name, params); the model's weights refuse assignment, as
    its soundness is computed once.  A hand-made model over the same
    theory is checked on each call."""
    model = model_for(builtin_theory("PCA", (H,)))
    assert model_for(builtin_theory("PCA", [H])) is model
    with pytest.raises(TypeError):
        model.weights[choice(H)] = (Fraction(1, 4), Fraction(3, 4))
    assert model.weight_vector(choice(H)) == (H, H)
    assert model_soundness(model) == []
    weights = dict(model.weights)
    hand_made = K.TheoryModel(model.theory, RATIONALS, weights)
    assert model_soundness(hand_made) == []
    weights[choice(H)] = (Fraction(1, 4), Fraction(3, 4))
    assert model_soundness(hand_made) != []


def test_model_weight_validation():
    theory = builtin_theory("CM")
    with pytest.raises(ModelError):
        K.TheoryModel(theory, NATURALS, {op: (1,) for op in theory.ops}).validate()


def test_dimension_mismatch():
    with pytest.raises(DimensionError):
        Matrix.identity(2).then(Matrix.identity(3))


# --- algebraic invariants ------------------------------------------------------

def test_compose_associative_and_bifunctorial():
    rng = random.Random(8)
    for _ in range(20):
        f = rand_substochastic(rng.randint(0, 3), rng.randint(0, 3), rng)
        g = rand_substochastic(f.cod, rng.randint(0, 3), rng)
        h = rand_substochastic(g.cod, rng.randint(0, 3), rng)
        assert f.then(g).then(h) == f.then(g.then(h))

        f2 = rand_substochastic(rng.randint(0, 3), rng.randint(0, 3), rng)
        g2 = rand_substochastic(f2.cod, rng.randint(0, 3), rng)
        assert f.oplus(f2).then(g.oplus(g2)) == f.then(g).oplus(f2.then(g2))
        assert f.tensor(f2).then(g.tensor(g2)) == f.then(g).tensor(f2.then(g2))


def test_structural_permutations_invert():
    for m, n in itertools.product(range(4), repeat=2):
        s = K.sym_tensor(m, n)
        assert s.is_permutation()
        assert s.then(K.sym_tensor(n, m)) == Matrix.identity(m * n)
        p = K.sym_plus(m, n)
        assert p.is_permutation()
        assert p.then(K.sym_plus(n, m)) == Matrix.identity(m + n)


def test_dl_naturality():
    rng = random.Random(9)
    for x, y, z in itertools.product(range(4), repeat=3):
        f = rand_substochastic(x, rng.randint(0, 3), rng)
        g = rand_substochastic(y, rng.randint(0, 3), rng)
        h = rand_substochastic(z, rng.randint(0, 3), rng)
        lhs = f.tensor(g.oplus(h)).then(K.dl(f.cod, g.cod, h.cod))
        rhs = K.dl(x, y, z).then(f.tensor(g).oplus(f.tensor(h)))
        assert lhs == rhs


def test_comonoid_and_monoid_laws():
    for n in range(4):
        cop, disc = K.copier(n), K.discharger(n)
        i = Matrix.identity(n)
        assert cop.then(disc.tensor(i)) == i
        assert cop.then(i.tensor(disc)) == i
        assert cop.then(cop.tensor(i)) == cop.then(i.tensor(cop))
        assert cop.then(K.sym_tensor(n, n)) == cop

        nabla, bang = K.codiag(n), K.cobang(n)
        assert bang.oplus(i).then(nabla) == i
        assert i.oplus(bang).then(nabla) == i
        assert nabla.oplus(i).then(nabla) == i.oplus(nabla).then(nabla)
        assert K.sym_plus(n, n).then(nabla) == nabla


def test_substochastic_closed_under_compose():
    rng = random.Random(10)
    for _ in range(30):
        f = rand_substochastic(3, 3, rng)
        g = rand_substochastic(3, 3, rng)
        assert f.is_substochastic() and g.is_substochastic()
        assert f.then(g).is_substochastic()
        assert f.tensor(g).is_substochastic()
        assert f.oplus(g).is_substochastic()


@given(st.data())
@settings(max_examples=50)
def test_semiring_laws(data):
    rationals = st.fractions(min_value=0, max_value=10, max_denominator=12)
    naturals = st.integers(min_value=0, max_value=20)
    for semiring, values in ((RATIONALS, rationals), (NATURALS, naturals)):
        a, b, c = (data.draw(values) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + semiring.zero == a
        assert a * semiring.one == a
        assert a * semiring.zero == semiring.zero
        assert a * (b + c) == a * b + a * c
        assert semiring.contains(a)
        assert semiring.contains(a + b) and semiring.contains(a * b)


def test_dense_triple_tensor_is_associative_in_little_memory():
    # (f (x) g) (x) h = f (x) (g (x) h) for dense 12x12 naturals: 1728x1728
    # products with about 8.8 * 10^5 nonzeros each, packed one int per
    # column; as column dicts the two sides took a 114 MB tracemalloc peak
    rng = random.Random(12)
    f, g, h = (rand_natural(12, 12, rng) for _ in range(3))
    tracemalloc.start()
    try:
        left, right = f.tensor(g).tensor(h), f.tensor(g.tensor(h))
        assert left == right and left.packed is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20
    for x in (0, 777, 1727):
        x1, x2, x3 = x // 144, x // 12 % 12, x % 12
        assert left.column(x) == {
            (y1 * 12 + y2) * 12 + y3: a * b * c
            for y1, a in f.cols[x1].items() for y2, b in g.cols[x2].items()
            for y3, c in h.cols[x3].items()}
