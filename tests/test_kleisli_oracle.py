"""The matrix kernels against a naive dense exact reference.

Matrices are drawn in both storage forms: row maps (total functions,
``image``) and column dicts (``Matrix.make``), with int weights,
Fraction weights or both mixed in one matrix, and with empty domains and
codomains.  Every kernel result must equal the dense list-of-lists
product, sum or Kronecker product, and must be canonical: int numerators
over ``den``, the lcm of the entries' reduced denominators, with no
stored zero.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from tapecalc.kleisli import Matrix
from tapecalc.suites import first_difference, rand_substochastic


# --- dense reference: (dom, cod, rows), rows[y][x] is entry (y, x) -------------

def dense_then(f, g):
    (dom, mid, a), (_, cod, b) = f, g
    return dom, cod, [[sum((b[z][y] * a[y][x] for y in range(mid)), 0)
                       for x in range(dom)] for z in range(cod)]


def dense_tensor(f, g):
    (d1, c1, a), (d2, c2, b) = f, g
    return d1 * d2, c1 * c2, [[a[y1][x1] * b[y2][x2]
                               for x1 in range(d1) for x2 in range(d2)]
                              for y1 in range(c1) for y2 in range(c2)]


def dense_oplus(f, g):
    (d1, c1, a), (d2, c2, b) = f, g
    return d1 + d2, c1 + c2, ([row + [0] * d2 for row in a] +
                              [[0] * d1 + row for row in b])


def dense_first_difference(left, right):
    dom, cod, a = left
    b = right[2]
    for x, y in itertools.product(range(dom), range(cod)):
        if a[y][x] != b[y][x]:
            return y, x, a[y][x], b[y][x]
    return None


def from_dense(m):
    dom, cod, rows = m
    return assert_canonical(Matrix.make(
        dom, cod, ((y, x, w) for y, row in enumerate(rows)
                   for x, w in enumerate(row))))


def assert_canonical(m):
    numerators = [v for col in m.cols for v in col.values()]
    assert all(type(v) is int and v != 0 for v in numerators)
    assert m.den == math.lcm(*[Fraction(w).denominator
                               for _, _, w in m.nonzeros()])
    assert math.gcd(m.den, *numerators) == 1
    if m.image is not None:
        assert m.den == 1
    return m


# --- strategies ----------------------------------------------------------------

SIZES = st.integers(0, 3)
INTS = st.integers(0, 3)
FRACTIONS = st.fractions(min_value=0, max_value=2, max_denominator=6)
WEIGHTS = (INTS, FRACTIONS, st.one_of(INTS, FRACTIONS))


@st.composite
def matrices(draw, kind, dom=None, cod=None):
    """A (Matrix, dense) pair; kind is "function" or "dict"."""
    dom = draw(SIZES) if dom is None else dom
    if kind == "function":
        assume(cod != 0 or not dom)     # no function from a nonempty set to 0
        cod = draw(st.integers(1 if dom else 0, 3)) if cod is None else cod
        image = draw(st.lists(st.integers(0, cod - 1), min_size=dom,
                              max_size=dom)) if dom else []
        rows = [[int(image[x] == y) for x in range(dom)] for y in range(cod)]
        return Matrix(dom, cod, image=tuple(image)), (dom, cod, rows)
    cod = draw(SIZES) if cod is None else cod
    weights = draw(st.sampled_from(WEIGHTS))
    rows = draw(st.lists(st.lists(weights, min_size=dom, max_size=dom),
                         min_size=cod, max_size=cod))
    dense = dom, cod, rows
    return from_dense(dense), dense


def check(m, dense):
    assert_canonical(m)
    assert (m.dom, m.cod, m.to_rows()) == dense
    reference = from_dense(dense)
    assert m == reference and reference == m


KINDS = list(itertools.product(("function", "dict"), repeat=2))


@pytest.mark.parametrize("kinds", KINDS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_kernels_match_dense_reference(kinds, data):
    (f, df), (g, dg) = data.draw(matrices(kinds[0])), data.draw(matrices(kinds[1]))
    (h, dh) = data.draw(matrices(kinds[1], dom=f.cod))
    both = kinds == ("function", "function")
    for result, dense in ((f.then(h), dense_then(df, dh)),
                          (f.tensor(g), dense_tensor(df, dg)),
                          (f.oplus(g), dense_oplus(df, dg))):
        check(result, dense)
        assert (result.image is not None) == both


@pytest.mark.parametrize("kinds", KINDS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_first_difference_matches_dense_reference(kinds, data):
    f, df = data.draw(matrices(kinds[0]))
    g, dg = data.draw(matrices(kinds[1], dom=f.dom, cod=f.cod))
    assert first_difference(f, g) == dense_first_difference(df, dg)
    assert first_difference(f, from_dense(df)) is None
    assert first_difference(from_dense(dg), g) is None


def test_first_difference_walks_rows_in_order():
    # rows 9 and 1 share a hash slot, so a set union lists 9 first
    left = Matrix.make(1, 10, [(9, 0, 1)])
    right = Matrix(1, 10, image=(1,))
    assert first_difference(left, right) == (1, 0, 0, 1)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_function_equals_its_column_form(data):
    f, dense = data.draw(matrices("function"))
    check(f, dense)
    g, other_dense = data.draw(matrices("function", dom=f.dom, cod=f.cod))
    assert (f == g) == (dense == other_dense)
    made = Matrix.make(f.dom, f.cod, ((y, x, 1) for x, y in enumerate(f.image)))
    assert made.image is None
    assert f == made and made == f
    if f.dom:
        other = Matrix(f.dom, f.cod + 1, image=f.image)
        assert f != other and other != f


@pytest.mark.parametrize("stored", ("function", "dict"))
@given(perm=st.integers(0, 5).flatmap(lambda n: st.permutations(range(n))))
@settings(max_examples=40, deadline=None)
def test_permutation_inverse(stored, perm):
    n = len(perm)
    made = Matrix.make(n, n, ((y, x, Fraction(1)) for x, y in enumerate(perm)))
    m = Matrix(n, n, image=tuple(perm)) if stored == "function" else made
    assert m.is_permutation()
    inverse = m.transpose_permutation()
    assert m.then(inverse) == Matrix.identity(n) == inverse.then(m)
    if n > 1:
        merged = Matrix(n, n, image=(0,) * n)
        assert not merged.is_permutation()
        assert not Matrix.make(n, n, ((0, x, 1) for x in range(n))).is_permutation()


def test_first_difference_across_denominators():
    # den 2 against den 3: the columns are compared by value, not as stored
    half = Matrix.from_rows([[Fraction(1, 2), 1], [0, Fraction(1, 2)]])
    third = Matrix.from_rows([[Fraction(1, 3), 1], [0, Fraction(1, 2)]])
    assert (half.den, third.den) == (2, 6)
    assert first_difference(half, third) == (0, 0, Fraction(1, 2), Fraction(1, 3))
    assert first_difference(third, half) == (0, 0, Fraction(1, 3), Fraction(1, 2))
    # equal first columns stored over different dens; the witness is in column 1
    left = Matrix.from_rows([[Fraction(1, 2), 1]])
    right = Matrix.from_rows([[Fraction(1, 2), Fraction(3, 4)]])
    assert first_difference(left, right) == (0, 1, 1, Fraction(3, 4))
    assert first_difference(right, left) == (0, 1, Fraction(3, 4), 1)
    assert first_difference(left, Matrix.from_rows([[Fraction(2, 4), 1]])) is None


@pytest.mark.parametrize("kinds", KINDS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_first_difference_across_scaled_copies(kinds, data):
    # g's first column is f's over a larger denominator, so the dens differ
    # while the first column still agrees
    f, df = data.draw(matrices(kinds[0]))
    g, dg = data.draw(matrices(kinds[1], dom=f.dom, cod=f.cod))
    k = data.draw(st.sampled_from((Fraction(1, 5), Fraction(1, 7))))
    rows = [[w * k if x else v for x, (v, w) in enumerate(zip(r1, r2))]
            for r1, r2 in zip(df[2], dg[2])]
    h, dh = from_dense((f.dom, f.cod, rows)), (f.dom, f.cod, rows)
    assert first_difference(f, h) == dense_first_difference(df, dh)
    assert first_difference(h, f) == dense_first_difference(dh, df)


def test_reduction_after_each_kernel():
    # products and selections whose den shrinks below the operands'
    f = Matrix.from_rows([[Fraction(1, 2), Fraction(2, 3)]])
    g = Matrix.from_rows([[Fraction(3, 2)]])
    assert (f.den, g.den) == (6, 2)
    assert f.tensor(g).den == 4 and f.tensor(g).to_rows() == [[Fraction(3, 4), 1]]
    two = Matrix.from_rows([[2]])
    assert two.then(Matrix.from_rows([[Fraction(1, 2)]])) == Matrix.identity(1)
    row = Matrix.from_rows([[Fraction(1, 2), Fraction(1, 3), 1]])
    assert assert_canonical(Matrix(1, 3, image=(2,)).then(row)) == Matrix.from_rows([[1]])
    merge = Matrix(2, 1, image=(0, 0))
    halves = Matrix.from_rows([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
    assert assert_canonical(halves.then(merge)).to_rows() == [[Fraction(1, 2)] * 2]
    both = Matrix.from_rows([[Fraction(1, 2)], [Fraction(1, 2)]])
    assert assert_canonical(both.then(merge)) == Matrix.from_rows([[1]])
    assert assert_canonical(Matrix(0, 1, image=()).tensor(f)).den == 1
    assert assert_canonical(f.tensor(Matrix(0, 0, image=()))).den == 1


@given(dom=SIZES, cod=SIZES, seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_rand_substochastic_matches_its_draws(dom, cod, seed):
    # the same draws made one Fraction at a time, as weights for make
    rng, entries = random.Random(seed), []
    for x in range(dom):
        denom = rng.randint(2, 6)
        remaining = denom
        rows = list(range(cod))
        rng.shuffle(rows)
        for y in rows:
            a = rng.randint(0, remaining)
            remaining -= a
            entries.append((y, x, Fraction(a, denom)))
    drawn = rand_substochastic(dom, cod, random.Random(seed))
    assert assert_canonical(drawn) == Matrix.make(dom, cod, entries)
    assert drawn.is_substochastic()
