"""The matrix kernels against a naive dense exact reference.

Matrices are drawn in all three storage forms: row maps (total
functions, ``image``), column dicts (``Matrix.make``) and packed columns
(built here from the documented slot layout), with int weights, Fraction
weights or both mixed in one matrix, numerators at the slot-width edges,
and with empty domains and codomains.  Every kernel result must equal
the dense list-of-lists product, sum or Kronecker product, and must be
canonical: int numerators over ``den``, the lcm of the entries' reduced
denominators, with no stored zero, and a packed result's ints, top,
content and count exactly those of its numerators.

The suites' fresh matrices are checked against reference draws made
with ``randint`` and ``shuffle``: the same matrices, and the same state
of the ``Random`` after them.
"""

import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from tapecalc import kleisli, suites
from tapecalc.errors import DimensionError
from tapecalc.kleisli import Matrix, slot_width
from tapecalc.objects import Monomial, poly
from tapecalc.suites import (Freshener, first_difference, rand_natural,
                             rand_substochastic, standard_interpretation)


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
    assert all(type(v) is int and v > 0 for v in numerators)
    assert m.den == math.lcm(*[Fraction(w).denominator
                               for _, _, w in m.nonzeros()])
    assert math.gcd(m.den, *numerators) == 1
    if m.image is not None:
        assert m.den == 1
    if m.packed is not None:
        laid_out = packed_form(Matrix(m.dom, m.cod, m.cols, den=m.den))
        assert ((m.packed, m.top, m.content, m.nnz)
                == (laid_out.packed, laid_out.top, laid_out.content,
                    laid_out.nnz))
    return m


def packed_form(m):
    """m with packed columns, laid out as the kernel documents: row y's
    numerator in bytes [w*y, w*(y+1)) of its column's int, little-endian,
    for the narrowest w of 1, 2, 4 or 8 bytes that holds the largest."""
    numerators = [v for col in m.cols for v in col.values()]
    top = max(numerators, default=0)
    w = next(w for w in (1, 2, 4, 8) if top < 2 ** (8 * w))
    packed = tuple(sum(v << (8 * w * y) for y, v in col.items())
                   for col in m.cols)
    return Matrix(m.dom, m.cod, den=m.den, packed=packed, top=top,
                  content=math.gcd(*numerators), nnz=len(numerators))


# --- strategies ----------------------------------------------------------------

SIZES = st.integers(0, 3)
INTS = st.integers(0, 3)
FRACTIONS = st.fractions(min_value=0, max_value=2, max_denominator=6)
# numerators on both sides of each slot width, and past 8 bytes
EDGES = st.sampled_from([0, 1, 2 ** 8 - 1, 2 ** 8, 2 ** 16 - 1, 2 ** 16,
                         2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64])
WEIGHTS = (INTS, FRACTIONS, st.one_of(INTS, FRACTIONS),
           st.one_of(INTS, EDGES))


@st.composite
def matrices(draw, kind, dom=None, cod=None):
    """A (Matrix, dense) pair; kind is "function", "dict" or "packed"."""
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
    m = from_dense(dense)
    if kind == "packed":
        assume(all(v < 2 ** 64 for col in m.cols for v in col.values()))
        m = assert_canonical(packed_form(m))
    return m, dense


def check(m, dense):
    assert_canonical(m)
    assert (m.dom, m.cod, m.to_rows()) == dense
    reference = from_dense(dense)
    assert m == reference and reference == m
    if slot_width(max([v for c in reference.cols for v in c.values()],
                      default=0)):
        packed = packed_form(reference)
        assert m == packed and packed == m


# the row-map and dict pairs first, then every pair with a packed side
KINDS = sorted(itertools.product(("function", "dict", "packed"), repeat=2),
               key=lambda kinds: "packed" in kinds)


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


@st.composite
def small_dense(draw, dom, cod):
    """Dense rows of weights: integers 0-3 only (den 1) or Fractions in
    [0, 2], and about one column in eight all zero."""
    weights = draw(st.sampled_from((INTS, FRACTIONS)))
    zero = draw(st.lists(st.integers(0, 7).map(lambda k: k == 0),
                         min_size=dom, max_size=dom))
    rows = draw(st.lists(st.lists(weights, min_size=dom, max_size=dom),
                         min_size=cod, max_size=cod))
    return dom, cod, [[0 if zero[x] else w for x, w in enumerate(row)]
                      for row in rows]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_then_folds_chains_of_small_dict_matrices(data):
    """A left fold of then over 2-40 column-dict matrices of at most 3x3
    is canonical after every step and equals the Fraction product."""
    dims = data.draw(st.lists(st.integers(1, 3), min_size=3, max_size=41))
    dense = [data.draw(small_dense(d, c)) for d, c in zip(dims, dims[1:])]
    product, reference = from_dense(dense[0]), dense[0]
    for step in dense[1:]:
        product = assert_canonical(product.then(from_dense(step)))
        reference = dense_then(reference, step)
        assert product.image is None and product.packed is None
    check(product, reference)


# --- fresh matrices: the draws of randint and shuffle -----------------------------

def reference_substochastic(dom, cod, rng):
    """rand_substochastic's draws made by randint and shuffle, one
    Fraction at a time, as weights for make."""
    entries = []
    for x in range(dom):
        denom = rng.randint(2, 6)
        remaining = denom
        rows = list(range(cod))
        rng.shuffle(rows)
        for y in rows:
            a = rng.randint(0, remaining)
            remaining -= a
            entries.append((y, x, Fraction(a, denom)))
    return Matrix.make(dom, cod, entries)


def reference_natural(dom, cod, rng):
    """rand_natural's draws made by randint, column-major."""
    return Matrix.make(dom, cod, [(y, x, rng.randint(0, 2))
                                  for x in range(dom) for y in range(cod)])


DRAWN_SIZES = st.integers(0, 9)   # the suites' carriers reach 9, for BB
SEEDS = st.integers(0, 2 ** 32 - 1)


@given(dom=DRAWN_SIZES, cod=DRAWN_SIZES, seed=SEEDS)
@settings(max_examples=60, deadline=None)
def test_rand_substochastic_matches_its_draws(dom, cod, seed):
    rng, reference = random.Random(seed), random.Random(seed)
    drawn = rand_substochastic(dom, cod, rng)
    assert (assert_canonical(drawn)
            == reference_substochastic(dom, cod, reference))
    assert rng.getstate() == reference.getstate()
    assert drawn.is_substochastic()


@given(dom=DRAWN_SIZES, cod=DRAWN_SIZES, seed=SEEDS)
@settings(max_examples=60, deadline=None)
def test_rand_natural_matches_its_draws(dom, cod, seed):
    rng, reference = random.Random(seed), random.Random(seed)
    drawn = rand_natural(dom, cod, rng)
    assert assert_canonical(drawn) == reference_natural(dom, cod, reference)
    assert rng.getstate() == reference.getstate()


@given(seed=SEEDS,
       circuits=st.lists(st.tuples(st.sampled_from(("PCA", "CM")),
                                   DRAWN_SIZES, DRAWN_SIZES), max_size=12))
@settings(max_examples=30, deadline=None)
def test_a_freshener_draws_what_randint_and_shuffle_draw(seed, circuits):
    """PCA and CM circuits between sorts of 0-9 elements, then the bench
    tensor workload's tape P -> PP, all from one Random: the fresh
    matrices and the Random's final state are those of the reference
    draws."""
    p = poly(("A",), ("A", "B"), ("B",))

    def draw():
        rng = random.Random(seed)
        fresh = {name: Freshener(standard_interpretation(
                     name, carriers=tuple(range(10))), rng)
                 for name in ("PCA", "CM")}
        for name, i, j in circuits:
            sorts = fresh[name].base.sig.sorts   # sort i has i elements
            fresh[name].circuit(Monomial((sorts[i],)), Monomial((sorts[j],)))
        tapes = Freshener(standard_interpretation("PCA", carriers=(3, 3)), rng)
        tapes.tape(p, p * p)
        return ([list(f.extra_mats.items()) for f in (*fresh.values(), tapes)],
                rng.getstate())

    drawn = draw()
    with mock.patch.object(suites, "rand_substochastic",
                           reference_substochastic), \
            mock.patch.object(suites, "rand_natural", reference_natural):
        assert draw() == drawn


# --- packed columns ---------------------------------------------------------------

POSITIVE = (st.integers(1, 3),
            st.fractions(min_value=Fraction(1, 6), max_value=2,
                         max_denominator=6),
            st.one_of(st.integers(1, 3), EDGES.filter(bool)))


def drawn_dense(data, dom, cod, kind, weights):
    """A dense (Matrix, dense) pair with every entry nonzero."""
    rows = data.draw(st.lists(st.lists(weights, min_size=dom, max_size=dom),
                              min_size=cod, max_size=cod))
    m = from_dense((dom, cod, rows))
    if kind == "packed":
        assume(all(v < 2 ** 64 for col in m.cols for v in col.values()))
        m = packed_form(m)
    return m, (dom, cod, rows)


def packs(dense):
    """Whether the kernels keep a result with these entries packed."""
    m = from_dense(dense)
    numerators = [v for col in m.cols for v in col.values()]
    w = slot_width(max(numerators, default=0))
    return w is not None and kleisli._dense(m.dom, m.cod, w, len(numerators))


@pytest.mark.parametrize("kinds", list(itertools.product(("dict", "packed"),
                                                         repeat=2)))
@given(data=st.data())
@settings(max_examples=25, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
def test_packed_kernels_on_dense_products(kinds, data):
    # products large and dense enough to be packed: the tensor, a
    # composite with it on either side, and permutations of its rows
    # and columns.  A failure is reported unshrunk: each example draws
    # a few hundred entries, and shrinking one took over ten minutes
    weights = data.draw(st.sampled_from(POSITIVE))
    (f, df), (g, dg) = (drawn_dense(data, data.draw(st.integers(4, 5)),
                                    data.draw(st.integers(4, 5)), kind, weights)
                        for kind in kinds)
    t, dt = f.tensor(g), dense_tensor(df, dg)
    check(t, dt)
    assert (t.packed is not None) == packs(dt)
    (h, dh), (k, dk) = (drawn_dense(data, t.cod, 2, "dict", weights),
                        drawn_dense(data, 2, t.dom, "dict", weights))
    for result, dense in ((t.then(h), dense_then(dt, dh)),
                          (k.then(t), dense_then(dk, dt))):
        check(result, dense)
        assert (result.packed is not None) == packs(dense)
    # row y moves to rows[y]; column x reads column columns[x]
    rows, columns = (data.draw(st.permutations(range(n)))
                     for n in (t.cod, t.dom))
    moved = [None] * t.cod
    for y, row in enumerate(dt[2]):
        moved[rows[y]] = row
    for result, dense in (
            (t.then(Matrix(t.cod, t.cod, image=tuple(rows))),
             (t.dom, t.cod, moved)),
            (Matrix(t.dom, t.dom, image=tuple(columns)).then(t),
             (t.dom, t.cod, [[row[x] for x in columns] for row in dt[2]]))):
        check(result, dense)
        assert (result.packed is not None) == (t.packed is not None)


@pytest.mark.parametrize("top, width", [
    (2 ** 8 - 1, 1), (2 ** 8, 2), (2 ** 16 - 1, 2), (2 ** 16, 4),
    (2 ** 32 - 1, 4), (2 ** 32, 8), (2 ** 64 - 1, 8), (2 ** 64, None)])
def test_tensor_at_slot_width_edges(top, width):
    # the product's largest numerator is top; past 8 bytes it keeps dicts
    df = (4, 4, [[top, 1, 1, 1]] + [[1] * 4] * 3)
    dg = (4, 4, [[1] * 4] * 4)
    t, dt = from_dense(df).tensor(from_dense(dg)), dense_tensor(df, dg)
    check(t, dt)
    packed = width is not None and kleisli._dense(16, 16, width, 256)
    assert (t.packed is not None) == packed
    if packed:
        assert (t.top, slot_width(t.top)) == (top, width)
    # a composite whose slot sums may need more than 8 bytes
    dh = (2, 16, [[1, 1]] * 16)
    dk = (16, 2, [[1] * 16] * 2)
    check(from_dense(dh).then(t), dense_then(dh, dt))
    check(t.then(from_dense(dk)), dense_then(dt, dk))


def test_packed_reductions_over_den():
    # den 2 (numerators 1, 3) times den 3 (numerators 2, 4): the product
    # is over 3, so g1 = gcd(2, 2) and g2 = gcd(3, 1) divide first
    df = (4, 4, [[Fraction(1, 2), Fraction(3, 2)] * 2] * 4)
    dg = (4, 4, [[Fraction(2, 3), Fraction(4, 3)] * 2] * 4)
    f, g = from_dense(df), from_dense(dg)
    assert (f.den, g.den) == (2, 3)
    t = f.tensor(g)
    check(t, dense_tensor(df, dg))
    assert t.packed is not None and (t.den, t.top, t.content) == (3, 6, 1)
    check(packed_form(f).tensor(packed_form(g)), dense_tensor(df, dg))
    # composites with it on either side, over den 3 * 3
    dt = dense_tensor(df, dg)
    dh = (16, 2, [[Fraction(1, 3)] * 16] * 2)
    dk = (2, 16, [[Fraction(1, 3)] * 2] * 16)
    check(t.then(from_dense(dh)), dense_then(dt, dh))
    check(from_dense(dk).then(t), dense_then(dk, dt))


PRIMES = (2, 3, 5, 7)
EXPONENTS = st.lists(st.integers(0, 3), min_size=4, max_size=4)


@given(e=st.tuples(EXPONENTS, EXPONENTS, EXPONENTS, EXPONENTS))
@settings(max_examples=300, deadline=None)
def test_pre_division_gcd_identity(e):
    # for canonical operands (den coprime to content), g1 * g2 is the gcd
    # of the product's den and its content, the product of the contents
    def smooth(exponents, coprime_to=(0,) * 4):
        return math.prod(p ** (0 if c else k)
                         for p, k, c in zip(PRIMES, exponents, coprime_to))
    d1, d2 = smooth(e[0]), smooth(e[1])
    c1, c2 = smooth(e[2], e[0]), smooth(e[3], e[1])
    assert math.gcd(d1, c1) == 1 and math.gcd(d2, c2) == 1
    assert math.gcd(d1 * d2, c1 * c2) == math.gcd(d1, c2) * math.gcd(d2, c1)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_pre_division_gcd_identity_on_matrices(data):
    # the same on the canonical pairs the kernels see, empty ones included
    (f, df), (g, dg) = (data.draw(matrices("dict")) for _ in range(2))
    c1, c2 = math.gcd(*numerators_of(f)), math.gcd(*numerators_of(g))
    products = [a * b for a in numerators_of(f) for b in numerators_of(g)]
    g1, g2 = math.gcd(f.den, c2), math.gcd(g.den, c1)
    assert math.gcd(f.den * g.den, *products) == g1 * g2
    reference = from_dense(dense_tensor(df, dg))
    assert reference.den == f.den * g.den // (g1 * g2)


def numerators_of(m):
    return [v for col in m.cols for v in col.values()]


def test_make_refuses_a_negative_weight():
    with pytest.raises(DimensionError, match="negative weight"):
        Matrix.make(1, 2, [(0, 0, 1), (1, 0, Fraction(-1, 2))])
    with pytest.raises(DimensionError, match="negative weight"):
        Matrix.from_rows([[1, -1]])
