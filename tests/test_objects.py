"""Object normalization against an independent brute-force rewriter."""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from tapecalc.circuit import (CGen, CIdOne, CIdSort, CSym, CTensor,
                              MonSignature, type_of_circuit)
from tapecalc.errors import UnknownSortError
from tapecalc.objects import (Monomial, ONE, Polynomial, SortRef, Sum, Tensor,
                              UnitOne, ZERO, ZeroObj, embed, mono, nfold_sum,
                              normalize, poly, poly_of_mono, poly_tensor)
from tapecalc.tape import (TCirc, TCodiag, TIdMon, TIdZero, TSum, TSymPlus,
                           type_of_tape)

SORTS = ("A", "B", "C")


# --- independent oracle: rewrite in all positions to a fixpoint ---------------

def rewrite_step(t):
    """One applicable rule anywhere in the term, or None."""
    if isinstance(t, Tensor):
        l, r = t.left, t.right
        if isinstance(l, Tensor):
            return Tensor(l.left, Tensor(l.right, r))
        if isinstance(l, UnitOne):
            return r
        if isinstance(r, UnitOne):
            return l
        if isinstance(l, Sum):
            return Sum(Tensor(l.left, r), Tensor(l.right, r))
        if isinstance(l, ZeroObj) or isinstance(r, ZeroObj):
            return ZeroObj()
        if isinstance(l, SortRef) and isinstance(r, Sum):
            return Sum(Tensor(l, r.left), Tensor(l, r.right))
        for name, sub in (("left", l), ("right", r)):
            step = rewrite_step(sub)
            if step is not None:
                return Tensor(step, r) if name == "left" else Tensor(l, step)
        return None
    if isinstance(t, Sum):
        l, r = t.left, t.right
        if isinstance(l, Sum):
            return Sum(l.left, Sum(l.right, r))
        if isinstance(l, ZeroObj):
            return r
        if isinstance(r, ZeroObj):
            return l
        for name, sub in (("left", l), ("right", r)):
            step = rewrite_step(sub)
            if step is not None:
                return Sum(step, r) if name == "left" else Sum(l, step)
    return None


def as_polynomial(t):
    """Read a normal-form term back as a word of words."""
    def monos(t):
        if isinstance(t, Sum):
            return monos(t.left) + monos(t.right)
        if isinstance(t, ZeroObj):
            return []
        return [word(t)]

    def word(t):
        if isinstance(t, Tensor):
            return word(t.left) + word(t.right)
        if isinstance(t, UnitOne):
            return []
        assert isinstance(t, SortRef)
        return [t.name]

    return Polynomial(tuple(Monomial(tuple(w)) for w in monos(t)))


def brute_force_normalize(t):
    for _ in range(10_000):
        step = rewrite_step(t)
        if step is None:
            return as_polynomial(t)
        t = step
    raise AssertionError("rewriting did not terminate")


def random_term(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([SortRef(rng.choice(SORTS)), UnitOne(), ZeroObj()])
    ctor = rng.choice([Tensor, Sum])
    return ctor(random_term(rng, depth - 1), random_term(rng, depth - 1))


def random_poly(rng, max_monos=3, max_len=3):
    return Polynomial(tuple(
        Monomial(tuple(rng.choice(SORTS) for _ in range(rng.randint(0, max_len))))
        for _ in range(rng.randint(0, max_monos))))


def reference_normalize(term, sorts):
    """The binary fold normalize used before it read whole spines, kept as
    reference: each (x) node multiplies its operands' normal forms, each
    (+) node concatenates them, on an explicit stack."""
    registered = set(sorts)
    results = []
    stack = [(term, False)]  # (term, operands done)
    while stack:
        t, combine = stack.pop()
        if combine:
            right = results.pop()
            results[-1] = (results[-1] + right if isinstance(t, Sum)
                           else results[-1] * right)
        elif isinstance(t, (Sum, Tensor)):
            stack += ((t, True), (t.right, False), (t.left, False))
        elif isinstance(t, SortRef):
            if t.name not in registered:
                raise UnknownSortError(f"unregistered sort: {t.name}")
            results.append(poly((t.name,)))
        elif isinstance(t, UnitOne):
            results.append(poly_of_mono(ONE))
        elif isinstance(t, ZeroObj):
            results.append(ZERO)
        else:
            raise TypeError(f"not an object term: {t!r}")
    return results[0]


def spiny_term(rng, size):
    """A random object term of about size leaves: runs of one product whose
    operands are 0, 1, sorts (a few unregistered) or runs of the other
    product, bracketed at random."""
    if size <= 1 or rng.random() < 0.15:
        r = rng.random()
        return (SortRef("Z") if r < 0.01 else ZeroObj() if r < 0.08
                else UnitOne() if r < 0.25 else SortRef(rng.choice(SORTS)))
    ctor = rng.choice([Tensor, Sum])
    operands = []
    while size > 0:
        k = rng.randint(1, max(1, size // 2))
        operands.append(spiny_term(rng, k))
        size -= k
    while len(operands) > 1:
        i = rng.randrange(len(operands) - 1)
        operands[i:i + 2] = [ctor(operands[i], operands[i + 1])]
    return operands[0]

# --- frozen examples ------------------------------------------------------------

def test_sort_distributes_over_sum():
    t = Tensor(SortRef("A"), Sum(SortRef("B"), SortRef("C")))
    assert normalize(t, SORTS) == poly(("A", "B"), ("A", "C"))


def test_zero_and_one_tensor():
    x = Sum(SortRef("A"), SortRef("B"))
    assert normalize(Tensor(ZeroObj(), x), SORTS) == ZERO
    assert normalize(Tensor(UnitOne(), x), SORTS) == normalize(x, SORTS)


def test_sum_of_unit_times_sum():
    t = Tensor(Sum(SortRef("A"), UnitOne()), Sum(SortRef("B"), SortRef("C")))
    expected = poly(("A", "B"), ("A", "C"), ("B",), ("C",))
    assert normalize(t, SORTS) == expected
    assert brute_force_normalize(t) == expected


def test_poly_tensor_examples():
    p = poly(("A",), ("B", "C"))
    q = poly(("D",), ())
    assert poly_tensor(p, q) == poly(("A", "D"), ("A",), ("B", "C", "D"), ("B", "C"))
    assert poly_tensor(poly_of_mono(mono("A", "B")), poly_of_mono(mono("C"))) \
        == poly(("A", "B", "C"))
    assert poly_tensor(p, ZERO) == ZERO
    assert poly_tensor(poly_of_mono(ONE), p) == p


def test_embed_examples():
    assert embed(poly(("A",), ("B", "C"))) == \
        Sum(SortRef("A"), Tensor(SortRef("B"), SortRef("C")))
    assert embed(ZERO) == ZeroObj()
    assert embed(poly_of_mono(ONE)) == UnitOne()
    assert embed(poly(("A",), (), ("C",))) == \
        Sum(SortRef("A"), Sum(UnitOne(), SortRef("C")))


def test_unregistered_sort():
    with pytest.raises(UnknownSortError):
        normalize(SortRef("Z"), SORTS)


# --- invariants -------------------------------------------------------------------

def test_normalize_agrees_with_brute_force():
    rng = random.Random(11)
    for _ in range(300):
        t = random_term(rng, 5)
        assert normalize(t, SORTS) == brute_force_normalize(t)


def test_normalize_idempotent():
    rng = random.Random(12)
    for _ in range(200):
        p = normalize(random_term(rng, 5), SORTS)
        assert normalize(embed(p), SORTS) == p


def test_poly_tensor_matches_normalize_of_embed():
    rng = random.Random(13)
    for _ in range(200):
        p, q = random_poly(rng), random_poly(rng)
        assert poly_tensor(p, q) == normalize(Tensor(embed(p), embed(q)), SORTS)


@given(st.data())
@settings(max_examples=60)
def test_poly_tensor_monoid_laws(data):
    def polys():
        return st.lists(
            st.lists(st.sampled_from(SORTS), max_size=3).map(
                lambda w: Monomial(tuple(w))),
            max_size=3).map(lambda ms: Polynomial(tuple(ms)))

    p, q, r = (data.draw(polys()) for _ in range(3))
    assert poly_tensor(poly_tensor(p, q), r) == poly_tensor(p, poly_tensor(q, r))
    assert poly_tensor(poly_of_mono(ONE), p) == p
    assert poly_tensor(p, poly_of_mono(ONE)) == p
    assert poly_tensor(p, ZERO) == ZERO
    assert poly_tensor(ZERO, p) == ZERO
    assert (p + q) + r == p + (q + r)
    assert ZERO + p == p + ZERO == p


def test_normalize_long_product_without_recursion():
    # 5000 (x)-factors, two of them sums, nested to the left and to the right
    rng = random.Random(11)
    sums = set(rng.sample(range(5000), 2))
    factors = []
    for i in range(5000):
        if i in sums:
            factors.append(poly(*rng.sample(["A", "B", "C", ""], 2)))
        else:
            factors.append(poly("".join(rng.choice(SORTS)
                                        for _ in range(rng.randint(0, 2)))))
    expected = factors[0]
    for p in factors[1:]:
        expected = poly_tensor(expected, p)
    left = embed(factors[0])
    for p in factors[1:]:
        left = Tensor(left, embed(p))
    right = embed(factors[-1])
    for p in reversed(factors[:-1]):
        right = Tensor(embed(p), right)
    assert normalize(left, SORTS) == expected
    assert normalize(right, SORTS) == expected


def outcome(normalizer, t):
    try:
        return normalizer(t, SORTS)
    except UnknownSortError as err:
        return str(err)


def test_normalize_matches_the_binary_fold():
    rng = random.Random(15)
    for _ in range(3000):
        t = spiny_term(rng, rng.randint(1, 24))
        new, ref = outcome(normalize, t), outcome(reference_normalize, t)
        assert new == ref, t
        assert type(new) is str or is_polynomial(new)


def test_normalize_reports_the_first_unregistered_sort():
    t = Tensor(Sum(SortRef("A"), SortRef("Y")), Tensor(ZeroObj(), SortRef("Z")))
    with pytest.raises(UnknownSortError, match="^unregistered sort: Y$"):
        normalize(t, SORTS)


def test_normalize_100000_factor_product():
    # factor i is A, B or C by i mod 3, and factors 10 and 99990 are the
    # sums (1 (+) B) and (C (+) A): four monomials, 99,998-100,000 long
    n = 100_000
    names = [SORTS[i % 3] for i in range(n)]
    factors = [SortRef(s) for s in names]
    factors[10] = Sum(UnitOne(), SortRef("B"))
    factors[99_990] = Sum(SortRef("C"), SortRef("A"))
    term = factors[0]
    for f in factors[1:]:
        term = Tensor(term, f)
    head, mid, tail = names[:10], names[11:99_990], names[99_991:]
    expected = Polynomial(tuple(
        Monomial(tuple(head + a + mid + b + tail))
        for a in ([], ["B"]) for b in (["C"], ["A"])))
    assert normalize(term, SORTS) == expected


# --- the object types -------------------------------------------------------------

def is_polynomial(p):
    return type(p) is Polynomial and all(type(u) is Monomial for u in p)


def test_object_operations_return_the_object_types():
    p, q = poly(("A",), ("B", "C")), poly_of_mono(mono("A", "B"))
    assert type(mono("A", "B")) is Monomial and type(ONE) is Monomial
    assert type(mono("A") * mono("B")) is Monomial
    assert mono("A") * mono("B") == mono("A", "B")
    for r in (p, q, ZERO, p + q, p * q, p * ZERO, nfold_sum(p, 3),
              nfold_sum(p, 0), poly(("A",), "BC", mono("C"), ()),
              poly_of_mono(ONE), poly_tensor(p, q)):
        assert is_polynomial(r), r
    assert nfold_sum(p, 2) == p + p
    rng = random.Random(14)
    for _ in range(100):
        assert is_polynomial(normalize(random_term(rng, 4), SORTS))


def test_types_are_object_types():
    sig = MonSignature(("A", "B"), {"F": (mono("A"), mono("B", "A"))})
    tapes = (TSum(TIdMon(mono("A")), TCodiag(mono("A", "B"))), TIdZero(),
             TSymPlus(ONE, mono("B")), TCirc(CTensor(CGen("F"), CIdOne())))
    for t in tapes:
        dom, cod = type_of_tape(t, sig)
        assert is_polynomial(dom) and is_polynomial(cod), t
    for c in (CTensor(CGen("F"), CIdSort("A")), CIdOne(), CSym("A", "B")):
        dom, cod = type_of_circuit(c, sig)
        assert type(dom) is Monomial and type(cod) is Monomial, c
    assert type_of_circuit(CIdOne(), sig) == (ONE, ONE)
    assert type_of_circuit(CTensor(CGen("F"), CIdSort("A")), sig) \
        == (mono("A", "A"), mono("B", "A", "A"))


def test_repr_and_str_keep_their_text():
    """The text printed by the dataclasses these types once were, which
    suite witnesses and node reprs embed."""
    cases = [
        (mono("A", "B"), "Monomial(sorts=('A', 'B'))", "AB"),
        (mono("A"), "Monomial(sorts=('A',))", "A"),
        (ONE, "Monomial(sorts=())", "1"),
        (ZERO, "Polynomial(monomials=())", "0"),
        (poly_of_mono(ONE), "Polynomial(monomials=(Monomial(sorts=()),))", "1"),
        (poly_of_mono(mono("A")),
         "Polynomial(monomials=(Monomial(sorts=('A',)),))", "A"),
        (poly(("A", "B"), (), ("C",)),
         "Polynomial(monomials=(Monomial(sorts=('A', 'B')), "
         "Monomial(sorts=()), Monomial(sorts=('C',))))", "AB (+) 1 (+) C"),
    ]
    for x, text, shown in cases:
        assert repr(x) == text
        assert str(x) == shown


def test_pickle_and_copy_round_trips():
    for x in (mono("A", "B"), ONE, ZERO, poly(("A",), (), ("B", "C"))):
        copies = [copy.copy(x), copy.deepcopy(x)]
        copies += [pickle.loads(pickle.dumps(x, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for y in copies:
            assert y == x and type(y) is type(x)
            if type(x) is Polynomial:
                assert is_polynomial(y)


def test_objects_are_tuples():
    """Intended: a monomial is the tuple of its sort names and a polynomial
    the tuple of its monomials, so each equals (and hashes as) that plain
    tuple, and the unit 1 equals the zero 0, both being empty.  Tables
    keyed by objects therefore keep one kind of object per key slot, and
    term nodes are given real Monomials (see test_hashcons)."""
    assert mono("A") == ("A",) and hash(mono("A")) == hash(("A",))
    assert poly(("A",), ("B", "C")) == (("A",), ("B", "C"))
    assert ONE == ZERO == ()
    assert Monomial.__slots__ == () and Polynomial.__slots__ == ()
    assert not hasattr(mono("A"), "__dict__")
    assert len(poly(("A",), ())) == 2 and list(mono("A", "B")) == ["A", "B"]
