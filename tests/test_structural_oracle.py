"""The structural primitives against their per-class rules.

``TIdMon``, ``TIdZero``, ``TSymPlus``, ``TCodiag`` and ``TCobang`` are
typed and evaluated from the block map of their builder call, as every
``TBlock`` is; whiskered, each is one ``TWhisker`` node, typed and
evaluated as the primitive with its monomial fields whiskered.
``CIdSort``, ``CIdOne``, ``CSym``, ``CCopier`` and ``CDischarger`` are
typed from the wire map of their builder call, as every ``CBlock`` is,
and evaluated to the ``kleisli`` closed form of that call.  The
references below are the rules each class had on its own: its type, its
sort checks in order, its matrix from the ``kleisli`` builder at carrier
level, with the carriers read in order, and its whiskering.  A primitive
agrees with its reference when both give the same value, or both raise
the same error.
"""

from fractions import Fraction
from itertools import chain, product

from hypothesis import given, settings, strategies as st

from tapecalc import kleisli
from tapecalc.circuit import (CCopier, CDischarger, CIdOne, CIdSort, CSym,
                              MonSignature, type_of_circuit)
from tapecalc.errors import TapecalcError
from tapecalc.interp import Interpretation, eval_tape
from tapecalc.kleisli import Matrix, model_for
from tapecalc.objects import Monomial
from tapecalc.tape import (TCobang, TCodiag, TIdMon, TIdZero, TOpInj,
                           TSymPlus, tape_types, whisker_left_mono,
                           whisker_right_mono)
from tapecalc.theory import builtin_theory, choice

SORTS = ("A", "B", "C")
MODEL = model_for(builtin_theory("PCA", (Fraction(1, 2),)))

monomials = st.lists(st.sampled_from(SORTS), max_size=3).map(
    lambda sorts: Monomial(tuple(sorts)))
primitives = st.one_of(
    st.builds(TIdMon, monomials), st.just(TIdZero()),
    st.builds(TSymPlus, monomials, monomials), st.builds(TCodiag, monomials),
    st.builds(TCobang, monomials))
sorts = st.sampled_from(SORTS)
circuit_primitives = st.one_of(
    st.builds(CIdSort, sorts), st.just(CIdOne()), st.builds(CSym, sorts, sorts),
    st.builds(CCopier, sorts), st.builds(CDischarger, sorts))
sort_sets = st.sets(st.sampled_from(SORTS)).map(sorted)
carrier_maps = st.dictionaries(st.sampled_from(SORTS), st.integers(0, 3))


def outcome(f, *args):
    """f(*args), or the class and text of the error it raises."""
    try:
        return f(*args)
    except TapecalcError as exc:
        return exc.__class__, str(exc)


# --- the per-class rules ------------------------------------------------------

def ref_type(t, sig):
    """The class's type rule, then the check of each sort of dom and cod
    in order."""
    cls = t.__class__
    if cls is TIdMon:
        dom = cod = (t.mono,)
    elif cls is TSymPlus:
        dom, cod = (t.left, t.right), (t.right, t.left)
    elif cls is TCodiag:
        dom, cod = (t.mono, t.mono), (t.mono,)
    elif cls is TCobang:
        dom, cod = (), (t.mono,)
    else:
        dom = cod = ()
    for s in chain.from_iterable(dom + cod):
        sig.check_sorts((s,))
    return dom, cod


def ref_circuit_type(c, sig):
    """The class's type rule, with the check of each of its sorts in
    order: for ``CSym``, the left sort before the right."""
    cls = c.__class__
    if cls is CIdOne:
        return Monomial(()), Monomial(())
    if cls is CSym:
        sig.check_sorts((c.left,))
        sig.check_sorts((c.right,))
        return Monomial((c.left, c.right)), Monomial((c.right, c.left))
    sig.check_sorts((c.sort,))
    u = Monomial((c.sort,))
    return u, {CIdSort: u, CCopier: u * u, CDischarger: Monomial(())}[cls]


def ref_circuit_matrix(c, interp):
    """The class's kleisli builder at the carrier sizes of its sorts,
    read left before right."""
    size = interp.sort_size
    cls = c.__class__
    if cls is CIdOne:
        return Matrix.identity(1)
    if cls is CSym:
        return kleisli.sym_tensor(size(c.left), size(c.right))
    if cls is CCopier:
        return kleisli.copier(size(c.sort))
    if cls is CDischarger:
        return kleisli.discharger(size(c.sort))
    return Matrix.identity(size(c.sort))


def ref_matrix(t, interp):
    """The class's kleisli builder at the carrier sizes of its fields,
    read left before right."""
    size = interp.mono_size
    cls = t.__class__
    if cls is TIdMon:
        return Matrix.identity(size(t.mono))
    if cls is TSymPlus:
        return kleisli.sym_plus(size(t.left), size(t.right))
    if cls is TCodiag:
        return kleisli.codiag(size(t.mono))
    if cls is TCobang:
        return kleisli.cobang(size(t.mono))
    return Matrix.identity(0)


def ref_whisker(t, u, left):
    """U |> t if left, else t <| U, field by field."""
    def times(m):
        return u * m if left else m * u

    cls = t.__class__
    if cls is TIdZero:
        return t
    if cls is TSymPlus:
        return TSymPlus(times(t.left), times(t.right))
    if cls is TOpInj:
        return TOpInj(t.op, times(t.mono))
    return cls(times(t.mono))


def old_dl_image(x, y, z):
    """The closed form of the left distributor X (x) (Y (+) Z) ->
    XY (+) XZ on indices."""
    def image(i):
        a, b = divmod(i, y + z)
        return a * y + b if b < y else x * y + a * z + (b - y)

    return tuple(image(i) for i in range(x * (y + z)))


# --- the oracle ---------------------------------------------------------------

@given(t=primitives, sorts=sort_sets)
@settings(max_examples=300, deadline=None)
def test_a_primitive_is_typed_by_its_class_rule(t, sorts):
    """The type, or the unregistered sort named first, as the class's
    rule gives it: for ``TSymPlus``, the left monomial's before the
    right's."""
    sig = MonSignature(tuple(sorts))
    assert outcome(lambda: tape_types((t,), sig)[0]) == \
        outcome(ref_type, t, sig)


@given(t=primitives, carriers=carrier_maps)
@settings(max_examples=300, deadline=None)
def test_a_primitive_evaluates_to_its_kleisli_builder(t, carriers):
    """The matrix, a row map, or the sort named first that has no
    carrier, as the class's kleisli builder gives it."""
    interp = Interpretation(MonSignature(SORTS), carriers, {}, MODEL)
    got = outcome(eval_tape, t, interp)
    expected = outcome(ref_matrix, t, interp)
    assert got == expected
    if isinstance(got, Matrix):
        assert (got.dom, got.cod, got.image) == \
            (expected.dom, expected.cod, expected.image)


@given(c=circuit_primitives, sorts=sort_sets)
@settings(max_examples=300, deadline=None)
def test_a_circuit_primitive_is_typed_by_its_class_rule(c, sorts):
    """The type, or the unregistered sort named first, as the class's
    rule gives it: for ``CSym``, the left sort's before the right's."""
    sig = MonSignature(tuple(sorts))
    assert outcome(type_of_circuit, c, sig) == outcome(ref_circuit_type, c, sig)


@given(c=circuit_primitives, carriers=carrier_maps)
@settings(max_examples=300, deadline=None)
def test_a_circuit_primitive_evaluates_to_its_kleisli_builder(c, carriers):
    """The matrix, a row map, or the sort named first that has no
    carrier, as the class's kleisli builder gives it."""
    interp = Interpretation(MonSignature(SORTS), carriers, {}, MODEL)
    got = outcome(eval_tape, c, interp)
    expected = outcome(ref_circuit_matrix, c, interp)
    assert got == expected
    if isinstance(got, Matrix):
        assert (got.dom, got.cod, got.image) == \
            (expected.dom, expected.cod, expected.image)


@given(t=st.one_of(primitives, st.builds(TOpInj, st.just(choice(Fraction(1, 2))),
                                          monomials)),
       u=monomials, left=st.booleans(),
       carriers=st.tuples(*[st.integers(0, 3)] * len(SORTS)))
@settings(max_examples=300, deadline=None)
def test_a_primitive_is_whiskered_field_by_field(t, u, left, carriers):
    """U |> t and t <| U are one whiskered node of t, whose type and
    matrix are those of t with each monomial field whiskered."""
    whiskered = whisker_left_mono(u, t) if left else whisker_right_mono(t, u)
    assert whiskered is t if u.is_unit else whiskered.tape is t
    expected = ref_whisker(t, u, left)
    interp = Interpretation(MonSignature(SORTS), dict(zip(SORTS, carriers)),
                            {}, MODEL)
    assert outcome(tape_types, (whiskered,), interp.sig) \
        == outcome(tape_types, (expected,), interp.sig)
    got = eval_tape(whiskered, interp)
    assert (got, got.image) == (eval_tape(expected, interp),
                                eval_tape(expected, interp).image)


def test_dl_is_the_old_closed_form():
    """kleisli.dl, the inverse of the pairing that left whiskering uses,
    is the closed-form index bijection at every size from 0 to 4."""
    for x, y, z in product(range(5), repeat=3):
        d = kleisli.dl(x, y, z)
        n = x * (y + z)
        assert (d.dom, d.cod, d.image) == (n, n, old_dl_image(x, y, z))
