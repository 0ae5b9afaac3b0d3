"""The structural generators against the rules each had as a class.

A generator, a primitive of the calculus, is its builder's call at one
monomial (one sort for a circuit): the identity on one monomial or on 0,
the sum symmetry of two monomials, the codiagonal and the cobang of one,
and the identity, symmetry, copier and discharger of one sort or the
identity on 1.  A
tape generator is a ``TBlock``, typed and evaluated from its block map
as every ``TBlock`` is; whiskered, it is one ``TWhisker`` node, typed
and evaluated as the generator at its whiskered monomials, as an
operation's branching is.  A circuit generator is a ``CBlock``, typed
from its wire map, as every ``CBlock`` is, and evaluated to the
``kleisli`` closed form of its call.  The references below are the rules
each generator had as a node class of its own: its type, its sort checks
in order, its matrix from the ``kleisli`` builder at carrier level, with
the carriers read in order, and its whiskering.  A generator agrees with
its reference when both give the same value, or both raise the same
error.
"""

from fractions import Fraction
from itertools import chain, product

from hypothesis import given, settings, strategies as st

from tapecalc import circuit, kleisli, tape
from tapecalc.circuit import MonSignature, type_of_circuit
from tapecalc.errors import TapecalcError
from tapecalc.interp import Interpretation, eval_tape
from tapecalc.kleisli import Matrix, model_for
from tapecalc.objects import ONE, ZERO, Monomial
from tapecalc.tape import (id_tape, op_inj_tape, tape_types,
                           whisker_left_mono, whisker_right_mono)
from tapecalc.theory import builtin_theory, choice

SORTS = ("A", "B", "C")
MODEL = model_for(builtin_theory("PCA", (Fraction(1, 2),)))
HALF = choice(Fraction(1, 2))

monomials = st.lists(st.sampled_from(SORTS), max_size=3).map(
    lambda sorts: Monomial(tuple(sorts)))
# a generator as (builder, the monomials of its call)
primitives = st.one_of(
    st.tuples(st.just("id_tape"), st.tuples(monomials)),
    st.just(("id_tape", ())),
    st.tuples(st.just("symplus_tape"), st.tuples(monomials, monomials)),
    st.tuples(st.sampled_from(("codiag_tape", "cobang_tape")),
              st.tuples(monomials)))
sorts = st.sampled_from(SORTS)
# a circuit generator as (builder, the sorts of its call)
circuit_primitives = st.one_of(
    st.tuples(st.sampled_from(("identity_circuit", "copier_circuit",
                               "discharger_circuit")), st.tuples(sorts)),
    st.just(("identity_circuit", ())),
    st.tuples(st.just("sym_circuit"), st.tuples(sorts, sorts)))
sort_sets = st.sets(st.sampled_from(SORTS)).map(sorted)
carrier_maps = st.dictionaries(st.sampled_from(SORTS), st.integers(0, 3))


def build(call):
    """The generator of a call (builder, monomials): the identity on 0
    for no monomial, and ``op_inj_tape`` is +_1/2's branching."""
    builder, monos = call
    if builder == "op_inj_tape":
        return op_inj_tape(HALF, *monos)
    return getattr(tape, builder)(*monos) if monos else id_tape(ZERO)


def build_circuit(call):
    """The circuit generator of a call (builder, sorts): the identity on
    1 for no sort."""
    builder, sorts = call
    return getattr(circuit, builder)(*[Monomial((s,)) for s in sorts] or [ONE])


def outcome(f, *args):
    """f(*args), or the class and text of the error it raises."""
    try:
        return f(*args)
    except TapecalcError as exc:
        return exc.__class__, str(exc)


# --- the per-class rules ------------------------------------------------------

def ref_type(call, sig):
    """The generator's type rule, then the check of each sort of dom and
    cod in order."""
    builder, monos = call
    if builder == "symplus_tape":
        dom, cod = monos, monos[::-1]
    elif builder == "codiag_tape":
        dom, cod = monos * 2, monos
    elif builder == "cobang_tape":
        dom, cod = (), monos
    else:
        dom = cod = monos
    for s in chain.from_iterable(dom + cod):
        sig.check_sorts((s,))
    return dom, cod


def ref_circuit_type(call, sig):
    """The generator's type rule, with the check of each of its sorts in
    order: for ``sym_circuit``, the left sort before the right."""
    builder, sorts = call
    for s in sorts:
        sig.check_sorts((s,))
    u = Monomial(sorts)
    if builder == "sym_circuit":
        return u, u[::-1]
    return u, {"identity_circuit": u, "copier_circuit": u * u,
               "discharger_circuit": ONE}[builder]


def ref_circuit_matrix(call, interp):
    """The generator's kleisli builder at the carrier sizes of its sorts,
    read left before right."""
    builder, sorts = call
    sizes = [interp.sort_size(s) for s in sorts]
    if builder == "sym_circuit":
        return kleisli.sym_tensor(*sizes)
    if builder == "copier_circuit":
        return kleisli.copier(*sizes)
    if builder == "discharger_circuit":
        return kleisli.discharger(*sizes)
    return Matrix.identity(*sizes or [1])


def ref_matrix(call, interp):
    """The generator's kleisli builder at the carrier sizes of its
    monomials, read left before right."""
    builder, monos = call
    sizes = [interp.mono_size(u) for u in monos]
    if builder == "symplus_tape":
        return kleisli.sym_plus(*sizes)
    if builder == "codiag_tape":
        return kleisli.codiag(*sizes)
    if builder == "cobang_tape":
        return kleisli.cobang(*sizes)
    return Matrix.identity(sum(sizes))


def ref_whisker(call, u, left):
    """U |> t if left, else t <| U, for the generator t of call: the
    generator at each of its monomials whiskered."""
    builder, monos = call
    return build((builder, tuple([u * m if left else m * u for m in monos])))


def old_dl_image(x, y, z):
    """The closed form of the left distributor X (x) (Y (+) Z) ->
    XY (+) XZ on indices."""
    def image(i):
        a, b = divmod(i, y + z)
        return a * y + b if b < y else x * y + a * z + (b - y)

    return tuple(image(i) for i in range(x * (y + z)))


# --- the oracle ---------------------------------------------------------------

@given(call=primitives, sorts=sort_sets)
@settings(max_examples=300, deadline=None)
def test_a_primitive_is_typed_by_its_class_rule(call, sorts):
    """The type, or the unregistered sort named first, as the
    generator's rule gives it: for a sum symmetry, the left monomial's
    before the right's."""
    sig = MonSignature(tuple(sorts))
    assert outcome(lambda: tape_types((build(call),), sig)[0]) == \
        outcome(ref_type, call, sig)


@given(call=primitives, carriers=carrier_maps)
@settings(max_examples=300, deadline=None)
def test_a_primitive_evaluates_to_its_kleisli_builder(call, carriers):
    """The matrix, a row map, or the sort named first that has no
    carrier, as the generator's kleisli builder gives it."""
    interp = Interpretation(MonSignature(SORTS), carriers, {}, MODEL)
    got = outcome(eval_tape, build(call), interp)
    expected = outcome(ref_matrix, call, interp)
    assert got == expected
    if isinstance(got, Matrix):
        assert (got.dom, got.cod, got.image) == \
            (expected.dom, expected.cod, expected.image)


@given(call=circuit_primitives, sorts=sort_sets)
@settings(max_examples=300, deadline=None)
def test_a_circuit_primitive_is_typed_by_its_class_rule(call, sorts):
    """The type, or the unregistered sort named first, as the
    generator's rule gives it: for a symmetry, the left sort's before
    the right's."""
    sig = MonSignature(tuple(sorts))
    assert outcome(type_of_circuit, build_circuit(call), sig) == \
        outcome(ref_circuit_type, call, sig)


@given(call=circuit_primitives, carriers=carrier_maps)
@settings(max_examples=300, deadline=None)
def test_a_circuit_primitive_evaluates_to_its_kleisli_builder(call, carriers):
    """The matrix, a row map, or the sort named first that has no
    carrier, as the generator's kleisli builder gives it."""
    interp = Interpretation(MonSignature(SORTS), carriers, {}, MODEL)
    got = outcome(eval_tape, build_circuit(call), interp)
    expected = outcome(ref_circuit_matrix, call, interp)
    assert got == expected
    if isinstance(got, Matrix):
        assert (got.dom, got.cod, got.image) == \
            (expected.dom, expected.cod, expected.image)


@given(call=st.one_of(primitives, st.tuples(st.just("op_inj_tape"),
                                            st.tuples(monomials))),
       u=monomials, left=st.booleans(),
       carriers=st.tuples(*[st.integers(0, 3)] * len(SORTS)))
@settings(max_examples=300, deadline=None)
def test_a_primitive_is_whiskered_field_by_field(call, u, left, carriers):
    """U |> t and t <| U are one whiskered node of t, whose type and
    matrix are those of t at its whiskered monomials."""
    t = build(call)
    whiskered = whisker_left_mono(u, t) if left else whisker_right_mono(t, u)
    assert whiskered is t if u.is_unit else whiskered.tape is t
    expected = ref_whisker(call, u, left)
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
