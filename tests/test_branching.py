"""The branching tapes against their step construction.

A ``tape.TTerm``, a term's branching at a polynomial, an operation's
<f>_P too (the branching of f(x1, ..., xn)), is one leaf, typed,
evaluated and whiskered from its ``branch``.  The references are the step
construction of ``full_trees`` (a tape per variable and per operation
of the term, and a distributor chain per operation over a polynomial),
the weight vector computed densely node by node, and the stack of
``Matrix.make`` entries.  A branching agrees with its reference when
both give the same type and matrix, or raise the same error class with
the same text.
"""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tapecalc.circuit import MonSignature
from tapecalc.errors import (TapecalcError, UnknownOperationError,
                             UnknownSortError)
from tapecalc.frontend.cli import main
from tapecalc.frontend.render import render_svg
from tapecalc.hashcons import postorder
from tapecalc.interp import Interpretation, eval_tape
from tapecalc.kleisli import (Matrix, TheoryModel, branch_matrix, eval_vector,
                              model_for, op_matrix)
from tapecalc.objects import Monomial, Polynomial, mono, poly
from tapecalc.tape import (TTerm, TWhisker, op_inj_tape, tape_types,
                           term_tape, whisker_left_mono, whisker_right_mono)
from tapecalc.theory import (CM_PLUS, CM_ZERO, SIGMA_KIDS, STAR, Var,
                             builtin_theory, choice, operations)

from full_trees import expand, op_inj_tree, term_tree

SORTS = ("A", "B")
MODELS = {"PCA": model_for(builtin_theory("PCA", (Fraction(1, 2),))),
          "CM": model_for(builtin_theory("CM"))}
# per model: the operations it weighs, the nullary one first, and one
# that it does not weigh
OPS = {"PCA": ((STAR, choice(Fraction(1, 2)), choice(Fraction(2, 5))),
               CM_PLUS),
       "CM": ((CM_ZERO, CM_PLUS), choice(Fraction(1, 3)))}

monomials = st.lists(st.sampled_from(SORTS), max_size=2).map(
    lambda sorts: Monomial(tuple(sorts)))
polynomials = st.integers(0, 3).flatmap(lambda k: st.lists(
    monomials, min_size=k, max_size=k)).map(lambda monos: Polynomial(monos))


def draw_term(data, ops, context):
    """A term over context variables, each application's arguments drawn
    from the variables, the nullary operation and the earlier
    applications, so that subterms are shared."""
    pool = [*map(Var, range(1, context + 1)), ops[0]()]
    for _ in range(data.draw(st.integers(0, 6))):
        op = data.draw(st.sampled_from(ops))
        pool.append(op(*[data.draw(st.sampled_from(pool))
                         for _ in range(op.arity)]))
    return pool[-1] if context == 0 else data.draw(st.sampled_from(pool))


def outcome(t, interp):
    """t's type and matrix under interp, or the class and text of the
    error that typing, then evaluation, raises."""
    try:
        return tape_types((t,), interp.sig)[0], eval_tape(t, interp)
    except TapecalcError as exc:
        return exc.__class__, str(exc)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_branchings_match_their_step_construction(data):
    """term_tape and op_inj_tape, whiskered on the left, on the right or
    not at all, under PCA and CM, over a signature with or without B,
    give the type, matrix or error of the step construction whiskered
    the same way; now and then the term uses an operation that the
    model does not weigh."""
    name = data.draw(st.sampled_from(sorted(MODELS)))
    weighed, unweighed = OPS[name]
    ops = weighed + (unweighed,) * data.draw(st.integers(0, 1))
    context = data.draw(st.integers(0, 4))
    term = draw_term(data, ops, context)
    op = data.draw(st.sampled_from(ops))
    p, u = data.draw(polynomials), data.draw(monomials)
    side = data.draw(st.sampled_from(("none", "left", "right")))
    sig = MonSignature(data.draw(st.sampled_from((SORTS, SORTS[:1]))))
    carriers = dict(zip(SORTS, data.draw(st.lists(st.integers(0, 2),
                                                   min_size=2, max_size=2))))
    interp = Interpretation(sig, carriers, {}, MODELS[name])

    def whiskered(t):
        if side == "left":
            return whisker_left_mono(u, t)
        return whisker_right_mono(t, u) if side == "right" else t

    for built, ref in ((term_tape(term, p, context), term_tree(term, p, context)),
                       (op_inj_tape(op, p), op_inj_tree(op, p))):
        assert outcome(whiskered(built), interp) == \
            outcome(whiskered(ref), interp), (term, op, p, u, side)


def test_whiskering_a_branching_whiskers_its_polynomial():
    """U |> <t>_P = <t>_{UP} and <t>_P <| U = <t>_{PU}: one whiskered
    node each, whose full tree, type and matrix are those of the
    branching at the whiskered polynomial."""
    term = choice(Fraction(1, 2))(Var(2), CM_ZERO())
    p, u = poly(("A",), ("B", "A")), mono("B")
    t = term_tape(term, p, 3)
    assert isinstance(t, TTerm) and t.branch == (term, tuple(p), 3)
    interp = Interpretation(MonSignature(SORTS), {"A": 2, "B": 3}, {},
                            MODELS["CM"])
    for w, grown in ((whisker_left_mono(u, t),
                      poly(("B", "A"), ("B", "B", "A"))),
                     (whisker_right_mono(t, u),
                      poly(("A", "B"), ("B", "A", "B")))):
        assert w is TWhisker(t, ((w.steps[0][0], u),))
        assert expand(w) is expand(term_tape(term, grown, 3))
        assert outcome(w, interp) == outcome(term_tape(term, grown, 3), interp)
    for q in (p, mono("A")):
        assert op_inj_tape(CM_PLUS, q) is term_tape(CM_PLUS(Var(1), Var(2)),
                                                    q, 2)


def dense_vector(term, context, model):
    """The weight vector node by node: a variable's unit vector, and an
    application's the sum of its arguments' weighted by its operation."""
    zero, one = model.semiring.zero, model.semiring.one
    vectors = {}
    for t in postorder((term,), SIGMA_KIDS)[0]:
        if isinstance(t, Var):
            vectors[t] = [one if i == t.index - 1 else zero
                          for i in range(context)]
        else:
            vectors[t] = [sum((w * vectors[arg][i] for w, arg in
                               zip(model.weight_vector(t.op), t.args)), zero)
                          for i in range(context)]
    return tuple(vectors[term])


def stacked(w, n):
    """The (len(w)*n)-by-n stack of w_j times the identity, entry by entry."""
    return Matrix.make(n, len(w) * n, ((j * n + i, i, wj)
                                       for j, wj in enumerate(w)
                                       for i in range(n)))


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_weight_vectors_and_their_stacks_match_the_dense_ones(data):
    """eval_vector's one pass gives the dense weight vector, and
    branch_matrix and op_matrix the entry-by-entry stack, a row map
    exactly when the vector is a unit vector."""
    name = data.draw(st.sampled_from(sorted(MODELS)))
    model, weighed = MODELS[name], OPS[name][0]
    context = data.draw(st.integers(0, 4))
    term = draw_term(data, weighed, context)
    w = eval_vector(term, context, model)
    assert w == dense_vector(term, context, model)
    n = data.draw(st.integers(0, 3))
    m = branch_matrix(w, n)
    assert m == stacked(w, n)
    if n:
        assert (m.image is not None) == (sorted(w) == [0] * (len(w) - 1) + [1])
    op = data.draw(st.sampled_from(weighed))
    assert op_matrix(op, model, n) == stacked(model.weight_vector(op), n)


PCA = MODELS["PCA"]
KEYED_MODELS = {
    "PCA": PCA,
    "PCA 1/3": model_for(builtin_theory("PCA", (Fraction(1, 3),))),
    "CM": MODELS["CM"],
    "PCA by hand": TheoryModel(PCA.theory, PCA.semiring, dict(PCA.weights)),
    "PCA skewed": TheoryModel(PCA.theory, PCA.semiring, {
        **PCA.weights, choice(Fraction(1, 2)): (Fraction(1, 3),
                                                Fraction(2, 3))})}
"""Models that a branching is evaluated under in turn: PCA at two
parameter sets, CM, PCA's weights in a new object, equal to PCA's model
but not it, and PCA with +_1/2 weighed (1/3, 2/3), which no sound model
of PCA does but which tells a vector kept under PCA from its own."""


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_a_branching_keeps_its_weight_vector_per_model(data):
    """One branching, a term's at a polynomial or an operation's at a
    monomial, evaluated under the KEYED_MODELS in a drawn order, models
    repeated: under a model that weighs its term, each matrix is its
    full tree's (``branching_tree``) and the stack of the dense weight
    vector, and the node keeps that model's vector; under one that does
    not, every evaluation raises ``UnknownOperationError`` and the node
    keeps what it kept before.  Without a carrier for a sort of P, the
    carrier is named, not the weight, and nothing is kept either."""
    name = data.draw(st.sampled_from(sorted(MODELS)))
    ops = OPS[name][0]
    context = data.draw(st.integers(0, 4))
    if data.draw(st.booleans()):
        p = Polynomial(data.draw(st.lists(monomials, min_size=1, max_size=3)))
        node = term_tape(draw_term(data, ops, context), p, context)
    else:
        node = op_inj_tape(data.draw(st.sampled_from(ops)),
                           data.draw(monomials))
    assert node.__class__ is TTerm
    term, dom, n = node.branch
    sig = MonSignature(SORTS)
    carriers = dict(zip(SORTS, data.draw(st.lists(
        st.integers(0, 2), min_size=2, max_size=2))))
    order = data.draw(st.lists(st.sampled_from(sorted(KEYED_MODELS)),
                               min_size=1, max_size=8))
    sorts = [s for u in dom for s in u]
    for key in order:
        model = KEYED_MODELS[key]
        interp = Interpretation(sig, carriers, {}, model)
        kept = node.__dict__.get("weighed")
        if sorts:
            uncarried = Interpretation(sig, {}, {}, model)
            assert outcome(node, uncarried) == (
                UnknownSortError, f"sort {sorts[0]} has no carrier")
            assert node.__dict__.get("weighed") is kept
        try:
            for op in operations(term):
                model.weight_vector(op)
        except UnknownOperationError:
            for _ in range(2):
                with pytest.raises(UnknownOperationError):
                    eval_tape(node, interp)
                assert node.__dict__.get("weighed") is kept
            continue
        m = eval_tape(node, interp)
        assert m == eval_tape(expand(node), interp)
        assert m == stacked(dense_vector(term, n, model),
                            sum(map(interp.mono_size, dom)))
        assert node.__dict__["weighed"][0] is model
    assert KEYED_MODELS["PCA by hand"] == PCA
    assert KEYED_MODELS["PCA by hand"] is not PCA


def test_the_first_unweighed_operation_in_preorder_is_named(tmp_path, capsys):
    """Under CM, which weighs neither +_1/3 nor +_1/5, check and eval name
    the first such operation in the term's left-to-right preorder:
    +_1/3 in (x1 +_1/3 x2) + (x3 +_1/5 x4), where a parents-first
    walk would name +_1/5, and +_1/5 in (x1 +_1/3 x2) +_1/5 x3, where a
    children-first walk would name +_1/3."""
    def run(term, argv):
        path = tmp_path / "m.tape"
        path.write_text("sort A;\ntheory CM;\ninterp I {\n  A = {0, 1};\n"
                        f"  model = CM;\n}}\ndef d = term<{term}>@A;\n")
        code = main([*argv[:1], str(path), *argv[1:]])
        out = capsys.readouterr()
        return code, out.out, out.err

    check, evaluate = ["check"], ["eval", "--term", "d", "--interp", "I"]
    both = "(x1 +_1/3 x2) + (x3 +_1/5 x4)"
    assert run(both, check) == (3, "", "error: definition d: operation "
                                "+_1/3 has no weights in any declared theory\n")
    assert run(both, evaluate) == (
        3, "", "error: operation +_1/3 has no weights in model of CM\n")
    assert run("(x1 +_1/3 x2) +_1/5 x3", check) == (
        3, "", "error: definition d: operation +_1/5 has no weights in any "
        "declared theory\n")
    assert operations(choice(Fraction(1, 5))(
        choice(Fraction(1, 3))(Var(1), Var(2)), Var(3))) == (
            choice(Fraction(1, 5)), choice(Fraction(1, 3)))


def test_eval_vector_of_a_2000_variable_sum_is_linear():
    """x1 +_1/2 x2 +_1/2 ... +_1/2 x2000, nested to the left as the parser
    reads it, weighs x_i by 1/2^(2001 - i) and x1 by 1/2^1999, in well
    under a second: a dense vector per node took 20 s."""
    n, half = 2000, choice(Fraction(1, 2))
    term = Var(1)
    for i in range(2, n + 1):
        term = half(term, Var(i))
    start = time.perf_counter()
    w = eval_vector(term, n, MODELS["PCA"])
    assert time.perf_counter() - start < 1
    assert w == (Fraction(1, 2 ** (n - 1)),
                 *[Fraction(1, 2 ** (n + 1 - i)) for i in range(2, n + 1)])


def test_a_branching_draws_each_dom_band_to_its_copies():
    """<t>_{A (+) B} over 3 variables: two dom bands, six cod bands, the
    k-th joined to dom band k mod 2, and the term as its label."""
    term = choice(Fraction(1, 2))(Var(3), Var(1))
    svg = render_svg(term_tape(term, poly(("A",), ("B",)), 3),
                     MonSignature(SORTS))
    assert svg.count('fill="#f2f2ef"') == 2 + 6
    assert svg.count("<line") == 2 + 6
    assert f">{term}</text>" in svg
