"""Terms, substitution and the built-in theories."""

from fractions import Fraction

import pytest

from tapecalc.circuit import MonSignature
from tapecalc.errors import ModelError, TypeCheckError
from tapecalc.interp import Interpretation, eval_tape
from tapecalc.kleisli import Matrix, eval_vector, model_for
from tapecalc.objects import mono, poly
from tapecalc.tape import term_tape, type_of_tape
from tapecalc.theory import (App, CM_PLUS, CM_ZERO, STAR, Var, builtin_theory,
                             check_term, choice, substitute)

H = Fraction(1, 2)
T = Fraction(1, 3)


def test_check_term_examples():
    check_term(Var(1), 1)
    with pytest.raises(TypeCheckError):
        check_term(App(choice(H), (Var(1), Var(3))), 2)
    check_term(App(choice(T), (App(STAR, ()), Var(2))), 2)
    with pytest.raises(TypeCheckError):
        check_term(App(STAR, (Var(1),)), 1)


def test_substitute_examples():
    s = App(choice(H), (Var(1), Var(2)))
    assert substitute(Var(1), [s]) == s
    assert substitute(App(choice(H), (Var(1), Var(2))), [Var(2), Var(1)]) == \
        App(choice(H), (Var(2), Var(1)))
    q = Fraction(2, 5)
    assert substitute(App(choice(q), (Var(1), Var(1))), [App(STAR, ())]) == \
        App(choice(q), (App(STAR, ()), App(STAR, ())))


def test_substitute_monoid_laws():
    t = App(choice(H), (Var(2), App(choice(T), (Var(1), Var(1)))))
    idents = [Var(1), Var(2)]
    assert substitute(t, idents) == t
    args = [App(STAR, ()), Var(1)]
    inner = [App(choice(H), (Var(1), Var(1)))]
    lhs = substitute(substitute(t, args), inner)
    rhs = substitute(t, [substitute(a, inner) for a in args])
    assert lhs == rhs


def test_pca_commutativity_instance():
    theory = builtin_theory("PCA", [H])
    eqs = {eq.name: eq for eq in theory.equations}
    comm = eqs["pca-comm[p=1/2]"]
    assert comm.lhs == App(choice(H), (Var(1), Var(2)))
    assert comm.rhs == App(choice(H), (Var(2), Var(1)))  # 1 - 1/2 = 1/2


def test_cm_associativity_instance():
    theory = builtin_theory("CM")
    eqs = {eq.name: eq for eq in theory.equations}
    assoc = eqs["cm-assoc"]
    x1, x2, x3 = Var(1), Var(2), Var(3)
    assert assoc.lhs == App(CM_PLUS, (App(CM_PLUS, (x1, x2)), x3))
    assert assoc.rhs == App(CM_PLUS, (x1, App(CM_PLUS, (x2, x3))))
    assert any(op == CM_ZERO for op in theory.ops)


def test_pca_associativity_reparameterization():
    theory = builtin_theory("PCA", [T, H])
    eqs = {eq.name: eq for eq in theory.equations}
    assoc = eqs["pca-assoc[p=1/3,q=1/2]"]
    # outer parameter pq = 1/6, inner p(1-q)/(1-pq) = 1/5
    assert assoc.rhs.op == choice(Fraction(1, 6))
    inner = assoc.rhs.args[1]
    assert inner.op == choice(Fraction(1, 5))
    assert choice(Fraction(1, 5)) in theory.ops


def test_parameter_range_errors():
    with pytest.raises(ModelError):
        builtin_theory("PCA", [Fraction(1)])
    with pytest.raises(ModelError):
        builtin_theory("PCA", [Fraction(0)])
    with pytest.raises(ModelError):
        builtin_theory("PCA", [])
    with pytest.raises(ModelError):
        builtin_theory("XYZ")


def test_10000_deep_term():
    """Every walker over Σ-terms loops, so depth is not bounded by the
    interpreter's recursion limit."""
    deep = 10000
    x1, x2 = Var(1), Var(2)
    t = swapped = x1
    for _ in range(deep):
        t, swapped = App(CM_PLUS, (t, x2)), App(CM_PLUS, (swapped, x1))
    check_term(t, 2)
    with pytest.raises(TypeCheckError, match="variable x2 out of context of size 1"):
        check_term(t, 1)
    assert substitute(t, [x1, x2]) is t
    assert substitute(substitute(t, [x2, x1]), [x2, x1]) is t
    cm = model_for(builtin_theory("CM"))
    assert eval_vector(t, 2, cm) == (1, deep)
    assert eval_vector(App(CM_PLUS, (t, swapped)), 2, cm) == (deep + 2, deep)
    assert str(t) == "(" * deep + "x1" + " + x2)" * deep
    sig = MonSignature(("A",))
    tape = term_tape(t, mono("A"), 2)
    assert type_of_tape(tape, sig) == (poly(("A",)), poly(("A",), ("A",)))
    interp = Interpretation(sig, {"A": 1}, {}, cm)
    assert eval_tape(tape, interp) == Matrix.make(1, 2, [(0, 0, 1), (1, 0, deep)])
