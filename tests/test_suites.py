"""Semantic equality and the verification suites themselves."""

import inspect
from fractions import Fraction

import pytest

from tapecalc import suites
from tapecalc.objects import Monomial, Polynomial, mono
from tapecalc.suites import (SuiteBounds, axiom_suite, coherence_suite,
                             lemma_suite, sem_eq, standard_interpretation,
                             whiskering_suite)
from tapecalc.tape import (codiag_tape, op_inj_tape, symplus_tape, term_tape,
                           tseq, tsum)
from tapecalc.theory import App, Var, choice

INTERP = standard_interpretation()
A = mono("A")
SMALL = SuiteBounds(mono_len=1, poly_len=1, samples=2, max_tuples=40)


def test_sem_eq_reflexive():
    t = codiag_tape(A)
    assert sem_eq(t, t, INTERP).equal


def test_sem_eq_commutativity_axiom():
    lhs = tseq(symplus_tape(A, A), codiag_tape(A))
    assert sem_eq(lhs, codiag_tape(A), INTERP).equal


def test_sem_eq_distinguishes_choice_weights():
    result = sem_eq(op_inj_tape(choice(Fraction(1, 2)), A),
                    op_inj_tape(choice(Fraction(1, 3)), A), INTERP)
    assert result.kind == "unequal"
    y, x, a, b = result.witness
    assert (y, x) == (0, 0)
    assert (a, b) == (Fraction(1, 2), Fraction(1, 3))


def test_sem_eq_distinguishes_flips():
    from tapecalc.circuit import CGen, MonSignature
    from tapecalc.interp import Interpretation
    from tapecalc.kleisli import Matrix, model_for
    from tapecalc.objects import ONE
    from tapecalc.tape import TCirc
    from tapecalc.theory import builtin_theory

    sig = MonSignature(("A",), {"F0": (ONE, A), "F1": (ONE, A)})
    interp = Interpretation(
        sig, {"A": 2},
        {"F0": Matrix.from_rows([[1], [0]]),
         "F1": Matrix.from_rows([[0], [1]])},
        model_for(builtin_theory("PCA", [Fraction(1, 2), Fraction(1, 3)])))
    interp.validate()

    def flip(p):
        return tseq(op_inj_tape(choice(p), ONE),
                    tsum(TCirc(CGen("F1")), TCirc(CGen("F0"))),
                    codiag_tape(A))

    result = sem_eq(flip(Fraction(1, 2)), flip(Fraction(1, 3)), interp)
    assert result.kind == "unequal"
    y, x, a, b = result.witness
    assert x == 0 and y == 0
    assert (a, b) == (Fraction(1, 2), Fraction(2, 3))


def test_sem_eq_type_error():
    result = sem_eq(codiag_tape(A), codiag_tape(mono("B")), INTERP)
    assert result.kind == "type-error"


def test_theory_equation_instance():
    # the associativity instance as term tapes, exactly
    p, q = Fraction(1, 3), Fraction(1, 2)
    lhs = App(choice(p), (App(choice(q), (Var(1), Var(2))), Var(3)))
    inner = p * (1 - q) / (1 - p * q)
    rhs = App(choice(p * q), (Var(1), App(choice(inner), (Var(2), Var(3)))))
    u = mono("A", "B")
    assert sem_eq(term_tape(lhs, u, 3), term_tape(rhs, u, 3), INTERP).equal


def test_axiom_suite_small_bounds_passes():
    report = axiom_suite(INTERP, SMALL, seed=3)
    assert report.failed == 0
    assert report.passed > 100


def test_axiom_suite_deterministic():
    r1 = axiom_suite(INTERP, SMALL, seed=5)
    r2 = axiom_suite(INTERP, SMALL, seed=5)
    assert [r.line() for r in r1.results] == [r.line() for r in r2.results]


def test_axiom_suite_covers_every_axiom_family():
    report = axiom_suite(INTERP, SMALL, seed=1)
    names = {r.instance.split("[")[0] for r in report.results}
    for family in ("circ-seq-assoc", "circ-interchange", "circ-sym-inv",
                   "circ-sym-nat", "cd-copier-assoc", "cd-copier-comm",
                   "tape-interchange", "tape-symplus-inv", "tape-symplus-nat",
                   "codiag-assoc", "codiag-unit", "codiag-comm",
                   "codiag-nat-circ", "cobang-nat-circ", "tape-functor-id",
                   "tape-functor-seq"):
        assert family in names, family
    assert any(n.startswith("codiag-nat-op") for n in names)
    assert any(n.startswith("cobang-nat-op") for n in names)
    assert any(n.startswith("op-nat-tape") for n in names)
    assert any(n.startswith("theory-eq") for n in names)


def test_lemma_suite_small_bounds_passes():
    report = lemma_suite(INTERP, SMALL, seed=3)
    assert report.failed == 0
    names = {r.instance.split("[")[0] for r in report.results}
    for family in ("fcrig-codiag-right", "fcrig-codiag-left",
                   "sumcd-codiag-copier", "maps-codiag-functional",
                   "coh-copier-sum", "coh-discharger-sum",
                   "copier-canonical", "discharger-canonical", "dl-inverse",
                   "dr-n-codiag", "dl-n-codiag"):
        assert family in names, family
    assert any(n.startswith("enrich-post") for n in names)
    assert any(n.startswith("opinj-natural") for n in names)


@pytest.mark.parametrize("model", ["PCA", "CM"])
@pytest.mark.parametrize("suite", ["axiom_suite", "lemma_suite"])
def test_law_tables_are_well_formed(monkeypatch, model, suite):
    """Every row a suite hands to the law driver has a name unique in the
    suite, draws that each name two of its metavariables, and sides that
    take one argument per metavariable and per draw; every draw joins two
    objects of one kind, monomials or polynomials."""
    calls, kinds = [], []
    real_laws, real_morphism = suites._laws, suites.Freshener.morphism

    def laws(rows, vars_, *args, **kwargs):
        calls.append((rows, vars_))
        return real_laws(rows, vars_, *args, **kwargs)

    def morphism(self, a, b):
        kinds.append((type(a), type(b)))
        return real_morphism(self, a, b)

    monkeypatch.setattr(suites, "_laws", laws)
    monkeypatch.setattr(suites.Freshener, "morphism", morphism)
    getattr(suites, suite)(standard_interpretation(model), SMALL, seed=3)
    rows = {id(row): (row, vars_) for group, vars_ in calls for row in group}
    names = [name for (name, _, _), _ in rows.values()]
    assert len(names) == len(set(names))
    for (name, draws, sides), vars_ in rows.values():
        for draw in draws:
            assert len(draw) == 2 and set(draw) <= set(vars_), (name, draw)
        arity = len(inspect.signature(sides).parameters)
        assert arity == len(vars_) + len(draws), name
    assert kinds
    for a, b in kinds:
        assert a is b and a in (Monomial, Polynomial)


def test_whiskering_suite_covers_all_laws():
    report = whiskering_suite(INTERP, SMALL, seed=2)
    assert report.failed == 0
    names = {r.instance.split("[")[0] for r in report.results}
    expected = {"W1-left", "W1-right", "W2-left", "W2-right", "W3-left",
                "W3-right", "W4-left", "W4-right", "W5-left", "W5-right",
                "W6-left", "W6-right", "W7-exchange", "W8-codiag",
                "W9-cobang", "W10-symplus", "W11-symtensor", "W12-sym-nat",
                "W13-left-right", "W14-left-left", "W15-right-right",
                "W16-right-dl", "W17-left-dl", "W18-opinj"}
    assert expected <= names


def test_coherence_suite_passes():
    report = coherence_suite(max_size=3)
    assert report.failed == 0


def test_report_lines_format():
    report = coherence_suite(max_size=1)
    for line in report.lines():
        instance, status = line.split("\t")[:2]
        assert status in ("PASS", "FAIL")
        assert instance
