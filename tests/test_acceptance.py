"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints a single pass/fail line; run with ``pytest -s
tests/test_acceptance.py`` to see them as they complete.
"""

import itertools
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import tapecalc.kleisli as K
from tapecalc.circuit import (CGen, CIdSort, CSym, CSeq, CTensor, CCopier,
                              MonSignature)
from tapecalc.interp import Interpretation, carrier_of, eval_tape, prod_index
from tapecalc.kleisli import Matrix, model_for, model_soundness
from tapecalc.objects import (Monomial, ONE, Polynomial, Tensor, embed,
                              mono, normalize, poly_tensor)
from tapecalc.suites import (SuiteBounds, axiom_suite, lemma_suite,
                             rand_substochastic, sem_eq,
                             standard_interpretation, whiskering_suite)
from tapecalc.tape import (TCirc, TCodiag, TOpInj, cobang_tape, copier_tape,
                           discharger_tape, distributor, tensor_tape, tseq,
                           tsum)
from tapecalc.theory import builtin_theory, choice

from test_objects import random_term, random_poly, SORTS


def report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {status}: {name}{suffix}")
    assert ok, f"criterion {num} failed: {name}{suffix}"


PARAMS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5))


def test_criterion_1_object_normalizer():
    start = time.perf_counter()
    rng = random.Random(2024)
    ok = True
    for _ in range(1000):
        term = random_term(rng, 6)
        p = normalize(term, SORTS)
        ok = ok and normalize(embed(p), SORTS) == p
    for _ in range(1000):
        p, q = random_poly(rng), random_poly(rng)
        ok = ok and poly_tensor(p, q) == normalize(Tensor(embed(p), embed(q)),
                                                   SORTS)
    elapsed = time.perf_counter() - start
    report(1, "object normalizer: idempotence and tensor oracle, 1000 terms",
           ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_2_structural_coherence():
    start = time.perf_counter()
    rng = random.Random(99)
    ok = True
    for x, y, z in itertools.product(range(4), repeat=3):
        d = K.dl(x, y, z)
        ok = ok and d.is_permutation() and K.dr(x, y, z).is_permutation()
        ok = ok and d.then(d.transpose_permutation()) == Matrix.identity(d.dom)
        f = rand_substochastic(x, rng.randint(0, 3), rng)
        g = rand_substochastic(y, rng.randint(0, 3), rng)
        h = rand_substochastic(z, rng.randint(0, 3), rng)
        lhs = f.tensor(g.oplus(h)).then(K.dl(f.cod, g.cod, h.cod))
        rhs = d.then(f.tensor(g).oplus(f.tensor(h)))
        ok = ok and lhs == rhs
    for x, y in itertools.product(range(4), repeat=2):
        ok = ok and K.sym_tensor(x, y).is_permutation()
        ok = ok and K.sym_plus(x, y).is_permutation()
    elapsed = time.perf_counter() - start
    report(2, "structural matrices: permutations, dl naturality, dl inverse",
           ok and elapsed < 5.0, f"{elapsed:.2f}s")


def test_criterion_3_axiom_suite():
    start = time.perf_counter()
    bounds = SuiteBounds()
    reports = {}
    for name, interp in (("PCA", standard_interpretation("PCA", PARAMS)),
                         ("CM", standard_interpretation("CM"))):
        reports[name] = axiom_suite(interp, bounds, seed=42)
    ok = all(r.failed == 0 for r in reports.values())
    counts = {}
    for r in reports.values():
        for res in r.results:
            family = res.instance.split("[")[0]
            counts[family] = counts.get(family, 0) + 1
    ok = ok and all(n >= 5 for n in counts.values())
    total = sum(r.passed for r in reports.values())
    elapsed = time.perf_counter() - start
    report(3, "axiom suite under PCA{1/2,1/3,2/5} and CM, all rows",
           ok and elapsed < 60.0,
           f"{total} instances, {len(counts)} families, {elapsed:.1f}s")


def test_criterion_4_whiskering_laws():
    laws = {f"W{i}" for i in range(1, 19)}
    ok = True
    seen = {}
    for name, interp in (("PCA", standard_interpretation("PCA", PARAMS)),
                         ("CM", standard_interpretation("CM"))):
        rep = whiskering_suite(interp, SuiteBounds(samples=3), seed=7)
        ok = ok and rep.failed == 0
        for res in rep.results:
            law = res.instance.split("-")[0]
            seen[law] = seen.get(law, 0) + 1
    ok = ok and laws <= set(seen) and all(seen[l] >= 3 for l in laws)
    report(4, "whiskering laws W1..W18, >=3 seeded instances each",
           ok, f"{sum(seen.values())} instances")


def all_polys(max_monos=2, max_len=2):
    monos = []
    for n in range(max_len + 1):
        monos.extend(Monomial(t) for t in itertools.product(("A", "B"), repeat=n))
    out = []
    for n in range(max_monos + 1):
        out.extend(Polynomial(t) for t in itertools.product(monos, repeat=n))
    return out


def test_criterion_5_copy_discard_coherence():
    interp = standard_interpretation()
    ok = True
    count = 0
    for p in all_polys():
        m = eval_tape(copier_tape(p), interp)
        idx = prod_index(p, p, interp)
        n = carrier_of(p, interp)
        expected = Matrix.make(n, carrier_of(p * p, interp),
                               ((idx(x, x), x, 1) for x in range(n)))
        ok = ok and m == expected
        d = eval_tape(discharger_tape(p), interp)
        ok = ok and d == Matrix.make(n, 1, ((0, x, 1) for x in range(n)))
        count += 1
        # both coherence paths, for every split of p into x (+) y
        for k in range(len(p) + 1):
            x = Polynomial(p[:k])
            y = Polynomial(p[k:])
            blocks = tsum(copier_tape(x), cobang_tape(x * y),
                          cobang_tape(y * x), copier_tape(y))
            reshuffle = tsum(distributor(x, x, y, inverse=True),
                             distributor(y, x, y, inverse=True))
            ok = ok and sem_eq(copier_tape(p), tseq(blocks, reshuffle),
                               interp).equal
            disch = tseq(tsum(discharger_tape(x), discharger_tape(y)),
                         TCodiag(ONE))
            ok = ok and sem_eq(discharger_tape(p), disch, interp).equal
    report(5, "copier/discharger canonical + split coherence, all small P",
           ok, f"{count} polynomials")


def test_criterion_6_propositions_as_tests():
    families = {
        "fcrig-codiag-right": 0, "fcrig-codiag-left": 0,
        "fcrig-cobang-right": 0, "fcrig-cobang-left": 0,
        "sumcd-codiag-copier": 0, "sumcd-codiag-discard": 0,
        "sumcd-cobang-copier": 0, "sumcd-cobang-discard": 0,
        "maps-codiag-functional": 0, "maps-codiag-total": 0,
        "maps-cobang-functional": 0, "maps-cobang-total": 0,
        "enrich-post": 0, "enrich-pre": 0, "enrich-tensor-right": 0,
        "enrich-tensor-left": 0, "opinj-natural": 0,
    }
    ok = True
    for name in ("PCA", "CM"):
        interp = (standard_interpretation("PCA", PARAMS) if name == "PCA"
                  else standard_interpretation("CM"))
        rep = lemma_suite(interp, SuiteBounds(), seed=13)
        ok = ok and rep.failed == 0
        for res in rep.results:
            family = res.instance.split("[")[0].split("(")[0]
            if family in families:
                families[family] += 1
    ok = ok and all(n > 0 for n in families.values())
    report(6, "fc rig equalities, sum/copy interaction, enrichment, "
              "operation naturality", ok,
           f"{sum(families.values())} instances")


def test_criterion_7_model_soundness():
    pca = model_for(builtin_theory("PCA", PARAMS))
    cm = model_for(builtin_theory("CM"))
    ok = model_soundness(pca) == [] and model_soundness(cm) == []
    # the reparameterized associativity instances really are present
    names = [eq.name for eq in pca.theory.equations]
    ok = ok and any("assoc" in n for n in names)
    ok = ok and choice(Fraction(1, 5)) in pca.theory.ops  # (1/3)(1-1/2)/(1-1/6)
    report(7, "PCA and CM weights satisfy every instantiated equation",
           ok, f"{len(pca.theory.equations) + len(cm.theory.equations)} equations")


def boolean_world():
    sig = MonSignature(("A",), {
        "AND": (mono("A", "A"), mono("A")),
        "OR": (mono("A", "A"), mono("A")),
        "NOT": (mono("A"), mono("A")),
        "F0": (ONE, mono("A")),
        "F1": (ONE, mono("A")),
        "merge": (mono("A", "A"), mono("A")),
        "fail": (ONE, mono("A")),
    })
    matrices = {
        "AND": Matrix.from_rows([[1, 1, 1, 0], [0, 0, 0, 1]]),
        "OR": Matrix.from_rows([[1, 0, 0, 0], [0, 1, 1, 1]]),
        "NOT": Matrix.from_rows([[0, 1], [1, 0]]),
        "F0": Matrix.from_rows([[1], [0]]),
        "F1": Matrix.from_rows([[0], [1]]),
        "merge": Matrix.from_rows([[1, 0, 0, 0], [0, 0, 0, 1]]),
        "fail": Matrix.from_rows([[0], [0]]),
    }
    interp = Interpretation(sig, {"A": 2}, matrices,
                            model_for(builtin_theory("PCA", PARAMS)))
    interp.validate()
    return sig, interp


def mux_circuit():
    i = CIdSort("A")
    return CSeq(
        CSeq(CSeq(CTensor(CCopier("A"), CTensor(i, i)),
                  CTensor(i, CTensor(CSym("A", "A"), i))),
             CTensor(CGen("AND"), CSeq(CTensor(CGen("NOT"), i), CGen("AND")))),
        CGen("OR"))


def flip_tape(p):
    return tseq(TOpInj(choice(p), ONE),
                tsum(TCirc(CGen("F1")), TCirc(CGen("F0"))),
                TCodiag(mono("A")))


def test_criterion_8_probabilistic_circuits():
    start = time.perf_counter()
    sig, interp = boolean_world()
    ok = True
    for p in PARAMS:
        m = eval_tape(flip_tape(p), interp)
        ok = ok and m.to_rows() == [[1 - p], [p]]

    p = Fraction(1, 3)
    mix = tseq(TOpInj(choice(p), mono("A", "A")),
               tsum(TCirc(CGen("AND")), TCirc(CGen("OR"))),
               TCodiag(mono("A")))
    expected = interp.gen_matrices["AND"].scale(p).add(
        interp.gen_matrices["OR"].scale(1 - p))
    ok = ok and eval_tape(mix, interp) == expected

    def mux_composite(c_name, d_name):
        plugged = tensor_tape(
            tensor_tape(flip_tape(p), TCirc(CGen(c_name)), sig),
            TCirc(CGen(d_name)), sig)
        return tseq(plugged, TCirc(mux_circuit()))

    def tape_choice(c_name, d_name):
        return tseq(TOpInj(choice(p), ONE),
                    tsum(TCirc(CGen(c_name)), TCirc(CGen(d_name))),
                    TCodiag(mono("A")))

    # with d = fail the multiplexer is null while the tape choice keeps c
    failed = eval_tape(mux_composite("F1", "fail"), interp)
    ok = ok and failed == Matrix.zeros(1, 2)
    kept = eval_tape(tape_choice("F1", "fail"), interp)
    ok = ok and kept == interp.gen_matrices["F1"].scale(p)

    # with deterministic total inputs the two agree
    for c_name, d_name in (("F1", "F0"), ("F0", "F1"), ("F0", "F0")):
        ok = ok and sem_eq(mux_composite(c_name, d_name),
                           tape_choice(c_name, d_name), interp).equal
    elapsed = time.perf_counter() - start
    report(8, "probabilistic multiplexer vs tape choice, flips and mixtures",
           ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_9_frontend():
    import contextlib
    import io
    import tempfile
    from tapecalc.frontend.cli import main
    from tapecalc.frontend.parser import parse_module
    from tapecalc.frontend.surface import print_module

    def run(argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return main(argv)

    corpus = sorted((Path(__file__).parent.parent / "corpus").glob("*.tape"))
    ok = len(corpus) >= 10
    for path in corpus:
        text = path.read_text()
        printed = print_module(parse_module(text))
        same = re.sub(r"\s+", " ", printed).strip() == \
            re.sub(r"\s+", " ", text).strip()
        ok = ok and same and print_module(parse_module(printed)) == printed
    bool_file = str(Path(__file__).parent.parent / "corpus" / "bool_gates.tape")
    ok = ok and run(["eq", bool_file, "--left", "muxstate", "--right",
                     "pstate", "--interp", "Bool"]) == 0
    ok = ok and run(["eq", bool_file, "--left", "muxfail", "--right",
                     "pfail", "--interp", "Bool"]) == 1
    ok = ok and run(["eq", bool_file, "--left", "flip", "--right", "mix",
                     "--interp", "Bool"]) == 3
    with tempfile.TemporaryDirectory() as tmp:
        out1, out2 = Path(tmp) / "a.svg", Path(tmp) / "b.svg"
        run(["render", bool_file, "--term", "mux", "-o", str(out1)])
        run(["render", bool_file, "--term", "mux", "-o", str(out2)])
        ok = ok and out1.read_bytes() == out2.read_bytes()
    report(9, "corpus round-trip, eq exit codes, render determinism",
           ok, f"{len(corpus)} files")
