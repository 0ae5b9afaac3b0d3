"""The verification suites are byte-stable: for each suite under PCA and CM
(and the matrix-level coherence suite) the report lines, every input
that reaches ``sem_eq`` and the matrices it compares hash to the digests
in ``golden_suites.json``.

An input is both terms' ``repr`` plus the matrices of the fresh
``?``-generators, so a change in an instance's name, seed, terms or fresh
matrices shows here even when the instance still passes.  The matrices
are, for each ``sem_eq`` call in order, the evaluated matrix of each
side (or the error its evaluation raises) and the fresh matrices, with
no ``repr`` of a term: a change of how a tape is built that keeps its
meaning keeps them.

``golden_suites_default.json`` holds the digests of the lines, instance
counts and matrices of the PCA and CM suites at the default
``SuiteBounds()`` and seeds 0 and 7; CI compares them, as they take too
long for a unit test.

To record the digests again after a deliberate change of the suites:

    PYTHONPATH=src python tests/test_suites_golden.py > tests/golden_suites.json
    PYTHONPATH=src python tests/test_suites_golden.py --default \
        > tests/golden_suites_default.json
"""

import hashlib
import json
import sys
from pathlib import Path

from tapecalc import suites
from tapecalc.interp import eval_tape
from tapecalc.suites import SuiteBounds, standard_interpretation

GOLDEN = Path(__file__).resolve().parent / "golden_suites.json"
BOUNDS = SuiteBounds(mono_len=1, poly_len=1, samples=2, max_tuples=40)
SEED = 3
THEORY_SUITES = ("axiom_suite", "lemma_suite", "whiskering_suite")
DEFAULT_SEEDS = (0, 7)


def _evaluated(t, interp) -> str:
    try:
        return eval_tape(t, interp).pretty()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def digests(bounds: SuiteBounds = BOUNDS, seed: int = SEED,
            reprs: bool = True, prefix: str = "") -> dict[str, str]:
    """SHA-256 of each suite's report lines, of its `sem_eq` inputs (if
    reprs) and of the matrices that `sem_eq` compares.  The coherence
    suite, which calls no `sem_eq`, is hashed if reprs."""
    out = {}
    real_sem_eq = suites.sem_eq

    def recording_sem_eq(lhs, rhs, interp):
        gens = sorted((name, m.pretty())
                      for name, m in interp.gen_matrices.items()
                      if name.startswith("?"))
        if reprs:
            inputs.update(repr((lhs, rhs, gens)).encode("utf-8") + b"\n")
        result = real_sem_eq(lhs, rhs, interp)
        matrices.update(repr((_evaluated(lhs, interp), _evaluated(rhs, interp),
                              gens)).encode("utf-8") + b"\n")
        return result

    def record(key, report):
        lines = "".join(line + "\n" for line in report.lines())
        out[f"{key}:lines"] = hashlib.sha256(lines.encode("utf-8")).hexdigest()
        if reprs:
            out[f"{key}:sem_eq"] = inputs.hexdigest()
        out[f"{key}:matrices"] = matrices.hexdigest()
        out[f"{key}:instances"] = str(len(report.results))

    suites.sem_eq = recording_sem_eq
    try:
        for model in ("PCA", "CM"):
            interp = standard_interpretation(model)
            for fn_name in THEORY_SUITES:
                inputs, matrices = hashlib.sha256(), hashlib.sha256()
                record(f"{prefix}{model}:{fn_name}",
                       getattr(suites, fn_name)(interp, bounds, seed))
        if reprs:
            inputs, matrices = hashlib.sha256(), hashlib.sha256()
            record("coherence_suite",
                   suites.coherence_suite(bounds, seed, max_size=bounds.carrier))
    finally:
        suites.sem_eq = real_sem_eq
    return out


def default_digests() -> dict[str, str]:
    """The digests, with no `repr`, of the PCA and CM suites at the
    default bounds and each of DEFAULT_SEEDS."""
    out = {}
    for seed in DEFAULT_SEEDS:
        out.update(digests(SuiteBounds(), seed, reprs=False,
                           prefix=f"seed{seed}:"))
    return out


def test_suites_match_golden_digests():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = digests()
    assert set(got) == set(golden)
    changed = sorted(key for key in got if got[key] != golden[key])
    assert changed == []


if __name__ == "__main__":
    json.dump(default_digests() if sys.argv[1:] == ["--default"] else digests(),
              sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
