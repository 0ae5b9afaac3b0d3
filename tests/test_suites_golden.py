"""The verification suites are byte-stable: for each suite under PCA and CM
(and the matrix-level coherence suite) the report lines and every input
that reaches ``sem_eq`` hash to the digests in ``golden_suites.json``.

An input is both terms' ``repr`` plus the matrices of the fresh
``?``-generators, so a change in an instance's name, seed, terms or fresh
matrices shows here even when the instance still passes.

To record the digests again after a deliberate change of the suites:

    PYTHONPATH=src python tests/test_suites_golden.py > tests/golden_suites.json
"""

import hashlib
import json
import sys
from pathlib import Path

from tapecalc import suites
from tapecalc.suites import SuiteBounds, standard_interpretation

GOLDEN = Path(__file__).resolve().parent / "golden_suites.json"
BOUNDS = SuiteBounds(mono_len=1, poly_len=1, samples=2, max_tuples=40)
SEED = 3
THEORY_SUITES = ("axiom_suite", "lemma_suite", "whiskering_suite")


def digests(bounds: SuiteBounds = BOUNDS, seed: int = SEED) -> dict[str, str]:
    """SHA-256 of each suite's report lines and of its `sem_eq` inputs."""
    out = {}
    inputs = hashlib.sha256()
    real_sem_eq = suites.sem_eq

    def recording_sem_eq(lhs, rhs, interp):
        gens = sorted((name, m.pretty())
                      for name, m in interp.gen_matrices.items()
                      if name.startswith("?"))
        inputs.update(repr((lhs, rhs, gens)).encode("utf-8") + b"\n")
        return real_sem_eq(lhs, rhs, interp)

    def record(key, report):
        lines = "".join(line + "\n" for line in report.lines())
        out[f"{key}:lines"] = hashlib.sha256(lines.encode("utf-8")).hexdigest()
        out[f"{key}:sem_eq"] = inputs.hexdigest()
        out[f"{key}:instances"] = str(len(report.results))

    suites.sem_eq = recording_sem_eq
    try:
        for model in ("PCA", "CM"):
            interp = standard_interpretation(model)
            for fn_name in THEORY_SUITES:
                inputs = hashlib.sha256()
                record(f"{model}:{fn_name}",
                       getattr(suites, fn_name)(interp, bounds, seed))
        inputs = hashlib.sha256()
        record("coherence_suite",
               suites.coherence_suite(bounds, seed, max_size=bounds.carrier))
    finally:
        suites.sem_eq = real_sem_eq
    return out


def test_suites_match_golden_digests():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = digests()
    assert set(got) == set(golden)
    changed = sorted(key for key in got if got[key] != golden[key])
    assert changed == []


if __name__ == "__main__":
    json.dump(digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
