"""Tests of the benchmark itself: its oracle agrees with tapecalc on tiny
inputs, wrong answers are counted as failures, and traced times
are never negative.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def tc():
    return run.load_tapecalc()


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# --- the oracle against tapecalc ---------------------------------------------

@pytest.mark.parametrize("carriers", [(1, 1), (1, 2), (2, 1)])
def test_copier_tensor_copier_matches_tapecalc(tc, carriers):
    interp = tc.suites.standard_interpretation("PCA", carriers=carriers)
    p = tc.objects.poly(*workloads.P_MONOMIALS)
    c = tc.pkg.copier_tape(p)
    m = tc.pkg.eval_tape(tc.pkg.tensor_tape(c, c, interp.sig), interp)
    expected = oracle.copier_tensor_copier(workloads.P_MONOMIALS,
                                           dict(zip("AB", carriers)))
    assert (m.dom, m.cod) == (len(expected), len(expected) ** 2)
    assert list(m.nonzeros()) == [(y, x, 1) for x, y in enumerate(expected)]


def test_pair_index_matches_prod_index(tc):
    interp = tc.suites.standard_interpretation("PCA", carriers=(2, 3))
    p = tc.objects.poly(*workloads.P_MONOMIALS)
    q = tc.objects.poly(("B",), ("A", "A"))
    index = tc.interp.prod_index(p, q, interp)
    carriers = {"A": 2, "B": 3}
    qm = [("B",), ("A", "A")]
    for x in range(11):
        for y in range(7):
            z = oracle.pair_index(workloads.P_MONOMIALS, qm, carriers, x, y)
            assert z == index(x, y)
            assert oracle.split_index(workloads.P_MONOMIALS, qm, carriers,
                                      z) == (x, y)


def test_scaled_product_matches_fraction_product():
    rng = Random(3)
    nums = {g: workloads.random_weights(rng) for g in ("G0", "G1")}
    mats = {g: [[Fraction(v, workloads.DENOM) for v in row] for row in m]
            for g, m in nums.items()}
    seq = ["G0", "G1", "G1", "G0", "G1"]
    assert (oracle.scaled_chain_product(nums, seq, workloads.DENOM)
            == oracle.chain_product(mats, seq))


def chain_commands(tmp_path, n=6, seed=5):
    text, answers = workloads.chain_module(n, Random(seed))
    path = tmp_path / "chain.tape"
    path.write_text(text)
    return str(path), answers


def cli_output(tc, argv, capsys):
    code = tc.cli.main(argv)
    return code, capsys.readouterr().out


def test_chain_answers_match_tapecalc(tc, tmp_path, capsys):
    f, answers = chain_commands(tmp_path)
    assert cli_output(tc, ["check", f], capsys) == (0, "")
    assert cli_output(tc, ["eval", f, "--term", "chain", "--interp", "I"],
                      capsys) == (0, answers["eval"])
    assert cli_output(tc, ["eq", f, "--left", "chain", "--right", "paired",
                           "--interp", "I"], capsys) == (0, "")
    assert cli_output(tc, ["eq", f, "--left", "chain", "--right", "other",
                           "--interp", "I"], capsys) == (1, answers["unequal"])


def test_normal_form_matches_tapecalc(tc, capsys):
    for n in (2, 5, 9):
        expr, normal = workloads.object_expression(n, Random(n))
        assert cli_output(tc, ["normalize", expr], capsys) == (0, normal)


# --- wrong answers count as failures -----------------------------------------

def test_wrong_cli_answer_is_a_failure(tc, tmp_path):
    f, answers = chain_commands(tmp_path)
    right = workloads.Command(("eval", f, "--term", "chain", "--interp", "I"),
                              "n6", 0, answers["eval"])
    wrong = dataclasses.replace(right, out="[[1]]\n")
    rec = workloads.Record()
    for cmd in (right, wrong):
        start, end, problem, known = workloads.run_command(tc, cmd)
        rec.op(start, end, problem is None, problem, known)
    assert (rec.attempted, rec.failed, len(rec.problems)) == (2, 1, 1)


def test_deep_chain_failure_is_known(tc, tmp_path):
    text, answers = workloads.chain_module(1100, Random(1))
    path = tmp_path / "deep.tape"
    path.write_text(text)
    cmd = workloads.Command(("eval", str(path), "--term", "chain",
                             "--interp", "I"), "n1100", 0, answers["eval"],
                            deep=True)
    _, _, problem, known = workloads.run_command(tc, cmd)
    if problem is not None:        # today: RecursionError
        assert known and "RecursionError" in problem


def test_wrong_suite_count_is_a_failure(tc):
    suite = workloads.Suite()
    inputs = suite.make_inputs(tc, 0, suite.make_expected(0))
    inputs["segments"] = (("coherence", None, "coherence_suite", 1),)
    inputs["bounds"] = tc.suites.SuiteBounds(carrier=1)
    probe = workloads.Probe()
    probe.sample()
    rec = workloads.Record(probe)
    suite.run_round(tc, inputs, rec)
    assert rec.failed >= 1 and rec.problems
    assert tc.suites.InstanceResult.__name__ == "InstanceResult"


def test_tensor_control_is_unequal(tc):
    tensor = workloads.Tensor()
    inputs = tensor.make_inputs(tc, 11, tensor.make_expected(11))
    f, f_control, interp = inputs["law"]
    p = inputs["P"]
    assert tc.pkg.sem_eq(f, f, interp).equal
    assert not tc.pkg.sem_eq(f, f_control, interp).equal
    assert tc.pkg.sem_eq(tc.pkg.copier_tape(p), tc.pkg.copier_tape(p),
                         interp).equal


def test_probe_scales_times_to_the_reference_machine():
    probe = workloads.Probe()
    ref = workloads.PROBE_REF
    # a probe at half the reference time before both operations, and two
    # of 0.05 s at a quarter of it inside the second
    probe.samples = [ref / 2, ref / 4, ref / 4]
    probe.spans = [(0.0, 0.001), (10.1, 10.15), (10.2, 10.25)]
    rec = workloads.Record(probe)
    rec.op(1.0, 1.5, True)
    rec.op(10.0, 10.35, False, "wrong")
    assert rec.latencies == [pytest.approx(1.0)]
    assert rec.raw_latencies == [pytest.approx(0.5)]
    assert rec.busy == pytest.approx(2.0)
    assert rec.raw_busy == pytest.approx(0.75)
    assert (rec.attempted, rec.failed, rec.problems) == (2, 1, ["wrong"])


def test_one_slow_probe_is_outvoted():
    probe = workloads.Probe()
    ref = workloads.PROBE_REF
    probe.samples = [ref, ref, 10 * ref]
    probe.spans = [(0.0, 0.01), (0.2, 0.21), (0.4, 0.45)]
    assert probe.scale(0.5, 0.6) == pytest.approx((0.1, 0.1))


def test_probe_samples_inside_an_operation():
    probe = workloads.Probe()
    probe.start()
    try:
        start = run.perf_counter()
        while run.perf_counter() - start < 3 * workloads.PROBE_GAP:
            pass
        end = run.perf_counter()
    finally:
        probe.stop()
    inside = [b - a for a, b in probe.spans[1:] if start <= a and b <= end]
    assert len(inside) >= 2
    raw, _ = probe.scale(start, end)
    assert raw == pytest.approx(end - start - sum(inside))


# --- tracing -----------------------------------------------------------------

def test_trace_times_and_restores(tc, tmp_path):
    f, answers = chain_commands(tmp_path, n=8)
    svg = str(tmp_path / "chain.svg")
    cmds = [workloads.Command(("check", f), "n8", 0, ""),
            workloads.Command(("render", f, "--term", "chain", "-o", svg),
                              "n8", 0, "", svg=svg),
            workloads.Command(("eval", f, "--term", "chain", "--interp", "I"),
                              "n8", 0, answers["eval"])]
    cli = workloads.Cli(ROOT, tmp_path)
    originals = (tc.cli.main, tc.suites.eval_tape, tc.kleisli.Matrix.then)
    tracer = tracing.Tracer(tc)
    tracer.install()
    rec = workloads.Record()
    start = run.perf_counter()
    try:
        cli.run_round(tc, cmds, rec, tracer)
    finally:
        wall = run.perf_counter() - start
        tracer.uninstall()
    assert (tc.cli.main, tc.suites.eval_tape, tc.kleisli.Matrix.then) == originals
    assert rec.failed == 0
    selfs = tracer.self_times()
    assert all(v >= 0 for v in selfs["n8"].values())
    unattributed = wall - sum(selfs["n8"].values())
    assert run.trace_problems(selfs, unattributed, tracer.bookkeeping()) == []
    counts = tracer.counts["n8"]
    # 8 generator boxes in the chain: 8 + 7 sequence nodes per chain
    assert counts["interp.eval.calls"] >= 15
    assert counts["render.bytes"] > 0 and counts["parser.tokens"] > 0


def test_negative_trace_times_are_problems():
    assert run.trace_problems({"n8": {"parser": 0.5}}, 0.2, 0.1) == []
    assert len(run.trace_problems({"n8": {"parser": -0.01}}, 0.2, 0.1)) == 1
    assert len(run.trace_problems({"n8": {"parser": 0.5}}, 0.1, 0.2)) == 1


def test_repeat_ratio_counts_shared_subterms(tc):
    interp = tc.suites.standard_interpretation("PCA")
    a = tc.tape.TIdMon(tc.objects.mono("A"))
    t = tc.tape.TSum(a, a)
    tracer = tracing.Tracer(tc)
    tracer.install()
    try:
        tc.pkg.eval_tape(t, interp)
        tc.pkg.eval_tape(t, interp)
    finally:
        tracer.uninstall()
    counts = tracer.counts["all"]
    assert counts["interp.eval.calls"] == 6
    assert counts["interp.eval.repeats"] == 4   # second a, then all of t


def test_then_counts_madds_and_permutations(tc):
    matrix = tc.kleisli.Matrix
    swap = matrix.make(2, 2, [(1, 0, 1), (0, 1, 1)])
    full = matrix.make(2, 2, [(y, x, Fraction(1, 2))
                              for x in range(2) for y in range(2)])
    tracer = tracing.Tracer(tc)
    tracer.install()
    try:
        swap.then(full)
        full.then(full)
    finally:
        tracer.uninstall()
    counts = tracer.counts["all"]
    assert counts["kleisli.then.calls"] == 2
    assert counts["kleisli.then.madds"] == 4 + 8
    assert counts["kleisli.then.perm"] == 1


# --- the command line --------------------------------------------------------

def run_bench(cwd, *args, timeout=120):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def test_cli_run_prints_every_end_to_end_metric():
    done = run_bench(ROOT, "--workload", "cli", "--seed", "3",
                     "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] > result["failed"] > 0
    names = {m["name"] for m in benchmark_spec()["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_names_match_the_spec(tc):
    tracer = tracing.Tracer(tc)
    names = set(run.layer_metrics({}, {}, tracer)) | {
        "trace.peak_alloc_mb", "trace.overhead", "trace.wall_s",
        "trace.unattributed_s", "trace.unattributed_share",
        "trace.bookkeeping_s"}
    assert names == {m["name"] for m in benchmark_spec()["per_layer"]}


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_bench(tmp_path, "--workload", "suite", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
