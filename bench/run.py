"""tapecalc benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 bench/run.py --workload {suite,tensor,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the benchmark imports tapecalc from its
``src/`` and writes scratch files and traces under ``.bench_out/``.

Set-up (importing tapecalc afresh and making its inputs from the seed)
is done nine times and ``setup_s`` is the median; the known answers are
computed once, outside it.  A measured run then repeats
whole rounds of its workload, one process, one thread, each operation
started when the previous one finished, until the next round would pass
``--seconds`` (but at least two rounds).  Every operation is checked
against a known answer.  The last line of output is one JSON object; the
lines before it say what the metrics cover.

On a shared virtual machine the processor's speed can halve within a run,
so times are measured against a speed probe that a timer runs every
``workloads.PROBE_GAP`` seconds, and reported as they would be on a
machine where the probe takes ``workloads.PROBE_REF`` seconds; see
``workloads.Probe``.  The measured probe times and the unscaled figures
are printed with the metrics.

``--trace 1`` runs one round untraced, the same round traced (see
tracing.py) and once more under tracemalloc, and reports the per-layer
metrics, in total and per input size.  On ``suite`` that round is the
coherence and PCA half of a pass.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import tracemalloc
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUPS = 9
MIN_ROUNDS = 2     # a suite pass takes 9 to 16 s, and its work varies by seed
TAPECALC_MODULES = ("objects", "theory", "circuit", "kleisli", "tape",
                    "interp", "suites", "frontend.parser", "frontend.surface",
                    "frontend.render", "frontend.cli")


def load_tapecalc() -> SimpleNamespace:
    """Import tapecalc afresh; its modules by short name, and all of them."""
    for name in [m for m in sys.modules
                 if m == "tapecalc" or m.startswith("tapecalc.")]:
        del sys.modules[name]
    tc = SimpleNamespace(pkg=importlib.import_module("tapecalc"))
    for name in TAPECALC_MODULES:
        setattr(tc, name.rsplit(".", 1)[-1],
                importlib.import_module("tapecalc." + name))
    tc.modules = [m for n, m in sys.modules.items()
                  if n == "tapecalc" or n.startswith("tapecalc.")]
    return tc


def make_workload(name: str):
    if name == "suite":
        return workloads.Suite()
    if name == "tensor":
        return workloads.Tensor()
    return workloads.Cli(ROOT, OUT)


def percentiles(latencies, tail_percentile):
    """(median, tail percentile, operations beyond the tail) of latencies."""
    lat = sorted(latencies) or [0.0]
    tail = lat[math.ceil(tail_percentile / 100 * len(lat)) - 1]
    return statistics.median(lat), tail, sum(1 for v in lat if v > tail)


def measured_run(workload, tc, inputs, seconds: float, probe):
    rec = workloads.Record(probe)
    rates, raw_rates = [], []
    start = perf_counter()
    while True:
        gc.collect()
        done, busy, raw_busy = len(rec.latencies), rec.busy, rec.raw_busy
        t0 = perf_counter()
        workload.run_round(tc, inputs, rec, index=len(rates))
        took = perf_counter() - t0
        ok = len(rec.latencies) - done
        rates.append(ok / (rec.busy - busy))
        raw_rates.append(ok / (rec.raw_busy - raw_busy))
        if len(rates) >= MIN_ROUNDS and perf_counter() - start + took > seconds:
            break
    p50, tail, beyond = percentiles(rec.latencies, workload.tail_percentile)
    raw_p50, raw_tail, _ = percentiles(rec.raw_latencies,
                                       workload.tail_percentile)
    notes = [
        f"rounds={len(rates)} measured_s={perf_counter() - start:.3f}",
        "ops_per_s: median over rounds of successful operations per second "
        "of operation time",
        f"op_p50_ms, op_tail_ms: over {len(rec.latencies)} successful "
        f"operations; op_tail_ms is the p{workload.tail_percentile:g}, "
        f"{beyond} operations beyond it",
        f"unscaled: ops_per_s={statistics.median(raw_rates):.6g} 1/s "
        f"op_p50_ms={raw_p50 * 1000:.6g} ms op_tail_ms={raw_tail * 1000:.6g} ms",
    ]
    metrics = {
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_p50_ms": (p50 * 1000, "ms"),
        "op_tail_ms": (tail * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "ok_ratio": ((rec.attempted - rec.failed) / rec.attempted, "ratio"),
    }
    return rec, metrics, notes


def timed_round(workload, tc, inputs, tracer=None):
    rec = workloads.Record()
    gc.collect()
    t0 = perf_counter()
    workload.run_round(tc, inputs, rec, tracer)
    return rec, perf_counter() - t0


def traced_run(workload, tc, inputs):
    """The same round three times: untraced, with spans, and under
    tracemalloc alone, so that neither kind of tracing inflates the other."""
    inputs = workload.trace_inputs(inputs)
    plain, untraced = timed_round(workload, tc, inputs)
    tracer = tracing.Tracer(tc)
    tracer.install()
    try:
        rec, wall = timed_round(workload, tc, inputs, tracer)
    finally:
        tracer.uninstall()
    tracemalloc.start()
    try:
        allocs, _ = timed_round(workload, tc, inputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rec.problems += plain.problems + allocs.problems

    selfs = tracer.self_times()
    groups = sorted(set(selfs) | set(tracer.counts))
    per_group = {g: layer_metrics(selfs[g], tracer.counts[g], tracer)
                 for g in groups}
    total_self = defaultdict(float)
    total_counts = defaultdict(float)
    for g in groups:
        for layer, s in selfs[g].items():
            total_self[layer] += s
        for name, v in tracer.counts[g].items():
            if name in tracing.MAXIMA:
                total_counts[name] = max(total_counts[name], v)
            else:
                total_counts[name] += v
    metrics = layer_metrics(total_self, total_counts, tracer)
    unattributed = wall - sum(total_self.values())
    metrics.update({
        "trace.peak_alloc_mb": (peak / 2 ** 20, "MB"),
        "trace.overhead": (wall / untraced, "ratio"),
        "trace.wall_s": (wall, "s"),
        "trace.unattributed_s": (unattributed, "s"),
        "trace.unattributed_share": (unattributed / wall, "ratio"),
        "trace.bookkeeping_s": (tracer.bookkeeping(), "s"),
    })
    notes = [f"traced one round: {wall:.3f} s traced, {untraced:.3f} s "
             f"untraced, {len(tracer.span_start)} spans; "
             f"{(unattributed - tracer.bookkeeping()) / wall:.4f} of the "
             "traced time is in no layer and not bookkeeping"]
    rec.problems += trace_problems(selfs, unattributed, tracer.bookkeeping())
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"trace-{workload.name}-spans.tsv")
    # share of the untraced round's operation time, per input size
    shares = {g: plain.group_busy.get(g, 0.0) / plain.busy for g in per_group}
    with open(OUT / f"trace-{workload.name}.json", "w", encoding="utf-8") as f:
        json.dump({"total": {k: v for k, (v, _) in metrics.items()},
                   "by_size": {g: {"round_share": shares[g],
                                   **{k: v for k, (v, _) in m.items()}}
                               for g, m in per_group.items()}}, f, indent=1)
    for g, m in per_group.items():
        notes.append(f"size {g}: round_share={shares[g]:.4f} " + " ".join(
            f"{k}={v:.6g}" for k, (v, _) in m.items() if v))
    return rec, metrics, notes


def trace_problems(selfs, unattributed: float, bookkeeping: float,
                   eps: float = 1e-6) -> list[str]:
    """Spans nest and never overlap, so no self time is negative and the
    time outside every top-level span (unattributed time less the
    bookkeeping) is not negative either."""
    problems = [f"negative self time {s:.3g} s of {layer} at size {g}"
                for g, layers in selfs.items()
                for layer, s in layers.items() if s < -eps]
    if unattributed - bookkeeping < -eps:
        problems.append(f"top-level spans cover more than the traced wall "
                        f"time, by {bookkeeping - unattributed:.3g} s")
    return problems


def layer_metrics(selfs, counts, tracer) -> dict:
    m = {f"{layer}.s": (selfs.get(layer, 0.0), "s") for layer in tracing.LAYERS}
    for name in tracing.COUNTERS + tracing.MAXIMA:
        if name not in ("interp.eval.repeats", "kleisli.then.perm"):
            m[name] = (counts.get(name, 0.0), "count")
    calls = counts.get("interp.eval.calls", 0.0)
    m["interp.eval.repeat_ratio"] = (
        -1.0 if tracer.repeat_unmeasured
        else counts.get("interp.eval.repeats", 0.0) / calls if calls else 0.0,
        "ratio")
    then = counts.get("kleisli.then.calls", 0.0)
    m["kleisli.then.perm_share"] = (
        counts.get("kleisli.then.perm", 0.0) / then if then else 0.0, "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("suite", "tensor", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tapecalc" / "__init__.py").is_file():
        sys.stderr.write(f"error: no tapecalc sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))

    workload = make_workload(args.workload)
    expected = workload.make_expected(args.seed)
    probe = workloads.Probe()
    probe.start()
    try:
        setups = []
        for _ in range(SETUPS):
            t0 = perf_counter()
            tc = load_tapecalc()
            inputs = workload.make_inputs(tc, args.seed, expected)
            setups.append(probe.scale(t0, perf_counter()))
        if args.trace:
            probe.stop()
            rec, metrics, notes = traced_run(workload, tc, inputs)
        else:
            rec, metrics, notes = measured_run(workload, tc, inputs,
                                               args.seconds, probe)
    finally:
        probe.stop()
    if not args.trace:
        metrics["setup_s"] = (statistics.median(s for _, s in setups), "s")
        probe_ms = statistics.median(probe.samples) * 1000
        notes.append(
            f"times are scaled to a machine on which the speed probe takes "
            f"{workloads.PROBE_REF * 1000:g} ms; here it took {probe_ms:.3f} ms "
            f"(median of {len(probe.samples)}, "
            f"{min(probe.samples) * 1000:.3f}-{max(probe.samples) * 1000:.3f})")
        notes.append(f"unscaled: setup_s="
                     f"{statistics.median(r for r, _ in setups):.6g} s")
    notes.append(f"failed_ratio = {rec.failed / rec.attempted:.6g} ratio "
                 f"({rec.failed} of {rec.attempted} operations failed, "
                 f"{rec.known_failures} of them the known failures of chains "
                 f"of {workloads.DEEP} or more steps)")
    notes += [f"problem: {p}" for p in rec.problems[:20]]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not rec.problems,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
