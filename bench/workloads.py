"""The three benchmark workloads: ``suite``, ``tensor`` and ``cli``.

Each workload computes the known answers for a seed without tapecalc
(``make_expected``, once a run), makes tapecalc's inputs from the seed
(``make_inputs``, the timed set-up) and runs one round of operations
(``run_round``), checking every operation against a known answer and
recording it in a ``Record``.  A round is the same list of operations for
every seed, so rounds can be compared.
"""

from __future__ import annotations

import dataclasses
import gc
import io
import re
import signal
import statistics
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from random import Random
from time import perf_counter

import oracle


PROBE_STEPS = 1000       # about 5 ms of pure-Python work
PROBE_REF = 0.005        # seconds the probe takes on the reference machine
PROBE_GAP = 0.2          # seconds between probes
PROBE_WINDOW = 2.0       # an operation is scaled by the probes this long
                         # before it too, so that one slow probe is outvoted


def probe_work() -> Fraction:
    """Fixed work like tapecalc's own: tuple keys, dicts, Fractions."""
    table: dict = {}
    total = Fraction(0)
    for i in range(PROBE_STEPS):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        total += Fraction(i % 7 + 1, i % 5 + 2)
    return total


class Probe:
    """The machine's speed, sampled every PROBE_GAP seconds by a timer
    signal, also in the middle of an operation.

    On a shared virtual machine the processor's speed can halve within
    seconds (a probe took 2.0 to 4.4 ms on one two-vCPU 2.1 GHz guest),
    and a single-threaded Python run slows with it.  Times are scaled to
    the reference machine, on which the probe takes PROBE_REF seconds;
    a run prints its unscaled figures too.  The probe's own time is taken
    out of the times it falls in.  The collector is off while probing, so
    a program that grows the heap does not slow the probe.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spans: list[tuple[float, float]] = []   # start, end of each

    def sample(self, *_signal) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            probe_work()
            end = perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.samples.append(end - start)
        self.spans.append((start, end))

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_GAP, PROBE_GAP)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> tuple[float, float]:
        """Seconds from start to end less the probes in between, as
        measured and scaled by the median of those probes and the ones
        PROBE_WINDOW seconds before.  A probe runs between two bytecodes,
        so it lies wholly inside or outside [start, end]."""
        inside, probes = 0.0, []
        i = len(self.spans)
        while i and (self.spans[i - 1][0] >= start - PROBE_WINDOW
                     or not probes):
            i -= 1
            a, b = self.spans[i]
            if b <= end:
                probes.append(self.samples[i])
                if a >= start:
                    inside += b - a
        seconds = end - start - inside
        return seconds, seconds * PROBE_REF / statistics.median(probes)


class Record:
    """Outcomes of the operations run so far.  With a probe, operation
    times are scaled to the reference machine; the raw_ fields keep them
    as measured."""

    def __init__(self, probe: Probe | None = None):
        self.probe = probe
        self.latencies: list[float] = []   # seconds, successful operations
        self.raw_latencies: list[float] = []
        self.busy = 0.0                    # seconds, all operations
        self.raw_busy = 0.0
        self.group = ""                    # input size of the operation
        self.group_busy: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []      # wrong answers, unexpected errors
        self.known_failures = 0

    def op(self, start: float, end: float, ok: bool,
           problem: str | None = None, known: bool = False) -> None:
        """An operation of group self.group that ran from start to end."""
        if self.probe:
            raw, latency = self.probe.scale(start, end)
        else:
            raw = latency = end - start
        self.busy += latency
        self.raw_busy += raw
        self.group_busy[self.group] = self.group_busy.get(self.group, 0.0) + latency
        self.attempted += 1
        if ok:
            self.latencies.append(latency)
            self.raw_latencies.append(raw)
        else:
            self.failed += 1
        if known:
            self.known_failures += 1
        elif problem:
            self.problems.append(problem)


# --- suite -------------------------------------------------------------------

# (group, theory, suite function, instances per call at default bounds)
SUITE_SEGMENTS = (
    ("coherence", None, "coherence_suite", 384),
    ("PCA.axiom", "PCA", "axiom_suite", 2738),
    ("PCA.lemma", "PCA", "lemma_suite", 1413),
    ("PCA.whiskering", "PCA", "whiskering_suite", 120),
    ("CM.axiom", "CM", "axiom_suite", 2616),
    ("CM.lemma", "CM", "lemma_suite", 1303),
    ("CM.whiskering", "CM", "whiskering_suite", 120),
)
SEED_STRIDE = 100_003


class Suite:
    """The library's verification suites: one law instance per operation."""

    name = "suite"
    # The slowest instances depend on the seed: over four seeds one pass
    # had its p99 at 22 to 43 ms and its p90 at 3.6 to 4.7 ms, so p90.
    tail_percentile = 90

    def make_expected(self, seed: int):
        return None          # the instance counts of SUITE_SEGMENTS

    def make_inputs(self, tc, seed: int, expected):
        return {"seed": seed, "segments": SUITE_SEGMENTS,
                "bounds": tc.suites.SuiteBounds(),
                "PCA": tc.suites.standard_interpretation("PCA"),
                "CM": tc.suites.standard_interpretation("CM")}

    def trace_inputs(self, inputs):
        """A traced run covers the coherence and PCA segments, 4655
        instances: tracemalloc slows a whole pass to about a minute, and
        a shared machine at times runs at half speed."""
        return dict(inputs, segments=SUITE_SEGMENTS[:4])

    def run_round(self, tc, inputs, rec: Record, tracer=None,
                  index: int = 0) -> None:
        """One pass.  Pass `index` of a run draws its fresh matrices from
        its own seed: their sizes, and so the work, vary by seed, and a
        run averages over as many seeds as it makes passes."""
        suites = tc.suites
        seed = inputs["seed"] + SEED_STRIDE * index
        base = suites.InstanceResult
        current = {"group": "", "start": 0.0, "count": 0}

        class TimedResult(base):
            """Records each instance as it is made: one per law instance."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                rec.op(current["start"], perf_counter(), self.ok,
                       None if self.ok else f"{self.instance} failed")
                current["count"] += 1
                if tracer:
                    tracer.add("suites.instances")
                    tracer.begin_op(current["group"])
                current["start"] = perf_counter()

        suites.InstanceResult = TimedResult
        try:
            for name, theory, fn_name, expected in inputs["segments"]:
                current["group"], current["count"] = name, 0
                if tracer:
                    tracer.begin_op(name)
                fn = getattr(suites, fn_name)
                rec.group = name
                current["start"] = perf_counter()
                if theory is None:
                    bounds = inputs["bounds"]
                    report = fn(bounds, seed, max_size=bounds.carrier)
                else:
                    report = fn(inputs[theory], inputs["bounds"], seed)
                got = len(report.results)
                if got != expected or current["count"] != expected:
                    now = perf_counter()
                    for _ in range(max(expected - current["count"], 1)):
                        rec.op(now, now, False, f"{name}: {got} instances, "
                                                f"expected {expected}")
        finally:
            suites.InstanceResult = base


# --- tensor ------------------------------------------------------------------

P_MONOMIALS = [("A",), ("A", "B"), ("B",)]    # P = A (+) AB (+) B

# (kind, carriers of A and B), about nine seconds a round.  Five kinds of
# operation of distinct cost put a run's median latency inside one kind
# (the copiers at (2, 2)) rather than between two.  A traced run
# makes three rounds, one under tracemalloc, which slows the copiers
# fourteenfold; at carriers (2, 3) that alone took 53 s on a two-vCPU
# 2.1 GHz guest, so the ladder stops at (2, 2) to end within three minutes
# when such a shared machine runs at half speed.  The law's terms have
# about 2.6 * 10^5 typed nodes whatever the carriers, so it stays at the
# smallest, where its matrices have at most 81 columns: law and control
# are term-size work, three quarters of a round, and most of ops_per_s.
LAW_CARRIERS = (1, 1)
TENSOR_LADDER = (("copier", (1, 1)), ("copier", (1, 2)), ("copier", (2, 2)),
                 ("law", LAW_CARRIERS), ("control", LAW_CARRIERS))


def positive_matrix(tc, dom: int, cod: int, rng: Random):
    """A random substochastic matrix with no zero entry."""
    return tc.kleisli.Matrix.make(dom, cod, (
        (y, x, Fraction(rng.randint(1, DENOM - 1), DENOM * cod))
        for x in range(dom) for y in range(cod)))


def rename_generators(tc, term, names: dict):
    """The same term with every generator renamed by `names`."""
    term_types = (tc.tape.TapeTerm, tc.circuit.CircuitTerm)
    if isinstance(term, tc.circuit.CGen):
        return tc.circuit.CGen(names[term.name])
    changes = {}
    for f in dataclasses.fields(term):
        value = getattr(term, f.name)
        if isinstance(value, term_types):
            changes[f.name] = rename_generators(tc, value, names)
    return dataclasses.replace(term, **changes) if changes else term


class Tensor:
    """copier (x) copier on growing carriers (large 0/1 matrices, few
    term nodes), and the interchange law c (x) f = (c (x) id) ; (id (x) f)
    with a perturbed control (large, repetitive terms, small matrices)."""

    name = "tensor"
    # Ten to fifteen operations a run: the p90 is the second slowest.  The
    # slowest alone moved by a quarter between runs of five seeds.
    tail_percentile = 90

    def make_expected(self, seed: int):
        """Output row of each input column of copier (x) copier."""
        return {carriers: oracle.copier_tensor_copier(
                    P_MONOMIALS, dict(zip("AB", carriers)))
                for kind, carriers in TENSOR_LADDER if kind == "copier"}

    def make_inputs(self, tc, seed: int, expected):
        p = tc.objects.poly(*P_MONOMIALS)
        inputs = {"P": p, "expected": expected,
                  "interps": {carriers: tc.suites.standard_interpretation(
                                  "PCA", carriers=carriers)
                              for carriers in {c: 0 for _, c in TENSOR_LADDER}}}
        # f's shape comes from the suites' Freshener; its matrices are
        # replaced by ones with no zero entry, so that the work does not
        # depend on how many entries the seed happens to zero.
        rng = Random(seed)
        base = inputs["interps"][LAW_CARRIERS]
        fresh = tc.suites.Freshener(base, rng)
        f = fresh.tape(p, p * p)
        mats = {n: positive_matrix(tc, m.dom, m.cod, rng)
                for n, m in fresh.extra_mats.items()}
        # The control's f has its own generators, one of them perturbed:
        # every branch of f has positive weight, so f changes and the
        # composite differs from c (x) f.
        names = {n: n + "'" for n in mats}
        control = {names[n]: m for n, m in mats.items()}
        target = names[next(iter(mats))]
        m = control[target]
        entries = list(m.nonzeros())
        y, x, w = entries[0]
        entries[0] = (y, x, w / 2)
        control[target] = tc.kleisli.Matrix.make(m.dom, m.cod, entries)
        sig = dict(fresh.extra_sig)
        sig.update({names[n]: t for n, t in fresh.extra_sig.items()})
        interp = base.with_gens(sig, {**mats, **control})
        inputs["law"] = (f, rename_generators(tc, f, names), interp)
        return inputs

    def trace_inputs(self, inputs):
        return inputs

    def run_round(self, tc, inputs, rec: Record, tracer=None,
                  index: int = 0) -> None:
        api, p = tc.pkg, inputs["P"]
        for kind, carriers in TENSOR_LADDER:
            group = "{}.c{}x{}".format(kind, *carriers)
            if tracer:
                tracer.begin_op(group)
            rec.group = group
            start = perf_counter()
            if kind == "copier":
                interp = inputs["interps"][carriers]
                c = api.copier_tape(p)
                m = api.eval_tape(api.tensor_tape(c, c, interp.sig), interp)
                end = perf_counter()
                expected = inputs["expected"][carriers]
                ok = ((m.dom, m.cod) == (len(expected), len(expected) ** 2)
                      and list(m.nonzeros()) ==
                      [(y, x, 1) for x, y in enumerate(expected)])
            else:
                f, f_control, interp = inputs["law"]
                sig = interp.sig
                c = api.copier_tape(p)
                right = f if kind == "law" else f_control
                lhs = api.tensor_tape(c, f, sig)
                rhs = tc.tape.tseq(
                    api.tensor_tape(c, api.id_tape(p), sig),
                    api.tensor_tape(api.id_tape(p * p), right, sig))
                result = api.sem_eq(lhs, rhs, interp)
                end = perf_counter()
                ok = result.kind == ("equal" if kind == "law" else "unequal")
            rec.op(start, end, ok,
                   None if ok else f"{kind} at {group}: wrong answer")


# --- cli ---------------------------------------------------------------------

CHAIN_LENGTHS = tuple(8 * 2 ** k for k in range(9))    # 8 .. 2048
RENDER_MAX = 64          # render grows cubically; 128 steps take seconds
DEEP = 1000              # check/eval/eq/normalize recurse once per step
DENOM = 5                # generator weights are multiples of 1/DENOM
SORTS = 3                # carrier size of the chain modules' sort
MATRIX_OUT = re.compile(r"\[(\[[0-9/, ]*\](, \[[0-9/, ]*\])*)?\]\n")
SVG_ROOT = "{http://www.w3.org/2000/svg}svg"


@dataclasses.dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    group: str                 # "corpus" or the chain length, "n512"
    code: int                  # expected exit code
    out: str | None = None     # expected stdout; None: matrix or prefix
    out_prefix: str = ""
    svg: str = ""              # SVG file the command writes, checked
    deep: bool = False         # fails today: recursion once per step


def random_weights(rng: Random) -> list[list[int]]:
    """Numerators over DENOM of a random stochastic matrix with no zero
    entry, so that products of such matrices never vanish."""
    cols = []
    for _ in range(SORTS):
        cuts = sorted(rng.sample(range(1, DENOM), SORTS - 1))
        cols.append([b - a for a, b in zip([0] + cuts, cuts + [DENOM])])
    return [[cols[x][y] for x in range(SORTS)] for y in range(SORTS)]


def chain_module(n: int, rng: Random):
    """Module text with n-step chains, and the commands' known answers.

    ``other`` ends in the reset Z, which sends everything to the first
    state, where ``chain`` ends in a matrix with no zero entry; so the two
    differ in every column."""
    names = [f"G{i}" for i in range(3)]
    mats = {g: random_weights(rng) for g in names}
    mats["Z"] = [[DENOM] * SORTS] + [[0] * SORTS for _ in range(SORTS - 1)]
    seq = [rng.choice(names) for _ in range(n)]
    other = seq[:-1] + ["Z"]
    product = oracle.scaled_chain_product(mats, seq, DENOM)
    y, x, a, b = oracle.first_difference(
        product, oracle.scaled_chain_product(mats, other, DENOM))

    def rows(m):
        return oracle.pretty([[Fraction(v, DENOM) for v in row] for row in m])

    def chain(s):
        return " ; ".join(f"[ {g} ]" for g in s)

    paired = " ; ".join(f"[ {g} ; {h} ]" for g, h in zip(seq[::2], seq[1::2]))
    lines = ["sort A;"] + [f"gen {g} : A -> A;" for g in mats]
    lines += ["theory PCA with p = 1/2;", "interp I {",
              "  A = {" + ", ".join(str(i) for i in range(SORTS)) + "};"]
    lines += [f"  {g} = {rows(m)};" for g, m in mats.items()]
    lines += ["  model = PCA;", "}", f"def chain = {chain(seq)};",
              f"def paired = {paired};", f"def other = {chain(other)};",
              "check chain = paired with I;"]
    answers = {"eval": oracle.pretty(product) + "\n",
               "unequal": f"unequal at entry ({y},{x}): left={a} right={b}\n"}
    return "\n".join(lines) + "\n", answers


def object_expression(n: int, rng: Random):
    """An n-factor (x)-product with two sums, and its normal form."""
    factors, texts = [], []
    sums = set(rng.sample(range(n), 2))
    for i in range(n):
        if i in sums:
            a, b = rng.sample(["A", "B", "C", "1"], 2)
            factors.append([s if s != "1" else "" for s in (a, b)])
            texts.append(f"({a} (+) {b})")
        else:
            word = "".join(rng.choice("ABC") for _ in range(rng.randint(1, 2)))
            factors.append([word])
            texts.append(word)
    return " (x) ".join(texts), oracle.expand(factors) + "\n"


def corpus_commands(corpus: Path, svg: str) -> list[Command]:
    """Every definition evaluated and rendered, every check directive
    decided, plus the exit codes and outputs the README and tests document."""
    cmds = []
    for path in sorted(corpus.glob("*.tape")):
        text, f = path.read_text(encoding="utf-8"), str(path)
        defs = re.findall(r"^def (\w+)", text, re.M)
        interp = re.findall(r"^interp (\w+)", text, re.M)[0]
        cmds.append(Command(("check", f), "corpus", 0, ""))
        for d in defs:
            cmds.append(Command(("eval", f, "--term", d, "--interp", interp),
                                "corpus", 0))
            cmds.append(Command(("render", f, "--term", d, "-o", svg),
                                "corpus", 0, "", svg=svg))
        for left, right, i in re.findall(
                r"^check (\w+) = (\w+) with (\w+);", text, re.M):
            cmds.append(Command(("eq", f, "--left", left, "--right", right,
                                 "--interp", i), "corpus", 0, ""))
    gates = str(corpus / "bool_gates.tape")
    cmds += [
        Command(("eval", gates, "--term", "flip", "--interp", "Bool"),
                "corpus", 0, "[[2/3], [1/3]]\n"),
        Command(("eq", gates, "--left", "muxfail", "--right", "pfail",
                 "--interp", "Bool"), "corpus", 1, None, "unequal at entry"),
        Command(("eq", gates, "--left", "flip", "--right", "mix",
                 "--interp", "Bool"), "corpus", 3, ""),
        Command(("normalize", "(A (+) 1) (x) (B (+) C)"), "corpus", 0,
                "AB (+) AC (+) B (+) C\n"),
    ]
    return cmds


class Cli:
    """In-process ``tapecalc`` commands over the corpus and generated
    chains of 8 to 2048 steps."""

    name = "cli"
    # A fixed percentile keeps op_tail_ms comparable between commits whose
    # runs hold different numbers of commands; about 1200 commands a run
    # put the p99 among the two renders of 64 steps in each round.
    tail_percentile = 99

    def __init__(self, root: Path, out: Path):
        self.corpus = root / "corpus"
        self.out = out

    def make_expected(self, seed: int) -> list[Command]:
        """The commands and their answers; writes the chain modules."""
        rng = Random(seed)
        work = self.out / "cli"
        work.mkdir(parents=True, exist_ok=True)
        svg = str(self.out / "render.svg")
        cmds = corpus_commands(self.corpus, svg)
        for n in CHAIN_LENGTHS:
            text, answers = chain_module(n, rng)
            path = work / f"chain{n}.tape"
            path.write_text(text, encoding="utf-8")
            f, g, deep = str(path), f"n{n}", n >= DEEP
            cmds += [
                Command(("check", f), g, 0, "", deep=deep),
                Command(("eval", f, "--term", "chain", "--interp", "I"), g, 0,
                        answers["eval"], deep=deep),
                Command(("eq", f, "--left", "chain", "--right", "paired",
                         "--interp", "I"), g, 0, "", deep=deep),
                Command(("eq", f, "--left", "chain", "--right", "other",
                         "--interp", "I"), g, 1, answers["unequal"], deep=deep),
            ]
            expr, normal = object_expression(n, rng)
            cmds.append(Command(("normalize", expr), g, 0, normal, deep=deep))
            if n <= RENDER_MAX:
                cmds += [Command(("render", f, "--term", term, "-o", svg),
                                 g, 0, "", svg=svg)
                         for term in ("chain", "other")]
        return cmds

    def make_inputs(self, tc, seed: int, cmds):
        return cmds

    def trace_inputs(self, cmds):
        return cmds

    def run_round(self, tc, cmds, rec: Record, tracer=None,
                  index: int = 0) -> None:
        for cmd in cmds:
            if tracer:
                tracer.begin_op(cmd.group)
            rec.group = cmd.group
            start, end, problem, known = run_command(tc, cmd)
            rec.op(start, end, problem is None, problem, known)


def run_command(tc, cmd: Command):
    """Run one command; returns (start, end, problem or None, known
    failure)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = tc.cli.main(list(cmd.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:   # an escaped exception fails the command
            code, error = None, exc
        end = perf_counter()
    what = f"{cmd.group}: {' '.join(cmd.argv)}"[:120]
    if error is not None:
        known = cmd.deep and isinstance(error, RecursionError)
        return start, end, f"{what}: {type(error).__name__} escaped", known
    text = out.getvalue()
    if code != cmd.code:
        return start, end, f"{what}: exit {code}, expected {cmd.code}", False
    if cmd.out is not None and text != cmd.out:
        return start, end, f"{what}: wrong output {text[:80]!r}", False
    if cmd.out is None and not (text.startswith(cmd.out_prefix) if cmd.out_prefix
                                else MATRIX_OUT.fullmatch(text)):
        return start, end, f"{what}: malformed output {text[:80]!r}", False
    if cmd.svg:
        try:
            root = ET.parse(cmd.svg).getroot()
        except ET.ParseError as exc:
            return start, end, f"{what}: SVG is not well-formed: {exc}", False
        if root.tag != SVG_ROOT:
            return start, end, f"{what}: root element {root.tag}", False
    return start, end, None, False
