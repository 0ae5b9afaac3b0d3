"""Executable verification corpus: axioms and derived laws checked exactly.

Every axiom of the calculus and every derived equation (structural
coherence, whiskering algebra, copy/discard coherence, enrichment) is
instantiated at small types and checked as an exact matrix identity
under a concrete interpretation.  Object metavariables are enumerated up
to the bounds; morphism metavariables become fresh generators carrying
seeded random matrices, so failures are reproducible from the seed.
Each law is a row (name, draws, sides) that the one driver ``_laws``
binds, seeds, draws and checks.  ``sem_eq`` decides an instance by one
walk over both sides' derived nodes (``tape.TERM_KIDS``), typing only
the nodes that keep no type under the instance's signature (see
``tape.tape_types``); a type error is the one that walk raises.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from random import Random
from typing import Iterable, Sequence

from . import kleisli
from .circuit import (CGen, CircuitTerm, CTensor, MonSignature,
                      copier_circuit, cseq, ctensor, discharger_circuit,
                      identity_circuit, sym_circuit)
from .errors import TypeCheckError
from .hashcons import fold, postorder
from .interp import (Interpretation, carrier_of, eval_tape, evaluator,
                     prod_index)
from .kleisli import Matrix, TheoryModel, exact_str, model_for, slot_width
from .objects import (Monomial, ONE, Polynomial, ZERO, nfold_sum,
                      poly_of_mono)
from .tape import (TERM_KIDS, TCirc, TSum, TapeTerm, cobang_tape, codiag_tape,
                   copier_tape, discharger_tape, distributor, dl_nary, id_tape,
                   nfold_codiag, op_inj_tape, symplus_tape,
                   symtensor_tape, tape_types, tensor_tape, term_tape, tseq,
                   tsum, whisker_left, whisker_right)
from .theory import App, OpSymbol, SigmaTerm, Var, builtin_theory


@dataclass(frozen=True)
class SuiteBounds:
    sorts: int = 2
    mono_len: int = 2
    poly_len: int = 2
    carrier: int = 3
    samples: int = 5
    max_tuples: int = 400


@dataclass(frozen=True)
class InstanceResult:
    instance: str
    ok: bool
    witness: str = ""

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{self.instance}\t{status}\t{self.witness}".rstrip()


@dataclass
class SuiteReport:
    results: list[InstanceResult] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r.ok)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if not r.ok)

    def merge(self, other: "SuiteReport") -> "SuiteReport":
        return SuiteReport(self.results + other.results)

    def lines(self) -> Iterable[str]:
        for r in self.results:
            yield r.line()


# --- semantic equality ---------------------------------------------------------

@dataclass(frozen=True)
class SemEqResult:
    kind: str  # "equal" | "unequal" | "type-error"
    witness: tuple[int, int, object, object] | None = None
    message: str = ""

    @property
    def equal(self) -> bool:
        return self.kind == "equal"


def first_difference(m1: Matrix, m2: Matrix):
    """The first differing entry (y, x, m1's, m2's) in column-major order,
    rows ascending; None when there is none."""
    if m1.image is not None and m1.image == m2.image:
        return None
    d1, d2 = m1.den, m2.den
    p1, p2 = m1.packed, m2.packed
    pairs = enumerate(zip(m1.columns(), m2.columns()))
    if (p1 is not None and p2 is not None and d1 == d2
            and slot_width(m1.top) == slot_width(m2.top)):
        # over one den and slot width, equal columns are equal ints
        pairs = ((x, (m1.column(x), m2.column(x)))
                 for x, (a, b) in enumerate(zip(p1, p2)) if a != b)
    for x, (c1, c2) in pairs:
        if d1 == d2 and c1 == c2:
            continue
        for y in sorted(c1.keys() | c2.keys()):
            a, b = c1.get(y, 0), c2.get(y, 0)
            if a * d2 != b * d1:
                return (y, x, m1.weight(a), m2.weight(b))
    return None


def sem_eq(t1: TapeTerm, t2: TapeTerm, interp: Interpretation) -> SemEqResult:
    """Decide equality of two tapes under an interpretation, exactly.

    One walk over the distinct subterms of both sides, for typing and
    evaluation alike: every node is typed before any is evaluated, so a
    type error wins over a model error, and t1's error over t2's.  A
    shared subterm is typed and evaluated once, and a node that keeps its
    type under ``interp.sig`` (see ``tape.tape_types``), as the operands
    of a law built by ``tensor_tape`` do, is not typed again."""
    walk = postorder((t1, t2), TERM_KIDS)
    try:
        (dom1, cod1), (dom2, cod2) = tape_types((t1, t2), interp.sig, walk)
    except TypeCheckError as exc:
        return SemEqResult("type-error", message=str(exc))
    if dom1 != dom2 or cod1 != cod2:
        dom1, cod1, dom2, cod2 = map(Polynomial, (dom1, cod1, dom2, cod2))
        return SemEqResult(
            "type-error",
            message=f"type mismatch: {dom1} -> {cod1} vs {dom2} -> {cod2}")
    diff = first_difference(
        *fold((t1, t2), TERM_KIDS, evaluator(interp), walk))
    if diff is None:
        return SemEqResult("equal")
    return SemEqResult("unequal", witness=diff)


# --- random instantiation -------------------------------------------------------

def derive_seed(master: int, *parts) -> int:
    text = "/".join(str(p) for p in parts)
    return (zlib.crc32(text.encode()) ^ (master & 0xFFFFFFFF)) & 0xFFFFFFFF


def _below(bits, n: int) -> int:
    """A number in range(n), drawn as ``Random.randrange`` draws it on
    CPython 3.10-3.13: n.bit_length() bits from ``bits``, drawn again
    while they read n or more."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def rand_substochastic(dom: int, cod: int, rng: Random) -> Matrix:
    """Column x gets weights a/denom, denom drawn from 2..6, that sum to
    at most one; stored over the lcm of their reduced denominators.
    Each column takes ``rng.randint(2, 6)``, ``rng.shuffle`` of its rows
    and ``rng.randint(0, remaining)`` per row in shuffled order, drawn
    with one ``getrandbits`` call per number (``_below``), so the matrix
    and the rng's state after it are those of the ``randint`` calls."""
    bits = rng.getrandbits
    drawn = []
    for x in range(dom):
        denom = 2 + _below(bits, 5)
        rows = list(range(cod))
        for i in range(cod - 1, 0, -1):   # Random.shuffle's swaps
            j = _below(bits, i + 1)
            rows[i], rows[j] = rows[j], rows[i]
        remaining = denom
        col = {}
        for y in rows:
            a = _below(bits, remaining + 1)
            remaining -= a
            if a:
                col[y] = a
        drawn.append((denom, col))
    den = lcm(*[denom // gcd(a, denom) for denom, col in drawn
                for a in col.values()])
    return Matrix(dom, cod, tuple([{y: a * den // denom for y, a in col.items()}
                                   for denom, col in drawn]), den=den)


def rand_natural(dom: int, cod: int, rng: Random) -> Matrix:
    """Entries drawn from 0..2, column by column, rows ascending: the
    draws of ``rng.randint(0, 2)`` per entry, made with one
    ``getrandbits`` call per number (``_below``)."""
    bits = rng.getrandbits
    cols = []
    for x in range(dom):
        col = {}
        for y in range(cod):
            w = _below(bits, 3)
            if w:
                col[y] = w
        cols.append(col)
    return Matrix(dom, cod, tuple(cols))


def rand_matrix(dom: int, cod: int, model: TheoryModel, rng: Random) -> Matrix:
    if model.semiring is kleisli.NATURALS:
        return rand_natural(dom, cod, rng)
    return rand_substochastic(dom, cod, rng)


class Freshener:
    """Creates fresh generators with seeded random matrices on demand."""

    def __init__(self, interp: Interpretation, rng: Random):
        self.base = interp
        self.rng = rng
        self.extra_sig: dict[str, tuple[Monomial, Monomial]] = {}
        self.extra_mats: dict[str, Matrix] = {}
        self._count = 0

    @property
    def sig(self) -> MonSignature:
        return self.base.sig.with_gens(self.extra_sig)

    def interp(self) -> Interpretation:
        return self.base.with_gens(self.extra_sig, self.extra_mats)

    def circuit(self, u: Monomial, v: Monomial) -> CircuitTerm:
        name = f"?g{self._count}"
        self._count += 1
        self.extra_sig[name] = (u, v)
        self.extra_mats[name] = rand_matrix(
            self.base.mono_size(u), self.base.mono_size(v),
            self.base.model, self.rng)
        return CGen(name)

    def binary_op(self) -> OpSymbol:
        ops = [op for op in self.base.model.theory.primary_ops if op.arity == 2]
        return self.rng.choice(ops)

    def nullary_op(self) -> OpSymbol:
        ops = [op for op in self.base.model.theory.primary_ops if op.arity == 0]
        return ops[0]

    def split_term(self, m: int) -> tuple[SigmaTerm, int]:
        """A term over context m whose tape splits one input into m branches."""
        if m == 0:
            return App(self.nullary_op(), ()), 0
        ops = [self.binary_op() for _ in range(1, m)]   # x_i's op drawn i-th
        term: SigmaTerm = Var(m)
        for i in reversed(range(1, m)):
            term = ops[i - 1](Var(i), term)
        return term, m

    def tape(self, p: Polynomial, q: Polynomial) -> TapeTerm:
        """A random tape p -> q: branch each monomial of p across q."""
        if p.is_zero:
            return cobang_tape(q)
        branches = []
        for u in p:
            term, ctx = self.split_term(len(q))
            split = term_tape(term, u, ctx)
            blocks = tsum(*(TCirc(self.circuit(u, v)) for v in q))
            branches.append(tseq(split, blocks) if len(q) else split)
        return tseq(tsum(*branches), nfold_codiag(q, len(p)))

    def morphism(self, a: Monomial | Polynomial,
                 b: Monomial | Polynomial) -> CircuitTerm | TapeTerm:
        """A fresh circuit between monomials, a fresh tape between polynomials."""
        return (self.circuit if isinstance(a, Monomial) else self.tape)(a, b)


def standard_interpretation(model_name: str = "PCA",
                            params: Sequence[Fraction] = (
                                Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)),
                            carriers: Sequence[int] = (2, 3)) -> Interpretation:
    """A generator-free interpretation over sorts A, B, ... for suite runs."""
    names = [chr(ord("A") + i) for i in range(len(carriers))]
    sig = MonSignature(tuple(names), {})
    theory = builtin_theory(model_name, params if model_name == "PCA" else ())
    interp = Interpretation(sig, dict(zip(names, carriers)), {}, model_for(theory))
    interp.validate()
    return interp


# --- enumeration ----------------------------------------------------------------

def all_monomials(sorts: Sequence[str], max_len: int) -> list[Monomial]:
    out = []
    for n in range(max_len + 1):
        out.extend(Monomial(t) for t in itertools.product(sorts, repeat=n))
    return out


def all_polynomials(sorts: Sequence[str], max_mono_len: int,
                    max_polys: int) -> list[Polynomial]:
    monos = all_monomials(sorts, max_mono_len)
    out = []
    for n in range(max_polys + 1):
        out.extend(Polynomial(t) for t in itertools.product(monos, repeat=n))
    return out


def small_polys(sorts: Sequence[str]) -> list[Polynomial]:
    a = sorts[0]
    b = sorts[1 % len(sorts)]
    return [
        ZERO,
        poly_of_mono(ONE),
        poly_of_mono(Monomial((a,))),
        poly_of_mono(Monomial((a, b))),
        Polynomial((Monomial((a,)), Monomial((b,)))),
        Polynomial((ONE, Monomial((a,)))),
        Polynomial((Monomial((a, b)), Monomial((b,)))),
    ]


def rand_poly(rng: Random, sorts: Sequence[str], max_monos: int,
              max_len: int) -> Polynomial:
    if rng.random() < 0.125:   # 1/8, exact in binary
        return ZERO
    k = rng.randint(1, max_monos)
    monos = []
    for _ in range(k):
        n = rng.randint(0, max_len)
        monos.append(Monomial(tuple(rng.choice(sorts) for _ in range(n))))
    return Polynomial(tuple(monos))


def capped(seq: list, cap: int) -> list:
    if len(seq) <= cap:
        return seq
    step = len(seq) / cap
    return [seq[int(i * step)] for i in range(cap)]


# --- law instances ---------------------------------------------------------------

def _repro(interp: Interpretation, lhs: TapeTerm, rhs: TapeTerm) -> str:
    """A one-line reproduction: carriers, fresh matrices and both terms."""
    carriers = ",".join(f"{s}={interp.carriers[s]}" for s in interp.sig.sorts)
    gens = ";".join(f"{n}={m.pretty()}" for n, m in interp.gen_matrices.items()
                    if n.startswith("?"))
    def clip(term):
        text = repr(term)
        return text if len(text) <= 400 else text[:400] + "..."
    return f"carriers[{carriers}] gens[{gens}] lhs={clip(lhs)} rhs={clip(rhs)}"


def _result(instance: str, ok: bool, witness: str) -> InstanceResult:
    """An instance's result; the witness is kept only when it failed."""
    return InstanceResult(instance, ok, "" if ok else witness)


def _check_instance(name: str, binding_desc: str, interp: Interpretation,
                    lhs: TapeTerm, rhs: TapeTerm) -> InstanceResult:
    """Decide lhs = rhs under interp; a failure carries a reproduction."""
    result = sem_eq(lhs, rhs, interp)
    witness = ""
    if result.kind == "type-error":
        witness = f"type error: {result.message}"
    elif result.kind == "unequal":
        y, x, a, b = result.witness
        witness = (f"entry ({y},{x}): lhs={exact_str(a)} rhs={exact_str(b)} | "
                   f"{_repro(interp, lhs, rhs)}")
    return _result(f"{name}[{binding_desc}]", result.equal, witness)


def _laws(rows, vars_: str, interp: Interpretation, bounds: SuiteBounds,
          seed: int, tuples: list | None = None,
          key: str | None = None) -> list[InstanceResult]:
    """Every instance of the laws `rows` over the metavariables `vars_`.

    A row is (name, draws, sides).  The bindings of vars_ are `tuples`
    when given; else, when vars_ are monomial metavariables (U-X) alone,
    every tuple of small monomials (capped); else bindings of polynomials
    sampled from each instance's rng.  Bindings are the outer loop and
    rows the inner one.  Instance i of a row seeds its rng from `key`
    (default: the row's name) and i, draws its polynomials if sampled,
    then one fresh morphism a -> b for each pair ab of its draws, and
    checks sides(*binding, *morphisms) under the interpretation that
    holds them.  An instance that neither samples nor draws makes no rng
    and is checked under interp itself."""
    sorts = interp.sig.sorts[:bounds.sorts]
    if tuples is None and set(vars_) <= set("UVWX"):
        tuples = capped(list(itertools.product(
            all_monomials(sorts, bounds.mono_len), repeat=len(vars_))),
            bounds.max_tuples)
    elif tuples is None:
        tuples = [None] * bounds.samples
    results = []
    for index, tup in enumerate(tuples):
        for name, draws, sides in rows:
            binding, inst, drawn = tup, interp, []
            if tup is None or draws:
                fresh = Freshener(interp, Random(derive_seed(seed, key or name,
                                                             index)))
                if tup is None:
                    binding = [rand_poly(fresh.rng, sorts, bounds.poly_len,
                                         bounds.mono_len) for _ in vars_]
                env = dict(zip(vars_, binding))
                drawn = [fresh.morphism(env[a], env[b]) for a, b in draws]
                inst = fresh.interp()
            lhs, rhs = sides(*binding, *drawn)
            desc = ",".join(f"{k}={v}" for k, v in zip(vars_, binding))
            results.append(_check_instance(name, f"{desc}#{index}", inst,
                                           lhs, rhs))
    return results


# --- the axiom suite -------------------------------------------------------------

def _axioms(theory) -> list:
    """The axioms as rows (name, metavariables, draws, sides), in order."""
    def op_rows(op):
        def n_fold(u):
            return nfold_sum(poly_of_mono(u), op.arity)
        return [
            (f"codiag-nat-op({op})", "U", (), lambda u: (
                tseq(codiag_tape(u), op_inj_tape(op, u)),
                tseq(tsum(op_inj_tape(op, u), op_inj_tape(op, u)),
                     codiag_tape(n_fold(u))))),
            (f"cobang-nat-op({op})", "U", (), lambda u: (
                tseq(cobang_tape(u), op_inj_tape(op, u)),
                cobang_tape(n_fold(u)))),
            (f"op-nat-tape({op})", "PQ", ("PQ",), lambda p, q, t: (
                tseq(t, op_inj_tape(op, q)),
                tseq(op_inj_tape(op, p), tsum(*([t] * op.arity))))),
        ]

    def eq_row(eq):
        return (f"theory-eq({eq.name})", "U", (), lambda u: (
            term_tape(eq.lhs, u, eq.context), term_tape(eq.rhs, u, eq.context)))

    idc, cop, disc = identity_circuit, copier_circuit, discharger_circuit
    return [
        # symmetric monoidal axioms, circuit layer
        ("circ-seq-assoc", "UVW", ("UV", "VW", "WU"), lambda u, v, w, c, d, e: (
            TCirc(cseq(cseq(c, d), e)), TCirc(cseq(c, cseq(d, e))))),
        ("circ-id-unit", "UV", ("UV",), lambda u, v, c: (
            TCirc(cseq(idc(u), c, idc(v))), TCirc(c))),
        ("circ-interchange", "UVW", ("UV", "UW", "VW", "WU"),
         lambda u, v, w, c1, c2, d1, d2: (
             TCirc(cseq(ctensor(c1, c2), ctensor(d1, d2))),
             TCirc(ctensor(cseq(c1, d1), cseq(c2, d2))))),
        ("circ-unit-tensor", "UV", ("UV",), lambda u, v, c: (
            TCirc(CTensor(idc(ONE), CTensor(c, idc(ONE)))), TCirc(c))),
        ("circ-tensor-assoc", "UVW", ("UV", "VW", "WU"), lambda u, v, w, c, d, e: (
            TCirc(CTensor(CTensor(c, d), e)), TCirc(CTensor(c, CTensor(d, e))))),
        ("circ-sym-inv", "UV", (), lambda u, v: (
            TCirc(cseq(sym_circuit(u, v), sym_circuit(v, u))), TCirc(idc(u * v)))),
        ("circ-sym-nat", "UVWX", ("UV", "WX"), lambda u, v, w, x, c, d: (
            TCirc(cseq(ctensor(c, d), sym_circuit(v, x))),
            TCirc(cseq(sym_circuit(u, w), ctensor(d, c))))),
        # copy/discard comonoid axioms over monomials
        ("cd-copier-assoc", "U", (), lambda u: (
            TCirc(cseq(cop(u), ctensor(cop(u), idc(u)))),
            TCirc(cseq(cop(u), ctensor(idc(u), cop(u)))))),
        ("cd-copier-unit-left", "U", (), lambda u: (
            TCirc(cseq(cop(u), ctensor(disc(u), idc(u)))), TCirc(idc(u)))),
        ("cd-copier-unit-right", "U", (), lambda u: (
            TCirc(cseq(cop(u), ctensor(idc(u), disc(u)))), TCirc(idc(u)))),
        ("cd-copier-comm", "U", (), lambda u: (
            TCirc(cseq(cop(u), sym_circuit(u, u))), TCirc(cop(u)))),
        # symmetric monoidal axioms, tape layer
        ("tape-seq-assoc", "PQR", ("PQ", "QR", "RP"),
         lambda p, q, r, t1, t2, t3: (
             tseq(tseq(t1, t2), t3), tseq(t1, tseq(t2, t3)))),
        ("tape-id-unit", "PQ", ("PQ",), lambda p, q, t: (
            tseq(id_tape(p), t, id_tape(q)), t)),
        ("tape-interchange", "PQRS", ("PQ", "RS", "QR", "SP"),
         lambda p, q, r, s, t1, t2, s1, s2: (
             tseq(TSum(t1, t2), TSum(s1, s2)), TSum(tseq(t1, s1), tseq(t2, s2)))),
        ("tape-unit-sum", "PQ", ("PQ",), lambda p, q, t: (
            TSum(id_tape(ZERO), TSum(t, id_tape(ZERO))), t)),
        ("tape-sum-assoc", "PQR", ("PQ", "QR", "RP"),
         lambda p, q, r, t1, t2, t3: (
             TSum(TSum(t1, t2), t3), TSum(t1, TSum(t2, t3)))),
        ("tape-symplus-inv", "PQ", (), lambda p, q: (
            tseq(symplus_tape(p, q), symplus_tape(q, p)), id_tape(p + q))),
        ("tape-symplus-nat", "PQRS", ("PQ", "RS"), lambda p, q, r, s, t1, t2: (
            tseq(TSum(t1, t2), symplus_tape(q, s)),
            tseq(symplus_tape(p, r), TSum(t2, t1)))),
        ("tape-symplus-inv-mono", "UV", (), lambda u, v: (
            tseq(symplus_tape(u, v), symplus_tape(v, u)),
            tsum(id_tape(u), id_tape(v)))),
        ("tape-symplus-nat-circ", "UVWX", ("UV", "WX"), lambda u, v, w, x, c, d: (
            tseq(TSum(TCirc(c), TCirc(d)), symplus_tape(v, x)),
            tseq(symplus_tape(u, w), TSum(TCirc(d), TCirc(c))))),
        # finite coproduct structure
        ("codiag-assoc", "U", (), lambda u: (
            tseq(tsum(id_tape(u), codiag_tape(u)), codiag_tape(u)),
            tseq(tsum(codiag_tape(u), id_tape(u)), codiag_tape(u)))),
        ("codiag-unit", "U", (), lambda u: (
            tseq(tsum(cobang_tape(u), id_tape(u)), codiag_tape(u)),
            id_tape(u))),
        ("codiag-comm", "U", (), lambda u: (
            tseq(symplus_tape(u, u), codiag_tape(u)), codiag_tape(u))),
        ("codiag-nat-circ", "UV", ("UV",), lambda u, v, c: (
            tseq(codiag_tape(u), TCirc(c)),
            tseq(TSum(TCirc(c), TCirc(c)), codiag_tape(v)))),
        ("cobang-nat-circ", "UV", ("UV",), lambda u, v, c: (
            tseq(cobang_tape(u), TCirc(c)), cobang_tape(v))),
        # naturality of the operation branchings
        *(row for op in theory.primary_ops for row in op_rows(op)),
        # the taping functor
        ("tape-functor-id", "U", (), lambda u: (TCirc(idc(u)), id_tape(u))),
        ("tape-functor-seq", "UVW", ("UV", "VW"), lambda u, v, w, c, d: (
            TCirc(cseq(c, d)), tseq(TCirc(c), TCirc(d)))),
        # equations of the theory, as term tapes
        *(eq_row(eq) for eq in theory.equations),
    ]


def axiom_suite(interp: Interpretation, bounds: SuiteBounds = SuiteBounds(),
                seed: int = 0) -> SuiteReport:
    """Check every axiom of the calculus under the given interpretation."""
    report = SuiteReport()
    for name, vars_, draws, sides in _axioms(interp.model.theory):
        report.results.extend(
            _laws([(name, draws, sides)], vars_, interp, bounds, seed))
    return report


# --- the lemma suite --------------------------------------------------------------

def lemma_suite(interp: Interpretation, bounds: SuiteBounds = SuiteBounds(),
                seed: int = 0) -> SuiteReport:
    """Derived laws: fc rig equalities, copy/discard coherence, whiskering
    algebra, operation naturality and enrichment."""
    report = SuiteReport()
    add = report.results.append
    sig = interp.sig
    sorts = sig.sorts[:bounds.sorts]
    polys = all_polynomials(sorts, bounds.mono_len, bounds.poly_len)
    pairs = list(itertools.product(small_polys(sorts), repeat=2))
    ops = interp.model.theory.primary_ops

    def laws(rows, vars_, tuples=None, key=None):
        report.results.extend(
            _laws(rows, vars_, interp, bounds, seed, tuples, key))

    def tensor(t1, t2):
        return tensor_tape(t1, t2, sig)

    # fc rig structure of the tensor (codiag and cobang against (x))
    laws([("fcrig-codiag-right", (), lambda x, y: (
              codiag_tape(x * y), tensor(codiag_tape(x), id_tape(y)))),
          ("fcrig-codiag-left", (), lambda x, y: (
              codiag_tape(x * y),
              tseq(distributor(x, y, y, inverse=True),
                   tensor(id_tape(x), codiag_tape(y))))),
          ("fcrig-cobang-right", (), lambda x, y: (
              cobang_tape(x * y), tensor(cobang_tape(x), id_tape(y)))),
          ("fcrig-cobang-left", (), lambda x, y: (
              cobang_tape(x * y), tensor(id_tape(x), cobang_tape(y))))],
         "XY", pairs)

    # interaction of sums with copy/discard (functional/total codiagonals)
    laws([("sumcd-codiag-copier", (), lambda x: (
              tseq(codiag_tape(x), copier_tape(x)),
              tseq(tsum(copier_tape(x), copier_tape(x)), codiag_tape(x * x)))),
          ("sumcd-codiag-discard", (), lambda x: (
              tseq(codiag_tape(x), discharger_tape(x)),
              tseq(tsum(discharger_tape(x), discharger_tape(x)),
                   codiag_tape(ONE)))),
          ("sumcd-cobang-copier", (), lambda x: (
              tseq(cobang_tape(x), copier_tape(x)), cobang_tape(x * x))),
          ("sumcd-cobang-discard", (), lambda x: (
              tseq(cobang_tape(x), discharger_tape(x)), cobang_tape(ONE))),
          ("maps-codiag-functional", (), lambda x: (
              tseq(codiag_tape(x), copier_tape(x)),
              tseq(copier_tape(x + x), tensor(codiag_tape(x), codiag_tape(x))))),
          ("maps-codiag-total", (), lambda x: (
              tseq(codiag_tape(x), discharger_tape(x)), discharger_tape(x + x))),
          ("maps-cobang-functional", (), lambda x: (
              tseq(cobang_tape(x), copier_tape(x)),
              tseq(copier_tape(ZERO), tensor(cobang_tape(x), cobang_tape(x))))),
          ("maps-cobang-total", (), lambda x: (
              tseq(cobang_tape(x), discharger_tape(x)), discharger_tape(ZERO)))],
         "X", [(x,) for x in polys])

    # coherence of copy/discard with the sum decomposition
    laws([("coh-copier-sum", (), lambda x, y: (
              copier_tape(x + y),
              tseq(tsum(copier_tape(x), cobang_tape(x * y),
                        cobang_tape(y * x), copier_tape(y)),
                   tsum(distributor(x, x, y, inverse=True),
                        distributor(y, x, y, inverse=True))))),
          ("coh-discharger-sum", (), lambda x, y: (
              discharger_tape(x + y),
              tseq(tsum(discharger_tape(x), discharger_tape(y)),
                   codiag_tape(ONE))))],
         "XY", pairs)

    # canonical-copy and all-ones oracles
    for i, p in enumerate(polys):
        desc = f"P={p}#{i}"
        idx = prod_index(p, p, interp)
        n = carrier_of(p, interp)
        expected_cop = Matrix.make(n, carrier_of(p * p, interp),
                                   ((idx(x, x), x, 1) for x in range(n)))
        add(_result(f"copier-canonical[{desc}]",
                    eval_tape(copier_tape(p), interp) == expected_cop,
                    "matrix differs from transported copy map"))
        expected_disc = Matrix.make(n, 1, ((0, x, 1) for x in range(n)))
        add(_result(f"discharger-canonical[{desc}]",
                    eval_tape(discharger_tape(p), interp) == expected_disc,
                    "matrix is not the all-ones row"))

    # distributor sanity: composing with the inverse
    laws([("dl-inverse", (), lambda p, q, r: (
              tseq(distributor(p, q, r), distributor(p, q, r, inverse=True)),
              id_tape(p * (q + r))))],
         "PQR", [(p, q, q + poly_of_mono(ONE)) for p, q in pairs])

    # operation naturality and the n-ary distributor lemmas
    def op_rows(op):
        natural = [(f"opinj-natural({op})", ("XY",), lambda x, y, h: (
            tseq(h, op_inj_tape(op, y)),
            tseq(op_inj_tape(op, x), tsum(*([h] * op.arity)))))]
        distributed = [
            (f"dr-n-opinj({op})", (), lambda x, y: (
                tensor(op_inj_tape(op, x), id_tape(y)), op_inj_tape(op, x * y))),
            (f"dl-n-opinj({op})", (), lambda x, y: (
                tseq(tensor(id_tape(y), op_inj_tape(op, x)),
                     dl_nary(y, [x] * op.arity)),
                op_inj_tape(op, y * x)))]
        return natural, distributed

    for op in ops:
        natural, distributed = op_rows(op)
        laws(natural, "XY", key=f"opnat({op})")
        laws(distributed, "XY", capped(pairs, 20))

    n_codiag = [("dr-n-codiag", (), lambda x, y, n: (
                    tensor(nfold_codiag(x, n), id_tape(y)), nfold_codiag(x * y, n))),
                ("dl-n-codiag", (), lambda x, y, n: (
                    tensor(id_tape(y), nfold_codiag(x, n)),
                    tseq(dl_nary(y, [x] * n), nfold_codiag(y * x, n))))]
    for m in range(4):
        laws(n_codiag, "XYn", [(x, y, m) for x, y in capped(pairs, 20)])

    # enrichment of hom-sets over the theory
    def check(name, desc, lhs, rhs, inst):
        add(_check_instance(name, desc, inst, lhs, rhs))

    enrichment_ops = [op for op in ops if op.arity == 2][:2]
    for op in enrichment_ops:
        t_term, ctx_n = App(op, (Var(1), Var(2))), 2
        for index in range(bounds.samples):
            rng = Random(derive_seed(seed, f"enrich({op})", index))
            fresh = Freshener(interp, rng)
            x = rand_poly(rng, sorts, bounds.poly_len, bounds.mono_len)
            y = rand_poly(rng, sorts, bounds.poly_len, bounds.mono_len)
            z = rand_poly(rng, sorts, bounds.poly_len, bounds.mono_len)
            hs = [fresh.tape(x, y) for _ in range(ctx_n)]
            desc = f"X={x},Y={y},Z={z}#{index}"

            def enriched(ts, dom, cod):
                return tseq(term_tape(t_term, dom, ctx_n), tsum(*ts),
                            nfold_codiag(cod, ctx_n))

            g_out = fresh.tape(y, z)
            check(f"enrich-post({op})", desc,
                  tseq(enriched(hs, x, y), g_out),
                  enriched([tseq(h, g_out) for h in hs], x, z), fresh.interp())
            g_in = fresh.tape(z, x)
            check(f"enrich-pre({op})", desc,
                  tseq(g_in, enriched(hs, x, y)),
                  enriched([tseq(g_in, h) for h in hs], z, y), fresh.interp())
            w = rand_poly(rng, sorts, bounds.poly_len, bounds.mono_len)
            g = fresh.tape(z, w)
            inst = fresh.interp()
            check(f"enrich-tensor-right({op})", desc,
                  tensor_tape(enriched(hs, x, y), g, inst.sig),
                  enriched([tensor_tape(h, g, inst.sig) for h in hs],
                           x * z, y * w), inst)
            check(f"enrich-tensor-left({op})", desc,
                  tensor_tape(g, enriched(hs, x, y), inst.sig),
                  enriched([tensor_tape(g, h, inst.sig) for h in hs],
                           z * x, w * y), inst)

    report.results.extend(whiskering_suite(interp, bounds, seed).results)
    return report


def whiskering_suite(interp: Interpretation, bounds: SuiteBounds = SuiteBounds(),
                     seed: int = 0) -> SuiteReport:
    """The eighteen laws of the whiskering algebra, sampled and exact."""
    report = SuiteReport()
    sorts = interp.sig.sorts[:bounds.sorts]
    monos = all_monomials(sorts, bounds.mono_len)

    def check(law, desc, inst, lhs, rhs):
        report.results.append(_check_instance(law, desc, inst, lhs, rhs))

    for index in range(max(bounds.samples, 3)):
        rng = Random(derive_seed(seed, "whisker", index))
        fresh = Freshener(interp, rng)
        s, t_poly, p, q, r = (rand_poly(rng, sorts, bounds.poly_len,
                                        bounds.mono_len) for _ in range(5))
        t = fresh.tape(p, q)
        t_s = fresh.tape(q, r)
        u = rng.choice(monos)
        f_op = fresh.binary_op()
        desc = f"S={s},T={t_poly},P={p},Q={q}#{index}"
        u_desc = f"U={u},S={s}#{index}"
        inst = fresh.interp()
        sig = inst.sig

        check("W1-left", desc, inst, whisker_left(s, id_tape(p)), id_tape(s * p))
        check("W1-right", desc, inst,
              whisker_right(id_tape(p), s, sig), id_tape(p * s))
        check("W2-left", desc, inst,
              whisker_left(s, tseq(t, t_s)),
              tseq(whisker_left(s, t), whisker_left(s, t_s)))
        check("W2-right", desc, inst,
              whisker_right(tseq(t, t_s), s, sig),
              tseq(whisker_right(t, s, sig), whisker_right(t_s, s, sig)))
        check("W3-left", desc, inst, whisker_left(ONE, t), t)
        check("W3-right", desc, inst, whisker_right(t, ONE, sig), t)
        check("W4-left", desc, inst, whisker_left(ZERO, t), id_tape(ZERO))
        check("W4-right", desc, inst, whisker_right(t, ZERO, sig), id_tape(ZERO))

        t2 = fresh.tape(r, p)
        inst = fresh.interp()
        sig = inst.sig
        check("W5-left", desc, inst,
              whisker_left(s, TSum(t, t2)),
              tseq(distributor(s, p, r),
                   TSum(whisker_left(s, t), whisker_left(s, t2)),
                   distributor(s, q, p, inverse=True)))
        check("W5-right", desc, inst,
              whisker_right(TSum(t, t2), s, sig),
              TSum(whisker_right(t, s, sig), whisker_right(t2, s, sig)))
        check("W6-left", desc, inst,
              whisker_left(s + t_poly, t),
              TSum(whisker_left(s, t), whisker_left(t_poly, t)))
        check("W6-right", desc, inst,
              whisker_right(t, s + t_poly, sig),
              tseq(distributor(p, s, t_poly),
                   TSum(whisker_right(t, s, sig), whisker_right(t, t_poly, sig)),
                   distributor(q, s, t_poly, inverse=True)))

        t_b = fresh.tape(r, s)
        inst = fresh.interp()
        sig = inst.sig
        check("W7-exchange", desc, inst,
              tseq(whisker_left(p, t_b), whisker_right(t, s, sig)),
              tseq(whisker_right(t, r, sig), whisker_left(q, t_b)))
        check("W8-codiag", u_desc, inst,
              whisker_right(codiag_tape(u), s, sig),
              codiag_tape(poly_of_mono(u) * s))
        check("W9-cobang", u_desc, inst,
              whisker_right(cobang_tape(u), s, sig),
              cobang_tape(poly_of_mono(u) * s))
        check("W10-symplus", desc, inst,
              whisker_right(symplus_tape(p, q), s, sig),
              symplus_tape(p * s, q * s))
        check("W11-symtensor", desc, inst,
              symtensor_tape(p * q, s),
              tseq(whisker_left(p, symtensor_tape(q, s)),
                   whisker_right(symtensor_tape(p, s), q, sig)))
        check("W12-sym-nat", desc, inst,
              tseq(whisker_right(t, s, sig), symtensor_tape(q, s)),
              tseq(symtensor_tape(p, s), whisker_left(s, t)))
        check("W13-left-right", desc, inst,
              whisker_left(s, whisker_right(t, t_poly, sig)),
              whisker_right(whisker_left(s, t), t_poly, sig))
        check("W14-left-left", desc, inst,
              whisker_left(s * t_poly, t),
              whisker_left(s, whisker_left(t_poly, t)))
        check("W15-right-right", desc, inst,
              whisker_right(t, t_poly * s, sig),
              whisker_right(whisker_right(t, t_poly, sig), s, sig))
        check("W16-right-dl", desc, inst,
              whisker_right(distributor(p, q, r), s, sig),
              distributor(p, q * s, r * s))
        check("W17-left-dl", desc, inst,
              whisker_left(s, distributor(p, q, r)),
              tseq(distributor(s * p, q, r),
                   distributor(s, p * q, p * r, inverse=True)))
        check("W18-opinj", u_desc, inst,
              whisker_right(op_inj_tape(f_op, u), s, sig),
              op_inj_tape(f_op, poly_of_mono(u) * s))

    return report


# --- matrix-level structural coherence ------------------------------------------

def coherence_suite(bounds: SuiteBounds = SuiteBounds(), seed: int = 0,
                    max_size: int = 3) -> SuiteReport:
    """Permutation and naturality checks of the structural matrices."""
    report = SuiteReport()
    add = report.results.append
    sizes = range(max_size + 1)

    for x, y in itertools.product(sizes, repeat=2):
        for name, m in (("symT", kleisli.sym_tensor(x, y)),
                        ("symP", kleisli.sym_plus(x, y))):
            add(_result(f"perm-{name}[{x},{y}]", m.is_permutation(),
                        "not a permutation"))
            back = (kleisli.sym_tensor(y, x) if name == "symT"
                    else kleisli.sym_plus(y, x))
            add(_result(f"inv-{name}[{x},{y}]",
                        m.then(back) == Matrix.identity(m.dom),
                        "inverse composite not identity"))

    for x, y, z in itertools.product(sizes, repeat=3):
        d = kleisli.dl(x, y, z)
        add(_result(f"perm-dl[{x},{y},{z}]", d.is_permutation(),
                    "not a permutation"))
        add(_result(f"perm-dr[{x},{y},{z}]", kleisli.dr(x, y, z).is_permutation(),
                    "not a permutation"))
        add(_result(f"dl-inv[{x},{y},{z}]",
                    d.then(d.transpose_permutation()) == Matrix.identity(d.dom),
                    "dl;dl^-1 is not the identity"))
        rng = Random(derive_seed(seed, "dl-nat", x, y, z))
        for index in range(2):
            f = rand_substochastic(x, rng.randint(0, max_size), rng)
            g = rand_substochastic(y, rng.randint(0, max_size), rng)
            h = rand_substochastic(z, rng.randint(0, max_size), rng)
            lhs = f.tensor(g.oplus(h)).then(kleisli.dl(f.cod, g.cod, h.cod))
            rhs = d.then(f.tensor(g).oplus(f.tensor(h)))
            add(_result(f"dl-nat[{x},{y},{z}]#{index}", lhs == rhs,
                        "dl naturality fails"))

    return report
