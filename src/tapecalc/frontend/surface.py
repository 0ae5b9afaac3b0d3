"""Surface syntax trees, their elaboration into core terms, and printing.

One tree serves both layers: a circuit bracket ``[ ... ]`` is an
``SCircuit`` whose contents are built from the same ``SSeq``, ``STensor``
and ``SAtom`` nodes as the tape around it, its table atoms keyed into
``CIRCUIT_ATOMS`` where a tape's are keyed into ``TAPE_ATOMS``.  Parsing
keeps the shape the user wrote (``copier@P`` stays one atom); elaboration
lowers surface expressions to core circuit and tape terms on demand.

Surface nodes are slotted dataclasses, never mutated after construction,
and compared by value; they are not hashable, and nothing hashes them.
The parser builds each leaf once per module and shares it: a reference
to a definition, a generator, an identity, and a bracket ``[ G ]`` whose
contents are one such leaf, so a chain of ``[ G ]`` steps over three
generators holds three ``SCircuit``s.  ``elaborate`` lowers each shared
bracket once a call.

A ``SourceModule`` keeps its declarations in source order, for the
printer, and one table per kind of declaration, filled by the parser as
it reads each one.  The printer emits the canonical concrete syntax,
which is also the format of the shipped corpus: parse then print is
stable modulo whitespace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

from ..circuit import (CGen, CSeq, CTensor, CircuitTerm, MonSignature,
                       copier_circuit, discharger_circuit,
                       identity_circuit, sym_circuit)
from ..errors import ParseError, UnknownSortError
from ..interp import Interpretation
from ..kleisli import Matrix, model_for
from ..objects import Monomial, Polynomial
from ..tape import (TCirc, TIdZero, TSeq, TSum, TapeTerm, cobang_tape,
                    codiag_tape, copier_tape, discharger_tape, distributor,
                    id_tape, op_inj_tape, symplus_tape, tensor_tape,
                    term_tape)
from ..theory import AlgebraicTheory, OpSymbol, SigmaTerm, builtin_theory


# --- surface expressions ------------------------------------------------------------

@dataclass(slots=True)
class SExpr:
    pass


@dataclass(slots=True)
class SAtom(SExpr):
    kind: str  # a key of TAPE_ATOMS, or of CIRCUIT_ATOMS inside a bracket
    args: tuple = ()  # Polynomials for a tape atom, Monomials for a circuit atom


@dataclass(slots=True)
class SOp(SExpr):
    op: OpSymbol
    poly: Polynomial


@dataclass(slots=True)
class STermBr(SExpr):
    term: SigmaTerm
    context: int
    poly: Polynomial


@dataclass(slots=True)
class SCircuit(SExpr):
    circuit: SExpr


@dataclass(slots=True)
class SRef(SExpr):
    name: str


@dataclass(slots=True)
class CAtomId(SExpr):
    mono: Monomial


@dataclass(slots=True)
class CAtomGen(SExpr):
    name: str


@dataclass(slots=True)
class SSeq(SExpr):
    left: SExpr
    right: SExpr


@dataclass(slots=True)
class STensor(SExpr):
    left: SExpr
    right: SExpr


@dataclass(slots=True)
class SSum(SExpr):
    left: SExpr
    right: SExpr


# The infix products of tape and circuit expressions: token kind, printed
# symbol and precedence level, 0 binding loosest.  All associate to the
# left.  The parser and the printer both read this table.
INFIX = {
    SSeq: ("SEMI", ";", 0),
    STensor: ("OTENSOR", "(x)", 1),
    SSum: ("OPLUS", "(+)", 2),
}

# The atoms spelt `spelling@arg,...,arg` (`id0` takes no '@'), as
# SAtom(kind, args): kind -> spelling, argument count and core builder.
# Tape atoms take polynomials, circuit atoms monomials.  The parser, the
# printer and the elaborators all read these tables.
TAPE_ATOMS = {
    "id0": ("id0", 0, TIdZero),
    "id": ("id", 1, id_tape),
    "symplus": ("sym+", 2, symplus_tape),
    "codiag": ("codiag", 1, codiag_tape),
    "cobang": ("cobang", 1, cobang_tape),
    "copier": ("copier", 1, copier_tape),
    "discard": ("discard", 1, discharger_tape),
    "dl": ("dl", 3, distributor),
}
CIRCUIT_ATOMS = {
    "sym": ("sym", 2, sym_circuit),
    "copy": ("copy", 1, copier_circuit),
    "del": ("del", 1, discharger_circuit),
}


# --- declarations and modules -----------------------------------------------------

@dataclass(frozen=True)
class SortDecl:
    name: str


@dataclass(frozen=True)
class GenDecl:
    name: str
    ar: Monomial
    coar: Monomial


@dataclass(frozen=True)
class TheoryDecl:
    name: str
    params: tuple[Fraction, ...]


@dataclass(frozen=True)
class InterpDecl:
    name: str
    carriers: tuple[tuple[str, tuple[str, ...]], ...]  # sort -> labels
    matrices: tuple[tuple[str, tuple[tuple[Union[int, Fraction], ...], ...]], ...]
    model: str


@dataclass(frozen=True)
class DefDecl:
    name: str
    body: SExpr


@dataclass(frozen=True)
class CheckDecl:
    left: str
    right: str
    interp: str


Decl = Union[SortDecl, GenDecl, TheoryDecl, InterpDecl, DefDecl, CheckDecl]


@dataclass
class SourceModule:
    """A parsed module: its declarations in source order, which the printer
    reads, and a table of each kind keyed by name, which the parser fills as
    it reads each declaration.  A theory's table entry is its parameters."""
    decls: list[Decl] = field(default_factory=list)
    sorts: tuple[str, ...] = ()
    gens: dict[str, tuple[Monomial, Monomial]] = field(default_factory=dict)
    theories: dict[str, tuple[Fraction, ...]] = field(default_factory=dict)
    interps: dict[str, InterpDecl] = field(default_factory=dict)
    defs: dict[str, SExpr] = field(default_factory=dict)
    checks: list[CheckDecl] = field(default_factory=list)
    _sig: MonSignature | None = field(default=None, init=False, repr=False,
                                      compare=False)

    def signature(self) -> MonSignature:
        """The signature of the module's sorts and generators, built on
        the first call, once the parser has filled both tables."""
        if self._sig is None:
            self._sig = MonSignature(self.sorts, self.gens)
        return self._sig

    def theory(self, name: str) -> AlgebraicTheory:
        params = self.theories.get(name)
        if params is None:
            raise ParseError(f"theory {name} is not declared")
        return builtin_theory(name, params)

    def interpretation(self, name: str) -> Interpretation:
        decl = self.interps.get(name)
        if decl is None:
            raise ParseError(f"interpretation {name} is not declared")
        carriers = {sort: len(labels) for sort, labels in decl.carriers}
        sig = self.signature()
        matrices = {}
        for gen_name, rows in decl.matrices:
            ar, coar = sig.gen_type(gen_name)
            dom = 1
            for s in ar:
                if s not in carriers:
                    raise UnknownSortError(f"sort {s} has no carrier")
                dom *= carriers[s]
            matrices[gen_name] = Matrix.from_rows(rows, dom=dom)
        interp = Interpretation(sig, carriers, matrices,
                                model_for(self.theory(decl.model)))
        interp.validate()
        return interp


# --- elaboration -------------------------------------------------------------------

def elaborate_circuit(c: SExpr) -> CircuitTerm:
    """The core circuit of a bracket's contents c, folded on an explicit
    stack, so a bracket of any length elaborates."""
    products = {SSeq: CSeq, STensor: CTensor}
    out: list[CircuitTerm] = []
    todo: list = [c]
    while todo:
        e = todo.pop()
        if type(e) in products:
            todo += (products[type(e)], e.right, e.left)
        elif isinstance(e, type):        # a core product; operands are folded
            right = out.pop()
            out[-1] = e(out[-1], right)
        elif isinstance(e, CAtomId):
            out.append(identity_circuit(e.mono))
        elif isinstance(e, CAtomGen):
            out.append(CGen(e.name))
        elif isinstance(e, SAtom) and e.kind in CIRCUIT_ATOMS:
            out.append(CIRCUIT_ATOMS[e.kind][2](*e.args))
        else:
            raise ParseError(f"not a circuit expression: {e!r}")
    return out[0]


def elaborate(e: SExpr, module: SourceModule) -> TapeTerm:
    sig = module.signature()
    defs = module.defs
    refs: dict[str, TapeTerm] = {}   # each definition elaborates once a call
    brackets: dict[int, TapeTerm] = {}   # and each bracket object, by id

    def go(e: SExpr) -> TapeTerm:
        if isinstance(e, SAtom) and e.kind in TAPE_ATOMS:
            return TAPE_ATOMS[e.kind][2](*e.args)
        if isinstance(e, SOp):
            return op_inj_tape(e.op, e.poly)
        if isinstance(e, STermBr):
            return term_tape(e.term, e.poly, e.context)
        if isinstance(e, SCircuit):
            term = brackets.get(id(e))
            if term is None:
                term = brackets[id(e)] = TCirc(elaborate_circuit(e.circuit))
            return term
        if isinstance(e, SRef):
            term = refs.get(e.name)
            if term is None:
                term = refs[e.name] = go(defs[e.name])
            return term
        if isinstance(e, SSeq):
            return TSeq(go(e.left), go(e.right))
        if isinstance(e, SSum):
            return TSum(go(e.left), go(e.right))
        if isinstance(e, STensor):
            return tensor_tape(go(e.left), go(e.right), sig)
        raise ParseError(f"not a tape expression: {e!r}")

    return go(e)


# --- printing ----------------------------------------------------------------------

def print_sexpr(e: SExpr) -> str:
    """A tape or circuit expression, parenthesised where an operand of
    an infix product sits at a looser level than its position.  Pieces
    wait on an explicit stack, so depth costs no recursion."""
    pieces: list[str] = []
    todo: list = [(e, 0)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            pieces.append(item)
            continue
        e, level = item
        op = INFIX.get(type(e))
        if op is not None:
            _, symbol, prec = op
            group = level > prec
            todo += (")" if group else "", (e.right, prec + 1), f" {symbol} ",
                     (e.left, prec), "(" if group else "")
        elif isinstance(e, SCircuit):
            todo += (" ]", (e.circuit, 0), "[ ")
        elif isinstance(e, SAtom) and (
                atom := TAPE_ATOMS.get(e.kind) or CIRCUIT_ATOMS.get(e.kind)):
            spelling, n, _ = atom
            pieces.append(f"{spelling}@{','.join(map(str, e.args))}" if n
                          else spelling)
        elif isinstance(e, SOp):
            pieces.append(f"op<{e.op}>@{e.poly}")
        elif isinstance(e, STermBr):     # str puts a binary term in parentheses
            term = str(e.term)
            pieces.append(f"term<{term[1:-1] if term[0] == '(' else term}>@{e.poly}")
        elif isinstance(e, (SRef, CAtomGen)):
            pieces.append(e.name)
        elif isinstance(e, CAtomId):
            pieces.append(f"id{e.mono}")
        else:
            raise ParseError(f"not a tape or circuit expression: {e!r}")
    return "".join(pieces)


def print_module(module: SourceModule) -> str:
    lines = []
    for d in module.decls:
        if isinstance(d, SortDecl):
            lines.append(f"sort {d.name};")
        elif isinstance(d, GenDecl):
            ar = " ".join(d.ar) if d.ar else "1"
            coar = " ".join(d.coar) if d.coar else "1"
            lines.append(f"gen {d.name} : {ar} -> {coar};")
        elif isinstance(d, TheoryDecl):
            if d.params:
                params = ", ".join(str(p) for p in d.params)
                lines.append(f"theory {d.name} with p = {params};")
            else:
                lines.append(f"theory {d.name};")
        elif isinstance(d, InterpDecl):
            lines.append(f"interp {d.name} {{")
            for sort, labels in d.carriers:
                lines.append(f"  {sort} = {{{', '.join(labels)}}};")
            for gen, rows in d.matrices:
                rendered = ", ".join(
                    "[" + ", ".join(str(w) for w in row) + "]" for row in rows)
                lines.append(f"  {gen} = [{rendered}];")
            lines.append(f"  model = {d.model};")
            lines.append("}")
        elif isinstance(d, DefDecl):
            lines.append(f"def {d.name} = {print_sexpr(d.body)};")
        elif isinstance(d, CheckDecl):
            lines.append(f"check {d.left} = {d.right} with {d.interp};")
    return "\n".join(lines) + "\n"
