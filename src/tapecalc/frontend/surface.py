"""Surface syntax trees, their elaboration into core terms, and printing.

Parsing keeps the shape the user wrote (``copier@P`` stays one atom);
elaboration lowers surface expressions to core circuit and tape terms on
demand.  The printer emits the canonical concrete syntax, which is also
the format of the shipped corpus: parse then print is stable modulo
whitespace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

from ..circuit import (CGen, CSeq, CTensor, CircuitTerm, MonSignature,
                       copier_circuit, discharger_circuit,
                       identity_circuit, sym_circuit)
from ..errors import ParseError
from ..interp import Interpretation
from ..kleisli import Matrix, model_for
from ..objects import Monomial, Polynomial
from ..tape import (TCirc, TIdZero, TSeq, TSum, TapeTerm, cobang_tape,
                    codiag_tape, copier_tape, discharger_tape, distributor,
                    id_tape, op_inj_tape, symplus_tape, tensor_tape,
                    term_tape)
from ..theory import (AlgebraicTheory, App, OpSymbol, SigmaTerm, Var,
                      builtin_theory)


# --- circuit surface expressions ------------------------------------------------

@dataclass(frozen=True)
class CExpr:
    pass


@dataclass(frozen=True)
class CAtomId(CExpr):
    mono: Monomial


@dataclass(frozen=True)
class CAtomGen(CExpr):
    name: str


@dataclass(frozen=True)
class CAtomSym(CExpr):
    left: Monomial
    right: Monomial


@dataclass(frozen=True)
class CAtomCopy(CExpr):
    mono: Monomial


@dataclass(frozen=True)
class CAtomDel(CExpr):
    mono: Monomial


@dataclass(frozen=True)
class CSeqS(CExpr):
    left: CExpr
    right: CExpr


@dataclass(frozen=True)
class CTensorS(CExpr):
    left: CExpr
    right: CExpr


# --- tape surface expressions ----------------------------------------------------

@dataclass(frozen=True)
class SExpr:
    pass


@dataclass(frozen=True)
class SAtom(SExpr):
    kind: str  # id | id0 | symplus | codiag | cobang | copier | discard | dl
    polys: tuple[Polynomial, ...] = ()


@dataclass(frozen=True)
class SOp(SExpr):
    op: OpSymbol
    poly: Polynomial


@dataclass(frozen=True)
class STermBr(SExpr):
    term: SigmaTerm
    context: int
    poly: Polynomial


@dataclass(frozen=True)
class SCircuit(SExpr):
    circuit: CExpr


@dataclass(frozen=True)
class SRef(SExpr):
    name: str


@dataclass(frozen=True)
class SSeq(SExpr):
    left: SExpr
    right: SExpr


@dataclass(frozen=True)
class STensor(SExpr):
    left: SExpr
    right: SExpr


@dataclass(frozen=True)
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
    CSeqS: ("SEMI", ";", 0),
    CTensorS: ("OTENSOR", "(x)", 1),
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
    decls: list[Decl] = field(default_factory=list)

    @property
    def sorts(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.decls if isinstance(d, SortDecl))

    @property
    def gens(self) -> dict[str, tuple[Monomial, Monomial]]:
        return {d.name: (d.ar, d.coar) for d in self.decls
                if isinstance(d, GenDecl)}

    @property
    def defs(self) -> dict[str, SExpr]:
        return {d.name: d.body for d in self.decls if isinstance(d, DefDecl)}

    @property
    def checks(self) -> list[CheckDecl]:
        return [d for d in self.decls if isinstance(d, CheckDecl)]

    def signature(self) -> MonSignature:
        return MonSignature(self.sorts, self.gens)

    def theory(self, name: str) -> AlgebraicTheory:
        for d in self.decls:
            if isinstance(d, TheoryDecl) and d.name == name:
                return builtin_theory(d.name, d.params)
        raise ParseError(f"theory {name} is not declared")

    def interpretation(self, name: str) -> Interpretation:
        decl = None
        for d in self.decls:
            if isinstance(d, InterpDecl) and d.name == name:
                decl = d
        if decl is None:
            raise ParseError(f"interpretation {name} is not declared")
        carriers = {sort: len(labels) for sort, labels in decl.carriers}
        sig = self.signature()
        matrices = {}
        for gen_name, rows in decl.matrices:
            ar, coar = sig.gen_type(gen_name)
            dom = 1
            for s in ar:
                dom *= carriers[s]
            matrices[gen_name] = Matrix.from_rows(rows, dom=dom)
        interp = Interpretation(sig, carriers, matrices,
                                model_for(self.theory(decl.model)))
        interp.validate()
        return interp


# --- elaboration -------------------------------------------------------------------

def elaborate_circuit(c: CExpr) -> CircuitTerm:
    if isinstance(c, CAtomId):
        return identity_circuit(c.mono)
    if isinstance(c, CAtomGen):
        return CGen(c.name)
    if isinstance(c, CAtomSym):
        return sym_circuit(c.left, c.right)
    if isinstance(c, CAtomCopy):
        return copier_circuit(c.mono)
    if isinstance(c, CAtomDel):
        return discharger_circuit(c.mono)
    if isinstance(c, CSeqS):
        return CSeq(elaborate_circuit(c.left), elaborate_circuit(c.right))
    if isinstance(c, CTensorS):
        return CTensor(elaborate_circuit(c.left), elaborate_circuit(c.right))
    raise ParseError(f"not a circuit expression: {c!r}")


def elaborate(e: SExpr, module: SourceModule,
              sig: MonSignature | None = None) -> TapeTerm:
    sig = sig or module.signature()
    defs = module.defs
    refs: dict[str, TapeTerm] = {}   # each definition elaborates once a call
    atoms = {"id0": TIdZero, "id": id_tape, "symplus": symplus_tape,
             "codiag": codiag_tape, "cobang": cobang_tape,
             "copier": copier_tape, "discard": discharger_tape,
             "dl": distributor}

    def go(e: SExpr) -> TapeTerm:
        if isinstance(e, SAtom):
            build = atoms.get(e.kind)
            if build is None:
                raise ParseError(f"unknown atom kind {e.kind}")
            return build(*e.polys)
        if isinstance(e, SOp):
            return op_inj_tape(e.op, e.poly)
        if isinstance(e, STermBr):
            return term_tape(e.term, e.poly, e.context)
        if isinstance(e, SCircuit):
            return TCirc(elaborate_circuit(e.circuit))
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

def print_sigma(t: SigmaTerm, parent_binary: bool = False) -> str:
    if isinstance(t, Var):
        return f"x{t.index}"
    assert isinstance(t, App)
    if not t.args:
        return str(t.op)
    left = print_sigma(t.args[0], parent_binary=True)
    right = print_sigma(t.args[1], parent_binary=True)
    text = f"{left} {t.op} {right}"
    return f"({text})" if parent_binary else text


def print_sexpr(e: Union[SExpr, CExpr], level: int = 0) -> str:
    """A tape or circuit expression, parenthesised where an operand of
    an infix product sits at a looser level than its position."""
    op = INFIX.get(type(e))
    if op is not None:
        _, symbol, prec = op
        text = (f"{print_sexpr(e.left, prec)} {symbol} "
                f"{print_sexpr(e.right, prec + 1)}")
        return f"({text})" if level > prec else text
    if isinstance(e, SAtom):
        if e.kind == "id0":
            return "id0"
        kind = "sym+" if e.kind == "symplus" else e.kind
        return f"{kind}@{','.join(map(str, e.polys))}"
    if isinstance(e, SOp):
        return f"op<{e.op}>@{e.poly}"
    if isinstance(e, STermBr):
        return f"term<{print_sigma(e.term)}>@{e.poly}"
    if isinstance(e, SCircuit):
        return f"[ {print_sexpr(e.circuit)} ]"
    if isinstance(e, SRef):
        return e.name
    if isinstance(e, CAtomId):
        return f"id{e.mono}"
    if isinstance(e, CAtomGen):
        return e.name
    if isinstance(e, CAtomSym):
        return f"sym@{e.left},{e.right}"
    if isinstance(e, CAtomCopy):
        return f"copy@{e.mono}"
    if isinstance(e, CAtomDel):
        return f"del@{e.mono}"
    raise ParseError(f"not a tape or circuit expression: {e!r}")


def print_module(module: SourceModule) -> str:
    lines = []
    for d in module.decls:
        if isinstance(d, SortDecl):
            lines.append(f"sort {d.name};")
        elif isinstance(d, GenDecl):
            ar = " ".join(d.ar.sorts) if d.ar.sorts else "1"
            coar = " ".join(d.coar.sorts) if d.coar.sorts else "1"
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
