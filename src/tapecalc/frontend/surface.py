"""Surface syntax trees, their elaboration into core terms, and printing.

One tree serves both layers, with one node class per role: every leaf
is an ``SAtom(kind, args)``, a row of ``TAPE_ATOMS`` or, inside a
circuit bracket, of ``CIRCUIT_ATOMS``; every infix product is an
``SInfix(op, left, right)``, a row of ``INFIX``; and a bracket
``[ ... ]`` is an ``SCircuit`` around its contents.  The parser, the
printer and the elaborators read those tables.  Parsing keeps the shape
the user wrote (``copier@P`` stays one atom); elaboration lowers surface
expressions to core circuit and tape terms on demand.

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
from ..objects import Monomial, Polynomial, ZERO
from ..tape import (TCirc, TSeq, TSum, TapeTerm, cobang_tape,
                    codiag_tape, copier_tape, discharger_tape, distributor,
                    id_tape, op_inj_tape, symplus_tape, tensor_tape,
                    term_tape)
from ..theory import AlgebraicTheory, SigmaTerm, builtin_theory


# --- surface expressions ------------------------------------------------------------

@dataclass(slots=True)
class SExpr:
    pass


@dataclass(slots=True)
class SAtom(SExpr):
    kind: str  # a key of TAPE_ATOMS, or of CIRCUIT_ATOMS inside a bracket
    args: tuple = ()  # the arguments of the row's builder


@dataclass(slots=True)
class SCircuit(SExpr):
    circuit: SExpr


@dataclass(slots=True)
class SInfix(SExpr):
    op: str  # a key of INFIX
    left: SExpr
    right: SExpr


# The infix products of tape and circuit expressions, as SInfix(op, ...):
# token kind -> printed symbol and precedence level, 0 binding loosest.
# All associate to the left; circuits have no (+).  The parser and the
# printer both read this table.
INFIX = {
    "SEMI": (";", 0),
    "OTENSOR": ("(x)", 1),
    "OPLUS": ("(+)", 2),
}


def print_term(term: SigmaTerm, p: Polynomial, n: int) -> str:
    """The text of SAtom("term", (term, p, n)); n is read back from term."""
    text = str(term)           # str puts a binary term in parentheses
    return f"term<{text[1:-1] if text[0] == '(' else text}>@{p}"


# Every leaf, as SAtom(kind, args): kind -> spelling, argument count and
# core builder.  The atoms spelt `spelling@arg,...,arg` (`id0` takes no
# '@') have that word, which the parser reads; the other leaves have
# their printer.  A reference has no builder: elaborate looks it up.  No
# kind is a key of both tables, as print_sexpr looks in either.
TAPE_ATOMS = {
    "id0": ("id0", 0, lambda: id_tape(ZERO)),
    "id": ("id", 1, id_tape),
    "symplus": ("sym+", 2, symplus_tape),
    "codiag": ("codiag", 1, codiag_tape),
    "cobang": ("cobang", 1, cobang_tape),
    "copier": ("copier", 1, copier_tape),
    "discard": ("discard", 1, discharger_tape),
    "dl": ("dl", 3, distributor),
    "op": ("op<{}>@{}".format, 2, op_inj_tape),
    "term": (print_term, 3, term_tape),
    "ref": (str, 1, None),
}
CIRCUIT_ATOMS = {
    "sym": ("sym", 2, sym_circuit),
    "copy": ("copy", 1, copier_circuit),
    "del": ("del", 1, discharger_circuit),
    "gen": (str, 1, CGen),
    "identity": ("id{}".format, 1, identity_circuit),
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
    products = {"SEMI": CSeq, "OTENSOR": CTensor}
    out: list[CircuitTerm] = []
    todo: list = [c]
    while todo:
        e = todo.pop()
        if type(e) is SInfix:
            todo += (products[e.op], e.right, e.left)
        elif type(e) is SAtom:
            out.append(CIRCUIT_ATOMS[e.kind][2](*e.args))
        else:                            # a core product; operands are folded
            right = out.pop()
            out[-1] = e(out[-1], right)
    return out[0]


def elaborate(e: SExpr, module: SourceModule) -> TapeTerm:
    """The core tape of e, whose references name module's definitions.
    Each definition and each bracket object elaborates once a call.

    The walk recurses once per infix product, so a definition of about a
    thousand tape steps raises RecursionError.  A fold on an explicit
    stack would make the deep chains of the `cli` bench workload succeed,
    and their time would then push its tail latency past its bound
    (ROADMAP item 1)."""
    sig = module.signature()
    defs = module.defs
    refs: dict[str, TapeTerm] = {}
    brackets: dict[int, TapeTerm] = {}
    products = {"SEMI": TSeq, "OPLUS": TSum,
                "OTENSOR": lambda a, b: tensor_tape(a, b, sig)}

    def go(e: SExpr) -> TapeTerm:
        if type(e) is SInfix:
            return products[e.op](go(e.left), go(e.right))
        if type(e) is SCircuit:
            term = brackets.get(id(e))
            if term is None:
                term = brackets[id(e)] = TCirc(elaborate_circuit(e.circuit))
            return term
        if e.kind == "ref":
            name = e.args[0]
            term = refs.get(name)
            if term is None:
                term = refs[name] = go(defs[name])
            return term
        return TAPE_ATOMS[e.kind][2](*e.args)

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
        if type(e) is SInfix:
            symbol, prec = INFIX[e.op]
            group = level > prec
            todo += (")" if group else "", (e.right, prec + 1), f" {symbol} ",
                     (e.left, prec), "(" if group else "")
        elif type(e) is SCircuit:
            todo += (" ]", (e.circuit, 0), "[ ")
        else:
            spelling, n, _ = TAPE_ATOMS.get(e.kind) or CIRCUIT_ATOMS[e.kind]
            if type(spelling) is not str:
                pieces.append(spelling(*e.args))
            elif n:
                pieces.append(f"{spelling}@{','.join(map(str, e.args))}")
            else:
                pieces.append(spelling)
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
