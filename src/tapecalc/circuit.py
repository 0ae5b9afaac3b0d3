"""Inner-layer string diagrams: circuits over a monoidal signature.

Circuits are typed by monomials.  Generators carry monomial arities and
coarities; every sort has a copier and a discharger, extended to whole
monomials by the usual inductive clauses.  Nodes are hash-consed (see
``hashcons``).

The identity, symmetry, copier and discharger of a whole monomial are
each one ``CBlock(builder, words)`` node, their builder call, read from
its ``wire_map``; a call whose tree is one primitive node returns it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Callable, Mapping

from .errors import TypeCheckError, UnknownGeneratorError, UnknownSortError
from .hashcons import Term, fold, term_node
from .objects import ONE, Monomial


@dataclass(frozen=True)
class MonSignature:
    sorts: tuple[str, ...] = ()
    gens: Mapping[str, tuple[Monomial, Monomial]] = field(default_factory=dict)
    sort_set: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "sort_set", frozenset(self.sorts))
        for name, (ar, coar) in self.gens.items():
            for s in tuple(ar) + tuple(coar):
                if s not in self.sort_set:
                    raise UnknownSortError(
                        f"generator {name} mentions unregistered sort {s}")

    def check_sort(self, name: str) -> None:
        if name not in self.sort_set:
            raise UnknownSortError(f"unregistered sort: {name}")

    def gen_type(self, name: str) -> tuple[Monomial, Monomial]:
        try:
            return self.gens[name]
        except KeyError:
            raise UnknownGeneratorError(f"unknown generator: {name}")

    def with_gens(self, extra: Mapping[str, tuple[Monomial, Monomial]]) -> "MonSignature":
        gens = dict(self.gens)
        gens.update(extra)
        return MonSignature(self.sorts, gens)


class CircuitTerm(Term):
    pass


@term_node
class CIdSort(CircuitTerm):
    sort: str


@term_node
class CIdOne(CircuitTerm):
    pass


@term_node
class CGen(CircuitTerm):
    name: str


@term_node
class CSym(CircuitTerm):
    left: str
    right: str


@term_node
class CSeq(CircuitTerm):
    first: CircuitTerm
    second: CircuitTerm


@term_node
class CTensor(CircuitTerm):
    top: CircuitTerm
    bottom: CircuitTerm


@term_node
class CCopier(CircuitTerm):
    sort: str


@term_node
class CDischarger(CircuitTerm):
    sort: str


@term_node
class CBlock(CircuitTerm):
    """The structural circuit of the builder named ``builder`` at the
    monomials ``words``: (U, W) for ``sym_circuit``, (U,) for
    ``copier_circuit``, ``discharger_circuit`` and ``identity_circuit``."""
    builder: str
    words: tuple


CIRCUIT_KIDS: dict[type, Callable] = {
    CSeq: attrgetter("first", "second"), CTensor: attrgetter("top", "bottom")}


def circuit_node_type(c: CircuitTerm, sig: MonSignature,
                      kids: tuple) -> tuple[Monomial, Monomial]:
    """The type of c, given the types of its children, in order."""
    cls = c.__class__
    if cls is CGen:
        return sig.gen_type(c.name)
    if cls is CSeq:
        (dom1, cod1), (dom2, cod2) = kids
        if cod1 != dom2:
            raise TypeCheckError(f"circuit composition mismatch: "
                                 f"{cod1} vs {dom2}")
        return dom1, cod2
    if cls is CTensor:
        (dom1, cod1), (dom2, cod2) = kids
        return dom1 * dom2, cod1 * cod2
    if cls is CIdSort:
        sig.check_sort(c.sort)
        return Monomial((c.sort,)), Monomial((c.sort,))
    if cls is CIdOne:
        return ONE, ONE
    if cls is CSym:
        sig.check_sort(c.left)
        sig.check_sort(c.right)
        return Monomial((c.left, c.right)), Monomial((c.right, c.left))
    if cls is CCopier:
        sig.check_sort(c.sort)
        return Monomial((c.sort,)), Monomial((c.sort, c.sort))
    if cls is CDischarger:
        sig.check_sort(c.sort)
        return Monomial((c.sort,)), ONE
    if cls is CBlock:
        for s in chain.from_iterable(c.words):
            sig.check_sort(s)
        return wire_map(c)[:2]
    raise TypeCheckError(f"not a circuit term: {c!r}")


def type_of_circuit(c: CircuitTerm, sig: MonSignature) -> tuple[Monomial, Monomial]:
    """(dom, cod) of c, each distinct subterm typed once, without recursion."""
    return fold((c,), CIRCUIT_KIDS,
                lambda node, kids: circuit_node_type(node, sig, kids))[0]


# --- derived structural circuits ----------------------------------------------

def wire_map(c: CBlock) -> tuple[Monomial, Monomial, list]:
    """(dom, cod, targets) of c: the i-th wire of dom joins the wires
    targets[i] of cod, each wire carrying one sort."""
    u, *w = c.words
    n = len(u)
    if c.builder == "sym_circuit":
        m = len(w[0])
        return (u * w[0], w[0] * u,
                [(m + i,) for i in range(n)] + [(j,) for j in range(m)])
    if c.builder == "copier_circuit":
        return u, u * u, [(i, n + i) for i in range(n)]
    if c.builder == "discharger_circuit":
        return u, ONE, [()] * n
    return u, u, [(i,) for i in range(n)]


def cseq(*parts: CircuitTerm) -> CircuitTerm:
    term = parts[0]
    for p in parts[1:]:
        term = CSeq(term, p)
    return term


def ctensor(*parts: CircuitTerm) -> CircuitTerm:
    parts = tuple(p for p in parts if not isinstance(p, CIdOne))
    if not parts:
        return CIdOne()
    term = parts[0]
    for p in parts[1:]:
        term = CTensor(term, p)
    return term


def identity_circuit(u: Monomial) -> CircuitTerm:
    return (CBlock("identity_circuit", (u,)) if len(u) > 1
            else ctensor(*map(CIdSort, u)))


def discharger_circuit(u: Monomial) -> CircuitTerm:
    return (CBlock("discharger_circuit", (u,)) if len(u) > 1
            else ctensor(*map(CDischarger, u)))


def sym_circuit(u: Monomial, w: Monomial) -> CircuitTerm:
    """sigma_{U,W} : U (x) W -> W (x) U."""
    if u.is_unit or w.is_unit:
        return identity_circuit(u * w)
    return CBlock("sym_circuit", (u, w))


def copier_circuit(u: Monomial) -> CircuitTerm:
    """copier_U : U -> UU, interleaving the per-sort copies."""
    return CBlock("copier_circuit", (u,)) if u else CIdOne()
