"""Inner-layer string diagrams: circuits over a monoidal signature.

Circuits are typed by monomials.  Generators carry monomial arities and
coarities; every sort has a copier and a discharger, extended to whole
monomials by the usual inductive clauses.  Nodes are hash-consed (see
``hashcons``).

The identity, symmetry, copier and discharger of a monomial, of one
sort as of many, are each one ``CBlock(builder, words)`` node, their
builder call, so that a generator is the builder call at its sort and
an identity on the unit 1 stands for a call with nothing to do.  A
``CBlock`` keeps the ``wire_map`` of its call in ``wires``: its type is
read from that alone, and its matrix is the ``kleisli`` closed form of
its call (see ``interp``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import chain
from operator import attrgetter
from typing import Callable, Mapping

from .errors import TypeCheckError, UnknownGeneratorError, UnknownSortError
from .hashcons import Term, fold, kept, term_node
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

    def check_sorts(self, *words) -> None:
        """Raise on the first sort of the words, in order, not registered."""
        if not self.sort_set.issuperset(chain.from_iterable(words)):
            for s in chain.from_iterable(words):
                if s not in self.sort_set:
                    raise UnknownSortError(f"unregistered sort: {s}")

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
class CGen(CircuitTerm):
    name: str


@term_node
class CSeq(CircuitTerm):
    first: CircuitTerm
    second: CircuitTerm


@term_node
class CTensor(CircuitTerm):
    top: CircuitTerm
    bottom: CircuitTerm


@term_node
class CBlock(CircuitTerm):
    """The structural circuit of the builder named ``builder`` at the
    monomials ``words``: (U, W) for ``sym_circuit``, (U,) for
    ``copier_circuit``, ``discharger_circuit`` and ``identity_circuit``;
    ``wires`` is the ``wire_map`` of the call, kept."""
    builder: str
    words: tuple
    wires = kept(lambda c: wire_map(c.builder, *c.words))


_ID_ONE = CBlock("identity_circuit", (ONE,))   # the unit of ctensor


CIRCUIT_KIDS: dict[type, Callable] = {
    CSeq: attrgetter("first", "second"), CTensor: attrgetter("top", "bottom")}


def circuit_node_type(c: CircuitTerm, sig: MonSignature,
                      kids: tuple) -> tuple[Monomial, Monomial]:
    """The type of c, given the types of its children, in order.  A
    structural circuit's is its wire map's; its sorts are checked in dom
    order, and every sort of its words is in dom."""
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
    if cls is CBlock:
        dom, cod, _ = c.wires
        sig.check_sorts(dom)
        return dom, cod
    raise TypeCheckError(f"not a circuit term: {c!r}")


def type_of_circuit(c: CircuitTerm, sig: MonSignature) -> tuple[Monomial, Monomial]:
    """(dom, cod) of c, each distinct subterm typed once, without recursion."""
    return fold((c,), CIRCUIT_KIDS,
                lambda node, kids: circuit_node_type(node, sig, kids))[0]


# --- derived structural circuits ----------------------------------------------

def wire_map(builder: str, u: Monomial, *w: Monomial
             ) -> tuple[Monomial, Monomial, list]:
    """(dom, cod, targets) of the structural circuit of the call
    builder(u, *w): the i-th wire of dom joins the wires targets[i] of
    cod, each wire carrying one sort."""
    n = len(u)
    if builder == "sym_circuit":
        m = len(w[0])
        return (u * w[0], w[0] * u,
                [(m + i,) for i in range(n)] + [(j,) for j in range(m)])
    if builder == "copier_circuit":
        return u, u * u, [(i, n + i) for i in range(n)]
    if builder == "discharger_circuit":
        return u, ONE, [()] * n
    return u, u, [(i,) for i in range(n)]


def cseq(*parts: CircuitTerm) -> CircuitTerm:
    return reduce(CSeq, parts)


def ctensor(*parts: CircuitTerm) -> CircuitTerm:
    """Tensor of circuits; identity-on-1 factors are dropped."""
    return reduce(CTensor, [p for p in parts if p is not _ID_ONE] or [_ID_ONE])


def identity_circuit(u: Monomial) -> CircuitTerm:
    return CBlock("identity_circuit", (u,))


def discharger_circuit(u: Monomial) -> CircuitTerm:
    return CBlock("discharger_circuit", (u,)) if u else _ID_ONE


def sym_circuit(u: Monomial, w: Monomial) -> CircuitTerm:
    """sigma_{U,W} : U (x) W -> W (x) U."""
    if u.is_unit or w.is_unit:
        return identity_circuit(u * w)
    return CBlock("sym_circuit", (u, w))


def copier_circuit(u: Monomial) -> CircuitTerm:
    """copier_U : U -> UU, interleaving the per-sort copies."""
    return CBlock("copier_circuit", (u,)) if u else _ID_ONE


# --- the generators by name, each its builder's node at one sort --------------

def CIdSort(sort: str) -> CircuitTerm:
    return identity_circuit(Monomial((sort,)))


def CSym(left: str, right: str) -> CircuitTerm:
    return sym_circuit(Monomial((left,)), Monomial((right,)))


def CCopier(sort: str) -> CircuitTerm:
    return copier_circuit(Monomial((sort,)))
