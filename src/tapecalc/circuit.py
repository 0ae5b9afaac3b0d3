"""Inner-layer string diagrams: circuits over a monoidal signature.

Circuits are typed by monomials.  Generators carry monomial arities and
coarities; every sort has a copier and a discharger, extended to whole
monomials by the usual inductive clauses.  Nodes are hash-consed (see
``hashcons``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    raise TypeCheckError(f"not a circuit term: {c!r}")


def type_of_circuit(c: CircuitTerm, sig: MonSignature) -> tuple[Monomial, Monomial]:
    """(dom, cod) of c, each distinct subterm typed once, without recursion."""
    return fold((c,), CIRCUIT_KIDS,
                lambda node, kids: circuit_node_type(node, sig, kids))[0]


# --- derived structural circuits ----------------------------------------------

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
    return ctensor(*(CIdSort(a) for a in u))


def _suffix_identities(u: tuple) -> list[CircuitTerm]:
    """identity_circuit of u[i:] for i = 0 .. len(u), each built once."""
    return [identity_circuit(u[i:]) for i in range(len(u) + 1)]


def _sort_syms(a: str, w: tuple, w_ids: list) -> list[CircuitTerm]:
    """sigma_{A,w[j:]} for j = 0 .. len(w), given w's
    ``_suffix_identities``, each from the next shorter one:
    sigma_{A, B.W'} = (sigma_{A,B} (x) id_{W'}) ; (id_B (x) sigma_{A,W'})."""
    syms = [CIdSort(a)]
    for j in reversed(range(len(w))):
        syms.append(CSeq(ctensor(CSym(a, w[j]), w_ids[j + 1]),
                         CTensor(CIdSort(w[j]), syms[-1])))
    return syms[::-1]


def sym_circuit(u: Monomial, w: Monomial) -> CircuitTerm:
    """sigma_{U,W} : U (x) W -> W (x) U by the inductive clauses, from the
    last sort of u to the first:
    sigma_{A.U',W} = (id_A (x) sigma_{U',W}) ; (sigma_{A,W} (x) id_{U'})."""
    if u.is_unit or w.is_unit:
        return identity_circuit(u * w)
    u_ids, w_ids = _suffix_identities(u), _suffix_identities(w)
    syms = {a: _sort_syms(a, w, w_ids)[0] for a in dict.fromkeys(u)}
    t = w_ids[0]
    for i in reversed(range(len(u))):
        t = CSeq(CTensor(CIdSort(u[i]), t), ctensor(syms[u[i]], u_ids[i + 1]))
    return t


def copier_circuit(u: Monomial) -> CircuitTerm:
    """copier_U : U -> UU, interleaving the per-sort copies, from the last
    sort of u to the first:
    copier_{A.U'} = (copier_A (x) copier_{U'}) ;
                    (id_A (x) sigma_{A,U'} (x) id_{U'}),
    with sigma_{A,U'} built as ``sym_circuit`` builds it."""
    ids = _suffix_identities(u)
    syms = {a: _sort_syms(a, u, ids) for a in dict.fromkeys(u)}
    t = CIdOne()
    for i in reversed(range(len(u))):
        a, id_rest = u[i], ids[i + 1]
        sym = (CSeq(CTensor(CIdSort(a), id_rest), syms[a][i + 1])
               if i + 1 < len(u) else CIdSort(a))
        t = CSeq(ctensor(CCopier(a), t),
                 CTensor(CIdSort(a), ctensor(sym, id_rest)))
    return t


def discharger_circuit(u: Monomial) -> CircuitTerm:
    return ctensor(*(CDischarger(a) for a in u))
