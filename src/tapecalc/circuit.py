"""Inner-layer string diagrams: circuits over a monoidal signature.

Circuits are typed by monomials.  Generators carry monomial arities and
coarities; every sort has a copier and a discharger, extended to whole
monomials by the usual inductive clauses.

Term nodes, here and in ``tape``, are hash-consed (Filliatre & Conchon,
*Type-safe modular hash-consing*, 2006): constructing a node equal to a
live one returns that one, so equal terms are identical, ``==`` is
identity and a term is a DAG of distinct subterms.  ``postorder`` lists
those subterms without recursion; the walkers visit each once a call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Mapping
from weakref import ref

from .errors import TypeCheckError, UnknownGeneratorError, UnknownSortError
from .objects import Monomial, ONE


@dataclass(frozen=True)
class MonSignature:
    sorts: tuple[str, ...] = ()
    gens: Mapping[str, tuple[Monomial, Monomial]] = field(default_factory=dict)

    def __post_init__(self):
        for name, (ar, coar) in self.gens.items():
            for s in tuple(ar) + tuple(coar):
                if s not in self.sorts:
                    raise UnknownSortError(
                        f"generator {name} mentions unregistered sort {s}")

    def check_sort(self, name: str) -> None:
        if name not in self.sorts:
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


# --- hash-consed terms ---------------------------------------------------------

_LIVE: dict = {}    # (class, *field values) -> weak reference to the node
_SWEEP_AT = 1 << 8  # table size at which dead entries are next dropped


def _sweep() -> None:
    """Drop the entries of dead nodes.  A node is entered after its
    children, so one pass from the newest entry back also drops a child
    that only its dead parent's key kept alive."""
    global _SWEEP_AT
    items = list(_LIVE.items())
    while items:
        key, node = items.pop()
        if node() is None:
            del _LIVE[key]
    _SWEEP_AT = 2 * len(_LIVE) + (1 << 8)


class Term:
    """Base of circuit and tape nodes: one live node per class and field
    values, so equality and hashing are by identity.

    Nodes are frozen dataclasses declared by ``term_node``.  The fields of
    a node are canonical already, so its key hashes in O(1) for subterm
    fields.  ``__new__`` sets the fields of a new node (``__init__`` is
    object's); a metaclass ``__call__`` would do too, but would slow every
    ``isinstance`` test on terms.
    """

    def __new__(cls, *args, **kwargs):
        names = cls.__match_args__
        if kwargs:      # keyword construction, as in dataclasses.replace
            args += tuple(kwargs.pop(n) for n in names[len(args):] if n in kwargs)
            if kwargs:
                raise TypeError(f"{cls.__name__}() got unexpected keyword "
                                f"arguments {sorted(kwargs)}")
        key = (cls,) + args
        live = _LIVE.get(key)
        if live is not None:
            live = live()
            if live is not None:
                return live
        if len(args) != len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} "
                            f"arguments {names}, got {len(args)}")
        node = object.__new__(cls)
        node.__dict__.update(zip(names, args))
        _LIVE[key] = ref(node)
        if len(_LIVE) > _SWEEP_AT:
            _sweep()
        return node

    def __reduce__(self):
        # copies and unpickled nodes are constructed, hence interned too
        return type(self), tuple(getattr(self, n) for n in self.__match_args__)


term_node = dataclass(frozen=True, eq=False, init=False)
"""Class decorator of the hash-consed term nodes."""


DONE = object()
"""Stack marker of the term walkers: the node under it has its children
done."""


def postorder(root, kids: Mapping[type, Callable]) -> tuple[list, dict]:
    """The distinct subterms of root, each after its own, and how often
    each is used: once per parent edge, and the root once.

    ``kids`` maps each inner node class to a function returning the
    node's children as a tuple; other nodes are leaves.  No recursion, so
    the depth of a term is not bounded by the interpreter's stack.
    """
    order, uses, stack = [], {}, [root]
    while stack:
        node = stack.pop()
        if node is DONE:
            order.append(stack.pop())
        elif node in uses:
            uses[node] += 1
        else:
            uses[node] = 1
            get = kids.get(node.__class__)
            if get is None:
                order.append(node)
            else:
                stack += (node, DONE, *reversed(get(node)))
    return order, uses


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
                      types: Mapping) -> tuple[Monomial, Monomial]:
    """The type of c, given the types of its children."""
    cls = c.__class__
    if cls is CGen:
        return sig.gen_type(c.name)
    if cls is CSeq:
        dom1, cod1 = types[c.first]
        dom2, cod2 = types[c.second]
        if cod1 != dom2:
            raise TypeCheckError(
                f"circuit composition mismatch: {cod1} vs {dom2}")
        return dom1, cod2
    if cls is CTensor:
        dom1, cod1 = types[c.top]
        dom2, cod2 = types[c.bottom]
        return dom1 * dom2, cod1 * cod2
    if cls is CIdSort:
        sig.check_sort(c.sort)
        m = Monomial((c.sort,))
        return m, m
    if cls is CIdOne:
        return ONE, ONE
    if cls is CSym:
        sig.check_sort(c.left)
        sig.check_sort(c.right)
        return Monomial((c.left, c.right)), Monomial((c.right, c.left))
    if cls is CCopier:
        sig.check_sort(c.sort)
        m = Monomial((c.sort,))
        return m, m * m
    if cls is CDischarger:
        sig.check_sort(c.sort)
        return Monomial((c.sort,)), ONE
    raise TypeCheckError(f"not a circuit term: {c!r}")


def type_of_circuit(c: CircuitTerm, sig: MonSignature) -> tuple[Monomial, Monomial]:
    """(dom, cod) of c, each distinct subterm typed once, without recursion."""
    types: dict = {}
    for node in postorder(c, CIRCUIT_KIDS)[0]:
        types[node] = circuit_node_type(node, sig, types)
    return types[c]


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


def _sym_sort_mono(a: str, w: Monomial) -> CircuitTerm:
    # sigma_{A, B.W'} = (sigma_{A,B} (x) id_{W'}) ; (id_B (x) sigma_{A,W'})
    if w.is_unit:
        return CIdSort(a)
    b, w_rest = w.sorts[0], Monomial(w.sorts[1:])
    return cseq(ctensor(CSym(a, b), identity_circuit(w_rest)),
                ctensor(CIdSort(b), _sym_sort_mono(a, w_rest)))


def sym_circuit(u: Monomial, w: Monomial) -> CircuitTerm:
    """sigma_{U,W} : U (x) W -> W (x) U by the inductive clauses."""
    if u.is_unit:
        return identity_circuit(w)
    if w.is_unit:
        return identity_circuit(u)
    a, u_rest = u.sorts[0], Monomial(u.sorts[1:])
    # sigma_{A.U',W} = (id_A (x) sigma_{U',W}) ; (sigma_{A,W} (x) id_{U'})
    return cseq(ctensor(CIdSort(a), sym_circuit(u_rest, w)),
                ctensor(_sym_sort_mono(a, w), identity_circuit(u_rest)))


def copier_circuit(u: Monomial) -> CircuitTerm:
    """copier_U : U -> UU, interleaving the per-sort copies."""
    if u.is_unit:
        return CIdOne()
    a, u_rest = u.sorts[0], Monomial(u.sorts[1:])
    return cseq(
        ctensor(CCopier(a), copier_circuit(u_rest)),
        ctensor(CIdSort(a), ctensor(sym_circuit(Monomial((a,)), u_rest),
                                    identity_circuit(u_rest))))


def discharger_circuit(u: Monomial) -> CircuitTerm:
    return ctensor(*(CDischarger(a) for a in u))
