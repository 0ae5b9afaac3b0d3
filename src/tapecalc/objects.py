"""Object language of the calculus.

Objects are generated by sorts, the units 1 and 0, and the two products
``(x)`` and ``(+)``.  Every object term rewrites to a unique *polynomial*
normal form: a word of words over the sort alphabet.  Monomials are words
of sorts (the ``(x)``-products), polynomials are words of monomials (the
``(+)``-sums).  Neither level is commutative.

Both are tuples, a ``Monomial`` of sort names and a ``Polynomial`` of
monomials, so a monomial equals the plain tuple of its sorts and ``ONE ==
ZERO``: a table keyed by objects keeps one kind per slot, and term nodes
are given real ``Monomial``s.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from typing import Iterable, Union

from .errors import SizeError, UnknownSortError


class Monomial(tuple):
    """A word of sort names; the empty word is the unit 1."""

    __slots__ = ()

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple.__add__(self, other))

    @property
    def is_unit(self) -> bool:
        return not self

    def __repr__(self) -> str:
        return f"Monomial(sorts={tuple(self)!r})"

    def __str__(self) -> str:
        return "".join(self) if self else "1"


class Polynomial(tuple):
    """A word of monomials; the empty word is the zero object 0."""

    __slots__ = ()

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(tuple.__add__(self, other))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        # Row-major product: all monomials of self against each of other.
        return Polynomial([u * v for u in self for v in other])

    @property
    def is_zero(self) -> bool:
        return not self

    def __repr__(self) -> str:
        return f"Polynomial(monomials={tuple(self)!r})"

    def __str__(self) -> str:
        return " (+) ".join(map(str, self)) if self else "0"


ONE = Monomial()
ZERO = Polynomial()


def mono(*sorts: str) -> Monomial:
    return Monomial(sorts)


def poly(*monomials: Union[Monomial, Iterable[str]]) -> Polynomial:
    return Polynomial(map(Monomial, monomials))


def poly_of_mono(m: Monomial) -> Polynomial:
    return Polynomial((m,))


def nfold_sum(p: Polynomial, n: int) -> Polynomial:
    """The n-fold concatenation p (+) ... (+) p."""
    return Polynomial(tuple.__mul__(p, n))


# --- object terms -----------------------------------------------------------

@dataclass(frozen=True)
class ObjTerm:
    pass


@dataclass(frozen=True)
class SortRef(ObjTerm):
    name: str


@dataclass(frozen=True)
class UnitOne(ObjTerm):
    pass


@dataclass(frozen=True)
class ZeroObj(ObjTerm):
    pass


@dataclass(frozen=True)
class Tensor(ObjTerm):
    left: ObjTerm
    right: ObjTerm


@dataclass(frozen=True)
class Sum(ObjTerm):
    left: ObjTerm
    right: ObjTerm


MAX_MONOMIALS = 1 << 20    # the largest normal form normalize expands


def normalize(term: ObjTerm, sorts: Iterable[str]) -> Polynomial:
    """Rewrite an object term to its polynomial normal form.

    A maximal spine of ``(+)`` nodes is one concatenation of its operands'
    normal forms, and a maximal spine of ``(x)`` nodes one n-ary row-major
    product, each output monomial joined once from one monomial per
    operand.  This coincides with exhaustively applying the distributivity,
    unit and annihilator rules oriented left-to-right, and costs time
    linear in the size of the term and of its normal form.  A first walk
    keeps its own stack, so deeply nested terms do not recurse, and meets
    the leaves from left to right, so the first unregistered sort is
    reported.  It counts the monomials of each spine's normal form, a sum
    over a ``(+)`` spine and a product over a ``(x)`` spine, and raises
    SizeError at the first above MAX_MONOMIALS, so nothing is expanded
    that the whole would not fit: n two-term factors have 2^n.
    """
    leaves = {s: Polynomial((Monomial((s,)),)) for s in sorts}
    # the leaves' normal forms and the spines (spine, n operands), each
    # after its operands, and the number of monomials of each
    walk: list[tuple] = []
    counts: list[int] = []
    stack: list[tuple[ObjTerm, int]] = [(term, 0)]  # (spine, n): operands done
    while stack:
        t, n = stack.pop()
        if n:
            parts = counts[-n:]
            del counts[-n:]
            if isinstance(t, Sum):
                count, what = sum(parts), f"a (+) sum of {n} summands"
            else:
                count, what = 1, f"a (x) product of {n} factors"
                for k in parts:     # capped, so that a long product stays small
                    count = min(count * k, MAX_MONOMIALS + 1)
            if count > MAX_MONOMIALS:
                raise SizeError(f"{what} has more than {MAX_MONOMIALS} "
                                "monomials")
            counts.append(count)
            walk.append((t, n))
        elif isinstance(t, (Sum, Tensor)):
            operands, spine = [], [t]
            while spine:
                u = spine.pop()
                if type(u) is type(t):
                    spine += (u.right, u.left)
                else:
                    operands.append((u, 0))
            stack.append((t, len(operands)))
            stack += reversed(operands)
        else:
            if isinstance(t, SortRef):
                if t.name not in leaves:
                    raise UnknownSortError(f"unregistered sort: {t.name}")
                p = leaves[t.name]
            elif isinstance(t, (UnitOne, ZeroObj)):
                p = ZERO if isinstance(t, ZeroObj) else poly_of_mono(ONE)
            else:
                raise TypeError(f"not an object term: {t!r}")
            counts.append(len(p))
            walk.append((p, 0))
    results: list[Polynomial] = []
    for t, n in walk:
        if not n:
            results.append(t)
            continue
        parts = results[-n:]
        del results[-n:]
        results.append(Polynomial(chain.from_iterable(parts))
                       if isinstance(t, Sum)
                       else Polynomial(Monomial(chain.from_iterable(ms))
                                       for ms in product(*parts)))
    return results[0]


def poly_tensor(p: Polynomial, q: Polynomial) -> Polynomial:
    """Row-major product of polynomials; agrees with normalize over embed."""
    return p * q


def embed(p: Polynomial) -> ObjTerm:
    """Right-bracketed object term denoting the polynomial p."""

    def embed_mono(m: Monomial) -> ObjTerm:
        if m.is_unit:
            return UnitOne()
        term: ObjTerm = SortRef(m[-1])
        for name in reversed(m[:-1]):
            term = Tensor(SortRef(name), term)
        return term

    if p.is_zero:
        return ZeroObj()
    term = embed_mono(p[-1])
    for m in reversed(p[:-1]):
        term = Sum(embed_mono(m), term)
    return term
