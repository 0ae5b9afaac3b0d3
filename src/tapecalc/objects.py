"""Object language of the calculus.

Objects are generated by sorts, the units 1 and 0, and the two products
``(x)`` and ``(+)``.  Every object term rewrites to a unique *polynomial*
normal form: a word of words over the sort alphabet.  Monomials are words
of sorts (the ``(x)``-products), polynomials are words of monomials (the
``(+)``-sums).  Neither level is commutative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from .errors import UnknownSortError


@dataclass(frozen=True)
class Monomial:
    """A word of sort names; the empty word is the unit 1."""

    sorts: tuple[str, ...] = ()

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.sorts + other.sorts)

    def __len__(self) -> int:
        return len(self.sorts)

    def __iter__(self):
        return iter(self.sorts)

    @property
    def is_unit(self) -> bool:
        return not self.sorts

    def __str__(self) -> str:
        return "".join(self.sorts) if self.sorts else "1"


@dataclass(frozen=True)
class Polynomial:
    """A word of monomials; the empty word is the zero object 0."""

    monomials: tuple[Monomial, ...] = ()

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(self.monomials + other.monomials)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        # Row-major product: all monomials of self against each of other.
        return Polynomial(tuple(u * v for u in self.monomials for v in other.monomials))

    def __len__(self) -> int:
        return len(self.monomials)

    def __iter__(self):
        return iter(self.monomials)

    @property
    def is_zero(self) -> bool:
        return not self.monomials

    def __str__(self) -> str:
        if not self.monomials:
            return "0"
        return " (+) ".join(str(m) for m in self.monomials)


ONE = Monomial()
ZERO = Polynomial()


def mono(*sorts: str) -> Monomial:
    return Monomial(tuple(sorts))


def poly(*monomials: Union[Monomial, Iterable[str]]) -> Polynomial:
    parts = []
    for m in monomials:
        parts.append(m if isinstance(m, Monomial) else Monomial(tuple(m)))
    return Polynomial(tuple(parts))


def poly_of_mono(m: Monomial) -> Polynomial:
    return Polynomial((m,))


def poly_of_words(words: tuple) -> Polynomial:
    """The polynomial whose monomials have the given sort words."""
    return Polynomial(tuple(map(Monomial, words)))


def nfold_sum(p: Polynomial, n: int) -> Polynomial:
    """The n-fold concatenation p (+) ... (+) p."""
    return Polynomial(p.monomials * n)


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


def normalize(term: ObjTerm, sorts: Iterable[str]) -> Polynomial:
    """Rewrite an object term to its polynomial normal form.

    Implements the innermost-leftmost strategy: subterms are normalized
    first and the results are combined with concatenation and the
    row-major product, which coincides with exhaustively applying the
    distributivity/unit/annihilator rules oriented left-to-right.  The
    walk keeps its own stack, so deeply nested terms do not recurse.
    """
    registered = set(sorts)
    results: list[Polynomial] = []
    stack: list[tuple[ObjTerm, bool]] = [(term, False)]  # (term, operands done)
    while stack:
        t, combine = stack.pop()
        if combine:
            right = results.pop()
            results[-1] = (results[-1] + right if isinstance(t, Sum)
                           else results[-1] * right)
        elif isinstance(t, (Sum, Tensor)):
            stack += ((t, True), (t.right, False), (t.left, False))
        elif isinstance(t, SortRef):
            if t.name not in registered:
                raise UnknownSortError(f"unregistered sort: {t.name}")
            results.append(poly((t.name,)))
        elif isinstance(t, UnitOne):
            results.append(poly_of_mono(ONE))
        elif isinstance(t, ZeroObj):
            results.append(ZERO)
        else:
            raise TypeError(f"not an object term: {t!r}")
    return results[0]


def poly_tensor(p: Polynomial, q: Polynomial) -> Polynomial:
    """Row-major product of polynomials; agrees with normalize over embed."""
    return p * q


def embed(p: Polynomial) -> ObjTerm:
    """Right-bracketed object term denoting the polynomial p."""

    def embed_mono(m: Monomial) -> ObjTerm:
        if m.is_unit:
            return UnitOne()
        term: ObjTerm = SortRef(m.sorts[-1])
        for name in reversed(m.sorts[:-1]):
            term = Tensor(SortRef(name), term)
        return term

    if p.is_zero:
        return ZeroObj()
    term = embed_mono(p.monomials[-1])
    for m in reversed(p.monomials[:-1]):
        term = Sum(embed_mono(m), term)
    return term
