"""Exact matrices over a commutative semiring: the finite Kleisli backend.

A morphism between finite carriers is a cod-by-dom matrix whose entry
(y, x) is the weight of output y given input x.  Composition sums over
the middle index, the tensor is the Kronecker product under left-major
pair indexing, and the sum is block-diagonal with the left block first.
Weights are exact: nonnegative rationals for the subdistribution
reading, naturals for the multiset one.  A matrix stores them
fraction-free, as nonnegative ``int`` numerators over one canonical
denominator, so the kernels do integer arithmetic only and no sum of
weights cancels; weights are read back as ``Fraction`` or ``int``.

A matrix is stored in one of three forms.  Structural morphisms
(identities, symmetries, distributors, codiagonals, cobangs, copiers,
dischargers) are total functions between carriers and are stored as row
maps; composing, summing and tensoring them is index arithmetic with no
weight arithmetic.  A large dense Kronecker product of two weighted
matrices packs each column into one ``int``, its numerators in
fixed-width slots, so that an output column is one bigint product
(Kronecker substitution), and a composite with such a matrix is one
bigint multiply-add per entry.  Every other matrix keeps a dict of
nonzero numerators per column.  Matrices share columns, which are never
mutated after construction.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from math import gcd, lcm
from operator import itemgetter, mul
from sys import byteorder
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping, Sequence

from .errors import DimensionError, ModelError, UnknownOperationError
from .hashcons import postorder
from .theory import (SIGMA_KIDS, AlgebraicTheory, App, Equation, OpSymbol,
                     SigmaTerm, operations)


_PIECE = 10 ** 500    # 500 digits: under any int->str limit Python allows


def exact_str(w) -> str:
    """str(w) for an int or Fraction weight, with every digit even past
    Python's limit on int->str conversion (4300 digits by default)."""
    try:
        return str(w)
    except ValueError:
        pass
    if isinstance(w, Fraction):
        num = exact_str(w.numerator)
        return num if w.denominator == 1 else f"{num}/{exact_str(w.denominator)}"
    n, pieces = abs(w), []
    while n:
        n, low = divmod(n, _PIECE)
        pieces.append(f"{low:0500d}")
    return ("-" if w < 0 else "") + "".join(reversed(pieces)).lstrip("0")


@dataclass(frozen=True)
class Semiring:
    """Weights of a model: the kernels combine them with ``+`` and ``*``."""

    name: str
    zero: Any
    one: Any
    contains: Callable[[Any], bool]

    def __repr__(self) -> str:
        return f"Semiring({self.name})"


RATIONALS = Semiring(
    "nonnegative rationals",
    Fraction(0), Fraction(1),
    lambda v: isinstance(v, (Fraction, int)) and v >= 0,
)

NATURALS = Semiring(
    "naturals",
    0, 1,
    lambda v: isinstance(v, int) and v >= 0,
)


def _reduced(dom: int, cod: int, cols: tuple[dict[int, int], ...],
             den: int) -> "Matrix":
    """The canonical matrix of numerators ``cols`` over the common
    denominator ``den``: both divided by the gcd of den and every
    numerator, which leaves den the lcm of the reduced denominators."""
    g = den
    for col in cols:
        if g == 1:
            break
        g = gcd(g, *col.values())
    return _divided(dom, cod, cols, den, g)


def _divided(dom: int, cod: int, cols: tuple[dict[int, int], ...],
             den: int, g: int) -> "Matrix":
    """The matrix of numerators ``cols`` over ``den``, both divided by
    their common divisor g."""
    if g != 1:
        den //= g
        cols = tuple([{y: v // g for y, v in col.items()} for col in cols])
    return Matrix(dom, cod, cols, den=den)


# A packed column holds row y's numerator in bytes [w*y, w*(y+1)) of one
# int, little-endian, for a slot width w of 1, 2, 4 or 8 bytes: the item
# sizes of machine arrays, so that packing and unpacking run in C.
_CODES = {array(code).itemsize: code for code in "BHILQ"}
_SWAP = byteorder == "big"


def slot_width(top: int) -> int | None:
    """The narrowest slot width in bytes that holds every numerator up to
    top; None when top needs more than 8 bytes."""
    for w in (1, 2, 4, 8):
        if top < 1 << 8 * w:
            return w
    return None


def _dense(dom: int, cod: int, w: int, nnz: int) -> bool:
    """Whether dom columns of cod slots of w bytes, nnz of them nonzero,
    are kept packed rather than as dicts.  The packed kernels pass over
    every slot byte and make a fixed number of calls per column; a dict
    kernel makes one dict store per nonzero.  Measured on the suites'
    laws, a store costs about as much as 8 slot bytes and a column's
    fixed calls as 64, so a small or sparse matrix, or one with no
    entry, keeps dicts."""
    return 0 < nnz and (cod * w + 64) * dom <= 8 * nnz


def _slots(p: int, n: int, w: int) -> array:
    """The n slots of width w packed in p."""
    slots = array(_CODES[w], p.to_bytes(n * w, "little"))
    if _SWAP:
        slots.byteswap()
    return slots


def _pack(slots: array) -> int:
    if _SWAP:
        slots.byteswap()
    return int.from_bytes(slots, "little")


def _unpack(p: int, n: int, w: int) -> dict[int, int]:
    """The nonzero slots of p by row; the scan over zero slots runs in C."""
    slots = _slots(p, n, w)
    return dict(zip(compress(range(n), slots), filter(None, slots)))


def _packed_result(dom: int, cod: int, sums: list[int], w: int,
                   den: int) -> "Matrix":
    """The canonical matrix of the columns ``sums``, packed in slots of w
    bytes, over ``den``: one pass over the slots finds the largest
    numerator, their gcd and their number, then the ints are divided by
    the gcd with den and repacked at the width the largest needs."""
    top = content = zeros = 0
    columns = [_slots(p, cod, w) for p in sums]
    for c in columns:
        top = max(top, max(c, default=0))
        content = gcd(content, *c)
        zeros += c.count(0)
    nnz = dom * cod - zeros
    g = gcd(den, content)
    top //= g
    w1 = slot_width(top)
    if g > 1:
        sums = [p // g for p in sums]
    if not _dense(dom, cod, w1, nnz):
        return Matrix(dom, cod, tuple([_unpack(p, cod, w) for p in sums]),
                      den=den // g)
    if w1 != w:
        code = _CODES[w1]
        sums = [_pack(array(code, _slots(p, cod, w) if g > 1 else c))
                for p, c in zip(sums, columns)]
    return Matrix(dom, cod, den=den // g, packed=tuple(sums), top=top,
                  content=content // g, nnz=nnz)


class Matrix:
    """Exact cod-by-dom matrix, column-sparse and fraction-free: entry
    (y, x) is cols[x][y] / den, where cols[x] maps row index to a
    positive ``int`` numerator and ``den`` is the lcm of the entries'
    reduced denominators (1 when every weight is an integer).  The form
    is canonical, so two matrices are equal exactly when their den and
    cols are, and the kernels multiply and add ints only.  ``entry``,
    ``to_rows`` and ``nonzeros`` read weights back as reduced
    ``Fraction``s, or as ``int``s when den is 1.

    Two other forms stand in for ``cols``, which is built from them on
    first read:

    - ``image``: a total function (one unit entry in each column, as
      every structural morphism is), the row of each column's unit
      entry, with den 1.  The kernels use index arithmetic when an
      operand has an image.
    - ``packed``: one ``int`` per column, its numerators in slots of
      ``slot_width(top)`` bytes, where ``top`` is the largest numerator,
      ``content`` the gcd of all of them (0 when there is none) and
      ``nnz`` their number.  ``tensor`` of two weighted matrices and
      ``then`` with a packed operand return this form when ``_dense``
      finds the matrix large and dense enough and top fits in 8 bytes;
      permuting a packed matrix's rows or columns keeps it.  Equal
      packed matrices have equal den, top and packed, so ``==`` compares
      those, and ``suites.first_difference`` unpacks only the columns
      whose ints differ.

    The kernels share columns between matrices rather than copying them,
    so a column is never mutated after its matrix is built.  The
    constructor trusts its arguments to be canonical; ``make`` and
    ``from_rows`` build a matrix from weights.
    """

    __slots__ = ("dom", "cod", "image", "_cols", "den", "packed", "top",
                 "content", "nnz")

    def __init__(self, dom: int, cod: int,
                 cols: tuple[Mapping[int, int], ...] | None = None,
                 image: tuple[int, ...] | None = None, den: int = 1,
                 packed: tuple[int, ...] | None = None, top: int = 0,
                 content: int = 0, nnz: int = 0):
        self.dom, self.cod, self.image, self._cols = dom, cod, image, cols
        self.den, self.packed = den, packed
        self.top, self.content, self.nnz = top, content, nnz

    @property
    def cols(self) -> tuple[Mapping[int, int], ...]:
        if self._cols is None:
            if self.image is not None:
                self._cols = tuple([{y: 1} for y in self.image])
            else:
                n, w = self.cod, slot_width(self.top)
                self._cols = tuple([_unpack(p, n, w) for p in self.packed])
        return self._cols

    def column(self, x: int) -> Mapping[int, int]:
        """cols[x], unpacking no other column of a packed matrix."""
        if self._cols is None and self.packed is not None:
            return _unpack(self.packed[x], self.cod, slot_width(self.top))
        return self.cols[x]

    def columns(self) -> Iterable[Mapping[int, int]]:
        """The columns in order, a packed one unpacked as it is read."""
        if self._cols is None and self.packed is not None:
            return map(self.column, range(self.dom))
        return self.cols

    def _count(self) -> int:
        """The number of nonzero entries."""
        return self.nnz if self.packed is not None else sum(map(len, self.cols))

    def _extent(self) -> tuple[int, int]:
        """The largest numerator and the gcd of all of them (0, 0 when
        there is none)."""
        if self.packed is not None:
            return self.top, self.content
        values = list(chain.from_iterable(map(dict.values, self.cols)))
        return max(values, default=0), gcd(*values)

    def _packed_at(self, g: int, w: int, stride: int = 1) -> Sequence[int]:
        """Each column's numerators divided by g, packed in slots of w
        bytes with row y at slot y * stride."""
        n, code = self.cod, _CODES[w]
        if self.packed is not None:
            w0 = slot_width(self.top)
            if w0 == w and stride == 1:
                return self.packed if g == 1 else [p // g for p in self.packed]
            columns = [array(code, _slots(p // g, n, w0)) for p in self.packed]
        else:
            columns = []
            for col in self.cols:
                c = array(code, bytes(n * w))
                for y, v in col.items():
                    c[y] = v // g
                columns.append(c)
        if stride > 1:
            spread = [array(code, bytes(n * stride * w)) for _ in columns]
            for s, c in zip(spread, columns):
                s[::stride] = c
            columns = spread
        return [_pack(c) for c in columns]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.dom != other.dom or self.cod != other.cod:
            return False
        if self.image is not None and other.image is not None:
            return self.image == other.image
        if self.packed is not None and other.packed is not None:
            return ((self.den, self.top, self.packed)
                    == (other.den, other.top, other.packed))
        return self.den == other.den and self.cols == other.cols

    def __repr__(self) -> str:
        return (f"Matrix(dom={self.dom}, cod={self.cod}, den={self.den}, "
                f"cols={self.cols!r})")

    @staticmethod
    def make(dom: int, cod: int, entries: Iterable[tuple[int, int, Any]]) -> "Matrix":
        """Build from (row, col, weight) triples with ``int`` or
        ``Fraction`` weights; weights at one position add, and zeros are
        dropped.  A negative weight is refused: the kernels rely on no
        sum of numerators cancelling."""
        cols: list[dict[int, Any]] = [dict() for _ in range(dom)]
        for y, x, w in entries:
            if not 0 <= y < cod or not 0 <= x < dom:
                raise DimensionError(f"entry ({y},{x}) outside {cod}x{dom}")
            if w < 0:
                raise DimensionError(f"negative weight {w} at ({y},{x})")
            col = cols[x]
            col[y] = col[y] + w if y in col else w
        den = lcm(*[w.denominator for col in cols for w in col.values()])
        return Matrix(dom, cod, tuple([
            {y: w.numerator * (den // w.denominator)
             for y, w in col.items() if w} for col in cols]), den=den)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Any]], dom: int | None = None) -> "Matrix":
        cod = len(rows)
        if cod == 0:
            if dom is None:
                raise DimensionError("empty row list needs an explicit dom")
            return Matrix.zeros(dom, 0)
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise DimensionError("ragged rows")
        if dom is not None and dom != width:
            raise DimensionError(f"expected {dom} columns, got {width}")
        return Matrix.make(width, cod,
                           ((y, x, w) for y, row in enumerate(rows)
                            for x, w in enumerate(row)))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, image=tuple(range(n)))

    @staticmethod
    def zeros(dom: int, cod: int) -> "Matrix":
        return Matrix(dom, cod, tuple({} for _ in range(dom)))

    def weight(self, numerator: int) -> Any:
        """The weight numerator/den: a reduced Fraction, or an int when
        den is 1 or the numerator is 0."""
        if self.den == 1 or not numerator:
            return numerator
        return Fraction(numerator, self.den)

    def entry(self, y: int, x: int) -> Any:
        return self.weight(self.cols[x].get(y, 0))

    def to_rows(self) -> list[list[Any]]:
        rows = [[0] * self.dom for _ in range(self.cod)]
        for x, col in enumerate(self.cols):
            for y, v in col.items():
                rows[y][x] = self.weight(v)
        return rows

    def nonzeros(self) -> Iterable[tuple[int, int, Any]]:
        for x, col in enumerate(self.cols):
            for y, v in sorted(col.items()):
                yield y, x, self.weight(v)

    def then(self, other: "Matrix") -> "Matrix":
        """Kleisli composition: self followed by other."""
        if self.cod != other.dom:
            raise DimensionError(
                f"cannot compose: cod {self.cod} does not match dom {other.dom}")
        if self.image is not None:
            if other.image is not None:
                return Matrix(self.dom, other.cod,
                              image=tuple(map(other.image.__getitem__, self.image)))
            if (other.packed is not None and self.dom == other.dom
                    == len(set(self.image))):
                # a permutation of the columns keeps top, content and den
                return Matrix(self.dom, other.cod, den=other.den,
                              packed=tuple(map(other.packed.__getitem__, self.image)),
                              top=other.top, content=other.content,
                              nnz=other.nnz)
            # selecting columns may drop the ones that needed all of den
            return _reduced(self.dom, other.cod,
                            tuple(map(other.cols.__getitem__, self.image)),
                            other.den)
        cols: list[dict[int, int]] = []
        if other.image is not None:
            target = other.image
            if (self.packed is not None and 1 < other.dom == other.cod
                    == len(set(target))):
                # permuting the rows keeps every numerator
                source = [0] * other.dom
                for y, z in enumerate(target):
                    source[z] = y
                n, w = self.cod, slot_width(self.top)
                permute = itemgetter(*[w * y + k for y in source
                                       for k in range(w)])
                return Matrix(self.dom, n, den=self.den, top=self.top,
                              content=self.content, nnz=self.nnz, packed=tuple([
                                  int.from_bytes(bytes(permute(
                                      p.to_bytes(n * w, "little"))), "little")
                                  for p in self.packed]))
            # relabel rows; weights add only where two rows meet
            for col in self.cols:
                out = {target[y]: a for y, a in col.items()}
                if len(out) < len(col):
                    out = {}
                    for y, a in col.items():
                        z = target[y]
                        out[z] = out.get(z, 0) + a
                cols.append(out)
            return _reduced(self.dom, other.cod, tuple(cols), self.den)
        if self.packed is not None or other.packed is not None:
            product = self._then_packed(other)
            if product is not None:
                return product
        # one pass: each column's gcd with den is taken as it is summed
        right, den = other.cols, self.den * other.den
        g = den
        for col in self.cols:
            out = {}
            for y, a in col.items():
                for z, b in right[y].items():
                    out[z] = out.get(z, 0) + b * a
            if g != 1:
                g = gcd(g, *out.values())
            cols.append(out)
        return _divided(self.dom, other.cod, tuple(cols), den, g)

    def _then_packed(self, other: "Matrix") -> "Matrix | None":
        """self ; other with other's columns packed: output column x is
        the sum of a * other's column y over the entries a of self's
        column x, so one bigint multiply-add per entry.  A slot of the
        sum holds at most cod * top1 * top2; None when that needs more
        than 8 bytes, or when self has no entry."""
        top1, top2 = self._extent()[0], other._extent()[0]
        w = slot_width(self.cod * top1 * top2)
        if w is None or not top1:
            return None
        right, n = other._packed_at(1, w), other.cod
        if self.packed is not None:
            w1 = slot_width(top1)
            columns = [_slots(p, self.cod, w1) for p in self.packed]
            sums = [sum(map(mul, filter(None, c), compress(right, c)))
                    for c in columns]
        else:
            sums = [sum(map(mul, col.values(), map(right.__getitem__, col)))
                    for col in self.cols]
        return _packed_result(self.dom, n, sums, w, self.den * other.den)

    def tensor(self, other: "Matrix") -> "Matrix":
        """Kronecker product; pair (i, j) is indexed as i*width + j.

        Of two weighted matrices whose product ``_dense`` keeps packed,
        self's column x1 spread at stride width times other's column x2
        is output column (x1, x2), one slot per product and so no carry.  Dividing other's
        numerators by g1 = gcd(self.den, content(other)) and self's by
        g2 = gcd(other.den, content(self)) first leaves the product
        canonical, since for canonical operands g1 * g2 is the gcd of
        the product's den and every numerator."""
        dom = self.dom * other.dom
        cod = self.cod * other.cod
        width = other.cod
        if self.image is not None:
            if other.image is not None:
                return Matrix(dom, cod, image=tuple([
                    y1 * width + y2 for y1 in self.image for y2 in other.image]))
            # repeats other's columns, all of them unless there are none
            return Matrix(dom, cod, tuple([
                {y1 * width + y2: w2 for y2, w2 in col2.items()}
                for y1 in self.image for col2 in other.cols]),
                den=other.den if dom else 1)
        if other.image is not None:
            return Matrix(dom, cod, tuple([
                {y1 * width + y2: w1 for y1, w1 in col1.items()}
                for col1 in self.cols for y2 in other.image]),
                den=self.den if dom else 1)
        nnz = self._count() * other._count()
        if _dense(dom, cod, 1, nnz):    # else no slot width would be kept
            (top1, content1), (top2, content2) = self._extent(), other._extent()
            g1, g2 = gcd(self.den, content2), gcd(other.den, content1)
            top = top1 // g2 * (top2 // g1)
            w = slot_width(top)
            if w is not None and _dense(dom, cod, w, nnz):
                right = other._packed_at(g1, w)
                packed = tuple([a * b for a in self._packed_at(g2, w, width)
                                for b in right])
                return Matrix(dom, cod, den=self.den // g1 * (other.den // g2),
                              packed=packed, top=top,
                              content=content1 // g2 * (content2 // g1), nnz=nnz)
        cols: list[dict[int, int]] = [dict() for _ in range(dom)]
        for x1, col1 in enumerate(self.cols):
            for x2, col2 in enumerate(other.cols):
                target = cols[x1 * other.dom + x2]
                for y1, w1 in col1.items():
                    for y2, w2 in col2.items():
                        target[y1 * width + y2] = w1 * w2
        return _reduced(dom, cod, tuple(cols), self.den * other.den)

    def oplus(self, other: "Matrix") -> "Matrix":
        """Block-diagonal sum, left block first."""
        dom, cod, shift = self.dom + other.dom, self.cod + other.cod, self.cod
        if self.image is not None and other.image is not None:
            return Matrix(dom, cod, image=self.image + tuple(
                [y + shift for y in other.image]))
        den = lcm(self.den, other.den)
        k1, k2 = den // self.den, den // other.den
        left = self.cols if k1 == 1 else tuple(
            [{y: v * k1 for y, v in c.items()} for c in self.cols])
        return Matrix(dom, cod, left + tuple(
            [{y + shift: v * k2 for y, v in c.items()} for c in other.cols]),
            den=den)

    def scale(self, w: Any) -> "Matrix":
        return Matrix.make(self.dom, self.cod,
                           ((y, x, w * v) for y, x, v in self.nonzeros()))

    def add(self, other: "Matrix") -> "Matrix":
        if (self.dom, self.cod) != (other.dom, other.cod):
            raise DimensionError("shape mismatch in add")
        entries = list(self.nonzeros()) + list(other.nonzeros())
        return Matrix.make(self.dom, self.cod, entries)

    def is_permutation(self) -> bool:
        if self.image is not None:
            return self.dom == self.cod == len(set(self.image))
        if self.den != 1:
            return False
        seen_rows = set()
        for col in self.cols:
            if len(col) != 1:
                return False
            ((y, w),) = col.items()
            if w != 1 or y in seen_rows:
                return False
            seen_rows.add(y)
        return len(seen_rows) == self.dom == self.cod

    def is_substochastic(self) -> bool:
        return all(all(v >= 0 for v in col.values())
                   and sum(col.values()) <= self.den for col in self.cols)

    def transpose_permutation(self) -> "Matrix":
        """Inverse of a permutation matrix."""
        if not self.is_permutation():
            raise DimensionError("not a permutation matrix")
        image = self.image
        if image is None:
            image = [next(iter(col)) for col in self.cols]
        inverse = [0] * self.dom
        for x, y in enumerate(image):
            inverse[y] = x
        return Matrix(self.cod, self.dom, image=tuple(inverse))

    def pretty(self) -> str:
        rows = self.to_rows()
        return "[" + ", ".join(
            "[" + ", ".join(map(exact_str, row)) + "]" for row in rows) + "]"


# --- structural morphisms (fixed index encodings) ----------------------------

def identity(n: int) -> Matrix:
    return Matrix.identity(n)


def sym_tensor(m: int, n: int) -> Matrix:
    """X (x) Y -> Y (x) X on carriers of sizes m, n."""
    return Matrix(m * n, n * m,
                  image=tuple(y * m + x for x in range(m) for y in range(n)))


def sym_plus(m: int, n: int) -> Matrix:
    """X (+) Y -> Y (+) X: swap the two blocks."""
    return Matrix(m + n, n + m, image=tuple(range(n, n + m)) + tuple(range(n)))


def pairing(n: int, sizes: Sequence[int]) -> Matrix:
    """The permutation from carrier(U (x) P) to carrier(U) x carrier(P),
    for a monomial U with n elements and a polynomial P whose monomial
    blocks have the given sizes: block i of U (x) P holds the pairs of U
    and P's i-th monomial, and pairs are indexed left-major on both."""
    total, start, image = sum(sizes), 0, []
    for size in sizes:
        for u in range(n):
            image += range(u * total + start, u * total + start + size)
        start += size
    return Matrix(len(image), len(image), image=tuple(image))


def dl(x: int, y: int, z: int) -> Matrix:
    """Left distributor X (x) (Y (+) Z) -> XY (+) XZ: the inverse of
    ``pairing``, which left whiskering uses too."""
    return pairing(x, (y, z)).transpose_permutation()


def dr(x: int, y: int, z: int) -> Matrix:
    """Right distributor (X (+) Y) (x) Z -> XZ (+) YZ; the identity here."""
    return Matrix.identity((x + y) * z)


def copier(n: int) -> Matrix:
    return Matrix(n, n * n, image=tuple(i * n + i for i in range(n)))


def discharger(n: int) -> Matrix:
    return Matrix(n, 1, image=(0,) * n)


def codiag(n: int) -> Matrix:
    return Matrix(2 * n, n, image=tuple(range(n)) * 2)


def cobang(n: int) -> Matrix:
    return Matrix(0, n, image=())


# --- theory models -----------------------------------------------------------

@dataclass(frozen=True)
class TheoryModel:
    """Semiring weights for each operation of a theory."""

    theory: AlgebraicTheory
    semiring: Semiring
    weights: Mapping[OpSymbol, tuple[Any, ...]]

    def weight_vector(self, op: OpSymbol) -> tuple[Any, ...]:
        try:
            return self.weights[op]
        except KeyError:
            # choice is a parametric family; any in-range parameter is fine
            if (self.theory.name == "PCA" and op.name == "+"
                    and len(op.params) == 1 and 0 < op.params[0] < 1):
                p = op.params[0]
                return (p, 1 - p)
            raise UnknownOperationError(
                f"operation {op} has no weights in model of {self.theory.name}")

    def validate(self) -> None:
        for op in self.theory.ops:
            if op not in self.weights:
                raise ModelError(
                    f"theory {self.theory.name} is not weight-presentable here: "
                    f"operation {op} has no weight vector")
            w = self.weights[op]
            if len(w) != op.arity:
                raise ModelError(
                    f"weight vector of {op} has length {len(w)}, arity {op.arity}")
            for v in w:
                if not self.semiring.contains(v):
                    raise ModelError(f"weight {v} of {op} outside {self.semiring}")


# theory -> its canonical model and the equations that model fails: the
# theory and the model's weights are immutable, so each is computed once
_CANONICAL: dict[AlgebraicTheory, tuple[TheoryModel, tuple[Equation, ...]]] = {}


def model_for(theory: AlgebraicTheory) -> TheoryModel:
    """The canonical model of a built-in theory: one a process per theory,
    with read-only weights."""
    entry = _CANONICAL.get(theory)
    if entry is None:
        model = _canonical_model(theory)
        entry = _CANONICAL[theory] = (model, tuple(model_soundness(model)))
    return entry[0]


def _canonical_model(theory: AlgebraicTheory) -> TheoryModel:
    if theory.name == "PCA":
        table: dict[OpSymbol, tuple[Any, ...]] = {}
        for op in theory.ops:
            if op.name == "star":
                table[op] = ()
            elif op.name == "+" and len(op.params) == 1:
                p = op.params[0]
                table[op] = (p, 1 - p)
            else:
                raise ModelError(f"unexpected PCA operation {op}")
        semiring = RATIONALS
    elif theory.name == "CM":
        table = {op: (1, 1) if op.arity == 2 else () for op in theory.ops}
        semiring = NATURALS
    else:
        raise ModelError(f"theory {theory.name} has no canonical weights")
    model = TheoryModel(theory, semiring, MappingProxyType(table))
    model.validate()
    return model


def branch_matrix(w: Sequence[Any], n: int) -> Matrix:
    """The (len(w)*n)-by-n stack whose block j is w_j times the identity
    on a carrier of size n: a row map when w is a unit vector."""
    den = lcm(*[v.denominator for v in w]) if n else 1
    blocks = [(j * n, v.numerator * den // v.denominator)
              for j, v in enumerate(w) if v]
    if len(blocks) == 1 and blocks[0][1] == den:    # w_j = 1, the rest 0
        start = blocks[0][0]
        return Matrix(n, len(w) * n, image=tuple(range(start, start + n)))
    return Matrix(n, len(w) * n, tuple([{j + x: a for j, a in blocks}
                                        for x in range(n)]), den=den)


def op_matrix(op: OpSymbol, model: TheoryModel, n: int) -> Matrix:
    """The branching matrix of an operation over a carrier of size n."""
    return branch_matrix(model.weight_vector(op), n)


def eval_vector(term: SigmaTerm, context: int, model: TheoryModel) -> tuple[Any, ...]:
    """Weight vector of a term: entry i sums, over the paths from the root
    to x_{i+1}, the products of the weights along them.  One pass over
    the term's DAG, parents before children, adds up the path weights;
    the weights are looked up first, in ``operations`` order."""
    order, _ = postorder((term,), SIGMA_KIDS)
    weights = {op: model.weight_vector(op) for op in operations(term)}
    paths = dict.fromkeys(order, model.semiring.zero)
    paths[term] = model.semiring.one
    vector = [model.semiring.zero] * context
    for t in reversed(order):
        if t.__class__ is App:
            for w, arg in zip(weights[t.op], t.args):
                paths[arg] += paths[t] * w
        elif 1 <= t.index <= context:
            vector[t.index - 1] += paths[t]
    return tuple(vector)


def model_soundness(model: TheoryModel) -> list[Equation]:
    """Equations of the theory that fail as weight-vector identities:
    recalled for a canonical model, computed for any other."""
    entry = _CANONICAL.get(model.theory)
    if entry is not None and entry[0] is model:
        return list(entry[1])
    failures = []
    for eq in model.theory.equations:
        if (eval_vector(eq.lhs, eq.context, model)
                != eval_vector(eq.rhs, eq.context, model)):
            failures.append(eq)
    return failures
