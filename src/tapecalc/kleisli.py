"""Exact matrices over a commutative semiring: the finite Kleisli backend.

A morphism between finite carriers is a cod-by-dom matrix whose entry
(y, x) is the weight of output y given input x.  Composition sums over
the middle index, the tensor is the Kronecker product under left-major
pair indexing, and the sum is block-diagonal with the left block first.
Weights are exact: ``Fraction`` for the subdistribution reading,
``int`` for the multiset one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterable, Mapping, Sequence

from .errors import DimensionError, ModelError, UnknownOperationError
from .theory import AlgebraicTheory, App, Equation, OpSymbol, SigmaTerm, Var


@dataclass(frozen=True)
class Semiring:
    name: str
    zero: Any
    one: Any
    add: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    contains: Callable[[Any], bool]

    def __repr__(self) -> str:
        return f"Semiring({self.name})"


RATIONALS = Semiring(
    "nonnegative rationals",
    Fraction(0), Fraction(1),
    lambda a, b: a + b, lambda a, b: a * b,
    lambda v: isinstance(v, (Fraction, int)) and v >= 0,
)

NATURALS = Semiring(
    "naturals",
    0, 1,
    lambda a, b: a + b, lambda a, b: a * b,
    lambda v: isinstance(v, int) and v >= 0,
)


@dataclass(frozen=True)
class Matrix:
    """Column-sparse exact matrix; cols[x] maps row index to nonzero weight."""

    dom: int
    cod: int
    cols: tuple[Mapping[int, Any], ...] = field(default=())

    @staticmethod
    def make(dom: int, cod: int, entries: Iterable[tuple[int, int, Any]]) -> "Matrix":
        """Build from (row, col, weight) triples; zero weights are dropped."""
        cols: list[dict[int, Any]] = [dict() for _ in range(dom)]
        for y, x, w in entries:
            if not 0 <= y < cod or not 0 <= x < dom:
                raise DimensionError(f"entry ({y},{x}) outside {cod}x{dom}")
            if w == 0:
                continue
            cols[x][y] = cols[x].get(y, 0) + w if y in cols[x] else w
            if cols[x][y] == 0:
                del cols[x][y]
        return Matrix(dom, cod, tuple(cols))

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
        return Matrix(n, n, tuple({i: 1} for i in range(n)))

    @staticmethod
    def zeros(dom: int, cod: int) -> "Matrix":
        return Matrix(dom, cod, tuple({} for _ in range(dom)))

    def entry(self, y: int, x: int) -> Any:
        return self.cols[x].get(y, 0)

    def to_rows(self) -> list[list[Any]]:
        rows = [[0] * self.dom for _ in range(self.cod)]
        for x, col in enumerate(self.cols):
            for y, w in col.items():
                rows[y][x] = w
        return rows

    def nonzeros(self) -> Iterable[tuple[int, int, Any]]:
        for x, col in enumerate(self.cols):
            for y, w in sorted(col.items()):
                yield y, x, w

    def then(self, other: "Matrix") -> "Matrix":
        """Kleisli composition: self followed by other."""
        if self.cod != other.dom:
            raise DimensionError(
                f"cannot compose: cod {self.cod} does not match dom {other.dom}")
        cols: list[dict[int, Any]] = []
        for col in self.cols:
            out: dict[int, Any] = {}
            for y, a in col.items():
                for z, b in other.cols[y].items():
                    v = out.get(z, 0) + b * a
                    if v == 0:
                        out.pop(z, None)
                    else:
                        out[z] = v
            cols.append(out)
        return Matrix(self.dom, other.cod, tuple(cols))

    def tensor(self, other: "Matrix") -> "Matrix":
        """Kronecker product; pair (i, j) is indexed as i*width + j."""
        dom = self.dom * other.dom
        cod = self.cod * other.cod
        cols: list[dict[int, Any]] = [dict() for _ in range(dom)]
        for x1, col1 in enumerate(self.cols):
            for x2, col2 in enumerate(other.cols):
                target = cols[x1 * other.dom + x2]
                for y1, w1 in col1.items():
                    for y2, w2 in col2.items():
                        target[y1 * other.cod + y2] = w1 * w2
        return Matrix(dom, cod, tuple(cols))

    def oplus(self, other: "Matrix") -> "Matrix":
        """Block-diagonal sum, left block first."""
        cols = [dict(c) for c in self.cols]
        cols += [{y + self.cod: w for y, w in c.items()} for c in other.cols]
        return Matrix(self.dom + other.dom, self.cod + other.cod, tuple(cols))

    def scale(self, w: Any) -> "Matrix":
        return Matrix.make(self.dom, self.cod,
                           ((y, x, w * v) for y, x, v in self.nonzeros()))

    def add(self, other: "Matrix") -> "Matrix":
        if (self.dom, self.cod) != (other.dom, other.cod):
            raise DimensionError("shape mismatch in add")
        entries = list(self.nonzeros()) + list(other.nonzeros())
        return Matrix.make(self.dom, self.cod, entries)

    def is_permutation(self) -> bool:
        seen_rows = set()
        for col in self.cols:
            if len(col) != 1:
                return False
            ((y, w),) = col.items()
            if w != 1 or y in seen_rows:
                return False
            seen_rows.add(y)
        return len(seen_rows) == self.dom == self.cod

    def column_sums(self) -> list[Any]:
        return [sum(col.values(), Fraction(0)) for col in self.cols]

    def is_substochastic(self) -> bool:
        return all(w >= 0 for _, _, w in self.nonzeros()) and all(
            s <= 1 for s in self.column_sums())

    def transpose_permutation(self) -> "Matrix":
        """Inverse of a permutation matrix."""
        if not self.is_permutation():
            raise DimensionError("not a permutation matrix")
        return Matrix.make(self.cod, self.dom,
                           ((x, y, 1) for y, x, _ in self.nonzeros()))

    def pretty(self) -> str:
        rows = self.to_rows()
        return "[" + ", ".join(
            "[" + ", ".join(str(w) for w in row) + "]" for row in rows) + "]"


def permutation_matrix(n: int, image: Callable[[int], int]) -> Matrix:
    return Matrix.make(n, n, ((image(x), x, 1) for x in range(n)))


# --- structural morphisms (fixed index encodings) ----------------------------

def identity(n: int) -> Matrix:
    return Matrix.identity(n)


def sym_tensor(m: int, n: int) -> Matrix:
    """X (x) Y -> Y (x) X on carriers of sizes m, n."""
    return Matrix.make(m * n, n * m,
                       ((y * m + x, x * n + y, 1)
                        for x in range(m) for y in range(n)))


def sym_plus(m: int, n: int) -> Matrix:
    """X (+) Y -> Y (+) X: swap the two blocks."""
    entries = [(n + x, x, 1) for x in range(m)]
    entries += [(y, m + y, 1) for y in range(n)]
    return Matrix.make(m + n, n + m, entries)


def dl(x: int, y: int, z: int) -> Matrix:
    """Left distributor X (x) (Y (+) Z) -> XY (+) XZ as an index bijection."""

    def image(i: int) -> int:
        a, b = divmod(i, y + z)
        return a * y + b if b < y else x * y + a * z + (b - y)

    return permutation_matrix(x * (y + z), image)


def dr(x: int, y: int, z: int) -> Matrix:
    """Right distributor (X (+) Y) (x) Z -> XZ (+) YZ; the identity here."""
    return Matrix.identity((x + y) * z)


def copier(n: int) -> Matrix:
    return Matrix.make(n, n * n, ((i * n + i, i, 1) for i in range(n)))


def discharger(n: int) -> Matrix:
    return Matrix.make(n, 1, ((0, i, 1) for i in range(n)))


def codiag(n: int) -> Matrix:
    return Matrix.make(2 * n, n,
                       [(i, i, 1) for i in range(n)] +
                       [(i, n + i, 1) for i in range(n)])


def cobang(n: int) -> Matrix:
    return Matrix.zeros(0, n)


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


def model_for(theory: AlgebraicTheory,
              weights: Mapping[OpSymbol, tuple[Any, ...]] | None = None) -> TheoryModel:
    """The canonical model of a built-in theory, or one from explicit weights."""
    if weights is not None:
        semiring = RATIONALS if any(
            isinstance(v, Fraction) for w in weights.values() for v in w) else NATURALS
        model = TheoryModel(theory, semiring, dict(weights))
        model.validate()
        return model
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
        model = TheoryModel(theory, RATIONALS, table)
        model.validate()
        return model
    if theory.name == "CM":
        table = {}
        for op in theory.ops:
            table[op] = (1, 1) if op.arity == 2 else ()
        model = TheoryModel(theory, NATURALS, table)
        model.validate()
        return model
    raise ModelError(
        f"theory {theory.name} has no canonical weights; pass them explicitly")


def op_matrix(op: OpSymbol, model: TheoryModel, n: int) -> Matrix:
    """The branching matrix of an operation over a carrier of size n.

    Block j of the (arity*n)-by-n stack is w_j(op) times the identity.
    """
    w = model.weight_vector(op)
    entries = []
    for j, wj in enumerate(w):
        for i in range(n):
            entries.append((j * n + i, i, wj))
    return Matrix.make(n, op.arity * n, entries)


def eval_vector(term: SigmaTerm, context: int, model: TheoryModel) -> tuple[Any, ...]:
    """Weight vector of a term: variables are unit vectors, applications
    combine argument vectors with the operation weights."""
    zero = model.semiring.zero
    add, mul = model.semiring.add, model.semiring.mul
    if isinstance(term, Var):
        return tuple(model.semiring.one if i == term.index - 1 else zero
                     for i in range(context))
    if isinstance(term, App):
        w = model.weight_vector(term.op)
        acc = [zero] * context
        for wj, arg in zip(w, term.args):
            vec = eval_vector(arg, context, model)
            for i in range(context):
                acc[i] = add(acc[i], mul(wj, vec[i]))
        return tuple(acc)
    raise ModelError(f"not a term: {term!r}")


def model_soundness(model: TheoryModel) -> list[Equation]:
    """Equations of the theory that fail as weight-vector identities."""
    failures = []
    for eq in model.theory.equations:
        if (eval_vector(eq.lhs, eq.context, model)
                != eval_vector(eq.rhs, eq.context, model)):
            failures.append(eq)
    return failures
