"""Interpretations and the compositional semantics of circuits and tapes.

An interpretation assigns a finite carrier to every sort and an exact
matrix to every generator; it extends homomorphically to all circuits
and tapes: ``eval_tape`` is one ``fold`` of ``evaluator`` over
``tape.TERM_KIDS``, which gives a node's matrix from its children's, and
a failure is the error that walk raises.  A structural tape, a
``TBlock`` at one monomial as at many, is a leaf: its matrix is one
image, a ``range`` per monomial block, from the carrier sizes and its
``block_layout``, the ``block_map`` that the node computes once and
keeps.  A whiskered tape (``TWhisker``) has one child, the tape t it
whiskers: its matrix is t's tensored with an identity per whiskering,
on the left its blocks reordered by ``kleisli.pairing`` from the
carrier sizes of t's type, which t keeps (``tape.tape_types``), unless
t is structural or branching, whose matrix is the same on either side,
or a circuit's tape, one monomial a side.  A branching tape
(``tape.TTerm``, an operation's too) is a leaf, its matrix read from
its term's weight vector, which depends on the model alone and which
the node keeps per model object, as it keeps its type per signature
object: so a ``TheoryModel``'s weights must not change once a tape is
evaluated under it (``kleisli.model_for``'s are read-only, a
``MappingProxyType``).  A structural circuit (a ``circuit.CBlock``, at
one sort as at many) is a leaf too, whose matrix is the ``kleisli``
closed form of its call's builder at the carrier sizes of its words.
Carrier indexing is fixed once and for all: tensor indices are
left-major within a monomial, and a polynomial carrier concatenates its
monomial blocks in order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Callable, Mapping, Union

from . import kleisli
from .circuit import CBlock, CGen, CSeq, CTensor, CircuitTerm, MonSignature
from .errors import DimensionError, ModelError, UnknownSortError
from .hashcons import fold
from .kleisli import Matrix, TheoryModel, branch_matrix, eval_vector, pairing
from .objects import Monomial, Polynomial
from .tape import (TERM_KIDS, TBlock, TCirc, TSeq, TSum, TTerm, TWhisker,
                   TapeTerm, as_poly, tape_types)


@dataclass(frozen=True)
class Interpretation:
    """A carrier size for every sort and a matrix for every generator of
    sig, under a model of the theory.  ``mono_size`` keeps the carrier
    size of each monomial it has sized in ``sizes``, which is neither
    compared nor shown, and which ``with_gens`` shares, as it shares the
    carriers; a missing carrier is never kept, so it raises each time."""
    sig: MonSignature
    carriers: Mapping[str, int]
    gen_matrices: Mapping[str, Matrix]
    model: TheoryModel
    sizes: dict[Monomial, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "sizes", {})

    def validate(self) -> None:
        for s in self.sig.sorts:
            if s not in self.carriers:
                raise UnknownSortError(f"sort {s} has no carrier")
            if self.carriers[s] < 0:
                raise ModelError(f"carrier of {s} must be a natural number")
        for name, (ar, coar) in self.sig.gens.items():
            m = self.gen_matrices.get(name)
            if m is None:
                raise ModelError(f"generator {name} has no matrix")
            if (m.dom, m.cod) != (self.mono_size(ar), self.mono_size(coar)):
                raise DimensionError(
                    f"matrix of {name} is {m.cod}x{m.dom}, expected "
                    f"{self.mono_size(coar)}x{self.mono_size(ar)}")
            theory = self.model.theory.name
            if theory == "CM" and m.den != 1:
                raise ModelError(f"matrix of {name} has a weight that is not "
                                 "a natural number, as CM needs")
            if theory == "PCA" and not m.is_substochastic():
                raise ModelError(f"matrix of {name} has a column summing "
                                 "above 1, as PCA forbids")
        failures = kleisli.model_soundness(self.model)
        if failures:
            names = ", ".join(eq.name or str(eq) for eq in failures)
            raise ModelError(f"model weights violate theory equations: {names}")

    def sort_size(self, name: str) -> int:
        try:
            return self.carriers[name]
        except KeyError:
            raise UnknownSortError(f"sort {name} has no carrier")

    def mono_size(self, u: Monomial) -> int:
        size = self.sizes.get(u)
        if size is None:
            size = 1
            for s in u:
                size *= self.sort_size(s)
            self.sizes[u] = size
        return size

    def with_gens(self, extra_sig: Mapping[str, tuple[Monomial, Monomial]],
                  extra_matrices: Mapping[str, Matrix]) -> "Interpretation":
        mats = dict(self.gen_matrices)
        mats.update(extra_matrices)
        interp = Interpretation(self.sig.with_gens(extra_sig), self.carriers,
                                mats, self.model)
        object.__setattr__(interp, "sizes", self.sizes)
        return interp


def carrier_of(p: Union[Polynomial, Monomial], interp: Interpretation) -> int:
    return sum(map(interp.mono_size, as_poly(p)))


def prod_index(p: Polynomial, q: Polynomial, interp: Interpretation):
    """The index bijection carrier(P) x carrier(Q) -> carrier(P (x) Q).

    Block (i, j) of the product polynomial holds the pairs from the i-th
    monomial of P and the j-th of Q, with the P-part major within the
    block.  Returns a function of two carrier indices.
    """
    size = interp.mono_size

    def cells(r: Polynomial) -> list[tuple[int, int]]:
        """(monomial block, index in it) of each carrier index of r."""
        return [(i, a) for i, u in enumerate(r) for a in range(size(u))]

    p_cells, q_cells = cells(p), cells(q)
    pq_starts = [0, *accumulate(map(size, p * q))]

    def index(x: int, y: int) -> int:
        (i, a), (j, b) = p_cells[x], q_cells[y]
        return pq_starts[i * len(q) + j] + a * size(q[j]) + b

    return index


def eval_tape(t: TapeTerm | CircuitTerm, interp: Interpretation,
              walk: tuple[list, dict] | None = None) -> Matrix:
    """The matrix of a tape or circuit: one ``fold`` of ``evaluator`` over
    ``TERM_KIDS``, so each distinct subterm is evaluated once and its
    matrix dropped after its last use; ``walk`` is t's ``postorder``, if
    the caller has made it already."""
    return fold((t,), TERM_KIDS, evaluator(interp), walk)[0]


def block_matrix(node: TBlock, interp: Interpretation) -> Matrix:
    """The matrix of a structural tape, from its builder call: each dom
    block is the identity onto the cod block that ``block_map`` names,
    kept in the node's ``block_layout``.  The carriers are read in dom
    order, so a missing one is the first in dom order that the node's
    inductive definition would read; every cod monomial but a cobang's
    is in dom."""
    dom, cod, blocks = node.block_layout
    size = {u: interp.mono_size(u) for u in dom or cod}
    ends = (0, *accumulate(map(size.__getitem__, cod)))
    image = tuple(chain.from_iterable(
        [range(ends[b], ends[b + 1]) for b in blocks]))
    return Matrix(len(image), ends[-1], image=image)


CLOSED_FORMS = {"sym_circuit": "sym_tensor", "copier_circuit": "copier",
                "discharger_circuit": "discharger",
                "identity_circuit": "identity"}     # kleisli builders by name


def evaluator(interp: Interpretation) -> Callable:
    """The ``fold`` step of the semantics under interp: a node's matrix
    from its children's matrices, in order.  A structural tape is a
    ``block_matrix``.  A whiskered tape's one child is the tape t it
    whiskers; each step of its chain tensors t's matrix with the
    identity on U.  On the right, t <| U is exactly that; on the
    left, U |> t is that with its dom and cod blocks reordered by
    ``pairing``, from the carrier sizes of the monomials of t's type,
    which t keeps (see ``tape.tape_types``), under interp's signature
    with the carried sorts added if it lacks one of t's, as t's full
    tree reads no sort of the signature.  A circuit's tape has one
    monomial a side, so U |> [c] needs no type.  Tensoring on the right
    lays each block U u of U |> t out u-major instead of U-major; a
    structural or branching t moves each block whole or weighs every
    element alike, so its matrix is the same in either layout, and it
    is tensored on the right on either side, with no type of t read.
    A branching tape is the ``branch_matrix`` of its term's weight
    vector, its carriers read first: the node keeps (model, vector) in
    its ``__dict__`` as ``weighed``, and under any model object but that
    one the vector is the term's ``eval_vector``, kept in its place; a
    missing weight raises and keeps nothing.  A structural circuit is
    the ``CLOSED_FORMS`` builder of its call at the carrier sizes of its
    words, found by name, so that a wrapper of the builder sees it."""
    def whiskered(node: TWhisker, m: Matrix) -> Matrix:
        t = node.tape
        blind = t.__class__ is TBlock or t.__class__ is TTerm  # to the side
        scale = 1       # the carrier size of the steps so far
        for left, u in node.steps:
            n = interp.mono_size(u)
            if n == 1:
                continue
            if not left or blind:
                m = m.tensor(Matrix.identity(n))
            elif t.__class__ is TCirc:      # one monomial a side
                m = Matrix.identity(n).tensor(m)
            else:
                try:
                    typ = tape_types((t,), interp.sig)[0]
                except UnknownSortError:    # a sort that only has a carrier
                    sig = MonSignature((*interp.sig.sorts, *interp.carriers),
                                       interp.sig.gens)
                    typ = tape_types((t,), sig)[0]
                dom, cod = [[interp.mono_size(u) * scale for u in side]
                            for side in typ]
                m = Matrix.identity(n).tensor(m)
                if len(dom) > 1:
                    m = pairing(n, dom).then(m)
                if len(cod) > 1:
                    m = m.then(pairing(n, cod).transpose_permutation())
            scale *= n
        return m

    def step(node, kids: tuple) -> Matrix:
        cls = node.__class__
        if cls is TSeq or cls is CSeq:
            return kids[0].then(kids[1])
        if cls is TSum:
            return kids[0].oplus(kids[1])
        if cls is TBlock:
            return block_matrix(node, interp)
        if cls is TWhisker:
            return whiskered(node, *kids)
        if cls is CTensor:
            return kids[0].tensor(kids[1])
        if cls is CBlock:
            return getattr(kleisli, CLOSED_FORMS[node.builder])(
                *map(interp.mono_size, node.words))
        if cls is TCirc:
            return kids[0]
        if cls is CGen:
            interp.sig.gen_type(node.name)
            try:
                return interp.gen_matrices[node.name]
            except KeyError:
                raise ModelError(f"generator {node.name} has no matrix")
        if cls is TTerm:
            term, dom, n = node.branch
            size = sum(map(interp.mono_size, dom))
            model, w = node.__dict__.get("weighed", (None, None))
            if model is not interp.model:
                w = eval_vector(term, n, interp.model)
                node.__dict__["weighed"] = interp.model, w
            return branch_matrix(w, size)
        raise ModelError(f"not a tape term: {node!r}")

    return step

