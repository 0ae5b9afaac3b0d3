"""Interpretations and the compositional semantics of circuits and tapes.

An interpretation assigns a finite carrier to every sort and an exact
matrix to every generator; it extends homomorphically to all circuits
and tapes.  Carrier indexing is fixed once and for all: tensor indices
are left-major within a monomial, and a polynomial carrier concatenates
its monomial blocks in order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Union

from . import kleisli
from .circuit import (CCopier, CDischarger, CGen, CIdOne, CIdSort, CSeq, CSym,
                      CTensor, CircuitTerm, MonSignature, postorder)
from .errors import DimensionError, ModelError, UnknownSortError
from .kleisli import Matrix, TheoryModel, op_matrix
from .objects import Monomial, Polynomial
from .tape import (TERM_KIDS, TCirc, TCobang, TCodiag, TIdMon, TIdZero,
                   TOpInj, TSeq, TSum, TSymPlus, TapeTerm)


@dataclass(frozen=True)
class Interpretation:
    sig: MonSignature
    carriers: Mapping[str, int]
    gen_matrices: Mapping[str, Matrix]
    model: TheoryModel
    labels: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

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
        size = 1
        for s in u:
            size *= self.sort_size(s)
        return size

    def poly_size(self, p: Polynomial) -> int:
        return sum(self.mono_size(u) for u in p)

    def with_gens(self, extra_sig: Mapping[str, tuple[Monomial, Monomial]],
                  extra_matrices: Mapping[str, Matrix]) -> "Interpretation":
        mats = dict(self.gen_matrices)
        mats.update(extra_matrices)
        return Interpretation(self.sig.with_gens(extra_sig), self.carriers,
                              mats, self.model, self.labels)


def carrier_of(p: Union[Polynomial, Monomial], interp: Interpretation) -> int:
    if isinstance(p, Monomial):
        return interp.mono_size(p)
    return interp.poly_size(p)


def mono_offsets(p: Polynomial, interp: Interpretation) -> list[int]:
    """Start index of each monomial block in the carrier of p."""
    offsets, acc = [], 0
    for u in p:
        offsets.append(acc)
        acc += interp.mono_size(u)
    return offsets


def prod_index(p: Polynomial, q: Polynomial, interp: Interpretation):
    """The index bijection carrier(P) x carrier(Q) -> carrier(P (x) Q).

    Block (i, j) of the product polynomial holds the pairs from the i-th
    monomial of P and the j-th of Q, with the P-part major within the
    block.  Returns a function of two carrier indices.
    """
    p_offsets = mono_offsets(p, interp)
    q_offsets = mono_offsets(q, interp)
    q_sizes = [interp.mono_size(v) for v in q]
    pq_offsets = mono_offsets(p * q, interp)
    n_q = len(q_sizes)

    def locate(offsets: list[int], idx: int) -> tuple[int, int]:
        block = 0
        for b, start in enumerate(offsets):
            if idx >= start:
                block = b
            else:
                break
        return block, idx - offsets[block]

    def index(x: int, y: int) -> int:
        i, a = locate(p_offsets, x)
        j, b = locate(q_offsets, y)
        return pq_offsets[i * n_q + j] + a * q_sizes[j] + b

    return index


def eval_tape(t: TapeTerm | CircuitTerm, interp: Interpretation) -> Matrix:
    """The matrix of a tape or circuit.

    One post-order walk over the distinct subterms, without recursion: each
    is evaluated once, and its matrix is dropped after its last use.
    """
    order, uses = postorder(t, TERM_KIDS)
    values: dict = {}
    for node in order:
        cls = node.__class__
        kids = ()
        if cls is TSeq or cls is CSeq:
            kids = node.first, node.second
            m = values[node.first].then(values[node.second])
        elif cls is TSum:
            kids = node.top, node.bottom
            m = values[node.top].oplus(values[node.bottom])
        elif cls is CTensor:
            kids = node.top, node.bottom
            m = values[node.top].tensor(values[node.bottom])
        elif cls is TCirc:
            kids = node.circuit,
            m = values[node.circuit]
        elif cls is CGen:
            interp.sig.gen_type(node.name)
            try:
                m = interp.gen_matrices[node.name]
            except KeyError:
                raise ModelError(f"generator {node.name} has no matrix")
        elif cls is TIdMon:
            m = Matrix.identity(interp.mono_size(node.mono))
        elif cls is CIdSort:
            m = Matrix.identity(interp.sort_size(node.sort))
        elif cls is TSymPlus:
            m = kleisli.sym_plus(interp.mono_size(node.left),
                                 interp.mono_size(node.right))
        elif cls is TCodiag:
            m = kleisli.codiag(interp.mono_size(node.mono))
        elif cls is TCobang:
            m = kleisli.cobang(interp.mono_size(node.mono))
        elif cls is TOpInj:
            m = op_matrix(node.op, interp.model, interp.mono_size(node.mono))
        elif cls is CSym:
            m = kleisli.sym_tensor(interp.sort_size(node.left),
                                   interp.sort_size(node.right))
        elif cls is CCopier:
            m = kleisli.copier(interp.sort_size(node.sort))
        elif cls is CDischarger:
            m = kleisli.discharger(interp.sort_size(node.sort))
        elif cls is TIdZero:
            m = Matrix.identity(0)
        elif cls is CIdOne:
            m = Matrix.identity(1)
        else:
            raise ModelError(f"not a tape term: {node!r}")
        for k in kids:
            uses[k] -= 1
            if not uses[k]:
                del values[k]
        values[node] = m
    return values[t]


eval_circuit = eval_tape    # one walker for both layers
