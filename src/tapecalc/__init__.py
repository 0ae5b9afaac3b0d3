"""Tape diagrams over rig signatures with exact Kleisli-matrix semantics."""

from .objects import (Monomial, ONE, ObjTerm, Polynomial, SortRef, Sum,
                      Tensor, UnitOne, ZERO, ZeroObj, embed, mono, normalize,
                      poly, poly_of_mono, poly_tensor)
from .theory import (AlgebraicTheory, App, Equation, OpSymbol, SigmaTerm, Var,
                     builtin_theory, check_term, choice, substitute)
from .circuit import (CircuitTerm, MonSignature, copier_circuit,
                      discharger_circuit, identity_circuit, sym_circuit,
                      type_of_circuit)
from .kleisli import (Matrix, NATURALS, RATIONALS, Semiring, TheoryModel,
                      eval_vector, model_for, model_soundness, op_matrix)
from .tape import (TapeTerm, cobang_tape, codiag_tape, copier_tape,
                   discharger_tape, distributor, id_tape, nfold_codiag,
                   op_inj_tape, symplus_tape, symtensor_tape, tensor_tape,
                   term_tape, type_of_tape, whisker_left, whisker_right)
from .interp import Interpretation, carrier_of, eval_tape
from .suites import (SuiteBounds, SuiteReport, axiom_suite, coherence_suite,
                     lemma_suite, sem_eq, standard_interpretation,
                     whiskering_suite)

__all__ = [name for name in dir() if not name.startswith("_")]
