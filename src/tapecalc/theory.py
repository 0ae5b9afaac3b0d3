"""Algebraic theories: signatures of weighted operations plus equations.

Two theories ship built in: the pointed convex one (binary choice
operations ``+_p`` for rational ``p`` in (0,1) and a failure constant
``star``) and commutative monoids (binary ``+`` and constant ``0``).
Operation families are kept extensional: a theory instance carries only
the finitely many parameter values actually in use.  Σ-terms are
hash-consed (see ``hashcons``); an operation applied to terms is a term.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .errors import ModelError, TypeCheckError
from .hashcons import Term, fold, postorder, term_node


@dataclass(frozen=True)
class OpSymbol:
    name: str
    arity: int
    params: tuple[Fraction, ...] = ()

    def __str__(self) -> str:
        if self.params:
            return f"{self.name}_{'_'.join(str(p) for p in self.params)}"
        return self.name

    def __call__(self, *args: SigmaTerm) -> App:
        return App(self, args)


# --- terms ------------------------------------------------------------------

class SigmaTerm(Term):
    def __str__(self) -> str:
        return fold((self,), SIGMA_KIDS, _show)[0]


@term_node
class Var(SigmaTerm):
    index: int  # 1-based


@term_node
class App(SigmaTerm):
    op: OpSymbol
    args: tuple[SigmaTerm, ...]


SIGMA_KIDS: dict[type, Callable] = {App: lambda t: t.args}


def _show(t, args: tuple[str, ...]) -> str:
    if isinstance(t, Var):
        return f"x{t.index}"
    if not isinstance(t, App):
        return str(t)
    if t.op.arity == 2 and len(args) == 2:
        return f"({args[0]} {t.op} {args[1]})"
    if not args:
        return str(t.op)
    return f"{t.op}({', '.join(args)})"


@dataclass(frozen=True)
class Equation:
    context: int
    lhs: SigmaTerm
    rhs: SigmaTerm
    name: str = ""


def check_term(term: SigmaTerm, context: int) -> None:
    """Raise unless all variables lie in 1..context and arities match."""
    for t in postorder((term,), SIGMA_KIDS)[0]:
        if not isinstance(t, (Var, App)):
            raise TypeCheckError(f"not a term: {t!r}")
        if isinstance(t, Var) and not 1 <= t.index <= context:
            raise TypeCheckError(
                f"variable x{t.index} out of context of size {context}")
        if isinstance(t, App) and t.op.arity != len(t.args):
            raise TypeCheckError(f"operation {t.op} has arity {t.op.arity}, "
                                 f"applied to {len(t.args)} arguments")


def operations(term: SigmaTerm) -> tuple[OpSymbol, ...]:
    """The distinct operations of a term in left-to-right preorder of
    first occurrence, the order in which ``postorder`` enters nodes."""
    return tuple(dict.fromkeys([t.op for t in postorder((term,), SIGMA_KIDS)[1]
                                if isinstance(t, App)]))


def substitute(term: SigmaTerm, args: Sequence[SigmaTerm]) -> SigmaTerm:
    """Simultaneous substitution of x_i by args[i-1]."""
    def step(t, new_args: tuple) -> SigmaTerm:
        if isinstance(t, Var):
            if t.index > len(args):
                raise TypeCheckError(
                    f"substitution expects {t.index} arguments, got {len(args)}")
            return args[t.index - 1]
        if isinstance(t, App):
            return App(t.op, new_args)
        raise TypeCheckError(f"not a term: {t!r}")

    return fold((term,), SIGMA_KIDS, step)[0]


# --- theories ---------------------------------------------------------------

@dataclass(frozen=True)
class AlgebraicTheory:
    name: str
    ops: tuple[OpSymbol, ...] = ()
    equations: tuple[Equation, ...] = ()
    primary_ops: tuple[OpSymbol, ...] = field(default=())

    def validate(self) -> None:
        declared = set(self.ops)
        for eq in self.equations:
            check_term(eq.lhs, eq.context)
            check_term(eq.rhs, eq.context)
            for op in operations(eq.lhs) + operations(eq.rhs):
                if op not in declared:
                    raise ModelError(f"equation {eq.name} uses "
                                     f"undeclared operation {op}")


STAR = OpSymbol("star", 0)
CM_PLUS = OpSymbol("+", 2)
CM_ZERO = OpSymbol("0", 0)


def choice(p: Fraction) -> OpSymbol:
    """The binary convex-choice operation +_p."""
    p = Fraction(p)
    if not 0 < p < 1:
        raise ModelError(f"choice parameter must lie in (0,1), got {p}")
    return OpSymbol("+", 2, (p,))


def builtin_theory(name: str, params: Sequence[Fraction] = ()) -> AlgebraicTheory:
    """Instantiate a built-in theory ("PCA" or "CM") at the given parameters.

    For PCA the supplied parameters generate the operation slice; the
    equation schemas are instantiated at every supplied p and ordered pair
    (p,q), which forces the derived operations +_{1-p}, +_{pq} and
    +_{p(1-q)/(1-pq)} into the signature as well.  A theory is immutable,
    so each (name, params) is instantiated once a process.
    """
    return _builtin_theory(name, tuple(params))


@functools.cache
def _builtin_theory(name: str, params: tuple) -> AlgebraicTheory:
    if name == "CM":
        x1, x2, x3 = Var(1), Var(2), Var(3)
        eqs = (
            Equation(3, CM_PLUS(CM_PLUS(x1, x2), x3),
                     CM_PLUS(x1, CM_PLUS(x2, x3)), "cm-assoc"),
            Equation(2, CM_PLUS(x1, x2), CM_PLUS(x2, x1), "cm-comm"),
            Equation(1, CM_PLUS(x1, CM_ZERO()), x1, "cm-unit"),
        )
        theory = AlgebraicTheory("CM", (CM_PLUS, CM_ZERO), eqs,
                                 primary_ops=(CM_PLUS, CM_ZERO))
        theory.validate()
        return theory

    if name == "PCA":
        ps = tuple(Fraction(p) for p in params)
        if not ps:
            raise ModelError("the PCA theory needs at least one parameter in (0,1)")
        for p in ps:
            if not 0 < p < 1:
                raise ModelError(f"PCA parameter out of range (0,1): {p}")
        params_used: list[Fraction] = list(dict.fromkeys(ps))
        eqs: list[Equation] = []
        x1, x2, x3 = Var(1), Var(2), Var(3)

        def need(r: Fraction) -> OpSymbol:
            if r not in params_used:
                params_used.append(r)
            return choice(r)

        for p in ps:
            eqs.append(Equation(2, choice(p)(x1, x2), need(1 - p)(x2, x1),
                                f"pca-comm[p={p}]"))
            eqs.append(Equation(1, choice(p)(x1, x1), x1, f"pca-idem[p={p}]"))
        for p in ps:
            for q in ps:
                if 1 - p * q == 0:
                    continue
                inner = p * (1 - q) / (1 - p * q)
                lhs = choice(p)(choice(q)(x1, x2), x3)
                rhs = need(p * q)(x1, need(inner)(x2, x3))
                eqs.append(Equation(3, lhs, rhs, f"pca-assoc[p={p},q={q}]"))
        ops = tuple(choice(r) for r in params_used) + (STAR,)
        theory = AlgebraicTheory("PCA", ops, tuple(eqs),
                                 primary_ops=tuple(choice(p) for p in ps) + (STAR,))
        theory.validate()
        return theory

    raise ModelError(f"unknown built-in theory: {name}")
