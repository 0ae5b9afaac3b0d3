"""Algebraic theories: signatures of weighted operations plus equations.

Two theories ship built in: the pointed convex one (binary choice
operations ``+_p`` for rational ``p`` in (0,1) and a failure constant
``star``) and commutative monoids (binary ``+`` and constant ``0``).
Operation families are kept extensional: a theory instance carries only
the finitely many parameter values actually in use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import ModelError, TypeCheckError


@dataclass(frozen=True)
class OpSymbol:
    name: str
    arity: int
    params: tuple[Fraction, ...] = ()

    def __str__(self) -> str:
        if self.params:
            return f"{self.name}_{'_'.join(str(p) for p in self.params)}"
        return self.name


# --- terms ------------------------------------------------------------------

@dataclass(frozen=True)
class SigmaTerm:
    pass


@dataclass(frozen=True)
class Var(SigmaTerm):
    index: int  # 1-based

    def __str__(self) -> str:
        return f"x{self.index}"


@dataclass(frozen=True)
class App(SigmaTerm):
    op: OpSymbol
    args: tuple[SigmaTerm, ...] = ()

    def __str__(self) -> str:
        if self.op.arity == 2 and len(self.args) == 2:
            return f"({self.args[0]} {self.op} {self.args[1]})"
        if not self.args:
            return str(self.op)
        return f"{self.op}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class Equation:
    context: int
    lhs: SigmaTerm
    rhs: SigmaTerm
    name: str = ""


def check_term(term: SigmaTerm, context: int) -> None:
    """Raise unless all variables lie in 1..context and arities match."""
    if isinstance(term, Var):
        if not 1 <= term.index <= context:
            raise TypeCheckError(
                f"variable x{term.index} out of context of size {context}")
        return
    if isinstance(term, App):
        if term.op.arity != len(term.args):
            raise TypeCheckError(
                f"operation {term.op} has arity {term.op.arity}, "
                f"applied to {len(term.args)} arguments")
        for arg in term.args:
            check_term(arg, context)
        return
    raise TypeCheckError(f"not a term: {term!r}")


def substitute(term: SigmaTerm, args: Sequence[SigmaTerm]) -> SigmaTerm:
    """Simultaneous substitution of x_i by args[i-1]."""
    if isinstance(term, Var):
        if term.index > len(args):
            raise TypeCheckError(
                f"substitution expects {term.index} arguments, got {len(args)}")
        return args[term.index - 1]
    if isinstance(term, App):
        return App(term.op, tuple(substitute(a, args) for a in term.args))
    raise TypeCheckError(f"not a term: {term!r}")


# --- theories ---------------------------------------------------------------

@dataclass(frozen=True)
class AlgebraicTheory:
    name: str
    ops: tuple[OpSymbol, ...] = ()
    equations: tuple[Equation, ...] = ()
    primary_ops: tuple[OpSymbol, ...] = field(default=())

    def validate(self) -> None:
        declared = set(self.ops)

        def ops_of(t: SigmaTerm):
            if isinstance(t, App):
                yield t.op
                for a in t.args:
                    yield from ops_of(a)

        for eq in self.equations:
            check_term(eq.lhs, eq.context)
            check_term(eq.rhs, eq.context)
            for op in list(ops_of(eq.lhs)) + list(ops_of(eq.rhs)):
                if op not in declared:
                    raise ModelError(
                        f"equation {eq.name} uses undeclared operation {op}")


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
    +_{p(1-q)/(1-pq)} into the signature as well.
    """
    if name == "CM":
        x1, x2, x3 = Var(1), Var(2), Var(3)
        eqs = (
            Equation(3, App(CM_PLUS, (App(CM_PLUS, (x1, x2)), x3)),
                     App(CM_PLUS, (x1, App(CM_PLUS, (x2, x3)))), "cm-assoc"),
            Equation(2, App(CM_PLUS, (x1, x2)), App(CM_PLUS, (x2, x1)), "cm-comm"),
            Equation(1, App(CM_PLUS, (x1, App(CM_ZERO, ()))), x1, "cm-unit"),
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
            eqs.append(Equation(
                2, App(choice(p), (x1, x2)), App(need(1 - p), (x2, x1)),
                f"pca-comm[p={p}]"))
            eqs.append(Equation(
                1, App(choice(p), (x1, x1)), x1, f"pca-idem[p={p}]"))
        for p in ps:
            for q in ps:
                if 1 - p * q == 0:
                    continue
                inner = p * (1 - q) / (1 - p * q)
                lhs = App(choice(p), (App(choice(q), (x1, x2)), x3))
                rhs = App(need(p * q), (x1, App(need(inner), (x2, x3))))
                eqs.append(Equation(3, lhs, rhs, f"pca-assoc[p={p},q={q}]"))
        ops = tuple(choice(r) for r in params_used) + (STAR,)
        theory = AlgebraicTheory("PCA", ops, tuple(eqs),
                                 primary_ops=tuple(choice(p) for p in ps) + (STAR,))
        theory.validate()
        return theory

    raise ModelError(f"unknown built-in theory: {name}")
