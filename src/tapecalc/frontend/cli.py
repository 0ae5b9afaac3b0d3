"""Command-line interface.

Exit codes: 0 success (or equal), 1 unequal or suite failure, 2 usage
errors and work refused as too large, 3 parse or type errors.
Subcommands print nothing on success except the artifact they were
asked for.
"""

from __future__ import annotations

import argparse
import functools
import sys

from ..errors import (SizeError, TapecalcError, TypeCheckError,
                      UnknownOperationError)
from ..hashcons import postorder
from ..interp import eval_tape
from ..kleisli import exact_str, model_for
from ..objects import normalize
from ..suites import (SuiteBounds, axiom_suite, coherence_suite, lemma_suite,
                      sem_eq)
from ..tape import TERM_KIDS, Branching, tape_types
from ..theory import operations
from .parser import ascii_int, parse_module, parse_object_expr
from .render import render_svg
from .surface import elaborate

EXIT_OK = 0
EXIT_UNEQUAL = 1
EXIT_USAGE = 2
EXIT_BAD_INPUT = 3


class _Argparser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once a process: parsing leaves it as it
    was, so every call of main reuses it."""
    parser = _Argparser(prog="tapecalc",
                        description="tape diagrams with exact matrix semantics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and type every definition")
    p.add_argument("file")

    p = sub.add_parser("normalize", help="normalize an object expression")
    p.add_argument("expr")

    p = sub.add_parser("eval", help="evaluate a definition to a matrix")
    p.add_argument("file")
    p.add_argument("--term", required=True)
    p.add_argument("--interp", required=True)

    p = sub.add_parser("eq", help="decide semantic equality of two definitions")
    p.add_argument("file")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--interp", required=True)

    p = sub.add_parser("suite", help="run the axiom and lemma suites")
    p.add_argument("file")
    p.add_argument("--interp", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", action="append", default=[],
                   metavar="KEY=N",
                   help="override a bound: sorts, mono, poly, carrier, "
                        "samples, tuples")

    p = sub.add_parser("render", help="render a definition to SVG")
    p.add_argument("file")
    p.add_argument("--term", required=True)
    p.add_argument("-o", "--output", required=True)
    return parser


def load_module(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.exit(EXIT_USAGE)
    except UnicodeDecodeError as exc:
        raise TapecalcError(f"{path}: {exc}") from None
    return parse_module(text)


def parse_bounds(pairs: list[str]) -> SuiteBounds:
    keys = {"sorts": "sorts", "mono": "mono_len", "poly": "poly_len",
            "carrier": "carrier", "samples": "samples", "tuples": "max_tuples"}
    values = {}
    for pair in pairs:
        key, _, num = pair.partition("=")
        n = ascii_int(num)
        if key not in keys or n is None:
            sys.stderr.write(f"error: bad bound {pair!r}; use KEY=N with KEY "
                             f"in {sorted(keys)}\n")
            sys.exit(EXIT_USAGE)
        if n < 1 and key in ("sorts", "poly", "tuples"):   # others may be 0
            sys.stderr.write(f"error: bad bound {pair!r}; {key} must be at "
                             "least 1\n")
            sys.exit(EXIT_USAGE)
        values[keys[key]] = n
    return SuiteBounds(**values)


def definition(module, name: str):
    """The body of definition name; an unknown name is bad input."""
    body = module.defs.get(name)
    if body is None:
        raise TapecalcError(f"no definition named {name}")
    return body


def weighs(model, op) -> bool:
    try:
        model.weight_vector(op)
    except UnknownOperationError:
        return False
    return True


def check_weights(nodes, models) -> None:
    """Raise UnknownOperationError for an operation among a tape's nodes
    that no model weighs, as evaluating the tape under any declared theory
    would, in the order evaluation looks their weights up."""
    for node in nodes:
        for op in operations(node.branch[0]) if isinstance(node, Branching) else ():
            if not any(weighs(m, op) for m in models):
                raise UnknownOperationError(f"operation {op} has no "
                                            "weights in any declared theory")


def cmd_check(args) -> int:
    """Elaborate and type every definition once, then decide the checks
    on those tapes: the interpretations share the module's signature, so
    each tape keeps its type for the checks, and elaborating again would
    rebuild the identical hash-consed nodes."""
    module = load_module(args.file)
    sig = module.signature()
    models = [model_for(module.theory(name)) for name in module.theories]
    tapes = {}
    for name, body in module.defs.items():
        try:
            tape = tapes[name] = elaborate(body, module)
            walk = postorder((tape,), TERM_KIDS)
            tape_types((tape,), sig, walk)
            check_weights(walk[0], models)
        except (TypeCheckError, UnknownOperationError) as exc:
            sys.stderr.write(f"error: definition {name}: {exc}\n")
            return EXIT_BAD_INPUT
    for check in module.checks:
        interp = module.interpretation(check.interp)
        left, right = check.left, check.right
        result = sem_eq(tapes[left], tapes[right], interp)
        if result.kind == "type-error":
            sys.stderr.write(
                f"error: check {left} = {right}: {result.message}\n")
            return EXIT_BAD_INPUT
        if not result.equal:
            y, x, a, b = result.witness
            sys.stdout.write(
                f"check {left} = {right} with {check.interp}: "
                f"unequal at entry ({y},{x}): {exact_str(a)} vs {exact_str(b)}\n")
            return EXIT_UNEQUAL
    return EXIT_OK


def cmd_normalize(args) -> int:
    term, sorts = parse_object_expr(args.expr)
    sys.stdout.write(str(normalize(term, sorts)) + "\n")
    return EXIT_OK


def cmd_eval(args) -> int:
    module = load_module(args.file)
    interp = module.interpretation(args.interp)
    tape = elaborate(definition(module, args.term), module)
    walk = postorder((tape,), TERM_KIDS)
    tape_types((tape,), interp.sig, walk)
    sys.stdout.write(eval_tape(tape, interp, walk).pretty() + "\n")
    return EXIT_OK


def cmd_eq(args) -> int:
    module = load_module(args.file)
    interp = module.interpretation(args.interp)
    left, right = definition(module, args.left), definition(module, args.right)
    lhs = elaborate(left, module)
    rhs = elaborate(right, module)
    result = sem_eq(lhs, rhs, interp)
    if result.kind == "type-error":
        sys.stderr.write(f"error: {result.message}\n")
        return EXIT_BAD_INPUT
    if result.equal:
        return EXIT_OK
    y, x, a, b = result.witness
    sys.stdout.write(f"unequal at entry ({y},{x}): left={exact_str(a)} "
                     f"right={exact_str(b)}\n")
    return EXIT_UNEQUAL


def cmd_suite(args) -> int:
    module = load_module(args.file)
    interp = module.interpretation(args.interp)
    bounds = parse_bounds(args.bound)
    report = coherence_suite(bounds, args.seed, max_size=bounds.carrier)
    report = report.merge(axiom_suite(interp, bounds, args.seed))
    report = report.merge(lemma_suite(interp, bounds, args.seed))
    for line in report.lines():
        sys.stdout.write(line + "\n")
    return EXIT_OK if report.failed == 0 else EXIT_UNEQUAL


def cmd_render(args) -> int:
    module = load_module(args.file)
    tape = elaborate(definition(module, args.term), module)
    svg = render_svg(tape, module.signature())
    try:
        with open(args.output, "wb") as handle:
            handle.write(svg.encode("utf-8"))
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"check": cmd_check, "normalize": cmd_normalize,
                "eval": cmd_eval, "eq": cmd_eq, "suite": cmd_suite,
                "render": cmd_render}
    try:
        return handlers[args.command](args)
    except SizeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except TapecalcError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
