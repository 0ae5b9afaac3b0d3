"""Inputs at Python's limits: bytes that are not UTF-8, digits that are
not ASCII, weights longer than Python's int->str conversion allows (4300
digits by default), and terms and parentheses deeper than the recursion
limit.  Each ends in a documented exit code, never in a traceback."""

import itertools
import sys
import time
from fractions import Fraction

import pytest

from tapecalc import hashcons, objects
from tapecalc.circuit import CGen, MonSignature, cseq
from tapecalc.frontend.cli import main
from tapecalc.frontend.parser import parse_module
from tapecalc.frontend.render import render_svg
from tapecalc.frontend.surface import (DefDecl, SAtom, SCircuit, SInfix,
                                       print_module)
from tapecalc.interp import eval_tape
from tapecalc.kleisli import exact_str
from tapecalc.objects import mono
from tapecalc.tape import TCirc, id_tape, tseq, tsum

A = mono("A")


def run(tmp_path, capsys, text, argv):
    path = tmp_path / "m.tape"
    path.write_text(text, encoding="utf-8")
    code = main([a.format(f=path) for a in argv])
    return code, capsys.readouterr()


def test_file_that_is_not_utf8_is_bad_input(tmp_path, capsys):
    path = tmp_path / "m.tape"
    path.write_bytes(b"sort A;\n# \xff\xfe\n")
    code = main(["check", str(path)])
    assert code == 3
    assert capsys.readouterr().err == (
        f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 10: "
        "invalid start byte\n")


def test_superscript_numeral_is_a_parse_error(tmp_path, capsys):
    code, out = run(tmp_path, capsys, "theory PCA with p = ²;\n",
                    ["check", "{f}"])
    assert code == 3
    assert out.err == "error: 1:21: unexpected character '²'\n"


def test_superscript_variable_index_is_a_parse_error(tmp_path, capsys):
    code, out = run(tmp_path, capsys, "sort A;\ndef t = term<x²>@A;\n",
                    ["check", "{f}"])
    assert code == 3
    assert out.err.startswith("error: 2:14: expected a term")


def test_superscript_bound_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, capsys, FLIP, ["suite", "{f}", "--interp", "I",
                                     "--bound", "samples=²"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad bound 'samples=²'; use KEY=N")


@pytest.mark.parametrize("bound, key", [
    ("sorts=0", "sorts"), ("poly=0", "poly"), ("tuples=0", "tuples"),
])
def test_bound_below_minimum_is_a_usage_error(tmp_path, capsys, bound, key):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, capsys, FLIP, ["suite", "{f}", "--interp", "I",
                                     "--bound", bound])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.err == f"error: bad bound {bound!r}; {key} must be at least 1\n"
    assert out.out == ""


@pytest.mark.parametrize("bound", ["mono=0", "carrier=0", "samples=0",
                                   "sorts=1", "poly=1", "tuples=1"])
def test_bound_at_minimum_runs(tmp_path, capsys, bound):
    code, out = run(tmp_path, capsys, FLIP, ["suite", "{f}", "--interp", "I",
                                             "--bound", bound])
    assert code == 0
    assert out.err == ""


@pytest.mark.parametrize("text, message", [
    ("theory PCA with p = 1/0;\n", "1:23: zero denominator"),
    ("theory PCA with p = 1/" + "3" * 4400 + ";\n",
     "1:23: numeral of 4400 digits is too long"),
], ids=["zero-denominator", "numeral-too-long"])
def test_bad_numerals_are_parse_errors(tmp_path, capsys, text, message):
    code, out = run(tmp_path, capsys, text, ["check", "{f}"])
    assert code == 3
    assert out.err == f"error: {message}\n"


FLIP = """sort A;
gen G : A -> A;
theory PCA with p = 1/2;
interp I {
  A = {0, 1};
  G = [[1/2, 0], [0, 1/2]];
  model = PCA;
}
def d0 = [ G ];
"""


def doubling_module(levels: int) -> str:
    """d_k is a chain of 2^k steps of G, which halves both entries."""
    return FLIP + "".join(f"def d{k} = d{k - 1} ; d{k - 1};\n"
                          for k in range(1, levels + 1))


def unlimited_str(n: int) -> str:
    """str(n) with Python's digit limit lifted for this call only."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def test_eval_prints_every_digit_of_a_long_weight(tmp_path, capsys):
    code, out = run(tmp_path, capsys, doubling_module(14),
                    ["eval", "{f}", "--term", "d14", "--interp", "I"])
    assert code == 0
    den = unlimited_str(2 ** 16384)
    assert len(den) == 4933
    assert out.out == f"[[1/{den}, 0], [0, 1/{den}]]\n"
    assert out.err == ""


def test_eq_witness_prints_every_digit(tmp_path, capsys):
    code, out = run(tmp_path, capsys, doubling_module(14),
                    ["eq", "{f}", "--left", "d14", "--right", "d13",
                     "--interp", "I"])
    assert code == 1
    assert out.out == (f"unequal at entry (0,0): left=1/{unlimited_str(2 ** 16384)}"
                       f" right=1/{unlimited_str(2 ** 8192)}\n")


@pytest.mark.parametrize("w", [0, 7, -7, 10 ** 500, 10 ** 5000 - 1,
                               -(2 ** 20000), 3 * 10 ** 4999],
                         ids=["0", "7", "-7", "10^500", "10^5000-1",
                              "-2^20000", "3*10^4999"])
def test_exact_str_matches_unlimited_str(w):
    assert exact_str(w) == unlimited_str(w)
    q = Fraction(w, 2 ** 16384 + 1)
    expected = unlimited_str(q.numerator)
    if q.denominator != 1:
        expected += "/" + unlimited_str(q.denominator)
    assert exact_str(q) == expected


@pytest.mark.parametrize("shape", ["seq", "sum"])
def test_render_5000_step_term(shape):
    sig = MonSignature(("A",), {f"G{i}": (A, A) for i in range(3)})
    steps = [TCirc(CGen(f"G{i * 7 % 3}")) for i in range(5000)]
    if shape == "sum":
        steps = [id_tape(A) if i % 2 else s for i, s in enumerate(steps)]
    term = tseq(*steps) if shape == "seq" else tsum(*steps)
    svg = render_svg(term, sig)
    assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>\n<svg ')
    # a generator draws a band and a box, an identity a band
    assert svg.count("<rect") == {"seq": 10000, "sum": 7500}[shape]


DEEP = 5000


@pytest.mark.parametrize("body, matrix", [
    ("(" * DEEP + "id@A" + ")" * DEEP, "[[1, 0], [0, 1]]"),
    ("[ " + "(" * DEEP + "G" + ")" * DEEP + " ]", "[[1/2, 0], [0, 1/2]]"),
], ids=["tape", "circuit"])
def test_5000_nested_parentheses(tmp_path, capsys, body, matrix):
    text = FLIP + f"def d = {body};\n"
    assert run(tmp_path, capsys, text, ["check", "{f}"]) == (0, ("", ""))
    code, out = run(tmp_path, capsys, text,
                    ["eval", "{f}", "--term", "d", "--interp", "I"])
    assert (code, out.out, out.err) == (0, matrix + "\n", "")


NESTED_BODIES = {
    "parentheses": "(" * DEEP + "id@A" + ")" * DEEP,
    "bracket": "[ " + "(" * DEEP + "G" + ")" * DEEP + " ]",
    "term": "term<" + "(" * DEEP + "x1 +_1/2 x2" + ")" * DEEP + ">@A",
    "choice": "term<" + "x1 +_1/2 (" * DEEP + "x2" + ")" * DEEP + ">@A",
}


@pytest.mark.parametrize("command", ["check", "render"])
@pytest.mark.parametrize("shape", NESTED_BODIES)
def test_deep_nesting_checks_and_renders(tmp_path, capsys, shape, command):
    """5000 levels of each bracket kind: parentheses around a tape atom,
    around a generator inside [ ], around a term inside term<...>, and a
    right-nested choice x1 +_1/2 (x1 +_1/2 (...)).  check and render
    each exit 0 and print nothing; an escaped RecursionError fails the
    test.  Right-nested `;` tapes are left out: surface.elaborate still
    recurses once per step on them (ROADMAP item 1), so they exit 1."""
    argv = ["check", "{f}"]
    if command == "render":
        argv = ["render", "{f}", "--term", "d", "-o", str(tmp_path / "d.svg")]
    text = FLIP + f"def d = {NESTED_BODIES[shape]};\n"
    code, out = run(tmp_path, capsys, text, argv)
    assert (code, out.out, out.err) == (0, "", "")


def test_normalize_5000_nested_parentheses(capsys):
    code = main(["normalize", "(" * DEEP + "A (+) (B)" + ")" * DEEP])
    assert (code, capsys.readouterr().out) == (0, "A (+) B\n")


@pytest.mark.parametrize("n", [10, 21, 64])
def test_normalize_refuses_a_product_past_its_bound(n, monkeypatch, capsys):
    """n two-term factors normalize to 2^n monomials: above 2^20 normalize
    exits 2 with one error line and expands nothing; at n = 10 it prints
    all 1,024."""
    expanded = []

    def product(*parts):
        expanded.append(len(parts))
        return itertools.product(*parts)

    monkeypatch.setattr(objects, "product", product)
    code = main(["normalize", " (x) ".join(["(A (+) B)"] * n)])
    out = capsys.readouterr()
    if n <= 20:
        assert (code, out.err, expanded) == (0, "", [n])
        assert out.out.count(" (+) ") + 1 == 2 ** n
        assert out.out.startswith("A" * n + " (+) ")
    else:
        assert (code, out.out, expanded) == (2, "", [])
        assert out.err == (f"error: a (x) product of {n} factors has more "
                           "than 1048576 monomials\n")


@pytest.mark.parametrize("copies, factors", [(2, 10), (17, 16)])
def test_normalize_bounds_the_whole_normal_form(copies, factors, monkeypatch,
                                                capsys):
    """A (+) of products, each under the bound, is refused when the sum
    is over it, before anything is expanded: 17 copies of a 16-factor
    product have 17 * 2^16 = 1,114,112 monomials.  Two copies of a
    10-factor product print all 2,048."""
    expanded = []

    def product(*parts):
        expanded.append(len(parts))
        return itertools.product(*parts)

    monkeypatch.setattr(objects, "product", product)
    factor = "(" + " (x) ".join(["(A (+) B)"] * factors) + ")"
    code = main(["normalize", " (+) ".join([factor] * copies)])
    out = capsys.readouterr()
    if copies == 2:
        assert (code, out.err, expanded) == (0, "", [factors] * copies)
        assert out.out.count(" (+) ") + 1 == 2048
    else:
        assert (code, out.out, expanded) == (2, "", [])
        assert out.err == (f"error: a (+) sum of {copies} summands has more "
                           "than 1048576 monomials\n")


def test_5000_step_bracket_checks_and_evaluates(tmp_path, capsys):
    text = FLIP + "def d = [ " + " ; ".join(["G"] * DEEP) + " ];\n"
    assert run(tmp_path, capsys, text, ["check", "{f}"]) == (0, ("", ""))
    code, out = run(tmp_path, capsys, text,
                    ["eval", "{f}", "--term", "d", "--interp", "I"])
    interp = parse_module(FLIP).interpretation("I")
    expected = eval_tape(TCirc(cseq(*[CGen("G")] * DEEP)), interp).pretty()
    assert (code, out.out) == (0, expected + "\n")


CM_MODULE = """sort A;
theory CM;
interp I {
  A = {0, 1};
  model = CM;
}
"""

SIGMA_BODIES = {
    "flat": (" + ".join(["x1"] * DEEP), f"[[{DEEP}, 0], [0, {DEEP}]]",
             "(" * (DEEP - 2) + "x1 + x1" + ") + x1" * (DEEP - 2)),
    "nested": ("(" * DEEP + "x1" + ")" * DEEP, "[[1, 0], [0, 1]]", "x1"),
}


@pytest.mark.parametrize("shape", SIGMA_BODIES)
def test_5000_deep_sigma_term(tmp_path, capsys, shape):
    """5000 summands of x1 (the monoid's 5000 x1), and x1 inside 5000
    parentheses, under the commutative-monoid theory."""
    body, matrix, _ = SIGMA_BODIES[shape]
    text = CM_MODULE + f"def d = term<{body}>@A;\n"
    assert run(tmp_path, capsys, text, ["check", "{f}"]) == (0, ("", ""))
    code, out = run(tmp_path, capsys, text,
                    ["eval", "{f}", "--term", "d", "--interp", "I"])
    assert (code, out.out, out.err) == (0, matrix + "\n", "")


@pytest.mark.parametrize("shape", SIGMA_BODIES)
def test_print_module_of_5000_deep_sigma_term(shape):
    body, _, printed = SIGMA_BODIES[shape]
    module = parse_module(CM_MODULE + f"def d = term<{body}>@A;\n")
    text = print_module(module)
    assert text.endswith(f"def d = term<{printed}>@A;\n")
    again = parse_module(text)
    assert again.decls[-1].body.args[0] is module.decls[-1].body.args[0]
    assert print_module(again) == text


def same_tree(a, b) -> bool:
    """a == b for surface trees, compared on an explicit stack."""
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, SInfix):
            if x.op != y.op:
                return False
            todo += [(x.left, y.left), (x.right, y.right)]
        elif isinstance(x, SCircuit):
            todo.append((x.circuit, y.circuit))
        elif x != y:
            return False
    return True


@pytest.mark.parametrize("nesting", ["left", "right"])
def test_print_module_of_5000_step_definition(nesting):
    """Left-nested steps print as a flat chain, right-nested ones with
    4998 levels of parentheses; both read back as the same module."""
    module = parse_module(FLIP)
    head = print_module(module)
    body = SAtom("ref", ("d0",))
    for _ in range(DEEP - 1):
        body = SInfix("SEMI", body, SAtom("ref", ("d0",))) \
            if nesting == "left" else SInfix("SEMI", SAtom("ref", ("d0",)), body)
    module.decls.append(DefDecl("d", body))
    text = print_module(module)
    chain = " ; ".join(["d0"] * DEEP) if nesting == "left" else \
        "d0 ; (" * (DEEP - 2) + "d0 ; d0" + ")" * (DEEP - 2)
    assert text == head + f"def d = {chain};\n"
    again = parse_module(text)
    assert again.decls[:-1] == module.decls[:-1]
    assert same_tree(again.decls[-1].body, body)


def test_sigma_term_with_variable_index_1000(tmp_path, capsys):
    """x1000 makes the term's tape range over (+)^1000 A, past the
    recursion limit: one branching node, typed from the term's context
    and evaluated from its weight vector, in time linear in that count."""
    assert sys.getrecursionlimit() == 1000
    text = FLIP + "def d = term<x1 +_1/2 x1000>@A;\n"
    assert run(tmp_path, capsys, text, ["check", "{f}"]) == (0, ("", ""))
    code, out = run(tmp_path, capsys, text,
                    ["eval", "{f}", "--term", "d", "--interp", "I"])
    half = "[1/2, 0], [0, 1/2]"
    rows = [half] + ["[0, 0], [0, 0]"] * 998 + [half]
    assert (code, out.out, out.err) == (0, "[" + ", ".join(rows) + "]\n", "")


NO_CARRIER = """sort A;
sort B;
gen f : A -> B;
theory PCA with p = 1/2;
interp I {
  B = {0, 1};
  f = [[1], [0]];
  model = PCA;
}
def d = [ f ];
check d = d with I;
"""


@pytest.mark.parametrize("argv", [
    ["check", "{f}"], ["eval", "{f}", "--term", "d", "--interp", "I"],
], ids=["check", "eval"])
def test_generator_over_a_sort_with_no_carrier_is_bad_input(tmp_path, capsys,
                                                             argv):
    """The matrix of f needs A's carrier for its width; the module gives
    none, which is bad input (exit 3), not a KeyError traceback (exit 1)."""
    code, out = run(tmp_path, capsys, NO_CARRIER, argv)
    assert (code, out.out, out.err) == (3, "", "error: sort A has no carrier\n")


@pytest.mark.parametrize("items, message", [
    ("A = {0};\n  A = {0, 1};\n  G = [[1]];\n  model = PCA;",
     "6:3: duplicate carrier of sort A"),
    ("A = {0};\n  G = [[1]];\n  model = PCA;\n  model = PCA;",
     "8:3: duplicate model item in interpretation I"),
    ("A = {0};\n  G = [[1]];\n  G = [[1/2]];\n  model = PCA;",
     "7:3: duplicate matrix of generator G"),
], ids=["carrier", "model", "matrix"])
def test_duplicate_interpretation_item_is_a_parse_error(tmp_path, capsys,
                                                        items, message):
    """Each item of an interp block is given once; the second one is
    rejected at its name, as every other duplicate name is."""
    text = ("sort A;\ngen G : A -> A;\ntheory PCA with p = 1/2;\n"
            f"interp I {{\n  {items}\n}}\n")
    code, out = run(tmp_path, capsys, text, ["check", "{f}"])
    assert (code, out.out, out.err) == (3, "", f"error: {message}\n")


def test_carrier_and_matrix_of_one_name_are_not_duplicates():
    """A sort and a generator may share a name; each has its own item."""
    module = parse_module("sort A;\ngen A : A -> A;\ntheory PCA with p = 1/2;\n"
                          "interp I { A = {0}; A = [[1]]; model = PCA; }\n")
    assert module.interpretation("I").gen_matrices["A"].to_rows() == [[1]]


LONG_WORD = "A" * 1100


LONG_BODIES = {"sym-long-left": f"sym@{LONG_WORD},A",
               "sym-long-right": f"sym@A,{LONG_WORD}",
               "copy": f"copy@{LONG_WORD}"}


@pytest.mark.parametrize("command, body", [
    *[pytest.param("check", body, id=name)
      for name, body in LONG_BODIES.items()],
    *[pytest.param("render", body, id=f"render-{name}")
      for name, body in LONG_BODIES.items()],
])
def test_1100_sort_circuit_word_checks(tmp_path, capsys, command, body):
    """sym_circuit and copier_circuit of words longer than the recursion
    limit are one node each, their builder call, so the word checks
    (exit 0) in a fixed number of node constructions, and renders as its
    wire map: an SVG of a few hundred kB."""
    argv = ["check", "{f}"]
    if command == "render":
        argv = ["render", "{f}", "--term", "d", "-o", str(tmp_path / "d.svg")]
    start = time.perf_counter()
    code, out = run(tmp_path, capsys, f"sort A;\ndef d = [ {body} ];\n", argv)
    assert (code, out.out, out.err) == (0, "", "")
    assert time.perf_counter() - start < 10
    if command == "render":
        assert (tmp_path / "d.svg").stat().st_size < 1_000_000


@pytest.mark.parametrize("body", [
    "sym@{w},A", "sym@A,{w}", "copy@{w}",
], ids=["sym-long-left", "sym-long-right", "copy"])
def test_long_circuit_word_check_builds_a_constant_number_of_nodes(
        tmp_path, capsys, body):
    """``check`` of [ sym@W,A ], [ sym@A,W ] or [ copy@W ] constructs as
    many nodes for a word W of 1100 sorts as for one of 550."""
    counts = []
    for n in (550, 1100):
        new = hashcons.Term.__new__
        constructed = []

        def counting(cls, *args, **kwargs):
            constructed.append(cls)
            return new(cls, *args, **kwargs)

        hashcons.Term.__new__ = counting
        try:
            code, out = run(tmp_path, capsys, "sort A;\ndef d = [ "
                            f"{body.format(w='A' * n)} ];\n", ["check", "{f}"])
        finally:
            hashcons.Term.__new__ = new
        assert (code, out.err) == (0, "")
        counts.append(len(constructed))
    assert counts[0] == counts[1], counts
