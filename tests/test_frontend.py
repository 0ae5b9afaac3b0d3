"""Parser diagnostics, corpus round-trips and the CLI exit-code contract."""

import io
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from tapecalc.circuit import (CGen, CSeq, CTensor, copier_circuit, cseq,
                              discharger_circuit, identity_circuit,
                              sym_circuit)
from tapecalc.errors import ParseError
from tapecalc.frontend import surface as S
from tapecalc.frontend.cli import main
from tapecalc.frontend.parser import max_var, parse_module, parse_object_expr
from tapecalc.frontend.surface import elaborate, print_module
from tapecalc.objects import (Monomial, Polynomial, ZERO, mono, normalize,
                              poly_of_mono)
from tapecalc.tape import TCirc, TSeq, TSum, id_tape, tensor_tape, type_of_tape
from tapecalc.theory import App, STAR, Var, choice

CORPUS = sorted((Path(__file__).parent.parent / "corpus").glob("*.tape"))
BOOL = Path(__file__).parent.parent / "corpus" / "bool_gates.tape"


def normalize_ws(text: str) -> str:
    return re.sub(r"\s+", " ", text).strip()


def test_corpus_is_large_enough():
    assert len(CORPUS) >= 10


def test_gen_declaration():
    module = parse_module("sort A;\ngen AND : A A -> A;\n")
    assert module.gens["AND"] == (mono("A", "A"), mono("A"))


def test_id0_def():
    module = parse_module("def d = id0;\n")
    tape = elaborate(module.defs["d"], module)
    assert tape is id_tape(ZERO)


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_corpus_round_trip(path):
    text = path.read_text()
    printed = print_module(parse_module(text))
    assert normalize_ws(printed) == normalize_ws(text)
    assert print_module(parse_module(printed)) == printed


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_corpus_defs_typecheck(path):
    module = parse_module(path.read_text())
    sig = module.signature()
    for name, body in module.defs.items():
        type_of_tape(elaborate(body, module), sig)


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_corpus_tables_survive_printing(path):
    """The tables the parser fills agree with the declarations, and a
    printed module parses back to the same tables."""
    module = parse_module(path.read_text())

    def of(cls):
        return [d for d in module.decls if isinstance(d, cls)]

    assert module.sorts == tuple(d.name for d in of(S.SortDecl))
    assert module.gens == {d.name: (d.ar, d.coar) for d in of(S.GenDecl)}
    assert module.theories == {d.name: d.params for d in of(S.TheoryDecl)}
    assert module.interps == {d.name: d for d in of(S.InterpDecl)}
    assert module.defs == {d.name: d.body for d in of(S.DefDecl)}
    assert module.checks == of(S.CheckDecl)
    again = parse_module(print_module(module))
    for table in ("sorts", "gens", "theories", "interps", "defs", "checks"):
        assert getattr(again, table) == getattr(module, table), table


CIRCUIT_ATOMS_MODULE = """sort A;
sort B;
gen f : A -> B;
gen g : B -> B;
def s = [ sym@A,B ];
def c = [ copy@A ];
def k = [ del@A ];
def fg = [ f ; g ];
def all = [ sym@A,B ; del@B (x) copy@A ];
"""


def test_circuit_atoms_are_surface_atoms_and_elaborate_to_core_nodes():
    """Inside a bracket, every leaf is an SAtom of CIRCUIT_ATOMS and `;`
    an SInfix, as between tapes; a `;` followed by a generator still
    composes."""
    A, B = mono("A"), mono("B")
    module = parse_module(CIRCUIT_ATOMS_MODULE)
    assert print_module(module) == CIRCUIT_ATOMS_MODULE
    bodies = {name: body.circuit for name, body in module.defs.items()}
    assert bodies["s"] == S.SAtom("sym", (A, B))
    assert bodies["c"] == S.SAtom("copy", (A,))
    assert bodies["k"] == S.SAtom("del", (A,))
    assert bodies["fg"] == S.SInfix("SEMI", S.SAtom("gen", ("f",)),
                                    S.SAtom("gen", ("g",)))
    assert bodies["all"] == S.SInfix("SEMI", S.SAtom("sym", (A, B)), S.SInfix(
        "OTENSOR", S.SAtom("del", (B,)), S.SAtom("copy", (A,))))
    core = {name: elaborate(body, module) for name, body in module.defs.items()}
    assert core["s"] is TCirc(sym_circuit(A, B))
    assert core["c"] is TCirc(copier_circuit(A))
    assert core["k"] is TCirc(discharger_circuit(A))
    assert core["fg"] is TCirc(cseq(CGen("f"), CGen("g")))
    assert core["all"] is TCirc(CSeq(sym_circuit(A, B), CTensor(
        discharger_circuit(B), copier_circuit(A))))


def test_diagnostics_carry_position_and_expectations():
    with pytest.raises(ParseError) as err:
        parse_module("sort A;\ngen F : A -> ;\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_module("def d = ;\n")
    assert err.value.expected
    with pytest.raises(ParseError) as err:
        parse_module("sort A;\ninterp I { A = {0}; model = PCA; }\n")
    assert "not declared" in str(err.value)


def test_decimal_literals_rejected():
    with pytest.raises(ParseError) as err:
        parse_module("theory PCA with p = 0.5;\n")
    assert "rational" in str(err.value)


def test_theory_parameter_must_be_spelt_p():
    """The printer writes the parameter back as `p`, so another word there
    is rejected at that word."""
    with pytest.raises(ParseError) as err:
        parse_module("theory PCA with banana = 1/2;\n")
    assert str(err.value) == \
        "1:17: unexpected IDENT 'banana' (expected one of: 'p')"


def test_variable_x0_rejected_at_its_token(tmp_path, capsys):
    """Term variables count from x1; x0 is a parse error with a position."""
    bad = tmp_path / "x0.tape"
    bad.write_text("sort A;\ntheory PCA with p = 1/2;\ndef d = term<x0>@A;\n")
    assert main(["check", str(bad)]) == 3
    assert capsys.readouterr().err.startswith("error: 3:14: expected a term")


def test_forward_reference_rejected():
    with pytest.raises(ParseError):
        parse_module("sort A;\ndef a = b ; id@A;\ndef b = id@A;\n")


def test_duplicate_names_rejected():
    with pytest.raises(ParseError):
        parse_module("sort A;\nsort A;\n")


def test_object_expression_parsing():
    term, sorts = parse_object_expr("(A (+) 1) (x) (B (+) C)")
    assert str(normalize(term, sorts)) == "AB (+) AC (+) B (+) C"
    term, sorts = parse_object_expr("AB (+) AC (+) B (+) C")
    assert str(normalize(term, sorts)) == "AB (+) AC (+) B (+) C"


# --- CLI ------------------------------------------------------------------------

def test_cli_check_ok(capsys):
    assert main(["check", str(BOOL)]) == 0
    assert capsys.readouterr().out == ""


def test_cli_normalize(capsys):
    assert main(["normalize", "(A (+) 1) (x) (B (+) C)"]) == 0
    assert capsys.readouterr().out.strip() == "AB (+) AC (+) B (+) C"


def test_cli_eval_flip(capsys):
    assert main(["eval", str(BOOL), "--term", "flip", "--interp", "Bool"]) == 0
    assert capsys.readouterr().out.strip() == "[[2/3], [1/3]]"


def test_cli_eq_exit_codes(capsys):
    assert main(["eq", str(BOOL), "--left", "muxstate", "--right", "pstate",
                 "--interp", "Bool"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["eq", str(BOOL), "--left", "muxfail", "--right", "pfail",
                 "--interp", "Bool"]) == 1
    assert "unequal at entry" in capsys.readouterr().out
    assert main(["eq", str(BOOL), "--left", "flip", "--right", "mix",
                 "--interp", "Bool"]) == 3


def test_cli_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["eq", str(BOOL), "--left", "flip"])
    assert exc.value.code == 2


def corpus_commands(svg: str) -> list[list[str]]:
    """check of every corpus file, eval and render of each definition, eq
    of each check directive, an unequal and an ill-typed eq, a small
    suite with repeated --bound options, and a normalize."""
    commands = []
    for path in CORPUS:
        module = parse_module(path.read_text(encoding="utf-8"))
        f, interp = str(path), next(iter(module.interps))
        commands.append(["check", f])
        for name in module.defs:
            commands.append(["eval", f, "--term", name, "--interp", interp])
            commands.append(["render", f, "--term", name, "-o", svg])
        for c in module.checks:
            commands.append(["eq", f, "--left", c.left, "--right", c.right,
                             "--interp", c.interp])
    flip = str(CORPUS[0].parent / "flip_basic.tape")
    return commands + [
        ["eq", str(BOOL), "--left", "muxfail", "--right", "pfail",
         "--interp", "Bool"],
        ["eq", str(BOOL), "--left", "flip", "--right", "mix",
         "--interp", "Bool"],
        ["suite", flip, "--interp", "Bool", "--seed", "1", "--bound",
         "tuples=5", "--bound", "samples=1", "--bound", "poly=1"],
        ["normalize", "(A (+) 1) (x) (B (+) C)"],
    ]


def captured(argv: list[str]) -> tuple:
    """main(argv)'s exit code, returned or raised, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_main_can_be_called_again(tmp_path):
    """One process runs every corpus command twice, the second pass in
    reverse order and after a usage error: main reuses its argument
    parser and the built-in theories, and every command prints the same
    bytes, writes the same SVG and exits with the same code."""
    svg = tmp_path / "d.svg"

    def outcome(argv):
        result = captured(argv)
        return result + (svg.read_bytes(),) if argv[0] == "render" else result

    commands = corpus_commands(str(svg))
    first = [outcome(argv) for argv in commands]
    assert {code for code, *_ in first} == {0, 1, 3}
    code, out, err = captured(["eval", str(BOOL), "--interp", "Bool"])
    assert (code, out) == (2, "")
    assert "error: the following arguments are required: --term" in err
    second = [outcome(argv) for argv in reversed(commands)]
    assert second[::-1] == first


def test_cli_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.tape"
    bad.write_text("sort ;")
    assert main(["check", str(bad)]) == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("name, body, op", [
    ("d", "term<x1 + x2>@A", "+"),     # the monoid's +, not PCA's +_p
    ("e", "op<0>@A", "0"),
    ("s", "op<star>@A (+) term<x1 +_1/3 x2>@A", None),
])
def test_cli_check_rejects_operations_no_declared_theory_weighs(
        tmp_path, capsys, name, body, op):
    path = tmp_path / "ops.tape"
    path.write_text(f"sort A;\ntheory PCA with p = 1/2;\ndef {name} = {body};\n")
    code = main(["check", str(path)])
    out = capsys.readouterr()
    if op is None:
        assert (code, out.err) == (0, "")
    else:
        assert code == 3
        assert out.err == (f"error: definition {name}: operation {op} has no "
                           "weights in any declared theory\n")


PCA_CHOICE = """sort A;
theory {theory};
interp I {{
  A = {{a, b}};
  model = {model};
}}
def d = {body};
"""


@pytest.mark.parametrize("p, q", [("1/3", "2/3"), ("1/5", "4/5")])
@pytest.mark.parametrize("body", ["op<+_{}>@A", "term<x1 +_{} x2>@A"])
def test_cli_eval_weighs_a_choice_the_module_does_not_declare(
        tmp_path, capsys, body, p, q):
    """PCA's model weighs +_p at (p, 1 - p) for every 0 < p < 1: from
    p = 1/2 the theory derives +_1/3 (as +_{p(1-q)/(1-pq)} at q = 1/2)
    but not +_1/5, which only the model's fallback weighs."""
    path = tmp_path / "choice.tape"
    path.write_text(PCA_CHOICE.format(theory="PCA with p = 1/2", model="PCA",
                                      body=body.format(p)))
    assert main(["eval", str(path), "--term", "d", "--interp", "I"]) == 0
    out = capsys.readouterr()
    assert (out.out, out.err) == (
        f"[[{p}, 0], [0, {p}], [{q}, 0], [0, {q}]]\n", "")


@pytest.mark.parametrize("p", ["1/3", "1/5"])
def test_cli_check_rejects_a_choice_under_cm(tmp_path, capsys, p):
    path = tmp_path / "choice.tape"
    path.write_text(PCA_CHOICE.format(theory="CM", model="CM",
                                      body=f"op<+_{p}>@A"))
    assert main(["check", str(path)]) == 3
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: definition d: operation +_{p} "
                                  "has no weights in any declared theory\n")


def test_cli_render_deterministic(tmp_path):
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    assert main(["render", str(BOOL), "--term", "flip", "-o", str(out1)]) == 0
    assert main(["render", str(BOOL), "--term", "flip", "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def rand_mono(rng):
    return Monomial(tuple(rng.choice(("A", "B"))
                          for _ in range(rng.randint(0, 2))))


def rand_poly(rng):
    return Polynomial(tuple(rand_mono(rng) for _ in range(rng.randint(0, 2))))


def rand_sigma(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        return rng.choice([Var(1), Var(2), App(STAR, ())])
    op = choice(rng.choice([Fraction(1, 3), Fraction(2, 5)]))
    return App(op, (rand_sigma(rng, depth - 1), rand_sigma(rng, depth - 1)))


def rand_leaf(rng, kind):
    """An SAtom of a row of TAPE_ATOMS or CIRCUIT_ATOMS, its arguments
    drawn over ROUND_TRIP_PREAMBLE's sorts, generator and definition."""
    if kind == "op":
        return S.SAtom(kind, (rng.choice([choice(Fraction(1, 3)), STAR]),
                              rand_poly(rng)))
    if kind == "term":
        term = rand_sigma(rng, 2)
        return S.SAtom(kind, (term, rand_poly(rng), max_var(term)))
    if kind in ("ref", "gen"):
        return S.SAtom(kind, ({"ref": "r", "gen": "G"}[kind],))
    n = (S.TAPE_ATOMS.get(kind) or S.CIRCUIT_ATOMS[kind])[1]
    draw = rand_mono if kind in S.CIRCUIT_ATOMS else rand_poly
    return S.SAtom(kind, tuple(draw(rng) for _ in range(n)))


ROUND_TRIP_PREAMBLE = ("sort A;\nsort B;\ngen G : A -> B;\n"
                       "theory PCA with p = 1/3;\ndef r = id@A;\n")


def test_every_table_row_round_trips_and_elaborates_to_its_builders_node():
    """Each atom row prints and parses back to an equal tree, a tape atom
    in a definition and a circuit atom in a bracket, and elaborates to the
    very node its builder returns; so does each product, over two atoms."""
    rng = random.Random(5)
    A, B = mono("A"), mono("B")
    sig = parse_module(ROUND_TRIP_PREAMBLE).signature()
    cases = []                        # (surface tree, its core node)
    for kind, (_, _, build) in S.TAPE_ATOMS.items():
        atom = rand_leaf(rng, kind)   # the reference r is id@A
        cases.append((atom, build(*atom.args) if build else id_tape(A)))
    for kind, (_, _, build) in S.CIRCUIT_ATOMS.items():
        atom = rand_leaf(rng, kind)
        cases.append((S.SCircuit(atom), TCirc(build(*atom.args))))
    tape_products = {"SEMI": TSeq, "OPLUS": TSum,
                     "OTENSOR": lambda s, t: tensor_tape(s, t, sig)}
    circuit_products = {"SEMI": CSeq, "OTENSOR": CTensor}
    ida, idb = (S.SAtom("id", (poly_of_mono(m),)) for m in (A, B))
    gen, idw = S.SAtom("gen", ("G",)), S.SAtom("identity", (B,))
    for op in S.INFIX:
        cases.append((S.SInfix(op, ida, idb),
                      tape_products[op](id_tape(A), id_tape(B))))
        if op in circuit_products:
            cases.append((S.SCircuit(S.SInfix(op, gen, idw)), TCirc(
                circuit_products[op](CGen("G"), identity_circuit(B)))))
    for expr, core in cases:
        text = ROUND_TRIP_PREAMBLE + f"def d = {S.print_sexpr(expr)};\n"
        module = parse_module(text)
        assert module.defs["d"] == expr, text
        assert print_module(module) == text
        assert elaborate(module.defs["d"], module) is core, text


def test_random_expressions_round_trip():
    # print . parse is the identity on randomly generated surface trees,
    # whose leaves are drawn from every row of the atom tables
    rng = random.Random(2)

    def rand_circuit(depth):
        if depth == 0 or rng.random() < 0.4:
            return rand_leaf(rng, rng.choice(sorted(S.CIRCUIT_ATOMS)))
        op = rng.choice(["SEMI", "OTENSOR"])
        return S.SInfix(op, rand_circuit(depth - 1), rand_circuit(depth - 1))

    def rand_expr(depth):
        if depth == 0 or rng.random() < 0.35:
            kind = rng.choice(sorted(S.TAPE_ATOMS) + ["bracket"])
            return (S.SCircuit(rand_circuit(2)) if kind == "bracket"
                    else rand_leaf(rng, kind))
        op = rng.choice(sorted(S.INFIX))
        return S.SInfix(op, rand_expr(depth - 1), rand_expr(depth - 1))

    for _ in range(120):
        expr = rand_expr(3)
        text = ROUND_TRIP_PREAMBLE + f"def d = {S.print_sexpr(expr)};\n"
        module = parse_module(text)
        assert module.defs["d"] == expr, S.print_sexpr(expr)
        assert print_module(parse_module(print_module(module))) == \
            print_module(module)


def test_cli_suite_small(tmp_path, capsys):
    flip = Path(__file__).parent.parent / "corpus" / "flip_basic.tape"
    code = main(["suite", str(flip), "--interp", "Bool", "--seed", "1",
                 "--bound", "tuples=25", "--bound", "samples=2",
                 "--bound", "mono=1", "--bound", "poly=1"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert lines and all("\tPASS" in l for l in lines)
