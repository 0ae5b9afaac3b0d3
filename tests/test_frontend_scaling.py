"""Frontend inputs that once took exponential time or recursed too deep:
glued sort words and definitions that reuse earlier ones."""

import random
import sys
import time
from pathlib import Path

import pytest

from tapecalc.circuit import CGen, MonSignature
from tapecalc.errors import ParseError
from tapecalc.frontend import cli, parser, surface
from tapecalc.frontend.cli import main
from tapecalc.frontend.parser import SortIndex, parse_module
from tapecalc.frontend.surface import (SCircuit, SInfix, elaborate,
                                       elaborate_circuit)
from tapecalc.tape import TCirc, TSeq

ROOT = Path(__file__).parent.parent
CORPUS = sorted((ROOT / "corpus").glob("*.tape"))


def reference_split_sorts(text, sorts):
    """The backtracking split the parser used before, kept as reference."""
    if not text:
        return []
    for name in sorted(sorts, key=len, reverse=True):
        if text.startswith(name):
            rest = reference_split_sorts(text[len(name):], sorts)
            if rest is not None:
                return [name] + rest
    return None


def test_split_sorts_matches_the_backtracking_reference():
    rng = random.Random(7)
    for trial in range(4000):
        alphabet = "AB" if trial % 2 else "ABC"

        def word(lo, hi):
            return "".join(rng.choice(alphabet)
                           for _ in range(rng.randint(lo, hi)))

        sorts = tuple(dict.fromkeys(word(1, 3)
                                    for _ in range(rng.randint(1, 4))))
        text = word(0, 14)
        assert SortIndex(sorts).split(text) == \
            reference_split_sorts(text, sorts), (text, sorts)


def test_glued_sort_word_fails_fast():
    word = "A" * 32 + "B"     # the backtracking split took over 5 s
    start = time.perf_counter()
    assert SortIndex(("A", "AA")).split(word) is None
    with pytest.raises(ParseError, match="as a word of declared sorts"):
        parse_module(f"sort A;\nsort AA;\ngen F : {word} -> A;\n")
    assert time.perf_counter() - start < 0.1


def test_long_glued_word_splits_without_recursion():
    assert SortIndex(("A", "AA")).split("A" * 3001) == ["AA"] * 1500 + ["A"]


def chain_text(steps: int) -> str:
    """A module whose one definition is a `[ G ] ; ...` chain."""
    chain = " ; ".join(f"[ G{i % 3} ]" for i in range(steps))
    gens = "".join(f"gen G{i} : A -> A;\n" for i in range(3))
    return f"sort A;\n{gens}def chain = {chain};\n"


def parse_counting_calls(text: str) -> int:
    """The number of Python function calls parse_module(text) makes."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        module = parse_module(text)
    finally:
        sys.setprofile(None)
    assert len(module.defs) == 1
    return calls


def test_parser_makes_few_calls_per_token():
    """Each step of a `[ G ] ; ...` chain costs the parser at most 0.52
    Python calls per token, counted between a 256- and a 512-step chain so
    that the fixed cost of a parse, which differs between Python versions,
    drops out.  It is 0.50 (0.502 on 3.11), one call per step and one per
    `;`: the infix loop and the atoms read the token list by index, a
    `[ G ]` is read without the circuit infix, and each generator atom and
    its bracket are built once.  With the circuit infix per bracket it is
    1.25; with a helper call per token read, and a new atom per use, it
    was 6.4."""
    short, long = chain_text(256), chain_text(512)
    tokens = len(parser.tokenize(long)) - len(parser.tokenize(short))
    calls = parse_counting_calls(long) - parse_counting_calls(short)
    assert calls <= 0.52 * tokens, calls / tokens


def test_chain_shares_its_brackets_and_elaborates_each_once(monkeypatch):
    """A 512-step `[ G ] ; ...` chain over three generators holds three
    bracket objects, and elaborate lowers each of them once."""
    module = parse_module(chain_text(512))
    brackets, todo = {}, [module.defs["chain"]]
    while todo:
        e = todo.pop()
        if isinstance(e, SInfix):
            todo += (e.left, e.right)
        else:
            assert isinstance(e, SCircuit)
            brackets[id(e)] = e
    assert len(brackets) == 3
    calls = []

    def counting(c):
        calls.append(c)
        return elaborate_circuit(c)

    monkeypatch.setattr(surface, "elaborate_circuit", counting)
    tape = elaborate(module.defs["chain"], module)
    assert len(calls) == 3
    expected = TCirc(CGen("G0"))
    for i in range(1, 512):
        expected = TSeq(expected, TCirc(CGen(f"G{i % 3}")))
    assert tape is expected


def test_tokenize_makes_no_call_per_token():
    """Lexing the 512- and the 2048-step chain modules makes the same
    number of Python and C calls: one findall gives the texts and a map
    over a dict their kinds, which classifies each distinct name once.
    A Python loop over the matches made 3.26 calls per token."""
    counts = []
    for steps in (512, 2048):
        text = chain_text(steps)
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event in ("call", "c_call")

        sys.setprofile(count)
        try:
            tokens = parser.tokenize(text)
        finally:
            sys.setprofile(None)
        assert len(tokens) > 4 * steps
        counts.append(calls)
    assert counts[0] == counts[1], counts


class CountingNames(set):
    """A set of sort names that counts the names looked up in it."""
    tried = 0

    def __contains__(self, name):
        CountingNames.tried += 1
        return set.__contains__(self, name)


class CountingIndex(SortIndex):
    def __init__(self, sorts=()):
        super().__init__()
        self.names = CountingNames()
        for name in sorts:
            self.add(name)


def many_sorts_module(n: int) -> str:
    return "".join([f"sort S{i};\n" for i in range(n)]
                   + [f"gen g{i} : S{i} -> S{i};\n" for i in range(n)])


def test_split_tries_a_bounded_number_of_candidates(monkeypatch):
    # the names S0..S1999 share their first character and have 4 lengths;
    # trying every name at every position took 4.0M `startswith` calls
    monkeypatch.setattr(parser, "SortIndex", CountingIndex)
    monkeypatch.setattr(CountingNames, "tried", 0)
    module = parse_module(many_sorts_module(2000))
    assert len(module.sorts) == len(module.gens) == 2000
    # a declared name is looked up twice (taken?, then added), and each of
    # the 4,000 one-name monomials tries only lengths that fit in it, the
    # longest of which is its own name's
    assert CountingNames.tried == 2 * 2000 + 4000
    index = CountingIndex(f"S{i}" for i in range(2000))
    CountingNames.tried = 0
    assert index.split("S17S1999S0") == ["S17", "S1999", "S0"]
    # S17S1, S17S, S17; S1999; S0, as no longer name fits in what is left
    assert CountingNames.tried == 3 + 1 + 1
    CountingNames.tried = 0
    assert index.split("S17" * 1000) == ["S17"] * 1000
    assert CountingNames.tried == 3 * 1000 - 2


def doubling_module(levels: int) -> str:
    lines = ["sort A;", "gen G : A -> A;", "theory PCA with p = 1/2;",
             "interp I {", "  A = {0, 1};", "  G = [[0, 1], [1, 0]];",
             "  model = PCA;", "}", "def a0 = [ G ];"]
    lines += [f"def a{i} = a{i - 1} ; a{i - 1};" for i in range(1, levels + 1)]
    return "\n".join(lines) + "\n"


def test_nested_definitions_elaborate_once_each(tmp_path, capsys):
    # a21 is a chain of 2**21 steps; elaborated per reference it took
    # over 5 s, shared it is 22 distinct terms
    module = parse_module(doubling_module(21))
    start = time.perf_counter()
    term = elaborate(module.defs["a21"], module)
    assert time.perf_counter() - start < 0.1
    assert term.first is term.second
    path = tmp_path / "doubling.tape"
    path.write_text(doubling_module(21))
    assert main(["eval", str(path), "--term", "a21", "--interp", "I"]) == 0
    assert capsys.readouterr().out == "[[1, 0], [0, 1]]\n"


CHECK_MODULE = """sort A;
gen F0 : 1 -> A;
gen F1 : 1 -> A;
theory PCA with p = 1/3;
interp I {
  A = {0, 1};
  F0 = [[1], [0]];
  F1 = [[0], [1]];
  model = PCA;
}
def zero = [ F0 ];
def one = [ F1 ];
def both = zero (+) one;
def twice = both ; id@A (+) A;
check zero = zero with I;
check both = twice with I;
check one = zero with I;
"""


@pytest.mark.parametrize("path", CORPUS + ["unequal"],
                         ids=lambda p: getattr(p, "name", p))
def test_check_elaborates_each_definition_once(path, tmp_path, monkeypatch,
                                               capsys):
    if path == "unequal":
        path = tmp_path / "unequal.tape"
        path.write_text(CHECK_MODULE)
        expected = (1, "check one = zero with I: unequal at entry (0,0): "
                       "0 vs 1\n", "")
    else:
        expected = (0, "", "")
    calls = []

    def counting(e, module):
        calls.append(e)
        return elaborate(e, module)

    monkeypatch.setattr(cli, "elaborate", counting)
    code = main(["check", str(path)])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == expected
    module = parse_module(path.read_text(encoding="utf-8"))
    assert calls == list(module.defs.values())


@pytest.mark.parametrize("path", CORPUS + ["unequal", "many sorts"],
                         ids=lambda p: getattr(p, "name", p))
def test_check_builds_one_signature(path, tmp_path, monkeypatch, capsys):
    """check and every interpretation it makes share the module's one
    signature; each signature built scans its generators' sorts."""
    if path == "unequal":
        path = tmp_path / "unequal.tape"
        path.write_text(CHECK_MODULE)
    elif path == "many sorts":
        path = tmp_path / "many.tape"
        path.write_text(many_sorts_module(4000))
    built = []
    post_init = MonSignature.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(MonSignature, "__post_init__", counting)
    assert main(["check", str(path)]) in (0, 1)
    capsys.readouterr()
    assert len(built) == 1
