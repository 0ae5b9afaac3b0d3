"""Frontend inputs that once took exponential time or recursed too deep:
glued sort words and definitions that reuse earlier ones."""

import random
import time

import pytest

from tapecalc.errors import ParseError
from tapecalc.frontend.cli import main
from tapecalc.frontend.parser import parse_module, split_sorts
from tapecalc.frontend.surface import elaborate


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
        assert split_sorts(text, sorts) == \
            reference_split_sorts(text, sorts), (text, sorts)


def test_glued_sort_word_fails_fast():
    word = "A" * 32 + "B"     # the backtracking split took over 5 s
    start = time.perf_counter()
    assert split_sorts(word, ("A", "AA")) is None
    with pytest.raises(ParseError, match="as a word of declared sorts"):
        parse_module(f"sort A;\nsort AA;\ngen F : {word} -> A;\n")
    assert time.perf_counter() - start < 0.1


def test_long_glued_word_splits_without_recursion():
    assert split_sorts("A" * 3001, ("A", "AA")) == ["AA"] * 1500 + ["A"]


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
