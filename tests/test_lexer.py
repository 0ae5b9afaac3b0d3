"""The `.tape` lexer against the character loop it replaced, and the
parser's cursor on every prefix of the corpus.

The reference loop tracked line and column per character; tokenize keeps
only kinds and texts, and a token's offset is found again, by lexing the
text once more, only for a diagnostic.  They agree everywhere but one
place: after a comment that runs to the end of input, the loop never
advanced the column, so its EOF token sits at the `#`."""

import sys
from dataclasses import dataclass
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from tapecalc.errors import ParseError
from tapecalc.frontend.cli import main
from tapecalc.frontend.parser import (PUNCT, parse_error, parse_module,
                                      token_offsets, tokenize)

ROOT = Path(__file__).parent.parent
CORPUS = sorted((ROOT / "corpus").glob("*.tape"))
sys.path.insert(0, str(ROOT / "bench"))
from workloads import CHAIN_LENGTHS, chain_module  # noqa: E402


@dataclass(frozen=True)
class RefToken:
    kind: str
    text: str
    line: int
    col: int


def reference_tokenize(text: str) -> list[RefToken]:
    """The character loop the lexer used before, kept as reference."""
    tokens = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        for lexeme in ("->", "(x)", "(+)"):
            if text.startswith(lexeme, i):
                tokens.append(RefToken(PUNCT[lexeme], lexeme, start_line, start_col))
                i += len(lexeme)
                col += len(lexeme)
                break
        else:
            if ch in PUNCT:
                tokens.append(RefToken(PUNCT[ch], ch, start_line, start_col))
                i += 1
                col += 1
            elif ch in "0123456789":
                j = i
                while j < n and text[j] in "0123456789":
                    j += 1
                if j < n and text[j] == ".":
                    raise ParseError("decimal literals are not supported; "
                                     "write an exact rational like 1/2",
                                     start_line, start_col)
                tokens.append(RefToken("INT", text[i:j], start_line, start_col))
                col += j - i
                i = j
            elif ch.isalpha():
                j = i
                while j < n and (text[j].isalnum() or text[j] in "_'"):
                    j += 1
                tokens.append(RefToken("IDENT", text[i:j], start_line, start_col))
                col += j - i
                i = j
            else:
                raise ParseError(f"unexpected character {ch!r}",
                                 start_line, start_col)
    tokens.append(RefToken("EOF", "", line, col))
    return tokens


def line_col(text: str, pos: int) -> tuple[int, int]:
    lines = text[:pos].split("\n")
    return len(lines), len(lines[-1]) + 1


def lexed(tokenizer, text: str):
    """Each token's (kind, text, line, col), or the error's text and place.
    tokenize's positions come from token_offsets, the stream that
    parse_error reads; a few are also read through parse_error itself."""
    try:
        tokens = tokenizer(text)
    except ParseError as err:
        return str(err), err.line, err.col
    if tokenizer is reference_tokenize:
        return [(t.kind, t.text, t.line, t.col) for t in tokens]
    offsets = list(token_offsets(text))
    assert len(tokens) == len(tokens.kinds) == len(offsets)
    for i in {0, len(offsets) // 2, len(offsets) - 1}:
        err = parse_error(text, i, "here")
        assert (err.line, err.col) == line_col(text, offsets[i])
    return [(kind, lexeme, *line_col(text, pos))
            for kind, lexeme, pos in zip(tokens.kinds, tokens.texts, offsets)]


def assert_lexes_as_reference(text: str) -> None:
    new, ref = lexed(tokenize, text), lexed(reference_tokenize, text)
    if isinstance(ref, list) and isinstance(new, list):
        # the one place they differ: EOF after a comment that ends the input
        assert new[-1] == ("EOF", "", *line_col(text, len(text)))
        if "#" in text.rpartition("\n")[2]:
            new, ref = new[:-1], ref[:-1]
    assert new == ref, text


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_corpus_lexes_as_reference(path):
    assert_lexes_as_reference(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("n", CHAIN_LENGTHS)
def test_bench_chain_modules_lex_as_reference(n):
    text, _ = chain_module(n, Random(n))
    assert_lexes_as_reference(text)


FIXED = ["²", "½", "٣", "é", "⊗", "⊕", "\t", "\r\n", "\x0c", "1.5", "1.",
         "A # c"]


@pytest.mark.parametrize("piece", FIXED, ids=ascii)
def test_fixed_cases_lex_as_reference(piece):
    for text in (piece, f"sort A{piece}B;", f"def d =\n {piece} x1 ;",
                 f"{piece}\n(x)\t(+) 12 # {piece}"):
        assert_lexes_as_reference(text)


FRAGMENTS = [*PUNCT, "-", "(", "x", ")", "+", ".", "0", "1", "42", "A",
             "ab", "x1", "id", "sym", "'", "_", "é", "²", "½", "٣", "Ⅻ",
             "\u0301", "#", "# c", " ", "\t", "\n", "\r\n", "\x0c", "\xa0",
             "\u2003", "\x1c", "$"]


@given(st.lists(st.sampled_from(FRAGMENTS), max_size=24).map("".join))
@settings(max_examples=400, deadline=None)
def test_fragment_strings_lex_as_reference(text):
    assert_lexes_as_reference(text)


def test_tokens_end_in_one_eof_and_offsets_are_found_again():
    text = "def d=(x) # c\n  x1"
    tokens = tokenize(text)
    assert list(zip(tokens.kinds, tokens.texts, token_offsets(text))) == [
        ("IDENT", "def", 0), ("IDENT", "d", 4), ("EQUALS", "=", 5),
        ("OTENSOR", "(x)", 6), ("IDENT", "x1", 16), ("EOF", "", 18)]
    assert len(tokens) == 6


def test_eof_after_a_trailing_comment_is_at_the_true_end():
    text = "sort A; def # c"
    assert reference_tokenize(text)[-1].col == 13
    with pytest.raises(ParseError) as err:
        parse_module(text)
    assert (err.value.line, err.value.col) == (1, 16)
    assert str(err.value) == ("1:16: unexpected EOF '' "
                              "(expected one of: a name)")


def cuts(text: str) -> list[int]:
    """Every offset where a token starts or ends."""
    return sorted({p for lexeme, pos in zip(tokenize(text).texts,
                                            token_offsets(text))
                   for p in (pos, pos + len(lexeme))})


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_check_of_every_token_prefix_ends_in_a_documented_exit(
        path, tmp_path, capsys):
    text = path.read_text(encoding="utf-8")
    prefix = tmp_path / "prefix.tape"
    for cut in cuts(text):
        prefix.write_text(text[:cut], encoding="utf-8")
        code = main(["check", str(prefix)])
        out = capsys.readouterr()
        assert code in (0, 3), (path.name, cut)
        if code == 3:
            assert out.err.startswith("error: "), (path.name, cut)
            assert out.err.count("\n") == 1, (path.name, cut, out.err)
