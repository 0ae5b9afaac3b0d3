"""The CLI's exit-code contract under token edits of the corpus.

Each corpus file gets one to three token edits: a token is deleted,
duplicated, swapped with another, or replaced by a token of any corpus
file.  ``check``, ``eval`` of each definition and ``render`` of each
definition then run in-process on the edited text.  Each run must end in
an exit code 0-3, returned or raised as ``SystemExit``, and codes 2 and 3
must print an ``error:`` line; any other exception fails the test.

Deep ``;``, ``(x)`` and ``(+)`` chains are left out: at a few thousand
steps, ``surface.elaborate``'s recursion still escapes as a
RecursionError, and they join this test with ROADMAP item 1.  A few
token edits cannot build one.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain
from pathlib import Path

from hypothesis import given, settings, strategies as st

from tapecalc.errors import TapecalcError
from tapecalc.frontend.cli import main
from tapecalc.frontend.parser import parse_module, tokenize

CORPUS = sorted((Path(__file__).parent.parent / "corpus").glob("*.tape"))
TOKENS = {path: [text for _, text, _ in tokenize(path.read_text())[:-1]]
          for path in CORPUS}
VOCABULARY = sorted(set(chain.from_iterable(TOKENS.values())))


@st.composite
def edited_modules(draw):
    """A corpus file and its text with one to three token edits, the
    tokens joined by spaces (unedited, every corpus file still checks)."""
    path = draw(st.sampled_from(CORPUS))
    tokens = list(TOKENS[path])
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(tokens) - 1))
        edit = draw(st.sampled_from(("delete", "duplicate", "swap", "replace")))
        if edit == "delete":
            del tokens[i]
        elif edit == "duplicate":
            tokens.insert(i, tokens[i])
        elif edit == "swap":
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[i], tokens[j] = tokens[j], tokens[i]
        else:
            tokens[i] = draw(st.sampled_from(VOCABULARY))
    return path, " ".join(tokens)


def names(text, path):
    """The definitions and the first interpretation of the edited module,
    or of the corpus file if the edited one does not parse."""
    try:
        module = parse_module(text)
    except TapecalcError:
        module = parse_module(path.read_text())
    interp = next(iter(module.interps), "I")
    return list(module.defs), interp


def exit_code(argv):
    """main(argv)'s exit code and stderr, whether returned or raised."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@given(edited=edited_modules())
@settings(max_examples=300, deadline=None)
def test_edited_corpus_ends_in_an_exit_code(edited, tmp_path_factory):
    path, text = edited
    directory = tmp_path_factory.getbasetemp()
    source, svg = directory / "edited.tape", directory / "edited.svg"
    source.write_text(text)
    defs, interp = names(text, path)
    runs = [["check", str(source)]]
    for name in defs:
        runs.append(["eval", str(source), "--term", name, "--interp", interp])
        runs.append(["render", str(source), "--term", name, "-o", str(svg)])
    for argv in runs:
        code, err = exit_code(argv)
        assert code in (0, 1, 2, 3), (argv[0], text, code, err)
        if code in (2, 3):
            assert any(line.startswith("error:")
                       for line in err.splitlines()), (argv[0], text, err)
