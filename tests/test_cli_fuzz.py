"""The CLI's exit-code contract under token edits of the corpus, and
under random argv.

Each corpus file gets one to three token edits: a token is deleted,
duplicated, swapped with another, or replaced by a token of any corpus
file.  ``check``, ``eval`` of each definition and ``render`` of each
definition then run in-process on the edited text.  Each run must end in
an exit code 0-3, returned or raised as ``SystemExit``, and codes 2 and 3
must print an ``error:`` line; any other exception fails the test.  The
same holds for argv drawn from a fixed vocabulary (see ``ITEMS``).

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
SOURCES = {path: path.read_text() for path in CORPUS}
TOKENS = {path: tokenize(source).texts[:-1]
          for path, source in SOURCES.items()}
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


# Random argv: a subcommand (or none, or an unknown one), its positional
# and its flags, each dropped one time in ten, then up to two odd items,
# all in any order.  The file positionals are the corpus, a missing file,
# a directory and /dev/null; definition and interpretation names come
# from the corpus, half the time from the module named.  An odd item is a second positional, an unknown
# flag, a flag without its value, `--help`, or any flag again with a
# value.  `-o` only ever comes with a path under the test's directory,
# so a run writes nowhere else.  normalize takes only the fixed
# expressions below: a product of n two-term sums normalizes to 2^n
# monomials, so all but the last have at most three sums, and the last
# has 64, which normalize refuses before expanding.
MODULES = {path: parse_module(source) for path, source in SOURCES.items()}
COMMANDS = [None, "bogus", "check", "normalize", "eval", "eq", "suite",
            "render"]
FLAGS = {"eval": ["--term", "--interp"],
         "eq": ["--left", "--right", "--interp"],
         "suite": ["--interp", "--seed", "--bound", "--bound"],
         "render": ["--term", "-o"]}
FILES = [*map(str, CORPUS), str(CORPUS[0].parent / "missing.tape"),
         str(CORPUS[0].parent), "/dev/null"]
EXPRESSIONS = ["A", "AB (x) 1", "(A (+) B) (x) C", "0 (+) A (+) 1",
               "(A (+) 1) (x) (B (+) 0) (x) (A (+) BA)", "(A (+) B", "A (x)",
               "", "1.5", "A ⊗ B", " (x) ".join(["(A (+) B)"] * 64)]
DEF_NAMES = sorted({name for m in MODULES.values() for name in m.defs})
VALUES = {
    "--term": DEF_NAMES, "--left": DEF_NAMES, "--right": DEF_NAMES,
    "--interp": sorted({name for m in MODULES.values() for name in m.interps}),
    "--seed": ["0", "1", "2", "x"],
    "--bound": [f"{key}={n}" for key in ("sorts", "mono", "poly", "carrier",
                                         "samples", "tuples", "bogus")
                for n in range(3)] + ["samples=x"],
    "-o": ["a.svg", "b.svg", "missing/out.svg", "."],
}
NAMED = ("--term", "--left", "--right", "--interp")
KEEP = st.sampled_from((True,) * 9 + (False,))
ODD = [["--frobnicate"], ["--frobnicate", "1"], ["-x"], ["--help"],
       ["--term"], ["--left"], ["--right"], ["--interp"], ["--bound"],
       ["--seed"]]


@st.composite
def argvs(draw, directory):
    command = draw(st.sampled_from(COMMANDS))
    positionals = EXPRESSIONS if command == "normalize" else FILES
    items, module = [], None

    def item(flag):
        names = (sorted(module.interps if flag == "--interp" else module.defs)
                 if module and flag in NAMED else [])
        if names and draw(st.booleans()):
            value = draw(st.sampled_from(names))
        else:
            value = draw(st.sampled_from(VALUES[flag]))
        return [flag, str(directory / value) if flag == "-o" else value]

    if draw(KEEP):
        items.append([draw(st.sampled_from(positionals))])
        module = MODULES.get(Path(items[0][0]))
    items += [item(flag) for flag in FLAGS.get(command, []) if draw(KEEP)]
    odd = st.one_of(st.sampled_from(positionals).map(lambda token: [token]),
                    st.sampled_from(ODD), st.sampled_from(sorted(VALUES)))
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
        each = draw(odd)
        items.append(item(each) if isinstance(each, str) else each)
    argv = [] if command is None else [command]
    for each in draw(st.permutations(items)):
        argv += each
    return argv


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_random_argv_ends_in_an_exit_code(data, tmp_path_factory):
    directory = tmp_path_factory.getbasetemp() / "argv"
    directory.mkdir(exist_ok=True)
    argv = data.draw(argvs(directory))
    code, err = exit_code(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    if code in (2, 3):
        assert any(line.startswith("error:")
                   for line in err.splitlines()), (argv, err)
    assert all(path.read_text() == source for path, source in SOURCES.items())
