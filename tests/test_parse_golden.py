"""Parsing is stable: every corpus file, and 50 token-edited variants of
each, parse to the module or the error recorded in ``golden_parse.json``.

A variant applies one to three of ``test_cli_fuzz``'s edits (delete,
duplicate, swap or replace a token) drawn from ``random.Random(27)``, and
joins its tokens by a space, or by a newline after ``;`` and ``{`` so that
errors fall on more than one line.  A module is recorded as the SHA-256 of
``print_module``; an error as its class, message, line, column and sorted
expected set.

To record the file again after a deliberate change of the parser:

    PYTHONPATH=src python tests/test_parse_golden.py > tests/golden_parse.json
"""

import hashlib
import json
import random
import sys
from itertools import chain
from pathlib import Path

from tapecalc.errors import TapecalcError
from tapecalc.frontend.parser import parse_module, tokenize
from tapecalc.frontend.surface import print_module

HERE = Path(__file__).resolve().parent
CORPUS = sorted((HERE.parent / "corpus").glob("*.tape"))
GOLDEN = HERE / "golden_parse.json"
EDITS = 50


def edited(tokens: list[str], vocabulary: list[str],
           rng: random.Random) -> str:
    tokens = list(tokens)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(tokens))
        edit = rng.choice(("delete", "duplicate", "swap", "replace"))
        if edit == "delete":
            del tokens[i]
        elif edit == "duplicate":
            tokens.insert(i, tokens[i])
        elif edit == "swap":
            j = rng.randrange(len(tokens))
            tokens[i], tokens[j] = tokens[j], tokens[i]
        else:
            tokens[i] = rng.choice(vocabulary)
    return "".join(t + ("\n" if t in (";", "{") else " ") for t in tokens)


def inputs():
    """(name, text) for every corpus file and its edited variants."""
    texts = {p.name: p.read_text(encoding="utf-8") for p in CORPUS}
    tokens = {name: tokenize(text).texts[:-1] for name, text in texts.items()}
    vocabulary = sorted(set(chain.from_iterable(tokens.values())))
    rng = random.Random(27)
    for name, text in texts.items():
        yield name, text
        for k in range(EDITS):
            yield f"{name}:{k}", edited(tokens[name], vocabulary, rng)


def outcome(text: str):
    try:
        module = parse_module(text)
    except TapecalcError as exc:
        return {"error": [type(exc).__name__, str(exc),
                          getattr(exc, "line", None), getattr(exc, "col", None),
                          list(getattr(exc, "expected", ()))]}
    printed = print_module(module).encode("utf-8")
    return {"module": hashlib.sha256(printed).hexdigest()}


def outcomes() -> dict:
    return {name: outcome(text) for name, text in inputs()}


def test_parses_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = outcomes()
    assert set(got) == set(golden)
    changed = sorted(name for name in got if got[name] != golden[name])
    assert changed == []


if __name__ == "__main__":
    json.dump(outcomes(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
