"""SVG output is byte-stable: every corpus definition, a 64-step chain and
the ``PINNED`` drawings of derived nodes render to the bytes recorded in
``golden_render.json`` (SHA-256 digests).

To record the digests again after a deliberate change of the layout:

    PYTHONPATH=src python tests/test_render_golden.py > tests/golden_render.json
"""

import hashlib
import json
import sys
from pathlib import Path

from tapecalc.frontend.parser import parse_module
from tapecalc.frontend.render import render_svg
from tapecalc.frontend.surface import elaborate

HERE = Path(__file__).resolve().parent
CORPUS = HERE.parent / "corpus"
GOLDEN = HERE / "golden_render.json"
CHAIN_STEPS = 64
PINNED = """sort A;
sort B;
theory PCA with p = 1/2;
def copies = [ copy@ABAB ];
def swap = [ sym@AB,BA ];
def term8 = term<x1 +_1/2 x8>@A;
def whisk = id@B (x) (op<+_1/2>@A ; codiag@A);
"""
"""A block circuit of each kind's wire map, a term's branching, and a
whiskered composite."""


def chain_module(n: int) -> str:
    """An n-step `;` chain of three generators on one sort."""
    steps = " ; ".join(f"[ G{i * 7 % 3} ]" for i in range(n))
    gens = "".join(f"gen G{i} : A -> A;\n" for i in range(3))
    return f"sort A;\n{gens}def chain = {steps};\n"


def renders():
    """(name, SVG text) for every corpus definition, the chain and the
    pinned definitions."""
    sources = [(p.name, p.read_text(encoding="utf-8"))
               for p in sorted(CORPUS.glob("*.tape"))]
    sources.append((f"chain{CHAIN_STEPS}", chain_module(CHAIN_STEPS)))
    sources.append(("pinned", PINNED))
    for source, text in sources:
        module = parse_module(text)
        sig = module.signature()
        for name, body in module.defs.items():
            yield f"{source}:{name}", render_svg(elaborate(body, module), sig)


def digest(svg: str) -> str:
    return hashlib.sha256(svg.encode("utf-8")).hexdigest()


def test_renders_match_golden_bytes():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = {name: digest(svg) for name, svg in renders()}
    assert set(got) == set(golden)
    changed = sorted(name for name in got if got[name] != golden[name])
    assert changed == []


if __name__ == "__main__":
    json.dump({name: digest(svg) for name, svg in renders()}, sys.stdout,
              indent=1, sort_keys=True)
    sys.stdout.write("\n")
