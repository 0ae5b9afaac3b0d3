"""SVG output is byte-stable: every corpus definition and a 64-step chain
render to the bytes recorded in ``golden_render.json`` (SHA-256 digests).

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


def chain_module(n: int) -> str:
    """An n-step `;` chain of three generators on one sort."""
    steps = " ; ".join(f"[ G{i * 7 % 3} ]" for i in range(n))
    gens = "".join(f"gen G{i} : A -> A;\n" for i in range(3))
    return f"sort A;\n{gens}def chain = {steps};\n"


def renders():
    """(name, SVG text) for every corpus definition and the chain."""
    sources = [(p.name, p.read_text(encoding="utf-8"))
               for p in sorted(CORPUS.glob("*.tape"))]
    sources.append((f"chain{CHAIN_STEPS}", chain_module(CHAIN_STEPS)))
    for source, text in sources:
        module = parse_module(text)
        sig = module.signature()
        for name, body in module.defs.items():
            yield f"{source}:{name}", render_svg(elaborate(body, module, sig), sig)


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
