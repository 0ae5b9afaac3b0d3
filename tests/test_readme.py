"""The library quickstart in README.md runs and prints what it says."""

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_readme_python_example_prints_its_matrix():
    """The first ```python block of the README, run as a script, prints
    the flip's matrix."""
    text = README.read_text(encoding="utf-8")
    code = re.search(r"^```python\n(.*?)^```$", text, re.S | re.M)[1]
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "__main__"})
    assert out.getvalue() == "[[2/3], [1/3]]\n"
