"""The README's library example runs and prints the values its comments give."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_its_values():
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    overlap, chsh, lhv = out.getvalue().split()
    assert 0.0 <= float(overlap) <= 1.0
    assert chsh.startswith("2.828427")
    assert lhv == "2.0"
