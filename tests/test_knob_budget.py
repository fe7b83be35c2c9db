"""The library's knob budget: the defaulted parameters of every function in
`src/fapplab`, positional and keyword-only, counted with `ast`.

A default is a knob that some caller may turn; one that no experiment turns is
code with no user. A change that adds or removes one updates `KNOBS` and says
which and why.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fapplab"
KNOBS = 6


def defaulted_parameters():
    """`module.function:parameter` of every defaulted parameter in the library."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            named = positional[len(positional) - len(args.defaults):] + [
                arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None]
            found += [f"{path.stem}.{node.name}:{arg.arg}" for arg in named]
    return found


def test_defaulted_parameter_count():
    found = defaulted_parameters()
    assert len(found) == KNOBS, found
