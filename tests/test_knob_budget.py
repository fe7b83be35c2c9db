"""The library's knob budget: the defaulted parameters of every function in
`src/fapplab`, positional and keyword-only, and the defaulted fields of every
dataclass, which are parameters of its generated `__init__`, counted with
`ast`. A field declared `field(init=False)` is not a parameter.

A default is a knob that some caller may turn; one that no experiment turns is
code with no user. A change that adds or removes one updates `KNOBS` and says
which and why.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fapplab"
KNOBS = 5


def _is_dataclass(node):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def _has_init_default(value):
    """Whether a dataclass field's right-hand side gives `__init__` a default."""
    if value is None:
        return False
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        keywords = {k.arg: k.value for k in value.keywords}
        init = keywords.get("init")
        if isinstance(init, ast.Constant) and init.value is False:
            return False
        return "default" in keywords or "default_factory" in keywords
    return True


def defaults_in(module: str, source: str):
    """`module.function:parameter` of every defaulted parameter in `source`,
    and `module.Class:field` of every defaulted dataclass field."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            found += [f"{module}.{node.name}:{item.target.id}" for item in node.body
                      if isinstance(item, ast.AnnAssign) and _has_init_default(item.value)]
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        named = positional[len(positional) - len(args.defaults):] + [
            arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None]
        found += [f"{module}.{node.name}:{arg.arg}" for arg in named]
    return found


def defaulted_parameters():
    """`defaults_in` over every module of the library."""
    return [name for path in sorted(SRC.glob("*.py"))
            for name in defaults_in(path.stem, path.read_text(encoding="utf-8"))]


def test_defaulted_parameter_count():
    found = defaulted_parameters()
    assert len(found) == KNOBS, found


def test_dataclass_fields_with_defaults_are_knobs():
    source = """
@dataclass(frozen=True)
class Layout:
    size: int
    dim: int = 2
    tags: list = field(default_factory=list)
    label: str = field(default="a")
    cache: dict = field(init=False, repr=False)
    shape: tuple = field(init=False, default=())
    plain: int = field(repr=False)

    def scaled(self, by: int = 3):
        return by

class NotADataclass:
    dim: int = 2
"""
    assert defaults_in("m", source) == ["m.Layout:dim", "m.Layout:tags", "m.Layout:label",
                                        "m.scaled:by"]
