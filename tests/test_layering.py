import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "twobridge"

# Each module may import only modules before it; __init__ re-exports them all.
LAYERS = ["contfrac", "knots", "enumeration", "formulas", "identities", "cli"]


def sibling_imports(tree):
    """(line, sibling) for every import of a twobridge module in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            path = node.module.split(".") if node.module else []
            if node.level == 0:
                if path[:1] != ["twobridge"]:
                    continue
                path = path[1:]
            # "from . import formulas" names its modules after "import".
            names = path[:1] or [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            # "import twobridge" alone loads the whole package.
            names = [
                (alias.name.split(".") + ["twobridge"])[1]
                for alias in node.names
                if alias.name.split(".")[0] == "twobridge"
            ]
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None))
            in ("import_module", "__import__")
        ):
            # importlib.import_module("twobridge.x") or (".x", "twobridge"),
            # anywhere in the module: a dynamic import is an import too.
            target = getattr(node.args[0], "value", None) if node.args else None
            if not isinstance(target, str):
                names = ["<not a literal>"]
            elif target.startswith("."):
                names = [target.lstrip(".").split(".")[0]]
            elif target.split(".")[0] == "twobridge":
                names = [(target.split(".") + ["twobridge"])[1]]
            else:
                continue
        else:
            continue
        for name in names:
            yield node.lineno, name


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_imports_only_lower_layers_at_module_level(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    below = LAYERS[: LAYERS.index(module)]
    upward = [(line, name) for line, name in sibling_imports(tree) if name not in below]
    assert not upward, f"{module} imports a module not below it: {upward}"
    nested = [
        node.lineno
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not nested, f"{module} imports inside a function at lines {nested}"
