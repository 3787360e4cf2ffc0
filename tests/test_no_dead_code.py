"""Every module-level function and class in flowscore has a caller in
flowscore: a name nothing in `src/` uses is dead code, even if a test
calls it.

A reference is a `Name` or an `Attribute` node anywhere in a module
outside the definition itself. The package's `__init__.py`
re-exports, so its imports do not count, and a name that only a
docstring mentions is not in the syntax tree at all.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "flowscore"


def referenced_names(root: ast.AST, own: str | None = None) -> set[str]:
    """The names root uses; own, the name root defines, does not count."""
    names = set()
    for node in ast.walk(root):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    names.discard(own)
    return names


def test_every_module_level_function_and_class_has_a_caller():
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            is_def = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if is_def:
                defined.append(f"{path.stem}.{node.name}")
            if path.name != "__init__.py":
                used |= referenced_names(node, node.name if is_def else None)
    assert defined
    unused = [name for name in defined if name.split(".")[1] not in used]
    assert unused == [], f"no caller in src/: {unused}"
