"""Every module-level function and class in flowscore, and every method,
property and classmethod of its classes, is read somewhere in flowscore:
a name nothing in `src/` reads is dead code, even if a test calls it.

A read is a `Name` or an `Attribute` node in `Load` context, or a string
constant equal to the name (so `getattr(obj, "name")` counts), anywhere
outside the definition itself. A member is only read through an
attribute or a string: a local variable that shares its name is no read.
The package's `__init__.py` re-exports, so its imports do not count, and
a name that only a docstring mentions is not in the syntax tree at all.
"""
import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "flowscore"

# perfbench/tracer.py counts forced trips through `result.records`; the
# member leaves src/ once the benchmark counts them from the trip table
# (ROADMAP direction 1). This list must not grow.
READ_OUTSIDE_SRC = {"qdta.AssignmentResult.records"}


def reads(root: ast.AST) -> tuple[Counter, Counter]:
    """How often root reads each name as a bare `Name`, and as an
    attribute or a string constant."""
    bare, dotted = Counter(), Counter()
    for node in ast.walk(root):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            bare[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            dotted[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            dotted[node.value] += 1
    return bare, dotted


def is_def(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def definitions(members: bool) -> list[tuple[str, ast.AST]]:
    """(qualified name, node) of each module-level definition, or of each
    non-dunder function in a class body, properties included."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in filter(is_def, tree.body):
            if not members:
                found.append((f"{path.stem}.{node.name}", node))
            elif isinstance(node, ast.ClassDef):
                found += [(f"{path.stem}.{node.name}.{m.name}", m) for m in filter(is_def, node.body)
                          if not (m.name.startswith("__") and m.name.endswith("__"))]
    return found


def unread(members: bool) -> list[str]:
    """The definitions nothing in src/ reads outside their own body."""
    bare, dotted = Counter(), Counter()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            b, d = reads(ast.parse(path.read_text(), filename=str(path)))
            bare, dotted = bare + b, dotted + d
    names = []
    for name, node in definitions(members):
        own_bare, own_dotted = reads(node)
        outside = dotted[node.name] - own_dotted[node.name]
        if not members:
            outside += bare[node.name] - own_bare[node.name]
        if outside == 0:
            names.append(name)
    return names


def test_every_module_level_function_and_class_has_a_caller():
    assert definitions(members=False)
    unused = unread(members=False)
    assert unused == [], f"no caller in src/: {unused}"


def test_every_method_and_property_is_read_in_src():
    assert definitions(members=True)
    unused = unread(members=True)
    assert sorted(unused) == sorted(READ_OUTSIDE_SRC), f"nothing in src/ reads: {unused}"
