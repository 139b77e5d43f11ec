"""Every name imported in src/ and tests/ is used in its module, and every
function, class and method of the package is used by the package or the
benchmark."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_no_unused_imports():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert files
    found = [hit for path in files for hit in unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(found)


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def names_used_outside_own_definition(tree: ast.AST) -> set[str]:
    """Names, attributes and string constants, minus those inside a definition of that name."""
    out = set()
    stack = [(tree, frozenset())]
    while stack:
        node, enclosing = stack.pop()
        ref = None
        if isinstance(node, ast.Name):
            ref = node.id
        elif isinstance(node, ast.Attribute):
            ref = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            ref = node.value
        if ref is not None and ref not in enclosing:
            out.add(ref)
        if isinstance(node, DEFS):
            enclosing = enclosing | {node.name}
        stack.extend((child, enclosing) for child in ast.iter_child_nodes(node))
    return out


def test_every_definition_is_referenced():
    # references from tests/ do not count: code only the tests call belongs in
    # tests/slow_paths.py; the wrappers in bench/ look engine functions up by
    # their string names
    files = [path for top in ("src", "bench") for path in sorted((ROOT / top).rglob("*.py"))]
    used = set().union(*(names_used_outside_own_definition(ast.parse(path.read_text(), str(path)))
                         for path in files))
    unused = []
    for path in sorted((ROOT / "src" / "schurrec").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, DEFS) and node.name not in used \
                    and not (node.name.startswith("__") and node.name.endswith("__")):
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}")
    assert not unused, "defined but never referenced:\n" + "\n".join(unused)
