"""Static checks on the package source: no module imports a name it never
uses, and no module-level private function or class goes unreferenced."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "layerflow"


def _modules() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _used_names(tree: ast.AST) -> Counter:
    """How often each name is read below tree: as a bare name, as an
    attribute, or inside a string annotation."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        for note in (getattr(node, "returns", None), getattr(node, "annotation", None)):
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used.update(_used_names(ast.parse(note.value, mode="eval")))
    return used


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for name, tree in _modules().items():
        if name == "__init__.py":  # its imports are the package's exports
            continue
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__":
                unused += [f"{name}:{node.lineno} {bound}" for bound in
                           (alias.asname or alias.name.split(".")[0] for alias in node.names)
                           if not used[bound]]
    assert not unused, f"imported and never used: {unused}"


def test_every_private_definition_is_referenced():
    modules = _modules()
    used = sum(map(_used_names, modules.values()), Counter())
    dead = [f"{name}:{node.lineno} {node.name}" for name, tree in modules.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
            and not node.name.startswith("__")
            and used[node.name] == _used_names(node)[node.name]]  # only its own body reads it
    assert not dead, f"private definitions nothing in src references: {dead}"
