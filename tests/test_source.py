"""Static checks on the package source: no module imports a name it never
uses, no module-level private function or class goes unreferenced, and each
module imports only the modules below it in the layering."""

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


# the package's modules, lowest first; each imports only modules before it
LAYERS = ("geometry", "spectral", "forms", "holder", "analysis", "potentials", "nse", "corpus",
          "io", "verify", "cli")


def _package_imports(tree: ast.Module) -> set[str]:
    """The package modules tree imports, wherever the import statement is."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("layerflow"):
            rest = node.module.split(".")[1:]
            found |= set(rest[:1]) if rest else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("layerflow.")}
    return found


def test_each_module_imports_only_lower_layers():
    modules = _modules()
    assert sorted(modules) == sorted(f"{layer}.py" for layer in LAYERS + ("__init__",))
    upward = [f"{layer} imports {dep}" for rank, layer in enumerate(LAYERS)
              for dep in sorted(_package_imports(modules[f"{layer}.py"]))
              if dep not in LAYERS[:rank]]
    assert not upward, f"imports of a module at or above the importer's layer: {upward}"


def _passed(call: ast.Call, params: list[str]) -> set[str]:
    """The parameters, of those named in params in order, that call passes;
    all of them when it unpacks *args or **kwargs."""
    if any(isinstance(a, ast.Starred) for a in call.args) \
            or any(kw.arg is None for kw in call.keywords):
        return set(params)
    return set(params[:len(call.args)]) | {kw.arg for kw in call.keywords}


def test_every_optional_parameter_of_a_private_function_is_passed():
    # a default no caller overrides is a constant in disguise; calls are
    # matched by name, so a name defined in two modules shares its callers
    modules = _modules()
    calls = [node for tree in modules.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    unused = []
    for name, tree in modules.items():
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or not fn.name.startswith("_") \
                    or fn.name.startswith("__"):
                continue
            params = [a.arg for a in fn.args.posonlyargs + fn.args.args]
            optional = params[len(params) - len(fn.args.defaults):] + \
                [a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
            passed = set()
            for call in calls:
                if getattr(call.func, "id", getattr(call.func, "attr", None)) == fn.name:
                    passed |= _passed(call, params + [a.arg for a in fn.args.kwonlyargs])
            unused += [f"{name}:{fn.lineno} {fn.name}({p}=...)" for p in optional
                       if p not in passed]
    assert not unused, f"optional parameters no call in src passes: {unused}"
