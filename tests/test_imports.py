"""Every name a package module imports is used in that module, ``__all__`` is exact,
every exported name has a caller, and the package keeps one failure class.

No linter ships with the toolchain, so this walks each module's syntax tree:
an imported name counts as used if the module reads it anywhere, or, in
``__init__``, if ``__all__`` lists it.
"""
import ast
import builtins
import re
from pathlib import Path

import pytest

import msdistill

MODULES = sorted(Path(msdistill.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
# exported without a caller: gate 08 (the rate-exponent trend) checks it
UNCALLED_EXPORTS = {"t_exponent"}


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import, mapped to its line; ``__future__`` imports excluded."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_unused_import_is_caught():
    tree = ast.parse("import os\nfrom math import pi, tau\n__all__ = ['tau']\n")
    assert set(imported_names(tree)) - used_names(tree) == {"os", "pi"}


def test_all_names_resolve():
    missing = [name for name in msdistill.__all__ if not hasattr(msdistill, name)]
    assert not missing, f"__all__ lists names the package lacks: {missing}"


def test_init_imports_are_exported():
    init = Path(msdistill.__file__)
    exported = set(msdistill.__all__)
    unlisted = set(imported_names(ast.parse(init.read_text(encoding="utf-8")))) - exported
    assert not unlisted, f"__init__ imports names __all__ omits: {sorted(unlisted)}"


def referenced_names(tree: ast.Module) -> set[str]:
    """Names a tree reads, as a bare name, an attribute, or an imported alias."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_export_has_a_caller():
    # a public name stays only if the package itself, a demo or the quick start calls it
    sources = [p.read_text(encoding="utf-8") for p in MODULES if p.name != "__init__.py"]
    sources += [p.read_text(encoding="utf-8") for p in sorted((ROOT / "demos").glob("*.py"))]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources += re.findall(r"```python\n(.*?)```", readme, re.S)  # the quick start
    called = set().union(*(referenced_names(ast.parse(text)) for text in sources))
    exported = {name for name in msdistill.__all__ if not name.startswith("__")}
    uncalled = exported - called - UNCALLED_EXPORTS
    assert not uncalled, f"exported names nothing calls: {sorted(uncalled)}"


BUILTIN_EXCEPTIONS = {
    name for name, value in vars(builtins).items()
    if isinstance(value, type) and issubclass(value, BaseException)
}


def exception_classes(trees: dict[str, ast.Module]) -> dict[str, str]:
    """Each exception class the trees define, mapped to its module's name.

    A class is an exception if one of its bases, by its last name, is a
    builtin exception or another exception class of the trees.
    """
    classes = [
        (node.name, {ast.unparse(base).rpartition(".")[2] for base in node.bases}, module)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    ]
    found: dict[str, str] = {}
    while new := {name: module for name, bases, module in classes
                  if name not in found and bases & (BUILTIN_EXCEPTIONS | found.keys())}:
        found.update(new)
    return found


def test_one_exception_class():
    # the CLI's exit codes rest on it: InfeasibleError exits 2, any other ValueError 1
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    assert exception_classes(trees) == {"InfeasibleError": "__init__.py"}


def test_second_exception_class_is_caught():
    trees = {
        "a.py": ast.parse("class A(ValueError): pass\nclass P(argparse.ArgumentParser): pass\n"),
        "b.py": ast.parse("from a import A\nclass B(a.A): pass\ndef f():\n    class C(B): pass\n"),
    }
    assert exception_classes(trees) == {"A": "a.py", "B": "b.py", "C": "b.py"}


def test_only_main_picks_an_exit_code():
    # a handler raises; cli.main alone catches and maps (cmd_compare only adds an entry's index)
    tree = ast.parse((Path(msdistill.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    catching = {f.name for f in functions if f.name.startswith("cmd_")
                and any(isinstance(node, (ast.Try, ast.TryStar)) for node in ast.walk(f))}
    assert catching <= {"cmd_compare"}
    exits = {f.name for f in functions for node in ast.walk(f)
             if isinstance(node, ast.Name) and node.id.startswith("EXIT_")}
    assert exits == {"main"}
