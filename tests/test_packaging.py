"""Packaging: the package version has one source, qnslab.__version__, no
module of the package imports a name it never uses, and no private
module-level name is left that the package never reads."""

import ast
import os
import re

import qnslab

PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir,
                         "pyproject.toml")
PACKAGE = os.path.dirname(qnslab.__file__)


def _modules():
    """{file name: parsed module} of the package."""
    trees = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                trees[name] = ast.parse(fh.read(), name)
    return trees


def test_version_read_from_package():
    with open(PYPROJECT) as fh:
        text = fh.read()
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    assert re.search(r'^dynamic = \["version"\]$', project, re.M)
    assert not re.search(r"^version\s*=", project, re.M)
    assert 'version = {attr = "qnslab.__version__"}' in text
    assert re.fullmatch(r"\d+\.\d+\.\d+", qnslab.__version__)


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports to re-export, so it is the one exception
    unused = []
    for name, tree in _modules().items():
        if name == "__init__.py":
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{name}:{line} {bound}"
                   for bound, line in imported.items() if bound not in used]
    assert not unused


def test_every_private_module_level_name_is_read():
    # a module-level _name (function, class or constant) that no code of
    # the package reads, by name or as a module attribute, is dead code
    trees = _modules()
    defined = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, ast.Assign):
                bound = [t.id for t in node.targets
                         if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name):
                bound = [node.target.id]
            else:
                continue
            defined += [(f"{name}:{node.lineno}", b) for b in bound
                        if b.startswith("_") and not b.startswith("__")]
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert defined
    assert [f"{where} {b}" for where, b in defined if b not in read] == []
