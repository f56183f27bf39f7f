"""Packaging: the package version has one source, qnslab.__version__, and
no module of the package imports a name it never uses."""

import ast
import os
import re

import qnslab

PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir,
                         "pyproject.toml")
PACKAGE = os.path.dirname(qnslab.__file__)


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
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        with open(os.path.join(PACKAGE, name)) as fh:
            tree = ast.parse(fh.read(), name)
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
