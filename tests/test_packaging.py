"""The package version has one source: qnslab.__version__."""

import os
import re

import qnslab

PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir,
                         "pyproject.toml")


def test_version_read_from_package():
    with open(PYPROJECT) as fh:
        text = fh.read()
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    assert re.search(r'^dynamic = \["version"\]$', project, re.M)
    assert not re.search(r"^version\s*=", project, re.M)
    assert 'version = {attr = "qnslab.__version__"}' in text
    assert re.fullmatch(r"\d+\.\d+\.\d+", qnslab.__version__)
