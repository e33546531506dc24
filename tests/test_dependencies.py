"""hubopt imports nothing beyond the standard library and its declared dependencies.

pyproject.toml declares numpy and pyyaml. scipy, pytest and hypothesis are
installed where the tests run, so an import of one of them from the package
would pass every other test and fail only for a user who installed hubopt
with its declared dependencies. Each module's source is parsed, not imported.
"""

import ast
import os
import re
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "hubopt")
ALLOWED = set(sys.stdlib_module_names) | {"hubopt", "numpy", "yaml"}


def imported_modules(path):
    """(line, top-level module) of every absolute import in the file."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(SRC) if n.endswith(".py")))
def test_module_imports_only_stdlib_numpy_and_yaml(name):
    path = os.path.join(SRC, name)
    found = imported_modules(path)
    outside = [f"line {line}: {module}" for line, module in found if module not in ALLOWED]
    assert not outside, f"{path} imports undeclared modules: {outside}"


def test_an_undeclared_import_is_caught(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import numpy\nfrom scipy import stats\nfrom . import hub\n")
    assert [m for _, m in imported_modules(str(path)) if m not in ALLOWED] == ["scipy"]


def test_numpy_floor_has_the_c_loadtxt_parser():
    """traces reads its CSVs with np.loadtxt(quotechar=...): numpy 1.23's C parser."""
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        (floor,) = re.findall(r'"numpy>=([0-9.]+)"', fh.read())
    assert tuple(map(int, floor.split("."))) >= (1, 23), floor
