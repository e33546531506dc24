"""Only traces reads a CSV field by field.

traces._read_table holds the one np.loadtxt pass and the field-by-field
checker behind it; every other module reads a table through it, so that each
schema's row rules are written once. No module but traces.py may name the
reader's parts. Each module's source is parsed, not imported.
"""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "hubopt")
READER_PARTS = {"_column", "_field_fault", "_bulk_columns", "_raise_first_fault"}


def named_parts(path):
    """(line, name) of every use of a reader part: a name, an attribute or an import."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            continue
        yield from ((node.lineno, name) for name in names if name in READER_PARTS)


@pytest.mark.parametrize(
    "name", sorted(n for n in os.listdir(SRC) if n.endswith(".py") and n != "traces.py")
)
def test_module_names_no_reader_part(name):
    path = os.path.join(SRC, name)
    found = [f"line {line}: {part}" for line, part in named_parts(path)]
    assert not found, f"{path} reaches into traces' CSV reader: {found}"


def test_traces_defines_every_reader_part():
    defined = {
        node.name
        for node in ast.parse(open(os.path.join(SRC, "traces.py"), encoding="utf-8").read()).body
        if isinstance(node, ast.FunctionDef)
    }
    assert READER_PARTS <= defined


def test_an_import_and_an_attribute_are_caught(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "from .traces import _column, load_csv\n"
        "from . import traces\n"
        "traces._raise_first_fault([], str)\n"
    )
    assert [name for _, name in named_parts(str(path))] == ["_column", "_raise_first_fault"]
