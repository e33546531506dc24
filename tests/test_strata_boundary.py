"""The stratum encoding and the charging-log rules are written in traces alone.

traces.Stratum's values are the stratum codes, which are also the pricing
stratum-head columns, and traces._STRATUM_NAMES holds the strata.csv texts;
traces.stratum_response is the one charge rule. So no other module may build
a table of strata, names or codes, or compare a stratum code with an integer
literal. The charging-log rules, traces._log_rules, are read where a charging
file enters, in traces.load_csv, and nowhere else. Each module's source is
parsed, not imported.
"""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "hubopt")
MODULES = sorted(n for n in os.listdir(SRC) if n.endswith(".py"))
STRATUM_TEXTS = {"no_charge", "incentive", "always"}


def parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def names_in(node):
    """Every identifier node mentions: its names and attributes."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def mentions_stratum(node) -> bool:
    return any("strat" in name.lower() for name in names_in(node))


def is_int_literal(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def stratum_encodings(tree):
    """(line, what) of every place the module writes the stratum encoding itself."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if isinstance(target, ast.Name) and "strat" in target.id.lower():
                yield node.lineno, f"module-level stratum table {target.id}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value in STRATUM_TEXTS:
            yield node.lineno, f"stratum text {node.value!r}"
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "enumerate":
            if any(mentions_stratum(arg) for arg in node.args):
                yield node.lineno, "strata numbered by enumerate"
        elif isinstance(node, ast.Attribute) and node.attr == "value":
            if mentions_stratum(node.value):
                yield node.lineno, "a stratum's .value"
        elif isinstance(node, ast.Dict):
            pairs = [(k, v) for k, v in zip(node.keys, node.values) if k is not None]
            if any(mentions_stratum(k) and is_int_literal(v) for k, v in pairs):
                yield node.lineno, "strata mapped to integer literals"
        elif isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if any(map(is_int_literal, sides)) and any(map(mentions_stratum, sides)):
                yield node.lineno, "a stratum code compared with an integer literal"


def log_rules_uses(tree):
    """(line, enclosing top-level definition or None) of every use of _log_rules:
    a name, an attribute or an import."""
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom):
                used = [alias.name for alias in node.names]
            else:
                used = [getattr(node, "id", None) or getattr(node, "attr", None)]
            if "_log_rules" in used:
                yield node.lineno, owner


@pytest.mark.parametrize("name", [n for n in MODULES if n != "traces.py"])
def test_module_writes_no_stratum_encoding(name):
    path = os.path.join(SRC, name)
    found = [f"line {line}: {what}" for line, what in stratum_encodings(parse(path))]
    assert not found, f"{path} writes the stratum encoding outside traces: {found}"


@pytest.mark.parametrize("name", MODULES)
def test_log_rules_are_read_by_load_csv_alone(name):
    path = os.path.join(SRC, name)
    owners = {owner for _, owner in log_rules_uses(parse(path))}
    want = {"load_csv"} if name == "traces.py" else set()
    assert owners == want, f"{path} reads _log_rules in {sorted(owners, key=str)}"


def test_the_removed_encodings_are_caught(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "from .traces import _log_rules, Stratum\n"
        "_STRATUM_ORDER = (Stratum.NO_CHARGE, Stratum.INCENTIVE_CHARGE, Stratum.ALWAYS_CHARGE)\n"
        "cols = {s: col for col, s in enumerate(ORDER_OF_STRATA)}\n"
        "COLS = {Stratum.NO_CHARGE: 0}\n"
        "def gen(stratum, treated):\n"
        "    charged = (stratum == 2) | ((stratum == 1) & treated)\n"
        "    return charged, it.stratum.value, 'always'\n"
        "class Log:\n"
        "    def __post_init__(self):\n"
        "        traces._log_rules(self.slot)\n"
    )
    tree = parse(str(path))
    assert sorted(line for line, _ in stratum_encodings(tree)) == [2, 3, 4, 6, 6, 7, 7]
    assert sorted(log_rules_uses(tree), key=str) == [(1, None), (10, "Log")]
