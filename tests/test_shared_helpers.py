"""Each function in tests/reference.py and tests/fdcheck.py serves two test modules.

Those two files hold the one copy of every builder, checker and reference
that more than one test file uses; one that a single file uses stays in that
file. A test module uses a shared function when it imports it, or uses a
shared function that calls it. Sources are parsed, not imported.
"""

import ast
import os

TESTS = os.path.dirname(os.path.abspath(__file__))
SHARED = ("reference", "fdcheck")


def parse(name):
    with open(os.path.join(TESTS, name), encoding="utf-8") as fh:
        return ast.parse(fh.read(), name)


def test_every_shared_function_has_two_user_modules():
    # each shared function, with every name its body reads
    reads = {
        fn.name: {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}
        for module in SHARED
        for fn in parse(f"{module}.py").body
        if isinstance(fn, ast.FunctionDef)
    }
    users = {name: set() for name in reads}
    for test in (n for n in os.listdir(TESTS) if n.startswith("test_") and n.endswith(".py")):
        for node in ast.walk(parse(test)):
            if isinstance(node, ast.ImportFrom) and node.module in SHARED:
                for alias in node.names:
                    users.get(alias.name, set()).add(test)
    for _ in reads:  # a callee serves every module its callers serve; no chain is longer
        for caller, names in reads.items():
            for callee in names & users.keys():
                users[callee] |= users[caller]
    lonely = {name: sorted(found) for name, found in users.items() if len(found) < 2}
    assert not lonely, f"shared functions used by fewer than two test modules: {lonely}"
