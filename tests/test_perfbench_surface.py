"""The hubopt names the benchmark reaches, checked without running it.

perfbench traces functions by name (`BENCHMARK.json`'s per-layer metrics),
reads their arguments by parameter name (`tracer.COUNTERS`) and calls the CLI
and scheduler internals from its oracle phase. A deletion or rename that
breaks any of these fails here, in the fast loop, rather than in the slow
smoke run.
"""

import ast
import importlib
import inspect
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _parse(name):
    with open(os.path.join(PERFBENCH, name), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _tracer_constant(name):
    tree = _parse("tracer.py")
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == name:
            return node.value
    raise LookupError(f"perfbench/tracer.py defines no {name}")


def _per_layer_functions():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [metric["name"] for metric in json.load(fh)["per_layer"]]
    skip = ("share.", "trace.")
    return sorted(
        {
            name.rpartition(".")[0]
            for name in names
            if not name.startswith(skip) and name != "cli.import_s"
        }
    )


def traced_function(dotted):
    """The function perfbench's tracer wraps under a span name like `cli.main`.

    Top-level names must be functions defined in their module, public or in
    the tracer's PRIVATE list; methods must be public and defined on the
    class itself, since the tracer patches each class's own attributes.
    """
    short, *path = dotted.split(".")
    module = importlib.import_module(f"hubopt.{short}")
    if len(path) == 1:
        fn = getattr(module, path[0], None)
        assert inspect.isfunction(fn), f"{dotted} is not a function"
        assert fn.__module__ == module.__name__, f"{dotted} is imported, not defined"
        private = ast.literal_eval(_tracer_constant("PRIVATE")).get(short, ())
        assert not path[0].startswith("_") or path[0] in private, (
            f"{dotted} is private and not in tracer.PRIVATE"
        )
        return fn
    cls_name, method = path
    cls = getattr(module, cls_name, None)
    assert inspect.isclass(cls), f"{short}.{cls_name} is not a class"
    member = vars(cls).get(method)
    if isinstance(member, (staticmethod, classmethod)):
        member = member.__func__
    assert inspect.isfunction(member), f"{dotted} is not a method defined on {cls_name}"
    assert not method.startswith("_"), f"{dotted} is private"
    return member


@pytest.mark.parametrize("dotted", _per_layer_functions())
def test_per_layer_metric_names_a_traced_function(dotted):
    traced_function(dotted)


def _subscript_keys(node, name):
    """The string keys `name[...]` is indexed with anywhere inside node."""
    return {
        sub.slice.value
        for sub in ast.walk(node)
        if isinstance(sub, ast.Subscript)
        and isinstance(sub.value, ast.Name)
        and sub.value.id == name
        and isinstance(sub.slice, ast.Constant)
    }


def _counter_arguments():
    """(span name, parameter) pairs that tracer.COUNTERS reads from a call."""
    helpers = {f.name: f for f in _parse("tracer.py").body if isinstance(f, ast.FunctionDef)}
    counters = _tracer_constant("COUNTERS")
    pairs = []
    for key, fn in zip(counters.keys, counters.values):
        arguments = fn.args.args[1].arg  # (tracer, arguments, result, duration)
        keys = _subscript_keys(fn.body, arguments)
        # helpers handed the whole argument mapping, like _dp_cells(a)
        for call in ast.walk(fn.body):
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) in helpers:
                helper = helpers[call.func.id]
                for pos, arg in enumerate(call.args):
                    if isinstance(arg, ast.Name) and arg.id == arguments:
                        keys |= _subscript_keys(helper, helper.args.args[pos].arg)
        pairs += [(key.value, param) for param in sorted(keys)]
    return pairs


@pytest.mark.parametrize("span,param", _counter_arguments())
def test_counter_reads_a_parameter_of_its_function(span, param):
    assert param in inspect.signature(traced_function(span)).parameters


def _oracle_references():
    """hubopt names perfbench/oracle.py imports or reads as `cli.X`/`scheduler.X`."""
    tree = _parse("oracle.py")
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hubopt"):
            refs |= {(node.module, alias.name) for alias in node.names}
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("cli", "scheduler")
        ):
            refs.add((f"hubopt.{node.value.id}", node.attr))
    return sorted(refs)


@pytest.mark.parametrize("module,name", _oracle_references())
def test_oracle_names_resolve(module, name):
    if module == "hubopt":  # `from hubopt import cli` names a submodule
        importlib.import_module(f"hubopt.{name}")
    assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_the_surface_is_not_empty():
    # guards against a parse that silently finds nothing to check
    assert len(_per_layer_functions()) > 40
    assert len(_counter_arguments()) > 5
    assert len(_oracle_references()) > 5
