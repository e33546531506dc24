"""README names only code that exists, and lists the stages the CLI has.

The section from "Exit codes:" to "## Notes" says where each input is checked
and which checks stay inside. Every backticked `module.name` or
`module.Class.name` in it must resolve to a hubopt attribute, so a deleted or
renamed check cannot leave a stale row behind. The "CLI pipeline" code block
lists one `hubopt <stage>` line per entry of `cli.STAGES`, in pipeline order.
"""

import importlib
import os
import re

import pytest

from hubopt import cli

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
MODULES = ("cli", "hub", "nn", "pricing", "scheduler", "seeding", "traces")
DOTTED = re.compile(rf"({'|'.join(MODULES)})((?:\.[A-Za-z_]\w*)+)")


def readme():
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def validation_names():
    text = readme()
    start = text.index("Exit codes:")
    section = text[start : text.index("## Notes", start)]
    spans = re.findall(r"`([^`]+)`", section)
    return sorted({span for span in spans if DOTTED.fullmatch(span)})


def test_section_names_code():
    assert len(validation_names()) >= 10


@pytest.mark.parametrize("dotted", validation_names())
def test_name_resolves(dotted):
    module, *path = dotted.split(".")
    obj = importlib.import_module(f"hubopt.{module}")
    for name in path:
        assert hasattr(obj, name), f"README names {dotted}, but {obj!r} has no {name}"
        obj = getattr(obj, name)


def test_cli_block_lists_the_stages_in_order():
    text = readme()
    section = text[text.index("## CLI pipeline") :]
    block = section[section.index("```") + 3 :]
    block = block[: block.index("```")]
    commands = [line.split()[1] for line in block.splitlines() if line.startswith("hubopt ")]
    assert commands == list(cli.STAGES)
