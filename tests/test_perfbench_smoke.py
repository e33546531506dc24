"""The benchmark's smoke run, so the names it traces and calls cannot rot.

perfbench traces every function that a per-layer metric in BENCHMARK.json
names, among them `hub.step`, `HubEnv.slot_inputs`, `state_vector`, the
pricing uplift and policy functions and `cli._method_decisions`. Its counters
read call arguments by parameter name (`dp_oracle`'s `cfg`, `inputs` and
`resolution`, `load_csv`'s `path`, `Adam.step`'s `params`) and results by
shape (`rollout`'s `len(result[0])`). Its oracle phase calls
`cli.load_run_config`, `_load_pricing_models`, `_load_population`,
`_method_decisions`, `_hub_series` and `_build_env`, then replays episodes
through `HubEnv.reset`/`step`, `state_vector`, `episode_inputs` and
`dp_oracle`. `test_perfbench_surface.py` checks those names without running
anything; this smoke run exercises every workload at minimal size, traced
and untraced, and fails if any metric goes missing or any operation fails.
"""

import json
import os
import subprocess
import sys

import pytest

pytestmark = pytest.mark.slow

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_smoke_runs_clean():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["failed"] == 0, summary
    assert summary["problems"] == [], summary
