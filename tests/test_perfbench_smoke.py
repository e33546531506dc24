"""The benchmark's smoke run, so the names it traces and calls cannot rot.

perfbench wraps and calls `HubEnv.slot_inputs`, `episode_inputs`,
`state_vector`, `hub.feasible_actions`, `rollout` (it reads `len(result[0])`)
and `dp_oracle` by its `cfg`, `inputs` and `resolution` parameters. The smoke
run exercises every workload at minimal size, traced and untraced, and fails
if any metric goes missing or any operation fails.
"""

import json
import os
import subprocess
import sys

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
