"""Golden digests: the sha256 of every CSV and checkpoint of small pipeline runs,
and of each run's manifest.json and config.yaml snapshot.

Each run uses `reference.pipeline_config`, the config that
`test_pipeline_reruns_byte_identical` reruns. The first keeps its hub as it
is, with neither wind nor PV; the second adds the renewable hub (10 kW of PV
and 5 kW of wind), so the wind and PV rows the scheduler reads are nonzero. A
refactor must leave every `golden/*.json` unchanged; a change that means to
move the numbers refreshes them and says so. To rewrite the files from the
current code:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import sys

import pytest
import yaml

from hubopt import cli
from reference import pipeline_config

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
PINNED = ("manifest.json", "config.yaml")
SUBCOMMANDS = ("gen-data", "train-price", "eval-price", "train-drl", "eval-drl", "report")
# digest file -> the hub section added to pipeline_config
RUNS = {
    "digests.json": None,
    "digests_renewable.json": {"pv_capacity_kw": 10, "wt_capacity_kw": 5},
}


def pipeline_digests(work_dir, hub_section=None) -> dict[str, str]:
    """Run every stage under work_dir; sha256 per CSV, checkpoint, manifest and
    config snapshot, by relative path."""
    run_dir = os.path.join(work_dir, "run")
    config_path = os.path.join(work_dir, "run.yaml")
    config = pipeline_config(run_dir)
    if hub_section is not None:
        config["hub"] = hub_section
    with open(config_path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(config, fh)
    for sub in SUBCOMMANDS:
        rc = cli.main([sub, "--config", config_path])
        assert rc == 0, f"{sub} exited {rc}"
    digests = {}
    for root, _, files in os.walk(run_dir):
        for name in files:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, run_dir).replace(os.sep, "/")
            if name.endswith(".csv") or rel.startswith("checkpoints/") or rel in PINNED:
                with open(path, "rb") as fh:
                    digests[rel] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(digests.items()))


@pytest.mark.parametrize("golden_name", list(RUNS))
def test_pipeline_outputs_match_golden_digests(tmp_path, golden_name):
    with open(os.path.join(GOLDEN_DIR, golden_name), encoding="utf-8") as fh:
        golden = json.load(fh)
    got = pipeline_digests(tmp_path, RUNS[golden_name])
    assert sorted(got) == sorted(golden), "output file set changed"
    changed = [rel for rel in golden if got[rel] != golden[rel]]
    assert not changed, f"outputs differ from the golden digests: {changed}"


if __name__ == "__main__":
    import tempfile

    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for golden_name, hub_section in RUNS.items():
        with tempfile.TemporaryDirectory() as tmp:
            digests = pipeline_digests(tmp, hub_section)
        path = os.path.join(GOLDEN_DIR, golden_name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(digests, fh, indent=2)
            fh.write("\n")
        print(f"wrote {len(digests)} digests to {path}", file=sys.stderr)
