"""Golden digests: the sha256 of every CSV and checkpoint of one small pipeline run,
and of its manifest.json and config.yaml snapshot.

The run uses `reference.pipeline_config`, the config that
`test_pipeline_reruns_byte_identical` reruns. A refactor must leave
`golden/digests.json` unchanged; a change that means to move the numbers
refreshes it and says so. To rewrite the file from the current code:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import sys

import yaml

from hubopt import cli
from reference import pipeline_config

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "digests.json")
PINNED = ("manifest.json", "config.yaml")
SUBCOMMANDS = ("gen-data", "train-price", "eval-price", "train-drl", "eval-drl", "report")


def pipeline_digests(work_dir) -> dict[str, str]:
    """Run every stage under work_dir; sha256 per CSV, checkpoint, manifest and
    config snapshot, by relative path."""
    run_dir = os.path.join(work_dir, "run")
    config_path = os.path.join(work_dir, "run.yaml")
    with open(config_path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(pipeline_config(run_dir), fh)
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


def test_pipeline_outputs_match_golden_digests(tmp_path):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    got = pipeline_digests(tmp_path)
    assert sorted(got) == sorted(golden), "output file set changed"
    changed = [rel for rel in golden if got[rel] != golden[rel]]
    assert not changed, f"outputs differ from the golden digests: {changed}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = pipeline_digests(tmp)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
