"""The pricing and DRL-input names the benchmark times are the code that runs.

`test_perfbench_surface.py` checks that every per-layer metric in
BENCHMARK.json names a function that exists. A function can exist and still
never be called, and then its metric reads 0 while the work it names runs
elsewhere. This test runs stages through `perfbench/stage.py --spans` on a
tiny run and checks that every pricing per-layer name records calls: the
training names in `train-price`, all others in `eval-price`. It also checks
that `train-drl` calls `cli._hub_series` and, as it reads eval-price's
`discounts.csv` instead, never `cli._method_decisions`.
"""

import json
import os
import subprocess
import sys

import yaml

from hubopt import cli
from reference import ROOT, load_perfbench

# pricing per-layer names that only training reaches
TRAINING = {
    "pricing.train_cfmtl",
    "pricing.fit_outcome_models",
    "pricing.fit_propensity_model",
    "pricing.cfmtl_loss_parts",
    "pricing.PricingModel.backward",
}


def pricing_per_layer_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["per_layer"]
    return {
        m["name"].rpartition(".")[0] for m in metrics if m["name"].startswith("pricing.")
    }


def traced_calls(tmp_path, config_path, stage):
    """Calls per span name in one traced run of a hubopt stage."""
    spans = str(tmp_path / f"{stage}.npz")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join("perfbench", "stage.py"),
            "--spans",
            spans,
            "cli",
            stage,
            "--config",
            config_path,
        ],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    functions = load_perfbench("tracer").summarize(spans)["functions"]
    return {name: stats["calls"] for name, stats in functions.items()}


def test_traced_pricing_and_drl_input_names_record_calls(tmp_path):
    config = {
        "seed": 3,
        "out_dir": str(tmp_path / "run"),
        "n_hubs": 1,
        "traces": {"days": 3, "n_stations": 3},
        "pricing": {"embed_dim": 4, "hidden": [8], "epochs": 1},
        "ppo": {
            "episode_days": 1,
            "window": 4,
            "episodes_train": 1,
            "episodes_test": 1,
            "hidden": [8, 8],
        },
    }
    config_path = str(tmp_path / "run.yaml")
    with open(config_path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(config, fh)
    assert cli.main(["gen-data", "--config", config_path]) == 0

    names = pricing_per_layer_names()
    assert TRAINING < names and len(names - TRAINING) >= 7
    calls = {
        stage: traced_calls(tmp_path, config_path, stage)
        for stage in ("train-price", "eval-price", "train-drl")
    }
    dead = sorted(name for name in TRAINING if not calls["train-price"].get(name))
    dead += sorted(name for name in names - TRAINING if not calls["eval-price"].get(name))
    assert dead == []
    assert calls["train-drl"].get("cli._hub_series")
    assert "cli._method_decisions" not in calls["train-drl"]
