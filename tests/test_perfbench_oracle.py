"""The benchmark's oracle phase on a tiny run, in the fast loop.

perfbench's oracle phase replays `eval-drl`'s greedy episodes through the
scalar `HubEnv.reset`/`step` path, solves each with `dp_oracle`, and checks
that the replayed greedy mean equals the `drl_eval.csv` value as written. So
this test fails whenever the lockstep evaluation and the scalar environment
disagree, without waiting for the slow smoke run.
"""

import yaml

from hubopt import cli
from reference import load_perfbench


def test_oracle_checks_pass_on_a_tiny_run(tmp_path):
    run_dir = tmp_path / "run"
    config = {
        "seed": 5,
        "out_dir": str(run_dir),
        "n_hubs": 2,
        "traces": {"days": 4, "n_stations": 3},
        "pricing": {"embed_dim": 4, "hidden": [8], "epochs": 1},
        "ppo": {
            "episode_days": 1,
            "window": 4,
            # on the 0.25 kWh lattice of the default battery's soc moves
            "initial_soc_kwh": 27.5,
            "episodes_train": 2,
            "episodes_test": 3,
            "hidden": [16, 16],
        },
    }
    config_path = str(tmp_path / "run.yaml")
    with open(config_path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(config, fh)
    for sub in ("gen-data", "train-price", "eval-price", "train-drl", "eval-drl"):
        assert cli.main([sub, "--config", config_path]) == 0, sub

    result = load_perfbench("oracle").run(config_path, str(run_dir))
    checks = result["checks"]
    # one check per evaluation episode and one per (hub, method)
    assert len(checks) == 2 * 4 * (3 + 1)
    assert [c["check"] for c in checks if not c["ok"]] == []
    assert result["resolution"] == 0.25
    assert result["greedy_profit"] <= result["dp_profit"]
