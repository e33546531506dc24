"""The benchmark's workloads: which stages run, and the config each seed gets.

Every workload is a closed loop with one client: the next stage process starts
only after the previous one has exited. The program sees only the generated
config YAML; the benchmark seed becomes the config's `seed`, from which hubopt
derives every trace, initialisation and sampling stream.

`repeats` says how many times a stage (or the oracle phase) is sampled in one
round of the untraced loop, so that stages far shorter than the round get
about as many samples per run as the long ones; unnamed jobs run once.
"""

from __future__ import annotations

PRICE_STAGES = ("train-price", "eval-price")
ALL_STAGES = PRICE_STAGES + ("train-drl", "eval-drl", "report")

# battery defaults step the soc by 4.75 (charge) and 5 kWh (discharge) over a
# 10..45 kWh span; 27.5 kWh sits on their common 0.25 kWh lattice
LATTICE_SOC_KWH = 27.5

WORKLOADS = {
    # the acceptance suite's charging population, one logged day per item
    "price": {
        "stages": PRICE_STAGES,
        "oracle": False,
        "config": {
            "n_hubs": 1,
            "traces": {
                "days": 1,
                "n_stations": 352,
                "n_items": 8426,
                "strata_priors": [0.24, 0.02, 0.74],
                "evening_boost": 50.0,
            },
            "pricing": {"embed_dim": 16, "hidden": [64, 32], "lr": 0.003, "epochs": 8},
        },
        "smoke": {
            "traces": {"n_stations": 16, "n_items": 300},
            "pricing": {"epochs": 1},
        },
    },
    # one hub, 15-day episodes: the per-slot rollout, PPO updates and the DP
    "drl": {
        "stages": ALL_STAGES,
        "oracle": True,
        "repeats": {"gen-data": 2, "train-price": 3, "eval-price": 3},
        "config": {
            "n_hubs": 1,
            "traces": {"days": 20, "n_stations": 4},
            "pricing": {"embed_dim": 4, "hidden": [8], "epochs": 2},
            "ppo": {
                "episode_days": 15,
                "window": 24,
                "initial_soc_kwh": LATTICE_SOC_KWH,
                "episodes_train": 4,
                "episodes_test": 1,
                "hidden": [64, 64],
            },
        },
        "smoke": {
            "traces": {"days": 3},
            "ppo": {"episode_days": 1, "window": 4, "episodes_train": 1, "episodes_test": 1},
        },
    },
    # a trace year over four hubs with little training: the data path
    "pipeline": {
        "stages": ALL_STAGES,
        "oracle": False,
        "repeats": {"gen-data": 2, "train-price": 2, "eval-price": 2, "report": 2},
        "config": {
            "n_hubs": 4,
            "traces": {"days": 365, "n_stations": 4},
            "pricing": {"embed_dim": 4, "hidden": [8], "epochs": 1},
            "ppo": {
                "episode_days": 1,
                "window": 24,
                "episodes_train": 2,
                "episodes_test": 2,
                "hidden": [16, 16],
            },
        },
        "smoke": {
            "n_hubs": 2,
            "traces": {"days": 3, "n_stations": 2},
            "ppo": {"window": 4, "episodes_train": 1, "episodes_test": 1},
        },
    },
}


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def run_config(name: str, seed: int, smoke: bool = False) -> dict:
    """The hubopt run config for one workload at one seed."""
    spec = WORKLOADS[name]
    config = _merge(spec["config"], spec["smoke"]) if smoke else spec["config"]
    return {"seed": seed, "out_dir": "run", **config}
