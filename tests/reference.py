"""References that more than one test file compares against."""

import importlib.util
import itertools
import os

from hubopt import hub

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def brute_force_best(cfg, inputs, initial_soc_kwh):
    """Try all action sequences; profit accumulated back to front like the DP."""
    best = None
    for seq in itertools.product((hub.IDLE, hub.CHARGE, hub.DISCHARGE), repeat=len(inputs)):
        state = hub.BatteryState(initial_soc_kwh)
        profits = []
        try:
            for slot, action in zip(inputs, seq):
                outcome = hub.step(cfg, state, slot, action)
                profits.append(outcome.profit)
                state = hub.BatteryState(outcome.soc_after_kwh)
        except hub.FeasibilityError:
            continue
        total = 0.0
        for p in reversed(profits):
            total = p + total
        if best is None or total > best:
            best = total
    return best


def profit_rows(cfg, inputs):
    """The DP's profit rows for a list of SlotInputs, built by hub.profit_table."""
    fields = ("load_rate", "cs_active", "p_wt_kw", "p_pv_kw", "rtp", "srtp")
    return hub.profit_table(cfg, *([getattr(s, f) for s in inputs] for f in fields))


def load_perfbench(name):
    """perfbench/<name>.py as a module; perfbench is a directory of scripts, not a package."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(ROOT, "perfbench", f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pipeline_config(run_dir) -> dict:
    """The small six-stage run config that the golden digests and the rerun check share."""
    return {
        "seed": 9,
        "out_dir": str(run_dir),
        "n_hubs": 2,
        "traces": {"days": 4, "n_stations": 6},
        "pricing": {"embed_dim": 6, "hidden": [12], "epochs": 4},
        "ppo": {
            "episode_days": 1,
            "window": 6,
            "episodes_train": 8,
            "episodes_test": 2,
            "hidden": [16, 16],
        },
    }
