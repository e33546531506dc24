"""References and random-case builders that more than one test file uses.

One that a single file uses stays in that file.
"""

import importlib.util
import itertools
import os
import tracemalloc

import numpy as np

from hubopt import hub

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def heap_peak(fn) -> int:
    """The bytes that fn() allocates at its peak, above the heap it starts on,
    as tracemalloc counts them."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def plan_profit(cfg, inputs, initial_soc_kwh, actions):
    """The profit of a plan stepped by hub.step, accumulated back to front like
    the DP; hub.FeasibilityError if an action is infeasible."""
    state = hub.BatteryState(initial_soc_kwh)
    profits = []
    for slot, action in zip(inputs, actions):
        outcome = hub.step(cfg, state, slot, action)
        profits.append(outcome.profit)
        state = hub.BatteryState(outcome.soc_after_kwh)
    total = 0.0
    for p in reversed(profits):
        total = p + total
    return total


def brute_force_best(cfg, inputs, initial_soc_kwh):
    """The best plan_profit over all action sequences."""
    best = None
    for seq in itertools.product((hub.IDLE, hub.CHARGE, hub.DISCHARGE), repeat=len(inputs)):
        try:
            total = plan_profit(cfg, inputs, initial_soc_kwh, seq)
        except hub.FeasibilityError:
            continue
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


def random_hub_config(rng):
    """A HubConfig with a random battery band, rates, efficiencies and slot length."""
    span = float(rng.uniform(2.0, 16.0))
    soc_min = float(rng.uniform(0.0, 3.0))
    spec = hub.BatterySpec(
        capacity_kwh=soc_min + span + float(rng.uniform(0.0, 2.0)),
        soc_min_kwh=soc_min,
        soc_max_kwh=soc_min + span,
        r_charge_kw=float(rng.uniform(0.5, 8.0)),
        r_discharge_kw=float(rng.uniform(0.5, 8.0)),
        eta_charge=float(rng.uniform(0.6, 1.0)),
        eta_discharge=float(rng.uniform(0.6, 1.0)),
    )
    p_bs_min = float(rng.uniform(0.5, 4.0))
    return hub.HubConfig(
        p_bs_min_kw=p_bs_min,
        p_bs_max_kw=p_bs_min + float(rng.uniform(0.0, 6.0)),
        r_cs_kw=float(rng.uniform(0.0, 10.0)),
        battery=spec,
        slot_hours=float(rng.choice([0.25, 0.5, 1.0])),
        t_recovery_slots=0,
        c_bp=float(rng.uniform(0.0, 0.05)),
    )


def random_slot_inputs(rng):
    return hub.SlotInputs(
        load_rate=float(rng.uniform(0.0, 1.0)),
        cs_active=int(rng.integers(0, 2)),
        p_wt_kw=float(rng.uniform(0.0, 12.0)),
        p_pv_kw=float(rng.uniform(0.0, 12.0)),
        rtp=float(rng.uniform(0.0, 1.0)),
        srtp=float(rng.uniform(0.0, 2.0)),
    )


def random_walk(rng, n_hubs, n_slots):
    """(cfg, inputs, outcome) of each step of n_hubs random hubs, each stepped
    n_slots times from a random soc, by a random feasible action per slot."""
    for _ in range(n_hubs):
        cfg = random_hub_config(rng)
        spec = cfg.battery
        state = hub.BatteryState(float(rng.uniform(spec.soc_min_kwh, spec.soc_max_kwh)))
        for _ in range(n_slots):
            inputs = random_slot_inputs(rng)
            allowed = sorted(hub.feasible_actions(state, spec, cfg.slot_hours))
            out = hub.step(cfg, state, inputs, allowed[int(rng.integers(0, len(allowed)))])
            yield cfg, inputs, out
            state = hub.BatteryState(out.soc_after_kwh)


def lattice_dp_case(rng, n_slots):
    """(cfg, inputs, initial soc, resolution) of a hub whose every soc step
    lies on the DP's lattice, with n_slots of dyadic prices."""
    res = float(rng.choice([0.25, 0.5]))
    up = int(rng.integers(1, 4))
    down = int(rng.integers(1, 4))
    span = int(rng.integers(max(up, down), 7))
    eta_c = float(rng.choice([0.5, 1.0]))
    spec = hub.BatterySpec(
        capacity_kwh=span * res + 2.0,
        soc_min_kwh=1.0,
        soc_max_kwh=1.0 + span * res,
        r_charge_kw=up * res / eta_c,
        r_discharge_kw=down * res,
        eta_charge=eta_c,
        eta_discharge=float(rng.choice([0.5, 0.75, 1.0])),
    )
    cfg = hub.HubConfig(
        p_bs_min_kw=2.0,
        p_bs_max_kw=6.0,
        r_cs_kw=float(rng.integers(0, 8)),
        battery=spec,
        t_recovery_slots=0,
        c_bp=float(rng.choice([0.0, 0.01])),
    )
    inputs = [
        hub.SlotInputs(
            load_rate=float(rng.choice([0.0, 0.5, 1.0])),
            cs_active=int(rng.integers(0, 2)),
            p_wt_kw=float(rng.integers(0, 4)),
            p_pv_kw=0.0,
            rtp=float(rng.integers(1, 64)) / 64.0,
            srtp=float(rng.integers(0, 64)) / 64.0,
        )
        for _ in range(n_slots)
    ]
    initial = 1.0 + int(rng.integers(0, span + 1)) * res
    return cfg, inputs, initial, res


def ppo_batch(bundle, n, rng):
    """(states, actions, old log probs, normalized advantages, value targets) for
    scheduler.total_loss: n random states, and the bundle's own log probs."""
    states = rng.normal(size=(n, bundle.state_dim))
    actions = rng.integers(0, 3, size=n)
    probs, values, _ = bundle.forward(states)
    old_log_probs = np.log(probs[np.arange(n), actions])
    advantages = rng.normal(size=n)
    advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
    targets = values + rng.normal(scale=0.5, size=n)
    return states, actions, old_log_probs, advantages, targets
