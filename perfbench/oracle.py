"""Oracle phase: replay eval-drl's greedy episodes and solve each with dp_oracle.

For every (hub, method) the environment is rebuilt exactly as `hubopt eval-drl`
builds it, the checkpointed policy replays the same evaluation episodes
greedily, and `scheduler.dp_oracle` solves each episode on the coarsest
state-of-charge lattice that is exact for the config. The result records one
check per episode (greedy profit <= DP profit + 1e-9) and one per
(hub, method) (the replayed greedy mean equals the `drl_eval.csv` value, as
written), plus the greedy and DP profit totals.
"""

from __future__ import annotations

import csv
import math
import os
from fractions import Fraction

TOLERANCE = 1e-9


def _fraction(value: float) -> Fraction:
    return Fraction(value).limit_denominator(10**6)


def exact_resolution(hub_cfg, initial_soc_kwh: float) -> float:
    """Greatest lattice step dividing every soc move, the span and the start."""
    spec = hub_cfg.battery
    parts = [
        _fraction(spec.eta_charge * spec.r_charge_kw * hub_cfg.slot_hours),
        _fraction(spec.r_discharge_kw * hub_cfg.slot_hours),
        _fraction(spec.soc_max_kwh - spec.soc_min_kwh),
        _fraction(initial_soc_kwh - spec.soc_min_kwh),
    ]
    denom = math.lcm(*(p.denominator for p in parts))
    step = math.gcd(*(int(p * denom) for p in parts))
    return step / denom


def run(config_path: str, run_dir: str) -> dict:
    from hubopt import cli, scheduler
    from hubopt.seeding import spawn_seed

    cfg = cli.load_run_config(config_path)
    if cfg.env.initial_soc_kwh is None:
        raise ValueError("the oracle phase needs ppo.initial_soc_kwh on the lattice")
    resolution = exact_resolution(cfg.hub, cfg.env.initial_soc_kwh)
    with open(os.path.join(run_dir, "results", "drl_eval.csv"), newline="") as fh:
        written = {(int(r["hub_id"]), r["method"]): r["avg_daily_reward"] for r in csv.DictReader(fh)}

    traces = cli.load_traces(os.path.join(run_dir, "data"))
    model, mu1, mu0, prop = cli._load_pricing_models(run_dir)
    items, observations = cli._load_population(run_dir)
    stratum_of = {(it.station_id, it.slot_of_day): it.stratum for it in items}
    decisions = cli._method_decisions(model, mu1, mu0, prop, items, observations, cfg.discount)

    checks = []
    greedy_sum = dp_sum = 0.0
    episodes = cfg.ppo.episodes_test
    for hub_id in range(cfg.n_hubs):
        eval_seed = spawn_seed(cfg.seed, "drl-eval", hub_id)
        for method in cli.METHODS:
            bundle = scheduler.PolicyBundle.from_checkpoint(
                os.path.join(run_dir, "checkpoints", f"drl_hub{hub_id}_{method}.json")
            )
            srtp, occupancy = cli._hub_series(
                cfg, decisions[method], stratum_of, hub_id, traces.n_slots
            )
            env = cli._build_env(cfg, traces, srtp, occupancy, hub_id, method)
            # one running total, summed in the order scheduler.evaluate sums it
            total = 0.0
            for episode in range(episodes):
                state = env.reset(seed=spawn_seed(eval_seed, "eval", episode))
                start = env.episode_start
                profit = 0.0
                done = False
                while not done:
                    action = bundle.greedy(scheduler.state_vector(state, env.stats))
                    state, reward, done = env.step(action)
                    total += reward
                    profit += reward
                best, _ = scheduler.dp_oracle(
                    cfg.hub, env.episode_inputs(start), cfg.env.initial_soc_kwh, resolution
                )
                greedy_sum += profit
                dp_sum += best
                checks.append(
                    {
                        "check": f"hub{hub_id}/{method}/episode{episode}: greedy <= dp",
                        "ok": profit <= best + TOLERANCE,
                    }
                )
            mean = repr(float(total / (episodes * env.episode_days)))
            checks.append(
                {
                    "check": f"hub{hub_id}/{method}: greedy mean {mean} == drl_eval.csv "
                    f"{written.get((hub_id, method))}",
                    "ok": written.get((hub_id, method)) == mean,
                }
            )
    return {
        "resolution": resolution,
        "greedy_profit": greedy_sum,
        "dp_profit": dp_sum,
        "checks": checks,
    }
