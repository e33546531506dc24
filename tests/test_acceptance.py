"""Acceptance suite: one test per shipped guarantee.

Each test prints a single `[acceptance] <name>: PASS/FAIL (elapsed)` line
(run with `pytest -s` to see them) and asserts both the guarantee itself
and, where one applies, a wall-clock budget. The charging benchmark used
by the pricing, period-structure, and end-to-end tests is built once per
module; its build time is charged to the tests that depend on it.
"""

import itertools
import time
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from fdcheck import FD_STEP, REL_TOL, central_diff_grads, max_rel_err
from hubopt import cli, hub, nn, pricing, scheduler
from hubopt.traces import (
    Stratum,
    TraceSet,
    gen_charging_population,
    stratum_response,
)

pytestmark = pytest.mark.slow

DISCOUNT_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
BASELINES = ("or", "ips", "dr")


def _finish(name, budget_s, started, checks, detail=""):
    """Print the one-line verdict, then fail the test if anything broke."""
    elapsed = time.monotonic() - started
    failures = [msg for ok, msg in checks if not ok]
    if budget_s is not None and elapsed > budget_s:
        failures.append(f"runtime {elapsed:.1f}s over the {budget_s:.0f}s budget")
    status = "FAIL" if failures else "PASS"
    line = f"[acceptance] {name}: {status} ({elapsed:.1f}s"
    if budget_s is not None:
        line += f" / budget {budget_s:.0f}s"
    line += ")"
    if detail:
        line += f" {detail}"
    print(line, flush=True)
    assert not failures, f"{name}: " + "; ".join(failures)


# ---------------------------------------------------------------- hub physics


def _random_hub_config(rng):
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


def test_energy_balance_identities():
    started = time.monotonic()
    rng = np.random.default_rng(202406)
    steps = 0
    worst_balance = 0.0
    worst_exclusive = 0.0
    while steps < 10_000:
        cfg = _random_hub_config(rng)
        spec = cfg.battery
        state = hub.BatteryState(float(rng.uniform(spec.soc_min_kwh, spec.soc_max_kwh)))
        for _ in range(40):
            inputs = hub.SlotInputs(
                load_rate=float(rng.uniform(0.0, 1.0)),
                cs_active=int(rng.integers(0, 2)),
                p_wt_kw=float(rng.uniform(0.0, 12.0)),
                p_pv_kw=float(rng.uniform(0.0, 12.0)),
                rtp=float(rng.uniform(0.0, 1.0)),
                srtp=float(rng.uniform(0.0, 2.0)),
            )
            allowed = sorted(hub.feasible_actions(state, spec, cfg.slot_hours))
            action = allowed[int(rng.integers(0, len(allowed)))]
            out = hub.step(cfg, state, inputs, action)
            net = out.p_bs_kw + out.p_cs_kw + out.p_bp_kw - inputs.p_wt_kw - inputs.p_pv_kw
            worst_balance = max(worst_balance, abs(out.p_grid_kw - out.curtailed_kw - net))
            worst_exclusive = max(worst_exclusive, out.p_grid_kw * out.curtailed_kw)
            assert out.p_grid_kw >= 0.0 and out.curtailed_kw >= 0.0
            assert spec.soc_min_kwh - 1e-9 <= out.soc_after_kwh <= spec.soc_max_kwh + 1e-9
            assert abs(out.profit - (out.revenue - out.cost_grid - out.cost_bp)) <= 1e-9
            state = hub.BatteryState(out.soc_after_kwh)
            steps += 1
    _finish(
        "energy balance over 10k random steps",
        5.0,
        started,
        [
            (worst_balance <= 1e-9, f"balance residual {worst_balance:.2e} > 1e-9"),
            (worst_exclusive <= 1e-9, f"grid*curtailment {worst_exclusive:.2e} > 1e-9"),
        ],
        detail=f"balance<= {worst_balance:.1e}, grid*curtail<= {worst_exclusive:.1e}",
    )


# ------------------------------------------------------------ gradient checks


def _check_dense_mse(rng):
    acts = [str(rng.choice(["identity", "relu", "sigmoid"])), "identity"]
    dims = [int(rng.integers(2, 6)) for _ in range(3)]
    net = nn.DenseNet(dims, acts, rng)
    x = rng.normal(size=(int(rng.integers(2, 7)), dims[0]))
    target = rng.uniform(0.1, 0.9, size=(x.shape[0], dims[-1]))

    def f():
        out, _ = net.forward(x)
        return nn.mse_loss(out, target)[0]

    out, cache = net.forward(x)
    _, grad_out = nn.mse_loss(out, target)
    analytic, _ = net.backward(cache, grad_out)
    return max_rel_err(analytic, central_diff_grads(f, net.params()))


def _check_dense_nll(rng):
    k = int(rng.integers(2, 5))
    dims = [int(rng.integers(2, 6)), int(rng.integers(3, 7)), k]
    net = nn.DenseNet(dims, ["sigmoid", "softmax"], rng)
    x = rng.normal(size=(int(rng.integers(2, 7)), dims[0]))
    labels = rng.integers(0, k, size=x.shape[0])

    def f():
        out, _ = net.forward(x)
        return nn.nll_loss(out, labels)[0]

    out, cache = net.forward(x)
    _, grad_out = nn.nll_loss(out, labels)
    analytic, _ = net.backward(cache, grad_out)
    return max_rel_err(analytic, central_diff_grads(f, net.params()))


def _check_embed_mlp(rng):
    n_st, n_sl = int(rng.integers(3, 7)), int(rng.integers(4, 9))
    model = nn.EmbedMlp(
        n_stations=n_st,
        n_slots=n_sl,
        embed_dim=int(rng.integers(2, 5)),
        hidden=(int(rng.integers(3, 7)),),
        seed=int(rng.integers(0, 1000)),
    )
    n = int(rng.integers(4, 10))
    stations = rng.integers(0, n_st, size=n)
    slots = rng.integers(0, n_sl, size=n)
    target = rng.uniform(0.1, 0.9, size=n)

    def f():
        pred, _ = model.forward(stations, slots)
        return nn.mse_loss(pred, target)[0]

    pred, cache = model.forward(stations, slots)
    _, grad = nn.mse_loss(pred, target)
    analytic = model.backward(cache, grad)
    return max_rel_err(analytic, central_diff_grads(f, model.params()))


def _check_pricing_loss(rng):
    n_st, n_sl = int(rng.integers(3, 6)), int(rng.integers(4, 8))
    model = pricing.PricingModel(
        n_stations=n_st,
        n_slots=n_sl,
        embed_dim=int(rng.integers(2, 4)),
        hidden=(int(rng.integers(3, 7)),),
        seed=int(rng.integers(0, 1000)),
    )
    n = int(rng.integers(6, 14))
    stations = rng.integers(0, n_st, size=n)
    slots = rng.integers(0, n_sl, size=n)
    treated = rng.integers(0, 2, size=n).astype(float)
    charged = rng.integers(0, 2, size=n).astype(float)

    def f():
        probs, g, _ = model.forward(stations, slots)
        return pricing.cfmtl_loss_parts(probs, g, treated, charged)[0].total

    probs, g, cache = model.forward(stations, slots)
    _, grad_strata, grad_g = pricing.cfmtl_loss_parts(probs, g, treated, charged)
    analytic = model.backward(cache, grad_strata, grad_g)
    return max_rel_err(analytic, central_diff_grads(f, model.params()))


def _check_ppo_objective(rng):
    state_dim = int(rng.integers(3, 6))
    bundle = scheduler.PolicyBundle(
        state_dim, hidden=(int(rng.integers(4, 8)),), seed=int(rng.integers(0, 1000))
    )
    cfg = scheduler.PpoConfig(entropy_coef=float(rng.choice([0.0, 0.3])))
    n = int(rng.integers(5, 10))
    states = rng.normal(size=(n, state_dim))
    actions = rng.integers(0, 3, size=n)
    probs, values, _ = bundle.forward(states)
    old_log_probs = np.log(probs[np.arange(n), actions])
    advantages = rng.normal(size=n)
    advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
    targets = values + rng.normal(scale=0.5, size=n)

    def f():
        return scheduler.total_loss(
            bundle, states, actions, old_log_probs, advantages, targets, cfg
        )[0]

    _, analytic = scheduler.total_loss(
        bundle, states, actions, old_log_probs, advantages, targets, cfg
    )
    return max_rel_err(analytic, central_diff_grads(f, bundle.params()))


def test_gradient_finite_difference_suite():
    started = time.monotonic()
    families = (
        ("dense+mse", _check_dense_mse, 40, 101),
        ("dense+nll", _check_dense_nll, 15, 102),
        ("embed-mlp", _check_embed_mlp, 15, 103),
        ("pricing-loss", _check_pricing_loss, 20, 104),
        ("ppo-objective", _check_ppo_objective, 15, 105),
    )
    n_configs = 0
    worst = 0.0
    worst_name = ""
    for name, checker, count, fam_seed in families:
        rng = np.random.default_rng(fam_seed)
        for _ in range(count):
            err = checker(rng)
            n_configs += 1
            if err > worst:
                worst, worst_name = err, name
    _finish(
        "gradients vs central differences",
        60.0,
        started,
        [
            (n_configs >= 100, f"only {n_configs} configurations checked"),
            (worst <= REL_TOL, f"worst relative error {worst:.2e} ({worst_name})"),
        ],
        detail=f"{n_configs} configs, worst rel err {worst:.1e} (step {FD_STEP:g})",
    )


# --------------------------------------------------------- exact-plan oracle


def _brute_force_best(cfg, inputs, initial_soc_kwh):
    """Try all action sequences; profit accumulated back to front like the DP."""
    hub_actions = (hub.IDLE, hub.CHARGE, hub.DISCHARGE)
    best = None
    for seq in itertools.product(hub_actions, repeat=len(inputs)):
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


def _profit_rows(cfg, inputs):
    """The DP's profit rows for a list of SlotInputs, built by hub.profit_table."""
    fields = ("load_rate", "cs_active", "p_wt_kw", "p_pv_kw", "rtp", "srtp")
    return hub.profit_table(cfg, *([getattr(s, f) for s in inputs] for f in fields))


def test_exact_oracle_matches_enumeration():
    started = time.monotonic()
    rng = np.random.default_rng(77)
    mismatches = []
    for trial in range(20):
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
            for _ in range(8)
        ]
        initial = 1.0 + int(rng.integers(0, span + 1)) * res
        profit, _ = scheduler.dp_oracle(cfg, _profit_rows(cfg, inputs), initial, res)
        brute = _brute_force_best(cfg, inputs, initial)
        if profit != brute:
            mismatches.append(f"trial {trial}: dp {profit!r} vs enumeration {brute!r}")
    _finish(
        "exact plan oracle vs 6561-sequence enumeration",
        30.0,
        started,
        [(not mismatches, "; ".join(mismatches))],
        detail="20 random configurations, exact equality",
    )


# ---------------------------------------------------- scheduler competence


def _alternating_tariff_env(srtp, occupancy, window=24):
    """Deterministic daily tariff alternating cheap/dear every three hours."""
    n = window + 25
    hours = np.arange(n) % 24
    rtp = np.where((hours // 3) % 2 == 0, 0.02, 0.50)
    traces = TraceSet(rtp, np.zeros(n), np.zeros(n), np.ones(n), [])
    spec = hub.BatterySpec(
        capacity_kwh=4.0,
        soc_min_kwh=0.0,
        soc_max_kwh=4.0,
        r_charge_kw=4.0,
        r_discharge_kw=4.0,
        eta_charge=1.0,
        eta_discharge=1.0,
    )
    cfg = hub.HubConfig(
        p_bs_min_kw=4.5,
        p_bs_max_kw=4.5,
        r_cs_kw=7.0,
        battery=spec,
        slot_hours=1.0,
        t_recovery_slots=0,
        c_bp=0.01,
    )
    env_cfg = scheduler.EnvConfig(episode_days=1, window=window, initial_soc_kwh=0.0)
    return scheduler.HubEnv(cfg, env_cfg, traces, srtp, occupancy)


def test_scheduler_reaches_oracle_bar():
    started = time.monotonic()
    n = 49
    hours = np.arange(n) % 24
    occupancy = np.isin(hours, (21, 22, 23)).astype(int)
    env = _alternating_tariff_env(occupancy * 2.0, occupancy)
    inputs = [env.slot_inputs(t) for t in range(24, 24 + env.episode_slots)]
    dp_profit, _ = scheduler.dp_oracle(env.hub_cfg, _profit_rows(env.hub_cfg, inputs), 0.0, 4.0)
    idle_state = hub.BatteryState(0.0)
    idle = sum(hub.step(env.hub_cfg, idle_state, s, hub.IDLE).profit for s in inputs)
    bar = 0.9 * dp_profit
    checks = [
        (dp_profit > 0, f"oracle profit {dp_profit:.3f} not positive"),
        (idle < bar, f"idling ({idle:.3f}) would already clear the bar ({bar:.3f})"),
    ]
    means = []
    seeds = (0, 1, 2)
    # the three seeds train as one lockstep population, each exactly as alone
    cfg = scheduler.PpoConfig(entropy_coef=0.005, episodes_train=500, episodes_test=10)
    bundles = [scheduler.PolicyBundle(env.state_dim, hidden=cfg.hidden, seed=s) for s in seeds]
    curves = scheduler.train([env] * len(seeds), bundles, cfg, seeds)
    for seed, curve in zip(seeds, curves):
        last50 = float(np.mean([total for _, total, _ in curve[-50:]]))
        means.append(last50)
        checks.append(
            (last50 >= bar, f"seed {seed}: last-50 mean {last50:.3f} < bar {bar:.3f}")
        )
    _finish(
        "scheduler reaches 90% of oracle profit (3/3 seeds)",
        600.0,
        started,
        checks,
        detail=(
            f"oracle {dp_profit:.2f}, idle {idle:.2f}, last-50 means "
            + "/".join(f"{m:.2f}" for m in means)
        ),
    )


# ------------------------------------------------------- charging benchmark


@pytest.fixture(scope="module")
def charging_bench():
    """Planted-strata benchmark and the four trained pricing models.

    One logged day per item, so per-item counterfactuals are never observed
    and ranking quality must come from the population structure. Incentive
    demand is concentrated in the evening and rare elsewhere, which makes
    blanket discounting unprofitable at every discount level.
    """
    started = time.monotonic()
    items, records = gen_charging_population(
        11,
        352,
        24,
        (0.24, 0.02, 0.74),
        n_items=8426,
        evening_boost=50.0,
        logged_policy="random",
    )
    observations = pricing.observations_from_records(records)
    cfg = pricing.PricingConfig(
        n_stations=352,
        embed_dim=16,
        hidden=(64, 32),
        lr=0.003,
        weight_decay=1e-4,
        batch_size=64,
        epochs=1200,
        seed=0,
    )
    model = pricing.train_cfmtl(observations, cfg)
    mu1, mu0 = pricing.fit_outcome_models(observations, cfg)
    prop = pricing.fit_propensity_model(observations, cfg)
    return SimpleNamespace(
        items=items,
        observations=observations,
        model=model,
        mu1=mu1,
        mu0=mu0,
        prop=prop,
        build_seconds=time.monotonic() - started,
    )


def test_learned_pricing_beats_baselines(charging_bench):
    started = time.monotonic() - charging_bench.build_seconds
    checks = [(len(charging_bench.items) == 8426, "universe size drifted from 8426")]
    always_counts = {}
    reward_rows = {}
    _, _, chosen = cli._method_choices(
        charging_bench.model,
        charging_bench.mu1,
        charging_bench.mu0,
        charging_bench.prop,
        charging_bench.items,
        charging_bench.observations,
    )
    truth = pricing.strata_columns(charging_bench.items)
    for c in DISCOUNT_GRID:
        results = {m: pricing.evaluate_policy(truth, chosen[m], c) for m in chosen}
        reward_rows[c] = {m: r.reward for m, r in results.items()}
        always_counts[c] = {m: r.always_count for m, r in results.items()}
        for b in BASELINES:
            checks.append(
                (
                    results["cfmtl"].reward >= results[b].reward - 1e-9,
                    f"c={c:.0%}: reward {results['cfmtl'].reward:.1f} < {b} "
                    f"{results[b].reward:.1f}",
                )
            )
    for c in (0.1, 0.2, 0.3, 0.4):
        ours = always_counts[c]["cfmtl"]
        low = min(always_counts[c][b] for b in BASELINES)
        checks.append(
            (
                ours <= low,
                f"c={c:.0%}: discounted always-chargers {ours} not the minimum ({low})",
            )
        )
    r1 = reward_rows[0.1]
    _finish(
        "learned pricing beats uplift baselines on all discounts",
        900.0,
        started,
        checks,
        detail=(
            f"rewards at 10%: ours {r1['cfmtl']:.0f} vs "
            + "/".join(f"{r1[b]:.0f}" for b in BASELINES)
            + f"; always counts {always_counts[0.1]['cfmtl']} vs "
            + "/".join(str(always_counts[0.1][b]) for b in BASELINES)
        ),
    )


def test_incentive_share_peaks_in_evening(charging_bench):
    started = time.monotonic()
    universe = pricing.universe_arrays(charging_bench.items)
    winners, _ = pricing.discount_policy(charging_bench.model, universe)
    shares = pricing.strata_by_period(winners, universe.slots)
    inc = {label: by[Stratum.INCENTIVE_CHARGE] for label, by in shares.items()}
    evening = inc["18-24"]
    others = {k: v for k, v in inc.items() if k != "18-24"}
    checks = [
        (evening > v, f"incentive share in 18-24 ({evening:.3f}) not above {k} ({v:.3f})")
        for k, v in others.items()
    ]
    _finish(
        "predicted incentive demand peaks in the evening",
        None,
        started,
        checks,
        detail="shares " + " ".join(f"{k}:{v:.3f}" for k, v in sorted(inc.items())),
    )


# -------------------------------------------------------- end-to-end ordering


def test_full_stack_ordering_across_hubs(charging_bench):
    started = time.monotonic() - charging_bench.build_seconds
    c = 0.3
    base_price = 0.80
    decisions = cli._method_decisions(
        charging_bench.model,
        charging_bench.mu1,
        charging_bench.mu0,
        charging_bench.prop,
        charging_bench.items,
        charging_bench.observations,
        c,
    )
    stratum_of = {
        (it.station_id, it.slot_of_day): it.stratum for it in charging_bench.items
    }
    n = 49
    seeds = (0, 1, 2)
    methods = ("cfmtl",) + BASELINES
    # all 2 hubs x 4 methods x 3 seeds train, then evaluate, as one lockstep
    # population; each run computes exactly what it would alone
    runs, envs = [], []
    for station in (0, 126):
        for method in methods:
            srtp = np.full(n, base_price)
            occupancy = np.zeros(n, dtype=int)
            for t in range(n):
                sod = t % 24
                if (station, sod) not in stratum_of:
                    continue
                give = (station, sod) in decisions[method]
                if give:
                    srtp[t] = base_price * (1.0 - c)
                occupancy[t] = stratum_response(stratum_of[(station, sod)], give)
            env = _alternating_tariff_env(srtp, occupancy)
            for seed in seeds:
                runs.append((station, method, seed))
                envs.append(env)
    cfg = scheduler.PpoConfig(entropy_coef=0.005, episodes_train=500, episodes_test=3)
    bundles = [
        scheduler.PolicyBundle(env.state_dim, hidden=cfg.hidden, seed=seed)
        for env, (_, _, seed) in zip(envs, runs)
    ]
    scheduler.train(envs, bundles, cfg, [seed for _, _, seed in runs])
    scores = scheduler.evaluate(envs, bundles, 3, [1000 + seed for _, _, seed in runs])
    score = {run: value for run, value in zip(runs, scores)}

    checks = []
    summary = []
    for station in (0, 126):
        per_seed = {seed: {m: score[station, m, seed] for m in methods} for seed in seeds}
        wins = sum(
            1
            for seed in (0, 1, 2)
            if all(
                per_seed[seed]["cfmtl"] >= per_seed[seed][b] - 1e-9 for b in BASELINES
            )
        )
        checks.append(
            (
                wins >= 2,
                f"hub {station}: learned pricing on top for only {wins}/3 seeds",
            )
        )
        v = per_seed[0]
        summary.append(
            f"hub {station} ({wins}/3): "
            + " ".join(f"{m}={v[m]:.2f}" for m in ("cfmtl",) + BASELINES)
        )
    _finish(
        "full stack ordering across 2 hubs x 3 seeds",
        1800.0,
        started,
        checks,
        detail="; ".join(summary),
    )


# -------------------------------------------------------------- determinism


def test_pipeline_reruns_byte_identical(tmp_path):
    started = time.monotonic()
    run_dir = tmp_path / "run"
    config = {
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
    config_path = tmp_path / "run.yaml"
    with open(config_path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(config, fh)

    subcommands = ("gen-data", "train-price", "eval-price", "train-drl", "eval-drl", "report")
    for sub in subcommands:
        rc = cli.main([sub, "--config", str(config_path)])
        assert rc == 0, f"{sub} exited {rc}"
    csv_paths = sorted(p for p in run_dir.rglob("*.csv"))
    assert csv_paths, "pipeline produced no CSV output"
    first = {p: p.read_bytes() for p in csv_paths}

    for sub in subcommands:
        rc = cli.main([sub, "--config", str(config_path), "--force"])
        assert rc == 0, f"{sub} rerun exited {rc}"
    checks = [(sorted(run_dir.rglob("*.csv")) == csv_paths, "CSV file set changed")]
    n_same = 0
    for p, blob in first.items():
        same = p.read_bytes() == blob
        n_same += same
        checks.append((same, f"{p.name} differs between runs"))
    _finish(
        "pipeline rerun reproduces every CSV byte for byte",
        None,
        started,
        checks,
        detail=f"{n_same}/{len(first)} files identical across reruns",
    )
