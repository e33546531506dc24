"""Acceptance suite: one test per shipped guarantee.

Each test prints a single `[acceptance] <name>: PASS/FAIL (elapsed)` line
(run with `pytest -s` to see them) and asserts both the guarantee itself
and, where one applies, a wall-clock budget. The charging benchmark used
by the pricing, period-structure, and end-to-end tests is built once per
module; its build time is charged to the tests that depend on it. Its four
model fits run in parallel processes when more than one CPU is available,
and `test_pooled_pricing_fits_equal_the_serial_fits` (which prints no
verdict) checks that they give the serial fits' bits.
"""

import multiprocessing
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from fdcheck import (
    FD_STEP,
    REL_TOL,
    dense_grads,
    embed_mlp_grads,
    max_rel_err,
    ppo_objective_grads,
    pricing_loss_grads,
)
from reference import (
    brute_force_best,
    lattice_dp_case,
    pipeline_config,
    ppo_batch,
    profit_rows,
    random_walk,
)
from hubopt import cli, hub, nn, pricing, scheduler
from hubopt.traces import (
    SLOTS_PER_DAY,
    Stratum,
    TraceSet,
    gen_charging_population,
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


def test_energy_balance_identities():
    started = time.monotonic()
    rng = np.random.default_rng(202406)
    worst_balance = 0.0
    worst_exclusive = 0.0
    for cfg, inputs, out in random_walk(rng, 250, 40):  # 10k steps
        spec = cfg.battery
        net = out.p_bs_kw + out.p_cs_kw + out.p_bp_kw - inputs.p_wt_kw - inputs.p_pv_kw
        worst_balance = max(worst_balance, abs(out.p_grid_kw - out.curtailed_kw - net))
        worst_exclusive = max(worst_exclusive, out.p_grid_kw * out.curtailed_kw)
        assert out.p_grid_kw >= 0.0 and out.curtailed_kw >= 0.0
        assert spec.soc_min_kwh - 1e-9 <= out.soc_after_kwh <= spec.soc_max_kwh + 1e-9
        assert abs(out.profit - (out.revenue - out.cost_grid - out.cost_bp)) <= 1e-9
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
    return dense_grads(net, x, nn.mse_loss, target)


def _check_dense_nll(rng):
    k = int(rng.integers(2, 5))
    dims = [int(rng.integers(2, 6)), int(rng.integers(3, 7)), k]
    net = nn.DenseNet(dims, ["sigmoid", "softmax"], rng)
    x = rng.normal(size=(int(rng.integers(2, 7)), dims[0]))
    return dense_grads(net, x, nn.nll_loss, rng.integers(0, k, size=x.shape[0]))


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
    return embed_mlp_grads(model, stations, slots, rng.uniform(0.1, 0.9, size=n))


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
    return pricing_loss_grads(model, stations, slots, treated, charged)


def _check_ppo_objective(rng):
    state_dim = int(rng.integers(3, 6))
    bundle = scheduler.PolicyBundle(
        state_dim, hidden=(int(rng.integers(4, 8)),), seed=int(rng.integers(0, 1000))
    )
    cfg = scheduler.PpoConfig(entropy_coef=float(rng.choice([0.0, 0.3])))
    return ppo_objective_grads(bundle, ppo_batch(bundle, int(rng.integers(5, 10)), rng), cfg)


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
            err = max_rel_err(*checker(rng))
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


def test_exact_oracle_matches_enumeration():
    started = time.monotonic()
    rng = np.random.default_rng(77)
    mismatches = []
    for trial in range(20):
        cfg, inputs, initial, res = lattice_dp_case(rng, 8)
        profit, _ = scheduler.dp_oracle(cfg, profit_rows(cfg, inputs), initial, res)
        brute = brute_force_best(cfg, inputs, initial)
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
    traces = TraceSet(rtp, np.zeros(n), np.zeros(n), np.ones(n))
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
    dp_profit, _ = scheduler.dp_oracle(env.hub_cfg, profit_rows(env.hub_cfg, inputs), 0.0, 4.0)
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

# each pricing fit, with the model class of each model it returns
PRICING_FITS = (
    (pricing.train_cfmtl, (pricing.PricingModel,)),
    (pricing.fit_outcome_models, (nn.EmbedMlp, nn.EmbedMlp)),
    (pricing.fit_propensity_model, (nn.EmbedMlp,)),
)


def _fit_flats(fit, *args):
    """The flat parameter buffers of the models fit(*args) returns."""
    models = fit(*args)
    return [model.flat for model in (models if isinstance(models, tuple) else (models,))]


def fit_pricing_models(observations, cfg, n_stations, seed, processes):
    """The cfmtl, mu1, mu0 and propensity models, their fits run in a pool of
    processes workers, or in this process when processes is 1.

    Each fit gets n_stations and seed. A worker returns each model's flat
    buffer; the model is rebuilt here from cfg's architecture over n_stations
    and the buffer copied in, since an unpickled model's parameters are no
    longer views of its flat. The workers are spawned, not forked, because
    this process may hold BLAS threads.
    """
    jobs = [(fit, observations, cfg, n_stations, seed) for fit, _ in PRICING_FITS]
    if processes > 1:
        with multiprocessing.get_context("spawn").Pool(processes) as pool:
            flats = pool.starmap(_fit_flats, jobs, chunksize=1)
    else:
        flats = [_fit_flats(*job) for job in jobs]
    models = []
    for (_, classes), buffers in zip(PRICING_FITS, flats):
        for cls, flat in zip(classes, buffers, strict=True):
            model = cls(n_stations, SLOTS_PER_DAY, cfg.embed_dim, cfg.hidden, seed=None)
            model.flat[...] = flat
            models.append(model)
    return models


def test_pooled_pricing_fits_equal_the_serial_fits():
    _, records = gen_charging_population(
        3, 5, 24, (0.3, 0.2, 0.5), n_items=60, logged_policy="random"
    )
    observations = pricing.observations_from_records(records)
    cfg = pricing.PricingConfig(embed_dim=4, hidden=(6,), epochs=3)
    pooled = fit_pricing_models(observations, cfg, 5, 1, processes=2)
    serial = fit_pricing_models(observations, cfg, 5, 1, processes=1)
    stations, slots = observations.stations, observations.slots
    for a, b in zip(pooled, serial, strict=True):
        assert type(a) is type(b) and a.flat.tobytes() == b.flat.tobytes()
        # the rebuilt parameters are views of the copied-in buffer
        out_a, out_b = a.forward(stations, slots)[0], b.forward(stations, slots)[0]
        assert out_a.tobytes() == out_b.tobytes()


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
        embed_dim=16,
        hidden=(64, 32),
        lr=0.003,
        weight_decay=1e-4,
        batch_size=64,
        epochs=1200,
    )
    # the fits are independent: run them in parallel, unless this process may use one CPU
    processes = min(len(os.sched_getaffinity(0)), len(PRICING_FITS))
    model, mu1, mu0, prop = fit_pricing_models(observations, cfg, 352, 0, processes)
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
    _, chosen = cli._method_choices(
        charging_bench.model,
        charging_bench.mu1,
        charging_bench.mu0,
        charging_bench.prop,
        charging_bench.items,
        charging_bench.observations,
    )
    truth = charging_bench.items.strata
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
    winners, _ = pricing.discount_policy(charging_bench.model, charging_bench.items)
    shares = pricing.strata_by_period(winners, charging_bench.items.slots)
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
    run_cfg = cli.RunConfig(base_sell_price=0.80, discount=c)
    for station in (0, 126):
        for method in methods:
            series = cli._hub_series(run_cfg, decisions[method], stratum_of, station, n)
            env = _alternating_tariff_env(*series)
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
    config_path = tmp_path / "run.yaml"
    with open(config_path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(pipeline_config(run_dir), fh)

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
