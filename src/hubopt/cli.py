"""Experiment harness.

One directory per run holds the config snapshot, generated data, model
checkpoints, result CSVs, and a manifest. Subcommands move a run through its
stages: gen-data, train-price, eval-price, train-drl, eval-drl, report. One
global seed fixes every output byte-for-byte; reruns refuse to overwrite
existing outputs unless --force is given.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys

import numpy as np
import yaml

from . import hub, nn, pricing, scheduler
from .seeding import spawn_seed
from .traces import (
    SLOTS_PER_DAY,
    ChargingLog,
    TraceError,
    TraceSet,
    _fmt,
    _read_rows,
    _write_rows,
    check_population_args,
    check_rtp_base,
    gen_charging_population,
    gen_rtp,
    gen_traffic,
    gen_weather,
    load_csv,
    load_strata,
    load_traces,
    save_strata,
    save_traces,
    stratum_response,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TRAINING = 4

DISCOUNT_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
METHODS = ("cfmtl", "or", "ips", "dr")

PRICING_EVAL_HEADER = [
    "method",
    "discount",
    "none_count",
    "incentive_count",
    "always_count",
    "reward",
]
PERIOD_HEADER = ["period", "stratum", "share"]
CURVE_HEADER = ["episode", "total_reward", "mean_daily_reward"]
DRL_EVAL_HEADER = ["hub_id", "method", "avg_daily_reward"]


class DataError(RuntimeError):
    """A run-directory input is missing or unreadable."""


# -- configuration --------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class TraceGenConfig:
    days: int = 40
    n_stations: int = 32
    strata_priors: tuple[float, float, float] = (0.30, 0.25, 0.45)
    evening_boost: float = 2.5
    n_items: int | None = None
    logged_policy: str = "random"
    logged_discount: float = 0.3
    rtp_base: float = 0.10

    def __post_init__(self):
        if self.days <= 0:
            raise hub.ConfigError(f"traces.days must be positive, got {self.days}")
        if self.n_stations <= 0:
            raise hub.ConfigError(
                f"traces.n_stations must be positive, got {self.n_stations}"
            )
        check_population_args(
            self.n_stations,
            self.strata_priors,
            self.n_items,
            self.evening_boost,
            self.logged_policy,
            self.logged_discount,
        )
        # station 0's slots of day fill first; eval-price tabulates every quarter
        last = pricing.PERIODS[-1][0]
        if self.n_items is not None and self.n_items <= last:
            raise hub.ConfigError(
                f"n_items must be at least {last + 1}, got {self.n_items}: {last + 1} items "
                f"reach slot {last}, the first slot of the last quarter of the day"
            )
        check_rtp_base(self.rtp_base)

    @property
    def n_slots(self) -> int:
        return self.days * SLOTS_PER_DAY


@dataclasses.dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    out_dir: str = "run"
    n_hubs: int = 1
    hub: hub.HubConfig = dataclasses.field(default_factory=hub.HubConfig)
    traces: TraceGenConfig = dataclasses.field(default_factory=TraceGenConfig)
    pricing: pricing.PricingConfig = dataclasses.field(
        default_factory=pricing.PricingConfig
    )
    discount: float = 0.3
    base_sell_price: float = 0.25
    env: scheduler.EnvConfig = dataclasses.field(default_factory=scheduler.EnvConfig)
    ppo: scheduler.PpoConfig = dataclasses.field(default_factory=scheduler.PpoConfig)

    def __post_init__(self):
        if not 0 <= self.seed < 2**32:
            raise hub.ConfigError(f"seed must be in [0, 2**32), got {self.seed}")
        if not self.out_dir:
            raise hub.ConfigError(f"out_dir must be a nonempty string, got {self.out_dir!r}")
        if not 0.0 < self.discount < 1.0:
            raise hub.ConfigError(
                f"pricing.discount must be in (0, 1), got {self.discount}"
            )
        if self.base_sell_price <= 0:
            raise hub.ConfigError(
                f"pricing.base_sell_price must be positive, got {self.base_sell_price}"
            )
        if self.hub.slot_hours != 1.0:
            # the traces, SLOTS_PER_DAY and the pricing slot of day are all hourly
            raise hub.ConfigError(
                f"hub.slot_hours must be 1.0 (the traces are hourly), got {self.hub.slot_hours}"
            )
        if self.n_hubs < 1:
            raise hub.ConfigError(f"n_hubs must be at least 1, got {self.n_hubs}")
        if self.n_hubs > self.traces.n_stations:
            raise hub.ConfigError(
                f"n_hubs={self.n_hubs} exceeds traces.n_stations={self.traces.n_stations}"
            )
        spec, soc = self.hub.battery, self.env.initial_soc_kwh
        if soc is not None and not spec.soc_min_kwh <= soc <= spec.soc_max_kwh:
            raise hub.ConfigError(
                f"initial soc {float(soc)} outside [{spec.soc_min_kwh}, {spec.soc_max_kwh}]"
            )


def run_config_from_dict(raw: dict) -> RunConfig:
    """Build the full run configuration, rejecting unknown keys and mistyped
    values everywhere.

    There is one seed; the per-module seeds are derived from it, so a config
    cannot partially pin randomness. The YAML layout follows RunConfig but for
    two sections: pricing also carries RunConfig's discount and
    base_sell_price, and ppo also carries the EnvConfig fields.
    """
    top = hub.config_mapping(raw, "run")
    hub_cfg = hub.hub_config_from_dict(top.pop("hub", None))
    pricing_raw = hub.config_mapping(top.pop("pricing", None), "pricing")
    ppo_raw = hub.config_mapping(top.pop("ppo", None), "ppo")
    sell = {k: pricing_raw.pop(k) for k in ("discount", "base_sell_price") if k in pricing_raw}
    env_keys = [f.name for f in dataclasses.fields(scheduler.EnvConfig)]
    env_raw = {k: ppo_raw.pop(k) for k in env_keys if k in ppo_raw}
    return hub.config_from_dict(
        RunConfig,
        top,
        "run",
        skip=("discount", "base_sell_price"),
        hub=hub_cfg,
        pricing=hub.config_from_dict(
            pricing.PricingConfig,
            pricing_raw,
            "pricing",
            skip=("n_stations", "seed"),
        ),
        env=hub.config_from_dict(scheduler.EnvConfig, env_raw, "ppo"),
        ppo=hub.config_from_dict(scheduler.PpoConfig, ppo_raw, "ppo"),
        **sell,
    )


def load_run_config(path: str, seed_override: int | None = None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise hub.ConfigError(f"config file not found: {exc.filename}") from exc
    except OSError as exc:
        raise hub.ConfigError(f"cannot read config {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise hub.ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise hub.ConfigError(f"cannot parse {path}: {exc}") from exc
    if raw is None:
        raise hub.ConfigError(f"{path} is empty")
    cfg = run_config_from_dict(raw)
    if seed_override is not None:
        cfg = dataclasses.replace(cfg, seed=seed_override)
    return cfg


def config_snapshot_dict(cfg: RunConfig) -> dict:
    """The semantic config as plain YAML-safe data; out_dir is excluded so a
    relocated run directory still matches its snapshot."""

    def plain(value):
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            return {k: plain(v) for k, v in dataclasses.asdict(value).items()}
        if isinstance(value, tuple):
            return [plain(v) for v in value]
        if isinstance(value, (np.integer,)):
            return int(value)
        if isinstance(value, (np.floating,)):
            return float(value)
        return value

    data = {
        "seed": cfg.seed,
        "n_hubs": cfg.n_hubs,
        "hub": plain(cfg.hub),
        "traces": plain(cfg.traces),
        "pricing": plain(cfg.pricing),
        "discount": cfg.discount,
        "base_sell_price": cfg.base_sell_price,
        "env": plain(cfg.env),
        "ppo": plain(cfg.ppo),
    }
    return data


def resolve_out_dir(cfg: RunConfig, cli_out: str | None) -> str:
    """--out beats the config; $HUBOPT_OUT prefixes relative paths."""
    out = cli_out if cli_out else cfg.out_dir
    root = os.environ.get("HUBOPT_OUT")
    if root and not os.path.isabs(out):
        out = os.path.join(root, out)
    return out


# -- run-directory bookkeeping ----------------------------------------------------


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _update_manifest(run_dir: str, stage: str, paths: list[str]) -> None:
    manifest_path = os.path.join(run_dir, "manifest.json")
    manifest = {"stages": {}}
    if os.path.exists(manifest_path):
        try:
            with open(manifest_path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DataError(f"cannot read {manifest_path}: {exc}") from exc
        if not isinstance(manifest, dict) or not isinstance(manifest.get("stages"), dict):
            raise DataError(f"{manifest_path} has no stages mapping")
    manifest["stages"][stage] = {
        os.path.relpath(p, run_dir): _sha256(p) for p in sorted(paths)
    }
    with nn._replacing(manifest_path) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_snapshot(cfg: RunConfig, run_dir: str, force: bool) -> None:
    """Pin the config the run was produced with; later stages must match it."""
    path = os.path.join(run_dir, "config.yaml")
    text = yaml.safe_dump(config_snapshot_dict(cfg), sort_keys=True)
    if os.path.exists(path) and not force:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            existing = fh.read()
        if existing != text:
            raise hub.ConfigError(
                f"{path} was written with a different configuration; "
                "rerun with --force to replace the snapshot"
            )
        return
    with nn._replacing(path) as fh:
        fh.write(text)


def _refuse_overwrite(paths: list[str], force: bool) -> None:
    if force:
        return
    existing = [p for p in paths if os.path.exists(p)]
    if existing:
        raise hub.ConfigError(
            f"refusing to overwrite {existing[0]} (and "
            f"{len(existing) - 1} more); pass --force to regenerate"
        )


# -- subcommands ----------------------------------------------------------------


def cmd_gen_data(cfg: RunConfig, run_dir: str, force: bool) -> None:
    data_dir = os.path.join(run_dir, "data")
    targets = [
        os.path.join(data_dir, name)
        for name in ("rtp.csv", "weather.csv", "traffic.csv", "charging.csv", "strata.csv")
    ]
    _refuse_overwrite(targets, force)
    os.makedirs(data_dir, exist_ok=True)
    _write_snapshot(cfg, run_dir, force)

    n_slots = cfg.traces.n_slots
    rtp = gen_rtp(spawn_seed(cfg.seed, "traces", "rtp"), n_slots, base=cfg.traces.rtp_base)
    wind, irr = gen_weather(spawn_seed(cfg.seed, "traces", "weather"), n_slots)
    load = gen_traffic(spawn_seed(cfg.seed, "traces", "traffic"), n_slots)
    items, log = gen_charging_population(
        spawn_seed(cfg.seed, "traces", "population"),
        cfg.traces.n_stations,
        n_slots,
        cfg.traces.strata_priors,
        n_items=cfg.traces.n_items,
        evening_boost=cfg.traces.evening_boost,
        logged_policy=cfg.traces.logged_policy,
        logged_discount=cfg.traces.logged_discount,
    )
    traces = TraceSet(rtp, wind, irr, load, log)
    paths = save_traces(traces, data_dir)
    strata_path = os.path.join(data_dir, "strata.csv")
    save_strata(strata_path, items)
    paths.append(strata_path)
    _update_manifest(run_dir, "gen-data", paths)
    print(f"wrote {len(paths)} data files under {data_dir}")


def _require(path: str) -> str:
    if not os.path.exists(path):
        raise DataError(f"missing {path}; run the earlier stages first")
    return path


def _checkpoint_paths(run_dir: str) -> dict[str, str]:
    ck = os.path.join(run_dir, "checkpoints")
    return {
        "cfmtl": os.path.join(ck, "pricing_cfmtl.json"),
        "mu1": os.path.join(ck, "pricing_mu1.json"),
        "mu0": os.path.join(ck, "pricing_mu0.json"),
        "prop": os.path.join(ck, "pricing_prop.json"),
    }


def cmd_train_price(cfg: RunConfig, run_dir: str, force: bool) -> None:
    _write_snapshot(cfg, run_dir, force)
    charging = _require(os.path.join(run_dir, "data", "charging.csv"))
    paths = _checkpoint_paths(run_dir)
    _refuse_overwrite(list(paths.values()), force)
    os.makedirs(os.path.join(run_dir, "checkpoints"), exist_ok=True)

    log = load_csv(charging, "charging")
    observations = pricing.observations_from_records(log)
    n_stations = cfg.traces.n_stations
    outside = (observations.stations < 0) | (observations.stations >= n_stations)
    if outside.any():
        j = int(outside.argmax())
        raise DataError(
            f"{charging}: record {j} (station {observations.stations[j]}, slot of day "
            f"{observations.slots[j]}) is outside the run's {n_stations} stations "
            "(traces.n_stations)"
        )
    pcfg = dataclasses.replace(
        cfg.pricing,
        n_stations=n_stations,
        seed=spawn_seed(cfg.seed, "pricing"),
    )
    model = pricing.train_cfmtl(observations, pcfg)
    model.save(paths["cfmtl"])
    mu1, mu0 = pricing.fit_outcome_models(observations, pcfg)
    mu1.save(paths["mu1"])
    mu0.save(paths["mu0"])
    prop = pricing.fit_propensity_model(observations, pcfg)
    prop.save(paths["prop"])
    _update_manifest(run_dir, "train-price", list(paths.values()))
    print(f"wrote 4 pricing checkpoints under {os.path.join(run_dir, 'checkpoints')}")


def _load_pricing_models(run_dir: str):
    paths = _checkpoint_paths(run_dir)
    for p in paths.values():
        _require(p)
    model = pricing.PricingModel.from_checkpoint(paths["cfmtl"])
    mu1 = nn.EmbedMlp.from_checkpoint(paths["mu1"])
    mu0 = nn.EmbedMlp.from_checkpoint(paths["mu0"])
    prop = nn.EmbedMlp.from_checkpoint(paths["prop"])
    return model, mu1, mu0, prop


def _load_population(run_dir: str, log: ChargingLog | None = None, n_stations: int | None = None):
    """The item universe and the logged observations.

    log is the run's charging log when the caller has already read it. Every
    item's station must be below n_stations, when given, and every logged
    (station, slot of day) must be an item.
    """
    strata_path = _require(os.path.join(run_dir, "data", "strata.csv"))
    charging_path = os.path.join(run_dir, "data", "charging.csv")
    items = load_strata(strata_path)
    if log is None:
        log = load_csv(_require(charging_path), "charging")
    observations = pricing.observations_from_records(log)
    stations = np.array([it.station_id for it in items], dtype=np.int64)
    top = int(stations.max(initial=-1))
    if n_stations is not None and top >= n_stations:
        raise DataError(
            f"{strata_path}: station {top} is outside the run's {n_stations} stations "
            "(traces.n_stations)"
        )
    known = np.zeros((top + 1, SLOTS_PER_DAY), dtype=bool)
    known[stations, [it.slot_of_day for it in items]] = True
    found = (observations.stations >= 0) & (observations.stations <= top)
    found[found] = known[observations.stations[found], observations.slots[found]]
    if not found.all():
        j = int(found.argmin())
        raise DataError(
            f"{charging_path}: record {j} (station {observations.stations[j]}, slot of day "
            f"{observations.slots[j]}) has no item in {strata_path}"
        )
    return items, observations


def _method_choices(model, mu1, mu0, prop, items, observations):
    """The universe, each item's predicted stratum, and each method's mask.

    Nothing here depends on the discount rate, so a stage computes it once.
    The learned policy discounts the items predicted incentive-charge;
    baselines discount their top k by uplift, where k is the number of items
    the learned policy discounts.
    """
    universe = pricing.universe_arrays(items)
    winners, ours = pricing.discount_policy(model, universe)
    k = int(ours.sum())
    scores = pricing.uplift_scores(observations, mu1, mu0, prop, universe)
    chosen = {"cfmtl": ours}
    for name in ("or", "ips", "dr"):
        chosen[name] = pricing.top_k_policy(universe, scores[name], k)
    return universe, winners, chosen


def _method_decisions(model, mu1, mu0, prop, items, observations, c: float):
    """Per method, {(station, slot of day): c} over the items it discounts."""
    universe, _, chosen = _method_choices(model, mu1, mu0, prop, items, observations)
    return {
        method: {key: c for key, g in zip(universe.keys, give.tolist()) if g}
        for method, give in chosen.items()
    }


def cmd_eval_price(cfg: RunConfig, run_dir: str, force: bool) -> None:
    _write_snapshot(cfg, run_dir, force)
    results_dir = os.path.join(run_dir, "results")
    eval_path = os.path.join(results_dir, "pricing_eval.csv")
    period_path = os.path.join(results_dir, "strata_by_period.csv")
    _refuse_overwrite([eval_path, period_path], force)

    model, mu1, mu0, prop = _load_pricing_models(run_dir)
    items, observations = _load_population(run_dir, n_stations=cfg.traces.n_stations)
    universe, winners, chosen = _method_choices(
        model, mu1, mu0, prop, items, observations
    )
    truth = pricing.strata_columns(items)
    try:
        shares = pricing.strata_by_period(winners, universe.slots)
    except ValueError as exc:
        raise DataError(f"{os.path.join(run_dir, 'data', 'strata.csv')}: {exc}") from exc

    os.makedirs(results_dir, exist_ok=True)
    rows = []
    for c in DISCOUNT_GRID:
        for method in METHODS:
            result = pricing.evaluate_policy(truth, chosen[method], c)
            rows.append(
                (
                    method,
                    _fmt(c),
                    result.none_count,
                    result.incentive_count,
                    result.always_count,
                    _fmt(result.reward),
                )
            )
    _write_rows(eval_path, PRICING_EVAL_HEADER, rows)

    period_rows = [
        (label, stratum.value, _fmt(share))
        for label, by_stratum in shares.items()
        for stratum, share in by_stratum.items()
    ]
    _write_rows(period_path, PERIOD_HEADER, period_rows)
    _update_manifest(run_dir, "eval-price", [eval_path, period_path])
    print(f"wrote {len(rows)} evaluation rows to {eval_path}")


def _hub_series(cfg: RunConfig, decisions, stratum_of, hub_id: int, n_slots: int):
    """Per-slot selling price and charging occupancy induced by one policy.

    decisions maps each discounted (station, slot of day) to its rate. Both
    series repeat daily, so one day's table is built and tiled over n_slots.
    """
    srtp = np.full(SLOTS_PER_DAY, cfg.base_sell_price)
    occupancy = np.zeros(SLOTS_PER_DAY, dtype=int)
    for sod in range(SLOTS_PER_DAY):
        key = (hub_id, sod)
        if key not in stratum_of:
            continue  # item truncated out of the universe: no EV demand
        rate = decisions.get(key)
        if rate is not None:
            srtp[sod] = cfg.base_sell_price * (1.0 - rate)
        occupancy[sod] = stratum_response(stratum_of[key], rate is not None)
    day = np.arange(n_slots) % SLOTS_PER_DAY
    return srtp[day], occupancy[day]


def _build_env(cfg: RunConfig, traces, srtp, occupancy, hub_id: int, method: str):
    """The environment of run (hub_id, method); it draws nothing itself, as
    every episode is reset from a seed its caller derives for the run."""
    return scheduler.HubEnv(cfg.hub, cfg.env, traces, srtp, occupancy)


def _drl_envs(cfg: RunConfig, run_dir: str):
    """Every (hub, method) run of the DRL stages and its environment, in that order.

    All the environments are held at once and read only the trace series, so
    the charging log and the pricing inputs are released before they are built.
    """
    traces = load_traces(os.path.join(run_dir, "data"))
    model, mu1, mu0, prop = _load_pricing_models(run_dir)
    items, observations = _load_population(run_dir, traces.charging, cfg.traces.n_stations)
    stratum_of = {(it.station_id, it.slot_of_day): it.stratum for it in items}
    decisions = _method_decisions(model, mu1, mu0, prop, items, observations, cfg.discount)
    runs = [(hub_id, method) for hub_id in range(cfg.n_hubs) for method in METHODS]
    series = [
        _hub_series(cfg, decisions[method], stratum_of, hub_id, traces.n_slots)
        for hub_id, method in runs
    ]
    del model, mu1, mu0, prop, items, observations, decisions
    traces = dataclasses.replace(traces, charging=None)
    envs = [
        _build_env(cfg, traces, srtp, occupancy, hub_id, method)
        for (hub_id, method), (srtp, occupancy) in zip(runs, series)
    ]
    return runs, envs


def cmd_train_drl(cfg: RunConfig, run_dir: str, force: bool) -> None:
    _write_snapshot(cfg, run_dir, force)
    runs, envs = _drl_envs(cfg, run_dir)

    ck_dir = os.path.join(run_dir, "checkpoints")
    results_dir = os.path.join(run_dir, "results")
    targets = []
    for hub_id in range(cfg.n_hubs):
        for method in METHODS:
            targets.append(os.path.join(ck_dir, f"drl_hub{hub_id}_{method}.json"))
            targets.append(os.path.join(results_dir, f"curve_hub{hub_id}_{method}.csv"))
    _refuse_overwrite(targets, force)
    os.makedirs(ck_dir, exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)

    bundles = [
        scheduler.PolicyBundle(
            env.state_dim,
            hidden=cfg.ppo.hidden,
            seed=spawn_seed(cfg.seed, "drl-init", hub_id, method),
        )
        for (hub_id, method), env in zip(runs, envs)
    ]
    seeds = [spawn_seed(cfg.seed, "drl-train", hub_id, method) for hub_id, method in runs]
    try:
        curves = scheduler.train(envs, bundles, cfg.ppo, seeds)
    except scheduler.TrainingAbort as exc:
        hub_id, method = runs[exc.run]
        raise scheduler.TrainingAbort(f"hub {hub_id} {method}: {exc}", run=exc.run) from exc

    written = []
    for (hub_id, method), bundle, curve in zip(runs, bundles, curves):
        ck_path = os.path.join(ck_dir, f"drl_hub{hub_id}_{method}.json")
        bundle.save(ck_path)
        curve_path = os.path.join(results_dir, f"curve_hub{hub_id}_{method}.csv")
        _write_rows(
            curve_path,
            CURVE_HEADER,
            ((e, _fmt(total), _fmt(daily)) for e, total, daily in curve),
        )
        written += [ck_path, curve_path]
        print(f"hub {hub_id} {method}: trained {len(curve)} episodes")
    _update_manifest(run_dir, "train-drl", written)


def cmd_eval_drl(cfg: RunConfig, run_dir: str, force: bool) -> None:
    _write_snapshot(cfg, run_dir, force)
    eval_path = os.path.join(run_dir, "results", "drl_eval.csv")
    _refuse_overwrite([eval_path], force)

    runs, envs = _drl_envs(cfg, run_dir)
    bundles = [
        scheduler.PolicyBundle.from_checkpoint(
            _require(os.path.join(run_dir, "checkpoints", f"drl_hub{hub_id}_{method}.json"))
        )
        for hub_id, method in runs
    ]
    # one eval seed per hub: every method replays the same episodes
    seeds = [spawn_seed(cfg.seed, "drl-eval", hub_id) for hub_id, _ in runs]
    means = scheduler.evaluate(envs, bundles, cfg.ppo.episodes_test, seeds)

    os.makedirs(os.path.join(run_dir, "results"), exist_ok=True)
    rows = [(hub_id, method, _fmt(avg)) for (hub_id, method), avg in zip(runs, means)]
    _write_rows(eval_path, DRL_EVAL_HEADER, rows)
    _update_manifest(run_dir, "eval-drl", [eval_path])
    print(f"wrote {len(rows)} evaluation rows to {eval_path}")


def cmd_report(run_dir: str, force: bool) -> None:
    results_dir = os.path.join(run_dir, "results")
    report_dir = os.path.join(run_dir, "report")
    pricing_out = os.path.join(report_dir, "pricing_report.csv")
    drl_out = os.path.join(report_dir, "drl_report.csv")

    pricing_path = os.path.join(results_dir, "pricing_eval.csv")
    drl_path = os.path.join(results_dir, "drl_eval.csv")
    have_pricing = os.path.exists(pricing_path)
    have_drl = os.path.exists(drl_path)
    if not have_pricing and not have_drl:
        raise DataError(f"no result CSVs under {results_dir}; nothing to report")

    _refuse_overwrite([pricing_out, drl_out], force)
    os.makedirs(report_dir, exist_ok=True)
    written = []

    if have_pricing:
        rows = []
        _, table = _read_rows(_require(pricing_path), PRICING_EVAL_HEADER)
        for method, discount, none_n, inc_n, alw_n, reward in table:
            for metric, value in (
                ("none_count", none_n),
                ("incentive_count", inc_n),
                ("always_count", alw_n),
                ("reward", reward),
            ):
                rows.append((method, discount, metric, value))
        _write_rows(pricing_out, ["method", "discount", "metric", "value"], rows)
        written.append(pricing_out)

    if have_drl:
        rows = []
        _, table = _read_rows(_require(drl_path), DRL_EVAL_HEADER)
        for hub_id, method, avg in table:
            rows.append((hub_id, method, "avg_daily_reward", "", avg))
        for name in sorted(os.listdir(results_dir)):
            if not (name.startswith("curve_hub") and name.endswith(".csv")):
                continue
            stem = name[len("curve_") : -len(".csv")]
            hub_id, _, method = stem.partition("_")
            hub_id = hub_id[len("hub") :]
            _, curve = _read_rows(_require(os.path.join(results_dir, name)), CURVE_HEADER)
            for episode, total, daily in curve:
                rows.append((hub_id, method, "total_reward", episode, total))
                rows.append((hub_id, method, "mean_daily_reward", episode, daily))
        _write_rows(
            drl_out, ["hub_id", "method", "metric", "episode", "value"], rows
        )
        written.append(drl_out)
    else:
        print("warning: no DRL results found; reporting pricing only", file=sys.stderr)

    _update_manifest(run_dir, "report", written)
    print(f"wrote {len(written)} report tables under {report_dir}")


# -- entry point ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hubopt",
        description="Energy-hub simulation and learning experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_config in (
        ("gen-data", True),
        ("train-price", True),
        ("eval-price", True),
        ("train-drl", True),
        ("eval-drl", True),
        ("report", False),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=needs_config, help="run config YAML")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="run directory (overrides config)")
        p.add_argument(
            "--force", action="store_true", help="overwrite existing outputs"
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            if args.command == "report":
                if args.config:
                    cfg = load_run_config(args.config, args.seed)
                    run_dir = resolve_out_dir(cfg, args.out)
                elif args.out:
                    run_dir = resolve_out_dir(RunConfig(out_dir=args.out), None)
                else:
                    raise hub.ConfigError(
                        "report needs --config or --out to find the run"
                    )
                cmd_report(run_dir, args.force)
                return EXIT_OK
            cfg = load_run_config(args.config, args.seed)
            run_dir = resolve_out_dir(cfg, args.out)
            os.makedirs(run_dir, exist_ok=True)
            handler = {
                "gen-data": cmd_gen_data,
                "train-price": cmd_train_price,
                "eval-price": cmd_eval_price,
                "train-drl": cmd_train_drl,
                "eval-drl": cmd_eval_drl,
            }[args.command]
            handler(cfg, run_dir, args.force)
            return EXIT_OK
        except scheduler.TrainingAbort as exc:
            print(f"training aborted: {exc}", file=sys.stderr)
            return EXIT_TRAINING
        except (DataError, TraceError, nn.CheckpointError) as exc:
            print(f"data error: {exc}", file=sys.stderr)
            return EXIT_DATA
        except OSError as exc:
            print(f"data error: {exc}", file=sys.stderr)
            return EXIT_DATA
    except ValueError as exc:
        # covers ConfigError plus bad values surfacing from any module
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
