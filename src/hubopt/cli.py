"""Experiment harness.

One directory per run holds the config snapshot, generated data, model
checkpoints, result CSVs, and a manifest. Subcommands move a run through its
stages: gen-data, train-price, eval-price, train-drl, eval-drl, report. One
global seed fixes every output byte-for-byte; reruns refuse to overwrite
existing outputs unless --force is given. STAGES declares the files each
stage reads and writes, and run_stage checks them around the stage.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import typing

import numpy as np
import yaml

from . import hub, nn, pricing, scheduler
from .seeding import spawn_seed
from .traces import (
    _STRATUM_NAMES,
    CHARGING_HEADER,
    SLOTS_PER_DAY,
    STRATA_HEADER,
    TraceError,
    TraceSet,
    Universe,
    _fmt,
    _read_rows,
    _read_table,
    _repeats,
    _write_rows,
    gen_charging_population,
    gen_rtp,
    gen_traffic,
    gen_weather,
    load_csv,
    load_traces,
    save_strata,
    save_traces,
    stratum_response,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TRAINING = 4

DATA_FILES = ("rtp.csv", "weather.csv", "traffic.csv", "charging.csv", "strata.csv")
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
DISCOUNTS_HEADER = ["method", "station_id", "slot_of_day", "discount"]
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
        # the generators do not check their arguments again
        priors = np.asarray(self.strata_priors, dtype=np.float64)
        if priors.shape != (3,):
            raise hub.ConfigError(f"strata_priors must have 3 entries, got {priors.shape}")
        if priors.min() < 0 or abs(priors.sum() - 1.0) > 1e-9:
            raise hub.ConfigError(
                f"strata_priors must be nonnegative and sum to 1, got {priors}"
            )
        if self.evening_boost <= 0:
            raise hub.ConfigError(f"evening_boost must be positive, got {self.evening_boost}")
        if self.logged_policy not in ("random", "confounded"):
            raise hub.ConfigError(
                f"logged_policy must be 'random' or 'confounded', got {self.logged_policy!r}"
            )
        if not 0.0 < self.logged_discount < 1.0:
            raise hub.ConfigError(
                f"logged_discount must be in (0, 1), got {self.logged_discount}"
            )
        # station 0's slots of day fill first; eval-price tabulates every quarter
        low, high = pricing.PERIODS[-1][0] + 1, self.n_stations * SLOTS_PER_DAY
        if self.n_items is not None and not low <= self.n_items <= high:
            raise hub.ConfigError(
                f"n_items must be in [{low}, {high}] ({self.n_stations} stations x "
                f"{SLOTS_PER_DAY} slots), got {self.n_items}: {low} items reach slot "
                f"{low - 1}, the first slot of the last quarter of the day"
            )
        if self.rtp_base < 0:
            raise hub.ConfigError(f"rtp_base must be nonnegative, got {self.rtp_base}")

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


# The run config file follows RunConfig, but for the sections that also carry
# other RunConfig fields: pricing carries discount and base_sell_price, and ppo
# carries env, whose EnvConfig fields sit beside the PpoConfig ones.
CARRIED = {"pricing": ("discount", "base_sell_price"), "ppo": ("env",)}


def run_config_from_dict(raw: dict) -> RunConfig:
    """Build the full run configuration, rejecting unknown keys and mistyped
    values everywhere.

    There is one seed; the per-module seeds are derived from it, so a config
    cannot partially pin randomness.
    """
    top = hub.config_mapping(raw, "run")
    hints = typing.get_type_hints(RunConfig)
    given = {}
    for section, carried in CARRIED.items():
        keys = hub.config_mapping(top.pop(section, None), section)
        for name in carried:
            if dataclasses.is_dataclass(hints[name]):
                own = [f.name for f in dataclasses.fields(hints[name]) if f.name in keys]
                given[name] = hub.config_from_dict(
                    hints[name], {k: keys.pop(k) for k in own}, section
                )
            else:
                given[name] = keys.pop(name, getattr(RunConfig, name))
        given[section] = keys
    return hub.config_from_dict(RunConfig, top, "run", **given)


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
    """The config as the YAML mapping run_config_from_dict reads, so a run's
    config.yaml is a valid --config; out_dir is excluded so a relocated run
    directory still matches its snapshot."""
    snap = json.loads(json.dumps(dataclasses.asdict(cfg)))  # tuples become lists
    del snap["out_dir"]
    for section, carried in CARRIED.items():
        for name in carried:
            value = snap.pop(name)
            snap[section].update(value if isinstance(value, dict) else {name: value})
    return snap


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


def _read_manifest(run_dir: str) -> dict:
    """manifest.json, or an empty manifest before any stage has written one."""
    path = os.path.join(run_dir, "manifest.json")
    if not os.path.exists(path):
        return {"stages": {}}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("stages"), dict):
        raise DataError(f"{path} has no stages mapping")
    return manifest


def _update_manifest(run_dir: str, stage: str, paths: list[str]) -> None:
    manifest = _read_manifest(run_dir)
    manifest["stages"][stage] = {
        os.path.relpath(p, run_dir): _sha256(p) for p in sorted(paths)
    }
    with nn._replacing(os.path.join(run_dir, "manifest.json")) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_snapshot(cfg: RunConfig, run_dir: str, force: bool, inputs=()) -> None:
    """Pin the config the run was produced with; later stages must match it.

    inputs are the files the stage reads. Each must exist before the snapshot
    is written, so a stage that cannot start pins no configuration.
    """
    path = os.path.join(run_dir, "config.yaml")
    text = yaml.safe_dump(config_snapshot_dict(cfg), sort_keys=True)
    pinned = os.path.exists(path) and not force
    if pinned:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            existing = fh.read()
        if existing != text:
            raise hub.ConfigError(
                f"{path} was written with a different configuration; "
                "rerun with --force to replace the snapshot"
            )
    for p in inputs:
        _require(p)
    if not pinned:
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


def _require(path: str) -> None:
    if not os.path.exists(path):
        raise DataError(f"missing {path}; run the earlier stages first")


def _paths(run_dir: str, folder: str, *names: str) -> list[str]:
    return [os.path.join(run_dir, folder, name) for name in names]


# -- subcommands ----------------------------------------------------------------


def cmd_gen_data(cfg: RunConfig, run_dir: str) -> None:
    data_dir = os.path.join(run_dir, "data")
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
    save_traces(TraceSet(rtp, wind, irr, load), log, data_dir)
    save_strata(os.path.join(data_dir, "strata.csv"), items)
    print(f"wrote {len(DATA_FILES)} data files under {data_dir}")


def _checkpoint_paths(run_dir: str) -> dict[str, str]:
    ck = os.path.join(run_dir, "checkpoints")
    return {
        "cfmtl": os.path.join(ck, "pricing_cfmtl.json"),
        "mu1": os.path.join(ck, "pricing_mu1.json"),
        "mu0": os.path.join(ck, "pricing_mu0.json"),
        "prop": os.path.join(ck, "pricing_prop.json"),
    }


def cmd_train_price(cfg: RunConfig, run_dir: str) -> None:
    charging = os.path.join(run_dir, "data", "charging.csv")
    paths = _checkpoint_paths(run_dir)
    log = load_csv(charging, "charging")
    observations = pricing.observations_from_records(log)
    n_stations = cfg.traces.n_stations
    outside = (observations.stations < 0) | (observations.stations >= n_stations)
    if outside.any():
        j = int(outside.argmax())
        raise DataError(
            f"{charging} line {_line(charging, CHARGING_HEADER, j)}: station "
            f"{observations.stations[j]} is outside the run's {n_stations} stations "
            "(traces.n_stations)"
        )
    treated = int(log.discount_given.sum())
    if treated in (0, len(log)):
        raise DataError(
            f"{charging}: {treated} of its {len(log)} records were discounted; "
            "training needs both discounted and undiscounted records"
        )
    seed = spawn_seed(cfg.seed, "pricing")
    model = pricing.train_cfmtl(observations, cfg.pricing, n_stations, seed)
    model.save(paths["cfmtl"])
    mu1, mu0 = pricing.fit_outcome_models(observations, cfg.pricing, n_stations, seed)
    mu1.save(paths["mu1"])
    mu0.save(paths["mu0"])
    prop = pricing.fit_propensity_model(observations, cfg.pricing, n_stations, seed)
    prop.save(paths["prop"])
    print(f"wrote 4 pricing checkpoints under {os.path.join(run_dir, 'checkpoints')}")


def _load_checkpoint(cls, path: str, stage: str, **expected):
    """cls.from_checkpoint(path), refused unless every architecture field it
    records (a META key) has the value the run config gives it in expected."""
    model = cls.from_checkpoint(path)
    for key, want in expected.items():
        if getattr(model, key) != want:
            raise nn.CheckpointError(
                f"{path} was trained with {key} {getattr(model, key)}, but the run config "
                f"gives {want}; rerun {stage} with --force"
            )
    return model


def _load_pricing_models(run_dir: str, cfg: RunConfig | None = None):
    """The four pricing models; with cfg, each must have the shape train-price
    builds from it."""
    shape = {}
    if cfg is not None:
        shape = {
            "n_stations": cfg.traces.n_stations,
            "n_slots": SLOTS_PER_DAY,
            "embed_dim": cfg.pricing.embed_dim,
            "hidden": cfg.pricing.hidden,
        }
    paths = _checkpoint_paths(run_dir)
    model = _load_checkpoint(pricing.PricingModel, paths["cfmtl"], "train-price", **shape)
    mu1, mu0, prop = (
        _load_checkpoint(nn.EmbedMlp, paths[name], "train-price", **shape)
        for name in ("mu1", "mu0", "prop")
    )
    return model, mu1, mu0, prop


def _line(path: str, header: list[str], i: int) -> int:
    """The file line of data row i of a CSV that load_csv accepted, whose rows
    are the file's non-blank lines in order."""
    lines, _ = _read_rows(path, header)
    return lines[i]


def _load_items(run_dir: str, n_stations: int | None = None) -> Universe:
    """The item universe of strata.csv; every item's station must be below
    n_stations, when given."""
    strata_path = os.path.join(run_dir, "data", "strata.csv")
    universe = load_csv(strata_path, "strata")
    if n_stations is not None and universe.stations.max(initial=-1) >= n_stations:
        i = int(np.argmax(universe.stations >= n_stations))
        raise DataError(
            f"{strata_path} line {_line(strata_path, STRATA_HEADER, i)}: station "
            f"{universe.stations[i]} is outside the run's {n_stations} stations "
            "(traces.n_stations)"
        )
    return universe


def _load_population(run_dir: str, n_stations: int | None = None):
    """The item universe and the logged observations.

    Every item's station must be below n_stations, when given, and every
    logged (station, slot of day) must be an item.
    """
    strata_path = os.path.join(run_dir, "data", "strata.csv")
    charging_path = os.path.join(run_dir, "data", "charging.csv")
    universe = _load_items(run_dir, n_stations)
    observations = pricing.observations_from_records(load_csv(charging_path, "charging"))
    missing = universe.rows(observations.stations, observations.slots) < 0
    if missing.any():
        j = int(missing.argmax())
        raise DataError(
            f"{charging_path} line {_line(charging_path, CHARGING_HEADER, j)}: station "
            f"{observations.stations[j]}, slot of day {observations.slots[j]} has no item "
            f"in {strata_path}"
        )
    return universe, observations


def _method_choices(model, mu1, mu0, prop, universe: Universe, observations):
    """Each item's predicted stratum, and each method's mask.

    Nothing here depends on the discount rate, so a stage computes it once.
    The learned policy discounts the items predicted incentive-charge;
    baselines discount their top k by uplift, where k is the number of items
    the learned policy discounts.
    """
    winners, ours = pricing.discount_policy(model, universe)
    k = int(ours.sum())
    scores = pricing.uplift_scores(observations, mu1, mu0, prop, universe)
    chosen = {"cfmtl": ours}
    for name in ("or", "ips", "dr"):
        chosen[name] = pricing.top_k_policy(universe, scores[name], k)
    return winners, chosen


def _discounted(universe, give):
    """The (station, slot of day) keys of the items give marks."""
    return zip(universe.stations[give].tolist(), universe.slots[give].tolist())


def _method_decisions(model, mu1, mu0, prop, universe: Universe, observations, c: float):
    """Per method, {(station, slot of day): c} over the items it discounts."""
    _, chosen = _method_choices(model, mu1, mu0, prop, universe, observations)
    return {
        method: dict.fromkeys(_discounted(universe, give), c) for method, give in chosen.items()
    }


def _eval_price_outputs(cfg: RunConfig, run_dir: str) -> list[str]:
    names = ("pricing_eval.csv", "strata_by_period.csv", "discounts.csv")
    return _paths(run_dir, "results", *names)


def cmd_eval_price(cfg: RunConfig, run_dir: str) -> None:
    eval_path, period_path, discounts_path = _eval_price_outputs(cfg, run_dir)
    model, mu1, mu0, prop = _load_pricing_models(run_dir, cfg)
    universe, observations = _load_population(run_dir, n_stations=cfg.traces.n_stations)
    winners, chosen = _method_choices(model, mu1, mu0, prop, universe, observations)
    try:
        shares = pricing.strata_by_period(winners, universe.slots)
    except ValueError as exc:
        raise DataError(f"{os.path.join(run_dir, 'data', 'strata.csv')}: {exc}") from exc

    rows = []
    for c in DISCOUNT_GRID:
        for method in METHODS:
            result = pricing.evaluate_policy(universe.strata, chosen[method], c)
            counts = (result.none_count, result.incentive_count, result.always_count)
            rows.append((method, _fmt(c), *counts, _fmt(result.reward)))
    _write_rows(eval_path, PRICING_EVAL_HEADER, rows)

    period_rows = [
        (label, _STRATUM_NAMES[stratum], _fmt(share))
        for label, by_stratum in shares.items()
        for stratum, share in by_stratum.items()
    ]
    _write_rows(period_path, PERIOD_HEADER, period_rows)

    # the deployed decision the DRL stages price the hubs' slots from
    rate = _fmt(cfg.discount)
    discount_rows = [
        (method, station, sod, rate)
        for method in METHODS
        for station, sod in _discounted(universe, chosen[method])
    ]
    _write_rows(discounts_path, DISCOUNTS_HEADER, discount_rows)
    print(f"wrote {len(rows)} evaluation rows to {eval_path}")


def _hub_series(cfg: RunConfig, decisions, stratum_of, hub_id: int, n_slots: int):
    """One day's selling price and charging occupancy induced by one policy:
    the hub's periodic HubEnv rows, whose value at slot t is row[t % SLOTS_PER_DAY].

    decisions maps each discounted (station, slot of day) to its rate, and
    stratum_of each item to its stratum code; a slot with no item has no EV
    demand and no discount. n_slots is not read; the DP oracle phase of the
    benchmark still passes it.
    """
    srtp = np.full(SLOTS_PER_DAY, cfg.base_sell_price)
    strata = np.full(SLOTS_PER_DAY, -1)  # -1: item truncated out of the universe
    given = np.zeros(SLOTS_PER_DAY, dtype=bool)
    for sod in range(SLOTS_PER_DAY):
        key = (hub_id, sod)
        if key in stratum_of:
            strata[sod] = stratum_of[key]
            rate = decisions.get(key)
            if rate is not None:
                srtp[sod] = cfg.base_sell_price * (1.0 - rate)
                given[sod] = True
    return srtp, stratum_response(strata, given)


def _build_env(cfg: RunConfig, traces, srtp, occupancy, hub_id: int, method: str):
    """The environment of run (hub_id, method); it draws nothing itself, as
    every episode is reset from a seed its caller derives for the run."""
    return scheduler.HubEnv(cfg.hub, cfg.env, traces, srtp, occupancy)


def _drl_runs(cfg: RunConfig) -> list[tuple[int, str]]:
    """Every (hub, method) run of the DRL stages, in output order."""
    return [(hub_id, method) for hub_id in range(cfg.n_hubs) for method in METHODS]


def _drl_files(run_dir: str, hub_id, method: str) -> tuple[str, str]:
    """The checkpoint and the training curve of run (hub_id, method)."""
    return (
        os.path.join(run_dir, "checkpoints", f"drl_hub{hub_id}_{method}.json"),
        os.path.join(run_dir, "results", f"curve_hub{hub_id}_{method}.csv"),
    )


def _drl_inputs(cfg: RunConfig, run_dir: str) -> list[str]:
    """The files _drl_envs reads."""
    data = _paths(run_dir, "data", "rtp.csv", "weather.csv", "traffic.csv", "strata.csv")
    return data + _paths(run_dir, "results", "discounts.csv")


def _load_decisions(cfg: RunConfig, run_dir: str, universe: Universe):
    """Per method, {(station, slot of day): rate} over the items eval-price
    wrote to discounts.csv.

    Every row must name a method and an item of the universe, no (method,
    item) twice, at the run config's rate.
    """
    (path,) = _paths(run_dir, "results", "discounts.csv")
    strata_path = os.path.join(run_dir, "data", "strata.csv")

    def rules(cols, parsed, rows, lines):
        methods, stations, sods, rates = cols
        repeat, first = _repeats(methods, stations, sods)
        item = lambda i: f"item (station {stations[i]}, slot_of_day {sods[i]})"
        return [
            (
                methods < 0,
                lambda i: f"unknown method {rows[i][0]!r}, expected one of {list(METHODS)}",
            ),
            *parsed[1:3],
            (universe.rows(stations, sods) < 0, lambda i: f"{item(i)} is not in {strata_path}"),
            (
                repeat,
                lambda i: f"duplicate {rows[i][0]} {item(i)}, first on line {lines[first[i]]}",
            ),
            parsed[3],
            (
                rates != cfg.discount,
                lambda i: f"discount {rows[i][3]} differs from the run config's pricing.discount "
                f"{cfg.discount}; rerun eval-price with --force",
            ),
        ]

    kinds = (METHODS, int, int, float)
    methods, stations, sods, _ = _read_table(path, DISCOUNTS_HEADER, kinds, rules)
    decisions = {method: {} for method in METHODS}
    for code, key in zip(methods.tolist(), zip(stations.tolist(), sods.tolist())):
        decisions[METHODS[code]][key] = cfg.discount
    return decisions


def _drl_envs(cfg: RunConfig, run_dir: str):
    """Every (hub, method) run of the DRL stages and its environment, in that order.

    Each method's decision is the one eval-price wrote; the stages read no
    charging log and no pricing model.
    """
    traces = load_traces(os.path.join(run_dir, "data"))
    universe = _load_items(run_dir, cfg.traces.n_stations)
    hubs = universe.stations < cfg.n_hubs
    keys = zip(universe.stations[hubs].tolist(), universe.slots[hubs].tolist())
    stratum_of = dict(zip(keys, universe.strata[hubs].tolist()))
    decisions = _load_decisions(cfg, run_dir, universe)
    runs = _drl_runs(cfg)
    envs = []
    for hub_id, method in runs:
        srtp, occupancy = _hub_series(cfg, decisions[method], stratum_of, hub_id, traces.n_slots)
        envs.append(_build_env(cfg, traces, srtp, occupancy, hub_id, method))
    return runs, envs


def cmd_train_drl(cfg: RunConfig, run_dir: str) -> None:
    runs, envs = _drl_envs(cfg, run_dir)
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

    for (hub_id, method), bundle, curve in zip(runs, bundles, curves):
        ck_path, curve_path = _drl_files(run_dir, hub_id, method)
        bundle.save(ck_path)
        rows = ((e, _fmt(total), _fmt(daily)) for e, total, daily in curve)
        _write_rows(curve_path, CURVE_HEADER, rows)
        print(f"hub {hub_id} {method}: trained {len(curve)} episodes")


def _drl_checkpoints(cfg: RunConfig, run_dir: str) -> list[str]:
    return [_drl_files(run_dir, *run)[0] for run in _drl_runs(cfg)]


def cmd_eval_drl(cfg: RunConfig, run_dir: str) -> None:
    (eval_path,) = _paths(run_dir, "results", "drl_eval.csv")
    runs, envs = _drl_envs(cfg, run_dir)
    shape = {"state_dim": envs[0].state_dim, "hidden": cfg.ppo.hidden}
    bundles = [
        _load_checkpoint(scheduler.PolicyBundle, path, "train-drl", **shape)
        for path in _drl_checkpoints(cfg, run_dir)
    ]
    # one eval seed per hub: every method replays the same episodes
    seeds = [spawn_seed(cfg.seed, "drl-eval", hub_id) for hub_id, _ in runs]
    means = scheduler.evaluate(envs, bundles, cfg.ppo.episodes_test, seeds)

    rows = [(hub_id, method, _fmt(avg)) for (hub_id, method), avg in zip(runs, means)]
    _write_rows(eval_path, DRL_EVAL_HEADER, rows)
    print(f"wrote {len(rows)} evaluation rows to {eval_path}")


def _report_runs(run_dir: str):
    """drl_eval.csv's rows, or None when there is no such file, and the curve
    CSV of each (hub, method) run they list, as (path, run) in file-name order."""
    (drl_path,) = _paths(run_dir, "results", "drl_eval.csv")
    if not os.path.exists(drl_path):
        return None, []
    lines, table = _read_rows(drl_path, DRL_EVAL_HEADER)
    for line, (hub_id, method, _) in zip(lines, table):
        if not (hub_id.isascii() and hub_id.isdigit() and method in METHODS):
            raise DataError(f"{drl_path} line {line}: no run hub {hub_id!r}, method {method!r}")
    return table, sorted({_drl_files(run_dir, *row[:2])[1]: row[:2] for row in table}.items())


def _report_inputs(cfg: RunConfig, run_dir: str) -> list[str]:
    """The result tables present, and the curves drl_eval.csv lists."""
    tables = _paths(run_dir, "results", "pricing_eval.csv", "drl_eval.csv")
    tables = [p for p in tables if os.path.exists(p)]
    if not tables:
        results_dir = os.path.join(run_dir, "results")
        raise DataError(f"no result CSVs under {results_dir}; nothing to report")
    return tables + [path for path, _ in _report_runs(run_dir)[1]]


def _report_outputs(cfg: RunConfig, run_dir: str) -> list[str]:
    return _paths(run_dir, "report", "pricing_report.csv", "drl_report.csv")


def cmd_report(cfg: RunConfig, run_dir: str) -> list[str]:
    """Write a long-format table per result table present; returns their paths."""
    pricing_out, drl_out = _report_outputs(cfg, run_dir)
    pricing_path = os.path.join(run_dir, "results", "pricing_eval.csv")
    written = []

    if os.path.exists(pricing_path):
        rows = []
        _, table = _read_rows(pricing_path, PRICING_EVAL_HEADER)
        for method, discount, *values in table:
            for metric, value in zip(PRICING_EVAL_HEADER[2:], values):
                rows.append((method, discount, metric, value))
        _write_rows(pricing_out, ["method", "discount", "metric", "value"], rows)
        written.append(pricing_out)

    table, curves = _report_runs(run_dir)
    if table is not None:
        rows = [(hub_id, method, "avg_daily_reward", "", avg) for hub_id, method, avg in table]
        for path, (hub_id, method) in curves:
            _, curve = _read_rows(path, CURVE_HEADER)
            for episode, total, daily in curve:
                rows.append((hub_id, method, "total_reward", episode, total))
                rows.append((hub_id, method, "mean_daily_reward", episode, daily))
        _write_rows(drl_out, ["hub_id", "method", "metric", "episode", "value"], rows)
        written.append(drl_out)
    else:
        print("warning: no DRL results found; reporting pricing only", file=sys.stderr)

    print(f"wrote {len(written)} report tables under {os.path.join(run_dir, 'report')}")
    return written


# -- the stage table ------------------------------------------------------------

# name -> (inputs(cfg, run_dir), outputs(cfg, run_dir), run(cfg, run_dir)), in
# pipeline order: the files the stage reads, the files it writes, and its work
STAGES = {
    "gen-data": (
        lambda cfg, run_dir: [],
        lambda cfg, run_dir: _paths(run_dir, "data", *DATA_FILES),
        cmd_gen_data,
    ),
    "train-price": (
        lambda cfg, run_dir: _paths(run_dir, "data", "charging.csv"),
        lambda cfg, run_dir: list(_checkpoint_paths(run_dir).values()),
        cmd_train_price,
    ),
    "eval-price": (
        lambda cfg, run_dir: [
            *_checkpoint_paths(run_dir).values(),
            *_paths(run_dir, "data", "strata.csv", "charging.csv"),
        ],
        _eval_price_outputs,
        cmd_eval_price,
    ),
    "train-drl": (
        _drl_inputs,
        lambda cfg, run_dir: [p for run in _drl_runs(cfg) for p in _drl_files(run_dir, *run)],
        cmd_train_drl,
    ),
    "eval-drl": (
        lambda cfg, run_dir: _drl_inputs(cfg, run_dir) + _drl_checkpoints(cfg, run_dir),
        lambda cfg, run_dir: _paths(run_dir, "results", "drl_eval.csv"),
        cmd_eval_drl,
    ),
    "report": (_report_inputs, _report_outputs, cmd_report),
}


def run_stage(name: str, cfg: RunConfig, run_dir: str, force: bool) -> None:
    """Check the snapshot, the inputs, the outputs and the manifest, run the
    stage, then record its outputs; report pins no snapshot and records only
    the tables it returns. The stage is looked up in this module by name, so
    that a wrapper installed there, such as a tracer's, is the one that runs.
    """
    inputs, outputs, run = STAGES[name]
    paths = inputs(cfg, run_dir)
    if name == "report":
        for path in paths:
            _require(path)
    else:
        _write_snapshot(cfg, run_dir, force, paths)
    targets = outputs(cfg, run_dir)
    _refuse_overwrite(targets, force)
    _read_manifest(run_dir)
    written = globals()[run.__name__](cfg, run_dir)
    _update_manifest(run_dir, name, targets if written is None else written)


# -- entry point ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hubopt",
        description="Energy-hub simulation and learning experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in STAGES:
        p = sub.add_parser(name)
        p.add_argument("--config", required=name != "report", help="run config YAML")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="run directory (overrides config)")
        p.add_argument("--force", action="store_true", help="overwrite existing outputs")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            if args.config or args.command != "report":
                cfg = load_run_config(args.config, args.seed)
            elif args.out:
                cfg = RunConfig(out_dir=args.out)
            else:
                raise hub.ConfigError("report needs --config or --out to find the run")
            run_stage(args.command, cfg, resolve_out_dir(cfg, args.out), args.force)
            return EXIT_OK
        except scheduler.TrainingAbort as exc:
            print(f"training aborted: {exc}", file=sys.stderr)
            return EXIT_TRAINING
        except (DataError, TraceError, nn.CheckpointError, OSError) as exc:
            print(f"data error: {exc}", file=sys.stderr)
            return EXIT_DATA
    except ValueError as exc:
        # covers ConfigError plus bad values surfacing from any module
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
