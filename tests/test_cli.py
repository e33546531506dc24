import builtins
import collections
import csv
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import typing
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from hubopt import cli, hub, nn, pricing, scheduler, traces
from hubopt.cli import (
    CURVE_HEADER,
    DISCOUNTS_HEADER,
    DRL_EVAL_HEADER,
    PERIOD_HEADER,
    PRICING_EVAL_HEADER,
    RunConfig,
    run_config_from_dict,
)
from hubopt.hub import ConfigError
from reference import heap_peak


def tiny_config(out_dir, seed=7):
    return {
        "seed": seed,
        "out_dir": str(out_dir),
        "n_hubs": 1,
        "traces": {"days": 6, "n_stations": 5},
        "pricing": {"embed_dim": 8, "hidden": [16], "epochs": 2},
        "ppo": {
            "episode_days": 1,
            "window": 4,
            "episodes_train": 2,
            "episodes_test": 1,
            "hidden": [16, 16],
        },
    }


def write_config(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh)
    return str(path)


def read_csv_rows(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestConfigParsing:
    def test_defaults(self):
        cfg = run_config_from_dict({})
        assert cfg.seed == 0
        assert cfg.n_hubs == 1
        assert cfg.discount == 0.3

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown run config keys"):
            run_config_from_dict({"typo": 1})

    def test_unknown_section_key(self):
        with pytest.raises(ConfigError, match="unknown traces config keys"):
            run_config_from_dict({"traces": {"dayz": 3}})
        with pytest.raises(ConfigError, match="unknown pricing config keys"):
            run_config_from_dict({"pricing": {"seed": 1}})
        with pytest.raises(ConfigError, match="unknown ppo config keys"):
            run_config_from_dict({"ppo": {"seed": 1}})

    def test_bad_priors(self):
        with pytest.raises(ConfigError, match="strata_priors"):
            run_config_from_dict({"traces": {"strata_priors": [0.5, 0.5]}})

    def test_hidden_lists_become_tuples(self):
        cfg = run_config_from_dict(
            {"pricing": {"hidden": [32, 16]}, "ppo": {"hidden": [8]}}
        )
        assert cfg.pricing.hidden == (32, 16)
        assert cfg.ppo.hidden == (8,)

    def test_items_must_reach_the_last_quarter_of_the_day(self):
        # station 0's slots fill first: 18 items stop at slot 17, and eval-price
        # would find no item in 18-24
        message = r"n_items must be in \[19, 48\] \(2 stations x 24 slots\), got 18: 19 items reach"
        with pytest.raises(ConfigError, match=message):
            run_config_from_dict({"traces": {"n_stations": 2, "n_items": 18}})
        run_config_from_dict({"traces": {"n_stations": 2, "n_items": 19}})

    def test_discount_bounds(self):
        with pytest.raises(ConfigError, match="discount"):
            run_config_from_dict({"pricing": {"discount": 1.0}})

    def test_n_hubs_cannot_exceed_stations(self):
        with pytest.raises(ConfigError, match="n_hubs"):
            run_config_from_dict({"n_hubs": 9, "traces": {"n_stations": 4}})

    def test_nonpositive_days(self):
        with pytest.raises(ConfigError, match="days"):
            run_config_from_dict({"traces": {"days": 0}})

    def test_seed_must_be_integer(self):
        with pytest.raises(ConfigError, match="seed"):
            run_config_from_dict({"seed": "abc"})

    @pytest.mark.parametrize("seed", [-5, 2**32])
    def test_seed_outside_32_bits(self, seed):
        with pytest.raises(ConfigError, match=re.escape(f"seed must be in [0, 2**32), got {seed}")):
            run_config_from_dict({"seed": seed})
        assert run_config_from_dict({"seed": 2**32 - 1}).seed == 2**32 - 1

    def test_hub_section_validated(self):
        with pytest.raises(ConfigError, match="unknown hub config keys"):
            run_config_from_dict({"hub": {"warp_drive": 1}})

    def test_initial_soc_outside_the_battery_band(self):
        with pytest.raises(ConfigError, match=r"initial soc 2.0 outside \[10.0, 45.0\]"):
            run_config_from_dict({"ppo": {"initial_soc_kwh": 2.0}})
        with pytest.raises(ConfigError, match=r"initial soc 45.5 outside"):
            run_config_from_dict({"ppo": {"initial_soc_kwh": 45.5}})
        # the band follows the configured battery
        cfg = run_config_from_dict(
            {"hub": {"battery": {"soc_min_kwh": 8.0}}, "ppo": {"initial_soc_kwh": 8.0}}
        )
        assert cfg.env.initial_soc_kwh == 8.0

    def test_run_config_is_frozen_to_its_leaves(self):
        raw = {"pricing": {"hidden": [12]}, "ppo": {"hidden": [16, 16]}}
        cfg = run_config_from_dict(raw)
        assert hash(cfg) == hash(run_config_from_dict(raw))
        for section in (cfg, cfg.hub, cfg.hub.battery, cfg.traces, cfg.pricing, cfg.env, cfg.ppo):
            with pytest.raises(dataclasses.FrozenInstanceError):
                section.seed = 99
        assert cfg.seed == 0

    def test_config_snapshot_excludes_out_dir(self):
        cfg = run_config_from_dict({"out_dir": "someplace"})
        snap = cli.config_snapshot_dict(cfg)
        assert "out_dir" not in snap
        assert snap["seed"] == 0


def yaml_fields():
    """(section path, key, type hint) of every key a run config file can set."""
    hints = typing.get_type_hints
    run = hints(RunConfig)
    out = [((), k, run[k]) for k in ("seed", "out_dir", "n_hubs")]
    out += [(("pricing",), k, run[k]) for k in ("discount", "base_sell_price")]
    for path, cls in (
        (("hub",), hub.HubConfig),
        (("hub", "battery"), hub.BatterySpec),
        (("traces",), cli.TraceGenConfig),
        (("pricing",), pricing.PricingConfig),
        (("ppo",), scheduler.EnvConfig),
        (("ppo",), scheduler.PpoConfig),
    ):
        out += [(path, k, h) for k, h in hints(cls).items() if k != "battery"]
    return out


def key_paths(mapping, path=()):
    """(section path, key) of every leaf of a nested config mapping."""
    for key, value in mapping.items():
        if isinstance(value, dict):
            yield from key_paths(value, path + (key,))
        else:
            yield path, key


# keys a scaled default cannot draw: strings, the whole seed range, and the
# fields whose rules tie them to other fields, drawn inside those rules
COUPLED = {
    ((), "seed"): st.integers(0, 2**32 - 1),
    ((), "out_dir"): st.sampled_from(["run", "elsewhere"]),
    (("hub",), "slot_hours"): st.just(1.0),
    (("hub",), "t_recovery_slots"): st.integers(0, 2),
    (("traces",), "strata_priors"): st.sampled_from([[0.3, 0.25, 0.45], [0.0, 0.1, 0.9]]),
    (("traces",), "n_items"): st.none() | st.integers(19, 32 * 24),
    (("traces",), "logged_policy"): st.sampled_from(["random", "confounded"]),
    (("ppo",), "initial_soc_kwh"): st.none() | st.floats(10.0, 20.0),
}


def near_default(path, key, hint):
    """Values of a run config key that its checks accept: the coupled keys'
    draws, else values at 90-100% of its default (or in [0, 1] for a zero
    default, and above it for an integer). The default is read from the
    default config's snapshot."""
    if (path, key) in COUPLED:
        return COUPLED[(path, key)]
    node = cli.config_snapshot_dict(RunConfig())
    for name in path:
        node = node[name]
    default = node[key]
    if typing.get_origin(hint) is tuple:
        return st.lists(st.integers(1, 64), min_size=1, max_size=3)
    if hint is int:
        return st.integers(default, 2 * default + 1)
    if default == 0:
        return st.floats(0.0, 1.0)
    return st.floats(0.9, 1.0).map(lambda f: f * default)


# deferred, so that a key the snapshot lacks fails the round trip, not the collection
NEAR_DEFAULT = {
    (path, key): st.deferred(lambda args=(path, key, hint): near_default(*args))
    for path, key, hint in yaml_fields()
}


class TestSnapshotLayout:
    """config.yaml is written in the layout a --config file is read in."""

    def test_snapshot_keys_are_the_settable_keys(self):
        snap = cli.config_snapshot_dict(RunConfig())
        settable = [(path, key) for path, key, _ in yaml_fields() if key != "out_dir"]
        assert sorted(key_paths(snap)) == sorted(settable)

    @settings(max_examples=60, deadline=None)
    @given(picked=st.fixed_dictionaries({}, optional=NEAR_DEFAULT))
    def test_snapshot_reads_back_as_the_config(self, picked):
        raw = {}
        for (path, key), value in picked.items():
            node = raw
            for name in path:
                node = node.setdefault(name, {})
            node[key] = value
        cfg = run_config_from_dict(raw)
        text = yaml.safe_dump(cli.config_snapshot_dict(cfg), sort_keys=True)
        again = run_config_from_dict(yaml.safe_load(text))
        assert again == dataclasses.replace(cfg, out_dir=RunConfig.out_dir)

    def test_a_run_reruns_from_its_snapshot(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        config_path = write_config(tmp_path / "run.yaml", tiny_config(run_dir))
        assert cli.main(["gen-data", "--config", config_path]) == cli.EXIT_OK
        snapshot = str(run_dir / "config.yaml")
        rc = cli.main(["train-price", "--config", snapshot, "--out", str(run_dir)])
        assert rc == cli.EXIT_OK, capsys.readouterr().err


def mistyped(hint) -> list:
    """Values of the wrong type or shape for a field of type hint."""
    if type(None) in typing.get_args(hint):
        hint = typing.get_args(hint)[0]
    if typing.get_origin(hint) is tuple:
        kinds = typing.get_args(hint)
        if kinds[-1] is Ellipsis:
            return [8, ["8"], [2.5], [True]]
        good = [0.5] * len(kinds)
        return [0.5, good[:-1], ["0.5"] + good[1:], [True] + good[1:]]
    return {int: ["7", 2.5, True], float: ["1e-3", True], str: [3]}[hint]


MISTYPED = [
    (path, key, bad) for path, key, hint in yaml_fields() for bad in mistyped(hint)
]


class TestMistypedValues:
    """Every settable key refuses a value of the wrong type, naming the key."""

    def test_walk_covers_every_section(self):
        assert {path for path, _, _ in MISTYPED} == {
            (), ("hub",), ("hub", "battery"), ("traces",), ("pricing",), ("ppo",)
        }
        assert ((), "seed", "7") in MISTYPED
        assert (("traces",), "strata_priors", [0.5, 0.5]) in MISTYPED
        assert (("ppo",), "initial_soc_kwh", "1e-3") in MISTYPED

    @pytest.mark.parametrize(
        "path,key,bad",
        MISTYPED,
        ids=[".".join(path + (key,)) + f"={bad!r}" for path, key, bad in MISTYPED],
    )
    def test_rejected_naming_the_key(self, path, key, bad):
        raw = {}
        node = raw
        for name in path:
            node = node.setdefault(name, {})
        node[key] = bad
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}(\[\d+\])? must "):
            run_config_from_dict(raw)

    def test_ints_become_floats_where_a_number_is_wanted(self):
        cfg = run_config_from_dict(
            {"hub": {"c_bp": 0}, "ppo": {"lr": 1, "initial_soc_kwh": 20}}
        )
        assert type(cfg.hub.c_bp) is float
        assert type(cfg.ppo.lr) is float
        assert type(cfg.env.initial_soc_kwh) is float

    def test_sections_must_be_mappings(self):
        for raw, section in (
            ([1], "run"),
            ({"traces": 3}, "traces"),
            ({"pricing": [1]}, "pricing"),
            ({"ppo": "x"}, "ppo"),
            ({"hub": {"battery": 50.0}}, "battery"),
        ):
            with pytest.raises(ConfigError, match=f"^{section} config must be a mapping"):
                run_config_from_dict(raw)

    def test_constructor_errors_name_the_section(self):
        with pytest.raises(ConfigError, match=r"batch_size .* \(in the pricing section\)"):
            run_config_from_dict({"pricing": {"batch_size": 0}})
        with pytest.raises(ConfigError, match=r"episode_days .* \(in the ppo section\)"):
            run_config_from_dict({"ppo": {"episode_days": 0}})
        with pytest.raises(ConfigError, match=r"eta_charge .* \(in the battery section\)"):
            run_config_from_dict({"hub": {"battery": {"eta_charge": 1.5}}})


def non_finite_floats() -> list:
    """(section path, key, value) putting NaN or +-inf into every float of a run config.

    The walk follows the type hints, as the config parser does: a float
    field, a float | None field and each float entry of a tuple field.
    """
    out = []
    for path, key, hint in yaml_fields():
        if type(None) in typing.get_args(hint):
            hint = typing.get_args(hint)[0]
        kinds = typing.get_args(hint) if typing.get_origin(hint) is tuple else (hint,)
        if float not in kinds:
            continue
        for bad in (float("nan"), float("inf"), -float("inf")):
            # the entry after a bad float is never read, so 0.5 fills the rest
            value = bad if kinds == (float,) else [bad] + [0.5] * (len(kinds) - 1)
            out.append((path, key, value))
    return out


NON_FINITE = non_finite_floats()


class TestNonFiniteFloats:
    """Every float key refuses NaN and +-inf before any stage writes a file."""

    def test_walk_covers_every_float(self):
        keys = {(path, key) for path, key, _ in NON_FINITE}
        assert {(("hub",), "c_bp"), (("hub",), "wt_capacity_kw")} <= keys
        assert (("hub", "battery"), "capacity_kwh") in keys
        assert {(("ppo",), "initial_soc_kwh"), (("traces",), "strata_priors")} <= keys
        assert (("pricing",), "discount") in keys
        assert (("ppo",), "hidden") not in keys
        assert len(NON_FINITE) == 3 * len(keys)

    @pytest.mark.parametrize(
        "path,key,bad",
        NON_FINITE,
        ids=[".".join(path + (key,)) + f"={bad!r}" for path, key, bad in NON_FINITE],
    )
    def test_exits_2_at_gen_data_before_any_write(self, tmp_path, capsys, path, key, bad):
        cfg = tiny_config(tmp_path / "never")
        node = cfg
        for name in path:
            node = node.setdefault(name, {})
        node[key] = bad
        config_path = write_config(tmp_path / "bad.yaml", cfg)
        assert cli.main(["gen-data", "--config", config_path]) == cli.EXIT_CONFIG
        assert re.search(rf"config error: {key}(\[0\])? must be finite", capsys.readouterr().err)
        assert not (tmp_path / "never").exists()

    def test_integer_beyond_the_float_range_is_infinite(self):
        with pytest.raises(ConfigError, match=r"^c_bp must be finite, got inf"):
            run_config_from_dict({"hub": {"c_bp": 10**400}})


class TestOutDirResolution:
    def test_cli_flag_beats_config(self):
        cfg = RunConfig(out_dir="from_config")
        assert cli.resolve_out_dir(cfg, "/abs/override") == "/abs/override"

    def test_env_root_prefixes_relative(self, monkeypatch):
        monkeypatch.setenv("HUBOPT_OUT", "/data/root")
        cfg = RunConfig(out_dir="myrun")
        assert cli.resolve_out_dir(cfg, None) == "/data/root/myrun"

    def test_env_root_leaves_absolute_alone(self, monkeypatch):
        monkeypatch.setenv("HUBOPT_OUT", "/data/root")
        cfg = RunConfig(out_dir="/abs/run")
        assert cli.resolve_out_dir(cfg, None) == "/abs/run"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full run: gen-data through report, executed in-process."""
    base = tmp_path_factory.mktemp("cli_run")
    run_dir = base / "run"
    config_path = write_config(base / "run.yaml", tiny_config(run_dir))
    for sub in ("gen-data", "train-price", "eval-price", "train-drl", "eval-drl", "report"):
        rc = cli.main([sub, "--config", config_path])
        assert rc == 0, f"{sub} failed"
    return config_path, str(run_dir)


def _copy_run(run_dir, tmp_path):
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    return copy


def run_copy(run, tmp_path, capsys, *argv, edit=lambda copy: None):
    """Copy a fixture run (pipeline or priced), let edit(copy) change its
    files, and run `hubopt <argv> --config <its config> --out <copy>` in
    process: (exit code, stderr, copy). report, which finds a run by --out
    alone, gets no --config."""
    config_path, run_dir = run
    copy = _copy_run(run_dir, tmp_path)
    edit(copy)
    config = ["--config", config_path] if argv[0] != "report" else []
    rc = cli.main([*argv, *config, "--out", str(copy)])
    return rc, capsys.readouterr().err, copy


def rewrite(name, edit):
    """An edit of a run copy: the lines of its file name through edit."""

    def apply(copy):
        path = copy / name
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")

    return apply


def first_row_field(lines, j, value):
    """The lines with field j of the first data row set to value."""
    fields = lines[1].split(",")
    fields[j] = str(value)
    return [lines[0], ",".join(fields), *lines[2:]]


class TestGenData:
    def test_writes_five_files_with_expected_headers(self, pipeline):
        _, run_dir = pipeline
        expected = {
            "rtp.csv": ["slot", "price"],
            "weather.csv": ["slot", "wind_mps", "irradiance_wm2"],
            "traffic.csv": ["slot", "load_rate"],
            "charging.csv": ["station_id", "slot", "charged", "discount_given", "discount_rate"],
            "strata.csv": ["station_id", "slot_of_day", "stratum"],
        }
        for name, header in expected.items():
            got, rows = read_csv_rows(os.path.join(run_dir, "data", name))
            assert got == header, name
            assert rows, name

    def test_rerun_without_force_is_refused(self, pipeline):
        config_path, _ = pipeline
        assert cli.main(["gen-data", "--config", config_path]) == 2

    def test_rerun_with_force_is_byte_identical(self, pipeline):
        config_path, run_dir = pipeline
        data_dir = os.path.join(run_dir, "data")
        before = {
            name: open(os.path.join(data_dir, name), "rb").read()
            for name in os.listdir(data_dir)
        }
        assert cli.main(["gen-data", "--config", config_path, "--force"]) == 0
        for name, blob in before.items():
            assert open(os.path.join(data_dir, name), "rb").read() == blob, name

    def test_validation_precedes_writes(self, tmp_path):
        bad = dict(tiny_config(tmp_path / "never"), traces={"days": 0})
        config_path = write_config(tmp_path / "bad.yaml", bad)
        assert cli.main(["gen-data", "--config", config_path]) == 2
        assert not (tmp_path / "never").exists()

    def test_initial_soc_outside_the_band_writes_nothing(self, tmp_path, capsys):
        bad = tiny_config(tmp_path / "never")
        bad["ppo"]["initial_soc_kwh"] = 2.0
        config_path = write_config(tmp_path / "bad.yaml", bad)
        assert cli.main(["gen-data", "--config", config_path]) == 2
        assert "initial soc 2.0 outside [10.0, 45.0]" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    def test_slot_hours_other_than_one_writes_nothing(self, tmp_path, capsys):
        # the traces, SLOTS_PER_DAY and the pricing slot of day are all hourly
        bad = dict(tiny_config(tmp_path / "never"), hub={"slot_hours": 0.5})
        config_path = write_config(tmp_path / "bad.yaml", bad)
        assert cli.main(["gen-data", "--config", config_path]) == cli.EXIT_CONFIG
        assert "config error: hub.slot_hours must be 1.0" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize(
        "section,key,bad",
        [
            (None, "n_hubs", 1.5),
            (None, "seed", 2**32),
            (None, "seed", -5),
            ("hub", "t_recovery_slots", 2.5),
            ("traces", "n_items", 3.5),
            ("pricing", "epochs", 2.5),
            ("pricing", "batch_size", "64"),
            ("pricing", "hidden", ["8"]),
            ("pricing", "batch_size", 0),
            ("pricing", "epochs", -1),
            ("ppo", "epochs", 2.5),
            ("ppo", "episode_days", 1.5),
            ("ppo", "window", 2.5),
            ("ppo", "minibatch", True),
            ("ppo", "lr", -0.1),
            ("ppo", "weight_decay", -1.0),
            ("ppo", "hidden", [0]),
            # appended, so that the ids pytest numbers by position stay put
            ("traces", "n_items", 0),
            ("traces", "n_items", 5 * 24 + 1),
            ("traces", "logged_policy", "bogus"),
            ("traces", "strata_priors", [0.5, 0.5, 0.5]),
            ("traces", "logged_discount", 1.5),
            ("traces", "evening_boost", -1.0),
            ("traces", "rtp_base", -1.0),
            ("ppo", "value_coef", -1.0),
            ("ppo", "entropy_coef", -0.5),
            ("ppo", "episodes_test", 0),
            ("traces", "n_items", 18),
        ],
    )
    def test_bad_value_exits_2_before_any_write(self, tmp_path, capsys, section, key, bad):
        cfg = tiny_config(tmp_path / "never")
        (cfg if section is None else cfg.setdefault(section, {}))[key] = bad
        config_path = write_config(tmp_path / "bad.yaml", cfg)
        assert cli.main(["gen-data", "--config", config_path]) == cli.EXIT_CONFIG
        assert f"config error: {key}" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize(
        "section,key,bad", [("pricing", "base_sell_price", 0.0), ("traces", "n_stations", 0)]
    )
    def test_nonpositive_price_or_stations_exit_2_before_any_write(
        self, tmp_path, capsys, section, key, bad
    ):
        cfg = tiny_config(tmp_path / "never")
        cfg.setdefault(section, {})[key] = bad
        config_path = write_config(tmp_path / "bad.yaml", cfg)
        assert cli.main(["gen-data", "--config", config_path]) == cli.EXIT_CONFIG
        assert f"config error: {section}.{key} must be positive" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    def test_exponent_without_a_point_is_a_yaml_string(self, tmp_path, capsys):
        # PyYAML reads 1e-3 as the string '1e-3'; 1.0e-3 is the number
        config_path = tmp_path / "bad.yaml"
        config_path.write_text(f"out_dir: {tmp_path / 'never'}\nppo:\n  lr: 1e-3\n")
        assert cli.main(["gen-data", "--config", str(config_path)]) == cli.EXIT_CONFIG
        assert "config error: lr must be a number, got '1e-3'" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()
        config_path.write_text("ppo:\n  lr: 1.0e-3\n")
        assert cli.load_run_config(str(config_path)).ppo.lr == 0.001


class TestPricingStage:
    def test_four_checkpoints(self, pipeline):
        _, run_dir = pipeline
        for name in ("pricing_cfmtl", "pricing_mu1", "pricing_mu0", "pricing_prop"):
            assert os.path.exists(os.path.join(run_dir, "checkpoints", f"{name}.json"))

    def test_eval_grid_is_4_methods_by_6_discounts(self, pipeline):
        _, run_dir = pipeline
        header, rows = read_csv_rows(os.path.join(run_dir, "results", "pricing_eval.csv"))
        assert header == PRICING_EVAL_HEADER
        assert len(rows) == 24
        methods = {row[0] for row in rows}
        discounts = {row[1] for row in rows}
        assert methods == {"cfmtl", "or", "ips", "dr"}
        assert len(discounts) == 6

    def test_discounts_are_each_methods_decision_in_universe_order(self, pipeline):
        config_path, run_dir = pipeline
        cfg = cli.load_run_config(config_path)
        items, observations = cli._load_population(run_dir)
        decisions = cli._method_decisions(
            *cli._load_pricing_models(run_dir), items, observations, cfg.discount
        )
        keys = [(it.station_id, it.slot_of_day) for it in items]
        want = [
            [method, str(station), str(sod), "0.3"]
            for method in cli.METHODS
            for station, sod in keys
            if (station, sod) in decisions[method]
        ]
        path = os.path.join(run_dir, "results", "discounts.csv")
        assert read_csv_rows(path) == (DISCOUNTS_HEADER, want)
        assert {row[0] for row in want} == set(cli.METHODS)
        with open(os.path.join(run_dir, "manifest.json"), encoding="utf-8") as fh:
            entry = json.load(fh)["stages"]["eval-price"]
        assert entry[os.path.join("results", "discounts.csv")] == cli._sha256(path)

    def test_eval_price_refuses_to_overwrite_discounts(self, pipeline, tmp_path, capsys):
        def keep_only_discounts(copy):
            for name in ("pricing_eval.csv", "strata_by_period.csv"):
                os.remove(copy / "results" / name)

        rc, err, copy = run_copy(pipeline, tmp_path, capsys, "eval-price", edit=keep_only_discounts)
        assert rc == cli.EXIT_CONFIG
        assert f"refusing to overwrite {copy / 'results' / 'discounts.csv'} (and 0 more)" in err

    def test_period_shares_sum_to_one(self, pipeline):
        _, run_dir = pipeline
        header, rows = read_csv_rows(
            os.path.join(run_dir, "results", "strata_by_period.csv")
        )
        assert header == PERIOD_HEADER
        assert len(rows) == 12
        by_period = {}
        for period, _, share in rows:
            by_period.setdefault(period, 0.0)
            by_period[period] += float(share)
        for period, total in by_period.items():
            assert total == pytest.approx(1.0), period

    def test_missing_data_exits_3(self, tmp_path):
        config_path = write_config(
            tmp_path / "c.yaml", tiny_config(tmp_path / "fresh")
        )
        assert cli.main(["train-price", "--config", config_path]) == 3

    def test_snapshot_mismatch_exits_2(self, pipeline, tmp_path):
        _, run_dir = pipeline
        changed = tiny_config(run_dir, seed=123)
        config_path = write_config(tmp_path / "changed.yaml", changed)
        assert cli.main(["eval-price", "--config", config_path]) == 2


@pytest.fixture(scope="module")
def priced(tmp_path_factory):
    """A run through eval-price, for tests that rerun a pricing stage with --force
    or start a DRL stage."""
    base = tmp_path_factory.mktemp("priced_run")
    config_path = write_config(base / "run.yaml", tiny_config(base / "run", seed=11))
    for sub in ("gen-data", "train-price", "eval-price"):
        assert cli.main([sub, "--config", config_path]) == 0
    return config_path, str(base / "run")


class TestStrataFaults:
    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda lines: first_row_field(lines, 1, 30), "line 2: slot_of_day"),
            (lambda lines: first_row_field(lines, 0, -1), "line 2: station_id is negative"),
            # the tiny config has 5 stations
            (lambda lines: first_row_field(lines, 0, 5), "line 2: station 5 is outside"),
            # a blank line is a line of the file but no item
            (
                lambda lines: [lines[0], ""] + first_row_field(lines, 0, 7)[1:],
                "line 3: station 7 is outside",
            ),
            (lambda lines: lines + [lines[1]], "duplicate item"),
            # strata line 2 is station 0's slot 0, the log's first record
            (
                lambda lines: [lines[0]] + lines[2:],
                "charging.csv line 2: station 0, slot of day 0 has no item in",
            ),
        ],
        ids=[
            "slot-of-day-30",
            "station-negative",
            "station-beyond",
            "station-beyond-after-blank",
            "duplicate",
            "deleted",
        ],
    )
    def test_eval_price_exits_3_naming_the_file(self, priced, tmp_path, capsys, edit, message):
        lines_edit = rewrite("data/strata.csv", edit)
        rc, err, copy = run_copy(priced, tmp_path, capsys, "eval-price", "--force", edit=lines_edit)
        assert rc == cli.EXIT_DATA, err
        path = copy / "data" / "strata.csv"
        assert err.startswith("data error: ") and f"{path}" in err and message in err


class TestImportBudget:
    def test_eval_price_imports_neither_numpy_random_nor_numpy_ma(self, priced, tmp_path):
        """A fresh eval-price process draws nothing and masks nothing: both
        modules would cost it their import time."""
        config_path, run_dir = priced
        copy = _copy_run(run_dir, tmp_path)
        code = (
            "import sys\n"
            "from hubopt import cli\n"
            f"rc = cli.main(['eval-price', '--config', {config_path!r}, '--out', {str(copy)!r}, "
            "'--force'])\n"
            "print(rc, sorted({'numpy.random', 'numpy.ma'} & set(sys.modules)))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0 []"


class TestChargingStationFaults:
    # the tiny config has 5 stations
    @pytest.mark.parametrize("station", [-1, 5], ids=["station-negative", "station-beyond"])
    def test_train_price_exits_3_naming_the_file(self, priced, tmp_path, capsys, station):
        edit = rewrite("data/charging.csv", lambda lines: first_row_field(lines, 0, station))
        rc, err, copy = run_copy(priced, tmp_path, capsys, "train-price", "--force", edit=edit)
        assert rc == cli.EXIT_DATA, err
        assert err.startswith("data error: ") and f"{copy / 'data' / 'charging.csv'}" in err
        assert f"charging.csv line 2: station {station} is outside the run's 5 stations" in err

    def test_a_blank_line_counts_as_a_line_of_the_file(self, priced, tmp_path, capsys):
        blank = lambda lines: [lines[0], ""] + first_row_field(lines, 0, 5)[1:]
        edit = rewrite("data/charging.csv", blank)
        rc, err, _ = run_copy(priced, tmp_path, capsys, "train-price", "--force", edit=edit)
        assert rc == cli.EXIT_DATA, err
        assert "charging.csv line 3: station 5 is outside the run's 5 stations" in err

    def test_eval_price_names_the_line_of_a_record_with_no_item(self, priced, tmp_path, capsys):
        # strata line 2 is station 0's slot 0, the log's first record, here on line 3
        def edit(copy):
            rewrite("data/strata.csv", lambda lines: [lines[0]] + lines[2:])(copy)
            rewrite("data/charging.csv", lambda lines: [lines[0], "", *lines[1:]])(copy)

        rc, err, _ = run_copy(priced, tmp_path, capsys, "eval-price", "--force", edit=edit)
        assert rc == cli.EXIT_DATA, err
        assert "charging.csv line 3: station 0, slot of day 0 has no item in" in err

    def test_negative_slot_exits_3_naming_the_file_and_line(self, priced, tmp_path, capsys):
        edit = rewrite("data/charging.csv", lambda lines: first_row_field(lines, 1, -5))
        rc, err, copy = run_copy(priced, tmp_path, capsys, "train-price", "--force", edit=edit)
        assert rc == cli.EXIT_DATA, err
        path = copy / "data" / "charging.csv"
        assert err.startswith(f"data error: {path} line 2: slot must be nonnegative, got -5"), err


class TestUnusableChargingLog:
    @pytest.mark.parametrize(
        "edit",
        [
            lambda rows: [],
            # every record undiscounted: discount_given and discount_rate zeroed
            lambda rows: [",".join(row.split(",")[:3] + ["0", "0.0"]) for row in rows],
        ],
        ids=["no-records", "one-arm"],
    )
    def test_train_price_exits_3_naming_the_file(self, priced, tmp_path, capsys, edit):
        rows_edit = rewrite("data/charging.csv", lambda lines: [lines[0], *edit(lines[1:])])
        rc, err, copy = run_copy(priced, tmp_path, capsys, "train-price", "--force", edit=rows_edit)
        assert rc == cli.EXIT_DATA, err
        assert err.startswith(f"data error: {copy / 'data' / 'charging.csv'}: 0 of its ")
        assert "training needs both discounted and undiscounted records" in err


class TestDiscountsFaults:
    # each edit gets the header and the first data row; the tiny config has 5 stations
    @pytest.mark.parametrize(
        "edit,messages",
        [
            (
                lambda lines: ["method,station,slot_of_day,discount"] + lines[1:],
                ["bad header 'method,station,slot_of_day,discount'"],
            ),
            (
                lambda lines: [lines[0], lines[1].rpartition(",")[0]],
                ["line 2: expected 4 fields, got 3"],
            ),
            (
                lambda lines: first_row_field(lines, 0, "greedy"),
                ["line 2: unknown method 'greedy'"],
            ),
            (
                lambda lines: first_row_field(lines, 1, "x"),
                ["line 2: station_id is not an integer: 'x'"],
            ),
            (
                lambda lines: first_row_field(lines, 2, "1.5"),
                ["line 2: slot_of_day is not an integer: '1.5'"],
            ),
            (
                lambda lines: first_row_field(lines, 1, "99"),
                ["line 2: item (station 99, slot_of_day ", "data/strata.csv"],
            ),
            (lambda lines: lines + [lines[1]], ["line 3: duplicate ", "first on line 2"]),
            (
                lambda lines: first_row_field(lines, 3, "0.4"),
                [
                    "line 2: discount 0.4 differs from the run config's pricing.discount 0.3; "
                    "rerun eval-price with --force"
                ],
            ),
        ],
        ids=[
            "header",
            "field-count",
            "unknown-method",
            "station-not-integer",
            "slot-of-day-not-integer",
            "not-in-strata",
            "duplicate",
            "rate",
        ],
    )
    def test_train_drl_exits_3_naming_file_and_line(
        self, priced, tmp_path, capsys, edit, messages
    ):
        rewritten = rewrite("results/discounts.csv", lambda lines: edit(lines[:2]))
        rc, err, copy = run_copy(priced, tmp_path, capsys, "train-drl", edit=rewritten)
        assert rc == cli.EXIT_DATA, err
        assert err.startswith(f"data error: {copy / 'results' / 'discounts.csv'}"), err
        for message in messages:
            assert message in err, err


class TestEvalPriceWork:
    def test_model_forwards_do_not_grow_with_the_discount_grid(self, priced, monkeypatch):
        config_path, _ = priced
        calls = collections.Counter()
        for cls in (pricing.PricingModel, nn.EmbedMlp):

            def counted(self, *args, _forward=cls.forward, _name=cls.__name__, **kw):
                calls[_name] += 1
                return _forward(self, *args, **kw)

            monkeypatch.setattr(cls, "forward", counted)
        per_grid = []
        for grid in (cli.DISCOUNT_GRID[:1], cli.DISCOUNT_GRID):
            monkeypatch.setattr(cli, "DISCOUNT_GRID", grid)
            calls.clear()
            assert cli.main(["eval-price", "--config", config_path, "--force"]) == 0
            per_grid.append(dict(calls))
        assert per_grid[0]["PricingModel"] == 1 and per_grid[0]["EmbedMlp"] > 0
        assert per_grid[0] == per_grid[1]

    def test_method_decisions_match_the_single_estimators(self, priced):
        _, run_dir = priced
        model, mu1, mu0, prop = cli._load_pricing_models(run_dir)
        items, observations = cli._load_population(run_dir)
        c = 0.3
        _, ours = pricing.discount_policy(model, items)
        k = int(ours.sum())
        scores = pricing.uplift_scores(observations, mu1, mu0, prop, items)
        masks = {"cfmtl": ours}
        for name in ("or", "ips", "dr"):
            masks[name] = pricing.top_k_policy(items, scores[name], k)
        keys = [(it.station_id, it.slot_of_day) for it in items]
        want = {
            method: {key: c for key, give in zip(keys, mask) if give}
            for method, mask in masks.items()
        }
        got = cli._method_decisions(model, mu1, mu0, prop, items, observations, c)
        assert got == want
        assert all(len(got[m]) == k for m in cli.METHODS)


class TestUnreadableInputs:
    @pytest.mark.parametrize(
        "stage,name",
        [
            ("train-price", "data/charging.csv"),
            ("eval-price", "data/strata.csv"),
            ("train-drl", "data/rtp.csv"),
            ("train-drl", "results/discounts.csv"),
        ],
        ids=["train-price-charging.csv", "eval-price-strata.csv", "train-drl-rtp.csv", "discounts"],
    )
    def test_non_utf8_csv_exits_3_naming_file_and_byte(
        self, priced, tmp_path, capsys, stage, name
    ):
        def bad_byte(copy):
            data = (copy / name).read_bytes()
            at = data.index(b"\n") + 3
            (copy / name).write_bytes(data[:at] + b"\xff" + data[at:])

        rc, err, copy = run_copy(priced, tmp_path, capsys, stage, "--force", edit=bad_byte)
        assert rc == cli.EXIT_DATA, err
        at = (copy / name).read_bytes().index(b"\n") + 3  # the header is as it was
        assert err.startswith(f"data error: {copy / name}: byte {at} is not UTF-8 text"), err

    def test_field_over_the_csv_limit_exits_3_naming_file_and_line(
        self, priced, tmp_path, capsys
    ):
        long_field = lambda lines: [*lines[:3], "0,2," + "x" * 200_000, *lines[4:]]
        edit = rewrite("data/strata.csv", long_field)
        rc, err, copy = run_copy(priced, tmp_path, capsys, "eval-price", "--force", edit=edit)
        assert rc == cli.EXIT_DATA, err
        path, limit = copy / "data" / "strata.csv", csv.field_size_limit()
        assert err == f"data error: {path} line 4: field larger than field limit ({limit})\n"

    def test_non_utf8_result_csv_fails_report_with_exit_3(self, pipeline, tmp_path, capsys):
        def bad_first(copy):
            path = copy / "results" / "drl_eval.csv"
            path.write_bytes(b"\xff" + path.read_bytes())

        rc, err, copy = run_copy(pipeline, tmp_path, capsys, "report", "--force", edit=bad_first)
        assert rc == cli.EXIT_DATA
        assert f"data error: {copy / 'results' / 'drl_eval.csv'}: byte 0 is not UTF-8 text" in err

    def test_non_utf8_config_exits_2_naming_the_file(self, tmp_path, capsys):
        config_path = write_config(tmp_path / "run.yaml", tiny_config(tmp_path / "never"))
        with open(config_path, "ab") as fh:
            fh.write(b"# \xff\n")
        assert cli.main(["gen-data", "--config", config_path]) == cli.EXIT_CONFIG
        assert f"config error: cannot read config {config_path}: " in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    def test_non_utf8_snapshot_is_a_different_configuration(self, priced, tmp_path, capsys):
        def bad_snapshot(copy):
            path = copy / "config.yaml"
            path.write_bytes(path.read_bytes() + b"# \xff\n")

        rc, err, copy = run_copy(priced, tmp_path, capsys, "train-price", edit=bad_snapshot)
        assert rc == cli.EXIT_CONFIG
        path = copy / "config.yaml"
        assert f"config error: {path} was written with a different configuration" in err

    @pytest.mark.parametrize("text", ["{bad", "[]", '{"stages": 1}'])
    def test_unreadable_manifest_exits_3_naming_it(self, priced, tmp_path, capsys, text):
        def edit(copy):
            shutil.rmtree(copy / "results")
            (copy / "manifest.json").write_text(text)

        rc, err, copy = run_copy(priced, tmp_path, capsys, "eval-price", "--force", edit=edit)
        assert rc == cli.EXIT_DATA, err
        assert err.startswith("data error: ") and str(copy / "manifest.json") in err
        # the manifest is read before the stage runs, so no result is written
        assert not (copy / "results").exists()

    def test_series_not_starting_at_slot_0_fails_train_drl(self, priced, tmp_path, capsys):
        # the DRL stages read row i of a series as hour i % 24
        def shift(lines):
            return [lines[0]] + [f"{int(slot) + 5},{price}" for slot, price in
                                 (line.split(",") for line in lines[1:])]

        edit = rewrite("data/rtp.csv", shift)
        rc, err, copy = run_copy(priced, tmp_path, capsys, "train-drl", edit=edit)
        assert rc == cli.EXIT_DATA, err
        assert f"data error: {copy / 'data' / 'rtp.csv'} line 2: missing slot 0, found 5" in err

    def test_quarter_without_items_fails_eval_price_before_any_write(
        self, priced, tmp_path, capsys
    ):
        # drop every item, and every logged record, of slots 18-23; the slot
        # is the second field of both files
        def drop_evening(copy):
            shutil.rmtree(copy / "results", ignore_errors=True)
            for name in ("strata.csv", "charging.csv"):
                rewrite(f"data/{name}", lambda lines: [lines[0]] + [
                    r for r in lines[1:] if int(r.split(",")[1]) % 24 < 18
                ])(copy)

        rc, err, copy = run_copy(priced, tmp_path, capsys, "eval-price", edit=drop_evening)
        assert rc == cli.EXIT_DATA, err
        strata = copy / "data" / "strata.csv"
        assert f"data error: {strata}: no items fall in period 18-24" in err
        assert not (copy / "results").exists()

    def test_header_only_strata_and_charging_fail_eval_price(self, priced, tmp_path, capsys):
        def edit(copy):
            for name in ("strata.csv", "charging.csv"):
                rewrite(f"data/{name}", lambda lines: lines[:1])(copy)

        rc, err, copy = run_copy(priced, tmp_path, capsys, "eval-price", "--force", edit=edit)
        assert rc == cli.EXIT_DATA, err
        strata = copy / "data" / "strata.csv"
        assert f"data error: {strata}: no items fall in period 00-06" in err


def first_inputs():
    """(stage, first declared input) of every stage that declares its inputs
    up front; report declares the results it finds, so a fresh run has none."""
    cfg = run_config_from_dict(tiny_config("run"))
    cases = [(name, entry[0](cfg, "")) for name, entry in cli.STAGES.items() if name != "report"]
    return [(name, paths[0]) for name, paths in cases if paths]


class TestMissingInputsPinNothing:
    def test_cases_cover_the_pipeline_stages(self):
        assert [stage for stage, _ in first_inputs()] == [
            "train-price",
            "eval-price",
            "train-drl",
            "eval-drl",
        ]

    @pytest.mark.parametrize("stage,first", first_inputs())
    def test_stage_on_a_fresh_run_writes_no_snapshot(self, tmp_path, capsys, stage, first):
        run_dir = tmp_path / "fresh"
        config_path = write_config(tmp_path / "c.yaml", tiny_config(run_dir))
        assert cli.main([stage, "--config", config_path]) == cli.EXIT_DATA
        assert f"data error: missing {run_dir / first}" in capsys.readouterr().err
        assert not (run_dir / "config.yaml").exists()
        # nothing was pinned, so a corrected config starts the run
        fixed = write_config(tmp_path / "fixed.yaml", tiny_config(run_dir, seed=8))
        assert cli.main(["gen-data", "--config", fixed]) == cli.EXIT_OK


def _relative(paths, run_dir):
    return sorted(os.path.relpath(p, run_dir).replace(os.sep, "/") for p in paths)


class TestStageTable:
    """Each STAGES entry declares exactly the files its stage reads and writes."""

    def test_subcommands_are_the_stages_in_pipeline_order(self):
        assert list(cli.STAGES) == [
            "gen-data",
            "train-price",
            "eval-price",
            "train-drl",
            "eval-drl",
            "report",
        ]

    @pytest.mark.parametrize("stage", list(cli.STAGES))
    def test_opens_and_records_exactly_the_declared_files(
        self, pipeline, tmp_path, monkeypatch, capsys, stage
    ):
        copy = tmp_path / "run"
        reads, writes, recording = set(), set(), [True]

        def recorded(file, mode="r", *args, _open=open, **kwargs):
            if recording[0] and str(file).startswith(str(copy) + os.sep):
                if "w" in mode:  # every write goes to <path>.tmp, then is renamed
                    writes.add(str(file).removesuffix(".tmp"))
                else:
                    reads.add(str(file))
            return _open(file, mode, *args, **kwargs)

        def manifest_last(*args, _update=cli._update_manifest):
            recording[0] = False  # the manifest hashes the outputs it lists
            return _update(*args)

        def record(_):
            monkeypatch.setattr(builtins, "open", recorded)
            monkeypatch.setattr(cli, "_update_manifest", manifest_last)

        rc, err, _ = run_copy(pipeline, tmp_path, capsys, stage, "--force", edit=record)
        assert rc == cli.EXIT_OK, err
        cfg = cli.load_run_config(pipeline[0])
        inputs, outputs, _ = cli.STAGES[stage]
        declared = tuple(_relative(files(cfg, str(copy)), copy) for files in (inputs, outputs))
        bookkeeping = ("config.yaml", "manifest.json")
        opened = tuple(
            [p for p in _relative(files, copy) if p not in bookkeeping]
            for files in (reads, writes)
        )
        # the pipeline holds both result tables, so report writes both tables
        assert opened == declared
        with open(copy / "manifest.json", encoding="utf-8") as fh:
            assert sorted(json.load(fh)["stages"][stage]) == declared[1]

    def test_report_records_only_the_tables_it_wrote(self, priced, tmp_path, capsys):
        rc, err, copy = run_copy(priced, tmp_path, capsys, "report")
        assert rc == cli.EXIT_OK, err
        with open(copy / "manifest.json", encoding="utf-8") as fh:
            assert sorted(json.load(fh)["stages"]["report"]) == ["report/pricing_report.csv"]

    @pytest.mark.parametrize("stage", list(cli.STAGES))
    def test_each_missing_input_exits_3_and_pins_nothing(self, pipeline, tmp_path, capsys, stage):
        config_path, run_dir = pipeline
        copy = _copy_run(run_dir, tmp_path)
        (copy / "config.yaml").unlink()
        cfg = cli.load_run_config(config_path)
        inputs = cli.STAGES[stage][0]
        for path in inputs(cfg, str(copy)):
            aside = tmp_path / "aside"
            os.replace(path, aside)
            # report declares the result tables it finds: without one it
            # reports the other, so only what it still declares is required
            if path in inputs(cfg, str(copy)):
                argv = [stage, "--config", config_path, "--out", str(copy), "--force"]
                assert cli.main(argv) == cli.EXIT_DATA, path
                assert f"data error: missing {path};" in capsys.readouterr().err
                assert not (copy / "config.yaml").exists()
            os.replace(aside, path)


class TestDrlDataPath:
    def test_each_drl_stage_reads_each_trace_csv_once(self, priced, tmp_path, monkeypatch):
        config_path, run_dir = priced
        out = str(_copy_run(run_dir, tmp_path))
        reads = collections.Counter()

        def counted(path, schema, _load=traces.load_csv):
            reads[schema] += 1
            return _load(path, schema)

        monkeypatch.setattr(traces, "load_csv", counted)
        monkeypatch.setattr(cli, "load_csv", counted)
        for stage in ("train-drl", "eval-drl"):
            reads.clear()
            assert cli.main([stage, "--config", config_path, "--out", out]) == 0
            assert reads == dict.fromkeys(("rtp", "weather", "traffic", "strata"), 1), stage

    def test_drl_stages_load_no_pricing_checkpoint(self, priced, tmp_path, monkeypatch):
        config_path, run_dir = priced
        out = str(_copy_run(run_dir, tmp_path))
        loaded = []

        def recorded(path, _load=nn.load_weights):
            loaded.append(os.path.basename(path))
            return _load(path)

        monkeypatch.setattr(nn, "load_weights", recorded)
        for stage in ("train-drl", "eval-drl"):
            assert cli.main([stage, "--config", config_path, "--out", out]) == 0
        assert loaded == [f"drl_hub0_{method}.json" for method in cli.METHODS]

    def test_train_drl_before_eval_price_exits_3_and_pins_nothing(self, priced, tmp_path, capsys):
        changed = tiny_config(tmp_path / "run", seed=11)
        changed["ppo"]["window"] = 6
        run = (write_config(tmp_path / "changed.yaml", changed), priced[1])
        unpriced = lambda copy: os.remove(copy / "results" / "discounts.csv")
        rc, err, copy = run_copy(run, tmp_path, capsys, "train-drl", "--force", edit=unpriced)
        assert rc == cli.EXIT_DATA, err
        assert f"data error: missing {copy / 'results' / 'discounts.csv'}" in err
        snapshot = (Path(priced[1]) / "config.yaml").read_bytes()
        assert (copy / "config.yaml").read_bytes() == snapshot

    def test_hub_series_matches_the_per_slot_loop(self, tmp_path):
        raw = dict(
            tiny_config(tmp_path / "run", seed=5),
            n_hubs=2,
            traces={"days": 3, "n_stations": 2, "n_items": 24 + 20},
        )
        config_path = write_config(tmp_path / "c.yaml", raw)
        for sub in ("gen-data", "train-price"):
            assert cli.main([sub, "--config", config_path]) == 0
        cfg = cli.load_run_config(config_path)
        run_dir = str(tmp_path / "run")
        items, observations = cli._load_population(run_dir)
        stratum_of = {(it.station_id, it.slot_of_day): it.stratum for it in items}
        assert (1, 23) not in stratum_of  # truncated out of the universe
        decisions = cli._method_decisions(
            *cli._load_pricing_models(run_dir), items, observations, cfg.discount
        )
        discounted = 0
        for n_slots in (cfg.traces.n_slots, cfg.traces.n_slots - 5):
            for hub_id in range(cfg.n_hubs):
                for method in cli.METHODS:
                    args = (cfg, decisions[method], stratum_of, hub_id, n_slots)
                    got = cli._hub_series(*args)
                    want = hub_series_reference(*args)
                    for row, w in zip(got, want):
                        # the env reads a periodic row's slot t at row[t % len(row)]
                        g = row[np.arange(n_slots) % len(row)]
                        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
                    discounted += int((got[0] != cfg.base_sell_price).sum())
        assert discounted  # the discounted price was exercised


@pytest.fixture(scope="module")
def priced_year(tmp_path_factory):
    """A year-long, four-hub renewable run through eval-price: the DRL stages'
    envs at the benchmark pipeline's trace length."""
    base = tmp_path_factory.mktemp("priced_year")
    raw = dict(
        tiny_config(base / "run", seed=13),
        n_hubs=4,
        hub={"pv_capacity_kw": 10, "wt_capacity_kw": 5},
        traces={"days": 365, "n_stations": 4},
        pricing={"embed_dim": 4, "hidden": [8], "epochs": 1},
    )
    config_path = write_config(base / "run.yaml", raw)
    for sub in ("gen-data", "train-price", "eval-price"):
        assert cli.main([sub, "--config", config_path]) == 0
    return cli.load_run_config(config_path), str(base / "run")


class TestDrlEnvMemory:
    def test_envs_share_one_read_only_array_per_trace_row(self, priced_year):
        runs, envs = cli._drl_envs(*priced_year)
        assert len({hub_id for hub_id, _ in runs}) == 4 and len(envs) == 16
        for name in ("rtp", "load_rate", "p_wt", "p_pv"):
            row = getattr(envs[0], name)
            assert row.any() and not row.flags.writeable, name
            assert all(getattr(env, name) is row for env in envs), name
            with pytest.raises(ValueError, match="read-only"):
                row[0] = 0.0
        # the rows a pricing decision sets are each run's own
        for name in ("srtp", "occupancy"):
            rows = [getattr(env, name) for env in envs]
            assert not any(np.shares_memory(a, b) for a, b in zip(rows, rows[1:])), name

    def test_envs_hold_under_half_a_mb(self, priced_year):
        """Each env owns one day of srtp and occupancy, not a year of each."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            runs, envs = cli._drl_envs(*priced_year)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert envs[0].rtp.size == 365 * 24
        assert len(envs[0].srtp) == len(envs[0].occupancy) == cli.SLOTS_PER_DAY
        assert held < 1 << 19, f"{len(envs)} envs hold {held / 2**20:.2f} MB"


class TestTraceCsvMemory:
    def test_save_traces_peaks_under_half_a_mb(self, priced_year, tmp_path):
        """The CSVs are written WRITE_CHUNK_ROWS rows at a time, so the peak
        holds one chunk's text, not a Python list per year-long column."""
        data = os.path.join(priced_year[1], "data")
        series = traces.load_traces(data)
        log = traces.load_csv(os.path.join(data, "charging.csv"), "charging")
        assert len(log) == 4 * 365 * 24
        peak = heap_peak(lambda: traces.save_traces(series, log, str(tmp_path)))
        assert peak < 1 << 19, f"save_traces peaks at {peak / 2**20:.2f} MB"
        for name in ("rtp.csv", "weather.csv", "traffic.csv", "charging.csv"):
            assert (tmp_path / name).read_bytes() == Path(data, name).read_bytes(), name

    def test_load_charging_peaks_under_3_5_mb(self, priced_year):
        """np.loadtxt streams the bytes read; no decoded copy of the file is made.
        The log's five columns take 1.4 MB, the file 0.5 MB."""
        path = os.path.join(priced_year[1], "data", "charging.csv")
        peak = heap_peak(lambda: traces.load_csv(path, "charging"))
        assert peak < 3.5 * 2**20, f"load_csv peaks at {peak / 2**20:.2f} MB"


class TestEvalPriceMemory:
    def test_method_choices_peak_under_3_mb(self, priced_year):
        """The models predict in blocks of nn.PREDICT_ROWS rows, so the peak
        does not hold a forward cache for every logged record."""
        cfg, run_dir = priced_year
        models = cli._load_pricing_models(run_dir, cfg)
        items, observations = cli._load_population(run_dir, cfg.traces.n_stations)
        assert len(observations.stations) == 4 * 365 * 24
        peak = heap_peak(lambda: cli._method_choices(*models, items, observations))
        assert peak < 3 << 20, f"_method_choices peaks at {peak / 2**20:.2f} MB"


def hub_series_reference(cfg, decisions, stratum_of, hub_id, n_slots):
    """_hub_series as the per-slot loop computed it."""
    srtp = np.full(n_slots, cfg.base_sell_price)
    occupancy = np.zeros(n_slots, dtype=int)
    for t in range(n_slots):
        key = (hub_id, t % cli.SLOTS_PER_DAY)
        if key not in stratum_of:
            continue
        give = key in decisions
        if give:
            srtp[t] = cfg.base_sell_price * (1.0 - cfg.discount)
        occupancy[t] = traces.stratum_response(stratum_of[key], give)
    return srtp, occupancy


class TestDrlStage:
    def test_checkpoints_and_curves_per_hub_and_method(self, pipeline):
        _, run_dir = pipeline
        for method in ("cfmtl", "or", "ips", "dr"):
            ck = os.path.join(run_dir, "checkpoints", f"drl_hub0_{method}.json")
            assert os.path.exists(ck)
            header, rows = read_csv_rows(
                os.path.join(run_dir, "results", f"curve_hub0_{method}.csv")
            )
            assert header == CURVE_HEADER
            assert len(rows) == 2  # episodes_train

    def test_eval_rows_hub_by_method(self, pipeline):
        _, run_dir = pipeline
        header, rows = read_csv_rows(os.path.join(run_dir, "results", "drl_eval.csv"))
        assert header == DRL_EVAL_HEADER
        assert [(r[0], r[1]) for r in rows] == [
            ("0", "cfmtl"),
            ("0", "or"),
            ("0", "ips"),
            ("0", "dr"),
        ]

    def test_training_abort_exits_4_and_writes_no_checkpoint(
        self, tmp_path, monkeypatch, capsys
    ):
        run_dir = tmp_path / "abort"
        config = tiny_config(run_dir)
        config["ppo"]["episodes_train"] = 4
        config_path = write_config(tmp_path / "c.yaml", config)
        for sub in ("gen-data", "train-price", "eval-price"):
            assert cli.main([sub, "--config", config_path]) == 0
        real_update = scheduler.policy_update
        trained = []

        def update(bundle, *args, **kwargs):
            # the third run of the population (hub 0, ips) never updates
            if bundle not in trained:
                trained.append(bundle)
            if trained.index(bundle) == 2:
                return False
            return real_update(bundle, *args, **kwargs)

        monkeypatch.setattr(scheduler, "policy_update", update)
        assert cli.main(["train-drl", "--config", config_path]) == cli.EXIT_TRAINING
        err = capsys.readouterr().err
        assert "hub 0 ips: run 2: 3 consecutive update failures at episode 2" in err
        written = os.listdir(run_dir / "checkpoints") + os.listdir(run_dir / "results")
        assert not [name for name in written if name.startswith(("drl_", "curve_"))]

    def test_missing_drl_checkpoint_exits_3(self, priced, tmp_path, capsys):
        rc, err, _ = run_copy(priced, tmp_path, capsys, "eval-drl")
        assert rc == 3, err

    def test_rerun_is_refused_before_reading_inputs(self, pipeline, monkeypatch, capsys):
        config_path, _ = pipeline

        def read_inputs(*args):
            raise AssertionError("train-drl read its inputs before refusing the rerun")

        monkeypatch.setattr(cli, "_drl_envs", read_inputs)
        assert cli.main(["train-drl", "--config", config_path]) == cli.EXIT_CONFIG
        assert "refusing to overwrite" in capsys.readouterr().err


class TestStaleCheckpoints:
    # the tiny config: 5 stations, pricing embed_dim 8, hidden [16] and
    # discount 0.3, ppo window 4 and hidden [16, 16]
    @pytest.mark.parametrize(
        "stage,section,key,value,checkpoint,rerun",
        [
            ("eval-price", "traces", "n_stations", 7, "checkpoints/pricing_cfmtl.json", "train-price"),
            ("train-drl", "pricing", "discount", 0.4, "results/discounts.csv", "eval-price"),
            ("eval-price", "pricing", "hidden", [8], "checkpoints/pricing_cfmtl.json", "train-price"),
            ("eval-price", "pricing", "embed_dim", 4, "checkpoints/pricing_cfmtl.json", "train-price"),
            ("eval-drl", "ppo", "window", 6, "checkpoints/drl_hub0_cfmtl.json", "train-drl"),
            ("eval-drl", "ppo", "hidden", [8], "checkpoints/drl_hub0_cfmtl.json", "train-drl"),
        ],
        ids=[
            "stations-eval-price",
            "discount-train-drl",
            "pricing-hidden",
            "pricing-embed-dim",
            "ppo-window",
            "ppo-hidden",
        ],
    )
    def test_exits_3_naming_the_checkpoint_and_its_stage(
        self, pipeline, tmp_path, capsys, stage, section, key, value, checkpoint, rerun
    ):
        config = tiny_config(tmp_path / "run")
        config[section][key] = value
        changed = (write_config(tmp_path / "changed.yaml", config), pipeline[1])

        def regenerate(copy):
            if section == "traces":
                argv = ["gen-data", "--config", changed[0], "--out", str(copy), "--force"]
                assert cli.main(argv) == 0

        rc, err, copy = run_copy(changed, tmp_path, capsys, stage, "--force", edit=regenerate)
        assert rc == cli.EXIT_DATA, err
        assert err.startswith("data error: ") and str(copy / checkpoint) in err
        assert f"rerun {rerun} with --force" in err


    @pytest.mark.parametrize(
        "edit,key",
        [
            (lambda meta: meta.pop("hidden"), "hidden"),
            (lambda meta: meta.update(hidden="abc"), "hidden"),
            (lambda meta: meta.update(n_stations=[5]), "n_stations"),
        ],
        ids=["no-hidden", "hidden-string", "stations-list"],
    )
    def test_meta_fault_exits_3_naming_the_checkpoint_and_key(
        self, priced, tmp_path, capsys, edit, key
    ):
        path = str(tmp_path / "run" / "checkpoints" / "pricing_cfmtl.json")

        def edit_meta(_):
            arrays, meta = nn.load_weights(path)
            edit(meta)
            nn.save_weights(path, arrays, meta)  # a valid checksum over the edited meta

        rc, err, _ = run_copy(priced, tmp_path, capsys, "eval-price", "--force", edit=edit_meta)
        assert rc == cli.EXIT_DATA, err
        assert err.startswith("data error: ") and path in err and key in err


class TestNonFiniteCheckpoints:
    @pytest.mark.parametrize(
        "stage,checkpoint,array,index,value",
        [
            ("eval-price", "pricing_prop.json", "net.w0", slice(None), np.nan),
            ("eval-price", "pricing_cfmtl.json", "trunk.w0", slice(0, 5), np.inf),
            ("eval-drl", "drl_hub0_cfmtl.json", "actor.w0", slice(0, 1), np.nan),
        ],
        ids=["propensity-nan", "cfmtl-five-inf", "drl-nan"],
    )
    def test_exits_3_naming_the_checkpoint_and_array(
        self, pipeline, tmp_path, capsys, stage, checkpoint, array, index, value
    ):
        path = str(tmp_path / "run" / "checkpoints" / checkpoint)

        def poison(_):
            arrays, meta = nn.load_weights(path)
            arrays[array].flat[index] = value
            nn.save_weights(path, arrays, meta)  # a valid checksum over the edited values

        rc, err, _ = run_copy(pipeline, tmp_path, capsys, stage, "--force", edit=poison)
        assert rc == cli.EXIT_DATA, err
        assert err.startswith("data error: ") and path in err and repr(array) in err
        assert "non-finite" in err


class TestReport:
    def test_two_tables_with_documented_columns(self, pipeline):
        _, run_dir = pipeline
        header, rows = read_csv_rows(os.path.join(run_dir, "report", "pricing_report.csv"))
        assert header == ["method", "discount", "metric", "value"]
        assert len(rows) == 24 * 4
        header, rows = read_csv_rows(os.path.join(run_dir, "report", "drl_report.csv"))
        assert header == ["hub_id", "method", "metric", "episode", "value"]
        metrics = {r[2] for r in rows}
        assert metrics == {"avg_daily_reward", "total_reward", "mean_daily_reward"}

    def test_pricing_only_run_reports_with_warning(self, priced, tmp_path, capsys):
        rc, err, copy = run_copy(priced, tmp_path, capsys, "report")
        assert rc == 0, err
        assert "no DRL results" in err
        assert os.path.exists(copy / "report" / "pricing_report.csv")
        assert not os.path.exists(copy / "report" / "drl_report.csv")

    def test_empty_run_dir_exits_3(self, tmp_path):
        assert cli.main(["report", "--out", str(tmp_path / "void")]) == 3

    def test_reads_only_the_curves_drl_eval_lists(self, pipeline, tmp_path, capsys):
        before = (Path(pipeline[1]) / "report" / "drl_report.csv").read_bytes()

        def leave_curve(copy):
            # a curve left behind by an earlier train-drl with more hubs
            results = copy / "results"
            shutil.copy(results / "curve_hub0_cfmtl.csv", results / "curve_hub1_cfmtl.csv")

        rc, err, copy = run_copy(pipeline, tmp_path, capsys, "report", "--force", edit=leave_curve)
        assert rc == 0, err
        assert (copy / "report" / "drl_report.csv").read_bytes() == before

    @pytest.mark.parametrize("hub_id,method", [("0", "../cfmtl"), ("x", "cfmtl"), ("-1", "or")])
    def test_unknown_run_in_drl_eval_exits_3_naming_the_line(
        self, pipeline, tmp_path, capsys, hub_id, method
    ):
        add_row = lambda lines: [*lines[:2], f"{hub_id},{method},0.5", *lines[2:]]
        edit = rewrite("results/drl_eval.csv", add_row)
        rc, err, copy = run_copy(pipeline, tmp_path, capsys, "report", "--force", edit=edit)
        assert rc == cli.EXIT_DATA
        path = copy / "results" / "drl_eval.csv"
        assert f"data error: {path} line 3: no run hub {hub_id!r}, method {method!r}" in err

    def test_missing_listed_curve_exits_3_naming_it(self, pipeline, tmp_path, capsys):
        edit = lambda copy: (copy / "results" / "curve_hub0_or.csv").unlink()
        rc, err, copy = run_copy(pipeline, tmp_path, capsys, "report", "--force", edit=edit)
        assert rc == cli.EXIT_DATA
        assert f"data error: missing {copy / 'results' / 'curve_hub0_or.csv'}" in err

    @pytest.mark.parametrize("name", ["drl_eval.csv", "curve_hub0_cfmtl.csv"])
    def test_short_row_exits_3_naming_file_and_line(self, pipeline, tmp_path, capsys, name):
        # the header, then a row of "0"
        edit = rewrite(f"results/{name}", lambda lines: [lines[0], lines[1][0]])
        rc, err, copy = run_copy(pipeline, tmp_path, capsys, "report", "--force", edit=edit)
        assert rc == 3
        assert f"{copy / 'results' / name} line 2: expected 3 fields, got 1" in err

    def test_report_needs_config_or_out(self):
        assert cli.main(["report"]) == 2

    @pytest.mark.parametrize("stage", ["report", "eval-price"])
    def test_missing_or_unreadable_config_exits_2(self, tmp_path, capsys, stage):
        missing = str(tmp_path / "absent.yaml")
        assert cli.main([stage, "--config", missing]) == 2
        assert f"config error: config file not found: {missing}" in capsys.readouterr().err
        # a directory exists but cannot be read as a file
        assert cli.main([stage, "--config", str(tmp_path)]) == 2
        assert f"config error: cannot read config {tmp_path}" in capsys.readouterr().err


class TestManifest:
    def test_stages_recorded_with_hashes(self, pipeline):
        _, run_dir = pipeline
        with open(os.path.join(run_dir, "manifest.json"), "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        stages = manifest["stages"]
        assert set(stages) >= {"gen-data", "train-price", "eval-price", "train-drl", "eval-drl", "report"}
        entry = stages["gen-data"]
        assert any(name.endswith("rtp.csv") for name in entry)
        for digest in entry.values():
            assert len(digest) == 64
            int(digest, 16)

    def test_manifest_is_deterministic_json(self, pipeline):
        _, run_dir = pipeline
        blob = open(os.path.join(run_dir, "manifest.json"), "rb").read()
        assert b"time" not in blob.lower()


class TestCrashSafeWrites:
    """A write that fails partway leaves the earlier file whole and no temp file."""

    @pytest.fixture
    def failing_writes(self, monkeypatch):
        def half_open(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            write = fh.write

            def half_write(text):
                write(text[: len(text) // 2])
                raise OSError("disk full")

            fh.write = half_write
            return fh

        def arm():
            monkeypatch.setattr(nn, "open", half_open, raising=False)

        return arm

    def check(self, directory, path, rewrite, arm):
        before = path.read_bytes()
        names = sorted(os.listdir(directory))
        arm()
        with pytest.raises(OSError, match="disk full"):
            rewrite()
        assert path.read_bytes() == before
        assert sorted(os.listdir(directory)) == names

    def test_csv_rows(self, tmp_path, failing_writes):
        path = tmp_path / "t.csv"
        traces._write_rows(str(path), ["a", "b"], [(1, 2)])
        rewrite = lambda: traces._write_rows(str(path), ["a", "b"], [(3, 4)] * 100)
        self.check(tmp_path, path, rewrite, failing_writes)

    def test_manifest(self, tmp_path, failing_writes):
        data = tmp_path / "x.csv"
        data.write_text("x\n")
        cli._update_manifest(str(tmp_path), "gen-data", [str(data)])
        rewrite = lambda: cli._update_manifest(str(tmp_path), "report", [str(data)])
        self.check(tmp_path, tmp_path / "manifest.json", rewrite, failing_writes)

    def test_snapshot(self, tmp_path, failing_writes):
        cli._write_snapshot(RunConfig(seed=1), str(tmp_path), force=False)
        rewrite = lambda: cli._write_snapshot(RunConfig(seed=2), str(tmp_path), force=True)
        self.check(tmp_path, tmp_path / "config.yaml", rewrite, failing_writes)


class TestSeedOverride:
    def test_seed_flag_changes_outputs(self, tmp_path):
        cfg = tiny_config(tmp_path / "a")
        config_path = write_config(tmp_path / "c.yaml", cfg)
        assert cli.main(["gen-data", "--config", config_path]) == 0
        assert (
            cli.main(
                ["gen-data", "--config", config_path, "--seed", "8", "--out", str(tmp_path / "b")]
            )
            == 0
        )
        a = open(tmp_path / "a" / "data" / "charging.csv", "rb").read()
        b = open(tmp_path / "b" / "data" / "charging.csv", "rb").read()
        assert a != b

    def test_seed_flag_outside_32_bits_exits_2(self, tmp_path, capsys):
        config_path = write_config(tmp_path / "c.yaml", tiny_config(tmp_path / "never"))
        assert cli.main(["gen-data", "--config", config_path, "--seed", "-1"]) == 2
        assert "config error: seed must be in [0, 2**32), got -1" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()
