import collections
import json
import os
import re
import shutil
import typing

import numpy as np
import pytest
import yaml

from hubopt import cli, hub, nn, pricing, scheduler, traces
from hubopt.cli import (
    CURVE_HEADER,
    DRL_EVAL_HEADER,
    PERIOD_HEADER,
    PRICING_EVAL_HEADER,
    RunConfig,
    run_config_from_dict,
)
from hubopt.hub import ConfigError


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
        with pytest.raises(ConfigError, match="at least 19, got 18: 19 items reach slot 18"):
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
    for path, cls, not_settable in (
        (("hub",), hub.HubConfig, {"battery"}),
        (("hub", "battery"), hub.BatterySpec, set()),
        (("traces",), cli.TraceGenConfig, set()),
        (("pricing",), pricing.PricingConfig, {"n_stations", "seed"}),
        (("ppo",), scheduler.EnvConfig, set()),
        (("ppo",), scheduler.PpoConfig, set()),
    ):
        out += [(path, k, h) for k, h in hints(cls).items() if k not in not_settable]
    return out


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
    """A run through train-price, for tests that rerun eval-price with --force."""
    base = tmp_path_factory.mktemp("priced_run")
    config_path = write_config(base / "run.yaml", tiny_config(base / "run", seed=11))
    for sub in ("gen-data", "train-price"):
        assert cli.main([sub, "--config", config_path]) == 0
    return config_path, str(base / "run")


def _edit_first_item(lines, station=None, slot_of_day=None):
    fields = lines[1].split(",")
    if station is not None:
        fields[0] = str(station)
    if slot_of_day is not None:
        fields[1] = str(slot_of_day)
    return [lines[0], ",".join(fields)] + lines[2:]


class TestStrataFaults:
    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda lines: _edit_first_item(lines, slot_of_day=30), "line 2: slot_of_day"),
            (lambda lines: _edit_first_item(lines, station=-1), "line 2: station_id is negative"),
            # the tiny config has 5 stations
            (lambda lines: _edit_first_item(lines, station=5), "station 5 is outside"),
            (lambda lines: lines + [lines[1]], "duplicate item"),
            (lambda lines: [lines[0]] + lines[2:], "has no item in"),
        ],
        ids=["slot-of-day-30", "station-negative", "station-beyond", "duplicate", "deleted"],
    )
    def test_eval_price_exits_3_naming_the_file(self, priced, tmp_path, capsys, edit, message):
        config_path, run_dir = priced
        copy = tmp_path / "run"
        shutil.copytree(run_dir, copy)
        path = copy / "data" / "strata.csv"
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        rc = cli.main(["eval-price", "--config", config_path, "--out", str(copy)])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_DATA, err
        assert err.startswith("data error: ") and f"{path}" in err and message in err


class TestChargingStationFaults:
    # the tiny config has 5 stations
    @pytest.mark.parametrize("station", [-1, 5], ids=["station-negative", "station-beyond"])
    def test_train_price_exits_3_naming_the_file(self, priced, tmp_path, capsys, station):
        config_path, run_dir = priced
        copy = tmp_path / "run"
        shutil.copytree(run_dir, copy)
        path = copy / "data" / "charging.csv"
        lines = _edit_first_item(path.read_text().splitlines(), station=station)
        path.write_text("\n".join(lines) + "\n")
        rc = cli.main(["train-price", "--config", config_path, "--out", str(copy), "--force"])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_DATA, err
        assert err.startswith("data error: ") and f"{path}" in err
        assert f"record 0 (station {station}, slot of day 0) is outside" in err


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


def _copy_run(run_dir, tmp_path):
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    return copy


class TestUnreadableInputs:
    @pytest.mark.parametrize(
        "stage,name",
        [("train-price", "charging.csv"), ("eval-price", "strata.csv"), ("train-drl", "rtp.csv")],
    )
    def test_non_utf8_csv_exits_3_naming_file_and_byte(
        self, priced, tmp_path, capsys, stage, name
    ):
        config_path, run_dir = priced
        path = _copy_run(run_dir, tmp_path) / "data" / name
        data = path.read_bytes()
        at = data.index(b"\n") + 3
        path.write_bytes(data[:at] + b"\xff" + data[at:])
        rc = cli.main([stage, "--config", config_path, "--out", str(path.parents[1]), "--force"])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_DATA, err
        assert err.startswith(f"data error: {path}: byte {at} is not UTF-8 text"), err

    def test_non_utf8_result_csv_fails_report_with_exit_3(self, pipeline, tmp_path, capsys):
        _, run_dir = pipeline
        path = _copy_run(run_dir, tmp_path) / "results" / "drl_eval.csv"
        path.write_bytes(b"\xff" + path.read_bytes())
        assert cli.main(["report", "--out", str(path.parents[1]), "--force"]) == cli.EXIT_DATA
        assert f"data error: {path}: byte 0 is not UTF-8 text" in capsys.readouterr().err

    def test_non_utf8_config_exits_2_naming_the_file(self, tmp_path, capsys):
        config_path = write_config(tmp_path / "run.yaml", tiny_config(tmp_path / "never"))
        with open(config_path, "ab") as fh:
            fh.write(b"# \xff\n")
        assert cli.main(["gen-data", "--config", config_path]) == cli.EXIT_CONFIG
        assert f"config error: cannot read config {config_path}: " in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    def test_non_utf8_snapshot_is_a_different_configuration(self, priced, tmp_path, capsys):
        config_path, run_dir = priced
        path = _copy_run(run_dir, tmp_path) / "config.yaml"
        path.write_bytes(path.read_bytes() + b"# \xff\n")
        rc = cli.main(["train-price", "--config", config_path, "--out", str(path.parent)])
        assert rc == cli.EXIT_CONFIG
        assert f"config error: {path} was written with a different configuration" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("text", ["{bad", "[]", '{"stages": 1}'])
    def test_unreadable_manifest_exits_3_naming_it(self, priced, tmp_path, capsys, text):
        config_path, run_dir = priced
        copy = _copy_run(run_dir, tmp_path)
        (copy / "manifest.json").write_text(text)
        rc = cli.main(["eval-price", "--config", config_path, "--out", str(copy), "--force"])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_DATA, err
        assert err.startswith("data error: ") and str(copy / "manifest.json") in err

    def test_series_not_starting_at_slot_0_fails_train_drl(self, priced, tmp_path, capsys):
        # the DRL stages read row i of a series as hour i % 24
        config_path, run_dir = priced
        path = _copy_run(run_dir, tmp_path) / "data" / "rtp.csv"
        header, *rows = path.read_text().splitlines()
        shifted = [f"{int(slot) + 5},{price}" for slot, price in (r.split(",") for r in rows)]
        path.write_text("\n".join([header, *shifted]) + "\n")
        rc = cli.main(["train-drl", "--config", config_path, "--out", str(path.parents[1])])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_DATA, err
        assert f"data error: {path} line 2: missing slot 0, found 5" in err

    def test_quarter_without_items_fails_eval_price_before_any_write(
        self, priced, tmp_path, capsys
    ):
        config_path, run_dir = priced
        copy = _copy_run(run_dir, tmp_path)
        shutil.rmtree(copy / "results", ignore_errors=True)
        # drop every item, and every logged record, of slots 18-23; the slot
        # is the second field of both files
        for name in ("strata.csv", "charging.csv"):
            path = copy / "data" / name
            header, *rows = path.read_text().splitlines()
            kept = [r for r in rows if int(r.split(",")[1]) % 24 < 18]
            path.write_text("\n".join([header, *kept]) + "\n")
        rc = cli.main(["eval-price", "--config", config_path, "--out", str(copy)])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_DATA, err
        strata = copy / "data" / "strata.csv"
        assert f"data error: {strata}: no items fall in period 18-24" in err
        assert not (copy / "results").exists()


class TestDrlDataPath:
    def test_each_drl_stage_reads_each_trace_csv_once(self, priced, monkeypatch):
        config_path, _ = priced
        reads = collections.Counter()

        def counted(path, schema, _load=traces.load_csv):
            reads[schema] += 1
            return _load(path, schema)

        monkeypatch.setattr(traces, "load_csv", counted)
        monkeypatch.setattr(cli, "load_csv", counted)
        for stage in ("train-drl", "eval-drl"):
            reads.clear()
            assert cli.main([stage, "--config", config_path, "--force"]) == 0
            assert reads == dict.fromkeys(
                ("rtp", "weather", "traffic", "charging", "strata"), 1
            ), stage

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
                    for g, w in zip(got, want):
                        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
                    discounted += int((got[0] != cfg.base_sell_price).sum())
        assert discounted  # the discounted price was exercised


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
        for sub in ("gen-data", "train-price"):
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

    def test_missing_drl_checkpoint_exits_3(self, tmp_path):
        run_dir = tmp_path / "half"
        config_path = write_config(tmp_path / "c.yaml", tiny_config(run_dir))
        for sub in ("gen-data", "train-price"):
            assert cli.main([sub, "--config", config_path]) == 0
        assert cli.main(["eval-drl", "--config", config_path]) == 3


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

    def test_pricing_only_run_reports_with_warning(self, tmp_path, capsys):
        run_dir = tmp_path / "pronly"
        config_path = write_config(tmp_path / "c.yaml", tiny_config(run_dir))
        for sub in ("gen-data", "train-price", "eval-price"):
            assert cli.main([sub, "--config", config_path]) == 0
        assert cli.main(["report", "--config", config_path]) == 0
        err = capsys.readouterr().err
        assert "no DRL results" in err
        assert os.path.exists(run_dir / "report" / "pricing_report.csv")
        assert not os.path.exists(run_dir / "report" / "drl_report.csv")

    def test_empty_run_dir_exits_3(self, tmp_path):
        assert cli.main(["report", "--out", str(tmp_path / "void")]) == 3

    @pytest.mark.parametrize("name", ["drl_eval.csv", "curve_hub0_cfmtl.csv"])
    def test_short_row_exits_3_naming_file_and_line(self, pipeline, tmp_path, capsys, name):
        _, run_dir = pipeline
        copy = tmp_path / "run"
        shutil.copytree(run_dir, copy)
        path = copy / "results" / name
        text = path.read_text()
        path.write_text(text[: text.index("\n") + 2])  # header, then a row of "0"
        assert cli.main(["report", "--out", str(copy), "--force"]) == 3
        err = capsys.readouterr().err
        assert f"{path} line 2: expected 3 fields, got 1" in err

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
