import ast
import csv
import hashlib
import io
import math
import os
import re
import warnings
from dataclasses import astuple, dataclass, field
from typing import Callable

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hubopt import cli, traces
from hubopt.traces import (
    ChargingLog,
    PopulationItem,
    Stratum,
    TraceError,
    TraceSet,
    check_population_args,
    gen_charging_population,
    gen_rtp,
    gen_traffic,
    gen_weather,
    load_csv,
    load_traces,
    pv_power,
    save_strata,
    save_traces,
    stratum_response,
    wt_power,
)


class TestRtp:
    def test_diurnal_evening_peak_dominates_small_hours(self):
        series = gen_rtp(2, 168)
        hours = np.arange(168) % 24
        evening = series[(hours >= 18) & (hours < 24)]
        small = series[(hours >= 2) & (hours < 6)]
        assert evening.max() > 1.5 * small.max()

    def test_nonnegative_and_deterministic(self):
        a = gen_rtp(9, 240)
        b = gen_rtp(9, 240)
        assert np.array_equal(a, b)
        assert a.min() >= 0.0
        assert not np.array_equal(a, gen_rtp(10, 240))


def weather_reference(seed, n_slots):
    """gen_weather as it drew one scalar normal per slot in each loop."""
    rng = np.random.default_rng(seed)
    wind = np.empty(n_slots)
    w = 7.0
    for t in range(n_slots):
        w = 7.0 + 0.85 * (w - 7.0) + rng.normal(0.0, 1.6)
        wind[t] = max(w, 0.0)
    hours = np.arange(n_slots, dtype=np.float64) % 24.0
    elevation = np.sin(np.pi * (hours - 6.0) / 12.0)
    elevation = np.where((hours >= 6.0) & (hours <= 18.0), np.maximum(elevation, 0.0), 0.0)
    cloud = np.empty(n_slots)
    c = 0.75
    for t in range(n_slots):
        c = min(1.0, max(0.25, c + rng.normal(0.0, 0.1)))
        cloud[t] = c
    return wind, 950.0 * elevation * cloud


class TestWeatherTraffic:
    def test_weather_ranges(self):
        wind, irr = gen_weather(3, 240)
        assert wind.min() >= 0.0
        assert irr.min() >= 0.0
        hours = np.arange(240) % 24
        assert np.all(irr[(hours < 6) | (hours > 18)] == 0.0)
        assert irr[hours == 12].mean() > 100.0

    def test_weather_deterministic(self):
        assert np.array_equal(gen_weather(4, 100)[0], gen_weather(4, 100)[0])
        assert np.array_equal(gen_weather(4, 100)[1], gen_weather(4, 100)[1])

    @pytest.mark.parametrize("seed", [1, 2, 3, 17])
    @pytest.mark.parametrize("n_slots", [0, 1, 2, 25, 8760])
    def test_weather_matches_the_scalar_draw_loop(self, seed, n_slots):
        wind, irr = gen_weather(seed, n_slots)
        want_wind, want_irr = weather_reference(seed, n_slots)
        assert wind.dtype == irr.dtype == np.float64
        assert wind.tobytes() == want_wind.tobytes()
        assert irr.tobytes() == want_irr.tobytes()

    def test_traffic_range_and_shape(self):
        load = gen_traffic(5, 240)
        assert load.min() >= 0.0 and load.max() <= 1.0
        hours = np.arange(240) % 24
        assert load[(hours >= 18)].mean() > load[(hours >= 4) & (hours < 8)].mean()


class TestGenerationCurves:
    def test_wt_cubic_point(self):
        expect = 10.0 * (8.0**3 - 3.0**3) / (12.0**3 - 3.0**3)
        assert wt_power(8.0, 10.0) == pytest.approx(expect)
        assert expect == pytest.approx(2.8513, abs=1e-3)

    def test_wt_piecewise_regions(self):
        assert wt_power(2.0, 10.0) == 0.0
        assert wt_power(3.0, 10.0) == 0.0
        assert wt_power(12.0, 10.0) == 10.0
        assert wt_power(20.0, 10.0) == 10.0
        assert wt_power(25.5, 10.0) == 0.0

    def test_wt_vectorized(self):
        out = wt_power(np.array([2.0, 8.0, 30.0]), 10.0)
        assert out[0] == 0.0 and out[2] == 0.0
        assert 0.0 < out[1] < 10.0

    def test_pv_linear_then_clipped(self):
        assert pv_power(600.0, 5.0) == pytest.approx(2.7)
        assert pv_power(1200.0, 5.0) == 5.0
        assert pv_power(0.0, 5.0) == 0.0


def log_rows(log):
    """(station_id, slot, charged, discount_given, discount_rate) per row."""
    return list(zip(*(getattr(log, name).tolist() for name in traces.CHARGING_HEADER)))


class TestPopulation:
    PRIORS = (0.3, 0.2, 0.5)

    def test_deterministic(self):
        a = gen_charging_population(7, 5, 96, self.PRIORS)
        b = gen_charging_population(7, 5, 96, self.PRIORS)
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_universe_size_and_truncation(self):
        items, records = gen_charging_population(1, 352, 48, self.PRIORS, n_items=8426)
        assert len(items) == 8426
        assert items[-1].station_id == 351 and items[-1].slot_of_day == 1
        keys = {(station, slot % 24) for station, slot, *_ in log_rows(records)}
        assert keys == {(it.station_id, it.slot_of_day) for it in items}

    def test_records_respect_strata(self):
        items, records = gen_charging_population(11, 6, 24 * 8, self.PRIORS)
        stratum_of = {(it.station_id, it.slot_of_day): it.stratum for it in items}
        for station, slot, charged, given, rate in log_rows(records):
            stratum = stratum_of[(station, slot % 24)]
            assert charged == stratum_response(stratum, given)
            if not given:
                assert rate == 0.0
            else:
                assert rate == 0.3

    def test_each_item_observed_once_per_day(self):
        items, records = gen_charging_population(2, 4, 24 * 5, self.PRIORS)
        counts = {}
        for station, slot, *_ in log_rows(records):
            counts[(station, slot % 24)] = counts.get((station, slot % 24), 0) + 1
        assert set(counts.values()) == {5}

    def test_evening_incentive_boost(self):
        items, _ = gen_charging_population(3, 200, 24, self.PRIORS, evening_boost=3.0)
        evening = [it for it in items if it.slot_of_day >= 18]
        day = [it for it in items if it.slot_of_day < 18]
        share_evening = np.mean([it.stratum is Stratum.INCENTIVE_CHARGE for it in evening])
        share_day = np.mean([it.stratum is Stratum.INCENTIVE_CHARGE for it in day])
        assert share_evening > share_day + 0.1

    def test_random_policy_is_balanced(self):
        _, records = gen_charging_population(4, 20, 24 * 10, self.PRIORS)
        rate = np.mean(records.discount_given)
        assert 0.45 < rate < 0.55

    def test_confounded_policy_leans_evening(self):
        _, records = gen_charging_population(
            5, 20, 24 * 10, self.PRIORS, logged_policy="confounded"
        )
        treated = records.discount_given
        evening = records.slot % 24 >= 18
        assert treated[evening].mean() > treated[~evening].mean() + 0.2

    # the run config checks the generator's arguments once, with check_population_args
    def test_prior_validation(self):
        for priors in ((0.5, 0.5, 0.5), (0.5, 0.5), (-0.1, 0.6, 0.5)):
            with pytest.raises(ValueError, match="strata_priors"):
                check_population_args(2, priors, None, 2.5, "random", 0.3)

    def test_degenerate_priors_warn_not_error(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            items, _ = gen_charging_population(1, 2, 24, (0.0, 0.0, 1.0))
        assert any("degenerate" in str(w.message) for w in caught)
        assert all(it.stratum is Stratum.NO_CHARGE for it in items)

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="logged_policy"):
            check_population_args(2, self.PRIORS, None, 2.5, "greedy", 0.3)
        with pytest.raises(ValueError, match="logged_discount"):
            check_population_args(2, self.PRIORS, None, 2.5, "random", 0.0)


# whether an item of each stratum code charges, untreated and treated; -1 is
# an item truncated out of the universe
RESPONSE = {
    Stratum.ALWAYS_CHARGE: (1, 1),
    Stratum.INCENTIVE_CHARGE: (0, 1),
    Stratum.NO_CHARGE: (0, 0),
    -1: (0, 0),
}


class TestResponse:
    def test_truth_table(self):
        for code, charges in RESPONSE.items():
            for treated in (0, 1, False, True):
                assert stratum_response(code, treated) == charges[treated], (code, treated)

    def test_code_arrays_equal_the_per_item_rule(self):
        codes = np.array([code for code in RESPONSE for _ in range(2)] * 2)
        treated = np.arange(len(codes)) % 2 == 1
        got = stratum_response(codes, treated)
        assert got.dtype == np.int64
        assert got.tolist() == [RESPONSE[c][t] for c, t in zip(codes.tolist(), treated.tolist())]
        assert got.tolist() == [stratum_response(c, t) for c, t in zip(codes, treated)]
        # a grid of codes against a row of flags broadcast over it, as the
        # generator calls it with its (slot, station) grids
        grid, flags = codes.reshape(4, -1), treated[: len(codes) // 4]
        want = [[RESPONSE[c][t] for c, t in zip(row, flags.tolist())] for row in grid.tolist()]
        assert stratum_response(grid, flags).tolist() == want


class TestGeneratedLogKeepsTheRules:
    """The generator builds a log whose columns keep load_csv's rules, since
    no constructor checks them."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_stations=st.integers(1, 5),
        n_slots=st.integers(1, 60),
        priors=st.sampled_from(
            [(0.3, 0.2, 0.5), (0.0, 0.4, 0.6), (0.5, 0.0, 0.5), (0.6, 0.4, 0.0), (0.0, 1.0, 0.0)]
        ),
        cut=st.integers(0, 30),
        logged_policy=st.sampled_from(["random", "confounded"]),
        logged_discount=st.sampled_from([0.3, 0.05, 0.5, 0.95])
        | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_columns_keep_the_log_rules(
        self, seed, n_stations, n_slots, priors, cut, logged_policy, logged_discount
    ):
        n_items = max(1, n_stations * 24 - cut)
        check_population_args(n_stations, priors, n_items, 2.5, logged_policy, logged_discount)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # (0, 1, 0) is a degenerate prior
            universe, log = gen_charging_population(
                seed,
                n_stations,
                n_slots,
                priors,
                n_items=n_items,
                logged_policy=logged_policy,
                logged_discount=logged_discount,
            )
        dtypes = [getattr(log, name).dtype for name, _ in traces._LOG_COLUMNS]
        assert dtypes == [np.int64] * 4 + [np.float64]
        assert {getattr(log, name).shape for name, _ in traces._LOG_COLUMNS} == {(len(log),)}
        cols = (log.slot, log.charged, log.discount_given, log.discount_rate)
        traces._raise_first_fault(traces._log_rules(*cols), lambda i: f"row {i}")
        rows = universe.rows(log.station_id, log.slot % 24)
        assert rows.min(initial=0) >= 0
        want = stratum_response(universe.strata[rows], log.discount_given)
        assert np.array_equal(log.charged, want)


class TestCsvRoundTrip:
    def build_traces(self, n=72):
        wind, irr = gen_weather(8, n)
        _, log = gen_charging_population(8, 3, n, (0.3, 0.2, 0.5))
        series = TraceSet(
            rtp=gen_rtp(8, n),
            wind_mps=wind,
            irradiance_wm2=irr,
            load_rate=gen_traffic(8, n),
        )
        return series, log

    def test_round_trip_exact(self, tmp_path):
        ts, log = self.build_traces()
        save_traces(ts, log, str(tmp_path))
        back = load_traces(str(tmp_path))
        assert np.array_equal(back.rtp, ts.rtp)
        assert np.array_equal(back.wind_mps, ts.wind_mps)
        assert np.array_equal(back.irradiance_wm2, ts.irradiance_wm2)
        assert np.array_equal(back.load_rate, ts.load_rate)
        assert load_csv(str(tmp_path / "charging.csv"), "charging") == log

    def test_charging_csv_keeps_the_per_value_format(self, tmp_path):
        ts, log = self.build_traces()
        rate = log.discount_rate.copy()
        rate[:4] = [0.0, -0.0, 0.1 + 0.2, 1e-300]
        edited = ChargingLog(log.station_id, log.slot, log.charged, log.discount_given, rate)
        save_traces(ts, edited, str(tmp_path))
        # the reference: every value through _fmt on its own
        lines = ["station_id,slot,charged,discount_given,discount_rate"] + [
            f"{s},{t},{c},{g},{traces._fmt(r)}"
            for s, t, c, g, r in zip(
                log.station_id.tolist(),
                log.slot.tolist(),
                log.charged.tolist(),
                log.discount_given.tolist(),
                rate.tolist(),
            )
        ]
        with open(tmp_path / "charging.csv", "rb") as fh:
            assert fh.read() == ("\n".join(lines) + "\n").encode("utf-8")

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_chunked_writes_equal_a_whole_column_writer(self, tmp_path, extra):
        n = traces.WRITE_CHUNK_ROWS + extra
        rng = np.random.default_rng(n)
        floats = [rng.random(n) for _ in range(4)]
        for col in floats:
            col[::7], col[::11], col[-1] = -0.0, 0.1 + 0.2, -0.0
        ts = TraceSet(*floats)
        given = (np.arange(n) % 3 == 0).astype(np.int64)
        rate = np.where(given, 0.3, 0.0)
        rate[1::6] = -0.0
        log = ChargingLog(np.arange(n) % 5, np.arange(n) // 5, np.arange(n) % 2, given, rate)
        universe = traces.Universe(np.arange(n) // 24, np.arange(n) % 24, np.arange(n) % 3)
        save_traces(ts, log, str(tmp_path))
        save_strata(str(tmp_path / "strata.csv"), universe)

        def whole_columns(header, *cols):
            """csv.writer over every row at once, floats through repr."""
            text = io.StringIO()
            writer = csv.writer(text, lineterminator="\n")
            writer.writerow(header)
            fields = [
                list(map(repr, c.tolist())) if c.dtype.kind == "f" else c.tolist() for c in cols
            ]
            writer.writerows(zip(*fields))
            return text.getvalue().encode("utf-8")

        slots = np.arange(n)
        names = np.array(traces._STRATUM_NAMES)[universe.strata]
        want = {
            "rtp.csv": whole_columns(traces.RTP_HEADER, slots, ts.rtp),
            "weather.csv": whole_columns(traces.WEATHER_HEADER, slots, *floats[1:3]),
            "traffic.csv": whole_columns(traces.TRAFFIC_HEADER, slots, ts.load_rate),
            "charging.csv": whole_columns(
                traces.CHARGING_HEADER, *(getattr(log, name) for name, _ in traces._LOG_COLUMNS)
            ),
            "strata.csv": whole_columns(
                traces.STRATA_HEADER, universe.stations, universe.slots, names
            ),
        }
        for name, data in want.items():
            assert (tmp_path / name).read_bytes() == data, name
        assert b"-0.0" in want["charging.csv"] and b"-0.0" in want["rtp.csv"]

    def test_strata_round_trip(self, tmp_path):
        items, _ = gen_charging_population(9, 4, 24, (0.3, 0.2, 0.5))
        path = str(tmp_path / "strata.csv")
        save_strata(path, items)
        assert load_csv(path, "strata") == items

    @pytest.mark.parametrize("schema", ["rtp", "weather", "traffic"])
    def test_series_must_start_at_slot_0(self, tmp_path, schema):
        # the DRL stages read row i of a series as hour i % 24
        header = SCHEMAS[schema].header
        path = tmp_path / f"{schema}.csv"
        rows = [[str(slot)] + ["0.5"] * (len(header) - 1) for slot in (5, 6)]
        write_lines(path, header, rows)
        with pytest.raises(TraceError, match="line 2: missing slot 0, found 5$"):
            load_csv(str(path), schema)

    @pytest.mark.parametrize(
        "schema, row",
        [
            ("rtp", '1,"' + "1" * 200_000 + '"'),  # the C pass refuses a quote
            ("rtp", "1," + "1" * 200_000),  # the C pass reads inf
            ("strata", "0,1," + "x" * 200_000),
        ],
        ids=["series-quoted", "series-bare", "strata"],
    )
    def test_field_over_the_csv_limit_names_file_and_line(self, tmp_path, schema, row):
        header = SCHEMAS[schema].header
        first = "0," + ("0,always" if schema == "strata" else "0.1")
        path = tmp_path / f"{schema}.csv"
        path.write_text("\n".join([",".join(header), first, row, first]) + "\n")
        message = f"{path} line 3: field larger than field limit ({csv.field_size_limit()})"
        with pytest.raises(TraceError, match=f"^{re.escape(message)}$"):
            load_csv(str(path), schema)

    def test_unknown_schema(self, tmp_path):
        with pytest.raises(ValueError, match="schema"):
            load_csv(str(tmp_path / "x.csv"), "prices")

    def test_traceset_length_mismatch(self):
        with pytest.raises(TraceError, match="length"):
            TraceSet(
                rtp=np.zeros(5),
                wind_mps=np.zeros(4),
                irradiance_wm2=np.zeros(5),
                load_rate=np.zeros(5),
            )


class TestChargingLog:
    def log(self, **overrides):
        cols = {
            "station_id": [0, 1, 2],
            "slot": [0, 0, 1],
            "charged": [1, 0, 1],
            "discount_given": [0, 1, 1],
            "discount_rate": [0.0, 0.3, 0.3],
        }
        cols.update(overrides)
        return ChargingLog(**{name: np.array(col) for name, col in cols.items()})

    def test_equality_compares_columns(self):
        assert self.log() == self.log()
        assert self.log() != self.log(slot=[0, 0, 2])


def population_reference(
    seed,
    n_stations,
    n_slots,
    priors,
    n_items,
    logged_policy,
    logged_discount=0.3,
    evening_boost=2.5,
):
    """gen_charging_population as it drew one rng.choice per item and built the
    log record by record: (items, log rows)."""
    rng = np.random.default_rng(seed)
    evening_from = 18
    boosted = np.asarray(priors) * np.array([1.0, evening_boost, 1.0])
    boosted = boosted / boosted.sum()
    order = (Stratum.ALWAYS_CHARGE, Stratum.INCENTIVE_CHARGE, Stratum.NO_CHARGE)
    items = []
    for station in range(n_stations):
        for sod in range(24):
            if len(items) == n_items:
                break
            p = boosted if sod >= evening_from else np.asarray(priors)
            items.append(PopulationItem(station, sod, order[int(rng.choice(3, p=p))]))
    stratum_of = {(it.station_id, it.slot_of_day): it.stratum for it in items}
    if logged_policy == "random":
        treat_prob = np.full(24, 0.5)
    else:
        treat_prob = np.where(np.arange(24) >= evening_from, 0.7, 0.3)
    draws = rng.random((n_slots, n_stations))
    rows = []
    for t in range(n_slots):
        for station in range(n_stations):
            stratum = stratum_of.get((station, t % 24))
            if stratum is None:
                continue
            treated = int(draws[t, station] < treat_prob[t % 24])
            rate = logged_discount if treated else 0.0
            rows.append((station, t, stratum_response(stratum, treated), treated, rate))
    return items, rows


PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
PCG64_INCREMENT = 0xDA3E39CB94B95BDB  # any odd increment


def generator_drawing(u, at):
    """A PCG64 Generator whose random() number `at`, counted from 0, returns u.

    u must be a multiple of 2**-53 in [0, 1): random() is the top 53 bits of
    the next 64-bit output over 2**53. Each output is the xor of the 128-bit
    state's halves rotated right by the top 6 state bits, taken after the
    state steps by the LCG; the state is built to give u's bits at step
    at + 1, then stepped back to the start.
    """
    bits = int(u * 2**53) << 11
    high = 5 << 58 | 12345
    rot = high >> 58
    low = high ^ ((bits << rot | bits >> (64 - rot)) & (2**64 - 1))
    state = high << 64 | low
    inverse = pow(PCG64_MULTIPLIER, -1, 2**128)
    for _ in range(at + 1):
        state = (state - PCG64_INCREMENT) * inverse % 2**128
    bit_gen = np.random.PCG64()
    bit_gen.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": PCG64_INCREMENT},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return np.random.Generator(bit_gen)


def cdf_edges(p):
    """Draws on and one float beside each cdf entry of choice's rule and of
    the rule that first divides p by its sum, kept where random() can return
    them (multiples of 2**-53 below 1)."""
    p = np.asarray(p)
    edges = []
    for q in (p, p / p.sum()):
        cdf = q.cumsum()
        cdf /= cdf[-1]
        edges += [np.nextafter(cdf, 0.0), cdf, np.nextafter(cdf, 1.0)]
    return sorted({u for u in np.concatenate(edges).tolist() if (u * 2**53).is_integer() and u < 1})


class TestPopulationMatchesRecordLoop:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_stations=st.integers(1, 6),
        n_slots=st.integers(1, 60),
        priors=st.sampled_from(
            [(0.3, 0.2, 0.5), (0.1, 0.8, 0.1), (0.5, 0.0, 0.5), (0.0, 0.4, 0.6), (0.24, 0.02, 0.74)]
        ),
        evening_boost=st.sampled_from([2.5, 50.0]) | st.floats(0.01, 100.0),
        cut=st.integers(0, 30),
        logged_policy=st.sampled_from(["random", "confounded"]),
    )
    # boosted by 2.5, (0.3, 0.2, 0.5) sums to 0.9999999999999999; truncated mid-station
    @example(0, 40, 48, (0.3, 0.2, 0.5), 2.5, 7, "random")
    @example(1, 40, 48, (0.24, 0.02, 0.74), 50.0, 0, "random")  # price workload
    @example(2, 40, 48, (0.5, 0.0, 0.5), 2.5, 0, "confounded")
    @example(3, 40, 48, (0.0, 0.3, 0.7), 50.0, 30, "random")
    def test_items_and_rows_equal_the_loop(
        self, seed, n_stations, n_slots, priors, evening_boost, cut, logged_policy
    ):
        n_items = max(1, n_stations * 24 - cut)
        items, log = gen_charging_population(
            seed,
            n_stations,
            n_slots,
            priors,
            n_items=n_items,
            evening_boost=evening_boost,
            logged_policy=logged_policy,
        )
        want_items, want_rows = population_reference(
            seed, n_stations, n_slots, priors, n_items, logged_policy, evening_boost=evening_boost
        )
        assert list(items) == want_items
        assert log_rows(log) == want_rows

    @pytest.mark.parametrize(
        "priors, evening_boost",
        [((0.2, 0.7, 0.1), 2.5), ((0.1, 0.2, 0.7), 50.0), ((0.5, 0.0, 0.5), 2.5)],
    )
    def test_draws_on_a_cdf_edge_pick_the_stratum_choice_picks(
        self, monkeypatch, priors, evening_boost
    ):
        boosted = np.asarray(priors) * np.array([1.0, evening_boost, 1.0])
        boosted = boosted / boosted.sum()
        for at, p in ((5, priors), (20, boosted)):  # a day item and an evening item
            for u in cdf_edges(p):
                monkeypatch.setattr(np.random, "default_rng", lambda seed: generator_drawing(u, at))
                assert np.random.default_rng(0).random(at + 1)[at] == u
                items, _ = gen_charging_population(0, 1, 24, priors, evening_boost=evening_boost)
                want_items, _ = population_reference(
                    0, 1, 24, priors, 24, "random", evening_boost=evening_boost
                )
                assert list(items) == want_items, (at, u)

    def test_edge_cases_tell_the_two_cdf_rules_apart(self):
        # the day cdf of (0.2, 0.7, 0.1) moves by an ulp if p is divided by
        # its sum first, so the edge test above fails under that rule
        p = np.array([0.2, 0.7, 0.1])
        cdfs = [q.cumsum() / q.cumsum()[-1] for q in (p, p / p.sum())]
        assert not np.array_equal(*cdfs)


# sha256 of the charging_bench population's files as the per-item choice loop
# wrote them: gen_charging_population(11, 352, 24, (0.24, 0.02, 0.74),
# n_items=8426, evening_boost=50.0) through save_strata and save_traces
BENCH_STRATA_SHA256 = "6a328d206d8175fae827adb1b2595a5ad0b4180948abbc37a3ac29917d2b4e74"
BENCH_CHARGING_SHA256 = "c81662d5b8ea2065e430dd42a308f7d47d0f706bd648b08091ae02ed0c3cd353"


class TestPopulationAtFullScale:
    def test_charging_bench_files_keep_their_bytes(self, tmp_path):
        items, log = gen_charging_population(
            11, 352, 24, (0.24, 0.02, 0.74), n_items=8426, evening_boost=50.0
        )
        save_strata(str(tmp_path / "strata.csv"), items)
        one_slot = TraceSet(rtp=[0.1], wind_mps=[0.0], irradiance_wm2=[0.0], load_rate=[0.5])
        save_traces(one_slot, log, str(tmp_path))
        digest = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("strata.csv", "charging.csv")
        }
        assert digest == {"strata.csv": BENCH_STRATA_SHA256, "charging.csv": BENCH_CHARGING_SHA256}


# -- the one-pass read against the field checker and a row-by-row reference -----
#
# load_csv and cli._load_decisions read every CSV through traces._read_table:
# one np.loadtxt pass, and the field-by-field checker when the pass refuses
# the file or a row rule is broken. ref_load_csv reads one row and one field
# at a time, as load_csv once did; all three reads must give the same bits and
# raise the same errors.


def ref_read_rows(path, header):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            got = next(reader)
        except StopIteration:
            raise TraceError(f"{path}: empty file, expected header {','.join(header)}")
        if got != header:
            raise TraceError(
                f"{path}: bad header {','.join(got)!r}, expected {','.join(header)!r}"
            )
        rows = []
        for ln, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise TraceError(
                    f"{path} line {ln}: expected {len(header)} fields, got {len(row)}"
                )
            rows.append((ln, row))
        return rows


def ref_parse_float(path, ln, field, text):
    try:
        value = float(text)
    except ValueError:
        raise TraceError(f"{path} line {ln}: {field} is not a number: {text!r}")
    if not math.isfinite(value):
        raise TraceError(f"{path} line {ln}: {field} is not finite: {text!r}")
    return value


def ref_parse_int(path, ln, field, text):
    try:
        value = int(text)
    except ValueError:
        raise TraceError(f"{path} line {ln}: {field} is not an integer: {text!r}")
    if not -(2**63) <= value < 2**63:
        raise TraceError(f"{path} line {ln}: {field} is out of the int64 range: {text!r}")
    return value


def ref_read_series(path, header):
    rows = ref_read_rows(path, header)
    if not rows:
        raise TraceError(f"{path}: no data rows")
    cols = [[] for _ in header[1:]]
    for i, (ln, row) in enumerate(rows):
        slot = ref_parse_int(path, ln, "slot", row[0])
        if slot != i:
            raise TraceError(f"{path} line {ln}: missing slot {i}, found {slot}")
        for j, field in enumerate(header[1:]):
            cols[j].append(ref_parse_float(path, ln, field, row[j + 1]))
    return [np.asarray(col) for col in cols]


DISCOUNT_CONFIG = cli.RunConfig()
# the items of strata.csv for discounts.csv: stations 0-3 at every slot of
# day, bar one in five
DISCOUNT_ITEMS = [(s, t) for s in range(4) for t in range(24) if (s + t) % 5]
DISCOUNT_UNIVERSE = traces.Universe.from_items(
    [PopulationItem(s, t, Stratum.ALWAYS_CHARGE) for s, t in DISCOUNT_ITEMS]
)


def ref_load_csv(path, schema):
    """The file read one row and one field at a time: its columns as arrays,
    in the order SCHEMAS[schema].read lays them out, or for "discounts"
    cli._load_decisions' decisions."""
    if schema == "rtp":
        (price,) = ref_read_series(path, traces.RTP_HEADER)
        if price.min() < 0:
            raise TraceError(f"{path}: negative price at slot {int(price.argmin())}")
        return [price]
    if schema == "weather":
        wind, irr = ref_read_series(path, traces.WEATHER_HEADER)
        if wind.min() < 0 or irr.min() < 0:
            raise TraceError(f"{path}: weather values must be nonnegative")
        return [wind, irr]
    if schema == "traffic":
        (load,) = ref_read_series(path, traces.TRAFFIC_HEADER)
        if load.min() < 0 or load.max() > 1:
            bad = int(np.argmax((load < 0) | (load > 1)))
            raise TraceError(f"{path}: load_rate out of [0, 1] at slot {bad}: {load[bad]}")
        return [load]
    if schema == "charging":
        records = []
        for ln, row in ref_read_rows(path, traces.CHARGING_HEADER):
            station, slot, charged, given = (
                ref_parse_int(path, ln, name, text)
                for name, text in zip(traces.CHARGING_HEADER[:4], row)
            )
            rate = ref_parse_float(path, ln, "discount_rate", row[4])
            for broken, message in (
                (slot < 0, f"slot must be nonnegative, got {slot}"),
                (charged not in (0, 1), f"charged must be 0/1, got {charged}"),
                (given not in (0, 1), f"discount_given must be 0/1, got {given}"),
                (not 0.0 <= rate < 1.0, f"discount_rate must be in [0, 1), got {rate}"),
                (given == 0 and rate != 0.0, "discount_rate must be 0 when no discount was given"),
            ):
                if broken:
                    raise TraceError(f"{path} line {ln}: {message}")
            records.append((station, slot, charged, given, rate))
        dtypes = [np.int64] * 4 + [np.float64]
        return [np.array([r[j] for r in records], dtype=d) for j, d in enumerate(dtypes)]
    if schema == "discounts":
        strata_path = os.path.join(os.path.dirname(os.path.dirname(path)), "data", "strata.csv")
        decisions, first = {method: {} for method in cli.METHODS}, {}
        for ln, (method, *fields) in ref_read_rows(path, cli.DISCOUNTS_HEADER):
            if method not in cli.METHODS:
                raise TraceError(
                    f"{path} line {ln}: unknown method {method!r}, "
                    f"expected one of {list(cli.METHODS)}"
                )
            key = (
                ref_parse_int(path, ln, "station_id", fields[0]),
                ref_parse_int(path, ln, "slot_of_day", fields[1]),
            )
            item = f"item (station {key[0]}, slot_of_day {key[1]})"
            if key not in DISCOUNT_ITEMS:
                raise TraceError(f"{path} line {ln}: {item} is not in {strata_path}")
            if (method, key) in first:
                raise TraceError(
                    f"{path} line {ln}: duplicate {method} {item}, "
                    f"first on line {first[method, key]}"
                )
            first[method, key] = ln
            if ref_parse_float(path, ln, "discount", fields[2]) != DISCOUNT_CONFIG.discount:
                raise TraceError(
                    f"{path} line {ln}: discount {fields[2]} differs from the run config's "
                    f"pricing.discount {DISCOUNT_CONFIG.discount}; rerun eval-price with --force"
                )
            decisions[method][key] = DISCOUNT_CONFIG.discount
        return decisions
    items, first = [], {}
    rows = ref_read_rows(path, traces.STRATA_HEADER)
    for ln, row in rows:
        name = row[2]
        if name not in traces._STRATUM_NAMES:
            raise TraceError(
                f"{path} line {ln}: unknown stratum {name!r}, "
                f"expected one of {sorted(traces._STRATUM_NAMES)}"
            )
        station = ref_parse_int(path, ln, "station_id", row[0])
        if station < 0:
            raise TraceError(f"{path} line {ln}: station_id is negative: {row[0]!r}")
        slot_of_day = ref_parse_int(path, ln, "slot_of_day", row[1])
        if not 0 <= slot_of_day < 24:
            raise TraceError(f"{path} line {ln}: slot_of_day is outside [0, 24): {row[1]!r}")
        items.append((station, slot_of_day, traces._STRATUM_NAMES.index(name)))
    # duplicates are checked once every row is valid
    for (ln, _), (station, slot_of_day, _) in zip(rows, items):
        if (station, slot_of_day) in first:
            raise TraceError(
                f"{path} line {ln}: duplicate item (station {station}, slot_of_day "
                f"{slot_of_day}), first on line {first[station, slot_of_day]}"
            )
        first[station, slot_of_day] = ln
    return [np.array([item[j] for item in items], dtype=np.int64) for j in range(3)]


def _underscored(digits):
    return "_".join(digits) if len(digits) > 1 else digits


INT_STYLES = (
    str,
    lambda v: f" {v}",
    lambda v: f"{v} ",
    lambda v: f"+{v}" if v >= 0 else str(v),
    lambda v: f"0{v}" if v >= 0 else str(v),
    lambda v: ("-" if v < 0 else "") + _underscored(str(abs(v))),
)
FLOAT_STYLES = (
    repr,
    lambda x: f" {x!r}",
    lambda x: f"{x!r} ",
    lambda x: f"+{x!r}" if math.copysign(1.0, x) > 0 else repr(x),
    lambda x: f"{x:.17g}",
    lambda x: f"{x:.3e}",
    lambda x: _underscored(str(int(x))) + repr(x - int(x))[1:] if 10 <= x < 1e15 else repr(x),
)


def series_rows(values, width):
    """Rows of a series file, row i at slot i."""
    return st.lists(st.tuples(*[values] * (width - 1)), min_size=1, max_size=12).map(
        lambda rows: [[slot, *row] for slot, row in enumerate(rows)]
    )


CHARGING_ROW = st.integers(0, 1).flatmap(
    lambda given: st.tuples(
        st.integers(0, 400),
        st.integers(0, 10**5),
        st.integers(0, 1),
        st.just(given),
        st.floats(0.0, 0.99) if given else st.sampled_from([0.0, -0.0]),
    )
)
# stations past 2**63 / 24, where station * 24 leaves int64, as well as small ones
STRATA_STATIONS = st.one_of(st.integers(0, 400), st.integers(2**62, 2**63 - 1))
# (station, slot of day) keys that name no item of DISCOUNT_UNIVERSE
NOT_ITEMS = [(s, t) for s in range(4) for t in range(24) if (s + t) % 5 == 0]
NOT_ITEMS += [(4, 0), (99, 3), (-1, 2), (0, 24), (2, -1), (2**62, 5)]

# texts that put any row at fault, by the fields they go in
INT64_OUT = ["9223372036854775808", "-9223372036854775809"]
INT_TEXTS = ["x", "", "1.5", "1e3", "0x10", *INT64_OUT]
FLOAT_TEXTS = ["x", "", "nan", "NaN", "inf", "-inf", "1e999"]
SERIES_FAULTS = {"slot": ((0,), INT_TEXTS), "gap": None, "count": None}
# the over-long names are a name and a letter: a text type as wide as the
# longest name would cut them down to it
STRATUM_TEXTS = ["sometimes", "Always", "no charge", ""]
STRATUM_TEXTS += ["incentivex", "no_chargee", "alwaysalways", "incentive" + "x" * 20]
METHOD_TEXTS = ["greedy", "CFMTL", "", "or ", "cfmtlx", "cfmtlxx", "cfmtl" + "x" * 20]


@dataclass(frozen=True)
class Schema:
    """A CSV schema that traces._read_table reads, as the parity tests drive it.

    rows draws the field values (ints, floats, names) of a valid file. faults
    maps a fault kind to (columns, texts), any text in any of the columns
    breaking a row, or to None for a kind put_fault builds; a kind in
    file_faults breaks a rule over the whole file, whose error names no line.
    read returns the columns, or cli._load_decisions' decisions. EDGE_CASES
    edit edge_rows[1] at edge_fields: an int field, then a float one (an int
    one in strata, which has none). examples counts each property's examples.
    """

    name: str
    header: list
    rows: st.SearchStrategy
    faults: dict
    read: Callable
    edge_rows: list
    edge_fields: tuple
    examples: dict = field(
        default_factory=lambda: {"valid": 50, "plain": 25, "fault": 75, "several": 50}
    )
    file_faults: frozenset = frozenset()
    file: str = ""

    def path(self, directory):
        return directory / (self.file or f"{self.name}.csv")


SCHEMAS = {
    "rtp": Schema(
        "rtp",
        traces.RTP_HEADER,
        series_rows(st.floats(0.0, 1e6), 2),
        {**SERIES_FAULTS, "price": ((1,), FLOAT_TEXTS), "negative": ((1,), ["-1.0", "-0.5"])},
        lambda path: [load_csv(path, "rtp")],
        [["0", "0.1"], ["1", "0.25"], ["2", "0.3"]],
        (0, 1),
        file_faults=frozenset({"negative"}),
    ),
    "weather": Schema(
        "weather",
        traces.WEATHER_HEADER,
        series_rows(st.floats(0.0, 1e6), 3),
        {**SERIES_FAULTS, "value": ((1, 2), FLOAT_TEXTS), "negative": ((1, 2), ["-1.0"])},
        lambda path: list(load_csv(path, "weather")),
        [["0", "5.0", "0.0"], ["1", "6.5", "120.0"], ["2", "7.0", "300.5"]],
        (0, 2),
        file_faults=frozenset({"negative"}),
    ),
    "traffic": Schema(
        "traffic",
        traces.TRAFFIC_HEADER,
        series_rows(st.floats(0.0, 1.0), 2),
        {
            **SERIES_FAULTS,
            "load_rate": ((1,), FLOAT_TEXTS),
            "outside-unit": ((1,), ["1.5", "-0.1", "1e3"]),
        },
        lambda path: [load_csv(path, "traffic")],
        [["0", "0.5"], ["1", "0.25"], ["2", "0.75"]],
        (0, 1),
        file_faults=frozenset({"outside-unit"}),
    ),
    "charging": Schema(
        "charging",
        traces.CHARGING_HEADER,
        st.lists(CHARGING_ROW, min_size=1, max_size=12),
        {
            "station_id": ((0,), INT_TEXTS),
            "slot": ((1,), [*INT_TEXTS, "-1", "-5"]),
            "flag": ((2, 3), ["2", "-1", "x", "0.5", *INT64_OUT]),
            "rate": ((4,), [*FLOAT_TEXTS, "1.0", "-0.1"]),
            "undiscounted-rate": None,
            "count": None,
        },
        lambda path: astuple(load_csv(path, "charging")),
        [["0", "0", "1", "1", "0.3"], ["1", "0", "0", "1", "0.25"], ["0", "1", "1", "0", "0.0"]],
        (0, 4),
    ),
    "strata": Schema(
        "strata",
        traces.STRATA_HEADER,
        st.lists(
            st.tuples(STRATA_STATIONS, st.integers(0, 23), st.sampled_from(traces._STRATUM_NAMES)),
            min_size=1,
            max_size=30,
            unique_by=lambda row: row[:2],
        ),
        {
            "station_id": ((0,), [*INT_TEXTS, "-1", "-9223372036854775808"]),
            "slot_of_day": ((1,), [*INT_TEXTS, "-1", "24", "30", "99"]),
            "stratum": ((2,), STRATUM_TEXTS),
            "duplicate": None,
            "count": None,
        },
        lambda path: astuple(load_csv(path, "strata")),
        [["0", "0", "always"], ["1", "2", "incentive"], ["1", "18", "no_charge"]],
        (0, 1),
        examples={"valid": 50, "plain": 150, "fault": 360, "several": 50},
    ),
    "discounts": Schema(
        "discounts",
        cli.DISCOUNTS_HEADER,
        st.lists(
            st.tuples(st.sampled_from(cli.METHODS), st.sampled_from(DISCOUNT_ITEMS)),
            min_size=1,
            max_size=30,
            unique=True,
        ).map(lambda keys: [[m, s, t, DISCOUNT_CONFIG.discount] for m, (s, t) in keys]),
        {
            "method": ((0,), METHOD_TEXTS),
            "item": ((1, 2), INT_TEXTS),
            "not-in-strata": None,
            "duplicate": None,
            "discount": ((3,), [*FLOAT_TEXTS, "0.4", "0.30000000000000004", "0", "-0.3"]),
            "count": None,
        },
        lambda path: cli._load_decisions(
            DISCOUNT_CONFIG, os.path.dirname(os.path.dirname(path)), DISCOUNT_UNIVERSE
        ),
        [["cfmtl", "0", "1", "0.3"], ["or", "1", "2", "0.3"], ["dr", "3", "4", "0.3"]],
        (1, 3),
        examples={"valid": 150, "plain": 100, "fault": 300, "several": 200},
        file=os.path.join("results", "discounts.csv"),
    ),
}
SCHEMA_NAMES = sorted(SCHEMAS)
FIXTURE_OK = [HealthCheck.function_scoped_fixture]


def test_the_schema_table_holds_every_schema_load_csv_reads():
    """A schema load_csv reads cannot skip the parity tests below."""
    with open(traces.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    (load,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "load_csv"]
    compared = {
        node.comparators[0].value
        for node in ast.walk(load)
        if isinstance(node, ast.Compare) and getattr(node.left, "id", None) == "schema"
    }
    assert set(SCHEMAS) == compared | {"discounts"}


@st.composite
def field_texts(draw, schema, styled):
    """The field texts of a valid file: styled, ints and floats in varied
    spellings; plain, as the writers write them."""

    def text(value):
        if isinstance(value, str):
            return value
        if isinstance(value, int):
            return draw(st.sampled_from(INT_STYLES))(value) if styled else str(value)
        return draw(st.sampled_from(FLOAT_STYLES))(value) if styled else repr(value)

    return [[text(value) for value in row] for row in draw(schema.rows)]


def put_fault(data, schema, rows, kind):
    """Break one row of rows (field texts) with a fault of the given kind."""
    i = data.draw(st.integers(0, len(rows) - 1))
    width = len(schema.header)
    if kind == "count":
        # never back to the header's width, and never an empty row, which is
        # a blank line
        if len(rows[i]) == width and data.draw(st.booleans()):
            rows[i] = rows[i][:-1]
        elif len(rows[i]) >= width:
            rows[i] = rows[i] + ["1"]
    elif kind == "gap":
        rows[i][0] = str(i + data.draw(st.sampled_from([-1, 1, 2])))
    elif kind == "duplicate":
        # row i's key, every field but the last, again later in the file
        last = data.draw(field_texts(schema, styled=False))[0][-1]
        rows.insert(data.draw(st.integers(i + 1, len(rows))), rows[i][:-1] + [last])
    elif kind == "not-in-strata":
        rows[i][1:3] = map(str, data.draw(st.sampled_from(NOT_ITEMS)))
    elif kind == "undiscounted-rate":
        rows[i][3:] = ["0", data.draw(st.sampled_from(["0.3", "0.5", "1e-300"]))]
    else:
        columns, texts = schema.faults[kind]
        j = data.draw(st.sampled_from(columns))
        if j < len(rows[i]):  # else a count fault has cut the row short already
            rows[i][j] = data.draw(st.sampled_from(texts))


def write_lines(path, header, rows, blank_after=()):
    lines = [",".join(header)]
    for i, row in enumerate(rows):
        lines.append(",".join(row))
        if i in blank_after:
            lines.append("")
    path.write_text("\n".join(lines) + "\n")


def write_file(data, directory, schema, rows):
    """The schema's file in directory, with up to two blank lines among rows."""
    path = schema.path(directory)
    path.parent.mkdir(exist_ok=True)
    blanks = data.draw(st.sets(st.integers(0, len(rows) - 1), max_size=2))
    write_lines(path, schema.header, rows, blanks)
    return str(path)


def outcome(read, path, *patches):
    """read(path), each column as its dtype and bytes, or its error text, with
    each (module, name, value) of patches set while it reads."""
    with pytest.MonkeyPatch.context() as mp:
        for patch in patches:
            mp.setattr(*patch)
        try:
            got = read(path)
        except TraceError as exc:
            return f"TraceError: {exc}"
    return got if isinstance(got, dict) else [(col.dtype.str, col.tobytes()) for col in got]


def three_reads(schema, path):
    """The outcomes of the schema's read, of its read with the one-pass read
    refused, so that the file is read field by field, and of the reference."""
    return [
        outcome(schema.read, path),
        outcome(schema.read, path, (traces, "_bulk_columns", lambda *_: None)),
        outcome(lambda p: ref_load_csv(p, schema.name), path),
    ]


CHECKER = "the field-by-field read was reached"


def refuse_checker(path, header):
    raise TraceError(CHECKER)


def one_pass(schema, path):
    """The outcome of the schema's read with the field-by-field read refused,
    under the name cli imports too: an error naming CHECKER if it was reached."""
    refused = [(module, "_read_rows", refuse_checker) for module in (traces, cli)]
    return outcome(schema.read, path, *refused)


def examples(schema, prop):
    """A decorator: check(data) as a hypothesis test that runs the schema's
    number of examples of the property."""
    budget = settings(max_examples=schema.examples[prop], deadline=None)
    return lambda check: budget(given(data=st.data())(check))


# Texts on which np.loadtxt's C parser and csv + int()/float() part ways:
# each file must load to the reference's bits or fail with its exact error.


def edge_lines(schema, int_field=str, float_field=str):
    """The header and edge rows of a schema as lines, row 1's fields edited."""
    rows = [list(r) for r in schema.edge_rows]
    i, j = schema.edge_fields
    rows[1][i], rows[1][j] = int_field(rows[1][i]), float_field(rows[1][j])
    return [",".join(schema.header)] + [",".join(r) for r in rows]


def joined(eol="\n", **edits):
    return lambda schema: eol.join(edge_lines(schema, **edits)) + eol


def with_line(line, eol="\n"):
    """The file with line inserted after row 0."""

    def text(schema):
        lines = edge_lines(schema)
        return eol.join(lines[:2] + [line] + lines[2:]) + eol

    return text


ARABIC_DIGITS = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
EDGE_CASES = {
    "quoted": lambda s: re.sub(r"[^,\n]+", r'"\g<0>"', joined()(s)),
    "lone-cr": joined("\r"),
    "crlf": joined("\r\n"),
    "crlf-blank-line": with_line("", "\r\n"),
    "space-line": with_line(" "),
    "tab-line": with_line("\t"),
    "nul-line": with_line("\x00"),
    "hash-line": with_line("# note"),
    "vt-line": with_line("\v"),
    "ff-line": with_line("\f"),
    "nul-field": joined(float_field=lambda t: t + "\x00"),
    "hash-field": joined(float_field=lambda t: t + "#1"),
    "vt-field": joined(float_field=lambda t: f"\v{t}\v"),
    "ff-field": joined(int_field=lambda t: f"\f{t}", float_field=lambda t: f"{t}\f"),
    "nbsp-field": joined(float_field=lambda t: "\xa0" + t),
    # the C parser takes \x1c-\x1f for whitespace, int() and float() do not
    "group-separator-field": joined(float_field=lambda t: "\x1c" + t),
    "arabic-digits": joined(
        int_field=lambda t: t.translate(ARABIC_DIGITS),
        float_field=lambda t: t.translate(ARABIC_DIGITS),
    ),
    # a letter the C int parser reads as the digits 462
    "letter-for-digit": joined(int_field=lambda t: "\u01fe"),
    "underscore-int": joined(int_field=lambda t: "0_" + t),
    "underscore-float": joined(float_field=lambda t: "1_0.5"),
    "hex-float": joined(float_field=lambda t: "0x1p3"),
    "infinity": joined(float_field=lambda t: "infinity"),
    "bom": lambda s: "\ufeff" + joined()(s),
    "trailing-comma": lambda s: joined()(s)[:-1] + ",\n",
    "no-final-newline": lambda s: joined()(s)[:-1],
    "header-only": lambda s: ",".join(s.header) + "\n",
    "header-only-no-newline": lambda s: ",".join(s.header),
    "bad-header": lambda s: "x" + joined()(s),
    "empty-file": lambda s: "",
}
# the cases csv, int() and float() accept in every schema
EDGE_ACCEPTED = {
    "quoted",
    "lone-cr",
    "crlf",
    "crlf-blank-line",
    "vt-field",
    "ff-field",
    "nbsp-field",
    "arabic-digits",
    "underscore-int",
    "no-final-newline",
}


class TestBulkParseMatchesFieldParse:
    """Every schema's files read alike through the one-pass read, the forced
    field checker and the row-by-row reference."""

    @pytest.mark.parametrize("name", SCHEMA_NAMES)
    def test_valid_files_parse_to_the_same_bits(self, tmp_path, name):
        schema = SCHEMAS[name]

        @examples(schema, "valid")
        def check(data):
            path = write_file(data, tmp_path, schema, data.draw(field_texts(schema, styled=True)))
            got, by_fields, want = three_reads(schema, path)
            assert not isinstance(want, str), want
            assert got == by_fields == want

        check()

    @pytest.mark.parametrize("name", SCHEMA_NAMES)
    def test_plain_files_never_reach_the_checker(self, tmp_path, name):
        schema = SCHEMAS[name]

        @examples(schema, "plain")
        def check(data):
            path = write_file(data, tmp_path, schema, data.draw(field_texts(schema, styled=False)))
            got, by_fields, want = three_reads(schema, path)
            assert not isinstance(want, str), want
            assert one_pass(schema, path) == got == by_fields == want

        check()

    @pytest.mark.parametrize("name", SCHEMA_NAMES)
    def test_one_fault_raises_the_same_error(self, tmp_path, name):
        schema = SCHEMAS[name]

        @examples(schema, "fault")
        def check(data):
            rows = data.draw(field_texts(schema, styled=False))
            kind = data.draw(st.sampled_from(sorted(schema.faults)))
            put_fault(data, schema, rows, kind)
            path = write_file(data, tmp_path, schema, rows)
            got, by_fields, want = three_reads(schema, path)
            assert got == by_fields == want
            # a row fault is found by the checker, a file fault by the one-pass read
            if kind in schema.file_faults:
                assert got.startswith(f"TraceError: {path}: "), got
                assert one_pass(schema, path) == got
            else:
                assert got.startswith(f"TraceError: {path} line "), got
                assert one_pass(schema, path) == f"TraceError: {CHECKER}"

        check()

    @pytest.mark.parametrize("name", SCHEMA_NAMES)
    def test_several_faults_raise_the_first_in_file_order(self, tmp_path, name):
        schema = SCHEMAS[name]

        @examples(schema, "several")
        def check(data):
            rows = data.draw(field_texts(schema, styled=True))
            several = st.lists(st.sampled_from(sorted(schema.faults)), min_size=2, max_size=4)
            for kind in data.draw(several):
                put_fault(data, schema, rows, kind)
            path = write_file(data, tmp_path, schema, rows)
            got, by_fields, want = three_reads(schema, path)
            assert got == by_fields == want
            # a later fault can overwrite a row fault with a file fault
            where = "" if schema.file_faults else " line "
            assert got.startswith(f"TraceError: {path}{where}"), got

        check()

    def test_int_outside_int64_is_rejected_with_its_line(self, tmp_path):
        path = tmp_path / "rtp.csv"
        path.write_text(f"slot,price\n0,0.1\n{2**63},0.1\n")
        with pytest.raises(TraceError, match="line 3: slot is out of the int64 range"):
            load_csv(str(path), "rtp")

    def test_slots_that_wrap_past_int64_are_a_gap(self, tmp_path):
        path = tmp_path / "rtp.csv"
        path.write_text(f"slot,price\n{2**63 - 1},0.1\n{-(2**63)},0.1\n")
        want = f"TraceError: {path} line 2: missing slot 0, found {2**63 - 1}"
        assert three_reads(SCHEMAS["rtp"], str(path)) == [want] * 3

    @pytest.mark.parametrize("name", SCHEMA_NAMES)
    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_edge_text_parses_as_the_reference(self, tmp_path, case, name):
        schema = SCHEMAS[name]
        path = schema.path(tmp_path)
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(EDGE_CASES[case](schema).encode("utf-8"))
        got, by_fields, want = three_reads(schema, str(path))
        if case in EDGE_ACCEPTED:
            assert not isinstance(want, str), want
        assert got == by_fields == want


@settings(max_examples=50, deadline=None, suppress_health_check=FIXTURE_OK)
@given(rows=SCHEMAS["strata"].rows)
def test_save_strata_writes_the_row_writers_bytes(tmp_path, rows):
    items = [PopulationItem(s, t, Stratum(traces._STRATUM_NAMES.index(n))) for s, t, n in rows]
    path = tmp_path / "strata.csv"
    save_strata(str(path), traces.Universe.from_items(items))
    # save_strata as it wrote one item object at a time
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(traces.STRATA_HEADER)
    names = traces._STRATUM_NAMES
    writer.writerows((it.station_id, it.slot_of_day, names[it.stratum]) for it in items)
    assert path.read_bytes() == text.getvalue().encode("utf-8")
