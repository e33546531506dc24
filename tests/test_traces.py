import csv
import hashlib
import io
import math
import re
import warnings

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


class TestResponse:
    def test_truth_table(self):
        assert stratum_response(Stratum.ALWAYS_CHARGE, 0) == 1
        assert stratum_response(Stratum.ALWAYS_CHARGE, 1) == 1
        assert stratum_response(Stratum.NO_CHARGE, 1) == 0
        assert stratum_response(Stratum.INCENTIVE_CHARGE, 0) == 0
        assert stratum_response(Stratum.INCENTIVE_CHARGE, 1) == 1


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

    def test_strata_round_trip(self, tmp_path):
        items, _ = gen_charging_population(9, 4, 24, (0.3, 0.2, 0.5))
        path = str(tmp_path / "strata.csv")
        save_strata(path, items)
        assert load_csv(path, "strata") == items

    def test_gap_detected(self, tmp_path):
        path = tmp_path / "rtp.csv"
        path.write_text("slot,price\n0,0.1\n1,0.1\n3,0.1\n")
        with pytest.raises(TraceError, match="missing slot 2"):
            load_csv(str(path), "rtp")

    @pytest.mark.parametrize("schema", ["rtp", "weather", "traffic"])
    def test_series_must_start_at_slot_0(self, tmp_path, schema):
        # the DRL stages read row i of a series as hour i % 24
        header = HEADERS[schema]
        path = tmp_path / f"{schema}.csv"
        rows = [[str(slot)] + ["0.5"] * (len(header) - 1) for slot in (5, 6)]
        write_lines(path, header, rows)
        with pytest.raises(TraceError, match="line 2: missing slot 0, found 5$"):
            load_csv(str(path), schema)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "rtp.csv"
        path.write_text("slot,cost\n0,0.1\n")
        with pytest.raises(TraceError, match="header"):
            load_csv(str(path), "rtp")

    def test_negative_price(self, tmp_path):
        path = tmp_path / "rtp.csv"
        path.write_text("slot,price\n0,0.1\n1,-0.2\n")
        with pytest.raises(TraceError, match="negative price at slot 1"):
            load_csv(str(path), "rtp")

    @pytest.mark.parametrize("row", ["1,-0.5,0.0", "1,2.0,-10.0"], ids=["wind", "irradiance"])
    def test_negative_weather(self, tmp_path, row):
        path = tmp_path / "weather.csv"
        path.write_text(f"slot,wind_mps,irradiance_wm2\n0,1.0,0.0\n{row}\n")
        with pytest.raises(TraceError, match="weather values must be nonnegative"):
            load_csv(str(path), "weather")

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "traffic.csv"
        path.write_text("slot,load_rate\n0,0.5\n1,high\n")
        with pytest.raises(TraceError, match="line 3"):
            load_csv(str(path), "traffic")

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_value_names_file_line_and_field(self, tmp_path, text):
        path = tmp_path / "weather.csv"
        path.write_text(f"slot,wind_mps,irradiance_wm2\n0,1.0,0.0\n1,2.0,{text}\n")
        with pytest.raises(TraceError, match="not finite") as err:
            load_csv(str(path), "weather")
        assert str(path) in str(err.value)
        assert "line 3" in str(err.value)
        assert "irradiance_wm2" in str(err.value)

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
        header = HEADERS[schema]
        first = "0," + ("0,always" if schema == "strata" else "0.1")
        path = tmp_path / f"{schema}.csv"
        path.write_text("\n".join([",".join(header), first, row, first]) + "\n")
        message = f"{path} line 3: field larger than field limit ({csv.field_size_limit()})"
        with pytest.raises(TraceError, match=f"^{re.escape(message)}$"):
            load_csv(str(path), schema)

    def test_load_rate_range(self, tmp_path):
        path = tmp_path / "traffic.csv"
        path.write_text("slot,load_rate\n0,0.5\n1,1.5\n")
        with pytest.raises(TraceError, match="out of"):
            load_csv(str(path), "traffic")

    def test_charging_flag_validation(self, tmp_path):
        path = tmp_path / "charging.csv"
        path.write_text(
            "station_id,slot,charged,discount_given,discount_rate\n0,0,2,0,0.0\n"
        )
        with pytest.raises(TraceError, match="line 2"):
            load_csv(str(path), "charging")

    def test_unknown_stratum(self, tmp_path):
        path = tmp_path / "strata.csv"
        path.write_text("station_id,slot_of_day,stratum\n0,0,sometimes\n")
        with pytest.raises(TraceError, match="sometimes"):
            load_csv(str(path), "strata")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "rtp.csv"
        path.write_text("")
        with pytest.raises(TraceError, match="empty"):
            load_csv(str(path), "rtp")

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

    def test_columns_take_their_dtypes(self):
        log = self.log(charged=np.array([True, False, True]))
        assert [getattr(log, n).dtype for n in ("station_id", "slot", "charged")] == [
            np.int64
        ] * 3
        assert log.discount_rate.dtype == np.float64
        assert len(log) == 3

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"charged": [1, 2, 1]}, "row 1: charged must be 0/1, got 2"),
            ({"discount_given": [0, 1, -1]}, "row 2: discount_given must be 0/1, got -1"),
            ({"discount_rate": [0.0, 1.0, 0.3]}, r"row 1: discount_rate must be in \[0, 1\), got 1.0"),
            ({"discount_rate": [0.0, 0.3, np.nan]}, r"row 2: discount_rate must be in \[0, 1\), got nan"),
            ({"discount_rate": [0.1, 0.3, 0.3]}, "row 0: discount_rate must be 0 when no discount"),
            ({"slot": [0, -5, 1]}, "row 1: slot must be nonnegative, got -5"),
        ],
    )
    def test_rules_name_the_first_offending_row(self, overrides, message):
        with pytest.raises(TraceError, match=message):
            self.log(**overrides)

    def test_rules_apply_in_order_within_a_row(self):
        # row 1 breaks the flag rule and the rate range; the flag comes first
        with pytest.raises(TraceError, match="row 1: discount_given"):
            self.log(discount_given=[0, 3, 1], discount_rate=[0.0, 2.0, 0.3])

    def test_columns_must_align(self):
        with pytest.raises(TraceError, match="slot must be a column"):
            self.log(slot=[0, 1])
        with pytest.raises(TraceError, match="charged must hold integers"):
            self.log(charged=[1.0, 0.0, 1.0])

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


# -- bulk CSV parse against the field-by-field parse -----------------------------
#
# ref_load_csv is load_csv as it parsed one row and one field at a time; the
# bulk parse must return the same bits and raise the same errors.


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


def ref_charging_record(station, slot, charged, given, rate):
    if slot < 0:
        raise TraceError(f"slot must be nonnegative, got {slot}")
    if charged not in (0, 1):
        raise TraceError(f"charged must be 0/1, got {charged}")
    if given not in (0, 1):
        raise TraceError(f"discount_given must be 0/1, got {given}")
    if not 0.0 <= rate < 1.0:
        raise TraceError(f"discount_rate must be in [0, 1), got {rate}")
    if given == 0 and rate != 0.0:
        raise TraceError("discount_rate must be 0 when no discount was given")
    return (station, slot, charged, given, rate)


def ref_load_csv(path, schema):
    """Columns as arrays, in the order load_csv_columns lays them out."""
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
            # the field errors carry their own prefix; the record rules do not
            fields = [
                ref_parse_int(path, ln, "station_id", row[0]),
                ref_parse_int(path, ln, "slot", row[1]),
                ref_parse_int(path, ln, "charged", row[2]),
                ref_parse_int(path, ln, "discount_given", row[3]),
                ref_parse_float(path, ln, "discount_rate", row[4]),
            ]
            try:
                records.append(ref_charging_record(*fields))
            except TraceError as exc:
                raise TraceError(f"{path} line {ln}: {exc}") from None
        dtypes = [np.int64] * 4 + [np.float64]
        return [np.array([r[j] for r in records], dtype=d) for j, d in enumerate(dtypes)]
    items, first = [], {}
    rows = ref_read_rows(path, traces.STRATA_HEADER)
    for ln, row in rows:
        name = row[2]
        if name not in traces._STRATUM_BY_VALUE:
            raise TraceError(
                f"{path} line {ln}: unknown stratum {name!r}, "
                f"expected one of {sorted(traces._STRATUM_BY_VALUE)}"
            )
        station = ref_parse_int(path, ln, "station_id", row[0])
        if station < 0:
            raise TraceError(f"{path} line {ln}: station_id is negative: {row[0]!r}")
        slot_of_day = ref_parse_int(path, ln, "slot_of_day", row[1])
        if not 0 <= slot_of_day < 24:
            raise TraceError(f"{path} line {ln}: slot_of_day is outside [0, 24): {row[1]!r}")
        items.append(PopulationItem(station, slot_of_day, traces._STRATUM_BY_VALUE[name]))
    # duplicates are checked once every row is valid
    for (ln, _), item in zip(rows, items):
        key = (item.station_id, item.slot_of_day)
        if key in first:
            raise TraceError(
                f"{path} line {ln}: duplicate item (station {key[0]}, slot_of_day "
                f"{key[1]}), first on line {first[key]}"
            )
        first[key] = ln
    return items


def load_csv_columns(path, schema):
    got = load_csv(path, schema)
    if schema == "charging":
        return [getattr(got, name) for name in traces.CHARGING_HEADER]
    if schema == "strata":
        return got
    # weather is a (wind, irradiance) pair, the other series one array
    return list(got) if schema == "weather" else [got]


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

# bad texts per field kind; some break a rule only in some rows, or none
INT64_OUT = ["9223372036854775808", "-9223372036854775809"]
BAD_TEXT = {
    "slot": ["x", "", "1.5", "1e3", "GAP"] + INT64_OUT,
    "int": ["x", "", "1.5", "0x10"] + INT64_OUT,
    "log_slot": ["x", "", "1.5", "0x10", "-1", "-5"] + INT64_OUT,
    "flag": ["2", "-1", "x", "0.5"] + INT64_OUT,
    "float": ["x", "", "nan", "NaN", "inf", "-inf", "1e999", "-1.0"],
    "unit": ["x", "nan", "1.5", "-0.1"],
    "rate": ["x", "inf", "1.0", "-0.1", "0.3", "0"],
    "name": ["sometimes", ""],
    "station": ["x", "", "1.5", "0x10", "-1"] + INT64_OUT,
    "slot_of_day": ["x", "", "1.5", "-1", "24", "30"] + INT64_OUT,
}
KINDS = {
    "rtp": ("slot", "float"),
    "weather": ("slot", "float", "float"),
    "traffic": ("slot", "unit"),
    "charging": ("int", "log_slot", "flag", "flag", "rate"),
    "strata": ("station", "slot_of_day", "name"),
}
HEADERS = {
    "rtp": traces.RTP_HEADER,
    "weather": traces.WEATHER_HEADER,
    "traffic": traces.TRAFFIC_HEADER,
    "charging": traces.CHARGING_HEADER,
    "strata": traces.STRATA_HEADER,
}


@st.composite
def valid_rows(draw, schema):
    """Field texts of a valid file: ints and floats in varied spellings."""
    n = draw(st.integers(1, 12))
    as_int = lambda v: draw(st.sampled_from(INT_STYLES))(v)
    as_float = lambda x: draw(st.sampled_from(FLOAT_STYLES))(x)
    unit = st.floats(0.0, 1.0)
    # a strata file names each (station, slot of day) item once
    items = draw(
        st.lists(
            st.tuples(st.integers(0, 400), st.integers(0, 23)), min_size=n, max_size=n, unique=True
        )
    )
    rows = []
    for i in range(n):
        if schema == "charging":
            given = draw(st.integers(0, 1))
            rate = draw(st.floats(0.0, 0.99)) if given else draw(st.sampled_from([0.0, -0.0]))
            ints = [draw(st.integers(0, 400)), draw(st.integers(0, 10**5))]
            ints += [draw(st.integers(0, 1)), given]
            rows.append([as_int(v) for v in ints] + [as_float(rate)])
        elif schema == "strata":
            ints = list(items[i])
            name = draw(st.sampled_from(sorted(traces._STRATUM_BY_VALUE)))
            rows.append([as_int(v) for v in ints] + [name])
        else:
            values = st.floats(0.0, 1e6) if schema != "traffic" else unit
            fields = [draw(values) for _ in KINDS[schema][1:]]
            rows.append([as_int(i)] + [as_float(x) for x in fields])
    return rows


def write_lines(path, header, rows, blank_after=()):
    lines = [",".join(header)]
    for i, row in enumerate(rows):
        lines.append(",".join(row))
        if i in blank_after:
            lines.append("")
    path.write_text("\n".join(lines) + "\n")


def both_parses(path, schema):
    """(columns or error text) from load_csv and from the reference parse."""
    out = []
    for parse in (load_csv_columns, ref_load_csv):
        try:
            out.append(parse(str(path), schema))
        except TraceError as exc:
            out.append(f"TraceError: {exc}")
    return out


def assert_same(got, want):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    elif want and isinstance(want[0], PopulationItem):
        assert list(got) == want
    else:
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()


SCHEMA_NAMES = sorted(HEADERS)
FIXTURE_OK = [HealthCheck.function_scoped_fixture]


# Texts on which np.loadtxt's C parser and csv + int()/float() part ways:
# each file must load to the reference's bits or fail with its exact error.
# Row 1's first field is an int; FLOAT_FIELD names a float field of row 1
# (an int one in strata, which has none).
EDGE_ROWS = {
    "rtp": [["0", "0.1"], ["1", "0.25"], ["2", "0.3"]],
    "weather": [["0", "5.0", "0.0"], ["1", "6.5", "120.0"], ["2", "7.0", "300.5"]],
    "traffic": [["0", "0.5"], ["1", "0.25"], ["2", "0.75"]],
    "charging": [
        ["0", "0", "1", "1", "0.3"],
        ["1", "0", "0", "1", "0.25"],
        ["0", "1", "1", "0", "0.0"],
    ],
    "strata": [["0", "0", "always"], ["1", "2", "incentive"], ["1", "18", "no_charge"]],
}
FLOAT_FIELD = {"rtp": 1, "weather": 2, "traffic": 1, "charging": 4, "strata": 1}
ARABIC_DIGITS = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


def edge_lines(schema, int_field=str, float_field=str):
    """The header and rows of EDGE_ROWS[schema] as lines, row 1's fields edited."""
    rows = [list(r) for r in EDGE_ROWS[schema]]
    j = FLOAT_FIELD[schema]
    rows[1][0], rows[1][j] = int_field(rows[1][0]), float_field(rows[1][j])
    return [",".join(HEADERS[schema])] + [",".join(r) for r in rows]


def joined(eol="\n", **edits):
    return lambda schema: eol.join(edge_lines(schema, **edits)) + eol


def with_line(line, eol="\n"):
    """The file with line inserted after row 0."""

    def text(schema):
        lines = edge_lines(schema)
        return eol.join(lines[:2] + [line] + lines[2:]) + eol

    return text


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
    "header-only": lambda s: ",".join(HEADERS[s]) + "\n",
    "header-only-no-newline": lambda s: ",".join(HEADERS[s]),
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
    @settings(max_examples=200, deadline=None, suppress_health_check=FIXTURE_OK)
    @given(data=st.data(), schema=st.sampled_from(SCHEMA_NAMES))
    def test_valid_files_parse_to_the_same_bits(self, tmp_path, data, schema):
        rows = data.draw(valid_rows(schema))
        blanks = data.draw(st.sets(st.integers(0, len(rows) - 1), max_size=2))
        path = tmp_path / f"{schema}.csv"
        write_lines(path, HEADERS[schema], rows, blanks)
        got, want = both_parses(path, schema)
        assert not isinstance(want, str), want
        assert_same(got, want)

    @settings(max_examples=300, deadline=None, suppress_health_check=FIXTURE_OK)
    @given(data=st.data(), schema=st.sampled_from(SCHEMA_NAMES))
    def test_one_bad_field_raises_the_same_error(self, tmp_path, data, schema):
        rows = data.draw(valid_rows(schema))
        i = data.draw(st.integers(0, len(rows) - 1))
        fault = data.draw(st.sampled_from(["field", "field", "count"]))
        if fault == "count":
            rows[i] = rows[i][:-1] if data.draw(st.booleans()) else rows[i] + ["1"]
        else:
            j = data.draw(st.integers(0, len(rows[i]) - 1))
            text = data.draw(st.sampled_from(BAD_TEXT[KINDS[schema][j]]))
            if text == "GAP":
                text = str(int(rows[i][j]) + data.draw(st.sampled_from([-1, 1, 2])))
            rows[i][j] = text
        blanks = data.draw(st.sets(st.integers(0, len(rows) - 1), max_size=2))
        path = tmp_path / f"{schema}.csv"
        write_lines(path, HEADERS[schema], rows, blanks)
        got, want = both_parses(path, schema)
        assert_same(got, want)

    @settings(max_examples=200, deadline=None, suppress_health_check=FIXTURE_OK)
    @given(data=st.data(), schema=st.sampled_from(SCHEMA_NAMES))
    def test_several_bad_fields_raise_the_first_in_file_order(self, tmp_path, data, schema):
        rows = data.draw(valid_rows(schema))
        for _ in range(data.draw(st.integers(2, 4))):
            i = data.draw(st.integers(0, len(rows) - 1))
            j = data.draw(st.integers(0, len(rows[i]) - 1))
            text = data.draw(st.sampled_from(BAD_TEXT[KINDS[schema][j]]))
            rows[i][j] = "7" if text == "GAP" else text
        path = tmp_path / f"{schema}.csv"
        write_lines(path, HEADERS[schema], rows)
        got, want = both_parses(path, schema)
        assert_same(got, want)

    def test_int_outside_int64_is_rejected_with_its_line(self, tmp_path):
        path = tmp_path / "rtp.csv"
        path.write_text(f"slot,price\n0,0.1\n{2**63},0.1\n")
        with pytest.raises(TraceError, match="line 3: slot is out of the int64 range"):
            load_csv(str(path), "rtp")

    def test_slots_that_wrap_past_int64_are_a_gap(self, tmp_path):
        path = tmp_path / "rtp.csv"
        path.write_text(f"slot,price\n{2**63 - 1},0.1\n{-(2**63)},0.1\n")
        got, want = both_parses(path, "rtp")
        assert got == want == f"TraceError: {path} line 2: missing slot 0, found {2**63 - 1}"

    @pytest.mark.parametrize("schema", SCHEMA_NAMES)
    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_edge_text_parses_as_the_reference(self, tmp_path, case, schema):
        path = tmp_path / f"{schema}.csv"
        path.write_bytes(EDGE_CASES[case](schema).encode("utf-8"))
        got, want = both_parses(path, schema)
        if case in EDGE_ACCEPTED:
            assert not isinstance(want, str), want
        assert_same(got, want)


class TestBulkParseIsTaken:
    """A plain, valid file never reaches the field-by-field checker."""

    def test_plain_files_load_without_the_checker(self, tmp_path, monkeypatch):
        series = TraceSet(
            rtp=gen_rtp(1, 48),
            wind_mps=gen_weather(1, 48)[0],
            irradiance_wm2=gen_weather(1, 48)[1],
            load_rate=gen_traffic(1, 48),
        )
        _, log = gen_charging_population(1, 3, 48, [0.3, 0.3, 0.4])
        paths = save_traces(series, log, str(tmp_path))
        bad = tmp_path / "bad.csv"
        bad.write_text("slot,price\n0,0.1\n1,x\n")

        def refuse(path, header):
            raise AssertionError(f"the checker read {path}")

        monkeypatch.setattr(traces, "_read_rows", refuse)
        loaded = load_traces(str(tmp_path))
        for name in ("rtp", "wind_mps", "irradiance_wm2", "load_rate"):
            assert getattr(loaded, name).tobytes() == getattr(series, name).tobytes()
        assert load_csv(paths[-1], "charging") == log
        with pytest.raises(AssertionError, match="the checker read"):
            load_csv(str(bad), "rtp")
        monkeypatch.undo()
        with pytest.raises(TraceError, match=f"{bad} line 3: price is not a number: 'x'"):
            load_csv(str(bad), "rtp")


# -- strata.csv: the one-pass read against the field checker --------------------

STRATUM_NAMES = sorted(traces._STRATUM_BY_VALUE)
# stations past 2**63 / 24, where station * 24 leaves int64, as well as small ones
STRATA_STATIONS = st.one_of(st.integers(0, 400), st.integers(2**62, 2**63 - 1))
# (field, texts) per fault kind: one text puts one row at fault
STRATA_FAULTS = {
    "unknown-stratum": (2, ["sometimes", "Always", "no charge", ""]),
    # the first two are a name and a letter: a text type as wide as the
    # longest name would cut them down to it
    "over-long-stratum": (2, ["incentivex", "no_chargee", "alwaysalways", "incentive" + "x" * 20]),
    "negative-station": (0, ["-1", "-9223372036854775808"]),
    "slot-of-day-outside": (1, ["-1", "24", "99"]),
    "non-integer": (None, ["x", "1.5", "", "0x10", "9223372036854775808"]),
    "duplicate": (None, []),
}


@st.composite
def plain_strata(draw):
    """[station, slot of day, name] field texts of a valid, plain strata.csv."""
    keys = draw(
        st.lists(
            st.tuples(STRATA_STATIONS, st.integers(0, 23)), min_size=1, max_size=30, unique=True
        )
    )
    return [[str(s), str(t), draw(st.sampled_from(STRATUM_NAMES))] for s, t in keys]


def refuse_checker(path, header):
    raise AssertionError(f"the checker read {path}")


def by_checker(read, *args):
    """read(*args) with the one-pass read refused, so that every file is read
    field by field."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(traces, "_bulk_columns", lambda *_: None)
        return read(*args)


class TestStrataOnePass:
    @settings(max_examples=150, deadline=None, suppress_health_check=FIXTURE_OK)
    @given(rows=plain_strata())
    def test_plain_files_read_as_the_checker_reads_them(self, tmp_path, rows):
        path = str(tmp_path / "strata.csv")
        write_lines(tmp_path / "strata.csv", traces.STRATA_HEADER, rows)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(traces, "_read_rows", refuse_checker)
            got = load_csv(path, "strata")
        want = by_checker(load_csv, path, "strata")
        for name in ("stations", "slots", "strata"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.dtype == w.dtype == np.int64
            assert g.tobytes() == w.tobytes(), name
        assert list(got) == ref_load_csv(path, "strata")

    @settings(max_examples=300, deadline=None, suppress_health_check=FIXTURE_OK)
    @given(rows=plain_strata(), data=st.data(), fault=st.sampled_from(sorted(STRATA_FAULTS)))
    def test_a_fault_goes_to_the_checker_and_raises_its_error(self, tmp_path, rows, data, fault):
        i = data.draw(st.integers(0, len(rows) - 1))
        if fault == "duplicate":
            at = data.draw(st.integers(i + 1, len(rows)))
            rows.insert(at, rows[i][:2] + [data.draw(st.sampled_from(STRATUM_NAMES))])
        else:
            field, texts = STRATA_FAULTS[fault]
            j = field if field is not None else data.draw(st.integers(0, 1))
            rows[i][j] = data.draw(st.sampled_from(texts))
        path = str(tmp_path / "strata.csv")
        write_lines(tmp_path / "strata.csv", traces.STRATA_HEADER, rows)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(traces, "_read_rows", refuse_checker)
            with pytest.raises(AssertionError, match="the checker read"):
                load_csv(path, "strata")
        errors = []
        for parse in (load_csv, lambda *args: by_checker(load_csv, *args), ref_load_csv):
            with pytest.raises(TraceError) as caught:
                parse(path, "strata")
            errors.append(str(caught.value))
        assert errors[0] == errors[1] == errors[2]
        assert errors[0].startswith(f"{path} line ")

    @settings(max_examples=50, deadline=None, suppress_health_check=FIXTURE_OK)
    @given(rows=plain_strata())
    def test_save_strata_writes_the_row_writers_bytes(self, tmp_path, rows):
        items = [PopulationItem(int(s), int(t), traces._STRATUM_BY_VALUE[n]) for s, t, n in rows]
        path = tmp_path / "strata.csv"
        save_strata(str(path), traces.Universe.from_items(items))
        # save_strata as it wrote one item object at a time
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(traces.STRATA_HEADER)
        writer.writerows((it.station_id, it.slot_of_day, it.stratum.value) for it in items)
        assert path.read_bytes() == text.getvalue().encode("utf-8")


# -- discounts.csv: the one-pass read against the field checker ------------------

DISCOUNT_CONFIG = cli.RunConfig()
# the items of strata.csv: stations 0-3 at every slot of day, bar one in five
DISCOUNT_ITEMS = [(s, t) for s in range(4) for t in range(24) if (s + t) % 5]
DISCOUNT_UNIVERSE = traces.Universe.from_items(
    [PopulationItem(s, t, Stratum.ALWAYS_CHARGE) for s, t in DISCOUNT_ITEMS]
)
# (station, slot of day) keys that name no item
NOT_ITEMS = [(s, t) for s in range(4) for t in range(24) if (s + t) % 5 == 0] + [
    (4, 0),
    (99, 3),
    (-1, 2),
    (0, 24),
    (2, -1),
    (2**62, 5),
]
# (field, texts) per fault kind: one text puts one row at fault
DISCOUNT_FAULTS = {
    "unknown-method": (0, ["greedy", "CFMTL", "", "or "]),
    # a text type as wide as the longest method would cut these down to it
    "over-long-method": (0, ["cfmtlx", "cfmtlxx", "cfmtl" + "x" * 20]),
    "non-integer": (None, ["x", "1.5", "", "0x10", "9223372036854775808"]),
    "not-in-strata": (None, []),
    "duplicate": (None, []),
    "bad-rate": (3, ["x", "", "nan", "inf", "-inf", "1e999"]),
    "wrong-rate": (3, ["0.4", "0.30000000000000004", "0", "-0.3"]),
}


@st.composite
def discount_rows(draw, styled=True):
    """[method, station, slot of day, rate] field texts of a valid discounts.csv;
    unstyled, they are the texts eval-price writes."""
    keys = draw(
        st.lists(
            st.tuples(st.sampled_from(cli.METHODS), st.sampled_from(DISCOUNT_ITEMS)),
            min_size=1,
            max_size=30,
            unique=True,
        )
    )
    as_int = lambda v: draw(st.sampled_from(INT_STYLES))(v) if styled else str(v)
    as_float = lambda x: draw(st.sampled_from(FLOAT_STYLES))(x) if styled else repr(x)
    return [[m, as_int(s), as_int(t), as_float(DISCOUNT_CONFIG.discount)] for m, (s, t) in keys]


def put_discount_fault(data, rows, fault):
    i = data.draw(st.integers(0, len(rows) - 1))
    if fault == "duplicate":
        at = data.draw(st.integers(i + 1, len(rows)))
        rows.insert(at, rows[i][:3] + [repr(DISCOUNT_CONFIG.discount)])
    elif fault == "not-in-strata":
        rows[i][1:3] = map(str, data.draw(st.sampled_from(NOT_ITEMS)))
    else:
        field, texts = DISCOUNT_FAULTS[fault]
        j = field if field is not None else data.draw(st.integers(1, 2))
        rows[i][j] = data.draw(st.sampled_from(texts))


def write_discounts(run_dir, rows, blank_after=()):
    path = run_dir / "results" / "discounts.csv"
    path.parent.mkdir(exist_ok=True)
    write_lines(path, cli.DISCOUNTS_HEADER, rows, blank_after)
    return path


def ref_load_decisions(run_dir):
    """cli._load_decisions as it read one row at a time."""
    path = str(run_dir / "results" / "discounts.csv")
    strata_path = str(run_dir / "data" / "strata.csv")
    decisions, first = {method: {} for method in cli.METHODS}, {}
    for ln, (method, *fields) in ref_read_rows(path, cli.DISCOUNTS_HEADER):
        if method not in cli.METHODS:
            raise TraceError(
                f"{path} line {ln}: unknown method {method!r}, expected one of {list(cli.METHODS)}"
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
                f"{path} line {ln}: duplicate {method} {item}, first on line {first[method, key]}"
            )
        first[method, key] = ln
        if ref_parse_float(path, ln, "discount", fields[2]) != DISCOUNT_CONFIG.discount:
            raise TraceError(
                f"{path} line {ln}: discount {fields[2]} differs from the run config's "
                f"pricing.discount {DISCOUNT_CONFIG.discount}; rerun eval-price with --force"
            )
        decisions[method][key] = DISCOUNT_CONFIG.discount
    return decisions


def refuse_rows(mp):
    """Refuse the field-by-field read, under the name cli imports too."""
    for module in (traces, cli):
        mp.setattr(module, "_read_rows", refuse_checker)


def load_decisions(run_dir):
    return cli._load_decisions(DISCOUNT_CONFIG, str(run_dir), DISCOUNT_UNIVERSE)


def all_three_reads(run_dir):
    """(decisions or error text) from _load_decisions, from it with the one-pass
    read refused, and from the reference."""
    out = []
    for read in (load_decisions, lambda d: by_checker(load_decisions, d), ref_load_decisions):
        try:
            out.append(read(run_dir))
        except TraceError as exc:
            out.append(f"TraceError: {exc}")
    return out


class TestDiscountsOnePass:
    @settings(max_examples=150, deadline=None, suppress_health_check=FIXTURE_OK)
    @given(data=st.data())
    def test_valid_files_give_the_checkers_decisions(self, tmp_path, data):
        rows = data.draw(discount_rows())
        blanks = data.draw(st.sets(st.integers(0, len(rows) - 1), max_size=2))
        write_discounts(tmp_path, rows, blanks)
        got, by_fields, want = all_three_reads(tmp_path)
        assert not isinstance(want, str), want
        assert got == by_fields == want

    @settings(max_examples=100, deadline=None, suppress_health_check=FIXTURE_OK)
    @given(rows=discount_rows(styled=False))
    def test_plain_files_never_reach_the_checker(self, tmp_path, rows):
        write_discounts(tmp_path, rows)
        with pytest.MonkeyPatch.context() as mp:
            refuse_rows(mp)
            got = load_decisions(tmp_path)
        assert got == by_checker(load_decisions, tmp_path)

    @settings(max_examples=300, deadline=None, suppress_health_check=FIXTURE_OK)
    @given(
        rows=discount_rows(styled=False),
        data=st.data(),
        fault=st.sampled_from(sorted(DISCOUNT_FAULTS)),
    )
    def test_a_fault_goes_to_the_checker_and_raises_its_error(self, tmp_path, rows, data, fault):
        put_discount_fault(data, rows, fault)
        path = write_discounts(tmp_path, rows)
        with pytest.MonkeyPatch.context() as mp:
            refuse_rows(mp)
            with pytest.raises(AssertionError, match="the checker read"):
                load_decisions(tmp_path)
        got, by_fields, want = all_three_reads(tmp_path)
        assert got == by_fields == want
        assert got.startswith(f"TraceError: {path} line "), got

    @settings(max_examples=200, deadline=None, suppress_health_check=FIXTURE_OK)
    @given(rows=discount_rows(), data=st.data())
    def test_several_faults_raise_the_first_in_file_order(self, tmp_path, rows, data):
        for _ in range(data.draw(st.integers(2, 4))):
            put_discount_fault(data, rows, data.draw(st.sampled_from(sorted(DISCOUNT_FAULTS))))
        path = write_discounts(tmp_path, rows)
        got, by_fields, want = all_three_reads(tmp_path)
        assert got == by_fields == want
        assert got.startswith(f"TraceError: {path} line "), got
