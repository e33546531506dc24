import csv
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hubopt import traces
from hubopt.traces import (
    ChargingLog,
    PopulationItem,
    Stratum,
    TraceError,
    TraceSet,
    gen_charging_population,
    gen_rtp,
    gen_traffic,
    gen_weather,
    load_csv,
    load_strata,
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

    def test_bad_length(self):
        with pytest.raises(ValueError):
            gen_rtp(1, 0)


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

    def test_wt_bad_curve(self):
        with pytest.raises(ValueError):
            wt_power(-1.0, 10.0)
        with pytest.raises(ValueError):
            wt_power(5.0, -10.0)

    def test_pv_linear_then_clipped(self):
        assert pv_power(600.0, 5.0) == pytest.approx(2.7)
        assert pv_power(1200.0, 5.0) == 5.0
        assert pv_power(0.0, 5.0) == 0.0

    def test_pv_validation(self):
        with pytest.raises(ValueError):
            pv_power(-5.0, 5.0)
        with pytest.raises(ValueError):
            pv_power(100.0, -5.0)


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

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            gen_charging_population(1, 2, 24, (0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            gen_charging_population(1, 2, 24, (0.5, 0.5))
        with pytest.raises(ValueError):
            gen_charging_population(1, 2, 24, (-0.1, 0.6, 0.5))

    def test_degenerate_priors_warn_not_error(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            items, _ = gen_charging_population(1, 2, 24, (0.0, 0.0, 1.0))
        assert any("degenerate" in str(w.message) for w in caught)
        assert all(it.stratum is Stratum.NO_CHARGE for it in items)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            gen_charging_population(1, 2, 24, self.PRIORS, logged_policy="greedy")
        with pytest.raises(ValueError):
            gen_charging_population(1, 2, 24, self.PRIORS, logged_discount=0.0)


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
        _, records = gen_charging_population(8, 3, n, (0.3, 0.2, 0.5))
        return TraceSet(
            rtp=gen_rtp(8, n),
            wind_mps=wind,
            irradiance_wm2=irr,
            load_rate=gen_traffic(8, n),
            charging=records,
        )

    def test_round_trip_exact(self, tmp_path):
        ts = self.build_traces()
        save_traces(ts, str(tmp_path))
        back = load_traces(str(tmp_path))
        assert np.array_equal(back.rtp, ts.rtp)
        assert np.array_equal(back.wind_mps, ts.wind_mps)
        assert np.array_equal(back.irradiance_wm2, ts.irradiance_wm2)
        assert np.array_equal(back.load_rate, ts.load_rate)
        assert back.charging == ts.charging

    def test_charging_csv_keeps_the_per_value_format(self, tmp_path):
        ts = self.build_traces()
        log = ts.charging
        rate = log.discount_rate.copy()
        rate[:4] = [0.0, -0.0, 0.1 + 0.2, 1e-300]
        ts.charging = ChargingLog(
            log.station_id, log.slot, log.charged, log.discount_given, rate
        )
        save_traces(ts, str(tmp_path))
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
        assert load_strata(path) == items

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
                charging=[],
            )

    @pytest.mark.parametrize("series", ["rtp", "wind_mps", "irradiance_wm2", "load_rate"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_traceset_rejects_non_finite(self, series, bad):
        arrays = {name: np.full(4, 0.1) for name in ("rtp", "wind_mps", "irradiance_wm2", "load_rate")}
        arrays[series][1] = bad
        with pytest.raises(TraceError, match=f"{series} must be finite"):
            TraceSet(charging=[], **arrays)


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
    seed, n_stations, n_slots, priors, n_items, logged_policy, logged_discount=0.3
):
    """gen_charging_population's log as the per-record loop built it."""
    rng = np.random.default_rng(seed)
    evening_from = 18
    boosted = np.asarray(priors) * np.array([1.0, 2.5, 1.0])
    boosted = boosted / boosted.sum()
    order = (Stratum.ALWAYS_CHARGE, Stratum.INCENTIVE_CHARGE, Stratum.NO_CHARGE)
    stratum_of = {}
    for station in range(n_stations):
        for sod in range(24):
            if len(stratum_of) == n_items:
                break
            p = boosted if sod >= evening_from else np.asarray(priors)
            stratum_of[(station, sod)] = order[int(rng.choice(3, p=p))]
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
    return rows


class TestPopulationMatchesRecordLoop:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_stations=st.integers(1, 6),
        n_slots=st.integers(1, 60),
        priors=st.sampled_from([(0.3, 0.2, 0.5), (0.1, 0.8, 0.1), (0.5, 0.0, 0.5)]),
        cut=st.integers(0, 30),
        logged_policy=st.sampled_from(["random", "confounded"]),
    )
    def test_rows_equal_the_loop(self, seed, n_stations, n_slots, priors, cut, logged_policy):
        n_items = max(1, n_stations * 24 - cut)
        _, log = gen_charging_population(
            seed, n_stations, n_slots, priors, n_items=n_items, logged_policy=logged_policy
        )
        want = population_reference(seed, n_stations, n_slots, priors, n_items, logged_policy)
        assert log_rows(log) == want


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
    "charging": ("int", "int", "flag", "flag", "rate"),
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
        assert got == want
    else:
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()


SCHEMA_NAMES = sorted(HEADERS)
FIXTURE_OK = [HealthCheck.function_scoped_fixture]


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
