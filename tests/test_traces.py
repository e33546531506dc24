import math
import warnings

import numpy as np
import pytest

from hubopt import traces
from hubopt.traces import (
    ChargingRecord,
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
    ncf_label,
    pv_power,
    save_strata,
    save_traces,
    stratum_response,
    train_ncf_scorer,
    wt_power,
)


class TestRtp:
    def test_flat_profile_is_constant(self):
        series = gen_rtp(1, 48, profile="flat", base=0.10)
        assert series.shape == (48,)
        assert np.all(series == 0.10)

    def test_diurnal_evening_peak_dominates_small_hours(self):
        series = gen_rtp(2, 168, profile="diurnal")
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

    def test_unknown_profile(self):
        with pytest.raises(ValueError, match="profile"):
            gen_rtp(1, 24, profile="weekly")

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
            wt_power(5.0, 10.0, cut_in=12.0, rated=3.0)
        with pytest.raises(ValueError):
            wt_power(-1.0, 10.0)

    def test_pv_linear_then_clipped(self):
        assert pv_power(600.0, 5.0) == pytest.approx(2.7)
        assert pv_power(1200.0, 5.0) == 5.0
        assert pv_power(0.0, 5.0) == 0.0

    def test_pv_validation(self):
        with pytest.raises(ValueError):
            pv_power(-5.0, 5.0)
        with pytest.raises(ValueError):
            pv_power(100.0, 5.0, derate=0.0)


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
        keys = {(r.station_id, r.slot % 24) for r in records}
        assert keys == {(it.station_id, it.slot_of_day) for it in items}

    def test_records_respect_strata(self):
        items, records = gen_charging_population(11, 6, 24 * 8, self.PRIORS)
        stratum_of = {(it.station_id, it.slot_of_day): it.stratum for it in items}
        for r in records:
            stratum = stratum_of[(r.station_id, r.slot % 24)]
            assert r.charged == stratum_response(stratum, r.discount_given)
            if not r.discount_given:
                assert r.discount_rate == 0.0
            else:
                assert r.discount_rate == 0.3

    def test_each_item_observed_once_per_day(self):
        items, records = gen_charging_population(2, 4, 24 * 5, self.PRIORS)
        counts = {}
        for r in records:
            counts[(r.station_id, r.slot % 24)] = counts.get((r.station_id, r.slot % 24), 0) + 1
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
        rate = np.mean([r.discount_given for r in records])
        assert 0.45 < rate < 0.55

    def test_confounded_policy_leans_evening(self):
        _, records = gen_charging_population(
            5, 20, 24 * 10, self.PRIORS, logged_policy="confounded"
        )
        treated = np.array([r.discount_given for r in records])
        evening = np.array([r.slot % 24 >= 18 for r in records])
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


def records_for_items(keys, charged):
    out = []
    for (station, sod), y in zip(keys, charged):
        out.append(
            ChargingRecord(
                station_id=station, slot=sod, charged=y, discount_given=0, discount_rate=0.0
            )
        )
    return out


class TestNcfLabel:
    def test_even_split(self):
        keys = [(0, 0), (0, 1), (0, 2), (0, 3)]
        records = records_for_items(keys, [1, 1, 1, 1])
        ratings = {0: 0.9, 1: 0.8, 2: 0.3, 3: 0.1}
        scorer = lambda stations, slots: np.array([ratings[s] for s in slots])
        labels = ncf_label(records, scorer)
        assert labels[(0, 0)] is Stratum.ALWAYS_CHARGE
        assert labels[(0, 1)] is Stratum.ALWAYS_CHARGE
        assert labels[(0, 2)] is Stratum.INCENTIVE_CHARGE
        assert labels[(0, 3)] is Stratum.INCENTIVE_CHARGE

    def test_odd_split_favors_always(self):
        keys = [(0, h) for h in range(5)]
        records = records_for_items(keys, [1] * 5)
        scorer = lambda stations, slots: -np.asarray(slots, dtype=float)
        labels = ncf_label(records, scorer)
        always = [k for k, v in labels.items() if v is Stratum.ALWAYS_CHARGE]
        assert sorted(always) == [(0, 0), (0, 1), (0, 2)]

    def test_never_charged_items_are_no_charge(self):
        keys = [(0, 0), (0, 1), (1, 0)]
        records = records_for_items(keys, [1, 1, 0])
        scorer = lambda stations, slots: np.ones(len(slots))
        labels = ncf_label(records, scorer)
        assert labels[(1, 0)] is Stratum.NO_CHARGE

    def test_no_positives(self):
        records = records_for_items([(0, 0)], [0])
        with pytest.raises(TraceError, match="charged"):
            ncf_label(records, lambda s, h: np.ones(len(h)))

    def test_empty_log(self):
        with pytest.raises(TraceError):
            ncf_label([], lambda s, h: np.ones(len(h)))

    def test_scorer_model_ranks_planted_strata(self):
        items, records = gen_charging_population(6, 6, 24 * 12, (0.3, 0.2, 0.5))
        model = train_ncf_scorer(records, n_stations=6, epochs=6, seed=6)
        always = [it for it in items if it.stratum is Stratum.ALWAYS_CHARGE]
        never = [it for it in items if it.stratum is Stratum.NO_CHARGE]
        r_always = model.predict(
            np.array([it.station_id for it in always]),
            np.array([it.slot_of_day for it in always]),
        )
        r_never = model.predict(
            np.array([it.station_id for it in never]),
            np.array([it.slot_of_day for it in never]),
        )
        assert r_always.mean() > r_never.mean() + 0.3


class TestCsvRoundTrip:
    def build_traces(self, n=72):
        wind, irr = gen_weather(8, n)
        _, records = gen_charging_population(8, 3, n, (0.3, 0.2, 0.5))
        return TraceSet(
            start_slot=0,
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
        assert back.start_slot == ts.start_slot
        assert np.array_equal(back.rtp, ts.rtp)
        assert np.array_equal(back.wind_mps, ts.wind_mps)
        assert np.array_equal(back.irradiance_wm2, ts.irradiance_wm2)
        assert np.array_equal(back.load_rate, ts.load_rate)
        assert back.charging == ts.charging

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
                start_slot=0,
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
            TraceSet(start_slot=0, charging=[], **arrays)
