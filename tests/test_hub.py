import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from hubopt import hub
from hubopt.hub import (
    ACTIONS,
    CHARGE,
    DISCHARGE,
    IDLE,
    BatterySpec,
    BatteryState,
    ConfigError,
    FeasibilityError,
    HubConfig,
    SlotInputs,
)


def make_cfg(**kw):
    battery = kw.pop("battery", None)
    if battery is None:
        battery = BatterySpec()
    return HubConfig(battery=battery, **kw)


class TestBaseStationPower:
    def test_midpoint_load(self):
        cfg = make_cfg(p_bs_min_kw=1.0, p_bs_max_kw=4.0)
        assert hub.base_station_power(cfg, 0.5) == pytest.approx(2.5)

    def test_endpoints(self):
        cfg = make_cfg(p_bs_min_kw=1.0, p_bs_max_kw=4.0)
        assert hub.base_station_power(cfg, 0.0) == 1.0
        assert hub.base_station_power(cfg, 1.0) == 4.0

    def test_load_out_of_range(self):
        cfg = make_cfg()
        with pytest.raises(ValueError):
            hub.base_station_power(cfg, 1.2)
        with pytest.raises(ValueError):
            hub.base_station_power(cfg, -0.01)

    def test_affine_in_load(self):
        cfg = make_cfg(p_bs_min_kw=0.5, p_bs_max_kw=3.5)
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = sorted(rng.uniform(0, 1, size=2))
            lam = rng.uniform(0, 1)
            mid = lam * a + (1 - lam) * b
            expect = lam * hub.base_station_power(cfg, a) + (1 - lam) * hub.base_station_power(
                cfg, b
            )
            assert hub.base_station_power(cfg, mid) == pytest.approx(expect, abs=1e-12)


class TestChargingStationPower:
    def test_occupied(self):
        cfg = make_cfg(r_cs_kw=7.0)
        assert hub.charging_station_power(cfg, 1) == 7.0

    def test_empty(self):
        cfg = make_cfg(r_cs_kw=7.0)
        assert hub.charging_station_power(cfg, 0) == 0.0

    def test_bad_flag(self):
        cfg = make_cfg()
        with pytest.raises(ValueError):
            hub.charging_station_power(cfg, 2)


class TestBatteryPower:
    def test_charge_losses_on_storage_path(self):
        spec = BatterySpec(eta_charge=0.95, r_charge_kw=2.0)
        p, delta = hub.battery_power(spec, CHARGE, 1.0)
        assert p == pytest.approx(2.0)
        assert delta == pytest.approx(1.9)

    def test_discharge_losses_on_delivery_path(self):
        spec = BatterySpec(eta_discharge=0.9, r_discharge_kw=3.0)
        p, delta = hub.battery_power(spec, DISCHARGE, 1.0)
        assert p == pytest.approx(-2.7)
        assert delta == pytest.approx(-3.0)

    def test_idle(self):
        assert hub.battery_power(BatterySpec(), IDLE, 1.0) == (0.0, 0.0)

    def test_bad_action(self):
        with pytest.raises(ValueError):
            hub.battery_power(BatterySpec(), 2, 1.0)

    def test_slot_hours_scaling(self):
        spec = BatterySpec(eta_charge=0.8, r_charge_kw=4.0)
        _, delta = hub.battery_power(spec, CHARGE, 0.5)
        assert delta == pytest.approx(0.8 * 4.0 * 0.5)


class TestSocStep:
    def test_charge_adds_stored_energy(self):
        spec = BatterySpec(eta_charge=0.95, r_charge_kw=2.0, soc_min_kwh=5.0, soc_max_kwh=45.0)
        new = hub.soc_step(BatteryState(10.0), spec, CHARGE, 1.0)
        assert new.soc_kwh == pytest.approx(11.9)

    def test_discharge_below_floor_raises(self):
        spec = BatterySpec(soc_min_kwh=10.0, soc_max_kwh=45.0, r_discharge_kw=5.0)
        with pytest.raises(FeasibilityError, match="soc_min"):
            hub.soc_step(BatteryState(10.0), spec, DISCHARGE, 1.0)

    def test_charge_above_ceiling_raises(self):
        spec = BatterySpec(soc_min_kwh=10.0, soc_max_kwh=45.0, r_charge_kw=5.0)
        with pytest.raises(FeasibilityError, match="soc_max"):
            hub.soc_step(BatteryState(45.0), spec, CHARGE, 1.0)

    def test_idle_keeps_soc(self):
        spec = BatterySpec()
        assert hub.soc_step(BatteryState(20.0), spec, IDLE, 1.0).soc_kwh == 20.0


class TestFeasibleActions:
    def test_at_ceiling(self):
        spec = BatterySpec(soc_min_kwh=10.0, soc_max_kwh=45.0)
        assert hub.feasible_actions(BatteryState(45.0), spec, 1.0) == {IDLE, DISCHARGE}

    def test_at_floor(self):
        spec = BatterySpec(soc_min_kwh=10.0, soc_max_kwh=45.0)
        assert hub.feasible_actions(BatteryState(10.0), spec, 1.0) == {IDLE, CHARGE}

    def test_mid_band(self):
        spec = BatterySpec(soc_min_kwh=10.0, soc_max_kwh=45.0)
        assert hub.feasible_actions(BatteryState(25.0), spec, 1.0) == set(ACTIONS)

    def test_matches_soc_step(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            spec = BatterySpec(
                capacity_kwh=50.0,
                soc_min_kwh=5.0,
                soc_max_kwh=45.0,
                r_charge_kw=rng.uniform(1, 8),
                r_discharge_kw=rng.uniform(1, 8),
                eta_charge=rng.uniform(0.5, 1.0),
                eta_discharge=rng.uniform(0.5, 1.0),
            )
            state = BatteryState(rng.uniform(5.0, 45.0))
            dt = rng.choice([0.5, 1.0])
            allowed = hub.feasible_actions(state, spec, dt)
            for action in ACTIONS:
                if action in allowed:
                    hub.soc_step(state, spec, action, dt)
                else:
                    with pytest.raises(FeasibilityError):
                        hub.soc_step(state, spec, action, dt)


class TestReserveFloor:
    def test_hourly(self):
        cfg = make_cfg(
            p_bs_max_kw=4.0,
            t_recovery_slots=4,
            slot_hours=1.0,
            battery=BatterySpec(soc_min_kwh=16.0, soc_max_kwh=45.0),
        )
        assert hub.reserve_floor(cfg) == pytest.approx(16.0)

    def test_half_hour_slots(self):
        cfg = make_cfg(p_bs_max_kw=2.0, t_recovery_slots=2, slot_hours=0.5)
        assert hub.reserve_floor(cfg) == pytest.approx(2.0)


class TestGridPower:
    """Grid purchase netting, read from step() and checked against profit_table."""

    RTP = 0.25

    def grid(self, cs_active, p_wt, p_pv, action):
        # 2.5 kW base station, 7 kW charger, 2 kW charge draw, 2.7 kW discharge delivery
        battery = BatterySpec(r_charge_kw=2.0, r_discharge_kw=3.0, eta_discharge=0.9)
        cfg = make_cfg(p_bs_min_kw=2.5, p_bs_max_kw=2.5, r_cs_kw=7.0, battery=battery)
        inputs = SlotInputs(
            load_rate=0.5,
            cs_active=cs_active,
            p_wt_kw=p_wt,
            p_pv_kw=p_pv,
            rtp=self.RTP,
            srtp=0.0,
        )
        out = hub.step(cfg, BatteryState(20.0), inputs, action)
        table = hub.profit_table(cfg, [0.5], [cs_active], [p_wt], [p_pv], [self.RTP], [0.0])
        assert table[0, ACTIONS.index(action)] == out.profit
        assert out.cost_grid == out.p_grid_kw * cfg.slot_hours * self.RTP
        return out.p_grid_kw

    def test_renewables_cover_load(self):
        assert self.grid(0, 3.0, 1.0, IDLE) == 0.0

    def test_deficit_purchase(self):
        assert self.grid(1, 1.0, 0.5, CHARGE) == pytest.approx(10.0)

    def test_discharge_offsets_purchase(self):
        assert self.grid(1, 0.0, 0.0, DISCHARGE) == pytest.approx(6.8)

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError, match="p_wt_kw"):
            hub.profit_table(HubConfig(), [0.5], [0], [-1.0], [0.0], [0.1], [0.0])
        with pytest.raises(ValueError, match="p_wt_kw"):
            SlotInputs(load_rate=0.5, cs_active=0, p_wt_kw=-1.0, p_pv_kw=0.0, rtp=0.1, srtp=0.0)


class TestStep:
    def test_idle_slot_costs_base_load(self):
        cfg = make_cfg(p_bs_min_kw=1.0, p_bs_max_kw=4.0)
        inputs = SlotInputs(
            load_rate=0.0, cs_active=0, p_wt_kw=0.0, p_pv_kw=0.0, rtp=0.1, srtp=0.2
        )
        out = hub.step(cfg, BatteryState(20.0), inputs, IDLE)
        assert out.p_grid_kw == pytest.approx(1.0)
        assert out.profit == pytest.approx(-0.1)

    def test_covered_slot_is_pure_revenue(self):
        cfg = make_cfg(p_bs_min_kw=1.0, p_bs_max_kw=4.0, r_cs_kw=7.0)
        inputs = SlotInputs(
            load_rate=0.5, cs_active=1, p_wt_kw=15.0, p_pv_kw=0.0, rtp=0.1, srtp=0.2
        )
        out = hub.step(cfg, BatteryState(20.0), inputs, IDLE)
        assert out.p_grid_kw == 0.0
        assert out.revenue == pytest.approx(1.4)
        assert out.profit == pytest.approx(1.4)

    def test_battery_op_cost_charged_for_both_directions(self):
        cfg = make_cfg(c_bp=0.01)
        inputs = SlotInputs(
            load_rate=0.0, cs_active=0, p_wt_kw=0.0, p_pv_kw=0.0, rtp=0.0, srtp=0.0
        )
        charge = hub.step(cfg, BatteryState(20.0), inputs, CHARGE)
        discharge = hub.step(cfg, BatteryState(20.0), inputs, DISCHARGE)
        idle = hub.step(cfg, BatteryState(20.0), inputs, IDLE)
        assert charge.cost_bp == pytest.approx(0.01)
        assert discharge.cost_bp == pytest.approx(0.01)
        assert idle.cost_bp == 0.0

    def test_infeasible_action_raises(self):
        cfg = make_cfg()
        inputs = SlotInputs(
            load_rate=0.0, cs_active=0, p_wt_kw=0.0, p_pv_kw=0.0, rtp=0.1, srtp=0.2
        )
        with pytest.raises(FeasibilityError):
            hub.step(cfg, BatteryState(cfg.battery.soc_max_kwh), inputs, CHARGE)


def _float(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def hub_configs(draw):
    soc_min = draw(_float(0.0, 40.0))
    span = draw(_float(0.5, 40.0))
    spec = BatterySpec(
        capacity_kwh=soc_min + span + draw(_float(0.0, 10.0)),
        soc_min_kwh=soc_min,
        soc_max_kwh=soc_min + span,
        r_charge_kw=draw(_float(0.1, 12.0)),
        r_discharge_kw=draw(_float(0.1, 12.0)),
        eta_charge=draw(_float(0.05, 1.0)),
        eta_discharge=draw(_float(0.05, 1.0)),
    )
    p_bs_min = draw(_float(0.0, 5.0))
    return HubConfig(
        p_bs_min_kw=p_bs_min,
        p_bs_max_kw=p_bs_min + draw(_float(0.0, 5.0)),
        r_cs_kw=draw(_float(0.0, 22.0)),
        battery=spec,
        slot_hours=draw(_float(0.1, 2.0)),
        t_recovery_slots=0,
        c_bp=draw(_float(0.0, 0.1)),
    )


slot_inputs = st.builds(
    SlotInputs,
    load_rate=_float(0.0, 1.0),
    cs_active=st.integers(0, 1),
    p_wt_kw=_float(0.0, 30.0),
    p_pv_kw=_float(0.0, 30.0),
    rtp=_float(0.0, 2.0),
    srtp=_float(0.0, 2.0),
)


def table_of(cfg, slots):
    return hub.profit_table(
        cfg,
        [s.load_rate for s in slots],
        [s.cs_active for s in slots],
        [s.p_wt_kw for s in slots],
        [s.p_pv_kw for s in slots],
        [s.rtp for s in slots],
        [s.srtp for s in slots],
    )


class TestProfitTable:
    @settings(max_examples=200, deadline=None)
    @given(
        cfg=hub_configs(),
        slots=st.lists(slot_inputs, min_size=1, max_size=8),
        soc_frac=st.lists(_float(0.0, 1.0), min_size=8, max_size=8),
    )
    def test_entries_equal_step_profit_bit_for_bit(self, cfg, slots, soc_frac):
        spec = cfg.battery
        table = table_of(cfg, slots)
        assert table.shape == (len(slots), len(ACTIONS))
        for t, slot in enumerate(slots):
            span = spec.soc_max_kwh - spec.soc_min_kwh
            state = BatteryState(min(spec.soc_min_kwh + soc_frac[t] * span, spec.soc_max_kwh))
            for action in hub.feasible_actions(state, spec, cfg.slot_hours):
                profit = hub.step(cfg, state, slot, action).profit
                assert float(table[t, ACTIONS.index(action)]).hex() == profit.hex()

    def test_empty_series(self):
        assert table_of(HubConfig(), []).shape == (0, len(ACTIONS))

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("load_rate", 1.5, "load_rate"),
            ("load_rate", float("nan"), "load_rate"),
            ("occupancy", 2, "occupancy"),
            ("occupancy", 0.5, "occupancy"),
            ("p_pv_kw", -0.1, "p_pv_kw"),
            ("rtp", -0.1, "rtp"),
            ("srtp", -0.1, "srtp"),
        ],
    )
    def test_rejects_invalid_slot(self, field, value, match):
        series = {
            "load_rate": [0.5, 0.5],
            "occupancy": [0, 1],
            "p_wt_kw": [0.0, 1.0],
            "p_pv_kw": [0.0, 1.0],
            "rtp": [0.1, 0.2],
            "srtp": [0.2, 0.3],
        }
        series[field][1] = value
        with pytest.raises(ValueError, match=match):
            hub.profit_table(HubConfig(), **series)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="srtp"):
            hub.profit_table(HubConfig(), [0.5] * 3, [0] * 3, [0.0] * 3, [0.0] * 3, [0.1] * 3, [0.2])


def random_hub_setup(rng):
    slot_hours = float(rng.choice([0.5, 1.0]))
    spec = BatterySpec(
        capacity_kwh=60.0,
        soc_min_kwh=8.0,
        soc_max_kwh=float(rng.uniform(40.0, 55.0)),
        r_charge_kw=float(rng.uniform(1.0, 6.0)),
        r_discharge_kw=float(rng.uniform(1.0, 6.0)),
        eta_charge=float(rng.uniform(0.5, 1.0)),
        eta_discharge=float(rng.uniform(0.5, 1.0)),
    )
    cfg = HubConfig(
        p_bs_min_kw=float(rng.uniform(0.5, 1.5)),
        p_bs_max_kw=float(rng.uniform(2.0, 6.0)),
        r_cs_kw=float(rng.uniform(3.0, 11.0)),
        battery=spec,
        slot_hours=slot_hours,
        t_recovery_slots=1,
        c_bp=float(rng.uniform(0.0, 0.05)),
    )
    return cfg


def random_inputs(rng):
    return SlotInputs(
        load_rate=float(rng.uniform(0, 1)),
        cs_active=int(rng.integers(0, 2)),
        p_wt_kw=float(rng.uniform(0, 12)),
        p_pv_kw=float(rng.uniform(0, 6)),
        rtp=float(rng.uniform(0, 0.5)),
        srtp=float(rng.uniform(0, 0.5)),
    )


class TestStepInvariants:
    def test_energy_balance_and_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            cfg = random_hub_setup(rng)
            spec = cfg.battery
            state = BatteryState(float(rng.uniform(spec.soc_min_kwh, spec.soc_max_kwh)))
            for _ in range(25):
                inputs = random_inputs(rng)
                allowed = hub.feasible_actions(state, spec, cfg.slot_hours)
                action = int(rng.choice(sorted(allowed)))
                out = hub.step(cfg, state, inputs, action)

                draw = max(out.p_bp_kw, 0.0)
                delivered = max(-out.p_bp_kw, 0.0)
                supply = out.p_grid_kw + inputs.p_wt_kw + inputs.p_pv_kw + delivered
                demand = out.p_bs_kw + out.p_cs_kw + draw + out.curtailed_kw
                assert abs(supply - demand) <= 1e-9
                assert out.p_grid_kw * out.curtailed_kw == 0.0
                assert out.p_grid_kw >= 0.0
                assert out.curtailed_kw >= 0.0
                assert spec.soc_min_kwh - 1e-9 <= out.soc_after_kwh <= spec.soc_max_kwh + 1e-9
                assert out.profit == pytest.approx(
                    out.revenue - out.cost_grid - out.cost_bp, abs=1e-12
                )
                state = BatteryState(out.soc_after_kwh)

    def test_episode_totals_identity(self):
        rng = np.random.default_rng(12)
        cfg = random_hub_setup(rng)
        spec = cfg.battery
        state = BatteryState(float(rng.uniform(spec.soc_min_kwh, spec.soc_max_kwh)))
        outcomes = []
        for _ in range(120):
            inputs = random_inputs(rng)
            action = int(rng.choice(sorted(hub.feasible_actions(state, spec, cfg.slot_hours))))
            out = hub.step(cfg, state, inputs, action)
            outcomes.append(out)
            state = BatteryState(out.soc_after_kwh)
        totals = hub.episode_totals(outcomes)
        assert totals.profit == pytest.approx(
            sum(o.profit for o in outcomes), abs=1e-9
        )
        assert totals.profit == pytest.approx(
            totals.charging_revenue - totals.operating_cost, abs=1e-12
        )

    def test_episode_totals_empty(self):
        with pytest.raises(ValueError):
            hub.episode_totals([])


class TestConfigValidation:
    def test_eta_out_of_range(self):
        with pytest.raises(ConfigError):
            BatterySpec(eta_charge=0.0)
        with pytest.raises(ConfigError):
            BatterySpec(eta_discharge=1.2)

    def test_soc_band_ordering(self):
        with pytest.raises(ConfigError):
            BatterySpec(soc_min_kwh=30.0, soc_max_kwh=20.0)
        with pytest.raises(ConfigError):
            BatterySpec(soc_max_kwh=80.0, capacity_kwh=50.0)

    def test_negative_rates(self):
        with pytest.raises(ConfigError):
            BatterySpec(r_charge_kw=-1.0)
        with pytest.raises(ConfigError):
            HubConfig(r_cs_kw=-2.0)

    def test_bs_power_ordering(self):
        with pytest.raises(ConfigError):
            HubConfig(p_bs_min_kw=5.0, p_bs_max_kw=4.0)


class TestConfigFile:
    def write(self, tmp_path, payload):
        p = tmp_path / "hub.yaml"
        p.write_text(yaml.safe_dump(payload))
        return str(p)

    def base_payload(self):
        return {
            "hub": {
                "p_bs_min_kw": 1.0,
                "p_bs_max_kw": 4.0,
                "r_cs_kw": 7.0,
                "slot_hours": 1.0,
                "t_recovery_slots": 2,
                "c_bp": 0.01,
                "battery": {
                    "capacity_kwh": 50.0,
                    "soc_min_kwh": 10.0,
                    "soc_max_kwh": 45.0,
                    "r_charge_kw": 5.0,
                    "r_discharge_kw": 5.0,
                    "eta_charge": 0.95,
                    "eta_discharge": 0.95,
                },
            }
        }

    def test_round_trip(self, tmp_path):
        cfg = hub.load_hub_config(self.write(tmp_path, self.base_payload()))
        assert cfg.p_bs_max_kw == 4.0
        assert cfg.battery.eta_charge == 0.95

    def test_defaults_fill_missing(self, tmp_path):
        payload = {"hub": {"p_bs_max_kw": 3.0}}
        cfg = hub.load_hub_config(self.write(tmp_path, payload))
        assert cfg.p_bs_max_kw == 3.0
        assert cfg.battery.capacity_kwh == 50.0

    def test_reserve_floor_enforced(self, tmp_path):
        payload = self.base_payload()
        payload["hub"]["t_recovery_slots"] = 5  # floor 20 kWh > soc_min 10
        with pytest.raises(ConfigError, match="reserve"):
            hub.load_hub_config(self.write(tmp_path, payload))

    def test_unknown_key_rejected(self, tmp_path):
        payload = self.base_payload()
        payload["hub"]["p_bs_mni_kw"] = 1.0
        with pytest.raises(ConfigError, match="p_bs_mni_kw"):
            hub.load_hub_config(self.write(tmp_path, payload))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            hub.load_hub_config(str(tmp_path / "absent.yaml"))
