"""Slot-based physics and economics of a base-station energy hub.

A hub couples a base station (load follows traffic), an EV charging station,
a battery pack, and optional wind/PV generation behind a single grid
connection. All functions are pure; state is passed in and returned as
values. Power in kW, energy in kWh, prices in currency per kWh.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import yaml

# Battery actions. The scheduler uses its own {0,1,2} encoding and maps here.
CHARGE = 1
IDLE = 0
DISCHARGE = -1
ACTIONS = (CHARGE, IDLE, DISCHARGE)


class ConfigError(ValueError):
    """Invalid hub configuration value or file."""


class FeasibilityError(ValueError):
    """Battery action would push the state of charge out of bounds."""


@dataclass(frozen=True)
class BatterySpec:
    """Battery pack ratings. Energy in kWh, power in kW, efficiencies in (0, 1]."""

    capacity_kwh: float = 50.0
    soc_min_kwh: float = 10.0
    soc_max_kwh: float = 45.0
    r_charge_kw: float = 5.0
    r_discharge_kw: float = 5.0
    eta_charge: float = 0.95
    eta_discharge: float = 0.95

    def __post_init__(self):
        if self.capacity_kwh <= 0:
            raise ConfigError(f"capacity_kwh must be positive, got {self.capacity_kwh}")
        if not 0.0 <= self.soc_min_kwh < self.soc_max_kwh <= self.capacity_kwh:
            raise ConfigError(
                "need 0 <= soc_min < soc_max <= capacity, got "
                f"soc_min={self.soc_min_kwh}, soc_max={self.soc_max_kwh}, "
                f"capacity={self.capacity_kwh}"
            )
        if self.r_charge_kw <= 0 or self.r_discharge_kw <= 0:
            raise ConfigError(
                f"charge/discharge rates must be positive, got "
                f"r_charge={self.r_charge_kw}, r_discharge={self.r_discharge_kw}"
            )
        for name, eta in (("eta_charge", self.eta_charge), ("eta_discharge", self.eta_discharge)):
            if not 0.0 < eta <= 1.0:
                raise ConfigError(f"{name} must be in (0, 1], got {eta}")


@dataclass(frozen=True)
class BatteryState:
    """Stored energy at a slot boundary, in kWh."""

    soc_kwh: float


@dataclass(frozen=True)
class HubConfig:
    """Static hub parameters.

    t_recovery_slots is the grid-outage ride-through requirement: the battery
    reserve floor must cover base-station load at p_bs_max for that many slots.
    """

    p_bs_min_kw: float = 1.0
    p_bs_max_kw: float = 4.0
    r_cs_kw: float = 7.0
    battery: BatterySpec = BatterySpec()
    wt_capacity_kw: float = 0.0
    pv_capacity_kw: float = 0.0
    slot_hours: float = 1.0
    t_recovery_slots: int = 2
    c_bp: float = 0.01

    def __post_init__(self):
        if not 0.0 <= self.p_bs_min_kw <= self.p_bs_max_kw:
            raise ConfigError(
                f"need 0 <= p_bs_min <= p_bs_max, got {self.p_bs_min_kw}, {self.p_bs_max_kw}"
            )
        if self.r_cs_kw < 0:
            raise ConfigError(f"r_cs_kw must be nonnegative, got {self.r_cs_kw}")
        if self.wt_capacity_kw < 0 or self.pv_capacity_kw < 0:
            raise ConfigError("generation capacities must be nonnegative")
        if self.slot_hours <= 0:
            raise ConfigError(f"slot_hours must be positive, got {self.slot_hours}")
        if self.t_recovery_slots < 0:
            raise ConfigError(f"t_recovery_slots must be >= 0, got {self.t_recovery_slots}")
        if self.c_bp < 0:
            raise ConfigError(f"c_bp must be nonnegative, got {self.c_bp}")


@dataclass(frozen=True)
class SlotInputs:
    """Exogenous per-slot quantities seen by the hub."""

    load_rate: float  # base-station traffic load in [0, 1]
    cs_active: int  # 1 if an EV is charging this slot
    p_wt_kw: float  # wind generation
    p_pv_kw: float  # PV generation
    rtp: float  # grid purchase price, currency/kWh
    srtp: float  # EV selling price, currency/kWh

    def __post_init__(self):
        if not 0.0 <= self.load_rate <= 1.0:
            raise ValueError(f"load_rate must be in [0, 1], got {self.load_rate}")
        if self.cs_active not in (0, 1):
            raise ValueError(f"cs_active must be 0 or 1, got {self.cs_active}")
        for name, v in (
            ("p_wt_kw", self.p_wt_kw),
            ("p_pv_kw", self.p_pv_kw),
            ("rtp", self.rtp),
            ("srtp", self.srtp),
        ):
            if v < 0:
                raise ValueError(f"{name} must be nonnegative, got {v}")


@dataclass(frozen=True)
class SlotOutcome:
    """Everything the hub did and earned in one slot."""

    p_bs_kw: float
    p_cs_kw: float
    p_bp_kw: float  # hub-side battery power: +draw when charging, -delivery when discharging
    p_grid_kw: float
    curtailed_kw: float  # renewable surplus dropped (no export)
    soc_after_kwh: float
    cost_grid: float
    cost_bp: float
    revenue: float
    profit: float


def base_station_power(cfg: HubConfig, load_rate: float) -> float:
    """Base-station draw: p_min plus load-proportional share of the span."""
    if not 0.0 <= load_rate <= 1.0:
        raise ValueError(f"load_rate must be in [0, 1], got {load_rate}")
    return cfg.p_bs_min_kw + load_rate * (cfg.p_bs_max_kw - cfg.p_bs_min_kw)


def charging_station_power(cfg: HubConfig, cs_active: int) -> float:
    """Charging-station draw: rated power while an EV is plugged in, else 0."""
    if cs_active not in (0, 1):
        raise ValueError(f"cs_active must be 0 or 1, got {cs_active}")
    return cs_active * cfg.r_cs_kw


def battery_power(spec: BatterySpec, action: int, slot_hours: float) -> tuple[float, float]:
    """Hub-side battery power and stored-energy delta for one slot.

    Charging draws r_charge at the hub and stores eta_charge * r_charge * dt.
    Discharging removes r_discharge * dt from the battery and delivers
    eta_discharge * r_discharge to the hub. Losses on both paths.

    Returns (p_bp_kw, soc_delta_kwh); p_bp is signed from the hub's view
    (positive load when charging, negative when delivering).
    """
    if action not in ACTIONS:
        raise ValueError(f"action must be one of {ACTIONS}, got {action}")
    if action == CHARGE:
        return spec.r_charge_kw, spec.eta_charge * spec.r_charge_kw * slot_hours
    if action == DISCHARGE:
        return -spec.eta_discharge * spec.r_discharge_kw, -spec.r_discharge_kw * slot_hours
    return 0.0, 0.0


def soc_step(
    state: BatteryState, spec: BatterySpec, action: int, slot_hours: float
) -> BatteryState:
    """Apply one battery action, enforcing the soc bounds."""
    _, delta = battery_power(spec, action, slot_hours)
    soc_next = state.soc_kwh + delta
    if soc_next > spec.soc_max_kwh:
        raise FeasibilityError(
            f"charge would raise soc to {soc_next} kWh above soc_max={spec.soc_max_kwh}"
        )
    if soc_next < spec.soc_min_kwh:
        raise FeasibilityError(
            f"discharge would drop soc to {soc_next} kWh below soc_min={spec.soc_min_kwh}"
        )
    return BatteryState(soc_next)


def feasible_actions(state: BatteryState, spec: BatterySpec, slot_hours: float) -> set[int]:
    """Actions that keep soc within [soc_min, soc_max]. Idle is always allowed."""
    allowed = {IDLE}
    if state.soc_kwh + spec.eta_charge * spec.r_charge_kw * slot_hours <= spec.soc_max_kwh:
        allowed.add(CHARGE)
    if state.soc_kwh - spec.r_discharge_kw * slot_hours >= spec.soc_min_kwh:
        allowed.add(DISCHARGE)
    return allowed


def reserve_floor(cfg: HubConfig) -> float:
    """Energy needed to ride through a grid outage at full base-station load, kWh."""
    return cfg.p_bs_max_kw * cfg.t_recovery_slots * cfg.slot_hours


def step(cfg: HubConfig, state: BatteryState, inputs: SlotInputs, action: int) -> SlotOutcome:
    """Advance the hub one slot: powers, grid purchase, money, next soc.

    Raises FeasibilityError if the action violates the soc bounds; callers
    that want silent fallback should consult feasible_actions first.
    """
    p_bs = base_station_power(cfg, inputs.load_rate)
    p_cs = charging_station_power(cfg, inputs.cs_active)
    p_bp, _ = battery_power(cfg.battery, action, cfg.slot_hours)
    next_state = soc_step(state, cfg.battery, action, cfg.slot_hours)

    net = p_bs + p_cs + p_bp - inputs.p_wt_kw - inputs.p_pv_kw
    p_grid = max(0.0, net)
    curtailed = max(0.0, -net)

    dt = cfg.slot_hours
    cost_grid = p_grid * dt * inputs.rtp
    cost_bp = abs(action) * cfg.c_bp
    revenue = p_cs * dt * inputs.srtp
    return SlotOutcome(
        p_bs_kw=p_bs,
        p_cs_kw=p_cs,
        p_bp_kw=p_bp,
        p_grid_kw=p_grid,
        curtailed_kw=curtailed,
        soc_after_kwh=next_state.soc_kwh,
        cost_grid=cost_grid,
        cost_bp=cost_bp,
        revenue=revenue,
        profit=revenue - cost_grid - cost_bp,
    )


def profit_table(cfg: HubConfig, load_rate, occupancy, p_wt_kw, p_pv_kw, rtp, srtp) -> np.ndarray:
    """Per-slot profit of every battery action, shape (T, len(ACTIONS)).

    Column k holds the profit of ACTIONS[k]. Profit does not depend on the
    soc, so one table serves every state; feasibility is left to the caller.
    The series are validated once here, as SlotInputs validates one slot, and
    each entry is computed with the float operations of step(), in the same
    order, so it equals step(...).profit bit for bit.
    """
    series = {
        "load_rate": load_rate,
        "occupancy": occupancy,
        "p_wt_kw": p_wt_kw,
        "p_pv_kw": p_pv_kw,
        "rtp": rtp,
        "srtp": srtp,
    }
    series = {name: np.asarray(arr, dtype=np.float64) for name, arr in series.items()}
    n = len(series["load_rate"])
    for name, arr in series.items():
        if arr.shape != (n,):
            raise ValueError(f"{name} has shape {arr.shape} but load_rate has {n} slots")
    load = series["load_rate"]
    if not ((load >= 0.0) & (load <= 1.0)).all():
        raise ValueError("load_rate must be in [0, 1] in every slot")
    occ = series["occupancy"]
    if not np.isin(occ, (0.0, 1.0)).all():
        raise ValueError("occupancy must be 0 or 1 in every slot")
    for name in ("p_wt_kw", "p_pv_kw", "rtp", "srtp"):
        if (series[name] < 0).any():
            raise ValueError(f"{name} must be nonnegative in every slot")

    dt = cfg.slot_hours
    p_bs = cfg.p_bs_min_kw + load * (cfg.p_bs_max_kw - cfg.p_bs_min_kw)
    p_cs = occ * cfg.r_cs_kw
    revenue = p_cs * dt * series["srtp"]
    table = np.empty((n, len(ACTIONS)))
    for col, action in enumerate(ACTIONS):
        p_bp, _ = battery_power(cfg.battery, action, dt)
        net = p_bs + p_cs + p_bp - series["p_wt_kw"] - series["p_pv_kw"]
        # max(0.0, net) keeps 0.0 unless net > 0.0
        cost_grid = np.where(net > 0.0, net, 0.0) * dt * series["rtp"]
        table[:, col] = revenue - cost_grid - abs(action) * cfg.c_bp
    return table


@dataclass(frozen=True)
class EpisodeTotals:
    operating_cost: float
    charging_revenue: float
    profit: float


def episode_totals(outcomes: Sequence[SlotOutcome]) -> EpisodeTotals:
    """Sum costs and revenue over an episode; profit = revenue - cost."""
    if not outcomes:
        raise ValueError("episode_totals needs at least one slot outcome")
    oc = sum(o.cost_grid + o.cost_bp for o in outcomes)
    cr = sum(o.revenue for o in outcomes)
    return EpisodeTotals(operating_cost=oc, charging_revenue=cr, profit=cr - oc)


# -- configuration files ------------------------------------------------------

_HUB_KEYS = {
    "p_bs_min_kw",
    "p_bs_max_kw",
    "r_cs_kw",
    "battery",
    "wt_capacity_kw",
    "pv_capacity_kw",
    "slot_hours",
    "t_recovery_slots",
    "c_bp",
}
_BATTERY_KEYS = {
    "capacity_kwh",
    "soc_min_kwh",
    "soc_max_kwh",
    "r_charge_kw",
    "r_discharge_kw",
    "eta_charge",
    "eta_discharge",
}


def hub_config_from_dict(raw: dict) -> HubConfig:
    """Build and validate a HubConfig from a parsed mapping.

    Unknown keys are rejected (typo safety) and the battery reserve floor is
    enforced: soc_min must cover base-station load for t_recovery_slots.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"hub config must be a mapping, got {type(raw).__name__}")
    unknown = set(raw) - _HUB_KEYS
    if unknown:
        raise ConfigError(f"unknown hub config keys: {sorted(unknown)}")
    fields = dict(raw)
    battery_raw = fields.pop("battery", {})
    if not isinstance(battery_raw, dict):
        raise ConfigError("battery section must be a mapping")
    unknown = set(battery_raw) - _BATTERY_KEYS
    if unknown:
        raise ConfigError(f"unknown battery config keys: {sorted(unknown)}")
    for key, val in list(fields.items()) + list(battery_raw.items()):
        if key == "t_recovery_slots":
            if not isinstance(val, int) or isinstance(val, bool):
                raise ConfigError(f"{key} must be an integer, got {val!r}")
        elif not isinstance(val, (int, float)) or isinstance(val, bool):
            raise ConfigError(f"{key} must be a number, got {val!r}")
    try:
        battery = BatterySpec(**{k: float(v) for k, v in battery_raw.items()})
        cfg = HubConfig(
            battery=battery,
            **{
                k: (int(v) if k == "t_recovery_slots" else float(v))
                for k, v in fields.items()
            },
        )
    except TypeError as exc:  # pragma: no cover - guarded by key checks above
        raise ConfigError(str(exc)) from exc
    floor = reserve_floor(cfg)
    if cfg.battery.soc_min_kwh < floor:
        raise ConfigError(
            f"battery soc_min_kwh={cfg.battery.soc_min_kwh} is below the reserve "
            f"floor {floor} kWh (p_bs_max * t_recovery_slots * slot_hours)"
        )
    return cfg


def load_hub_config(path: str) -> HubConfig:
    """Read a YAML hub config; accepts either a bare mapping or a `hub:` section."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        raise
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if raw is None:
        raise ConfigError(f"{path} is empty")
    if isinstance(raw, dict) and "hub" in raw:
        raw = raw["hub"]
    return hub_config_from_dict(raw)
