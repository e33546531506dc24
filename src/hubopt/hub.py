"""Slot-based physics and economics of a base-station energy hub.

A hub couples a base station (load follows traffic), an EV charging station,
a battery pack, and optional wind/PV generation behind a single grid
connection. All functions are pure; state is passed in and returned as
values. Power in kW, energy in kWh, prices in currency per kWh.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, is_dataclass

import numpy as np

# Battery actions, one encoding throughout: action k is a policy's output k
# and column k of profit_table.
CHARGE, DISCHARGE, IDLE = 0, 1, 2
ACTIONS = (CHARGE, DISCHARGE, IDLE)


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
            if not 0 <= v < np.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")


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
    cost_bp = (action != IDLE) * cfg.c_bp
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

    Column k holds the profit of action k. Profit does not depend on the
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
        arr = series[name]
        if not ((arr >= 0.0) & (arr < np.inf)).all():
            raise ValueError(f"{name} must be finite and nonnegative in every slot")

    dt = cfg.slot_hours
    p_bs = cfg.p_bs_min_kw + load * (cfg.p_bs_max_kw - cfg.p_bs_min_kw)
    p_cs = occ * cfg.r_cs_kw
    revenue = p_cs * dt * series["srtp"]
    table = np.empty((n, len(ACTIONS)))
    for action in ACTIONS:
        p_bp, _ = battery_power(cfg.battery, action, dt)
        net = p_bs + p_cs + p_bp - series["p_wt_kw"] - series["p_pv_kw"]
        # max(0.0, net) keeps 0.0 unless net > 0.0
        cost_grid = np.where(net > 0.0, net, 0.0) * dt * series["rtp"]
        table[:, action] = revenue - cost_grid - (action != IDLE) * cfg.c_bp
    return table


# -- configuration ------------------------------------------------------------

_KINDS = {int: "an integer", float: "a number", str: "a string"}


def config_mapping(raw, section: str) -> dict:
    """A copy of one section of a run config; an absent or empty section is {}."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{section} config must be a mapping, got {type(raw).__name__}")
    return dict(raw)


def _typed(hint, value, key: str):
    """What a field of type hint stores for value, or ConfigError naming key."""
    args = typing.get_args(hint)
    if type(None) in args:
        return None if value is None else _typed(args[0], value, key)
    if is_dataclass(hint):
        return value if isinstance(value, hint) else config_from_dict(hint, value, key)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        kinds = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(value) != len(kinds):
            raise ConfigError(f"{key} must have {len(kinds)} entries, got {value!r}")
        return tuple(_typed(k, v, f"{key}[{i}]") for i, (k, v) in enumerate(zip(kinds, value)))
    if hint is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, hint) or isinstance(value, bool):
        raise ConfigError(f"{key} must be {_KINDS[hint]}, got {value!r}")
    return value


def config_from_dict(cls, raw, section: str, skip=(), **given):
    """Build the config dataclass cls from raw, one section of a run config.

    raw may set any field of cls but those in skip or given; given holds the
    fields the caller read elsewhere. Every value is checked against its
    field's type hint: int takes an int but not a bool, float takes an int or
    a float and stores a float, a tuple takes a list of its length, X | None
    also takes None, and a nested config dataclass takes a mapping. An error
    from cls's own checks becomes a ConfigError naming the section.
    """
    raw = config_mapping(raw, section)
    hints = typing.get_type_hints(cls)
    unknown = [k for k in raw if k not in hints or k in skip or k in given]
    if unknown:
        raise ConfigError(f"unknown {section} config keys: {sorted(unknown, key=str)}")
    values = {key: _typed(hints[key], val, key) for key, val in {**raw, **given}.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{exc} (in the {section} section)") from exc


def hub_config_from_dict(raw: dict) -> HubConfig:
    """The hub section of a run config; soc_min must also cover the reserve floor."""
    cfg = config_from_dict(HubConfig, raw, "hub")
    floor = reserve_floor(cfg)
    if cfg.battery.soc_min_kwh < floor:
        raise ConfigError(
            f"battery soc_min_kwh={cfg.battery.soc_min_kwh} is below the reserve "
            f"floor {floor} kWh (p_bs_max * t_recovery_slots * slot_hours)"
        )
    return cfg
