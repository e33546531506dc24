"""Synthetic input traces and their CSV schemas.

Generators produce the four exogenous series a hub consumes (grid price,
weather, base-station traffic, EV charging history) plus the planted
ground-truth charging strata used to score pricing policies. All generators
are deterministic per seed.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from . import nn

# wind turbine curve defaults, m/s
WT_CUT_IN = 3.0
WT_RATED = 12.0
WT_CUT_OUT = 25.0
# PV derate against nameplate at 1000 W/m^2
PV_DERATE = 0.9

EVENING_START_HOUR = 18  # incentive-prone window is 18:00-24:00
SLOTS_PER_DAY = 24  # every series and the strata file are hourly

RTP_HEADER = ["slot", "price"]
WEATHER_HEADER = ["slot", "wind_mps", "irradiance_wm2"]
TRAFFIC_HEADER = ["slot", "load_rate"]
CHARGING_HEADER = ["station_id", "slot", "charged", "discount_given", "discount_rate"]
STRATA_HEADER = ["station_id", "slot_of_day", "stratum"]


class TraceError(ValueError):
    """Malformed, out-of-range, or gapped trace data."""


class Stratum(Enum):
    """Latent response type of a (station, slot-of-day) item."""

    ALWAYS_CHARGE = "always"
    INCENTIVE_CHARGE = "incentive"
    NO_CHARGE = "no_charge"


_STRATUM_ORDER = (Stratum.ALWAYS_CHARGE, Stratum.INCENTIVE_CHARGE, Stratum.NO_CHARGE)
_STRATUM_BY_VALUE = {s.value: s for s in Stratum}


def stratum_response(stratum: Stratum, treated: bool | int) -> int:
    """Whether an item of this stratum charges, given a discount offer."""
    if stratum is Stratum.ALWAYS_CHARGE:
        return 1
    if stratum is Stratum.NO_CHARGE:
        return 0
    return int(bool(treated))


@dataclass(frozen=True)
class PopulationItem:
    station_id: int
    slot_of_day: int
    stratum: Stratum


_LOG_COLUMNS = (
    ("station_id", np.int64),
    ("slot", np.int64),
    ("charged", np.int64),
    ("discount_given", np.int64),
    ("discount_rate", np.float64),
)


@dataclass(frozen=True, eq=False)
class ChargingLog:
    """Logged charging opportunities, one row per station and absolute slot.

    Five equal-length columns: whether the slot's EV charged (0/1), whether
    a discount was offered (0/1) and at what rate, in [0, 1) and 0 without a
    discount. The rules are checked once, over whole columns, when the log
    is built; a failure names the first offending row.
    """

    station_id: np.ndarray
    slot: np.ndarray
    charged: np.ndarray
    discount_given: np.ndarray
    discount_rate: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.station_id)
        for name, dtype in _LOG_COLUMNS:
            col = np.asarray(getattr(self, name))
            if col.ndim != 1 or col.shape != shape:
                raise TraceError(
                    f"{name} must be a column as long as station_id {shape}, "
                    f"got shape {col.shape}"
                )
            if dtype is np.int64 and col.size and col.dtype.kind not in "iub":
                raise TraceError(f"{name} must hold integers, got {col.dtype}")
            object.__setattr__(self, name, col.astype(dtype, copy=False))
        fault = _log_fault(self.charged, self.discount_given, self.discount_rate)
        if fault is not None:
            row, message = fault
            raise TraceError(f"row {row}: {message}")

    def __len__(self) -> int:
        return len(self.station_id)

    def __eq__(self, other):
        if not isinstance(other, ChargingLog):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name, _ in _LOG_COLUMNS
        )


def _log_fault(charged, given, rate) -> tuple[int, str] | None:
    """The first row that breaks a charging-log rule, with the rule's message.

    Rules are tried in order within a row, so the message is the one a
    row-by-row check would give.
    """
    charged, given, rate = np.asarray(charged), np.asarray(given), np.asarray(rate)
    rules = (
        (
            (charged != 0) & (charged != 1),
            lambda i: f"charged must be 0/1, got {int(charged[i])}",
        ),
        (
            (given != 0) & (given != 1),
            lambda i: f"discount_given must be 0/1, got {int(given[i])}",
        ),
        (
            ~((rate >= 0.0) & (rate < 1.0)),
            lambda i: f"discount_rate must be in [0, 1), got {float(rate[i])}",
        ),
        (
            (given == 0) & (rate != 0.0),
            lambda i: "discount_rate must be 0 when no discount was given",
        ),
    )
    broken = np.logical_or.reduce([mask for mask, _ in rules])
    if not broken.any():
        return None
    row = int(broken.argmax())
    message = next(message for mask, message in rules if mask[row])
    return row, message(row)


@dataclass
class TraceSet:
    """Aligned per-slot series plus the charging log."""

    start_slot: int
    rtp: np.ndarray
    wind_mps: np.ndarray
    irradiance_wm2: np.ndarray
    load_rate: np.ndarray
    charging: ChargingLog

    def __post_init__(self):
        self.rtp = np.asarray(self.rtp, dtype=np.float64)
        self.wind_mps = np.asarray(self.wind_mps, dtype=np.float64)
        self.irradiance_wm2 = np.asarray(self.irradiance_wm2, dtype=np.float64)
        self.load_rate = np.asarray(self.load_rate, dtype=np.float64)
        n = len(self.rtp)
        for name in ("rtp", "wind_mps", "irradiance_wm2", "load_rate"):
            arr = getattr(self, name)
            if len(arr) != n:
                raise TraceError(
                    f"series length mismatch: rtp has {n} slots, {name} has {len(arr)}"
                )
            if not np.isfinite(arr).all():
                raise TraceError(f"{name} must be finite in every slot")
        if n and self.rtp.min() < 0:
            raise TraceError("rtp must be nonnegative")
        if n and (self.wind_mps.min() < 0 or self.irradiance_wm2.min() < 0):
            raise TraceError("weather series must be nonnegative")
        if n and (self.load_rate.min() < 0 or self.load_rate.max() > 1):
            raise TraceError("load_rate must be within [0, 1]")

    @property
    def n_slots(self) -> int:
        return len(self.rtp)


# -- series generators ---------------------------------------------------------

# relative diurnal shape knots (hour of day -> multiplier); evening peak,
# small morning shoulder, cheap small hours
_RTP_KNOT_HOURS = np.array([0.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0, 20.0, 23.0, 24.0])
_RTP_KNOT_VALUES = np.array([0.70, 0.45, 0.55, 0.85, 0.75, 0.85, 1.30, 1.60, 1.15, 0.70])
_RTP_NOISE_SD = 0.008

_TRAFFIC_KNOT_HOURS = np.array([0.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0, 21.0, 24.0])
_TRAFFIC_KNOT_VALUES = np.array([0.78, 0.60, 0.35, 0.50, 0.55, 0.62, 0.80, 0.90, 0.78])
_TRAFFIC_NOISE_SD = 0.04


def check_rtp_base(rtp_base: float) -> None:
    """gen_rtp's check on its base price, shared with the run config."""
    if rtp_base < 0:
        raise ValueError(f"rtp_base must be nonnegative, got {rtp_base}")


def gen_rtp(seed: int, n_slots: int, base: float = 0.10) -> np.ndarray:
    """Real-time grid price series, currency/kWh, nonnegative, with a diurnal shape."""
    if n_slots <= 0:
        raise ValueError(f"n_slots must be positive, got {n_slots}")
    check_rtp_base(base)
    rng = np.random.default_rng(seed)
    hours = np.arange(n_slots, dtype=np.float64) % 24.0
    shape = np.interp(hours, _RTP_KNOT_HOURS, _RTP_KNOT_VALUES)
    series = base * shape + rng.normal(0.0, _RTP_NOISE_SD, size=n_slots)
    return np.maximum(series, 0.0)


def gen_weather(seed: int, n_slots: int) -> tuple[np.ndarray, np.ndarray]:
    """Wind speed (m/s, AR(1) around 7) and solar irradiance (W/m^2, diurnal bell)."""
    if n_slots <= 0:
        raise ValueError(f"n_slots must be positive, got {n_slots}")
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
    irradiance = 950.0 * elevation * cloud
    return wind, irradiance


def gen_traffic(seed: int, n_slots: int) -> np.ndarray:
    """Base-station load factor in [0, 1]; peaks in the evening like the price."""
    if n_slots <= 0:
        raise ValueError(f"n_slots must be positive, got {n_slots}")
    rng = np.random.default_rng(seed)
    hours = np.arange(n_slots, dtype=np.float64) % 24.0
    shape = np.interp(hours, _TRAFFIC_KNOT_HOURS, _TRAFFIC_KNOT_VALUES)
    series = shape + rng.normal(0.0, _TRAFFIC_NOISE_SD, size=n_slots)
    return np.clip(series, 0.0, 1.0)


def wt_power(wind_mps, capacity_kw: float):
    """Turbine output: cubic ramp between cut-in and rated, flat to cut-out, else 0."""
    if capacity_kw < 0:
        raise ValueError(f"capacity must be nonnegative, got {capacity_kw}")
    v = np.asarray(wind_mps, dtype=np.float64)
    if v.size and v.min() < 0:
        raise ValueError("wind speed must be nonnegative")
    ramp = capacity_kw * (v**3 - WT_CUT_IN**3) / (WT_RATED**3 - WT_CUT_IN**3)
    out = np.where(
        (v < WT_CUT_IN) | (v > WT_CUT_OUT),
        0.0,
        np.where(v >= WT_RATED, capacity_kw, ramp),
    )
    return float(out) if np.isscalar(wind_mps) else out


def pv_power(irradiance_wm2, capacity_kw: float):
    """PV output: derated linear in irradiance, clipped at nameplate capacity."""
    if capacity_kw < 0:
        raise ValueError(f"capacity must be nonnegative, got {capacity_kw}")
    irr = np.asarray(irradiance_wm2, dtype=np.float64)
    if irr.size and irr.min() < 0:
        raise ValueError("irradiance must be nonnegative")
    out = np.minimum(capacity_kw, capacity_kw * PV_DERATE * irr / 1000.0)
    return float(out) if np.isscalar(irradiance_wm2) else out


# -- charging population -------------------------------------------------------


def check_population_args(
    n_stations: int,
    strata_priors: Sequence[float],
    n_items: int | None,
    evening_boost: float,
    logged_policy: str,
    logged_discount: float,
    slots_per_day: int,
) -> None:
    """gen_charging_population's checks on its arguments, shared with the run config.

    n_stations must already be positive.
    """
    if slots_per_day <= 0:
        raise ValueError(f"slots_per_day must be positive, got {slots_per_day}")
    priors = np.asarray(strata_priors, dtype=np.float64)
    if priors.shape != (3,):
        raise ValueError(f"strata_priors must have 3 entries, got {priors.shape}")
    if priors.min() < 0 or abs(priors.sum() - 1.0) > 1e-9:
        raise ValueError(f"strata_priors must be nonnegative and sum to 1, got {priors}")
    if evening_boost <= 0:
        raise ValueError(f"evening_boost must be positive, got {evening_boost}")
    if logged_policy not in ("random", "confounded"):
        raise ValueError(
            f"logged_policy must be 'random' or 'confounded', got {logged_policy!r}"
        )
    if not 0.0 < logged_discount < 1.0:
        raise ValueError(f"logged_discount must be in (0, 1), got {logged_discount}")
    grid_size = n_stations * slots_per_day
    if n_items is not None and not 0 < n_items <= grid_size:
        raise ValueError(
            f"n_items must be in (0, {grid_size}] for {n_stations} stations "
            f"x {slots_per_day} slots, got {n_items}"
        )


def gen_charging_population(
    seed: int,
    n_stations: int,
    n_slots: int,
    strata_priors: Sequence[float],
    *,
    n_items: int | None = None,
    evening_boost: float = 2.5,
    logged_policy: str = "random",
    logged_discount: float = 0.3,
    slots_per_day: int = 24,
) -> tuple[list[PopulationItem], ChargingLog]:
    """Plant per-item strata and roll out a logged discount policy over n_slots.

    Items are (station, slot-of-day) pairs; n_items truncates the full grid
    when an exact universe size is needed. strata_priors orders as
    (always, incentive, no_charge); the incentive prior is multiplied by
    evening_boost inside 18:00-24:00 and the triple renormalized.

    The logged policy offers a discount with probability 0.5 ("random") or
    with a slot-dependent probability 0.3/0.7 outside/inside the evening
    window ("confounded", for stressing propensity-based estimators).
    """
    if n_stations <= 0 or n_slots <= 0:
        raise ValueError("n_stations and n_slots must be positive")
    check_population_args(
        n_stations,
        strata_priors,
        n_items,
        evening_boost,
        logged_policy,
        logged_discount,
        slots_per_day,
    )
    priors = np.asarray(strata_priors, dtype=np.float64)
    if np.any(priors == 1.0):
        warnings.warn("degenerate strata_priors: a single stratum has all the mass")
    if n_items is None:
        n_items = n_stations * slots_per_day

    rng = np.random.default_rng(seed)
    evening_from = EVENING_START_HOUR * slots_per_day / 24.0
    boosted = priors * np.array([1.0, evening_boost, 1.0])
    boosted = boosted / boosted.sum()

    items: list[PopulationItem] = []
    # each item's index in _STRATUM_ORDER; -1 where truncated out of the universe
    strata = np.full((n_stations, slots_per_day), -1)
    for station in range(n_stations):
        for sod in range(slots_per_day):
            if len(items) == n_items:
                break
            p = boosted if sod >= evening_from else priors
            k = int(rng.choice(3, p=p))
            items.append(PopulationItem(station, sod, _STRATUM_ORDER[k]))
            strata[station, sod] = k
        if len(items) == n_items:
            break

    if logged_policy == "random":
        treat_prob = np.full(slots_per_day, 0.5)
    else:
        sods = np.arange(slots_per_day)
        treat_prob = np.where(sods >= evening_from, 0.7, 0.3)
    draws = rng.random((n_slots, n_stations))

    # (slot, station) grids; rows of the log run slot-major, station-minor
    sods = np.arange(n_slots) % slots_per_day
    stratum = strata[:, sods].T
    treated = draws < treat_prob[sods][:, None]
    charged = (stratum == 0) | ((stratum == 1) & treated)  # stratum_response
    logged = stratum >= 0
    slot, station = np.nonzero(logged)
    treated = treated[logged]
    log = ChargingLog(
        station_id=station,
        slot=slot,
        charged=charged[logged],
        discount_given=treated,
        discount_rate=np.where(treated, logged_discount, 0.0),
    )
    return items, log


# -- CSV I/O -------------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_column(values: np.ndarray) -> list[str]:
    """_fmt of every entry, formatting each distinct value once.

    Values are told apart by their bits, so 0.0 and -0.0 keep their own text.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    distinct, index = np.unique(bits, return_inverse=True)
    text = np.array([_fmt(v) for v in distinct.view(np.float64).tolist()], dtype=object)
    return text[index].tolist()


def _write_rows(path: str, header: list[str], rows) -> None:
    with nn._replacing(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _read_rows(path: str, header: list[str]) -> tuple[Sequence[int], list[list[str]]]:
    """A CSV's data rows and the line number of each, after its header.

    Blank lines are skipped; every other row must have one field per column.
    """
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
        rows = list(reader)
    lines: Sequence[int] = range(2, len(rows) + 2)
    if set(map(len, rows)) - {len(header)}:
        lines = [ln for ln, row in zip(lines, rows) if row]
        rows = [row for row in rows if row]
        for ln, row in zip(lines, rows):
            if len(row) != len(header):
                raise TraceError(
                    f"{path} line {ln}: expected {len(header)} fields, got {len(row)}"
                )
    return lines, rows


_INT64 = np.iinfo(np.int64)


def _parse_float(path: str, ln: int, field: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise TraceError(f"{path} line {ln}: {field} is not a number: {text!r}")
    if not math.isfinite(value):
        raise TraceError(f"{path} line {ln}: {field} is not finite: {text!r}")
    return value


def _parse_int(path: str, ln: int, field: str, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise TraceError(f"{path} line {ln}: {field} is not an integer: {text!r}")
    if not _INT64.min <= value <= _INT64.max:
        raise TraceError(f"{path} line {ln}: {field} is out of the int64 range: {text!r}")
    return value


_PARSER = {int: _parse_int, float: _parse_float}
_DTYPE = {int: np.int64, float: np.float64}


def _columns(rows: list[list[str]], types) -> list[np.ndarray] | None:
    """The leading field columns, each converted with int or float at once.

    These are the converters _parse_int and _parse_float apply to one field,
    so a column holds exactly what a field-by-field parse returns. None when
    a field does not convert, an int leaves int64, or a float is not finite;
    the caller then parses field by field to name the first bad one.
    """
    try:
        cols = [
            np.fromiter(map(t, [row[j] for row in rows]), _DTYPE[t], count=len(rows))
            for j, t in enumerate(types)
        ]
    except (ValueError, OverflowError):
        return None
    if all(np.isfinite(col).all() for col, t in zip(cols, types) if t is float):
        return cols
    return None


def _read_series(path: str, header: list[str]) -> tuple[int, list[np.ndarray]]:
    """Shared slot-indexed reader: returns (start_slot, per-column float arrays)."""
    lines, rows = _read_rows(path, header)
    if not rows:
        raise TraceError(f"{path}: no data rows")
    cols = _columns(rows, [int] + [float] * (len(header) - 1))
    if cols is not None:
        start = int(cols[0][0])
        if np.array_equal(cols[0], start + np.arange(len(rows))):
            return start, cols[1:]
    # row by row, as the slots run, to raise the first error in file order
    for i, (ln, row) in enumerate(zip(lines, rows)):
        slot = _parse_int(path, ln, "slot", row[0])
        if i == 0:
            start = slot
        elif slot != start + i:
            raise TraceError(f"{path} line {ln}: missing slot {start + i}, found {slot}")
        for field, text in zip(header[1:], row[1:]):
            _parse_float(path, ln, field, text)
    raise AssertionError(f"{path}: bulk parse failed, field parse did not")


def _read_charging(path: str) -> ChargingLog:
    lines, rows = _read_rows(path, CHARGING_HEADER)
    types = [int, int, int, int, float]
    cols = _columns(rows, types)
    parse_error = None
    if cols is None:
        # field by field to the first one that fails; a rule broken in an
        # earlier row still comes first, as in a row-by-row parse
        parsed = []
        try:
            for ln, row in zip(lines, rows):
                parsed.append(
                    [
                        _PARSER[t](path, ln, field, text)
                        for t, field, text in zip(types, CHARGING_HEADER, row)
                    ]
                )
        except TraceError as exc:
            parse_error = exc
        cols = [[values[j] for values in parsed] for j in range(len(types))]
    fault = _log_fault(*cols[2:])
    if fault is not None:
        row, message = fault
        raise TraceError(f"{path} line {lines[row]}: {message}")
    if parse_error is not None:
        raise parse_error
    return ChargingLog(*cols)


def _strata_fault(path: str, ln: int, row: list[str]) -> None:
    """Raise the first fault of one strata row: its stratum, then each field."""
    if row[2] not in _STRATUM_BY_VALUE:
        raise TraceError(
            f"{path} line {ln}: unknown stratum {row[2]!r}, "
            f"expected one of {sorted(_STRATUM_BY_VALUE)}"
        )
    if _parse_int(path, ln, "station_id", row[0]) < 0:
        raise TraceError(f"{path} line {ln}: station_id is negative: {row[0]!r}")
    if not 0 <= _parse_int(path, ln, "slot_of_day", row[1]) < SLOTS_PER_DAY:
        raise TraceError(
            f"{path} line {ln}: slot_of_day is outside [0, {SLOTS_PER_DAY}): {row[1]!r}"
        )


def _read_strata(path: str) -> list[PopulationItem]:
    lines, rows = _read_rows(path, STRATA_HEADER)
    names = [row[2] for row in rows]
    cols = _columns(rows, [int, int])
    if (
        cols is None
        or not _STRATUM_BY_VALUE.keys() >= set(names)
        or (cols[0] < 0).any()
        or ((cols[1] < 0) | (cols[1] >= SLOTS_PER_DAY)).any()
    ):
        # row by row, to raise the first error in file order
        for ln, row in zip(lines, rows):
            _strata_fault(path, ln, row)
        raise AssertionError(f"{path}: bulk checks failed, row checks did not")
    keys = list(zip(cols[0].tolist(), cols[1].tolist()))
    if len(set(keys)) < len(keys):
        first = {}
        for ln, key in zip(lines, keys):
            if key in first:
                raise TraceError(
                    f"{path} line {ln}: duplicate item (station {key[0]}, slot_of_day "
                    f"{key[1]}), first on line {first[key]}"
                )
            first[key] = ln
    strata = map(_STRATUM_BY_VALUE.__getitem__, names)
    return [PopulationItem(station, sod, stratum) for (station, sod), stratum in zip(keys, strata)]


def load_csv(path: str, schema: str):
    """Parse one trace CSV by schema name.

    Returns (start_slot, arrays...) for the slot-indexed schemas, a
    ChargingLog for "charging", or an item list for "strata". Each column is
    converted and checked at once; only a file that fails is parsed again
    field by field, so that the error names the first bad line and field.
    """
    if schema == "rtp":
        start, (price,) = _read_series(path, RTP_HEADER)
        if price.min() < 0:
            raise TraceError(f"{path}: negative price at slot {start + int(price.argmin())}")
        return start, price
    if schema == "weather":
        start, (wind, irr) = _read_series(path, WEATHER_HEADER)
        if wind.min() < 0 or irr.min() < 0:
            raise TraceError(f"{path}: weather values must be nonnegative")
        return start, wind, irr
    if schema == "traffic":
        start, (load,) = _read_series(path, TRAFFIC_HEADER)
        if load.min() < 0 or load.max() > 1:
            bad = int(np.argmax((load < 0) | (load > 1)))
            raise TraceError(
                f"{path}: load_rate out of [0, 1] at slot {start + bad}: {load[bad]}"
            )
        return start, load
    if schema == "charging":
        return _read_charging(path)
    if schema == "strata":
        return _read_strata(path)
    raise ValueError(f"unknown schema {schema!r}")


def save_traces(traces: TraceSet, dir_path: str) -> list[str]:
    """Write rtp/weather/traffic/charging CSVs into dir_path; returns the paths."""
    import os

    slots = range(traces.start_slot, traces.start_slot + traces.n_slots)
    log = traces.charging
    tables = (
        ("rtp.csv", RTP_HEADER, (traces.rtp,)),
        ("weather.csv", WEATHER_HEADER, (traces.wind_mps, traces.irradiance_wm2)),
        ("traffic.csv", TRAFFIC_HEADER, (traces.load_rate,)),
    )
    paths = []
    for name, header, series in tables:
        p = os.path.join(dir_path, name)
        _write_rows(p, header, zip(slots, *(map(_fmt, col.tolist()) for col in series)))
        paths.append(p)
    p = os.path.join(dir_path, "charging.csv")
    _write_rows(
        p,
        CHARGING_HEADER,
        zip(
            log.station_id.tolist(),
            log.slot.tolist(),
            log.charged.tolist(),
            log.discount_given.tolist(),
            _fmt_column(log.discount_rate),
        ),
    )
    paths.append(p)
    return paths


def load_traces(dir_path: str) -> TraceSet:
    """Assemble a TraceSet from the four CSVs in dir_path; series must align."""
    import os

    start_r, rtp = load_csv(os.path.join(dir_path, "rtp.csv"), "rtp")
    start_w, wind, irr = load_csv(os.path.join(dir_path, "weather.csv"), "weather")
    start_t, load = load_csv(os.path.join(dir_path, "traffic.csv"), "traffic")
    log = load_csv(os.path.join(dir_path, "charging.csv"), "charging")
    if not (start_r == start_w == start_t):
        raise TraceError(
            f"trace files disagree on start slot: rtp={start_r}, "
            f"weather={start_w}, traffic={start_t}"
        )
    if not (len(rtp) == len(wind) == len(load)):
        raise TraceError(
            f"trace files disagree on length: rtp={len(rtp)}, "
            f"weather={len(wind)}, traffic={len(load)}"
        )
    return TraceSet(
        start_slot=start_r,
        rtp=rtp,
        wind_mps=wind,
        irradiance_wm2=irr,
        load_rate=load,
        charging=log,
    )


def save_strata(path: str, items: Sequence[PopulationItem]) -> None:
    _write_rows(
        path,
        STRATA_HEADER,
        ((it.station_id, it.slot_of_day, it.stratum.value) for it in items),
    )


def load_strata(path: str) -> list[PopulationItem]:
    return load_csv(path, "strata")
