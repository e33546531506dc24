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
from typing import Callable, Sequence

import numpy as np

from . import nn

# wind turbine curve defaults, m/s
WT_CUT_IN = 3.0
WT_RATED = 12.0
WT_CUT_OUT = 25.0
# PV derate against nameplate at 1000 W/m^2
PV_DERATE = 0.9

EVENING_START_HOUR = 18  # incentive-prone window is 18:00-24:00

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


@dataclass(frozen=True)
class ChargingRecord:
    """One logged charging opportunity at a station and absolute slot."""

    station_id: int
    slot: int
    charged: int
    discount_given: int
    discount_rate: float

    def __post_init__(self):
        if self.charged not in (0, 1):
            raise TraceError(f"charged must be 0/1, got {self.charged}")
        if self.discount_given not in (0, 1):
            raise TraceError(f"discount_given must be 0/1, got {self.discount_given}")
        if not 0.0 <= self.discount_rate < 1.0:
            raise TraceError(f"discount_rate must be in [0, 1), got {self.discount_rate}")
        if self.discount_given == 0 and self.discount_rate != 0.0:
            raise TraceError("discount_rate must be 0 when no discount was given")


@dataclass
class TraceSet:
    """Aligned per-slot series plus the charging log."""

    start_slot: int
    rtp: np.ndarray
    wind_mps: np.ndarray
    irradiance_wm2: np.ndarray
    load_rate: np.ndarray
    charging: list[ChargingRecord]

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

_TRAFFIC_KNOT_HOURS = np.array([0.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0, 21.0, 24.0])
_TRAFFIC_KNOT_VALUES = np.array([0.78, 0.60, 0.35, 0.50, 0.55, 0.62, 0.80, 0.90, 0.78])


def gen_rtp(
    seed: int,
    n_slots: int,
    profile: str = "diurnal",
    base: float = 0.10,
    noise_sd: float = 0.008,
) -> np.ndarray:
    """Real-time grid price series, currency/kWh, nonnegative."""
    if n_slots <= 0:
        raise ValueError(f"n_slots must be positive, got {n_slots}")
    if base < 0:
        raise ValueError(f"base price must be nonnegative, got {base}")
    if profile == "flat":
        return np.full(n_slots, float(base))
    if profile == "diurnal":
        rng = np.random.default_rng(seed)
        hours = np.arange(n_slots, dtype=np.float64) % 24.0
        shape = np.interp(hours, _RTP_KNOT_HOURS, _RTP_KNOT_VALUES)
        series = base * shape + rng.normal(0.0, noise_sd, size=n_slots)
        return np.maximum(series, 0.0)
    raise ValueError(f"unknown rtp profile {profile!r}")


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


def gen_traffic(seed: int, n_slots: int, noise_sd: float = 0.04) -> np.ndarray:
    """Base-station load factor in [0, 1]; peaks in the evening like the price."""
    if n_slots <= 0:
        raise ValueError(f"n_slots must be positive, got {n_slots}")
    rng = np.random.default_rng(seed)
    hours = np.arange(n_slots, dtype=np.float64) % 24.0
    shape = np.interp(hours, _TRAFFIC_KNOT_HOURS, _TRAFFIC_KNOT_VALUES)
    series = shape + rng.normal(0.0, noise_sd, size=n_slots)
    return np.clip(series, 0.0, 1.0)


def wt_power(
    wind_mps,
    capacity_kw: float,
    cut_in: float = WT_CUT_IN,
    rated: float = WT_RATED,
    cut_out: float = WT_CUT_OUT,
):
    """Turbine output: cubic ramp between cut-in and rated, flat to cut-out, else 0."""
    if not 0.0 < cut_in < rated < cut_out:
        raise ValueError(
            f"need 0 < cut_in < rated < cut_out, got {cut_in}, {rated}, {cut_out}"
        )
    if capacity_kw < 0:
        raise ValueError(f"capacity must be nonnegative, got {capacity_kw}")
    v = np.asarray(wind_mps, dtype=np.float64)
    if v.size and v.min() < 0:
        raise ValueError("wind speed must be nonnegative")
    ramp = capacity_kw * (v**3 - cut_in**3) / (rated**3 - cut_in**3)
    out = np.where(
        (v < cut_in) | (v > cut_out),
        0.0,
        np.where(v >= rated, capacity_kw, ramp),
    )
    return float(out) if np.isscalar(wind_mps) else out


def pv_power(irradiance_wm2, capacity_kw: float, derate: float = PV_DERATE):
    """PV output: derated linear in irradiance, clipped at nameplate capacity."""
    if capacity_kw < 0:
        raise ValueError(f"capacity must be nonnegative, got {capacity_kw}")
    if not 0.0 < derate <= 1.0:
        raise ValueError(f"derate must be in (0, 1], got {derate}")
    irr = np.asarray(irradiance_wm2, dtype=np.float64)
    if irr.size and irr.min() < 0:
        raise ValueError("irradiance must be nonnegative")
    out = np.minimum(capacity_kw, capacity_kw * derate * irr / 1000.0)
    return float(out) if np.isscalar(irradiance_wm2) else out


# -- charging population -------------------------------------------------------


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
) -> tuple[list[PopulationItem], list[ChargingRecord]]:
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
    if slots_per_day <= 0:
        raise ValueError(f"slots_per_day must be positive, got {slots_per_day}")
    priors = np.asarray(strata_priors, dtype=np.float64)
    if priors.shape != (3,):
        raise ValueError(f"strata_priors must have 3 entries, got {priors.shape}")
    if priors.min() < 0 or abs(priors.sum() - 1.0) > 1e-9:
        raise ValueError(f"strata_priors must be nonnegative and sum to 1, got {priors}")
    if np.any(priors == 1.0):
        warnings.warn("degenerate strata_priors: a single stratum has all the mass")
    if evening_boost <= 0:
        raise ValueError(f"evening_boost must be positive, got {evening_boost}")
    if logged_policy not in ("random", "confounded"):
        raise ValueError(f"unknown logged_policy {logged_policy!r}")
    if not 0.0 < logged_discount < 1.0:
        raise ValueError(f"logged_discount must be in (0, 1), got {logged_discount}")
    grid_size = n_stations * slots_per_day
    if n_items is None:
        n_items = grid_size
    if not 0 < n_items <= grid_size:
        raise ValueError(
            f"n_items must be in (0, {grid_size}] for {n_stations} stations "
            f"x {slots_per_day} slots, got {n_items}"
        )

    rng = np.random.default_rng(seed)
    evening_from = EVENING_START_HOUR * slots_per_day / 24.0
    boosted = priors * np.array([1.0, evening_boost, 1.0])
    boosted = boosted / boosted.sum()

    items: list[PopulationItem] = []
    stratum_of: dict[tuple[int, int], Stratum] = {}
    for station in range(n_stations):
        for sod in range(slots_per_day):
            if len(items) == n_items:
                break
            p = boosted if sod >= evening_from else priors
            stratum = _STRATUM_ORDER[int(rng.choice(3, p=p))]
            items.append(PopulationItem(station, sod, stratum))
            stratum_of[(station, sod)] = stratum
        if len(items) == n_items:
            break

    if logged_policy == "random":
        treat_prob = np.full(slots_per_day, 0.5)
    else:
        sods = np.arange(slots_per_day)
        treat_prob = np.where(sods >= evening_from, 0.7, 0.3)
    draws = rng.random((n_slots, n_stations))

    records: list[ChargingRecord] = []
    for t in range(n_slots):
        sod = t % slots_per_day
        p_treat = treat_prob[sod]
        for station in range(n_stations):
            stratum = stratum_of.get((station, sod))
            if stratum is None:
                continue  # truncated out of the universe
            treated = int(draws[t, station] < p_treat)
            records.append(
                ChargingRecord(
                    station_id=station,
                    slot=t,
                    charged=stratum_response(stratum, treated),
                    discount_given=treated,
                    discount_rate=logged_discount if treated else 0.0,
                )
            )
    return items, records


def train_ncf_scorer(
    records: Sequence[ChargingRecord],
    n_stations: int,
    *,
    slots_per_day: int = 24,
    embed_dim: int = 16,
    hidden: Sequence[int] = (64, 32),
    epochs: int = 5,
    batch_size: int = 64,
    lr: float = 0.01,
    weight_decay: float = 1e-4,
    seed: int = 0,
) -> nn.EmbedMlp:
    """Fit the embedding scorer to predict charging from (station, slot-of-day)."""
    if not records:
        raise ValueError("cannot train a scorer on an empty charging log")
    stations = np.array([r.station_id for r in records])
    slots = np.array([r.slot % slots_per_day for r in records])
    targets = np.array([r.charged for r in records], dtype=np.float64)
    model = nn.EmbedMlp(
        n_stations=n_stations,
        n_slots=slots_per_day,
        embed_dim=embed_dim,
        hidden=hidden,
        seed=seed,
    )
    nn.fit_embed_mlp(
        model,
        stations,
        slots,
        targets,
        epochs=epochs,
        batch_size=batch_size,
        lr=lr,
        weight_decay=weight_decay,
        seed=seed,
    )
    return model


def ncf_label(
    records: Sequence[ChargingRecord],
    scorer,
    split: float = 0.5,
    slots_per_day: int = 24,
) -> dict[tuple[int, int], Stratum]:
    """Label items from their history: charged items split by predicted rating.

    Items with any charging history get split by the scorer's rating: the top
    `split` fraction becomes AlwaysCharge (ties in odd counts go to the higher
    stratum), the rest IncentiveCharge. Never-charged items are NoCharge.
    Used when ingesting real, unlabeled charging logs.
    """
    if not records:
        raise TraceError("cannot label an empty charging log")
    if not 0.0 < split < 1.0:
        raise ValueError(f"split must be in (0, 1), got {split}")
    charged_any: dict[tuple[int, int], bool] = {}
    for r in records:
        key = (r.station_id, r.slot % slots_per_day)
        charged_any[key] = charged_any.get(key, False) or bool(r.charged)
    positives = sorted(k for k, v in charged_any.items() if v)
    if not positives:
        raise TraceError("no charged items in the log; nothing to split")
    predict: Callable = scorer if callable(scorer) else scorer.predict
    stations = np.array([k[0] for k in positives])
    slots = np.array([k[1] for k in positives])
    ratings = np.asarray(predict(stations, slots), dtype=np.float64)
    order = sorted(range(len(positives)), key=lambda i: (-ratings[i], positives[i]))
    n_always = math.ceil(split * len(positives))
    labels: dict[tuple[int, int], Stratum] = {}
    for rank, i in enumerate(order):
        labels[positives[i]] = (
            Stratum.ALWAYS_CHARGE if rank < n_always else Stratum.INCENTIVE_CHARGE
        )
    for key, charged in charged_any.items():
        if not charged:
            labels[key] = Stratum.NO_CHARGE
    return labels


# -- CSV I/O -------------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_rows(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _read_rows(path: str, header: list[str]) -> list[tuple[int, list[str]]]:
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
        return int(text)
    except ValueError:
        raise TraceError(f"{path} line {ln}: {field} is not an integer: {text!r}")


def _read_series(path: str, header: list[str]) -> tuple[int, list[list[float]]]:
    """Shared slot-indexed reader: returns (start_slot, per-column float lists)."""
    rows = _read_rows(path, header)
    if not rows:
        raise TraceError(f"{path}: no data rows")
    start = None
    cols: list[list[float]] = [[] for _ in header[1:]]
    for i, (ln, row) in enumerate(rows):
        slot = _parse_int(path, ln, "slot", row[0])
        if start is None:
            start = slot
        elif slot != start + i:
            raise TraceError(f"{path} line {ln}: missing slot {start + i}, found {slot}")
        for j, field in enumerate(header[1:]):
            cols[j].append(_parse_float(path, ln, field, row[j + 1]))
    return start, cols


def load_csv(path: str, schema: str):
    """Parse one trace CSV by schema name.

    Returns (start_slot, arrays...) for the slot-indexed schemas, a record
    list for "charging", or an item list for "strata".
    """
    if schema == "rtp":
        start, (price,) = _read_series(path, RTP_HEADER)
        arr = np.asarray(price)
        if arr.min() < 0:
            raise TraceError(f"{path}: negative price at slot {start + int(arr.argmin())}")
        return start, arr
    if schema == "weather":
        start, (wind, irr) = _read_series(path, WEATHER_HEADER)
        wind, irr = np.asarray(wind), np.asarray(irr)
        if wind.min() < 0 or irr.min() < 0:
            raise TraceError(f"{path}: weather values must be nonnegative")
        return start, wind, irr
    if schema == "traffic":
        start, (load,) = _read_series(path, TRAFFIC_HEADER)
        arr = np.asarray(load)
        if arr.min() < 0 or arr.max() > 1:
            bad = int(np.argmax((arr < 0) | (arr > 1)))
            raise TraceError(
                f"{path}: load_rate out of [0, 1] at slot {start + bad}: {arr[bad]}"
            )
        return start, arr
    if schema == "charging":
        records = []
        for ln, row in _read_rows(path, CHARGING_HEADER):
            try:
                records.append(
                    ChargingRecord(
                        station_id=_parse_int(path, ln, "station_id", row[0]),
                        slot=_parse_int(path, ln, "slot", row[1]),
                        charged=_parse_int(path, ln, "charged", row[2]),
                        discount_given=_parse_int(path, ln, "discount_given", row[3]),
                        discount_rate=_parse_float(path, ln, "discount_rate", row[4]),
                    )
                )
            except TraceError as exc:
                raise TraceError(f"{path} line {ln}: {exc}") from None
        return records
    if schema == "strata":
        items = []
        for ln, row in _read_rows(path, STRATA_HEADER):
            name = row[2]
            if name not in _STRATUM_BY_VALUE:
                raise TraceError(
                    f"{path} line {ln}: unknown stratum {name!r}, "
                    f"expected one of {sorted(_STRATUM_BY_VALUE)}"
                )
            items.append(
                PopulationItem(
                    station_id=_parse_int(path, ln, "station_id", row[0]),
                    slot_of_day=_parse_int(path, ln, "slot_of_day", row[1]),
                    stratum=_STRATUM_BY_VALUE[name],
                )
            )
        return items
    raise ValueError(f"unknown schema {schema!r}")


def save_traces(traces: TraceSet, dir_path: str) -> list[str]:
    """Write rtp/weather/traffic/charging CSVs into dir_path; returns the paths."""
    import os

    start = traces.start_slot
    paths = []
    p = os.path.join(dir_path, "rtp.csv")
    _write_rows(p, RTP_HEADER, ((start + i, _fmt(v)) for i, v in enumerate(traces.rtp)))
    paths.append(p)
    p = os.path.join(dir_path, "weather.csv")
    _write_rows(
        p,
        WEATHER_HEADER,
        (
            (start + i, _fmt(w), _fmt(s))
            for i, (w, s) in enumerate(zip(traces.wind_mps, traces.irradiance_wm2))
        ),
    )
    paths.append(p)
    p = os.path.join(dir_path, "traffic.csv")
    _write_rows(
        p, TRAFFIC_HEADER, ((start + i, _fmt(v)) for i, v in enumerate(traces.load_rate))
    )
    paths.append(p)
    p = os.path.join(dir_path, "charging.csv")
    _write_rows(
        p,
        CHARGING_HEADER,
        (
            (r.station_id, r.slot, r.charged, r.discount_given, _fmt(r.discount_rate))
            for r in traces.charging
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
    records = load_csv(os.path.join(dir_path, "charging.csv"), "charging")
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
        charging=records,
    )


def save_strata(path: str, items: Sequence[PopulationItem]) -> None:
    _write_rows(
        path,
        STRATA_HEADER,
        ((it.station_id, it.slot_of_day, it.stratum.value) for it in items),
    )


def load_strata(path: str) -> list[PopulationItem]:
    return load_csv(path, "strata")
