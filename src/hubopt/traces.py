"""Synthetic input traces and their CSV schemas.

Generators produce the four exogenous series a hub consumes (grid price,
weather, base-station traffic, EV charging history) plus the planted
ground-truth charging strata used to score pricing policies. All generators
are deterministic per seed.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
import os
import warnings
from dataclasses import dataclass, field
from enum import IntEnum
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
SLOTS_PER_DAY = 24  # every series and the strata file are hourly; series start at slot 0

RTP_HEADER = ["slot", "price"]
WEATHER_HEADER = ["slot", "wind_mps", "irradiance_wm2"]
TRAFFIC_HEADER = ["slot", "load_rate"]
CHARGING_HEADER = ["station_id", "slot", "charged", "discount_given", "discount_rate"]
STRATA_HEADER = ["station_id", "slot_of_day", "stratum"]


class TraceError(ValueError):
    """Malformed, out-of-range, or gapped trace data."""


class Stratum(IntEnum):
    """Latent response type of a (station, slot-of-day) item. Its value is the
    item's stratum code in a Universe, which is also its pricing stratum-head
    column."""

    NO_CHARGE = 0
    INCENTIVE_CHARGE = 1
    ALWAYS_CHARGE = 2


# the strata.csv name of each stratum code
_STRATUM_NAMES = ("no_charge", "incentive", "always")


def stratum_response(strata, treated):
    """Whether an item of each stratum code charges, given a discount offer.

    strata is one code or an array of codes, and treated a flag or an array
    of flags that broadcasts with it; an always-charge item charges, an
    incentive-charge item only when treated, and a no-charge item or -1 (an
    item truncated out of the universe) never. Returns 0/1 int64, a scalar
    for a scalar code.
    """
    strata, treated = np.asarray(strata), np.asarray(treated)
    charges = (strata == Stratum.ALWAYS_CHARGE) | (
        (strata == Stratum.INCENTIVE_CHARGE) & (treated != 0)
    )
    return charges.astype(np.int64)[()]


@dataclass(frozen=True)
class PopulationItem:
    station_id: int
    slot_of_day: int
    stratum: Stratum


@dataclass(frozen=True, eq=False)
class Universe:
    """The (station, slot-of-day) items of a run, as int64 columns.

    Item i is (stations[i], slots[i]), and strata[i] is its stratum code, a
    Stratum value. The items are distinct, with stations >= 0 and slots of
    day in [0, SLOTS_PER_DAY), as load_csv checks a strata file and
    gen_charging_population draws them. Iterating or indexing gives
    PopulationItems.
    """

    stations: np.ndarray
    slots: np.ndarray
    strata: np.ndarray

    @classmethod
    def from_items(cls, items: Sequence[PopulationItem]) -> Universe:
        return cls(
            np.array([it.station_id for it in items], dtype=np.int64),
            np.array([it.slot_of_day for it in items], dtype=np.int64),
            np.array([it.stratum for it in items], dtype=np.int64),
        )

    def __len__(self) -> int:
        return len(self.stations)

    def __getitem__(self, i: int) -> PopulationItem:
        return PopulationItem(int(self.stations[i]), int(self.slots[i]), Stratum(self.strata[i]))

    def __iter__(self):
        strata = map(Stratum, self.strata.tolist())
        return map(PopulationItem, self.stations.tolist(), self.slots.tolist(), strata)

    def __eq__(self, other):
        if not isinstance(other, Universe):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("stations", "slots", "strata")
        )

    @functools.cached_property
    def grid(self) -> np.ndarray:
        """(largest station + 1, SLOTS_PER_DAY): each item's row at its key, -1 elsewhere."""
        grid = np.full((self.stations.max(initial=-1) + 1, SLOTS_PER_DAY), -1, dtype=np.int64)
        grid[self.stations, self.slots] = np.arange(len(self))
        return grid

    def rows(self, stations: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """The row of the item at each (station, slot of day), or -1 where none is."""
        grid = self.grid
        inside = (stations >= 0) & (stations < len(grid)) & (slots >= 0) & (slots < SLOTS_PER_DAY)
        rows = np.full(len(stations), -1, dtype=np.int64)
        rows[inside] = grid[stations[inside], slots[inside]]
        return rows


def _repeats(*keys) -> tuple[np.ndarray, np.ndarray]:
    """Whether an earlier row holds each row's key, its entries of the key
    columns, and the first row that holds it. A stable sort by key keeps
    equal keys adjacent and in file order."""
    order = np.lexsort(keys)
    ordered = [key[order] for key in keys]
    new = np.ones(len(order), dtype=bool)
    new[1:] = functools.reduce(np.logical_or, [key[1:] != key[:-1] for key in ordered])
    first = np.empty_like(order)
    first[order] = order[new][np.cumsum(new) - 1]
    return first != np.arange(len(order)), first


_INT64 = np.iinfo(np.int64)
_DTYPE = {int: np.int64, float: np.float64}
_LOG_COLUMNS = (
    ("station_id", int),
    ("slot", int),
    ("charged", int),
    ("discount_given", int),
    ("discount_rate", float),
)


@dataclass(frozen=True, eq=False)
class ChargingLog:
    """Logged charging opportunities, one row per station and absolute slot.

    Five equal-length columns: the int64 station, slot (nonnegative), whether
    the slot's EV charged (0/1) and whether a discount was offered (0/1), and
    the float64 rate offered, in [0, 1) and 0 without a discount. The log
    holds its columns as given: load_csv checks a charging file's rows where
    it enters, and gen_charging_population builds columns that keep the
    rules.
    """

    station_id: np.ndarray
    slot: np.ndarray
    charged: np.ndarray
    discount_given: np.ndarray
    discount_rate: np.ndarray

    def __len__(self) -> int:
        return len(self.station_id)

    def __eq__(self, other):
        if not isinstance(other, ChargingLog):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name, _ in _LOG_COLUMNS
        )


def _raise_first_fault(checks, where) -> None:
    """Raise the first row, in file order, that fails a check, named by where(i).

    checks are (row mask, message of a row) pairs in the order a row-by-row
    reader tries them, and the error carries the first one the row fails:
    the error a row-by-row reader would raise.
    """
    broken = functools.reduce(np.logical_or, [mask for mask, _ in checks])
    if broken.any():
        row = int(broken.argmax())
        message = next(message for mask, message in checks if mask[row])
        raise TraceError(f"{where(row)}: {message(row)}")


def _log_rules(slot, charged, given, rate) -> list:
    """The charging-log rules as checks for _raise_first_fault, in the order tried."""
    return [
        (slot < 0, lambda i: f"slot must be nonnegative, got {int(slot[i])}"),
        ((charged != 0) & (charged != 1), lambda i: f"charged must be 0/1, got {int(charged[i])}"),
        ((given != 0) & (given != 1), lambda i: f"discount_given must be 0/1, got {int(given[i])}"),
        (
            ~((rate >= 0.0) & (rate < 1.0)),
            lambda i: f"discount_rate must be in [0, 1), got {float(rate[i])}",
        ),
        (
            (given == 0) & (rate != 0.0),
            lambda i: "discount_rate must be 0 when no discount was given",
        ),
    ]


@dataclass
class TraceSet:
    """Aligned per-slot series, slot 0 first.

    The values were checked where they entered: by load_csv for a trace
    file, by the run config for the generators' arguments. Each series is a
    read-only view, so every reader of the set can share it.
    """

    rtp: np.ndarray
    wind_mps: np.ndarray
    irradiance_wm2: np.ndarray
    load_rate: np.ndarray
    # (wt_capacity_kw, pv_capacity_kw) -> renewables' rows
    _renewables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.rtp)
        for name in ("rtp", "wind_mps", "irradiance_wm2", "load_rate"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).view()
            arr.flags.writeable = False
            setattr(self, name, arr)
            if len(arr) != n:
                raise TraceError(
                    f"series length mismatch: rtp has {n} slots, {name} has {len(arr)}"
                )

    @property
    def n_slots(self) -> int:
        return len(self.rtp)

    def renewables(self, wt_capacity_kw: float, pv_capacity_kw: float):
        """Wind and PV output (kW) per slot at these capacities, as
        wt_power and pv_power give them: computed once per capacity pair and
        shared, read-only, by every caller."""
        key = (wt_capacity_kw, pv_capacity_kw)
        if key not in self._renewables:
            rows = (
                wt_power(self.wind_mps, wt_capacity_kw),
                pv_power(self.irradiance_wm2, pv_capacity_kw),
            )
            for row in rows:
                row.flags.writeable = False
            self._renewables[key] = rows
        return self._renewables[key]


# -- series generators ---------------------------------------------------------

# relative diurnal shape knots (hour of day -> multiplier); evening peak,
# small morning shoulder, cheap small hours
_RTP_KNOT_HOURS = np.array([0.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0, 20.0, 23.0, 24.0])
_RTP_KNOT_VALUES = np.array([0.70, 0.45, 0.55, 0.85, 0.75, 0.85, 1.30, 1.60, 1.15, 0.70])
_RTP_NOISE_SD = 0.008

_TRAFFIC_KNOT_HOURS = np.array([0.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0, 21.0, 24.0])
_TRAFFIC_KNOT_VALUES = np.array([0.78, 0.60, 0.35, 0.50, 0.55, 0.62, 0.80, 0.90, 0.78])
_TRAFFIC_NOISE_SD = 0.04


def gen_rtp(seed: int, n_slots: int, base: float = 0.10) -> np.ndarray:
    """Real-time grid price series, currency/kWh, nonnegative, with a diurnal shape."""
    rng = np.random.default_rng(seed)
    hours = np.arange(n_slots, dtype=np.float64) % 24.0
    shape = np.interp(hours, _RTP_KNOT_HOURS, _RTP_KNOT_VALUES)
    series = base * shape + rng.normal(0.0, _RTP_NOISE_SD, size=n_slots)
    return np.maximum(series, 0.0)


def gen_weather(seed: int, n_slots: int) -> tuple[np.ndarray, np.ndarray]:
    """Wind speed (m/s, AR(1) around 7) and solar irradiance (W/m^2, diurnal bell)."""
    rng = np.random.default_rng(seed)
    # one array draw per noise gives the values of n_slots scalar draws, in order
    wind_noise = rng.normal(0.0, 1.6, size=n_slots).tolist()
    cloud_noise = rng.normal(0.0, 0.1, size=n_slots).tolist()
    wind = []
    w = 7.0
    for e in wind_noise:
        w = 7.0 + 0.85 * (w - 7.0) + e
        wind.append(max(w, 0.0))
    hours = np.arange(n_slots, dtype=np.float64) % 24.0
    elevation = np.sin(np.pi * (hours - 6.0) / 12.0)
    elevation = np.where((hours >= 6.0) & (hours <= 18.0), np.maximum(elevation, 0.0), 0.0)
    cloud = []
    c = 0.75
    for e in cloud_noise:
        c = min(1.0, max(0.25, c + e))
        cloud.append(c)
    wind = np.array(wind, dtype=np.float64)
    irradiance = 950.0 * elevation * np.array(cloud, dtype=np.float64)
    return wind, irradiance


def gen_traffic(seed: int, n_slots: int) -> np.ndarray:
    """Base-station load factor in [0, 1]; peaks in the evening like the price."""
    rng = np.random.default_rng(seed)
    hours = np.arange(n_slots, dtype=np.float64) % 24.0
    shape = np.interp(hours, _TRAFFIC_KNOT_HOURS, _TRAFFIC_KNOT_VALUES)
    series = shape + rng.normal(0.0, _TRAFFIC_NOISE_SD, size=n_slots)
    return np.clip(series, 0.0, 1.0)


def wt_power(wind_mps, capacity_kw: float) -> np.ndarray:
    """Turbine output: cubic ramp between cut-in and rated, flat to cut-out, else 0."""
    v = np.asarray(wind_mps, dtype=np.float64)
    ramp = capacity_kw * (v**3 - WT_CUT_IN**3) / (WT_RATED**3 - WT_CUT_IN**3)
    return np.where(
        (v < WT_CUT_IN) | (v > WT_CUT_OUT),
        0.0,
        np.where(v >= WT_RATED, capacity_kw, ramp),
    )


def pv_power(irradiance_wm2, capacity_kw: float) -> np.ndarray:
    """PV output: derated linear in irradiance, clipped at nameplate capacity."""
    irr = np.asarray(irradiance_wm2, dtype=np.float64)
    return np.minimum(capacity_kw, capacity_kw * PV_DERATE * irr / 1000.0)


# -- charging population -------------------------------------------------------


def check_population_args(
    n_stations: int,
    strata_priors: Sequence[float],
    n_items: int | None,
    evening_boost: float,
    logged_policy: str,
    logged_discount: float,
) -> None:
    """The run config's checks on gen_charging_population's arguments.

    n_stations must already be positive.
    """
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
    grid_size = n_stations * SLOTS_PER_DAY
    if n_items is not None and not 0 < n_items <= grid_size:
        raise ValueError(
            f"n_items must be in (0, {grid_size}] for {n_stations} stations "
            f"x {SLOTS_PER_DAY} slots, got {n_items}"
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
) -> tuple[Universe, ChargingLog]:
    """Plant per-item strata and roll out a logged discount policy over n_slots.

    Returns the items' Universe and the log. Item i is (station i // 24,
    slot of day i % 24); n_items keeps the first n_items of that
    station-major grid when an exact universe size is needed. strata_priors
    orders as (always, incentive, no_charge); inside 18:00-24:00 the
    incentive prior is multiplied by evening_boost and the triple
    renormalized.

    Each item's stratum is the one rng.choice(3, p=p) would draw, item by
    item, but the draws come as one rng.random(n_items) block: choice takes
    one rng.random() per call and returns the count of entries of
    cdf = p.cumsum() / p.cumsum()[-1] that are <= it, with p as given, not
    divided by its sum first. So the strata, and the treatment draws made
    after them, have the values of the per-item loop.

    The logged policy offers a discount with probability 0.5 ("random") or
    with a slot-dependent probability 0.3/0.7 outside/inside the evening
    window ("confounded", for stressing propensity-based estimators). The
    arguments are those check_population_args accepts; the run config checks
    them where it is read.
    """
    priors = np.asarray(strata_priors, dtype=np.float64)
    if np.any(priors == 1.0):
        warnings.warn("degenerate strata_priors: a single stratum has all the mass")
    if n_items is None:
        n_items = n_stations * SLOTS_PER_DAY

    rng = np.random.default_rng(seed)
    boosted = priors * np.array([1.0, evening_boost, 1.0])
    boosted = boosted / boosted.sum()
    # row 0 is the cdf choice builds for priors, row 1 the one for boosted
    cdfs = np.array([priors.cumsum(), boosted.cumsum()])
    cdfs /= cdfs[:, -1:]
    evening = np.arange(n_items) % SLOTS_PER_DAY >= EVENING_START_HOUR
    drawn = (cdfs[evening.astype(np.intp)] <= rng.random(n_items)[:, None]).sum(axis=1)
    codes = Stratum.ALWAYS_CHARGE - drawn  # the priors' (always, incentive, no_charge) order
    station, slot_of_day = np.divmod(np.arange(n_items), SLOTS_PER_DAY)
    universe = Universe(station, slot_of_day, codes)
    # each item's stratum code; -1 where truncated out of the universe
    strata = np.full(n_stations * SLOTS_PER_DAY, -1)
    strata[:n_items] = codes
    strata = strata.reshape(n_stations, SLOTS_PER_DAY)

    if logged_policy == "random":
        treat_prob = np.full(SLOTS_PER_DAY, 0.5)
    else:
        sods = np.arange(SLOTS_PER_DAY)
        treat_prob = np.where(sods >= EVENING_START_HOUR, 0.7, 0.3)
    draws = rng.random((n_slots, n_stations))

    # (slot, station) grids; rows of the log run slot-major, station-minor
    sods = np.arange(n_slots) % SLOTS_PER_DAY
    stratum = strata[:, sods].T
    treated = draws < treat_prob[sods][:, None]
    charged = stratum_response(stratum, treated)
    logged = stratum >= 0
    slot, station = np.nonzero(logged)
    treated = treated[logged]
    log = ChargingLog(
        station_id=station,
        slot=slot,
        charged=charged[logged],
        discount_given=treated.astype(np.int64),
        discount_rate=np.where(treated, logged_discount, 0.0),
    )
    return universe, log


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


# rows _write_columns converts to text at a time: a year-long file is written
# holding one chunk's Python objects, not a list per column
WRITE_CHUNK_ROWS = 1024


def _fields(col, rows: slice):
    """The CSV fields of one column's rows.

    A float array's are _fmt_column's text, another array's its .tolist()
    entries, a range's its numbers, and a (names, codes) pair's the name at
    each code.
    """
    if isinstance(col, range):
        return col[rows]
    if isinstance(col, tuple):
        names, codes = col
        return map(names.__getitem__, codes[rows].tolist())
    return _fmt_column(col[rows]) if col.dtype.kind == "f" else col[rows].tolist()


def _write_columns(path: str, header: list[str], cols) -> None:
    """Write equal-length columns (cols[0] an array or a range) under header,
    converting WRITE_CHUNK_ROWS rows at a time; the bytes are those of
    _write_rows over every row at once."""
    chunks = (
        zip(*(_fields(col, slice(start, start + WRITE_CHUNK_ROWS)) for col in cols))
        for start in range(0, len(cols[0]), WRITE_CHUNK_ROWS)
    )
    _write_rows(path, header, itertools.chain.from_iterable(chunks))


def _read_rows(path: str, header: list[str]) -> tuple[Sequence[int], list[list[str]]]:
    """A CSV's data rows and the line number of each, after its header.

    The file must be UTF-8 text. Blank lines are skipped; every other row
    must have one field per column. A row csv refuses, such as one with a
    field over csv.field_size_limit(), is an error that names its line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")  # a whole-file decode names the file offset of a bad byte
    except UnicodeDecodeError as exc:
        raise TraceError(f"{path}: byte {exc.start} is not UTF-8 text ({exc.reason})") from None
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
    try:
        got = next(reader, None)
        if got is None:
            raise TraceError(f"{path}: empty file, expected header {','.join(header)}")
        if got != header:
            raise TraceError(
                f"{path}: bad header {','.join(got)!r}, expected {','.join(header)!r}"
            )
        rows = list(reader)
    except csv.Error as exc:
        raise TraceError(f"{path} line {reader.line_num}: {exc}") from None
    lines: Sequence[int] = range(2, len(rows) + 2)
    if set(map(len, rows)) - {len(header)}:
        lines = [ln for ln, row in zip(lines, rows) if row]
        rows = [row for row in rows if row]
        counts = np.array([len(row) for row in rows], dtype=np.int64)
        _raise_first_fault(
            [(counts != len(header), lambda i: f"expected {len(header)} fields, got {counts[i]}")],
            lambda i: f"{path} line {lines[i]}",
        )
    return lines, rows


def _field_fault(convert, text: str) -> str | None:
    """Why one field does not convert with int or float, or None if it does."""
    try:
        value = convert(text)
    except ValueError:
        return "is not an integer" if convert is int else "is not a number"
    if convert is int:
        return None if _INT64.min <= value <= _INT64.max else "is out of the int64 range"
    return None if math.isfinite(value) else "is not finite"


def _column(rows: list[list[str]], j: int, name: str, kind):
    """Field j of every row read as kind, and its (row mask, message) conversion check.

    A names column always converts. Only a column that fails the one-pass
    conversion is walked field by field; there a bad field holds 0.
    """
    texts = [row[j] for row in rows]
    if isinstance(kind, tuple):
        index = {text: i for i, text in enumerate(kind)}
        codes = np.fromiter((index.get(text, -1) for text in texts), np.int64, count=len(texts))
        return codes, (np.zeros(len(texts), bool), None)
    try:
        values = np.fromiter(map(kind, texts), _DTYPE[kind], count=len(texts))
        bad = ~np.isfinite(values) if kind is float else np.zeros(len(texts), bool)
    except (ValueError, OverflowError):
        bad = np.array([_field_fault(kind, text) is not None for text in texts])
        values = np.array([0 if b else kind(t) for b, t in zip(bad, texts)], _DTYPE[kind])
    return values, (bad, lambda i: f"{name} {_field_fault(kind, rows[i][j])}: {rows[i][j]!r}")


# The bytes a bulk parse reads: printable ASCII and "\n" line ends. On a file
# of these bytes, every field np.loadtxt's C parser converts gets the bits
# int() or float() give it. Outside them the two differ: the C parser reads
# some non-ASCII letters as digits and takes \x1c-\x1f for whitespace.
_PLAIN_BYTES = bytes(range(0x20, 0x7F)) + b"\n"


def _bulk_columns(path: str, header: list[str], kinds) -> list[np.ndarray] | None:
    """The columns of a plain, well-formed CSV in one np.loadtxt pass, or None.

    Column j is read as kinds[j], as _read_table reads it; a names column as
    text one character wider than its longest name, so that a longer text
    cannot be cut down to a name, and then as each text's index.

    None when the first line is not exactly the header, a byte is outside
    _PLAIN_BYTES, there is no data row, or the C parser refuses a row or a
    field. The parser reads the body as a stream over the bytes already read,
    so no decoded copy of the file is made.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    head = ",".join(header).encode()
    if not data.startswith(head + b"\n") or data.translate(None, _PLAIN_BYTES):
        return None
    body = io.BytesIO(data)
    body.seek(len(head) + 1)
    dtypes = [f"U{max(map(len, k)) + 1}" if isinstance(k, tuple) else _DTYPE[k] for k in kinds]
    try:
        with warnings.catch_warnings(), io.TextIOWrapper(body, encoding="ascii") as text:
            warnings.simplefilter("error")  # loadtxt warns on a file with no data row
            table = np.loadtxt(
                text,
                dtype=np.dtype(list(zip(header, dtypes))),
                delimiter=",",
                comments=None,
                quotechar=None,
                ndmin=1,
            )
    except (ValueError, Warning):
        return None
    cols = [np.ascontiguousarray(table[name]) for name in header]
    for j, kind in enumerate(kinds):
        if isinstance(kind, tuple):
            texts, cols[j] = cols[j], np.full(len(table), -1, dtype=np.int64)
            for code, text in enumerate(kind):
                cols[j][texts == text] = code
    return cols


def _read_table(path: str, header: list[str], kinds, rules) -> Sequence[np.ndarray]:
    """The columns of a CSV whose rows all keep rules; column j is read as kinds[j].

    kinds[j] is int, float or a tuple of names; a names column holds each
    field's index in the tuple, or -1 where the field is none of them.
    rules(cols, parsed, rows, lines) lists the row checks, (row mask, message
    of a row) pairs, in the order a row-by-row reader tries them; parsed[j]
    is column j's conversion check. They run over the columns of one
    np.loadtxt pass first, where no message is wanted and rows and lines are
    None. If the pass refuses the file or a rule is broken, the file is read
    again field by field, as csv, int() and float() read it, and the error
    names the first bad line and, in it, the first rule broken.
    """
    cols = _bulk_columns(path, header, kinds)
    if cols is not None:
        parsed = [
            (~np.isfinite(col) if kind is float else np.zeros(len(col), bool), None)
            for col, kind in zip(cols, kinds)
        ]
        if not any(mask.any() for mask, _ in rules(cols, parsed, None, None)):
            return cols
    lines, rows = _read_rows(path, header)
    cols, parsed = zip(*(_column(rows, j, *column) for j, column in enumerate(zip(header, kinds))))
    _raise_first_fault(rules(cols, parsed, rows, lines), lambda i: f"{path} line {lines[i]}")
    return cols


def _series_rules(cols, parsed, *_) -> list:
    gap = cols[0] != np.arange(len(cols[0]))
    return [parsed[0], (gap, lambda i: f"missing slot {i}, found {int(cols[0][i])}"), *parsed[1:]]


def _read_series(path: str, header: list[str]) -> list[np.ndarray]:
    """Shared slot-indexed reader: per-column float arrays; row i holds slot i."""
    _, *series = _read_table(path, header, [int] + [float] * (len(header) - 1), _series_rules)
    if not len(series[0]):
        raise TraceError(f"{path}: no data rows")
    return series


def _strata_rules(cols, parsed, rows, lines) -> list:
    stations, sods, strata = cols
    expected = sorted(_STRATUM_NAMES)
    return [
        (strata < 0, lambda i: f"unknown stratum {rows[i][2]!r}, expected one of {expected}"),
        parsed[0],
        (stations < 0, lambda i: f"station_id is negative: {rows[i][0]!r}"),
        parsed[1],
        (
            (sods < 0) | (sods >= SLOTS_PER_DAY),
            lambda i: f"slot_of_day is outside [0, {SLOTS_PER_DAY}): {rows[i][1]!r}",
        ),
    ]


def _read_strata(path: str) -> Universe:
    stations, sods, strata = _read_table(
        path, STRATA_HEADER, (int, int, _STRATUM_NAMES), _strata_rules
    )
    repeat, first = _repeats(stations, sods)
    if repeat.any():
        row = int(repeat.argmax())
        lines, _ = _read_rows(path, STRATA_HEADER)  # the line numbers, wanted only here
        raise TraceError(
            f"{path} line {lines[row]}: duplicate item (station {stations[row]}, slot_of_day "
            f"{sods[row]}), first on line {lines[first[row]]}"
        )
    return Universe(stations, sods, strata)


def load_csv(path: str, schema: str):
    """Parse one trace CSV by schema name.

    Returns the price for "rtp", (wind, irradiance) for "weather", the load
    for "traffic", a ChargingLog for "charging", or a Universe for "strata".
    Row i of a series holds slot i. Each schema's row rules are written once
    and read by _read_table: over whole columns of one np.loadtxt pass, and,
    when that pass refuses the file or a rule is broken, over a field-by-field
    read whose error names the first bad line in file order and, in it, the
    first rule broken in the order a row-by-row reader tries them.
    """
    if schema == "rtp":
        (price,) = _read_series(path, RTP_HEADER)
        if price.min() < 0:
            raise TraceError(f"{path}: negative price at slot {int(price.argmin())}")
        return price
    if schema == "weather":
        wind, irr = _read_series(path, WEATHER_HEADER)
        if wind.min() < 0 or irr.min() < 0:
            raise TraceError(f"{path}: weather values must be nonnegative")
        return wind, irr
    if schema == "traffic":
        (load,) = _read_series(path, TRAFFIC_HEADER)
        if load.min() < 0 or load.max() > 1:
            bad = int(np.argmax((load < 0) | (load > 1)))
            raise TraceError(f"{path}: load_rate out of [0, 1] at slot {bad}: {load[bad]}")
        return load
    if schema == "charging":
        kinds = [convert for _, convert in _LOG_COLUMNS]
        rules = lambda cols, parsed, *_: [*parsed, *_log_rules(*cols[1:])]
        return ChargingLog(*_read_table(path, CHARGING_HEADER, kinds, rules))
    if schema == "strata":
        return _read_strata(path)
    raise ValueError(f"unknown schema {schema!r}")


def save_traces(traces: TraceSet, log: ChargingLog, dir_path: str) -> list[str]:
    """Write the rtp/weather/traffic CSVs of traces and the charging CSV of log
    into dir_path; returns the paths."""
    slots = range(traces.n_slots)
    tables = (
        ("rtp.csv", RTP_HEADER, (slots, traces.rtp)),
        ("weather.csv", WEATHER_HEADER, (slots, traces.wind_mps, traces.irradiance_wm2)),
        ("traffic.csv", TRAFFIC_HEADER, (slots, traces.load_rate)),
        ("charging.csv", CHARGING_HEADER, [getattr(log, name) for name, _ in _LOG_COLUMNS]),
    )
    paths = []
    for name, header, cols in tables:
        p = os.path.join(dir_path, name)
        _write_columns(p, header, cols)
        paths.append(p)
    return paths


def load_traces(dir_path: str) -> TraceSet:
    """Assemble a TraceSet from the three series CSVs in dir_path; TraceSet
    checks they align. charging.csv is not read."""
    rtp = load_csv(os.path.join(dir_path, "rtp.csv"), "rtp")
    wind, irr = load_csv(os.path.join(dir_path, "weather.csv"), "weather")
    load = load_csv(os.path.join(dir_path, "traffic.csv"), "traffic")
    return TraceSet(rtp=rtp, wind_mps=wind, irradiance_wm2=irr, load_rate=load)


def save_strata(path: str, universe: Universe) -> None:
    cols = (universe.stations, universe.slots, (_STRATUM_NAMES, universe.strata))
    _write_columns(path, STRATA_HEADER, cols)
