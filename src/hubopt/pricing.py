"""Counterfactual discount pricing for EV charging slots.

A three-stratum head (no-charge / incentive / always) and a propensity head
share an embedding trunk. The strata are never observed directly; the model
is trained through the four observable (treatment, outcome) cells, whose
probabilities are algebraic sums of stratum probabilities:

    P(Y=0 | T=1, X) = p_no
    P(Y=1 | T=0, X) = p_always
    P(Y=1 | T=1, X) = p_incentive + p_always
    P(Y=0 | T=0, X) = p_no + p_incentive

(without a discount, both the no-charge and the incentive strata stay away,
so the untreated-uncharged cell is their union; the four cell probabilities
then sum to one over the joint (Y, T) distribution).

The four squared-error terms below write those cells against their indicator
targets, plus a fifth term tying the propensity head to the logged policy.
Uplift baselines (outcome regression, inverse propensity scoring, doubly
robust) rank items by estimated treatment effect and discount the top k.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import nn
from .seeding import spawn_rng, spawn_seed
from .traces import SLOTS_PER_DAY, ChargingLog, PopulationItem, Stratum

# stratum-head column order
COL_NO = 0
COL_INCENTIVE = 1
COL_ALWAYS = 2

_COL_OF_STRATUM = {
    Stratum.NO_CHARGE: COL_NO,
    Stratum.INCENTIVE_CHARGE: COL_INCENTIVE,
    Stratum.ALWAYS_CHARGE: COL_ALWAYS,
}

PERIODS = ((0, 6), (6, 12), (12, 18), (18, 24))


class Observations(NamedTuple):
    """Logged observations as columns.

    stations and slots (slot of day) are int64; treated (a discount was
    offered) and charged are 0/1 float64.
    """

    stations: np.ndarray
    slots: np.ndarray
    treated: np.ndarray
    charged: np.ndarray


@dataclass(frozen=True)
class LossParts:
    l_no_treated: float  # p_no * g vs 1[Y=0, T=1]
    l_always_control: float  # p_always * (1-g) vs 1[Y=1, T=0]
    l_charged_treated: float  # (p_incentive + p_always) * g vs 1[Y=1, T=1]
    l_uncharged_control: float  # (p_no + p_incentive) * (1-g) vs 1[Y=0, T=0]
    l_propensity: float  # g vs 1[T=1]
    total: float


@dataclass
class PricingConfig:
    n_stations: int | None = None  # inferred from data when None
    embed_dim: int = 16
    hidden: tuple[int, ...] = (64, 32)
    lr: float = 0.01
    weight_decay: float = 1e-4
    batch_size: int = 64
    epochs: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.embed_dim < 1:
            raise ValueError(f"embed_dim must be at least 1, got {self.embed_dim}")
        if not self.hidden or min(self.hidden) < 1:
            raise ValueError(f"hidden must list one or more layer sizes >= 1, got {self.hidden}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be nonnegative, got {self.weight_decay}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be nonnegative, got {self.epochs}")


def observations_from_records(log: ChargingLog) -> Observations:
    """The pricing view of a charging log; the log has checked its flags."""
    return Observations(
        stations=log.station_id,
        slots=log.slot % SLOTS_PER_DAY,
        treated=log.discount_given.astype(np.float64),
        charged=log.charged.astype(np.float64),
    )


class Universe(NamedTuple):
    """Item keys in universe order, with their station and slot arrays."""

    keys: list[tuple[int, int]]
    stations: np.ndarray
    slots: np.ndarray


def universe_arrays(universe) -> Universe:
    """Check a universe of PopulationItems for duplicates and lay it out as arrays.

    Every function here that takes a universe also takes the returned value,
    which passes through without being checked again.
    """
    if isinstance(universe, Universe):
        return universe
    keys = [(it.station_id, it.slot_of_day) for it in universe]
    if len(set(keys)) != len(keys):
        raise ValueError("universe contains duplicate (station, slot) items")
    stations = np.array([k[0] for k in keys])
    slots = np.array([k[1] for k in keys])
    return Universe(keys, stations, slots)


class PricingModel(nn.Module):
    """Shared embedding trunk with a 3-way stratum head and a propensity head."""

    KIND = "pricing_cfmtl"
    META = ("n_stations", "n_slots", "embed_dim", "hidden")

    def __init__(
        self,
        n_stations: int,
        n_slots: int = 24,
        embed_dim: int = 16,
        hidden: Sequence[int] = (64, 32),
        seed: int = 0,
    ):
        if not hidden:
            raise ValueError("pricing model needs at least one hidden layer")
        rng = np.random.default_rng(seed)
        self.n_stations = int(n_stations)
        self.n_slots = int(n_slots)
        self.embed_dim = int(embed_dim)
        self.hidden = tuple(int(h) for h in hidden)
        self.emb_station = nn.EmbeddingTable(self.n_stations, self.embed_dim, rng)
        self.emb_slot = nn.EmbeddingTable(self.n_slots, self.embed_dim, rng)
        self.trunk = nn.DenseNet(
            [2 * self.embed_dim, *self.hidden], ["relu"] * len(self.hidden), rng
        )
        self.head_strata = nn.DenseNet([self.hidden[-1], 3], ["softmax"], rng)
        self.head_propensity = nn.DenseNet([self.hidden[-1], 1], ["sigmoid"], rng)
        super().__init__(
            [
                ("emb_station", self.emb_station),
                ("emb_slot", self.emb_slot),
                ("trunk.", self.trunk),
                ("strata.", self.head_strata),
                ("prop.", self.head_propensity),
            ]
        )

    def forward(self, stations: np.ndarray, slots: np.ndarray):
        """Returns (strata probs (n, 3), propensity (n,), cache)."""
        stations = np.asarray(stations)
        slots = np.asarray(slots)
        x = np.concatenate(
            [self.emb_station.lookup(stations), self.emb_slot.lookup(slots)], axis=1
        )
        h, trunk_cache = self.trunk.forward(x)
        strata, strata_cache = self.head_strata.forward(h)
        prop, prop_cache = self.head_propensity.forward(h)
        cache = (stations, slots, trunk_cache, strata_cache, prop_cache)
        return strata, prop[:, 0], cache

    def backward(self, cache, grad_strata: np.ndarray, grad_prop: np.ndarray):
        stations, slots, trunk_cache, strata_cache, prop_cache = cache
        g_strata, grad_h_a = self.head_strata.backward(strata_cache, grad_strata)
        g_prop, grad_h_b = self.head_propensity.backward(
            prop_cache, np.asarray(grad_prop)[:, None]
        )
        g_trunk, grad_x = self.trunk.backward(trunk_cache, grad_h_a + grad_h_b)
        d = self.embed_dim
        g_emb_station = self.emb_station.grad(stations, grad_x[:, :d])
        g_emb_slot = self.emb_slot.grad(slots, grad_x[:, d:])
        return [g_emb_station, g_emb_slot] + g_trunk + g_strata + g_prop


def stratum_probs(model: PricingModel, stations, slots) -> np.ndarray:
    """(n, 3) stratum probabilities in column order (no, incentive, always)."""
    probs, _, _ = model.forward(stations, slots)
    return probs


def cfmtl_loss_parts(
    strata: np.ndarray, g: np.ndarray, treated: np.ndarray, charged: np.ndarray
):
    """Loss decomposition and gradients wrt the head outputs.

    Each term is a mean squared error between a composed model probability
    and the indicator of the observable cell it identifies:

      r1 = p_no * g             - 1[Y=0, T=1]
      r2 = p_always * (1-g)     - 1[Y=1, T=0]
      r3 = (p_inc + p_alw) * g  - 1[Y=1, T=1]
      r4 = (p_no + p_inc)*(1-g) - 1[Y=0, T=0]
      r5 = g                    - 1[T=1]

    Returns (LossParts, grad wrt strata probs (n, 3), grad wrt g (n,)).
    """
    strata = np.asarray(strata, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    treated = np.asarray(treated, dtype=np.float64)
    charged = np.asarray(charged, dtype=np.float64)
    n = strata.shape[0]
    if strata.shape != (n, 3) or g.shape != (n,):
        raise ValueError(f"bad shapes: strata {strata.shape}, g {g.shape}")
    p_no = strata[:, COL_NO]
    p_inc = strata[:, COL_INCENTIVE]
    p_alw = strata[:, COL_ALWAYS]

    i1 = (charged == 0) & (treated == 1)
    i2 = (charged == 1) & (treated == 0)
    i3 = (charged == 1) & (treated == 1)
    i4 = (charged == 0) & (treated == 0)
    i5 = treated == 1

    r1 = p_no * g - i1
    r2 = p_alw * (1.0 - g) - i2
    r3 = (p_inc + p_alw) * g - i3
    r4 = (p_no + p_inc) * (1.0 - g) - i4
    r5 = g - i5

    means = [float(np.mean(r * r)) for r in (r1, r2, r3, r4, r5)]
    total = means[0] + means[1] + means[2] + means[3] + means[4]
    parts = LossParts(*means, total)

    grad_strata = np.empty_like(strata)
    grad_strata[:, COL_NO] = (2.0 / n) * (r1 * g + r4 * (1.0 - g))
    grad_strata[:, COL_INCENTIVE] = (2.0 / n) * (r3 * g + r4 * (1.0 - g))
    grad_strata[:, COL_ALWAYS] = (2.0 / n) * (r2 * (1.0 - g) + r3 * g)
    grad_g = (2.0 / n) * (
        r1 * p_no
        - r2 * p_alw
        + r3 * (p_inc + p_alw)
        - r4 * (p_no + p_inc)
        + r5
    )
    return parts, grad_strata, grad_g


def cfmtl_loss(model: PricingModel, observations: Observations) -> LossParts:
    """Loss decomposition of the model on a batch of logged observations."""
    stations, slots, treated, charged = observations
    if not len(stations):
        raise ValueError("cannot evaluate the loss on an empty batch")
    strata, g, _ = model.forward(stations, slots)
    parts, _, _ = cfmtl_loss_parts(strata, g, treated, charged)
    return parts


def train_cfmtl(
    observations: Observations,
    cfg: PricingConfig,
    model: PricingModel | None = None,
) -> PricingModel:
    """Train the stratum and propensity heads jointly on logged observations."""
    stations, slots, treated, charged = observations
    if not len(stations):
        raise ValueError("no observations to train on")
    if treated.min() == treated.max():
        raise ValueError(
            "all records share one treatment arm; training needs both "
            "discounted and undiscounted records"
        )
    if model is None:
        n_stations = (
            cfg.n_stations if cfg.n_stations is not None else int(stations.max()) + 1
        )
        model = PricingModel(
            n_stations=n_stations,
            n_slots=SLOTS_PER_DAY,
            embed_dim=cfg.embed_dim,
            hidden=cfg.hidden,
            seed=spawn_seed(cfg.seed, "pricing", "init"),
        )
    if int(stations.max()) >= model.n_stations:
        raise ValueError(
            f"station id {int(stations.max())} out of range for a model with "
            f"{model.n_stations} stations"
        )
    opt = nn.Adam(model.params(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    rng = spawn_rng(cfg.seed, "pricing", "batches")
    n = len(stations)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            strata, g, cache = model.forward(stations[idx], slots[idx])
            _, grad_strata, grad_g = cfmtl_loss_parts(
                strata, g, treated[idx], charged[idx]
            )
            grads = model.backward(cache, grad_strata, grad_g)
            opt.step(model.params(), grads)
    return model


# tie-break priority for the predicted stratum: prefer not discounting, so
# no-charge beats always, which beats incentive, on exact probability ties
_PRIORITY = np.array([COL_NO, COL_ALWAYS, COL_INCENTIVE])


def predicted_strata(probs: np.ndarray) -> np.ndarray:
    """Argmax stratum column per row, ties resolved no > always > incentive."""
    probs = np.asarray(probs)
    reordered = probs[:, _PRIORITY]
    return _PRIORITY[np.argmax(reordered, axis=1)]


def discount_policy(model: PricingModel, universe) -> tuple[np.ndarray, np.ndarray]:
    """Each item's predicted stratum column, and whether the policy discounts it.

    The learned policy discounts exactly the items predicted incentive-charge.
    """
    _, stations, slots = universe_arrays(universe)
    winners = predicted_strata(stratum_probs(model, stations, slots))
    return winners, winners == COL_INCENTIVE


@dataclass(frozen=True)
class PolicyEvaluation:
    """True-stratum counts among the discounted items, plus the policy reward."""

    none_count: int
    incentive_count: int
    always_count: int
    reward: float

    @property
    def discounted_total(self) -> int:
        return self.none_count + self.incentive_count + self.always_count


def evaluate_policy(truth: np.ndarray, give: np.ndarray, c: float) -> PolicyEvaluation:
    """Score a discount mask against the ground-truth strata of the items.

    truth holds each item's true stratum column (strata_columns), give whether
    it was discounted at rate c. Reward per item: 1 for always-charge (minus c
    if it was needlessly discounted), 1-c for a discounted incentive-charge, 0
    otherwise. It is summed from 0.0 left to right, in item order, as a loop
    over the items would add it: np.sum's pairwise order could move the last
    bits of the reported float.
    """
    if not 0.0 <= c < 1.0:
        raise ValueError(f"discount rate must be in [0, 1), got {c}")
    if truth.shape != give.shape:
        raise ValueError(
            f"got {give.size} decisions for {truth.size} items; the universes must match"
        )
    always = truth == COL_ALWAYS
    incentive_given = (truth == COL_INCENTIVE) & give
    per_item = np.where(
        always,
        1.0 - np.where(give, c, 0.0),
        np.where(incentive_given, 1.0 - c, 0.0),
    )
    counts = np.bincount(truth[give], minlength=3)
    return PolicyEvaluation(
        none_count=int(counts[COL_NO]),
        incentive_count=int(counts[COL_INCENTIVE]),
        always_count=int(counts[COL_ALWAYS]),
        reward=float(np.cumsum(np.concatenate(([0.0], per_item)))[-1]),
    )


def strata_columns(items: Sequence[PopulationItem]) -> np.ndarray:
    """Each item's true stratum as its stratum-head column."""
    return np.array([_COL_OF_STRATUM[it.stratum] for it in items], dtype=np.int64)


def _fit_scorer(stations, slots, targets, cfg: PricingConfig, tag: str) -> nn.EmbedMlp:
    n_stations = (
        cfg.n_stations if cfg.n_stations is not None else int(stations.max()) + 1
    )
    model = nn.EmbedMlp(
        n_stations=n_stations,
        n_slots=SLOTS_PER_DAY,
        embed_dim=cfg.embed_dim,
        hidden=cfg.hidden,
        seed=spawn_seed(cfg.seed, tag, "init"),
    )
    nn.fit_embed_mlp(
        model,
        stations,
        slots,
        targets,
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        lr=cfg.lr,
        weight_decay=cfg.weight_decay,
        seed=spawn_seed(cfg.seed, tag, "fit"),
    )
    return model


def fit_outcome_models(
    observations: Observations, cfg: PricingConfig
) -> tuple[nn.EmbedMlp, nn.EmbedMlp]:
    """Fit charge-probability regressions on the treated and control arms."""
    stations, slots, treated, charged = observations
    on = treated == 1
    off = ~on
    if not on.any() or not off.any():
        raise ValueError(
            "outcome regressions need records from both treatment arms"
        )
    mu1 = _fit_scorer(stations[on], slots[on], charged[on], cfg, "outcome_treated")
    mu0 = _fit_scorer(stations[off], slots[off], charged[off], cfg, "outcome_control")
    return mu1, mu0


def fit_propensity_model(
    observations: Observations, cfg: PricingConfig
) -> nn.EmbedMlp:
    """Fit a discount-probability classifier on the logged treatments."""
    stations, slots, treated, _ = observations
    return _fit_scorer(stations, slots, treated, cfg, "propensity")


PROPENSITY_CLIP = (0.01, 0.99)


def _clipped_propensity(model: nn.EmbedMlp, stations, slots) -> np.ndarray:
    g = model.predict(stations, slots)
    lo, hi = PROPENSITY_CLIP
    if np.any(g < lo) or np.any(g > hi):
        warnings.warn(
            f"propensity estimates outside [{lo}, {hi}] were clipped",
            RuntimeWarning,
            stacklevel=3,
        )
        g = np.clip(g, lo, hi)
    return g


def _group_rows(observations: Observations, universe: Universe) -> np.ndarray:
    """Each observation's row in the universe."""
    n_items = len(universe.keys)
    # a code per (station, slot) pair, from dense ranks so it fits any ids
    _, station_rank = np.unique(
        np.concatenate([universe.stations, observations.stations]), return_inverse=True
    )
    slot_ids, slot_rank = np.unique(
        np.concatenate([universe.slots, observations.slots]), return_inverse=True
    )
    codes = station_rank * len(slot_ids) + slot_rank
    # items come first and are unique, so a code first seen below n_items
    # is that item's row; an observation's own position means no item
    _, first, code_of = np.unique(codes, return_index=True, return_inverse=True)
    rows = first[code_of[n_items:]]
    missing = rows >= n_items
    if missing.any():
        j = int(missing.argmax())
        raise ValueError(
            f"observation for station {observations.stations[j]} slot "
            f"{observations.slots[j]} is not in the item universe"
        )
    return rows


def _item_means(n_items: int, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Mean of values per item row; items with no values score 0."""
    sums = np.zeros(n_items)
    counts = np.zeros(n_items)
    np.add.at(sums, rows, values)
    np.add.at(counts, rows, 1.0)
    out = np.zeros(n_items)
    seen = counts > 0
    out[seen] = sums[seen] / counts[seen]
    return out


def or_uplift(treated_rate: np.ndarray, control_rate: np.ndarray) -> np.ndarray:
    """Outcome-regression uplift: treated minus control predicted charge rate."""
    return treated_rate - control_rate


def ips_uplift(n_items: int, rows, treated, charged, g) -> np.ndarray:
    """Inverse-propensity uplift per item, averaged over its logged records.

    rows maps each record to its item and g holds the records' clipped
    propensities. Items with no logged records score 0.
    """
    return _item_means(
        n_items, rows, treated * charged / g - (1.0 - treated) * charged / (1.0 - g)
    )


def dr_uplift(base, rows, treated, charged, g, m1, m0) -> np.ndarray:
    """Doubly robust uplift: outcome regression plus weighted residuals.

    base is the items' OR uplift; m1 and m0 are the outcome models'
    predictions on the records. Items with no logged records keep base.
    """
    resid = treated * (charged - m1) / g - (1.0 - treated) * (charged - m0) / (1.0 - g)
    return base + _item_means(len(base), rows, resid)


def uplift_scores(
    observations: Observations,
    mu1: nn.EmbedMlp,
    mu0: nn.EmbedMlp,
    propensity_model: nn.EmbedMlp,
    universe,
) -> dict[str, np.ndarray]:
    """The "or", "ips" and "dr" uplift of every item.

    Each model predicts once on the universe and once on the logged records,
    and the propensities are clipped once; the three estimators share them.
    """
    universe = universe_arrays(universe)
    _, stations, slots = universe
    rows = _group_rows(observations, universe)
    obs_st, obs_sl, treated, charged = observations
    g = _clipped_propensity(propensity_model, obs_st, obs_sl)
    base = or_uplift(mu1.predict(stations, slots), mu0.predict(stations, slots))
    m1 = mu1.predict(obs_st, obs_sl)
    m0 = mu0.predict(obs_st, obs_sl)
    return {
        "or": base,
        "ips": ips_uplift(len(base), rows, treated, charged, g),
        "dr": dr_uplift(base, rows, treated, charged, g, m1, m0),
    }


def top_k_policy(universe, scores, k: int) -> np.ndarray:
    """Per item, whether it is among the k highest scores, and so discounted.

    Ties are broken by (station, slot), and -0.0 ties with 0.0.
    """
    keys, stations, slots = universe_arrays(universe)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (len(keys),):
        raise ValueError(
            f"got {scores.shape[0] if scores.ndim else 0} scores for "
            f"{len(keys)} items"
        )
    if not 0 <= k <= len(keys):
        raise ValueError(f"k must be in [0, {len(keys)}], got {k}")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite to rank items")
    # lexsort's last key is the primary one
    order = np.lexsort((slots, stations, -scores))
    give = np.zeros(len(keys), dtype=bool)
    give[order[:k]] = True
    return give


def strata_by_period(winners: np.ndarray, slots: np.ndarray) -> dict[str, dict[Stratum, float]]:
    """Predicted-stratum shares within each quarter of the day.

    winners holds each item's predicted stratum column and slots its slot of
    day. Returns {"00-06": {stratum: share, ...}, ...} with shares summing to
    1 per period.
    """
    if np.any(slots >= SLOTS_PER_DAY):
        raise ValueError(f"universe has slot-of-day values beyond {SLOTS_PER_DAY}")
    quarter = slots * 4 // SLOTS_PER_DAY
    out: dict[str, dict[Stratum, float]] = {}
    for q, (start, end) in enumerate(PERIODS):
        mask = quarter == q
        label = f"{start:02d}-{end:02d}"
        if not mask.any():
            raise ValueError(f"no items fall in period {label}")
        out[label] = {
            stratum: float(np.mean(winners[mask] == col))
            for stratum, col in _COL_OF_STRATUM.items()
        }
    return out
