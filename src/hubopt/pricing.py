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
from typing import Sequence

import numpy as np

from . import nn
from .seeding import spawn_rng, spawn_seed
from .traces import ChargingRecord, PopulationItem, Stratum

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


def period_label(start: int, end: int) -> str:
    return f"{start:02d}-{end:02d}"


@dataclass(frozen=True)
class ObservedItem:
    """One logged observation: context, whether discounted, whether it charged."""

    station_id: int
    slot_of_day: int
    treated: int
    charged: int

    def __post_init__(self):
        if self.treated not in (0, 1):
            raise ValueError(f"treated must be 0/1, got {self.treated}")
        if self.charged not in (0, 1):
            raise ValueError(f"charged must be 0/1, got {self.charged}")


@dataclass(frozen=True)
class DiscountDecision:
    station_id: int
    slot_of_day: int
    give_discount: bool
    discount_rate: float


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
    slots_per_day: int = 24
    embed_dim: int = 16
    hidden: tuple[int, ...] = (64, 32)
    lr: float = 0.01
    weight_decay: float = 1e-4
    batch_size: int = 64
    epochs: int = 8
    seed: int = 0


def observations_from_records(
    records: Sequence[ChargingRecord], slots_per_day: int = 24
) -> list[ObservedItem]:
    return [
        ObservedItem(
            station_id=r.station_id,
            slot_of_day=r.slot % slots_per_day,
            treated=r.discount_given,
            charged=r.charged,
        )
        for r in records
    ]


def _obs_arrays(observations: Sequence[ObservedItem]):
    stations = np.array([o.station_id for o in observations], dtype=np.int64)
    slots = np.array([o.slot_of_day for o in observations], dtype=np.int64)
    treated = np.array([o.treated for o in observations], dtype=np.float64)
    charged = np.array([o.charged for o in observations], dtype=np.float64)
    return stations, slots, treated, charged


def _item_key(item) -> tuple[int, int]:
    if isinstance(item, PopulationItem):
        return (item.station_id, item.slot_of_day)
    station, sod = item
    return (int(station), int(sod))


def _universe_arrays(universe):
    keys = [_item_key(it) for it in universe]
    if len(set(keys)) != len(keys):
        raise ValueError("universe contains duplicate (station, slot) items")
    stations = np.array([k[0] for k in keys])
    slots = np.array([k[1] for k in keys])
    return keys, stations, slots


class PricingModel:
    """Shared embedding trunk with a 3-way stratum head and a propensity head."""

    KIND = "pricing_cfmtl"

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

    def params(self) -> list[np.ndarray]:
        return (
            [self.emb_station.table, self.emb_slot.table]
            + self.trunk.params()
            + self.head_strata.params()
            + self.head_propensity.params()
        )

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {"emb_station": self.emb_station.table, "emb_slot": self.emb_slot.table}
        out.update(self.trunk.state_arrays("trunk."))
        out.update(self.head_strata.state_arrays("strata."))
        out.update(self.head_propensity.state_arrays("prop."))
        return out

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        for name in ("emb_station", "emb_slot"):
            if name not in arrays:
                raise nn.CheckpointError(f"checkpoint missing array {name!r}")
            target = getattr(self, name).table
            if arrays[name].shape != target.shape:
                raise nn.CheckpointError(
                    f"array {name!r}: model expects shape {target.shape}, "
                    f"checkpoint has {arrays[name].shape}"
                )
            target[...] = arrays[name]
        self.trunk.load_state(arrays, "trunk.")
        self.head_strata.load_state(arrays, "strata.")
        self.head_propensity.load_state(arrays, "prop.")

    def save(self, path: str) -> None:
        meta = {
            "kind": self.KIND,
            "n_stations": self.n_stations,
            "n_slots": self.n_slots,
            "embed_dim": self.embed_dim,
            "hidden": list(self.hidden),
        }
        nn.save_weights(path, self.state_arrays(), meta)

    @classmethod
    def from_checkpoint(cls, path: str) -> "PricingModel":
        arrays, meta = nn.load_weights(path)
        if meta.get("kind") != cls.KIND:
            raise nn.CheckpointError(
                f"{path} holds a {meta.get('kind')!r}, expected {cls.KIND!r}"
            )
        model = cls(
            n_stations=meta["n_stations"],
            n_slots=meta["n_slots"],
            embed_dim=meta["embed_dim"],
            hidden=meta["hidden"],
        )
        model.load_state(arrays)
        return model


def stratum_probs(model: PricingModel, stations, slots) -> np.ndarray:
    """(n, 3) stratum probabilities in column order (no, incentive, always)."""
    probs, _, _ = model.forward(stations, slots)
    return probs


def propensity(model: PricingModel, stations, slots) -> np.ndarray:
    _, g, _ = model.forward(stations, slots)
    return g


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

    parts = LossParts(
        l_no_treated=float(np.mean(r1 * r1)),
        l_always_control=float(np.mean(r2 * r2)),
        l_charged_treated=float(np.mean(r3 * r3)),
        l_uncharged_control=float(np.mean(r4 * r4)),
        l_propensity=float(np.mean(r5 * r5)),
        total=0.0,
    )
    total = (
        parts.l_no_treated
        + parts.l_always_control
        + parts.l_charged_treated
        + parts.l_uncharged_control
        + parts.l_propensity
    )
    parts = LossParts(
        parts.l_no_treated,
        parts.l_always_control,
        parts.l_charged_treated,
        parts.l_uncharged_control,
        parts.l_propensity,
        total,
    )

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


def cfmtl_loss(model: PricingModel, observations: Sequence[ObservedItem]) -> LossParts:
    """Loss decomposition of the model on a batch of logged observations."""
    if not observations:
        raise ValueError("cannot evaluate the loss on an empty batch")
    stations, slots, treated, charged = _obs_arrays(observations)
    strata, g, _ = model.forward(stations, slots)
    parts, _, _ = cfmtl_loss_parts(strata, g, treated, charged)
    return parts


def train_cfmtl(
    observations: Sequence[ObservedItem],
    cfg: PricingConfig,
    model: PricingModel | None = None,
) -> PricingModel:
    """Train the stratum and propensity heads jointly on logged observations."""
    if not observations:
        raise ValueError("no observations to train on")
    stations, slots, treated, charged = _obs_arrays(observations)
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
            n_slots=cfg.slots_per_day,
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
    n = len(observations)
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


def discount_policy(model: PricingModel, universe, c: float) -> list[DiscountDecision]:
    """Discount exactly the items whose predicted stratum is incentive-charge."""
    if not 0.0 < c < 1.0:
        raise ValueError(f"discount rate must be in (0, 1), got {c}")
    keys, stations, slots = _universe_arrays(universe)
    winners = predicted_strata(stratum_probs(model, stations, slots))
    decisions = []
    for (station, sod), win in zip(keys, winners):
        give = bool(win == COL_INCENTIVE)
        decisions.append(
            DiscountDecision(station, sod, give, c if give else 0.0)
        )
    return decisions


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


def _strata_map(true_strata) -> dict[tuple[int, int], Stratum]:
    if isinstance(true_strata, dict):
        return {(int(s), int(t)): v for (s, t), v in true_strata.items()}
    return {
        (item.station_id, item.slot_of_day): item.stratum for item in true_strata
    }


def evaluate_policy(
    decisions: Sequence[DiscountDecision],
    true_strata,
    c: float,
    literal: bool = False,
) -> PolicyEvaluation:
    """Score a decision set against the ground-truth strata.

    Default reward per item: 1 for always-charge (minus c if it was needlessly
    discounted), 1-c for a discounted incentive-charge, 0 otherwise. With
    literal=True a discounted incentive item instead scores -c and an always
    item scores a flat 1.
    """
    if not 0.0 <= c < 1.0:
        raise ValueError(f"discount rate must be in [0, 1), got {c}")
    strata = _strata_map(true_strata)
    keys = [(d.station_id, d.slot_of_day) for d in decisions]
    if len(set(keys)) != len(keys):
        raise ValueError("decision set contains duplicate items")
    if set(keys) != set(strata):
        raise ValueError(
            f"decisions cover {len(keys)} items but the ground truth covers "
            f"{len(strata)}; the universes must match exactly"
        )
    counts = {Stratum.NO_CHARGE: 0, Stratum.INCENTIVE_CHARGE: 0, Stratum.ALWAYS_CHARGE: 0}
    reward = 0.0
    for d in decisions:
        stratum = strata[(d.station_id, d.slot_of_day)]
        if d.give_discount:
            counts[stratum] += 1
        if literal:
            if stratum is Stratum.ALWAYS_CHARGE:
                reward += 1.0
            elif stratum is Stratum.INCENTIVE_CHARGE and d.give_discount:
                reward += -c
        else:
            if stratum is Stratum.ALWAYS_CHARGE:
                reward += 1.0 - (c if d.give_discount else 0.0)
            elif stratum is Stratum.INCENTIVE_CHARGE and d.give_discount:
                reward += 1.0 - c
    return PolicyEvaluation(
        none_count=counts[Stratum.NO_CHARGE],
        incentive_count=counts[Stratum.INCENTIVE_CHARGE],
        always_count=counts[Stratum.ALWAYS_CHARGE],
        reward=reward,
    )


def _fit_scorer(stations, slots, targets, cfg: PricingConfig, tag: str) -> nn.EmbedMlp:
    n_stations = (
        cfg.n_stations if cfg.n_stations is not None else int(stations.max()) + 1
    )
    model = nn.EmbedMlp(
        n_stations=n_stations,
        n_slots=cfg.slots_per_day,
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
    observations: Sequence[ObservedItem], cfg: PricingConfig
) -> tuple[nn.EmbedMlp, nn.EmbedMlp]:
    """Fit charge-probability regressions on the treated and control arms."""
    stations, slots, treated, charged = _obs_arrays(observations)
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
    observations: Sequence[ObservedItem], cfg: PricingConfig
) -> nn.EmbedMlp:
    """Fit a discount-probability classifier on the logged treatments."""
    stations, slots, treated, _ = _obs_arrays(observations)
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


def _group_rows(observations: Sequence[ObservedItem], keys) -> np.ndarray:
    index = {key: i for i, key in enumerate(keys)}
    rows = np.empty(len(observations), dtype=np.int64)
    for j, obs in enumerate(observations):
        key = (obs.station_id, obs.slot_of_day)
        if key not in index:
            raise ValueError(
                f"observation for station {key[0]} slot {key[1]} is not in "
                "the item universe"
            )
        rows[j] = index[key]
    return rows


def or_uplift(mu1: nn.EmbedMlp, mu0: nn.EmbedMlp, universe) -> np.ndarray:
    """Outcome-regression uplift: treated minus control predicted charge rate."""
    _, stations, slots = _universe_arrays(universe)
    return mu1.predict(stations, slots) - mu0.predict(stations, slots)


def ips_uplift(
    observations: Sequence[ObservedItem], propensity_model: nn.EmbedMlp, universe
) -> np.ndarray:
    """Inverse-propensity uplift per item, averaged over its logged records.

    Items with no logged records score 0.
    """
    keys, _, _ = _universe_arrays(universe)
    rows = _group_rows(observations, keys)
    obs_st, obs_sl, treated, charged = _obs_arrays(observations)
    g = _clipped_propensity(propensity_model, obs_st, obs_sl)
    contrib = treated * charged / g - (1.0 - treated) * charged / (1.0 - g)
    sums = np.zeros(len(keys))
    counts = np.zeros(len(keys))
    np.add.at(sums, rows, contrib)
    np.add.at(counts, rows, 1.0)
    out = np.zeros(len(keys))
    seen = counts > 0
    out[seen] = sums[seen] / counts[seen]
    return out


def dr_uplift(
    observations: Sequence[ObservedItem],
    mu1: nn.EmbedMlp,
    mu0: nn.EmbedMlp,
    propensity_model: nn.EmbedMlp,
    universe,
) -> np.ndarray:
    """Doubly robust uplift: outcome regression plus weighted residuals.

    Items with no logged records fall back to the regression term alone.
    """
    keys, _, _ = _universe_arrays(universe)
    base = or_uplift(mu1, mu0, universe)
    rows = _group_rows(observations, keys)
    obs_st, obs_sl, treated, charged = _obs_arrays(observations)
    g = _clipped_propensity(propensity_model, obs_st, obs_sl)
    m1 = mu1.predict(obs_st, obs_sl)
    m0 = mu0.predict(obs_st, obs_sl)
    resid = treated * (charged - m1) / g - (1.0 - treated) * (charged - m0) / (1.0 - g)
    sums = np.zeros(len(keys))
    counts = np.zeros(len(keys))
    np.add.at(sums, rows, resid)
    np.add.at(counts, rows, 1.0)
    correction = np.zeros(len(keys))
    seen = counts > 0
    correction[seen] = sums[seen] / counts[seen]
    return base + correction


def top_k_policy(universe, scores, k: int, c: float) -> list[DiscountDecision]:
    """Discount the k highest-scoring items; ties broken by (station, slot)."""
    if not 0.0 < c < 1.0:
        raise ValueError(f"discount rate must be in (0, 1), got {c}")
    keys, _, _ = _universe_arrays(universe)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (len(keys),):
        raise ValueError(
            f"got {scores.shape[0] if scores.ndim else 0} scores for "
            f"{len(keys)} items"
        )
    if not 0 <= k <= len(keys):
        raise ValueError(f"k must be in [0, {len(keys)}], got {k}")
    order = sorted(range(len(keys)), key=lambda i: (-scores[i], keys[i]))
    chosen = set(order[:k])
    return [
        DiscountDecision(
            station, sod, i in chosen, c if i in chosen else 0.0
        )
        for i, (station, sod) in enumerate(keys)
    ]


def strata_by_period(
    model: PricingModel, universe, slots_per_day: int = 24
) -> dict[str, dict[Stratum, float]]:
    """Predicted-stratum shares within each quarter of the day.

    Returns {"00-06": {stratum: share, ...}, ...} with shares summing to 1
    per period.
    """
    keys, stations, slots = _universe_arrays(universe)
    if slots_per_day % 4 != 0:
        raise ValueError(f"slots_per_day must be divisible by 4, got {slots_per_day}")
    if np.any(slots >= slots_per_day):
        raise ValueError("universe has slot-of-day values beyond slots_per_day")
    winners = predicted_strata(stratum_probs(model, stations, slots))
    quarter = slots * 4 // slots_per_day
    out: dict[str, dict[Stratum, float]] = {}
    for q, (start, end) in enumerate(PERIODS):
        mask = quarter == q
        label = period_label(start, end)
        if not mask.any():
            raise ValueError(f"no items fall in period {label}")
        out[label] = {
            stratum: float(np.mean(winners[mask] == col))
            for stratum, col in _COL_OF_STRATUM.items()
        }
    return out
