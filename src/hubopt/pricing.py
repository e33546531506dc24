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
from typing import NamedTuple

import numpy as np

from . import nn
from .seeding import spawn_rng, spawn_seed
from .traces import SLOTS_PER_DAY, ChargingLog, Stratum, Universe

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


@dataclass(frozen=True)
class PricingConfig:
    embed_dim: int = 16
    hidden: tuple[int, ...] = (64, 32)
    lr: float = 0.01
    weight_decay: float = 1e-4
    batch_size: int = 64
    epochs: int = 8

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
    """The pricing view of a charging log, whose flags are 0/1 (see ChargingLog)."""
    return Observations(
        stations=log.station_id,
        slots=log.slot % SLOTS_PER_DAY,
        treated=log.discount_given.astype(np.float64),
        charged=log.charged.astype(np.float64),
    )


class PricingModel(nn.Embedded):
    """Shared embedding trunk with a 3-way stratum head and a propensity head."""

    KIND = "pricing_cfmtl"

    def _layers(self, rng):
        if not self.hidden:
            raise ValueError("pricing model needs at least one hidden layer")
        self.trunk = nn.DenseNet(
            [2 * self.embed_dim, *self.hidden], ["relu"] * len(self.hidden), rng
        )
        self.head_strata = nn.DenseNet([self.hidden[-1], 3], ["softmax"], rng)
        self.head_propensity = nn.DenseNet([self.hidden[-1], 1], ["sigmoid"], rng)
        heads = [("strata.", self.head_strata), ("prop.", self.head_propensity)]
        return [("trunk.", self.trunk)] + heads

    def forward(self, stations: np.ndarray, slots: np.ndarray):
        """Returns (strata probs (n, 3), propensity (n,), cache)."""
        x, rows = self._embed(stations, slots)
        h, trunk_cache = self.trunk.forward(x)
        strata, strata_cache = self.head_strata.forward(h)
        prop, prop_cache = self.head_propensity.forward(h)
        return strata, prop[:, 0], (rows, trunk_cache, strata_cache, prop_cache)

    def backward(self, cache, grad_strata: np.ndarray, grad_prop: np.ndarray):
        rows, trunk_cache, strata_cache, prop_cache = cache
        g_strata, grad_h_a = self.head_strata.backward(strata_cache, grad_strata)
        g_prop, grad_h_b = self.head_propensity.backward(
            prop_cache, np.asarray(grad_prop)[:, None]
        )
        g_trunk, grad_x = self.trunk.backward(trunk_cache, grad_h_a + grad_h_b)
        return self._embed_grads(rows, grad_x) + g_trunk + g_strata + g_prop


def stratum_probs(model: PricingModel, stations, slots) -> np.ndarray:
    """(n, 3) stratum probabilities; column s holds Stratum(s)'s."""
    probs, _ = model.predict(stations, slots)
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

    strata is (n, 3) and g, treated and charged (n,), all float64, as the
    model's forward and the Observations columns give them. Returns
    (LossParts, grad wrt strata probs (n, 3), grad wrt g (n,)).
    """
    n = strata.shape[0]
    p_no = strata[:, Stratum.NO_CHARGE]
    p_inc = strata[:, Stratum.INCENTIVE_CHARGE]
    p_alw = strata[:, Stratum.ALWAYS_CHARGE]
    not_g = 1.0 - g
    p_charge = p_inc + p_alw  # charges when discounted
    p_skip = p_no + p_inc  # skips when not discounted

    r = np.empty((5, n))
    r1, r2, r3, r4, r5 = r
    np.subtract(np.multiply(p_no, g, out=r1), (charged == 0) & (treated == 1), out=r1)
    np.subtract(np.multiply(p_alw, not_g, out=r2), (charged == 1) & (treated == 0), out=r2)
    np.subtract(np.multiply(p_charge, g, out=r3), (charged == 1) & (treated == 1), out=r3)
    np.subtract(np.multiply(p_skip, not_g, out=r4), (charged == 0) & (treated == 0), out=r4)
    np.subtract(g, treated == 1, out=r5)

    means = [float(m) for m in (r * r).mean(axis=1)]
    total = means[0] + means[1] + means[2] + means[3] + means[4]
    parts = LossParts(*means, total)

    k = 2.0 / n
    r3_g = r3 * g
    r4_not_g = r4 * not_g
    grad_strata = np.empty_like(strata)
    grad_strata[:, Stratum.NO_CHARGE] = k * (r1 * g + r4_not_g)
    grad_strata[:, Stratum.INCENTIVE_CHARGE] = k * (r3_g + r4_not_g)
    grad_strata[:, Stratum.ALWAYS_CHARGE] = k * (r2 * not_g + r3_g)
    grad_g = k * (r1 * p_no - r2 * p_alw + r3 * p_charge - r4 * p_skip + r5)
    return parts, grad_strata, grad_g


def cfmtl_loss(model: PricingModel, observations: Observations) -> LossParts:
    """Loss decomposition of the model on a batch of logged observations."""
    stations, slots, treated, charged = observations
    if not len(stations):
        raise ValueError("cannot evaluate the loss on an empty batch")
    strata, g = model.predict(stations, slots)
    parts, _, _ = cfmtl_loss_parts(strata, g, treated, charged)
    return parts


def _fit(
    cls, stations, slots, loss, cfg: PricingConfig, n_stations: int, seed: int, tag, batch_tag
):
    """A cls model of cfg's shape over n_stations, trained on the rows by
    nn.fit_embed_mlp.

    Its initial parameters and its batch order come from the streams that
    seed spawns under (tag, "init") and (tag, batch_tag).
    """
    if not len(stations):
        raise ValueError("cannot fit on an empty dataset")
    init = spawn_seed(seed, tag, "init")
    model = cls(n_stations, SLOTS_PER_DAY, cfg.embed_dim, cfg.hidden, seed=init)
    nn.fit_embed_mlp(
        model,
        stations,
        slots,
        loss,
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        lr=cfg.lr,
        weight_decay=cfg.weight_decay,
        rng=spawn_rng(seed, tag, batch_tag),
    )
    return model


def train_cfmtl(
    observations: Observations, cfg: PricingConfig, n_stations: int, seed: int
) -> PricingModel:
    """Train the stratum and propensity heads jointly on logged observations.

    The model embeds n_stations stations, and seed spawns its draws. The
    observations must hold both treatment arms and stations below
    n_stations; train-price checks both where it reads charging.csv.
    """
    stations, slots, treated, charged = observations

    def loss(idx, strata, g):
        parts, grad_strata, grad_g = cfmtl_loss_parts(strata, g, treated[idx], charged[idx])
        return parts.total, grad_strata, grad_g

    return _fit(PricingModel, stations, slots, loss, cfg, n_stations, seed, "pricing", "batches")


# tie-break priority for the predicted stratum: prefer not discounting, so
# no-charge beats always, which beats incentive, on exact probability ties
_PRIORITY = np.array([Stratum.NO_CHARGE, Stratum.ALWAYS_CHARGE, Stratum.INCENTIVE_CHARGE])


def predicted_strata(probs: np.ndarray) -> np.ndarray:
    """Argmax stratum column per row, ties resolved no > always > incentive."""
    probs = np.asarray(probs)
    reordered = probs[:, _PRIORITY]
    return _PRIORITY[np.argmax(reordered, axis=1)]


def discount_policy(model: PricingModel, universe: Universe) -> tuple[np.ndarray, np.ndarray]:
    """Each item's predicted stratum column, and whether the policy discounts it.

    The learned policy discounts exactly the items predicted incentive-charge.
    """
    winners = predicted_strata(stratum_probs(model, universe.stations, universe.slots))
    return winners, winners == Stratum.INCENTIVE_CHARGE


@dataclass(frozen=True)
class PolicyEvaluation:
    """True-stratum counts among the discounted items, plus the policy reward."""

    none_count: int
    incentive_count: int
    always_count: int
    reward: float


def evaluate_policy(truth: np.ndarray, give: np.ndarray, c: float) -> PolicyEvaluation:
    """Score a discount mask against the ground-truth strata of the items.

    truth holds each item's true stratum column (a Universe's strata), give whether
    it was discounted at rate c in [0, 1); both have one entry per item of one
    universe. Reward per item: 1 for always-charge (minus c if it was
    needlessly discounted), 1-c for a discounted incentive-charge, 0
    otherwise. It is summed from 0.0 left to right, in item order, as a loop
    over the items would add it: np.sum's pairwise order could move the last
    bits of the reported float.
    """
    always = truth == Stratum.ALWAYS_CHARGE
    incentive_given = (truth == Stratum.INCENTIVE_CHARGE) & give
    per_item = np.where(
        always,
        1.0 - np.where(give, c, 0.0),
        np.where(incentive_given, 1.0 - c, 0.0),
    )
    counts = np.bincount(truth[give], minlength=3)
    return PolicyEvaluation(
        none_count=int(counts[Stratum.NO_CHARGE]),
        incentive_count=int(counts[Stratum.INCENTIVE_CHARGE]),
        always_count=int(counts[Stratum.ALWAYS_CHARGE]),
        reward=float(np.cumsum(np.concatenate(([0.0], per_item)))[-1]),
    )


def _fit_scorer(
    stations, slots, targets, cfg: PricingConfig, n_stations: int, seed: int, tag: str
) -> nn.EmbedMlp:
    """An EmbedMlp fit to targets by mean squared error."""
    mse = lambda idx, pred: nn.mse_loss(pred, targets[idx])
    return _fit(nn.EmbedMlp, stations, slots, mse, cfg, n_stations, seed, tag, "fit")


def fit_outcome_models(
    observations: Observations, cfg: PricingConfig, n_stations: int, seed: int
) -> tuple[nn.EmbedMlp, nn.EmbedMlp]:
    """Fit charge-probability regressions on the treated and control arms."""
    stations, slots, treated, charged = observations
    on = treated == 1
    off = ~on
    mu1 = _fit_scorer(
        stations[on], slots[on], charged[on], cfg, n_stations, seed, "outcome_treated"
    )
    mu0 = _fit_scorer(
        stations[off], slots[off], charged[off], cfg, n_stations, seed, "outcome_control"
    )
    return mu1, mu0


def fit_propensity_model(
    observations: Observations, cfg: PricingConfig, n_stations: int, seed: int
) -> nn.EmbedMlp:
    """Fit a discount-probability classifier on the logged treatments."""
    stations, slots, treated, _ = observations
    return _fit_scorer(stations, slots, treated, cfg, n_stations, seed, "propensity")


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
    universe: Universe,
) -> dict[str, np.ndarray]:
    """The "or", "ips" and "dr" uplift of every item.

    Each model predicts once on the universe and once on the logged records,
    and the propensities are clipped once; the three estimators share them.
    Every record is an item of the universe, as the stages check where they
    read charging.csv against strata.csv.
    """
    stations, slots = universe.stations, universe.slots
    obs_st, obs_sl, treated, charged = observations
    rows = universe.rows(obs_st, obs_sl)
    g = _clipped_propensity(propensity_model, obs_st, obs_sl)
    base = or_uplift(mu1.predict(stations, slots), mu0.predict(stations, slots))
    m1 = mu1.predict(obs_st, obs_sl)
    m0 = mu0.predict(obs_st, obs_sl)
    return {
        "or": base,
        "ips": ips_uplift(len(base), rows, treated, charged, g),
        "dr": dr_uplift(base, rows, treated, charged, g, m1, m0),
    }


def top_k_policy(universe: Universe, scores, k: int) -> np.ndarray:
    """Per item, whether it is among the k highest scores, and so discounted.

    scores holds one score per item and k is at most the item count. Ties
    are broken by (station, slot), and -0.0 ties with 0.0.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite to rank items")
    # lexsort's last key is the primary one
    order = np.lexsort((universe.slots, universe.stations, -scores))
    give = np.zeros(len(universe), dtype=bool)
    give[order[:k]] = True
    return give


def strata_by_period(winners: np.ndarray, slots: np.ndarray) -> dict[str, dict[Stratum, float]]:
    """Predicted-stratum shares within each quarter of the day.

    winners holds each item's predicted stratum column and slots its slot of
    day. Returns {"00-06": {stratum: share, ...}, ...} with shares summing to
    1 per period.
    """
    quarter = slots * 4 // SLOTS_PER_DAY
    out: dict[str, dict[Stratum, float]] = {}
    for q, (start, end) in enumerate(PERIODS):
        mask = quarter == q
        label = f"{start:02d}-{end:02d}"
        if not mask.any():
            raise ValueError(f"no items fall in period {label}")
        out[label] = {stratum: float(np.mean(winners[mask] == stratum)) for stratum in Stratum}
    return out
