import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdcheck import assert_grads_close, pricing_loss_grads
from hubopt import nn, pricing
from hubopt.pricing import (
    Observations,
    PricingConfig,
    PricingModel,
    cfmtl_loss,
    cfmtl_loss_parts,
    discount_policy,
    evaluate_policy,
    fit_outcome_models,
    fit_propensity_model,
    observations_from_records,
    predicted_strata,
    strata_by_period,
    stratum_probs,
    top_k_policy,
    train_cfmtl,
    uplift_scores,
)
from hubopt.traces import PopulationItem, Stratum, Universe, gen_charging_population
from reference import heap_peak

# each stratum's code, which is its head column
NO, INCENTIVE, ALWAYS = Stratum.NO_CHARGE, Stratum.INCENTIVE_CHARGE, Stratum.ALWAYS_CHARGE


@pytest.fixture(scope="module")
def planted():
    pop, records = gen_charging_population(
        seed=7, n_stations=30, n_slots=8 * 24, strata_priors=(0.3, 0.2, 0.5)
    )
    return pop, observations_from_records(records)


@pytest.fixture(scope="module")
def trained(planted):
    _, obs = planted
    return train_cfmtl(obs, PricingConfig(epochs=6), 30, 3)


def obs_batch(rows):
    """Observations from (station, slot of day, treated, charged) rows."""
    cols = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    return Observations(cols[0], cols[1], cols[2].astype(float), cols[3].astype(float))


def obs_subset(obs, index):
    return Observations(*(col[index] for col in obs))


class TestStratumProbs:
    def test_rows_sum_to_one(self, planted, trained):
        pop, _ = planted
        stations = np.array([p.station_id for p in pop])
        slots = np.array([p.slot_of_day for p in pop])
        probs = stratum_probs(trained, stations, slots)
        assert probs.shape == (len(pop), 3)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert probs.min() > 0.0 and probs.max() < 1.0

    def test_implied_conditionals(self):
        p_no, p_inc, p_alw = 0.2, 0.3, 0.5
        charged_given_discount = p_inc + p_alw
        charged_given_none = p_alw
        assert charged_given_discount == pytest.approx(0.8)
        # zero incentive mass means the discount moves nothing
        assert p_alw == pytest.approx(charged_given_none)

    def test_propensity_in_unit_interval(self, planted, trained):
        pop, _ = planted
        stations = np.array([p.station_id for p in pop])
        slots = np.array([p.slot_of_day for p in pop])
        _, g, _ = trained.forward(stations, slots)
        assert g.shape == (len(pop),)
        assert g.min() > 0.0 and g.max() < 1.0


def random_cells(rng, n, g_low=0.0, g_high=1.0):
    """Stratum rows, propensities in [g_low, g_high), and 0/1 treated and charged of n items."""
    raw = rng.random((n, 3))
    strata = raw / raw.sum(axis=1, keepdims=True)
    g = rng.uniform(g_low, g_high, n)
    return strata, g, rng.integers(0, 2, n).astype(float), rng.integers(0, 2, n).astype(float)


class TestLoss:
    def test_single_uncharged_treated_item(self):
        strata = np.array([[0.5, 0.25, 0.25]])
        parts, _, _ = cfmtl_loss_parts(
            strata, np.array([0.4]), np.array([1.0]), np.array([0.0])
        )
        assert parts.l_no_treated == pytest.approx(0.64, abs=1e-12)

    def test_propensity_half_treated(self):
        n = 10
        strata = np.full((n, 3), 1.0 / 3.0)
        g = np.full(n, 0.5)
        treated = np.array([1.0, 0.0] * 5)
        parts, _, _ = cfmtl_loss_parts(strata, g, treated, np.zeros(n))
        assert parts.l_propensity == pytest.approx(0.25, abs=1e-12)

    def test_total_is_sum_of_parts(self):
        parts, _, _ = cfmtl_loss_parts(*random_cells(np.random.default_rng(4), 64, 0.05, 0.95))
        *terms, total = dataclasses.astuple(parts)
        assert len(terms) == 5 and total == pytest.approx(sum(terms), abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    def test_parts_and_gradients_equal_the_per_term_reference(self, n, seed):
        strata, g, treated, charged = random_cells(np.random.default_rng(seed), n)
        p_no, p_inc, p_alw = strata[:, NO], strata[:, INCENTIVE], strata[:, ALWAYS]
        r1 = p_no * g - ((charged == 0) & (treated == 1))
        r2 = p_alw * (1.0 - g) - ((charged == 1) & (treated == 0))
        r3 = (p_inc + p_alw) * g - ((charged == 1) & (treated == 1))
        r4 = (p_no + p_inc) * (1.0 - g) - ((charged == 0) & (treated == 0))
        r5 = g - (treated == 1)
        means = [float(np.mean(r * r)) for r in (r1, r2, r3, r4, r5)]
        want = means + [means[0] + means[1] + means[2] + means[3] + means[4]]
        want_strata = np.empty_like(strata)
        want_strata[:, NO] = (2.0 / n) * (r1 * g + r4 * (1.0 - g))
        want_strata[:, INCENTIVE] = (2.0 / n) * (r3 * g + r4 * (1.0 - g))
        want_strata[:, ALWAYS] = (2.0 / n) * (r2 * (1.0 - g) + r3 * g)
        want_g = (2.0 / n) * (
            r1 * p_no - r2 * p_alw + r3 * (p_inc + p_alw) - r4 * (p_no + p_inc) + r5
        )
        parts, grad_strata, grad_g = cfmtl_loss_parts(strata, g, treated, charged)
        assert np.array(dataclasses.astuple(parts)).tobytes() == np.array(want).tobytes()
        assert grad_strata.tobytes() == want_strata.tobytes()
        assert grad_g.tobytes() == want_g.tobytes()

    def test_perfectly_separated_batch_scores_zero(self):
        # treated charger explained entirely by incentive+always mass,
        # untreated non-charger by no+incentive mass
        strata = np.array([[0.0, 0.5, 0.5], [0.5, 0.5, 0.0]])
        g = np.array([1.0, 0.0])
        treated = np.array([1.0, 0.0])
        charged = np.array([1.0, 0.0])
        parts, grad_strata, grad_g = cfmtl_loss_parts(strata, g, treated, charged)
        assert parts.total == 0.0
        assert np.all(grad_strata == 0.0)
        assert np.all(grad_g == 0.0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        model = PricingModel(n_stations=4, n_slots=6, embed_dim=3, hidden=(5,), seed=2)
        stations = rng.integers(0, 4, size=12)
        slots = rng.integers(0, 6, size=12)
        treated = rng.integers(0, 2, size=12).astype(float)
        charged = rng.integers(0, 2, size=12).astype(float)
        assert_grads_close(*pricing_loss_grads(model, stations, slots, treated, charged))

    def test_model_batch_wrapper_matches_parts(self, planted, trained):
        _, obs = planted
        batch = obs_subset(obs, slice(0, 100))
        parts = cfmtl_loss(trained, batch)
        probs, g, _ = trained.forward(batch.stations, batch.slots)
        expect, _, _ = cfmtl_loss_parts(probs, g, batch.treated, batch.charged)
        assert parts == expect

    def test_empty_batch(self, trained):
        with pytest.raises(ValueError, match="empty"):
            cfmtl_loss(trained, obs_batch([]))


class TestTraining:
    def test_heldout_loss_decreases(self, planted):
        _, obs = planted
        order = np.random.default_rng(17).permutation(len(obs.stations))
        cut = len(obs.stations) // 5
        held = obs_subset(obs, order[:cut])
        train = obs_subset(obs, order[cut:])
        virgin = train_cfmtl(train, PricingConfig(epochs=0), 30, 13)
        before = cfmtl_loss(virgin, held).total
        model = train_cfmtl(train, PricingConfig(epochs=4), 30, 13)
        after = cfmtl_loss(model, held).total
        assert after < before

    def test_always_only_population_drives_always_head(self):
        with pytest.warns(UserWarning, match="degenerate"):
            pop, records = gen_charging_population(
                seed=11, n_stations=20, n_slots=10 * 24, strata_priors=(1.0, 0.0, 0.0)
            )
        obs = observations_from_records(records)
        model = train_cfmtl(obs, PricingConfig(epochs=6), 20, 5)
        stations = np.array([p.station_id for p in pop])
        slots = np.array([p.slot_of_day for p in pop])
        probs = stratum_probs(model, stations, slots)
        assert probs[:, ALWAYS].mean() > 0.9

    def test_deterministic_given_seed(self, planted, trained):
        _, obs = planted
        again = train_cfmtl(obs, PricingConfig(epochs=6), 30, 3)
        for a, b in zip(trained.params(), again.params()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "fit",
        [train_cfmtl, fit_outcome_models, fit_propensity_model],
        ids=lambda fit: fit.__name__,
    )
    def test_empty_observations_refused(self, fit):
        with pytest.raises(ValueError, match="^cannot fit on an empty dataset$"):
            fit(obs_batch([]), PricingConfig(epochs=1), 4, 0)

    def test_every_fit_runs_the_one_training_loop(self, planted, monkeypatch):
        _, obs = planted
        # one batch of every record: the epoch's loss is the untrained model's
        cfg = PricingConfig(epochs=1, batch_size=len(obs.stations))
        untrained = cfmtl_loss(train_cfmtl(obs, dataclasses.replace(cfg, epochs=0), 30, 2), obs)
        fits = []
        nn_fit = nn.fit_embed_mlp

        def counted(model, *args, **kwargs):
            history = nn_fit(model, *args, **kwargs)
            fits.append((type(model), history))
            return history

        monkeypatch.setattr(nn, "fit_embed_mlp", counted)
        train_cfmtl(obs, cfg, 30, 2)
        fit_outcome_models(obs, cfg, 30, 2)
        fit_propensity_model(obs, cfg, 30, 2)
        assert [cls for cls, _ in fits] == [PricingModel] + [nn.EmbedMlp] * 3
        # the loop's mean weights the batch mean by the batch size, then divides
        assert fits[0][1] == [pytest.approx(untrained.total, rel=1e-12)]

    def test_separates_planted_strata(self, planted, trained):
        pop, _ = planted
        stations = np.array([p.station_id for p in pop])
        slots = np.array([p.slot_of_day for p in pop])
        pred = predicted_strata(stratum_probs(trained, stations, slots))
        truth = np.array([p.stratum for p in pop])
        assert np.mean(pred == truth) > 0.7


class TestPricingConfig:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("embed_dim", 0),
            ("hidden", ()),
            ("hidden", (8, 0)),
            ("lr", 0.0),
            ("weight_decay", -1e-4),
            ("batch_size", 0),
            ("epochs", -1),
        ],
    )
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            PricingConfig(**{field: value})

    def test_zero_epochs_allowed(self):
        assert PricingConfig(epochs=0).epochs == 0


class TestDiscountPolicy:
    def test_argmax_selection(self):
        probs = np.array(
            [
                [0.1, 0.7, 0.2],  # incentive wins
                [0.1, 0.2, 0.7],  # always wins
                [0.6, 0.3, 0.1],  # no-charge wins
            ]
        )
        assert list(predicted_strata(probs)) == [INCENTIVE, ALWAYS, NO]

    def test_exact_ties_prefer_not_discounting(self):
        probs = np.array(
            [
                [0.1, 0.45, 0.45],  # incentive ties always -> always
                [0.45, 0.45, 0.1],  # incentive ties no-charge -> no-charge
                [1 / 3, 1 / 3, 1 / 3],
            ]
        )
        assert list(predicted_strata(probs)) == [ALWAYS, NO, NO]

    def test_decisions_follow_predictions(self, planted, trained):
        pop, _ = planted
        winners, give = discount_policy(trained, pop)
        stations = np.array([p.station_id for p in pop])
        slots = np.array([p.slot_of_day for p in pop])
        pred = predicted_strata(stratum_probs(trained, stations, slots))
        assert np.array_equal(winners, pred)
        assert np.array_equal(give, pred == INCENTIVE)

    def test_peak_memory_is_bounded_by_the_block_not_the_universe(self):
        # the price workload's model over every (station, slot) item
        model = PricingModel(n_stations=352, n_slots=24, embed_dim=16, hidden=(64, 32), seed=0)
        stations = np.repeat(np.arange(352), 24)
        items = Universe(stations, np.tile(np.arange(24), 352), np.zeros_like(stations))
        peak = heap_peak(lambda: discount_policy(model, items))
        assert peak < 2.5 * 2**20, f"discount_policy peaks at {peak / 2**20:.2f} MB"


def universe_of(strata_map):
    items = sorted(strata_map.items())
    return Universe.from_items([PopulationItem(s, t, stratum) for (s, t), stratum in items])


def items_at(keys):
    """The Universe of items at (station, slot of day) keys, in order; strata unread."""
    return Universe.from_items([PopulationItem(s, t, Stratum.NO_CHARGE) for s, t in keys])


def score(strata_map, discounted, c):
    """evaluate_policy on a {(station, slot): stratum} map, in key order."""
    keys = sorted(strata_map)
    truth = universe_of(strata_map).strata
    give = np.array([key in discounted for key in keys], dtype=bool)
    return evaluate_policy(truth, give, c)


class TestEvaluatePolicy:
    A, I, N = Stratum.ALWAYS_CHARGE, Stratum.INCENTIVE_CHARGE, Stratum.NO_CHARGE

    def test_no_discounts_reward_is_always_count(self):
        strata = {(0, 0): self.A, (0, 1): self.A, (0, 2): self.I, (0, 3): self.N}
        ev = score(strata, set(), 0.2)
        assert ev.reward == pytest.approx(2.0)
        assert (ev.none_count, ev.incentive_count, ev.always_count) == (0, 0, 0)

    def test_discounted_incentive_contributes_one_minus_c(self):
        strata = {(1, 5): self.I}
        ev = score(strata, {(1, 5)}, 0.1)
        assert ev.reward == pytest.approx(0.9)
        assert ev.incentive_count == 1

    def test_discounted_always_loses_the_discount(self):
        strata = {(1, 5): self.A}
        ev = score(strata, {(1, 5)}, 0.1)
        assert ev.reward == pytest.approx(0.9)
        assert ev.always_count == 1

    def test_counts_cover_only_discounted_items(self):
        strata = {
            (0, 0): self.A,
            (0, 1): self.A,
            (0, 2): self.I,
            (0, 3): self.I,
            (0, 4): self.N,
        }
        ev = score(strata, {(0, 0), (0, 2), (0, 4)}, 0.5)
        assert (ev.none_count, ev.incentive_count, ev.always_count) == (1, 1, 1)
        # 2 always (one discounted at .5) + one discounted incentive
        assert ev.reward == pytest.approx(1.0 + 0.5 + 0.5)

    def test_reward_monotone_nonincreasing_in_c(self):
        rng = np.random.default_rng(3)
        strata = {
            (s, t): [self.A, self.I, self.N][rng.integers(3)]
            for s in range(6)
            for t in range(4)
        }
        discounted = {k for k in strata if rng.random() < 0.4}
        last = math.inf
        for c in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6):
            r = score(strata, discounted, c).reward
            assert r <= last + 1e-12
            last = r

    def test_accepts_population_items(self):
        strata = {(0, 0): self.A, (0, 1): self.N}
        ev = evaluate_policy(universe_of(strata).strata, np.zeros(2, dtype=bool), 0.3)
        assert ev.reward == pytest.approx(1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        items=st.lists(
            st.tuples(
                st.tuples(st.integers(0, 6), st.integers(0, 23)),
                st.sampled_from(list(Stratum)),
                st.booleans(),
            ),
            unique_by=lambda item: item[0],
            max_size=40,
        ),
        c=st.one_of(
            st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6]),
            st.floats(0.0, 1.0, exclude_max=True),
        ),
    )
    def test_matches_per_item_loop_bit_for_bit(self, items, c):
        truth = Universe.from_items(
            [PopulationItem(s, t, stratum) for (s, t), stratum, _ in items]
        ).strata
        give = np.array([g for _, _, g in items], dtype=bool)
        want = reference_evaluation(items, c)
        got = evaluate_policy(truth, give, c)
        assert got.reward.hex() == want.reward.hex()
        assert (got.none_count, got.incentive_count, got.always_count) == (
            want.none_count,
            want.incentive_count,
            want.always_count,
        )


def reference_evaluation(items, c):
    """evaluate_policy as a loop over (key, stratum, discounted) items.

    Kept as the reference.
    """
    counts = {Stratum.NO_CHARGE: 0, Stratum.INCENTIVE_CHARGE: 0, Stratum.ALWAYS_CHARGE: 0}
    reward = 0.0
    for _, stratum, give in items:
        if give:
            counts[stratum] += 1
        if stratum is Stratum.ALWAYS_CHARGE:
            reward += 1.0 - (c if give else 0.0)
        elif stratum is Stratum.INCENTIVE_CHARGE and give:
            reward += 1.0 - c
    return pricing.PolicyEvaluation(
        none_count=counts[Stratum.NO_CHARGE],
        incentive_count=counts[Stratum.INCENTIVE_CHARGE],
        always_count=counts[Stratum.ALWAYS_CHARGE],
        reward=reward,
    )


class Constant:
    """A stand-in scorer that predicts one value everywhere."""

    def __init__(self, value):
        self.value = value

    def predict(self, stations, slots):
        return np.full(len(np.asarray(stations)), self.value)


class TestUpliftEstimators:
    @pytest.fixture(scope="class")
    @staticmethod
    def incentive_only():
        with pytest.warns(UserWarning, match="degenerate"):
            pop, records = gen_charging_population(
                seed=19, n_stations=20, n_slots=10 * 24, strata_priors=(0.0, 1.0, 0.0)
            )
        return pop, observations_from_records(records)

    def test_or_uplift_zero_when_models_identical(self, planted):
        pop, obs = planted
        fit = (PricingConfig(epochs=1), 30, 2)
        mu1, _ = fit_outcome_models(obs, *fit)
        assert np.all(uplift_scores(obs, mu1, mu1, Constant(0.5), pop)["or"] == 0.0)

    def test_or_uplift_small_for_constant_outcome(self):
        rng = np.random.default_rng(5)
        universe = [(s, t) for s in range(12) for t in range(24)]
        rows = [
            (s, t, int(rng.random() < 0.5), 1)
            for s, t in universe
            for _ in range(6)
        ]
        fit = (PricingConfig(epochs=6), 12, 8)
        obs = obs_batch(rows)
        mu1, mu0 = fit_outcome_models(obs, *fit)
        uplift = uplift_scores(obs, mu1, mu0, Constant(0.5), items_at(universe))["or"]
        assert np.abs(uplift).mean() < 0.05

    def test_ips_incentive_only_near_one(self, incentive_only):
        pop, obs = incentive_only
        fit = (PricingConfig(epochs=6), 20, 21)
        prop = fit_propensity_model(obs, *fit)
        uplift = uplift_scores(obs, Constant(0.5), Constant(0.5), prop, pop)["ips"]
        assert abs(uplift.mean() - 1.0) < 0.1

    def test_dr_equals_or_without_records(self, planted):
        pop, obs = planted
        fit = (PricingConfig(epochs=1), 30, 2)
        mu1, mu0 = fit_outcome_models(obs, *fit)
        prop = fit_propensity_model(obs, *fit)
        scores = uplift_scores(obs_batch([]), mu1, mu0, prop, pop)
        assert np.array_equal(scores["dr"], scores["or"])

    def test_dr_correction_only_touches_observed_items(self, planted):
        pop, obs = planted
        fit = (PricingConfig(epochs=1), 30, 2)
        mu1, mu0 = fit_outcome_models(obs, *fit)
        prop = fit_propensity_model(obs, *fit)
        first = (obs.stations[0], obs.slots[0])
        some = obs_subset(obs, (obs.stations == first[0]) & (obs.slots == first[1]))
        scores = uplift_scores(some, mu1, mu0, prop, pop)
        base, corrected = scores["or"], scores["dr"]
        touched = [
            i
            for i, p in enumerate(pop)
            if (p.station_id, p.slot_of_day) == first
        ]
        mask = np.zeros(len(pop), dtype=bool)
        mask[touched] = True
        assert np.array_equal(corrected[~mask], base[~mask])
        assert not np.array_equal(corrected[mask], base[mask])

    def test_propensity_clipping_warns(self, planted):
        pop, obs = planted
        with pytest.warns(RuntimeWarning, match="clipped"):
            uplift = uplift_scores(obs, Constant(0.5), Constant(0.5), Constant(0.001), pop)
        assert np.all(np.isfinite(uplift["ips"]))

    def test_uplift_scores_equal_single_estimators(self, planted):
        pop, obs = planted
        fit = (PricingConfig(epochs=1), 30, 2)
        mu1, mu0 = fit_outcome_models(obs, *fit)
        prop = fit_propensity_model(obs, *fit)
        scores = uplift_scores(obs, mu1, mu0, prop, pop)
        want = reference_uplifts(obs, mu1, mu0, prop, pop)
        for name in ("or", "ips", "dr"):
            assert scores[name].tobytes() == want[name].tobytes(), name

    def test_uplift_scores_clip_and_warn_once(self, planted):
        pop, obs = planted
        saturated = Constant(0.001)
        with pytest.warns(RuntimeWarning, match="clipped") as caught:
            scores = uplift_scores(obs, saturated, saturated, saturated, pop)
        assert len(caught) == 1
        assert all(np.all(np.isfinite(v)) for v in scores.values())


def reference_uplifts(obs, mu1, mu0, prop, items):
    """The OR, IPS and DR uplifts as per-record loops, kept as the reference.

    Each item's IPS and DR terms are summed in record order and divided by
    its record count; items without records score 0 (IPS) or the OR uplift.
    """
    keys = [(it.station_id, it.slot_of_day) for it in items]
    stations = np.array([k[0] for k in keys])
    slots = np.array([k[1] for k in keys])
    base = mu1.predict(stations, slots) - mu0.predict(stations, slots)
    lo, hi = pricing.PROPENSITY_CLIP
    g = np.clip(prop.predict(obs.stations, obs.slots), lo, hi)
    m1 = mu1.predict(obs.stations, obs.slots)
    m0 = mu0.predict(obs.stations, obs.slots)
    row = {key: i for i, key in enumerate(keys)}
    ips, resid, count = ({} for _ in range(3))
    for j, key in enumerate(zip(obs.stations.tolist(), obs.slots.tolist())):
        t, y, gj = obs.treated[j], obs.charged[j], g[j]
        i = row[key]
        ips[i] = ips.get(i, 0.0) + (t * y / gj - (1.0 - t) * y / (1.0 - gj))
        resid[i] = resid.get(i, 0.0) + (
            t * (y - m1[j]) / gj - (1.0 - t) * (y - m0[j]) / (1.0 - gj)
        )
        count[i] = count.get(i, 0) + 1
    ips_out = np.array([ips[i] / count[i] if i in count else 0.0 for i in range(len(keys))])
    dr_out = base + np.array(
        [resid[i] / count[i] if i in count else 0.0 for i in range(len(keys))]
    )
    return {"or": base, "ips": ips_out, "dr": dr_out}


class TestUniverseRows:
    # a strata file admits distinct items with stations >= 0 and slots of day
    # in [0, 24); the looked-up keys may be any integers
    @settings(max_examples=200, deadline=None)
    @given(
        keys=st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 23)), unique=True, max_size=25
        ),
        data=st.data(),
    )
    def test_matches_the_dict_lookup(self, keys, data):
        picks = data.draw(st.lists(st.integers(0, max(len(keys) - 1, 0)), max_size=40))
        others = st.tuples(st.integers(-3, 45), st.integers(-3, 27))
        obs_keys = [keys[i] for i in picks] if keys else []
        obs_keys += data.draw(st.lists(others, max_size=10))
        observations = obs_batch([(s, t, 0, 0) for s, t in obs_keys])
        index = {key: i for i, key in enumerate(keys)}
        rows = items_at(keys).rows(observations.stations, observations.slots)
        assert rows.tolist() == [index.get(key, -1) for key in obs_keys]


class TestTopK:
    def test_picks_highest_scores(self):
        universe = items_at([(0, 0), (0, 1), (0, 2)])
        give = top_k_policy(universe, [3.0, 1.0, 2.0], 2)
        assert give.tolist() == [True, False, True]

    def test_score_ties_break_by_item_key(self):
        universe = items_at([(1, 0), (0, 5), (0, 3)])
        give = top_k_policy(universe, [1.0, 1.0, 1.0], 1)
        assert give.tolist() == [False, False, True]  # (0, 3)

    def test_k_zero_and_k_full(self):
        universe = items_at([(0, 0), (0, 1)])
        assert not top_k_policy(universe, [1.0, 2.0], 0).any()
        assert top_k_policy(universe, [1.0, 2.0], 2).all()

    def test_non_finite_scores_rejected(self):
        universe = items_at([(0, 0), (0, 1), (0, 2)])
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                top_k_policy(universe, [1.0, bad, 0.0], 1)

    @settings(max_examples=200, deadline=None)
    @given(
        keys=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 23)), unique=True, max_size=30
        ),
        data=st.data(),
    )
    def test_matches_sorted_reference(self, keys, data):
        # a small score set, both zeros included, so that ties are common
        values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300])
        scores = data.draw(st.lists(values, min_size=len(keys), max_size=len(keys)))
        order = sorted(range(len(keys)), key=lambda i: (-scores[i], keys[i]))
        for k in range(len(keys) + 1):
            give = top_k_policy(items_at(keys), scores, k)
            assert give.shape == (len(keys),)
            assert {keys[i] for i in np.flatnonzero(give)} == {keys[i] for i in order[:k]}


def period_table(model, items):
    """strata_by_period on the model's predicted strata over items."""
    winners, _ = discount_policy(model, items)
    return strata_by_period(winners, items.slots)


class TestStrataByPeriod:
    def test_shares_sum_to_one(self, planted, trained):
        pop, _ = planted
        table = period_table(trained, pop)
        assert sorted(table) == ["00-06", "06-12", "12-18", "18-24"]
        for shares in table.values():
            assert sum(shares.values()) == pytest.approx(1.0)
            assert set(shares) == set(Stratum)

    def test_evening_boost_surfaces_in_last_period(self, planted, trained):
        pop, _ = planted
        table = period_table(trained, pop)
        evening = table["18-24"][Stratum.INCENTIVE_CHARGE]
        for label in ("00-06", "06-12", "12-18"):
            assert evening > table[label][Stratum.INCENTIVE_CHARGE]

    def test_uniform_strata_periods_indistinguishable(self):
        pop, records = gen_charging_population(
            seed=29,
            n_stations=30,
            n_slots=8 * 24,
            strata_priors=(1 / 3, 1 / 3, 1 / 3),
            evening_boost=1.0,
        )
        obs = observations_from_records(records)
        model = train_cfmtl(obs, PricingConfig(epochs=6), 30, 31)
        table = period_table(model, pop)
        counts = np.zeros((4, 3))
        per_period = len(pop) / 4
        for i, label in enumerate(sorted(table)):
            for j, stratum in enumerate(
                (Stratum.NO_CHARGE, Stratum.INCENTIVE_CHARGE, Stratum.ALWAYS_CHARGE)
            ):
                counts[i, j] = table[label][stratum] * per_period
        assert chi2_independence_pvalue(counts) > 0.01


def chi2_independence_pvalue(counts: np.ndarray) -> float:
    """Survival function of chi-square at the independence statistic.

    counts is a 4x3 contingency table, giving 6 degrees of freedom; for even
    dof 2m the survival function is exp(-x/2) * sum_{j<m} (x/2)^j / j!.
    """
    total = counts.sum()
    expected = np.outer(counts.sum(axis=1), counts.sum(axis=0)) / total
    stat = float(((counts - expected) ** 2 / expected).sum())
    m = 3
    half = stat / 2.0
    return math.exp(-half) * sum(half**j / math.factorial(j) for j in range(m))
