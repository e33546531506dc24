import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hubopt import hub, nn, scheduler
from hubopt.hub import CHARGE, DISCHARGE, IDLE
from hubopt.scheduler import (
    SERIES,
    EnvConfig,
    HubEnv,
    NormStats,
    PolicyBundle,
    PpoConfig,
    TrainingAbort,
    compute_advantages,
    dp_oracle,
    evaluate,
    policy_update,
    ppo_clip_term,
    state_vector,
    total_loss,
    train,
)
from hubopt.seeding import spawn_rng, spawn_seed
from hubopt.traces import TraceSet, gen_rtp, gen_traffic, gen_weather

from fdcheck import assert_grads_close, ppo_objective_grads
from reference import brute_force_best, lattice_dp_case, plan_profit, ppo_batch, profit_rows


def make_traces(n_slots, seed=0):
    rtp = gen_rtp(seed, n_slots)
    wind, irr = gen_weather(seed + 1, n_slots)
    load = gen_traffic(seed + 2, n_slots)
    return TraceSet(rtp, wind, irr, load)


def make_env(
    n_days=6,
    episode_days=1,
    window=4,
    seed=0,
    initial_soc_kwh=None,
    occupancy=None,
    srtp_factor=1.5,
    **hub_kw,
):
    n = n_days * 24
    ts = make_traces(n, seed=seed)
    srtp = ts.rtp * srtp_factor
    if occupancy is None:
        occupancy = (np.arange(n) % 4 == 1).astype(int)
    cfg = hub.HubConfig(**hub_kw)
    env_cfg = EnvConfig(
        episode_days=episode_days, window=window, initial_soc_kwh=initial_soc_kwh
    )
    return HubEnv(cfg, env_cfg, ts, srtp, occupancy)


def whole_rows_table(env):
    """hub.profit_table over every slot of env's rows."""
    return hub.profit_table(
        env.hub_cfg, env.load_rate, env.occupancy, env.p_wt, env.p_pv, env.rtp, env.srtp
    )


class TestEnvConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            EnvConfig(episode_days=0)
        with pytest.raises(ValueError):
            EnvConfig(window=-1)


class TestNormStats:
    def test_constant_series_get_floor_std(self):
        rows = np.arange(2 * len(SERIES), dtype=np.float64).reshape(len(SERIES), 2)
        rows[0] = 3.0
        stats = NormStats.from_series(rows)
        assert stats.mean[0] == 3.0 and stats.std[0] == 1e-8
        for k in range(1, len(SERIES)):
            assert stats.mean[k] == rows[k].mean() and stats.std[k] == 0.5

    def test_state_vector_standardizes(self):
        mean, std = np.arange(len(SERIES)) - 1.0, np.arange(len(SERIES)) + 2.0
        windows = np.arange(2 * len(SERIES), dtype=np.float64).reshape(len(SERIES), 2)
        vec = state_vector(scheduler.EnvState(windows, soc=0.25), NormStats(mean, std))
        assert vec.shape == (2 * len(SERIES) + 1,)
        assert vec[:2].tolist() == [0.5, 1.0]
        for k in range(len(SERIES)):
            np.testing.assert_array_equal(vec[2 * k : 2 * k + 2], (windows[k] - mean[k]) / std[k])
        assert vec[-1] == 0.25


class TestHubEnv:
    def test_state_dim(self):
        env = make_env(window=4)
        assert env.state_dim == len(SERIES) * 5 + 1 == len(state_vector(env.reset(0), env.stats))

    def test_windows_match_traces(self):
        env = make_env(window=6, wt_capacity_kw=3.0, pv_capacity_kw=2.0)
        state = env.reset(seed=11)
        t = env.episode_start
        assert state.windows.shape == (len(SERIES), 7)
        for row, name in zip(state.windows, SERIES):
            np.testing.assert_array_equal(row, getattr(env, name)[t - 6 : t + 1])

    def test_idle_reward_is_negative_grid_cost(self):
        env = make_env(occupancy=np.zeros(6 * 24, dtype=int))
        env.reset(seed=3)
        t = env.episode_start
        p_bs = hub.base_station_power(env.hub_cfg, float(env.load_rate[t]))
        _, reward, _ = env.step(IDLE)
        assert reward == pytest.approx(-p_bs * env.hub_cfg.slot_hours * env.rtp[t])

    def test_charge_at_full_battery_behaves_as_idle(self):
        soc_max = hub.BatterySpec().soc_max_kwh
        env_a = make_env(initial_soc_kwh=soc_max)
        env_b = make_env(initial_soc_kwh=soc_max)
        state_a = env_a.reset(seed=21)
        state_b = env_b.reset(seed=21)
        assert state_a.soc == state_b.soc
        next_a, reward_a, _ = env_a.step(CHARGE)
        next_b, reward_b, _ = env_b.step(IDLE)
        assert reward_a == reward_b
        assert next_a.soc == next_b.soc == state_a.soc

    def test_reset_soc_within_bounds(self):
        env = make_env()
        spec = env.hub_cfg.battery
        lo = spec.soc_min_kwh / spec.capacity_kwh
        hi = spec.soc_max_kwh / spec.capacity_kwh
        for i in range(200):
            state = env.reset(seed=i)
            assert lo <= state.soc <= hi
            assert env.window <= env.episode_start <= env.last_start

    def test_fixed_initial_soc(self):
        env = make_env(initial_soc_kwh=20.0)
        state = env.reset(seed=1)
        assert state.soc == pytest.approx(20.0 / env.hub_cfg.battery.capacity_kwh)

    def test_reset_seed_reproducible(self):
        env = make_env()
        a = env.reset(seed=9)
        start = env.episode_start
        b = env.reset(seed=9)
        assert env.episode_start == start
        assert a.soc == b.soc
        assert a.windows.tobytes() == b.windows.tobytes()

    def test_episode_terminates_after_episode_slots(self):
        env = make_env(episode_days=1)
        env.reset(seed=2)
        for i in range(24):
            _, _, done = env.step(IDLE)
            assert done == (i == 23)

    def test_step_before_reset(self):
        env = make_env()
        with pytest.raises(RuntimeError, match="reset"):
            env.step(IDLE)

    def test_step_after_the_episode_asks_for_reset(self):
        env = make_env(episode_days=1)
        env.reset(seed=2)
        for _ in range(env.episode_slots):
            _, _, done = env.step(IDLE)
        assert done
        with pytest.raises(RuntimeError, match="reset"):
            env.step(IDLE)
        # a new episode steps again
        env.reset(seed=3)
        env.step(IDLE)

    def test_invalid_action(self):
        env = make_env()
        env.reset(seed=0)
        for action in (3, -1):
            with pytest.raises(ValueError, match="action"):
                env.step(action)

    def test_traces_too_short(self):
        with pytest.raises(ValueError, match="traces"):
            make_env(n_days=1, episode_days=1, window=4)

    def test_step_rewards_equal_scalar_hub_step(self):
        # the table lookup must reproduce hub.step on every slot, idle fallback included
        env = make_env(n_days=4, episode_days=2, initial_soc_kwh=44.0, wt_capacity_kw=3.0)
        env.reset(seed=4)
        spec = env.hub_cfg.battery
        rng = np.random.default_rng(4)
        state = hub.BatteryState(44.0)
        for k in range(env.episode_slots):
            action = taken = int(rng.integers(0, 3))
            if taken not in hub.feasible_actions(state, spec, env.hub_cfg.slot_hours):
                taken = IDLE
            slot = env.slot_inputs(env.episode_start + k)
            expected = hub.step(env.hub_cfg, state, slot, taken)
            obs, reward, _ = env.step(action)
            assert reward.hex() == expected.profit.hex()
            assert obs.soc == expected.soc_after_kwh / spec.capacity_kwh
            state = hub.BatteryState(expected.soc_after_kwh)

    def test_episode_inputs_align_with_steps(self):
        env = make_env(episode_days=1, occupancy=np.ones(6 * 24, dtype=int))
        env.reset(seed=5)
        t = env.episode_start
        rows = env.episode_inputs(t)
        assert rows.shape == (24, len(hub.ACTIONS))
        assert rows.tobytes() == whole_rows_table(env)[t : t + 24].tobytes()
        # the rows the steps are rewarded from: idling collects the idle column
        for k in range(24):
            _, reward, _ = env.step(IDLE)
            assert reward == rows[k, IDLE]

    def test_episode_inputs_on_starts_stack_the_scalar_calls(self):
        env = make_env(n_days=5, episode_days=2, wt_capacity_kw=3.0)
        starts = np.array([[env.window, env.last_start, 30], [31, 29, env.window + 1]])
        rows = env.episode_inputs(starts)
        assert rows.shape == (2, 3, env.episode_slots, len(hub.ACTIONS))
        want = np.stack([[env.episode_inputs(int(s)) for s in row] for row in starts])
        assert rows.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        wt=st.floats(0.5, 20.0),
        pv=st.floats(0.5, 20.0),
        shape=st.sampled_from([(), (3,), (2, 4)]),
    )
    def test_episode_inputs_equal_the_whole_rows_table(self, seed, wt, pv, shape):
        env = make_env(
            n_days=4, episode_days=1, seed=seed, wt_capacity_kw=wt, pv_capacity_kw=pv
        )
        assert env.p_wt.any() and env.p_pv.any()
        starts = np.random.default_rng(seed).integers(env.window, env.last_start + 1, size=shape)
        slots = starts[..., None] + np.arange(env.episode_slots)
        want = whole_rows_table(env)[slots]
        assert env.episode_inputs(starts).tobytes() == want.tobytes()
        if not shape:
            assert env.episode_inputs(int(starts)).tobytes() == want.tobytes()


class TestComputeAdvantages:
    def test_no_discount_zero_values_gives_suffix_sums(self):
        rewards = np.array([1.0, 2.0, 3.0])
        values = np.zeros(3)
        _, targets = compute_advantages(rewards, values, gamma=1.0, lam=1.0)
        np.testing.assert_allclose(targets - values, [6.0, 5.0, 3.0])

    def test_lambda_zero_gives_td_residuals(self):
        rng = np.random.default_rng(4)
        rewards = rng.normal(size=10)
        values = rng.normal(size=10)
        gamma = 0.9
        _, targets = compute_advantages(rewards, values, gamma=gamma, lam=0.0)
        adv = targets - values
        next_values = np.append(values[1:], 0.0)
        np.testing.assert_allclose(adv, rewards + gamma * next_values - values)

    def test_correct_critic_gives_tiny_early_advantages(self):
        gamma, lam = 0.99, 0.95
        n = 300
        rewards = np.ones(n)
        values = np.full(n, 1.0 / (1.0 - gamma))
        _, targets = compute_advantages(rewards, values, gamma, lam)
        adv = targets - values
        # deltas vanish except at the horizon, and that spike decays backward
        assert abs(adv[0]) < 1e-4
        assert abs(adv[-1]) == pytest.approx(values[0] - 1.0)

    def test_normalization(self):
        rng = np.random.default_rng(8)
        adv, _ = compute_advantages(
            rng.normal(size=50), rng.normal(size=50), gamma=0.99, lam=0.95
        )
        assert adv.mean() == pytest.approx(0.0, abs=1e-9)
        assert adv.std() == pytest.approx(1.0, rel=1e-6)

    def test_targets_use_raw_advantages(self):
        rewards = np.array([1.0, -1.0, 0.5, 2.0])
        values = np.array([0.3, 0.1, -0.2, 0.4])
        adv, targets = compute_advantages(rewards, values, 0.9, 0.8)
        deltas = rewards + 0.9 * np.append(values[1:], 0.0) - values
        raw = np.zeros(4)
        acc = 0.0
        for t in range(3, -1, -1):
            acc = deltas[t] + 0.9 * 0.8 * acc
            raw[t] = acc
        np.testing.assert_allclose(targets, raw + values)
        np.testing.assert_allclose(adv, (raw - raw.mean()) / (raw.std() + 1e-8))


class TestPpoClipTerm:
    def test_positive_advantage_clips_high_ratio(self):
        term = ppo_clip_term(np.log(1.3), 0.0, 1.0, clip_epsilon=0.2)
        assert term == pytest.approx(1.2)

    def test_negative_advantage_clips_low_ratio(self):
        term = ppo_clip_term(np.log(0.5), 0.0, -1.0, clip_epsilon=0.2)
        assert term == pytest.approx(-0.8)

    def test_unit_ratio_passes_advantage_through(self):
        for adv in (-2.0, 0.0, 3.5):
            assert ppo_clip_term(0.0, 0.0, adv, clip_epsilon=0.2) == pytest.approx(adv)

    def test_inside_band_unclipped(self):
        term = ppo_clip_term(np.log(1.1), 0.0, 2.0, clip_epsilon=0.2)
        assert term == pytest.approx(2.2)

    def test_vectorized(self):
        new = np.log(np.array([1.3, 0.5, 1.0]))
        term = ppo_clip_term(new, np.zeros(3), np.array([1.0, -1.0, 2.0]), 0.2)
        np.testing.assert_allclose(term, [1.2, -0.8, 2.0])


class TestTotalLoss:
    def test_zero_mean_advantages_and_perfect_critic_give_zero(self):
        bundle = PolicyBundle(state_dim=6, hidden=(8,), seed=0)
        batch = ppo_batch(bundle, 12, np.random.default_rng(1))
        _, values, _ = bundle.forward(batch[0])
        objective, _ = total_loss(bundle, *batch[:4], values, PpoConfig())
        # ratio is exactly 1 everywhere, so the clip term is the advantage mean
        assert objective == pytest.approx(0.0, abs=1e-12)

    def test_value_term_scales_with_coefficient(self):
        bundle = PolicyBundle(state_dim=5, hidden=(8,), seed=2)
        states, actions, old_log_probs, _, _ = ppo_batch(bundle, 12, np.random.default_rng(3))
        _, values, _ = bundle.forward(states)
        targets = values + 1.0
        zeros = np.zeros(len(actions))
        for coef in (0.5, 2.0):
            cfg = PpoConfig(value_coef=coef)
            objective, _ = total_loss(bundle, states, actions, old_log_probs, zeros, targets, cfg)
            assert objective == pytest.approx(-coef * 1.0)

    def test_entropy_bonus_added(self):
        bundle = PolicyBundle(state_dim=5, hidden=(8,), seed=4)
        batch = ppo_batch(bundle, 12, np.random.default_rng(5))
        base, _ = total_loss(bundle, *batch, PpoConfig())
        with_ent, _ = total_loss(bundle, *batch, PpoConfig(entropy_coef=0.5))
        probs, _, _ = bundle.forward(batch[0])
        entropy = float(np.mean(-np.sum(probs * np.log(probs), axis=1)))
        assert with_ent - base == pytest.approx(0.5 * entropy)

    @pytest.mark.parametrize("entropy_coef", [0.0, 0.3])
    def test_gradients_match_finite_differences(self, entropy_coef):
        bundle = PolicyBundle(state_dim=4, hidden=(6,), seed=6)
        cfg = PpoConfig(entropy_coef=entropy_coef)
        batch = ppo_batch(bundle, 8, np.random.default_rng(7))
        assert_grads_close(*ppo_objective_grads(bundle, batch, cfg))


class TestPolicyBundle:
    def test_probs_sum_to_one(self):
        bundle = PolicyBundle(state_dim=7, hidden=(8, 8), seed=1)
        probs, values, _ = bundle.forward(np.random.default_rng(0).normal(size=(5, 7)))
        assert probs.shape == (5, 3)
        assert values.shape == (5,)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)
        assert probs.min() >= 0.0

    def test_act_log_prob_matches_forward(self):
        bundle = PolicyBundle(state_dim=4, hidden=(8,), seed=2)
        vec = np.arange(4.0)
        action, log_prob, value = bundle.act(vec, np.random.default_rng(3))
        probs, values, _ = bundle.forward(vec)
        assert log_prob == pytest.approx(np.log(probs[0, action]))
        assert value == pytest.approx(values[0])

    def test_greedy_is_argmax(self):
        bundle = PolicyBundle(state_dim=4, hidden=(8,), seed=5)
        vec = np.ones(4)
        probs, _, _ = bundle.forward(vec)
        assert bundle.greedy(vec) == int(np.argmax(probs[0]))

    def test_checkpoint_roundtrip(self, tmp_path):
        bundle = PolicyBundle(state_dim=6, hidden=(8, 4), seed=7)
        path = str(tmp_path / "policy.json")
        bundle.save(path)
        loaded = PolicyBundle.from_checkpoint(path)
        x = np.random.default_rng(1).normal(size=(3, 6))
        p1, v1, _ = bundle.forward(x)
        p2, v2, _ = loaded.forward(x)
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(v1, v2)

    def test_checkpoint_kind_mismatch(self, tmp_path):
        path = str(tmp_path / "other.json")
        nn.save_weights(path, {"w": np.zeros(2)}, {"kind": "something_else"})
        with pytest.raises(nn.CheckpointError, match="drl_ppo"):
            PolicyBundle.from_checkpoint(path)

    def test_needs_hidden_layer(self):
        with pytest.raises(ValueError):
            PolicyBundle(state_dim=4, hidden=())


class TestPolicyUpdate:
    def test_successful_update_changes_params(self):
        bundle = PolicyBundle(state_dim=5, hidden=(8,), seed=0)
        optimizer = nn.Adam(bundle.params(), lr=1e-3)
        batch = ppo_batch(bundle, 16, np.random.default_rng(1))
        before = [p.copy() for p in bundle.params()]
        cfg = PpoConfig(epochs=2, minibatch=8)
        ok = policy_update(bundle, optimizer, *batch, cfg, np.random.default_rng(2))
        assert ok
        assert any(not np.array_equal(b, p) for b, p in zip(before, bundle.params()))

    def test_nan_batch_restores_params_and_optimizer(self):
        bundle = PolicyBundle(state_dim=5, hidden=(8,), seed=3)
        optimizer = nn.Adam(bundle.params(), lr=1e-3)
        states, actions, old_log_probs, advantages, targets = ppo_batch(
            bundle, 16, np.random.default_rng(4)
        )
        # warm the optimizer so restoration has nontrivial state to preserve
        policy_update(
            bundle, optimizer, states, actions, old_log_probs, advantages, targets,
            PpoConfig(epochs=1, minibatch=8), np.random.default_rng(5),
        )
        before = [p.copy() for p in bundle.params()]
        t_before = optimizer.t
        m_before = optimizer.m.copy()
        v_before = optimizer.v.copy()
        advantages = advantages.copy()
        advantages[3] = np.nan
        ok = policy_update(
            bundle, optimizer, states, actions, old_log_probs, advantages, targets,
            PpoConfig(epochs=2, minibatch=4), np.random.default_rng(6),
        )
        assert not ok
        for b, p in zip(before, bundle.params()):
            np.testing.assert_array_equal(b, p)
        assert optimizer.t == t_before
        np.testing.assert_array_equal(optimizer.m, m_before)
        np.testing.assert_array_equal(optimizer.v, v_before)


class TestPpoConfig:
    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            PpoConfig(clip_epsilon=0.0)
        with pytest.raises(ValueError):
            PpoConfig(gamma=1.5)
        with pytest.raises(ValueError):
            PpoConfig(lam=-0.1)
        with pytest.raises(ValueError):
            PpoConfig(epochs=0)
        with pytest.raises(ValueError):
            PpoConfig(hidden=())
        with pytest.raises(ValueError, match="hidden"):
            PpoConfig(hidden=(16, 0))
        with pytest.raises(ValueError, match="lr must be positive"):
            PpoConfig(lr=0.0)
        with pytest.raises(ValueError, match="weight_decay must be nonnegative"):
            PpoConfig(weight_decay=-1e-4)
        with pytest.raises(ValueError, match="value_coef must be nonnegative"):
            PpoConfig(value_coef=-1.0)
        with pytest.raises(ValueError, match="entropy_coef must be nonnegative"):
            PpoConfig(entropy_coef=-0.5)
        with pytest.raises(ValueError, match="episodes_test must be at least 1"):
            PpoConfig(episodes_test=0)


def short_cfg(**kw):
    kw.setdefault("episodes_train", 4)
    kw.setdefault("episodes_test", 2)
    kw.setdefault("epochs", 2)
    kw.setdefault("hidden", (16, 16))
    return PpoConfig(**kw)


# -- the per-run, per-slot loops that the lockstep ones replaced, kept as the
# reference they must equal bit for bit

def reference_rollout(env, bundle, rng, reset_seed):
    state = env.reset(seed=reset_seed)
    states, actions, log_probs, rewards, values = [], [], [], [], []
    total = 0.0
    done = False
    while not done:
        vec = state_vector(state, env.stats)
        probs, vals, _ = bundle.forward(vec)
        p = probs[0]
        action = int(rng.choice(len(hub.ACTIONS), p=p / p.sum()))
        state, reward, done = env.step(action)
        states.append(vec)
        actions.append(action)
        log_probs.append(float(np.log(max(p[action], 1e-300))))
        rewards.append(reward)
        values.append(float(vals[0]))
        total += reward
    return (
        np.stack(states),
        np.array(actions, dtype=np.int64),
        np.array(log_probs),
        np.array(rewards),
        np.array(values),
        total,
    )


def reference_train(env, bundle, cfg, seed):
    optimizer = nn.Adam(bundle.params(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    curve = []
    failures = 0
    for episode in range(cfg.episodes_train):
        states, actions, old_log_probs, rewards, values, total = reference_rollout(
            env,
            bundle,
            spawn_rng(seed, "actions", episode),
            reset_seed=spawn_seed(seed, "reset", episode),
        )
        advantages, targets = compute_advantages(rewards, values, cfg.gamma, cfg.lam)
        ok = policy_update(
            bundle,
            optimizer,
            states,
            actions,
            old_log_probs,
            advantages,
            targets,
            cfg,
            rng=spawn_rng(seed, "minibatch", episode),
        )
        failures = 0 if ok else failures + 1
        if failures >= 3:
            raise TrainingAbort(f"3 consecutive update failures at episode {episode}")
        curve.append((episode, total, total / env.episode_days))
    return curve


def reference_evaluate(env, bundle, episodes, seed, policy=None):
    """Greedy episode-major running total; policy(state) overrides the bundle."""
    total = 0.0
    for episode in range(episodes):
        state = env.reset(seed=spawn_seed(seed, "eval", episode))
        done = False
        while not done:
            if policy is None:
                action = bundle.greedy(state_vector(state, env.stats))
            else:
                action = policy(state)
            state, reward, done = env.step(action)
            total += reward
    return total / (episodes * env.episode_days)


class TestTrain:
    def test_curve_shape_and_daily_mean(self):
        env = make_env(episode_days=1, window=4)
        bundle = PolicyBundle(env.state_dim, hidden=(16, 16), seed=0)
        (curve,) = train([env], [bundle], short_cfg(), [1])
        assert len(curve) == 4
        for i, (episode, total, daily) in enumerate(curve):
            assert episode == i
            assert daily == pytest.approx(total / 1)

    def test_training_is_deterministic(self):
        curves = []
        for _ in range(2):
            env = make_env(episode_days=1, window=4)
            bundle = PolicyBundle(env.state_dim, hidden=(16, 16), seed=0)
            curves.append(train([env], [bundle], short_cfg(), [5]))
        assert curves[0] == curves[1]

    def test_abort_after_three_failures(self, monkeypatch):
        env = make_env(episode_days=1, window=4)
        bundle = PolicyBundle(env.state_dim, hidden=(16, 16), seed=0)
        monkeypatch.setattr(scheduler, "policy_update", lambda *a, **k: False)
        with pytest.raises(TrainingAbort, match="3 consecutive"):
            train([env], [bundle], short_cfg(episodes_train=10), [2])

    def test_abort_names_the_failing_run_and_episode(self, monkeypatch):
        env = make_env(episode_days=1, window=4)
        bundles = [PolicyBundle(env.state_dim, hidden=(16, 16), seed=s) for s in range(3)]
        real_update = scheduler.policy_update
        calls = []

        def update(bundle, *args, **kwargs):
            calls.append(bundle)
            if bundle is bundles[1]:
                return False
            return real_update(bundle, *args, **kwargs)

        monkeypatch.setattr(scheduler, "policy_update", update)
        with pytest.raises(TrainingAbort, match="run 1: 3 consecutive .* at episode 2") as info:
            train([env] * 3, bundles, short_cfg(episodes_train=10), [0, 1, 2])
        assert info.value.run == 1
        # the population stops at the third failure, before run 2's third update
        assert calls == bundles * 2 + bundles[:2]

    def test_rejects_mismatched_populations(self):
        env = make_env(episode_days=1, window=4)
        other = make_env(episode_days=1, window=2)
        bundle = PolicyBundle(env.state_dim, hidden=(16, 16), seed=0)
        with pytest.raises(ValueError, match="one env, bundle and seed per run"):
            train([env, env], [bundle], short_cfg(), [0, 1])
        with pytest.raises(ValueError, match="run 1 differs"):
            train([env, other], [bundle, bundle], short_cfg(), [0, 1])
        small = PolicyBundle(env.state_dim, hidden=(8,), seed=0)
        with pytest.raises(ValueError, match="run 1 differs"):
            train([env, env], [bundle, small], short_cfg(), [0, 1])
        bigger = make_env(episode_days=1, window=4, battery=hub.BatterySpec(capacity_kwh=60.0))
        with pytest.raises(ValueError, match="run 1 differs"):
            evaluate([env, bigger], [bundle, bundle], 1, [0, 1])


def force_action(bundle, action):
    """Pin the actor head so every state maps to one action."""
    w, b = bundle.actor.weights[0], bundle.actor.biases[0]
    w[...] = 0.0
    b[...] = 0.0
    b[action] = 50.0


class TestEvaluate:
    def test_matches_manual_greedy_rollouts(self):
        env = make_env(episode_days=1, window=4)
        bundle = PolicyBundle(env.state_dim, hidden=(16,), seed=1)
        (got,) = evaluate([env], [bundle], episodes=3, seeds=[9])
        assert got.hex() == reference_evaluate(env, bundle, 3, 9).hex()

    def test_forced_idle_policy_matches_idle_profit(self):
        env = make_env(episode_days=1, window=4, initial_soc_kwh=20.0)
        bundle = PolicyBundle(env.state_dim, hidden=(16,), seed=2)
        force_action(bundle, IDLE)
        (got,) = evaluate([env], [bundle], episodes=2, seeds=[4])
        expected = reference_evaluate(env, bundle, 2, 4, policy=lambda state: IDLE)
        assert got.hex() == expected.hex()

    def test_population_matches_runs_one_by_one(self):
        # shared env objects, different eval seeds, free and fixed initial soc
        a = make_env(episode_days=1, window=4)
        b = make_env(episode_days=1, window=4, seed=3, initial_soc_kwh=44.0, wt_capacity_kw=3.0)
        envs = [a, b, a, b, a]
        bundles = [PolicyBundle(a.state_dim, hidden=(16, 8), seed=s) for s in range(5)]
        seeds = [9, 9, 10, 11, 12]
        got = evaluate(envs, bundles, episodes=3, seeds=seeds)
        expected = [reference_evaluate(*run, 3, seed) for *run, seed in zip(envs, bundles, seeds)]
        assert [g.hex() for g in got] == [e.hex() for e in expected]


class TestLockstep:
    def test_stacked_forward_rows_equal_batch_one_forwards(self):
        bundles = [PolicyBundle(13, hidden=(32, 16), seed=s) for s in range(4)]
        states = np.random.default_rng(0).normal(size=(4, 7, 13))
        probs, values = scheduler._PolicyStack(bundles).forward(states)
        for k, bundle in enumerate(bundles):
            for m in range(7):
                p, v, _ = bundle.forward(states[k, m])
                assert probs[k, m].tobytes() == p[0].tobytes()
                assert values[k, m].tobytes() == v[0].tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        logits=st.lists(
            st.floats(-40.0, 40.0, allow_nan=False, allow_infinity=False), min_size=3, max_size=3
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sampling_matches_generator_choice(self, logits, seed):
        probs = nn.act_forward("softmax", np.array([logits]))
        p = probs[0]
        choice_rng, block_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = [int(choice_rng.choice(3, p=p / p.sum())) for _ in range(5)]
        got = scheduler.sample_actions(np.repeat(probs, 5, axis=0), block_rng.random(5))
        assert got.tolist() == expected
        # both streams stand at the same point afterwards
        assert choice_rng.random() == block_rng.random()

    def test_sampling_rejects_non_finite_probabilities(self):
        with pytest.raises(ValueError):
            scheduler.sample_actions(np.array([[np.nan, 0.5, 0.5]]), np.array([0.3]))

    def test_soc_rule_equals_scalar_fallback_and_soc_step(self):
        cfg = hub.HubConfig()
        spec, dt = cfg.battery, cfg.slot_hours
        up = spec.eta_charge * spec.r_charge_kw * dt
        down = spec.r_discharge_kw * dt
        # the soc bounds, the last socs that may charge or discharge, their
        # float neighbours, and values in between
        edges = [spec.soc_min_kwh, spec.soc_max_kwh, spec.soc_max_kwh - up, spec.soc_min_kwh + down]
        socs = sorted(
            {x for e in edges for x in (np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf))}
            | set(np.linspace(spec.soc_min_kwh, spec.soc_max_kwh, 9).tolist())
        )
        socs = [s for s in socs if spec.soc_min_kwh <= s <= spec.soc_max_kwh]
        grid = np.array([(s, a) for s in socs for a in hub.ACTIONS])
        soc, actions = grid[:, 0], grid[:, 1].astype(np.int64)
        got, after = scheduler._settler(cfg)(soc, actions)
        for s, a, action, next_soc in zip(soc.tolist(), actions.tolist(), got, after.tolist()):
            state = hub.BatteryState(s)
            taken = a if a in hub.feasible_actions(state, spec, dt) else IDLE
            assert action == taken, (s, a)
            assert next_soc.hex() == hub.soc_step(state, spec, taken, dt).soc_kwh.hex(), (s, a)
        # at each boundary both outcomes occur
        assert {t for t, a in zip(got, actions) if a == CHARGE} == {CHARGE, IDLE}
        assert {t for t, a in zip(got, actions) if a == DISCHARGE} == {DISCHARGE, IDLE}

    def test_rollout_equals_reference_rollouts(self):
        envs = [make_env(window=3), make_env(window=3, seed=4, initial_soc_kwh=45.0)]
        envs.append(envs[0])
        bundles = [PolicyBundle(envs[0].state_dim, hidden=(8,), seed=s) for s in range(3)]
        got = scheduler.rollout(
            envs, bundles, [np.random.default_rng(s) for s in range(3)], [7, 8, 7]
        )
        assert len(got[0]) == 3
        for k, (env, bundle) in enumerate(zip(envs, bundles)):
            ref = reference_rollout(env, bundle, np.random.default_rng(k), [7, 8, 7][k])
            assert got[0][k].tobytes() == ref[0].tobytes()
            for name, mine, theirs in zip(
                ("actions", "log_probs", "rewards", "values"), got[1:5], ref[1:5]
            ):
                assert mine[k].tobytes() == theirs.tobytes(), name
            assert got[5][k].hex() == ref[5].hex()

    @settings(max_examples=25, deadline=None)
    @given(
        n_runs=st.integers(1, 5),
        window=st.sampled_from([0, 3]),
        initial_soc_kwh=st.sampled_from([None, 10.0, 27.5]),
        shared=st.booleans(),
        seed=st.integers(0, 1000),
    )
    def test_train_population_equals_sequential_runs(
        self, n_runs, window, initial_soc_kwh, shared, seed
    ):
        cfg = PpoConfig(episodes_train=3, epochs=1, minibatch=8, hidden=(8,), entropy_coef=0.01)

        def envs():
            if shared:
                env = make_env(n_days=3, window=window, initial_soc_kwh=initial_soc_kwh)
                return [env] * n_runs
            return [
                make_env(n_days=3, window=window, seed=k, initial_soc_kwh=initial_soc_kwh)
                for k in range(n_runs)
            ]

        def bundles(population):
            return [
                PolicyBundle(env.state_dim, hidden=cfg.hidden, seed=seed + k)
                for k, env in enumerate(population)
            ]

        seeds = [seed + 100 * k for k in range(n_runs)]
        population = envs()
        trained = bundles(population)
        curves = train(population, trained, cfg, seeds)
        alone = envs()
        for k, (env, bundle) in enumerate(zip(alone, bundles(alone))):
            expected = reference_train(env, bundle, cfg, seeds[k])
            assert [(e, t.hex(), d.hex()) for e, t, d in curves[k]] == [
                (e, t.hex(), d.hex()) for e, t, d in expected
            ]
            assert trained[k].flat.tobytes() == bundle.flat.tobytes()


def flat_inputs(n, rtp, load=1.0, srtp=0.0, cs=0, wt=0.0, pv=0.0):
    return [
        hub.SlotInputs(load_rate=load, cs_active=cs, p_wt_kw=wt, p_pv_kw=pv, rtp=r, srtp=srtp)
        for r in ([rtp] * n if np.isscalar(rtp) else rtp)
    ]


def arb_cfg(c_bp=0.0):
    # charge stores 2 kWh/slot (4 kW at 50% efficiency), discharge delivers
    # 2 kW from a 2 kWh/slot draw; all deltas are exact binary fractions
    spec = hub.BatterySpec(
        capacity_kwh=16.0,
        soc_min_kwh=2.0,
        soc_max_kwh=6.0,
        r_charge_kw=4.0,
        r_discharge_kw=2.0,
        eta_charge=0.5,
        eta_discharge=1.0,
    )
    return hub.HubConfig(
        p_bs_min_kw=4.0, p_bs_max_kw=4.0, battery=spec, c_bp=c_bp, t_recovery_slots=0
    )


class TestDpOracle:
    def test_flat_price_stays_idle(self):
        cfg = arb_cfg(c_bp=0.01)
        inputs = flat_inputs(6, rtp=0.125)
        profit, actions = dp_oracle(
            cfg, profit_rows(cfg, inputs), initial_soc_kwh=2.0, resolution=2.0
        )
        assert actions == [IDLE] * 6
        per_slot = hub.step(cfg, hub.BatteryState(2.0), inputs[0], IDLE).profit
        assert profit == 6 * per_slot

    def test_exact_tie_prefers_idle(self):
        # round-trip value exactly cancels: charging 4 kW at 0.125 costs 0.5,
        # discharging 2 kW at 0.25 saves 0.5, wear is zero
        cfg = arb_cfg(c_bp=0.0)
        inputs = flat_inputs(2, rtp=[0.125, 0.25])
        profit, actions = dp_oracle(
            cfg, profit_rows(cfg, inputs), initial_soc_kwh=2.0, resolution=2.0
        )
        assert actions == [IDLE, IDLE]
        assert profit == -(4 * 0.125) - (4 * 0.25)

    def test_profitable_spread_charges_then_discharges(self):
        cfg = arb_cfg(c_bp=0.01)
        inputs = flat_inputs(2, rtp=[0.125, 0.5])
        profit, actions = dp_oracle(
            cfg, profit_rows(cfg, inputs), initial_soc_kwh=2.0, resolution=2.0
        )
        assert actions == [CHARGE, DISCHARGE]
        # slot 0: grid (4+4) kW at 0.125 plus wear; slot 1: grid (4-2) kW at 0.5 plus wear
        assert profit == pytest.approx(-(8 * 0.125 + 0.01) - (2 * 0.5 + 0.01))

    def test_unprofitable_spread_stays_idle(self):
        cfg = arb_cfg(c_bp=0.01)
        inputs = flat_inputs(2, rtp=[0.125, 0.25])
        _, actions = dp_oracle(cfg, profit_rows(cfg, inputs), initial_soc_kwh=2.0, resolution=2.0)
        assert actions == [IDLE, IDLE]

    def test_rejects_off_lattice_resolution(self):
        cfg = arb_cfg()
        inputs = flat_inputs(2, rtp=0.125)
        with pytest.raises(hub.ConfigError, match="charge step"):
            dp_oracle(cfg, profit_rows(cfg, inputs), initial_soc_kwh=2.0, resolution=1.5)

    def test_rejects_off_lattice_initial_soc(self):
        cfg = arb_cfg()
        inputs = flat_inputs(2, rtp=0.125)
        with pytest.raises(hub.ConfigError, match="initial soc"):
            dp_oracle(cfg, profit_rows(cfg, inputs), initial_soc_kwh=2.5, resolution=2.0)

    def test_rejects_nonpositive_resolution(self):
        cfg = arb_cfg()
        with pytest.raises(hub.ConfigError, match="resolution"):
            dp_oracle(
                cfg, profit_rows(cfg, flat_inputs(1, rtp=0.1)), initial_soc_kwh=2.0, resolution=0.0
            )

    def test_rejects_rows_that_are_not_profit_rows(self):
        cfg = arb_cfg()
        with pytest.raises(ValueError, match="profit rows"):
            dp_oracle(cfg, np.zeros((2, 2)), initial_soc_kwh=2.0, resolution=2.0)
        with pytest.raises(ValueError, match="profit rows"):
            dp_oracle(cfg, np.zeros(4), initial_soc_kwh=2.0, resolution=2.0)

    def test_rejects_initial_soc_outside_bounds(self):
        cfg = arb_cfg()
        with pytest.raises(hub.ConfigError):
            dp_oracle(
                cfg, profit_rows(cfg, flat_inputs(1, rtp=0.1)), initial_soc_kwh=8.0, resolution=2.0
            )

    @staticmethod
    def node_by_node(cfg, inputs, initial_soc_kwh, resolution):
        """Backward induction one lattice node at a time; ties go to idle, then charge."""
        spec = cfg.battery
        m = round((spec.soc_max_kwh - spec.soc_min_kwh) / resolution)
        up = round(spec.eta_charge * spec.r_charge_kw * cfg.slot_hours / resolution)
        down = round(spec.r_discharge_kw * cfg.slot_hours / resolution)
        options = ((IDLE, 0), (CHARGE, up), (DISCHARGE, -down))
        value = [0.0] * (m + 1)
        plans = []
        for slot in reversed(inputs):
            best = [(-np.inf, options[0])] * (m + 1)
            for i in range(m + 1):
                state = hub.BatteryState(spec.soc_min_kwh + i * resolution)
                for option in options:
                    action, move = option
                    if 0 <= i + move <= m:
                        cand = hub.step(cfg, state, slot, action).profit + value[i + move]
                        if cand > best[i][0]:
                            best[i] = (cand, option)
            value = [v for v, _ in best]
            plans.append([option for _, option in best])
        i0 = i = round((initial_soc_kwh - spec.soc_min_kwh) / resolution)
        actions = []
        for plan in reversed(plans):
            act, move = plan[i]
            actions.append(act)
            i += move
        return value[i0], actions

    def test_matches_node_by_node_induction(self):
        # long horizons and dyadic prices: many exact ties across a wide lattice
        spec = hub.BatterySpec(
            capacity_kwh=16.0,
            soc_min_kwh=2.0,
            soc_max_kwh=14.0,
            r_charge_kw=4.0,
            r_discharge_kw=3.0,
            eta_charge=0.5,
            eta_discharge=1.0,
        )
        cfg = hub.HubConfig(
            p_bs_min_kw=4.0, p_bs_max_kw=4.0, battery=spec, c_bp=0.0, t_recovery_slots=0
        )
        rng = np.random.default_rng(5)
        for trial in range(3):
            inputs = flat_inputs(30, rtp=list(rng.integers(1, 5, size=30) / 8.0))
            initial = 2.0 + float(rng.integers(0, 13))
            got = dp_oracle(cfg, profit_rows(cfg, inputs), initial, resolution=1.0)
            assert got == self.node_by_node(cfg, inputs, initial, 1.0), f"trial {trial}"

    def test_action_infeasible_from_every_soc_is_never_taken(self):
        # 0.1 + 0.2 > 0.3 in floats: soc_step refuses the one charge the
        # lattice (span 0.2 = one charge step) would allow
        spec = hub.BatterySpec(
            capacity_kwh=1.0,
            soc_min_kwh=0.1,
            soc_max_kwh=0.3,
            r_charge_kw=0.2,
            r_discharge_kw=0.1,
            eta_charge=1.0,
            eta_discharge=1.0,
        )
        cfg = hub.HubConfig(
            p_bs_min_kw=4.0, p_bs_max_kw=4.0, battery=spec, c_bp=0.0, t_recovery_slots=0
        )
        inputs = flat_inputs(3, rtp=[0.125, 1.0, 1.0])
        profit, actions = dp_oracle(
            cfg, profit_rows(cfg, inputs), initial_soc_kwh=0.1, resolution=0.1
        )
        assert CHARGE not in actions
        assert profit == brute_force_best(cfg, inputs, 0.1)

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(12)
        for trial in range(5):
            cfg, inputs, initial, res = lattice_dp_case(rng, 6)
            profit, actions = dp_oracle(cfg, profit_rows(cfg, inputs), initial, res)
            assert profit == brute_force_best(cfg, inputs, initial), f"trial {trial}"
            # the reported plan must achieve the reported value
            assert plan_profit(cfg, inputs, initial, actions) == profit, f"trial {trial}"
