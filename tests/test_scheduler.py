import itertools

import numpy as np
import pytest

from hubopt import hub, nn, scheduler
from hubopt.scheduler import (
    ACT_CHARGE,
    ACT_DISCHARGE,
    ACT_IDLE,
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
from hubopt.traces import TraceSet, gen_rtp, gen_traffic, gen_weather

from fdcheck import assert_grads_close, central_diff_grads


def make_traces(n_slots, seed=0):
    rtp = gen_rtp(seed, n_slots)
    wind, irr = gen_weather(seed + 1, n_slots)
    load = gen_traffic(seed + 2, n_slots)
    return TraceSet(0, rtp, wind, irr, load, [])


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
    return HubEnv(cfg, env_cfg, ts, srtp, occupancy, seed=seed)


class TestEnvConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            EnvConfig(episode_days=0)
        with pytest.raises(ValueError):
            EnvConfig(window=-1)


class TestNormStats:
    def test_constant_series_get_floor_std(self):
        stats = NormStats.from_series([3.0, 3.0], [1.0, 2.0], [0, 0], [5, 5], [0.4, 0.6])
        assert stats.mean[0] == 3.0
        assert stats.std[0] == 1e-8
        assert stats.std[1] == pytest.approx(0.5)

    def test_state_vector_standardizes(self):
        stats = NormStats(mean=np.array([1.0, 0.0, 0.0, 0.0, 0.0]), std=np.ones(5))
        state = scheduler.EnvState(
            rtp_window=np.array([1.0, 3.0]),
            srtp_window=np.zeros(2),
            weather_window=np.zeros((2, 2)),
            traffic_window=np.zeros(2),
            soc=0.25,
        )
        vec = state_vector(state, stats)
        assert vec.shape == (11,)
        assert vec[0] == 0.0 and vec[1] == 2.0
        assert vec[-1] == 0.25


class TestHubEnv:
    def test_state_dim(self):
        env = make_env(window=4)
        assert env.state_dim == 5 * 5 + 1

    def test_windows_match_traces(self):
        env = make_env(window=6)
        state = env.reset(seed=11)
        t = env.episode_start
        np.testing.assert_array_equal(state.rtp_window, env.rtp[t - 6 : t + 1])
        np.testing.assert_array_equal(state.srtp_window, env.srtp[t - 6 : t + 1])
        np.testing.assert_array_equal(state.traffic_window, env.load_rate[t - 6 : t + 1])
        np.testing.assert_array_equal(state.weather_window[:, 0], env.p_wt[t - 6 : t + 1])
        np.testing.assert_array_equal(state.weather_window[:, 1], env.p_pv[t - 6 : t + 1])
        assert state.weather_window.shape == (7, 2)

    def test_idle_reward_is_negative_grid_cost(self):
        env = make_env(occupancy=np.zeros(6 * 24, dtype=int))
        env.reset(seed=3)
        t = env.episode_start
        p_bs = hub.base_station_power(env.hub_cfg, float(env.load_rate[t]))
        _, reward, _ = env.step(ACT_IDLE)
        assert reward == pytest.approx(-p_bs * env.hub_cfg.slot_hours * env.rtp[t])

    def test_charge_at_full_battery_behaves_as_idle(self):
        soc_max = hub.BatterySpec().soc_max_kwh
        env_a = make_env(initial_soc_kwh=soc_max)
        env_b = make_env(initial_soc_kwh=soc_max)
        state_a = env_a.reset(seed=21)
        state_b = env_b.reset(seed=21)
        assert state_a.soc == state_b.soc
        next_a, reward_a, _ = env_a.step(ACT_CHARGE)
        next_b, reward_b, _ = env_b.step(ACT_IDLE)
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

    def test_initial_soc_out_of_bounds(self):
        env = make_env(initial_soc_kwh=2.0)
        with pytest.raises(ValueError, match="initial soc"):
            env.reset(seed=1)

    def test_reset_seed_reproducible(self):
        env = make_env()
        a = env.reset(seed=9)
        b = env.reset(seed=9)
        assert env.episode_start == env.episode_start
        assert a.soc == b.soc
        np.testing.assert_array_equal(a.rtp_window, b.rtp_window)

    def test_episode_terminates_after_episode_slots(self):
        env = make_env(episode_days=1)
        env.reset(seed=2)
        for i in range(24):
            _, _, done = env.step(ACT_IDLE)
            assert done == (i == 23)

    def test_step_before_reset(self):
        env = make_env()
        with pytest.raises(RuntimeError, match="reset"):
            env.step(ACT_IDLE)

    def test_invalid_action(self):
        env = make_env()
        env.reset(seed=0)
        with pytest.raises(ValueError, match="action"):
            env.step(3)

    def test_traces_too_short(self):
        with pytest.raises(ValueError, match="traces"):
            make_env(n_days=1, episode_days=1, window=4)

    def test_mismatched_series_lengths(self):
        ts = make_traces(72)
        cfg = hub.HubConfig()
        with pytest.raises(ValueError, match="srtp"):
            HubEnv(cfg, EnvConfig(episode_days=1, window=2), ts, ts.rtp[:50], np.zeros(72, dtype=int))
        with pytest.raises(ValueError, match="occupancy"):
            HubEnv(cfg, EnvConfig(episode_days=1, window=2), ts, ts.rtp, np.zeros(50, dtype=int))

    def test_bad_occupancy_values(self):
        ts = make_traces(72)
        occ = np.full(72, 2, dtype=int)
        with pytest.raises(ValueError, match="occupancy"):
            HubEnv(hub.HubConfig(), EnvConfig(episode_days=1, window=2), ts, ts.rtp, occ)

    def test_step_rewards_equal_scalar_hub_step(self):
        # the table lookup must reproduce hub.step on every slot, idle fallback included
        env = make_env(n_days=4, episode_days=2, initial_soc_kwh=44.0, wt_capacity_kw=3.0)
        env.reset(seed=4)
        spec = env.hub_cfg.battery
        to_hub = {ACT_CHARGE: hub.CHARGE, ACT_DISCHARGE: hub.DISCHARGE, ACT_IDLE: hub.IDLE}
        rng = np.random.default_rng(4)
        state = hub.BatteryState(44.0)
        for k in range(env.episode_slots):
            action = int(rng.integers(0, 3))
            hub_action = to_hub[action]
            if hub_action not in hub.feasible_actions(state, spec, env.hub_cfg.slot_hours):
                hub_action = hub.IDLE
            slot = env.slot_inputs(env.episode_start + k)
            expected = hub.step(env.hub_cfg, state, slot, hub_action)
            obs, reward, _ = env.step(action)
            assert reward.hex() == expected.profit.hex()
            assert obs.soc == expected.soc_after_kwh / spec.capacity_kwh
            state = hub.BatteryState(expected.soc_after_kwh)

    def test_episode_inputs_align_with_steps(self):
        env = make_env(episode_days=1, occupancy=np.ones(6 * 24, dtype=int))
        env.reset(seed=5)
        inputs = env.episode_inputs()
        assert len(inputs) == 24
        t = env.episode_start
        assert inputs[0].rtp == env.rtp[t]
        assert inputs[23].rtp == env.rtp[t + 23]
        assert inputs[0].srtp == env.srtp[t]


class TestComputeAdvantages:
    def test_no_discount_zero_values_gives_suffix_sums(self):
        rewards = np.array([1.0, 2.0, 3.0])
        values = np.zeros(3)
        adv, targets = compute_advantages(rewards, values, gamma=1.0, lam=1.0, normalize=False)
        np.testing.assert_allclose(adv, [6.0, 5.0, 3.0])
        np.testing.assert_allclose(targets, adv)

    def test_lambda_zero_gives_td_residuals(self):
        rng = np.random.default_rng(4)
        rewards = rng.normal(size=10)
        values = rng.normal(size=10)
        gamma = 0.9
        adv, _ = compute_advantages(rewards, values, gamma=gamma, lam=0.0, normalize=False)
        next_values = np.append(values[1:], 0.0)
        np.testing.assert_allclose(adv, rewards + gamma * next_values - values)

    def test_correct_critic_gives_tiny_early_advantages(self):
        gamma, lam = 0.99, 0.95
        n = 300
        rewards = np.ones(n)
        values = np.full(n, 1.0 / (1.0 - gamma))
        adv, _ = compute_advantages(rewards, values, gamma, lam, normalize=False)
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
        raw, targets_a = compute_advantages(rewards, values, 0.9, 0.8, normalize=False)
        _, targets_b = compute_advantages(rewards, values, 0.9, 0.8, normalize=True)
        np.testing.assert_allclose(targets_a, raw + values)
        np.testing.assert_allclose(targets_b, targets_a)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="matching"):
            compute_advantages(np.ones(3), np.ones(4), 0.9, 0.9)


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


def loss_batch(bundle, n=12, seed=0):
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(n, bundle.state_dim))
    actions = rng.integers(0, 3, size=n)
    probs, values, _ = bundle.forward(states)
    old_log_probs = np.log(probs[np.arange(n), actions])
    advantages = rng.normal(size=n)
    advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
    targets = values + rng.normal(scale=0.5, size=n)
    return states, actions, old_log_probs, advantages, targets


class TestTotalLoss:
    def test_zero_mean_advantages_and_perfect_critic_give_zero(self):
        bundle = PolicyBundle(state_dim=6, hidden=(8,), seed=0)
        cfg = PpoConfig()
        states, actions, old_log_probs, advantages, _ = loss_batch(bundle, seed=1)
        _, values, _ = bundle.forward(states)
        objective, _ = total_loss(
            bundle, states, actions, old_log_probs, advantages, values, cfg
        )
        # ratio is exactly 1 everywhere, so the clip term is the advantage mean
        assert objective == pytest.approx(0.0, abs=1e-12)

    def test_value_term_scales_with_coefficient(self):
        bundle = PolicyBundle(state_dim=5, hidden=(8,), seed=2)
        states, actions, old_log_probs, _, _ = loss_batch(bundle, seed=3)
        _, values, _ = bundle.forward(states)
        targets = values + 1.0
        zeros = np.zeros(len(actions))
        for coef in (0.5, 2.0):
            cfg = PpoConfig(value_coef=coef)
            objective, _ = total_loss(
                bundle, states, actions, old_log_probs, zeros, targets, cfg
            )
            assert objective == pytest.approx(-coef * 1.0)

    def test_entropy_bonus_added(self):
        bundle = PolicyBundle(state_dim=5, hidden=(8,), seed=4)
        states, actions, old_log_probs, advantages, targets = loss_batch(bundle, seed=5)
        base, _ = total_loss(
            bundle, states, actions, old_log_probs, advantages, targets, PpoConfig()
        )
        with_ent, _ = total_loss(
            bundle,
            states,
            actions,
            old_log_probs,
            advantages,
            targets,
            PpoConfig(entropy_coef=0.5),
        )
        probs, _, _ = bundle.forward(states)
        entropy = float(np.mean(-np.sum(probs * np.log(probs), axis=1)))
        assert with_ent - base == pytest.approx(0.5 * entropy)

    @pytest.mark.parametrize("entropy_coef", [0.0, 0.3])
    def test_gradients_match_finite_differences(self, entropy_coef):
        bundle = PolicyBundle(state_dim=4, hidden=(6,), seed=6)
        cfg = PpoConfig(entropy_coef=entropy_coef)
        states, actions, old_log_probs, advantages, targets = loss_batch(
            bundle, n=8, seed=7
        )
        params = bundle.params()
        _, analytic = total_loss(
            bundle, states, actions, old_log_probs, advantages, targets, cfg
        )
        numeric = central_diff_grads(
            lambda: total_loss(
                bundle, states, actions, old_log_probs, advantages, targets, cfg
            )[0],
            params,
        )
        assert_grads_close(analytic, numeric)


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
        states, actions, old_log_probs, advantages, targets = loss_batch(bundle, n=16, seed=1)
        before = [p.copy() for p in bundle.params()]
        ok = policy_update(
            bundle,
            optimizer,
            states,
            actions,
            old_log_probs,
            advantages,
            targets,
            PpoConfig(epochs=2, minibatch=8),
            np.random.default_rng(2),
        )
        assert ok
        assert any(not np.array_equal(b, p) for b, p in zip(before, bundle.params()))

    def test_nan_batch_restores_params_and_optimizer(self):
        bundle = PolicyBundle(state_dim=5, hidden=(8,), seed=3)
        optimizer = nn.Adam(bundle.params(), lr=1e-3)
        states, actions, old_log_probs, advantages, targets = loss_batch(bundle, n=16, seed=4)
        # warm the optimizer so restoration has nontrivial state to preserve
        policy_update(
            bundle, optimizer, states, actions, old_log_probs, advantages, targets,
            PpoConfig(epochs=1, minibatch=8), np.random.default_rng(5),
        )
        before = [p.copy() for p in bundle.params()]
        t_before = optimizer.t
        m_before = [m.copy() for m in optimizer.m]
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
        for mb, m in zip(m_before, optimizer.m):
            np.testing.assert_array_equal(mb, m)


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


def short_cfg(**kw):
    kw.setdefault("episodes_train", 4)
    kw.setdefault("episodes_test", 2)
    kw.setdefault("epochs", 2)
    kw.setdefault("hidden", (16, 16))
    return PpoConfig(**kw)


class TestTrain:
    def test_curve_shape_and_daily_mean(self):
        env = make_env(episode_days=1, window=4)
        bundle = PolicyBundle(env.state_dim, hidden=(16, 16), seed=0)
        _, curve = train(env, bundle, short_cfg(), seed=1)
        assert len(curve) == 4
        for i, (episode, total, daily) in enumerate(curve):
            assert episode == i
            assert daily == pytest.approx(total / 1)

    def test_training_is_deterministic(self):
        curves = []
        for _ in range(2):
            env = make_env(episode_days=1, window=4)
            bundle = PolicyBundle(env.state_dim, hidden=(16, 16), seed=0)
            _, curve = train(env, bundle, short_cfg(), seed=5)
            curves.append(curve)
        assert curves[0] == curves[1]

    def test_abort_after_three_failures(self, monkeypatch):
        env = make_env(episode_days=1, window=4)
        bundle = PolicyBundle(env.state_dim, hidden=(16, 16), seed=0)
        monkeypatch.setattr(scheduler, "policy_update", lambda *a, **k: False)
        with pytest.raises(TrainingAbort, match="3 consecutive"):
            train(env, bundle, short_cfg(episodes_train=10), seed=2)

    def test_checkpoints_written_and_loadable(self, tmp_path):
        env = make_env(episode_days=1, window=4)
        bundle = PolicyBundle(env.state_dim, hidden=(16, 16), seed=0)
        train(
            env,
            bundle,
            short_cfg(),
            seed=3,
            checkpoint_dir=str(tmp_path),
            checkpoint_interval=2,
        )
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["policy_ep00002.json", "policy_ep00004.json"]
        restored = PolicyBundle.from_checkpoint(str(tmp_path / "policy_ep00004.json"))
        x = np.zeros((1, env.state_dim))
        np.testing.assert_array_equal(
            restored.forward(x)[0], bundle.forward(x)[0]
        )


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
        got = evaluate(env, bundle, episodes=3, seed=9)
        total = 0.0
        from hubopt.seeding import spawn_seed

        for episode in range(3):
            state = env.reset(seed=spawn_seed(9, "eval", episode))
            done = False
            while not done:
                action = bundle.greedy(state_vector(state, env.stats))
                state, reward, done = env.step(action)
                total += reward
        assert got == pytest.approx(total / 3)

    def test_forced_idle_policy_matches_idle_profit(self):
        env = make_env(episode_days=1, window=4, initial_soc_kwh=20.0)
        bundle = PolicyBundle(env.state_dim, hidden=(16,), seed=2)
        force_action(bundle, ACT_IDLE)
        got = evaluate(env, bundle, episodes=2, seed=4)
        total = 0.0
        from hubopt.seeding import spawn_seed

        for episode in range(2):
            env.reset(seed=spawn_seed(4, "eval", episode))
            done = False
            while not done:
                _, reward, done = env.step(ACT_IDLE)
                total += reward
        assert got == pytest.approx(total / 2)

    def test_requires_positive_episodes(self):
        env = make_env()
        bundle = PolicyBundle(env.state_dim, hidden=(8,), seed=0)
        with pytest.raises(ValueError):
            evaluate(env, bundle, episodes=0)


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
        profit, actions = dp_oracle(cfg, inputs, initial_soc_kwh=2.0, resolution=2.0)
        assert actions == [ACT_IDLE] * 6
        per_slot = hub.step(cfg, hub.BatteryState(2.0), inputs[0], hub.IDLE).profit
        assert profit == 6 * per_slot

    def test_exact_tie_prefers_idle(self):
        # round-trip value exactly cancels: charging 4 kW at 0.125 costs 0.5,
        # discharging 2 kW at 0.25 saves 0.5, wear is zero
        cfg = arb_cfg(c_bp=0.0)
        inputs = flat_inputs(2, rtp=[0.125, 0.25])
        profit, actions = dp_oracle(cfg, inputs, initial_soc_kwh=2.0, resolution=2.0)
        assert actions == [ACT_IDLE, ACT_IDLE]
        assert profit == -(4 * 0.125) - (4 * 0.25)

    def test_profitable_spread_charges_then_discharges(self):
        cfg = arb_cfg(c_bp=0.01)
        inputs = flat_inputs(2, rtp=[0.125, 0.5])
        profit, actions = dp_oracle(cfg, inputs, initial_soc_kwh=2.0, resolution=2.0)
        assert actions == [ACT_CHARGE, ACT_DISCHARGE]
        # slot 0: grid (4+4) kW at 0.125 plus wear; slot 1: grid (4-2) kW at 0.5 plus wear
        assert profit == pytest.approx(-(8 * 0.125 + 0.01) - (2 * 0.5 + 0.01))

    def test_unprofitable_spread_stays_idle(self):
        cfg = arb_cfg(c_bp=0.01)
        inputs = flat_inputs(2, rtp=[0.125, 0.25])
        _, actions = dp_oracle(cfg, inputs, initial_soc_kwh=2.0, resolution=2.0)
        assert actions == [ACT_IDLE, ACT_IDLE]

    def test_rejects_off_lattice_resolution(self):
        cfg = arb_cfg()
        inputs = flat_inputs(2, rtp=0.125)
        with pytest.raises(hub.ConfigError, match="charge step"):
            dp_oracle(cfg, inputs, initial_soc_kwh=2.0, resolution=1.5)

    def test_rejects_off_lattice_initial_soc(self):
        cfg = arb_cfg()
        inputs = flat_inputs(2, rtp=0.125)
        with pytest.raises(hub.ConfigError, match="initial soc"):
            dp_oracle(cfg, inputs, initial_soc_kwh=2.5, resolution=2.0)

    def test_rejects_nonpositive_resolution(self):
        cfg = arb_cfg()
        with pytest.raises(hub.ConfigError, match="resolution"):
            dp_oracle(cfg, flat_inputs(1, rtp=0.1), initial_soc_kwh=2.0, resolution=0.0)

    def test_rejects_initial_soc_outside_bounds(self):
        cfg = arb_cfg()
        with pytest.raises(hub.ConfigError):
            dp_oracle(cfg, flat_inputs(1, rtp=0.1), initial_soc_kwh=8.0, resolution=2.0)

    @staticmethod
    def brute_force(cfg, inputs, initial_soc_kwh):
        """Try all action sequences; profit accumulated back to front like the DP."""
        hub_actions = (hub.IDLE, hub.CHARGE, hub.DISCHARGE)
        best = None
        for seq in itertools.product(hub_actions, repeat=len(inputs)):
            state = hub.BatteryState(initial_soc_kwh)
            profits = []
            try:
                for slot, action in zip(inputs, seq):
                    outcome = hub.step(cfg, state, slot, action)
                    profits.append(outcome.profit)
                    state = hub.BatteryState(outcome.soc_after_kwh)
            except hub.FeasibilityError:
                continue
            total = 0.0
            for p in reversed(profits):
                total = p + total
            if best is None or total > best:
                best = total
        return best

    @staticmethod
    def node_by_node(cfg, inputs, initial_soc_kwh, resolution):
        """Backward induction one lattice node at a time; ties go to idle, then charge."""
        spec = cfg.battery
        m = round((spec.soc_max_kwh - spec.soc_min_kwh) / resolution)
        up = round(spec.eta_charge * spec.r_charge_kw * cfg.slot_hours / resolution)
        down = round(spec.r_discharge_kw * cfg.slot_hours / resolution)
        options = (
            (ACT_IDLE, hub.IDLE, 0),
            (ACT_CHARGE, hub.CHARGE, up),
            (ACT_DISCHARGE, hub.DISCHARGE, -down),
        )
        value = [0.0] * (m + 1)
        plans = []
        for slot in reversed(inputs):
            best = [(-np.inf, options[0])] * (m + 1)
            for i in range(m + 1):
                state = hub.BatteryState(spec.soc_min_kwh + i * resolution)
                for option in options:
                    _, action, move = option
                    if 0 <= i + move <= m:
                        cand = hub.step(cfg, state, slot, action).profit + value[i + move]
                        if cand > best[i][0]:
                            best[i] = (cand, option)
            value = [v for v, _ in best]
            plans.append([option for _, option in best])
        i0 = i = round((initial_soc_kwh - spec.soc_min_kwh) / resolution)
        actions = []
        for plan in reversed(plans):
            act, _, move = plan[i]
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
            got = dp_oracle(cfg, inputs, initial, resolution=1.0)
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
        profit, actions = dp_oracle(cfg, inputs, initial_soc_kwh=0.1, resolution=0.1)
        assert ACT_CHARGE not in actions
        assert profit == self.brute_force(cfg, inputs, 0.1)

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(12)
        for trial in range(5):
            res = float(rng.choice([0.25, 0.5]))
            up = int(rng.integers(1, 4))
            down = int(rng.integers(1, 4))
            span = int(rng.integers(max(up, down), 7))
            eta_c = float(rng.choice([0.5, 1.0]))
            spec = hub.BatterySpec(
                capacity_kwh=span * res + 2.0,
                soc_min_kwh=1.0,
                soc_max_kwh=1.0 + span * res,
                r_charge_kw=up * res / eta_c,
                r_discharge_kw=down * res,
                eta_charge=eta_c,
                eta_discharge=float(rng.choice([0.5, 0.75, 1.0])),
            )
            cfg = hub.HubConfig(
                p_bs_min_kw=2.0,
                p_bs_max_kw=6.0,
                r_cs_kw=float(rng.integers(0, 8)),
                battery=spec,
                t_recovery_slots=0,
                c_bp=float(rng.choice([0.0, 0.01])),
            )
            inputs = [
                hub.SlotInputs(
                    load_rate=float(rng.choice([0.0, 0.5, 1.0])),
                    cs_active=int(rng.integers(0, 2)),
                    p_wt_kw=float(rng.integers(0, 4)),
                    p_pv_kw=0.0,
                    rtp=float(rng.integers(1, 64)) / 64.0,
                    srtp=float(rng.integers(0, 64)) / 64.0,
                )
                for _ in range(6)
            ]
            i0 = int(rng.integers(0, span + 1))
            initial = 1.0 + i0 * res
            profit, actions = dp_oracle(cfg, inputs, initial, res)
            assert profit == self.brute_force(cfg, inputs, initial), f"trial {trial}"
            # the reported plan must achieve the reported value
            state = hub.BatteryState(initial)
            replay = []
            hub_action = {ACT_IDLE: hub.IDLE, ACT_CHARGE: hub.CHARGE, ACT_DISCHARGE: hub.DISCHARGE}
            for slot, act in zip(inputs, actions):
                outcome = hub.step(cfg, state, slot, hub_action[act])
                replay.append(outcome.profit)
                state = hub.BatteryState(outcome.soc_after_kwh)
            total = 0.0
            for p in reversed(replay):
                total = p + total
            assert total == profit, f"trial {trial}"
