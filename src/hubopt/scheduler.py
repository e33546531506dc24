"""Battery scheduling: the hub as an episodic decision environment, a PPO
actor-critic that learns when to charge, discharge, or idle, and a clairvoyant
dynamic-programming solver used as a verification bound.

Rewards are the hub's per-slot profit (charging revenue minus grid and battery
wear costs), so a trained policy maximizes exactly what the slot economics
define. Actions the battery cannot take are remapped to idle rather than
masked out of the policy head.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import hub, nn
from .seeding import spawn_rng, spawn_seed
from .traces import TraceSet, pv_power, wt_power

# environment action encoding; distinct from the hub-core signed constants
ACT_CHARGE = 0
ACT_DISCHARGE = 1
ACT_IDLE = 2
N_ACTIONS = 3

_HUB_ACTION = {
    ACT_CHARGE: hub.CHARGE,
    ACT_DISCHARGE: hub.DISCHARGE,
    ACT_IDLE: hub.IDLE,
}


@dataclass(frozen=True)
class EnvConfig:
    episode_days: int = 30
    window: int = 24  # history slots seen by the agent, besides the current one
    initial_soc_kwh: float | None = None  # None: uniform over [soc_min, soc_max]

    def __post_init__(self):
        if self.episode_days <= 0:
            raise ValueError(f"episode_days must be positive, got {self.episode_days}")
        if self.window < 0:
            raise ValueError(f"window must be nonnegative, got {self.window}")


@dataclass(frozen=True)
class NormStats:
    """Trace-level standardization constants for the state vector."""

    mean: np.ndarray  # (5,) rtp, srtp, wind, irradiance, load
    std: np.ndarray  # (5,) floored away from zero

    @classmethod
    def from_series(cls, rtp, srtp, wind, irradiance, load) -> "NormStats":
        rows = [np.asarray(s, dtype=np.float64) for s in (rtp, srtp, wind, irradiance, load)]
        mean = np.array([s.mean() for s in rows])
        std = np.array([max(float(s.std()), 1e-8) for s in rows])
        return cls(mean=mean, std=std)


@dataclass(frozen=True)
class EnvState:
    """Observation at one slot: recent-plus-current windows and the soc level."""

    rtp_window: np.ndarray  # (window + 1,)
    srtp_window: np.ndarray  # (window + 1,)
    weather_window: np.ndarray  # (window + 1, 2): wind power, pv power inputs
    traffic_window: np.ndarray  # (window + 1,)
    soc: float  # fraction of battery capacity, in [0, 1]


def state_vector(state: EnvState, stats: NormStats) -> np.ndarray:
    """Standardized flat feature vector consumed by the policy network."""
    parts = [
        (state.rtp_window - stats.mean[0]) / stats.std[0],
        (state.srtp_window - stats.mean[1]) / stats.std[1],
        (state.weather_window[:, 0] - stats.mean[2]) / stats.std[2],
        (state.weather_window[:, 1] - stats.mean[3]) / stats.std[3],
        (state.traffic_window - stats.mean[4]) / stats.std[4],
        [state.soc],
    ]
    return np.concatenate([np.asarray(p, dtype=np.float64) for p in parts])


class HubEnv:
    """Episodic wrapper around the hub slot physics.

    The exogenous series (prices, weather, traffic, charging occupancy) are
    fixed at construction; each episode reads a contiguous slice starting at a
    random offset, so different episodes see different conditions from the
    same year of traces.
    """

    def __init__(
        self,
        hub_cfg: hub.HubConfig,
        env_cfg: EnvConfig,
        trace_set: TraceSet,
        srtp: np.ndarray,
        occupancy: np.ndarray,
        seed: int = 0,
    ):
        self.hub_cfg = hub_cfg
        self.env_cfg = env_cfg
        self.rtp = np.asarray(trace_set.rtp, dtype=np.float64)
        self.srtp = np.asarray(srtp, dtype=np.float64)
        self.occupancy = np.asarray(occupancy)
        self.load_rate = np.asarray(trace_set.load_rate, dtype=np.float64)
        self.p_wt = wt_power(trace_set.wind_mps, hub_cfg.wt_capacity_kw)
        self.p_pv = pv_power(trace_set.irradiance_wm2, hub_cfg.pv_capacity_kw)
        # every slot's profit under each hub action; validates the series once
        self.profit = hub.profit_table(
            hub_cfg, self.load_rate, self.occupancy, self.p_wt, self.p_pv, self.rtp, self.srtp
        )
        n = len(self.rtp)
        self.slots_per_day = int(round(24.0 / hub_cfg.slot_hours))
        self.episode_days = env_cfg.episode_days
        self.episode_slots = env_cfg.episode_days * self.slots_per_day
        self.window = env_cfg.window
        last_start = n - self.episode_slots - 1
        if last_start < self.window:
            raise ValueError(
                f"traces have {n} slots; an episode needs at least "
                f"{self.window + self.episode_slots + 1} (window + episode + 1)"
            )
        self.last_start = last_start
        spec = hub_cfg.battery
        soc = env_cfg.initial_soc_kwh
        if soc is not None and not spec.soc_min_kwh <= soc <= spec.soc_max_kwh:
            raise ValueError(
                f"initial soc {float(soc)} outside [{spec.soc_min_kwh}, {spec.soc_max_kwh}]"
            )
        self.stats = NormStats.from_series(
            self.rtp, self.srtp, self.p_wt, self.p_pv, self.load_rate
        )
        self._rng = spawn_rng(seed, "env")
        self._t = -1
        self._steps = 0
        self._battery = hub.BatteryState(hub_cfg.battery.soc_min_kwh)
        self.episode_start = -1

    @property
    def state_dim(self) -> int:
        return 5 * (self.window + 1) + 1

    def _observe(self) -> EnvState:
        t = self._t
        lo = t - self.window
        weather = np.stack([self.p_wt[lo : t + 1], self.p_pv[lo : t + 1]], axis=1)
        return EnvState(
            rtp_window=self.rtp[lo : t + 1].copy(),
            srtp_window=self.srtp[lo : t + 1].copy(),
            weather_window=weather,
            traffic_window=self.load_rate[lo : t + 1].copy(),
            soc=self._battery.soc_kwh / self.hub_cfg.battery.capacity_kwh,
        )

    def reset(self, seed: int | None = None) -> EnvState:
        rng = self._rng if seed is None else np.random.default_rng(seed)
        self.episode_start = int(rng.integers(self.window, self.last_start + 1))
        self._t = self.episode_start
        self._steps = 0
        spec = self.hub_cfg.battery
        if self.env_cfg.initial_soc_kwh is not None:
            soc = float(self.env_cfg.initial_soc_kwh)
        else:
            soc = float(rng.uniform(spec.soc_min_kwh, spec.soc_max_kwh))
        self._battery = hub.BatteryState(soc)
        return self._observe()

    def slot_inputs(self, t: int) -> hub.SlotInputs:
        return hub.SlotInputs(
            load_rate=float(self.load_rate[t]),
            cs_active=int(self.occupancy[t]),
            p_wt_kw=float(self.p_wt[t]),
            p_pv_kw=float(self.p_pv[t]),
            rtp=float(self.rtp[t]),
            srtp=float(self.srtp[t]),
        )

    def episode_inputs(self, start: int | None = None) -> list[hub.SlotInputs]:
        """The exogenous inputs an episode starting at `start` will see."""
        if start is None:
            start = self.episode_start
        if start < 0:
            raise ValueError("no episode started yet and no start given")
        return [self.slot_inputs(t) for t in range(start, start + self.episode_slots)]

    def step(self, action: int) -> tuple[EnvState, float, bool]:
        if self._t < 0:
            raise RuntimeError("call reset() before step()")
        if action not in _HUB_ACTION:
            raise ValueError(f"action must be in {{0, 1, 2}}, got {action}")
        hub_action = _HUB_ACTION[action]
        spec, dt = self.hub_cfg.battery, self.hub_cfg.slot_hours
        if hub_action not in hub.feasible_actions(self._battery, spec, dt):
            hub_action = hub.IDLE
        reward = float(self.profit[self._t, hub.ACTIONS.index(hub_action)])
        self._battery = hub.soc_step(self._battery, spec, hub_action, dt)
        self._t += 1
        self._steps += 1
        done = self._steps >= self.episode_slots
        return self._observe(), reward, done


@dataclass(frozen=True)
class PpoConfig:
    clip_epsilon: float = 0.2
    value_coef: float = 0.5
    entropy_coef: float = 0.0
    gamma: float = 0.99
    lam: float = 0.95
    epochs: int = 4
    minibatch: int = 64
    lr: float = 1e-3
    weight_decay: float = 1e-4
    episodes_train: int = 500
    episodes_test: int = 100
    hidden: tuple[int, ...] = (64, 64)

    def __post_init__(self):
        if not 0.0 < self.clip_epsilon < 1.0:
            raise ValueError(f"clip_epsilon must be in (0, 1), got {self.clip_epsilon}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must be in [0, 1], got {self.lam}")
        if self.epochs < 1 or self.minibatch < 1:
            raise ValueError("epochs and minibatch must be at least 1")
        if self.episodes_train < 0 or self.episodes_test < 0:
            raise ValueError("episode counts must be nonnegative")
        if not self.hidden:
            raise ValueError("policy needs at least one hidden layer")


class TrainingAbort(RuntimeError):
    """Raised when parameter updates keep failing and training cannot proceed."""


class PolicyBundle(nn.Module):
    """Shared trunk with a 3-action softmax actor and a scalar critic."""

    KIND = "drl_ppo"
    META = ("state_dim", "hidden")

    def __init__(self, state_dim: int, hidden: Sequence[int] = (64, 64), seed: int = 0):
        if not hidden:
            raise ValueError("policy needs at least one hidden layer")
        rng = np.random.default_rng(seed)
        self.state_dim = int(state_dim)
        self.hidden = tuple(int(h) for h in hidden)
        self.trunk = nn.DenseNet(
            [self.state_dim, *self.hidden], ["relu"] * len(self.hidden), rng
        )
        self.actor = nn.DenseNet([self.hidden[-1], N_ACTIONS], ["softmax"], rng)
        self.critic = nn.DenseNet([self.hidden[-1], 1], ["identity"], rng)
        super().__init__([("trunk.", self.trunk), ("actor.", self.actor), ("critic.", self.critic)])

    def forward(self, states: np.ndarray):
        """Returns (action probs (n, 3), values (n,), cache)."""
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        h, trunk_cache = self.trunk.forward(states)
        probs, actor_cache = self.actor.forward(h)
        values, critic_cache = self.critic.forward(h)
        return probs, values[:, 0], (trunk_cache, actor_cache, critic_cache)

    def backward(self, cache, grad_probs: np.ndarray, grad_values: np.ndarray):
        trunk_cache, actor_cache, critic_cache = cache
        g_actor, grad_h_a = self.actor.backward(actor_cache, grad_probs)
        g_critic, grad_h_c = self.critic.backward(
            critic_cache, np.asarray(grad_values)[:, None]
        )
        g_trunk, _ = self.trunk.backward(trunk_cache, grad_h_a + grad_h_c)
        return g_trunk + g_actor + g_critic

    def act(self, state_vec: np.ndarray, rng: np.random.Generator):
        """Sample an action; returns (action, log_prob, value_estimate)."""
        probs, values, _ = self.forward(state_vec)
        p = probs[0]
        action = int(rng.choice(N_ACTIONS, p=p / p.sum()))
        return action, float(np.log(max(p[action], 1e-300))), float(values[0])

    def greedy(self, state_vec: np.ndarray) -> int:
        probs, _, _ = self.forward(state_vec)
        return int(np.argmax(probs[0]))


def compute_advantages(
    rewards: np.ndarray, values: np.ndarray, gamma: float, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimates and critic targets for one episode.

    The trajectory is treated as complete: the value beyond the final slot is
    zero. Targets are raw advantages plus values; normalization (zero mean,
    unit variance) applies to the returned advantages only.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if rewards.shape != values.shape or rewards.ndim != 1:
        raise ValueError(
            f"rewards and values must be matching vectors, got "
            f"{rewards.shape} and {values.shape}"
        )
    next_values = np.append(values[1:], 0.0)
    deltas = rewards + gamma * next_values - values
    adv = np.empty_like(deltas)
    acc = 0.0
    for t in range(len(deltas) - 1, -1, -1):
        acc = deltas[t] + gamma * lam * acc
        adv[t] = acc
    targets = adv + values
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    return adv, targets


def ppo_clip_term(new_log_prob, old_log_prob, advantage, clip_epsilon: float):
    """Clipped surrogate objective term, elementwise."""
    ratio = np.exp(np.asarray(new_log_prob) - np.asarray(old_log_prob))
    advantage = np.asarray(advantage)
    clipped = np.clip(ratio, 1.0 - clip_epsilon, 1.0 + clip_epsilon)
    return np.minimum(ratio * advantage, clipped * advantage)


def total_loss(
    bundle: PolicyBundle,
    states: np.ndarray,
    actions: np.ndarray,
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    targets: np.ndarray,
    cfg: PpoConfig,
) -> tuple[float, list[np.ndarray]]:
    """Objective J (to be ascended) and its parameter gradients.

    J = mean clip term - value_coef * MSE(V, targets) + entropy_coef * entropy.
    The returned gradients are of J itself; descend on their negation.
    """
    states = np.asarray(states, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.int64)
    old_log_probs = np.asarray(old_log_probs, dtype=np.float64)
    advantages = np.asarray(advantages, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    n = len(actions)
    probs, values, cache = bundle.forward(states)
    rows = np.arange(n)
    p_a = probs[rows, actions]
    new_log_probs = np.log(np.maximum(p_a, 1e-300))
    eps = cfg.clip_epsilon
    j_clip = float(np.mean(ppo_clip_term(new_log_probs, old_log_probs, advantages, eps)))
    verr = values - targets
    value_mse = float(np.mean(verr * verr))
    objective = j_clip - cfg.value_coef * value_mse

    grad_probs = np.zeros_like(probs)
    # the clip term has zero slope where the clipped branch is active
    ratio = np.exp(new_log_probs - old_log_probs)
    unclipped = ((advantages >= 0) & (ratio <= 1 + eps)) | (
        (advantages < 0) & (ratio >= 1 - eps)
    )
    grad_probs[rows, actions] = (
        unclipped * advantages * np.exp(-old_log_probs) / n
    )
    if cfg.entropy_coef != 0.0:
        safe = np.maximum(probs, 1e-300)
        objective += cfg.entropy_coef * float(np.mean(-np.sum(safe * np.log(safe), axis=1)))
        grad_probs += cfg.entropy_coef * (-(np.log(safe) + 1.0)) / n
    grad_values = -2.0 * cfg.value_coef * verr / n
    grads = bundle.backward(cache, grad_probs, grad_values)
    return objective, grads


def policy_update(
    bundle: PolicyBundle,
    optimizer: nn.Adam,
    states: np.ndarray,
    actions: np.ndarray,
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    targets: np.ndarray,
    cfg: PpoConfig,
    rng: np.random.Generator,
) -> bool:
    """Run the configured epochs of minibatch ascent over one episode batch.

    Returns False and restores the pre-update parameters and optimizer state
    if any loss or gradient goes non-finite.
    """
    params = bundle.params()
    saved = (bundle.flat.copy(), optimizer.m.copy(), optimizer.v.copy(), optimizer.t)

    def restore():
        bundle.flat[...], optimizer.m[...], optimizer.v[...] = saved[:3]
        optimizer.t = saved[3]

    n = len(actions)
    try:
        for _ in range(cfg.epochs):
            order = rng.permutation(n)
            for lo in range(0, n, cfg.minibatch):
                idx = order[lo : lo + cfg.minibatch]
                objective, grads = total_loss(
                    bundle,
                    states[idx],
                    actions[idx],
                    old_log_probs[idx],
                    advantages[idx],
                    targets[idx],
                    cfg,
                )
                if not np.isfinite(objective):
                    restore()
                    return False
                optimizer.step(params, [-g for g in grads])
    except nn.NonFiniteGradientError:
        restore()
        return False
    return True


def rollout(env: HubEnv, bundle: PolicyBundle, rng: np.random.Generator, reset_seed: int):
    """Sample one episode.

    Returns (states, actions, log_probs, rewards, values, total_reward), the
    arrays holding one row per slot and states as standardized vectors.
    """
    state = env.reset(seed=reset_seed)
    states, actions, log_probs, rewards, values = [], [], [], [], []
    total = 0.0
    done = False
    while not done:
        vec = state_vector(state, env.stats)
        action, log_prob, value = bundle.act(vec, rng)
        state, reward, done = env.step(action)
        states.append(vec)
        actions.append(action)
        log_probs.append(log_prob)
        rewards.append(reward)
        values.append(value)
        total += reward
    return (
        np.stack(states),
        np.array(actions, dtype=np.int64),
        np.array(log_probs),
        np.array(rewards),
        np.array(values),
        total,
    )


def train(
    env: HubEnv, bundle: PolicyBundle, cfg: PpoConfig, seed: int = 0
) -> tuple[PolicyBundle, list[tuple[int, float, float]]]:
    """Train over cfg.episodes_train episodes; returns the learning curve.

    Curve rows are (episode, total_reward, mean_daily_reward). Three
    consecutive failed updates raise TrainingAbort.
    """
    optimizer = nn.Adam(bundle.params(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    curve: list[tuple[int, float, float]] = []
    failures = 0
    for episode in range(cfg.episodes_train):
        action_rng = spawn_rng(seed, "actions", episode)
        states, actions, old_log_probs, rewards, values, total = rollout(
            env, bundle, action_rng, reset_seed=spawn_seed(seed, "reset", episode)
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
        if ok:
            failures = 0
        else:
            failures += 1
            if failures >= 3:
                raise TrainingAbort(
                    f"3 consecutive update failures at episode {episode}"
                )
        curve.append((episode, total, total / env.episode_days))
    return bundle, curve


def evaluate(env: HubEnv, bundle: PolicyBundle, episodes: int, seed: int = 0) -> float:
    """Mean per-day profit of the greedy policy over evaluation episodes."""
    if episodes <= 0:
        raise ValueError(f"episodes must be positive, got {episodes}")
    total = 0.0
    for episode in range(episodes):
        state = env.reset(seed=spawn_seed(seed, "eval", episode))
        done = False
        while not done:
            action = bundle.greedy(state_vector(state, env.stats))
            state, reward, done = env.step(action)
            total += reward
    return total / (episodes * env.episode_days)


def _exact_multiple(value: float, resolution: float) -> int | None:
    steps = value / resolution
    rounded = round(steps)
    if abs(steps - rounded) > 1e-9:
        return None
    return int(rounded)


def dp_oracle(
    cfg: hub.HubConfig,
    inputs: Sequence[hub.SlotInputs],
    initial_soc_kwh: float,
    resolution: float,
) -> tuple[float, list[int]]:
    """Clairvoyant-optimal battery plan by backward induction on a soc lattice.

    Per-slot profit depends only on the action (one hub.profit_table serves
    every node), so the lattice solution is exact whenever every soc
    transition lands on a lattice node; the resolution must evenly divide the
    charge step, the discharge step, the soc span, and the initial offset.
    Each slot updates the whole lattice in one array pass. Ties prefer idle,
    then charge.
    """
    if resolution <= 0:
        raise hub.ConfigError(f"resolution must be positive, got {resolution}")
    spec = cfg.battery
    charge_delta = spec.eta_charge * spec.r_charge_kw * cfg.slot_hours
    discharge_delta = spec.r_discharge_kw * cfg.slot_hours
    steps = {}
    for name, value in (
        ("charge step", charge_delta),
        ("discharge step", discharge_delta),
        ("soc span", spec.soc_max_kwh - spec.soc_min_kwh),
        ("initial soc offset", initial_soc_kwh - spec.soc_min_kwh),
    ):
        count = _exact_multiple(value, resolution)
        if count is None:
            raise hub.ConfigError(
                f"resolution {resolution} does not evenly divide the {name} "
                f"({value} kWh)"
            )
        steps[name] = count
    m = steps["soc span"]
    i0 = steps["initial soc offset"]
    if not 0 <= i0 <= m:
        raise hub.ConfigError(
            f"initial soc {initial_soc_kwh} outside "
            f"[{spec.soc_min_kwh}, {spec.soc_max_kwh}]"
        )
    up, down = steps["charge step"], steps["discharge step"]
    horizon = len(inputs)

    # candidate order is the tie-break preference: idle, charge, discharge
    order = (hub.IDLE, hub.CHARGE, hub.DISCHARGE)
    table = hub.profit_table(
        cfg,
        load_rate=[s.load_rate for s in inputs],
        occupancy=[s.cs_active for s in inputs],
        p_wt_kw=[s.p_wt_kw for s in inputs],
        p_pv_kw=[s.p_pv_kw for s in inputs],
        rtp=[s.rtp for s in inputs],
        srtp=[s.srtp for s in inputs],
    )
    profit = table[:, [hub.ACTIONS.index(action) for action in order]]
    # an action infeasible even from its most favourable soc is never taken
    possible = hub.feasible_actions(
        hub.BatteryState(spec.soc_min_kwh), spec, cfg.slot_hours
    ) | hub.feasible_actions(hub.BatteryState(spec.soc_max_kwh), spec, cfg.slot_hours)
    allowed = np.isfinite(profit) & [action in possible for action in order]
    profit = np.where(allowed, profit, -np.inf)

    moves = (0, up, -down)
    nodes = np.arange(m + 1)
    value = np.zeros(m + 1)
    choice = np.zeros((horizon, m + 1), dtype=np.int8)
    for t in range(horizon - 1, -1, -1):
        cand = np.full((3, m + 1), -np.inf)
        for col, move in enumerate(moves):
            # nodes lo..hi move to lo+move..hi+move, all on the lattice
            lo, hi = max(0, -move), min(m, m - move)
            if lo <= hi:
                cand[col, lo : hi + 1] = profit[t, col] + value[lo + move : hi + move + 1]
        # argmax keeps the first maximum, so ties follow the candidate order
        choice[t] = cand.argmax(axis=0)
        value = cand[choice[t], nodes]

    env_action = (ACT_IDLE, ACT_CHARGE, ACT_DISCHARGE)
    actions = []
    i = i0
    for t in range(horizon):
        col = int(choice[t, i])
        actions.append(env_action[col])
        i += moves[col]
    return float(value[i0]), actions
