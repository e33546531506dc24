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

from numpy.lib.stride_tricks import sliding_window_view

from . import hub, nn
from .seeding import spawn_rng, spawn_seed
from .traces import TraceSet

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


# The exogenous series the policy observes, in the state vector's order. Each
# is a HubEnv attribute: a trace row with one value per slot, or one of
# PERIODIC, whose value at slot t is row[t % len(row)].
SERIES = ("rtp", "srtp", "p_wt", "p_pv", "load_rate")
# the rows a pricing decision sets, which repeat with the decision's period
PERIODIC = ("srtp", "occupancy")


@dataclass(frozen=True)
class NormStats:
    """Trace-level standardization constants for the state vector."""

    mean: np.ndarray  # (len(SERIES),)
    std: np.ndarray  # (len(SERIES),) floored away from zero

    @classmethod
    def from_series(cls, series: np.ndarray) -> "NormStats":
        """Each row's mean and std, for series (len(SERIES), n) in SERIES order."""
        series = np.asarray(series, dtype=np.float64)
        return cls(mean=series.mean(axis=1), std=np.maximum(series.std(axis=1), 1e-8))


@dataclass(frozen=True)
class EnvState:
    """Observation at one slot: recent-plus-current windows and the soc level."""

    windows: np.ndarray  # (len(SERIES), window + 1), rows in SERIES order
    soc: float  # fraction of battery capacity, in [0, 1]


def state_vector(state: EnvState, stats: NormStats) -> np.ndarray:
    """Standardized flat feature vector consumed by the policy network: the
    standardized windows row by row, then the soc."""
    return np.append((state.windows - stats.mean[:, None]) / stats.std[:, None], state.soc)


class HubEnv:
    """Episodic wrapper around the hub slot physics.

    The exogenous series (prices, weather, traffic, charging occupancy) are
    fixed at construction; each episode reads a contiguous slice starting at an
    offset drawn from its reset seed, so different episodes see different
    conditions from the same year of traces. rtp, load_rate, p_wt and p_pv
    are the trace set's read-only rows, shared by every env built from it;
    only srtp and occupancy, which the pricing decision sets, are the env's
    own. Those two are periodic: each holds one period, of 1 to n_slots
    values, and its value at slot t is row[t % len(row)], so a whole-trace
    row is the case whose period is the trace. Profit rows are computed per
    episode, from the rows at its slots.
    """

    def __init__(
        self,
        hub_cfg: hub.HubConfig,
        env_cfg: EnvConfig,
        trace_set: TraceSet,
        srtp: np.ndarray,
        occupancy: np.ndarray,
    ):
        self.hub_cfg = hub_cfg
        self.env_cfg = env_cfg
        self.rtp, self.load_rate = trace_set.rtp, trace_set.load_rate
        self.p_wt, self.p_pv = trace_set.renewables(hub_cfg.wt_capacity_kw, hub_cfg.pv_capacity_kw)
        self.srtp = np.asarray(srtp, dtype=np.float64)
        self.occupancy = np.asarray(occupancy)
        n = len(self.rtp)
        for name in PERIODIC:
            period = len(getattr(self, name))
            if not 0 < period <= n:
                raise ValueError(f"{name} must hold one period of 1 to {n} slots, got {period}")
        self.episode_days = env_cfg.episode_days
        self.episode_slots = env_cfg.episode_days * int(round(24.0 / hub_cfg.slot_hours))
        self.window = env_cfg.window
        last_start = n - self.episode_slots - 1
        if last_start < self.window:
            raise ValueError(
                f"traces have {n} slots; an episode needs at least "
                f"{self.window + self.episode_slots + 1} (window + episode + 1)"
            )
        self.last_start = last_start
        # fit on whole-trace rows, periodic ones tiled, stacked into one
        # temporary (len(SERIES), n) array
        self.stats = NormStats.from_series(self._at(SERIES, np.arange(n)))
        self._t = -1
        self._battery = hub.BatteryState(hub_cfg.battery.soc_min_kwh)
        self.episode_start = -1
        self._profit = None  # the current episode's profit rows

    @property
    def state_dim(self) -> int:
        return len(SERIES) * (self.window + 1) + 1

    def _at(self, names, slots: np.ndarray) -> list[np.ndarray]:
        """The named rows' values at the slot array slots."""
        return [
            np.take(getattr(self, name), slots, mode="wrap")
            if name in PERIODIC
            else getattr(self, name)[slots]
            for name in names
        ]

    def _observe(self) -> EnvState:
        t = self._t
        return EnvState(
            windows=np.array(self._at(SERIES, np.arange(t - self.window, t + 1))),
            soc=self._battery.soc_kwh / self.hub_cfg.battery.capacity_kwh,
        )

    def draw_start(self, rng: np.random.Generator) -> tuple[int, float]:
        """An episode's start slot and initial soc (kWh), drawn from rng."""
        start = int(rng.integers(self.window, self.last_start + 1))
        if self.env_cfg.initial_soc_kwh is not None:
            return start, float(self.env_cfg.initial_soc_kwh)
        spec = self.hub_cfg.battery
        return start, float(rng.uniform(spec.soc_min_kwh, spec.soc_max_kwh))

    def reset(self, seed: int) -> EnvState:
        self.episode_start, soc = self.draw_start(np.random.default_rng(seed))
        self._t = self.episode_start
        self._battery = hub.BatteryState(soc)
        self._profit = self.episode_inputs(self.episode_start)
        return self._observe()

    def episode_series(self, starts: np.ndarray) -> np.ndarray:
        """The standardized series that episodes at starts observe.

        Shape (*starts.shape, len(SERIES), window + episode_slots): columns
        start - window onward, rows in SERIES order. Standardizing is
        elementwise, so every entry has the bits state_vector gives it.
        """
        cols = np.asarray(starts)[..., None] + np.arange(-self.window, self.episode_slots)
        rows = np.stack(self._at(SERIES, cols), axis=-2)
        return (rows - self.stats.mean[:, None]) / self.stats.std[:, None]

    def slot_inputs(self, t: int) -> hub.SlotInputs:
        return hub.SlotInputs(
            load_rate=float(self.load_rate[t]),
            cs_active=int(self.occupancy[t % len(self.occupancy)]),
            p_wt_kw=float(self.p_wt[t]),
            p_pv_kw=float(self.p_pv[t]),
            rtp=float(self.rtp[t]),
            srtp=float(self.srtp[t % len(self.srtp)]),
        )

    def episode_inputs(self, starts) -> np.ndarray:
        """The profit rows (*starts.shape, episode_slots, 3) that episodes at
        starts (each in [window, last_start], as draw_start gives it) are
        rewarded from; column k holds action k's profit.

        hub.profit_table is elementwise, so each entry has the bits of a
        table built over the whole rows.
        """
        slots = np.asarray(starts)[..., None] + np.arange(self.episode_slots)
        names = ("load_rate", "occupancy", "p_wt", "p_pv", "rtp", "srtp")
        table = hub.profit_table(self.hub_cfg, *self._at(names, slots.ravel()))
        return table.reshape(slots.shape + (len(hub.ACTIONS),))

    def step(self, action: int) -> tuple[EnvState, float, bool]:
        if self._t < 0:
            raise RuntimeError("call reset() before step()")
        k = self._t - self.episode_start
        if k >= self.episode_slots:
            raise RuntimeError("the episode is over: call reset() before step()")
        if action not in hub.ACTIONS:
            raise ValueError(f"action must be one of {hub.ACTIONS}, got {action}")
        spec, dt = self.hub_cfg.battery, self.hub_cfg.slot_hours
        if action not in hub.feasible_actions(self._battery, spec, dt):
            action = hub.IDLE
        reward = float(self._profit[k, action])
        self._battery = hub.soc_step(self._battery, spec, action, dt)
        self._t += 1
        done = k + 1 >= self.episode_slots
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
        if self.episodes_train < 0:
            raise ValueError(f"episodes_train must be nonnegative, got {self.episodes_train}")
        if self.episodes_test < 1:
            raise ValueError(f"episodes_test must be at least 1, got {self.episodes_test}")
        if not self.hidden or min(self.hidden) < 1:
            raise ValueError(f"hidden must list one or more layer sizes >= 1, got {self.hidden}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        for name in ("value_coef", "entropy_coef", "weight_decay"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")


class TrainingAbort(RuntimeError):
    """Raised when parameter updates keep failing and training cannot proceed.

    run is the index of the failing run in its population.
    """

    def __init__(self, message: str, run: int = 0):
        super().__init__(message)
        self.run = run


def sample_actions(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """One action per row of probs (n, 3), each drawn with its own uniform.

    The rule of Generator.choice(3, p=p / p.sum()): normalize, take
    the cumulative sums, divide them by the last, and pick the first entry
    above the uniform. Each choice call draws one rng.random(), so a
    pre-drawn block of uniforms gives the same actions and leaves the stream
    where the calls would. Non-finite probabilities raise ValueError, as
    choice does.
    """
    if not np.isfinite(probs).all():
        raise ValueError("action probabilities contain NaN or inf")
    cdf = np.cumsum(probs / probs.sum(axis=1, keepdims=True), axis=1)
    cdf /= cdf[:, -1:]
    # the count of cdf entries <= u is searchsorted(cdf, u, side="right")
    return (cdf <= uniforms[:, None]).sum(axis=1)


class PolicyBundle(nn.Module):
    """Shared trunk with a 3-action softmax actor and a scalar critic."""

    KIND = "drl_ppo"
    META = ("state_dim", "hidden")

    def __init__(self, state_dim: int, hidden: Sequence[int] = (64, 64), seed: int | None = 0):
        if not hidden:
            raise ValueError("policy needs at least one hidden layer")
        rng = nn.init_rng(seed)
        self.state_dim = int(state_dim)
        self.hidden = tuple(int(h) for h in hidden)
        self.trunk = nn.DenseNet(
            [self.state_dim, *self.hidden], ["relu"] * len(self.hidden), rng
        )
        # output k is the probability of hub action k
        self.actor = nn.DenseNet([self.hidden[-1], len(hub.ACTIONS)], ["softmax"], rng)
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
        # the states are inputs, not parameters: no gradient flows into them
        g_trunk, _ = self.trunk.backward(trunk_cache, grad_h_a + grad_h_c, input_grad=False)
        return g_trunk + g_actor + g_critic

    def act(self, state_vec: np.ndarray, rng: np.random.Generator):
        """Sample an action; returns (action, log_prob, value_estimate)."""
        probs, values, _ = self.forward(state_vec)
        action = int(sample_actions(probs, rng.random(1))[0])
        return action, float(np.log(max(probs[0, action], 1e-300))), float(values[0])

    def greedy(self, state_vec: np.ndarray) -> int:
        probs, _, _ = self.forward(state_vec)
        return int(np.argmax(probs[0]))


def compute_advantages(
    rewards: np.ndarray, values: np.ndarray, gamma: float, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimates and critic targets for one episode.

    The trajectory is treated as complete: the value beyond the final slot is
    zero. Targets are raw advantages plus values; normalization (zero mean,
    unit variance) applies to the returned advantages only. rewards and
    values are float64 vectors of one length.
    """
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
    The gradients are of J itself; descend on their negation. They are left
    in bundle.grad and returned as its views, bundle.grads(), which the next
    backward overwrites: copy a gradient to keep it. actions are integer and
    the other arrays float64, one row per sample.
    """
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
    bundle.backward(cache, grad_probs, grad_values)
    return objective, bundle.grads()


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
    params, grads = bundle.params(), bundle.grads()
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
                objective, _ = total_loss(
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
                # total_loss left J's gradients in bundle.grad: descend on -J
                np.negative(bundle.grad, out=bundle.grad)
                optimizer.step(params, grads)
    except nn.NonFiniteGradientError:
        restore()
        return False
    return True


class _PolicyStack:
    """The policies of K runs, each layer's weights stacked over the runs.

    forward sends row m of run k through run k's weights. np.matmul over a
    stack runs each (1, d) @ (d, h) product through the BLAS call a batch-1
    forward makes, so every row has the bits PolicyBundle.forward gives it
    alone; a 2-D (n, d) @ (d, h) product does not.
    """

    def __init__(self, bundles: Sequence[PolicyBundle]):
        def stacked(name):
            nets = [getattr(b, name) for b in bundles]
            return [
                (np.stack([n.weights[i] for n in nets]), np.stack([n.biases[i] for n in nets]), tag)
                for i, tag in enumerate(nets[0].activations)
            ]

        self.trunk, self.actor, self.critic = map(stacked, ("trunk", "actor", "critic"))

    @staticmethod
    def _layers(layers, a: np.ndarray) -> np.ndarray:
        for w, b, tag in layers:
            z = np.matmul(a[:, :, None, :], w[:, None])[:, :, 0] + b[:, None]
            # softmax reduces over axis 1, so it takes the rows as a 2-D array
            a = nn.act_forward(tag, z.reshape(-1, z.shape[-1])).reshape(z.shape)
        return a

    def forward(self, states: np.ndarray):
        """Action probs (K, M, 3) and values (K, M) for states (K, M, D)."""
        h = self._layers(self.trunk, states)
        return self._layers(self.actor, h), self._layers(self.critic, h)[:, :, 0]


def _settler(cfg: hub.HubConfig):
    """hub.feasible_actions's idle fallback, then hub.soc_step, over arrays.

    Returns settle(soc, actions): the actions taken and the next soc for
    actions chosen at soc (kWh). Each action's soc delta is battery_power's,
    computed here once, and the expressions are the scalar ones, so every
    soc has the bits the scalar path gives it.
    """
    spec, dt = cfg.battery, cfg.slot_hours
    deltas = np.array([hub.battery_power(spec, action, dt)[1] for action in hub.ACTIONS])

    def settle(soc: np.ndarray, actions: np.ndarray):
        moved = soc + deltas[actions]
        kept = (spec.soc_min_kwh <= moved) & (moved <= spec.soc_max_kwh)
        taken = np.where(kept, actions, hub.IDLE)
        return taken, soc + deltas[taken]

    return settle


def _check_population(envs, bundles, seeds) -> None:
    """Runs step together only if their episodes, batteries and policies match.

    Each bundle must take its env's state_dim, as its caller built or loaded it.
    """
    if not len(envs) == len(bundles) == len(seeds) >= 1:
        raise ValueError(
            f"need one env, bundle and seed per run, got {len(envs)}, {len(bundles)}, {len(seeds)}"
        )

    def shape(env, bundle):
        cfg = env.hub_cfg
        return env.episode_slots, env.window, cfg.battery, cfg.slot_hours, bundle.hidden

    for k, (env, bundle) in enumerate(zip(envs, bundles)):
        if shape(env, bundle) != shape(envs[0], bundles[0]):
            raise ValueError(
                f"run {k} differs from run 0 in episode length, window, battery, "
                "slot length or policy shape"
            )


def _episode_inputs(envs, starts: np.ndarray):
    """Standardized windows (K, *E, len(SERIES), T, window + 1) and profit rows
    (K, *E, T, 3) of the episodes of K runs, run k's starting at starts[k] (shape E)."""
    series = np.stack([env.episode_series(s) for env, s in zip(envs, starts)])
    profit = np.stack([env.episode_inputs(s) for env, s in zip(envs, starts)])
    return sliding_window_view(series, envs[0].window + 1, axis=-1), profit


class _EpisodeStates:
    """The state rows of a population's episodes, stored as windows plus soc.

    windows (*runs, len(SERIES), T, window + 1) is a sliding_window_view of
    each episode's standardized series, so rows cost no memory until used:
    at() writes every episode's row for one slot into a single buffer, and
    indexing by run builds that run's (T, D) state matrix alone.
    """

    def __init__(self, windows: np.ndarray, capacity: float):
        shape, (count, span, width) = windows.shape[:-3], windows.shape[-3:]
        self.windows = windows
        self.capacity = capacity
        self.soc = np.empty(shape + (span,))  # the soc column, as a capacity fraction
        self._row = np.empty(shape + (count * width + 1,))
        # a view: it splits the contiguous window columns of each row
        self._row_windows = self._row[..., :-1].reshape(shape + (count, width))

    def at(self, t: int, soc_kwh: np.ndarray) -> np.ndarray:
        """Every episode's state at slot t, given its soc in kWh."""
        self._row_windows[...] = self.windows[..., t, :]
        self.soc[..., t] = self._row[..., -1] = soc_kwh / self.capacity
        return self._row

    def __len__(self) -> int:
        return len(self.windows)

    def __getitem__(self, k: int) -> np.ndarray:
        count, span, width = self.windows.shape[-3:]
        rows = np.empty((span, count * width + 1))
        rows[:, :-1].reshape(span, count, width)[...] = self.windows[k].transpose(1, 0, 2)
        rows[:, -1] = self.soc[k]
        return rows


def _lockstep(envs, bundles, draws: np.ndarray, pick):
    """Step the episodes of K runs together, one slot at a time.

    draws (K, *E, 2) holds each episode's start slot and initial soc (kWh),
    as HubEnv.draw_start returns them. At each slot t, pick(t, probs, values)
    gets every episode's action probs (K, *E, 3) and values (K, *E) from one
    stacked forward and returns the actions (K, *E) to take. Returns the
    episodes' _EpisodeStates and rewards (K, *E, T).
    """
    starts, soc = draws[..., 0].astype(np.int64), draws[..., 1]
    windows, profit = _episode_inputs(envs, starts)
    cfg = envs[0].hub_cfg
    settle = _settler(cfg)
    states = _EpisodeStates(windows, cfg.battery.capacity_kwh)
    policy = _PolicyStack(bundles)
    episode = np.indices(starts.shape, sparse=True)
    rewards = np.empty(starts.shape + (envs[0].episode_slots,))
    for t in range(rewards.shape[-1]):
        rows = states.at(t, soc)
        probs, values = policy.forward(rows.reshape(len(envs), -1, rows.shape[-1]))
        actions = pick(t, probs.reshape(soc.shape + (-1,)), values.reshape(soc.shape))
        taken, soc = settle(soc, actions)
        rewards[..., t] = profit[(*episode, t, taken)]
    return states, rewards


def rollout(
    envs: Sequence[HubEnv],
    bundles: Sequence[PolicyBundle],
    rngs: Sequence[np.random.Generator],
    reset_seeds: Sequence[int],
):
    """Sample one episode of every run, all runs stepping together.

    Run k starts as envs[k].reset(reset_seeds[k]) would and samples its
    actions from rngs[k]. Returns (states, actions, log_probs, rewards,
    values, totals): states[k] is run k's (T, D) matrix of standardized
    state vectors, the other arrays hold one row per run and one column per
    slot, and totals each run's summed reward.
    """
    span = envs[0].episode_slots
    draws = [env.draw_start(np.random.default_rng(s)) for env, s in zip(envs, reset_seeds)]
    uniforms = np.stack([rng.random(span) for rng in rngs])
    runs = np.arange(len(envs))
    actions = np.empty((len(envs), span), dtype=np.int64)
    chosen, values = np.empty((len(envs), span)), np.empty((len(envs), span))

    def sample(t, probs, value):
        values[:, t] = value
        actions[:, t] = sample_actions(probs, uniforms[:, t])
        chosen[:, t] = probs[runs, actions[:, t]]
        return actions[:, t]

    states, rewards = _lockstep(envs, bundles, np.array(draws), sample)
    log_probs = np.log(np.maximum(chosen, 1e-300))
    return states, actions, log_probs, rewards, values, _running_totals(rewards)


def _running_totals(rewards: np.ndarray) -> np.ndarray:
    """Each row's sum, added left to right from 0.0 as a running total is."""
    zero = np.zeros((len(rewards), 1))
    return np.cumsum(np.concatenate([zero, rewards], axis=1), axis=1)[:, -1]


def train(
    envs: Sequence[HubEnv],
    bundles: Sequence[PolicyBundle],
    cfg: PpoConfig,
    seeds: Sequence[int],
) -> list[list[tuple[int, float, float]]]:
    """Train K runs over cfg.episodes_train episodes each; returns their curves.

    Run k trains bundles[k] in place on envs[k] with seed seeds[k], exactly as
    it would alone: the runs share each episode's rollout loop, and each
    updates with its own optimizer. Curve rows are (episode, total_reward,
    mean_daily_reward). Three consecutive failed updates of any run raise
    TrainingAbort, naming the run.
    """
    _check_population(envs, bundles, seeds)
    optimizers = [
        nn.Adam(b.params(), lr=cfg.lr, weight_decay=cfg.weight_decay) for b in bundles
    ]
    curves: list[list[tuple[int, float, float]]] = [[] for _ in bundles]
    failures = [0] * len(bundles)
    for episode in range(cfg.episodes_train):
        states, actions, old_log_probs, rewards, values, totals = rollout(
            envs,
            bundles,
            [spawn_rng(seed, "actions", episode) for seed in seeds],
            [spawn_seed(seed, "reset", episode) for seed in seeds],
        )
        for k, (bundle, optimizer, seed) in enumerate(zip(bundles, optimizers, seeds)):
            advantages, targets = compute_advantages(rewards[k], values[k], cfg.gamma, cfg.lam)
            ok = policy_update(
                bundle,
                optimizer,
                states[k],
                actions[k],
                old_log_probs[k],
                advantages,
                targets,
                cfg,
                rng=spawn_rng(seed, "minibatch", episode),
            )
            failures[k] = 0 if ok else failures[k] + 1
            if failures[k] >= 3:
                raise TrainingAbort(
                    f"run {k}: 3 consecutive update failures at episode {episode}", run=k
                )
        for curve, env, total in zip(curves, envs, totals.tolist()):
            curve.append((episode, total, total / env.episode_days))
        # free this episode's arrays before the next rollout allocates its own
        del states, actions, old_log_probs, rewards, values
    return curves


def evaluate(
    envs: Sequence[HubEnv],
    bundles: Sequence[PolicyBundle],
    episodes: int,
    seeds: Sequence[int],
) -> list[float]:
    """Each run's mean per-day profit of its greedy policy over evaluation episodes.

    All runs and all their episodes step together; run k's total is summed
    episode by episode, slot by slot, as one running total. episodes is at
    least 1, as PpoConfig.episodes_test is.
    """
    _check_population(envs, bundles, seeds)
    draws = [
        [env.draw_start(np.random.default_rng(spawn_seed(s, "eval", e))) for e in range(episodes)]
        for env, s in zip(envs, seeds)
    ]
    _, rewards = _lockstep(
        envs, bundles, np.array(draws), lambda t, probs, values: probs.argmax(axis=-1)
    )
    totals = _running_totals(rewards.reshape(len(envs), -1))
    return [
        float(total / (episodes * env.episode_days)) for total, env in zip(totals, envs)
    ]


def _exact_multiple(value: float, resolution: float) -> int | None:
    steps = value / resolution
    rounded = round(steps)
    if abs(steps - rounded) > 1e-9:
        return None
    return int(rounded)


def dp_oracle(
    cfg: hub.HubConfig,
    inputs: np.ndarray,
    initial_soc_kwh: float,
    resolution: float,
) -> tuple[float, list[int]]:
    """Clairvoyant-optimal battery plan by backward induction on a soc lattice.

    inputs are the episode's profit rows (T, 3), column k holding action
    k's profit, as HubEnv.episode_inputs returns them. Per-slot profit depends
    only on the action, so one row serves every node, and the lattice
    solution is exact whenever every soc transition lands on a lattice node;
    the resolution must evenly divide the charge step, the discharge step,
    the soc span, and the initial offset. Each slot updates the whole lattice
    in one array pass. Ties prefer idle, then charge.
    """
    table = np.asarray(inputs, dtype=np.float64)
    if table.ndim != 2 or table.shape[1] != len(hub.ACTIONS):
        raise ValueError(f"inputs must be profit rows (T, {len(hub.ACTIONS)}), got {table.shape}")
    if resolution <= 0:
        raise hub.ConfigError(f"resolution must be positive, got {resolution}")
    spec = cfg.battery
    _, charge_delta = hub.battery_power(spec, hub.CHARGE, cfg.slot_hours)
    _, discharge_delta = hub.battery_power(spec, hub.DISCHARGE, cfg.slot_hours)
    steps = {}
    for name, value in (
        ("charge step", charge_delta),
        ("discharge step", -discharge_delta),
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
    horizon = len(table)

    # candidate order is the tie-break preference: idle, charge, discharge
    order = [hub.IDLE, hub.CHARGE, hub.DISCHARGE]
    profit = table[:, order]
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

    actions = []
    i = i0
    for t in range(horizon):
        col = int(choice[t, i])
        actions.append(order[col])
        i += moves[col]
    return float(value[i0]), actions
