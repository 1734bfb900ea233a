"""Tiny environments for optimizer sanity checks."""

import numpy as np


class BanditEnv:
    """4-armed contextual-free bandit: arm ``best`` pays 1, the rest pay the
    margin below it.  Constant observation, fixed-length episodes."""

    def __init__(self, best=2, episode_len=16, margin=0.5):
        self.best = best
        self.episode_len = episode_len
        self.margin = margin
        self.t = 0

    def reset(self, seed=None):
        self.t = 0
        return self._obs()

    def _obs(self):
        return np.array([1.0, 0.0])

    def step(self, action):
        self.t += 1
        reward = 1.0 if action == self.best else 1.0 - self.margin
        done = self.t >= self.episode_len
        return self._obs(), reward, done, {}


class NoisyBanditEnv(BanditEnv):
    """``BanditEnv`` with ``obs_dim`` random observations and noise on each
    reward, drawn from a stream that ``reset`` seeds: a rollout of varied
    states and returns."""

    def __init__(self, obs_dim, **kwargs):
        super().__init__(**kwargs)
        self.obs_dim = obs_dim
        self.rng = np.random.default_rng(0)

    def reset(self, seed=None):
        self.rng = np.random.default_rng(seed)
        return super().reset(seed)

    def _obs(self):
        return self.rng.random(self.obs_dim)

    def step(self, action):
        obs, reward, done, info = super().step(action)
        return obs, reward + self.rng.normal(), done, info
