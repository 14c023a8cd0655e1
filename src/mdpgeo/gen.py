"""Seeded random MDP generators with structural controls.

Every generator is a pure function of its spec: the same spec yields a
byte-identical model.  Probability rows come from normalized uniform draws
(redrawn until no entry is tiny, so "dense" really means entrywise
positive); rewards are uniform on [0, 1] rounded to 1e-6 so serialized
fixtures are stable.

Structures: "dense" rows are entrywise positive (so any optimal matrix
mixes in one step); "sparse" rows have k-state support; "planted_optimal"
gives the first action of each state reward 1.0 and a strongly mixing row,
with every other reward capped at 1 - beta, which makes the planted policy
optimal with a gap of at least beta; "periodic_optimal" plants the same way
but with the cycle permutation as the optimal matrix; "wielandt" plants the
cycle plus the single shortcut whose primitivity exponent attains
n^2 - 2n + 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Mdp, validate
from .solvers import solve_exact

__all__ = ["GenSpec", "PlantingError", "generate"]

STRUCTURES = ("dense", "sparse", "planted_optimal", "periodic_optimal", "wielandt")
MIN_ROW_ENTRY = 1e-3
PLANT_ATTEMPTS = 10


class PlantingError(RuntimeError):
    """The designated policy failed to come out optimal after all retries."""


@dataclass(frozen=True)
class GenSpec:
    """Recipe for one random MDP; identical specs generate identical models."""

    n_states: int
    gamma: float
    seed: int
    structure: str = "dense"
    min_actions: int = 1
    max_actions: int = 4
    sparse_k: int = 2
    bonus_beta: float = 0.5

    def validated(self) -> "GenSpec":
        if self.structure not in STRUCTURES:
            raise ValueError(f"unknown structure {self.structure!r}")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError(f"gamma must lie strictly inside (0, 1), got {self.gamma}")
        if self.n_states < 1:
            raise ValueError("n_states must be >= 1")
        if not (1 <= self.min_actions <= self.max_actions):
            raise ValueError("need 1 <= min_actions <= max_actions")
        if self.structure == "sparse" and not (1 <= self.sparse_k <= self.n_states):
            raise ValueError("sparse_k must lie in [1, n_states]")
        if self.structure in ("planted_optimal", "periodic_optimal", "wielandt"):
            if not (0.0 < self.bonus_beta < 1.0):
                raise ValueError("bonus_beta must lie strictly inside (0, 1)")
        return self


def _dense_row(rng: np.random.Generator, n: int) -> np.ndarray:
    while True:
        u = rng.uniform(size=n)
        row = u / u.sum()
        if n == 1 or row.min() >= MIN_ROW_ENTRY:
            return row


def _sparse_row(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    support = rng.choice(n, size=k, replace=False)
    row = np.zeros(n)
    row[support] = _dense_row(rng, k)
    return row


def _reward(rng: np.random.Generator, high: float = 1.0) -> float:
    return float(np.round(rng.uniform(0.0, high), 6))


def _action_counts(rng: np.random.Generator, spec: GenSpec) -> np.ndarray:
    return rng.integers(spec.min_actions, spec.max_actions + 1, size=spec.n_states)


def _aid(state: int, j: int) -> str:
    return f"s{state:02d}a{j:02d}"


def _planted_row(rng: np.random.Generator, spec: GenSpec, s: int) -> np.ndarray:
    n = spec.n_states
    if spec.structure == "planted_optimal":
        # heavy own-state mass keeps planted rows far apart and the matrix aperiodic
        row = 0.45 * _dense_row(rng, n)
        row[s] += 0.55
        return row
    if spec.structure == "periodic_optimal":
        row = np.zeros(n)
        row[(s + 1) % n] = 1.0
        return row
    # wielandt: the cycle, except the last state splits between 0 and 1
    row = np.zeros(n)
    if s < n - 1:
        row[s + 1] = 1.0
    else:
        row[0] = 0.5
        row[1 % n] += 0.5
    return row


def _build(rng: np.random.Generator, spec: GenSpec, beta: float) -> Mdp:
    planted = spec.structure in ("planted_optimal", "periodic_optimal", "wielandt")
    counts = _action_counts(rng, spec)
    P = np.empty((int(counts.sum()), spec.n_states))  # filled in place: one copy of P
    ids, states, rewards = [], [], []  # drawn in id order
    for s in range(spec.n_states):
        for j in range(int(counts[s])):
            if planted and j == 0:
                P[len(ids)] = _planted_row(rng, spec, s)
                reward = 1.0
            else:
                if spec.structure == "sparse":
                    P[len(ids)] = _sparse_row(rng, spec.n_states, spec.sparse_k)
                else:
                    P[len(ids)] = _dense_row(rng, spec.n_states)
                reward = _reward(rng, high=(1.0 - beta) if planted else 1.0)
            ids.append(_aid(s, j))
            states.append(s)
            rewards.append(reward)
    P.setflags(write=False)  # nothing writes it again, so the model is validated once
    return Mdp.from_arrays(spec.n_states, spec.gamma, ids, states, P, rewards)


def generate(spec: GenSpec) -> Mdp:
    """Generate one valid MDP from a spec.

    Planted structures are verified: the designated policy (action 0 of each
    state) must come out optimal with gap at least bonus_beta / 2, else the
    instance is redrawn with a larger bonus, up to 10 attempts.
    """
    spec = spec.validated()
    rng = np.random.default_rng(spec.seed)
    planted = spec.structure in ("planted_optimal", "periodic_optimal", "wielandt")
    if spec.structure == "periodic_optimal" and spec.n_states < 2:
        raise ValueError("periodic_optimal needs n_states >= 2")
    if spec.structure == "wielandt" and spec.n_states < 2:
        raise ValueError("wielandt needs n_states >= 2")

    beta = spec.bonus_beta
    for _ in range(PLANT_ATTEMPTS):
        mdp = _build(rng, spec, beta)
        validate(mdp)
        if not planted:
            return mdp
        sol = solve_exact(mdp, brute_check=False)
        wanted = tuple(_aid(s, 0) for s in range(spec.n_states))
        gap_ok = sol.delta >= spec.bonus_beta / 2.0
        if sol.policy.choice == wanted and gap_ok:
            return mdp
        beta = min(1.3 * beta, 0.98)
    raise PlantingError(
        f"planted policy failed to come out optimal after {PLANT_ATTEMPTS} attempts"
    )
