"""Seeded random MDP generators with structural controls.

Every generator is a pure function of its spec: the same spec yields a
byte-identical model.  Probability rows come from normalized uniform draws
(redrawn until no entry is tiny, so "dense" really means entrywise
positive); rewards are uniform on [0, 1] rounded to 1e-6 so serialized
fixtures are stable.

Structures: "dense" rows are entrywise positive (so any optimal matrix
mixes in one step); "sparse" rows have k-state support; "planted_optimal"
gives the first action of each state reward 1.0 and a strongly mixing row;
"periodic_optimal" plants the same way but with the cycle permutation as the
optimal matrix; "wielandt" plants the cycle plus the single shortcut whose
primitivity exponent attains n^2 - 2n + 2.

A plant is optimal by construction.  Its rewards are all 1.0, so the
planted policy's value is 1/(1 - gamma) at every state, the upper bound for
rewards <= 1, and every other action's advantage there is exactly r - 1.
Every other reward is round(U[0, 1 - beta), 6) <= 1 - beta + 5e-7, so for
beta >= 1e-6 (the reward grid; specs below it are refused) every other
action trails the plant by at least beta / 2 and the optimum is unique.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Mdp, validate

__all__ = ["GenSpec", "generate"]

STRUCTURES = ("dense", "sparse", "planted_optimal", "periodic_optimal", "wielandt")
PLANTED = STRUCTURES[2:]
MIN_ROW_ENTRY = 1e-3
_WIDEST_ROW = 1000  # a row of n entries has one <= 1/n, so a wider row never passes
MIN_BETA = 1e-6  # the reward grid: a smaller bonus could round a reward up to the plant's 1.0


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (1 <= self.min_actions <= self.max_actions):
            raise ValueError("need 1 <= min_actions <= max_actions")
        if self.structure == "sparse" and not (1 <= self.sparse_k <= self.n_states):
            raise ValueError("sparse_k must lie in [1, n_states]")
        if self.structure in PLANTED:
            if not (0.0 < self.bonus_beta < 1.0):
                raise ValueError("bonus_beta must lie strictly inside (0, 1)")
            if self.structure != "planted_optimal" and self.n_states < 2:
                raise ValueError(f"{self.structure} needs n_states >= 2")
            if self.bonus_beta < MIN_BETA:
                raise ValueError(f"bonus_beta must be at least {MIN_BETA:g}, the reward grid, "
                                 f"got {self.bonus_beta}")
        return self


def _dense_rows(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dense-row rule, in place on uniforms ``u`` (..., n + 1) holding one row's draws
    along the last axis: the rows and the rounded rewards, both views of ``u``, and whether
    each row is rejected (an entry below MIN_ROW_ENTRY)."""
    n = u.shape[-1] - 1
    rows, rewards = u[..., :n], u[..., n]
    rows /= rows.sum(axis=-1, keepdims=True)
    np.round(rewards, 6, out=rewards)
    return rows, ~(rows.min(axis=-1) >= MIN_ROW_ENTRY) & (n > 1), rewards


def _dense_row(rng: np.random.Generator, n: int) -> np.ndarray:
    if n > _WIDEST_ROW:
        raise ValueError(f"a dense row of {n} entries cannot keep every entry >= {MIN_ROW_ENTRY}")
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


def _draw(rng: np.random.Generator, spec: GenSpec) -> tuple[np.ndarray, ...]:
    """Per state the action count, the rows' states, ``P`` and the rewards, in id order.
    A dense model's rows and rewards come from one block of uniforms, the loop's draws while
    it rejects no row (a double reads a 64-bit word and leaves the 32-bit half integer
    draws buffer alone); from the first rejected row on, the loop draws the rest."""
    n, planted = spec.n_states, spec.structure in PLANTED
    counts = rng.integers(spec.min_actions, spec.max_actions + 1, size=n)
    state_of = np.repeat(np.arange(n), counts)
    P, rewards, stop = np.empty((state_of.size, n)), np.ones(state_of.size), 0
    if spec.structure == "dense" and n <= _WIDEST_ROW:
        saved = rng.bit_generator.state
        rows, bad, drawn = _dense_rows(rng.random((len(P), n + 1)))
        bad = np.flatnonzero(bad)
        stop = int(bad[0]) if bad.size else len(P)
        P[:stop], rewards[:stop] = rows[:stop], drawn[:stop]
        if bad.size:  # back to where the rejected row's draw began
            rng.bit_generator.state = saved
            rng.random(stop * (n + 1))
    for k, s in enumerate(state_of[stop:].tolist(), start=stop):
        if planted and (k == 0 or state_of[k - 1] != s):  # action 0
            P[k] = _planted_row(rng, spec, s)
        else:
            P[k] = (_sparse_row(rng, n, spec.sparse_k) if spec.structure == "sparse"
                    else _dense_row(rng, n))
            rewards[k] = np.round(rng.uniform(0.0, (1.0 - spec.bonus_beta) if planted else 1.0), 6)
    return counts, state_of, P, rewards


def generate(spec: GenSpec) -> Mdp:
    """Generate one valid MDP from a spec.

    In the planted structures action 0 of each state is the unique optimum,
    with gap at least bonus_beta / 2 (see the module docstring for why).
    """
    spec = spec.validated()
    counts, state_of, P, rewards = _draw(np.random.default_rng(spec.seed), spec)
    ids = [_aid(s, j) for s, k in enumerate(counts.tolist()) for j in range(k)]
    mdp = Mdp.from_arrays(spec.n_states, spec.gamma, ids, state_of, P, rewards)
    validate(mdp)
    return mdp
