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

import itertools
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


# numpy's default_rng(seed) on arrays of seeds: SeedSequence's hash of the seed's 32-bit words
# into a pool of four, PCG64 (a 128-bit LCG with XSL-RR output), Lemire's bounded integers
# and 53-bit doubles
_M32, _HASH_A, _HASH_B, _MIX = 0xFFFFFFFF, (0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED), (
    0xCA01F9DD, 0x4973F715)
_PCG_HI, _PCG_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645  # the LCG multiplier's two halves


def _seed_hash(value: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hashmix of uint32 words, and the hash constant after it."""
    value, const = value ^ const, const * mult & _M32
    value = value * const
    return value ^ value >> 16, const


def _seed_pool(low: np.ndarray, high: int) -> list[np.ndarray]:
    """SeedSequence's pool of four uint32 words for the seeds ``high << 64 | low``: their
    first four words hashed in (a missing word as 0), every pool word mixed into every other,
    then each later word into every pool word."""
    words = [(low & _M32).astype(np.uint32), (low >> 32).astype(np.uint32)]
    words += [np.full(low.shape, high >> i & _M32, dtype=np.uint32)
              for i in range(0, max(high.bit_length(), 64), 32)]
    pool, const = [], _HASH_A[0]
    for word in words[:4]:
        hashed, const = _seed_hash(word, const, _HASH_A[1])
        pool.append(hashed)
    for src, dst in [*itertools.permutations(range(4), 2),
                     *itertools.product(range(4, len(words)), range(4))]:
        hashed, const = _seed_hash((pool if src < 4 else words)[src], const, _HASH_A[1])
        mixed = pool[dst] * _MIX[0] - hashed * _MIX[1]
        pool[dst] = mixed ^ mixed >> 16
    return pool


def _pcg64_seeded(seed: int, n: int) -> tuple[tuple, tuple]:
    """The (hi, lo) uint64 state and increment of ``PCG64(seed + j)`` for each j < n."""
    low = np.arange(n, dtype=np.uint64) + np.uint64(seed % (1 << 64))  # wraps past 2**64 - 1
    carry = min((1 << 64) - seed % (1 << 64), n)  # from here one more above the low words
    parts = [_seed_pool(low[:carry], seed >> 64)]
    if carry < n:
        parts.append(_seed_pool(low[carry:], (seed >> 64) + 1))
    pool, words, const = [np.concatenate(p) for p in zip(*parts)], [], _HASH_B[0]
    for i in range(8):
        word, const = _seed_hash(pool[i % 4], const, _HASH_B[1])
        words.append(word.astype(np.uint64))
    s_hi, s_lo, i_hi, i_lo = (words[j] | words[j + 1] << 32 for j in range(0, 8, 2))
    inc = (i_hi << 1 | i_lo >> 63, i_lo << 1 | 1)
    lo = s_lo + inc[1]  # from state 0 one step reaches inc; then the seed is added and stepped
    return _pcg_next((s_hi + inc[0] + (lo < inc[1]), lo), inc)[0], inc


def _pcg_next(state: tuple, inc: tuple) -> tuple[tuple, np.ndarray]:
    """PCG64's step ``state * mult + inc`` mod 2**128 on (hi, lo) uint64 arrays, and the new
    state's XSL-RR output: hi ^ lo rotated right by hi's top 6 bits."""
    hi, lo = state
    a, b = lo >> 32, lo & _M32  # the high word of lo * _PCG_LO, from 32-bit halves
    mid = a * (_PCG_LO & _M32) + (b * (_PCG_LO & _M32) >> 32)
    high = a * (_PCG_LO >> 32) + (mid >> 32) + (b * (_PCG_LO >> 32) + (mid & _M32) >> 32)
    lo = lo * _PCG_LO + inc[1]
    hi = hi * _PCG_LO + state[1] * _PCG_HI + high + inc[0] + (lo < inc[1])
    word, turn = hi ^ lo, hi >> 58
    return (hi, lo), word >> turn | word << (64 - turn & 63)


def _bounded_pair(word: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``Generator.integers(1, k + 1, size=2)`` from one output word per instance by Lemire's
    rule, low half first: the pair, and whether a half is rejected (numpy draws again)."""
    scaled = np.stack((word & _M32, word >> 32), axis=1) * k
    return 1 + (scaled >> 32), ((scaled & _M32) < ((1 << 32) - k) % k).any(axis=1)


def _same_as_numpy(seed: int, k: int, counts: np.ndarray, uniforms: np.ndarray) -> bool:
    rng = np.random.default_rng(seed)
    return (np.array_equal(rng.integers(1, k + 1, size=2), counts)
            and np.array_equal(rng.random(uniforms.shape), uniforms))


def _dense_pair_draws(seed: int, k: int, counts: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Fill ``counts[j]`` and ``uniforms[j]`` as ``rng = default_rng(seed + j)``,
    ``rng.integers(1, k + 1, size=2)`` and ``rng.random(out=...)`` would, stepping the block's
    generators together, and return the instances not reproduced: a rejected count word, or
    all if the first other one differs from numpy's draws."""
    n = len(counts)
    redo, (state, inc) = np.zeros(n, dtype=bool), _pcg64_seeded(seed, n)
    if k == 1:  # numpy draws nothing for a range of one value
        counts[:] = 1
    else:
        state, word = _pcg_next(state, inc)
        counts[:], rejected = _bounded_pair(word, k)
        redo |= rejected
    for index in np.ndindex(uniforms.shape[1:]):  # numpy's fill order
        state, word = _pcg_next(state, inc)
        uniforms[(slice(None), *index)] = (word >> 11) * 2.0 ** -53
    first = np.flatnonzero(~redo)[:1].tolist()
    if first and not _same_as_numpy(seed + first[0], k, counts[first[0]], uniforms[first[0]]):
        return np.arange(n)
    return np.flatnonzero(redo)


def _dense_row(rng: np.random.Generator, n: int) -> np.ndarray:
    if n > _WIDEST_ROW:
        raise ValueError(f"a dense row of {n} entries cannot keep every entry >= {MIN_ROW_ENTRY}")
    while True:
        u = rng.random(n)  # the bits of uniform(size=n), 0 + 1 * d
        row = u / u.sum()
        if n == 1 or row.min() >= MIN_ROW_ENTRY:
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
    P, rewards, stop = np.zeros((state_of.size, n)), np.ones(state_of.size), 0
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
            continue
        if spec.structure == "sparse":  # into the zeros of its row
            support = rng.choice(n, size=spec.sparse_k, replace=False)
            P[k, support] = _dense_row(rng, spec.sparse_k)
        else:
            P[k] = _dense_row(rng, n)
        # the bits of uniform(0, high): 0 + high * d
        rewards[k] = ((1.0 - spec.bonus_beta) if planted else 1.0) * rng.random()
    np.round(rewards[stop:], 6, out=rewards[stop:])
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
