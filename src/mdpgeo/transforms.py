"""Advantage-preserving MDP transformations.

Two primitive rewrites are provided.  A reward shift at one state
(:func:`apply_L`) moves every policy's value at that state by a constant
while leaving all action advantages untouched.  A discount change at one
state (:func:`apply_J`) rewrites the coefficient at that coordinate and the
discount factor together, again leaving advantages and all value spans
untouched; values move through the affine rule carried by the returned
:class:`DiscountChange`.

On top of the primitives: :func:`normalize` shifts an MDP so its optimal
values are identically zero, and :func:`effective_gamma` drives the discount
factor as low as the per-state coefficient slack allows.

Steps map arrays ``(P, rewards, gamma)`` to new arrays (L: one coefficient
column; J: one column of ``gamma * P``); each public call builds one
:class:`~mdpgeo.core.Mdp`, at the end, and :func:`effective_gamma` builds none.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import Mdp, Policy, validate
from .solvers import solve_exact

__all__ = [
    "DiscountChange",
    "GAMMA_FLOOR",
    "LShift",
    "NonUniqueOptimumWarning",
    "TransformLog",
    "UnsafeTransformError",
    "apply_J",
    "apply_L",
    "effective_gamma",
    "normalize",
]

GAMMA_FLOOR = 1e-6
_PROB_TOL = 1e-12


class UnsafeTransformError(ValueError):
    """A discount change would break the action coefficient sign pattern."""


class NonUniqueOptimumWarning(UserWarning):
    """Normalization found more than one optimal policy within tolerance."""


def _rebuild(mdp: Mdp, probs: np.ndarray, rewards: np.ndarray, gamma: float) -> Mdp:
    return Mdp.from_arrays(mdp.n_states, gamma, mdp.ids, mdp.state_of, probs, rewards)


@dataclass(frozen=True)
class LShift:
    """Reward shift at one state: every policy's value there moves by delta."""

    state: int
    delta: float

    def _step(self, mdp: Mdp, arrays: tuple) -> tuple:
        """``r <- r - coeffs[:, state] * delta``, forming that one column only."""
        if not (0 <= self.state < mdp.n_states):
            raise ValueError(f"unknown state {self.state}")
        P, r, g = arrays
        col = g * P[:, self.state]
        col[mdp.state_of == self.state] -= 1.0
        return P, r - col * float(self.delta), g

    def map_values(self, v: np.ndarray) -> np.ndarray:
        out = np.array(v, dtype=np.float64)
        out[self.state] += self.delta
        return out

    def inverted(self) -> "LShift":
        return LShift(self.state, -self.delta)


@dataclass(frozen=True)
class DiscountChange:
    """Discount change pinned at one state, with its affine value rule.

    The value at ``state`` rescales by (1 - gamma_from)/(1 - gamma_to); all
    other values shift by the same amount that rescaling moved it, so every
    pairwise value difference, and hence the span, is preserved exactly.
    """

    state: int
    gamma_from: float
    gamma_to: float

    def _step(self, mdp: Mdp, arrays: tuple, force: bool = False) -> tuple:
        """The coefficient rewrite of :func:`apply_J` on ``(P, rewards, gamma)``."""
        if not (0 <= self.state < mdp.n_states):
            raise ValueError(f"unknown state {self.state}")
        P, r, g = arrays
        if abs(g - self.gamma_from) > 1e-9:
            raise UnsafeTransformError(
                f"discount step expects gamma={self.gamma_from!r}, mdp has {g!r}"
            )
        state, g2 = self.state, self.gamma_to
        if not (0.0 < g2 < 1.0):
            raise ValueError(f"new discount factor must lie strictly inside (0, 1), got {g2}")
        if g2 == g:
            return arrays

        own = mdp.state_of
        rows = np.arange(mdp.m)
        # gamma' * new probabilities, but at own states (the renormalization sets those)
        cross = g * P
        cross[:, state] -= g - g2

        bad_cross = (own != state) & (cross[:, state] < -_PROB_TOL)
        if np.any(bad_cross) and not force:
            k = int(np.nonzero(bad_cross)[0][0])
            raise UnsafeTransformError(
                f"unsafe transform: action {mdp.ids[k]!r} would get coefficient "
                f"{cross[k, state]!r} at state {state}; only the own-state "
                f"coefficient may be negative"
            )
        bad_own = (own == state) & (cross[:, state] < -_PROB_TOL * g2)
        if np.any(bad_own) and not force:
            k = int(np.nonzero(bad_own)[0][0])
            raise UnsafeTransformError(
                f"unsafe transform: action {mdp.ids[k]!r} would get own-state "
                f"probability {cross[k, state] / g2!r} < 0 at state {state}"
            )

        probs = cross / g2
        if not force:
            probs[probs < 0.0] = 0.0  # boundary steps may leave -1e-17 residue
        # absorb rounding into the own-state entry so each row sums to 1 exactly
        probs[rows, own] = 0.0
        probs[rows, own] = 1.0 - probs.sum(axis=1)
        if not force:  # dividing by a small gamma' can push that entry to -1e-12
            low = np.flatnonzero(probs[rows, own] < 0.0)
            probs[low, own[low]] = 0.0
            probs[low] /= probs[low].sum(axis=1, keepdims=True)
        return probs, r, g2

    def map_values(self, v: np.ndarray) -> np.ndarray:
        out = np.array(v, dtype=np.float64)
        vs = out[self.state]
        vs_new = vs * (1.0 - self.gamma_from) / (1.0 - self.gamma_to)
        out += vs_new - vs
        out[self.state] = vs_new
        return out

    def inverted(self) -> "DiscountChange":
        return DiscountChange(self.state, self.gamma_to, self.gamma_from)


Step = LShift | DiscountChange


@dataclass(frozen=True)
class TransformLog:
    """Ordered record of applied steps; replayable and invertible."""

    original_gamma: float
    steps: tuple[Step, ...]

    def replay(self, mdp: Mdp) -> Mdp:
        """Apply every step to ``mdp``'s arrays in order, then build one model."""
        arrays = mdp.P, mdp.rewards, mdp.gamma
        for step in self.steps:
            arrays = step._step(mdp, arrays)
        return _rebuild(mdp, *arrays)

    def inverted(self) -> "TransformLog":
        gamma_end = self.original_gamma
        for step in self.steps:
            if isinstance(step, DiscountChange):
                gamma_end = step.gamma_to
        return TransformLog(
            original_gamma=gamma_end,
            steps=tuple(step.inverted() for step in reversed(self.steps)),
        )

    def map_values(self, v) -> np.ndarray:
        out = np.array(v, dtype=np.float64)
        for step in self.steps:
            out = step.map_values(out)
        return out


def apply_L(mdp: Mdp, state: int, delta: float) -> Mdp:
    """Shift every policy's value at ``state`` by ``delta``.

    Implemented as the reward rewrite r^a <- r^a - c^a_state * delta for every
    action; probabilities and the discount factor are untouched.  This is the
    unique linear reward rule under which all advantages are unchanged when
    values at ``state`` move by delta.
    """
    return TransformLog(mdp.gamma, (LShift(state, delta),)).replay(mdp)


def apply_J(mdp: Mdp, state: int, gamma_new: float,
            force: bool = False) -> tuple[Mdp, DiscountChange]:
    """Change the discount factor to ``gamma_new`` by rewriting one coordinate.

    Rewards are unchanged; coefficients at coordinates other than ``state``
    are unchanged; the coefficient at ``state`` drops by (gamma - gamma_new)
    for every action.  Probability rows of the result are recovered from the
    new coefficients and renormalized through the own-state entry, so rows
    sum to 1 exactly.

    Raises UnsafeTransformError when the step would push a cross-state
    coefficient, or a recovered own-state probability, below zero.  With
    ``force=True`` the step is applied anyway (the result may then fail
    :func:`mdpgeo.core.validate`).
    """
    change = DiscountChange(state=state, gamma_from=mdp.gamma, gamma_to=float(gamma_new))
    arrays = change._step(mdp, (mdp.P, mdp.rewards, mdp.gamma), force=force)
    return _rebuild(mdp, *arrays), change


def normalize(mdp: Mdp) -> tuple[Mdp, Policy, TransformLog]:
    """Shift rewards so that the optimal values are identically zero.

    Solves the MDP exactly, then applies one value shift per state.  In the
    result, actions of the optimal policy have reward 0 and every other
    action's reward equals its (negative, when the optimum is unique)
    advantage at the optimal values.  Emits NonUniqueOptimumWarning when the
    optimal policy is not unique within tolerance, in which case some
    rewards of actions outside the returned policy may also be ~0.
    """
    sol = solve_exact(mdp)
    if not sol.unique:
        warnings.warn(
            "optimal policy is not unique; normalized rewards of some "
            "non-selected actions will be ~0",
            NonUniqueOptimumWarning,
            stacklevel=2,
        )
    steps = tuple(
        LShift(state=s, delta=-float(sol.values[s])) for s in range(mdp.n_states)
    )
    log = TransformLog(original_gamma=mdp.gamma, steps=steps)
    normalized = log.replay(mdp)
    pol = Policy(choice=sol.policy.choice, values=log.map_values(sol.values))
    return normalized, pol, log


def state_slack(mdp: Mdp) -> np.ndarray:
    """Per state, the largest discount reduction a single step there allows.

    The binding constraints are the smallest cross-state coefficient at the
    state (it may reach exactly 0) and the smallest own-state probability
    there (the recovered row entry may reach exactly 0).  Both equal
    gamma * p for the respective actions, so the slack at state i is
    gamma * min_a p^a_i over all actions.
    """
    p_min = mdp.P.min(axis=0)
    return np.maximum(mdp.gamma * p_min, 0.0)


def effective_gamma(mdp: Mdp, floor: float = GAMMA_FLOOR) -> tuple[float, TransformLog]:
    """Lowest discount factor reachable by safe per-state steps.

    States are processed in ascending index; each step touches only its own
    coordinate, so the reachable value gamma - sum(slack) is order
    independent.  The result is clamped at ``floor`` to stay inside (0, 1).
    Returns the final discount factor and the log of the steps.

    Builds no model (``log.replay(mdp)`` does): a step leaves the other
    states' coefficients, and so their slack, as they were.
    """
    validate(mdp)
    if not floor > 0.0:
        raise ValueError(f"floor must be positive, got {floor}")
    floor = min(float(floor), mdp.gamma)
    slack = state_slack(mdp)
    steps: list[DiscountChange] = []
    g = mdp.gamma
    for s in range(mdp.n_states):
        if slack[s] <= 1e-15 or g <= floor:
            continue
        target = max(g - float(slack[s]), floor)
        steps.append(DiscountChange(s, g, target))
        g = target
    return g, TransformLog(original_gamma=mdp.gamma, steps=tuple(steps))
