"""Finite discounted MDPs with state-unique actions.

Arrays are the model: an :class:`Mdp` holds a discount factor, one id per
action row, the row's owning state, its next-state distribution (a row of
``P``) and its reward.  :class:`Action` records exist only at the boundary,
for building a model by hand and for reading one row back (``Mdp.actions``).
Value vectors are bare float64 numpy arrays indexed by state.  Every action
embeds into an (n+1)-vector ``(reward, coeffs)`` whose coefficients are
``gamma * probs`` except at the action's own state, where 1 is subtracted;
the inner product of ``coeffs`` with a value vector plus the reward is the
action's advantage at those values.  The (m, n) matrix of all coefficients,
``Mdp.coeffs``, is formed anew at each access and not kept by the model;
one action's row is formed alone (:func:`action_vector`, :func:`advantage`).

Every greedy backup runs on one kernel, :func:`greedy`, over the action rows
grouped by state in id order (``Mdp.groups``) and laid out once per model as
padded tables (``Mdp.bands``): a row per state, filled up with copies of the
state's first row.  States are banded by size so that pads never outnumber
rows, and the tables hold at most 2m indices whatever the group sizes.  Per
table, one gather from ``q`` and one ``argmax`` along the rows give each
state's first best row, so ties go to the lowest action id (and NaN to the
first NaN) exactly as ``np.argmax`` per state would; the maximum is ``q`` at
that row.  A zero maximum takes its sign from numpy's max reduction over the
state's rows, which picks among equal zeros by how its SIMD lanes split them.

All types are immutable after construction and every operation here is a
pure function of its inputs, so instances can be shared freely across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Action",
    "ActionVector",
    "Mdp",
    "ModelError",
    "Policy",
    "action_vector",
    "advantage",
    "advantages",
    "bellman_optimal",
    "bellman_policy",
    "greedy",
    "policy_from_ids",
    "q_values",
    "row_spans",
    "span",
    "validate",
]

ROW_SUM_TOL = 1e-12


class ModelError(ValueError):
    """An MDP or one of its components violates a structural invariant."""


def span(v) -> float:
    """Max minus min of a value vector; zero for constants, always >= 0."""
    v = np.asarray(v, dtype=np.float64)
    return float(np.max(v) - np.min(v))


def row_spans(x: np.ndarray) -> np.ndarray:
    """Per-row max minus min, row for row the bits of :func:`span`."""
    return x.max(axis=1) - x.min(axis=1)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _read_only(given, dtype) -> np.ndarray:
    """``given`` as a read-only view; a caller's own array stays writable."""
    return _freeze(np.asarray(given, dtype=dtype).view())


def as_values(v, n_states: int) -> np.ndarray:
    """Coerce ``v`` to a finite float64 vector of length ``n_states``."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (n_states,):
        raise ModelError(f"value vector has shape {v.shape}, expected ({n_states},)")
    if not np.all(np.isfinite(v)):
        raise ModelError("value vector has non-finite entries")
    return v


@dataclass(frozen=True, eq=False)
class Action:
    """One action, owned by ``state``, with next-state distribution ``probs``."""

    id: str
    state: int
    probs: np.ndarray
    reward: float

    def __post_init__(self):
        object.__setattr__(self, "id", str(self.id))
        object.__setattr__(self, "state", int(self.state))
        object.__setattr__(self, "probs", _freeze(np.array(self.probs, dtype=np.float64)))
        object.__setattr__(self, "reward", float(self.reward))


@dataclass(frozen=True)
class ActionVector:
    """Embedding of an action: reward plus per-state coefficients.

    ``coeffs`` sums to gamma - 1; the entry at the action's own state is the
    single non-positive one.
    """

    reward: float
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _freeze(np.array(self.coeffs, dtype=np.float64)))


@dataclass(frozen=True, eq=False, init=False)
class Mdp:
    """A discounted MDP as arrays: row k is action ``ids[k]`` of state ``state_of[k]``,
    with next-state distribution ``P[k]`` and reward ``rewards[k]``.

    The read-only arrays are set once, from :class:`Action` records by
    ``Mdp(n_states, actions, gamma)`` or by :meth:`from_arrays`; both check
    shapes only, so call :func:`validate` for the full invariant check.
    :func:`validate` reads the arrays at every call, while what is derived
    from them (own-state probabilities, per-state rows sorted by action id
    and their padded tables, the id index, the ``actions`` records,
    ``twostate``'s per-model core) is formed once, so an array handed to a
    model must not change afterwards.
    The coefficient matrix ``coeffs`` is as large as ``P`` and is formed at
    each access instead.
    """

    n_states: int
    gamma: float
    m: int
    ids: tuple[str, ...]
    state_of: np.ndarray
    P: np.ndarray
    rewards: np.ndarray

    def __init__(self, n_states: int, actions: Iterable[Action], gamma: float):
        actions = tuple(actions)
        for a in actions:
            if a.probs.shape != (n_states,):
                raise ModelError(f"action {a.id!r} has probs of shape {a.probs.shape}, "
                                 f"expected ({n_states},)")
        self._set(n_states, gamma, [a.id for a in actions], [a.state for a in actions],
                  [a.probs for a in actions], [a.reward for a in actions])

    @classmethod
    def from_arrays(cls, n_states: int, gamma: float, ids, state_of, P, rewards) -> Mdp:
        """A model straight from its arrays; ``P`` must be (len(ids), n_states)."""
        mdp = cls.__new__(cls)
        mdp._set(n_states, gamma, ids, state_of, P, rewards)
        return mdp

    def _set(self, n_states, gamma, ids, state_of, P, rewards) -> None:
        ids, n = tuple(ids), int(n_states)
        try:  # no rows allocate nothing
            P = _read_only(P if ids else np.empty((0, n)), np.float64)
            state_of = _read_only(state_of, np.intp)
            rewards = _read_only(rewards, np.float64)
        except (ValueError, OverflowError) as exc:
            raise ModelError(f"model arrays are malformed: {exc}") from None
        m, shapes = len(ids), (P.shape, state_of.shape, rewards.shape)
        if shapes != ((m, n), (m,), (m,)):
            raise ModelError(f"P, state_of, rewards have shapes {shapes}, "
                             f"expected {((m, n), (m,), (m,))}")
        vars(self).update(n_states=n, gamma=float(gamma), m=m, ids=ids, state_of=state_of, P=P,
                          rewards=rewards)  # set once, past the frozen __setattr__

    @cached_property
    def actions(self) -> tuple[Action, ...]:
        """The rows as :class:`Action` records."""
        return tuple(map(Action, self.ids, self.state_of.tolist(), self.P, self.rewards.tolist()))

    @property
    def coeffs(self) -> np.ndarray:
        """(m, n) coefficient matrix: gamma*P with 1 subtracted at own states.

        A new read-only array at each access: keep it while it is needed."""
        c = self.gamma * self.P
        c[np.arange(self.m), self.state_of] -= 1.0
        return _freeze(c)

    @cached_property
    def p_own(self) -> np.ndarray:
        """Per row, the probability of staying at the owning state."""
        return _freeze(self.P[np.arange(self.m), self.state_of])

    @cached_property
    def groups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(order, starts, sizes)``: state s owns rows ``order[starts[s]:][:sizes[s]]``,
        sorted by action id; rows naming an unknown state are left out."""
        by_id = np.array(sorted(range(self.m), key=self.ids.__getitem__), dtype=np.intp)
        order = by_id[np.argsort(self.state_of[by_id], kind="stable")]
        order = order[(self.state_of[order] >= 0) & (self.state_of[order] < self.n_states)]
        sizes = np.bincount(self.state_of[order], minlength=self.n_states)
        return _freeze(order), _freeze(np.cumsum(sizes) - sizes), _freeze(sizes)

    @cached_property
    def bands(self) -> tuple[tuple[np.ndarray | slice, np.ndarray], ...]:
        """``groups`` as padded tables: ``(states, table)`` pairs where row i of
        the (len(states), w) ``table`` holds the rows of state ``states[i]`` in
        id order, then copies of its first row up to width w.  Largest first, a
        band takes states while they average at least w/2 rows, so pads never
        outnumber rows (at most 2m entries in all) and each band is under half
        as wide as the one before.  ``states`` is ``slice(None)`` when one table
        holds every state in order; states without rows are in no table."""
        order, starts, sizes = self.groups
        by_size = np.argsort(-sizes, kind="stable")
        by_size = by_size[sizes[by_size] > 0]
        out, i = [], 0
        while i < by_size.size:
            k = sizes[by_size[i:]]
            w = int(k[0])
            j = i + int(np.count_nonzero(2 * np.cumsum(k) >= w * np.arange(1, k.size + 1)))
            states = np.sort(by_size[i:j])
            cols = np.arange(w)
            table = order[starts[states, None] + np.where(cols < sizes[states, None], cols, 0)]
            out.append((states, _freeze(table)))
            i = j
        if len(out) == 1 and out[0][0].size == self.n_states:
            out = [(slice(None), out[0][1])]
        return tuple(out)

    @cached_property
    def state_rows(self) -> tuple[np.ndarray, ...]:
        """Per state, the action row indices sorted by action id."""
        order, starts, sizes = self.groups
        return tuple(order[a : a + k] for a, k in zip(starts.tolist(), sizes.tolist()))

    @cached_property
    def row_of(self) -> dict[str, int]:
        """Row index per action id (the last row, should an id repeat)."""
        return dict(zip(self.ids, range(self.m)))

    def row(self, action_id: str) -> int:
        """Row index of an action id; ModelError if the id is unknown."""
        k = self.row_of.get(action_id)
        if k is None:
            raise ModelError(f"unknown action id {action_id!r}")
        return k

    def action(self, action_id: str) -> Action:
        return self.actions[self.row(action_id)]


@dataclass(frozen=True)
class Policy:
    """One action id per state; carries its evaluated values once solved.

    Equality and hashing use the choice tuple only, so policies compare by
    the actions they pick regardless of attached values.
    """

    choice: tuple[str, ...]
    values: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "choice", tuple(str(c) for c in self.choice))
        if self.values is not None:
            object.__setattr__(self, "values", _freeze(np.array(self.values, dtype=np.float64)))


def policy_rows(mdp: Mdp, policy: Policy) -> np.ndarray:
    """Row indices of a policy's actions, one per state; ModelError unless the
    policy names one known action per state, each owned by that state."""
    ids = policy.choice
    if len(ids) != mdp.n_states:
        raise ModelError(f"policy has {len(ids)} choices for {mdp.n_states} states")
    rows = np.array([mdp.row(aid) for aid in ids], dtype=np.intp)
    wrong = mdp.state_of[rows] != np.arange(mdp.n_states)
    if wrong.any():
        s = int(np.argmax(wrong))
        raise ModelError(f"action {ids[s]!r} belongs to state {mdp.state_of[rows[s]]}, not {s}")
    return rows


def policy_from_ids(mdp: Mdp, ids: Sequence[str], values=None) -> Policy:
    """Build a policy from one action id per state, checked by :func:`policy_rows`."""
    policy = Policy(choice=ids, values=values)
    policy_rows(mdp, policy)
    return policy


def validate(mdp: Mdp) -> None:
    """Check every structural invariant; raise ModelError on the first failure.

    Checked: gamma strictly inside (0,1); unique action ids; each action has
    a known state, a proper distribution over next states (nonnegative,
    summing to 1 within 1e-12) and a finite reward; every state owns at
    least one action.  Each check runs over all rows at once and names the
    lowest offending row; shapes are checked when the model is built.  Every
    check reads the arrays at every call; nothing is remembered.
    """
    if mdp.n_states < 1:
        raise ModelError(f"n_states must be >= 1, got {mdp.n_states}")
    if not (0.0 < mdp.gamma < 1.0):
        raise ModelError(f"discount factor must lie strictly inside (0, 1), got {mdp.gamma}")
    ids, states, P = mdp.ids, mdp.state_of, mdp.P
    first = dict(zip(reversed(ids), range(mdp.m - 1, -1, -1)))  # id -> its lowest row
    repeats = np.ones(mdp.m, dtype=bool)
    repeats[list(first.values())] = False
    with np.errstate(invalid="ignore"):  # inf - inf: that row fails the finiteness check
        sums = P.sum(axis=1)
    for bad, problem in (
        (repeats, "duplicate action id {id!r}"),
        ((states < 0) | (states >= mdp.n_states), "action {id!r} names unknown state {state}"),
        (~np.isfinite(P).all(axis=1), "action {id!r} has non-finite probabilities"),
        ((P < 0.0).any(axis=1), "action {id!r} has a negative probability"),
        (np.abs(sums - 1.0) > ROW_SUM_TOL, "action {id!r} row sums to {sum!r}, not 1"),
        (~np.isfinite(mdp.rewards), "action {id!r} has non-finite reward"),
    ):
        if bad.any():
            k = int(np.argmax(bad))
            raise ModelError(problem.format(id=ids[k], state=states[k], sum=float(sums[k])))
    if not mdp.m:  # no probs row bounds n_states, which bincount would allocate
        raise ModelError("state 0 has no actions")
    counts = np.bincount(states, minlength=mdp.n_states)
    if not counts.all():
        raise ModelError(f"state {int(np.argmin(counts))} has no actions")


def action_vector(mdp: Mdp, action_id: str) -> ActionVector:
    """Embed one action as (reward, coefficients): row ``coeffs[k]`` formed alone."""
    k = mdp.row(action_id)
    coeffs = mdp.gamma * mdp.P[k]
    coeffs[mdp.state_of[k]] -= 1.0
    return ActionVector(reward=float(mdp.rewards[k]), coeffs=coeffs)


def advantage(mdp: Mdp, action_id: str, v) -> float:
    """reward + coeffs . v for one action at values v."""
    v = as_values(v, mdp.n_states)
    av = action_vector(mdp, action_id)
    return float(av.reward + av.coeffs @ v)


def advantages(mdp: Mdp, v) -> np.ndarray:
    """Advantages of all actions at values v, in action order."""
    v = as_values(v, mdp.n_states)
    return mdp.rewards + mdp.coeffs @ v


def q_values(mdp: Mdp, v: np.ndarray, rows: np.ndarray | slice = slice(None)) -> np.ndarray:
    """``rewards + gamma * (P @ v)`` over all action rows, or over ``rows``: the one
    place the run path (backups, value iteration, Howard) forms r + gamma * P v."""
    return mdp.rewards[rows] + mdp.gamma * (mdp.P[rows] @ v)


def bellman_policy(mdp: Mdp, policy: Policy, v) -> np.ndarray:
    """One application of the policy's backup: r_pi + gamma * P_pi v."""
    v = as_values(v, mdp.n_states)
    return q_values(mdp, v, policy_rows(mdp, policy))


def active_mask(mdp: Mdp, active: Iterable[str] | np.ndarray | None) -> np.ndarray:
    """Boolean mask over action rows from either ids, a mask, or None (all)."""
    if active is None:
        return np.ones(mdp.m, dtype=bool)
    if isinstance(active, np.ndarray) and active.dtype == bool:
        if active.shape != (mdp.m,):
            raise ModelError(f"active mask has shape {active.shape}, expected ({mdp.m},)")
        return active
    mask = np.zeros(mdp.m, dtype=bool)
    for aid in active:
        k = mdp.row_of.get(str(aid))
        if k is None:
            raise ModelError(f"unknown action id {aid!r} in active set")
        mask[k] = True
    return mask


def greedy(mdp: Mdp, q: np.ndarray, error=ModelError) -> tuple[np.ndarray, np.ndarray]:
    """Per-state maximum of ``q`` and its argmax rows, along axis 0.

    ``q`` holds one entry per action row, shape ``(m,)``, or one column per
    value vector, shape ``(m, k)``; the results have shape ``(n,)`` resp.
    ``(n, k)``, and column j of them is the result for ``q[:, j]``.  Ties go
    to the lowest action id.  Inactive rows are marked -inf; a state with no
    rows, or with only -inf entries, raises ``error``.
    """
    order, starts, sizes = mdp.groups
    if np.count_nonzero(sizes) < mdp.n_states:
        raise error(f"state {int(np.argmin(sizes))} has no actions")
    x = q if q.ndim == 1 else np.ascontiguousarray(q.T)  # each column a contiguous row
    pos = np.empty(x.shape[:-1] + (mdp.n_states,), dtype=np.intp)
    for states, table in mdp.bands:
        pos[..., states] = x.take(table, axis=-1).argmax(axis=-1)
    rows = order[starts + pos]
    u = x[rows] if x.ndim == 1 else np.take_along_axis(x, rows, axis=-1)
    if np.count_nonzero(u) < u.size:
        # equal zeros may differ in sign: a zero maximum takes the sign that
        # numpy's max reduction over the state's rows picks
        zero = u == 0.0
        u[zero] = np.maximum.reduceat(x.take(order, axis=-1), starts, axis=-1)[zero]
    u, rows = u.T, rows.T
    if np.count_nonzero(u == -np.inf):
        raise error(f"state {int(np.nonzero(u == -np.inf)[0][0])} has no active action")
    return u, rows


def bellman_optimal(
    mdp: Mdp, v, active: Iterable[str] | np.ndarray | None = None
) -> tuple[np.ndarray, Policy]:
    """Greedy backup: per state, the best one-step value over active actions.

    Ties are broken toward the lowest action id.  Returns the maximizing
    values and the argmax policy.
    """
    v = as_values(v, mdp.n_states)
    q = q_values(mdp, v)
    u, rows = greedy(mdp, np.where(active_mask(mdp, active), q, -np.inf))
    return u, Policy(choice=tuple(mdp.ids[k] for k in rows))
