"""Value iteration in its general form, Howard policy iteration, exact solvers.

Value iteration supports a learning rate, synchronous and asynchronous
update schedules, three stopping rules (iteration budget, span of successive
differences, active-action count) plus a fourth stop on the span of the
values themselves, and an optional action filter that permanently discards
actions once they are provably suboptimal.

Policy iteration is the classic Howard variant: exact evaluation by a dense
linear solve, then simultaneous greedy improvement.  ``solve_exact`` wraps
it with a brute-force cross-check on small instances; the brute-force path
is kept deliberately independent (full policy enumeration, one linear solve
each) so it can serve as an oracle for everything else.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from functools import cached_property
from hashlib import sha256
from math import ceil, isfinite, log

import numpy as np

from .core import (
    ROW_SUM_TOL,
    Mdp,
    ModelError,
    Policy,
    advantages,
    as_values,
    greedy,
    policy_rows,
    row_spans,
    span,
    validate,
)

__all__ = [
    "ConfigError",
    "ConsistencyError",
    "ExactSolution",
    "PiTrace",
    "RunTrace",
    "SolverError",
    "ViConfig",
    "brute_force_solve",
    "evaluate_policy",
    "filter_appendix",
    "hard_iteration_cap",
    "max_reward_policy",
    "policy_iteration",
    "solve_exact",
    "value_iteration",
]

PI_TIE_TOL = 1e-9
BRUTE_MAX_STATES = 3
BRUTE_MAX_ACTIONS = 12


class ConfigError(ValueError):
    """A solver configuration violates one of its invariants."""


class SolverError(RuntimeError):
    """A solver run failed (for reasons other than configuration)."""


class ConsistencyError(RuntimeError):
    """Two independent solution routes disagree beyond tolerance."""


def hard_iteration_cap(gamma: float) -> int:
    """Generous multiple of the classical worst-case iteration count."""
    eps_machine = np.finfo(np.float64).eps
    inverse = 1.0 / float(gamma)  # inf below ~5.6e-309; near 1, -log(gamma) would move caps
    return 10 * ceil(log(1.0 / eps_machine) / (log(inverse) if isfinite(inverse) else -log(gamma)))


@dataclass(frozen=True)
class ViConfig:
    """Configuration for :func:`value_iteration`.

    stop: "time" (run exactly ``t_max`` updates), "span" (successive
    difference span <= eps*(1-gamma)/gamma), "value_span" (value span drops
    under eps*(1-gamma)/(gamma*(1+gamma))), or "actions" (active set is down
    to one action per state; requires the filter).

    schedule: "sync" updates every state, "round_robin" updates
    ``round_robin_k`` states per iteration in fixed index order, "explicit"
    cycles through ``explicit_sets``.

    v0: "zeros", "upper_bound" (constant 1/(1-gamma)), or "given" with
    ``v0_values``.
    """

    alpha: float = 1.0
    stop: str = "span"
    t_max: int | None = None
    epsilon: float | None = None
    filter: str = "none"
    schedule: str = "sync"
    round_robin_k: int = 1
    explicit_sets: tuple[tuple[int, ...], ...] | None = None
    v0: str = "zeros"
    v0_values: tuple[float, ...] | None = None
    record_wall_clock: bool = False

    def validate_for(self, mdp: Mdp) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise ConfigError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.stop not in ("time", "span", "value_span", "actions"):
            raise ConfigError(f"unknown stop rule {self.stop!r}")
        if self.stop == "time":
            if self.t_max is None or self.t_max < 0:
                raise ConfigError("time stop requires t_max >= 0")
        if self.stop in ("span", "value_span"):
            if self.epsilon is None or not (self.epsilon > 0.0):
                raise ConfigError(f"{self.stop} stop requires epsilon > 0")
        if self.stop == "actions" and self.filter == "none":
            raise ConfigError("action-count stop requires a filter")
        if self.filter not in ("none", "appendix"):
            raise ConfigError(f"unknown filter {self.filter!r}")
        if self.schedule not in ("sync", "round_robin", "explicit"):
            raise ConfigError(f"unknown schedule {self.schedule!r}")
        if self.schedule == "round_robin" and not (1 <= self.round_robin_k <= mdp.n_states):
            raise ConfigError("round_robin_k must lie in [1, n_states]")
        if self.schedule == "explicit":
            if not self.explicit_sets:
                raise ConfigError("explicit schedule requires at least one state set")
            for group in self.explicit_sets:
                for s in group:
                    if not (0 <= s < mdp.n_states):
                        raise ConfigError(f"explicit schedule names unknown state {s}")
        if self.v0 not in ("zeros", "upper_bound", "given"):
            raise ConfigError(f"unknown v0 choice {self.v0!r}")
        if self.v0 == "given" and self.v0_values is None:
            raise ConfigError("v0='given' requires v0_values")
        if self.filter == "appendix":
            if np.any(mdp.rewards < -1e-12) or np.any(mdp.rewards > 1.0 + 1e-12):
                raise ConfigError("the action filter requires all rewards in [0, 1]")
            if self.v0 != "upper_bound":
                raise ConfigError("the action filter requires v0='upper_bound'")
            if self.alpha != 1.0 or self.schedule != "sync":
                raise ConfigError("the action filter requires alpha=1 and a sync schedule")

    def initial_values(self, mdp: Mdp) -> np.ndarray:
        if self.v0 == "zeros":
            return np.zeros(mdp.n_states)
        if self.v0 == "upper_bound":
            return np.full(mdp.n_states, 1.0 / (1.0 - mdp.gamma))
        return as_values(np.array(self.v0_values, dtype=np.float64), mdp.n_states)

    def states_for(self, t: int, n: int) -> np.ndarray:
        if self.schedule == "sync":
            return np.arange(n)
        if self.schedule == "round_robin":
            k = self.round_robin_k
            return (t * k + np.arange(k)) % n
        sets = self.explicit_sets
        return np.array(sorted(set(sets[t % len(sets)])), dtype=np.intp)


@dataclass
class RunTrace:
    """Everything one value-iteration run produced.

    Row t of ``values`` is V_t, so there are iterations+1 rows.  Row t of
    ``rows`` (int32, shape (iterations, n)) holds the action rows of the
    greedy policy computed at V_t.  Formed on first access: ``policies``, the
    rows as action ids; ``span_v``, the span of each V_t; ``span_dv``, NaN and
    then the span of each V_t - V_(t-1).  ``filtered`` holds the ids dropped by
    each update's filter pass, ``filter_fallbacks`` counts the passes that
    needed the exact product (see :func:`filter_appendix`).  Wall-clock times
    and that count stay in memory only; serialized traces are deterministic.
    A trace read from a file has no greedy rows: ``rows`` has shape (0, n).
    """

    values: np.ndarray
    active_counts: np.ndarray
    rows: np.ndarray
    ids: tuple[str, ...]
    filtered: tuple[tuple[str, ...], ...]
    stop_reason: str
    final_policy: Policy | None
    filter_fallbacks: int = 0
    wall_clock: np.ndarray | None = None

    @property
    def iterations(self) -> int:
        return self.values.shape[0] - 1

    @property
    def converged(self) -> bool:
        return self.stop_reason != "cap"

    @cached_property
    def span_v(self) -> np.ndarray:
        return row_spans(self.values)

    @cached_property
    def span_dv(self) -> np.ndarray:
        return np.concatenate(([np.nan], row_spans(np.diff(self.values, axis=0))))

    @cached_property
    def policies(self) -> tuple[tuple[str, ...], ...]:
        """Per performed update, the greedy policy's action ids."""
        ids = self.ids
        return tuple(tuple(ids[k] for k in row) for row in self.rows.tolist())

    def content_hash(self) -> str:
        """Stable digest of the deterministic trace payload."""
        h = sha256()
        h.update(np.ascontiguousarray(self.values).tobytes())
        h.update(np.ascontiguousarray(self.active_counts).tobytes())
        h.update(self.stop_reason.encode())
        return h.hexdigest()


def filter_appendix(mdp: Mdp, t: int, v, active: np.ndarray,
                    pv: np.ndarray | None = None) -> tuple:
    """Drop actions whose optimal-values advantage is provably negative.

    ``v`` must be the iterate V_t of a standard run started from the
    constant upper bound 1/(1-gamma) on an MDP with rewards in [0, 1]; under
    those preconditions the error at time t is at most gamma^t/(1-gamma) in
    every coordinate, its span is too, and an action can be discarded once

        adv(a, V_t) + (1 - gamma * p^a_own) * gamma^t / (1 - gamma) < 0.

    The slack combines the worst-case drift of the advantage, gamma times
    the cross-state error span weighted by (1 - p_own) plus (1 - gamma)
    times the own-state error; a plain (1 - p_own) weight would understate
    it for self-loop-heavy actions and could discard an optimal action.
    The last surviving action of a state is never dropped; every state needs
    an active action on entry.  Returns the new mask and the dropped ids.

    The advantage is ``rewards + coeffs @ v`` in floats.  Given ``pv =
    P @ v`` (of a validated model), the pass forms it as ``rewards + gamma *
    pv - v[state_of]`` and keeps that only when it provably decides alike:
    every active row's margin is farther from 0 than the rounding bound of
    :func:`_shared_error`, and no state is emptied (the kept row is chosen
    by the advantage values).  Otherwise it computes the exact product.
    Without ``pv`` the pass validates the model and forms ``P @ v`` itself;
    with it the result gains a third item, True when it fell back.
    """
    v = as_values(v, mdp.n_states)
    if pv is None:
        validate(mdp)
        return filter_appendix(mdp, t, v, active, mdp.P @ v)[:2]
    bound = (1.0 - mdp.gamma * mdp.p_own) * mdp.gamma**t / (1.0 - mdp.gamma)
    margin = mdp.rewards + mdp.gamma * pv - v[mdp.state_of] + bound
    if np.all((np.abs(margin) > _shared_error(mdp, v)) | ~active):
        drop = active & (margin < 0.0)
        if not np.any(drop):
            return active, (), False
        new = active & ~drop
        if np.bincount(mdp.state_of[new], minlength=mdp.n_states).all():
            return new, tuple(mdp.ids[k] for k in np.flatnonzero(drop)), False
    return (*_filter_exact(mdp, v, active, bound), True)


def _shared_error(mdp: Mdp, v: np.ndarray) -> float:
    """Bound on |(r + gamma*fl(P@v) - v_own) - (r + fl(coeffs@v))| over all rows.

    A length-n dot product is within gamma_n * sum|c_i v_i| of its exact value,
    gamma_k = k*u/(1-k*u) with u the unit roundoff (Higham 2002, section 3.1).
    With S = (1 + 1e-12) * max|v| >= sum P_i |v_i| and sum |coeffs_i| <= 2, the
    two products differ by at most 3*gamma_n*S, the rounded ``coeffs`` entries
    and the scalar operations by under 8u*S + 3u*|r|; the factor 4 leaves room
    for rounding the margin and this bound, ``tiny`` for underflowing products.
    Both users of the shared ``P @ v`` trust it under this bound:
    :func:`filter_appendix` and the improvement step of :func:`policy_iteration`.
    """
    k = (mdp.n_states + 4) * np.finfo(np.float64).eps / 2
    s = (1.0 + ROW_SUM_TOL) * float(np.max(np.abs(v)))
    r = float(np.max(np.abs(mdp.rewards)))
    return 4.0 * k / (1.0 - k) * (s + r) + np.finfo(np.float64).tiny


def _filter_exact(mdp: Mdp, v: np.ndarray, active: np.ndarray,
                  bound: np.ndarray) -> tuple[np.ndarray, tuple[str, ...]]:
    adv = advantages(mdp, v)
    drop = active & (adv + bound < 0.0)
    if not np.any(drop):
        return active, ()
    new = active & ~drop
    left = np.bincount(mdp.state_of[new], minlength=mdp.n_states) > 0
    if not left.all():  # keep the best formerly active row of each emptied state
        keep = greedy(mdp, np.where(active, adv, -np.inf), error=SolverError)[1][~left]
        new[keep] = True
    removed = tuple(mdp.ids[k] for k in np.nonzero(active & ~new)[0])
    return new, removed


def _backup(mdp: Mdp, pv: np.ndarray, active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`greedy` over the active rows of ``rewards + gamma * pv``.  The filter
    leaves every state an active row, so a state whose active rows all overflow
    to -inf has left the float range: ModelError, as for any non-finite value."""
    with np.errstate(over="ignore"):
        q = np.where(active, mdp.rewards + mdp.gamma * pv, -np.inf)
    return greedy(mdp, q, error=lambda _: ModelError("value vector has non-finite entries"))


def value_iteration(mdp: Mdp, cfg: ViConfig) -> RunTrace:
    """Run the general value-iteration loop until a stop rule fires.

    Each iteration greedily backs up the current values over the active
    action set, blends with the learning rate on the scheduled states, then
    applies the filter.  Non-time stops are additionally guarded by a hard
    iteration cap; hitting it ends the run with stop_reason="cap".  An
    iterate with an inf or NaN entry ends the run at once in ModelError.
    """
    validate(mdp)
    cfg.validate_for(mdp)
    n = mdp.n_states
    gamma, alpha = mdp.gamma, cfg.alpha

    v = cfg.initial_values(mdp)
    pv = mdp.P @ v  # shared by the filter at v and the next backup
    active = np.ones(mdp.m, dtype=bool)
    cap = None if cfg.stop == "time" else hard_iteration_cap(gamma)

    values = [v]
    counts = [mdp.m]
    rows: list[np.ndarray] = []
    filtered: list[tuple[str, ...]] = []
    fallbacks = 0
    wall: list[float] = []

    if cfg.stop == "span":
        threshold = cfg.epsilon * (1.0 - gamma) / gamma
    elif cfg.stop == "value_span":
        threshold = cfg.epsilon * (1.0 - gamma) / (gamma * (1.0 + gamma))

    def should_stop(t: int) -> str | None:
        if cfg.stop == "time":
            return "time" if t == cfg.t_max else None
        if cfg.stop == "span":
            return "span" if t >= 1 and span(values[t] - values[t - 1]) <= threshold else None
        if cfg.stop == "value_span":
            return "value_span" if span(values[t]) < threshold else None
        return "actions" if counts[t] == n else None

    t = 0
    stop_reason = None
    while True:
        stop_reason = should_stop(t)
        if stop_reason is not None:
            break
        if cap is not None and t >= cap:
            stop_reason = "cap"
            break
        t0 = time.perf_counter() if cfg.record_wall_clock else 0.0
        sel = cfg.states_for(t, n)
        u, best = _backup(mdp, pv, active)
        v_new = v.copy()
        v_new[sel] = (1.0 - alpha) * v[sel] + alpha * u[sel]
        as_values(v_new, n)  # ModelError on an inf or NaN entry
        pv = mdp.P @ v_new
        removed: tuple[str, ...] = ()
        if cfg.filter == "appendix":
            active, removed, fell_back = filter_appendix(mdp, t + 1, v_new, active, pv)
            fallbacks += fell_back
        values.append(v_new)
        counts.append(int(active.sum()))
        rows.append(best.astype(np.int32))
        filtered.append(removed)
        if cfg.record_wall_clock:
            wall.append(time.perf_counter() - t0)
        v = v_new
        t += 1

    _, best = _backup(mdp, pv, active)
    return RunTrace(
        values=np.vstack(values),
        active_counts=np.array(counts, dtype=np.intp),
        rows=np.array(rows, dtype=np.int32).reshape(len(rows), n),
        ids=mdp.ids,
        filtered=tuple(filtered),
        stop_reason=stop_reason,
        final_policy=Policy(choice=tuple(mdp.ids[k] for k in best)),
        filter_fallbacks=fallbacks,
        wall_clock=np.array(wall) if cfg.record_wall_clock else None,
    )


def evaluate_policy(mdp: Mdp, policy: Policy) -> np.ndarray:
    """Exact policy values via the dense linear solve (I - gamma P) V = r."""
    rows = policy_rows(mdp, policy)
    return evaluate_rows(mdp, rows)


def evaluate_rows(mdp: Mdp, rows: np.ndarray) -> np.ndarray:
    """Exact values of the policy taking row ``rows[s]`` at each state s;
    ModelError when they overflow.

    ``I - gamma * P[rows]`` is built in the one copy ``P[rows]``, entry for
    entry as that expression rounds: ``0.0 - x`` negates exactly (and gives
    +0.0 for a zero) and ``-x + 1.0`` rounds as ``1.0 - x`` does."""
    a = mdp.P[rows]
    a *= mdp.gamma
    np.subtract(0.0, a, out=a)
    a.flat[::mdp.n_states + 1] += 1.0
    try:
        v = np.linalg.solve(a, mdp.rewards[rows])
    except np.linalg.LinAlgError as exc:  # cannot occur for gamma < 1, guarded anyway
        raise SolverError(f"policy evaluation solve failed: {exc}") from exc
    return as_values(v, mdp.n_states)


@dataclass
class PiTrace:
    """Policies and their exact values along a policy-iteration run.

    ``switched`` holds, per round, the number of states whose row the
    improvement changed (0 in the confirming last round); ``fallbacks``
    counts the rounds that needed the exact advantage product (see
    :func:`policy_iteration`).  Both stay in memory only.
    """

    policies: tuple[tuple[str, ...], ...]
    values: np.ndarray
    iterations: int
    switched: tuple[int, ...] = ()
    fallbacks: int = 0


def _improve(mdp: Mdp, rows: np.ndarray, adv: np.ndarray,
             err: float | None = None) -> np.ndarray | None:
    """Howard's improved rows at advantages ``adv``: a state keeps its row while
    that is within PI_TIE_TOL of its best advantage, else takes its best row.

    Given ``err``, a bound on how far ``adv`` lies from the exact product,
    returns None unless every state provably decides as it would there:
    either its keep test clears its threshold by more than 2*err (its row
    and its best each move by at most err), or its top row leads the
    runner-up by more than 2*err (so the exact top row is the same) and the
    state holds that row or fails its keep test by more than 2*err.  Exact
    ties go to the lowest action id, so a near-tie is never trusted.
    """
    if err is not None and not np.isfinite(adv).all():
        return None
    u, best = greedy(mdp, adv, error=SolverError)
    nxt = np.where(adv[rows] >= u - PI_TIE_TOL, rows, best)
    if err is None:
        return nxt
    order, starts, _ = mdp.groups
    others = adv.copy()
    others[best] = -np.inf
    lead = u - np.maximum.reduceat(others[order], starts)  # inf for a single row
    margin = adv[rows] - (u - PI_TIE_TOL)
    clear = 2.0 * err
    sure = (margin > clear) | ((lead > clear) & ((margin < -clear) | (best == rows)))
    return nxt if sure.all() else None


def policy_iteration(mdp: Mdp, pi0: Policy) -> tuple[Policy, PiTrace]:
    """Howard policy iteration: evaluate exactly, improve everywhere, repeat.

    A state keeps its action while it is within 1e-9 of the best advantage.
    Stops when the improved policy equals the current one.  The iteration
    count includes that confirming round, so a fixed point costs one
    iteration.

    Each round forms the advantages as ``rewards + gamma * (P @ v) -
    v[state_of]``, with no m x n coefficient matrix, and redoes the round
    with the exact :func:`advantages` (counted in ``PiTrace.fallbacks``)
    unless the bound of :func:`_shared_error` proves every decision.
    """
    validate(mdp)
    rows = policy_rows(mdp, pi0)
    pols: list[tuple[str, ...]] = []
    vals: list[np.ndarray] = []
    switched: list[int] = []
    fallbacks = 0
    while True:
        v = evaluate_rows(mdp, rows)
        pols.append(tuple(mdp.ids[k] for k in rows))
        vals.append(v)
        adv = mdp.rewards + mdp.gamma * (mdp.P @ v) - v[mdp.state_of]
        nxt = _improve(mdp, rows, adv, _shared_error(mdp, v))
        if nxt is None:
            nxt = _improve(mdp, rows, advantages(mdp, v))
            fallbacks += 1
        switched.append(int(np.count_nonzero(nxt != rows)))
        if not switched[-1]:
            break
        rows = nxt
    final = Policy(choice=pols[-1], values=vals[-1])
    return final, PiTrace(policies=tuple(pols), values=np.vstack(vals), iterations=len(pols),
                          switched=tuple(switched), fallbacks=fallbacks)


def brute_force_solve(mdp: Mdp) -> tuple[Policy, np.ndarray]:
    """Enumerate every policy, evaluate each exactly, return the dominant one.

    Restricted to small instances (n <= 3, m <= 12); this is the independent
    oracle used by tests and cross-checks, so it deliberately shares nothing
    with policy iteration beyond the linear solve.
    """
    validate(mdp)
    if mdp.n_states > BRUTE_MAX_STATES or mdp.m > BRUTE_MAX_ACTIONS:
        raise ValueError(
            f"brute force is limited to n <= {BRUTE_MAX_STATES} and "
            f"m <= {BRUTE_MAX_ACTIONS}; got n={mdp.n_states}, m={mdp.m}"
        )
    combos = list(itertools.product(*[tuple(r) for r in mdp.state_rows]))
    all_vals = np.vstack([evaluate_rows(mdp, np.array(c, dtype=np.intp)) for c in combos])
    v_star = all_vals.max(axis=0)
    dominant = [
        i for i, vals in enumerate(all_vals) if np.all(vals >= v_star - 1e-9)
    ]
    if not dominant:
        raise ConsistencyError("no policy dominates componentwise; model is inconsistent")
    best = min(dominant, key=lambda i: tuple(mdp.ids[k] for k in combos[i]))
    ids = tuple(mdp.ids[k] for k in combos[best])
    return Policy(choice=ids, values=all_vals[best]), all_vals[best]


def max_reward_policy(mdp: Mdp) -> Policy:
    """Per state, the action with the largest reward (lowest id on ties)."""
    _, rows = greedy(mdp, mdp.rewards, error=SolverError)
    return Policy(choice=tuple(mdp.ids[k] for k in rows))


@dataclass(frozen=True)
class ExactSolution:
    """Optimal policy and values plus the optimality gap of the runner-up.

    ``delta`` is minus the largest advantage among actions outside the
    policy (infinite when there are none); the optimum is unique exactly
    when delta is positive beyond tolerance.
    """

    policy: Policy
    values: np.ndarray
    delta: float
    unique: bool
    brute_checked: bool


def solve_exact(mdp: Mdp, brute_check: bool | None = None) -> ExactSolution:
    """Solve by Howard iteration from the per-state max-reward policy.

    On small instances (or when ``brute_check`` is forced on) the answer is
    cross-checked against full policy enumeration; disagreement beyond 1e-8
    raises ConsistencyError.
    """
    validate(mdp)
    pol, _ = policy_iteration(mdp, max_reward_policy(mdp))
    values = pol.values

    if brute_check is None:
        brute_check = mdp.n_states <= BRUTE_MAX_STATES and mdp.m <= BRUTE_MAX_ACTIONS
    if brute_check:
        _, brute_vals = brute_force_solve(mdp)
        err = float(np.max(np.abs(values - brute_vals)))
        if err > 1e-8:
            raise ConsistencyError(
                f"policy iteration and brute force disagree by {err:.3e}"
            )

    adv = advantages(mdp, values)
    chosen = np.zeros(mdp.m, dtype=bool)
    chosen[policy_rows(mdp, pol)] = True
    others = adv[~chosen]
    delta = float("inf") if others.size == 0 else float(-np.max(others))
    return ExactSolution(
        policy=pol,
        values=values,
        delta=delta,
        unique=bool(delta > PI_TIE_TOL),
        brute_checked=bool(brute_check),
    )
