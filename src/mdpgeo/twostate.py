"""Set dynamics of policy iteration on two-state MDPs.

An action set covering both states forms the set of all policies it can
assemble; a policy set produces, per policy and state, the actions of
maximal advantage.  Iterating form/produce from the full action set loses
at least one action per round whenever three or more actions remain, which
bounds Howard iteration counts by the number of actions.  The loss is
witnessed constructively: two auxiliary self-loop actions pinned to the
extreme-slope policies sandwich one concrete action's advantage below a
surviving action's advantage on every formed policy.

Everything runs on one pair core per model, with ``Policy`` objects only at
the boundary (:func:`formed_policies`): each policy is a pair of action rows
with closed-form values and every action's advantage at them.  An action set
is a boolean mask per state, producing is one maximum per pair column, and
Howard's improvement is an int map over the pairs.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, fields

import numpy as np

from .core import Mdp, ModelError, Policy, validate

__all__ = [
    "InefficiencyCertificate",
    "PiBoundReport",
    "formed_policies",
    "inefficiency_certificate",
    "produced_actions",
    "set_dynamics",
    "verify_pi_bound",
]

TIE_TOL = 1e-9
DEGENERATE_TOL = 1e-9


@functools.lru_cache(maxsize=1)  # one model's checks share its core; holds one model alive
def _pairs(mdp: Mdp) -> tuple[tuple[tuple[str, ...], ...], np.ndarray, tuple[np.ndarray, ...]]:
    """The pair core: per state the action ids in id order (``Mdp.state_rows``),
    the (pairs, 2) values of every pair, and per state the (k_s, pairs)
    advantages of its rows.  Pair ``i * k1 + j`` takes the i-th action of state
    0 and the j-th of state 1, so pairs run in product order.  Values come from
    the closed form of the 2x2 system, equal to a dense solve to machine precision.
    """
    if mdp.n_states != 2:
        raise ModelError(f"operation is defined for 2-state MDPs, got n={mdp.n_states}")
    validate(mdp)
    rows0, rows1 = mdp.state_rows
    g = mdp.gamma
    r0, p0, r1, p1 = mdp.rewards[rows0], mdp.P[rows0], mdp.rewards[rows1], mdp.P[rows1]
    a00 = (1.0 - g * p0[:, 0])[:, None]  # rows: choice at state 0
    a01 = (g * p0[:, 1])[:, None]
    b10 = (g * p1[:, 0])[None, :]  # cols: choice at state 1
    b11 = (1.0 - g * p1[:, 1])[None, :]
    det = a00 * b11 - a01 * b10
    v0 = (r0[:, None] * b11 + a01 * r1[None, :]) / det
    v1 = (r1[None, :] * a00 + b10 * r0[:, None]) / det
    values = np.stack([v0.ravel(), v1.ravel()], axis=1)
    adv = mdp.rewards[:, None] + mdp.coeffs @ values.T
    ids = tuple(tuple(mdp.ids[k] for k in rows.tolist()) for rows in (rows0, rows1))
    return ids, values, (adv[rows0], adv[rows1])


def _members(mdp: Mdp, action_ids) -> tuple[np.ndarray, np.ndarray]:
    """Per state, which of its rows (``Mdp.state_rows``) an action set holds."""
    if action_ids is None:
        masks = tuple(np.ones(rows.size, dtype=bool) for rows in mdp.state_rows)
    else:
        member = np.zeros(mdp.m, dtype=bool)
        member[[mdp.row(str(a)) for a in action_ids]] = True
        masks = tuple(member[rows] for rows in mdp.state_rows)
    if not (masks[0].any() and masks[1].any()):
        raise ModelError("action set must contain actions on both states")
    return masks


def _formed(masks) -> np.ndarray:
    """The pairs an action set forms, in product order."""
    return np.flatnonzero(np.outer(*masks))


def _chosen(ids, masks) -> list[list[str]]:
    return [list(itertools.compress(i, m.tolist())) for i, m in zip(ids, masks)]


def _produce(adv, masks, cols) -> tuple[np.ndarray, np.ndarray]:
    """Per state, the set's rows within ``TIE_TOL`` of the set's best advantage
    at one of the columns."""
    out = []
    for a, mask in zip(adv, masks):
        a = np.where(mask[:, None], a[:, cols], -np.inf)
        out.append((a >= a.max(axis=0) - TIE_TOL).any(axis=1))
    return tuple(out)


def formed_policies(mdp: Mdp, action_ids) -> tuple[Policy, ...]:
    """All cross-product policies of an action set, each exactly evaluated."""
    ids, values, _ = _pairs(mdp)
    masks = _members(mdp, action_ids)
    return tuple(Policy(choice=c, values=v) for c, v in
                 zip(itertools.product(*_chosen(ids, masks)), values[_formed(masks)]))


def produced_actions(mdp: Mdp, policies, action_ids) -> frozenset[str]:
    """Actions of maximal advantage on some policy of the set, within the set.

    Per policy and state, every action tied with the maximum within 1e-9 is
    included, so the elimination claim is tested against the superset.
    """
    ids = _pairs(mdp)[0]
    masks = _members(mdp, action_ids)
    values = np.array([p.values for p in policies], dtype=np.float64).reshape(-1, 2)
    adv = mdp.rewards[:, None] + mdp.coeffs @ values.T
    produced = _produce([adv[rows] for rows in mdp.state_rows], masks, slice(None))
    return frozenset(itertools.chain(*_chosen(ids, produced)))


def set_dynamics(mdp: Mdp, action_ids=None) -> list[frozenset[str]]:
    """Iterate produce(form(.)) from an action set until it stops shrinking."""
    ids, _, adv = _pairs(mdp)
    masks = _members(mdp, action_ids)
    sets, size = [masks], sum(map(np.count_nonzero, masks))
    while size > mdp.n_states:
        masks = _produce(adv, masks, _formed(masks))
        sets.append(masks)
        size, last = sum(map(np.count_nonzero, masks)), size
        if size >= last:
            break
    return [frozenset(itertools.chain(*_chosen(ids, s))) for s in sets]


@dataclass(frozen=True)
class InefficiencyCertificate:
    """A concrete never-produced action, with the inequalities that prove it.

    The chain is evaluated once per formed policy:

        adv(dropped, pi) <= adv(aux_low, pi) < adv(aux_high, pi) <= adv(kept, pi)

    where the two auxiliary actions are self-loops at ``state`` whose rewards
    put them on the extreme-slope policies' lines there.  ``reading`` records
    how the state was selected: by the larger per-state value gap between the
    two extreme policies.  Degenerate instances (all slopes equal within
    tolerance) get no named action; every formed policy then produces the
    same maximizers, so the dynamics converge in one round.
    """

    degenerate: bool
    slope_gap: float
    reading: str = "extreme-policy-per-state-value-gap"
    state: int | None = None
    inefficient_action: str | None = None
    surviving_action: str | None = None
    pi_low: tuple[str, ...] | None = None
    pi_high: tuple[str, ...] | None = None
    aux_low_reward: float | None = None
    aux_high_reward: float | None = None
    chain_rows: tuple[tuple[tuple[str, ...], float, float, float, float], ...] = ()
    min_margins: tuple[float, float, float] | None = None

    def to_dict(self) -> dict:
        """Every field but ``chain_rows``; tuples print as JSON lists."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "chain_rows"}


def inefficiency_certificate(mdp: Mdp, action_ids=None) -> InefficiencyCertificate:
    """Name one action the given set can never produce, with proof margins.

    Needs at least three actions.  The two extreme policies by value slope
    V(0) - V(1) are located; the state where the min-slope policy sits above
    the max-slope policy by the larger gap is selected; the lower policy's
    action there is the named casualty, the higher policy's action there the
    survivor that dominates it.
    """
    ids, values, adv = _pairs(mdp)
    masks = _members(mdp, action_ids)
    if (size := sum(map(np.count_nonzero, masks))) < 3:
        raise ModelError(f"inefficiency certificate needs |A| >= 3, got {size}")
    cols = _formed(masks)
    values = values[cols]
    slopes = values[:, 0] - values[:, 1]
    hi, lo = int(np.argmax(slopes)), int(np.argmin(slopes))  # largest, smallest slope
    slope_gap = float(slopes[hi] - slopes[lo])
    if slope_gap <= DEGENERATE_TOL:
        return InefficiencyCertificate(degenerate=True, slope_gap=slope_gap)

    # gap at state 1: min-slope policy above max-slope policy there;
    # gap at state 0: max-slope policy above min-slope policy there.
    # The two gaps sum to the slope gap, so the larger one is positive.
    if values[lo, 1] - values[hi, 1] >= values[hi, 0] - values[lo, 0]:
        state, low, high = 1, hi, lo
    else:
        state, low, high = 0, lo, hi
    choices = list(itertools.product(*_chosen(ids, masks)))
    at_state = divmod(cols, len(ids[1]))[state]  # each formed pair's row position there
    a_c, a_b = adv[state][at_state[[low, high]]][:, cols]
    g = mdp.gamma
    r_low, r_high = ((1.0 - g) * values[[low, high], state]).tolist()
    a_low, a_high = np.add.outer([r_low, r_high], (g - 1.0) * values[:, state])  # self-loops
    return InefficiencyCertificate(
        degenerate=False,
        slope_gap=slope_gap,
        state=state,
        inefficient_action=choices[low][state],
        surviving_action=choices[high][state],
        pi_low=choices[low],
        pi_high=choices[high],
        aux_low_reward=r_low,
        aux_high_reward=r_high,
        chain_rows=tuple(zip(choices, a_c.tolist(), a_low.tolist(), a_high.tolist(),
                             a_b.tolist())),
        min_margins=(float(np.min(a_low - a_c)), float(np.min(a_high - a_low)),
                     float(np.min(a_b - a_high))),
    )


@dataclass
class PiBoundReport:
    """Howard iteration counts from every start, plus the set-dynamics sets."""

    action_count: int
    max_iterations: int
    iterations_by_start: dict[tuple[str, ...], int]
    sets: list[frozenset[str]]
    violations: list[str]
    violation_instance: Mdp | None

    @property
    def set_sizes(self) -> list[int]:
        return [len(s) for s in self.sets]

    @property
    def ok(self) -> bool:
        return not self.violations


def _depths(nxt: list[int], cycle_depth: int) -> list[int]:
    """Iterations from every start under the improvement map ``nxt``: 1 at a
    fixed point, one more per step before it, ``cycle_depth`` on a cycle."""
    depth = [0] * len(nxt)
    for start in range(len(nxt)):
        path, cur = [], start
        while not depth[cur]:
            if cur in path:  # improvement cycle; impossible without exact value ties
                for node in path:
                    depth[node] = cycle_depth
                break
            if nxt[cur] == cur:
                depth[cur] = 1
                break
            path.append(cur)
            cur = nxt[cur]
        for k, node in enumerate(reversed(path), start=depth[cur] + 1):
            depth[node] = depth[node] or k
    return depth


def verify_pi_bound(mdp: Mdp) -> PiBoundReport:
    """Exhaustively check the action-count bound on one 2-state instance.

    Runs Howard iteration from every possible initial policy (sharing
    evaluations across starts, since the improvement step is a function of
    the policy alone) and asserts every count is at most the number of
    actions; also asserts the produce/form dynamics lose at least one action
    per round until only one action per state remains.  Violations are
    collected, not raised, and carry the instance for triage.
    """
    ids, values, adv = _pairs(mdp)
    # Howard's improvement as a map over pairs: per state, the incumbent is
    # kept within TIE_TOL of the best, else the first best row is taken
    k1, pairs = len(ids[1]), np.arange(len(values))
    i, j = (np.where(a[inc, pairs] >= a.max(axis=0) - TIE_TOL, inc, a.argmax(axis=0))
            for a, inc in zip(adv, divmod(pairs, k1)))
    depth = _depths((i * k1 + j).tolist(), mdp.m + 1)
    violations: list[str] = []
    worst = max(depth)
    if worst > mdp.m:
        violations.append(
            f"policy iteration took {worst} iterations with only {mdp.m} actions"
        )

    sets = set_dynamics(mdp)
    sizes = [len(s) for s in sets]
    for a, b in zip(sizes, sizes[1:]):
        if a > mdp.n_states and b > a - 1:
            violations.append(f"set dynamics step lost no action: {a} -> {b}")
    return PiBoundReport(
        action_count=mdp.m,
        max_iterations=worst,
        iterations_by_start=dict(zip(itertools.product(*ids), depth)),
        sets=sets,
        violations=violations,
        violation_instance=mdp if violations else None,
    )
