"""Set dynamics of policy iteration on two-state MDPs.

An action set covering both states forms the set of all policies it can
assemble; a policy set produces, per policy and state, the actions of
maximal advantage.  Iterating form/produce from the full action set loses
at least one action per round whenever three or more actions remain, which
bounds Howard iteration counts by the number of actions.  The loss is
witnessed constructively: two auxiliary self-loop actions pinned to the
extreme-slope policies sandwich one concrete action's advantage below a
surviving action's advantage on every formed policy.

Everything runs on one pair core over a batch of models with equal row
counts (one model is a batch of one), with ``Policy`` objects only at the
boundary: each policy is a pair of action rows with closed-form values and
every action's advantage at them.  An action set is a boolean mask per state,
producing one maximum per pair column, Howard's improvement an int map on pairs.
``check_batch`` checks models of any action counts in a few padded shape
classes: a model's last row at each state is repeated up to its class's row
count, and the masks keep the repeated rows out of the sets and the starts.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator
from dataclasses import dataclass, fields

import numpy as np

from .core import Mdp, ModelError, Policy, validate

__all__ = [
    "InefficiencyCertificate",
    "PiBoundReport",
    "check_batch",
    "formed_policies",
    "inefficiency_certificate",
    "produced_actions",
    "set_dynamics",
    "verify_pi_bound",
]

TIE_TOL = 1e-9
DEGENERATE_TOL = 1e-9


def _advantages(gamma, P, rewards, state_of, values) -> np.ndarray:
    """(B, m, pairs) advantages at the pairs' values: per model, its gemm when alone.
    The coefficient form batched over B models: a one-model q_values would loop over them."""
    c = gamma[:, None, None] * P  # Mdp.coeffs: 1 subtracted at own states
    c[:, np.arange(P.shape[1]), state_of] -= 1.0
    return rewards[:, :, None] + c @ values.transpose(0, 2, 1)


def _values(gamma, P, rewards, rows) -> np.ndarray:
    """The (B, pairs, 2) closed-form values of models sharing ``rows`` (per state, its rows
    in id order); pair ``i * k1 + j`` takes row i of state 0 and row j of state 1."""
    g = gamma[:, None]
    (p0, r0), (p1, r1) = ((P[:, k], rewards[:, k]) for k in rows)
    a00 = (1.0 - g * p0[..., 0])[:, :, None]  # rows: choice at state 0
    a01 = (g * p0[..., 1])[:, :, None]
    b10 = (g * p1[..., 0])[:, None, :]  # cols: choice at state 1
    b11 = (1.0 - g * p1[..., 1])[:, None, :]
    det = a00 * b11 - a01 * b10
    v0 = (r0[:, :, None] * b11 + a01 * r1[:, None, :]) / det
    v1 = (r1[:, None, :] * a00 + b10 * r0[:, :, None]) / det
    return np.stack([v0.reshape(len(g), -1), v1.reshape(len(g), -1)], axis=2)


@functools.lru_cache(maxsize=1)  # one model's checks share its pairs; holds one model alive
def _pairs(mdp: Mdp) -> tuple[tuple[tuple[str, ...], ...], np.ndarray, tuple[np.ndarray, ...]]:
    """Per state the action ids in id order, then the model's (1, pairs, 2) values and per
    state its (1, k_s, pairs) advantages at them, as a batch of one."""
    if mdp.n_states != 2:
        raise ModelError(f"operation is defined for 2-state MDPs, got n={mdp.n_states}")
    validate(mdp)
    rows, gamma, P, rewards = mdp.state_rows, np.array([mdp.gamma]), mdp.P[None], mdp.rewards[None]
    ids = tuple(tuple(mdp.ids[k] for k in r.tolist()) for r in rows)
    values = _values(gamma, P, rewards, rows)
    adv = _advantages(gamma, P, rewards, mdp.state_of, values)
    return ids, values, (adv[:, rows[0]], adv[:, rows[1]])


def _members(mdp: Mdp, action_ids) -> tuple[np.ndarray, np.ndarray]:
    """Per state, which of its rows (``Mdp.state_rows``) a set holds; a batch of one."""
    if action_ids is None:
        masks = tuple(np.ones(rows.size, dtype=bool) for rows in mdp.state_rows)
    else:
        member = np.zeros(mdp.m, dtype=bool)
        member[[mdp.row(str(a)) for a in action_ids]] = True
        masks = tuple(member[rows] for rows in mdp.state_rows)
    if not (masks[0].any() and masks[1].any()):
        raise ModelError("action set must contain actions on both states")
    return masks[0][None], masks[1][None]


def _formed(masks) -> np.ndarray:
    """(B, pairs): the pairs each action set forms."""
    return (masks[0][:, :, None] & masks[1][:, None, :]).reshape(len(masks[0]), -1)


def _chosen(ids, masks) -> list[list[str]]:
    return [list(itertools.compress(i, m[0].tolist())) for i, m in zip(ids, masks)]


def _produce(adv, masks, formed, models) -> tuple[np.ndarray, np.ndarray]:
    """Per state, the set's rows within ``TIE_TOL`` of the set's best advantage
    at one of the ``formed`` pairs, for the sets of the given ``models`` of ``adv``."""
    out = []
    for a, mask in zip(adv, masks):
        a = a[models]  # a copy, masked in place
        np.copyto(a, -np.inf, where=~mask[:, :, None])
        out.append(((a >= a.max(axis=1, keepdims=True) - TIE_TOL) & formed[:, None]).any(axis=2))
    return tuple(out)


def _dynamics(adv, masks) -> tuple[list, np.ndarray]:
    """Rounds of produce(form(.)), and (B, rounds) set sizes until they stop shrinking.  A
    round runs on the models whose sets still shrink and copies the others' sets."""
    rounds, sizes = [masks], [sum(m.sum(axis=1) for m in masks)]
    live, keep = np.arange(len(sizes[0])), sizes[0] > 2
    while keep.any():
        live = live[keep]
        sets = tuple(m[live] for m in rounds[-1])
        rounds.append(tuple(m.copy() for m in rounds[-1]))
        sizes.append(np.zeros_like(sizes[0]))
        for m, made in zip(rounds[-1], _produce(adv, sets, _formed(sets), live)):
            m[live] = made
            sizes[-1][live] += made.sum(axis=1)
        keep = (sizes[-1][live] > 2) & (sizes[-1][live] < sizes[-2][live])
    return rounds, np.stack(sizes, axis=1)


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
    values = np.array([p.values for p in policies], dtype=np.float64).reshape(1, -1, 2)
    adv = _advantages(np.array([mdp.gamma]), mdp.P[None], mdp.rewards[None], mdp.state_of, values)
    produced = _produce([adv[:, rows] for rows in mdp.state_rows], masks, np.ones((1, 1), bool),
                        [0])
    return frozenset(itertools.chain(*_chosen(ids, produced)))


def set_dynamics(mdp: Mdp, action_ids=None) -> list[frozenset[str]]:
    """Iterate produce(form(.)) from an action set until it stops shrinking."""
    ids, _, adv = _pairs(mdp)
    rounds, sizes = _dynamics(adv, _members(mdp, action_ids))
    return [frozenset(itertools.chain(*_chosen(ids, s))) for s in rounds[:np.count_nonzero(sizes)]]


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


def _choose(gamma, v, adv, masks):
    """Per set of a batch: slope gap, state, (low, high) pairs, chain, aux rewards, margins."""
    formed, b = _formed(masks), np.arange(len(gamma))
    slopes = v[..., 0] - v[..., 1]
    hi = np.where(formed, slopes, -np.inf).argmax(axis=1)  # largest, smallest slope
    lo = np.where(formed, slopes, np.inf).argmin(axis=1)
    # gap at state 1: min-slope policy above max-slope policy there;
    # gap at state 0: max-slope policy above min-slope policy there.
    # The two gaps sum to the slope gap, so the larger one is positive.
    state = (v[b, lo, 1] - v[b, hi, 1] >= v[b, hi, 0] - v[b, lo, 0]).astype(int)
    pair = np.where(state == 1, np.stack([hi, lo]), np.stack([lo, hi]))
    pos = divmod(pair, adv[1].shape[1])  # per state, the two policies' rows there
    chain = np.empty((4, *slopes.shape))  # per pair: dropped, aux low, aux high, kept
    chain[::3] = adv[0][b, pos[0]]
    np.copyto(chain[::3], adv[1][b, pos[1]], where=state[:, None] == 1)
    at_state = np.where(state[:, None] == 1, v[..., 1], v[..., 0])
    aux = (1.0 - gamma)[:, None] * at_state[b[:, None], pair.T]
    np.add(aux.T[:, :, None], (gamma - 1.0)[:, None] * at_state, out=chain[1:3])  # self-loops
    steps = np.diff(chain, axis=0)
    steps[:, ~formed] = np.inf
    margins = steps.min(axis=2).T
    return slopes[b, hi] - slopes[b, lo], state, pair, chain, aux, margins


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
    if (size := int(masks[0].sum() + masks[1].sum())) < 3:
        raise ModelError(f"inefficiency certificate needs |A| >= 3, got {size}")
    gap, state, pair, chain, aux, margins = _choose(np.array([mdp.gamma]), values, adv, masks)
    if (slope_gap := float(gap[0])) <= DEGENERATE_TOL:
        return InefficiencyCertificate(degenerate=True, slope_gap=slope_gap)
    state = int(state[0])
    low, high = (tuple(i[k] for i, k in zip(ids, divmod(p, len(ids[1]))))
                 for p in pair[:, 0].tolist())
    return InefficiencyCertificate(
        degenerate=False,
        slope_gap=slope_gap,
        state=state,
        inefficient_action=low[state],
        surviving_action=high[state],
        pi_low=low,
        pi_high=high,
        aux_low_reward=float(aux[0, 0]),
        aux_high_reward=float(aux[0, 1]),
        chain_rows=tuple(zip(itertools.product(*_chosen(ids, masks)),
                             *chain[:, 0, _formed(masks)[0]].tolist())),
        min_margins=tuple(margins[0].tolist()),
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


def _depths(adv, cycle_depth, starts=True) -> np.ndarray:
    """(B, pairs) Howard iterations from every start, 1 at a fixed point and the model's
    ``cycle_depth`` (one for all, or (B,)) for a start whose improvements never reach one;
    0 at a pair that ``starts`` (B, pairs) leaves out."""
    # Howard's improvement as a map over pairs: per state, the incumbent is
    # kept within TIE_TOL of the best, else the first best row is taken
    k1, pairs = adv[1].shape[1], np.arange(adv[0].shape[2])
    i, j = (np.where(a[:, inc, pairs] >= a.max(axis=1) - TIE_TOL, inc, a.argmax(axis=1))
            for a, inc in zip(adv, divmod(pairs, k1)))
    nxt, b = i * k1 + j, np.arange(len(i))[:, None]
    cur, depth = np.broadcast_to(pairs, nxt.shape), np.ones(nxt.shape, int)
    for _ in pairs:  # a path without a cycle makes fewer steps
        if not (moved := (step := nxt[b, cur]) != cur).any():
            break
        depth, cur = depth + moved, step
    else:  # still moving: an improvement cycle, impossible without exact value ties
        depth = np.where(nxt[b, cur] != cur, np.reshape(cycle_depth, (-1, 1)), depth)
    return np.where(starts, depth, 0)


def _bound_broken(m, worst, sizes) -> tuple[np.ndarray, np.ndarray]:
    """The bound per model of a batch of ``m`` actions (one for all, or (B,)), from the worst
    Howard depths (B,) and the set sizes (B, rounds), padded with 0: whether Howard took more
    than m iterations, and which rounds held more than two actions and lost none."""
    return worst > m, (sizes[:, :-1] > 2) & (sizes[:, 1:] >= sizes[:, :-1])


def _bound_words(m: int, worst: int, sizes: list[int]) -> list[str]:
    """One model's breaches of the bound, in words."""
    over, lost_none = _bound_broken(m, np.array([worst]), np.array([sizes]))
    words = [f"policy iteration took {worst} iterations with only {m} actions"] * int(over[0])
    return words + [f"set dynamics step lost no action: {a} -> {b}"
                    for a, b, lost in zip(sizes, sizes[1:], lost_none[0].tolist()) if lost]


def verify_pi_bound(mdp: Mdp) -> PiBoundReport:
    """Exhaustively check the action-count bound on one 2-state instance.

    Runs Howard iteration from every possible initial policy (sharing
    evaluations across starts, since the improvement step is a function of
    the policy alone) and asserts every count is at most the number of
    actions; also asserts the produce/form dynamics lose at least one action
    per round until only one action per state remains.  Violations are
    collected, not raised, and carry the instance for triage.
    """
    ids, _, adv = _pairs(mdp)
    depth = _depths(adv, mdp.m + 1)[0].tolist()
    worst, sets = max(depth), set_dynamics(mdp)
    violations = _bound_words(mdp.m, worst, [len(s) for s in sets])
    return PiBoundReport(
        action_count=mdp.m,
        max_iterations=worst,
        iterations_by_start=dict(zip(itertools.product(*ids), depth)),
        sets=sets,
        violations=violations,
        violation_instance=mdp if violations else None,
    )


_CLASS_PAIRS = 5120  # a shape class's models' pairs checked at a time: bounds its arrays
_OWN_SHAPE = 128  # this many models with equal counts cost more padded than as their own class


@functools.lru_cache
def _layout(k0: int, k1: int, c0: int, c1: int) -> tuple[np.ndarray, ...]:
    """A model of k0 + k1 actions padded to c0 + c1 rows, the last real row of a state
    repeated: its rows' states, its pairs' padded pairs, and per padded (row, pair) cell the
    flat index of the real one it copies."""
    i, j = np.minimum(np.arange(c0), k0 - 1), np.minimum(np.arange(c1), k1 - 1)
    rows, pairs = np.concatenate([i, k0 + j]), (i[:, None] * k1 + j).ravel()
    return (np.repeat([0, 1], [k0, k1]), (np.arange(k0)[:, None] * c1 + np.arange(k1)).ravel(),
            (rows[:, None] * (k0 * k1) + pairs).ravel())


def _check_class(gamma, P, rewards, counts, shape) -> dict[str, np.ndarray]:
    """``check_batch`` on models of at most ``shape`` (c0, c1) actions per state, each padded
    to c0 + c1 rows by ``_layout``.  A padded row ties the row it copies, so the first best row
    and Howard's kept or taken rows are real, and masks keep it out of the sets and starts.
    Each model's advantages are its own product: a run of models with equal counts forms
    them in one ``_advantages`` call, then copies them to the padded rows and pairs."""
    (c0, c1), (k0, k1), b = shape, counts.T, np.arange(len(gamma))
    index = np.concatenate([np.minimum(np.arange(c0), k0[:, None] - 1),
                            k0[:, None] + np.minimum(np.arange(c1), k1[:, None] - 1)], axis=1)
    values = _values(gamma, P[b[:, None], index], rewards[b[:, None], index],
                     (np.arange(c0), np.arange(c0, c0 + c1)))
    adv = np.empty((len(b), c0 + c1, c0 * c1))
    ends = (np.flatnonzero((counts[1:] != counts[:-1]).any(axis=1)) + 1).tolist()
    for lo, hi in zip([0, *ends], [*ends, len(b)]):
        g0, g1 = counts[lo].tolist()
        state_of, real, cells = _layout(g0, g1, c0, c1)
        exact = _advantages(gamma[lo:hi], P[lo:hi, :g0 + g1], rewards[lo:hi, :g0 + g1],
                            state_of, values[lo:hi, real])
        np.take(exact.reshape(hi - lo, -1), cells, axis=1, out=adv[lo:hi].reshape(hi - lo, -1),
                mode="clip")  # a flat index is in range: no bounds check
    adv, masks = (adv[:, :c0], adv[:, c0:]), (np.arange(c0) < k0[:, None],
                                              np.arange(c1) < k1[:, None])
    worst = _depths(adv, k0 + k1 + 1, _formed(masks)).max(axis=1)
    rounds, sizes = _dynamics(adv, masks)
    gap, state, pair, _, _, margins = _choose(gamma, values, adv, masks)
    (i, j), first = divmod(pair, c1), rounds[min(1, len(rounds) - 1)]
    over, lost_none = _bound_broken(k0 + k1, worst, sizes)
    return dict(ok=~over & ~lost_none.any(axis=1), max_iterations=worst, set_sizes=sizes,
                degenerate=gap <= DEGENERATE_TOL, state=state, pair=i * k1 + j,
                min_margins=margins, produced=np.where(state == 1, first[1][b, j[0]],
                                                       first[0][b, i[0]]))


def check_batch(gamma, P, rewards, counts) -> Iterator[tuple[np.ndarray, dict[str, np.ndarray]]]:
    """Check models of discounts (B,), ``P`` (B, w, 2) and rewards (B, w) (rows in id order,
    ``counts[b]`` (k0, k1) of them at states 0 and 1, the rest unread) in slices, yielding per
    slice its models' indices and their report: verify_pi_bound (set sizes padded with 0),
    the full set's certificate (its low and high pair, (2, b)), and whether round 1 produces
    the named action.  With k the largest count, a model is padded to ceil(k / 2) or k rows
    per state, four shape classes at most, unless at least ``_OWN_SHAPE`` models share its
    counts: those keep their shape.  A class is checked in slices of at most ``_CLASS_PAIRS``
    pairs."""
    top = int(counts.max())
    half = -(-top // 2)
    exact = counts[:, 0] * (top + 1) + counts[:, 1]
    own = np.bincount(exact)[exact] >= _OWN_SHAPE
    shape = np.where(own[:, None], counts, np.where(counts > half, top, half))
    key = shape[:, 0] * (top + 1) + shape[:, 1]
    order = np.argsort(key * (top + 1) ** 2 + exact, kind="stable")  # by class, then by counts
    for group in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
        c0, c1 = shape[group[0]].tolist()
        for part in np.array_split(group, -(-len(group) * c0 * c1 // _CLASS_PAIRS)):
            yield part, _check_class(gamma[part], P[part, :c0 + c1], rewards[part, :c0 + c1],
                                     counts[part], (c0, c1))
