"""The pair core of ``mdpgeo.twostate`` against the implementation it replaced.

The reference below is that implementation, kept verbatim: it forms one
``Policy`` per pair of actions, evaluates produce with one matrix-vector
product per policy and walks Howard's improvement over choice tuples.  The
pair core must give the same iteration counts, the same set dynamics, the
same produced sets and the same certificates, bit for bit, on exact-rational
models (which tie exactly) and on the seeded instances of the suite.  The
suite's batches (``check_batch``) must give each model's single-model reports,
and the suite must word its violations as its one-model loop did.
"""

from __future__ import annotations

import collections
import itertools
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given

from conftest import mdps
from mdpgeo import acceptance, gen, twostate
from mdpgeo.acceptance import run_twostate_suite
from mdpgeo.core import Action, Mdp, ModelError, Policy, validate
from mdpgeo.gen import GenSpec, generate
from mdpgeo.twostate import DEGENERATE_TOL, TIE_TOL, InefficiencyCertificate
from test_twostate import random_instance

# --------------------------------------------------------------------------
# reference implementation


def _require_two_state(mdp: Mdp) -> None:
    if mdp.n_states != 2:
        raise ModelError(f"operation is defined for 2-state MDPs, got n={mdp.n_states}")


def _check_action_set(mdp: Mdp, action_ids) -> tuple[tuple[tuple[str, ...], list[int]], ...]:
    """Per state, the set's action ids in sorted order and their rows."""
    ids = sorted(str(a) for a in action_ids)
    rows = [mdp.row(aid) for aid in ids]
    states = mdp.state_of[rows].tolist()
    per_state = tuple((tuple(a for a, s in zip(ids, states) if s == t),
                       [k for k, s in zip(rows, states) if s == t]) for t in (0, 1))
    if not per_state[0][0] or not per_state[1][0]:
        raise ModelError("action set must contain actions on both states")
    return per_state


def formed_policies(mdp: Mdp, action_ids) -> tuple[Policy, ...]:
    """All cross-product policies of an action set, each exactly evaluated.

    Evaluation uses the closed form of the 2x2 linear system, vectorized
    over all pairs (it matches the dense solve to machine precision and the
    exhaustive suites call this in bulk).
    """
    _require_two_state(mdp)
    (ids0, rows0), (ids1, rows1) = _check_action_set(mdp, action_ids)
    g = mdp.gamma
    r0, p0, r1, p1 = mdp.rewards[rows0], mdp.P[rows0], mdp.rewards[rows1], mdp.P[rows1]
    a00 = (1.0 - g * p0[:, 0])[:, None]  # rows: choice at state 0
    a01 = (g * p0[:, 1])[:, None]
    b10 = (g * p1[:, 0])[None, :]  # cols: choice at state 1
    b11 = (1.0 - g * p1[:, 1])[None, :]
    det = a00 * b11 - a01 * b10
    v0 = (r0[:, None] * b11 + a01 * r1[None, :]) / det
    v1 = (r1[None, :] * a00 + b10 * r0[:, None]) / det
    out = []
    for i, j in itertools.product(range(len(ids0)), range(len(ids1))):
        values = np.array([v0[i, j], v1[i, j]])
        out.append(Policy(choice=(ids0[i], ids1[j]), values=values))
    return tuple(out)


def produced_actions(mdp: Mdp, policies, action_ids) -> frozenset[str]:
    """Actions of maximal advantage on some policy of the set, within the set.

    Per policy and state, every action tied with the maximum within 1e-9 is
    included, so the elimination claim is tested against the superset.
    """
    _require_two_state(mdp)
    per_state = _check_action_set(mdp, action_ids)
    out: set[str] = set()
    for pol in policies:
        adv = mdp.rewards + mdp.coeffs @ pol.values
        for ids, rows in per_state:
            best = max(adv[k] for k in rows)
            out.update(ids[j] for j, k in enumerate(rows) if adv[k] >= best - TIE_TOL)
    return frozenset(out)


def set_dynamics(mdp: Mdp, action_ids=None) -> list[frozenset[str]]:
    """Iterate produce(form(.)) from an action set until it stops shrinking."""
    _require_two_state(mdp)
    current = frozenset(mdp.ids) if action_ids is None else frozenset(map(str, action_ids))
    sets = [current]
    while len(current) > mdp.n_states:
        nxt = produced_actions(mdp, formed_policies(mdp, current), current)
        sets.append(nxt)
        if len(nxt) >= len(current):
            break
        current = nxt
    return sets


def _self_loop_advantage(gamma: float, reward: float, state: int, values: np.ndarray) -> float:
    return reward + (gamma - 1.0) * float(values[state])


def inefficiency_certificate(mdp: Mdp, action_ids=None) -> InefficiencyCertificate:
    """Name one action the given set can never produce, with proof margins.

    Needs at least three actions.  The two extreme policies by value slope
    V(0) - V(1) are located; the state where the min-slope policy sits above
    the max-slope policy by the larger gap is selected; the lower policy's
    action there is the named casualty, the higher policy's action there the
    survivor that dominates it.
    """
    _require_two_state(mdp)
    ids = frozenset(mdp.ids) if action_ids is None else frozenset(map(str, action_ids))
    if len(ids) < 3:
        raise ModelError(f"inefficiency certificate needs |A| >= 3, got {len(ids)}")
    policies = formed_policies(mdp, ids)
    slopes = np.array([p.values[0] - p.values[1] for p in policies])
    pi_l = policies[int(np.argmax(slopes))]  # largest slope
    pi_r = policies[int(np.argmin(slopes))]  # smallest slope
    slope_gap = float(np.max(slopes) - np.min(slopes))
    if slope_gap <= DEGENERATE_TOL:
        return InefficiencyCertificate(degenerate=True, slope_gap=slope_gap)

    # gap at state 1: min-slope policy above max-slope policy there;
    # gap at state 0: max-slope policy above min-slope policy there.
    # The two gaps sum to the slope gap, so the larger one is positive.
    gap1 = float(pi_r.values[1] - pi_l.values[1])
    gap0 = float(pi_l.values[0] - pi_r.values[0])
    if gap1 >= gap0:
        state, low, high = 1, pi_l, pi_r
    else:
        state, low, high = 0, pi_r, pi_l
    dropped = low.choice[state]
    kept = high.choice[state]
    g = mdp.gamma
    r_low = (1.0 - g) * float(low.values[state])
    r_high = (1.0 - g) * float(high.values[state])

    rows = []
    margins = [np.inf, np.inf, np.inf]
    adv_all = mdp.rewards[:, None] + mdp.coeffs @ np.vstack([p.values for p in policies]).T
    k_drop, k_keep = mdp.row_of[dropped], mdp.row_of[kept]
    for j, pol in enumerate(policies):
        a_c = float(adv_all[k_drop, j])
        a_low = _self_loop_advantage(g, r_low, state, pol.values)
        a_high = _self_loop_advantage(g, r_high, state, pol.values)
        a_b = float(adv_all[k_keep, j])
        rows.append((pol.choice, a_c, a_low, a_high, a_b))
        margins[0] = min(margins[0], a_low - a_c)
        margins[1] = min(margins[1], a_high - a_low)
        margins[2] = min(margins[2], a_b - a_high)
    return InefficiencyCertificate(
        degenerate=False,
        slope_gap=slope_gap,
        state=state,
        inefficient_action=dropped,
        surviving_action=kept,
        pi_low=low.choice,
        pi_high=high.choice,
        aux_low_reward=r_low,
        aux_high_reward=r_high,
        chain_rows=tuple(rows),
        min_margins=(float(margins[0]), float(margins[1]), float(margins[2])),
    )


@dataclass
class PiBoundReport:
    """Howard iteration counts from every start, plus the set-dynamics sizes."""

    action_count: int
    max_iterations: int
    iterations_by_start: dict[tuple[str, ...], int]
    set_sizes: list[int]
    violations: list[str]
    violation_instance: Mdp | None

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_pi_bound(mdp: Mdp) -> PiBoundReport:
    """Exhaustively check the action-count bound on one 2-state instance.

    Runs Howard iteration from every possible initial policy (sharing
    evaluations across starts, since the improvement step is a function of
    the policy alone) and asserts every count is at most the number of
    actions; also asserts the produce/form dynamics lose at least one action
    per round until only one action per state remains.  Violations are
    collected, not raised, and carry the instance for triage.
    """
    _require_two_state(mdp)
    validate(mdp)
    policies = formed_policies(mdp, mdp.ids)
    index = {p.choice: j for j, p in enumerate(policies)}
    vmat = np.vstack([p.values for p in policies])
    adv_all = mdp.rewards[:, None] + mdp.coeffs @ vmat.T

    per_state = _check_action_set(mdp, mdp.ids)

    def improve(choice: tuple[str, ...]) -> tuple[str, ...]:
        j = index[choice]
        out = []
        for s, (ids, rows) in enumerate(per_state):
            inc_row = mdp.row_of[choice[s]]
            best = max(adv_all[k, j] for k in rows)
            if adv_all[inc_row, j] >= best - TIE_TOL:
                out.append(choice[s])
            else:
                out.append(ids[int(np.argmax([adv_all[k, j] for k in rows]))])
        return tuple(out)

    next_map = {p.choice: improve(p.choice) for p in policies}
    depth: dict[tuple[str, ...], int] = {}

    def count_from(start: tuple[str, ...]) -> int:
        path = []
        on_path = set()
        cur = start
        while cur not in depth:
            if cur in on_path:  # improvement cycle; impossible without exact value ties
                for node in path:
                    depth[node] = mdp.m + 1
                break
            nxt = next_map[cur]
            if nxt == cur:
                depth[cur] = 1
                break
            path.append(cur)
            on_path.add(cur)
            cur = nxt
        base = depth[cur]
        for k, node in enumerate(reversed(path), start=1):
            depth.setdefault(node, base + k)
        return depth[start]

    violations: list[str] = []
    by_start = {p.choice: count_from(p.choice) for p in policies}
    worst = max(by_start.values())
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
        iterations_by_start=by_start,
        set_sizes=sizes,
        violations=violations,
        violation_instance=mdp if violations else None,
    )


# --------------------------------------------------------------------------
# cross-checks


def _certificate_or_error(fn, mdp, action_ids=None):
    try:
        return fn(mdp, action_ids)
    except ModelError as exc:
        return str(exc)


def _assert_same(mdp):
    ref, new = verify_pi_bound(mdp), twostate.verify_pi_bound(mdp)
    assert list(new.iterations_by_start.items()) == list(ref.iterations_by_start.items())
    assert (new.max_iterations, new.set_sizes, new.violations) == (
        ref.max_iterations, ref.set_sizes, ref.violations)
    sets = set_dynamics(mdp)
    assert new.sets == sets == twostate.set_dynamics(mdp)
    assert _batch_fields([mdp]) == [_single_fields(mdp)]
    for ids in [mdp.ids, *sets]:
        pols, new_pols = formed_policies(mdp, ids), twostate.formed_policies(mdp, ids)
        assert [p.choice for p in new_pols] == [p.choice for p in pols]
        assert all(np.array_equal(p.values, q.values) for p, q in zip(new_pols, pols))
        assert twostate.produced_actions(mdp, pols, ids) == produced_actions(mdp, pols, ids)
        if len(ids) >= 3:
            assert twostate.set_dynamics(mdp, ids) == set_dynamics(mdp, ids)
        assert (_certificate_or_error(twostate.inefficiency_certificate, mdp, ids)
                == _certificate_or_error(inefficiency_certificate, mdp, ids))


@given(mdps(min_states=2, max_states=2, max_actions_per_state=4))
def test_pair_core_matches_reference_on_exact_rational_models(mdp):
    _assert_same(mdp)


@pytest.mark.parametrize("block", range(0, 300, 50))
def test_pair_core_matches_reference_on_seeded_instances(block):
    for seed in range(block, block + 50):
        _assert_same(random_instance(seed))


def test_near_tie_keeps_the_incumbent():
    # b trails a by 1e-12 at every policy: within TIE_TOL, so Howard keeps b
    # and produce keeps both
    mdp = Mdp(2, (Action("a", 0, (0.5, 0.5), 1.0), Action("b", 0, (0.5, 0.5), 1.0 - 1e-12),
                  Action("c", 1, (0.5, 0.5), 0.0)), 0.9)
    _assert_same(mdp)
    report = twostate.verify_pi_bound(mdp)
    assert report.iterations_by_start[("b", "c")] == 1
    assert report.sets[1] == {"a", "b", "c"}


def test_mirrored_states_tie_the_gaps():
    # state 1 mirrors state 0, so the extreme policies' value gaps are equal
    # bit for bit and the tie goes to state 1
    mdp = Mdp(2, (Action("a1", 0, (0.7, 0.3), 1.0), Action("a2", 0, (0.2, 0.8), 0.5),
                  Action("b1", 1, (0.3, 0.7), 1.0), Action("b2", 1, (0.8, 0.2), 0.5)), 0.9)
    _assert_same(mdp)
    assert twostate.inefficiency_certificate(mdp).state == 1


# --------------------------------------------------------------------------
# the suite's batches against the single-model reports


def _single_fields(mdp) -> list:
    """What the suite reads of one model's reports."""
    report = twostate.verify_pi_bound(mdp)
    fields = [report.max_iterations, report.set_sizes, report.ok]
    if mdp.m >= 3:
        cert = twostate.inefficiency_certificate(mdp)
        fields.append(cert.degenerate)
        if not cert.degenerate:
            fields += [cert.state, cert.inefficient_action, cert.surviving_action,
                       cert.min_margins, cert.inefficient_action in report.sets[1]]
    return fields


def _model_reports(slices) -> list[dict]:
    """Each model's fields from the slices a check yields, in model order."""
    out = {}
    for part, report in slices:
        for b, i in enumerate(part.tolist()):
            out[i] = {name: field[..., b] if name == "pair" else field[b]
                      for name, field in report.items()}
    return [out[i] for i in range(len(out))]


def _batch_fields(mdps) -> list[list]:
    """The same, from one batch over the models."""
    order = [np.concatenate(mdp.state_rows) for mdp in mdps]
    width = max(mdp.m for mdp in mdps)
    P, rewards = np.ones((len(mdps), width, 2)), np.ones((len(mdps), width))
    for b, (mdp, k) in enumerate(zip(mdps, order)):
        P[b, :mdp.m], rewards[b, :mdp.m] = mdp.P[k], mdp.rewards[k]
    reports = _model_reports(twostate.check_batch(
        np.array([mdp.gamma for mdp in mdps]), P, rewards,
        np.array([[len(r) for r in mdp.state_rows] for mdp in mdps])))
    out = []
    for r, mdp in zip(reports, mdps):
        ids = [[mdp.ids[k] for k in rows] for rows in mdp.state_rows]
        fields = [int(r["max_iterations"]), [int(s) for s in r["set_sizes"] if s], bool(r["ok"])]
        if mdp.m >= 3:
            fields.append(bool(r["degenerate"]))
            if not r["degenerate"]:
                s = int(r["state"])
                named, kept = (divmod(int(p), len(ids[1]))[s] for p in r["pair"])
                fields += [s, ids[s][named], ids[s][kept],
                           tuple(r["min_margins"].tolist()), bool(r["produced"])]
        out.append(fields)
    return out


def _suite_models(max_actions: int, first: int, n: int) -> list[Mdp]:
    """The suite's specs, all three discounts."""
    return [generate(GenSpec(n_states=2, gamma=(0.5, 0.9, 0.99)[i % 3], seed=first + i,
                             structure="dense", max_actions=min(max_actions // 2, 6)))
            for i in range(n)]


@pytest.mark.parametrize("max_actions,first", [(4, 0), (6, 100_000), (12, 200_000)])
def test_batches_match_single_model_reports(max_actions, first):
    mdps = _suite_models(max_actions, first, 3_400)
    assert _batch_fields(mdps) == [_single_fields(mdp) for mdp in mdps]


def _tied(mdp: Mdp, copies: int) -> Mdp:
    """``mdp`` with the last action of each state repeated ``copies`` times: exact ties."""
    extra = [Action(f"{a.id}_{c}", a.state, a.probs, a.reward) for rows in mdp.state_rows
             for a in [mdp.actions[int(rows[-1])]] for c in range(copies)]
    return Mdp(2, (*mdp.actions, *extra), mdp.gamma)


def _flat(mdp: Mdp) -> Mdp:
    """Every action of a state a copy of its first: one slope, so degenerate."""
    return Mdp(2, tuple(Action(a.id, a.state, mdp.actions[int(mdp.state_rows[a.state][0])].probs,
                               mdp.actions[int(mdp.state_rows[a.state][0])].reward)
                        for a in mdp.actions), mdp.gamma)


def _report_rows(slices) -> list[tuple]:
    """Each model's report fields as bytes, set sizes without their padding zeros."""
    return [tuple(np.trim_zeros(field).tobytes() if name == "set_sizes" else
                  np.asarray(field).tobytes() for name, field in sorted(report.items()))
            for report in _model_reports(slices)]


def _padded_and_exact(mdps) -> tuple[list[tuple], list[tuple]]:
    """Each model's ``check_batch`` fields from the padded shape classes, and from one
    exact-shape ``_check_class`` per pair of action counts."""
    order = [np.concatenate(mdp.state_rows) for mdp in mdps]
    gamma = np.array([mdp.gamma for mdp in mdps])
    P, rewards = np.ones((len(mdps), 12, 2)), np.ones((len(mdps), 12))
    for b, (mdp, k) in enumerate(zip(mdps, order)):
        P[b, :mdp.m], rewards[b, :mdp.m] = mdp.P[k], mdp.rewards[k]
    counts = np.array([[len(r) for r in mdp.state_rows] for mdp in mdps])
    padded = _report_rows(twostate.check_batch(gamma, P, rewards, counts))
    exact = [None] * len(mdps)
    for shape in {tuple(c) for c in counts.tolist()}:
        group = np.flatnonzero((counts == shape).all(axis=1))
        rows = _report_rows([(np.arange(len(group)), twostate._check_class(
            gamma[group], P[group], rewards[group], counts[group], shape))])
        for b, row in zip(group.tolist(), rows):
            exact[b] = row
    return padded, exact


@pytest.mark.parametrize("max_actions,first", [(4, 300_000), (6, 400_000), (12, 500_000)])
def test_padded_classes_match_exact_shapes_bit_for_bit(monkeypatch, max_actions, first):
    # the suite's models, some with exact ties and some degenerate, in one batch, every
    # model padded however many share its counts
    monkeypatch.setattr(twostate, "_OWN_SHAPE", 10**9)
    mdps = _suite_models(max_actions, first, 600)
    mdps += [_tied(mdp, 1) for mdp in mdps[:60] if mdp.m <= 10]
    mdps += [_flat(mdp) for mdp in mdps[60:120]]
    padded, exact = _padded_and_exact(mdps)
    assert padded == exact
    assert any(_single_fields(mdp)[3] for mdp in mdps if mdp.m >= 3)  # a degenerate one


def test_padded_classes_match_exact_shapes_when_every_action_ties(monkeypatch):
    # within a tie tolerance of 1e9 no round loses an action: every model is flagged
    monkeypatch.setattr(twostate, "TIE_TOL", 1e9)
    monkeypatch.setattr(twostate, "_OWN_SHAPE", 10**9)
    mdps = _suite_models(12, 600_000, 400)
    padded, exact = _padded_and_exact(mdps)
    assert padded == exact
    assert all(not _single_fields(mdp)[2] for mdp in mdps if mdp.m >= 3)


def test_a_block_is_checked_in_four_classes_unless_many_models_share_their_counts(monkeypatch):
    shapes, check = collections.Counter(), twostate._check_class

    def spy(gamma, P, rewards, counts, shape):
        shapes[shape] += len(gamma)
        return check(gamma, P, rewards, counts, shape)

    monkeypatch.setattr(twostate, "_check_class", spy)
    expected = run_twostate_suite(1000, 12, 7)  # about 28 models per pair of counts
    assert set(shapes) == {(3, 3), (3, 6), (6, 3), (6, 6)} and shapes.total() == 1000
    shapes.clear()
    monkeypatch.setattr(twostate, "_OWN_SHAPE", 20)
    assert run_twostate_suite(1000, 12, 7) == expected
    assert len(shapes) > 20 and shapes.total() == 1000


def _depth_reference(nxt: list[int], cycle_depth: int) -> list[int]:
    """Howard depths walked from each start alone: 1 plus the steps to a fixed
    point, or ``cycle_depth`` for a start whose improvements enter a cycle."""
    depth = []
    for start in range(len(nxt)):
        seen, cur = set(), start
        while nxt[cur] != cur and cur not in seen:
            seen.add(cur)
            cur = nxt[cur]
        depth.append(cycle_depth if nxt[cur] != cur else len(seen) + 1)
    return depth


def _advantages_improving_to(nxt, k0, k1):
    """Per state, advantages whose Howard improvement is the map ``nxt`` over
    pairs: 1 at the row the map moves to, 0 elsewhere."""
    return tuple((np.arange(k)[:, None] == target[:, None, :]).astype(float)
                 for k, target in zip((k0, k1), divmod(nxt, k1)))


def _padded_advantages(adv, k0, k1, c0, c1):
    """Per state, advantages of a k0 + k1 model padded to c0 + c1 rows as the suite pads:
    the last real row of a state repeated, and each padded pair a copy of its real pair."""
    i, j = np.minimum(np.arange(c0), k0 - 1), np.minimum(np.arange(c1), k1 - 1)
    pairs = (i[:, None] * k1 + j).ravel()
    return adv[0][:, i][:, :, pairs], adv[1][:, j][:, :, pairs]


@pytest.mark.parametrize("k0,k1", [(1, 1), (1, 2), (3, 1), (2, 3), (6, 6)])
def test_depths_match_the_walk_with_and_without_cycles(k0, k1):
    rng, pairs = np.random.default_rng(k0 * k1), k0 * k1
    free = rng.integers(0, pairs, size=(200, pairs))  # most of these maps have a cycle
    down = rng.integers(0, np.arange(1, pairs + 1), size=(200, pairs))  # none of these
    nxt = np.concatenate([free, down])
    cycles = 0
    for maps in (nxt, nxt[:1], nxt[-1:]):  # in a mixed batch and alone
        got = twostate._depths(_advantages_improving_to(maps, k0, k1), 99)
        for row, depth in zip(maps.tolist(), got.tolist()):
            assert depth == _depth_reference(row, 99)
            cycles += max(depth) >= 99
    assert cycles or pairs == 1
    # padded to 6 + 6 rows, each model with its own cycle depth: a padded start counts 0
    real = (np.arange(6)[:, None] < k0) & (np.arange(6) < k1)
    cycle_depth = 90 + np.arange(len(nxt)) % 7
    got = twostate._depths(_padded_advantages(_advantages_improving_to(nxt, k0, k1),
                                              k0, k1, 6, 6),
                           cycle_depth, np.broadcast_to(real.ravel(), (len(nxt), 36)))
    for row, depth, cycle in zip(nxt.tolist(), got, cycle_depth.tolist()):
        assert depth[real.ravel()].tolist() == _depth_reference(row, cycle)
        assert not depth[~real.ravel()].any()


def test_a_cycle_gives_every_start_that_enters_it_the_same_depth():
    # one map and its relabelling: starts 0-2 enter a cycle, whatever the order
    maps = np.array([[1, 0, 0, 3], [1, 2, 1, 3]])
    got = twostate._depths(_advantages_improving_to(maps, 2, 2), 99)
    assert got.tolist() == [[99, 99, 99, 1], [99, 99, 99, 1]]


def _suite_reference(n_instances: int, max_actions: int = 12, seed: int = 0) -> dict:
    """The suite as a loop over models, one model's checks at a time, kept verbatim."""
    per_state = max(1, max_actions // 2)
    violations: list[str] = []
    degenerate = 0
    certificates = 0
    worst_iters = 0
    for i in range(n_instances):
        mdp = generate(GenSpec(n_states=2, gamma=(0.5, 0.9, 0.99)[i % 3],
                               seed=seed + i, structure="dense",
                               min_actions=1, max_actions=min(per_state, 6)))
        report = twostate.verify_pi_bound(mdp)
        worst_iters = max(worst_iters, report.max_iterations)
        if not report.ok:
            violations.extend(f"seed {seed + i}: {v}" for v in report.violations)
        if mdp.m >= 3:
            cert = twostate.inefficiency_certificate(mdp)
            if cert.degenerate:
                degenerate += 1
                continue
            certificates += 1
            if cert.inefficient_action in report.sets[1]:  # what the full set produces
                violations.append(
                    f"seed {seed + i}: named action {cert.inefficient_action} was produced"
                )
            if min(cert.min_margins) < -1e-12 or cert.min_margins[1] <= 0.0:
                violations.append(f"seed {seed + i}: certificate chain margins failed")
    return {
        "instances": n_instances,
        "max_actions": max_actions,
        "seed": seed,
        "violations": len(violations),
        "violation_details": violations[:20],
        "degenerate": degenerate,
        "certificates": certificates,
        "max_pi_iterations": worst_iters,
    }


@pytest.mark.parametrize("max_actions,seed", [(2, 0), (4, 10), (12, 7)])
def test_suite_matches_the_one_model_loop(max_actions, seed):
    assert run_twostate_suite(300, max_actions, seed) == _suite_reference(300, max_actions, seed)


def test_flagged_instances_word_their_violations_as_the_one_model_loop(monkeypatch):
    # within a tie tolerance of 1e9 every action ties: no round loses an
    # action and every named action is produced
    monkeypatch.setattr(twostate, "TIE_TOL", 1e9)
    got = run_twostate_suite(100, 12, 3)
    assert got["violations"] > 20
    assert got == _suite_reference(100, 12, 3)


@pytest.mark.parametrize("kernel", ["_depths", "_choose"])
def test_broken_bounds_and_chains_are_worded_as_the_one_model_loop(monkeypatch, kernel):
    # the pair core, which both routes share, made to report that every start
    # cycles, or that every certificate chain has lost a margin of 1
    real = getattr(twostate, kernel)

    def broken(*args):
        out = real(*args)
        if kernel == "_depths":  # each model's cycle depth at every start it walks
            return np.where(out > 0, np.reshape(args[1], (-1, 1)), 0)
        return (*out[:5], out[5] - 1.0)

    monkeypatch.setattr(twostate, kernel, broken)
    got = run_twostate_suite(100, 12, 3)
    assert got["violations"] > 20
    assert got == _suite_reference(100, 12, 3)


def test_the_suite_builds_and_rechecks_no_model(monkeypatch):
    # at a tie tolerance of 1e9 every instance is flagged; its words come
    # from its batch, not from a model built and checked alone
    monkeypatch.setattr(twostate, "TIE_TOL", 1e9)
    expected = _suite_reference(100, 12, 3)

    def refuse(*args, **kwargs):
        raise AssertionError("the suite checks each instance once, in its batch")

    for module, name in [(acceptance, "generate"), (twostate, "verify_pi_bound"),
                         (twostate, "inefficiency_certificate")]:
        monkeypatch.setattr(module, name, refuse)
    assert run_twostate_suite(100, 12, 3) == expected


def test_flagging_every_instance_changes_nothing(monkeypatch):
    batch = twostate.check_batch

    def flag_all(*args):
        return ((part, {**report, "ok": np.zeros_like(report["ok"])})
                for part, report in batch(*args))

    expected = run_twostate_suite(300, 12, 9)
    monkeypatch.setattr(twostate, "check_batch", flag_all)
    assert run_twostate_suite(300, 12, 9) == expected


@pytest.mark.parametrize("seed", [0, 5_000, 60_000])
def test_small_blocks_change_nothing(monkeypatch, seed):
    # 1,000 instances in blocks of 128: the last block is partial
    monkeypatch.setattr(acceptance, "_SUITE_BLOCK", 128, raising=False)
    assert run_twostate_suite(1000, 12, seed) == _suite_reference(1000, 12, seed)


def _suite_spec(max_actions: int, seed: int) -> GenSpec:
    return GenSpec(n_states=2, gamma=0.5, seed=seed, structure="dense", min_actions=1,
                   max_actions=min(max(1, max_actions // 2), 6))


def _rejects(spec: GenSpec) -> bool:
    """Whether ``gen._draw`` rejects a row of the spec's instance: it then draws more
    than the counts and one block of three uniforms a row."""
    drawn, block = np.random.default_rng(spec.seed), np.random.default_rng(spec.seed)
    counts = gen._draw(drawn, spec)[0]
    block.integers(1, spec.max_actions + 1, size=2)
    block.random(3 * int(counts.sum()))
    return drawn.bit_generator.state != block.bit_generator.state


@pytest.mark.parametrize("block", [1, 7, 128])
@pytest.mark.parametrize("max_actions", range(2, 14))
def test_block_draws_give_each_instance_its_own_draw(monkeypatch, max_actions, block):
    # from seed 0 up to the third seed whose instance has a rejected row
    rejecting = (s for s in itertools.count() if _rejects(_suite_spec(max_actions, s)))
    n = list(itertools.islice(rejecting, 3))[-1] + 1
    draws = [gen._draw(np.random.default_rng(i), _suite_spec(max_actions, i)) for i in range(n)]
    expected = collections.Counter(
        (tuple(draws[i][0].tolist()), (0.5, 0.9, 0.99)[i % 3], draws[i][2].tobytes(),
         draws[i][3].tobytes()) for i in range(n))
    got, fallbacks, draw, check = collections.Counter(), [], gen._draw, twostate.check_batch

    def spy_draw(rng, spec):
        fallbacks.append(spec)
        return draw(rng, spec)

    def spy_check(gamma, P, rewards, counts):  # one call per block
        for b, (k0, k1) in enumerate(counts.tolist()):
            got[(k0, k1), float(gamma[b]), P[b, :k0 + k1].tobytes(),
                rewards[b, :k0 + k1].tobytes()] += 1
        got["calls"] += 1
        return check(gamma, P, rewards, counts)

    monkeypatch.setattr(acceptance, "_SUITE_BLOCK", block)
    monkeypatch.setattr(acceptance, "_PAIR_DRAWS_FROM", 1)  # every block through the kernel
    monkeypatch.setattr(gen, "_draw", spy_draw)
    monkeypatch.setattr(twostate, "check_batch", spy_check)
    run_twostate_suite(n, max_actions, 0)
    assert got.pop("calls") == -(-n // block)
    assert got == expected
    assert len(fallbacks) == 3
    assert all(spec.max_actions == _suite_spec(max_actions, 0).max_actions for spec in fallbacks)


@pytest.mark.parametrize("n", [1, 5, 23, 24, 30])
def test_suites_below_the_crossover_draw_each_instance_alone(monkeypatch, n):
    calls, kernel = [], gen._dense_pair_draws

    def spy(*args):
        calls.append(args[0])
        return kernel(*args)

    expected = _suite_reference(n, 12, 7)
    monkeypatch.setattr(gen, "_dense_pair_draws", spy)
    seeds = _spy_draw_seeds(monkeypatch)
    assert run_twostate_suite(n, 12, 7) == expected
    assert calls == ([7] if n >= acceptance._PAIR_DRAWS_FROM else [])
    assert n >= acceptance._PAIR_DRAWS_FROM or seeds == list(range(7, 7 + n))


def _spy_draw_seeds(monkeypatch) -> list[int]:
    """The seeds of the instances that go through ``gen._draw``, in call order."""
    seeds, draw = [], gen._draw

    def spy_draw(rng, spec):
        seeds.append(rng.bit_generator.seed_seq.entropy)
        return draw(rng, spec)

    monkeypatch.setattr(gen, "_draw", spy_draw)
    return seeds


@pytest.mark.parametrize("max_actions", [2, 12])
@pytest.mark.parametrize("seed", [2**64 - 20, 2**128 - 20, 2**128 - 1])
def test_seeds_past_two_to_the_64_are_drawn_in_blocks(monkeypatch, seed, max_actions):
    # the first block straddles 2**64 or 2**128 (or lies wholly past them), the second does
    # not; only instances with a rejected row are drawn again
    monkeypatch.setattr(acceptance, "_SUITE_BLOCK", 30)
    monkeypatch.setattr(acceptance, "_PAIR_DRAWS_FROM", 1)
    rejecting = [s for s in range(seed, seed + 40) if _rejects(_suite_spec(max_actions, s))]
    seeds = _spy_draw_seeds(monkeypatch)
    got = run_twostate_suite(40, max_actions, seed)
    assert seeds == rejecting
    assert got == _suite_reference(40, max_actions, seed)


def test_rejected_count_words_go_through_draw(monkeypatch):
    # the rule made to reject the count word of chosen instances of every block, whose
    # pairs are then not numpy's (6 + 1 - c differs from c)
    chosen, rule = [0, 3, 29, 30, 77], gen._bounded_pair

    def rejecting(word, k):
        pair, rejected = rule(word, k)
        flagged = [j for j in chosen if j < len(word)]
        pair[flagged], rejected[flagged] = k + 1 - pair[flagged], True
        return pair, rejected

    monkeypatch.setattr(acceptance, "_SUITE_BLOCK", 100)
    monkeypatch.setattr(gen, "_bounded_pair", rejecting)
    monkeypatch.setattr(twostate, "TIE_TOL", 1e9)  # every instance's words name its count
    seeds = _spy_draw_seeds(monkeypatch)
    got = run_twostate_suite(250, 12, 5)
    assert {5 + start + j for start in (0, 100, 200) for j in chosen if start + j < 250} \
        <= set(seeds)
    assert got == _suite_reference(250, 12, 5)


def test_a_block_that_fails_the_cross_check_goes_through_draw(monkeypatch):
    monkeypatch.setattr(gen, "_same_as_numpy", lambda *args: False)
    seeds = _spy_draw_seeds(monkeypatch)
    got = run_twostate_suite(200, 12, 9)
    assert seeds == list(range(9, 209))
    assert got == _suite_reference(200, 12, 9)


def test_criterion_5_suite_is_pinned():
    assert run_twostate_suite(10_000, 12, 60_000) == {
        "instances": 10000, "max_actions": 12, "seed": 60000, "violations": 0,
        "violation_details": [], "degenerate": 0, "certificates": 9725, "max_pi_iterations": 5}


def test_a_negative_seed_is_refused():
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        run_twostate_suite(5, 12, -1)


def test_violations_keep_their_order_across_blocks(monkeypatch):
    # every instance is flagged at a tie tolerance of 1e9; in blocks of 2 the
    # first 20 violations span several blocks
    monkeypatch.setattr(twostate, "TIE_TOL", 1e9)
    monkeypatch.setattr(acceptance, "_SUITE_BLOCK", 2, raising=False)
    got = run_twostate_suite(100, 12, 3)
    assert len({detail.split(":")[0] for detail in got["violation_details"]}) > 2
    assert got == _suite_reference(100, 12, 3)


def test_suite_memory_does_not_grow_with_the_instance_count(monkeypatch):
    monkeypatch.setattr(acceptance, "_SUITE_BLOCK", 1000, raising=False)
    run_twostate_suite(50, 12, 0)  # first-call allocations out of the way
    peaks = []
    for n in (1000, 4000):
        tracemalloc.start()
        try:
            run_twostate_suite(n, 12, 5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 256 * 1024  # a quarter MiB: about 1/4 of one block's peak
