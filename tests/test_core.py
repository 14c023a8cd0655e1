import copy
import dataclasses
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from mdpgeo.core import (
    Action,
    Mdp,
    ModelError,
    Policy,
    action_vector,
    advantage,
    advantages,
    bellman_optimal,
    bellman_policy,
    policy_from_ids,
    span,
    validate,
)
from mdpgeo import core
from mdpgeo.cli import mdp_from_json, mdp_to_json
from mdpgeo.fixtures import m2, m2_mix
from mdpgeo.gen import GenSpec, generate
from mdpgeo.solvers import evaluate_policy, policy_iteration, solve_exact

from conftest import mdps, mdps_with_values


class TestValidate:
    def test_fixtures_pass(self):
        validate(m2())
        validate(m2_mix())

    def test_row_sum_error(self):
        bad = Mdp(2, (Action("a", 0, (0.5, 0.6), 0.0), Action("b", 1, (0.0, 1.0), 0.0)), 0.9)
        with pytest.raises(ModelError, match="row sums"):
            validate(bad)

    def test_gamma_boundary_excluded(self):
        actions = (Action("a", 0, (1.0,), 0.0),)
        with pytest.raises(ModelError, match="discount factor"):
            validate(Mdp(1, actions, 1.0))
        with pytest.raises(ModelError, match="discount factor"):
            validate(Mdp(1, actions, 0.0))

    def test_negative_probability(self):
        bad = Mdp(1, (Action("a", 0, (-0.5,), 0.0),), 0.9)
        with pytest.raises(ModelError, match="negative probability"):
            validate(bad)

    def test_empty_state(self):
        bad = Mdp(2, (Action("a", 0, (1.0, 0.0), 0.0),), 0.9)
        with pytest.raises(ModelError, match="no actions"):
            validate(bad)

    def test_duplicate_ids(self):
        bad = Mdp(
            1, (Action("a", 0, (1.0,), 0.0), Action("a", 0, (1.0,), 1.0)), 0.9
        )
        with pytest.raises(ModelError, match="duplicate"):
            validate(bad)


def reference_validate(mdp):
    """``validate`` as a loop over Action records, each checked in turn."""
    if mdp.n_states < 1:
        raise ModelError(f"n_states must be >= 1, got {mdp.n_states}")
    if not (0.0 < mdp.gamma < 1.0):
        raise ModelError(f"discount factor must lie strictly inside (0, 1), got {mdp.gamma}")
    seen: set[str] = set()
    for a in mdp.actions:
        if a.id in seen:
            raise ModelError(f"duplicate action id {a.id!r}")
        seen.add(a.id)
        if not (0 <= a.state < mdp.n_states):
            raise ModelError(f"action {a.id!r} names unknown state {a.state}")
        if not np.all(np.isfinite(a.probs)):
            raise ModelError(f"action {a.id!r} has non-finite probabilities")
        if np.any(a.probs < 0.0):
            raise ModelError(f"action {a.id!r} has a negative probability")
        rs = float(a.probs.sum())
        if abs(rs - 1.0) > 1e-12:
            raise ModelError(f"action {a.id!r} row sums to {rs!r}, not 1")
        if not np.isfinite(a.reward):
            raise ModelError(f"action {a.id!r} has non-finite reward")
    if not mdp.actions:
        raise ModelError("state 0 has no actions")
    counts = np.bincount(mdp.state_of, minlength=mdp.n_states)
    if not counts.all():
        raise ModelError(f"state {int(np.argmin(counts))} has no actions")


DEFECTS = ("duplicate_id", "unknown_state", "non_finite_probability", "negative_probability",
           "row_sum", "non_finite_reward", "state_without_actions")


def _with_defects(mdp, kind, draw):
    """``mdp``'s arrays with defects of one ``kind`` at one to three drawn rows."""
    ids, states = list(mdp.ids), mdp.state_of.copy()
    P, rewards = mdp.P.copy(), mdp.rewards.copy()
    if kind == "duplicate_id":
        assume(mdp.m > 1)
    rows = draw(st.lists(st.integers(0, mdp.m - 1), min_size=1, max_size=3, unique=True))
    for k in rows:
        j = draw(st.integers(0, mdp.n_states - 1))
        if kind == "duplicate_id":
            ids[k] = ids[draw(st.integers(0, mdp.m - 1).filter(lambda i: i != k))]
        elif kind == "unknown_state":
            states[k] = draw(st.sampled_from([-1, mdp.n_states, mdp.n_states + 3]))
        elif kind == "non_finite_probability":
            P[k, j] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        elif kind == "negative_probability":
            P[k, j] = -draw(st.sampled_from([0.25, 5e-324]))
        elif kind == "row_sum":
            P[k] *= draw(st.sampled_from([1.5, 0.5, 1 + 2e-12, 1 - 5e-13, 1 + 1e-11]))
        elif kind == "non_finite_reward":
            rewards[k] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        else:
            keep = states != states[k]
            ids = [i for i, ok in zip(ids, keep) if ok]
            states, P, rewards = states[keep], P[keep], rewards[keep]
            break
    return Mdp.from_arrays(mdp.n_states, mdp.gamma, ids, states, P, rewards)


def _outcome(check, mdp):
    try:
        check(mdp)
    except ModelError as exc:
        return str(exc)
    return None


class TestArrayModel:
    @given(mdps())
    def test_from_arrays_equals_records(self, mdp):
        direct = Mdp.from_arrays(mdp.n_states, mdp.gamma, mdp.ids, mdp.state_of, mdp.P,
                                 mdp.rewards)
        records = Mdp(mdp.n_states, mdp.actions, mdp.gamma)
        assert (direct.n_states, direct.gamma, direct.m, direct.ids) == (
            records.n_states, records.gamma, records.m, records.ids)
        for name in ("state_of", "P", "rewards", "coeffs"):
            np.testing.assert_array_equal(getattr(direct, name), getattr(records, name))
        for a, b in zip(direct.groups, records.groups):
            np.testing.assert_array_equal(a, b)
        assert mdp_to_json(direct) == mdp_to_json(records)

    @settings(max_examples=300)
    @given(mdps(), st.sampled_from(DEFECTS), st.data())
    def test_validate_matches_the_per_action_loop(self, mdp, kind, data):
        bad = _with_defects(mdp, kind, data.draw)
        assert _outcome(validate, bad) == _outcome(reference_validate, bad)

    def test_duplicate_names_the_first_row_that_repeats_an_id(self):
        mdp = Mdp.from_arrays(2, 0.9, ("a", "b", "b", "a"), (0, 0, 1, 1), np.full((4, 2), 0.5),
                              np.zeros(4))
        with pytest.raises(ModelError, match="duplicate action id 'b'"):
            validate(mdp)

    @pytest.mark.parametrize("excess, flagged", [(2e-12, True), (-2e-12, True), (4e-13, False)])
    def test_row_sum_tolerance(self, excess, flagged):
        mdp = Mdp(1, (Action("a", 0, (1.0 + excess,), 0.0),), 0.9)
        assert (_outcome(validate, mdp) is not None) == flagged
        assert _outcome(validate, mdp) == _outcome(reference_validate, mdp)

    @given(mdps())
    def test_valid_models_pass_both(self, mdp):
        reference_validate(mdp)
        validate(mdp)

    @pytest.mark.parametrize("row", [[[0.5], [0.5]], [1.0], [0.5, 0.25, 0.25], []])
    def test_records_reject_wrong_shape_rows(self, row):
        with pytest.raises(ModelError, match="shape"):
            Mdp(2, (Action("a", 0, row, 0.0), Action("b", 1, (0.0, 1.0), 0.0)), 0.9)
        with pytest.raises(ModelError, match="shape"):
            Mdp(2, (Action("a", 0, row, 0.0), Action("b", 1, row, 0.0)), 0.9)

    @pytest.mark.parametrize("row", [[[0.5], [0.5]], [1.0], [0.5, 0.25, 0.25], []])
    def test_from_arrays_rejects_wrong_shape_rows(self, row):
        with pytest.raises(ModelError):  # ragged
            Mdp.from_arrays(2, 0.9, ("a", "b"), (0, 1), [row, [0.0, 1.0]], (0.0, 0.0))
        with pytest.raises(ModelError, match="shape"):
            Mdp.from_arrays(2, 0.9, ("a", "b"), (0, 1), [row, row], (0.0, 0.0))

    def test_from_arrays_rejects_wrong_length_columns(self):
        P = np.full((2, 2), 0.5)
        with pytest.raises(ModelError, match="shape"):
            Mdp.from_arrays(2, 0.9, ("a", "b"), (0,), P, (0.0, 0.0))
        with pytest.raises(ModelError, match="shape"):
            Mdp.from_arrays(2, 0.9, ("a", "b"), (0, 1), P, (0.0, 0.0, 0.0))
        with pytest.raises(ModelError, match="shape"):
            Mdp.from_arrays(2, 0.9, ("a",), (0, 1), P, (0.0, 0.0))

    def test_attributes_cannot_be_assigned(self):
        mdp = m2()
        for name in ("n_states", "gamma", "m", "ids", "state_of", "P", "rewards", "actions"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(mdp, name, None)
        for name in ("state_of", "P", "rewards"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(mdp, name)[0] = 0

    def test_from_arrays_leaves_the_callers_arrays_writable(self):
        P = np.full((2, 2), 0.5)
        mdp = Mdp.from_arrays(2, 0.9, ("a", "b"), np.array([0, 1]), P, np.zeros(2))
        P[0, 0] = 0.25
        assert not mdp.P.flags.writeable and P.flags.writeable

    def test_records_are_made_from_the_rows(self):
        mdp = m2_mix()
        a = mdp.action("a2")
        assert (a.id, a.state, a.reward) == ("a2", 0, 0.9)
        np.testing.assert_array_equal(a.probs, [1.0, 0.0])
        assert [b.id for b in mdp.actions] == list(mdp.ids)

    def test_no_actions_allocate_nothing(self):
        for mdp in (Mdp(10**12, (), 0.9), Mdp.from_arrays(10**12, 0.9, (), (), [], ())):
            assert mdp.P.shape == (0, 10**12) and mdp.m == 0
            with pytest.raises(ModelError, match="state 0 has no actions"):
                validate(mdp)

    def test_equality_is_identity(self):
        assert m2() != m2()
        mdp = m2()
        assert mdp == mdp and len({mdp, mdp, m2()}) == 2


class TestValidatedOnce:
    """``validate`` remembers no pass: every call runs every check on the arrays."""

    @staticmethod
    def _checks_again(mdp) -> bool:
        # with a negative tolerance every row fails, so only a remembered pass returns
        with mock.patch.object(core, "ROW_SUM_TOL", -1.0):
            try:
                validate(mdp)
            except ModelError:
                return True
        return False

    def test_a_callers_writable_P_is_never_trusted(self):
        P = np.array([[0.5, 0.5], [0.0, 1.0]])
        mdp = Mdp.from_arrays(2, 0.9, ("a", "b"), np.array([0, 1]), P, np.array([0.0, 1.0]))
        validate(mdp)
        P[0, 0] = 0.75  # the caller's own array, under the model's read-only view
        with pytest.raises(ModelError, match="'a' row sums to 1.25"):
            validate(mdp)
        assert self._checks_again(mdp)

    def test_a_read_only_view_of_a_writable_array_is_not_trusted(self):
        P = np.array([[0.5, 0.5], [0.0, 1.0]])
        view = P.view()
        view.setflags(write=False)
        mdp = Mdp.from_arrays(2, 0.9, ("a", "b"), (0, 1), view, (0.0, 1.0))
        validate(mdp)
        assert self._checks_again(mdp)

    @pytest.mark.parametrize("build", [
        lambda: generate(GenSpec(n_states=4, gamma=0.9, seed=3, structure="sparse")),
        lambda: mdp_from_json(mdp_to_json(m2_mix())),
        m2,  # from Action records
        lambda: Mdp.from_arrays(2, 0.9, ("a", "b"), [0, 1], [[0.5, 0.5], [0.0, 1.0]], [0.0, 1.0]),
    ], ids=["generated", "read", "records", "lists"])
    def test_every_call_runs_every_check(self, build):
        mdp = build()
        validate(mdp)
        validate(mdp)
        assert self._checks_again(mdp) and self._checks_again(mdp)
        validate(mdp)

    @pytest.mark.parametrize("copy", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))])
    def test_a_copy_with_writable_arrays_is_checked_again(self, copy):
        mdp = m2()
        validate(mdp)
        twin = copy(mdp)
        twin.P[0, 0] = 5.0
        with pytest.raises(ModelError, match="row sums to"):
            validate(twin)


class TestActionVector:
    def test_m2_mix_a1(self):
        av = action_vector(m2_mix(), "a1")
        assert av.reward == 1.0
        np.testing.assert_allclose(av.coeffs, [-0.55, 0.45], atol=1e-15)

    def test_self_loop(self):
        mdp = Mdp(2, (Action("a", 0, (1.0, 0.0), 0.0), Action("b", 1, (0.0, 1.0), 0.0)), 0.7)
        av = action_vector(mdp, "a")
        np.testing.assert_allclose(av.coeffs, [0.7 - 1.0, 0.0], atol=1e-15)

    def test_unknown_id(self):
        with pytest.raises(ModelError, match="unknown action"):
            action_vector(m2(), "zz")

    @given(mdps())
    def test_coefficient_structure(self, mdp):
        for a in mdp.actions:
            av = action_vector(mdp, a.id)
            assert abs(av.coeffs.sum() - (mdp.gamma - 1.0)) < 1e-10
            assert av.coeffs[a.state] <= 0.0
            others = np.delete(av.coeffs, a.state)
            assert np.all(others >= 0.0)


class TestAdvantage:
    def test_m2_mix_a2_at_optimum(self):
        sol = solve_exact(m2_mix())
        assert advantage(m2_mix(), "a2", sol.values) == pytest.approx(-0.01, abs=1e-9)

    def test_self_loop_constant_values(self):
        mdp = Mdp(2, (Action("a", 0, (1.0, 0.0), 0.0), Action("b", 1, (0.0, 1.0), 0.0)), 0.9)
        c = 3.7
        assert advantage(mdp, "a", np.full(2, c)) == pytest.approx((0.9 - 1.0) * c)

    def test_dimension_mismatch(self):
        with pytest.raises(ModelError, match="shape"):
            advantage(m2(), "a1", np.zeros(3))

    @given(mdps())
    def test_zero_for_solved_policy_actions(self, mdp):
        sol = solve_exact(mdp, brute_check=False)
        for aid in sol.policy.choice:
            assert abs(advantage(mdp, aid, sol.values)) < 1e-8

    @given(mdps_with_values())
    def test_one_row_has_the_bits_of_the_matrix_row(self, case):
        mdp, v = case
        coeffs = mdp.coeffs
        for k, aid in enumerate(mdp.ids):
            assert action_vector(mdp, aid).coeffs.tobytes() == coeffs[k].tobytes()
            assert advantage(mdp, aid, v) == float(mdp.rewards[k] + coeffs[k] @ v)


class TestBellman:
    def test_policy_backup_rewards_only(self):
        pol = policy_from_ids(m2_mix(), ("a1", "b1"))
        np.testing.assert_allclose(bellman_policy(m2_mix(), pol, np.zeros(2)), [1.0, 0.8])

    def test_policy_fixed_point(self):
        mdp = m2_mix()
        pol = policy_from_ids(mdp, ("a1", "b1"))
        v = evaluate_policy(mdp, pol)
        np.testing.assert_allclose(bellman_policy(mdp, pol, v), v, atol=1e-9)

    def test_self_loops_scale_constants(self):
        mdp = Mdp(2, (Action("a", 0, (1.0, 0.0), 0.0), Action("b", 1, (0.0, 1.0), 0.0)), 0.9)
        pol = policy_from_ids(mdp, ("a", "b"))
        np.testing.assert_allclose(bellman_policy(mdp, pol, np.full(2, 5.0)), np.full(2, 4.5))

    def test_optimal_at_zero(self):
        values, pol = bellman_optimal(m2_mix(), np.zeros(2))
        np.testing.assert_allclose(values, [1.0, 0.8])
        assert pol.choice == ("a1", "b1")

    def test_singleton_active_equals_policy_backup(self):
        mdp = m2_mix()
        v = np.array([2.0, -1.0])
        values, pol = bellman_optimal(mdp, v, active=("a2", "b2"))
        assert pol.choice == ("a2", "b2")
        np.testing.assert_allclose(
            values, bellman_policy(mdp, policy_from_ids(mdp, ("a2", "b2")), v)
        )

    def test_fixed_point_at_optimum(self):
        mdp = m2_mix()
        sol = solve_exact(mdp)
        values, pol = bellman_optimal(mdp, sol.values)
        np.testing.assert_allclose(values, sol.values, atol=1e-9)
        assert pol.choice == sol.policy.choice

    def test_no_active_action_for_state(self):
        with pytest.raises(ModelError, match="no active action"):
            bellman_optimal(m2(), np.zeros(2), active=("a1",))

    def test_tie_breaks_to_lowest_id(self):
        mdp = Mdp(
            1,
            (Action("zz", 0, (1.0,), 1.0), Action("aa", 0, (1.0,), 1.0)),
            0.5,
        )
        _, pol = bellman_optimal(mdp, np.zeros(1))
        assert pol.choice == ("aa",)

    @given(mdps_with_values())
    def test_monotone(self, case):
        mdp, v = case
        bump = np.abs(v) * 0 + 0.5
        lo, _ = bellman_optimal(mdp, v)
        hi, _ = bellman_optimal(mdp, v + bump)
        assert np.all(hi >= lo - 1e-12)

    @given(mdps_with_values(), st.lists(st.floats(-10, 10), min_size=1, max_size=4))
    def test_span_contraction(self, case, other):
        mdp, v = case
        w = np.resize(np.array(other), mdp.n_states)
        tv, _ = bellman_optimal(mdp, v)
        tw, _ = bellman_optimal(mdp, w)
        assert span(tv - tw) <= mdp.gamma * span(v - w) + 1e-9


class TestSpan:
    def test_examples(self):
        assert span([9.1, 8.9]) == pytest.approx(0.2)
        assert span(np.full(4, 1.3)) == 0.0

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=6), st.floats(-20, 20))
    def test_shift_invariance(self, vals, c):
        v = np.array(vals)
        assert span(v + c) == pytest.approx(span(v), abs=1e-9)


class TestPolicy:
    def test_wrong_state_rejected(self):
        with pytest.raises(ModelError, match="belongs to state"):
            policy_from_ids(m2(), ("b1", "a1"))

    @pytest.mark.parametrize("choice, message", [
        (("b1", "a2"), "action 'b1' belongs to state 1, not 0"),
        (("a1", "zz"), "unknown action id 'zz'"),
        (("a1",), "policy has 1 choices for 2 states"),
    ])
    def test_malformed_policy_rejected_at_every_entry_point(self, choice, message):
        mdp, pol = m2(), Policy(choice)
        for call in (lambda: policy_from_ids(mdp, choice), lambda: evaluate_policy(mdp, pol),
                     lambda: bellman_policy(mdp, pol, np.zeros(2)),
                     lambda: policy_iteration(mdp, pol)):
            with pytest.raises(ModelError, match=message):
                call()

    def test_equality_ignores_values(self):
        a = policy_from_ids(m2(), ("a1", "b1"), values=np.zeros(2))
        b = policy_from_ids(m2(), ("a1", "b1"))
        assert a == b
        assert hash(a) == hash(b)

    def test_advantages_vectorized_matches_scalar(self):
        mdp = m2_mix()
        v = np.array([1.5, -2.0])
        adv = advantages(mdp, v)
        for k, aid in enumerate(mdp.ids):
            assert adv[k] == pytest.approx(advantage(mdp, aid, v))
