"""The grouped-rows greedy kernel against the per-state loop it replaced.

The reference below groups rows by state on its own (sorted by action id)
and takes ``np.argmax`` per state, which is the tie rule every greedy caller
relied on before the kernel existed.
"""

import numpy as np
import hypothesis.strategies as st
import pytest
from hypothesis import given

from conftest import mdps
from mdpgeo.core import (Action, Mdp, ModelError, Policy, bellman_optimal, greedy,
                         policy_rows, q_values)
from mdpgeo.fixtures import m2
from mdpgeo.solvers import PI_TIE_TOL, SolverError, filter_appendix, policy_iteration


def reference(mdp, q, incumbent=None, tol=0.0):
    u, rows = [], []
    for s in range(mdp.n_states):
        cand = np.array([k for _, k in sorted(
            (a.id, k) for k, a in enumerate(mdp.actions) if a.state == s)])
        vals = q[cand]
        j = int(np.argmax(vals))
        if vals[j] == -np.inf:
            raise ValueError(f"state {s} has no active action")
        u.append(vals[j])
        keep = incumbent is not None and q[incumbent[s]] >= vals[j] - tol
        rows.append(incumbent[s] if keep else cand[j])
    return np.array(u), np.array(rows, dtype=np.intp)


def assert_same(mdp, q):
    u, rows = greedy(mdp, q)
    ru, rrows = reference(mdp, q)
    np.testing.assert_array_equal(u, ru)
    np.testing.assert_array_equal(rows, rrows)


@st.composite
def tied_cases(draw):
    """Backups at small integer values: rows are exact rationals and rewards
    sit on a coarse grid, so equal rows give bit-identical q entries."""
    mdp = draw(mdps(max_actions_per_state=4))
    v = np.array(draw(st.lists(st.integers(-2, 2), min_size=mdp.n_states,
                               max_size=mdp.n_states)), dtype=float)
    grid = np.round(mdp.rewards * 2.0) / 2.0
    return mdp, grid + mdp.gamma * (mdp.P @ v)


@st.composite
def masked_cases(draw):
    mdp, q = draw(tied_cases())
    mask = np.array(draw(st.lists(st.booleans(), min_size=mdp.m, max_size=mdp.m)))
    for rows in mdp.state_rows:  # at least one active row per state
        if not mask[rows].any():
            mask[rows[draw(st.integers(0, rows.size - 1))]] = True
    return mdp, np.where(mask, q, -np.inf)


class TestAgainstReference:
    @given(tied_cases())
    def test_exact_ties_go_to_lowest_id(self, case):
        assert_same(*case)

    @given(st.data())
    def test_integer_q_has_many_ties(self, data):
        mdp = data.draw(mdps(max_actions_per_state=4))
        q = np.array(data.draw(st.lists(st.integers(-1, 1), min_size=mdp.m,
                                        max_size=mdp.m)), dtype=float)
        assert_same(mdp, q)

    @given(masked_cases())
    def test_masked_rows(self, case):
        assert_same(*case)

    @given(mdps(max_actions_per_state=4), st.data())
    def test_howard_improvement_keeps_incumbent_within_tolerance(self, mdp, data):
        start = Policy(choice=tuple(mdp.ids[rows[data.draw(st.integers(0, rows.size - 1))]]
                                    for rows in mdp.state_rows))
        _, trace = policy_iteration(mdp, start)
        nxt = trace.policies[1:] + trace.policies[-1:]  # the last round confirms
        for pol, v, after in zip(trace.policies, trace.values, nxt):
            rows = policy_rows(mdp, Policy(choice=pol))
            _, expect = reference(mdp, mdp.rewards + mdp.coeffs @ v,
                                  incumbent=rows, tol=PI_TIE_TOL)
            assert after == tuple(mdp.ids[k] for k in expect)

    def test_howard_keeps_a_tied_higher_id_incumbent(self):
        same = dict(state=0, probs=(0.5, 0.5), reward=1.0)
        mdp = Mdp(2, (Action("a", **same), Action("b", **same),
                      Action("c", 1, (0.5, 0.5), 0.0)), 0.9)
        pol, trace = policy_iteration(mdp, Policy(choice=("b", "c")))
        assert pol.choice == ("b", "c") and trace.iterations == 1

    @given(tied_cases())
    def test_bellman_optimal_policy(self, case):
        mdp, _ = case
        v = np.arange(mdp.n_states, dtype=float)
        u, pol = bellman_optimal(mdp, v)
        ru, rrows = reference(mdp, mdp.rewards + mdp.gamma * (mdp.P @ v))
        np.testing.assert_array_equal(u, ru)
        assert pol.choice == tuple(mdp.ids[k] for k in rrows)

    def test_nan_is_picked_first_like_argmax(self):
        q = np.array([1.0, np.nan, np.nan, 2.0])
        assert_same(m2(), q)


class TestErrors:
    def test_core_reports_model_error(self):
        with pytest.raises(ModelError, match="state 1 has no active action"):
            bellman_optimal(m2(), np.zeros(2), active=("a1", "a2"))

    def test_solver_error_type_is_kept(self):
        q = np.array([0.0, 1.0, -np.inf, -np.inf])
        with pytest.raises(SolverError, match="state 1 has no active action"):
            greedy(m2(), q, error=SolverError)

    def test_filter_needs_an_active_row_per_state(self):
        mdp = m2()
        active = np.array([True, True, False, False])
        v = np.full(2, 100.0)  # every advantage sits far below the bound
        for q in (None, q_values(mdp, v)):
            with pytest.raises(SolverError, match="state 1 has no active action"):
                filter_appendix(mdp, 50, v, active, q)

    def test_state_without_rows(self):
        mdp = Mdp(3, (Action("a", 0, (1.0, 0.0, 0.0), 0.0),
                      Action("b", 2, (1.0, 0.0, 0.0), 0.0)), 0.9)
        with pytest.raises(ModelError, match="state 1 has no actions"):
            greedy(mdp, np.zeros(2))
        with pytest.raises(SolverError, match="state 1 has no actions"):
            greedy(mdp, np.zeros(2), error=SolverError)


@given(masked_cases(), st.integers(0, 40), st.floats(-20.0, 20.0))
def test_filter_keeps_the_best_active_row_of_an_emptied_state(case, t, level):
    mdp, q = case
    active = q > -np.inf
    v = level + np.arange(mdp.n_states, dtype=float)
    new, removed = filter_appendix(mdp, t, v, active)

    adv = mdp.rewards + mdp.coeffs @ v
    p_own = mdp.P[np.arange(mdp.m), mdp.state_of]
    drop = active & (adv + (1.0 - mdp.gamma * p_own) * mdp.gamma**t / (1.0 - mdp.gamma) < 0.0)
    expect = active & ~drop
    _, best = reference(mdp, np.where(active, adv, -np.inf))
    for s, rows in enumerate(mdp.state_rows):
        if not expect[rows].any():
            expect[best[s]] = True
    np.testing.assert_array_equal(new, expect)
    assert removed == tuple(mdp.ids[k] for k in np.flatnonzero(active & ~expect))

    shared, shared_removed, _ = filter_appendix(mdp, t, v, active, q=q_values(mdp, v))
    np.testing.assert_array_equal(shared, new)
    assert shared_removed == removed
