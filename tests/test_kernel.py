"""The padded-table greedy kernel against two references.

``reference`` groups rows by state on its own (sorted by action id) and
takes ``np.argmax`` per state, which is the tie rule every greedy caller
relied on before a shared kernel existed.  ``reduceat_greedy`` is the
kernel's previous body, a ``np.maximum.reduceat`` over the grouped rows:
the maximum's bits, the sign of a zero included, must be its bits.
"""

import tracemalloc

import numpy as np
import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import pytest
from hypothesis import example, given

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


def reduceat_greedy(mdp, q, error=ModelError):
    order, starts, sizes = mdp.groups
    if not sizes.all():  # reduceat reads an element, not the identity, on empty runs
        raise error(f"state {int(np.argmin(sizes))} has no actions")
    qs = q[order]
    u = np.maximum.reduceat(qs, starts)
    if (u == -np.inf).any():
        raise error(f"state {int(np.nonzero(u == -np.inf)[0][0])} has no active action")
    hit = (qs == u.repeat(sizes, axis=0)) | np.isnan(qs)  # np.argmax picks the first NaN
    pos = np.arange(len(qs))
    if qs.ndim == 2:
        pos = pos[:, None]
    rows = order[np.minimum.reduceat(np.where(hit, pos, len(qs)), starts)]
    return u, rows


def outcome(kernel, mdp, q):
    """The kernel's values, rows and the bytes of its values, or its error message."""
    try:
        u, rows = kernel(mdp, q)
    except ModelError as exc:
        return str(exc)
    return u, rows, np.ascontiguousarray(u).tobytes()


def assert_same(mdp, q):
    """``greedy`` on a 1-D ``q`` is the reduceat body bit for bit and picks the
    loop's rows; on a 2-D ``q`` each column is the 1-D result on that column."""
    got = outcome(greedy, mdp, q)
    if q.ndim == 2:
        cols = [outcome(greedy, mdp, np.ascontiguousarray(c)) for c in q.T]
        if isinstance(got, str):
            assert got in cols
        else:
            assert got[0].shape == got[1].shape == (mdp.n_states, q.shape[1])
            np.testing.assert_array_equal(got[1], np.stack([c[1] for c in cols], axis=1))
            assert got[2] == np.stack([c[0] for c in cols], axis=1).tobytes()
            # the reduceat body's 2-D maximum up to the sign of a zero: its 2-D
            # reduction meets equal zeros in another order than a 1-D one
            np.testing.assert_array_equal(got[0], reduceat_greedy(mdp, q)[0])
        return
    expect = outcome(reduceat_greedy, mdp, q)
    if isinstance(expect, str):
        assert got == expect
        return
    assert got[2] == expect[2]
    np.testing.assert_array_equal(got[1], expect[1])
    ru, rrows = reference(mdp, q)
    np.testing.assert_array_equal(got[0], ru)
    np.testing.assert_array_equal(got[1], rrows)


def skewed(sizes, seed=0) -> Mdp:
    """A model whose state s owns ``sizes[s]`` rows, in shuffled row and id
    order; greedy reads no probabilities, so ``P`` is one row broadcast."""
    rng = np.random.default_rng(seed)
    n = len(sizes)
    state_of = rng.permutation(np.repeat(np.arange(n), sizes))
    ids = [f"a{i:05d}" for i in rng.permutation(state_of.size)]
    P = np.broadcast_to(np.eye(1, n), (state_of.size, n))
    return Mdp.from_arrays(n, 0.9, ids, state_of, P, np.zeros(state_of.size))


SIGNED = [0.0, -0.0, -1.0, 1.0]


@st.composite
def signed_cases(draw, min_wide=32, max_wide=80):
    """One state with ``min_wide``..``max_wide`` rows beside one- to three-row
    states, at values where equal entries, zeros of both signs, -inf and NaN
    are common; ``q`` is (m,) or (m, B)."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=0, max_size=6))
    sizes.insert(draw(st.integers(0, len(sizes))), draw(st.integers(min_wide, max_wide)))
    mdp = skewed(sizes, draw(st.integers(0, 2**16)))
    shape = draw(st.sampled_from([(mdp.m,), (mdp.m, 1), (mdp.m, 3)]))
    pool = SIGNED + draw(st.sampled_from([[], [-np.inf], [-np.inf, np.nan]]))
    return mdp, draw(hnp.arrays(np.float64, shape, elements=st.sampled_from(pool)))


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

    @given(signed_cases())
    @example((skewed([2]), np.array([-0.0, 0.0])))
    @example((skewed([40, 1]), np.concatenate(([0.0, -0.0] * 20, [-1.0]))))
    @example((skewed([40, 1]), np.concatenate(([-0.0, 0.0] * 20, [-1.0]))))
    def test_signed_zeros_wide_states_and_columns(self, case):
        assert_same(*case)

    @given(signed_cases(min_wide=1, max_wide=12))
    def test_signed_zeros_at_every_width(self, case):
        assert_same(*case)

    def test_a_zero_maximum_keeps_the_reduction_sign(self):
        # a state whose equal best entries are -0.0 then +0.0: the first best
        # row is the -0.0 one, while numpy's max reduction gives +0.0
        mdp = skewed([2])
        q = np.array([-0.0, 0.0])
        rows = np.argsort(mdp.ids)
        q_by_row = np.empty(2)
        q_by_row[rows] = q
        u, best = greedy(mdp, q_by_row)
        assert u.tobytes() == np.array([0.0]).tobytes() and best[0] == rows[0]
        assert u.tobytes() == reduceat_greedy(mdp, q_by_row)[0].tobytes()

    def test_two_dimensional_q_with_a_column_per_value_vector(self):
        mdp = skewed([3, 1, 35, 2], seed=3)
        q = np.random.default_rng(3).choice(SIGNED, size=(mdp.m, 4))
        assert_same(mdp, q)
        assert_same(mdp, np.asfortranarray(q))


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

    @pytest.mark.parametrize("sizes", [[1, 2, 3], [40, 1, 1], [2, 2]])
    @pytest.mark.parametrize("shape", [(), (2,)])
    def test_every_entry_of_a_state_at_minus_inf(self, sizes, shape):
        mdp = skewed(sizes)
        q = np.zeros((mdp.m, *shape))
        q[mdp.state_rows[1]] = -np.inf
        with pytest.raises(ModelError, match="state 1 has no active action"):
            greedy(mdp, q)
        assert outcome(reduceat_greedy, mdp, q) == outcome(greedy, mdp, q)

    def test_state_without_rows(self):
        mdp = Mdp(3, (Action("a", 0, (1.0, 0.0, 0.0), 0.0),
                      Action("b", 2, (1.0, 0.0, 0.0), 0.0)), 0.9)
        with pytest.raises(ModelError, match="state 1 has no actions"):
            greedy(mdp, np.zeros(2))
        with pytest.raises(SolverError, match="state 1 has no actions"):
            greedy(mdp, np.zeros(2), error=SolverError)


class TestPadding:
    def test_bands_hold_every_row_once_and_pad_at_most_m(self):
        mdp = skewed([1000] + [1] * 1000 + [7, 5, 3, 33])
        order, starts, sizes = mdp.groups
        seen, cells = [], 0
        for states, table in mdp.bands:
            cells += table.size
            for s, row in zip(states.tolist(), table.tolist()):
                own = order[starts[s]:][:sizes[s]].tolist()
                assert row[:sizes[s]] == own and set(row[sizes[s]:]) <= {own[0]}
                seen += own
        assert sorted(seen) == list(range(mdp.m)) and cells <= 2 * mdp.m

    def test_a_model_of_equal_states_is_one_table_in_state_order(self):
        mdp = skewed([3] * 50)
        ((states, table),) = mdp.bands
        assert states == slice(None) and table.shape == (50, 3)

    def test_padding_memory_stays_of_order_m_for_skewed_sizes(self):
        # one state with 1,000 rows among 1,000 one-row states: a table padded
        # to the widest state would hold 1,001,000 entries (8 MB)
        mdp = skewed([1000] + [1] * 1000)
        q = np.random.default_rng(0).uniform(size=mdp.m)
        mdp.groups  # the sort by id, shared with every grouped-rows user
        tracemalloc.start()
        try:
            greedy(mdp, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * mdp.m  # bytes: about eight float64 or index entries per row


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
