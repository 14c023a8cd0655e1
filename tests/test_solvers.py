import time
import tracemalloc
from math import ceil, log
from unittest import mock

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import event, example, given, settings

from mdpgeo import solvers
from mdpgeo.core import (
    Action,
    Mdp,
    ModelError,
    Policy,
    advantages,
    as_values,
    greedy,
    policy_from_ids,
    q_values,
    span,
    validate,
)
from mdpgeo.fixtures import m2, m2_mix
from mdpgeo.gen import GenSpec, generate
from mdpgeo.solvers import (
    ConfigError,
    RunTrace,
    SolverError,
    ViConfig,
    brute_force_solve,
    evaluate_policy,
    filter_appendix,
    hard_iteration_cap,
    max_reward_policy,
    policy_iteration,
    solve_exact,
    value_iteration,
)
from mdpgeo.transforms import apply_J, normalize

from conftest import loop_spans, mdps, time_limit


class TestViConfig:
    def test_span_needs_epsilon(self):
        with pytest.raises(ConfigError, match="epsilon"):
            value_iteration(m2(), ViConfig(stop="span"))

    def test_actions_needs_filter(self):
        with pytest.raises(ConfigError, match="requires a filter"):
            value_iteration(m2(), ViConfig(stop="actions"))

    def test_filter_needs_bounded_rewards(self):
        bad = Mdp(1, (Action("a", 0, (1.0,), -0.5), Action("b", 0, (1.0,), 0.1)), 0.9)
        cfg = ViConfig(stop="actions", filter="appendix", v0="upper_bound")
        with pytest.raises(ConfigError, match="rewards"):
            value_iteration(bad, cfg)

    def test_filter_needs_upper_bound_start(self):
        cfg = ViConfig(stop="actions", filter="appendix", v0="zeros")
        with pytest.raises(ConfigError, match="upper_bound"):
            value_iteration(m2(), cfg)

    def test_alpha_range(self):
        with pytest.raises(ConfigError, match="alpha"):
            value_iteration(m2(), ViConfig(alpha=0.0, stop="time", t_max=1))


class TestValueIteration:
    def test_first_step_from_zeros(self):
        trace = value_iteration(m2_mix(), ViConfig(stop="time", t_max=1))
        np.testing.assert_allclose(trace.values[1], [1.0, 0.8])
        assert trace.policies[0] == ("a1", "b1")

    def test_fixed_point_stops_immediately(self):
        mdp = m2_mix()
        sol = solve_exact(mdp)
        cfg = ViConfig(stop="span", epsilon=1e-12, v0="given", v0_values=tuple(sol.values))
        trace = value_iteration(mdp, cfg)
        assert trace.stop_reason == "span"
        assert trace.iterations == 1
        assert trace.span_dv[1] <= 1e-9

    def test_zero_budget_records_only_start(self):
        trace = value_iteration(m2(), ViConfig(stop="time", t_max=0))
        assert trace.iterations == 0
        assert trace.values.shape == (1, 2)
        assert trace.final_policy.choice == ("a2", "b1")  # greedy at zeros = max reward
        assert trace.stop_reason == "time"

    def test_monotone_error_decay(self):
        for seed in range(6):
            mdp = generate(GenSpec(n_states=3, gamma=0.9, seed=500 + seed))
            sol = solve_exact(mdp)
            trace = value_iteration(mdp, ViConfig(stop="time", t_max=25))
            errors = [span(v - sol.values) for v in trace.values]
            for t, err in enumerate(errors):
                assert err <= mdp.gamma**t * errors[0] + 1e-9

    def test_round_robin_touches_one_state_per_sweep(self):
        mdp = m2_mix()
        cfg = ViConfig(stop="time", t_max=4, schedule="round_robin", round_robin_k=1)
        trace = value_iteration(mdp, cfg)
        for t in range(4):
            untouched = 1 - (t % 2)
            assert trace.values[t + 1][untouched] == trace.values[t][untouched]

    def test_explicit_schedule_and_cap(self):
        mdp = m2_mix()
        cfg = ViConfig(
            stop="value_span",
            epsilon=1e-9,
            schedule="explicit",
            explicit_sets=((0,),),
            v0="given",
            v0_values=(0.0, 5.0),
        )
        trace = value_iteration(mdp, cfg)
        assert trace.stop_reason == "cap"
        assert not trace.converged
        assert trace.iterations == hard_iteration_cap(mdp.gamma)
        assert np.all(trace.values[:, 1] == 5.0)

    @pytest.mark.parametrize("gamma", [1e-310, 5e-324])
    def test_subnormal_gamma_runs_to_its_stop(self, gamma):
        # 1/gamma overflows to inf here, which once made the cap 0
        mdp = Mdp(2, (Action("a", 0, (0.5, 0.5), 1.0), Action("b", 1, (1.0, 0.0), 0.0)), gamma)
        assert hard_iteration_cap(gamma) == 10
        trace = value_iteration(mdp, ViConfig(stop="span", epsilon=1e-6))
        assert (trace.stop_reason, trace.iterations) == ("span", 1)

    def test_cap_of_normal_gammas_is_the_classical_formula(self):
        # -log(gamma) rounds apart from log(1/gamma) for thousands of these
        eps = np.finfo(np.float64).eps
        grid = np.concatenate([np.linspace(0.0, 1.0, 20001)[1:-1],
                               1.0 - np.logspace(-16, -1, 20000), np.logspace(-307, -1, 1000)])
        for g in grid.tolist():
            assert hard_iteration_cap(g) == 10 * ceil(log(1.0 / eps) / log(1.0 / g)), g

    def test_value_span_stop(self):
        norm, _, _ = normalize(m2_mix())
        cfg = ViConfig(stop="value_span", epsilon=1e-3, v0="given", v0_values=(1.0, 0.0))
        trace = value_iteration(norm, cfg)
        assert trace.stop_reason == "value_span"
        threshold = 1e-3 * (1 - 0.9) / (0.9 * 1.9)
        assert trace.span_v[-1] < threshold

    def test_trace_invariants(self):
        cfg = ViConfig(stop="actions", filter="appendix", v0="upper_bound")
        trace = value_iteration(m2(), cfg)
        assert np.all(trace.span_v >= 0)
        assert np.all(np.diff(trace.active_counts) <= 0)
        assert np.all(trace.active_counts >= 2)

    def test_learning_rate_blend(self):
        mdp = m2_mix()
        full = value_iteration(mdp, ViConfig(stop="time", t_max=1))
        half = value_iteration(mdp, ViConfig(alpha=0.5, stop="time", t_max=1))
        np.testing.assert_allclose(half.values[1], 0.5 * full.values[1])

    @pytest.mark.parametrize("cfg", [ViConfig(stop="span", epsilon=1e-6),
                                     ViConfig(stop="time", t_max=10**6)])
    def test_non_finite_values_end_the_run_at_once(self, cfg):
        # V_1 = (1e308, 0), V_2 = (inf, 0): the third backup must not happen
        mdp = Mdp(2, (Action("a", 0, (1.0, 0.0), 1e308), Action("b", 1, (0.0, 1.0), 0.0)), 0.9)
        calls, greedy = [], solvers.greedy

        def counting(*args, **kwargs):
            calls.append(1)
            return greedy(*args, **kwargs)

        with mock.patch.object(solvers, "greedy", counting), \
                pytest.raises(ModelError, match="value vector has non-finite entries"):
            value_iteration(mdp, cfg)
        assert len(calls) == 2

    def test_wall_clock_recording_is_opt_in(self):
        mdp = m2_mix()
        bare = value_iteration(mdp, ViConfig(stop="time", t_max=3))
        assert bare.wall_clock is None
        timed = value_iteration(mdp, ViConfig(stop="time", t_max=3, record_wall_clock=True))
        assert timed.wall_clock.shape == (3,)
        assert np.all(timed.wall_clock >= 0)

    def test_overflowing_row_beside_a_finite_one_keeps_running(self):
        # a0's backup -1.5e308 + 0.5 * v(1) overflows to -inf once v(1) < -5.9e307;
        # state 0 keeps its finite row a1 while v(1) tends to -1e308
        mdp = Mdp(2, (Action("a0", 0, (0.0, 1.0), -1.5e308), Action("a1", 0, (1.0, 0.0), 0.0),
                      Action("b", 1, (0.0, 1.0), -5e307)), 0.5)
        trace = value_iteration(mdp, ViConfig(stop="time", t_max=50))
        assert trace.iterations == 50 and trace.values[-1, 1] < -9e307
        assert trace.policies[-1] == trace.final_policy.choice == ("a1", "b")

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                      elements=st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324])
                      | st.floats(-1e300, 1e300)))
    @example(np.array([[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [0.0, 0.0]]))
    def test_spans_are_the_per_row_loop_bit_for_bit(self, values):
        trace = RunTrace(values=values, active_counts=np.ones(len(values), dtype=np.intp),
                         rows=np.empty((0, values.shape[1]), dtype=np.int32), ids=(),
                         filtered=(), stop_reason="time", final_policy=None)
        span_v, span_dv = loop_spans(values)
        assert trace.span_v.tobytes() == span_v.tobytes()
        assert trace.span_dv.tobytes() == span_dv.tobytes()


class TestFilter:
    def test_nothing_filtered_at_start_for_spread_rows(self):
        mdp = generate(GenSpec(n_states=3, gamma=0.9, seed=42, max_actions=4))
        v0 = np.full(3, 1.0 / (1.0 - 0.9))
        active = np.ones(mdp.m, dtype=bool)
        new, removed = filter_appendix(mdp, 0, v0, active)
        assert removed == ()
        assert new.sum() == mdp.m

    def test_run_filters_down_to_optimum(self):
        mdp = m2()
        sol = solve_exact(mdp)
        cfg = ViConfig(stop="actions", filter="appendix", v0="upper_bound")
        trace = value_iteration(mdp, cfg)
        assert trace.stop_reason == "actions"
        dropped = {aid for batch in trace.filtered for aid in batch}
        assert set(mdp.ids) - dropped == set(sol.policy.choice)

    def test_filtered_actions_are_suboptimal(self):
        for seed in range(10):
            mdp = generate(GenSpec(n_states=3, gamma=0.9, seed=600 + seed, max_actions=4))
            sol = solve_exact(mdp)
            adv = advantages(mdp, sol.values)
            cfg = ViConfig(stop="actions", filter="appendix", v0="upper_bound")
            trace = value_iteration(mdp, cfg)
            for batch in trace.filtered:
                for aid in batch:
                    assert adv[mdp.row_of[aid]] < 0.0

    def test_a_filtered_run_never_steps_on_a_dropped_row(self):
        # state 1's rows a2 and a3 tie at V* = (1.5, 1.5); once the filter's slack is at
        # rounding level it drops a3, and a step later a3's rounded q is the larger, so
        # only the mask of dropped rows keeps the greedy step off it
        a = np.array([0.1, 0.9, 0.0, 0.1])
        mdp = Mdp.from_arrays(2, 0.5, ("a0", "a1", "a2", "a3"), np.array([0, 0, 1, 1]),
                              np.stack([a, 1.0 - a], axis=1), np.array([0.75, 0.25, 0.75, 0.75]))
        runs = [value_iteration(mdp, ViConfig(stop="time", t_max=60, v0="upper_bound", **kw))
                for kw in ({"filter": "appendix"}, {})]
        dropped, stepped_on = set(), []
        for t, removed in enumerate(runs[0].filtered):
            steps = [{mdp.ids[k] for k in run.rows[t]} & dropped for run in runs]
            assert not steps[0], f"step {t} takes dropped rows {steps[0]}"
            stepped_on += steps[1]
            dropped.update(removed)
        assert "a3" in stepped_on  # the unfiltered run from the same start takes a3

    def test_dominated_twin_filtered_by_predicted_time(self):
        probs = np.array([0.3, 0.7, 0.0])
        base = [
            Action("s0good", 0, probs, 0.9),
            Action("s0twin", 0, probs, 0.4),
            Action("s1a", 1, (0.2, 0.3, 0.5), 0.8),
            Action("s2a", 2, (0.4, 0.4, 0.2), 0.7),
        ]
        mdp = Mdp(3, tuple(base), 0.9)
        gap = 0.5
        t_pred = 0
        while 2 * 0.9**t_pred * (1 - 0.9 * probs[0]) / (1 - 0.9) >= gap:
            t_pred += 1
        cfg = ViConfig(stop="time", t_max=t_pred + 2, filter="appendix", v0="upper_bound")
        trace = value_iteration(mdp, cfg)
        first = next(
            t for t, batch in enumerate(trace.filtered, start=1) if "s0twin" in batch
        )
        assert first <= t_pred + 1

    def test_last_action_of_state_survives(self):
        # both state-1 actions are bad self-loops; one must still survive
        mdp = Mdp(
            2,
            (
                Action("a", 0, (0.5, 0.5), 1.0),
                Action("x", 1, (0.0, 1.0), 0.0),
                Action("y", 1, (0.0, 1.0), 0.0),
            ),
            0.9,
        )
        cfg = ViConfig(stop="time", t_max=40, filter="appendix", v0="upper_bound")
        trace = value_iteration(mdp, cfg)
        assert trace.active_counts[-1] >= 2

    def test_row_on_the_threshold_takes_the_exact_pass(self):
        # gamma 1/2 from V_0 = 2: at t = 1 the advantage of b, 0.5 + (0.5 - 1) * 2,
        # meets the slack (1 - 0.5) * 0.5 / 0.5 exactly, so only the exact
        # product decides (b stays); at t = 2 b is dropped.
        mdp = Mdp(1, (Action("a", 0, (1.0,), 1.0), Action("b", 0, (1.0,), 0.5)), 0.5)
        v = np.array([2.0])
        active = np.ones(2, dtype=bool)
        assert advantages(mdp, v)[1] + 0.5 == 0.0
        new, removed, fell_back = filter_appendix(mdp, 1, v, active, q=q_values(mdp, v))
        assert fell_back and removed == () and new.all()
        cfg = ViConfig(stop="actions", filter="appendix", v0="upper_bound")
        trace = value_iteration(mdp, cfg)
        assert trace.filtered == ((), ("b",))
        assert trace.filter_fallbacks == 1

    def test_rounding_that_flips_a_decision_takes_the_exact_pass(self):
        # the shared form puts b's margin at -1.1e-17 where the exact product
        # puts it at +1.0e-16: only the error bound keeps b, as the exact pass does
        mdp = Mdp(1, (Action("a", 0, (1.0,), 1.0), Action("b", 0, (1.0,), 0.9127555772774393)),
                  0.3)
        v = np.array([1.3039365389681739])
        active = np.ones(2, dtype=bool)
        slack = (1.0 - 0.3) * 0.3**24 / (1.0 - 0.3)
        assert advantages(mdp, v)[1] + slack > 0.0
        assert mdp.rewards[1] + 0.3 * (mdp.P @ v)[0] - v[0] + slack < 0.0
        new, removed, fell_back = filter_appendix(mdp, 24, v, active, q=q_values(mdp, v))
        assert fell_back and removed == () and new.all()

    def test_emptied_state_takes_the_exact_pass(self):
        mdp = m2()
        v = np.full(2, 100.0)  # every advantage sits far below the bound
        active = np.ones(mdp.m, dtype=bool)
        new, removed, fell_back = filter_appendix(mdp, 50, v, active, q=q_values(mdp, v))
        with mock.patch.object(solvers, "_shared_error", lambda mdp, v: np.inf):
            expect, expect_removed = filter_appendix(mdp, 50, v, active)
        assert fell_back and new.sum() == mdp.n_states
        np.testing.assert_array_equal(new, expect)
        assert removed == expect_removed


def _exact_filter(mdp, t, v, active, q=None):
    """The filter with no row proven: the exact pass every time."""
    with mock.patch.object(solvers, "_shared_error", lambda mdp, v: np.inf):
        return filter_appendix(mdp, t, v, active, q)


@given(mdps(), st.integers(0, 60))
def test_filtered_run_matches_the_exact_filter(mdp, t_max):
    mdp = Mdp.from_arrays(mdp.n_states, mdp.gamma, mdp.ids, mdp.state_of, mdp.P,
                          np.clip(mdp.rewards, 0.0, 1.0))
    cfg = ViConfig(stop="time", t_max=t_max, filter="appendix", v0="upper_bound")
    shared = value_iteration(mdp, cfg)
    with mock.patch.object(solvers, "filter_appendix", _exact_filter):
        exact = value_iteration(mdp, cfg)
    assert exact.filter_fallbacks == t_max
    assert shared.filtered == exact.filtered
    np.testing.assert_array_equal(shared.active_counts, exact.active_counts)
    assert shared.values.tobytes() == exact.values.tobytes()
    np.testing.assert_array_equal(shared.rows, exact.rows)
    assert shared.content_hash() == exact.content_hash()


@given(mdps(max_states=6), st.data())
def test_evaluation_solves_the_matrix_of_the_plain_form(mdp, data):
    if data.draw(st.booleans()):  # -0.0 probabilities: the plain form gives +0.0 off the diagonal
        mdp = Mdp.from_arrays(mdp.n_states, mdp.gamma, mdp.ids, mdp.state_of,
                              np.where(mdp.P == 0.0, -0.0, mdp.P), mdp.rewards)
    rows = np.array([data.draw(st.sampled_from(r.tolist())) for r in mdp.state_rows],
                    dtype=np.intp)
    plain = np.eye(mdp.n_states) - mdp.gamma * mdp.P[rows]
    for out in (None, np.full((mdp.n_states, mdp.n_states), np.nan)):  # a new array, or out
        with mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as solve:
            v = solvers.evaluate_rows(mdp, rows, out=out)
        assert out is None or solve.call_args.args[0] is out
        assert solve.call_args.args[0].tobytes() == plain.tobytes()
        assert v.tobytes() == np.linalg.solve(plain, mdp.rewards[rows]).tobytes()


@pytest.mark.parametrize("row", [-1, 4])
@pytest.mark.parametrize("out", [False, True])
def test_evaluation_refuses_a_row_outside_p(row, out):
    mdp = m2_mix()  # rows 0..3
    buf = np.zeros((2, 2)) if out else None
    with pytest.raises(IndexError, match=r"^policy rows must lie in 0\.\.3$"):
        solvers.evaluate_rows(mdp, np.array([0, row], dtype=np.intp), out=buf)


def _exact_pi(mdp, pi0):
    """Policy iteration with every round improved from the exact product."""
    with mock.patch.object(solvers, "_shared_error", lambda mdp, v: np.inf):
        return policy_iteration(mdp, pi0)


def _assert_same_run(shared, exact):
    assert shared[0] == exact[0]
    assert shared[0].values.tobytes() == exact[0].values.tobytes()
    a, b = shared[1], exact[1]
    assert (a.policies, a.iterations, a.switched) == (b.policies, b.iterations, b.switched)
    assert a.values.tobytes() == b.values.tobytes()


@given(mdps(), st.integers(0, 2**32 - 1))
def test_howard_run_matches_the_exact_improvement(mdp, seed):
    rng = np.random.default_rng(seed)
    pi0 = Policy(tuple(mdp.ids[rng.choice(rows)] for rows in mdp.state_rows))
    shared, exact = policy_iteration(mdp, pi0), _exact_pi(mdp, pi0)
    assert exact[1].fallbacks == exact[1].iterations
    _assert_same_run(shared, exact)


class TestPolicyIteration:
    def test_m2_mix_from_worst_start(self):
        pol, trace = policy_iteration(m2_mix(), policy_from_ids(m2_mix(), ("a2", "b2")))
        assert pol.choice == ("a1", "b1")
        assert trace.iterations <= 4
        assert trace.policies == (("a2", "b2"), ("a2", "b1"), ("a1", "b1"))
        assert trace.switched == (1, 1, 0)
        assert trace.fallbacks == 0

    def test_near_tie_takes_the_exact_product(self):
        # at the values of (a, d), b and c tie up to rounding: the exact product
        # puts c on top, r + gamma*(P @ v) - v_own puts b there
        mdp = Mdp(2, (
            Action("a", 0, (0.5969877305237564, 0.4030122694762436), -1.691664765997845),
            Action("b", 0, (0.9176922571709127, 0.08230774282908726), -0.046203091657904594),
            Action("c", 0, (0.689630155447081, 0.31036984455291905), -0.16827073021788863),
            Action("d", 1, (0.500356430736871, 0.49964356926312903), -1.1486760186386626),
        ), 0.9)
        pi0 = Policy(("a", "d"))
        v = evaluate_policy(mdp, pi0)
        exact = advantages(mdp, v)
        shared = mdp.rewards + mdp.gamma * (mdp.P @ v) - v[mdp.state_of]
        assert exact[2] > exact[1] and shared[1] > shared[2]
        run = policy_iteration(mdp, pi0)
        assert run[1].policies[1] == ("c", "d")
        assert run[1].fallbacks == 1
        _assert_same_run(run, _exact_pi(mdp, pi0))

    def test_keep_test_on_its_threshold_takes_the_exact_product(self):
        # b beats a by PI_TIE_TOL up to rounding: the exact product keeps a,
        # r + gamma*(P @ v) - v_own would switch to b
        mdp = Mdp(2, (
            Action("a", 0, (0.43263079080478717, 0.5673692091952128), -0.30886130691948877),
            Action("b", 0, (0.9674359524936766, 0.03256404750632336), -0.1076281599069219),
            Action("d", 1, (0.6692972985745202, 0.33070270142547975), 0.5327375970964656),
        ), 0.5)
        pi0 = Policy(("a", "d"))
        v = evaluate_policy(mdp, pi0)
        exact = advantages(mdp, v)
        shared = mdp.rewards + mdp.gamma * (mdp.P @ v) - v[mdp.state_of]
        tol = solvers.PI_TIE_TOL
        assert exact[0] >= exact[1] - tol and not shared[0] >= shared[1] - tol
        run = policy_iteration(mdp, pi0)
        assert run[1].policies == (("a", "d"),) and run[1].fallbacks == 1
        _assert_same_run(run, _exact_pi(mdp, pi0))

    def test_non_finite_shared_advantages_are_not_trusted(self):
        mdp = m2_mix()
        rows = np.array([mdp.row("a2"), mdp.row("b2")])
        adv = advantages(mdp, evaluate_policy(mdp, Policy(("a2", "b2"))))
        assert solvers._improve(mdp, rows, adv, 1e-12) is not None
        for bad in (np.inf, -np.inf, np.nan):
            assert solvers._improve(mdp, rows, np.where(adv == adv.max(), bad, adv), 1e-12) is None

    def test_no_second_coefficient_matrix(self):
        mdp = generate(GenSpec(n_states=300, gamma=0.95, seed=3, structure="sparse",
                               sparse_k=5, max_actions=8))
        validate(mdp)
        pi0 = max_reward_policy(mdp)
        tracemalloc.start()
        try:
            _, trace = policy_iteration(mdp, pi0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.fallbacks == 0
        assert peak < mdp.P.nbytes

    def test_evaluation_holds_one_matrix(self):
        n = 400
        rng = np.random.default_rng(5)
        P = rng.random((n, n))
        P /= P.sum(axis=1, keepdims=True)
        mdp = Mdp.from_arrays(n, 0.9, [f"a{k}" for k in range(n)], np.arange(n), P,
                              rng.random(n))
        tracemalloc.start()
        try:
            solvers.evaluate_rows(mdp, np.arange(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8

    def test_overflowing_values_are_a_model_error(self):
        mdp = Mdp(2, (Action("a", 0, (1.0, 0.0), 1e308), Action("b", 1, (0.0, 1.0), 0.0)), 0.9)
        for solve in (lambda: policy_iteration(mdp, Policy(("a", "b"))), lambda: solve_exact(mdp)):
            with pytest.raises(ModelError, match="value vector has non-finite entries"):
                solve()

    def test_a_revisited_policy_names_both_rounds(self):
        mdp = m2_mix()
        step = {("a2", "b2"): ("a2", "b1"), ("a2", "b1"): ("a1", "b1"), ("a1", "b1"): ("a2", "b1")}

        def cycling(mdp, rows, adv, err=None):
            return np.array([mdp.row(a) for a in step[tuple(mdp.ids[k] for k in rows)]])

        with mock.patch.object(solvers, "_improve", cycling), time_limit(2):
            with pytest.raises(SolverError, match="^round 3 of policy iteration improves back "
                                                  "to the policy of round 2: rounding decided"):
                policy_iteration(mdp, Policy(("a2", "b2")))

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("n", [2, 6])
    def test_a_run_that_would_cycle_raises(self, n, seed):
        # with every reward 1e6 one ulp of the values exceeds PI_TIE_TOL, so rounding
        # decides the exact ties, and these 25 of the 80 runs revisit a policy
        cycling = {2: {2, 15, 17}, 6: {0, 1, 5, 6, 7, 14, 15, 16, 18, 19, 20, 21, 22, 24, 25, 26,
                                       27, 31, 32, 35, 38, 39}}
        drawn = generate(GenSpec(n_states=n, gamma=0.99, seed=seed, structure="dense"))
        mdp = Mdp.from_arrays(n, 0.99, drawn.ids, drawn.state_of, drawn.P, np.full(drawn.m, 1e6))
        with time_limit(2):
            if seed in cycling[n]:
                with pytest.raises(SolverError, match="improves back to the policy of round"):
                    policy_iteration(mdp, max_reward_policy(mdp))
            else:
                _, trace = policy_iteration(mdp, max_reward_policy(mdp))
                assert len(set(trace.policies)) == trace.iterations

    def test_single_action_converges_in_one(self):
        mdp = Mdp(2, (Action("a", 0, (1.0, 0.0), 0.0), Action("b", 1, (0.0, 1.0), 1.0)), 0.9)
        _, trace = policy_iteration(mdp, policy_from_ids(mdp, ("a", "b")))
        assert trace.iterations == 1

    def test_values_nondecreasing(self):
        for seed in range(6):
            mdp = generate(GenSpec(n_states=4, gamma=0.9, seed=700 + seed, max_actions=3))
            pi0 = Policy(choice=tuple(mdp.ids[r[0]] for r in mdp.state_rows))
            _, trace = policy_iteration(mdp, pi0)
            for a, b in zip(trace.values, trace.values[1:]):
                assert np.all(b >= a - 1e-9)

    def test_iteration_count_stable_under_discount_change(self):
        mdp = m2()
        image, _ = apply_J(mdp, 0, 0.95)
        pi0 = ("a1", "b2")
        _, base = policy_iteration(mdp, policy_from_ids(mdp, pi0))
        _, moved = policy_iteration(image, policy_from_ids(image, pi0))
        assert base.iterations == moved.iterations
        assert base.policies == moved.policies


class TestSolveExact:
    def test_m2_mix(self):
        sol = solve_exact(m2_mix())
        assert sol.policy.choice == ("a1", "b1")
        np.testing.assert_allclose(sol.values, [9.1, 8.9], atol=1e-9)
        assert sol.delta == pytest.approx(0.01, abs=1e-9)
        assert sol.unique and sol.brute_checked

    def test_m2(self):
        sol = solve_exact(m2())
        assert sol.policy.choice == ("a2", "b1")
        np.testing.assert_allclose(sol.values, [0.68 / 0.19, 0.65 / 0.19], atol=1e-9)

    def test_zero_rewards_flag_non_unique(self):
        mdp = Mdp(
            1, (Action("a", 0, (1.0,), 0.0), Action("b", 0, (1.0,), 0.0)), 0.9
        )
        sol = solve_exact(mdp)
        np.testing.assert_allclose(sol.values, [0.0], atol=1e-12)
        assert not sol.unique

    def test_brute_force_guard(self):
        mdp = generate(GenSpec(n_states=4, gamma=0.9, seed=1))
        with pytest.raises(ValueError, match="brute force"):
            brute_force_solve(mdp)

    @given(mdps(max_states=3, max_actions_per_state=3))
    def test_brute_force_agrees_with_howard(self, mdp):
        sol = solve_exact(mdp, brute_check=True)  # raises internally on mismatch
        _, brute_vals = brute_force_solve(mdp)
        np.testing.assert_allclose(sol.values, brute_vals, atol=1e-8)

    def test_policy_evaluation_fixed_point(self):
        mdp = m2()
        pol = policy_from_ids(mdp, ("a2", "b1"))
        v = evaluate_policy(mdp, pol)
        rows = [mdp.row_of[a] for a in pol.choice]
        np.testing.assert_allclose(
            mdp.rewards[rows] + 0.9 * mdp.P[rows] @ v, v, atol=1e-10
        )


# The value-iteration loop as it was before its step was pruned to the work
# the step needs, verbatim but for its name: every trace field of the
# pruned loop must be its bits.
def reference_value_iteration(mdp: Mdp, cfg: ViConfig) -> RunTrace:
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
    with np.errstate(over="ignore"):  # a row at -inf beside a finite one is never chosen
        q = q_values(mdp, v)  # shared by the filter at v and the next greedy pass
    overflow = lambda _: ModelError("value vector has non-finite entries")  # noqa: E731
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
        u, best = greedy(mdp, np.where(active, q, -np.inf), error=overflow)
        v_new = v.copy()
        v_new[sel] = (1.0 - alpha) * v[sel] + alpha * u[sel]
        as_values(v_new, n)  # ModelError on an inf or NaN entry
        with np.errstate(over="ignore"):
            q = q_values(mdp, v_new)
        removed: tuple[str, ...] = ()
        if cfg.filter == "appendix":
            active, removed, fell_back = filter_appendix(mdp, t + 1, v_new, active, q)
            fallbacks += fell_back
        values.append(v_new)
        counts.append(int(active.sum()))
        rows.append(best.astype(np.int32))
        filtered.append(removed)
        if cfg.record_wall_clock:
            wall.append(time.perf_counter() - t0)
        v = v_new
        t += 1

    _, best = greedy(mdp, np.where(active, q, -np.inf), error=overflow)
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


@st.composite
def vi_cases(draw):
    """A model and a configuration over every schedule, rate, stop and filter
    the loop accepts; a filtered run clips the rewards into [0, 1]."""
    mdp = draw(mdps(max_states=5))
    gamma = draw(st.sampled_from([0.3, 0.5, 0.9]))  # caps of 180 to 3,430 steps
    rewards = mdp.rewards
    filtered = draw(st.booleans())
    if filtered:
        rewards = np.clip(rewards, 0.0, 1.0)
        kw = dict(filter="appendix", v0="upper_bound")
        stop = draw(st.sampled_from(["time", "span", "value_span", "actions"]))
    else:
        kw = dict(alpha=draw(st.sampled_from([1.0, 0.5])),
                  schedule=draw(st.sampled_from(["sync", "round_robin", "explicit"])),
                  v0=draw(st.sampled_from(["zeros", "upper_bound"])))
        stop = draw(st.sampled_from(["time", "span", "value_span"]))
    n = mdp.n_states
    if kw.get("schedule") == "round_robin":
        kw["round_robin_k"] = draw(st.integers(1, n))
    if kw.get("schedule") == "explicit":
        kw["explicit_sets"] = tuple(draw(st.lists(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n).map(tuple),
            min_size=1, max_size=3)))
    if stop == "time":
        kw["t_max"] = draw(st.integers(0, 30))
    elif stop != "actions":
        kw["epsilon"] = draw(st.sampled_from([1e-1, 1e-4]))
    mdp = Mdp.from_arrays(n, gamma, mdp.ids, mdp.state_of, mdp.P, rewards)
    return mdp, ViConfig(stop=stop, **kw)


_APART = Mdp(2, (Action("a", 0, (1.0, 0.0), 0.0), Action("b", 1, (0.0, 1.0), 1.0)), 0.3)


@settings(max_examples=150, deadline=None)
@given(vi_cases())
@example((_APART, ViConfig(stop="value_span", epsilon=1e-4, v0="given",
                           v0_values=(0.0, 1.0))))  # the span tends to 1/0.7: a cap stop
def test_pruned_loop_is_the_reference_loop_bit_for_bit(case):
    mdp, cfg = case
    got, expect = value_iteration(mdp, cfg), reference_value_iteration(mdp, cfg)
    event(f"{cfg.stop} stop ends in {expect.stop_reason}")
    assert got.values.tobytes() == expect.values.tobytes()
    assert got.values.shape == expect.values.shape
    assert got.rows.dtype == expect.rows.dtype == np.int32
    assert got.rows.tobytes() == expect.rows.tobytes() and got.rows.shape == expect.rows.shape
    assert got.active_counts.tobytes() == expect.active_counts.tobytes()
    assert got.filtered == expect.filtered
    assert got.stop_reason == expect.stop_reason
    assert got.final_policy == expect.final_policy
    assert got.filter_fallbacks == expect.filter_fallbacks
    assert got.wall_clock is expect.wall_clock is None
    assert got.content_hash() == expect.content_hash()
