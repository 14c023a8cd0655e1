import json
from dataclasses import replace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from mdpgeo.analysis import (
    RECURRENCE_BLOCK,
    AssumptionError,
    CertificationError,
    ErrorRecursionReport,
    MixingBoundReport,
    certify,
    certify_alpha,
    check_error_recursion,
    check_lemma_adv_span,
    check_mixing_bound,
    check_update_sandwich,
    empirical_rate,
    primitivity,
    support_exponent_with_loops,
    wielandt_bound,
    _verify_sync_recurrence,
)
from mdpgeo.cli import trace_from_csv, trace_to_csv
from mdpgeo.core import Action, Mdp, ModelError, greedy, policy_rows, span
from mdpgeo.fixtures import m2_mix
from mdpgeo.gen import GenSpec, generate
from mdpgeo.solvers import ViConfig, solve_exact, value_iteration
from mdpgeo.transforms import normalize


def wielandt_matrix(n):
    p = np.zeros((n, n))
    for i in range(n - 1):
        p[i, i + 1] = 1.0
    p[n - 1, 0] = 0.5
    p[n - 1, 1] = 0.5
    return p


def normalized_trace(t_max=10, v0=(1.0, 0.0), alpha=1.0):
    norm, _, _ = normalize(m2_mix())
    cfg = ViConfig(alpha=alpha, stop="time", t_max=t_max, v0="given", v0_values=v0)
    return norm, value_iteration(norm, cfg)


def zero_optimum(gap):
    """Normalized by construction: optimal rewards 0 on the all-halves rows,
    the alternatives cost ``gap``, so V* = 0 exactly and delta = gap."""
    half = (0.5, 0.5)
    return Mdp(2, (Action("a1", 0, half, 0.0), Action("a2", 0, (1.0, 0.0), -gap),
                   Action("b1", 1, half, 0.0), Action("b2", 1, (0.0, 1.0), -gap)), 0.9)


def block_cycle_instance():
    """Three states whose optimal matrix needs two steps to go positive."""
    actions = (
        Action("p0", 0, (0.5, 0.5, 0.0), 1.0),
        Action("x0", 0, (0.2, 0.5, 0.3), 0.95),
        Action("p1", 1, (0.0, 0.5, 0.5), 1.0),
        Action("p2", 2, (0.5, 0.0, 0.5), 1.0),
    )
    return Mdp(3, actions, 0.9)


def scan_primitivity(p):
    """Reference: the linear scan over exponents, one boolean product each."""
    b = p > 0.0
    reach = b.copy()
    for k in range(1, wielandt_bound(p.shape[0]) + 1):
        if reach.all():
            return k, float(np.linalg.matrix_power(p, k).min())
        reach = reach @ b
    return None


def scan_loop_exponent(p):
    """Reference: the linear scan on support + I from k = 0; None if reducible."""
    n = p.shape[0]
    b = (p > 0.0) | np.eye(n, dtype=bool)
    reach = np.eye(n, dtype=bool)
    for k in range(0, n):
        if reach.all():
            return k
        reach = reach @ b
    return None


@st.composite
def stochastic_supports(draw):
    """Row-stochastic n x n matrices, n <= 8, on random, permutation
    (periodic for n >= 2) or block-triangular (reducible) supports."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["random", "permutation", "reducible"]))
    if kind == "permutation":
        support = np.eye(n, dtype=bool)[draw(st.permutations(range(n)))]
    else:
        cells = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
        support = np.array(cells, dtype=bool).reshape(n, n)
        if kind == "reducible" and n >= 2:
            h = draw(st.integers(1, n - 1))
            support[h:, :h] = False  # states from h on never reach those below h
    empty = ~support.any(axis=1)
    support[empty, np.nonzero(empty)[0]] = True
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=n * n, max_size=n * n))
    p = support * np.array(weights).reshape(n, n)
    return p / p.sum(axis=1, keepdims=True)


def perturbed(trace, t, eps=1e-6):
    """The trace with V_{t+1}, the result of step t, moved by eps at state 0."""
    values = trace.values.copy()
    values[t + 1, 0] += eps
    return replace(trace, values=values)


def per_state_mixing_bound(mdp, trace):
    """Reference for check_mixing_bound: one state at a time."""
    sol = solve_exact(mdp)
    opt_rows = [mdp.row_of[a] for a in sol.policy.choice]
    p_star = mdp.P[opt_rows]
    checked, skipped, min_margin = 0, 0, float("inf")
    for t in range(trace.iterations):
        v = trace.values[t]
        sp = span(v)
        if sp <= 1e-13:
            skipped += mdp.n_states
            continue
        rows = trace.rows[t]
        star, cur = p_star @ v, mdp.P[rows] @ v
        for s in range(mdp.n_states):
            if rows[s] == opt_rows[s]:
                continue
            denom = mdp.gamma * (cur[s] - star[s])
            if abs(denom) < 1e-12:
                skipped += 1
                continue
            d = (mdp.gamma * cur[s] - trace.values[t + 1][s]) / denom
            checked += 1
            min_margin = min(min_margin, float(d - sol.delta / (mdp.gamma * sp)))
    return MixingBoundReport(checked=checked, skipped=skipped, min_margin=min_margin)


def per_step_error_recursion(mdp, trace):
    """Reference for check_error_recursion: one step at a time."""
    sol = solve_exact(mdp)
    opt_rows = policy_rows(mdp, sol.policy)
    errors = trace.values - sol.values
    worst = 0.0
    worst_eq = 0.0
    eq_checks = 0
    for t in range(trace.iterations):
        rows = trace.rows[t]
        bound = mdp.gamma * (mdp.P[rows] @ errors[t])
        diff = errors[t + 1] - bound
        worst = max(worst, float(np.max(diff)))
        agree = rows == opt_rows
        if np.any(agree):
            eq_checks += int(agree.sum())
            worst_eq = max(worst_eq, float(np.max(np.abs(diff[agree]))))
    return ErrorRecursionReport(
        steps=trace.iterations,
        max_violation=worst,
        max_equality_gap=worst_eq,
        equality_checks=eq_checks,
    )


def per_step_update_sandwich(mdp, trace):
    """Reference for check_update_sandwich: one step at a time."""
    p_star = mdp.P[policy_rows(mdp, solve_exact(mdp).policy)]
    worst = 0.0
    for t in range(trace.iterations):
        rows = trace.rows[t]
        lower = mdp.gamma * (p_star @ trace.values[t])
        upper = mdp.gamma * (mdp.P[rows] @ trace.values[t])
        v_next = trace.values[t + 1]
        worst = max(worst, float(np.max(lower - v_next)), float(np.max(v_next - upper)))
    return worst


def assert_checks_match_references(mdp, trace):
    assert check_error_recursion(mdp, trace) == per_step_error_recursion(mdp, trace)
    assert check_update_sandwich(mdp, trace) == per_step_update_sandwich(mdp, trace)
    assert check_mixing_bound(mdp, trace) == per_state_mixing_bound(mdp, trace)


@st.composite
def normalized_runs(draw):
    """A standard run of 0 to 40 steps on a normalized generated model; a start
    of scale 1e-12 has spans below 1e-13 after a few steps."""
    n = draw(st.integers(2, 6))
    gamma = draw(st.sampled_from([0.5, 0.9, 0.95]))
    seed = draw(st.integers(0, 9999))
    norm, _, _ = normalize(generate(GenSpec(n_states=n, gamma=gamma, seed=seed, max_actions=4)))
    scale = draw(st.sampled_from([1e-12, 1.0, 30.0]))
    v0 = scale * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    cfg = ViConfig(stop="time", t_max=draw(st.integers(0, 40)), v0="given", v0_values=tuple(v0))
    return norm, value_iteration(norm, cfg)


def dyadic_model():
    """Normalized by construction (V* = 0, delta = 1/4) with dyadic rows, so
    backups of values on a dyadic grid tie exactly: b0 and a0 back up
    (1, 1/2, 0) to 1/2 both."""
    return Mdp(3, (Action("a0", 0, (0.5, 0.0, 0.5), 0.0), Action("b0", 0, (0.0, 1.0, 0.0), -0.25),
                   Action("a1", 1, (0.0, 0.5, 0.5), 0.0), Action("b1", 1, (1.0, 0.0, 0.0), -0.25),
                   Action("a2", 2, (0.5, 0.5, 0.0), 0.0), Action("b2", 2, (0.0, 0.0, 1.0), -0.5)),
               0.5)


def recorded(mdp, values, choices):
    """A trace of ``mdp`` holding ``values`` and the rows of the action ids ``choices``."""
    base = value_iteration(mdp, ViConfig(stop="time", t_max=0))
    rows = np.array([[mdp.row_of[a] for a in step] for step in choices], dtype=np.int32)
    return replace(base, values=np.array(values, dtype=np.float64),
                   rows=rows.reshape(len(choices), mdp.n_states))


def tied_trace():
    """One step choosing b0, whose backup ties a0's at V_0: a tied denominator."""
    return recorded(dyadic_model(), [[1.0, 0.5, 0.0], [0.0, 0.0, 0.0]], [("b0", "a1", "a2")])


@st.composite
def dyadic_traces(draw):
    """Any values on a grid of quarters (or 1e-14) with any recorded choices, on
    :func:`dyadic_model`: constant and tiny-span steps, exact ties."""
    steps = draw(st.integers(0, 12))
    grid = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1e-14])
    values = draw(st.lists(st.lists(grid, min_size=3, max_size=3),
                           min_size=steps + 1, max_size=steps + 1))
    choices = draw(st.lists(st.tuples(*(st.sampled_from([f"a{s}", f"b{s}"]) for s in range(3))),
                            min_size=steps, max_size=steps))
    return recorded(dyadic_model(), values, choices)


def wielandt_trace(n=50, gamma=0.999, seed=1):
    """A benchmark-style run: a normalized Wielandt model, n^2 - 2n + 2 steps."""
    norm, _, _ = normalize(generate(GenSpec(n_states=n, gamma=gamma, seed=seed,
                                            structure="wielandt", min_actions=3,
                                            max_actions=3)))
    v0 = np.random.default_rng(seed).uniform(0.0, 1.0, size=n)
    cfg = ViConfig(stop="time", t_max=wielandt_bound(n), v0="given", v0_values=tuple(v0))
    return norm, value_iteration(norm, cfg)


class TestPrimitivity:
    def test_swap_is_periodic(self):
        assert primitivity(np.array([[0.0, 1.0], [1.0, 0.0]])) is None

    def test_all_halves(self):
        assert primitivity(np.array([[0.5, 0.5], [0.5, 0.5]])) == (1, 0.5)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 200])  # 200: N = 39,602
    def test_cycle_with_shortcut_attains_bound(self, n):
        result = primitivity(wielandt_matrix(n))
        assert result is not None
        assert result[0] == wielandt_bound(n)
        assert result[1] > 0

    def test_non_stochastic_rejected(self):
        with pytest.raises(ModelError, match="stochastic"):
            primitivity(np.array([[0.5, 0.6], [0.5, 0.5]]))

    def test_loop_support_exponent(self):
        assert support_exponent_with_loops(np.array([[0.0, 1.0], [1.0, 0.0]])) == 1
        with pytest.raises(AssumptionError):
            support_exponent_with_loops(np.array([[1.0, 0.0], [0.5, 0.5]]))

    @settings(max_examples=200)  # about a fifth of the draws are primitive
    @given(stochastic_supports())
    @example(np.array([[1.0]]))
    def test_power_search_matches_linear_scan(self, p):
        expected = scan_primitivity(p)
        got = primitivity(p)
        if expected is None:
            assert got is None
        else:  # N equal, omega equal bit for bit
            assert (got[0], got[1].hex()) == (expected[0], expected[1].hex())
        loops = scan_loop_exponent(p)
        if loops is None:
            with pytest.raises(AssumptionError, match="irreducible"):
                support_exponent_with_loops(p)
        else:
            assert support_exponent_with_loops(p) == loops


class TestCertify:
    def test_m2_mix_certificate(self):
        norm, trace = normalized_trace()
        cert = certify(norm, trace)
        assert cert.N == 1
        assert cert.omega == pytest.approx(0.5)
        assert cert.delta == pytest.approx(0.01, abs=1e-9)
        assert 0.0 < cert.tau < 1.0
        assert cert.margin >= 0.0
        assert cert.product_bound < 1.0
        assert trace.span_v[cert.N] <= norm.gamma**cert.N * cert.tau * trace.span_v[0]

    def test_block_cycle_needs_two_steps(self):
        norm, _, _ = normalize(block_cycle_instance())
        cfg = ViConfig(stop="time", t_max=8, v0="given", v0_values=(12.0, 0.0, 6.0))
        trace = value_iteration(norm, cfg)
        cert = certify(norm, trace)
        assert cert.N == 2
        assert cert.omega == pytest.approx(0.25)
        assert cert.margin > 0.0

    def test_phi_keeps_its_expression(self):
        norm, trace = normalized_trace()
        cert = certify(norm, trace)
        block = float(np.prod(trace.span_v[: cert.N]))
        assert cert.phi == cert.omega * cert.delta**cert.N / (norm.gamma**cert.N * block)

    def test_underflowing_span_product_rejected(self):
        # a subnormal starting span leaves gamma^N * prod(spans) below the normal range
        mdp = zero_optimum(gap=0.01)
        trace = value_iteration(mdp, ViConfig(stop="time", t_max=3, v0="given",
                                              v0_values=(1e-310, 0.0)))
        assert 0.0 < trace.span_v[0] < np.finfo(float).tiny
        with pytest.raises(CertificationError, match=r"underflows .* at N=1") as exc:
            certify(mdp, trace)
        # n*phi = 2 * 0.5 * 0.01 / (0.9 * 1e-310) is far above 1
        assert "log10(n*phi) = +308.0; n*phi >= 1, so tau <= 0" in str(exc.value)

    def test_single_action_per_state_has_no_delta(self):
        # no competing action: delta is infinite, rejected before phi is formed
        mdp = Mdp(2, (Action("a", 0, (0.5, 0.5), 0.0), Action("b", 1, (0.5, 0.5), 0.0)), 0.9)
        assert solve_exact(mdp).delta == float("inf")
        trace = value_iteration(mdp, ViConfig(stop="time", t_max=3, v0="given",
                                              v0_values=(1.0, 0.0)))
        with pytest.raises(AssumptionError, match="delta is undefined"):
            certify(mdp, trace)
        with pytest.raises(AssumptionError, match="delta is undefined"):
            certify_alpha(mdp, trace, alpha=0.5)

    def test_overflowing_phi_rejected(self):
        mdp = zero_optimum(gap=1e9)
        trace = value_iteration(mdp, ViConfig(stop="time", t_max=3, v0="given",
                                              v0_values=(1e-300, 0.0)))
        with pytest.raises(CertificationError, match="phi overflows at N=1"):
            certify(mdp, trace)

    def test_periodic_optimum_rejected(self):
        mdp = generate(
            GenSpec(n_states=3, gamma=0.9, seed=0, structure="periodic_optimal",
                    min_actions=2, max_actions=2)
        )
        norm, _, _ = normalize(mdp)
        trace = value_iteration(norm, ViConfig(stop="time", t_max=12,
                                               v0="given", v0_values=(3.0, 1.0, 2.0)))
        with pytest.raises(AssumptionError, match="primitive"):
            certify(norm, trace)

    def test_unnormalized_rejected(self):
        mdp = m2_mix()
        trace = value_iteration(mdp, ViConfig(stop="time", t_max=5))
        with pytest.raises(AssumptionError, match="normalized"):
            certify(mdp, trace)

    def test_non_unique_rejected(self):
        mdp = Mdp(
            2,
            (
                Action("a", 0, (0.5, 0.5), 0.0),
                Action("b", 0, (0.5, 0.5), 0.0),
                Action("c", 1, (0.5, 0.5), 0.0),
            ),
            0.9,
        )
        trace = value_iteration(mdp, ViConfig(stop="time", t_max=3,
                                              v0="given", v0_values=(1.0, 0.0)))
        with pytest.raises(AssumptionError, match="unique"):
            certify(mdp, trace)

    def test_short_trace_rejected(self):
        norm, _ = normalized_trace()
        short = value_iteration(norm, ViConfig(stop="time", t_max=0,
                                               v0="given", v0_values=(1.0, 0.0)))
        with pytest.raises(CertificationError, match="iterations"):
            certify(norm, short)

    def test_blended_trace_rejected_for_plain_certificate(self):
        norm, trace = normalized_trace(alpha=0.5)
        with pytest.raises(CertificationError, match="synchronous"):
            certify(norm, trace)

    def test_hash_is_stable(self):
        norm, trace = normalized_trace()
        assert certify(norm, trace).trace_hash == certify(norm, trace).trace_hash

    @pytest.mark.parametrize("step", [0, RECURRENCE_BLOCK - 1, RECURRENCE_BLOCK, 300, 599])
    def test_first_broken_step_is_reported_across_blocks(self, step):
        norm, trace = normalized_trace(t_max=600)
        certify(norm, trace)
        with pytest.raises(CertificationError, match=rf"breaks at step {step}\)"):
            certify(norm, perturbed(trace, step))

    def test_batched_residuals_match_one_gemv_per_step(self):
        norm, trace = wielandt_trace()
        values = trace.values
        got = _verify_sync_recurrence(norm, values, 1.0)
        want = np.array([
            np.max(np.abs(values[t + 1] - greedy(norm, norm.rewards
                                                 + norm.gamma * (norm.P @ values[t]))[0]))
            for t in range(trace.iterations)])
        assert got.shape == want.shape == (wielandt_bound(50),)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(values))


class TestLemma:
    def test_constant_values(self):
        rep = check_lemma_adv_span(m2_mix(), "a1", "a2", np.full(2, 4.2))
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.holds

    def test_same_action(self):
        rep = check_lemma_adv_span(m2_mix(), "b1", "b1", np.array([3.0, -1.0]))
        assert rep.lhs == 0.0

    def test_tight_same_state(self):
        mdp = Mdp(
            2,
            (
                Action("hi", 0, (1.0, 0.0), 0.3),
                Action("lo", 0, (0.0, 1.0), 0.1),
                Action("b", 1, (0.5, 0.5), 0.0),
            ),
            0.9,
        )
        v = np.array([2.0, -1.0])
        rep = check_lemma_adv_span(mdp, "hi", "lo", v)
        assert rep.same_state
        assert rep.lhs == pytest.approx(0.9 * span(v), abs=1e-12)

    def test_tight_cross_state(self):
        mdp = Mdp(
            2,
            (
                Action("a", 0, (0.0, 1.0), 0.0),  # own state is the argmin of v
                Action("b", 1, (1.0, 0.0), 0.0),
            ),
            0.9,
        )
        v = np.array([-3.0, 5.0])
        rep = check_lemma_adv_span(mdp, "a", "b", v)
        assert not rep.same_state
        assert rep.lhs == pytest.approx(1.9 * span(v), abs=1e-12)

    def test_unknown_action_is_a_model_error(self):
        with pytest.raises(ModelError, match="unknown action id 'zz'"):
            check_lemma_adv_span(m2_mix(), "a1", "zz", np.zeros(2))

    def test_random_sweep(self):
        rng = np.random.default_rng(7)
        checks = 0
        for i in range(100):
            mdp = generate(GenSpec(n_states=2 + i % 3, gamma=(0.5, 0.9, 0.99)[i % 3],
                                   seed=900 + i, max_actions=4))
            ids = list(mdp.ids)
            for _ in range(100):
                v = rng.uniform(-10, 10, size=mdp.n_states)
                a1, a2 = rng.choice(len(ids), size=2)
                rep = check_lemma_adv_span(mdp, ids[a1], ids[a2], v)
                assert rep.holds
                checks += 1
        assert checks == 10_000


class TestEmpiricalRate:
    def test_below_gamma_with_mixing(self):
        norm, trace = normalized_trace(t_max=4)
        assert empirical_rate(trace, burn_in=1) < 0.9

    def test_exactly_gamma_for_permutation(self):
        mdp = generate(GenSpec(n_states=3, gamma=0.9, seed=5,
                               structure="periodic_optimal", min_actions=1, max_actions=1))
        norm, _, _ = normalize(mdp)
        cfg = ViConfig(stop="time", t_max=25, v0="given", v0_values=(2.0, -1.0, 0.5))
        rate = empirical_rate(value_iteration(norm, cfg))
        assert rate == pytest.approx(0.9, abs=1e-6)

    def test_zero_span_trace_errors(self):
        norm, trace = normalized_trace(t_max=30)  # collapses to exact zero span
        with pytest.raises(ValueError, match="underflow"):
            empirical_rate(trace)

    def test_short_trace_errors(self):
        norm, trace = normalized_trace(t_max=4)
        with pytest.raises(ValueError, match="too short"):
            empirical_rate(trace, burn_in=5)


@pytest.mark.parametrize("epsilon", [0.0, -1.0, np.nan, np.inf])
def test_epsilon_must_be_finite_and_positive(epsilon):
    norm, trace = normalized_trace()
    with pytest.raises(CertificationError, match="epsilon must be finite and > 0"):
        certify(norm, trace, epsilon=epsilon)
    norm, trace = normalized_trace(t_max=20, alpha=0.5)
    with pytest.raises(CertificationError, match="epsilon must be finite and > 0"):
        certify_alpha(norm, trace, alpha=0.5, epsilon=epsilon)


class TestAlphaCertificate:
    def test_m2_mix(self):
        norm, trace = normalized_trace(t_max=20, alpha=0.5)
        cert = certify_alpha(norm, trace, alpha=0.5)
        assert cert.N_alpha == 1
        assert cert.margin >= 0.0
        assert cert.product_bound < 1.0

    def test_tau_alpha_may_exceed_one(self):
        norm, trace = normalized_trace(t_max=20, alpha=0.5)
        cert = certify_alpha(norm, trace, alpha=0.5)
        assert cert.tau_alpha > 1.0  # the product with gamma^N_alpha still certifies

    def test_works_without_normalization(self):
        mdp = generate(GenSpec(n_states=3, gamma=0.9, seed=11, structure="planted_optimal"))
        cfg = ViConfig(alpha=0.3, stop="time", t_max=15, v0="given",
                       v0_values=(10.0, 0.0, 5.0))
        cert = certify_alpha(mdp, value_iteration(mdp, cfg), alpha=0.3)
        assert cert.margin >= 0.0
        assert cert.N_alpha <= 2

    def test_alpha_range_checked(self):
        norm, trace = normalized_trace(t_max=20, alpha=0.5)
        with pytest.raises(CertificationError, match="alpha"):
            certify_alpha(norm, trace, alpha=1.0)

    def test_wrong_alpha_rejected(self):
        norm, trace = normalized_trace(t_max=20, alpha=0.5)
        with pytest.raises(CertificationError, match="synchronous"):
            certify_alpha(norm, trace, alpha=0.3)

    @pytest.mark.parametrize("step", [RECURRENCE_BLOCK, 300])
    def test_first_broken_step_is_reported_across_blocks(self, step):
        norm, trace = normalized_trace(t_max=600, alpha=0.5)
        certify_alpha(norm, trace, alpha=0.5)
        with pytest.raises(CertificationError, match=rf"breaks at step {step}\)"):
            certify_alpha(norm, perturbed(trace, step), alpha=0.5)


class TestTraceChecks:
    def test_error_recursion_on_standard_run(self):
        mdp = m2_mix()
        trace = value_iteration(mdp, ViConfig(stop="time", t_max=15))
        rep = check_error_recursion(mdp, trace)
        assert rep.max_violation <= 1e-9
        assert rep.max_equality_gap <= 1e-9
        assert rep.equality_checks > 0

    def test_update_sandwich_on_normalized_run(self):
        norm, trace = normalized_trace(t_max=10)
        assert check_update_sandwich(norm, trace) <= 1e-9

    def test_mixing_bound_on_normalized_run(self):
        norm, trace = normalized_trace(t_max=10)
        rep = check_mixing_bound(norm, trace)
        if rep.checked:
            assert rep.min_margin >= -1e-9

    def test_mixing_bound_matches_a_per_state_loop(self):
        checked = 0
        for seed in range(12):
            n = 3 + seed % 6
            norm, _, _ = normalize(generate(GenSpec(n_states=n, gamma=0.95, seed=1200 + seed,
                                                    max_actions=4)))
            v0 = np.random.default_rng(seed).uniform(-30.0, 30.0, size=n)
            trace = value_iteration(norm, ViConfig(stop="time", t_max=40, v0="given",
                                                   v0_values=tuple(v0)))
            rep = check_mixing_bound(norm, trace)
            assert rep == per_state_mixing_bound(norm, trace)
            checked += rep.checked
        assert checked > 0

    @settings(max_examples=40, deadline=None)
    @given(normalized_runs())
    @example(normalized_trace(t_max=0))
    @example(normalized_trace(t_max=30))  # the span reaches exactly 0 partway
    def test_checks_match_per_step_loops_on_runs(self, run):
        assert_checks_match_references(*run)

    @settings(max_examples=60, deadline=None)
    @given(dyadic_traces())
    @example(tied_trace())
    def test_checks_match_per_step_loops_on_any_recorded_rows(self, trace):
        assert_checks_match_references(dyadic_model(), trace)

    def test_tied_denominator_is_skipped(self):
        assert check_mixing_bound(dyadic_model(), tied_trace()) == MixingBoundReport(
            checked=0, skipped=1, min_margin=float("inf"))

    def test_delta_equals_worst_normalized_reward(self):
        for seed in range(8):
            mdp = generate(GenSpec(n_states=3, gamma=0.9, seed=950 + seed, max_actions=3))
            norm, pol, _ = normalize(mdp)
            sol = solve_exact(norm)
            outside = [a.reward for a in norm.actions if a.id not in pol.choice]
            assert sol.delta == pytest.approx(-max(outside), abs=1e-9)

    def test_predicted_iterations_envelope(self):
        for seed in range(10):
            gamma = (0.9, 0.95)[seed % 2]
            mdp = generate(GenSpec(n_states=3, gamma=gamma, seed=980 + seed,
                                   structure="planted_optimal"))
            norm, _, _ = normalize(mdp)
            rng = np.random.default_rng(seed)
            u = rng.uniform(size=3)
            v0 = tuple((u - u.min()) / (u.max() - u.min()) * 2.0 / (1.0 - gamma))
            trace = value_iteration(norm, ViConfig(stop="time", t_max=20,
                                                   v0="given", v0_values=v0))
            cert = certify(norm, trace, epsilon=1e-4)
            run = value_iteration(norm, ViConfig(stop="span", epsilon=1e-4,
                                                 v0="given", v0_values=v0))
            assert run.iterations <= 10 * max(cert.predicted_vi_iters, 1.0)


def forged(text):
    """The trace file with every span_v and span_dv field replaced."""
    head, *rows = text.splitlines(keepends=True)
    return head + "".join(f"{t},1e-30,7,{rest}" for t, _, _, rest in
                          (row.split(",", 3) for row in rows))


def certificate_json(cert):
    return json.dumps(cert.to_dict())


class TestLoadedTraces:
    @pytest.mark.parametrize("check", [check_error_recursion, check_update_sandwich,
                                       check_mixing_bound])
    def test_checkers_need_recorded_rows(self, check):
        norm, trace = normalized_trace(t_max=10)
        with pytest.raises(AssumptionError, match="0 recorded greedy rows for 10 steps"):
            check(norm, trace_from_csv(trace_to_csv(trace)))

    @pytest.mark.parametrize("t_max, alpha, result", [
        (10, 1.0, lambda mdp, trace: certificate_json(certify(mdp, trace))),
        (20, 0.5, lambda mdp, trace: certificate_json(certify_alpha(mdp, trace, alpha=0.5))),
        (4, 1.0, lambda mdp, trace: empirical_rate(trace, burn_in=1)),
    ], ids=["certify", "certify_alpha", "empirical_rate"])
    def test_forged_span_columns_move_no_result(self, t_max, alpha, result):
        norm, trace = normalized_trace(t_max=t_max, alpha=alpha)
        text = trace_to_csv(trace)
        fake = trace_from_csv(forged(text))
        assert forged(text) != text
        assert result(norm, fake) == result(norm, trace_from_csv(text))

    def test_csv_round_trip_certifies_as_in_memory(self):
        for t_max in (1, 10, 40):
            norm, trace = normalized_trace(t_max=t_max)
            loaded = trace_from_csv(trace_to_csv(trace))
            assert certificate_json(certify(norm, loaded)) == certificate_json(certify(norm, trace))
