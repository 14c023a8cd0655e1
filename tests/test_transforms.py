import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from mdpgeo.core import Action, Mdp, Policy, advantages, span, validate
from mdpgeo.fixtures import m2, m2_mix
from mdpgeo.solvers import ViConfig, evaluate_policy, policy_iteration, value_iteration
from mdpgeo.transforms import (
    GAMMA_FLOOR,
    LShift,
    NonUniqueOptimumWarning,
    TransformLog,
    UnsafeTransformError,
    apply_J,
    apply_L,
    effective_gamma,
    normalize,
    state_slack,
)
from mdpgeo.cli import mdp_from_json, mdp_to_json
from mdpgeo.gen import GenSpec, generate

from conftest import mdps, mdps_with_values


def uniform_rows(gamma=0.9):
    return Mdp(
        2,
        tuple(Action(f"u{k}", k % 2, (0.5, 0.5), 0.1 * k) for k in range(4)),
        gamma,
    )


class TestApplyL:
    def test_zero_shift_is_identity(self):
        mdp = m2_mix()
        out = apply_L(mdp, 0, 0.0)
        np.testing.assert_array_equal(out.rewards, mdp.rewards)
        np.testing.assert_array_equal(out.P, mdp.P)

    def test_self_loop_reward_rule(self):
        mdp = Mdp(2, (Action("a", 0, (1.0, 0.0), 0.0), Action("b", 1, (0.0, 1.0), 0.0)), 0.9)
        out = apply_L(mdp, 0, 1.0)
        assert out.action("a").reward == pytest.approx(1.0 - 0.9)

    @given(mdps_with_values(), st.integers(0, 3), st.floats(-10, 10))
    def test_advantages_invariant(self, case, state_pick, delta):
        mdp, v = case
        s = state_pick % mdp.n_states
        out = apply_L(mdp, s, delta)
        shifted = v.copy()
        shifted[s] += delta
        np.testing.assert_allclose(
            advantages(out, shifted), advantages(mdp, v), atol=1e-9
        )


class TestNormalize:
    def test_m2_mix_rewards(self):
        norm, pol, _ = normalize(m2_mix())
        rewards = {a.id: a.reward for a in norm.actions}
        assert rewards["a1"] == pytest.approx(0.0, abs=1e-9)
        assert rewards["b1"] == pytest.approx(0.0, abs=1e-9)
        assert rewards["a2"] == pytest.approx(-0.01, abs=1e-9)
        assert rewards["b2"] == pytest.approx(-0.89, abs=1e-9)
        assert pol.choice == ("a1", "b1")

    def test_already_normalized_is_identity(self):
        norm, _, _ = normalize(m2_mix())
        again, _, _ = normalize(norm)
        np.testing.assert_allclose(again.rewards, norm.rewards, atol=1e-9)

    def test_log_replay_is_bit_identical(self):
        mdp = m2_mix()
        norm, _, log = normalize(mdp)
        assert mdp_to_json(log.replay(mdp)) == mdp_to_json(norm)

    def test_log_inverse_recovers(self):
        mdp = m2_mix()
        norm, _, log = normalize(mdp)
        back = log.inverted().replay(norm)
        np.testing.assert_allclose(back.rewards, mdp.rewards, atol=1e-9)
        np.testing.assert_allclose(back.P, mdp.P, atol=1e-9)

    def test_non_unique_optimum_warns(self):
        flat = Mdp(
            1, (Action("a", 0, (1.0,), 0.0), Action("b", 0, (1.0,), 0.0)), 0.9
        )
        with pytest.warns(NonUniqueOptimumWarning):
            normalize(flat)

    def test_vi_choices_identical_on_normalized(self):
        for seed in range(8):
            mdp = generate(GenSpec(n_states=3, gamma=0.9, seed=seed, max_actions=3))
            norm, _, log = normalize(mdp)
            v0 = np.zeros(3)
            cfg = ViConfig(stop="time", t_max=15, v0="given", v0_values=tuple(v0))
            cfg_n = ViConfig(
                stop="time", t_max=15, v0="given", v0_values=tuple(log.map_values(v0))
            )
            assert value_iteration(mdp, cfg).policies == value_iteration(norm, cfg_n).policies


class TestApplyJ:
    def test_same_gamma_is_identity(self):
        mdp = m2_mix()
        out, change = apply_J(mdp, 0, mdp.gamma)
        np.testing.assert_array_equal(out.P, mdp.P)
        v = np.array([1.0, 2.0])
        np.testing.assert_array_equal(change.map_values(v), v)

    def test_bad_gamma_rejected(self):
        with pytest.raises(ValueError, match="strictly inside"):
            apply_J(m2(), 0, 1.0)

    def test_unsafe_cross_coefficient_raises(self):
        # a2 jumps away from state 1, so its state-1 coefficient is already 0
        with pytest.raises(UnsafeTransformError, match="only the own-state"):
            apply_J(m2_mix(), 1, 0.5)

    def test_force_overrides_safety(self):
        out, _ = apply_J(m2_mix(), 1, 0.5, force=True)
        assert out.gamma == 0.5
        assert np.any(out.P < 0)

    def test_rows_remain_distributions(self):
        mdp = uniform_rows()
        out, _ = apply_J(mdp, 0, 0.45)
        validate(out)
        np.testing.assert_allclose(out.P.sum(axis=1), 1.0, atol=0)

    def test_round_trip(self):
        mdp = uniform_rows()
        down, _ = apply_J(mdp, 0, 0.5)
        back, _ = apply_J(down, 0, 0.9)
        np.testing.assert_allclose(back.P, mdp.P, atol=1e-9)
        np.testing.assert_allclose(back.rewards, mdp.rewards, atol=1e-9)
        assert back.gamma == mdp.gamma

    @given(mdps_with_values(), st.integers(0, 3), st.floats(0.05, 0.95))
    def test_invariance_theorem(self, case, state_pick, frac):
        mdp, v = case
        s = state_pick % mdp.n_states
        slack = state_slack(mdp)[s]
        down = mdp.gamma - slack * frac
        g2 = down if slack > 1e-9 and down > 1e-6 else mdp.gamma + (1 - mdp.gamma) * frac
        out, change = apply_J(mdp, s, g2)
        mapped = change.map_values(v)
        np.testing.assert_allclose(advantages(out, mapped), advantages(mdp, v), atol=1e-9)
        assert span(mapped) == pytest.approx(span(v), abs=1e-9)

    def test_invariance_via_reevaluation(self):
        for seed in range(6):
            mdp = generate(GenSpec(n_states=3, gamma=0.9, seed=100 + seed, max_actions=2))
            out, change = apply_J(mdp, seed % 3, 0.95)
            pol = Policy(choice=tuple(mdp.ids[r[0]] for r in mdp.state_rows))
            v_old = evaluate_policy(mdp, pol)
            v_new = evaluate_policy(out, pol)
            np.testing.assert_allclose(v_new, change.map_values(v_old), atol=1e-9)


def _coefficient_round_trip(mdp, state, g2, force):
    """Reference J step: form the coefficients (-1 at own states), rewrite
    column ``state``, add the 1 back, then divide and renormalize."""
    P, g, own, rows = mdp.P, mdp.gamma, mdp.state_of, np.arange(mdp.m)
    cbar = g * P
    cbar[rows, own] -= 1.0
    cbar[:, state] -= g - g2
    cross = cbar.copy()
    cross[rows, own] += 1.0
    if not force and (np.any((own != state) & (cbar[:, state] < -1e-12))
                      or np.any((own == state) & (cross[:, state] < -1e-12 * g2))):
        raise UnsafeTransformError("unsafe")
    probs = cross / g2
    if not force:
        probs[probs < 0.0] = 0.0
    probs[rows, own] = 0.0
    probs[rows, own] = 1.0 - probs.sum(axis=1)
    if not force:
        low = np.flatnonzero(probs[rows, own] < 0.0)
        probs[low, own[low]] = 0.0
        probs[low] /= probs[low].sum(axis=1, keepdims=True)
    return probs


class TestJStepBits:
    """The J step reads gamma * P directly; its result keeps the bits of the
    coefficient round trip, and it rejects the same steps."""

    @given(mdps(), st.integers(0, 3), st.booleans(),
           st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.0 - 1e-12, 1.0 + 1e-12, 1.5, 4.0]),
                     st.floats(-2.0, 8.0)))
    def test_matches_the_coefficient_round_trip(self, mdp, pick, force, frac):
        s = pick % mdp.n_states
        g2 = mdp.gamma - frac * max(float(state_slack(mdp)[s]), 0.05)
        if not 0.0 < g2 < 1.0:
            g2 = mdp.gamma / 2.0
        with np.errstate(all="ignore"):
            try:
                want = _coefficient_round_trip(mdp, s, g2, force)
            except UnsafeTransformError:
                want = None
            try:
                got = apply_J(mdp, s, g2, force=force)[0].P
            except UnsafeTransformError:
                got = None
        if g2 == mdp.gamma:
            want = mdp.P
        assert (want is None) == (got is None)
        if want is not None:
            assert got.tobytes() == want.tobytes()


class TestEffectiveGamma:
    def test_m2_has_no_slack(self):
        geff, log = effective_gamma(m2())
        assert geff == 0.9
        assert log.steps == ()

    def test_uniform_rows_clamp(self):
        geff, log = effective_gamma(uniform_rows())
        assert geff == GAMMA_FLOOR
        assert [s.state for s in log.steps] == [0, 1]

    def test_deterministic_actions_pin_gamma(self):
        # a cycle of deterministic actions puts a zero cross coefficient at every state
        mdp = Mdp(
            3,
            tuple(
                Action(f"c{s}", s, np.roll([0.0, 1.0, 0.0], s - 1), 0.1)
                for s in range(3)
            ),
            0.9,
        )
        geff, _ = effective_gamma(mdp)
        assert geff == 0.9

    def test_never_exceeds_gamma(self):
        for seed in range(10):
            mdp = generate(GenSpec(n_states=3, gamma=0.9, seed=200 + seed))
            geff, _ = effective_gamma(mdp)
            assert geff <= 0.9 + 1e-15

    def test_order_independent(self):
        for seed in range(6):
            mdp = generate(GenSpec(n_states=4, gamma=0.95, seed=300 + seed))
            slack = state_slack(mdp)
            geff, _ = effective_gamma(mdp)
            shuffled = mdp
            order = [2, 0, 3, 1]
            g = mdp.gamma
            for s in order:
                if slack[s] <= 1e-15 or g <= GAMMA_FLOOR:
                    continue
                target = max(g - float(slack[s]), GAMMA_FLOOR)
                shuffled, _ = apply_J(shuffled, s, target)
                g = target
            assert g == pytest.approx(geff, abs=1e-12)
            if geff > GAMMA_FLOOR:
                straight, _ = effective_gamma(mdp)
                assert straight == pytest.approx(g, abs=1e-12)

    def test_replay_reproduces(self):
        mdp = uniform_rows()
        geff, log = effective_gamma(mdp)
        replayed = log.replay(mdp)
        assert replayed.gamma == pytest.approx(geff)
        back = log.inverted().replay(replayed)
        np.testing.assert_allclose(back.P, mdp.P, atol=1e-9)


class TestTrajectoryInvariance:
    def test_vi_choices_and_pi_runs_match_on_safe_image(self):
        for seed in range(8):
            mdp = generate(GenSpec(n_states=3, gamma=0.9, seed=400 + seed, max_actions=3))
            slack = state_slack(mdp)
            s = int(np.argmax(slack))
            if slack[s] > 1e-6:
                image, change = apply_J(mdp, s, max(0.9 - slack[s] / 2, 1e-6))
            else:
                image, change = apply_J(mdp, 0, 0.95)

            v0 = np.array([1.0, -1.0, 0.5])
            cfg = ViConfig(stop="time", t_max=12, v0="given", v0_values=tuple(v0))
            cfg_im = ViConfig(
                stop="time", t_max=12, v0="given", v0_values=tuple(change.map_values(v0))
            )
            assert value_iteration(mdp, cfg).policies == value_iteration(image, cfg_im).policies

            pi0 = Policy(choice=tuple(mdp.ids[r[0]] for r in mdp.state_rows))
            _, base = policy_iteration(mdp, pi0)
            _, moved = policy_iteration(image, pi0)
            assert base.policies == moved.policies
            assert base.iterations == moved.iterations


def _apply_j_chain(mdp, floor=GAMMA_FLOOR):
    """Reference for effective_gamma: one apply_J, and one whole model, per step."""
    slack = state_slack(mdp)
    cur, g, steps = mdp, mdp.gamma, []
    for s in range(mdp.n_states):
        if slack[s] <= 1e-15 or g <= floor:
            continue
        target = max(g - float(slack[s]), floor)
        cur, step = apply_J(cur, s, target)
        steps.append(step)
        g = target
    return g, steps, cur


def _dense(n, seed):
    return generate(GenSpec(n_states=n, gamma=0.95, seed=seed, structure="dense"))


class TestArraySteps:
    def _matches_chain(self, mdp):
        geff, log = effective_gamma(mdp)
        g, steps, chained = _apply_j_chain(mdp)
        assert geff == g
        assert [(s.state, s.gamma_from, s.gamma_to) for s in log.steps] == [
            (s.state, s.gamma_from, s.gamma_to) for s in steps
        ]
        replayed = log.replay(mdp)
        validate(replayed)
        assert mdp_to_json(replayed) == mdp_to_json(chained)

    @given(mdps())
    def test_effective_gamma_matches_apply_j_chain(self, mdp):
        self._matches_chain(mdp)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_effective_gamma_matches_apply_j_chain_dense(self, n):
        for seed in range(3):
            self._matches_chain(_dense(n, 700 + 10 * n + seed))

    def test_normalize_equals_sequential_column_shifts(self):
        mdp = _dense(20, 7)
        norm, _, log = normalize(mdp)
        rewards = mdp.rewards.copy()
        for step in log.steps:
            rewards = rewards - mdp.coeffs[:, step.state] * step.delta
        np.testing.assert_array_equal(norm.rewards, rewards)
        np.testing.assert_array_equal(norm.P, mdp.P)

    def test_one_model_per_call(self, monkeypatch):
        import mdpgeo.transforms as transforms

        mdp = _dense(6, 3)
        counts = {"actions": 0, "rebuilds": 0}
        post_init, rebuild = Action.__post_init__, transforms._rebuild

        def counting_post_init(self):
            counts["actions"] += 1
            post_init(self)

        def counting_rebuild(*args):
            counts["rebuilds"] += 1
            return rebuild(*args)

        monkeypatch.setattr(Action, "__post_init__", counting_post_init)
        monkeypatch.setattr(transforms, "_rebuild", counting_rebuild)

        def made(call):
            counts.update(actions=0, rebuilds=0)
            call()
            return counts["actions"], counts["rebuilds"]

        _, _, nlog = normalize(mdp)
        _, glog = effective_gamma(mdp)
        text = mdp_to_json(mdp)
        assert len(nlog.steps) == mdp.n_states and len(glog.steps) == mdp.n_states
        assert made(lambda: normalize(mdp)) == (0, 1)
        assert made(lambda: effective_gamma(mdp)) == (0, 0)
        assert made(lambda: nlog.replay(mdp)) == (0, 1)
        assert made(lambda: glog.replay(mdp)) == (0, 1)
        assert made(lambda: apply_L(mdp, 2, 0.5)) == (0, 1)
        assert made(lambda: apply_J(mdp, 2, mdp.gamma - state_slack(mdp)[2] / 2)) == (0, 1)
        assert made(lambda: _dense(6, 3)) == (0, 0)
        assert made(lambda: mdp_from_json(text)) == (0, 0)
        assert made(lambda: mdp_to_json(mdp)) == (0, 0)

    def test_replay_checks_each_step(self):
        mdp = uniform_rows()
        _, log = effective_gamma(mdp)
        with pytest.raises(UnsafeTransformError, match="expects gamma"):
            TransformLog(0.9, log.steps[1:]).replay(mdp)
        with pytest.raises(ValueError, match="unknown state"):
            TransformLog(0.9, (LShift(5, 1.0),)).replay(mdp)

    def test_floor_must_be_positive(self):
        with pytest.raises(ValueError, match="floor"):
            effective_gamma(uniform_rows(), floor=0.0)
