import numpy as np
import pytest

from mdpgeo import gen
from mdpgeo.analysis import primitivity, wielandt_bound
from mdpgeo.cli import mdp_to_json
from mdpgeo.core import policy_rows, validate
from mdpgeo.gen import STRUCTURES, GenSpec, generate
from mdpgeo.solvers import solve_exact


def p_star(mdp):
    sol = solve_exact(mdp, brute_check=False)
    return mdp.P[policy_rows(mdp, sol.policy)], sol


@pytest.mark.parametrize(
    "structure", ["dense", "sparse", "planted_optimal", "periodic_optimal", "wielandt"]
)
def test_generated_models_validate(structure):
    for seed in range(5):
        mdp = generate(GenSpec(n_states=3, gamma=0.9, seed=seed, structure=structure,
                               min_actions=1, max_actions=3))
        validate(mdp)


def test_same_spec_same_bytes():
    spec = GenSpec(n_states=4, gamma=0.95, seed=123, structure="sparse", sparse_k=2)
    assert mdp_to_json(generate(spec)) == mdp_to_json(generate(spec))


def test_dense_rows_mix_in_one_step():
    mdp = generate(GenSpec(n_states=4, gamma=0.95, seed=9, structure="dense"))
    p, _ = p_star(mdp)
    assert primitivity(p)[0] == 1


def test_periodic_plant_is_a_cycle():
    mdp = generate(GenSpec(n_states=3, gamma=0.9, seed=4, structure="periodic_optimal",
                           min_actions=2, max_actions=2))
    p, sol = p_star(mdp)
    assert sol.policy.choice == tuple(f"s{s:02d}a00" for s in range(3))
    assert primitivity(p) is None
    assert np.all((p == 0.0) | (p == 1.0))


def test_planted_policy_is_optimal_with_gap():
    for seed in range(10):
        beta = 0.4
        mdp = generate(GenSpec(n_states=4, gamma=0.9, seed=seed,
                               structure="planted_optimal", bonus_beta=beta))
        _, sol = p_star(mdp)
        assert sol.policy.choice == tuple(f"s{s:02d}a00" for s in range(4))
        assert sol.delta >= beta / 2


def test_wielandt_attains_the_bound():
    mdp = generate(GenSpec(n_states=4, gamma=0.9, seed=2, structure="wielandt",
                           min_actions=2, max_actions=2))
    p, _ = p_star(mdp)
    assert primitivity(p)[0] == wielandt_bound(4) == 10


def test_sparse_rows_have_requested_support():
    mdp = generate(GenSpec(n_states=5, gamma=0.9, seed=6, structure="sparse", sparse_k=2))
    assert all(np.count_nonzero(a.probs) == 2 for a in mdp.actions)


def test_rewards_are_rounded_and_bounded():
    mdp = generate(GenSpec(n_states=3, gamma=0.9, seed=8, max_actions=4))
    for a in mdp.actions:
        assert 0.0 <= a.reward <= 1.0
        assert a.reward == round(a.reward, 6)


def test_bad_specs_rejected():
    with pytest.raises(ValueError, match="structure"):
        generate(GenSpec(n_states=2, gamma=0.9, seed=0, structure="what"))
    with pytest.raises(ValueError, match="gamma"):
        generate(GenSpec(n_states=2, gamma=1.0, seed=0))
    with pytest.raises(ValueError, match="bonus_beta"):
        generate(GenSpec(n_states=2, gamma=0.9, seed=0,
                         structure="planted_optimal", bonus_beta=0.0))
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        generate(GenSpec(n_states=2, gamma=0.9, seed=-1))
    with pytest.raises(ValueError, match="sparse_k"):
        generate(GenSpec(n_states=2, gamma=0.9, seed=0, structure="sparse", sparse_k=5))
    for structure in ("periodic_optimal", "wielandt"):
        with pytest.raises(ValueError, match=f"^{structure} needs n_states >= 2$"):
            generate(GenSpec(n_states=1, gamma=0.9, seed=0, structure=structure))


@pytest.mark.parametrize("structure", gen.PLANTED)
def test_planted_bonus_below_the_reward_grid_is_refused(structure):
    # below 1e-6 a reward rounded to 6 places could tie the plant's 1.0
    with pytest.raises(ValueError, match="^bonus_beta must be at least 1e-06, the reward grid"):
        generate(GenSpec(n_states=3, gamma=0.9, seed=0, structure=structure, bonus_beta=5e-7))
    generate(GenSpec(n_states=3, gamma=0.9, seed=0, structure=structure, bonus_beta=1e-6))
    generate(GenSpec(n_states=3, gamma=0.9, seed=0, bonus_beta=5e-7))  # not planted: unused


# --------------------------------------------------------------------------
# block draws against the row-by-row loop they replace


def _row_by_row(rng, spec, rejected=None):
    """The model's arrays drawn one row at a time, as the generator drew them
    before it drew blocks; ``rejected`` counts the redrawn rows."""
    n, planted = spec.n_states, spec.structure in gen.PLANTED

    def dense_row(width):
        while True:
            u = rng.uniform(size=width)
            row = u / u.sum()
            if width == 1 or row.min() >= gen.MIN_ROW_ENTRY:
                return row
            if rejected is not None:
                rejected.append(width)

    counts = rng.integers(spec.min_actions, spec.max_actions + 1, size=n)
    P, rewards = [], []
    for s in range(n):
        for j in range(int(counts[s])):
            if planted and j == 0:
                row = np.zeros(n)
                if spec.structure == "planted_optimal":
                    row = 0.45 * dense_row(n)
                    row[s] += 0.55
                elif spec.structure == "periodic_optimal":
                    row[(s + 1) % n] = 1.0
                elif s < n - 1:
                    row[s + 1] = 1.0
                else:
                    row[0] = 0.5
                    row[1 % n] += 0.5
                P.append(row)
                rewards.append(1.0)
                continue
            if spec.structure == "sparse":
                row, support = np.zeros(n), rng.choice(n, size=spec.sparse_k, replace=False)
                row[support] = dense_row(spec.sparse_k)
                P.append(row)
            else:
                P.append(dense_row(n))
            high = (1.0 - spec.bonus_beta) if planted else 1.0
            rewards.append(float(np.round(rng.uniform(0.0, high), 6)))
    return counts, np.repeat(np.arange(n), counts), np.array(P).reshape(-1, n), np.array(rewards)


def _seeds(spec_of, first: int, rejecting: int) -> list[int]:
    """The first seeds, and the first that draw a rejected row."""
    found = []
    for seed in range(5000):
        if len(found) == rejecting:
            break
        rejected = []
        _row_by_row(np.random.default_rng(seed), spec_of(seed), rejected)
        found += [seed] * bool(rejected)
    assert len(found) == rejecting
    return sorted(set(range(first)) | set(found))


@pytest.mark.parametrize("n", [1, 2, 3, 6, 20, 50])
@pytest.mark.parametrize("structure", STRUCTURES)
def test_block_draws_match_the_row_by_row_loop(structure, n):
    def spec_of(seed):
        return GenSpec(n_states=n, gamma=0.9, seed=seed, structure=structure,
                       sparse_k=min(3, n))

    for seed in _seeds(spec_of, first=8, rejecting=4 if n > 1 else 0):
        spec, ours, ref = spec_of(seed), np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2):  # a second draw from the same generator starts where the first ended
            counts, state_of, P, rewards = gen._draw(ours, spec)
            ref_counts, ref_state_of, ref_P, ref_rewards = _row_by_row(ref, spec)
            assert counts.tolist() == ref_counts.tolist()
            assert state_of.tolist() == ref_state_of.tolist()
            assert P.tobytes() == ref_P.tobytes() and rewards.tobytes() == ref_rewards.tobytes()
            # the full state, the buffered 32-bit half of integer draws included
            assert ours.bit_generator.state == ref.bit_generator.state
        if n >= 2 or structure not in ("periodic_optimal", "wielandt"):
            assert mdp_to_json(generate(spec)) == mdp_to_json(_generated_row_by_row(spec))


def _generated_row_by_row(spec):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gen, "_draw", _row_by_row)
        return generate(spec)


def test_buffered_half_is_kept_across_a_rewind():
    # integers() over an odd count leaves half of a 64-bit word buffered; the
    # next integer draws read it, so a rewound block must keep it
    kept = 0
    for seed in range(100):
        spec, rejected = GenSpec(n_states=21, gamma=0.9, seed=seed), []
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        gen._draw(ours, spec)
        _row_by_row(ref, spec, rejected)
        kept += bool(rejected) and ref.bit_generator.state["has_uint32"]
        assert ours.integers(0, 2**31, size=4).tolist() == ref.integers(0, 2**31, size=4).tolist()
    assert kept >= 10


@pytest.mark.parametrize("n", [2, 3, 6, 20])
@pytest.mark.parametrize("gamma", [0.5, 0.9, 0.99])
@pytest.mark.parametrize("beta", [1e-6, 0.05, 0.5, 0.95])
@pytest.mark.parametrize("structure", gen.PLANTED)
def test_plant_is_the_optimum_by_construction(structure, beta, gamma, n):
    # the plant's values are 1/(1 - gamma), so every other action's gap is 1 - r
    for seed in range(3):
        mdp = generate(GenSpec(n_states=n, gamma=gamma, seed=seed, structure=structure,
                               min_actions=2, bonus_beta=beta))
        sol = solve_exact(mdp, brute_check=False)
        assert sol.policy.choice == tuple(f"s{s:02d}a00" for s in range(n))
        plant = policy_rows(mdp, sol.policy)
        assert np.all(mdp.rewards[plant] == 1.0)
        assert abs(sol.delta - (1.0 - np.delete(mdp.rewards, plant).max())) <= 1e-12
        assert sol.delta >= beta / 2


@pytest.mark.parametrize("structure", STRUCTURES)
def test_rows_wider_than_a_thousand_are_refused(structure):
    spec = GenSpec(n_states=1001, gamma=0.9, seed=0, structure=structure, sparse_k=1001)
    with pytest.raises(ValueError, match="dense row of 1001 entries"):
        generate(spec)


def test_wide_models_without_dense_rows_still_generate():
    periodic = generate(GenSpec(n_states=1001, gamma=0.9, seed=0,
                                structure="periodic_optimal", max_actions=1))
    assert periodic.m == 1001 and np.all(periodic.P.sum(axis=1) == 1.0)
    sparse = generate(GenSpec(n_states=1001, gamma=0.9, seed=0, structure="sparse",
                              max_actions=1))
    assert all(np.count_nonzero(row) == 2 for row in sparse.P)
