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


@pytest.mark.parametrize("structure, n", [(structure, n) for structure in STRUCTURES
                                          for n in (1, 2, 3, 6, 20, 50)] + [("sparse", 1000)])
def test_block_draws_match_the_row_by_row_loop(structure, n):
    # at n = 1000, the benchmark's k = 5 rows: almost every seed redraws one
    def spec_of(seed):
        return GenSpec(n_states=n, gamma=0.9, seed=seed, structure=structure,
                       sparse_k=5 if n == 1000 else min(3, n))

    for seed in _seeds(spec_of, first=8 if n < 1000 else 1, rejecting=4 if n > 1 else 0):
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


def _numpy_pair_draws(seed: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return rng.integers(1, k + 1, size=2), rng.random((2 * k, 3))


@pytest.mark.parametrize("seeds", [range(0, 2), range(2**32 - 2, 2**32 + 2),
                                   range(2**63 - 1, 2**63 + 2)])
@pytest.mark.parametrize("k", range(1, 7))
def test_pair_draws_are_default_rngs_draws(k, seeds):
    # one, then two 32-bit seed words, and the top bit of a 64-bit seed
    counts, uniforms = np.empty((len(seeds), 2), dtype=np.int64), np.empty((len(seeds), 2 * k, 3))
    assert gen._dense_pair_draws(seeds[0], k, counts, uniforms).tolist() == []
    for j, seed in enumerate(seeds):
        numpy_counts, numpy_uniforms = _numpy_pair_draws(seed, k)
        assert counts[j].tolist() == numpy_counts.tolist()
        assert uniforms[j].tobytes() == numpy_uniforms.tobytes()


@pytest.mark.parametrize("seed", [2**64 - 1, 2**64, 2**96, 2**128 - 1, 2**128, 2**200])
@pytest.mark.parametrize("k", [1, 6])
def test_wide_seeds_are_default_rngs_draws(k, seed):
    # three to seven 32-bit seed words; each block starts two seeds lower, so the low
    # 64 bits of 2**64 - 1, 2**128 - 1 and 2**128 carry into the words above them
    counts, uniforms = np.empty((5, 2), dtype=np.int64), np.empty((5, 2 * k, 3))
    assert gen._dense_pair_draws(seed - 2, k, counts, uniforms).tolist() == []
    for j in range(5):
        numpy_counts, numpy_uniforms = _numpy_pair_draws(seed - 2 + j, k)
        assert counts[j].tolist() == numpy_counts.tolist()
        assert uniforms[j].tobytes() == numpy_uniforms.tobytes()


_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _halves(value: int) -> tuple[np.ndarray, np.ndarray]:
    return np.array([value >> 64], dtype=np.uint64), np.array([value % 2**64], dtype=np.uint64)


@pytest.mark.parametrize("low,high", [(0x12345678, 0x9ABCDEF0), (0, 0x9ABCDEF0),
                                      (0x2AAAAAAB, 7), (0x12345678, 0), (5, 0xAAAAAAAB)])
def test_the_count_rule_rejects_as_numpy_does(low, high):
    # a PCG64 state set by hand whose next step leaves hi = 0, so its output word is lo;
    # at k = 6 Lemire's rule rejects a half h with 6 h mod 2**32 < (2**32 - 6) % 6 = 4
    word, inc = high << 32 | low, 0x5851F42D4C957F2D14057B7EF767814F  # any odd increment
    before = (word - inc) * pow(_PCG_MULT, -1, 2**128) % 2**128
    assert gen._pcg_next(_halves(before), _halves(inc))[1].tolist() == [word]
    bits = np.random.PCG64()
    bits.state = {"bit_generator": "PCG64", "state": {"state": before, "inc": inc},
                  "has_uint32": 0, "uinteger": 0}
    drawn = np.random.Generator(bits).integers(1, 7, size=2).tolist()
    pair, rejected = gen._bounded_pair(np.array([word], dtype=np.uint64), 6)
    rejects = [(6 * half) % 2**32 < 4 for half in (low, high)]
    assert rejected.tolist() == [any(rejects)]
    # numpy took a second word exactly when a half was rejected
    assert (bits.state["state"]["state"] != word) == any(rejects)
    if not any(rejects):
        assert pair[0].tolist() == drawn
    else:  # the half that was kept gives numpy's first count
        assert pair[0, rejects.index(False)] == drawn[0]
