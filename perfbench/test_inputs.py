"""Tests of the benchmark's own input generation.

    PYTHONPATH=src python3 -m pytest perfbench/test_inputs.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import inputs  # noqa: E402
from mdpgeo import cli, solvers  # noqa: E402

MODEL_WORKLOADS = ("large_sparse_solve", "dense_transform_certify")


@pytest.mark.parametrize("workload", MODEL_WORKLOADS)
def test_same_seed_gives_identical_files(workload, tmp_path):
    inputs.write_inputs(workload, 11, tmp_path / "a")
    inputs.write_inputs(workload, 11, tmp_path / "b")
    inputs.write_inputs(workload, 12, tmp_path / "c")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert any((tmp_path / "a" / name).read_bytes() != (tmp_path / "c" / name).read_bytes()
               for name in names)


@pytest.mark.parametrize("workload", MODEL_WORKLOADS)
def test_models_pass_validate(workload, tmp_path):
    inputs.write_inputs(workload, 3, tmp_path)
    for stem, model in inputs.models_for(workload, 3).items():
        mdp = cli.mdp_from_json((tmp_path / f"{stem}.json").read_text(encoding="utf-8"))
        assert (mdp.n_states, mdp.m) == (model.n, model.m)
        assert list(mdp.ids) == model.ids


@pytest.mark.parametrize("build", [inputs.dense_planted, inputs.wielandt])
@pytest.mark.parametrize("seed", [0, 5])
def test_planted_policy_is_optimal(build, seed):
    model = build(seed)
    rows = model.planted
    v = np.linalg.solve(np.eye(model.n) - model.gamma * model.P[rows], model.rewards[rows])
    adv = model.rewards + model.gamma * (model.P @ v) - v[model.state_of]
    others = np.ones(model.m, dtype=bool)
    others[rows] = False
    assert np.max(np.abs(adv[rows])) < 1e-9
    assert np.max(adv[others]) <= -inputs.GAP_LO + 1e-9

    mdp = cli.mdp_from_json(model.to_json())
    sol = solvers.solve_exact(mdp, brute_check=False)
    ids = model.ids
    assert list(sol.policy.choice) == [ids[k] for k in rows]
    assert sol.delta >= inputs.GAP_LO - 1e-9


def test_wielandt_optimum_attains_the_bound():
    model = inputs.wielandt(0)
    b = model.P[model.planted] > 0
    reach, k = b.copy(), 1
    while not reach.all():
        reach, k = (reach.astype(int) @ b.astype(int)) > 0, k + 1
    assert k == inputs.WIELANDT_STEPS
