"""The three workloads: the CLI commands of one cycle, and their output checks.

Every command of a cycle is one operation.  Checks read the commands'
stdout JSON and output files after the timed cycles and recompute what they
claim from the benchmark's own arrays (``inputs``), never from mdpgeo.

Why these workloads:

* ``large_sparse_solve`` -- value and policy iteration on a 1024-state torus
  gridworld whose 5-cell transition support keeps the span contraction near
  gamma, so value iteration runs hundreds of iterations and the per-iteration
  backup (matvec, greedy argmax, span bookkeeping) dominates; every command
  also parses a 5120-action model, so ``cli`` reads show.
* ``dense_transform_certify`` -- normalize, gamma-eff and certify on dense
  planted models: every state has slack, so ``transforms`` takes n L-steps
  and n J-steps that each rebuild the model, while value iteration runs few
  iterations.  A Wielandt model makes ``primitivity`` run n^2 - 2n + 2
  boolean matmuls.
* ``twostate_suite`` -- thousands of 2-state models: per-call Python
  overhead in ``gen``, ``core`` and ``twostate`` with tiny arrays and no model
  parsing; the counter-workload for changes that add per-model set-up.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs

WORKLOADS = ("large_sparse_solve", "dense_transform_certify", "twostate_suite")

EPSILON = 1e-6  # the span stop's optimality guarantee
VALUE_TOL = 1e-9  # float error of an exact n <= 1024 linear solve
NORMALIZED_TOL = 1e-6


@dataclass
class Op:
    name: str
    argv: list[str]


def plan(workload: str, seed: int, d: Path) -> tuple[list[str], list[Op]]:
    """The untimed warm-up command and the commands of one cycle."""
    p = lambda name: str(d / name)  # noqa: E731
    if workload == "large_sparse_solve":
        grid = ["--mdp", p("grid.json")]
        return ["solve-vi", "--mdp", p("warmup.json"), "--stop", "span:1e-6"], [
            Op("solve_vi", ["solve-vi", *grid, "--stop", "span:1e-6", "--trace", p("vi.csv")]),
            Op("solve_vi_filtered", ["solve-vi", *grid, "--stop", "span:1e-6",
                                     "--filter", "appendix", "--v0", "upper",
                                     "--trace", p("vi_filtered.csv")]),
            Op("solve_pi", ["solve-pi", *grid]),
            Op("generate", ["generate", "--seed", str(seed), "--structure", "sparse",
                            "--n-states", "1000", "--sparse-k", "5", "--max-actions", "8",
                            "--out", p("generated.json")]),
        ]
    if workload == "dense_transform_certify":
        dense = ["--mdp", p("dense_normalized.json")]
        wiel = ["--mdp", p("wielandt_normalized.json")]
        return ["normalize", "--mdp", p("warmup.json"), "--out", p("warmup_normalized.json")], [
            Op("normalize", ["normalize", "--mdp", p("dense.json"), "--out", dense[1]]),
            Op("gamma_eff", ["gamma-eff", "--mdp", p("dense.json")]),
            Op("solve_vi", ["solve-vi", *dense, "--stop", f"time:{inputs.DENSE_VI_STEPS}",
                            "--v0", f"file:{p('dense_v0.json')}", "--trace", p("dense.csv")]),
            Op("certify", ["certify", *dense, "--trace", p("dense.csv")]),
            Op("normalize_wielandt", ["normalize", "--mdp", p("wielandt.json"), "--out", wiel[1]]),
            Op("solve_vi_wielandt", ["solve-vi", *wiel, "--stop", f"time:{inputs.WIELANDT_STEPS}",
                                     "--v0", f"file:{p('wielandt_v0.json')}",
                                     "--trace", p("wielandt.csv")]),
            Op("certify_wielandt", ["certify", *wiel, "--trace", p("wielandt.csv")]),
        ]
    if workload == "twostate_suite":
        return ["twostate", "--suite", "3", "--max-actions", "12", "--seed", "0"], [
            Op("twostate_suite", ["twostate", "--suite", str(inputs.TWOSTATE_SUITE),
                                  "--max-actions", str(inputs.TWOSTATE_MAX_ACTIONS),
                                  "--seed", str(seed)]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# checks: each returns (operation, failure message) pairs, none when outputs hold


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _evaluate(model: inputs.Model, rows: np.ndarray) -> np.ndarray:
    a = np.eye(model.n) - model.gamma * model.P[rows]
    return np.linalg.solve(a, model.rewards[rows])


def _bellman_residual(model: inputs.Model, v: np.ndarray) -> float:
    """max over states of |max_a (r + gamma P v) - v|: 0 exactly at V*."""
    q = model.rewards + model.gamma * (model.P @ v)
    best = np.full(model.n, -np.inf)
    np.maximum.at(best, model.state_of, q)
    return float(np.max(np.abs(best - v)))


def _rows(model: inputs.Model, ids: list[str]) -> np.ndarray:
    row_of = {aid: k for k, aid in enumerate(model.ids)}
    return np.array([row_of[a] for a in ids], dtype=np.intp)


def _read_model(path: Path, like: inputs.Model) -> inputs.Model:
    doc = json.loads(path.read_text(encoding="utf-8"))
    acts = doc["actions"]
    return inputs.Model(
        like.name, float(doc["gamma"]), np.array([a["probs"] for a in acts]),
        np.array([a["reward"] for a in acts]), np.array([a["state"] for a in acts]),
        planted=like.planted,
    )


def check_large(seed: int, d: Path, out: dict[str, dict]) -> list[tuple[str, str]]:
    grid = inputs.gridworld(seed)
    errors = []
    pi = out["solve_pi"]
    v_star = np.array(pi["values"])
    if _bellman_residual(grid, v_star) > VALUE_TOL:
        errors.append(("solve_pi", "values are not the optimal values"))
    for name in ("solve_vi", "solve_vi_filtered"):
        doc = out[name]
        v_pi = _evaluate(grid, _rows(grid, doc["policy"]))
        gap = float(np.max(v_star - v_pi))
        if doc["stop_reason"] != "span" or gap > EPSILON + VALUE_TOL:
            errors.append((name, f"policy is {gap:.3e} from optimal, not {EPSILON}-optimal"))
    gen = out["generate"]
    if gen["output_hash"] != _sha256(d / "generated.json") or gen["n_states"] != 1000:
        errors.append(("generate", "output file does not match its summary"))
    return errors


def _check_normalized(model: inputs.Model, path: Path, doc: dict,
                      name: str) -> list[tuple[str, str]]:
    errors = []
    if doc["output_hash"] != _sha256(path):
        errors.append((name, "output file does not match its summary"))
    norm = _read_model(path, model)
    ids = model.ids
    planted_ids = [ids[k] for k in model.planted]
    v = _evaluate(norm, model.planted)
    if doc["optimal_policy"] != planted_ids:
        errors.append((name, "returned a policy other than the planted optimum"))
    if float(np.max(np.abs(v))) > NORMALIZED_TOL or _bellman_residual(norm, v) > VALUE_TOL:
        errors.append((name, f"optimal values are not within {NORMALIZED_TOL} of 0"))
    return errors


def check_dense(seed: int, d: Path, out: dict[str, dict]) -> list[tuple[str, str]]:
    dense, wiel = inputs.dense_planted(seed), inputs.wielandt(seed)
    errors = _check_normalized(dense, d / "dense_normalized.json", out["normalize"], "normalize")
    if "normalize_wielandt" in out:
        errors += _check_normalized(wiel, d / "wielandt_normalized.json",
                                    out["normalize_wielandt"], "normalize_wielandt")
    slack = dense.gamma * dense.P.min(axis=0)
    expect = max(dense.gamma - float(slack[slack > 1e-15].sum()), 1e-6)
    if abs(out["gamma_eff"]["gamma_eff"] - expect) > 1e-12:
        errors.append(("gamma_eff", f"{out['gamma_eff']['gamma_eff']!r} != {expect!r}"))
    for sfx, steps, exponent in (("", inputs.DENSE_VI_STEPS, 1),
                                 ("_wielandt", inputs.WIELANDT_STEPS, inputs.WIELANDT_STEPS)):
        vi, cert = out.get(f"solve_vi{sfx}"), out.get(f"certify{sfx}")
        if vi is not None and (vi["iterations"] != steps or vi["stop_reason"] != "time"):
            errors.append((f"solve_vi{sfx}", f"did not run {steps} iterations"))
        if cert is None:
            continue
        if cert["N"] != exponent:
            errors.append((f"certify{sfx}", f"reports N={cert['N']}, expected {exponent}"))
        if sfx == "" and cert["margin"] < 0.0:
            errors.append((f"certify{sfx}", f"margin {cert['margin']!r} is negative"))
        if vi is not None and cert["trace_hash"] != vi["trace_hash"]:
            errors.append((f"certify{sfx}", f"read a trace other than solve_vi{sfx} wrote"))
    return errors


def check_twostate(seed: int, d: Path, out: dict[str, dict]) -> list[tuple[str, str]]:
    doc = out["twostate_suite"]
    errors = []
    if doc["instances"] != inputs.TWOSTATE_SUITE or doc["seed"] != seed:
        errors.append(("twostate_suite", "ran another suite than asked"))
    if doc["violations"] != 0:
        errors.append(("twostate_suite", f"found {doc['violations']} violations"))
    if doc["max_pi_iterations"] > inputs.TWOSTATE_MAX_ACTIONS:
        errors.append(("twostate_suite",
                       f"policy iteration took {doc['max_pi_iterations']} iterations"))
    return errors


CHECKS = {
    "large_sparse_solve": check_large,
    "dense_transform_certify": check_dense,
    "twostate_suite": check_twostate,
}
