"""Seeded benchmark inputs, built with numpy alone.

The models are built here rather than with ``mdpgeo.gen`` so that a change
to the program's generator cannot change what the benchmark measures.  Every
input is a pure function of its seed; the same seed gives byte-identical
files.  Models are written as compact JSON in the format ``mdpgeo.cli``
reads, floats in shortest round-trip form.

Models carry a planted optimal policy where the workload needs a known
optimum: the target values ``V*`` are drawn first, the planted action of each
state gets reward ``V*(s) - gamma P V*`` (advantage 0 at ``V*``), and every
other action gets that reward minus a gap drawn from ``[GAP_LO, GAP_HI]``.
``V*`` is then the fixed point of the Bellman optimality operator and the
planted policy is the unique optimum, with optimality gap at least
``GAP_LO``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GAP_LO, GAP_HI = 0.05, 0.5

# Workload sizes.  The gridworld discount keeps a span-stopped value
# iteration in the hundreds of iterations; the Wielandt discount and size are
# the ones on which certify's block-span product underflows, and are kept as
# they are so that the defect shows.
GRID_SIDE, GRID_GAMMA = 32, 0.95
DENSE_N, DENSE_ACTIONS, DENSE_GAMMA = 200, 4, 0.95
DENSE_VI_STEPS = 20
WIELANDT_N, WIELANDT_ACTIONS, WIELANDT_GAMMA = 50, 3, 0.999
WIELANDT_STEPS = WIELANDT_N**2 - 2 * WIELANDT_N + 2  # Wielandt's bound, attained
TWOSTATE_SUITE, TWOSTATE_MAX_ACTIONS = 1000, 12


@dataclass
class Model:
    """Arrays of one model: rows are actions, grouped by state in id order."""

    name: str
    gamma: float
    P: np.ndarray
    rewards: np.ndarray
    state_of: np.ndarray
    planted: np.ndarray | None = None  # row of the planted action per state

    @property
    def n(self) -> int:
        return self.P.shape[1]

    @property
    def m(self) -> int:
        return self.P.shape[0]

    @property
    def ids(self) -> list[str]:
        width = len(str(self.n - 1))
        out, j, prev = [], 0, -1
        for s in self.state_of.tolist():
            j = j + 1 if s == prev else 0
            prev = s
            out.append(f"s{s:0{width}d}a{j:02d}")
        return out

    def to_json(self) -> str:
        doc = {
            "version": 1,
            "n_states": self.n,
            "gamma": self.gamma,
            "actions": [
                {"id": aid, "state": s, "probs": p, "reward": r}
                for aid, s, p, r in zip(
                    self.ids, self.state_of.tolist(), self.P.tolist(), self.rewards.tolist()
                )
            ],
        }
        return json.dumps(doc, separators=(",", ":")) + "\n"

    def properties(self) -> dict:
        """Input properties that later changes quote ratios against."""
        return {
            "n": self.n,
            "m": self.m,
            "nnz": int(np.count_nonzero(self.P)),
            "dense_backup_bytes_computed": 8 * self.m * self.n,
        }


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _plant(rng: np.random.Generator, P: np.ndarray, state_of: np.ndarray,
           planted: np.ndarray, gamma: float) -> np.ndarray:
    """Rewards under which the planted rows form the unique optimal policy."""
    v_star = rng.uniform(0.0, 1.0, size=P.shape[1])
    rewards = v_star[state_of] - gamma * (P @ v_star)
    gaps = rng.uniform(GAP_LO, GAP_HI, size=P.shape[0])
    gaps[planted] = 0.0
    return rewards - gaps


def _by_state(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    state_of = np.repeat(np.arange(counts.size), counts)
    first = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return state_of, first


def gridworld(seed: int, side: int = GRID_SIDE, gamma: float = GRID_GAMMA) -> Model:
    """Torus gridworld: 5 actions per state (stay and the four moves).

    Each action reaches its intended cell with probability 1 - slip and each
    other cell of the 5-cell neighbourhood with slip/4; slip is drawn per
    action from [0.1, 0.3], rewards from [0, 1].  The local support keeps the
    span contraction of value iteration close to gamma.
    """
    rng = _rng(seed, 1)
    n = side * side
    r, c = np.divmod(np.arange(n), side)
    moves = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))
    nbr = np.stack([((r + dr) % side) * side + (c + dc) % side for dr, dc in moves], axis=1)
    state_of = np.repeat(np.arange(n), len(moves))
    slip = rng.uniform(0.1, 0.3, size=state_of.size)
    P = np.zeros((state_of.size, n))
    rows = np.arange(state_of.size)
    for d in range(len(moves)):
        P[rows, nbr[state_of, d]] = slip / 4.0
    P[rows, nbr.reshape(-1)] = 1.0 - slip
    rewards = rng.uniform(0.0, 1.0, size=state_of.size)
    return Model("gridworld", gamma, P, rewards, state_of)


def _positive_rows(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Entrywise positive rows: half uniform mass, half a Dirichlet draw."""
    P = 0.5 / n + 0.5 * rng.dirichlet(np.ones(n), size=m)
    return P / P.sum(axis=1, keepdims=True)


def dense_planted(seed: int, n: int = DENSE_N, actions: int = DENSE_ACTIONS,
                  gamma: float = DENSE_GAMMA) -> Model:
    """Dense model, every row entrywise positive, planted optimum at action 0."""
    rng = _rng(seed, 2)
    state_of, first = _by_state(np.full(n, actions))
    P = _positive_rows(rng, state_of.size, n)
    rewards = _plant(rng, P, state_of, first, gamma)
    return Model("dense", gamma, P, rewards, state_of, planted=first)


def wielandt(seed: int, n: int = WIELANDT_N, actions: int = WIELANDT_ACTIONS,
             gamma: float = WIELANDT_GAMMA) -> Model:
    """Cycle-plus-shortcut optimum: primitivity exponent n^2 - 2n + 2.

    The planted action of state s moves to s+1; the last state's moves to 0
    and 1 with probability 1/2 each.  The other actions have dense rows.
    """
    rng = _rng(seed, 3)
    state_of, first = _by_state(np.full(n, actions))
    P = _positive_rows(rng, state_of.size, n)
    P[first] = 0.0
    P[first[:-1], np.arange(1, n)] = 1.0
    P[first[-1], [0, 1]] = 0.5
    rewards = _plant(rng, P, state_of, first, gamma)
    return Model("wielandt", gamma, P, rewards, state_of, planted=first)


def initial_values(seed: int, n: int, salt: int) -> list[float]:
    """A v0 vector for ``solve-vi --v0 file:``, uniform on [0, 1)."""
    return _rng(seed, salt).uniform(0.0, 1.0, size=n).tolist()


def models_for(workload: str, seed: int) -> dict[str, Model]:
    """The models one workload feeds the program, by file stem.

    ``warmup`` is a small model of the same kind for the untimed warm-up.
    """
    if workload == "large_sparse_solve":
        return {"grid": gridworld(seed), "warmup": gridworld(seed, side=4)}
    if workload == "dense_transform_certify":
        return {"dense": dense_planted(seed), "wielandt": wielandt(seed),
                "warmup": dense_planted(seed, n=6)}
    return {}


def write_inputs(workload: str, seed: int, out: Path) -> dict:
    """Write a workload's input files into ``out``; return their properties."""
    out.mkdir(parents=True, exist_ok=True)
    props = {}
    for stem, model in models_for(workload, seed).items():
        path = out / f"{stem}.json"
        path.write_text(model.to_json(), encoding="utf-8")
        props[stem] = dict(model.properties(), model_file_bytes=path.stat().st_size)
    if workload == "dense_transform_certify":
        for stem, n, salt in (("dense", DENSE_N, 4), ("wielandt", WIELANDT_N, 5)):
            (out / f"{stem}_v0.json").write_text(
                json.dumps(initial_values(seed, n, salt)) + "\n", encoding="utf-8"
            )
    return props
