"""Per-layer timings on one seeded 1000-state sparse model and one dense model.

    PYTHONPATH=src python scripts/bench_layers.py [--n 1000] [--k 5] [--seed 7]

Generates ``GenSpec(structure="sparse", n_states=n, sparse_k=k,
max_actions=8, gamma=0.95)`` and times these layers on it, each over a fixed
number of repeats:

- ``bellman_optimal``: one greedy backup at random values;
- ``greedy_sparse``: the greedy kernel alone (``core.greedy``) on that
  backup's ``q_values``, a median of 200 calls;
- ``vi_iteration``: the marginal cost of one synchronous value-iteration
  step, from runs of 1 and 21 steps;
- ``vi_filtered_iteration``: the same for a run with the action filter,
  started from the upper bound;
- ``filter_appendix``: one filtering pass at V_100 of a run started from the
  upper bound, where part of the actions are provably suboptimal, forming
  its own ``P @ V_100`` (the exact advantage product only where the shared
  product's rounding bound cannot decide a row);
- ``filter_appendix_shared``: the same pass given the product value iteration
  shares between the filter and the next backup: ``q_values(mdp, V_100)`` where
  the filter's fifth argument is ``q``, ``P @ V_100`` where it is ``pv`` (left
  out on checkouts whose filter takes neither);
- ``mdp_to_json``: writing the whole model as JSON;
- ``generate_sparse_draw``: ``generate`` of that spec (draw, ids and validation);
- ``write_model_sparse``: the CLI's model writer on that model, to a file in a
  temporary directory (encode, hash, write and rename: ``_mdp_json_blocks``,
  or ``_mdp_json_pieces`` on checkouts without it, through ``_write_chunks``);
- ``mdp_from_json``: reading that JSON text back (parse, build, validate);
- ``mdp_from_json_compact_sparse``: reading a sparse ``n=1024`` model of the
  same kind written compactly (no whitespace; most probabilities are ``0.0``);
- ``load_mdp_compact_sparse``: the CLI's read path on that compact model
  written to a file: read the file, hash it, parse and validate;
- ``validate``: the full invariant check of the model, built on a writable
  copy of its ``P`` so that older checkouts, which checked a model whose
  arrays were all read-only only once, measure the same full check;
- ``policy_iteration``: Howard policy iteration from the max-reward policy,
  each repeat on a fresh validated model over the same arrays, so nothing a
  model caches is reused, as in one ``solve-pi`` command.

``generate_write_peak_mib`` is the ``tracemalloc`` peak of
``mdpgeo.cli.main(["generate", ...])`` on the same spec, writing its model
file into a temporary directory (``generate_file_mib`` is that file's size):
the memory the command holds beyond the interpreter, in MiB.
``policy_iteration_peak_mib`` is the ``tracemalloc`` peak of one
``policy_iteration`` run on a fresh validated model: what it allocates beyond
the model it is given.

Three more layers run on ``GenSpec(structure="dense", n_states=100,
gamma=0.95)`` with the same seed:

- ``generate_dense_100``: ``generate`` of that spec.  Almost every row of 100
  entries is rejected and drawn again, so the block of uniforms that
  ``generate`` draws first for a dense model is thrown away at its first row
  and the row-by-row loop draws the model: the block draw's worst case.

Every state of that model has slack, so the other two make one transform
step per state:

- ``normalize``: the exact solve plus one reward shift per state;
- ``effective_gamma``: one discount change per state.

One layer runs on ``GenSpec(structure="planted_optimal", n_states=6,
min_actions=2, gamma=0.9)`` with the same seed, the shape of acceptance
criterion 3's models:

- ``generate_planted_6``: ``generate`` of that spec (on checkouts whose
  planted ``generate`` solves its own output to check the plant, that solve
  is part of the time).

And one layer on a compact dense model that numpy builds (``n=200``, four
actions per state, every probability positive), since the dense generator
does not finish at that size:

- ``mdp_from_json_compact_dense``: reading its JSON text;
- ``mdp_from_json_indented_dense``: reading the same model as ``mdp_to_json``
  writes it (indented, one number a line), the layout of the normalized dense
  model that the benchmark's dense ``solve-vi`` and ``certify`` read;
- ``mdp_to_json_dense``: writing that model, normalized, as JSON text (160,800
  numbers, every probability positive), as a median of 7;
- ``write_model_dense``: the CLI's model writer on the normalized model, to a
  file in a temporary directory, as ``write_model_sparse`` does: the write that
  the benchmark's dense ``normalize`` makes.

Seven layers run the two-state checks:

- ``twostate_verify_pi_bound``: ``verify_pi_bound`` on one 2-state model with
  six actions per state (``GenSpec(structure="dense", min_actions=6,
  max_actions=6, gamma=0.9)``), each repeat on a fresh copy of the model so
  nothing computed for an earlier repeat is reused;
- ``twostate_suite``: ``run_twostate_suite(1000, 12, seed)``, the size of the
  benchmark's ``twostate_suite`` workload, as a median of 21 repeats;
- ``twostate_suite_small_1``, ``_10`` and ``_100``: ``run_twostate_suite(n, 12,
  seed)`` for n = 1, 10 and 100, where a block's fixed costs weigh most, as a
  median of 21 repeats;
- ``twostate_suite_wide_seed``: ``run_twostate_suite(2000, 12, 2**128 - 1)``,
  whose seeds have four and five 32-bit words, as a median of 21 repeats;
- ``twostate_draw_1000``: that suite's draw alone, the action counts and
  uniforms of its 1,000 instances (6 actions per state), as a median of 21
  repeats: ``gen._dense_pair_draws``, or on checkouts without it the loop the
  suite ran before, one ``default_rng(seed + i)`` with ``integers`` and
  ``random`` per instance.

Two layers run the certificate's checks:

- ``primitivity_50`` and ``primitivity_100``: ``primitivity`` on the
  cycle-plus-shortcut matrix of that size, whose exponent n^2 - 2n + 2 is
  Wielandt's bound (2,402 and 9,802);
- ``verify_recurrence``: the check that a 2,402-step run of value iteration
  on the normalized ``GenSpec(structure="wielandt", n_states=50,
  min_actions=3, max_actions=3, gamma=0.999)`` model is a synchronous greedy
  run, as ``certify`` makes it;
- ``vi_wielandt_2402``: that whole time-stopped run, from the same random
  start, as a median of 7 runs;
- ``greedy_wielandt_50``: the greedy kernel on that model's ``q_values`` at
  the run's start, a median of 200 calls;
- ``trace_from_csv_2402``: reading that run's trace CSV (2,403 rows of 50
  values), the read ``certify`` makes;
- ``trace_to_csv_2402``: writing that run's trace CSV as text, the trace
  ``solve-vi --trace`` writes (``trace_to_csv``), as a median of 7;
- ``trace_to_csv_sparse_100``: the same for a 100-step time-stopped run of
  value iteration on the sparse model above (101 rows of 1,000 values);
- ``trace_to_csv_decaying``: the same for a 3,000-step run on the normalized
  Wielandt model at gamma = 0.99, from a random start: its values decay
  towards 0, and 57 % of its 3,001 rows hold a value below 1e-6.

Two more peaks, in MiB, show what the readers hold beyond their input:
``dense_read_peak_mib`` is the ``tracemalloc`` peak of ``mdp_from_json`` on
the compact dense text (it includes the UTF-8 copy of the text that the
reader makes first), and ``trace_read_peak_mib`` that of ``trace_from_csv`` on
the 2,403-row trace.  Two peaks show what the CLI's model read of a file
(``mdpgeo.cli._load_mdp``) holds, its probability matrix included:
``grid_read_peak_mib`` on the benchmark's 1024-state torus gridworld
(``perfbench/inputs.py``, compact, 21.7 MB at seed 7; its matrix is 40 MiB)
and ``sparse_indented_read_peak_mib`` on the file that ``generate`` writes for
the 1000-state spec above.

The dense size is fixed: dense generation does not finish for n of about 150
and more.

Prints one JSON object: the machine, the model size, the ``generate`` peak
and, per layer, the median and the quartiles in milliseconds.  Uses numpy and the package only,
so it runs unchanged on older checkouts for before/after comparisons.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from mdpgeo.acceptance import run_twostate_suite
from mdpgeo.analysis import _verify_sync_recurrence, primitivity, wielandt_bound
from mdpgeo.cli import _load_mdp
from mdpgeo.cli import main as cli_main
from mdpgeo.cli import mdp_from_json, mdp_to_json, trace_from_csv, trace_to_csv
from mdpgeo.core import Mdp, bellman_optimal, greedy, q_values, validate
from mdpgeo import cli, core, gen
from mdpgeo.gen import GenSpec, generate
from mdpgeo.solvers import (
    ViConfig,
    filter_appendix,
    max_reward_policy,
    policy_iteration,
    value_iteration,
)
from mdpgeo.transforms import effective_gamma, normalize
from mdpgeo.twostate import verify_pi_bound

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from inputs import gridworld  # noqa: E402

DENSE_N = 100
WIELANDT_TRACE_N = 50
READ_SPARSE_N = 1024
READ_DENSE_N = 200
TWOSTATE_REPEATS = 50
SUITE_REPEATS = 21  # a median of 5 moved by +-40 % between runs of the script
SPARSE_REPEATS = 15  # the same for the sparse model's generate and write rows
GREEDY_REPEATS = 200


def _compact(n: int, ids, state_of, P, rewards) -> str:
    """Model JSON without whitespace."""
    doc = {"version": 1, "n_states": n, "gamma": 0.95, "actions": [
        {"id": i, "state": s, "probs": p, "reward": r}
        for i, s, p, r in zip(ids, state_of.tolist(), P.tolist(), rewards.tolist())]}
    return json.dumps(doc, separators=(",", ":"))


def _dense_text(seed: int) -> str:
    rng = np.random.default_rng([seed, 2])
    m = 4 * READ_DENSE_N
    P = rng.uniform(1e-3, 1.0, size=(m, READ_DENSE_N))
    P /= P.sum(axis=1, keepdims=True)
    ids = [f"s{s:03d}a{k}" for s in range(READ_DENSE_N) for k in range(4)]
    return _compact(READ_DENSE_N, ids, np.repeat(np.arange(READ_DENSE_N), 4), P,
                    rng.uniform(0.0, 1.0, size=m))


def _suite_draw(seed: int, n: int = 1000, k: int = 6) -> None:
    """The counts and uniforms of ``run_twostate_suite(n, 2 * k, seed)``'s instances."""
    counts, uniforms = np.empty((n, 2), dtype=np.int64), np.empty((n, 2 * k, 3))
    if hasattr(gen, "_dense_pair_draws"):
        gen._dense_pair_draws(seed, k, counts, uniforms)
        return
    for j in range(n):
        rng = np.random.default_rng(seed + j)
        counts[j] = rng.integers(1, k + 1, size=2)
        rng.random(out=uniforms[j])


def _write_model_times(mdp: Mdp) -> list[float]:
    """Times of the CLI's model writer writing ``mdp`` to a temporary file."""
    pieces = getattr(cli, "_mdp_json_blocks", None) or cli._mdp_json_pieces
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "model.json")
        return _times(lambda: cli._write_chunks(path, pieces(mdp)), SPARSE_REPEATS)


def _wielandt_matrix(n: int) -> np.ndarray:
    """The cycle 0 -> 1 -> ... -> n-1, whose last state goes to 0 and 1 by halves."""
    p = np.zeros((n, n))
    p[np.arange(n - 1), np.arange(1, n)] = 1.0
    p[n - 1, [0, 1]] = 0.5
    return p


def _times(fn, repeats: int) -> list[float]:
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def _summary(seconds: list[float]) -> dict:
    ms = sorted(1e3 * s for s in seconds)
    q1, median, q3 = statistics.quantiles(ms, n=4) if len(ms) > 1 else (ms[0],) * 3
    return {"median_ms": median, "q1_ms": q1, "q3_ms": q3, "repeats": len(ms)}


def _fresh(mdp: Mdp) -> Mdp:
    """A validated model over the arrays of ``mdp`` that has computed nothing else."""
    copy = Mdp.from_arrays(mdp.n_states, mdp.gamma, mdp.ids, mdp.state_of, mdp.P, mdp.rewards)
    validate(copy)
    return copy


def _pi_times(mdp: Mdp, repeats: int) -> list[float]:
    pi0 = max_reward_policy(mdp)
    out = []
    for _ in range(repeats):
        fresh = _fresh(mdp)
        t0 = time.perf_counter()
        policy_iteration(fresh, pi0)
        out.append(time.perf_counter() - t0)
    return out


def _peak_mib(fn) -> float:
    """The tracemalloc peak of ``fn()``, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _pi_peak_mib(mdp: Mdp) -> float:
    """The tracemalloc peak of policy iteration on a fresh model, in MiB."""
    fresh, pi0 = _fresh(mdp), max_reward_policy(mdp)
    return _peak_mib(lambda: policy_iteration(fresh, pi0))


def _generate_peak_mib(n: int, k: int, seed: int) -> tuple[float, float, float]:
    """The tracemalloc peak of the ``generate`` command, the size of its file and
    the peak of the CLI's read of that file, in MiB."""
    with tempfile.TemporaryDirectory() as d:
        out = os.path.join(d, "model.json")
        argv = ["generate", "--seed", str(seed), "--structure", "sparse", "--n-states", str(n),
                "--sparse-k", str(k), "--max-actions", "8", "--gamma", "0.95", "--out", out]
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if code != 0:
            raise RuntimeError(f"generate exited {code}")
        return peak / 2**20, os.path.getsize(out) / 2**20, _peak_mib(lambda: _load_mdp(out))


def _grid_read_peak_mib(seed: int) -> float:
    """The tracemalloc peak of the CLI's read of the benchmark's gridworld file, in MiB."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "grid.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(gridworld(seed).to_json())
        return _peak_mib(lambda: _load_mdp(path))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--k", type=int, default=5)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    spec = GenSpec(n_states=args.n, gamma=0.95, seed=args.seed, structure="sparse",
                   sparse_k=args.k, max_actions=8)
    mdp = generate(spec)
    v = np.random.default_rng([args.seed, 1]).uniform(0.0, 1.0, size=mdp.n_states)
    bellman_optimal(mdp, v)  # fills the model's cached arrays
    q = q_values(mdp, v)

    def steps(t: int, **filtered) -> float:
        t0 = time.perf_counter()
        value_iteration(mdp, ViConfig(stop="time", t_max=t, **filtered))
        return time.perf_counter() - t0

    vi = [(steps(21) - steps(1)) / 20 for _ in range(5)]
    filtered = {"filter": "appendix", "v0": "upper_bound"}
    vi_filtered = [(steps(21, **filtered) - steps(1, **filtered)) / 20 for _ in range(5)]

    v100 = value_iteration(mdp, ViConfig(stop="time", t_max=100, v0="upper_bound")).values[100]
    active = np.ones(mdp.m, dtype=bool)
    layers = {
        "bellman_optimal": _summary(_times(lambda: bellman_optimal(mdp, v), 50)),
        "greedy_sparse": _summary(_times(lambda: greedy(mdp, q), GREEDY_REPEATS)),
        "vi_iteration": _summary(vi),
        "vi_filtered_iteration": _summary(vi_filtered),
        "filter_appendix": _summary(_times(lambda: filter_appendix(mdp, 100, v100, active), 20)),
        "mdp_to_json": _summary(_times(lambda: mdp_to_json(mdp), 3)),
        "generate_sparse_draw": _summary(_times(lambda: generate(spec), SPARSE_REPEATS)),
        "write_model_sparse": _summary(_write_model_times(mdp)),
    }
    params = inspect.signature(filter_appendix).parameters
    if "q" in params or "pv" in params:
        product = core.q_values(mdp, v100) if "q" in params else mdp.P @ v100
        layers["filter_appendix_shared"] = _summary(
            _times(lambda: filter_appendix(mdp, 100, v100, active, product), 20))
    text = mdp_to_json(mdp)
    layers["mdp_from_json"] = _summary(_times(lambda: mdp_from_json(text), 3))
    wide = generate(GenSpec(n_states=READ_SPARSE_N, gamma=0.95, seed=args.seed,
                            structure="sparse", sparse_k=args.k, max_actions=8))
    wide_text = _compact(wide.n_states, wide.ids, wide.state_of, wide.P, wide.rewards)
    layers["mdp_from_json_compact_sparse"] = _summary(_times(lambda: mdp_from_json(wide_text), 5))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "compact.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(wide_text)
        layers["load_mdp_compact_sparse"] = _summary(_times(lambda: _load_mdp(path), 5))
    dense_text = _dense_text(args.seed)
    layers["mdp_from_json_compact_dense"] = _summary(_times(lambda: mdp_from_json(dense_text), 7))
    indented_text = mdp_to_json(mdp_from_json(dense_text))
    layers["mdp_from_json_indented_dense"] = _summary(
        _times(lambda: mdp_from_json(indented_text), 7))
    dense_normalized = normalize(mdp_from_json(dense_text))[0]
    layers["mdp_to_json_dense"] = _summary(_times(lambda: mdp_to_json(dense_normalized), 7))
    layers["write_model_dense"] = _summary(_write_model_times(dense_normalized))
    checked = Mdp.from_arrays(mdp.n_states, mdp.gamma, mdp.ids, mdp.state_of, mdp.P.copy(),
                              mdp.rewards)
    layers["validate"] = _summary(_times(lambda: validate(checked), 20))
    dense_spec = GenSpec(n_states=DENSE_N, gamma=0.95, seed=args.seed, structure="dense")
    layers["generate_dense_100"] = _summary(_times(lambda: generate(dense_spec), 5))
    dense = generate(dense_spec)
    planted_spec = GenSpec(n_states=6, gamma=0.9, seed=args.seed, structure="planted_optimal",
                           min_actions=2)
    layers["generate_planted_6"] = _summary(_times(lambda: generate(planted_spec), 50))
    layers["normalize"] = _summary(_times(lambda: normalize(dense), 5))
    layers["effective_gamma"] = _summary(_times(lambda: effective_gamma(dense), 5))
    two = generate(GenSpec(n_states=2, gamma=0.9, seed=args.seed, structure="dense",
                           min_actions=6, max_actions=6))
    copies = iter([Mdp.from_arrays(2, two.gamma, two.ids, two.state_of, two.P, two.rewards)
                   for _ in range(TWOSTATE_REPEATS)])
    layers["twostate_verify_pi_bound"] = _summary(
        _times(lambda: verify_pi_bound(next(copies)), TWOSTATE_REPEATS))
    layers["twostate_suite"] = _summary(
        _times(lambda: run_twostate_suite(1000, 12, args.seed), SUITE_REPEATS))
    for n in (1, 10, 100):
        layers[f"twostate_suite_small_{n}"] = _summary(
            _times(lambda: run_twostate_suite(n, 12, args.seed), SUITE_REPEATS))
    layers["twostate_suite_wide_seed"] = _summary(
        _times(lambda: run_twostate_suite(2000, 12, 2**128 - 1), SUITE_REPEATS))
    layers["twostate_draw_1000"] = _summary(_times(lambda: _suite_draw(args.seed), SUITE_REPEATS))
    for n in (50, 100):
        p = _wielandt_matrix(n)
        layers[f"primitivity_{n}"] = _summary(_times(lambda: primitivity(p), 5))
    wiel, _, _ = normalize(generate(GenSpec(n_states=WIELANDT_TRACE_N, gamma=0.999,
                                            seed=args.seed, structure="wielandt",
                                            min_actions=3, max_actions=3)))
    v0 = np.random.default_rng([args.seed, 3]).uniform(0.0, 1.0, size=WIELANDT_TRACE_N)
    wiel_cfg = ViConfig(stop="time", t_max=wielandt_bound(WIELANDT_TRACE_N), v0="given",
                        v0_values=tuple(v0))
    run = value_iteration(wiel, wiel_cfg)
    layers["vi_wielandt_2402"] = _summary(_times(lambda: value_iteration(wiel, wiel_cfg), 7))
    wiel_q = q_values(wiel, v0)
    layers["greedy_wielandt_50"] = _summary(_times(lambda: greedy(wiel, wiel_q), GREEDY_REPEATS))
    layers["verify_recurrence"] = _summary(
        _times(lambda: _verify_sync_recurrence(wiel, run.values, 1.0), 5))
    trace_text = trace_to_csv(run)
    layers["trace_from_csv_2402"] = _summary(_times(lambda: trace_from_csv(trace_text), 7))
    layers["trace_to_csv_2402"] = _summary(_times(lambda: trace_to_csv(run), 7))
    sparse_run = value_iteration(mdp, ViConfig(stop="time", t_max=100))
    layers["trace_to_csv_sparse_100"] = _summary(_times(lambda: trace_to_csv(sparse_run), 7))
    decaying, _, _ = normalize(generate(GenSpec(n_states=WIELANDT_TRACE_N, gamma=0.99,
                                                seed=args.seed, structure="wielandt",
                                                min_actions=3, max_actions=3)))
    decaying_run = value_iteration(decaying, ViConfig(stop="time", t_max=3000, v0="given",
                                                      v0_values=tuple(v0)))
    layers["trace_to_csv_decaying"] = _summary(_times(lambda: trace_to_csv(decaying_run), 7))
    read_peaks = {"dense_read_peak_mib": _peak_mib(lambda: mdp_from_json(dense_text)),
                  "trace_read_peak_mib": _peak_mib(lambda: trace_from_csv(trace_text))}
    # last: a large allocation and free here would change how fast later rows allocate
    layers["policy_iteration"] = _summary(_pi_times(mdp, 5))
    pi_peak_mib = _pi_peak_mib(mdp)
    peak_mib, file_mib, read_peaks["sparse_indented_read_peak_mib"] = _generate_peak_mib(
        args.n, args.k, args.seed)
    read_peaks["grid_read_peak_mib"] = _grid_read_peak_mib(args.seed)
    print(json.dumps({
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__},
        "model": {"n": mdp.n_states, "m": mdp.m, "k": args.k, "seed": args.seed},
        "dense_model": {"n": dense.n_states, "m": dense.m, "seed": args.seed},
        "dropped_by_filter": int(mdp.m - filter_appendix(mdp, 100, v100, active)[0].sum()),
        "generate_write_peak_mib": peak_mib,
        "generate_file_mib": file_mib,
        "policy_iteration_peak_mib": pi_peak_mib,
        **read_peaks,
        "layers": layers,
    }, indent=2))


if __name__ == "__main__":
    main()
