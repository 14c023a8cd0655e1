"""Peak RSS and wall time of each CLI command, every run in a fresh process.

    python scripts/command_peaks.py [--src DIR] [--seed 1] [--repeats 3]

Runs ``mdpgeo.cli.main`` in a new Python process with ``PYTHONPATH=DIR``
(default: the ``src`` of the checkout holding this script, so ``--src`` of
another checkout measures that one) on four pipelines, in a temporary directory:

- ``generate`` of the sparse 1000-state model of the benchmark's
  ``large_sparse_solve`` (``--sparse-k 5 --max-actions 8``), then
  ``solve-vi --trace`` and ``solve-pi`` on it;
- the benchmark's 1024-state torus gridworld (``perfbench/inputs.py``), a
  span-stopped ``solve-vi --trace`` on it and ``certify`` against that trace,
  the largest any benchmark pipeline writes (264 rows of 1,024 values at seed
  7, 5.1 MB);
- ``generate`` of a Wielandt model (n = 50, three actions per state,
  gamma = 0.999), ``normalize``, a 2,402-step ``solve-vi --trace`` from random
  values, as the benchmark runs it (a 2.5 MB trace at seed 7), and ``certify``
  on the normalized model;
- a compact dense model (n = 200, four actions per state, every probability
  positive, gamma = 0.95) that this script writes with numpy, as
  ``bench_layers.py`` does, since the dense generator does not finish at that
  size; its first action per state earns 0 and the others less, so every
  optimal value is 0.  Then ``gamma-eff`` on it, ``normalize``, and, as the
  benchmark runs them, a 20-step ``solve-vi --trace`` from random values and
  ``certify`` on the normalized model that ``normalize`` writes (indented, one
  number a line): their peaks are those of the dense model reader on both
  layouts;

and on its own, ``twostate --suite 100000 --max-actions 12`` (instances from
``--seed``), whose peak shows whether the suite's memory grows with its size.

Each command runs ``--repeats`` times.  Prints one JSON object: per command,
its exit code, the largest peak RSS of its runs in MB and the median wall time in
seconds.  OpenBLAS runs one thread.  A run's peak RSS is the ``VmHWM`` of its own
process, read from ``/proc/self/status`` when the command returns: the high-water
mark of the address space that ``exec`` started.  ``ru_maxrss`` from ``os.wait4``
would not do: Linux carries it across ``exec`` from the forked copy of this script,
so every command would read at least this script's own RSS.  Linux only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DENSE_N, DENSE_ACTIONS = 200, 4


def _write_dense(d: str, seed: int) -> None:
    """``dense.json``, a compact normalized model with ``DENSE_ACTIONS`` rows of
    positive probabilities per state, and ``dense_v0.json``, start values for it."""
    rng = np.random.default_rng([seed, 2])
    m = DENSE_ACTIONS * DENSE_N
    P = rng.uniform(1e-3, 1.0, size=(m, DENSE_N))
    P /= P.sum(axis=1, keepdims=True)
    rewards = -rng.uniform(0.05, 0.5, size=m)
    rewards[::DENSE_ACTIONS] = 0.0  # the optimal action of each state: every value is 0
    actions = [{"id": f"s{k // DENSE_ACTIONS:03d}a{k % DENSE_ACTIONS}",
                "state": k // DENSE_ACTIONS, "probs": p, "reward": r}
               for k, (p, r) in enumerate(zip(P.tolist(), rewards.tolist()))]
    with open(os.path.join(d, "dense.json"), "w", encoding="utf-8") as fh:
        json.dump({"version": 1, "n_states": DENSE_N, "gamma": 0.95, "actions": actions}, fh,
                  separators=(",", ":"))
    with open(os.path.join(d, "dense_v0.json"), "w", encoding="utf-8") as fh:
        json.dump(rng.uniform(0.0, 1.0, size=DENSE_N).tolist(), fh)


def _pipeline(d: str, seed: int) -> list[tuple[str, list[str]]]:
    p = lambda name: os.path.join(d, name)  # noqa: E731
    grid, wiel, norm = p("sparse.json"), p("wielandt.json"), p("normalized.json")
    _write_dense(d, seed)
    with open(p("wielandt_v0.json"), "w", encoding="utf-8") as fh:
        json.dump(np.random.default_rng([seed, 3]).uniform(0.0, 1.0, size=50).tolist(), fh)
    dense, dense_norm = p("dense.json"), p("dense_normalized.json")
    torus = p("torus.json")  # written by a child: the parent's memory would count in each peak
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                    "from inputs import gridworld; open(sys.argv[2], 'w').write("
                    "gridworld(int(sys.argv[3])).to_json())", str(ROOT / "perfbench"), torus,
                    str(seed)], check=True)
    return [
        ("generate", ["generate", "--seed", str(seed), "--structure", "sparse",
                      "--n-states", "1000", "--sparse-k", "5", "--max-actions", "8",
                      "--out", grid]),
        ("solve-vi", ["solve-vi", "--mdp", grid, "--stop", "span:1e-6", "--trace", p("vi.csv")]),
        ("solve-pi", ["solve-pi", "--mdp", grid]),
        ("solve-vi-grid", ["solve-vi", "--mdp", torus, "--stop", "span:1e-6",
                           "--trace", p("torus.csv")]),
        ("certify-grid", ["certify", "--mdp", torus, "--trace", p("torus.csv")]),
        ("generate-wielandt", ["generate", "--seed", str(seed), "--structure", "wielandt",
                               "--n-states", "50", "--min-actions", "3", "--max-actions", "3",
                               "--gamma", "0.999", "--out", wiel]),
        ("normalize", ["normalize", "--mdp", wiel, "--out", norm]),
        ("solve-vi-wielandt", ["solve-vi", "--mdp", norm, "--stop", "time:2402",
                               "--v0", f"file:{p('wielandt_v0.json')}",
                               "--trace", p("wielandt.csv")]),
        ("certify", ["certify", "--mdp", norm, "--trace", p("wielandt.csv")]),
        ("gamma-eff-dense", ["gamma-eff", "--mdp", dense]),
        ("normalize-dense", ["normalize", "--mdp", dense, "--out", dense_norm]),
        ("solve-vi-dense", ["solve-vi", "--mdp", dense_norm, "--stop", "time:20",
                            "--v0", f"file:{p('dense_v0.json')}", "--trace", p("dense.csv")]),
        ("certify-dense", ["certify", "--mdp", dense_norm, "--trace", p("dense.csv")]),
        ("twostate-suite", ["twostate", "--suite", "100000", "--max-actions", "12",
                            "--seed", str(seed)]),
    ]


# runs the command, then writes its process's VmHWM (kB) to the file named first
_CHILD = """import sys
from mdpgeo.cli import main
code = main(sys.argv[2:])
with open("/proc/self/status") as status, open(sys.argv[1], "w") as out:
    out.write(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
sys.exit(code)
"""


def _run(argv: list[str], env: dict, hwm: str) -> tuple[int, float, float]:
    """Exit code, peak RSS in MB and wall seconds of one command in a new process;
    ``hwm`` is the file the child writes its peak to."""
    t0 = time.perf_counter()
    code = subprocess.run([sys.executable, "-c", _CHILD, hwm, *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    wall = time.perf_counter() - t0
    with open(hwm, encoding="ascii") as fh:
        return code, int(fh.read()) / 1024.0, wall


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    env = {k: v for k, v in os.environ.items() if not k.startswith("MDPGEO_")}
    env.update(PYTHONPATH=str(args.src.resolve()), OPENBLAS_NUM_THREADS="1")
    commands = {}
    with tempfile.TemporaryDirectory() as d:
        for name, argv in _pipeline(d, args.seed):
            runs = [_run(argv, env, os.path.join(d, "vmhwm")) for _ in range(args.repeats)]
            commands[name] = {"exit": runs[-1][0], "peak_rss_mb": max(r[1] for r in runs),
                              "wall_s": statistics.median(r[2] for r in runs)}
    print(json.dumps({"src": str(args.src.resolve()), "seed": args.seed,
                      "repeats": args.repeats, "commands": commands}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
