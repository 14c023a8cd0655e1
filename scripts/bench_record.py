"""Record the benchmark's end-to-end metrics for one checkout in BENCH_<pr>.json.

    python scripts/bench_record.py --pr N --seeds 1 2 3 [--workloads NAME ...]
        [--checkout DIR]

Runs ``perfbench/run.py --trace 0`` of the checkout (the one holding this
script by default) once per seed and workload, for the run length its
``BENCHMARK.json`` sets, seed by seed, so the workloads alternate and a slow
spell of the machine falls on all of them.  Writes ``BENCH_<pr>.json`` into
this repository: the machine (nproc, CPU, Python, numpy, BLAS and its thread
count, as the benchmark's worker reports them, and the
``PYTHONDONTWRITEBYTECODE`` setting the runs inherit: where it is set, every
fresh process compiles mdpgeo from source, so ``setup_s`` moves with the size
of ``src/``), the commit, the seeds, every
run's summary line, and per workload the median and [q1, q3] of each
end-to-end metric over the seeds, with the failed share of the operations
attempted.  Then prints, per workload and metric, the change of the median
against the newest ``BENCH_<k>.json`` here with k < N, the record of the
change before.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _commit(checkout: Path) -> str:
    def git(*argv: str) -> str:
        return subprocess.run(["git", *argv], cwd=checkout, capture_output=True, text=True,
                              check=True).stdout.strip()

    return git("rev-parse", "HEAD") + ("+dirty" if git("status", "--porcelain") else "")


def _run(checkout: Path, workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """One benchmark run: the worker's environment line and the summary line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    env = next(json.loads(line.split(":", 1)[1]) for line in lines
               if line.startswith("environment:"))
    return env, json.loads(lines[-1])


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "iqr": [q1, q3], "n": len(values)}


def _previous(pr: int) -> dict | None:
    """The newest record in this repository numbered below ``pr``."""
    numbered = {}
    for path in ROOT.glob("BENCH_*.json"):
        k = path.stem.removeprefix("BENCH_")
        if k.isdigit() and int(k) < pr:
            numbered[int(k)] = path
    return json.loads(numbered[max(numbered)].read_text(encoding="utf-8")) if numbered else None


def _print_deltas(doc: dict, before: dict) -> None:
    for workload in [w for w in doc["workloads"] if w in before["workloads"]]:
        now, then = doc["workloads"][workload], before["workloads"][workload]
        for name in [m for m in now["metrics"] if m in then["metrics"]]:
            new, old = now["metrics"][name], then["metrics"][name]["median"]
            print(f"{workload} {name}: {old:.4g} -> {new['median']:.4g} {new['unit']} "
                  f"({100.0 * (new['median'] / old - 1.0):+.1f} %) against BENCH_{before['pr']}")
        print(f"{workload} failed_share: {then['failed_share']:.4g} -> {now['failed_share']:.4g}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, required=True, help="number in the file name")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--workloads", nargs="+", help="default: every workload of the benchmark")
    ap.add_argument("--checkout", type=Path, default=ROOT)
    args = ap.parse_args()

    checkout = args.checkout.resolve()
    bench = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    runs, machine = [], None
    for seed in args.seeds:
        for workload in workloads:
            env, summary = _run(checkout, workload, seed, seconds)
            machine = machine or {
                **env, "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}
            runs.append({"workload": workload, "seed": seed, **summary})
            print(f"{workload} seed {seed}: {json.dumps(summary['metrics'])}", file=sys.stderr)

    per_workload = {}
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        metrics = {name: {"unit": m["unit"], **_spread([r["metrics"][name]["value"]
                                                        for r in mine])}
                   for name, m in mine[0]["metrics"].items()}
        per_workload[workload] = {
            "failed_share": sum(r["failed"] for r in mine) / sum(r["attempted"] for r in mine),
            "metrics": metrics,
        }
    doc = {"pr": args.pr, "commit": _commit(checkout), "machine": machine,
           "seeds": args.seeds, "seconds": seconds, "workloads": per_workload, "runs": runs}
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    before = _previous(args.pr)
    if before is not None:
        _print_deltas(doc, before)
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
