"""mdpgeo benchmark: drive the CLI on seeded inputs and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout.  Workloads are listed in ``workloads.py``
and ``BENCHMARK.json``; ``--workload all`` runs each in turn.  One run:

1. builds the workload's input files from the seed (``inputs.py``) in a
   child process, under ``.bench_work/``;
2. with ``--trace 0``, starts ``SETUP_SAMPLES`` fresh processes that import
   mdpgeo and run the untimed warm-up command, and times each from start to
   ready (``setup_s`` is their median);
3. starts one fresh worker process that runs the workload's commands in a
   closed loop through ``mdpgeo.cli.main``, at least twice each and for about
   ``--seconds`` seconds, then checks every output;
4. prints a report, and as its last line one JSON object with ``correct``,
   ``attempted``, ``failed`` and the end-to-end metrics (``--trace 0``) or
   the per-layer metrics from one traced cycle (``--trace 1``).

Every child runs with the BLAS thread count pinned and without MDPGEO_
variables, which would change CLI flags.  Details of each run, and the
spans of a traced run, are kept under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from inputs import TWOSTATE_SUITE  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7
BLAS_THREADS = 1  # at most nproc; one thread keeps runs on a shared machine steady
DEADLINE_S = 170.0


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("MDPGEO_")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Runner:
    def __init__(self, args, work: Path, deadline: float):
        self.args, self.work, self.deadline = args, work, deadline

    def _cmd(self, mode: str, *extra: str) -> list[str]:
        return [sys.executable, str(HERE / "worker.py"), mode, "--workload", self.args.workload,
                "--seed", str(self.args.seed), "--dir", str(self.work), *extra]

    def _left(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark run exceeded its deadline")
        return left

    def child(self, mode: str, *extra: str) -> None:
        subprocess.run(self._cmd(mode, *extra), env=_env(), stdout=sys.stderr, check=True,
                       timeout=self._left())

    def setup_seconds(self) -> float:
        """Start to ready of one fresh process running the warm-up command."""
        t0 = time.perf_counter()
        with subprocess.Popen(self._cmd("setup"), env=_env(), stdout=subprocess.PIPE) as proc:
            try:
                ready, _, _ = select.select([proc.stdout], [], [], self._left())
                line = proc.stdout.readline() if ready else b""
                seconds = time.perf_counter() - t0
                proc.wait(timeout=self._left())
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed with exit code {proc.returncode}")
        return seconds


def _summarise(args, result: dict, setup: list[float],
               setup_readings: list[float]) -> tuple[dict, list[str]]:
    records, readings = result["records"], result["readings"]
    bad_ops = {op for op, _ in result["errors"]}
    failed = sum(1 for r in records if r["exit"] != 0 or r["name"] in bad_ops)
    raw, scaled = defaultdict(list), defaultdict(list)
    cycles = defaultdict(float)
    for i, r in enumerate(records):
        s = speed.scaled(r["seconds"], readings[i], readings[i + 1])
        raw[r["name"]].append(r["seconds"])
        scaled[r["name"]].append(s)
        cycles[r["cycle"]] += s
    per_op = {name: statistics.median(t) for name, t in scaled.items()}

    lines = [f"environment: {json.dumps(result['environment'])}",
             f"inputs: {json.dumps(result['inputs'])}",
             f"{len(cycles)} cycles of {len(per_op)} commands; medians of raw seconds, then of "
             f"seconds scaled to a {speed.REFERENCE_S} s reference kernel"]
    for name, seconds in per_op.items():
        ok = all(r["exit"] == 0 for r in records if r["name"] == name) and name not in bad_ops
        if not ok:
            lines.append(f"  {name}_s: not reported, the operation failed")
            continue
        raw_s = statistics.median(raw[name])
        lines.append(f"  {name}_s = {raw_s:.6g} s, scaled {seconds:.6g} s "
                     f"(median of {len(raw[name])})")
        if name == "twostate_suite":
            lines.append(f"  twostate_instances_per_s = {TWOSTATE_SUITE / raw_s:.6g} 1/s, "
                         f"scaled {TWOSTATE_SUITE / seconds:.6g} 1/s")
    for r in records:
        if r["exit"] != 0:
            tail = r["stderr_tail"].strip().splitlines()[-3:]
            lines.append(f"FAILED {r['name']} (cycle {r['cycle']}): exit code {r['exit']}: "
                         + " | ".join(tail))
    lines += [f"CHECK FAILED {op}: {msg}" for op, msg in result["errors"]]

    if args.trace:
        metrics = result["per_layer"]
    else:
        setup_scaled = [speed.scaled(s, setup_readings[i], setup_readings[i + 1])
                        for i, s in enumerate(setup)]
        lines.append(f"setup_s = {statistics.median(setup):.6g} s raw, "
                     f"scaled {statistics.median(setup_scaled):.6g} s (median of {len(setup)})")
        metrics = {
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "cycle_s": {"value": statistics.median(cycles.values()), "unit": "s"},
            "op_geomean_s": {
                "value": math.exp(statistics.fmean(math.log(t) for t in per_op.values())),
                "unit": "s",
            },
        }
    summary = {"correct": not result["errors"], "attempted": len(records), "failed": failed,
               "metrics": metrics}
    return summary, lines


def run(args, root: Path) -> int:
    """One run of ``args.workload``; prints the report and the summary line."""
    deadline = time.monotonic() + DEADLINE_S
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = root / ".bench_work" / f"{tag}-p{os.getpid()}"
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    runner = Runner(args, work, deadline)
    try:
        runner.child("inputs")
        setup, setup_readings = [], []
        if not args.trace:
            ref = speed.Reference()
            setup_readings.append(ref.reading())
            for _ in range(SETUP_SAMPLES):
                setup.append(runner.setup_seconds())
                setup_readings.append(ref.reading())
        runner.child("run", "--seconds", str(args.seconds), "--trace", str(args.trace),
                     "--span-file", str(out_dir / f"spans-{tag}.jsonl"))
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    except (subprocess.SubprocessError, OSError, RuntimeError, TimeoutError) as exc:
        sys.stderr.write(f"benchmark run failed: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summary, lines = _summarise(args, result, setup, setup_readings)
    result.update(setup_samples=setup, setup_readings=setup_readings)
    (out_dir / f"run-{tag}.json").write_text(
        json.dumps({"summary": summary, "detail": result}, indent=1), encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps(summary), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True,
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "mdpgeo" / "cli.py").is_file():
        sys.stderr.write("run.py must run from the root of an mdpgeo checkout (no src/mdpgeo)\n")
        return 2
    if args.workload != "all":
        return run(args, root)
    codes = []
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        codes.append(run(argparse.Namespace(**{**vars(args), "workload": workload}), root))
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
