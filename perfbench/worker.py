"""One benchmark process: build inputs, measure set-up, or run a workload.

    python3 perfbench/worker.py inputs --workload W --seed S --dir D
    python3 perfbench/worker.py setup  --workload W --seed S --dir D
    python3 perfbench/worker.py run    --workload W --seed S --dir D --seconds T --trace 0|1

Run from the root of a checkout; mdpgeo is imported from its ``src``.  The
commands go through ``mdpgeo.cli.main`` in this process, one after another
(one closed-loop client), with stdout and stderr captured.  ``setup`` prints
``ready`` once the untimed warm-up command has finished, so the parent can
time start-up.  ``run`` writes ``result.json`` into the work directory.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import inputs
import speed
import workloads
from tracer import LAYERS, Tracer

MIN_CYCLES = 2  # outputs must repeat byte for byte, so every command runs twice
PROBE_REPEATS = 30


def _run_command(cli, argv: list[str]) -> tuple[int, float, str, str]:
    """One CLI invocation: exit code, wall seconds, stdout, stderr.

    An exception escaping ``main`` is what a separate process would show as
    exit code 1 with a traceback on stderr, so it is recorded that way.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # the program's defect, reported as a failed operation
            code = 1
            traceback.print_exc()
        seconds = time.perf_counter() - t0
    return code, seconds, out.getvalue(), err.getvalue()


def _cycle(cli, ops, index: int, records: list[dict], stdouts: dict,
           ref: speed.Reference, readings: list[float], tracer: Tracer | None = None) -> float:
    """Run every command once, taking a speed reading after each; return the
    seconds spent in the commands."""
    total = 0.0
    for op in ops:
        if tracer:
            tracer.cmd = f"{op.name}#{index}"
        code, seconds, out, err = _run_command(cli, op.argv)
        records.append({"name": op.name, "cycle": index, "seconds": seconds, "exit": code,
                        "stderr_tail": err[-600:] if code else ""})
        stdouts.setdefault(op.name, []).append(out if code == 0 else None)
        total += seconds
        readings.append(ref.reading())
    return total


def _probe_ms(fn, *args) -> float:
    fn(*args)  # fills the model's cached arrays
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def _probe_model(workload: str, seed: int) -> inputs.Model:
    """The workload's model for the probes; the suite's shape for twostate_suite,
    whose 2-state models the program draws itself."""
    models = inputs.models_for(workload, seed)
    if workload == "large_sparse_solve":
        return models["grid"]
    if workload == "dense_transform_certify":
        return models["dense"]
    return inputs.dense_planted(seed, n=2, actions=inputs.TWOSTATE_MAX_ACTIONS // 2, gamma=0.9)


def _per_layer(core, tracer: Tracer, docs: dict, props: dict, workload: str, seed: int,
               traced_s: float, untraced_s: float) -> dict:
    self_s, calls = tracer.totals()
    metrics: dict[str, tuple[float, str]] = {}
    for key in (
        "cli.mdp_from_json", "cli.mdp_to_json", "cli.trace_to_csv", "cli.trace_from_csv",
        "core.validate", "solvers.value_iteration", "solvers.span", "solvers.filter_appendix",
        "solvers.policy_iteration", "solvers.evaluate_rows", "solvers.solve_exact",
        "transforms.normalize", "transforms.apply_L", "transforms.effective_gamma",
        "transforms.apply_J", "analysis.certify", "analysis.primitivity",
        "twostate.verify_pi_bound", "twostate.formed_policies", "twostate.produced_actions",
        "twostate.set_dynamics", "twostate.inefficiency_certificate", "gen.generate",
        "acceptance.run_twostate_suite",
    ):
        metrics[f"{key}.self_s"] = (self_s.get(key, 0.0), "s")
    for key in ("core.validate", "solvers.span", "solvers.solve_exact", "transforms.apply_L",
                "transforms.apply_J", "twostate.formed_policies", "twostate.produced_actions",
                "gen.generate"):
        metrics[f"{key}.calls"] = (calls.get(key, 0), "count")

    results = tracer.results
    metrics["cli.trace_bytes"] = (sum(len(t) for t in results["cli.trace_to_csv"]), "bytes")
    metrics["core.policy_objects"] = (tracer.policy_objects, "count")

    model = _probe_model(workload, seed)
    mdp = core.Mdp(model.n, tuple(
        core.Action(aid, s, p, r) for aid, s, p, r in
        zip(model.ids, model.state_of.tolist(), model.P, model.rewards.tolist())
    ), model.gamma)
    v = np.random.default_rng([seed, 6]).uniform(0.0, 1.0, size=model.n)
    adv_ms = _probe_ms(core.advantages, mdp, v)
    bell_ms = _probe_ms(core.bellman_optimal, mdp, v)
    metrics["core.advantages.probe_ms"] = (adv_ms, "ms")
    metrics["core.bellman_optimal.probe_ms"] = (bell_ms, "ms")
    metrics["core.greedy_share"] = (1.0 - adv_ms / bell_ms, "frac")

    vi_docs = [d for name, d in docs.items() if name.startswith("solve_vi")]
    iters = sum(d["iterations"] for d in vi_docs)
    vi_total = sum(end - start for name, _, start, end, _, _ in tracer.spans
                   if name == "solvers.value_iteration")
    metrics["solvers.vi_iterations"] = (iters, "count")
    metrics["solvers.vi_ms_per_iter"] = (1e3 * vi_total / iters if iters else 0.0, "ms")
    drop = 0.0
    if "solve_vi_filtered" in docs:
        grid = props["grid"]
        drop = (grid["m"] - docs["solve_vi_filtered"]["active_actions"]) / (grid["m"] - grid["n"])
    metrics["solvers.filter_drop_frac"] = (drop, "frac")
    metrics["solvers.pi_rounds"] = (
        sum(trace.iterations for _, trace in results["solvers.policy_iteration"]), "count")
    metrics["analysis.primitivity_N"] = (
        max([r[0] for r in results["analysis.primitivity"] if r] or [0]), "count")
    suite = docs.get("twostate_suite")
    frac = 0.0
    if suite:
        frac = suite["certificates"] / max(1, suite["certificates"] + suite["degenerate"])
    metrics["twostate.certificate_frac"] = (frac, "frac")
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "frac")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _environment() -> dict:
    cpu = ""
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": sys.version.split()[0], "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset")}


def _deterministic(stdouts: dict) -> list[tuple[str, str]]:
    bad = []
    for name, outs in stdouts.items():
        ok = [o for o in outs if o is not None]
        if len(set(ok)) > 1:
            bad.append((name, "printed different output on repeats"))
    return bad


def run(args, cli, ops) -> dict:
    work = Path(args.dir)
    props = json.loads((work / "inputs.json").read_text(encoding="utf-8"))
    records: list[dict] = []
    stdouts: dict[str, list] = {}
    cycles: list[float] = []
    ref = speed.Reference()
    readings = [ref.reading()]  # reading i is taken right before record i
    start = time.perf_counter()
    # In a traced run one untraced cycle is the base for the tracing overhead.
    want = 1 if args.trace else MIN_CYCLES
    while len(cycles) < want or (
        not args.trace and time.perf_counter() - start + cycles[-1] <= args.seconds
    ):
        cycles.append(_cycle(cli, ops, len(cycles), records, stdouts, ref, readings))
    result: dict = {"cycles": cycles, "readings": readings}
    if args.trace:
        modules = {name: importlib.import_module(f"mdpgeo.{name}") for name in LAYERS}
        tracer = Tracer(modules)
        tracer.install()
        try:
            _cycle(cli, ops, len(cycles), records, stdouts, ref, readings, tracer)
        finally:
            tracer.uninstall()
        spans = Path(args.span_file)
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    docs, errors = {}, _deterministic(stdouts)
    for name, outs in stdouts.items():
        try:
            docs[name] = json.loads(next(o for o in outs if o is not None))
        except StopIteration:  # failed in every cycle: counted as failed operations
            pass
        except json.JSONDecodeError:
            errors.append((name, "stdout is not a JSON document"))
    try:
        errors += workloads.CHECKS[args.workload](args.seed, work, docs)
    except KeyError as exc:
        errors.append(("checks", f"an output lacks {exc}"))
    result.update(records=records, errors=errors, inputs=props, environment=_environment())
    if args.trace:
        # Scaled by the speed readings around each command, like end-to-end times.
        scaled = [speed.scaled(r["seconds"], readings[i], readings[i + 1])
                  for i, r in enumerate(records)]
        result["per_layer"] = _per_layer(modules["core"], tracer, docs, props, args.workload,
                                         args.seed, sum(scaled[len(ops):]), sum(scaled[:len(ops)]))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("inputs", "setup", "run"))
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--span-file")
    args = parser.parse_args(argv)
    work = Path(args.dir)

    if args.mode == "inputs":
        props = inputs.write_inputs(args.workload, args.seed, work)
        (work / "inputs.json").write_text(json.dumps(props), encoding="utf-8")
        return 0

    sys.path.insert(0, str(Path.cwd() / "src"))
    from mdpgeo import cli

    warmup, ops = workloads.plan(args.workload, args.seed, work)
    code, _, _, err = _run_command(cli, warmup)
    if code != 0:
        sys.stderr.write(f"warm-up command failed with exit code {code}:\n{err}")
        return 3
    if args.mode == "setup":
        print("ready", flush=True)
        return 0
    result = run(args, cli, ops)
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
