"""Command-line front end and on-disk formats.

Models travel as JSON ({"version": 1, "n_states", "gamma", "actions": [...]},
unknown fields rejected, floats at full precision); per-iteration traces as
CSV with one row per iterate and 17-significant-digit numbers, so every
float round-trips exactly.  Every command emits a deterministic JSON summary
on stdout carrying sha256 hashes of its input files; timestamps never enter
any output.  Files are written atomically (temp file + rename).

Flags can also be provided through MDPGEO_-prefixed environment variables
(e.g. MDPGEO_ALPHA); an explicit flag wins.

Exit codes: 0 success, 2 iteration-cap abort, 64 usage, 65 invalid data,
66 missing input, 73 output cannot be written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import typing

import numpy as np

from .analysis import certify, certify_alpha
from .core import Mdp, ModelError, Policy, policy_from_ids, validate
from .gen import STRUCTURES, GenSpec, generate
from .solvers import (
    ConfigError,
    RunTrace,
    ViConfig,
    max_reward_policy,
    policy_iteration,
    value_iteration,
)
from .transforms import GAMMA_FLOOR, effective_gamma, normalize

EX_OK = 0
EX_CAP = 2
EX_USAGE = 64
EX_DATAERR = 65
EX_NOINPUT = 66
EX_CANTCREAT = 73

_MDP_KEYS = {"version", "n_states", "gamma", "actions"}
_ACTION_KEYS = {"id", "state", "probs", "reward"}
_SPEC_TYPES = typing.get_type_hints(GenSpec)


# ---------------------------------------------------------------------------
# file formats


_ITEM = ",\n        "  # between two probabilities at indent=2
_PROBS = json.JSONEncoder(separators=(_ITEM, ": "))  # no indent: json's C encoder


def _probs_items(p: np.ndarray) -> str:
    nz = np.flatnonzero((p != 0.0) | np.signbit(p))
    items = ["0.0"] * p.size  # encode the entries other than +0.0 only
    for k, x in zip(nz.tolist(), _PROBS.encode(p[nz].tolist())[1:-1].split(_ITEM)):
        items[k] = x
    return _ITEM.join(items)


def mdp_to_json(mdp: Mdp) -> str:
    """The model exactly as ``json.dumps(doc, indent=2) + "\\n"`` prints it.

    Each probability row is encoded on its own and spliced into the fixed
    indent=2 layout; ids, states and rewards go through ``json.dumps``.
    """
    parts = [f'{{\n  "version": 1,\n  "n_states": {json.dumps(mdp.n_states)},\n'
             f'  "gamma": {json.dumps(mdp.gamma)},\n  "actions": [']
    sep = "\n"
    for aid, state, p, reward in zip(mdp.ids, mdp.state_of.tolist(), mdp.P,
                                     mdp.rewards.tolist()):
        probs = f"[\n        {_probs_items(p)}\n      ]" if p.size else "[]"
        parts.append(
            f'{sep}    {{\n      "id": {json.dumps(aid)},\n      "state": {json.dumps(state)},'
            f'\n      "probs": {probs},\n      "reward": {json.dumps(reward)}\n    }}'
        )
        sep = ",\n"
    parts.append("\n  ]\n}\n" if mdp.m else "]\n}\n")
    return "".join(parts)


def _fields(doc, keys: set[str], what: str, optional: frozenset[str] = frozenset()) -> None:
    if not isinstance(doc, dict):
        raise ModelError(f"{what} must be a JSON object")
    for problem, names in (("unknown", set(doc) - keys - optional), ("missing", keys - set(doc))):
        if names:
            raise ModelError(f"{what} has {problem} fields: {sorted(names)}")


def _typed(value, kind: type, what: str):
    """``value`` as ``kind`` (int, float or str) when JSON gave it that type; a bool
    never passes and an integer passes as a float.  ModelError otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ModelError(f"{what} must be a JSON {kind.__name__}, got {type(value).__name__}")
    try:
        return kind(value)
    except OverflowError:
        raise ModelError(f"{what} is out of range for a float") from None


def _parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ModelError(f"{what} is not valid JSON: {exc}") from None


def mdp_from_json(text: str) -> Mdp:
    doc = _parse_json(text, "model file")
    _fields(doc, _MDP_KEYS, "model file")
    if doc["version"] != 1:
        raise ModelError(f"unsupported model file version {doc['version']!r}")
    if not isinstance(doc["actions"], list):
        raise ModelError("model actions must be a JSON list")
    n = _typed(doc["n_states"], int, "model n_states")
    gamma = _typed(doc["gamma"], float, "model gamma")
    ids, states, rewards = [], [], []
    for entry in doc["actions"]:
        _fields(entry, _ACTION_KEYS, "action")
        ids.append(_typed(entry["id"], str, "action id"))
        states.append(_typed(entry["state"], int, f"action {entry['id']!r} state"))
        rewards.append(_typed(entry["reward"], float, f"action {entry['id']!r} reward"))
    try:  # one array from all rows: its dtype tells whether every entry is a number
        P = np.array([entry["probs"] for entry in doc["actions"]])
    except (ValueError, OverflowError) as exc:
        raise ModelError(f"action probs are malformed: {exc}") from None
    if ids and P.dtype.kind not in "iuf":
        raise ModelError("action probs must be JSON lists of numbers")
    mdp = Mdp.from_arrays(n, gamma, ids, states, P, rewards)
    validate(mdp)
    return mdp


def _f17(x: float) -> str:
    return f"{x:.17g}"


def trace_to_csv(trace: RunTrace) -> str:
    n = trace.values.shape[1]
    header = ["t", "span_v", "span_dv", "active_actions", "stop_reason_final"]
    header += [f"value_{i}" for i in range(n)]
    lines = [",".join(header)]
    for t in range(trace.values.shape[0]):
        row = [
            str(t),
            _f17(trace.span_v[t]),
            _f17(trace.span_dv[t]),
            str(int(trace.active_counts[t])),
            trace.stop_reason,
        ]
        row += [_f17(x) for x in trace.values[t]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def trace_from_csv(text: str, gamma: float = float("nan")) -> RunTrace:
    """Rebuild a trace from CSV; per-step policies are not stored on disk."""
    lines = [ln for ln in text.split("\n") if ln]
    header = lines[0].split(",") if lines else []
    expected = ["t", "span_v", "span_dv", "active_actions", "stop_reason_final"]
    if header[: len(expected)] != expected:
        raise ModelError("trace file has an unexpected header")
    values, span_v, span_dv, counts = [], [], [], []
    stop_reason = ""
    for t, ln in enumerate(lines[1:]):
        parts = ln.split(",")
        if len(parts) != len(header):
            raise ModelError(f"trace row {t} has {len(parts)} fields, expected {len(header)}")
        try:
            if int(parts[0]) != t:
                raise ValueError(f"t={parts[0]}, expected {t}")
            span_v.append(float(parts[1]))
            span_dv.append(float(parts[2]))
            counts.append(np.intp(parts[3]))
            values.append([float(x) for x in parts[5:]])
        except (ValueError, OverflowError) as exc:
            raise ModelError(f"trace row {t} is malformed: {exc}") from None
        stop_reason = parts[4]
    if not values:
        raise ModelError("trace file has no data rows")
    values, span_v = np.array(values), np.array(span_v)
    if not (np.isfinite(values).all() and np.isfinite(span_v).all()):
        raise ModelError("trace file has non-finite values or spans")
    return RunTrace(
        gamma=gamma,
        alpha=float("nan"),
        schedule="unknown",
        values=values,
        span_v=span_v,
        span_dv=np.array(span_dv),
        active_counts=np.array(counts, dtype=np.intp),
        policies=(),
        filtered=(),
        stop_reason=stop_reason,
        final_policy=None,
    )


# ---------------------------------------------------------------------------
# plumbing


class _InputError(Exception):
    pass


class _OutputError(Exception):
    pass


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".mdpgeo-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise _OutputError(f"cannot write {path}: {exc}") from exc


def _read_list(path: str, what: str, kind: type) -> tuple:
    """A side input holding a JSON list whose entries are all of ``kind`` (see ``_typed``)."""
    doc = _parse_json(_read_text(path), what)
    if not isinstance(doc, list):
        raise ModelError(f"{what} must be a JSON list")
    return tuple(_typed(x, kind, f"{what} entry") for x in doc)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _load_mdp(path: str) -> tuple[Mdp, str]:
    text = _read_text(path)
    return mdp_from_json(text), _sha256(text)


def _emit(doc: dict, out_path: str | None) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if out_path:
        _write_text(out_path, text)
    sys.stdout.write(text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error:usage:{message}\n")
        raise SystemExit(EX_USAGE)


def _env(name: str, fallback=None):
    return os.environ.get(f"MDPGEO_{name}", fallback)


def _stop_spec(text: str):
    if text == "actions":
        return ("actions", None)
    kind, sep, value = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"bad stop spec {text!r}")
    try:
        if kind == "time":
            return ("time", int(value))
        if kind == "span":
            return ("span", float(value))
        if kind == "vspan":
            return ("value_span", float(value))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad stop value in {text!r}") from None
    raise argparse.ArgumentTypeError(f"unknown stop rule {text!r}")


def _schedule_spec(text: str):
    if text == "sync":
        return ("sync", None)
    kind, sep, value = text.partition(":")
    if kind == "rr" and sep:
        try:
            return ("round_robin", int(value))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad round-robin count in {text!r}") from None
    raise argparse.ArgumentTypeError(f"unknown schedule {text!r}")


def _v0_spec(text: str):
    if text in ("zeros", "upper"):
        return (text, None)
    kind, sep, value = text.partition(":")
    if kind == "file" and sep:
        return ("file", value)
    raise argparse.ArgumentTypeError(f"unknown v0 choice {text!r}")


# ---------------------------------------------------------------------------
# commands


def _cmd_generate(args) -> int:
    if args.spec:
        doc = _parse_json(_read_text(args.spec), "spec file")
        _fields(doc, {"n_states", "gamma"}, "spec file", optional=frozenset(_SPEC_TYPES))
        doc.setdefault("seed", args.seed)
        spec = GenSpec(**{k: _typed(v, _SPEC_TYPES[k], f"spec {k}") for k, v in doc.items()})
    else:
        spec = GenSpec(
            n_states=args.n_states,
            gamma=args.gamma,
            seed=args.seed,
            structure=args.structure,
            min_actions=args.min_actions,
            max_actions=args.max_actions,
            sparse_k=args.sparse_k,
            bonus_beta=args.beta,
        )
    mdp = generate(spec)
    text = mdp_to_json(mdp)
    _write_text(args.out, text)
    _emit(
        {
            "version": 1,
            "command": "generate",
            "seed": spec.seed,
            "structure": spec.structure,
            "n_states": mdp.n_states,
            "n_actions": mdp.m,
            "gamma": mdp.gamma,
            "output_hash": _sha256(text),
        },
        None,
    )
    return EX_OK


def _cmd_solve_vi(args) -> int:
    mdp, mdp_hash = _load_mdp(args.mdp)
    stop_kind, stop_val = args.stop
    sched_kind, sched_k = args.schedule
    v0_kind, v0_arg = args.v0
    v0_values = None
    if v0_kind == "file":
        v0_values = _read_list(v0_arg, "values file", float)
        v0_kind = "given"
    elif v0_kind == "upper":
        v0_kind = "upper_bound"
    cfg = ViConfig(
        alpha=args.alpha,
        stop=stop_kind,
        t_max=stop_val if stop_kind == "time" else None,
        epsilon=stop_val if stop_kind in ("span", "value_span") else None,
        filter=args.filter,
        schedule=sched_kind,
        round_robin_k=sched_k or 1,
        v0=v0_kind,
        v0_values=v0_values,
    )
    trace = value_iteration(mdp, cfg)
    if args.trace:
        _write_text(args.trace, trace_to_csv(trace))
    _emit(
        {
            "version": 1,
            "command": "solve-vi",
            "policy": list(trace.final_policy.choice),
            "values": [float(x) for x in trace.values[-1]],
            "iterations": trace.iterations,
            "stop_reason": trace.stop_reason,
            "active_actions": int(trace.active_counts[-1]),
            "trace_hash": trace.content_hash(),
            "input_hashes": {"mdp": mdp_hash},
        },
        args.out,
    )
    return EX_OK if trace.converged else EX_CAP


def _cmd_solve_pi(args) -> int:
    mdp, mdp_hash = _load_mdp(args.mdp)
    if args.pi0 == "maxreward":
        pi0 = max_reward_policy(mdp)
    elif args.pi0 == "first":
        pi0 = Policy(choice=tuple(mdp.ids[rows[0]] for rows in mdp.state_rows))
    else:
        pi0 = policy_from_ids(mdp, _read_list(args.pi0, "policy file", str))
    policy, trace = policy_iteration(mdp, pi0)
    _emit(
        {
            "version": 1,
            "command": "solve-pi",
            "policy": list(policy.choice),
            "values": [float(x) for x in policy.values],
            "iterations": trace.iterations,
            "policy_sequence": [list(c) for c in trace.policies],
            "input_hashes": {"mdp": mdp_hash},
        },
        args.out,
    )
    return EX_OK


def _cmd_normalize(args) -> int:
    mdp, mdp_hash = _load_mdp(args.mdp)
    normalized, policy, log = normalize(mdp)
    text = mdp_to_json(normalized)
    _write_text(args.out, text)
    _emit(
        {
            "version": 1,
            "command": "normalize",
            "optimal_policy": list(policy.choice),
            "shifts": [
                {"state": step.state, "delta": step.delta} for step in log.steps
            ],
            "output_hash": _sha256(text),
            "input_hashes": {"mdp": mdp_hash},
        },
        None,
    )
    return EX_OK


def _cmd_gamma_eff(args) -> int:
    mdp, mdp_hash = _load_mdp(args.mdp)
    gamma_eff, log = effective_gamma(mdp)
    _emit(
        {
            "version": 1,
            "command": "gamma-eff",
            "gamma": mdp.gamma,
            "gamma_eff": gamma_eff,
            "clamped": bool(gamma_eff <= GAMMA_FLOOR),
            "steps": [
                {"state": s.state, "gamma_to": s.gamma_to} for s in log.steps
            ],
            "input_hashes": {"mdp": mdp_hash},
        },
        args.out,
    )
    return EX_OK


def _cmd_certify(args) -> int:
    mdp, mdp_hash = _load_mdp(args.mdp)
    trace_text = _read_text(args.trace)
    trace = trace_from_csv(trace_text, gamma=mdp.gamma)
    if args.alpha is None:
        cert = certify(mdp, trace, epsilon=args.epsilon)
    else:
        cert = certify_alpha(mdp, trace, alpha=args.alpha, epsilon=args.epsilon)
    doc = {"version": 1, "command": "certify"}
    doc.update(cert.to_dict())
    doc["input_hashes"] = {"mdp": mdp_hash, "trace": _sha256(trace_text)}
    _emit(doc, args.out)
    return EX_OK


def _cmd_twostate(args) -> int:
    from .acceptance import run_twostate_suite
    from .twostate import inefficiency_certificate, verify_pi_bound

    if args.mdp:
        mdp, mdp_hash = _load_mdp(args.mdp)
        report = verify_pi_bound(mdp)
        doc = {
            "version": 1,
            "command": "twostate",
            "action_count": report.action_count,
            "max_pi_iterations": report.max_iterations,
            "set_sizes": report.set_sizes,
            "violations": len(report.violations),
            "violation_details": report.violations,
            "input_hashes": {"mdp": mdp_hash},
        }
        if mdp.m >= 3:
            doc["certificate"] = inefficiency_certificate(mdp).to_dict()
        _emit(doc, args.out)
        return EX_OK if report.ok else EX_DATAERR

    result = run_twostate_suite(
        n_instances=args.suite, max_actions=args.max_actions, seed=args.seed
    )
    doc = {"version": 1, "command": "twostate"}
    doc.update(result)
    _emit(doc, args.out)
    return EX_OK if result["violations"] == 0 else EX_DATAERR


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> _Parser:
    parser = _Parser(prog="mdpgeo", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a seeded random model")
    g.add_argument("--seed", type=int, required=_env("SEED") is None, default=_env("SEED"))
    g.add_argument("--n-states", type=int, default=_env("N_STATES", "2"))
    g.add_argument("--gamma", type=float, default=_env("GAMMA", "0.9"))
    g.add_argument("--structure", choices=STRUCTURES, default=_env("STRUCTURE", "dense"))
    g.add_argument("--min-actions", type=int, default=_env("MIN_ACTIONS", "1"))
    g.add_argument("--max-actions", type=int, default=_env("MAX_ACTIONS", "4"))
    g.add_argument("--sparse-k", type=int, default=_env("SPARSE_K", "2"))
    g.add_argument("--beta", type=float, default=_env("BETA", "0.5"))
    g.add_argument("--spec", default=_env("SPEC"), help="GenSpec JSON file")
    g.add_argument("--out", required=_env("OUT") is None, default=_env("OUT"))
    g.set_defaults(func=_cmd_generate)

    vi = sub.add_parser("solve-vi", help="run value iteration")
    vi.add_argument("--mdp", required=_env("MDP") is None, default=_env("MDP"))
    vi.add_argument("--alpha", type=float, default=_env("ALPHA", "1.0"))
    vi.add_argument("--stop", type=_stop_spec, default=_env("STOP", "span:1e-6"))
    vi.add_argument("--filter", choices=("none", "appendix"), default=_env("FILTER", "none"))
    vi.add_argument("--schedule", type=_schedule_spec, default=_env("SCHEDULE", "sync"))
    vi.add_argument("--v0", type=_v0_spec, default=_env("V0", "zeros"))
    vi.add_argument("--trace", default=_env("TRACE"))
    vi.add_argument("--out", default=_env("OUT"))
    vi.set_defaults(func=_cmd_solve_vi)

    pi = sub.add_parser("solve-pi", help="run Howard policy iteration")
    pi.add_argument("--mdp", required=_env("MDP") is None, default=_env("MDP"))
    pi.add_argument("--pi0", default=_env("PI0", "maxreward"),
                    help="maxreward | first | path to a JSON list of action ids")
    pi.add_argument("--out", default=_env("OUT"))
    pi.set_defaults(func=_cmd_solve_pi)

    nm = sub.add_parser("normalize", help="shift rewards so optimal values are 0")
    nm.add_argument("--mdp", required=_env("MDP") is None, default=_env("MDP"))
    nm.add_argument("--out", required=_env("OUT") is None, default=_env("OUT"))
    nm.set_defaults(func=_cmd_normalize)

    ge = sub.add_parser("gamma-eff", help="lowest safely reachable discount factor")
    ge.add_argument("--mdp", required=_env("MDP") is None, default=_env("MDP"))
    ge.add_argument("--out", default=_env("OUT"))
    ge.set_defaults(func=_cmd_gamma_eff)

    ce = sub.add_parser("certify", help="convergence certificate from a trace")
    ce.add_argument("--mdp", required=_env("MDP") is None, default=_env("MDP"))
    ce.add_argument("--trace", required=_env("TRACE") is None, default=_env("TRACE"))
    ce.add_argument("--alpha", type=float, default=_env("CERT_ALPHA"))
    ce.add_argument("--epsilon", type=float, default=_env("EPSILON", "1e-6"))
    ce.add_argument("--out", default=_env("OUT"))
    ce.set_defaults(func=_cmd_certify)

    ts = sub.add_parser("twostate", help="two-state bound verification")
    ts.add_argument("--mdp", default=_env("MDP"))
    ts.add_argument("--suite", type=int, default=_env("SUITE"))
    ts.add_argument("--max-actions", type=int, default=_env("MAX_ACTIONS", "12"))
    ts.add_argument("--seed", type=int, default=_env("SEED", "0"))
    ts.add_argument("--out", default=_env("OUT"))
    ts.set_defaults(func=_cmd_twostate)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "command", None) == "twostate" and not args.mdp and not args.suite:
        sys.stderr.write("error:usage:twostate needs either --mdp or --suite\n")
        return EX_USAGE
    try:
        return args.func(args)
    except _InputError as exc:
        sys.stderr.write(f"error:input:{exc}\n")
        return EX_NOINPUT
    except _OutputError as exc:
        sys.stderr.write(f"error:output:{exc}\n")
        return EX_CANTCREAT
    except ConfigError as exc:
        sys.stderr.write(f"error:config:{exc}\n")
        return EX_USAGE
    except ValueError as exc:  # ModelError, AssumptionError, CertificationError, ...
        sys.stderr.write(f"error:{type(exc).__name__}:{exc}\n")
        return EX_DATAERR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
