"""Acceptance suite: one runner per criterion, shared by pytest and the CLI.

Each criterion function draws its own seeded instances, runs the check at
its stated tolerance, and returns a result with a one-line summary.  The
heavier suites cache their artifacts so the error-recursion criterion can
re-walk the exact traces produced by the contraction and stop-rule suites.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import analysis, gen, twostate
from .core import Mdp, Policy, advantages, policy_rows, row_spans
from .gen import GenSpec, generate
from .solvers import ViConfig, evaluate_policy, policy_iteration, solve_exact, value_iteration
from .transforms import apply_J, normalize, state_slack

__all__ = ["CriterionResult", "all_criteria", "run_criterion", "run_twostate_suite"]

_GAMMAS = (0.5, 0.9, 0.99)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    runtime_s: float


def _instance(seed: int, n: int, gamma: float, structure: str = "dense",
              max_actions: int = 4, min_actions: int = 1) -> Mdp:
    return generate(GenSpec(n_states=n, gamma=gamma, seed=seed, structure=structure,
                            min_actions=min_actions, max_actions=max_actions))


def _rescaled_v0(rng: np.random.Generator, n: int, target_span: float) -> np.ndarray:
    while True:
        u = rng.uniform(size=n)
        if u.max() - u.min() > 1e-9:
            return (u - u.min()) / (u.max() - u.min()) * target_span


def _timed(number: int, name: str, fn) -> CriterionResult:
    t0 = time.perf_counter()
    passed, detail = fn()
    return CriterionResult(number, name, passed, detail, time.perf_counter() - t0)


# --------------------------------------------------------------------------
# 1. discount-change invariance


def criterion_1() -> CriterionResult:
    def run():
        worst_adv = 0.0
        worst_span = 0.0
        checked = 0
        for i in range(1000):
            n = 2 + i % 5
            gamma = _GAMMAS[i % 3]
            structure = "dense" if i % 2 == 0 else "sparse"
            mdp = _instance(10_000 + i, n, gamma, structure)
            rng = np.random.default_rng(20_000 + i)
            pseudo = rng.uniform(-5.0, 5.0, size=(20, n))
            adv0 = np.stack([advantages(mdp, v) for v in pseudo])
            sp0 = row_spans(pseudo)
            slack = state_slack(mdp)
            for s in range(n):
                targets = []
                if slack[s] > 1e-9:
                    targets.append(max(gamma - slack[s] * rng.uniform(0.2, 1.0), 1e-6))
                targets.append(gamma + (1.0 - gamma) * 0.5 * rng.uniform())
                for g2 in targets:
                    new, change = apply_J(mdp, s, g2)
                    mapped = np.stack([change.map_values(v) for v in pseudo])
                    adv1 = np.stack([advantages(new, v) for v in mapped])
                    worst_adv = max(worst_adv, float(np.max(np.abs(adv1 - adv0))))
                    worst_span = max(worst_span, float(np.max(np.abs(row_spans(mapped) - sp0))))
                    checked += 1
        ok = worst_adv < 1e-8 and worst_span < 1e-8
        return ok, (
            f"{checked} transforms over 1000 models; max advantage error "
            f"{worst_adv:.2e}, max span error {worst_span:.2e}"
        )

    return _timed(1, "discount-change invariance", run)


# --------------------------------------------------------------------------
# 2. identical solver dynamics across transforms


def criterion_2() -> CriterionResult:
    def run():
        mismatches = 0
        for i in range(200):
            n = 2 + i % 5
            gamma = _GAMMAS[i % 3]
            mdp = _instance(30_000 + i, n, gamma)
            pi0 = Policy(choice=tuple(mdp.ids[rows[0]] for rows in mdp.state_rows))
            _, base = policy_iteration(mdp, pi0)

            norm, _, _ = normalize(mdp)
            _, on_norm = policy_iteration(norm, pi0)

            slack = state_slack(mdp)
            s = int(np.argmax(slack))
            if slack[s] > 1e-6:
                image, _ = apply_J(mdp, s, max(gamma - slack[s] / 2.0, 1e-6))
            else:
                image, _ = apply_J(mdp, 0, gamma + (1.0 - gamma) / 2.0)
            _, on_image = policy_iteration(image, pi0)

            for other in (on_norm, on_image):
                if other.iterations != base.iterations or other.policies != base.policies:
                    mismatches += 1
        return mismatches == 0, f"200 instances, {mismatches} mismatched runs"

    return _timed(2, "solver dynamics invariance", run)


# --------------------------------------------------------------------------
# 3. certified span contraction (and measured rate below gamma)


@cache
def _contraction_artifacts():
    artifacts = []
    for i in range(300):
        n = 2 + i % 5
        gamma = (0.5, 0.9, 0.95)[i % 3]
        mdp = _instance(40_000 + i, n, gamma, structure="planted_optimal", min_actions=2)
        norm, _, _ = normalize(mdp)
        rng = np.random.default_rng(41_000 + i)
        v0 = _rescaled_v0(rng, n, 2.0 / (1.0 - gamma))
        # shorter window at gamma=0.5: spans contract so fast that a longer
        # trace would drive them under the rate-measurement floor
        cfg = ViConfig(stop="time", t_max=12 if gamma == 0.5 else 20,
                       v0="given", v0_values=tuple(v0))
        trace = value_iteration(norm, cfg)
        cert = analysis.certify(norm, trace)
        rate = analysis.empirical_rate(trace)
        sol = solve_exact(norm)
        artifacts.append((norm, trace, sol, cert, rate))
    return artifacts


def criterion_3() -> CriterionResult:
    def run():
        artifacts = _contraction_artifacts()
        min_margin = min(a[3].margin for a in artifacts)
        max_rate_gap = max(a[4] - a[0].gamma for a in artifacts)
        ok = min_margin >= 0.0 and max_rate_gap < 0.0
        return ok, (
            f"300 planted instances; min certificate margin {min_margin:.3e}, "
            f"max (rate - gamma) {max_rate_gap:.3e}"
        )

    return _timed(3, "certified span contraction", run)


# --------------------------------------------------------------------------
# 4. rate equals gamma exactly when the optimal matrix is a permutation


def criterion_4() -> CriterionResult:
    def run():
        worst = 0.0
        for i in range(100):
            n = 2 + i % 5
            gamma = _GAMMAS[i % 3]
            mdp = generate(GenSpec(n_states=n, gamma=gamma, seed=50_000 + i,
                                   structure="periodic_optimal",
                                   min_actions=1, max_actions=1))
            norm, _, _ = normalize(mdp)
            rng = np.random.default_rng(51_000 + i)
            v0 = _rescaled_v0(rng, n, 4.0)
            cfg = ViConfig(stop="time", t_max=25, v0="given", v0_values=tuple(v0))
            trace = value_iteration(norm, cfg)
            rate = analysis.empirical_rate(trace)
            worst = max(worst, abs(rate - gamma))
        return worst <= 1e-6, f"100 permutation instances; max |rate - gamma| {worst:.2e}"

    return _timed(4, "rate pinned at gamma without mixing", run)


# --------------------------------------------------------------------------
# 5. two-state policy-iteration bound


def run_twostate_suite(n_instances: int, max_actions: int = 12, seed: int = 0) -> dict:
    """Exhaustive two-state checks over seeded random instances.

    Per instance: Howard iteration from every start stays within the action
    count, the produce/form dynamics lose an action per round, and (for
    three or more actions, nondegenerate slopes) a named inefficient action
    exists and is indeed never produced.  Instances are checked in one batch per
    pair of action counts; one that fails is checked alone, which words why.
    """
    per_state = max(1, max_actions // 2)
    specs = [GenSpec(n_states=2, gamma=_GAMMAS[i % 3], seed=seed + i, structure="dense",
                     min_actions=1, max_actions=min(per_state, 6)) for i in range(n_instances)]
    groups: dict[tuple[int, ...], list] = {}
    for i, spec in enumerate(specs):
        counts, _, P, rewards = gen._draw(np.random.default_rng(spec.seed), spec)
        groups.setdefault(tuple(counts.tolist()), []).append((i, P, rewards))
    worst, degenerate, (certified, flagged) = 0, 0, np.zeros((2, n_instances), dtype=bool)
    for (k0, k1), group in groups.items():
        index, P, rewards = map(np.array, zip(*group))
        report = twostate.check_batch(np.array(_GAMMAS)[index % 3], P, rewards, k0)
        worst, flagged[index] = max(worst, int(report["max_iterations"].max())), ~report["ok"]
        if k0 + k1 >= 3:
            certified[index], margins = ~report["degenerate"], report["min_margins"]
            degenerate += int(report["degenerate"].sum())
            flagged[index] |= certified[index] & (report["produced"] | (margins[:, 1] <= 0.0)
                                                  | (margins.min(axis=1) < -1e-12))
    violations: list[str] = []
    for i in np.flatnonzero(flagged).tolist():  # checked alone, as one model
        report = twostate.verify_pi_bound(mdp := generate(specs[i]))
        violations.extend(f"seed {seed + i}: {v}" for v in report.violations)
        if certified[i]:
            cert = twostate.inefficiency_certificate(mdp)
            if cert.inefficient_action in report.sets[1]:  # what the full set produces
                violations.append(
                    f"seed {seed + i}: named action {cert.inefficient_action} was produced"
                )
            if min(cert.min_margins) < -1e-12 or cert.min_margins[1] <= 0.0:
                violations.append(f"seed {seed + i}: certificate chain margins failed")
    return {
        "instances": n_instances,
        "max_actions": max_actions,
        "seed": seed,
        "violations": len(violations),
        "violation_details": violations[:20],
        "degenerate": degenerate,
        "certificates": int(certified.sum()),
        "max_pi_iterations": worst,
    }


def criterion_5() -> CriterionResult:
    def run():
        result = run_twostate_suite(10_000, max_actions=12, seed=60_000)
        ok = result["violations"] == 0
        return ok, (
            f"10000 instances; {result['certificates']} certificates, "
            f"{result['degenerate']} degenerate, max PI iterations "
            f"{result['max_pi_iterations']}, {result['violations']} violations"
        )

    return _timed(5, "two-state iteration bound", run)


# --------------------------------------------------------------------------
# 6. span stop yields epsilon-optimal policies


@cache
def _stop_rule_artifacts():
    artifacts = []
    for i in range(200):
        n = 2 + i % 2
        gamma = _GAMMAS[i % 3]
        mdp = _instance(70_000 + i, n, gamma, structure="dense", max_actions=4)
        sol = solve_exact(mdp)  # brute cross-checked at this size
        for eps in (1e-2, 1e-4):
            cfg = ViConfig(stop="span", epsilon=eps)
            trace = value_iteration(mdp, cfg)
            artifacts.append((mdp, trace, sol, eps))
    return artifacts


def criterion_6() -> CriterionResult:
    def run():
        violations = 0
        worst = -np.inf
        for mdp, trace, sol, eps in _stop_rule_artifacts():
            if trace.stop_reason != "span":
                violations += 1
                continue
            v_pi = evaluate_policy(mdp, trace.final_policy)
            gap = float(np.max(sol.values - v_pi))
            worst = max(worst, gap / eps)
            if gap >= eps:
                violations += 1
        ok = violations == 0
        return ok, (
            f"400 runs (200 instances x 2 accuracies); worst gap/epsilon "
            f"{worst:.3f}, {violations} violations"
        )

    return _timed(6, "span-stop epsilon-optimality", run)


# --------------------------------------------------------------------------
# 7. action filtering: sound and complete


def criterion_7() -> CriterionResult:
    def run():
        unsound = 0
        incomplete = 0
        checked_drops = 0
        for i in range(200):
            n = 2 + i % 4
            gamma = (0.5, 0.9)[i % 2]
            mdp = _instance(80_000 + i, n, gamma, structure="dense", max_actions=4)
            sol = solve_exact(mdp)
            cfg = ViConfig(stop="actions", filter="appendix", v0="upper_bound")
            trace = value_iteration(mdp, cfg)
            adv_star = advantages(mdp, sol.values)
            dropped = [aid for batch in trace.filtered for aid in batch]
            checked_drops += len(dropped)
            for aid in dropped:
                if adv_star[mdp.row_of[aid]] >= 0.0:
                    unsound += 1
            if sol.unique:
                survivors = set(mdp.ids) - set(dropped)
                if trace.stop_reason != "actions" or survivors != set(sol.policy.choice):
                    incomplete += 1
        ok = unsound == 0 and incomplete == 0
        return ok, (
            f"200 instances, {checked_drops} filtered actions checked against the "
            f"oracle; {unsound} unsound, {incomplete} incomplete"
        )

    return _timed(7, "action filtering soundness/completeness", run)


# --------------------------------------------------------------------------
# 8. learning-rate certificate


def criterion_8() -> CriterionResult:
    def run():
        min_margin = np.inf
        exponent_ok = True
        for i in range(100):
            n = 2 + i % 5
            gamma = (0.5, 0.9, 0.95)[i % 3]
            mdp = _instance(90_000 + i, n, gamma, structure="planted_optimal", min_actions=2)
            rng = np.random.default_rng(91_000 + i)
            v0 = _rescaled_v0(rng, n, 2.0 / (1.0 - gamma))
            for alpha in (0.3, 0.7):
                cfg = ViConfig(alpha=alpha, stop="time", t_max=20,
                               v0="given", v0_values=tuple(v0))
                trace = value_iteration(mdp, cfg)
                cert = analysis.certify_alpha(mdp, trace, alpha=alpha)
                min_margin = min(min_margin, cert.margin)
                if cert.N_alpha > n - 1:
                    exponent_ok = False
        ok = min_margin >= 0.0 and exponent_ok
        return ok, (
            f"100 instances x 2 learning rates; min margin {min_margin:.3e}, "
            f"exponents within n-1: {exponent_ok}"
        )

    return _timed(8, "learning-rate certificate", run)


# --------------------------------------------------------------------------
# 9. extremal primitivity exponent


def criterion_9() -> CriterionResult:
    def run():
        results = []
        for n in (4, 5, 6):
            mdp = generate(GenSpec(n_states=n, gamma=0.9, seed=95_000 + n,
                                   structure="wielandt", min_actions=2, max_actions=3))
            sol = solve_exact(mdp)
            p_star = mdp.P[policy_rows(mdp, sol.policy)]
            prim = analysis.primitivity(p_star)
            results.append((n, prim[0] if prim else None, analysis.wielandt_bound(n)))
        ok = all(got == want for _, got, want in results)
        return ok, "; ".join(f"n={n}: N={got} (bound {want})" for n, got, want in results)

    return _timed(9, "extremal primitivity exponent", run)


# --------------------------------------------------------------------------
# 10. per-step error recursion on the suite traces


def criterion_10() -> CriterionResult:
    def run():
        worst = 0.0
        worst_eq = 0.0
        traces = 0
        for mdp, trace, sol, *_ in list(_contraction_artifacts()) + list(_stop_rule_artifacts()):
            report = analysis.check_error_recursion(mdp, trace, sol)
            worst = max(worst, report.max_violation)
            worst_eq = max(worst_eq, report.max_equality_gap)
            traces += 1
        ok = worst <= 1e-9 and worst_eq <= 1e-9
        return ok, (
            f"{traces} traces; max recursion violation {worst:.2e}, "
            f"max equality gap {worst_eq:.2e}"
        )

    return _timed(10, "error recursion on suite traces", run)


_CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
}


def run_criterion(number: int) -> CriterionResult:
    return _CRITERIA[number]()


def all_criteria() -> list[CriterionResult]:
    return [run_criterion(k) for k in sorted(_CRITERIA)]
