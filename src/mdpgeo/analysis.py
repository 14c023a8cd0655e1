"""Convergence certificates and theorem-level checkers.

A certificate packages the ingredients that control how fast synchronous
value iteration contracts the value span on a normalized MDP whose optimal
transition matrix mixes: the primitivity exponent N of that matrix, the
minimum entry omega of its N-th power, the optimality gap delta of the
runner-up action, and the run-dependent factor tau < 1 multiplying gamma^N
in the certified block inequality  span(V_N) <= gamma^N * tau * span(V_0).

The learning-rate variant certifies the same kind of block inequality for
the error vector of a blended run, with the exponent bounded by n-1 because
the blend acts like a self-loop at every state.

Checkers for the supporting facts live here too: the advantage-difference
span bound, the measured per-iteration contraction rate, the per-step error
recursion, the greedy update sandwich, and the mixing-coefficient lower
bound.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, asdict
from math import inf, isfinite, log

import numpy as np

from .core import Mdp, ModelError, advantages, as_values, greedy, policy_rows, row_spans, span
from .solvers import ExactSolution, RunTrace, solve_exact
from . import transforms

__all__ = [
    "AssumptionError",
    "CertificationError",
    "ConvergenceCertificate",
    "ErrorRecursionReport",
    "LemmaReport",
    "MixingBoundReport",
    "certify",
    "certify_alpha",
    "check_error_recursion",
    "check_lemma_adv_span",
    "check_mixing_bound",
    "check_update_sandwich",
    "empirical_rate",
    "primitivity",
    "support_exponent_with_loops",
    "wielandt_bound",
]

DELTA_UNIQUE_TOL = 1e-9
NORMALIZED_TOL = 1e-6
RECURRENCE_TOL = 1e-9
RECURRENCE_BLOCK = 256  # trace steps checked per gemm


class AssumptionError(ValueError):
    """The certified statement's assumptions do not hold for this input."""


class CertificationError(ValueError):
    """The certificate cannot be computed from the given trace."""


def wielandt_bound(n: int) -> int:
    """Largest possible primitivity exponent of an n-state support graph."""
    return n * n - 2 * n + 2


def _check_stochastic(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ModelError(f"expected a square matrix, got shape {p.shape}")
    if np.any(p < 0.0) or np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-9):
        raise ModelError("matrix is not row-stochastic")
    return p


def _first_positive_power(b: np.ndarray, bound: int) -> int | None:
    """Smallest k >= 0 with b^k > 0 for a 0/1 float32 ``b`` without zero rows.

    Saves the squares b^(2^j) until one is positive or 2^j >= bound (None if
    that last one is not positive), then binary-searches: composing the
    squares from the top bit down builds the largest power that is not
    positive, b^(k-1).  Each product is one float32 sgemm clipped to 1; its
    entries count paths, integers <= n, exact for n < 2**24.
    """
    squares = [b]
    while not squares[-1].all() and 2 ** (len(squares) - 1) < bound:
        squares.append(np.minimum(squares[-1] @ squares[-1], 1.0))
    if not squares[-1].all():
        return None
    below, k = np.eye(len(b), dtype=np.float32), 0  # b^k, known not positive
    if below.all():  # n = 1
        return 0
    for j in reversed(range(len(squares) - 1)):
        trial = np.minimum(below @ squares[j], 1.0)
        if not trial.all():
            below, k = trial, k + 2**j
    return k + 1


def primitivity(p_star: np.ndarray) -> tuple[int, float] | None:
    """Smallest N with (P*)^N entrywise positive, and the minimum entry there.

    The exponent is found on the boolean support (so float underflow cannot
    flip a structurally positive entry to zero) by repeated squaring and a
    binary search over the saved squares.  The search is valid because a
    stochastic matrix has no zero row: row i of (P*)^(k+1) = P* (P*)^k mixes
    rows of (P*)^k, so once (P*)^k > 0 every later power is positive too.
    Omega is then read off the numeric matrix power.  Returns None when no
    exponent up to the structural bound n^2 - 2n + 2 works, i.e. the matrix
    is not primitive.
    """
    p = _check_stochastic(p_star)
    k = _first_positive_power((p > 0.0).astype(np.float32), wielandt_bound(len(p)))
    if k is None:
        return None
    N = max(k, 1)  # exponents start at 1; (P*)^0 = I is positive only for n = 1
    omega = float(np.linalg.matrix_power(p, N).min())
    return N, omega


def support_exponent_with_loops(p_star: np.ndarray) -> int:
    """Smallest k with (support(P*) + I)^k entrywise positive; at most n-1.

    Adding the identity models a blended update touching every state each
    round, which removes periodicity, so irreducibility alone bounds the
    exponent by n-1.  Found by the same search as :func:`primitivity`.
    """
    p = _check_stochastic(p_star)
    n = p.shape[0]
    k = _first_positive_power(((p > 0.0) | np.eye(n, dtype=bool)).astype(np.float32), n - 1)
    if k is None:
        raise AssumptionError("support graph is not irreducible: no exponent within n-1")
    return k


@dataclass
class ConvergenceCertificate:
    """Certified contraction data for one solver trace.

    Plain-rate fields (N, omega, phi, tau) are filled by :func:`certify`;
    the alpha fields by :func:`certify_alpha`; unused ones stay None.
    ``margin`` is the slack of the block inequality (negative means it
    failed; it is reported, never clamped).  Predicted iteration counts are
    evaluated at ``epsilon``.
    """

    n: int
    m: int
    gamma: float
    delta: float
    epsilon: float
    span_start: float
    span_end: float
    margin: float
    product_bound: float
    predicted_vi_iters: float
    predicted_pi_iters: float
    gamma_eff: float
    trace_hash: str
    N: int | None = None
    omega: float | None = None
    phi: float | None = None
    tau: float | None = None
    alpha: float | None = None
    N_alpha: int | None = None
    delta_alpha: float | None = None
    tau_alpha: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def _verify_sync_recurrence(mdp: Mdp, values: np.ndarray, alpha: float) -> np.ndarray:
    """Check that a trace is a synchronous greedy run with the given rate.

    Returns the per-step residuals max |V_{t+1} - (1-alpha) V_t - alpha u_t|,
    u_t the greedy backup of V_t.  Steps are checked RECURRENCE_BLOCK at a
    time, one ``P @ V.T`` gemm and one greedy pass each, so the work memory
    stays at RECURRENCE_BLOCK * m floats; the first failing step is reported.
    """
    if values.ndim != 2 or values.shape[1] != mdp.n_states:
        raise ModelError(f"trace values have shape {values.shape}, expected (T, {mdp.n_states})")
    steps = values.shape[0] - 1
    residuals = np.empty(steps)
    for t0 in range(0, steps, RECURRENCE_BLOCK):
        t1 = min(t0 + RECURRENCE_BLOCK, steps)
        v = values[t0:t1]
        u, _ = greedy(mdp, mdp.rewards[:, None] + mdp.gamma * (mdp.P @ v.T))
        expect = (1.0 - alpha) * v + alpha * u.T
        residuals[t0:t1] = np.max(np.abs(values[t0 + 1 : t1 + 1] - expect), axis=1)
        bad = np.nonzero(residuals[t0:t1] > RECURRENCE_TOL)[0]
        if bad.size:
            raise CertificationError(
                f"trace is not a synchronous greedy run with alpha={alpha} "
                f"(recurrence breaks at step {t0 + int(bad[0])})"
            )
    return residuals


def _optimum(mdp: Mdp, solution: ExactSolution | None,
             unnormalized: str | None = None) -> tuple[ExactSolution, np.ndarray, np.ndarray]:
    """The exact solution (``solution``, else solved here), its rows and P*; with an
    ``unnormalized`` message, AssumptionError with it unless V* ~ 0."""
    sol = solution or solve_exact(mdp)
    if unnormalized and float(np.max(np.abs(sol.values))) > NORMALIZED_TOL:
        raise AssumptionError(unnormalized)
    opt_rows = policy_rows(mdp, sol.policy)
    return sol, opt_rows, mdp.P[opt_rows]


def _step_products(a: np.ndarray, rows: np.ndarray | None, x: np.ndarray) -> np.ndarray:
    """Row t is ``a[rows[t]] @ x[t]`` (``a @ x[t]`` for rows None), one gemv per step as
    each step forms it alone, so every product keeps its bits; a batched gemm may not.
    A trace read from a file records no greedy rows: AssumptionError."""
    if rows is not None and len(rows) != len(x):
        raise AssumptionError(f"trace has {len(rows)} recorded greedy rows for {len(x)} steps")
    return np.array([(a if rows is None else a[rows[t]]) @ v
                     for t, v in enumerate(x)]).reshape(x.shape)


def _require_assumptions(mdp: Mdp, need_normalized: bool) -> tuple[ExactSolution, np.ndarray]:
    if mdp.n_states < 2:
        raise AssumptionError("certification needs at least two states")
    sol, _, p_star = _optimum(mdp, None, "MDP is not normalized: optimal values are not ~0"
                              if need_normalized else None)
    if not np.isfinite(sol.delta):
        raise AssumptionError("no actions outside the optimal policy; delta is undefined")
    if sol.delta <= DELTA_UNIQUE_TOL:
        raise AssumptionError(
            f"optimal policy is not unique within tolerance (delta={sol.delta:.3e})"
        )
    return sol, p_star


def _predicted_vi_iters(gamma: float, epsilon: float, tau: float, N: int) -> float:
    denom = log(1.0 / gamma) + (log(1.0 / tau) / N if tau > 0 else np.nan)
    if not np.isfinite(denom) or denom <= 0:
        return float("nan")
    return (log(1.0 / epsilon) + log(1.0 / (1.0 - gamma))) / denom


def _check_epsilon(epsilon: float) -> None:
    if not (0.0 < epsilon < inf):
        raise CertificationError(f"epsilon must be finite and > 0, got {epsilon}")


def _check_run(mdp: Mdp, trace: RunTrace, k: int, alpha: float) -> None:
    """Reject a trace shorter than the k-step block or not a synchronous greedy run."""
    if trace.iterations < k:
        raise CertificationError(
            f"trace has {trace.iterations} iterations but certification needs {k}"
        )
    _verify_sync_recurrence(mdp, trace.values, alpha=alpha)


def _certificate(mdp: Mdp, trace: RunTrace, sol: ExactSolution, epsilon: float,
                 spans: np.ndarray, k: int, factor: float, **fields) -> ConvergenceCertificate:
    """The fields both certificates share, for the block inequality
    spans[k] <= gamma^k * factor * spans[0]; ``fields`` adds the variant's own."""
    gamma = mdp.gamma
    gamma_eff, _ = transforms.effective_gamma(mdp)
    return ConvergenceCertificate(
        n=mdp.n_states,
        m=mdp.m,
        gamma=gamma,
        delta=sol.delta,
        epsilon=epsilon,
        span_start=float(spans[0]),
        span_end=float(spans[k]),
        margin=float(gamma**k * factor * spans[0] - spans[k]),
        product_bound=float(gamma**k * factor),
        predicted_vi_iters=_predicted_vi_iters(gamma, epsilon, factor, k),
        predicted_pi_iters=mdp.m / (1.0 - gamma_eff),
        gamma_eff=gamma_eff,
        trace_hash=trace.content_hash(),
        **fields,
    )


def certify(mdp: Mdp, trace: RunTrace, epsilon: float = 1e-6) -> ConvergenceCertificate:
    """Certify the N-step span contraction of a standard synchronous run.

    Requires a normalized MDP whose optimal transition matrix is primitive
    with a unique optimum, and a trace of at least N standard iterations
    (the recurrence is re-verified from the values, so traces loaded from
    files certify the same way as fresh ones); a block whose mixing factor
    phi is not a finite float is rejected, and an underflowing block names
    log10(n*phi) from the logs of phi's factors.  ``epsilon`` must be finite
    and positive, here and in :func:`certify_alpha`.
    """
    _check_epsilon(epsilon)
    sol, p_star = _require_assumptions(mdp, need_normalized=True)
    prim = primitivity(p_star)
    if prim is None:
        raise AssumptionError("optimal transition matrix is not primitive")
    N, omega = prim
    _check_run(mdp, trace, N, alpha=1.0)

    gamma = mdp.gamma
    spans = row_spans(trace.values[: N + 1])
    # phi chains the per-step mixing floors delta / (gamma * span(V_t)); each
    # step's floor uses the span of the iterate entering it, t = 0 .. N-1.
    block = spans[0:N]
    if np.any(block <= 0.0):
        raise CertificationError("a span inside the certified block vanished")
    denom = gamma**N * float(np.prod(block))
    if not denom >= sys.float_info.min:
        with np.errstate(divide="ignore"):  # an underflowed omega has log -inf
            log_nphi = float(log(mdp.n_states) + np.log(omega) + N * log(sol.delta)
                             - N * log(gamma) - np.log(block).sum()) / log(10)
        vacuous = "; n*phi >= 1, so tau <= 0 and the bound is vacuous" if log_nphi >= 0 else ""
        raise CertificationError(
            f"gamma^N times the block's span product underflows to {denom:.3e} at N={N}; "
            f"log10(n*phi) = {log_nphi:+.1f}{vacuous}")
    try:
        phi = omega * sol.delta**N / denom
    except OverflowError:  # delta**N
        phi = inf
    if not isfinite(phi):
        raise CertificationError(f"the mixing factor phi overflows at N={N}")
    tau = 1.0 - mdp.n_states * phi
    return _certificate(mdp, trace, sol, epsilon, spans, N, tau,
                        N=N, omega=omega, phi=phi, tau=tau)


def certify_alpha(
    mdp: Mdp, trace: RunTrace, alpha: float, epsilon: float = 1e-6
) -> ConvergenceCertificate:
    """Certify the blended-run block inequality on the error vector.

    The exponent counts rounds of (support + loops) reachability, so it is
    at most n-1.  The per-entry floor combines the slack alpha*delta' left
    by suboptimal choices with the (1-alpha)*gamma kept by the blend, where
    delta' = delta * (min positive entry of P*) / (gamma * max span of the
    errors entering the block): the optimal-matrix entry scales what a
    mixing step can guarantee for a single off-diagonal coordinate.
    """
    if not (0.0 < alpha < 1.0):
        raise CertificationError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    _check_epsilon(epsilon)
    sol, p_star = _require_assumptions(mdp, need_normalized=False)
    n_alpha = support_exponent_with_loops(p_star)
    _check_run(mdp, trace, n_alpha, alpha=alpha)

    gamma = mdp.gamma
    e_spans = row_spans(trace.values[: n_alpha + 1] - sol.values)
    if np.any(e_spans <= 0.0):
        raise CertificationError("an error span inside the certified block vanished")
    p_min = float(np.min(p_star[p_star > 0.0]))
    delta_prime = sol.delta * p_min / (gamma * float(np.max(e_spans[:n_alpha])))
    delta_alpha = min(alpha * delta_prime, (1.0 - alpha) * gamma)
    rho = (1.0 - alpha) / gamma + alpha
    tau_alpha = rho**n_alpha - mdp.n_states * delta_alpha**n_alpha
    return _certificate(mdp, trace, sol, epsilon, e_spans, n_alpha, tau_alpha, alpha=alpha,
                        N_alpha=n_alpha, delta_alpha=delta_alpha, tau_alpha=tau_alpha)


@dataclass(frozen=True)
class LemmaReport:
    """Both sides of the advantage-difference span bound for one pair."""

    lhs: float
    bound: float
    same_state: bool

    @property
    def holds(self) -> bool:
        return self.lhs <= self.bound + 1e-9


def check_lemma_adv_span(mdp: Mdp, a1: str, a2: str, v) -> LemmaReport:
    """|adv difference minus reward difference| against the span bound.

    The bound is gamma*span(v) for two actions on the same state and
    (1+gamma)*span(v) otherwise; both follow from the coefficient
    differences summing to zero with entries bounded by gamma resp.
    1+gamma.
    """
    v = as_values(v, mdp.n_states)
    k1, k2 = mdp.row(a1), mdp.row(a2)
    adv = advantages(mdp, v)
    lhs = abs(float((adv[k1] - adv[k2]) - (mdp.rewards[k1] - mdp.rewards[k2])))
    same = mdp.state_of[k1] == mdp.state_of[k2]
    factor = mdp.gamma if same else (1.0 + mdp.gamma)
    return LemmaReport(lhs=lhs, bound=factor * span(v), same_state=bool(same))


def empirical_rate(trace: RunTrace, burn_in: int = 5) -> float:
    """Geometric mean of consecutive value-span ratios after a burn-in.

    Needs more than burn_in + 2 iterations and all post-burn-in spans above
    1e-13 (otherwise the ratio is dominated by float noise).
    """
    if trace.iterations <= burn_in + 2:
        raise ValueError(
            f"trace too short: {trace.iterations} iterations, need > {burn_in + 2}"
        )
    used = row_spans(trace.values[burn_in:])
    if np.any(used <= 1e-13):
        raise ValueError("span underflow: spans after burn-in fall below 1e-13")
    ratios = np.log(used[1:]) - np.log(used[:-1])
    return float(np.exp(np.mean(ratios)))


@dataclass(frozen=True)
class ErrorRecursionReport:
    """Worst slack of the per-step error recursion over a whole trace."""

    steps: int
    max_violation: float
    max_equality_gap: float
    equality_checks: int


def check_error_recursion(
    mdp: Mdp, trace: RunTrace, solution: ExactSolution | None = None
) -> ErrorRecursionReport:
    """Check e_{t+1}(s) <= gamma * (P_t e_t)(s) per step, elementwise.

    P_t is the transition matrix of the greedy actions recorded at step t.
    Where the recorded choice coincides with the optimal action the relation
    is an equality; the report carries the worst gap among those states.
    """
    sol, opt_rows, _ = _optimum(mdp, solution)
    errors = trace.values - sol.values
    diff = errors[1:] - mdp.gamma * _step_products(mdp.P, trace.rows, errors[:-1])
    agree = trace.rows == opt_rows
    return ErrorRecursionReport(
        steps=trace.iterations,
        max_violation=max(0.0, float(np.max(diff, initial=-inf))),
        max_equality_gap=float(np.max(np.abs(diff), where=agree, initial=0.0)),
        equality_checks=int(agree.sum()),
    )


def check_update_sandwich(
    mdp: Mdp, trace: RunTrace, solution: ExactSolution | None = None
) -> float:
    """Worst violation of gamma*P*V_t <= V_{t+1} <= gamma*P_t V_t.

    Valid for standard runs on normalized MDPs, where optimal rewards are 0
    and all rewards are <= 0.
    """
    _, _, p_star = _optimum(mdp, solution, "update sandwich requires a normalized MDP")
    v, v_next = trace.values[:-1], trace.values[1:]
    above = v_next - mdp.gamma * _step_products(mdp.P, trace.rows, v)
    below = mdp.gamma * _step_products(p_star, None, v) - v_next
    return max(0.0, float(np.max(below, initial=-inf)), float(np.max(above, initial=-inf)))


@dataclass(frozen=True)
class MixingBoundReport:
    """Measured mixing coefficients against their certified lower bound."""

    checked: int
    skipped: int
    min_margin: float


def check_mixing_bound(
    mdp: Mdp, trace: RunTrace, solution: ExactSolution | None = None
) -> MixingBoundReport:
    """Lower-bound check for the diagonal mixing coefficients of a run.

    For every state and step where the greedy choice differs from the
    optimal action, the scalar d solving

        V_{t+1}(s) = gamma * (d * (P* V_t)(s) + (1 - d) * (P_t V_t)(s))

    must be at least delta / (gamma * span(V_t)).  Steps where the two
    backups coincide leave d undetermined and are skipped (counted).
    Requires a normalized MDP.
    """
    sol, opt_rows, p_star = _optimum(mdp, solution, "mixing bound requires a normalized MDP")
    gamma = mdp.gamma
    v, v_next = trace.values[:-1], trace.values[1:]
    cur = _step_products(mdp.P, trace.rows, v)
    denom = gamma * (cur - _step_products(p_star, None, v))
    sp = row_spans(v)
    off = (trace.rows != opt_rows) & (sp > 1e-13)[:, None]
    tied = off & (np.abs(denom) < 1e-12)
    use = off & ~tied
    d = (gamma * cur[use] - v_next[use]) / denom[use]
    floor = sol.delta / (gamma * sp[np.nonzero(use)[0]])
    return MixingBoundReport(
        checked=int(np.count_nonzero(use)),
        skipped=mdp.n_states * int(np.count_nonzero(sp <= 1e-13)) + int(np.count_nonzero(tied)),
        min_margin=float(np.min(d - floor, initial=inf)),
    )
