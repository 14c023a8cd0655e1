"""One function forms the backup r + gamma * P v: ``core.q_values``.

Its callers are counted through a spy, so a step that forms a second product,
or a filter that stops sharing the step's, fails here; and a walk over the
package's syntax finds every matrix product, so a new one outside the named
functions fails here too.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from mdpgeo import core, solvers
from mdpgeo.core import bellman_optimal, bellman_policy, greedy, q_values
from mdpgeo.gen import GenSpec, generate
from mdpgeo.solvers import ViConfig, max_reward_policy, policy_iteration, value_iteration

SRC = Path(core.__file__).parent

# Every function of the package that forms a matrix product, and why it may:
# the backup itself and the coefficient form of the advantage, then the
# referees and kernels that keep their own product.
PRODUCT_FUNCTIONS = {
    "core.q_values",
    "core.advantage",
    "core.advantages",
    "analysis._verify_sync_recurrence",  # a gemm over a block of steps, judged at RECURRENCE_TOL
    "analysis._step_products",  # the theorem checkers' per-step gemv
    "analysis._first_positive_power",  # counts 0/1 paths in float32, not a P v
    "twostate._advantages",  # the coefficient form batched over B models
}
PRODUCT_CALLS = {"dot", "matmul", "einsum", "inner", "vdot", "tensordot", "multi_dot"}


def _is_product(node: ast.AST) -> bool:
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.MatMult)
    if isinstance(node, ast.Call):
        f = node.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
        return name in PRODUCT_CALLS
    return False


def _product_sites(tree: ast.AST, module: str) -> set[str]:
    """Qualified names of the functions (``module.<module>`` outside any) holding a product."""
    found = set()

    def walk(node: ast.AST, where: str, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner, inner_scope = where, scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner_scope = f"{scope}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    inner = inner_scope
            if _is_product(child):
                found.add(where)
            walk(child, inner, inner_scope)

    walk(tree, f"{module}.<module>", module)
    return found


def _package_products() -> set[str]:
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _product_sites(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_only_the_named_functions_form_a_product():
    assert _package_products() == PRODUCT_FUNCTIONS


@pytest.mark.parametrize("source, site", [
    ("def f(P, v):\n    return P @ v\n", "m.f"),
    ("def f(P, v):\n    P @= v\n", "m.f"),
    ("def f(np, P, v):\n    return np.dot(P, v)\n", "m.f"),
    ("def f(P, v):\n    return P.dot(v)\n", "m.f"),
    ("def f(np, P, v):\n    return np.einsum('ij,j->i', P, v)\n", "m.f"),
    ("class A:\n    def f(self, P, v):\n        g = lambda: np.matmul(P, v)\n", "m.A.f"),
    ("Q = P @ v\n", "m.<module>"),
])
def test_the_walk_finds_every_form_of_product(source, site):
    assert _product_sites(ast.parse(source), "m") == {site}


def _model(seed: int = 3):
    return generate(GenSpec(n_states=12, gamma=0.9, seed=seed, structure="sparse", sparse_k=3))


@pytest.fixture
def products(monkeypatch):
    """Each result of ``q_values``, in call order, through every binding callers use."""
    made = []

    def spy(mdp, v, *rows):
        out = q_values(mdp, v, *rows)
        made.append(out)
        return out

    for module in (core, solvers):
        monkeypatch.setattr(module, "q_values", spy)
    return made


def test_q_values_is_the_backup_expression():
    mdp = _model()
    v = np.random.default_rng(5).uniform(-3.0, 3.0, mdp.n_states)
    rows = np.array([7, 0, 7, 2])
    assert q_values(mdp, v).tobytes() == (mdp.rewards + mdp.gamma * (mdp.P @ v)).tobytes()
    assert (q_values(mdp, v, rows).tobytes()
            == (mdp.rewards[rows] + mdp.gamma * (mdp.P[rows] @ v)).tobytes())


@pytest.mark.parametrize("filtered", [{}, {"filter": "appendix", "v0": "upper_bound"}])
def test_each_value_iteration_step_forms_one_product(products, filtered):
    trace = value_iteration(_model(), ViConfig(stop="span", epsilon=1e-6, **filtered))
    assert trace.iterations > 1 and trace.stop_reason == "span"
    assert len(products) == trace.iterations + 1


def test_each_howard_round_forms_one_product(products):
    mdp = _model()
    _, trace = policy_iteration(mdp, max_reward_policy(mdp))
    assert trace.iterations > 1
    assert len(products) == trace.iterations


def test_the_bellman_backups_are_q_values(products):
    mdp = _model()
    v = np.random.default_rng(6).uniform(-3.0, 3.0, mdp.n_states)
    u, policy = bellman_optimal(mdp, v)
    assert len(products) == 1
    assert u.tobytes() == greedy(mdp, products[0])[0].tobytes()
    backup = bellman_policy(mdp, policy, v)
    assert len(products) == 2
    assert backup.tobytes() == products[1].tobytes()
