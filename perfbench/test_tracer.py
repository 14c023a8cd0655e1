"""Tests of the span recorder on a small real command.

    python3 -m pytest perfbench/test_tracer.py -q
"""

from __future__ import annotations

import contextlib
import importlib
import io
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tracer import LAYERS, Tracer  # noqa: E402
from mdpgeo import cli, fixtures  # noqa: E402


@pytest.fixture
def traced_solve(tmp_path):
    model = tmp_path / "m2.json"
    model.write_text(cli.mdp_to_json(fixtures.m2()), encoding="utf-8")
    modules = {name: importlib.import_module(f"mdpgeo.{name}") for name in LAYERS}
    originals = {name: vars(mod).copy() for name, mod in modules.items()}
    tracer = Tracer(modules)
    tracer.install()
    try:
        tracer.cmd = "solve"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["solve-vi", "--mdp", str(model), "--stop", "span:1e-6"]) == 0
    finally:
        tracer.uninstall()
    return tracer, modules, originals


def test_uninstall_restores_every_binding(traced_solve):
    _, modules, originals = traced_solve
    for name, mod in modules.items():
        assert vars(mod) == originals[name]


def test_spans_nest_under_the_command(traced_solve):
    tracer, _, _ = traced_solve
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0][4] == -1
    assert {"cli.mdp_from_json", "core.validate", "solvers.value_iteration"} <= set(names)
    assert all(s[5] == "solve" and s[2] <= s[3] for s in tracer.spans)
    for name, via, start, end, parent, cmd in tracer.spans[1:]:
        assert tracer.spans[parent][2] <= start and end <= tracer.spans[parent][3]


def test_self_times_add_up_to_the_root(traced_solve):
    tracer, _, _ = traced_solve
    self_s, calls = tracer.totals()
    root = tracer.spans[0][3] - tracer.spans[0][2]
    defined = {s[0] for s in tracer.spans}
    assert sum(self_s[name] for name in defined) == pytest.approx(root, rel=1e-9)
    # span() is defined in core and called from solvers: counted under both keys
    assert calls["solvers.span"] == calls["core.span"] > 0
    assert self_s["solvers.span"] == pytest.approx(self_s["core.span"])
