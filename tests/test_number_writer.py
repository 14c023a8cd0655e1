"""The model writer's numbers: ``mdpgeo.floattext.reprs`` prints what ``repr`` does.

The oracle is byte equality with ``repr`` (and, for whole models, with
``json.dumps(doc, indent=2) + "\\n"``); reading the text back with
``floattext.read`` and getting the input bits is a cross-check."""

import ast
import importlib.util
import json
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mdpgeo import cli, floattext
from mdpgeo.core import Mdp

_SEP = b",\n        "


def _assert_prints(values, pieces: bool = True) -> None:
    """``reprs`` prints ``values`` as ``repr`` does, as one piece and (``pieces``) as many."""
    x = np.asarray(values, dtype=np.float64).ravel()
    want = [repr(v).encode() for v in x.tolist()]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = floattext.reprs(x, b",", np.zeros(x.size, bool))
        alone = floattext.reprs(x, _SEP, np.ones(x.size, bool)) if pieces else want
    if got != [b",".join(want)]:
        got = got[0].split(b",") if len(got) == 1 else got
        assert [(g, w) for g, w in zip(got, want) if g != w][:5] == []
    assert got == [b",".join(want)] and alone == want


def _finite_bit_patterns(seed: int, size: int) -> np.ndarray:
    x = np.random.default_rng(seed).integers(0, 2**64, size, dtype=np.uint64).view(np.float64)
    return x[np.isfinite(x)]


def test_random_bit_patterns():
    """10**6 random finite doubles, subnormals among them; the normal ones read back."""
    x = _finite_bit_patterns(1, 1_000_000)
    assert x.size > 990_000 and (np.abs(x) < 2.0**-1022).sum() > 400
    _assert_prints(x, pieces=False)
    x = x[(np.abs(x) >= 2.0**-1022) | (x == 0)][:100_000]  # read takes no subnormal
    text = floattext.reprs(x, b",", np.zeros(x.size, bool))[0]
    ends = np.flatnonzero(np.frombuffer(text + b",", np.uint8) == ord(","))
    first = np.r_[0, ends[:-1] + 1]
    for k in range(0, x.size, 4096):
        back = floattext.read(text, first[k:k + 4096], ends[k:k + 4096])
        assert back.tobytes() == x[k:k + 4096].tobytes()


def test_powers_of_two_and_ten_with_their_neighbours():
    """A power of two's lower gap is half its upper one; powers of ten are where the
    digits' count and the notation change."""
    twos = 2.0 ** np.arange(-1074, 1024)
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = [twos, tens]
    for to in (0.0, np.inf):
        down = [twos, tens]
        for _ in range(3):
            down = [np.nextafter(d, to) for d in down]
            near += down
    values = np.concatenate(near)
    values = values[np.isfinite(values)]
    _assert_prints(np.concatenate([values, -values]))


def test_subnormals_and_the_edges_of_the_doubles():
    tiny = np.arange(1, 5_000, dtype=np.uint64)
    edges = [5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
             2.225073858507202e-308, 1.7976931348623157e308, -1.7976931348623157e308,
             float.fromhex("0x1.fffffffffffffp+1023"), float.fromhex("0x0.fffffffffffffp-1022"),
             0.0, -0.0]
    values = np.concatenate([tiny.view(np.float64), (2**52 - tiny).view(np.float64),
                             np.random.default_rng(2).integers(1, 2**52, 10_000).view(np.float64),
                             edges])
    _assert_prints(np.concatenate([values, -values]))
    assert floattext.reprs(np.array(edges[:2] + edges[-2:]), b",", np.ones(4, bool)) == [
        b"5e-324", b"-5e-324", b"0.0", b"-0.0"]


def test_the_notation_switches_where_repr_switches():
    """Fixed for 1e-4 <= |x| < 1e16, with ``.0`` on integers; exponents with a sign
    and at least two digits elsewhere."""
    points = [1e-5, 1e-4, 0.0001, 9.999999999999999e-05, 0.00010000000000000002, 1e15,
              9999999999999998.0, 1e16, 1.0000000000000002e16, 123456789012345680.0, 1.0, 2.5,
              100.0, 1e22, 1e23, 5e-05, 1.5e-300, 1e100, 0.1, 0.30000000000000004]
    values = np.array(points)
    _assert_prints(np.concatenate([values, -values]))
    assert floattext.reprs(values[:8], b" ", np.zeros(8, bool)) == [
        b"1e-05 0.0001 0.0001 9.999999999999999e-05 0.00010000000000000002 1000000000000000.0 "
        b"9999999999999998.0 1e+16"]


def test_random_values_of_every_magnitude():
    rng = np.random.default_rng(3)
    scaled = rng.uniform(1.0, 10.0, 20_000) * 10.0 ** rng.integers(-320, 308, 20_000)
    short = np.concatenate([np.round(rng.uniform(-1e4, 1e4, 2000), d) for d in range(12)])
    _assert_prints(np.concatenate([scaled, short, rng.random(20_000)]))


@pytest.mark.parametrize("seed", range(4))
def test_pieces_and_separators(seed, monkeypatch):
    """Pieces start at 0 and at each cut, also across the kernel's batches."""
    monkeypatch.setattr(floattext, "REPR_VALUES", [7, 64, 1000, 8192][seed])
    rng = np.random.default_rng(seed)
    x = rng.normal(size=3000) * 10.0 ** rng.integers(-30, 30, 3000)
    cut = rng.random(3000) < [0.01, 0.3, 0.9, 0.0][seed]
    sep = [b",", b", ", _SEP, b""][seed]
    bounds = [0, *np.flatnonzero(cut[1:]) + 1, 3000]
    want = [sep.join(repr(v).encode() for v in x[a:z].tolist()) for a, z in zip(bounds, bounds[1:])]
    assert floattext.reprs(x, sep, cut) == want
    if sep == _SEP:
        assert cli._json_reprs(x, cut) == want


def _model(n: int, m: int, zeros: float, seed: int) -> Mdp:
    rng = np.random.default_rng(seed)
    P = rng.random((m, n)) ** 3 + 1e-300
    P[rng.random((m, n)) < zeros] = 0.0
    P[:, 0] += P.sum(axis=1) == 0
    P /= P.sum(axis=1, keepdims=True)
    P[rng.random((m, n)) < 0.01] *= -0.0  # -0.0 is printed, +0.0 is not
    rewards = rng.normal(size=m) * 10.0 ** rng.integers(-12, 18, m)
    return Mdp.from_arrays(n, 0.9, [f"a{k}" for k in range(m)], np.arange(m) % n, P, rewards)


@pytest.mark.parametrize("n, m, zeros", [(31, 33, 0.0), (32, 32, 0.0), (32, 33, 0.5),
                                         (1, 1100, 0.0), (200, 41, 0.0), (200, 42, 0.0),
                                         (1000, 300, 0.99), (64, 200, 0.9), (3, 7000, 0.4)])
def test_whole_models_print_as_json_does(n, m, zeros):
    """Models around the minimum count (1,024 probabilities), blocks across and within
    the 8,192 numbers printed at a time, runs of entries and rows of zeros."""
    mdp = _model(n, m, zeros, n + m)
    doc = {"version": 1, "n_states": n, "gamma": 0.9, "actions": [
        {"id": i, "state": s, "probs": p, "reward": r} for i, s, p, r in zip(
            mdp.ids, mdp.state_of.tolist(), mdp.P.tolist(), mdp.rewards.tolist())]}
    assert cli.mdp_to_json(mdp) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("n, kernel", [(6, False), (31, False), (32, True)])
def test_a_model_below_the_minimum_count_is_printed_by_json(n, kernel, monkeypatch):
    """A model of fewer than 1,024 probabilities never reaches ``_kernel_reprs``, which
    imports the kernel's module (the 6-state warm-up model of a benchmark has 144)."""
    calls, kernel_reprs = [], cli._kernel_reprs
    monkeypatch.setattr(cli, "_kernel_reprs", lambda *a: calls.append(1) or kernel_reprs(*a))
    mdp = _model(n, n, 0.0, n)
    assert (mdp.P.size >= 1024) == kernel and cli.mdp_to_json(mdp).count('"reward"') == n
    assert bool(calls) == kernel


def test_cli_imports_the_kernels_module_only_where_a_kernel_runs():
    """No module-level import in ``cli`` brings in ``floattext`` and its tables, so a
    process that reads and writes no large model or trace never builds them."""
    tree = ast.parse(Path(cli.__file__).read_text())
    assert not any("floattext" in ast.dump(node) for node in tree.body
                   if isinstance(node, (ast.Import, ast.ImportFrom)))


def test_a_non_finite_value_is_printed_by_json(monkeypatch):
    mdp = _model(40, 40, 0.0, 5)
    rewards = mdp.rewards.copy()
    rewards[[3, 39]] = [np.inf, np.nan]
    mdp = Mdp.from_arrays(40, 0.9, mdp.ids, mdp.state_of, mdp.P, rewards)
    calls = []
    json_reprs = cli._json_reprs
    monkeypatch.setattr(cli, "_json_reprs", lambda *a: calls.append(1) or json_reprs(*a))
    text = cli.mdp_to_json(mdp)
    assert '"reward": Infinity' in text and '"reward": NaN' in text and calls == [1]


def test_the_benchmarks_models_print_every_number_through_the_kernel(tmp_path, monkeypatch,
                                                                   capsys):
    """No probability or reward of the dense and Wielandt ``normalize`` outputs or of the
    sparse ``generate`` output of the benchmark (seed 7) is printed by json."""
    spec = importlib.util.spec_from_file_location(
        "bench_inputs", Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, inputs)  # for its dataclasses
    spec.loader.exec_module(inputs)
    inputs.write_inputs("dense_transform_certify", 7, tmp_path)
    printed, reprs = [], floattext.reprs
    monkeypatch.setattr(cli, "_json_reprs", lambda *a: pytest.fail("json printed numbers"))
    monkeypatch.setattr(floattext, "reprs", lambda x, *a: printed.append(x.size) or reprs(x, *a))
    for stem, argv in (("dense", ["normalize", "--mdp", tmp_path / "dense.json"]),
                       ("wielandt", ["normalize", "--mdp", tmp_path / "wielandt.json"]),
                       ("sparse", ["generate", "--seed", "7", "--structure", "sparse",
                                   "--n-states", "1000", "--sparse-k", "5", "--max-actions",
                                   "8"])):
        out = tmp_path / f"{stem}_out.json"
        before = sum(printed)
        assert cli.main([*map(str, argv), "--out", str(out)]) == 0
        mdp = cli._load_mdp(str(out))[0]
        assert sum(printed) - before == np.count_nonzero(mdp.P.view(np.int64)) + mdp.m > 5000
    capsys.readouterr()


_CHILD = """
import sys
sys.path[:0] = {paths!r}
from test_number_writer import _assert_prints, _finite_bit_patterns
_assert_prints(_finite_bit_patterns(9, 20_000))
"""


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="x86 SIMD targets")
@pytest.mark.parametrize("disabled", ["X86_V4 AVX512_ICL AVX512_SPR",
                                      "X86_V4 AVX512_ICL AVX512_SPR X86_V3"])
def test_output_does_not_depend_on_numpys_simd_target(disabled):
    here = Path(__file__).resolve().parent
    paths = [str(here), str(here.parent / "src")]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": disabled}
    proc = subprocess.run([sys.executable, "-c", _CHILD.format(paths=paths)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
