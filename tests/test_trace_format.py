"""The trace writer's numbers: the array kernel prints what ``'%.17g'`` does."""

import os
import platform
import subprocess
import sys
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from mdpgeo import cli, floattext
from mdpgeo.cli import trace_to_csv
from mdpgeo.solvers import RunTrace


def _printed(values: np.ndarray) -> tuple:
    """The kernel's text of ``values``, and the rows it left to ``%``."""
    step = max(1, cli._G17_VALUES // values.shape[1])
    rows = [row for r in range(0, len(values), step) for row in floattext.g17(values[r:r + step])]
    return b"".join(bytes(row) for row in rows), [r for r, row in enumerate(rows)
                                                  if isinstance(row, bytes)]


def _expected(values: np.ndarray) -> bytes:
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in values.tolist()).encode()


def _assert_prints(values, n: int = 50) -> int:
    """``values``, n a row, print as ``'%.17g'`` prints them, and only rows holding an
    infinity or a NaN go through ``%``; their number."""
    values = np.asarray(values, dtype=np.float64).ravel()
    values = np.concatenate([values, np.zeros(-len(values) % n)]).reshape(-1, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, by_percent = _printed(values)
    assert by_percent == np.flatnonzero(~np.isfinite(values).all(axis=1)).tolist()
    want = _expected(values)
    if got != want:
        pairs = zip(got.replace(b"\n", b",").split(b","), want.replace(b"\n", b",").split(b","))
        assert [(g, w) for g, w in pairs if g != w][:5] == []
    assert got == want
    return len(by_percent)


def _digits(x: float) -> int:
    """The significant digits of the exact decimal value of ``x``."""
    return len(Decimal(x).normalize().as_tuple().digits)


def _oracle_values(seed: int, size: int) -> np.ndarray:
    """Random doubles from 1e-8 to 1e18, across both switches between fixed and exponent
    notation, both signs, some with trailing zeros, and powers of ten with their
    neighbours."""
    rng = np.random.default_rng(seed)
    scaled = rng.uniform(1.0, 10.0, size) * 10.0 ** rng.integers(-8, 18, size)
    short = np.concatenate([np.round(rng.uniform(-1e4, 1e4, size // 48), d) for d in range(12)])
    powers = 10.0 ** np.arange(-8, 19)
    near = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    values = np.concatenate([scaled, short, near, [0.0, 1e-6, 1e16, 0.5, 2.0**-25]])
    return values * rng.choice([-1.0, 1.0], values.size)


def test_random_bit_patterns():
    """Every kind of double: subnormals, ±0, ±inf, NaNs with payloads, huge and tiny.
    Only the rows holding an infinity or a NaN are printed by ``%``."""
    bits = np.random.default_rng(11).integers(0, 2**64, 10**6, dtype=np.uint64)
    special = np.array([0, 1, 2**52 - 1, 2**52, 0x7FF0000000000000, 0x7FF0000000000001,
                        0x7FF8000000000000, 0x7FFFFFFFFFFFFFFF, 0x3FF0000000000000], np.uint64)
    values = np.concatenate([bits, special, special | np.uint64(2**63)]).view(np.float64)
    assert _assert_prints(values, 1000) > 300  # one value in 2,048 is inf or NaN
    assert _assert_prints(values[np.isfinite(values)], 1000) == 0


def test_values_of_every_length_in_the_window():
    _assert_prints(_oracle_values(5, 200_000))


@pytest.mark.parametrize("n", [1, 3, 64])
def test_row_lengths(n):
    _assert_prints(_oracle_values(6, 5_000), n)


def test_ties_round_half_to_even():
    """Every 2**-k and 3 * 2**-k, 103 of them subnormal, among them every 17-digit tie
    (all below 1e-6), and ties m * 2**-e above 1e-6, whose exact value has 18 digits:
    the kernel prints them all (``_assert_prints`` checks that no row goes through
    ``%``)."""
    powers = [m * 2.0**-k for k in range(1, 1075) for m in (1, 3) if m * 2.0**-k > 0]
    ties = [x for x in powers if _digits(x) == 18]
    assert 2.0**-25 in ties and 3 * 2.0**-24 in ties and max(ties) < 1e-6
    assert sum(x < 2.0**-1022 for x in powers) == 103
    rng = np.random.default_rng(3)
    inside = []
    for e in range(2, 24):
        low = -(-10**17 // 5**e)  # m * 5**e has 18 digits, and m < 2**53
        for m in rng.integers(low, min(10 * low, 2**53), 200).tolist():
            x = (m | 1) * 2.0**-e
            if 1e-6 < x < 1e16 and _digits(x) == 18:
                inside.append(x)
    assert len(inside) > 1000
    _assert_prints(powers + inside + [-x for x in ties + inside])


def test_powers_of_ten_and_window_edges():
    """Every power of two and of ten that is a double, 1e-6 and 1e16 among them, with
    three neighbours on each side, both signs: at a power of ten x * 10**-k turns from
    17 digits to 18, and at a power of two the scale moves."""
    powers = [2.0**e for e in range(-1074, 1024)] + [float(f"1e{j}") for j in range(-323, 309)]
    down = up = np.array(powers)
    near = [down]
    for _ in range(3):
        down, up = np.nextafter(down, 0), np.nextafter(up, np.inf)
        near += [down, up]
    values = np.concatenate(near)
    assert np.isfinite(values).all() and values.size == 7 * (2098 + 632)
    _assert_prints(np.concatenate([values, -values]), 7)


def test_doubles_whose_product_misses_its_sticky_bit():
    """The three doubles for which the rounded-to-odd 4 * x * 10**-k loses its sticky
    bit (``scripts/g17_exactness.py``): the 18th digit they drop is 9, so they print
    right all the same."""
    values = [8887055249355788 * 2.0**665, 6665291437016841 * 2.0**666,
              8887055249355788 * 2.0**666]
    assert ["%.17g" % x for x in values] == [
        "1.3605202075612124e+216", "2.0407803113418186e+216", "2.7210404151224248e+216"]
    _assert_prints(values + [-x for x in values], 3)


def test_the_script_checks_the_product_at_every_binary_exponent():
    """``scripts/g17_exactness.py`` runs to its end against this tree's kernel and names
    no double but the three above."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "g17_exactness.py"
    out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                         timeout=300, check=True).stdout
    assert "leaves [2**-63, 1) for 3 doubles:" in out and "three at each q" in out


def test_a_trace_row_that_mixes_kernel_and_fallback_values():
    row = [1.5, 1e-300, -0.0, 2.5e-5, 1e20, -3.25, 5e-324, 1e-6, 123456789.0, 1e16, 0.0]
    values = np.array([row, row[::-1], [x * 3 for x in row]])
    trace = RunTrace(values=values, active_counts=np.array([5, 4, 4]),
                     rows=np.zeros((0, len(row)), np.int32), ids=(), filtered=((),) * 2,
                     stop_reason="time", final_policy=None)
    head = ",".join(cli._TRACE_HEADER + [f"value_{i}" for i in range(len(row))]) + "\n"
    text = "".join(
        ",".join(["%d" % t, "%.17g" % sv, "%.17g" % sdv, "%d" % a, "time"]
                 + ["%.17g" % v for v in vs]) + "\n"
        for t, (sv, sdv, a, vs) in enumerate(zip(trace.span_v.tolist(), trace.span_dv.tolist(),
                                                 [5, 4, 4], values.tolist())))
    assert trace_to_csv(trace) == head + text


@pytest.mark.parametrize("n", [3, 10])
def test_rows_and_fallbacks_across_kernel_chunks(monkeypatch, n):
    monkeypatch.setattr(cli, "_G17_VALUES", 7)
    values = _oracle_values(8, 2_000)
    values[::13] = 1e300
    values[::29] = np.nan  # a row printed by ``%``
    values = values[:len(values) // n * n].reshape(-1, n)
    trace = RunTrace(values=values, active_counts=np.arange(len(values)),
                     rows=np.zeros((0, n), np.int32), ids=(), filtered=(),
                     stop_reason="span", final_policy=None)
    lines = trace_to_csv(trace).splitlines()
    assert len(lines) == len(values) + 1
    assert [line.split(",", 5)[5] for line in lines[1:]] == _expected(values).decode().splitlines()


_CHILD = """
import sys
sys.path[:0] = {paths!r}
from test_trace_format import _assert_prints, _oracle_values
_assert_prints(_oracle_values(9, 100_000))
"""


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="x86 SIMD targets")
@pytest.mark.parametrize("disabled", ["X86_V4 AVX512_ICL AVX512_SPR",
                                      "X86_V4 AVX512_ICL AVX512_SPR X86_V3"])
def test_output_does_not_depend_on_numpys_simd_target(disabled):
    """The kernel uses integer arithmetic and exact float operations only, so numpy's
    other SIMD targets print the same bytes."""
    here = Path(__file__).resolve().parent
    paths = [str(here), str(here.parent / "src")]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": disabled}
    proc = subprocess.run([sys.executable, "-c", _CHILD.format(paths=paths)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
