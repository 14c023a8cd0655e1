"""The readers' numbers: ``mdpgeo.floattext.read`` reads what ``float`` and ``json`` do."""

import io
import json
import os
import platform
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mdpgeo import cli, floattext
from mdpgeo.cli import mdp_from_json, trace_from_csv, trace_to_csv
from mdpgeo.solvers import RunTrace

_GRAMMAR = re.compile(r"-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][-+]?[0-9]{1,3})?")


def _in_class(field: str) -> bool:
    """The kernel's class as its docstring states it, from the text alone."""
    match = _GRAMMAR.fullmatch(field)
    if not match or len(field) > 32:
        return False
    whole, frac, exp = match.group(1), (match.group(2) or ".")[1:], match.group(3)
    digits = whole + frac
    w, q = int(digits), (int(exp[1:]) if exp else 0) - len(frac)
    if len(digits) > 24 or w >= 10**19 or q not in floattext.Q:
        return False
    if q < 0:  # 0 or a finite normal double
        return w == 0 or w << 1022 >= 10**-q
    return w * 10**q < 2**1024 - 2**970


def _read(fields: list[str], plain=None):
    """``cli._d2f`` on the fields joined by commas, read one slice at a time."""
    data = ",".join(fields).encode()
    ends = np.cumsum([len(f.encode()) + 1 for f in fields]) - 1
    first = ends - [len(f.encode()) for f in fields]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return cli._d2f(data, first, ends, None if plain is None else np.array(plain))


def _assert_reads(fields: list[str]) -> None:
    """In-class fields read bit for bit as ``float`` and ``json`` read them."""
    assert all(map(_in_class, fields))
    got = _read(fields)
    want = np.array([float(f) for f in fields])
    if got.tobytes() != want.tobytes():
        bad = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
        assert [(fields[i], got[i], want[i]) for i in bad[:5]] == []
    fields = [f for f in fields if f != "-0"]  # json's int 0; the model reader skips it
    want = np.fromiter(json.loads("[" + ",".join(fields) + "]"), np.float64, len(fields))
    assert _read(fields).tobytes() == want.tobytes()


@pytest.fixture(autouse=True)
def _every_size(monkeypatch):
    monkeypatch.setattr(cli, "_D2F_MIN", 1)  # the kernel reads fields of any count


def _bit_patterns(seed: int, size: int) -> np.ndarray:
    values = np.random.default_rng(seed).integers(0, 2**64, size, dtype=np.uint64)
    return values.view(np.float64)


@pytest.mark.parametrize("form", ["repr", "%.17g"])
def test_random_bit_patterns(form):
    """10**6 doubles of every kind, printed by ``repr`` or ``'%.17g'``: those in the class
    read as ``float`` reads them, and a field outside it sends its call to the fallback."""
    values = _bit_patterns(1, 1_000_000)
    fields = [repr(x) if form == "repr" else "%.17g" % x for x in values.tolist()]
    inside = [f for f in fields if _in_class(f)]
    outside = [f for f in fields if not _in_class(f)]
    assert len(inside) > 990_000 and len(outside) > 500  # nan, inf and subnormals
    _assert_reads(inside)
    for k in range(0, 2000, 40):  # one field outside the class among fields inside it
        assert _read(inside[k:k + 39] + [outside[k // 4]]) is None


@pytest.mark.parametrize("digits", range(1, 26))
def test_significands_of_every_length(digits):
    """1 to 19 digits read as ``float`` does with exponents inside the window; longer
    significands, and exponents beyond it, go to the fallback."""
    rng = np.random.default_rng(digits)
    fields = []
    for _ in range(400):
        w = "".join(map(str, rng.integers(0, 10, digits)))
        w = (str(rng.integers(1, 10)) + w[1:]) if rng.random() < 0.9 else w.lstrip("0") or "0"
        point = int(rng.integers(0, len(w) + 1))
        text = w if point == len(w) else (w[:point] or "0") + "." + w[point:]
        exp = int(rng.integers(-320, 320))
        sign = "-" if rng.random() < 0.5 else ""
        fields.append(sign + text + (f"e{exp}" if rng.random() < 0.8 else ""))
    fields = [f for f in fields if _GRAMMAR.fullmatch(f)]
    inside = [f for f in fields if _in_class(f)]
    if digits <= 19:
        assert len(inside) > 50
        _assert_reads(inside)
    else:  # in the class only where leading zeros leave 19 digits or fewer
        assert all(len(f.lstrip("-").split("e")[0].replace(".", "").lstrip("0")) <= 19
                   for f in inside)
    for f in fields:
        if not _in_class(f):
            assert _read(inside[:5] + [f]) is None


def _decimal(x: Fraction) -> str:
    """The exact decimal of a dyadic rational."""
    sign, x = ("-" if x < 0 else ""), abs(x)
    scale = 0
    while x.denominator != 1:
        x, scale = x * 10, scale + 1
    return f"{sign}{x.numerator}e-{scale}" if scale else f"{sign}{x.numerator}"


def test_exact_midpoints_round_half_to_even():
    """The decimal halfway between two neighbouring doubles reads as the even one, and its
    19-digit neighbours as the nearer one."""
    rng = np.random.default_rng(3)
    fields = []
    for e in range(49, 64):  # spacing 2**(e - 52): halfway points of at most 19 digits
        for k in rng.integers(2**52, 2**53, 60).tolist():
            lo = Fraction(k) * Fraction(2) ** (e - 52)
            mid = lo + Fraction(2) ** (e - 53)
            fields.append(_decimal(mid))
            digits = len(str(mid.numerator // mid.denominator))
            if digits <= 17:
                step = Fraction(1, 10 ** (19 - digits))
                fields += [_decimal(mid + step), _decimal(mid - step)]
    fields = [f for f in fields if _in_class(f)]
    assert len(fields) > 1500
    _assert_reads(fields)
    assert sum(map(_is_tie, fields)) > 300  # exact halfway points, not only near ones


def _is_tie(field: str) -> bool:
    x = float(field)
    return any(Fraction(field) * 2 == Fraction(x) + Fraction(float(np.nextafter(x, to)))
               for to in (-np.inf, np.inf))


def test_powers_of_ten_and_the_edges_of_the_class():
    """Each power of ten that is a normal double, printed with its ``nextafter``
    neighbours, and the largest and smallest normal doubles; a value past them, or an
    exponent outside ``Q``, goes to the fallback."""
    fields = [f"1e{k}" for k in range(-307, 309)] + [f"-1E{k}" for k in range(-307, 309)]
    fields += ["9999999999999999999e289", "17976931348623157e292", "22250738585072014e-324",
               f"0e{floattext.Q.start}", f"1E+{floattext.Q.stop - 1}"]
    for k in range(-307, 309):
        x = 10.0**k
        for y in (np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)):
            fields += [repr(float(y)), "%.17g" % y]
    inside = [f for f in fields if _in_class(f)]
    assert len(inside) == len(fields)
    _assert_reads(inside)
    for edge in ("1e-308", "22250738585072011e-324", "17976931348623159e292", "1e309",
                 f"1e{floattext.Q.start - 1}", f"0e{floattext.Q.stop}",
                 f"10e{floattext.Q.stop - 1}"):
        assert not _in_class(edge) and _read(["1.5", edge]) is None


@pytest.mark.parametrize("field, early", [("12e-310", True), ("9.99e-309", True),
                                          ("1.2345678901234567e-310", True),
                                          ("0.0012e-306", False), ("1e-308", False)])
def test_a_subnormal_is_refused_before_significands_are_built(field, early, monkeypatch):
    """Where its digits bound a field below 10**-308 and its first digit is no 0, the
    block goes to the fallback before the significands are read; other subnormals are
    refused at the binary exponent."""
    calls, digits = [], floattext._eight_digits
    monkeypatch.setattr(floattext, "_eight_digits", lambda v: calls.append(1) or digits(v))
    assert not _in_class(field) and _read(["1.5", "2e-3", field]) is None
    assert len(calls) == (1 if early else 2)  # the exponents, then the significands
    calls.clear()
    assert _read(["1.5", "2e-3", "0e-330", "0.000e-310"]).tolist() == [1.5, 0.002, 0.0, 0.0]


def test_zero_spellings_and_integers():
    fields = ["0", "-0", "0.0", "-0.0", "0e0", "0E-7", "-0e5", "0.000", "1", "-1", "12",
              "9007199254740993", "18446744073709551615", "9999999999999999999",
              "1234567890123456789", "-9223372036854775808"]
    inside = [f for f in fields if _in_class(f)]
    assert len(inside) == len(fields) - 1  # 2**64 - 1 has 20 digits
    _assert_reads(inside)
    assert _read(["-0"]).tobytes() == np.array([-0.0]).tobytes()  # as float reads it


def test_plain_fields_hold_only_digits():
    """A plain field (a trace's t and count) reads only where it is ASCII digits."""
    assert _read(["12", "1.5", "0", "-2e3"], [True, False, True, False]).tolist() == [12, 1.5, 0,
                                                                                      -2000]
    for field in ("1.0", "-1", "1e5", "1E5", "-0"):
        assert _in_class(field)
        assert _read(["12", field], [True, False]) is not None
        assert _read(["12", field], [False, True]) is None


@pytest.mark.parametrize("field", ["01", "1.", ".5", "+1", "1e", "1e+", "--1", "1.5.3", "1e5e3",
                                   "-", "", "1_0", "١", " 1", "1 ", "1e1000", "0x10",
                                   "inf", "nan", "1,5", "1e-5-", "1.e5", "E5", "0" * 33])
def test_no_other_text_reads(field):
    assert not _in_class(field)
    assert _read(["0.5", field, "0.25"]) is None


def _dense_model(n: int = 37, m: int = 111, seed: int = 4, zeros: float = 0.0) -> str:
    """A model whose probabilities are below ``zeros`` with that probability."""
    rng = np.random.default_rng(seed)
    P = rng.uniform(1e-6, 1.0, size=(m, n)) ** 3
    P[P < zeros] = 0.0
    P /= P.sum(axis=1, keepdims=True)
    actions = [{"id": f"a{k}", "state": k % n, "probs": p, "reward": 0.5}
               for k, p in enumerate(P.tolist())]
    return json.dumps({"version": 1, "n_states": n, "gamma": 0.9, "actions": actions},
                      indent=2)


@pytest.mark.parametrize("values", [7, 64, 4096])
@pytest.mark.parametrize("chunk", [1, 500, 1 << 19])
def test_model_bodies_across_slices_and_chunks(values, chunk, monkeypatch):
    """P reads as ``json.loads`` gives it, whatever slices and chunks cut the rows."""
    monkeypatch.setattr(cli, "_D2F_VALUES", values)
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    text = _dense_model()
    calls = []
    kernel = floattext.read
    monkeypatch.setattr(floattext, "read", lambda *a: calls.append(1) or kernel(*a))
    P = np.array([a["probs"] for a in json.loads(text)["actions"]])
    for source in (text, io.BytesIO(text.encode())):
        assert mdp_from_json(source).P.tobytes() == P.tobytes()
    assert len(calls) >= 2 * -(-P.size // max(values, P.shape[1]))  # the kernel read them


def test_minus_zero_in_a_model_reads_as_json_does(monkeypatch):
    """json reads a bare ``-0`` as the int 0, so P holds +0.0 there; ``-0.0`` is -0.0."""
    signs = iter(np.random.default_rng(6).integers(0, 3, 4000).tolist())
    text = re.sub(r"(?<= )0\.0(?=,?\n)", lambda m: ["0.0", "-0", "-0.0"][next(signs)],
                  _dense_model(zeros=0.1))
    assert text.count("-0,") > 50 and text.count("-0.0,") > 50
    P = np.array([a["probs"] for a in json.loads(text)["actions"]])
    for values in (7, 4096):
        monkeypatch.setattr(cli, "_D2F_VALUES", values)
        assert mdp_from_json(text).P.tobytes() == P.tobytes()


@pytest.mark.parametrize("values", [7, 50, 4096])
def test_trace_values_across_slices(values, monkeypatch):
    """Traces round-trip bit for bit: values of ordinary size, and values at every binary
    exponent, subnormals included, which the writer's kernel prints and the reader takes
    through ``float`` in the blocks that hold a subnormal."""
    monkeypatch.setattr(cli, "_D2F_VALUES", values)
    rng = np.random.default_rng(5)
    ordinary = rng.normal(0.0, 1e3, size=(90, 11)) * 10.0 ** rng.integers(-30, 10, size=(90, 11))
    tops = np.arange(52 + 2046, dtype=np.uint64).repeat(2)  # the top bit: 51 is 2**-1023
    bits = np.where(tops < 52, np.uint64(1) << tops, (tops - np.uint64(51)) << np.uint64(52))
    bits |= rng.integers(0, 2**52, tops.size, dtype=np.uint64) & (bits - np.uint64(1))
    # rows of growing values, so no span overflows
    every = np.concatenate([np.zeros(-tops.size % 11), bits.view(np.float64)]).reshape(-1, 11)
    assert ((every != 0) & (every < 2.0**-1022)).sum() == 104 and np.isfinite(every).all()
    assert len(set(np.frexp(every[every != 0])[1].tolist())) == 2098
    for rows in (ordinary, every, -every):
        trace = RunTrace(values=rows, active_counts=np.arange(len(rows)),
                         rows=np.empty((0, 11), np.int32), ids=(), filtered=(),
                         stop_reason="time", final_policy=None)
        assert trace_from_csv(trace_to_csv(trace)).values.tobytes() == rows.tobytes()


_CHILD = """
import sys
sys.path[:0] = {paths!r}
from mdpgeo import cli, floattext
cli._D2F_MIN = 1
from test_number_reader import _assert_reads, _bit_patterns, _in_class
for form in (repr, "%.17g".__mod__):
    _assert_reads([f for f in map(form, _bit_patterns(9, 200_000).tolist()) if _in_class(f)])
"""


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="x86 SIMD targets")
@pytest.mark.parametrize("disabled", ["X86_V4 AVX512_ICL AVX512_SPR",
                                      "X86_V4 AVX512_ICL AVX512_SPR X86_V3"])
def test_values_do_not_depend_on_numpys_simd_target(disabled):
    here = Path(__file__).resolve().parent
    paths = [str(here), str(here.parent / "src")]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": disabled}
    proc = subprocess.run([sys.executable, "-c", _CHILD.format(paths=paths)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


# numpy functions and types the number module may use: each is in numpy 1.24, the
# oldest numpy that pyproject.toml allows (``np.bitwise_count``, for one, came in 2.0)
_NUMPY_1_24 = {
    "arange", "array", "bitwise_or", "cumsum", "empty", "equal", "flatnonzero", "float64",
    "frexp", "frombuffer", "full", "greater", "int8", "int16", "int64", "intp", "isfinite",
    "max", "maximum", "minimum", "ndarray", "negative", "packbits", "repeat", "searchsorted",
    "signbit", "uint8", "uint32", "uint64", "where", "zeros",
}


def test_the_number_module_uses_only_numpy_1_24():
    """The ``np.`` attributes of ``mdpgeo.floattext`` are the list, no more and no fewer,
    and numpy is imported only as ``np``, so no name escapes the walk."""
    import ast

    tree = ast.parse(Path(floattext.__file__).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert all(not isinstance(node, ast.ImportFrom) or not (node.module or "").startswith("numpy")
               for node in imports)
    assert all(alias.asname == "np" for node in imports if isinstance(node, ast.Import)
               for alias in node.names if alias.name.startswith("numpy"))
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "np"}
    assert used - _NUMPY_1_24 == set()
    assert _NUMPY_1_24 - used == set()  # a name the module no longer uses leaves the list
