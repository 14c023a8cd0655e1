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
from mdpgeo.core import ModelError
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
    return q < 0 or w * 10**q < 2**1024 - 2**970  # 0 or a finite double


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
    assert len(inside) > 990_000 and len(outside) > 400  # nan and inf: 1 pattern in 2,048
    _assert_reads(inside)
    for k in range(0, 2000, 40):  # one field outside the class among fields inside it
        assert _read(inside[k:k + 39] + [outside[k // 5]]) is None


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
    neighbours, the largest and smallest normal doubles and two subnormals; a value past
    the largest, or an exponent outside ``Q``, goes to the fallback."""
    fields = [f"1e{k}" for k in range(-307, 309)] + [f"-1E{k}" for k in range(-307, 309)]
    fields += ["9999999999999999999e289", "17976931348623157e292", "22250738585072014e-324",
               f"0e{floattext.Q.start}", f"1E+{floattext.Q.stop - 1}"]
    for k in range(-307, 309):
        x = 10.0**k
        for y in (np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)):
            fields += [repr(float(y)), "%.17g" % y]
    fields += ["1e-308", "22250738585072011e-324"]  # subnormals
    inside = [f for f in fields if _in_class(f)]
    assert len(inside) == len(fields)
    _assert_reads(inside)
    for edge in ("17976931348623159e292", "1e309",
                 f"1e{floattext.Q.start - 1}", f"0e{floattext.Q.stop}",
                 f"10e{floattext.Q.stop - 1}"):
        assert not _in_class(edge) and _read(["1.5", edge]) is None


def _subnormal_neighbourhood() -> list[float]:
    """Every power of two from 2**-1074 to 2**-1021 with three ``nextafter`` neighbours on
    each side, and the largest subnormal."""
    values = [float(np.nextafter(2.0**-1022, 0.0))]
    for k in range(-1074, -1020):
        down = up = 2.0**k
        values.append(down)
        for _ in range(3):
            down, up = float(np.nextafter(down, 0.0)), float(np.nextafter(up, 1.0))
            values += [down, up]
    return [x for x in values if x]


@pytest.mark.parametrize("form", [repr, "%.17g".__mod__])
def test_subnormals_read_as_float_does(form):
    """Values below 2**-1022 read as ``float`` reads them, in both signs and both
    spellings: the powers of two there and their neighbours, the edges of the
    subnormals, decimals that round to 0 or half way to 2**-1074 and random bit
    patterns."""
    values = _subnormal_neighbourhood()
    values += (_bit_patterns(2, 4000).view(np.uint64) >> np.uint64(12)).view(np.float64).tolist()
    fields = [form(x) for x in values] + [form(-x) for x in values]
    fields += ["5e-324", "2e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
               "1e-340", "-1e-340", "0.0012e-306", "12e-310", "1e-308"]
    _assert_reads(fields)


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


_NO_NUMBERS = ["01", "1.", ".5", "+1", "1e", "1e+", "--1", "1.5.3", "1e5e3", "-", "", "1_0", "١",
               " 1", "1 ", "1e1000", "0x10", "inf", "nan", "1,5", "1e-5-", "1.e5", "E5", "0" * 33]


@pytest.mark.parametrize("field", _NO_NUMBERS)
def test_no_other_text_reads(field):
    assert not _in_class(field)
    assert _read(["0.5", field, "0.25"]) is None


@pytest.mark.parametrize("around", [b"\0", b"7", b"e", b"-", b"."])
def test_fields_read_in_place_as_from_a_copy(around):
    """Given ``ROOM`` bytes around the fields, the kernel reads them where they stand and
    gives what it gives from its own copy, whatever those bytes are."""
    fields = [f for f in map(repr, _bit_patterns(3, 300).tolist()) if _in_class(f)]
    fields += ["0", "-0.0", "1e-320", "0.000000000000000000001", "1" * 19]
    blocks = [fields] + [fields[:7] + [f] for f in _NO_NUMBERS]
    for block in blocks:
        data = ",".join(block).encode()
        ends = np.cumsum([len(f.encode()) + 1 for f in block]) - 1
        first = ends - [len(f.encode()) for f in block]
        lead, room = floattext.ROOM
        held = around * lead + data + around * room
        copied, in_place = floattext.read(data, first, ends), floattext.read(held, first + lead,
                                                                             ends + lead)
        assert (in_place is None) == (copied is None) == (block is not fields)
        assert in_place is None or in_place.tobytes() == copied.tobytes()


def _dense_model(n: int = 37, m: int = 111, seed: int = 4, zeros: float = 0.0,
                 indent: int | None = 2) -> str:
    """A model whose probabilities are below ``zeros`` with that probability, indented as
    the writer prints it or, for ``indent=None``, compact."""
    rng = np.random.default_rng(seed)
    P = rng.uniform(1e-6, 1.0, size=(m, n)) ** 3
    P[P < zeros] = 0.0
    P /= P.sum(axis=1, keepdims=True)
    actions = [{"id": f"a{k}", "state": k % n, "probs": p, "reward": 0.5}
               for k, p in enumerate(P.tolist())]
    return json.dumps({"version": 1, "n_states": n, "gamma": 0.9, "actions": actions},
                      indent=indent, separators=None if indent else (",", ":"))


@pytest.mark.parametrize("indent", [2, None])
@pytest.mark.parametrize("values", [7, 64, 4096, cli._VALUES])
@pytest.mark.parametrize("chunk", [1, 500, 1 << 19])
def test_model_bodies_across_slices_and_chunks(values, chunk, indent, monkeypatch, tmp_path):
    """P reads as ``json.loads`` gives it, whatever slices and chunks cut the rows, in both
    layouts, from text, a stream and a file."""
    monkeypatch.setattr(cli, "_VALUES", values)
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    text = _dense_model(indent=indent)
    (path := tmp_path / "model.json").write_text(text)
    calls = []
    kernel = floattext.read
    monkeypatch.setattr(floattext, "read", lambda *a: calls.append(1) or kernel(*a))
    P = np.array([a["probs"] for a in json.loads(text)["actions"]])
    for read in (lambda: mdp_from_json(text), lambda: mdp_from_json(io.BytesIO(text.encode())),
                 lambda: cli._load_mdp(str(path))[0]):
        assert read().P.tobytes() == P.tobytes()
    assert len(calls) >= 3 * -(-P.size // max(values, P.shape[1]))  # the kernel read them


def test_minus_zero_in_a_model_reads_as_json_does(monkeypatch):
    """json reads a bare ``-0`` as the int 0, so P holds +0.0 there; ``-0.0`` is -0.0."""
    signs = iter(np.random.default_rng(6).integers(0, 3, 4000).tolist())
    text = re.sub(r"(?<= )0\.0(?=,?\n)", lambda m: ["0.0", "-0", "-0.0"][next(signs)],
                  _dense_model(zeros=0.1))
    assert text.count("-0,") > 50 and text.count("-0.0,") > 50
    P = np.array([a["probs"] for a in json.loads(text)["actions"]])
    for values in (7, 4096):
        monkeypatch.setattr(cli, "_VALUES", values)
        assert mdp_from_json(text).P.tobytes() == P.tobytes()


@pytest.mark.parametrize("edit, message", [
    ("", None), ("0.0,0 .0", "action probs must hold one number between commas"),
    ("0.0,,0.0", "every action's probs must hold n_states=64 numbers")])
def test_zero_runs_beside_whitespace(edit, message):
    """A mostly-zero compact model with whitespace in one body: its window is read again
    without cutting the runs of zeros, to the values json gives and the messages the cut
    text gave."""
    rng, n = np.random.default_rng(1), 64
    P = np.zeros((n, n))
    P[np.arange(n), rng.integers(0, n, n)] = 1.0
    P[:, 5] += 0.25
    P /= P.sum(axis=1, keepdims=True)
    text = json.dumps({"version": 1, "n_states": n, "gamma": 0.9, "actions": [
        {"id": f"a{k}", "state": k, "probs": p, "reward": 0.0} for k, p in enumerate(P.tolist())]},
        separators=(",", ":"))
    at = text.index('"probs":[') + 9
    text = text[:at] + " \n " + text[at:]
    at = text.index("0.0,0.0,0.0,0.0", 2000)
    text = text[:at] + (edit or text[at:at + 7]) + text[at + 7:]
    if message is None:
        want = np.array([a["probs"] for a in json.loads(text)["actions"]])
        assert mdp_from_json(text).P.tobytes() == want.tobytes()
    else:
        with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
            mdp_from_json(text)


@pytest.mark.parametrize("values", [7, 50, 4096])
def test_trace_values_across_slices(values, monkeypatch):
    """Traces round-trip bit for bit: values of ordinary size, and values at every binary
    exponent, subnormals included, which the writer's kernel prints and the reader's
    reads."""
    monkeypatch.setattr(cli, "_VALUES", values)
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
    "frexp", "frombuffer", "full", "greater", "int8", "int16", "int32", "int64", "intp",
    "isfinite", "max", "maximum", "minimum", "multiply", "ndarray", "negative", "packbits",
    "repeat", "searchsorted", "signbit", "subtract", "uint8", "uint32", "uint64", "where",
    "zeros",
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
