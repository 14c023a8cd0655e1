"""Command-line front end and on-disk formats.

Models travel as JSON ({"version": 1, "n_states", "gamma", "actions": [...]},
unknown fields rejected, floats at full precision); per-iteration traces as
CSV with one row per iterate and 17-significant-digit numbers, so every
float round-trips exactly.

The model reader works on the file's bytes, read once: it hashes them, cuts
each action's ``"probs": [...]`` body out (a body ends at its first ``]`` and
may hold only JSON number characters, commas and JSON whitespace), parses the
small remaining skeleton with ``json``, and fills a preallocated ``P`` a
bounded chunk of rows at a time.  When more than 3/4 of the fields of a sample
of rows are exactly ``0`` or ``0.0``, it views the bytes as little-endian
8-byte words: a word that is one phase of a run of ``0.0`` fields and equals
both neighbours holds only whole zero fields and two commas, so it is skipped
as two fields.  numpy checks the rest of each chunk's bytes (every row has
exactly ``n_states`` fields, no whitespace splits a number) and marks its
zeros; ``json`` converts only the other fields, so a sparse model makes no
Python float per zero.  Otherwise ``json`` converts every row where it stands.  Either way ``P`` holds the very floats
``json.loads`` gives.  The ``input_hashes`` of model and trace files are the
sha256 of their bytes on disk.

The writers stream: a model or trace file goes to disk in UTF-8 blocks of at
most 64 actions or rows, each fed to sha256 as it is written, so no whole
output file is ever held in memory.  Files are still written atomically (temp
file + rename); ``output_hash`` is the digest of the bytes written.

Every command emits a deterministic JSON summary
on stdout carrying sha256 hashes of its input files; timestamps never enter
any output.

A value-taking flag can also be given as the environment variable
MDPGEO_<DEST>, its dest upper-cased (MDPGEO_ALPHA; ``certify --alpha`` reads
MDPGEO_CERT_ALPHA); an explicit flag wins.

Exit codes: 0 success, 2 iteration-cap abort, 64 usage, 65 invalid data,
66 missing input, 73 output cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import os
import re
import sys
import tempfile
import typing
from collections.abc import Iterable, Iterator

import numpy as np

from .analysis import certify, certify_alpha
from .core import Mdp, ModelError, Policy, policy_from_ids, validate
from .gen import STRUCTURES, GenSpec, generate
from .solvers import (
    ConfigError,
    ConsistencyError,
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


_BLOCK = 64  # pieces (model actions, trace rows) per block written: bounds the text held
_ITEM = ",\n        "  # between two probabilities at indent=2
_PROBS = json.JSONEncoder(separators=(_ITEM, ": "))  # no indent: json's C encoder


_STRIDE = len("0.0" + _ITEM)


@functools.lru_cache(maxsize=4)
def _zero_items(n: int) -> str:
    """The items of a row of n zeros: item k is ``"0.0"`` at offset ``k * _STRIDE``."""
    return _ITEM.join(["0.0"] * n)


def _probs_items(p: np.ndarray) -> str:
    """The items of row ``p``: its entries other than +0.0, encoded, spliced
    into the cached row of zeros."""
    nz = np.flatnonzero((p != 0.0) | np.signbit(p))
    encoded = _PROBS.encode(p[nz].tolist())[1:-1]
    if nz.size == p.size:
        return encoded
    zeros, parts, pos = _zero_items(p.size), [], 0
    for k, x in zip((nz * _STRIDE).tolist(), encoded.split(_ITEM)):
        parts += (zeros[pos:k], x)
        pos = k + len("0.0")
    parts.append(zeros[pos:])
    return "".join(parts)


def _mdp_json_pieces(mdp: Mdp) -> Iterator[str]:
    """``mdp_to_json(mdp)`` in pieces: the head, one piece per action, the tail.

    Each probability row is encoded on its own and spliced into the fixed
    indent=2 layout; ids, states and rewards go through ``json.dumps``.
    """
    yield (f'{{\n  "version": 1,\n  "n_states": {json.dumps(mdp.n_states)},\n'
           f'  "gamma": {json.dumps(mdp.gamma)},\n  "actions": [')
    sep = "\n"
    for aid, state, p, reward in zip(mdp.ids, mdp.state_of.tolist(), mdp.P,
                                     mdp.rewards.tolist()):
        probs = f"[\n        {_probs_items(p)}\n      ]" if p.size else "[]"
        yield (f'{sep}    {{\n      "id": {json.dumps(aid)},\n      "state": {json.dumps(state)},'
               f'\n      "probs": {probs},\n      "reward": {json.dumps(reward)}\n    }}')
        sep = ",\n"
    yield "\n  ]\n}\n" if mdp.m else "]\n}\n"


def mdp_to_json(mdp: Mdp) -> str:
    """The model exactly as ``json.dumps(doc, indent=2) + "\\n"`` prints it."""
    return "".join(_mdp_json_pieces(mdp))


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


_STRING = rb'"[^"\\]*+(?:\\.[^"\\]*+)*+"'
# "probs" in every JSON spelling: each letter as itself or as a \u escape
_PROBS_KEY = rb'"(?:p|\\u0070)(?:r|\\u0072)(?:o|\\u006[fF])(?:b|\\u0062)(?:s|\\u0073)"'
_OPENS_LIST = rb"[ \t\n\r]*:[ \t\n\r]*\["
# from a point outside any string, string by string: up to the "[" that opens the next
# probs list; possessive, so a text with no such key left fails in one pass.  On UTF-8
# bytes: no byte of a multibyte character is ASCII
_PROBS_LIST = re.compile(
    rb'(?:[^"]*+(?!' + _PROBS_KEY + _OPENS_LIST + rb')' + _STRING + rb')*+[^"]*+'
    + _PROBS_KEY + _OPENS_LIST)
_DECODE = json.JSONDecoder().raw_decode
_WS = b" \t\n\r"
_NUMBER = b"0123456789+-.eE"
_CHUNK = 1 << 17  # probabilities per fill step: bounds the temporaries
# the 8-byte words of a run of "0.0" fields, at each phase; each holds two commas
_ZERO_RUN = np.array([int.from_bytes(w, "little")
                     for w in (b",0.0,0.0", b"0.0,0.0,", b".0,0.0,0", b"0,0.0,0.")], dtype="<u8")


def _cut_probs(data: bytes) -> tuple[bytes, list[tuple[int, int]]]:
    """``data`` with the body of its k-th ``"probs"`` list replaced by ``k``, and
    the ``(start, end)`` byte offsets of every body in ``data``."""
    parts, spans, pos = [], [], 0
    while opens := _PROBS_LIST.match(data, pos):
        start = opens.end()
        end = data.find(b"]", start)
        if end < 0:
            raise ModelError("model file is not valid JSON: a probs list is not closed")
        parts += (data[pos:start], b"%d" % len(spans))
        spans.append((start, end))
        pos = end
    parts.append(data[pos:])
    return b"".join(parts), spans


def _floats(values, count: int) -> np.ndarray:
    try:
        return np.fromiter(values, np.float64, count)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelError(f"action probs must be JSON numbers: {exc}") from None


def _json_row(data: bytes, a: int, b: int):
    """The JSON value that opens with the ``[`` at ``data[a - 1]``, as ``json``
    reads it where it stands in the whole text."""
    try:  # a well-formed body is ASCII and ends at the first "]"
        return _DECODE(data[a - 1:b + 1].decode("ascii"))[0]
    except (ValueError, RecursionError):
        pass
    text = data.decode("utf-8", "surrogatepass")  # json's own message, or a list past b
    try:
        return _DECODE(text, len(data[:a - 1].decode("utf-8", "surrogatepass")))[0]
    except (ValueError, RecursionError) as exc:
        raise ModelError(f"action probs are not a JSON list: {exc}") from None


def _fill_with_json(out: np.ndarray, data: bytes, rows: list[tuple[int, int]], n: int) -> None:
    """``json`` converts every field, each body read where it stands."""
    lists, find = [], data.find
    for a, b in rows:
        row = _json_row(data, a, b)
        if len(row) != n:
            raise ModelError(f"every action's probs must hold n_states={n} numbers")
        # a string, true, false, null, NaN or Infinity shows '"', "t", "a" or "n"
        if max(find(b'"', a, b), find(b"t", a, b), find(b"a", a, b), find(b"n", a, b)) >= 0:
            raise ModelError("action probs must be JSON numbers")
        lists.append(row)
    out[:] = _floats(itertools.chain.from_iterable(lists), out.size)


def _zero_runs(words: np.ndarray, spans: np.ndarray) -> tuple[np.ndarray, ...]:
    """The runs of words that hold only whole zero fields and commas, inside the
    bodies ``spans`` (an (R, 2) array of byte offsets): per run, its first and
    past-last byte offsets, the body it lies in and the fields it holds.

    A word that equals one of the ``_ZERO_RUN`` patterns and both of its
    neighbours lies in a run of that pattern, 24 bytes free of brackets, so in
    one body; every field that touches it is a whole ``0.0`` bounded by commas
    in those 24 bytes.  Cutting whole words out of a run leaves text that
    reads as the run did, with two fewer such fields per word."""
    lo, hi = spans[0, 0] // 8, min(-(-spans[-1, 1] // 8), words.size)
    w = words[lo:hi]
    mid = w[1:-1]
    proven = np.isin(mid, _ZERO_RUN) & (mid == w[:-2]) & (mid == w[2:])
    edges = np.flatnonzero(np.diff(proven, prepend=False, append=False))
    first, last = edges[::2], edges[1::2]
    start, stop = 8 * (lo + 1 + first), 8 * (lo + 1 + last)
    body = np.searchsorted(spans[:, 0], start, "right") - 1
    inside = start < spans[body, 1]  # not in a string of the skeleton
    return start[inside], stop[inside], body[inside], 2 * (last - first)[inside]


def _fill_skipping_zeros(out: np.ndarray, data: bytes, words: np.ndarray,
                         rows: list[tuple[int, int]], n: int) -> None:
    """Cut the proven zero runs (``_zero_runs``) out of the bodies and join what
    is left, each body with its closing ``]``; numpy checks that text and finds
    its fields that are exactly ``0`` or ``0.0``; ``json`` converts the others."""
    spans = np.array(rows, dtype=np.int64)
    cut_start, cut_stop, cut_row, cut_fields = _zero_runs(words, spans)
    body_ends = spans[:, 1] + 1
    body_ends[-1] -= 1  # no "]" after the last body
    starts = np.sort(np.concatenate((spans[:, 0], cut_stop)))
    stops = np.sort(np.concatenate((body_ends, cut_start)))
    raw = b"".join([data[a:b] for a, b in zip(starts.tolist(), stops.tolist())])
    spaced = any(w in raw for w in (b" ", b"\n", b"\t", b"\r"))
    c = raw.translate(None, _WS) if spaced else raw
    if c.translate(None, _NUMBER + b",];"):
        raise ModelError("action probs may hold only JSON numbers, commas and whitespace")
    u = np.frombuffer(c, np.uint8)
    sep = np.flatnonzero((u == ord(",")) | (u == ord("]")))
    ends, pos = [], -1  # the row ends: no body holds a "]"
    while (pos := c.find(b"]", pos + 1)) >= 0:
        ends.append(pos)
    joints = np.searchsorted(sep, ends)  # their places among the separators
    skipped = np.bincount(cut_row, weights=cut_fields, minlength=len(rows))
    if b";" in c or joints.size != len(rows) - 1 or (  # ";" once joined the rows: miscounts
            np.diff(joints, prepend=-1, append=sep.size) - 1 + skipped != n - 1).any():
        raise ModelError(f"every action's probs must hold n_states={n} numbers")
    start = np.concatenate(([0], sep + 1))
    size = np.concatenate((sep, [u.size])) - start
    if not size.all():
        raise ModelError("action probs must hold one number between commas")
    if spaced:  # whitespace may surround a number, never split one
        w = np.frombuffer(raw, np.uint8)
        digit = ((w > ord(",")) | (w == ord("+"))) & (w != ord("]"))
        if np.count_nonzero(digit[1:] > digit[:-1]) + digit[0] != size.size:
            raise ModelError("action probs must hold one number between commas")
    keep = (size != 1) | (u[start] != ord("0"))
    three = size == 3
    at = start[three]
    keep[three] = (u[at] != ord("0")) | (u[at + 1] != ord(".")) | (u[at + 2] != ord("0"))
    # each kept field with the separator before it; the first one becomes "["
    picked = np.frombuffer(b"]" + c, np.uint8)[np.repeat(keep, size + 1)]
    picked[picked == ord("]")] = ord(",")
    try:
        values = json.loads(b"[" + picked[1:].tobytes() + b"]")
    except ValueError as exc:
        raise ModelError(f"action probs must be JSON numbers: {exc}") from None
    # the field that touches a cut is a zero, so a kept field comes after exactly the
    # cuts with fewer separators before them than it has
    if spaced:
        sep = np.flatnonzero((w == ord(",")) | (w == ord("]")))
    at_cut = np.cumsum(stops - starts)[np.searchsorted(stops, cut_start)]
    field = np.flatnonzero(keep)
    before = np.searchsorted(np.searchsorted(sep, at_cut), field)
    out[field + np.concatenate(([0], np.cumsum(cut_fields)))[before]] = _floats(
        values, field.size)


def _probs_matrix(data: bytes, spans: list[tuple[int, int]], n: int) -> np.ndarray:
    """The (len(spans), n) matrix whose row k holds the numbers of ``data[a:b]``
    for ``(a, b) = spans[k]``; ModelError unless each body is exactly n JSON
    numbers separated by commas.  The zeros are skipped when they are more than
    3/4 of the fields of eight rows spread over the model: about where the two
    fills cost the same (2/3 of the fields for compact text, 4/5 for indented)."""
    if n < 0 or any(b - a < 2 * n - 1 for a, b in spans):
        raise ModelError(f"every action's probs must hold n_states={n} numbers")
    try:
        P = np.zeros((len(spans), n))
    except ValueError as exc:  # no rows, and n past numpy's largest shape
        raise ModelError(f"model arrays are malformed: {exc}") from None
    sample = spans[::max(1, -(-len(spans) // 8))]
    fields = [f.strip(_WS) for a, b in sample for f in data[a:b].split(b",")]
    if 4 * (fields.count(b"0") + fields.count(b"0.0")) > 3 * len(sample) * n:
        words = np.frombuffer(data, "<u8", len(data) // 8)  # a view: no copy
        fill = lambda out, rows: _fill_skipping_zeros(out, data, words, rows, n)  # noqa: E731
    else:
        fill = lambda out, rows: _fill_with_json(out, data, rows, n)  # noqa: E731
    step = _CHUNK // max(n, 1) or 1
    for r0 in range(0, len(spans), step):
        rows = spans[r0:r0 + step]
        fill(P[r0:r0 + len(rows)].reshape(-1), rows)
    P.setflags(write=False)  # nothing writes it again, so the model is validated once
    return P


def _mdp_from_bytes(data: bytes) -> Mdp:
    skeleton, spans = _cut_probs(data)
    doc = _parse_json(skeleton.decode("utf-8", "surrogatepass"), "model file")
    _fields(doc, _MDP_KEYS, "model file")
    if doc["version"] != 1:
        raise ModelError(f"unsupported model file version {doc['version']!r}")
    if not isinstance(doc["actions"], list):
        raise ModelError("model actions must be a JSON list")
    n = _typed(doc["n_states"], int, "model n_states")
    gamma = _typed(doc["gamma"], float, "model gamma")
    ids, states, rewards = [], [], []
    for k, entry in enumerate(doc["actions"]):
        _fields(entry, _ACTION_KEYS, "action")
        ids.append(_typed(entry["id"], str, "action id"))
        states.append(_typed(entry["state"], int, f"action {entry['id']!r} state"))
        rewards.append(_typed(entry["reward"], float, f"action {entry['id']!r} reward"))
        if entry["probs"] != [k]:  # every list-valued "probs" key was cut, in order
            raise ModelError(f"action {entry['id']!r} probs must be one JSON list of numbers")
    P = _probs_matrix(data, spans, n)
    mdp = Mdp.from_arrays(n, gamma, ids, states, P, rewards)
    validate(mdp)
    return mdp


def mdp_from_json(text: str) -> Mdp:
    return _mdp_from_bytes(text.encode("utf-8", "surrogatepass"))


_TRACE_HEADER = ["t", "span_v", "span_dv", "active_actions", "stop_reason_final"]


def _trace_csv_lines(trace: RunTrace) -> Iterator[str]:
    """``trace_to_csv(trace)`` line by line, each line ending in ``\\n``."""
    n = trace.values.shape[1]
    yield ",".join(_TRACE_HEADER + [f"value_{i}" for i in range(n)]) + "\n"
    row = ",".join(["%d", "%.17g", "%.17g", "%d", "%s"] + ["%.17g"] * n) + "\n"
    for t, (span_v, span_dv, active, values) in enumerate(zip(
            trace.span_v.tolist(), trace.span_dv.tolist(), trace.active_counts.tolist(),
            trace.values)):
        yield row % (t, span_v, span_dv, active, trace.stop_reason, *values.tolist())


def trace_to_csv(trace: RunTrace) -> str:
    return "".join(_trace_csv_lines(trace))


def _trace_values(tails: list[str], n: int) -> np.ndarray:
    """The (len(tails), n) matrix of the comma-separated numbers in ``tails``, each
    converted by ``float``; every tail holds exactly n fields."""
    if not tails or not n:
        return np.empty((len(tails), n))
    try:
        flat = np.fromiter(map(float, ",".join(tails).split(",")), np.float64, len(tails) * n)
    except ValueError:  # rescan to name the first bad row
        for t, tail in enumerate(tails):
            try:
                list(map(float, tail.split(",")))
            except ValueError as exc:
                raise ModelError(f"trace row {t} is malformed: {exc}") from None
        raise
    return flat.reshape(len(tails), n)


def trace_from_csv(text: str) -> RunTrace:
    """Rebuild a trace from CSV; greedy rows are not stored on disk, so it has none.

    Each row's first five fields are checked in turn, the spans only as numbers;
    the value fields of all rows are converted in one pass, so a problem in them
    is reported ahead of any problem in a later row, as a row-by-row read would."""
    lines = [ln for ln in text.split("\n") if ln]
    header = lines[0].split(",") if lines else []
    if header[:len(_TRACE_HEADER)] != _TRACE_HEADER:
        raise ModelError("trace file has an unexpected header")
    width, n = len(header), len(header) - len(_TRACE_HEADER)
    tails, counts = [], []
    stop_reason, problem = "", None
    for t, ln in enumerate(lines[1:]):
        fields = ln.count(",") + 1
        if fields != width:
            problem = f"trace row {t} has {fields} fields, expected {width}"
            break
        parts = ln.split(",", len(_TRACE_HEADER))
        try:
            if int(parts[0]) != t:
                raise ValueError(f"t={parts[0]}, expected {t}")
            float(parts[1]), float(parts[2])
            counts.append(np.intp(parts[3]))
        except (ValueError, OverflowError) as exc:
            problem = f"trace row {t} is malformed: {exc}"
            break
        stop_reason = parts[4]
        tails.append(parts[-1] if n else "")
    values = _trace_values(tails, n)
    if problem:
        raise ModelError(problem)
    if not tails:
        raise ModelError("trace file has no data rows")
    if not np.isfinite(values).all():
        raise ModelError("trace file has non-finite values")
    return RunTrace(
        values=values,
        active_counts=np.array(counts, dtype=np.intp),
        rows=np.empty((0, values.shape[1]), dtype=np.int32),
        ids=(),
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


def _read_bytes(path: str) -> bytes:
    """The bytes of ``path``, which must be UTF-8 (UnicodeDecodeError otherwise)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    if not data.isascii():
        data.decode("utf-8")
    return data


def _text(data: bytes) -> str:
    """UTF-8 ``data`` as text, each ``\\r\\n`` or ``\\r`` read as ``\\n``."""
    text = data.decode("utf-8")
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _read_text(path: str) -> tuple[str, str]:
    """The text of ``path`` and the sha256 of its bytes."""
    data = _read_bytes(path)
    return _text(data), hashlib.sha256(data).hexdigest()


def _write_chunks(path: str, pieces: Iterable[str]) -> str:
    """Write the text of ``pieces`` to ``path`` as UTF-8, atomically (a temp file
    beside it, then a rename), and return the sha256 of the bytes written.

    The pieces are joined, encoded, hashed and written ``_BLOCK`` at a time, so
    the whole text is never held at once; no piece is empty."""
    digest, pieces = hashlib.sha256(), iter(pieces)
    try:
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".mdpgeo-")
        try:
            with os.fdopen(fd, "wb") as fh:
                while block := "".join(itertools.islice(pieces, _BLOCK)).encode("utf-8"):
                    fh.write(block)
                    digest.update(block)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise _OutputError(f"cannot write {path}: {exc}") from exc
    return digest.hexdigest()


def _read_list(path: str, what: str, kind: type) -> tuple:
    """A side input holding a JSON list whose entries are all of ``kind`` (see ``_typed``)."""
    doc = _parse_json(_read_text(path)[0], what)
    if not isinstance(doc, list):
        raise ModelError(f"{what} must be a JSON list")
    return tuple(_typed(x, kind, f"{what} entry") for x in doc)


def _load_mdp(path: str) -> tuple[Mdp, str]:
    """The model in ``path`` and the sha256 of the file's bytes."""
    data = _read_bytes(path)
    return _mdp_from_bytes(data), hashlib.sha256(data).hexdigest()


def _emit(args, fields: dict, inputs: dict | None = None, tail: dict | None = None,
          out: str | None = None) -> None:
    """Print the summary of ``args.command``: version, command, the command's own
    ``fields``, the sha256 of the files it read (``inputs``), then ``tail``;
    ``out`` also gets a copy."""
    doc = {"version": 1, "command": args.command, **fields}
    if inputs:
        doc["input_hashes"] = inputs
    text = json.dumps(doc | (tail or {}), indent=2) + "\n"
    if out:
        _write_chunks(out, [text])
    sys.stdout.write(text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error:usage:{message}\n")
        raise SystemExit(EX_USAGE)


_STOP_RULES = {"time": ("time", "t_max", int), "span": ("span", "epsilon", float),
               "vspan": ("value_span", "epsilon", float)}
_V0_CHOICES = {"zeros": "zeros", "upper": "upper_bound"}


def _stop_spec(text: str) -> dict:
    """``--stop`` as ``ViConfig`` keywords: ``actions``, ``time:T``, ``span:EPS``
    or ``vspan:EPS``."""
    if text == "actions":
        return {"stop": "actions"}
    kind, sep, value = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"bad stop spec {text!r}")
    if kind not in _STOP_RULES:
        raise argparse.ArgumentTypeError(f"unknown stop rule {text!r}")
    stop, key, convert = _STOP_RULES[kind]
    try:
        return {"stop": stop, key: convert(value)}
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad stop value in {text!r}") from None


def _schedule_spec(text: str) -> dict:
    """``--schedule`` as ``ViConfig`` keywords: ``sync`` or ``rr:K``."""
    if text == "sync":
        return {"schedule": "sync"}
    kind, sep, value = text.partition(":")
    if kind == "rr" and sep:
        try:
            return {"schedule": "round_robin", "round_robin_k": int(value)}
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad round-robin count in {text!r}") from None
    raise argparse.ArgumentTypeError(f"unknown schedule {text!r}")


def _v0_spec(text: str) -> dict:
    """``--v0`` as ``ViConfig`` keywords: ``zeros``, ``upper`` or ``file:PATH``;
    for a file, ``v0_values`` holds its path until the command reads it."""
    if text in _V0_CHOICES:
        return {"v0": _V0_CHOICES[text]}
    kind, sep, path = text.partition(":")
    if kind == "file" and sep:
        return {"v0": "given", "v0_values": path}
    raise argparse.ArgumentTypeError(f"unknown v0 choice {text!r}")


# ---------------------------------------------------------------------------
# commands


def _cmd_generate(args) -> int:
    if args.spec:
        doc = _parse_json(_read_text(args.spec)[0], "spec file")
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
    output_hash = _write_chunks(args.out, _mdp_json_pieces(mdp))
    _emit(args, {
        "seed": spec.seed,
        "structure": spec.structure,
        "n_states": mdp.n_states,
        "n_actions": mdp.m,
        "gamma": mdp.gamma,
        "output_hash": output_hash,
    })
    return EX_OK


def _cmd_solve_vi(args) -> int:
    mdp, mdp_hash = _load_mdp(args.mdp)
    v0 = args.v0
    if v0["v0"] == "given":  # read here, so its errors exit 66/65, not 64
        v0 = {"v0": "given", "v0_values": _read_list(v0["v0_values"], "values file", float)}
    cfg = ViConfig(alpha=args.alpha, filter=args.filter, **args.stop, **args.schedule, **v0)
    trace = value_iteration(mdp, cfg)
    if args.trace:
        _write_chunks(args.trace, _trace_csv_lines(trace))
    _emit(args, {
        "policy": list(trace.final_policy.choice),
        "values": [float(x) for x in trace.values[-1]],
        "iterations": trace.iterations,
        "stop_reason": trace.stop_reason,
        "active_actions": int(trace.active_counts[-1]),
        "trace_hash": trace.content_hash(),
    }, {"mdp": mdp_hash}, out=args.out)
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
    _emit(args, {
        "policy": list(policy.choice),
        "values": [float(x) for x in policy.values],
        "iterations": trace.iterations,
        "policy_sequence": [list(c) for c in trace.policies],
    }, {"mdp": mdp_hash}, out=args.out)
    return EX_OK


def _cmd_normalize(args) -> int:
    mdp, mdp_hash = _load_mdp(args.mdp)
    normalized, policy, log = normalize(mdp)
    output_hash = _write_chunks(args.out, _mdp_json_pieces(normalized))
    _emit(args, {
        "optimal_policy": list(policy.choice),
        "shifts": [
            {"state": step.state, "delta": step.delta} for step in log.steps
        ],
        "output_hash": output_hash,
    }, {"mdp": mdp_hash})
    return EX_OK


def _cmd_gamma_eff(args) -> int:
    mdp, mdp_hash = _load_mdp(args.mdp)
    gamma_eff, log = effective_gamma(mdp)
    _emit(args, {
        "gamma": mdp.gamma,
        "gamma_eff": gamma_eff,
        "clamped": bool(gamma_eff <= GAMMA_FLOOR),
        "steps": [
            {"state": s.state, "gamma_to": s.gamma_to} for s in log.steps
        ],
    }, {"mdp": mdp_hash}, out=args.out)
    return EX_OK


def _cmd_certify(args) -> int:
    mdp, mdp_hash = _load_mdp(args.mdp)
    trace_text, trace_hash = _read_text(args.trace)
    trace = trace_from_csv(trace_text)
    if args.cert_alpha is None:
        cert = certify(mdp, trace, epsilon=args.epsilon)
    else:
        cert = certify_alpha(mdp, trace, alpha=args.cert_alpha, epsilon=args.epsilon)
    _emit(args, cert.to_dict(), {"mdp": mdp_hash, "trace": trace_hash}, out=args.out)
    return EX_OK


def _cmd_twostate(args) -> int:
    from .acceptance import run_twostate_suite
    from .twostate import inefficiency_certificate, verify_pi_bound

    if args.mdp:
        mdp, mdp_hash = _load_mdp(args.mdp)
        report = verify_pi_bound(mdp)
        tail = {"certificate": inefficiency_certificate(mdp).to_dict()} if mdp.m >= 3 else None
        _emit(args, {
            "action_count": report.action_count,
            "max_pi_iterations": report.max_iterations,
            "set_sizes": report.set_sizes,
            "violations": len(report.violations),
            "violation_details": report.violations,
        }, {"mdp": mdp_hash}, tail, out=args.out)
        return EX_OK if report.ok else EX_DATAERR

    result = run_twostate_suite(
        n_instances=args.suite, max_actions=args.max_actions, seed=args.seed
    )
    _emit(args, result, out=args.out)
    return EX_OK if result["violations"] == 0 else EX_DATAERR


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> _Parser:
    """The parser; a value-taking flag defaults to ``MDPGEO_<DEST>`` when that
    variable is set (which also satisfies a required flag), and an explicit
    flag wins."""
    parser = _Parser(prog="mdpgeo", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a seeded random model")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--n-states", type=int, default=2)
    g.add_argument("--gamma", type=float, default=0.9)
    g.add_argument("--structure", choices=STRUCTURES, default="dense")
    g.add_argument("--min-actions", type=int, default=1)
    g.add_argument("--max-actions", type=int, default=4)
    g.add_argument("--sparse-k", type=int, default=2)
    g.add_argument("--beta", type=float, default=0.5)
    g.add_argument("--spec", help="GenSpec JSON file")
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_generate)

    vi = sub.add_parser("solve-vi", help="run value iteration")
    vi.add_argument("--mdp", required=True)
    vi.add_argument("--alpha", type=float, default=1.0)
    vi.add_argument("--stop", type=_stop_spec, default="span:1e-6")
    vi.add_argument("--filter", choices=("none", "appendix"), default="none")
    vi.add_argument("--schedule", type=_schedule_spec, default="sync")
    vi.add_argument("--v0", type=_v0_spec, default="zeros")
    vi.add_argument("--trace")
    vi.add_argument("--out")
    vi.set_defaults(func=_cmd_solve_vi)

    pi = sub.add_parser("solve-pi", help="run Howard policy iteration")
    pi.add_argument("--mdp", required=True)
    pi.add_argument("--pi0", default="maxreward",
                    help="maxreward | first | path to a JSON list of action ids")
    pi.add_argument("--out")
    pi.set_defaults(func=_cmd_solve_pi)

    nm = sub.add_parser("normalize", help="shift rewards so optimal values are 0")
    nm.add_argument("--mdp", required=True)
    nm.add_argument("--out", required=True)
    nm.set_defaults(func=_cmd_normalize)

    ge = sub.add_parser("gamma-eff", help="lowest safely reachable discount factor")
    ge.add_argument("--mdp", required=True)
    ge.add_argument("--out")
    ge.set_defaults(func=_cmd_gamma_eff)

    ce = sub.add_parser("certify", help="convergence certificate from a trace")
    ce.add_argument("--mdp", required=True)
    ce.add_argument("--trace", required=True)
    ce.add_argument("--alpha", type=float, dest="cert_alpha", metavar="ALPHA")
    ce.add_argument("--epsilon", type=float, default=1e-6)
    ce.add_argument("--out")
    ce.set_defaults(func=_cmd_certify)

    ts = sub.add_parser("twostate", help="two-state bound verification")
    ts.add_argument("--mdp")
    ts.add_argument("--suite", type=int)
    ts.add_argument("--max-actions", type=int, default=12)
    ts.add_argument("--seed", type=int, default=0)
    ts.add_argument("--out")
    ts.set_defaults(func=_cmd_twostate)

    for command in sub.choices.values():
        for action in command._actions:  # every one but -h takes a value
            if action.nargs != 0 and (value := os.environ.get(
                    f"MDPGEO_{action.dest.upper()}")) is not None:
                action.default, action.required = value, False
                if action.choices is not None:  # argparse checks only a given flag's choices
                    action.type = lambda text, c=command, a=action: c._check_value(a, text) or text
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "twostate" and not args.mdp and (args.suite is None or args.suite < 1):
        sys.stderr.write("error:usage:twostate needs either --mdp or --suite N with N >= 1\n")
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
    except (ValueError, ConsistencyError) as exc:  # ModelError, AssumptionError, ...
        sys.stderr.write(f"error:{type(exc).__name__}:{exc}\n")
        return EX_DATAERR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
