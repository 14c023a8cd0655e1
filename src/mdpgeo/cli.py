"""Command-line front end and on-disk formats.

Models travel as JSON ({"version": 1, "n_states", "gamma", "actions": [...]},
unknown fields rejected, floats at full precision); per-iteration traces as
CSV with one row per iterate and 17-significant-digit numbers, so every
float round-trips exactly.

``mdp_from_json`` is the one model reader, of JSON text or of a seekable binary
stream (the CLI's files); it reads in two passes and never holds a file whole.  The
first hashes 64 KiB blocks, checks them as UTF-8 and cuts each action's
``"probs": [...]`` body out (a body ends at its first ``]`` and may hold only
JSON number characters, commas and JSON whitespace), carrying only the skeleton
that straddles a block's end; ``json`` parses the skeleton.  The second fills a
preallocated ``P`` a chunk of rows at a time, read at the bodies' offsets.  When
more than 3/4 of the fields of a sample of rows are ``0`` or ``0.0``, it skips
each 8-byte word of the file that is a phase of a run of ``0.0`` fields, as both
its neighbours are (it holds two whole zero fields); numpy checks the rest
(every row has ``n_states`` fields, no whitespace splits a number) and ``json``
converts its other fields; otherwise ``json`` converts each row where it stands.
``P`` holds the very floats ``json.loads`` gives.  A message that names places in
the file (bad UTF-8, a body holding a ``]``) comes from the whole file read again;
a file whose size or mtime moves between the passes exits 65, and a stream that
cannot seek is read into memory.  The trace reader walks its text line by line
into arrays allocated once, converting the values ``_BLOCK`` rows at a time: no
reader holds a Python object per number beyond one row or one block.

The writers stream: a model or trace file goes to disk in UTF-8 blocks of at
most 64 actions or rows (fewer rows of over 128 values), each fed to sha256 as
it is written, so no whole output file is ever held in memory.  Files are still
written atomically (temp file + rename); ``output_hash`` is the bytes' digest.

Every command emits a deterministic JSON summary
on stdout carrying the sha256 of its input files' bytes; timestamps never enter
any output.

A value-taking flag can also be given as the environment variable
MDPGEO_<DEST>, its dest upper-cased (MDPGEO_ALPHA; ``certify --alpha`` reads
MDPGEO_CERT_ALPHA); an explicit flag wins.

Exit codes: 0 success, 2 iteration-cap abort, 64 usage, 65 invalid data or a
model too large to allocate, 66 missing input, 73 output cannot be written.
"""

from __future__ import annotations

import argparse
import codecs
import functools
import hashlib
import io
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
    SolverError,
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


_BLOCK = 64  # model actions or trace rows per block written or read: bounds the text held
_ITEM = ",\n        "  # between two probabilities at indent=2
_PROBS = json.JSONEncoder(separators=(_ITEM, ": "))  # no indent: json's C encoder
_STRIDE = len("0.0" + _ITEM)


def _mdp_json_blocks(mdp: Mdp) -> Iterator[bytes]:
    """``mdp_to_json(mdp)`` as ASCII bytes: the head, a block per ``_BLOCK`` actions, the tail.

    A block's frames take ids through ``encode_basestring_ascii`` and states through
    ``str``.  Its rewards, and the entries other than +0.0 of its rows that hold a +0.0,
    are one encoder call each; these entries go between slices of a row of zeros, item k
    at ``k * _STRIDE``.  A row with no +0.0 is encoded on its own."""
    n, zeros = mdp.n_states, memoryview(_ITEM.encode().join([b"0.0"] * mdp.n_states))
    opening, closing = ("[\n        ", "\n      ]") if n else ("[", "]")
    yield (f'{{\n  "version": 1,\n  "n_states": {json.dumps(n)},\n'
           f'  "gamma": {json.dumps(mdp.gamma)},\n  "actions": [').encode()
    for b in range(0, mdp.m, _BLOCK):
        P, block = mdp.P[b:b + _BLOCK], slice(b, b + _BLOCK)
        frames = ((",\n" if b else "\n") + ",\n".join(
            f'    {{\n      "id": {aid},\n      "state": {state},\n      "probs": {opening}\0'
            f'{closing},\n      "reward": {reward}\n    }}' for aid, state, reward in zip(
                map(json.encoder.encode_basestring_ascii, mdp.ids[block]),
                mdp.state_of[block].tolist(),
                _PROBS.encode(mdp.rewards[block].tolist())[1:-1].split(_ITEM)))
        ).encode().split(b"\0")  # at each row's place: an escaped id holds no NUL
        nz = P.view(np.int64) != 0  # every entry but +0.0, whose bits are all 0
        full = nz.all(axis=1).tolist()
        nz[full] = False  # a full row is encoded on its own
        rows, cols = np.divmod(np.flatnonzero(nz), n or 1)
        items = _PROBS.encode(P[rows, cols].tolist())[1:-1].encode().split(_ITEM.encode())
        # texts: each row's frame, then its items; zs[j], a slice of zeros, follows texts[j]
        slot, cut, size = np.arange(rows.size) + rows, cols * _STRIDE, rows.size + len(P)
        starts, ends = np.zeros(size, np.intp), np.full(size, len(zeros))
        ends[slot], starts[slot + 1] = cut, cut + 3  # slot: the index of the text before item
        zs, texts, e = [zeros[a:z] for a, z in zip(starts.tolist(), ends.tolist())], [], 0
        for r, count in enumerate(np.bincount(rows, minlength=len(P)).tolist()):
            if full[r]:  # its own text for its one slice, the whole row of zeros
                zs[e + r] = _PROBS.encode(P[r].tolist())[1:-1].encode()
            texts += (frames[r], *items[e:e + count])
            e += count
        parts = [frames[-1]] * (2 * size + 1)
        parts[:-1:2], parts[1::2] = texts, zs
        yield b"".join(parts)
    yield b"\n  ]\n}\n" if mdp.m else b"]\n}\n"


def mdp_to_json(mdp: Mdp) -> str:
    """The model exactly as ``json.dumps(doc, indent=2) + "\\n"`` prints it."""
    return b"".join(_mdp_json_blocks(mdp)).decode()


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


def _parse_json(text: str, what: str, **hooks):
    try:
        return json.loads(text, **hooks)
    except (ValueError, RecursionError) as exc:
        raise ModelError(f"{what} is not valid JSON: {exc}") from None


_STRING = rb'"[^"\\]*+(?:\\.[^"\\]*+)*+"'
# "probs" in every JSON spelling: each letter as itself or as a \u escape
_PROBS_KEY = rb'"(?:p|\\u0070)(?:r|\\u0072)(?:o|\\u006[fF])(?:b|\\u0062)(?:s|\\u0073)"'
_OPENS_LIST = rb"[ \t\n\r]*:[ \t\n\r]*\["
# from a point outside any string, string by string, up to the first that opens a probs
# list or that the bytes at hand leave open (past any whitespace, neither a byte but ":"
# nor ":" and a byte follow it); possessive: one pass.  No byte of UTF-8 multibyte is ASCII
_WALK = (rb'(?:[^"]*+(?!' + _PROBS_KEY + _OPENS_LIST + rb')' + _STRING
         + rb'(?=[ \t\n\r]*+(?::[ \t\n\r]*+[^ \t\n\r]|[^ \t\n\r:])))*+[^"]*+')
_DECIDED = re.compile(_WALK)
_PROBS_LIST = re.compile(_WALK + _PROBS_KEY + _OPENS_LIST)  # to the "[" that opens the list
_READ = 1 << 16  # bytes per block of a model's first pass: below glibc's mmap threshold
_DECODE = json.JSONDecoder().raw_decode
_WS = b" \t\n\r"
_NUMBER = b"0123456789+-.eE"
_CHUNK = 1 << 19  # bytes of probs text per fill step: bounds the text held and the temporaries
# the 8-byte words of a run of "0.0" fields, at each phase; each holds two commas
_ZERO_RUN = np.array([int.from_bytes(w, "little")
                     for w in (b",0.0,0.0", b"0.0,0.0,", b".0,0.0,0", b"0,0.0,0.")], dtype="<u8")


def _read_at(fh, a: int = 0, b: int | None = None) -> bytes:
    """Bytes ``a:b`` of ``fh``; all of them for a message that names places in them."""
    fh.seek(a)
    return fh.read(-1 if b is None else b - a)


def _cut_probs(fh, digest) -> tuple[bytes, list[tuple[int, int]]]:
    """The bytes of ``fh`` with the body of their k-th ``"probs"`` list replaced by
    ``k``, and the ``(start, end)`` offsets of every body, read in blocks that go to
    ``digest`` and are checked as UTF-8 unless it is None; a block carries to the
    next only the skeleton from its first string that it cannot decide."""
    parts, spans, data, base, start = [], [], b"", 0, None
    decode = codecs.getincrementaldecoder("utf-8")().decode
    try:
        for block in iter(functools.partial(fh.read, _READ), b""):
            if digest is not None:  # a file; text in memory came from a str
                digest.update(block)
                decode(block)
            data, pos = data + block, 0
            while start is None or (end := data.find(b"]", pos)) >= 0:
                if start is not None:  # a body ends at its first "]"
                    spans.append((start, base + end))
                    pos, start = end, None
                if not (opens := _PROBS_LIST.match(data, pos)):
                    break
                parts += (data[pos:opens.end()], b"%d" % len(spans))
                pos, start = opens.end(), base + opens.end()
            stop = len(data) if start is not None else _DECIDED.match(data, pos).end()
            if start is None:
                parts.append(data[pos:stop])
            data, base = data[stop:], base + stop
        decode(b"", True)
    except UnicodeDecodeError:  # the message with its place in the whole text
        _read_at(fh).decode("utf-8")
        raise
    if start is not None:
        raise ModelError("model file is not valid JSON: a probs list is not closed")
    return b"".join(parts) + data, spans  # what is left holds no list


def _floats(values, count: int) -> np.ndarray:
    try:
        return np.fromiter(values, np.float64, count)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelError(f"action probs must be JSON numbers: {exc}") from None


def _json_row(data: bytes, a: int, b: int, whole):
    """The JSON value that opens with the ``[`` at ``data[a - 1]``, as ``json``
    reads it in place in the whole text, whose bytes and ``data``'s offset ``whole()`` gives."""
    try:  # a well-formed body is ASCII and ends at the first "]"
        return _DECODE(data[a - 1:b + 1].decode("ascii"))[0]
    except (ValueError, RecursionError):
        pass
    data, base = whole()  # json's own message, or a list past b
    text = data.decode("utf-8", "surrogatepass")
    try:
        return _DECODE(text, len(data[:base + a - 1].decode("utf-8", "surrogatepass")))[0]
    except (ValueError, RecursionError) as exc:
        raise ModelError(f"action probs are not a JSON list: {exc}") from None


def _fill_with_json(out: np.ndarray, data: bytes, rows: list[tuple[int, int]], n: int,
                    whole) -> None:
    """``json`` converts every field, each body read where it stands and written
    into ``out`` before the next is read.  A field that is no number is reported
    after the bodies of the chunk are checked, as when the chunk was converted
    at once."""
    find, late = data.find, None
    for k, (a, b) in enumerate(rows):
        row = _json_row(data, a, b, whole)
        if len(row) != n:
            raise ModelError(f"every action's probs must hold n_states={n} numbers")
        # a string, true, false, null, NaN or Infinity shows '"', "t", "a" or "n"
        if max(find(b'"', a, b), find(b"t", a, b), find(b"a", a, b), find(b"n", a, b)) >= 0:
            raise ModelError("action probs must be JSON numbers")
        if late is None:
            try:
                out[k * n:(k + 1) * n] = _floats(row, n)
            except ModelError as exc:
                late = exc
    if late is not None:
        raise late


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


def _fill_skipping_zeros(out: np.ndarray, data: bytes, rows: list[tuple[int, int]],
                         n: int) -> None:
    """Cut the proven zero runs (``_zero_runs``) out of the bodies and join what
    is left, each body with its closing ``]``; numpy checks that text and finds
    its fields that are exactly ``0`` or ``0.0``; ``json`` converts the others."""
    spans = np.array(rows, dtype=np.int64)
    cut_start, cut_stop, cut_row, cut_fields = _zero_runs(
        np.frombuffer(data, "<u8", len(data) // 8), spans)
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


def _probs_matrix(fh, spans: list[tuple[int, int]], n: int) -> np.ndarray:
    """The (len(spans), n) matrix whose row k holds the numbers of bytes ``a:b``
    of ``fh`` for ``(a, b) = spans[k]``; ModelError unless each body is exactly n
    JSON numbers separated by commas.  The zeros are skipped when they are more
    than 3/4 of the fields of eight rows spread over the model: about where the
    two fills cost the same (2/3 of the fields for compact text, 4/5 for indented).
    A chunk is read from the 8-byte word of its first ``[`` to its last ``]``."""
    if n < 0 or any(b - a < 2 * n - 1 for a, b in spans):
        raise ModelError(f"every action's probs must hold n_states={n} numbers")
    try:
        P = np.zeros((len(spans), n))
    except ValueError as exc:  # no rows, and n past numpy's largest shape
        raise ModelError(f"model arrays are malformed: {exc}") from None
    sample = spans[::max(1, -(-len(spans) // 8))]
    fields = [f.strip(_WS) for a, b in sample for f in _read_at(fh, a, b).split(b",")]
    skip = 4 * (fields.count(b"0") + fields.count(b"0.0")) > 3 * len(sample) * n
    ends, r0 = np.array([b for _, b in spans]), 0
    while r0 < len(spans):  # the rows whose text fits in _CHUNK bytes, or one row
        r1 = max(r0 + 1, int(np.searchsorted(ends, spans[r0][0] + _CHUNK, "right")))
        base, end = (spans[r0][0] - 1) // 8 * 8, spans[r1 - 1][1]
        data = _read_at(fh, base, max(end + 1, -(-end // 8) * 8))
        out, rows = P[r0:r1].reshape(-1), [(a - base, b - base) for a, b in spans[r0:r1]]
        if skip:
            _fill_skipping_zeros(out, data, rows, n)
        else:
            _fill_with_json(out, data, rows, n, lambda: (_read_at(fh), base))  # noqa: B023
        r0, data = r1, None  # one window at a time
    return P


def _plain_probs(pairs: list[tuple]) -> dict:
    """An object as ``json`` reads it, with each ``"probs"`` value replaced by
    whether it is a list of numbers: a whole file is then read holding one
    probs list at a time."""
    return {key: isinstance(value, list) and all(type(x) in (int, float) for x in value)
            if key == "probs" else value for key, value in pairs}


def mdp_from_json(source, digest=None) -> Mdp:
    """The model in JSON text or a seekable binary stream, whose bytes feed ``digest``."""
    fh = io.BytesIO(source.encode("utf-8", "surrogatepass")) if isinstance(source, str) else source
    skeleton, spans = _cut_probs(fh, digest)
    try:
        doc = json.loads(skeleton.decode("utf-8", "surrogatepass"))
    except (ValueError, RecursionError):  # a cut body held a "]", or the file is no JSON:
        # json reads the file itself, so a message gives places in the file
        doc = _parse_json(_read_at(fh).decode("utf-8", "surrogatepass"), "model file",
                          object_pairs_hook=_plain_probs)
        spans = None
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
        # every list-valued "probs" key was cut, in order; in the file's own reading,
        # json kept no list that holds a "]"
        if not (entry["probs"] == [k] if spans is not None else entry["probs"] is True):
            raise ModelError(f"action {entry['id']!r} probs must be one JSON list of numbers")
    if spans is None:  # each list json kept is plain, so a repeated key dropped the odd one
        raise ModelError("model file repeats a key whose dropped value holds a probs list")
    P = _probs_matrix(fh, spans, n)
    mdp = Mdp.from_arrays(n, gamma, ids, states, P, rewards)
    validate(mdp)
    return mdp


_TRACE_HEADER = ["t", "span_v", "span_dv", "active_actions", "stop_reason_final"]
_G17_VALUES = 8192  # trace values printed at a time: bounds the kernel's arrays


def _g17_tables() -> tuple:
    """``_g17``'s tables: 10**j and its halves; 4-digit groups in ASCII and their last nonzero
    digits; per class c = X + 6 (23: fallback) the point's and prefix's words and the bytes
    kept per significant digits; per tail (``,``/newline after ``e-0X``?) and end, its words."""
    p10, g = np.array([float(10**j) for j in range(23)]), np.arange(10000)  # exact
    hi = 134217729.0 * p10 - (134217729.0 * p10 - p10)  # Veltkamp's split: 2**27 + 1
    four = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1)
    sig = np.where(g > 0, 4 - np.argmax(four[:, ::-1] > 0, axis=1), 0)
    dots, heads, kept = np.zeros((24, 72), np.uint8), np.zeros((2, 48), np.uint64), []
    for c, X in enumerate(range(-6, 18)):
        t = X + 1 if X >= 0 else 1 if X < -4 else 24  # the point's byte: after digit X, or d0
        dots[c, :t], dots[c, 25 + t:48], dots[c, 48 + t:49 + t] = 255, 255, ord(".")
        kept.append([(m := max(d, X + 1, 1)) + (m > t) if c < 23 else 0 for d in range(18)])
        for neg in (0, 1):
            pre = b"-" * neg + b"0.000"[:1 - X] * (-4 <= X < 0) if c < 23 else b""
            heads[:, 24 * neg + c] = 8 * len(pre), int.from_bytes(pre, "little")
    tails = np.zeros((6, 24, 48), np.uint8)
    for kind, tail in enumerate([b",", b"\n", b"e-06,", b"e-06\n", b"e-05,", b"e-05\n"]):
        for end in range(25 - len(tail)):
            tails[kind, end, :end], tails[kind, end, 24 + end:24 + end + len(tail)] = 255, [*tail]
    return (np.stack([p10, hi, p10 - hi]),
            (48 + four).astype(np.uint8).view("<u4").astype(np.uint64).ravel(),
            ((np.arange(4)[:, None] * 4 + sig) * (sig > 0)).astype(np.int8),
            dots.view("<u8").T.copy(), heads, np.array(kept).ravel(),
            tails.reshape(144, 48).view("<u8").T.copy(), np.arange(24) < np.arange(25)[:, None])


_P10S, _DIGITS, _SIGS, _DOTS, _HEADS, _KEPT, _TAILS, _MASKS = _g17_tables()


def _g17_digits(x: np.ndarray) -> tuple:
    """Per value its class, its significant digits, its 17 digits with the point as
    three little-endian words; the indices of the fallbacks."""
    a = np.abs(x)
    nz = (a > 1e-6) & (a < 1e16)
    a[~nz] = 1.0
    k = np.clip(np.floor(np.log10(a)), -6, 15).astype(np.int64)
    q, fl, at = np.empty_like(k), np.empty_like(k), slice(None)
    for _ in range(2):  # a floor out of [10**16, 10**17) moves k by one, then falls back
        b, bh, bl = (row.take(16 - k[at]) for row in _P10S)
        p, c = a[at] * b, 134217729.0 * a[at]
        ah = c - (c - a[at])
        al = a[at] - ah
        err = ((ah * bh - p) + ah * bl + al * bh) + al * bl  # a * 10**j - p, exactly
        floor = np.floor(err)
        fl[at] = np.minimum(p, 2.0**62).astype(np.int64)  # p and floor in int64 range
        fl[at] += np.clip(floor, -1024, 1024).astype(np.int64)
        q[at] = fl[at] + ((err - floor > 0.5) | ((err - floor == 0.5) & (fl[at] & 1 == 1)))
        miss = nz & ((fl < 10**16) | (fl >= 10**17))
        at = np.flatnonzero(miss)
        k[at] = np.clip(k[at] - np.where(fl[at] < 10**16, 1, -1), -6, 15)
    fall = np.flatnonzero(miss | ~nz & (x != 0))
    q *= nz & ~miss  # ±0 prints as the one digit 0
    carry = q == 10**17
    q[carry], k[fall] = 10**16, 17
    g = []
    for d in (10**16, 10**12, 10**8, 10**4):  # not %: floor division by a constant is SIMD
        g.append(q // d)
        q -= g[-1] * d
    lead, g = g[0], g[1:] + [q]
    t1, t2, t3, t4 = (_DIGITS.take(gi) for gi in g)
    nd = np.max([sig.take(gi) for sig, gi in zip(_SIGS, g)], axis=0)
    c = k + carry + 6
    s = [(lead.view(np.uint64) + 48) | (t1 << 8) | (t2 << 40),  # digits 0-7, 8-15, 16
         (t2 >> 24) | (t3 << 8) | (t4 << 40), t4 >> 24]
    for i in (2, 1, 0):  # the point at byte t: the digits from t on move up a byte
        up = (s[i] << 8) | (s[i - 1] >> 56) if i else s[0] << 8
        s[i] = (s[i] & _DOTS[i].take(c)) | (up & _DOTS[3 + i].take(c)) | _DOTS[6 + i].take(c)
    return c, nd + 1, s, fall


def _g17(values: np.ndarray) -> list:
    """Each row of ``values`` as ``'%.17g'`` prints its numbers, ``,`` between and a newline
    after; ``%`` prints a row holding a fallback, a value not ±0 or in 1e-6 < |x| < 1e16.

    k estimates X = floor(log10|x|), and j = 16 - k lies in [1, 22], so 10**j is exact.
    Where |x| * 10**j >= 10**16 > 2**53, p = fl(|x| * 10**j) is an integer; Dekker's
    product gives its exact error e, so the exact floor is p + floor(e).  It is checked
    to lie in [10**16, 10**17) in int64, else k moves by one and a second miss falls
    back, so no output depends on the bits of ``log10``.  There e, a multiple of
    ulp(|x|) * 2**j >= 2**-51 below 8, and frac(e) are exact: the 17 digits round half to
    even as ``'%.17g'`` does; a carry to 10**17 moves X up.  Fixed for -4 <= X < 17."""
    x, n = values.ravel(), values.shape[1]
    c, nd, s, fall = _g17_digits(x)
    sh, pre = (head.take(np.signbit(x) * 24 + c) for head in _HEADS)
    end = _KEPT.take(c * 18 + nd) + (sh >> 3).view(np.int64)
    kind = (2 + 2 * c) * (c < 2)
    kind.reshape(-1, n)[:, -1] += 1  # e-06, e-05 or neither; a newline ends each row
    at = kind * 24 + end
    w = np.empty((len(x), 3), "<u8")
    for i in (2, 1, 0):  # the prefix goes first, then the tail at byte ``end``
        word = (s[i] << sh) | (s[i - 1] >> (64 - sh)) if i else (s[0] << sh) | pre
        w[:, i] = word & _TAILS[i].take(at) | _TAILS[3 + i].take(at)
    end += 1 + 4 * (c < 2)
    body = w.view(np.uint8).ravel()[_MASKS.take(end, axis=0).ravel()]
    bounds = [0] + np.cumsum(end.reshape(-1, n).sum(axis=1)).tolist()
    rows = [body[a:b] for a, b in zip(bounds, bounds[1:])]
    for r in dict.fromkeys((fall // n).tolist()):  # not np.unique: it imports numpy.ma
        rows[r] = (",".join(["%.17g"] * n) + "\n").encode() % tuple(values[r].tolist())
    return rows


def _trace_csv_blocks(trace: RunTrace) -> Iterator[bytes]:
    """``trace_to_csv(trace)`` as UTF-8 bytes, at most ``_BLOCK`` lines a block: fewer
    when that many rows hold more than ``_G17_VALUES`` values."""
    n = trace.values.shape[1]
    row = "%d,%.17g,%.17g,%d,%s" + ("," if n else "\n")
    header = ",".join(_TRACE_HEADER + [f"value_{i}" for i in range(n)]) + "\n"
    heads = (row % fields for fields in zip(
        itertools.count(), trace.span_v.tolist(), trace.span_dv.tolist(),
        trace.active_counts.tolist(), itertools.repeat(trace.stop_reason)))
    step = max(1, _G17_VALUES // max(n, 1))  # rows printed at a time
    values = itertools.chain.from_iterable(_g17(trace.values[r:r + step]) for r in range(
        0, len(trace.values), step)) if n else itertools.repeat(b"")
    pieces = itertools.chain((header.encode(), b""), itertools.chain.from_iterable(
        zip(map(str.encode, heads), values)))
    size = 2 * min(_BLOCK, step)  # two pieces a line
    while block := b"".join(itertools.islice(pieces, size)):
        yield block


def trace_to_csv(trace: RunTrace) -> str:
    return b"".join(_trace_csv_blocks(trace)).decode()


_LINE = re.compile(r"[^\n]++")


def _block_values(out: np.ndarray, tails: list[str], t0: int) -> None:
    """Write the comma-separated numbers of ``tails``, rows ``t0``, ``t0 + 1``, ...,
    into ``out``, each converted by ``float``; every tail holds ``out.shape[1]``
    fields, and ``out`` has a row for each tail unless a number fails to convert
    (a row whose numbers convert is well formed, and the text has room for it)."""
    if not tails or not out.shape[1]:
        return
    try:
        out[:] = np.fromiter(map(float, ",".join(tails).split(",")), np.float64,
                             len(tails) * out.shape[1]).reshape(len(tails), -1)
    except ValueError:  # rescan to name the first bad row
        for t, tail in enumerate(tails, t0):
            try:
                list(map(float, tail.split(",")))
            except ValueError as exc:
                raise ModelError(f"trace row {t} is malformed: {exc}") from None
        raise


def trace_from_csv(text: str) -> RunTrace:
    """Rebuild a trace from CSV; greedy rows are not stored on disk, so it has none.

    The text is walked line by line into arrays allocated once.  Each row's
    first five fields are checked in turn, the spans only as numbers; the value
    fields are converted ``_BLOCK`` rows at a time, so a problem in them is
    reported ahead of any problem in a later row, as a row-by-row read would.
    A well-formed row holds at least ``2 * width - 1`` characters with the line
    end before it, so the arrays hold no more rows than the text has room for:
    a wide header over short rows reaches its first short row, not a huge
    allocation."""
    lines = _LINE.finditer(text)
    first = next(lines, None)
    header = first[0].split(",", len(_TRACE_HEADER)) if first else []
    if header[:len(_TRACE_HEADER)] != _TRACE_HEADER:
        raise ModelError("trace file has an unexpected header")
    width = first[0].count(",") + 1
    n = width - len(_TRACE_HEADER)
    size = sum(1 for _ in _LINE.finditer(text, first.end()))
    rows = min(size, (len(text) - first.end()) // (2 * width - 1))
    values, counts = np.empty((rows, n)), np.empty(rows, dtype=np.intp)
    # the value fields and counts of the rows from t0 on, written once the values convert
    tails, pending, t0, stop_reason, problem = [], [], 0, "", None
    for t, line in enumerate(lines):
        ln = line[0]
        fields = ln.count(",") + 1
        if fields != width:
            problem = f"trace row {t} has {fields} fields, expected {width}"
            break
        parts = ln.split(",", len(_TRACE_HEADER))
        try:
            if int(parts[0]) != t:
                raise ValueError(f"t={parts[0]}, expected {t}")
            float(parts[1]), float(parts[2])
            pending.append(np.intp(parts[3]))
        except (ValueError, OverflowError) as exc:
            problem = f"trace row {t} is malformed: {exc}"
            break
        stop_reason = parts[4]
        tails.append(parts[-1])
        if len(tails) == _BLOCK:
            _block_values(values[t0:t + 1], tails, t0)
            counts[t0:t + 1] = pending
            tails, pending, t0 = [], [], t + 1
    _block_values(values[t0:t0 + len(tails)], tails, t0)
    counts[t0:t0 + len(tails)] = pending
    if problem:
        raise ModelError(problem)
    if not size:
        raise ModelError("trace file has no data rows")
    if not np.isfinite(values).all():
        raise ModelError("trace file has non-finite values")
    return RunTrace(
        values=values,
        active_counts=counts,
        rows=np.empty((0, n), dtype=np.int32),
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


def _read_text(path: str) -> tuple[str, str]:
    """The text of ``path``, each ``\\r\\n`` or ``\\r`` read as ``\\n``, and the
    sha256 of its bytes.  The bytes are hashed, decoded and dropped before any
    line end is rewritten, so a caller parses the one copy of the file."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    digest = hashlib.sha256(data).hexdigest()
    text = data.decode("utf-8")
    del data
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        text = text.replace("\r", "\n")
    return text, digest


def _write_chunks(path: str, blocks: Iterable[bytes]) -> str:
    """Write ``blocks`` to ``path`` atomically (a temp file beside it, then a
    rename), and return the sha256 of the bytes written.

    Each block is hashed and written as it comes, so a writer that yields its
    text a block at a time never holds the whole of it."""
    digest = hashlib.sha256()
    try:
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".mdpgeo-")
        try:
            with os.fdopen(fd, "wb") as fh:
                for block in blocks:
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
    """The model in ``path``, read by ``mdp_from_json``, and the sha256 of its bytes."""
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            if not fh.seekable():
                return mdp_from_json(io.BytesIO(fh.read()), digest), digest.hexdigest()
            before = os.fstat(fh.fileno())
            try:
                return mdp_from_json(fh, digest), digest.hexdigest()
            finally:  # the change, not what it broke, is reported
                after = os.fstat(fh.fileno())
                if (after.st_size, after.st_mtime_ns) != (before.st_size, before.st_mtime_ns):
                    raise ModelError(f"model file {path} changed while it was read")
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc


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
        _write_chunks(out, [text.encode()])
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
    output_hash = _write_chunks(args.out, _mdp_json_blocks(mdp))
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
        _write_chunks(args.trace, _trace_csv_blocks(trace))
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
    output_hash = _write_chunks(args.out, _mdp_json_blocks(normalized))
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
    ts.add_argument("--mdp", help="check this one 2-state model file instead of a suite")
    ts.add_argument("--suite", type=int)
    ts.add_argument("--max-actions", type=int, default=12, help="at least 2; the suite "
                    "draws 1 to min(MAX_ACTIONS // 2, 6) actions per state")
    ts.add_argument("--seed", type=int, default=0, help="instance i of the suite is the "
                    "dense 2-state model that generate draws from seed SEED + i, with gamma "
                    "0.5, 0.9 and 0.99 by i mod 3")
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
    if args.command == "twostate" and not args.mdp and (need := (
            "needs either --mdp or --suite N with N >= 1" if args.suite is None or args.suite < 1
            else "--suite needs --max-actions M with M >= 2" if args.max_actions < 2
            else "--suite needs --seed S with S >= 0" if args.seed < 0 else "")):
        sys.stderr.write(f"error:usage:twostate {need}\n")
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
    except (ValueError, ConsistencyError, SolverError, MemoryError) as exc:
        # ModelError, AssumptionError, ...; numpy's "Unable to allocate" subclasses MemoryError
        kind = MemoryError if isinstance(exc, MemoryError) else type(exc)
        sys.stderr.write(f"error:{kind.__name__}:{exc}\n")
        return EX_DATAERR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
