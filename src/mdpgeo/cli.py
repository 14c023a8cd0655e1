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
its neighbours are (it holds two whole zero fields), and a chunk holds up to
``_CHUNK`` bytes; otherwise a chunk holds at most ``_VALUES`` numbers.
numpy checks the rest (every row has ``n_states`` fields, no whitespace splits a
number) and finds its fields other than ``0``, ``-0`` and ``0.0``; ``_d2f``
converts them, ``_VALUES`` at a time, from their joined text in place, with
``mdpgeo.floattext``, an array kernel that turns decimal text into the float64 ``float``
gives.  A chunk holding a number outside its class (more than 19 significant digits, a
value that rounds to infinity, or another spelling than JSON's) or fewer than
``_D2F_MIN`` numbers goes to ``json``, as does every chunk where numpy finds a problem
in a model whose sample is not mostly zeros: ``json`` reads its rows where they stand
and names the problem.  ``P`` holds the very floats ``json.loads`` gives.  A message that
names places in the file (bad UTF-8, a body holding a ``]``) comes from the whole file
read again; a file whose size or mtime moves between the passes exits 65, and a stream
that cannot seek is read into memory.  ``trace_from_csv`` reads a trace the same way.  Its
first pass hashes and checks the blocks and finds the header and the last line, whose t
sizes the arrays, allocated once for at most the rows the file has room for (a row that
reads holds ``2 * width - 1`` bytes and a line end).  The second cuts whole lines out of
windows of ``_READ`` bytes, row 0 alone; ``_d2f`` converts a window whose rows are well
formed and whose numbers are in its class, and ``float`` the rows of any other, one at a
time; a number field holding an underscore or a character outside ASCII, which ``int``
and ``float`` read (``1_0`` as 10), is malformed.  No reader holds a Python object per
number beyond one row or one block.

The writers stream: a model or trace file goes to disk in UTF-8 blocks of at
most 64 actions or rows (fewer rows of over 128 values), each fed to sha256 as
it is written, so no whole output file is ever held in memory.  Their numbers come
from ``mdpgeo.floattext``: a model's from ``reprs``, the bytes ``repr`` (so ``json``)
prints, unless it has fewer than ``_REPR_MIN`` probabilities; a trace's from ``g17``,
the bytes of ``'%.17g'`` (a row holding ``inf`` or ``nan`` from ``%``).  Files are
still written atomically (temp file + rename); ``output_hash`` is the bytes' digest.

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
import operator
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


_BLOCK = 64  # model actions or trace rows per block written: bounds the text held
_ITEM = b",\n        "  # between two probabilities at indent=2
_PROBS = json.JSONEncoder(separators=(_ITEM.decode(), ": "))  # no indent: json's C encoder
_STRIDE = len(b"0.0" + _ITEM)
_VALUES = 8192  # numbers each number kernel reads or prints a call: bounds its arrays
_REPR_MIN = 1024  # a model with fewer probabilities is printed faster by json


def _json_reprs(x: np.ndarray, cut: np.ndarray) -> list:
    """``floattext.reprs(x, _ITEM, cut)`` from one call of json's C encoder."""
    items = _PROBS.encode(x.tolist())[1:-1].encode().split(_ITEM)
    bounds = [0, *(np.flatnonzero(cut[1:]) + 1).tolist(), len(items)]
    return [_ITEM.join(items[a:z]) for a, z in zip(bounds, bounds[1:])]


def _kernel_reprs(x: np.ndarray, cut: np.ndarray) -> list:
    """``floattext.reprs(x, _ITEM, cut)``, through json where a value is not finite.  The
    kernel's module is imported on the first model that uses it, as ``_d2f`` does."""
    from . import floattext

    return floattext.reprs(x, _ITEM, cut) if np.isfinite(x).all() else _json_reprs(x, cut)


def _printed(mdp: Mdp) -> Iterator[tuple]:
    """Per block of ``_BLOCK`` actions: its first action, its rewards' texts, and per run
    of entries other than +0.0 side by side in a row, its row, first and last column
    and text.  A model of at least ``_REPR_MIN`` probabilities is printed by the kernel,
    for as many blocks at a time as hold ``_VALUES`` numbers; json prints a smaller
    one.  An entry +0.0 is no number printed: its bits are all 0."""
    reprs = _kernel_reprs if mdp.P.size >= _REPR_MIN else _json_reprs
    pending, values, cuts, count = [], [], [], 0
    for b in range(0, mdp.m, _BLOCK):
        P = mdp.P[b:b + _BLOCK]
        at = np.flatnonzero(P.view(np.int64) != 0)
        rows, cols = np.divmod(at, mdp.n_states or 1)
        cut = np.ones(len(P) + at.size, bool)  # each reward, then each run, is a piece
        cut[len(P) + 1:] = (np.diff(at) != 1) | (cols[1:] == 0)
        first = np.flatnonzero(cut[len(P):])
        last = np.append(first[1:], at.size)[:first.size] - 1
        pending.append((b, len(P), rows[first], cols[first], cols[last]))
        values += [mdp.rewards[b:b + _BLOCK], P.ravel()[at]]
        cuts.append(cut)
        count += cut.size
        if count >= _VALUES or b + _BLOCK >= mdp.m:
            texts = iter(reprs(np.concatenate(values), np.concatenate(cuts)))
            for start, size, row, a, z in pending:
                yield start, list(itertools.islice(texts, size)), row, a, z, list(
                    itertools.islice(texts, row.size))
            pending, values, cuts, count = [], [], [], 0


def _mdp_json_blocks(mdp: Mdp) -> Iterator[bytes]:
    """``mdp_to_json(mdp)`` as ASCII bytes: the head, a block per ``_BLOCK`` actions, the tail.

    A block's frames take ids through ``encode_basestring_ascii``, states through ``str``
    and rewards from ``_printed``.  Each run of entries other than +0.0 of a row is one
    text from ``_printed``; runs go between slices of a row of zeros, entry k at
    ``k * _STRIDE``."""
    n, zeros = mdp.n_states, memoryview(_ITEM.join([b"0.0"] * mdp.n_states))
    opening, closing = ("[\n        ", "\n      ]") if n else ("[", "]")
    yield (f'{{\n  "version": 1,\n  "n_states": {json.dumps(n)},\n'
           f'  "gamma": {json.dumps(mdp.gamma)},\n  "actions": [').encode()
    for b, rewards, row, first, last, runs in _printed(mdp):
        block = slice(b, b + _BLOCK)
        frames = ((",\n" if b else "\n") + ",\n".join(
            f'    {{\n      "id": {aid},\n      "state": {state},\n      "probs": {opening}\0'
            f'{closing},\n      "reward": {reward}\n    }}' for aid, state, reward in zip(
                map(json.encoder.encode_basestring_ascii, mdp.ids[block]),
                mdp.state_of[block].tolist(), map(bytes.decode, rewards)))
        ).encode().split(b"\0")  # at each row's place: an escaped id holds no NUL
        # texts: each row's frame, then its runs; zs[j], a slice of zeros, follows texts[j]
        slot, size = np.arange(row.size) + row, row.size + len(rewards)
        starts, ends = np.zeros(size, np.intp), np.full(size, len(zeros))
        ends[slot], starts[slot + 1] = first * _STRIDE, last * _STRIDE + 3
        zs, texts, e = [zeros[a:z] for a, z in zip(starts.tolist(), ends.tolist())], [], 0
        for r, count in enumerate(np.bincount(row, minlength=len(rewards)).tolist()):
            texts += (frames[r], *runs[e:e + count])
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


_D2F_MIN = 1024  # fewer numbers are read faster by json or float than by the kernel


def _d2f(data: bytes, first: np.ndarray, last: np.ndarray, plain=None, out=None):
    """The float64 of each field ``data[first[i]:last[i]]`` as ``float`` reads it, read by
    ``floattext.read`` ``_VALUES`` at a time into ``out`` (new if None); None when a field
    is outside its class or, where ``plain[i]``, holds anything but ASCII digits, or there
    are fewer than ``_D2F_MIN``.  The kernel's module is imported on first use: with ``cli``
    it would add about 1 MB to every process, also to those that read no large file."""
    if len(first) < _D2F_MIN:
        return None
    from . import floattext

    out = np.empty(len(first)) if out is None else out
    for k in range(0, len(first), _VALUES):
        part = floattext.read(data, first[k:k + _VALUES], last[k:k + _VALUES],
                              None if plain is None else plain[k:k + _VALUES])
        if part is None:
            return None
        out[k:k + _VALUES] = part
    return out


def _read_at(fh, a: int = 0, b: int | None = None) -> bytes:
    """Bytes ``a:b`` of ``fh``; all from ``a`` for a message that names places in them."""
    fh.seek(a)
    return fh.read(-1 if b is None else b - a)


def _blocks(at, digest) -> Iterator[bytes]:
    """The bytes ``at(a, b)`` gives, ``_READ`` at a time from the start, each fed to
    ``digest`` and checked as UTF-8 unless it is None (text in memory came from a
    str); a byte that is not UTF-8 is reported with its place in the whole file."""
    decode = codecs.getincrementaldecoder("utf-8")().decode
    try:
        for block in itertools.takewhile(len, (at(a, a + _READ)
                                               for a in itertools.count(0, _READ))):
            if digest is not None:
                digest.update(block)
                decode(block)
            yield block
        decode(b"", True)
    except UnicodeDecodeError:
        at(0, None).decode("utf-8")
        raise


def _cut_probs(fh, digest) -> tuple[bytes, list[tuple[int, int]]]:
    """The bytes of ``fh`` with the body of their k-th ``"probs"`` list replaced by
    ``k``, and the ``(start, end)`` offsets of every body, read by ``_blocks``; a
    block carries to the next only the skeleton from its first string that it
    cannot decide."""
    parts, spans, data, base, start = [], [], b"", 0, None
    for block in _blocks(functools.partial(_read_at, fh), digest):
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


def _fill_with_numpy(out: np.ndarray, window, rows: list[tuple[int, int]], n: int,
                     cut_runs: bool) -> None:
    """Cut the proven zero runs (``_zero_runs``) out of the bodies in ``window()`` where
    ``cut_runs`` and they hold no whitespace, and join what is left, each body with its ``]``;
    numpy checks that text and finds its fields that are exactly ``0``, ``-0`` (json's int
    0) or ``0.0``; ``_d2f`` converts the others, or ``json`` where one is outside its class."""
    data = window()
    spans = np.array(rows, dtype=np.int64)
    cut_start, cut_stop, cut_row, cut_fields = _zero_runs(
        np.frombuffer(data, "<u8", len(data) // 8), spans) if cut_runs else [np.empty(0, int)] * 4
    starts, stops = spans[:, 0], spans[:, 1] + 1
    stops[-1] -= 1  # no "]" after the last body
    if cut_start.size:
        starts = np.sort(np.concatenate((starts, cut_stop)))
        stops = np.sort(np.concatenate((stops, cut_start)))
    c = b"".join([data[a:b] for a, b in zip(starts.tolist(), stops.tolist())])
    del data
    if (spaced := any(w in c for w in (b" ", b"\n", b"\t", b"\r"))) and cut_start.size:
        return _fill_with_numpy(out, window, rows, n, False)  # no runs cut: c holds whitespace
    if spaced:  # whitespace may surround a number, never split one: the runs of number bytes,
        raw, c, runs = c, c.translate(None, _WS), 0  # counted a block at a time with the
        w = np.frombuffer(raw, np.uint8)  # byte before it, are the fields (below)
        for k in range(0, w.size, _READ):
            digit = ((part := w[max(k - 1, 0):k + _READ]) > ord(",")) | (part == ord("+"))
            digit &= part != ord("]")
            runs += np.count_nonzero(digit[1:] > digit[:-1]) + (digit[0] and not k)
        del raw, w, part, digit
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
    if not size.all() or spaced and runs != size.size:
        raise ModelError("action probs must hold one number between commas")
    keep = (size != 1) | (u[start] != ord("0"))
    two, three = size == 2, size == 3
    at = start[two]
    keep[two] = (u[at] != ord("-")) | (u[at + 1] != ord("0"))
    at = start[three]
    keep[three] = (u[at] != ord("0")) | (u[at + 1] != ord(".")) | (u[at + 2] != ord("0"))
    field = np.flatnonzero(keep)
    if field.size < size.size:  # each kept field with the separator before it
        c = np.frombuffer(b"]" + c, np.uint8)[np.repeat(keep, size + 1)].tobytes()[1:]
        size = size[field]
        start = np.cumsum(size + 1) - size - 1
    if cut_start.size:  # the field that touches a cut is a zero, so a kept field comes
        # after exactly the cuts with fewer separators before them than it has
        at_cut = np.cumsum(stops - starts)[np.searchsorted(stops, cut_start)]
        before = np.searchsorted(np.searchsorted(sep, at_cut), field)
        field += np.concatenate(([0], np.cumsum(cut_fields)))[before]
    field = slice(None) if (whole := field.size == out.size) else field  # all, in order
    del u, keep, sep, two, three, at  # the kernel reads c in place, in ``floattext.ROOM``
    c, at = bytes(24) + c + bytes(64), np.int32 if len(c) < 2**31 else np.intp
    start, size = (start + 24).astype(at), size.astype(at)
    values = _d2f(c, start, np.add(start, size, out=size), None, out if whole else None)
    if values is None:  # json reads them, "," between
        try:
            values = _floats(json.loads(b"[" + c[24:-64].replace(b"]", b",") + b"]"), len(start))
        except ValueError as exc:
            raise ModelError(f"action probs must be JSON numbers: {exc}") from None
    out[field] = values  # nothing to do where the kernel filled ``out``


def _probs_matrix(fh, spans: list[tuple[int, int]], n: int) -> np.ndarray:
    """The (len(spans), n) matrix whose row k holds the numbers of bytes ``a:b``
    of ``fh`` for ``(a, b) = spans[k]``; ModelError unless each body is exactly n
    JSON numbers separated by commas.  Runs of zeros are cut when zeros are more
    than 3/4 of the fields of eight rows spread over the model, and numpy's checks
    then name a problem; otherwise ``_fill_with_json`` reads a chunk in which they
    find one, and names it as ``json`` does.  A chunk is read from the 8-byte word
    of its first ``[`` to its last ``]``."""
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
    rows_at_once = len(spans) if skip else max(1, _VALUES // max(n, 1))
    while r0 < len(spans):  # the rows whose text fits in _CHUNK bytes, or one row
        r1 = max(r0 + 1, int(np.searchsorted(ends, spans[r0][0] + _CHUNK, "right")))
        r1 = min(r1, r0 + rows_at_once)
        base, end = (spans[r0][0] - 1) // 8 * 8, spans[r1 - 1][1]
        window = functools.partial(_read_at, fh, base, max(end + 1, -(-end // 8) * 8))
        out, rows = P[r0:r1].reshape(-1), [(a - base, b - base) for a, b in spans[r0:r1]]
        try:
            _fill_with_numpy(out, window, rows, n, skip)
        except ModelError:
            if skip:
                raise
            _fill_with_json(out, window(), rows, n, lambda: (_read_at(fh), base))  # noqa: B023
        r0 = r1
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
    actions = doc["actions"]
    try:  # the whole list at once: the four keys, their types, every probs list cut in order
        ids, states, rewards, probs = (list(map(operator.itemgetter(key), actions))
                                       for key in ("id", "state", "reward", "probs"))
        whole = (spans is not None and sum(map(len, actions)) == 4 * len(actions)
                 and set(map(type, ids)) <= {str} and set(map(type, states)) <= {int}
                 and set(map(type, rewards)) <= {int, float}
                 and probs == [[k] for k in range(len(probs))])
        rewards = list(map(float, rewards))
    except (KeyError, TypeError, ValueError, OverflowError):  # the loop names the problem
        whole = False
    for k, entry in enumerate(() if whole else actions):  # raises at the first bad entry
        _fields(entry, _ACTION_KEYS, "action")
        _typed(entry["id"], str, "action id")
        _typed(entry["state"], int, f"action {entry['id']!r} state")
        _typed(entry["reward"], float, f"action {entry['id']!r} reward")
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


def _trace_csv_blocks(trace: RunTrace) -> Iterator[bytes]:
    """``trace_to_csv(trace)`` as UTF-8 bytes, at most ``_BLOCK`` lines a block: fewer
    when that many rows hold more than ``_VALUES`` values."""
    n = trace.values.shape[1]
    row = "%d,%.17g,%.17g,%d,%s" + ("," if n else "\n")
    header = ",".join(_TRACE_HEADER + [f"value_{i}" for i in range(n)]) + "\n"
    heads = (row % fields for fields in zip(
        itertools.count(), trace.span_v.tolist(), trace.span_dv.tolist(),
        trace.active_counts.tolist(), itertools.repeat(trace.stop_reason)))
    step = max(1, _VALUES // max(n, 1))  # rows printed at a time
    from .floattext import g17  # imported here, as ``_d2f`` imports its module

    values = itertools.chain.from_iterable(g17(trace.values[r:r + step]) for r in range(
        0, len(trace.values), step)) if n else itertools.repeat(b"")
    pieces = itertools.chain((header.encode(), b""), itertools.chain.from_iterable(
        zip(map(str.encode, heads), values)))
    size = 2 * min(_BLOCK, step)  # two pieces a line
    while block := b"".join(itertools.islice(pieces, size)):
        yield block


def trace_to_csv(trace: RunTrace) -> str:
    return b"".join(_trace_csv_blocks(trace)).decode()


_HEADER = ",".join(_TRACE_HEADER).encode()
_BREAK = re.compile(rb"[\r\n]")
_TEXT = re.compile(rb"[^\r\n]")


def _ascii_number(field: str) -> str:
    """``field``, or ValueError where it holds an underscore or a character outside
    ASCII: Python's number parsers read ``1_0`` as 10 and other scripts' digits."""
    if "_" in field or not field.isascii():
        raise ValueError(f"{field!r} is not a number in ASCII")
    return field


def _rows_at_once(data: bytes, t0: int, width: int):
    """The values, counts and stop reason of the lines of ``data``, each ended by ``\\n``,
    rows ``t0``, ``t0 + 1``, ...; None unless each holds ``width`` fields, its t is its
    number and its count a number below 2**53, both in ASCII digits, and its spans, count
    and values are in ``_d2f``'s class: every trace the writer prints."""
    if not data.isascii():
        return None
    u = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero((u == ord(",")) | (line_end := u == ord("\n")))
    rows = ends.size // width
    if ends.size != rows * width or np.count_nonzero(line_end) != rows or (
            u[ends[width - 1::width]] != ord("\n")).any():
        return None
    starts = np.concatenate(([0], ends[:-1] + 1)).reshape(rows, width)
    ends = ends.reshape(rows, width)
    stop = data[starts[-1, 4]:ends[-1, 4]].decode()
    numbers = np.r_[0:4, 5:width]
    plain = np.tile((numbers == 0) | (numbers == 3), rows)  # t and the count
    x = _d2f(data, starts[:, numbers].ravel(), ends[:, numbers].ravel(), plain)
    if x is None:
        return None
    x = x.reshape(rows, -1)
    if (x[:, 0] != np.arange(t0, t0 + rows)).any() or (x[:, 3] >= 2**53).any():
        return None
    return x[:, 4:], x[:, 3].astype(np.intp), stop


def _rows_one_by_one(lines: list[str], t0: int, width: int, values: np.ndarray,
                     counts: np.ndarray) -> str:
    """Read ``lines``, rows ``t0``, ``t0 + 1``, ..., into ``values`` and ``counts``, each
    row's fields in turn (the spans only as numbers, the values by ``float``), and return
    the last one's stop reason.  ModelError names the first row with a problem."""
    for t, ln in enumerate(lines, t0):
        if (fields := ln.count(",") + 1) != width:
            raise ModelError(f"trace row {t} has {fields} fields, expected {width}")
        parts = ln.split(",", len(_TRACE_HEADER))
        try:
            if int(_ascii_number(parts[0])) != t:
                raise ValueError(f"t={parts[0]}, expected {t}")
            float(_ascii_number(parts[1])), float(_ascii_number(parts[2]))
            count = np.intp(_ascii_number(parts[3]))
            if width > len(_TRACE_HEADER):  # each field checked as ASCII where one may not be
                tail, odd = parts[-1].split(","), "_" in parts[-1] or not parts[-1].isascii()
                values[t] = np.fromiter(map(float, map(_ascii_number, tail) if odd else tail),
                                        np.float64, len(tail))
        except (ValueError, OverflowError) as exc:
            raise ModelError(f"trace row {t} is malformed: {exc}") from None
        counts[t] = count  # a row that reads holds 2 * width - 1 bytes: the arrays have room
    return parts[4]


def _bytes_at(source):
    """``at(a, b)``, the bytes ``a:b`` of ``source`` (all from ``a`` where ``b`` is None),
    text or a seekable binary stream; ASCII text is encoded a slice at a time."""
    if isinstance(source, str) and source.isascii():
        return lambda a, b: source[a:b].encode()
    return functools.partial(_read_at, io.BytesIO(source.encode("utf-8", "surrogatepass"))
                             if isinstance(source, str) else source)


def _scan(at, digest) -> tuple:
    """The first pass, by ``_blocks``: the size; the start (None for none), end and commas
    of the first line that is not empty, the header; the start and end of the last."""
    size, head, end, commas, last, stop = 0, None, None, 0, 0, 0
    for block in _blocks(at, digest):
        lo = 0
        if head is None and (found := _TEXT.search(block)):
            head = size + (lo := found.start())
        if head is not None and end is None:
            found = _BREAK.search(block, lo)
            commas += block.count(b",", lo, found.start() if found else len(block))
            end = size + found.start() if found else None
        if text := block.rstrip(b"\r\n"):  # the last line starts after the line end before
            cut = max(text.rfind(b"\n"), text.rfind(b"\r"))  # it, here or in an earlier block
            last, stop = size + cut + 1 if cut >= 0 or stop < size else last, size + len(text)
        size += len(block)
    return size, head, size if end is None else end, commas, last, stop


def _lines(at, pos: int, end: int) -> Iterator[bytes]:
    """Whole lines of bytes ``pos:end``, each ended by ``\\n``: the first that is not empty
    alone, then as many as ``_READ`` bytes hold, or one longer line.  ``\\r\\n`` and ``\\r``
    end a line as ``\\n`` does; a window may hold empty lines, but not only those."""
    size, first = _READ, True
    while pos < end:
        stop = end if end - pos < 2 * size else pos + size  # no short window at the end
        if len(data := at(pos, stop)) < stop - pos:  # the file shrank
            break
        cut = len(data) if stop == end else 1 + (
            i if (i := data.rfind(b"\n")) >= 0 else data.rfind(b"\r"))
        if not cut:  # one line longer than the window
            size *= 2
            continue
        pos, size, data = pos + cut, _READ, data[:cut]
        if b"\r" in data:
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        data = data.lstrip(b"\n") + (b"" if data.endswith(b"\n") else b"\n")  # the last may not
        k = data.index(b"\n") + 1 if first and data else 0  # row 0 alone: its span_dv is nan
        first = first and not data
        yield from filter(None, (data[:k], data[k:].lstrip(b"\n")))


def trace_from_csv(source, digest=None) -> RunTrace:
    """Rebuild a trace from CSV text or a seekable binary stream, whose bytes feed
    ``digest``, in the two passes the module's docstring describes; greedy rows are not
    stored on disk, so it has none."""
    at = _bytes_at(source)
    size, head, end, commas, last, stop = _scan(at, digest)
    if head is None or at(head, min(end, head + len(_HEADER) + 1)).rstrip(b",") != _HEADER:
        raise ModelError("trace file has an unexpected header")
    n, room = (width := commas + 1) - len(_TRACE_HEADER), (size - end) // (2 * width - 1)
    t = at(last, min(stop, last + len(str(room)) + 1)).split(b",", 1)[0]
    rows = min(int(t) + 1, room) if t.isdigit() and len(t) <= len(str(room)) else 0
    values, counts = np.empty((rows, n)), np.empty(rows, dtype=np.intp)
    t0, stop_reason = 0, ""
    for data in _lines(at, end, size):
        lines = [] if (read := _rows_at_once(data, t0, width)) else [
            ln for ln in data.decode("utf-8", "surrogatepass").split("\n") if ln]
        if t0 + (k := len(read[1]) if read else len(lines)) > rows:  # the last line's t
            rows = min(max(2 * rows, t0 + k), room)  # undercounts: a malformed trace
            values = np.concatenate([values[:t0], np.empty((rows - t0, n))])
            counts = np.concatenate([counts[:t0], np.empty(rows - t0, dtype=np.intp)])
        if read:
            values[t0:t0 + k], counts[t0:t0 + k], stop_reason = read
        else:
            stop_reason = _rows_one_by_one(lines, t0, width, values, counts)
        t0 += k
    if not t0:
        raise ModelError("trace file has no data rows")
    values, counts = values[:t0], counts[:t0]
    if not np.isfinite(values).all():
        raise ModelError("trace file has non-finite values")
    return RunTrace(values=values, active_counts=counts, rows=np.empty((0, n), dtype=np.int32),
                    ids=(), filtered=(), stop_reason=stop_reason, final_policy=None)


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


def _load(path: str, read, what: str) -> tuple:
    """What ``read`` makes of the file ``path``, and the sha256 of its bytes.  A file
    whose size or mtime moves while it is read exits 65; one that cannot seek is read
    into memory."""
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            if not fh.seekable():
                return read(io.BytesIO(fh.read()), digest), digest.hexdigest()
            before = os.fstat(fh.fileno())
            try:
                return read(fh, digest), digest.hexdigest()
            finally:  # the change, not what it broke, is reported
                after = os.fstat(fh.fileno())
                if (after.st_size, after.st_mtime_ns) != (before.st_size, before.st_mtime_ns):
                    raise ModelError(f"{what} file {path} changed while it was read")
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc


def _load_mdp(path: str) -> tuple[Mdp, str]:
    return _load(path, mdp_from_json, "model")


def _load_trace(path: str) -> tuple[RunTrace, str]:
    return _load(path, trace_from_csv, "trace")


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
        spec = GenSpec(n_states=args.n_states, gamma=args.gamma, seed=args.seed,
                       structure=args.structure, min_actions=args.min_actions,
                       max_actions=args.max_actions, sparse_k=args.sparse_k, bonus_beta=args.beta)
    mdp = generate(spec)
    output_hash = _write_chunks(args.out, _mdp_json_blocks(mdp))
    _emit(args, {"seed": spec.seed, "structure": spec.structure, "n_states": mdp.n_states,
                 "n_actions": mdp.m, "gamma": mdp.gamma, "output_hash": output_hash})
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
        "shifts": [{"state": step.state, "delta": step.delta} for step in log.steps],
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
        "steps": [{"state": s.state, "gamma_to": s.gamma_to} for s in log.steps],
    }, {"mdp": mdp_hash}, out=args.out)
    return EX_OK


def _cmd_certify(args) -> int:
    mdp, mdp_hash = _load_mdp(args.mdp)
    trace, trace_hash = _load_trace(args.trace)
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
