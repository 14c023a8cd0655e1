"""Reads in bounded passes.

The trace reader streams a file in blocks: here it meets the cases its text
path was checked on, with blocks of a few bytes so that every line, and every
``\\r\\n``, is cut somewhere; the expected messages are those the text path
gave.  The model skeleton's checks run on the whole action list at once and
must name the entry the per-entry loop named.  Each command's memory peak is
bounded by the arrays it keeps plus a stated constant, and a walk over ``cli``
finds every read of a whole file.
"""

from __future__ import annotations

import ast
import hashlib
import io
import json
import os
import tempfile
import threading
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdpgeo import cli
from mdpgeo.cli import main, mdp_from_json, mdp_to_json
from mdpgeo.core import ModelError
from mdpgeo.gen import GenSpec, generate
from mdpgeo.solvers import ViConfig, value_iteration

from test_cli import _VALUE_FIELDS, MALFORMED_TRACES, _ascii, _trace_lines

MiB = 2**20
_TINY = [1, 2, 3, 7]  # block sizes: every line and every "\r\n" is cut apart somewhere


def _outcome(path, block: int) -> tuple:
    """What ``certify``'s trace read makes of ``path`` in blocks of ``block`` bytes."""
    with mock.patch.object(cli, "_READ", block):
        try:
            trace, digest = cli._load_trace(str(path))
        except ValueError as exc:  # ModelError, UnicodeDecodeError
            return type(exc).__name__, str(exc)
    return trace.values.tobytes(), trace.active_counts.tolist(), trace.stop_reason, digest


def _arrays(lines: list[str], path) -> tuple:
    """The outcome of a well-formed trace: its fields as Python reads them."""
    rows = [ln.split(",") for ln in lines[1:]]
    values = np.array([[float(x) for x in r[5:]] for r in rows])
    return (values.tobytes(), [int(r[3]) for r in rows], rows[-1][4],
            hashlib.sha256(path.read_bytes()).hexdigest())


# what the text path (``trace_from_csv(cli._read_text(path)[0])``) reported
MALFORMED_TRACE_MESSAGES = {
    "empty_file": "trace file has an unexpected header",
    "huge_t_alone": "trace row 11 has 1 fields, expected 7",
    "huge_t_on_the_last_row": "trace row 10 is malformed: Exceeds the limit (4300 digits) for "
                              "integer string conversion: value has 5000 digits; use "
                              "sys.set_int_max_str_digits() to increase the limit",
    "infinite_value": "trace file has non-finite values",
    "nan_value": "trace file has non-finite values",
    "non_numeric_span": "trace row 1 is malformed: could not convert string to float: 'wide'",
    "non_numeric_step": "trace row 3 is malformed: invalid literal for int() with base 10: 'x3'",
    "non_numeric_value": "trace row 1 is malformed: could not convert string to float: 'abc'",
    "other_script_digit_as_a_count": "trace row 1 is malformed: '٢' is not a number in ASCII",
    "other_script_digits_in_a_value": "trace row 2 is malformed: '١٢' is not a number "
                                      "in ASCII",
    "oversized_action_count": "trace row 0 is malformed: Python int too large to convert to C "
                              "long",
    "truncated_row": "trace row 1 has 3 fields, expected 7",
    "underscore_in_a_span": "trace row 2 is malformed: '1_0' is not a number in ASCII",
    "underscore_in_a_value": "trace row 2 is malformed: '1_0' is not a number in ASCII",
    "underscore_in_t": "trace row 1 is malformed: '0_1' is not a number in ASCII",
}


class TestStreamedTraceReader:
    @pytest.mark.parametrize("block", _TINY + [1 << 16])
    @pytest.mark.parametrize("case", sorted(MALFORMED_TRACES))
    def test_malformed_traces_read_as_the_text_path_did(self, case, block, tmp_path):
        _, lines = _trace_lines(tmp_path)
        lines = MALFORMED_TRACES[case](lines)
        path = tmp_path / "bad.csv"
        path.write_text("".join(ln + "\n" for ln in lines))
        if case in MALFORMED_TRACE_MESSAGES:
            assert _outcome(path, block) == ("ModelError", MALFORMED_TRACE_MESSAGES[case])
        else:  # a third value column: a trace, which certify then refuses for its width
            assert case == "width_is_not_n_states"
            assert _outcome(path, block) == _arrays(lines, path)

    @pytest.mark.parametrize("block", _TINY)
    @pytest.mark.parametrize("ends", [["\r\n"], ["\r"], ["\n", "\r\n", "\r"], ["\r\n\r\n", "\n\n"],
                                      ["\n\r"]])
    @pytest.mark.parametrize("lead", ["", "\r\n", "\n\n"])
    def test_any_line_end_reads_as_lf(self, ends, lead, block, tmp_path):
        _, lines = _trace_lines(tmp_path)
        path = tmp_path / "trace.csv"
        path.write_text("".join(ln + "\n" for ln in lines))
        expected = _arrays(lines, path)[:3]
        path.write_bytes((lead + "".join(ln + ends[k % len(ends)] for k, ln in enumerate(lines)))
                         .encode())
        outcome = _outcome(path, block)
        assert outcome[:3] == expected
        assert outcome[3] == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_a_crlf_split_between_blocks(self, tmp_path):
        _, lines = _trace_lines(tmp_path)
        path = tmp_path / "trace.csv"
        path.write_text("".join(ln + "\n" for ln in lines))
        expected = _arrays(lines, path)[:3]
        data = "".join(ln + "\r\n" for ln in lines).encode()
        path.write_bytes(data)
        for cut in (data.index(b"\r\n"), data.index(b"\r\n", len(lines[0]) + 9)):
            assert _outcome(path, cut + 1)[:3] == expected  # one block ends on the "\r"

    @pytest.mark.parametrize("block", _TINY)
    @pytest.mark.parametrize("tail", ["", "\n", "\r\n", "\n\n\r", "\r\r"])
    def test_a_header_alone_has_no_data_rows(self, tail, block, tmp_path):
        _, lines = _trace_lines(tmp_path)
        path = tmp_path / "trace.csv"
        path.write_text("\n" + lines[0] + tail, newline="")
        assert _outcome(path, block) == ("ModelError", "trace file has no data rows")

    @pytest.mark.parametrize("block", _TINY + [1 << 16])
    def test_blank_lines_between_rows_are_skipped(self, block, tmp_path):
        _, lines = _trace_lines(tmp_path)
        path = tmp_path / "trace.csv"
        path.write_text("".join(ln + "\n" for ln in lines))
        expected = _arrays(lines, path)[:3]
        path.write_text("\n\n".join(lines) + "\n\n\n")
        assert _outcome(path, block)[:3] == expected

    @pytest.mark.parametrize("block", _TINY + [1 << 16])
    def test_invalid_utf8_after_a_malformed_row_is_reported_first(self, block, tmp_path):
        # the text path decoded the whole file before it read a row
        _, lines = _trace_lines(tmp_path)
        lines[2] = lines[2].replace(",", ",abc,", 1)
        data = "".join(ln + "\n" for ln in lines).encode()
        data = data[:-5] + b"\xff" + data[-5:]
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        assert _outcome(path, block) == (
            "UnicodeDecodeError", f"'utf-8' codec can't decode byte 0xff in position "
            f"{len(data) - 6}: invalid start byte")

    def test_a_wide_trace_reads_its_rows_longer_than_a_block(self, tmp_path):
        mdp = generate(GenSpec(n_states=300, gamma=0.9, seed=2, structure="sparse"))
        trace = value_iteration(mdp, ViConfig(stop="time", t_max=6))
        path = tmp_path / "trace.csv"
        path.write_text(cli.trace_to_csv(trace))
        for block in (7, 1000, 1 << 16):
            got = _outcome(path, block)
            assert got[0] == trace.values.tobytes() and got[1] == trace.active_counts.tolist()

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(st.sampled_from(_VALUE_FIELDS) | st.text("0123456789+-.eE", max_size=6)
                 | st.floats().map(repr) | st.floats().map("%.17g".__mod__),
                 min_size=n, max_size=n), min_size=1, max_size=5)),
        block=st.sampled_from(_TINY))
    def test_trace_values_read_as_float_does(self, rows, block):
        header = ",".join(cli._TRACE_HEADER + [f"value_{i}" for i in range(len(rows[0]))])
        text = header + "".join(f"\n{t},0,0,0,," + ",".join(r) for t, r in enumerate(rows))
        expected, message = np.empty((len(rows), len(rows[0]))), None
        for t, r in enumerate(rows):
            try:
                expected[t] = [float(_ascii(x)) for x in r]
            except ValueError as exc:
                message = f"trace row {t} is malformed: {exc}"
                break
        if message is None and not np.isfinite(expected).all():
            message = "trace file has non-finite values"
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "trace.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            got = _outcome(path, block)
        if message is None:
            assert got[0] == expected.tobytes()
        else:
            assert got == ("ModelError", message)

    def test_a_file_rewritten_between_the_passes_exits_65(self, tmp_path, capsys, monkeypatch):
        model, lines = _trace_lines(tmp_path)
        path = tmp_path / "trace.csv"
        path.write_text("".join(ln + "\n" for ln in lines))
        scan = cli._scan

        def rewritten(at, digest):
            found = scan(at, digest)
            path.write_bytes(path.read_bytes().replace(b"time", b"span"))  # same size
            stat = path.stat()
            os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1000))
            return found

        monkeypatch.setattr(cli, "_scan", rewritten)
        code = main(["certify", "--mdp", model, "--trace", str(path)])
        cap = capsys.readouterr()
        assert (code, cap.out) == (65, "")
        assert cap.err == f"error:ModelError:trace file {path} changed while it was read\n"

    def test_a_pipe_gives_the_files_outputs(self, tmp_path, capsys):
        model, lines = _trace_lines(tmp_path)
        path, fifo = tmp_path / "trace.csv", tmp_path / "trace.fifo"
        path.write_text("".join(ln + "\n" for ln in lines))
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),),
                                  daemon=True)
        writer.start()  # it waits for the reader to open the FIFO
        piped = main(["certify", "--mdp", model, "--trace", str(fifo)]), capsys.readouterr().out
        writer.join(10)
        assert not writer.is_alive()
        code = main(["certify", "--mdp", model, "--trace", str(path)])
        assert code == 0 and piped == (code, capsys.readouterr().out)
        assert hashlib.sha256(path.read_bytes()).hexdigest() in piped[1]


# ---------------------------------------------------------------------------
# the model skeleton's checks, over the whole action list


SKELETON_EDITS = {  # an edit of one action, and the message naming it ({id}: its id)
    "not_an_object": (lambda e: [e["id"]], "action must be a JSON object"),
    "unknown_field": (lambda e: {**e, "label": "x"}, "action has unknown fields: ['label']"),
    "missing_field": (lambda e: {k: v for k, v in e.items() if k != "reward"},
                      "action has missing fields: ['reward']"),
    "id_number": (lambda e: {**e, "id": 7}, "action id must be a JSON str, got int"),
    "id_bool": (lambda e: {**e, "id": True}, "action id must be a JSON str, got bool"),
    "state_float": (lambda e: {**e, "state": 1.0},
                    "action {id!r} state must be a JSON int, got float"),
    "state_bool": (lambda e: {**e, "state": False},
                   "action {id!r} state must be a JSON int, got bool"),
    "state_string": (lambda e: {**e, "state": "0"},
                     "action {id!r} state must be a JSON int, got str"),
    "reward_string": (lambda e: {**e, "reward": "1"},
                      "action {id!r} reward must be a JSON float, got str"),
    "reward_null": (lambda e: {**e, "reward": None},
                    "action {id!r} reward must be a JSON float, got NoneType"),
    "reward_bool": (lambda e: {**e, "reward": True},
                    "action {id!r} reward must be a JSON float, got bool"),
    "reward_out_of_range": (lambda e: {**e, "reward": 10**400},
                            "action {id!r} reward is out of range for a float"),
    "probs_number": (lambda e: {**e, "probs": 0.5},
                     "action {id!r} probs must be one JSON list of numbers"),
    "probs_object": (lambda e: {**e, "probs": {"a": 1}},
                     "action {id!r} probs must be one JSON list of numbers"),
}


def _skeleton_doc() -> dict:
    return json.loads(mdp_to_json(generate(GenSpec(n_states=3, gamma=0.9, seed=2,
                                                   structure="sparse", min_actions=3,
                                                   max_actions=3))))


class TestSkeletonChecks:
    @pytest.mark.parametrize("at", [0, 4, 8])  # the first, a middle and the last of 9
    @pytest.mark.parametrize("case", sorted(SKELETON_EDITS))
    def test_one_bad_entry_is_named_as_the_loop_named_it(self, case, at):
        doc = _skeleton_doc()
        edit, message = SKELETON_EDITS[case]
        entry = doc["actions"][at]
        doc["actions"][at] = edit(entry)
        with pytest.raises(ModelError) as exc:
            mdp_from_json(json.dumps(doc, indent=2))
        assert str(exc.value) == message.format(id=entry["id"])

    def test_the_first_of_two_bad_entries_is_named(self):
        doc = _skeleton_doc()
        doc["actions"][2]["reward"] = "x"
        doc["actions"][6]["label"] = "y"
        with pytest.raises(ModelError, match="^action 's00a02' reward must be a JSON float"):
            mdp_from_json(json.dumps(doc))
        doc["actions"][2]["reward"] = 1  # an integer reward is a float
        with pytest.raises(ModelError, match=r"^action has unknown fields: \['label'\]$"):
            mdp_from_json(json.dumps(doc))

    def test_a_well_formed_list_reads_its_ids_states_and_rewards(self):
        doc = _skeleton_doc()
        doc["actions"][1]["reward"] = 3
        mdp = mdp_from_json(json.dumps(doc))
        assert list(mdp.ids) == [a["id"] for a in doc["actions"]]
        assert mdp.state_of.tolist() == [a["state"] for a in doc["actions"]]
        assert mdp.rewards.tolist() == [float(a["reward"]) for a in doc["actions"]]
        assert type(mdp.rewards.tolist()[1]) is float


# ---------------------------------------------------------------------------
# a memory bound per command


def _peak(argv: list[str]) -> tuple[int, int]:
    """Exit code and tracemalloc peak of one command run in this process."""
    tracemalloc.start()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Per command: what bounds its peak, in bytes.  ``kept`` is the bytes of the arrays
# the command must keep: the model's P (``P``), or the trace's values and counts
# (``trace``: 8 bytes per value and per row) with the model's P, or for value
# iteration the values and the greedy rows it returns (12 bytes per value).  The
# constants are the blocks: the model reader's windows of up to 512 KiB of text and
# their numpy temporaries, the trace reader's windows of 64 KiB, the writers' blocks
# and the number kernels' tables.  Value iteration keeps each step's arrays in lists
# and then stacks them (ROADMAP item 2), so it holds its output three times over.
MEMORY_BOUNDS = {
    "generate": (2, 0.5 * MiB),  # P, and as much again for the generator's draws
    "normalize": (2, 3.5 * MiB),  # the model read and the normalized model written
    "gamma-eff": (2, 3.5 * MiB),  # the model and its transformed rows
    "solve-vi": (3, 1 * MiB),
    "certify": (1, 2 * MiB),
}


@pytest.fixture(scope="module")
def wielandt(tmp_path_factory) -> dict:
    """A normalized Wielandt n = 50 model, as ``certify``'s benchmark input; the trace
    files of 2,402 and 9,602 steps from random values; and the peaks of ``solve-vi
    --trace`` at 600 and 2,402 steps."""
    d = tmp_path_factory.mktemp("wielandt")
    model, v0 = str(d / "wielandt.json"), d / "v0.json"
    v0.write_text(json.dumps(np.random.default_rng([7, 3]).uniform(0, 1, 50).tolist()))
    assert main(["generate", "--seed", "7", "--structure", "wielandt", "--n-states", "50",
                 "--min-actions", "3", "--max-actions", "3", "--gamma", "0.999",
                 "--out", model]) == 0
    assert main(["normalize", "--mdp", model, "--out", model]) == 0
    out = {"model": model, "P": cli._load_mdp(model)[0].P.nbytes}
    for steps in (600, 2402, 9602):
        out[steps] = str(d / f"trace_{steps}.csv")
        argv = ["solve-vi", "--mdp", model, "--stop", f"time:{steps}", "--v0", f"file:{v0}",
                "--trace", out[steps]]
        if steps == 9602:  # traced, it would take 1.3 s more
            with redirect_stdout(io.StringIO()):
                assert main(argv) == 0
        else:
            out["solve-vi", steps] = _peak(argv)
    return out


class TestMemoryBoundPerCommand:
    @pytest.mark.parametrize("steps", [2402, 9602])
    def test_certify_holds_the_trace_arrays_and_a_block(self, wielandt, steps):
        k, c = MEMORY_BOUNDS["certify"]
        code, peak = _peak(["certify", "--mdp", wielandt["model"], "--trace", wielandt[steps]])
        assert code == 65  # the certificate's block product underflows (ROADMAP item 7)
        kept = (steps + 1) * (50 + 1) * 8 + wielandt["P"]
        assert os.path.getsize(wielandt[steps]) > kept  # the text is larger than the arrays
        assert peak <= k * kept + c

    @pytest.mark.parametrize("steps", [600, 2402])
    def test_solve_vi_holds_its_trace_and_a_block(self, wielandt, steps):
        k, c = MEMORY_BOUNDS["solve-vi"]
        code, peak = wielandt["solve-vi", steps]
        assert code == 0
        assert peak <= k * (steps + 1) * 50 * 12 + c

    @pytest.mark.parametrize("n", [100, 200])
    def test_model_commands_hold_their_models_and_a_block(self, n, tmp_path):
        model, out = str(tmp_path / "model.json"), str(tmp_path / "out.json")
        code, peak = _peak(["generate", "--seed", "3", "--structure", "sparse", "--n-states",
                            str(n), "--sparse-k", "3", "--max-actions", "8", "--out", model])
        P = cli._load_mdp(model)[0].P.nbytes
        assert code == 0 and os.path.getsize(model) > P
        peaks = {"generate": peak,
                 "normalize": _peak(["normalize", "--mdp", model, "--out", out])[1],
                 "gamma-eff": _peak(["gamma-eff", "--mdp", model])[1]}
        for command, peak in peaks.items():
            k, c = MEMORY_BOUNDS[command]
            assert peak <= k * P + c, command


# ---------------------------------------------------------------------------
# no read of a whole file but where one is named


# The functions of ``cli`` that may read a file whole: a message that names places in
# the file, a stream that cannot seek, and the small --v0, --pi0 and --spec lists.
WHOLE_READS = {"_read_at", "_load", "_read_text"}


def _whole_reads(tree: ast.AST) -> set[str]:
    """The functions that read with no size: ``.read()``, or a size that may be -1 or
    None, called or handed on without one."""
    found = set()

    def sized(args: list[ast.expr]) -> bool:
        return bool(args) and not any(
            isinstance(node, ast.Constant) and node.value in (-1, None)
            or isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
            for arg in args for node in ast.walk(arg))

    def is_read(node: ast.AST) -> bool:  # floattext.read is the number kernel, not a file's
        return isinstance(node, ast.Attribute) and node.attr == "read" and not (
            isinstance(node.value, ast.Name) and node.value.id == "floattext")

    def walk(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                else where
            if isinstance(child, ast.Call):
                f = child.func
                if is_read(f) and not sized(child.args):
                    found.add(where)
                for k, arg in enumerate(child.args):  # handed on: only partial(fh.read, size)
                    name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                    if is_read(arg) and (name != "partial" or not sized(child.args[k + 1:])):
                        found.add(where)
            walk(child, inner)

    walk(tree, "<module>")
    return found


def test_cli_reads_a_file_whole_only_where_named():
    with open(cli.__file__, encoding="utf-8") as fh:
        assert _whole_reads(ast.parse(fh.read())) == WHOLE_READS


@pytest.mark.parametrize("source, where", [
    ("def f(fh):\n    return fh.read()\n", {"f"}),
    ("def f(fh):\n    return fh.read(-1)\n", {"f"}),
    ("def f(fh, b):\n    return fh.read(-1 if b is None else b)\n", {"f"}),
    ("def f(fh):\n    return iter(fh.read, b'')\n", {"f"}),
    ("def f(fh):\n    return fh.read(65536)\n", set()),
    ("def f(fh):\n    return iter(functools.partial(fh.read, 65536), b'')\n", set()),
])
def test_the_walk_finds_reads_without_a_size(source, where):
    assert _whole_reads(ast.parse(source)) == where
