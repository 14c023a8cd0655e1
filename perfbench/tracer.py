"""Spans around the calls into mdpgeo's layers, recorded from outside.

:class:`Tracer` replaces every public function of the traced modules (a
module-level function whose name has no leading underscore) at every module
binding that callers look it up through: ``core.validate`` is also bound as
``solvers.validate``, ``gen.validate`` and so on, and each binding gets its
own wrapper.  A span records the function's defining name, the binding it
was called through, start, end, the enclosing span and the command id.
Spans stay in memory until :meth:`Tracer.write`.

``Policy`` constructions are counted, not timed, by wrapping
``Policy.__post_init__``.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "core", "solvers", "transforms", "analysis", "twostate", "gen", "acceptance")

# Functions whose return values the per-layer metrics read.
_KEEP_RESULTS = ("analysis.primitivity", "cli.trace_to_csv", "solvers.policy_iteration")


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """Install with :meth:`install`, run commands, then :meth:`uninstall`."""

    def __init__(self, modules: dict):
        self.modules = modules  # layer name -> module
        self.spans: list[list] = []  # [name, via, start, end, parent, cmd]
        self.results: dict[str, list] = defaultdict(list)
        self.policy_objects = 0
        self.cmd: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    def _public_functions(self) -> set[int]:
        return {
            id(value)
            for mod in self.modules.values()
            for name, value in vars(mod).items()
            if inspect.isfunction(value)
            and not name.startswith("_")
            and value.__module__ == mod.__name__
        }

    def _wrap(self, fn, via: str):
        name = f"{_short(fn.__module__)}.{fn.__name__}"
        keep = name in _KEEP_RESULTS
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, via, 0.0, 0.0, stack[-1] if stack else -1, self.cmd]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if keep:
                self.results[name].append(out)
            return out

        return traced

    def install(self) -> None:
        originals = self._public_functions()
        for via, mod in self.modules.items():
            for name, value in list(vars(mod).items()):
                if id(value) in originals:
                    self._saved.append((mod, name, value))
                    setattr(mod, name, self._wrap(value, via))
        policy = self.modules["core"].Policy
        post_init = policy.__post_init__

        def counted(obj):
            self.policy_objects += 1
            post_init(obj)

        self._saved.append((policy, "__post_init__", post_init))
        policy.__post_init__ = counted

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()

    def totals(self) -> tuple[dict, dict]:
        """Self time and call count per key.

        Keys are the defining name (``core.validate``, all bindings) and, for
        calls through another module's binding, ``<binding>.<function>``
        (``solvers.span`` is ``core.span`` called from solvers).
        """
        child = [0.0] * len(self.spans)
        for name, via, start, end, parent, cmd in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for k, (name, via, start, end, parent, cmd) in enumerate(self.spans):
            own = end - start - child[k]
            keys = [name]
            if not name.startswith(via + "."):
                keys.append(f"{via}.{name.split('.', 1)[1]}")
            for key in keys:
                self_s[key] += own
                calls[key] += 1
        return self_s, calls

    def write(self, path: Path) -> None:
        """Write the spans as JSON Lines, times in seconds from tracer start."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, via, start, end, parent, cmd in self.spans:
                fh.write(json.dumps({
                    "name": name, "via": via, "start": start - self._origin,
                    "end": end - self._origin, "parent": parent, "cmd": cmd,
                }) + "\n")
