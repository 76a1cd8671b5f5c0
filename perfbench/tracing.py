"""Span recorder for the traced benchmark run.

The wrappers are installed at run time around public functions of the
loaded ``kalpha`` modules; the package itself is not changed.  Because
``from .x import y`` copies a binding, every module attribute that *is*
the wrapped object gets replaced, found by an identity scan rather than
a hand-kept list.  ``KAlphaParams`` is a class shared by all its
bindings, so its ``__init__`` is wrapped in place; ``deriv`` is wrapped
on every built-in ``TestFunction`` family.

Each span records its id, parent span, command id, name, start and end.
Spans live in flat arrays (about 40 bytes each) until the run writes
them out.  A span's self time is its duration minus the time covered by
its children; calls are single threaded and nested, so children never
overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict

PACKAGE = "kalpha"


def _count_events_arg(counters, name, args, result):
    counters[name + ".events"] += args[0].n_events


def _count_events_result(counters, name, args, result):
    counters[name + ".events"] += result.n_events


def _count_bytes(counters, name, args, result):
    # the CLI opens a fresh file for each path, so the end offset is the size
    counters[name + ".bytes"] += args[1].tell()


def _count_quad(counters, name, args, result):
    counters[name + ".panels"] += result.subdivisions
    counters[name + ".diverged"] += int(result.diverged)


def _count_pairing(counters, name, args, result):
    counters[name + ".events"] += args[0].n_events
    key = name + ".rel_err_max"
    counters[key] = max(counters[key], result.rel_err)


# "module.function" -> counter hook run after each call, outside the span
FUNCTIONS = {
    "numerics.adaptive_quad": _count_quad,
    "numerics.slv_sum": None,
    "measure.pruitt_index": None,
    "measure.upper_function_integral": None,
    "measure.laplace_exponent": None,
    "measure.truncated_moment": None,
    "paths.simulate_large_jumps": _count_events_result,
    "paths.write_event_path": _count_bytes,
    "paths.read_event_path": _count_events_result,
    "paths.running_sup": _count_events_arg,
    "diagnostics.envelope_exceedances": None,
    "diagnostics.growth_scan": None,
    "diagnostics.pruitt_slope": None,
    "diagnostics.moment_scan": None,
    "spaces.pair_white_noise": _count_pairing,
    "cli.validate_document": None,
}


class Tracer:
    """In-memory span store plus per-layer counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.ids = array("q")
        self.parents = array("q")
        self.cmds = array("q")
        self.name_of = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self.bindings: dict[str, list[str]] = {}
        self._stack: list[int] = []
        self._next_id = 1
        self.command = 0
        self._undo: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        ix = self._name_ix.get(name)
        if ix is None:
            ix = self._name_ix[name] = len(self.names)
            self.names.append(name)
        return ix

    def _open(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name_ix, start, end) -> None:
        self._stack.pop()
        self.ids.append(sid)
        self.parents.append(parent)
        self.cmds.append(self.command)
        self.name_of.append(name_ix)
        self.starts.append(start)
        self.ends.append(end)

    def run_command(self, name: str, fn, *args):
        """Run fn(*args) as a top-level span with a fresh command id."""
        self.command += 1
        return self._wrap(fn, name, None)(*args)

    def _wrap(self, fn, name, hook):
        name_ix = self._intern(name)
        clock = time.perf_counter
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name_ix, start, clock())
            if hook is not None:
                hook(counters, name, args, result)
            return result

        return traced

    def _setattr(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the traced functions in every loaded kalpha module."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for qual, hook in FUNCTIONS.items():
            mod, attr = qual.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{mod}"], attr)
            traced = self._wrap(original, qual, hook)
            found = self.bindings[qual] = []
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._setattr(m, key, traced)
                        found.append(f"{m.__name__}.{key}")

        params = sys.modules[f"{PACKAGE}.measure"].KAlphaParams
        self.bindings["measure.KAlphaParams"] = [
            f"{m.__name__}.{key}" for m in modules
            for key, value in vars(m).items() if value is params]
        self._setattr(params, "__init__",
                      self._wrap(params.__init__, "measure.KAlphaParams", None))

        base = sys.modules[f"{PACKAGE}.spaces"].TestFunction
        families = sorted({v for m in modules for v in vars(m).values()
                           if isinstance(v, type) and issubclass(v, base)
                           and "deriv" in vars(v) and v is not base},
                          key=lambda c: c.__name__)
        self.bindings["spaces.TestFunction.deriv"] = [
            f"{c.__module__}.{c.__name__}.deriv" for c in families]
        for cls in families:
            self._setattr(cls, "deriv",
                          self._wrap(vars(cls)["deriv"],
                                     "spaces.TestFunction.deriv", None))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def layer_totals(self) -> dict[str, float]:
        """calls, s (total) and self_s per span name, plus the counters."""
        child_time: dict[int, float] = defaultdict(float)
        for parent, start, end in zip(self.parents, self.starts, self.ends):
            if parent:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        cli_self = 0.0
        for sid, parent, nix, start, end in zip(self.ids, self.parents,
                                                self.name_of, self.starts,
                                                self.ends):
            name = self.names[nix]
            dur = end - start
            own = dur - child_time.get(sid, 0.0)
            out[name + ".calls"] += 1
            out[name + ".s"] += dur
            out[name + ".self_s"] += own
            if parent == 0 and name.startswith("cli."):
                cli_self += own
        out["cli.self_s"] = cli_self
        out.update(self.counters)
        return dict(out)

    def write(self, fp) -> None:
        """One JSON header line, then one [id, parent, cmd, name, start,
        end] line per span in the order spans closed."""
        fp.write(json.dumps({"bindings": self.bindings,
                             "spans": len(self.ids)}) + "\n")
        for row in zip(self.ids, self.parents, self.cmds, self.name_of,
                       self.starts, self.ends):
            sid, parent, cmd, nix, start, end = row
            fp.write(json.dumps([sid, parent, cmd, self.names[nix],
                                 start, end]) + "\n")
