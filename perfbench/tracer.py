"""In-memory spans around the package's public functions.

:func:`install` wraps every public function of the modules in
:data:`LAYERS` and the :data:`METHODS` of ``MatLaurent``, and rebinds
each wrapped name in every module that looks it up, so calls between
modules are traced too.  Each call records one span: name, start, end,
parent span and the time covered by its children (for self time).
Spans live in flat arrays until :meth:`Tracer.save` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from pathlib import Path

import numpy as np

#: Modules whose public functions are wrapped, in layer order.
LAYERS = ("cli", "signal", "filterbank", "subdivision", "laurent", "annihilator")

#: ``MatLaurent`` methods wrapped as ``laurent.MatLaurent.<name>``.
METHODS = ("mul", "from_taps", "involution", "negate_arg", "eval", "divide_right")


class Tracer:
    """Flat span store: one row per call, parents by row index."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.child = array("q")
        self._stack: list[int] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.child.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        t = time.perf_counter_ns()
        self.end[idx] = t
        self._stack.pop()
        parent = self.parent[idx]
        if parent >= 0:
            self.child[parent] += t - self.start[idx]

    def __len__(self) -> int:
        return len(self.name)

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as numpy arrays: name id, parent, start/end ns, self ns."""
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start_ns": start,
            "end_ns": end,
            "self_ns": end - start - np.frombuffer(self.child, dtype=np.int64),
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())


def _wrap(tracer: Tracer, name: str, fn):
    nid = tracer.intern(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return traced


def install(tracer: Tracer):
    """Wrap the package's public functions; returns an undo callable.

    ``cli.main`` and the ``cli.cmd_*`` handlers are left alone: the
    caller opens one ``cli.<command>`` span around ``main`` so that the
    command's self time covers argument parsing and the JSON/CSV text
    work done inside the CLI module.
    """
    pkg = importlib.import_module("hermwave")
    mods = [importlib.import_module(f"hermwave.{m}") for m in LAYERS]
    wrapped = {}
    for layer, mod in zip(LAYERS, mods):
        for attr, fn in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or (layer == "cli" and (attr == "main" or attr.startswith("cmd_")))):
                continue
            wrapped[fn] = _wrap(tracer, f"{layer}.{attr}", fn)
    undo = []
    for site in [pkg, *mods]:
        for attr, val in list(vars(site).items()):
            if inspect.isfunction(val) and val in wrapped:
                undo.append((site, attr, val))
                setattr(site, attr, wrapped[val])
    cls = importlib.import_module("hermwave.laurent").MatLaurent
    for meth in METHODS:
        raw = cls.__dict__[meth]
        undo.append((cls, meth, raw))
        name = f"laurent.MatLaurent.{meth}"
        if isinstance(raw, staticmethod):
            setattr(cls, meth, staticmethod(_wrap(tracer, name, raw.__func__)))
        else:
            setattr(cls, meth, _wrap(tracer, name, raw))

    def uninstall():
        for site, attr, val in reversed(undo):
            setattr(site, attr, val)

    return uninstall
