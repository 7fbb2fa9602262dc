"""Per-module call tracing of the fedssl package, from outside it.

`Tracer.install` replaces every public function of every fedssl module with
a timing wrapper, in every module namespace that binds it (a name imported
with `from .nn import loss_and_grad` is a second binding of the same
function object, so both bindings get the same wrapper). The named ledger
methods are wrapped on the class. Python resolves these names at call time,
so calls made inside a module are captured too. `uninstall` puts the
originals back.

Each call is one span: name, parent span, start and end. Spans stay in
memory as flat arrays and are written out once, by `save`. A span's self
time is its duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from array import array
from pathlib import Path

import numpy as np

PACKAGE = "fedssl"
# class methods traced besides the module-level functions: the ledger's
# per-round rollup rescans every entry, so it is a layer of its own
METHODS = {"metrics.CommLedger": ("record", "extend", "round_totals", "total_bytes")}


def _modules() -> list:
    pkg = importlib.import_module(PACKAGE)
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"{PACKAGE}.{info.name}"))
    return mods


def _short(module_name: str) -> str:
    return module_name[len(PACKAGE) + 1:]


class Tracer:
    """Span recorder for the public functions of the fedssl package."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        # pseudo_label outputs: rows labeled, rows kept by the confidence mask
        self.pseudo_rows = 0
        self.pseudo_kept = 0.0
        # entry count of each ledger, as of its latest per-round rollup
        self.ledger_entries: list[int] = []
        self._last_ledger = None

    def _observe_pseudo(self, args, result) -> None:
        self.pseudo_rows += result.size
        self.pseudo_kept += float(result.mask.sum())

    def _observe_ledger(self, args, result) -> None:
        ledger = args[0]
        if ledger is not self._last_ledger:
            self._last_ledger = ledger
            self.ledger_entries.append(0)
        self.ledger_entries[-1] = len(ledger.entries)

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        span_name, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        observe = {
            "semisup.pseudo_label": self._observe_pseudo,
            "metrics.CommLedger.round_totals": self._observe_ledger,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(span_name)
            span_name.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public fedssl function and the METHODS, everywhere bound."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = _modules()
        wrappers: dict[int, object] = {}
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not callable(obj) or isinstance(obj, type):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith(PACKAGE + "."):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, f"{_short(home)}.{obj.__name__}")
                self._restore.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
        for qual, methods in METHODS.items():
            mod_name, cls_name = qual.rsplit(".", 1)
            cls = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), cls_name)
            for meth in methods:
                fn = vars(cls)[meth]
                self._restore.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(fn, f"{qual}.{meth}"))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def table(self) -> dict[str, dict[str, float]]:
        """Per traced name: calls, self_s (duration minus direct children's
        coverage) and total_s (duration), summed over all spans.
        """
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=np.float64) - np.frombuffer(
            self.span_start, dtype=np.float64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=dur.size)
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        self_s = np.bincount(name, weights=dur - covered, minlength=n)
        total_s = np.bincount(name, weights=dur, minlength=n)
        return {
            nm: {"calls": int(calls[i]), "self_s": float(self_s[i]), "total_s": float(total_s[i])}
            for i, nm in enumerate(self.names)
        }

    def save(self, path: Path) -> None:
        """Write every span: name id, parent span (-1 for roots), start, end."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
