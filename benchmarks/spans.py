"""Spans around the public calls into each cloudpass layer, installed from
outside the program for the traced run only.

A wrapper replaces a function everywhere it is looked up: in the module
that defines it and in every cloudpass module that imported it by name
(``engine`` imports ``token_to_payload``, ``immigration`` imports
``tap_check`` and ``compare_visa``, and so on). Wrapping only the
defining module would miss those calls. ``uninstall`` puts every
original back, so the untraced run executes the program untouched.

Each span is ``[name, start, end, parent index, trace id]``. A span
opened with ``root=True`` (one scenario command, one wire request)
starts a new trace id; its descendants inherit it, so every span of one
command or one desk check shares an id. Spans stay in memory until
``dump`` writes them out after the run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

_NAME, _START, _END, _PARENT, _TRACE = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.samples: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._traces = 0
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, *, root=False, before=None, after=None):
        """``name`` is a span name or a function of the call's args that
        returns one. ``before(args)`` runs ahead of the call and its value
        goes to ``after(state, args, result, error)``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if root or parent < 0:
                self._traces += 1
                trace = self._traces
            else:
                trace = spans[parent][_TRACE]
            state = before(args) if before else None
            span = [name(args) if callable(name) else name, 0.0, 0.0, parent, trace]
            stack.append(len(spans))
            spans.append(span)
            result = error = None
            span[_START] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                span[_END] = clock()
                stack.pop()
                if after:
                    after(state, args, result, error)

        traced.__wrapped__ = fn
        return traced

    def count(self, key, fn, measure=None):
        """Count calls (or ``measure(result)``) without opening a span, for
        calls too frequent and too small to time one by one."""
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[key] += measure(result) if measure else 1
            return result

        counted.__wrapped__ = fn
        return counted

    # -- installing --------------------------------------------------------

    def patch_function(self, module, attr: str, make) -> None:
        """Replace ``module.attr`` and every by-name import of it."""
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("cloudpass")
                    and getattr(mod, attr, None) is original):
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def patch_method(self, cls, attr: str, make) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def patch_table(self, table: dict, make) -> None:
        for key, original in list(table.items()):
            self._patches.append((table, key, original))
            table[key] = make(key, original)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    # -- reading -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time covered by child spans."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                child[span[_PARENT]] += span[_END] - span[_START]
        out: dict[str, float] = defaultdict(float)
        for span, inner in zip(self.spans, child):
            out[span[_NAME]] += span[_END] - span[_START] - inner
        return out

    def durations(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = defaultdict(list)
        for span in self.spans:
            out[span[_NAME]].append(span[_END] - span[_START])
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent, trace in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "trace": trace}) + "\n")
