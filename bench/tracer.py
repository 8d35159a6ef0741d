"""Span tracer installed on the memwave package from outside it.

`Tracer.install` replaces every public function of the package (a module-level
function whose name has no leading underscore) with a timing wrapper, in every
`memwave.*` namespace that binds it, so call sites written as
`from .x import y` are covered too.  Each call records one span: name, start,
end, the span that was open when it started, and an optional work count.  A
recursive function records only its outermost call.

`attach(False)` puts the original functions back and `attach(True)` the
wrappers again, so traced and untraced ops can alternate in one process.
Spans stay in memory.  `take` hands over the spans of the op just run and
starts an empty list; `aggregate` reduces them to per-function call counts,
durations and self times.
"""

from __future__ import annotations

import functools
import sys
import time
import types

# Span fields, in the order they are stored.
NAME, START, END, PARENT, COUNT = range(5)


def _exp_integral_elements(args, kwargs) -> int:
    s = args[0] if args else kwargs["s"]
    return int(getattr(s, "size", 1))


#: Work counts recorded with a function's span, keyed by span name.
COUNTERS = {"ingham.exp_integral": _exp_integral_elements}

#: Public functions left unwrapped.  format_float runs once per serialized
#: number (about 2e5 times in a modes op); a span per call would cost more
#: than the call itself, so its time stays in its caller's self time.
PER_ELEMENT = frozenset({"cli.format_float"})


class Tracer:
    """Records spans around the public functions of one package."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list = []
        self._open: list = []
        self._bindings: list = []

    def wrap(self, name: str, fn, count=None):
        """Return `fn` wrapped so that each outermost call records a span."""
        tracer = self
        home = fn.__globals__
        active = False

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nonlocal active
            if active:
                return fn(*args, **kwargs)
            active = True
            # Recursive calls through the function's own module skip the wrapper.
            rebound = home.get(fn.__name__) is traced
            if rebound:
                home[fn.__name__] = fn
            stack = tracer._open
            span = [name, 0, 0, stack[-1] if stack else -1,
                    count(args, kwargs) if count else 0]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = tracer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = tracer.clock()
                stack.pop()
                if rebound:
                    home[fn.__name__] = traced
                active = False

        return traced

    def install(self, package: str = "memwave", counters=COUNTERS,
                skip=PER_ELEMENT) -> list:
        """Wrap every public function of `package`; return the span names wrapped."""
        prefix = package + "."
        wrappers = {}
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == package or modname.startswith(prefix)):
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                home = obj.__module__ or ""
                if not home.startswith(prefix):
                    continue
                name = f"{home[len(prefix):]}.{obj.__name__}"
                if name in skip:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = (name, self.wrap(name, obj, counters.get(name)))
                self._bindings.append((module, attr, obj, wrappers[obj][1]))
        self.attach(True)
        return sorted(name for name, _ in wrappers.values())

    def attach(self, on: bool) -> None:
        """Bind the wrappers (on) or the original functions (off) in every namespace."""
        for module, attr, original, wrapper in self._bindings:
            setattr(module, attr, wrapper if on else original)

    def take(self) -> list:
        """Spans recorded since the last call; the tracer starts a new list."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans) -> list:
    """Per span: its duration minus the part of it that its child spans cover."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(index)
    result = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0, start
        for lo, hi in sorted((spans[c][START], spans[c][END]) for c in children[index]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(end - start - covered)
    return result


def aggregate(spans, seconds_per_tick: float = 1e-9) -> dict:
    """Per span name: calls, total duration, self time (seconds) and work count."""
    table: dict = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0})
        row["calls"] += 1
        row["s"] += (span[END] - span[START]) * seconds_per_tick
        row["self_s"] += own * seconds_per_tick
        row["count"] += span[COUNT]
    return table
