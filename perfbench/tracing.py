"""In-memory spans and call wrappers for the traced benchmark run.

Spans are recorded around calls the benchmark makes into the library's
public functions.  Wrappers are put on the callables that the layers hand
to each other (profile phi/phi'/phi'', structure tensor fields, reduced
coefficient callables); they count calls and accumulate self time without
recording one span per call, which would cost more than the calls.

Self time follows one rule everywhere: the time a span or wrapped call was
open, minus the time covered by spans and wrapped calls opened inside it.
A shared stack of child-time accumulators implements that rule.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict
from dataclasses import replace

_clock = time.perf_counter


class Tracer:
    """Collects spans, per-wrapper call counts and self times."""

    def __init__(self):
        self.spans = []                 # dicts, kept in memory
        self.calls = Counter()          # wrapper tag -> calls
        self.self_s = defaultdict(float)  # wrapper tag -> self seconds
        self.raised = Counter()         # wrapper tag -> calls that raised
        self.task = None                # identifier shared by one task's spans
        self._stack = []                # child time of each open span / call
        self._open = []                 # indices of open spans (parents)

    @contextlib.contextmanager
    def span(self, name, **attrs):
        rec = {"name": name, "task": self.task,
               "parent": self._open[-1] if self._open else None, **attrs}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        self._stack.append(0.0)
        t0 = _clock()
        try:
            yield rec
        finally:
            dt = _clock() - t0
            child = self._stack.pop()
            self._open.pop()
            rec.update(start=t0, end=t0 + dt, dur=dt, self=dt - child)
            if self._stack:
                self._stack[-1] += dt

    def wrap(self, tag, fn, catch=()):
        """``fn`` with its calls counted and timed under ``tag``.

        Exceptions of the types in ``catch`` are counted in ``raised`` and
        re-raised unchanged.
        """
        stack, calls, self_s, raised = self._stack, self.calls, self.self_s, self.raised

        def wrapped(*args):
            stack.append(0.0)
            t0 = _clock()
            try:
                return fn(*args)
            except catch:
                raised[tag] += 1
                raise
            finally:
                dt = _clock() - t0
                self_s[tag] += dt - stack.pop()
                calls[tag] += 1
                if stack:
                    stack[-1] += dt

        return wrapped

    def count(self, prefix):
        """Wrapped calls so far under every tag starting with ``prefix``."""
        return sum(n for tag, n in self.calls.items() if tag.startswith(prefix))


def span_cost(n=20000):
    """Seconds one empty span costs a Tracer, timed over ``n`` spans."""
    tr = Tracer()
    t0 = _clock()
    for _ in range(n):
        with tr.span("probe"):
            pass
    return (_clock() - t0) / n


class NullTracer:
    """Stand-in for untraced passes: no spans, wrappers are the identity."""

    task = None

    def span(self, name, **attrs):
        return contextlib.nullcontext({})

    def count(self, prefix):
        return 0

    def wrap(self, tag, fn, catch=()):
        return fn


def wrap_coeffs(tr, rc):
    """ReducedCoeffs whose a/b/c/d callables are counted as 'coeff.<name>'."""
    if isinstance(tr, NullTracer):
        return rc
    return replace(rc, **{k: tr.wrap("coeff." + k[0], getattr(rc, k))
                          for k in ("a_fn", "c_fn", "b_fn", "d_fn")
                          if getattr(rc, k) is not None})


def wrap_profile(tr, prof, domain_error):
    """Profile whose phi, phi' and phi'' are counted under 'profile'.

    Calls that raise ``domain_error`` are counted as raised; in a sweep
    that skips out-of-domain points, each dropped point raises once.
    """
    if isinstance(tr, NullTracer):
        return prof
    return replace(prof, **{k: tr.wrap("profile", getattr(prof, k), catch=domain_error)
                            for k in ("phi", "phi_prime", "phi_second")
                            if getattr(prof, k) is not None})


def wrap_structure(tr, st):
    """GeometricStructure whose tensor fields are counted under 'field'."""
    if isinstance(tr, NullTracer):
        return st
    return replace(st, **{k: tr.wrap("field", getattr(st, k))
                          for k in ("h", "gamma", "c_field", "b_field", "d_field")
                          if getattr(st, k) is not None})
