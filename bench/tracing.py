"""Tracing wrappers installed on bellseq from outside the program.

Each wrapper replaces a function at the name its callers look it up under
(``seq.bell_eval`` rather than ``bellpoly.bell_eval``, because ``seq``
imported the name), so nothing under ``src/`` changes and an untraced run
executes the program untouched.  The seq, conv and cli entry points record
spans (name, start, end, parent, job); the ring and bellpoly functions are
called too often for that and only aggregate a call count and self time per
name.  Self time is a call's duration minus the time of the wrapped calls
nested in it.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from math import comb
from time import perf_counter

from bellseq import bellpoly, cli, conv, ring, seq

# (owner, attribute, metric name, records spans)
SITES = (
    (ring.Polynomial, "__mul__", "ring.poly_mul", False),
    (ring.Polynomial, "__rmul__", "ring.poly_mul", False),
    (seq, "generalized_binomial", "ring.binomial", False),
    (conv, "generalized_binomial", "ring.binomial", False),
    (bellpoly, "generalized_binomial", "ring.binomial", False),
    (bellpoly, "enumerate_pi", "bellpoly.enumerate_pi", False),
    (seq, "bell_eval", "bellpoly.bell_eval", False),
    (conv, "bell_eval", "bellpoly.bell_eval", False),
    (cli, "bell_eval", "bellpoly.bell_eval", False),
    (cli, "bell_eval_recurrence", "bellpoly.bell_eval_recurrence", False),
    (seq, "bell_transform", "seq.bell_transform", True),
    (conv, "bell_transform", "seq.bell_transform", True),
    (seq, "bell_transform_rewritten", "seq.bell_transform_rewritten", True),
    (seq, "decompose", "seq.decompose", True),
    (conv, "convolution_oracle", "conv.oracle", True),
    # the delta-shifted closed form is the closed form of the a=0, b=1 family
    (conv, "convolution_closed", "conv.closed", True),
    (conv, "shifted_convolution_closed", "conv.closed", True),
    (conv, "convolution_closed_specialized", "conv.specialized", True),
    (cli, "main", "cli.main", True),
)


def installed() -> bool:
    """True while any tracing wrapper is in place."""
    return any(hasattr(getattr(owner, attr), "__wrapped__") for owner, attr, _, _ in SITES) or hasattr(
        conv.compositions, "__wrapped__"
    )


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.spans = []  # (span id, name, start, end, parent span id, job)
        self.job = None
        self.partitions = 0
        self.partition_args = Counter()  # (n, k) -> enumerate_pi calls
        self.terms = 0
        self.compositions = 0
        self.oracle_total = 0
        self.oracle_useful = 0
        self.exit2 = 0
        self._stack = []  # [start, nested time, span id or None]
        self._saved = []

    def install(self):
        for owner, attr, name, spans in SITES:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, spans))
        original = conv.compositions
        self._saved.append((conv, "compositions", original))
        conv.compositions = self._count_compositions(original)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, name, spans):
        stack = self._stack
        after = {
            "bellpoly.enumerate_pi": self._count_partitions,
            "seq.bell_transform": self._count_terms,
            "seq.bell_transform_rewritten": self._count_terms,
            "conv.oracle": self._count_oracle_work,
            "cli.main": self._count_exit2,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans) if spans else None
            if spans:
                self.spans.append(None)  # reserve the id; children may append
            frame = [perf_counter(), 0.0, span_id]
            stack.append(frame)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except SystemExit as e:
                exc = e
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[0]
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if spans:
                    parent = next((f[2] for f in reversed(stack) if f[2] is not None), None)
                    self.spans[span_id] = (span_id, name, frame[0], end, parent, self.job)
                if after is not None:
                    after(args, kwargs, result, exc)

        return wrapper

    def _count_compositions(self, fn):
        @functools.wraps(fn)
        def counted(n, r):
            count = 0
            for count, comp in enumerate(fn(n, r), start=1):
                yield comp
            self.compositions += count

        return counted

    def _count_partitions(self, args, kwargs, result, exc):
        if result is not None:
            self.partitions += len(result)
            self.partition_args[args[0], args[1]] += 1

    def _count_terms(self, args, kwargs, result, exc):
        if result is not None:
            self.terms += len(result.values)

    def _count_oracle_work(self, args, kwargs, result, exc):
        # computed from the arguments: compositions of n into r parts, and
        # those whose parts are all >= delta (substitute m_i - delta)
        if result is None:
            return
        r, n = args[1], args[2]
        delta = args[3] if len(args) > 3 else kwargs.get("delta", 0)
        self.oracle_total += comb(n + r - 1, r - 1)
        if n >= r * delta:
            self.oracle_useful += comb(n - r * delta + r - 1, r - 1)

    def _count_exit2(self, args, kwargs, result, exc):
        if result == 2 or (exc is not None and exc.code == 2):
            self.exit2 += 1

    def write_spans(self, path):
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(("id", "name", "start", "end", "parent", "job"), span))) + "\n")
