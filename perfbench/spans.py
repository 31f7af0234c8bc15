"""In-memory span tracing around the library's public calls.

A Tracer replaces a module or class attribute with a wrapper that records
a span (name, start, end, parent span, cell/row key, attributes) for each
call, then restores the original on uninstall.  Wrapping happens at the
attribute the caller looks the function up through, so no library file
changes: ``biot.ic_solve`` is the name the biot preconditioner lambdas
resolve at call time, ``verify.random_system`` the one ``verify`` uses.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from contextlib import contextmanager

# span record layout (a list, to keep the per-call cost small)
NAME, START, END, PARENT, KEY, ATTRS = range(6)


class Tracer:
    """Span recorder; spans stay in memory until ``write``."""

    def __init__(self):
        self.spans = []
        self.key = None        # id of the biot cell or verify row being run
        self.active = True     # False while the harness runs its own checks
        self._stack = []
        self._patches = []

    def _open(self, name, attrs):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.key, attrs])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][END] = time.perf_counter()

    @contextmanager
    def paused(self):
        """Calls made inside run untraced (the harness's own checks)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def wrap(self, owner, attr, name, attrs=None):
        """Replace ``owner.attr`` by a recording wrapper.

        ``attrs``, if given, maps the call's arguments to a dict stored on
        the span (for instance which factor an ``ic_solve`` used).
        """
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if not self.active:
                return orig(*args, **kwargs)
            self._open(name, attrs(*args, **kwargs) if attrs else None)
            try:
                return orig(*args, **kwargs)
            finally:
                self._close()

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- aggregation ------------------------------------------------------

    def totals(self):
        """Per span name: [calls, total seconds, self seconds].

        Self time is a span's duration minus the durations of its direct
        children.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, s in enumerate(self.spans):
            dur = s[END] - s[START]
            t = out[self.label(s)]
            t[0] += 1
            t[1] += dur
            t[2] += dur - child[i]
        return out

    def label(self, s):
        """Span name, refined by its attributes and, for spmv, its caller."""
        name = s[NAME]
        if s[ATTRS] and "tag" in s[ATTRS]:
            return f"{name}.{s[ATTRS]['tag']}"
        if name == "sparse.spmv" and s[PARENT] >= 0:
            return f"{name}<{self.spans[s[PARENT]][NAME]}"
        return name

    def write(self, path, header):
        """Spans as gzipped JSON lines, the header (environment) first."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps(
                    {"name": s[NAME], "start": s[START], "end": s[END],
                     "parent": s[PARENT], "key": s[KEY], "attrs": s[ATTRS]}) + "\n")
