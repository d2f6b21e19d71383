"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: around each public call
into a qvisolve module, and inside the oracle callables that the benchmark
passes to the library through the public ``OperatorSpec``/``ConstraintSpec``.
The library itself is not instrumented. Spans are kept in memory as tuples
``(span_id, name, start, end, parent_id, op_id)`` and written out once, when
the run ends.

An untraced run uses a ``Tracer(enabled=False)``: its ``span`` is a no-op and
its problems are the unwrapped originals, so the end-to-end timings carry no
tracing cost.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from time import perf_counter

from qvisolve import ConstraintSpec, OperatorSpec, QviProblem

OPERATOR = "problems.operator"
PROJECT = "problems.project"


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.sid = t.next_id
        t.next_id += 1
        self.parent = t.stack[-1] if t.stack else None
        t.stack.append(self.sid)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        t = self.tracer
        t.stack.pop()
        t.current.append((self.sid, self.name, self.start, end, self.parent, t.op_id))
        return False


class Tracer:
    """In-memory span store, grouped into segments (set-up, then one per
    traced round). ``calls`` counts oracle calls since the tracer was made,
    so callers can check the work accounting of a single solve."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.segments: dict[str, list] = {}
        self.current: list = []
        self.stack: list[int] = []
        self.next_id = 0
        self.op_id = -1
        self.calls = {OPERATOR: 0, PROJECT: 0}
        self.bytes_computed = 0

    def segment(self, name: str) -> list:
        """Start recording into a fresh segment and return its span list."""
        self.current = self.segments.setdefault(name, [])
        return self.current

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NO_SPAN

    def _leaf(self, name: str, start: float, end: float, nbytes: int) -> None:
        sid = self.next_id
        self.next_id += 1
        self.current.append((sid, name, start, end,
                             self.stack[-1] if self.stack else None, self.op_id))
        self.calls[name] += 1
        self.bytes_computed += nbytes

    def wrap(self, problem: QviProblem) -> QviProblem:
        """The same problem with timed, counted oracles."""
        func = problem.operator.func
        proj = problem.constraint.project
        leaf = self._leaf

        def operator(x):
            start = perf_counter()
            out = func(x)
            leaf(OPERATOR, start, perf_counter(), x.nbytes + out.nbytes)
            return out

        def project(x, z):
            start = perf_counter()
            out = proj(x, z)
            leaf(PROJECT, start, perf_counter(), x.nbytes + z.nbytes + out.nbytes)
            return out

        return QviProblem(
            operator=OperatorSpec(operator, problem.operator.lipschitz_L,
                                  problem.operator.strong_rho),
            constraint=ConstraintSpec(project, problem.constraint.lip_l),
            dim=problem.dim,
            known_solution=problem.known_solution,
            name=problem.name,
        )

    def write(self, path) -> int:
        """Write every span as CSV; returns the number written."""
        count = 0
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["segment", "span_id", "name", "start", "end", "parent", "op_id"])
            for segment, spans in self.segments.items():
                for sid, name, start, end, parent, op_id in spans:
                    out.writerow([segment, sid, name, repr(start), repr(end),
                                  "" if parent is None else parent, op_id])
                    count += 1
        return count


def summarize(spans) -> dict:
    """Per span name: number of spans, total time, and self time (total minus
    the time covered by direct children)."""
    child_time = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = defaultdict(lambda: {"count": 0, "total": 0.0, "self": 0.0})
    for sid, name, start, end, _, _ in spans:
        entry = out[name]
        entry["count"] += 1
        entry["total"] += end - start
        entry["self"] += end - start - child_time[sid]
    return out

