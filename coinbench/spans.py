"""Spans recorded from outside the program, and self time by interval sweep.

The traced run wraps public layer methods *on the instances* it built (never
on classes or modules, and with no edit to ``src/``): each wrapper records a
span with name, start, end, parent and statement id.  A span's parent is the
innermost open span on its own thread; a span that opens on a thread with
nothing open (a source fetch on the engine's dispatch pool, a protocol
request on a server worker) is adopted by the matching open span of another
thread — see :meth:`Recorder.adopt`.

Self time is computed per statement by sweeping the statement's interval:
every instant belongs to the deepest spans open at that instant, split
evenly when several are open at once (parallel source fetches).  So a
span's self time is its duration minus the union of its children, and the
self times of one statement sum exactly to its root.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Layer of each span name.  The benchmark's own ``stmt`` root is no layer:
#: root time no layer span covers is reported as ``obs.unattributed_share``.
LAYERS = {
    "sql.parse": "sql",
    "pipeline.prepare": "pipeline",
    "mediation.mediate": "mediation",
    "engine.plan_branches": "engine.planner",
    "engine.execute": "engine.execute",
    "engine.execute_stream": "engine.execute",
    "cursor.fetchmany": "engine.execute",
    "wrapper.fetch": "wrappers",
    "wrapper.query": "wrappers",
    "answers.annotate": "mediation.answers",
    "federation.query": "federation",
    "server.odbc": "server.odbc",
    "server.handle": "server.protocol",
    "server.gateway": "server.gateway",
}

#: Spans that may adopt a span opened on another thread, per adoptee.
_ADOPTERS = {
    "wrapper.fetch": ("engine.execute", "engine.execute_stream", "cursor.fetchmany"),
    "wrapper.query": ("engine.execute", "engine.execute_stream", "cursor.fetchmany"),
    "server.handle": ("server.odbc",),
}


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    thread: int
    parent: Optional["Span"] = None
    end: Optional[float] = None
    statement: Optional[int] = None
    key: Optional[str] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def depth(self) -> int:
        depth, node = 0, self.parent
        while node is not None:
            depth, node = depth + 1, node.parent
        return depth


class Recorder:
    """Collects spans while :attr:`on`; wrappers pass straight through when off."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.on = False
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._open: Dict[int, Span] = {}
        self._lock = threading.Lock()

    # -- span lifecycle ------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def adopt(self, name: str, key: Optional[str]) -> Optional[Span]:
        """The open span on another thread that caused ``name``.

        Source fetches go to the most recently opened execute/fetch span; a
        server request goes to the open client call carrying the same SQL
        text (``key``), else to the most recent open client call.
        """
        adopters = _ADOPTERS.get(name)
        if not adopters:
            return None
        with self._lock:
            candidates = [span for span in self._open.values() if span.name in adopters]
        if not candidates:
            return None
        if key is not None:
            keyed = [span for span in candidates if span.key == key]
            candidates = keyed or candidates
        return max(candidates, key=lambda span: span.start)

    def begin(self, name: str, key: Optional[str] = None, **attrs) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self.adopt(name, key)
        span = Span(next(self._ids), name, self.clock(), threading.get_ident(),
                    parent=parent, key=key, attrs=attrs)
        span.statement = parent.statement if parent is not None else span.span_id
        stack.append(span)
        with self._lock:
            self._open[span.span_id] = span
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)
        with self._lock:
            self._open.pop(span.span_id, None)
            self.spans.append(span)

    def wrap(self, owner, method: str, name: str,
             key: Optional[Callable[..., Optional[str]]] = None,
             annotate: Optional[Callable[[object], Dict[str, object]]] = None) -> None:
        """Replace ``owner.method`` by a span-recording wrapper on the instance."""
        inner = getattr(owner, method)
        recorder = self

        def traced(*args, **kwargs):
            if not recorder.on:
                return inner(*args, **kwargs)
            span = recorder.begin(name, key(*args, **kwargs) if key else None)
            try:
                result = inner(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                recorder.end(span)
            if annotate is not None:
                span.attrs.update(annotate(result))
            return result

        setattr(owner, method, traced)

    # -- export --------------------------------------------------------------

    def export(self, path: str, limit: int = 20000) -> None:
        """Write finished spans as JSON (name, start, end, parent, statement id)."""
        rows = [{
            "id": span.span_id, "name": span.name,
            "start": span.start, "end": span.end,
            "parent": span.parent.span_id if span.parent is not None else None,
            "statement": span.statement, "thread": span.thread, **span.attrs,
        } for span in sorted(self.spans, key=lambda s: s.start)[:limit]]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": rows, "total_spans": len(self.spans)}, handle)


# -- self time ----------------------------------------------------------------


def attribute(spans: Sequence[Span], root: Span) -> Dict[int, float]:
    """Exclusive time of each span of one statement, clipped to its root.

    Within each elementary interval between span boundaries, the time goes
    to the deepest open spans, split evenly among them.  The values sum to
    the root's duration.
    """
    lo, hi = root.start, root.end
    clipped = [(max(s.start, lo), min(s.end, hi), s.depth, s.span_id)
               for s in spans if s.end is not None and s.end > lo and s.start < hi]
    bounds = sorted({lo, hi, *(b for s, e, _, _ in clipped for b in (s, e))})
    owned: Dict[int, float] = defaultdict(float)
    for left, right in zip(bounds, bounds[1:]):
        if right <= left:
            continue
        active = [(depth, span_id) for s, e, depth, span_id in clipped if s <= left and e >= right]
        if not active:
            continue
        deepest = max(depth for depth, _ in active)
        owners = [span_id for depth, span_id in active if depth == deepest]
        share = (right - left) / len(owners)
        for span_id in owners:
            owned[span_id] += share
    return owned


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total, current_start, current_end = 0.0, None, None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def intersect_length(a: Sequence[Tuple[float, float]], b: Sequence[Tuple[float, float]]) -> float:
    """Length of (union of ``a``) ∩ (union of ``b``)."""
    pieces = [(max(s1, s2), min(e1, e2)) for s1, e1 in a for s2, e2 in b
              if min(e1, e2) > max(s1, s2)]
    return union_length(pieces)


@dataclass
class LayerTotals:
    """Per-layer sums over the traced statements of a run."""

    statements: int = 0
    root_seconds: float = 0.0
    unattributed_seconds: float = 0.0
    inclusive: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    self_time: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    fetch_wait_seconds: float = 0.0
    server_query_seconds: Dict[int, float] = field(default_factory=dict)

    def share(self, layer: str) -> float:
        return self.self_time.get(layer, 0.0) / self.root_seconds if self.root_seconds else 0.0

    def per_statement_us(self, layer: str, inclusive: bool = True) -> float:
        table = self.inclusive if inclusive else self.self_time
        return table.get(layer, 0.0) / self.statements * 1e6 if self.statements else 0.0


def summarize(recorder: Recorder, root_name: str = "stmt") -> LayerTotals:
    """Fold every finished ``root_name`` statement into :class:`LayerTotals`."""
    by_statement: Dict[int, List[Span]] = defaultdict(list)
    for span in recorder.spans:
        if span.statement is not None:
            by_statement[span.statement].append(span)
    totals = LayerTotals()
    for statement_id, spans in by_statement.items():
        roots = [span for span in spans if span.span_id == statement_id and span.name == root_name]
        if not roots or roots[0].end is None:
            continue
        root = roots[0]
        owned = attribute(spans, root)
        totals.statements += 1
        totals.root_seconds += root.end - root.start
        totals.unattributed_seconds += owned.get(root.span_id, 0.0)
        execute, fetches = [], []
        for span in spans:
            layer = LAYERS.get(span.name)
            if layer is None or span.end is None:
                continue
            totals.inclusive[layer] += span.end - span.start
            totals.self_time[layer] += owned.get(span.span_id, 0.0)
            if layer == "engine.execute":
                execute.append((span.start, span.end))
            elif layer == "wrappers":
                fetches.append((span.start, span.end))
            elif span.name == "federation.query":
                totals.server_query_seconds[statement_id] = (
                    totals.server_query_seconds.get(statement_id, 0.0) + span.end - span.start)
        totals.fetch_wait_seconds += intersect_length(execute, fetches)
    return totals
