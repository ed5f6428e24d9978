"""Plan execution: the execution controller and its pull-based result stream.

"Controlling the execution of the resulting query execution plan and executing
the necessary local operations (e.g. joins across sources)."

:class:`ExecutionController` holds the per-engine execution configuration;
its :meth:`~ExecutionController.execute_stream` opens one
:class:`ResultStream` per plan.  The stream runs the plan in two phases.

**Phase 1 — federated request scheduling.**  The source requests of *all*
branches are collected up front, canonicalized into request keys (wrapper +
pushed SQL / FETCH target, see :mod:`repro.engine.request_cache`), and
deduplicated: N branches asking one wrapper for byte-identical requests cost
one round trip.  The distinct set is then resolved against the (optional)
source-result cache, and the remaining fetches are dispatched
**asynchronously** on a bounded thread pool — or lazily, one at a time, when
the pool is bounded to a single request — so wall clock approaches the
slowest source instead of the sum of all round trips.  Each result is awaited
only when a branch needs it staged, and results are handed to branches in
plan order, so answers and reports are deterministic regardless of
completion order.

**Phase 2 — local processing, per branch, as the consumer pulls rows.**  Each
branch

1. stages its (shared) fetched relations in temporary storage, applying any
   residual per-binding filters locally;
2. joins the staged intermediates in the planned order with hash or
   nested-loop physical operators;
3. applies residual cross-source conditions;
4. finishes the SELECT through the operator chain
   :func:`~repro.relational.finalize.build_finalization` builds — ``Project``
   (or the blocking ``Aggregate``) → ``Sort`` → ``Distinct`` → ``Limit``, the
   same finalization the local processor runs;

and the branch results combine with UNION (ALL) semantics.  One shared
:class:`~repro.relational.budget.MemoryBudget` bounds every memory-hungry
operator (spilling `Sort`/`Distinct`/`HashJoin` state to temporary files when
exceeded), and a consumer that stops pulling — a satisfied LIMIT, an
explicit ``close()`` — cancels the fetches it never consumed, drops the staged
temporaries and releases the fetch pool mid-query.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import (
    DeadlineExceededError,
    ExecutionError,
    RequestFailedError,
    SchemaError,
    SourceUnavailableError,
)
from repro.engine.catalog import Catalog
from repro.engine.plan import BranchPlan, JoinStep, QueryPlan, SourceRequest
from repro.engine.request_cache import RequestKey, SourceResultCache, request_key
from repro.engine.resilience import (
    Deadline,
    ResiliencePolicy,
    ResilienceReport,
    validate_on_source_error,
)
from repro.obs.trace import current_span
from repro.relational.budget import MemoryBudget, estimate_row_bytes
from repro.relational.finalize import build_finalization
from repro.relational.operators import (
    Filter,
    HashJoin,
    NestedLoopJoin,
    PhysicalOperator,
    TableScan,
)
from repro.relational.query import QueryProcessor
from repro.relational.relation import Relation, Row
from repro.relational.schema import Schema
from repro.relational.storage import TemporaryStore
from repro.relational.types import sort_key as value_sort_key
from repro.sql.ast import ColumnRef, InList, Literal, conjoin

#: Default bound on concurrently in-flight source requests per statement.
DEFAULT_MAX_CONCURRENT_REQUESTS = 8


@dataclass
class RequestExecution:
    """What actually happened for one source request.

    One entry is recorded per *plan* request (branch × binding), in plan
    order.  When several plan requests share one round trip, the entry that
    first used the shared fetch carries its ``fetch_seconds``; the others are
    marked ``dedup_hit`` (and ``cache_hit`` when the fetch was answered from
    the source-result cache without any round trip at all).
    ``elapsed_seconds`` covers this entry's own work: local filtering and
    staging, plus the shared fetch for the entry that triggered it.
    """

    binding: str
    wrapper_name: str
    request: str
    rows_returned: int
    rows_after_local_filters: int
    elapsed_seconds: float
    branch: int = 0
    dedup_hit: bool = False
    cache_hit: bool = False
    #: Time the fetch spent queued behind the concurrency bound.
    wait_seconds: float = 0.0
    #: Wrapper round-trip time of the shared fetch this entry relied on.
    fetch_seconds: float = 0.0


@dataclass
class OperatorStats:
    """Row/time counters of one local physical operator.

    ``elapsed_seconds`` is cumulative in the EXPLAIN ANALYZE sense: it covers
    the operator *and* everything beneath it in the pipeline, because it is
    measured around the operator's row production."""

    branch: int
    operator: str
    detail: str
    rows_out: int = 0
    elapsed_seconds: float = 0.0

    def snapshot(self) -> Dict[str, object]:
        return {
            "branch": self.branch,
            "operator": self.operator,
            "detail": self.detail,
            "rows_out": self.rows_out,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
        }


class _InstrumentedOperator(PhysicalOperator):
    """Transparent wrapper counting rows and production time of its child."""

    def __init__(self, child: PhysicalOperator, stats: OperatorStats):
        self.child = child
        self.stats = stats

    @property
    def operator_name(self) -> str:  # type: ignore[override]
        return self.child.operator_name

    @property
    def schema(self):
        return self.child.schema

    @property
    def children(self):
        return self.child.children

    @property
    def estimated_rows(self) -> int:
        return self.child.estimated_rows

    def explain(self, indent: int = 0) -> str:
        return self.child.explain(indent)

    def __iter__(self):
        stats = self.stats
        iterator = iter(self.child)
        while True:
            started = time.perf_counter()
            try:
                row = next(iterator)
            except StopIteration:
                stats.elapsed_seconds += time.perf_counter() - started
                return
            stats.elapsed_seconds += time.perf_counter() - started
            stats.rows_out += 1
            yield row


@dataclass
class OptimizerReport:
    """Adaptive-optimizer outcome of one statement.

    Join orders and estimate provenance come from the plan; the bind-join
    counters are filled in by the stream as bound requests actually ship
    their batched ``IN``-list key sets.
    """

    #: Feedback epoch the executed plan was priced under.
    feedback_epoch: int = 0
    #: Per branch, the binding join order (initial first).
    join_orders: List[List[str]] = field(default_factory=list)
    #: How many plan estimates came from runtime feedback vs defaults
    #: (source requests and join steps combined).
    estimates_from_feedback: int = 0
    estimates_from_defaults: int = 0
    #: Bind-join accounting: bound requests executed, IN-list batches
    #: shipped, key values shipped, rows actually fetched by bound requests,
    #: rows the planner expected an unbound fetch to transfer minus those
    #: fetched (clamped at zero), estimated bytes that saved, and bound
    #: requests skipped entirely because the driver produced no keys.
    bind_joins: int = 0
    bind_batches: int = 0
    bind_keys_shipped: int = 0
    bind_rows_fetched: int = 0
    bind_rows_avoided: int = 0
    bind_bytes_saved: int = 0
    bind_empty_key_skips: int = 0

    def snapshot(self) -> Dict[str, object]:
        return {
            "feedback_epoch": self.feedback_epoch,
            "join_orders": [list(order) for order in self.join_orders],
            "estimates_from_feedback": self.estimates_from_feedback,
            "estimates_from_defaults": self.estimates_from_defaults,
            "bind_joins": self.bind_joins,
            "bind_batches": self.bind_batches,
            "bind_keys_shipped": self.bind_keys_shipped,
            "bind_rows_fetched": self.bind_rows_fetched,
            "bind_rows_avoided": self.bind_rows_avoided,
            "bind_bytes_saved": self.bind_bytes_saved,
            "bind_empty_key_skips": self.bind_empty_key_skips,
        }


@dataclass
class ExecutionReport:
    """Execution trace of one statement: per-request facts plus totals.

    Mutations arrive from several threads — fetch workers append request
    entries while the consumer thread folds streaming/memory totals and a
    server thread may snapshot mid-flight — so the list/dict fields are
    guarded by ``lock``: mutation sites hold it (``record_request`` or a
    ``with report.lock`` block) and :meth:`snapshot` takes it too, making
    every snapshot a consistent point-in-time copy.
    """

    requests: List[RequestExecution] = field(default_factory=list)
    branch_rows: List[int] = field(default_factory=list)
    result_rows: int = 0
    elapsed_seconds: float = 0.0
    temp_storage: Dict[str, int] = field(default_factory=dict)
    operator_stats: List[OperatorStats] = field(default_factory=list)
    #: Scheduler outcome: how many distinct round trips the plan's requests
    #: collapsed into, and how they were served.
    distinct_requests: int = 0
    dedup_hits: int = 0
    cache_hits: int = 0
    #: Peak number of fetches simultaneously in flight on the pool.
    max_in_flight: int = 0
    #: Pool submission order (one binding per pending fetch).  When the
    #: catalog's per-wrapper EWMA latency profiles are mature the scheduler
    #: submits the expected-slowest fetch first so the statement's long pole
    #: starts earliest; ``dispatch_policy`` records whether profiles
    #: ("latency") or plan order ("plan") decided it.
    dispatch_order: List[str] = field(default_factory=list)
    dispatch_policy: str = "plan"
    #: Streaming counters: rows actually pulled through the cursor, the wall
    #: clock until the first of them, and fetches a closed/limit-satisfied
    #: stream cancelled before they were ever issued.
    rows_streamed: int = 0
    first_row_seconds: float = 0.0
    cancelled_fetches: int = 0
    #: Memory accounting: the configured operator budget (0 = unbounded), the
    #: observed operator peak, bytes staged in temporary storage, and what
    #: spilled to secondary storage when the budget was exceeded.
    memory_limit_bytes: int = 0
    peak_memory_bytes: int = 0
    staged_bytes: int = 0
    spill_count: int = 0
    spilled_rows: int = 0
    spilled_bytes: int = 0
    #: Consistent-query-answering outcome, populated only for statements run
    #: under ``consistency="certain"``/``"possible"``: mode, strategy
    #: (rewrite / fallback / clean), conflict clusters touched, repairs
    #: enumerated, raw row count, and how many raw rows certainty dropped.
    consistency: Optional[Dict[str, object]] = None
    #: Fault-tolerance outcome: fetch attempts, retries, breaker activity,
    #: degraded branches and deadline headroom (see
    #: :class:`~repro.engine.resilience.ResilienceReport`).
    resilience: ResilienceReport = field(default_factory=ResilienceReport)
    #: Adaptive-optimizer outcome: join orders, estimate provenance and
    #: bind-join transfer accounting.
    optimizer: OptimizerReport = field(default_factory=OptimizerReport)
    #: Trace id of the statement's span tree, when tracing sampled it.
    trace_id: Optional[str] = None
    #: Guards the mutable collections/counters above against concurrent
    #: snapshots (see the class docstring).
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False,
                                 compare=False)

    def record_request(self, entry: RequestExecution) -> None:
        with self.lock:
            self.requests.append(entry)

    @property
    def rows_transferred(self) -> int:
        """Rows actually shipped from sources: dedup'd and cached request
        entries reused rows that already crossed the wire, so only the entry
        that triggered a real round trip counts its rows.  Lock-free (it
        reads a copy of the request list), so lock holders may read it."""
        return sum(
            request.rows_returned for request in list(self.requests)
            if not request.dedup_hit and not request.cache_hit
        )

    @property
    def source_round_trips(self) -> int:
        """Round trips actually issued: distinct requests minus cache hits."""
        return self.distinct_requests - self.cache_hits

    def snapshot(self) -> Dict[str, object]:
        with self.lock:
            requests = list(self.requests)
            snapshot: Dict[str, object] = {
                "requests": len(requests),
                "rows_transferred": self.rows_transferred,
                "branch_rows": list(self.branch_rows),
                "result_rows": self.result_rows,
                "elapsed_seconds": round(self.elapsed_seconds, 6),
                "temp_storage": dict(self.temp_storage),
                "operators": [stats.snapshot() for stats in self.operator_stats],
                "scheduler": {
                    "distinct_requests": self.distinct_requests,
                    "source_round_trips": self.source_round_trips,
                    "dedup_hits": self.dedup_hits,
                    "cache_hits": self.cache_hits,
                    "max_in_flight": self.max_in_flight,
                    "dispatch_order": list(self.dispatch_order),
                    "dispatch_policy": self.dispatch_policy,
                    "wait_seconds": round(
                        sum(request.wait_seconds for request in requests), 6
                    ),
                    "fetch_seconds": round(
                        sum(request.fetch_seconds for request in requests), 6
                    ),
                },
                "streaming": {
                    "rows_streamed": self.rows_streamed,
                    "first_row_seconds": round(self.first_row_seconds, 6),
                    "cancelled_fetches": self.cancelled_fetches,
                },
                "memory": {
                    "limit_bytes": self.memory_limit_bytes,
                    "peak_bytes": self.peak_memory_bytes,
                    "staged_bytes": self.staged_bytes,
                    "spill_count": self.spill_count,
                    "spilled_rows": self.spilled_rows,
                    "spilled_bytes": self.spilled_bytes,
                },
            }
            if self.trace_id is not None:
                snapshot["trace_id"] = self.trace_id
            consistency = (dict(self.consistency)
                           if self.consistency is not None else None)
        # The sub-reports carry their own locks; taking them outside ours
        # keeps the lock order flat (never nested the other way around).
        snapshot["resilience"] = self.resilience.snapshot()
        snapshot["optimizer"] = self.optimizer.snapshot()
        if consistency is not None:
            snapshot["consistency"] = consistency
        return snapshot


@dataclass
class EngineResult:
    """A query answer plus the plan and execution report that produced it."""

    relation: Relation
    plan: QueryPlan
    report: ExecutionReport


class _InFlightGauge:
    """Thread-safe high-water mark of concurrently running fetches."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._current = 0
        self.peak = 0

    def __enter__(self) -> "_InFlightGauge":
        with self._lock:
            self._current += 1
            if self._current > self.peak:
                self.peak = self._current
        return self

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._current -= 1


@dataclass
class _FetchOutcome:
    """The shared result of one distinct source round trip (or cache hit).

    ``frozen`` marks relations that are private copies (the source-result
    cache hands out a fresh copy per hit): their row lists can be staged by
    reference.  Relations straight from a wrapper may be live views of the
    source's table and must be copied once when staged.

    ``error`` is set — and ``relation`` is None — when the fetch failed for
    good (retries exhausted, permanent error, open breaker): a failed
    outcome is never banked into the source-result cache and never updates
    catalog estimates, whether it is consumed by a branch or discovered at
    ``close()`` time.
    """

    relation: Optional[Relation]
    request_text: str
    cache_hit: bool = False
    frozen: bool = False
    fetch_seconds: float = 0.0
    wait_seconds: float = 0.0
    error: Optional[BaseException] = None
    attempts: int = 1


#: Memoized combined error classes: original error type → context-rich type.
_REQUEST_ERROR_TYPES: Dict[type, type] = {}


def request_failed_error(request: SourceRequest,
                         error: BaseException) -> RequestFailedError:
    """The scheduler's terminal fetch error, with full request context.

    The returned error names the wrapper, the relation and the pushed SQL /
    FETCH text, *and* remains an instance of the original error's type
    (``RequestFailedError`` is mixed in as an additional base), so handlers
    catching e.g. :class:`~repro.errors.SourceUnavailableError` keep working
    while gaining the request context in the message.
    """
    message = (
        f"source request failed on wrapper {request.wrapper_name!r} "
        f"(relation {request.relation!r}, request: {request.request_text}): "
        f"{error}"
    )
    base = type(error)
    if issubclass(base, RequestFailedError):
        return base(message)
    combined = _REQUEST_ERROR_TYPES.get(base)
    if combined is None:
        try:
            combined = type(
                f"RequestFailed[{base.__name__}]", (RequestFailedError, base), {}
            )
            combined(message)  # probe: the base must accept a lone message
        except Exception:
            combined = RequestFailedError
        _REQUEST_ERROR_TYPES[base] = combined
    return combined(message)


def _reject_unknown_table(name: str, source: Optional[str]) -> Relation:
    raise ExecutionError(
        f"subqueries over catalog relations (found {name!r}) are not supported "
        "inside the finalization phase"
    )


#: Evaluates the uncorrelated subqueries of a branch's finalization; catalog
#: relations are out of its reach.
_SUBQUERY_PROCESSOR = QueryProcessor(_reject_unknown_table)


def _join(left: PhysicalOperator, right_relation: Relation, step: JoinStep,
          budget: Optional[MemoryBudget]) -> PhysicalOperator:
    """The physical operator of one planned join step.

    The planner marks a step ``hash_join`` only when it has oriented,
    type-checked ``equi_keys`` (intermediate side, staged side); they form
    the composite hash key and ``residual_conditions`` the rest.  A hash
    step without keys is a planner bug, not something to re-derive here.
    """
    right = TableScan(right_relation)
    if not step.hash_join:
        return NestedLoopJoin(left, right, conjoin(list(step.conditions)))
    if not step.equi_keys:
        raise ExecutionError(
            f"join step over request {step.request_index} is marked hash_join "
            "but carries no equi_keys"
        )
    return HashJoin(
        left, right,
        [pair[0] for pair in step.equi_keys],
        [pair[1] for pair in step.equi_keys],
        residual=conjoin(list(step.residual_conditions)),
        budget=budget,
    )


class ExecutionController:
    """Per-engine execution configuration: catalog, temporary storage,
    source-result cache, fetch-pool bound, request coalescing, operator
    memory budget and resilience policy.

    ``max_concurrent_requests`` bounds the fetch thread pool (1 = serial
    dispatch).  ``deduplicate=False`` disables request coalescing *and* the
    cache — every plan request costs its own round trip, for baselines and
    ablations.  :meth:`execute_stream` is the one way to run a plan.
    """

    def __init__(self, catalog: Catalog, temp_store: Optional[TemporaryStore] = None,
                 request_cache: Optional[SourceResultCache] = None,
                 max_concurrent_requests: int = DEFAULT_MAX_CONCURRENT_REQUESTS,
                 deduplicate: bool = True,
                 memory_budget_bytes: Optional[int] = None,
                 resilience: Optional[ResiliencePolicy] = None):
        self.catalog = catalog
        self.temp_store = temp_store or TemporaryStore("engine-temp")
        self.request_cache = request_cache
        self.max_concurrent_requests = max(1, int(max_concurrent_requests))
        self.deduplicate = deduplicate
        #: Per-statement operator memory budget (None = unbounded).  Sorts,
        #: distincts and hash-join build sides spill to temporary files
        #: rather than exceed it.
        self.memory_budget_bytes = memory_budget_bytes
        #: Retry policy, per-wrapper circuit breakers and source health —
        #: shared across this controller's statements so breaker state and
        #: health statistics persist between them.
        self.resilience = resilience if resilience is not None else ResiliencePolicy()

    def execute_stream(self, plan: QueryPlan, deadline: Optional[Deadline] = None,
                       on_source_error: str = "fail") -> "ResultStream":
        """Open a pull-based cursor over the plan's result.

        Source fetches are dispatched concurrently up front (or lazily, when
        the pool is bounded to one request), but branches are staged,
        joined and finalized only as the consumer pulls rows — closing the
        stream early cancels fetches that were never consumed and releases
        staged temporaries.  Every distinct fetch runs under the controller's
        resilience policy (retries, breakers) and the optional statement
        ``deadline``; ``on_source_error="partial"`` drops branches whose
        sources stay dead instead of failing the statement.
        """
        return ResultStream(self, plan, deadline=deadline,
                            on_source_error=validate_on_source_error(on_source_error))


def _close_iterator(iterator) -> None:
    """Close a suspended generator, tolerating a close that races a pull."""
    close = getattr(iterator, "close", None)
    if close is not None:
        try:
            close()
        except ValueError:
            # Closed concurrently with a pull (e.g. a registry eviction
            # racing a fetch): the consumer's own exit path releases.
            pass


class RowStream:
    """The consumer surface every result cursor shares.

    Iterate it, or drive it DB-API style with :meth:`fetchone` /
    :meth:`fetchmany` / :meth:`fetchall`; :meth:`to_relation` drains the
    remaining rows.  The stream closes itself on exhaustion and on a failed
    pull; close it explicitly (or use it as a context manager) when
    abandoning it early.  After :meth:`close` a fetch raises
    :class:`~repro.errors.ExecutionError` — except on an exhausted stream,
    which keeps answering "no more rows".  :meth:`on_close` callbacks run
    exactly once, with the report, when the stream closes.
    """

    def __init__(self, report: ExecutionReport, rows: Iterator[Row],
                 schema: Optional[Schema] = None):
        self.report = report
        self._rows = rows
        self._schema = schema
        self._closed = False
        self._exhausted = False
        self._close_callbacks: List[Callable[[ExecutionReport], None]] = []

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def exhausted(self) -> bool:
        return self._exhausted

    @property
    def closed(self) -> bool:
        return self._closed

    def __iter__(self) -> "RowStream":
        return self

    def __next__(self) -> Row:
        if self._exhausted:
            raise StopIteration
        if self._closed:
            raise ExecutionError("cannot fetch from a closed result stream")
        try:
            return next(self._rows)
        except StopIteration:
            self._exhausted = True
            self.close()
            raise
        except BaseException:
            # Mid-stream failure: release resources so a broken statement
            # never pins the scheduler.
            self.close()
            raise

    def fetchone(self) -> Optional[Row]:
        try:
            return next(self)
        except StopIteration:
            return None

    def fetchmany(self, size: int = 1) -> List[Row]:
        rows: List[Row] = []
        for _ in range(max(0, size)):
            row = self.fetchone()
            if row is None:
                break
            rows.append(row)
        return rows

    def fetchall(self) -> List[Row]:
        return list(self)

    def to_relation(self, name: Optional[str] = None) -> Relation:
        """Drain the remaining rows into a materialized relation."""
        rows = self.fetchall()
        relation = Relation(self.schema, name=name)
        relation.rows = rows
        return relation

    def on_close(self, callback: Callable[[ExecutionReport], None]) -> None:
        """Run ``callback(report)`` once, when the stream finishes or closes."""
        self._close_callbacks.append(callback)

    def close(self) -> None:
        """Finish the stream and release what it holds.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._release()
        callbacks, self._close_callbacks = self._close_callbacks, []
        for callback in callbacks:
            callback(self.report)

    def _release(self) -> None:
        _close_iterator(self._rows)

    def __enter__(self) -> "RowStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _relation_bytes(relation: Relation) -> int:
    """Sample-based byte estimate of a staged relation (accounting only)."""
    if not relation.rows:
        return 0
    return estimate_row_bytes(relation.rows[0]) * len(relation.rows)


def adaptive_timeout_error(wrapper_name: str, request_text: str,
                           adaptive_seconds: Optional[float]) -> SourceUnavailableError:
    """The transient source failure an adaptive-timeout expiry turns into."""
    bound = (
        f"{adaptive_seconds:.3f}s" if adaptive_seconds is not None else "its bound"
    )
    error = SourceUnavailableError(
        f"wrapper {wrapper_name!r} exceeded its adaptive fetch timeout of "
        f"{bound} (rolling p95 × headroom) awaiting {request_text}"
    )
    error.transient = True
    return error


class _SourceFailure(Exception):
    """Internal control flow: one distinct fetch failed for good.

    Carries the request key and its (error-bearing) outcome so the branch
    builder can either degrade the branch (``on_source_error="partial"``) or
    raise the context-rich terminal error (``"fail"``).
    """

    def __init__(self, key: RequestKey, outcome: _FetchOutcome):
        super().__init__(str(outcome.error))
        self.key = key
        self.outcome = outcome


class ResultStream(RowStream):
    """A pull-based cursor over one plan execution.

    Closing it (explicitly, on exhaustion or on a failed pull) cancels
    outstanding fetches and releases staged temporaries.  ``report`` is
    filled progressively and finalized (elapsed, peaks, temp-storage
    snapshot) when the stream closes.
    """

    def __init__(self, controller: ExecutionController, plan: QueryPlan,
                 deadline: Optional[Deadline] = None,
                 on_source_error: str = "fail"):
        if not plan.branches:
            raise ExecutionError(
                "cannot execute a plan with no branches: the planner produced "
                "an empty UNION (no SELECT branch to evaluate)"
            )
        super().__init__(ExecutionReport(), self._generate())
        self.controller = controller
        self.plan = plan
        self.budget = MemoryBudget(controller.memory_budget_bytes)
        self.report.memory_limit_bytes = controller.memory_budget_bytes or 0
        self._deadline = (
            deadline if deadline is not None
            else Deadline.unbounded(controller.resilience.clock)
        )
        self._partial = on_source_error == "partial"
        self.report.resilience.mode = on_source_error
        self.report.resilience.timeout_seconds = self._deadline.timeout_seconds

        #: The ambient (execute) span at construction time.  Fetch workers
        #: run on pool threads where the tracing contextvar is absent, so the
        #: parent is captured here and children are created explicitly —
        #: ``Span.child`` is thread-safe, and on the untraced path this is
        #: the no-op ``NULL_SPAN`` whose children cost nothing.
        self._parent_span = current_span()
        #: One "stream" child span covering the cursor's lifetime; finished
        #: (with the finalize counters) in :meth:`close`.
        self._span = self._parent_span.child("stream")

        self._started = time.perf_counter()
        self._first_branch: Optional[Tuple[Iterator[Row], Schema]] = None
        self._first_branch_index = 0
        self._staged_handles: List[str] = []
        #: Keys already staged at least once (drives dedup_hit bookkeeping).
        self._consumed_keys: set = set()
        #: Keys whose fetch result was consumed (cache put + estimate done).
        self._finalized_keys: set = set()
        self._gauge = _InFlightGauge()
        #: (JoinStep, OperatorStats) pairs whose observed cardinality feeds
        #: the adaptive optimizer when the stream drains to exhaustion.
        self._join_watchers: List[Tuple[object, OperatorStats]] = []

        optimizer = self.report.optimizer
        optimizer.feedback_epoch = getattr(plan, "feedback_epoch", 0)
        for branch in plan.branches:
            if not branch.requests:
                continue
            optimizer.join_orders.append(
                [branch.requests[branch.initial_request].binding]
                + [branch.requests[step.request_index].binding
                   for step in branch.join_steps]
            )
            for request in branch.requests:
                if request.estimate_source == "feedback":
                    optimizer.estimates_from_feedback += 1
                else:
                    optimizer.estimates_from_defaults += 1
            for step in branch.join_steps:
                if step.estimate_source == "feedback":
                    optimizer.estimates_from_feedback += 1
                else:
                    optimizer.estimates_from_defaults += 1

        # -- phase 1: dedup, cache-resolve, dispatch ---------------------------
        self._distinct: Dict[RequestKey, SourceRequest] = {}
        total_units = 0
        for branch_index, branch in enumerate(plan.branches):
            for request_index, request in enumerate(branch.requests):
                if request.bind is not None:
                    # A bound request has no final SQL until its driver's key
                    # set is known; the branch builder derives and schedules
                    # its per-batch requests when the driver is staged.
                    continue
                total_units += 1
                key = self._key(request, branch_index, request_index)
                if key not in self._distinct:
                    self._distinct[key] = request
        self.report.distinct_requests = len(self._distinct)
        self.report.dedup_hits = total_units - len(self._distinct)

        self._cache = controller.request_cache if controller.deduplicate else None
        self._outcomes: Dict[RequestKey, _FetchOutcome] = {}
        pending: List[RequestKey] = []
        for key, request in self._distinct.items():
            cached = self._cache.get(key) if self._cache is not None else None
            if cached is not None:
                self._outcomes[key] = _FetchOutcome(
                    relation=cached, request_text=request.request_text,
                    cache_hit=True, frozen=True,
                )
                self.report.cache_hits += 1
            else:
                pending.append(key)

        self._pool: Optional[ThreadPoolExecutor] = None
        self._futures: Dict[RequestKey, "Future[_FetchOutcome]"] = {}
        # A bounded statement must never block uninterruptibly inside a
        # wrapper call on the consumer's thread, so a deadline forces pool
        # dispatch even for a single pending fetch: the wait happens in
        # ``future.result(timeout=...)`` where the deadline can fire.
        dispatch = len(pending) > 1 or (bool(pending) and self._deadline.bounded)
        if controller.max_concurrent_requests > 1 and dispatch:
            pending = self._dispatch_order(pending)
            workers = min(controller.max_concurrent_requests, len(pending))
            self._pool = ThreadPoolExecutor(max_workers=workers,
                                            thread_name_prefix="source-fetch")
            queued_at = time.perf_counter()
            for key in pending:
                self._futures[key] = self._pool.submit(self._fetch, key, queued_at)
        # else: remaining fetches happen lazily, serially, on first staging —
        # branches a satisfied LIMIT never reaches cost no round trip at all.

    # -- fetching ------------------------------------------------------------------

    def _key(self, request: SourceRequest, branch_index: int,
             request_index) -> RequestKey:
        if self.controller.deduplicate:
            return request_key(request)
        # Baseline mode: make every plan request its own round trip.
        return RequestKey(
            wrapper=request.wrapper_name.lower(),
            relation=request.relation.lower(),
            text=f"{request.request_text} #branch{branch_index}.{request_index}",
        )

    def _dispatch_order(self, pending: List[RequestKey]) -> List[RequestKey]:
        """Order pool submissions so the expected-slowest fetch starts first.

        With more pending fetches than pool workers, plan order can leave the
        statement's long pole queued behind quick lookups; its latency then
        adds to the tail instead of overlapping it.  The catalog's per-wrapper
        EWMA latency profiles (request overhead + per-row transfer, mature
        after three observations) give an expected wall-clock cost per fetch;
        submitting in descending cost keeps the critical path at the front of
        the pool.  Wrappers without a mature profile cost 0.0 and keep plan
        order behind the profiled ones.
        """
        feedback = getattr(self.controller.catalog, "feedback", None)
        expected: Dict[RequestKey, float] = {}
        profiled = False
        for key in pending:
            request = self._distinct[key]
            cost = 0.0
            profile = (feedback.source_profile(request.wrapper_name)
                       if feedback is not None else None)
            if profile is not None:
                profiled = True
                rows = max(int(request.estimated_result_rows or 0), 1)
                cost = profile.request_seconds + profile.seconds_per_row * rows
            expected[key] = cost
        if profiled:
            indexed = sorted(range(len(pending)),
                             key=lambda i: (-expected[pending[i]], i))
            pending = [pending[i] for i in indexed]
            self.report.dispatch_policy = "latency"
        self.report.dispatch_order = [
            self._distinct[key].binding for key in pending
        ]
        return pending

    def _fetch(self, key: RequestKey, queued_at: float) -> _FetchOutcome:
        """One guarded round trip: retries, breaker and deadline applied.

        Never raises: a fetch that fails for good returns an outcome whose
        ``error`` is set (and whose relation is None), so pool futures always
        resolve and ``close()``-time banking can check the fetch outcome.
        """
        request = self._distinct[key]
        wrapper = self.controller.catalog.wrappers.get(request.wrapper_name)

        def attempt():
            if request.sql is not None:
                return wrapper.query(request.sql)
            return wrapper.fetch(request.relation)

        # Explicit parentage: this may run on a pool thread, where the
        # tracing contextvar does not propagate.  The span is finished on
        # every path out, so a fetch that completes never leaks an open span.
        fetch_span = self._parent_span.child(
            "fetch", wrapper=request.wrapper_name, binding=request.binding,
            request=request.request_text,
        )
        with self._gauge:
            fetch_started = time.perf_counter()
            try:
                fetched, attempts = self.controller.resilience.run_fetch(
                    wrapper_name=request.wrapper_name,
                    request_text=request.request_text,
                    fetch=attempt,
                    deadline=self._deadline,
                    stats=self.report.resilience,
                    source_statistics=getattr(wrapper, "source_statistics", None),
                    span=fetch_span if fetch_span.recording else None,
                )
            except Exception as error:
                fetch_span.finish(error=error)
                return _FetchOutcome(
                    relation=None,
                    request_text=request.request_text,
                    fetch_seconds=time.perf_counter() - fetch_started,
                    wait_seconds=fetch_started - queued_at,
                    error=error,
                )
            fetch_elapsed = time.perf_counter() - fetch_started
        fetch_span.annotate(rows=len(fetched), attempts=attempts)
        fetch_span.finish()
        return _FetchOutcome(
            relation=fetched,
            request_text=request.request_text,
            fetch_seconds=fetch_elapsed,
            wait_seconds=fetch_started - queued_at,
            attempts=attempts,
        )

    def _outcome(self, key: RequestKey) -> _FetchOutcome:
        """The fetch result for ``key``, awaiting or issuing it if needed.

        Raises :class:`DeadlineExceededError` when the statement deadline
        fires first (in the wait, or inside the fetch's retry loop), and
        :class:`_SourceFailure` when the fetch failed for good — the branch
        builder turns the latter into degradation or a terminal error.
        """
        outcome = self._outcomes.get(key)
        if outcome is None:
            future = self._futures.get(key)
            if future is not None:
                request = self._distinct[key]
                wait = self._deadline.remaining()
                # A wrapper with an earned latency profile gets its own wait
                # bound (p95 × headroom): a habitually-fast source that
                # suddenly stalls is cut loose long before the statement
                # deadline instead of consuming all of it.
                adaptive = None
                if self._deadline.bounded:
                    adaptive = self.controller.resilience.adaptive_fetch_timeout(
                        request.wrapper_name
                    )
                    if adaptive is not None:
                        wait = adaptive if wait is None else min(wait, adaptive)
                try:
                    outcome = future.result(timeout=wait)
                except FutureTimeoutError:
                    remaining = self._deadline.remaining()
                    if remaining is not None and remaining <= 0:
                        raise DeadlineExceededError(
                            f"statement deadline of "
                            f"{self._deadline.timeout_seconds}s exceeded awaiting "
                            f"{request.request_text} from wrapper "
                            f"{request.wrapper_name!r}"
                        ) from None
                    # The adaptive bound fired with deadline budget left: a
                    # *source* failure (transient — the wrapper may recover),
                    # so partial mode can degrade the branch instead of
                    # killing the statement.
                    error = adaptive_timeout_error(
                        request.wrapper_name, request.request_text, adaptive
                    )
                    outcome = _FetchOutcome(
                        relation=None,
                        request_text=request.request_text,
                        error=error,
                    )
            else:
                request = self._distinct[key]
                self._deadline.check(
                    f"fetching {request.request_text} from wrapper "
                    f"{request.wrapper_name!r}"
                )
                outcome = self._fetch(key, time.perf_counter())
            self._outcomes[key] = outcome
        self._consume_outcome(key, outcome)
        if outcome.error is not None:
            if isinstance(outcome.error, DeadlineExceededError):
                # A deadline expiry is a statement-level failure, never a
                # degradable source failure.
                raise outcome.error
            raise _SourceFailure(key, outcome)
        return outcome

    def _consume_outcome(self, key: RequestKey, outcome: _FetchOutcome) -> None:
        """One-time bookkeeping per distinct fetch: cache put + feedback.

        A failed fetch is finalized without banking: neither the cache, the
        catalog estimates nor the cardinality feedback may ever see a
        poisoned (failed or partially fetched) result, whether the failure is
        consumed by a branch or discovered while closing.  Limited requests
        (pushed LIMIT) and bind-join batches ship deliberately truncated row
        sets, so they feed the source latency profile but never cardinality.
        """
        if key in self._finalized_keys:
            return
        self._finalized_keys.add(key)
        if outcome.error is not None:
            return
        request = self._distinct[key]
        if self._cache is not None and not outcome.cache_hit:
            self._cache.put(key, outcome.relation)
        feedback = getattr(self.controller.catalog, "feedback", None)
        if feedback is not None and not outcome.cache_hit:
            feedback.record_source(
                request.wrapper_name, outcome.fetch_seconds, len(outcome.relation)
            )
        if request.bind_batch:
            return
        if request.sql is not None and request.sql.limit is not None:
            return
        observed = len(outcome.relation)
        # Keep estimates honest for subsequent planning rounds — once per
        # distinct request, so branch fan-out does not skew the estimate.
        # Only an *unfiltered* fetch reflects the relation's base
        # cardinality; filtered counts go to the feedback store instead,
        # keyed by their predicate fingerprint.
        if not request.pushed_conjuncts:
            self.controller.catalog.update_estimate(
                request.relation, max(observed, 1)
            )
        if feedback is not None:
            planned = (request.estimated_result_rows
                       if request.estimated_result_rows > 0 else None)
            feedback.record_request(
                request.relation, request.predicate_fingerprint,
                observed, planned_rows=planned,
            )

    # -- staging -------------------------------------------------------------------

    def _stage(self, request: SourceRequest, branch_index: int,
               outcome: _FetchOutcome, first_use: bool) -> Tuple[Relation, str]:
        """Qualify, locally filter, and stage one shared fetch result.

        Returns the staged relation and its temporary-store handle (dropped
        when the stream closes).  Staging copies rows at most once: a
        filtered result is materialized by the filter itself, an unfiltered
        fetch is copied once (wrappers may return live views of their
        tables), and a frozen cache copy is staged purely by reference.
        """
        started = time.perf_counter()
        fetched = outcome.relation
        temp_store = self.controller.temp_store

        qualified = fetched.with_qualifier(request.binding)
        if request.local_filters:
            filtered = Filter(TableScan(qualified), conjoin(list(request.local_filters)))
            staged_relation = filtered.to_relation(name=f"{request.binding}_staged")
        else:
            staged_relation = Relation(qualified.schema, name=f"{request.binding}_staged")
            staged_relation.rows = qualified.rows if outcome.frozen else list(qualified.rows)

        handle = temp_store.materialize(
            staged_relation, label=f"{request.binding}_stage", copy=False
        )
        staged = temp_store.read(handle)

        staging_elapsed = time.perf_counter() - started
        self.report.record_request(RequestExecution(
            binding=request.binding,
            wrapper_name=request.wrapper_name,
            request=outcome.request_text,
            rows_returned=len(fetched),
            rows_after_local_filters=len(staged),
            elapsed_seconds=staging_elapsed + (outcome.fetch_seconds if first_use else 0.0),
            branch=branch_index,
            dedup_hit=not first_use,
            cache_hit=outcome.cache_hit and first_use,
            wait_seconds=outcome.wait_seconds if first_use else 0.0,
            # Only the first-use entry carries the shared round trip's time,
            # so summing fetch_seconds over a report never double-counts it.
            fetch_seconds=outcome.fetch_seconds if first_use else 0.0,
        ))
        return staged, handle

    # -- bind joins ----------------------------------------------------------------

    @staticmethod
    def _bind_depth(branch: BranchPlan, index: int) -> int:
        """Length of the bind chain above request ``index`` (drivers first)."""
        depth, current = 0, branch.requests[index].bind
        while current is not None and depth <= len(branch.requests):
            depth += 1
            current = branch.requests[current.driver_index].bind
        return depth

    def _empty_bound_relation(self, request: SourceRequest) -> Relation:
        """The empty result of a bound fetch whose driver produced no keys."""
        base = self.controller.catalog.schema_of(request.relation)
        if request.projected_columns:
            attributes = [base.attribute(name) for name in request.projected_columns]
        else:
            attributes = list(base.attributes)
        return Relation(Schema(attributes), name=f"{request.binding}_bound")

    def _stage_bound(self, branch_index: int, index: int, request: SourceRequest,
                     staged: Dict[int, Relation]) -> Tuple[Relation, str]:
        """Fetch and stage one bound request: ship the driver's key set.

        The driver's staged rows yield the distinct non-NULL values of each
        key column; the first column's values are chunked into ``batch_size``
        ``IN`` lists (the other columns ship their full lists in every batch,
        so batches stay disjoint and their union is the same superset).  Each
        batch flows through the scheduler's regular dedup/cache/pool path —
        a repeated statement with an unchanged key set is answered from the
        source-result cache without any round trip.
        """
        report = self.report
        optimizer = report.optimizer
        spec = request.bind
        driver = staged.get(spec.driver_index)
        if driver is None:
            raise ExecutionError(
                f"bind join for {request.binding!r} references driver request "
                f"{spec.driver_index}, which is not staged"
            )
        with report.lock:
            optimizer.bind_joins += 1

        column_values: List[List[object]] = []
        for driver_column in spec.driver_columns:
            position = driver.schema.index_of(driver_column, spec.driver_binding)
            values = {row[position] for row in driver.rows if row[position] is not None}
            # Sorted for a deterministic (and therefore cacheable) SQL text.
            column_values.append(sorted(values, key=value_sort_key))

        if not driver.rows or any(not values for values in column_values):
            # No keys: the equi join upstream cannot match anything, so the
            # round trip is skipped entirely.
            with report.lock:
                optimizer.bind_empty_key_skips += 1
                optimizer.bind_rows_avoided += spec.estimated_unbound_rows
            outcome = _FetchOutcome(
                relation=self._empty_bound_relation(request),
                request_text=f"{request.request_text} /* bind: empty key set */",
                frozen=True,
            )
            return self._stage(request, branch_index, outcome, first_use=True)

        qualifier_table = request.sql.tables[0]
        qualifier = qualifier_table.alias or qualifier_table.name
        batch_size = max(1, spec.batch_size)
        first_values = column_values[0]
        chunks = [first_values[start:start + batch_size]
                  for start in range(0, len(first_values), batch_size)]

        batch_keys: List[RequestKey] = []
        keys_shipped = 0
        for batch_number, chunk in enumerate(chunks):
            conjuncts: List[object] = []
            if request.sql.where is not None:
                conjuncts.append(request.sql.where)
            conjuncts.append(InList(
                expr=ColumnRef(name=spec.bound_columns[0], table=qualifier),
                items=tuple(Literal(value) for value in chunk),
            ))
            keys_shipped += len(chunk)
            for bound_column, values in zip(spec.bound_columns[1:], column_values[1:]):
                conjuncts.append(InList(
                    expr=ColumnRef(name=bound_column, table=qualifier),
                    items=tuple(Literal(value) for value in values),
                ))
                keys_shipped += len(values)
            batch_sql = replace(request.sql, where=conjoin(conjuncts))
            batch_request = replace(request, sql=batch_sql, bind=None, bind_batch=True)
            key = self._key(
                batch_request, branch_index, f"{index}.{batch_number}"
            )
            if key in self._distinct:
                with report.lock:
                    report.dedup_hits += 1
            else:
                self._distinct[key] = batch_request
                with report.lock:
                    report.distinct_requests += 1
                cached = self._cache.get(key) if self._cache is not None else None
                if cached is not None:
                    self._outcomes[key] = _FetchOutcome(
                        relation=cached, request_text=batch_request.request_text,
                        cache_hit=True, frozen=True,
                    )
                    with report.lock:
                        report.cache_hits += 1
                elif self._pool is not None:
                    self._futures[key] = self._pool.submit(
                        self._fetch, key, time.perf_counter()
                    )
            batch_keys.append(key)

        combined_rows: List[Row] = []
        schema: Optional[Schema] = None
        fetch_seconds = 0.0
        wait_seconds = 0.0
        all_cache_hits = True
        any_first = False
        for key in batch_keys:
            outcome = self._outcome(key)
            if key not in self._consumed_keys:
                any_first = True
                fetch_seconds += outcome.fetch_seconds
                wait_seconds += outcome.wait_seconds
            self._consumed_keys.add(key)
            all_cache_hits = all_cache_hits and outcome.cache_hit
            if schema is None:
                schema = outcome.relation.schema
            combined_rows.extend(outcome.relation.rows)

        avoided = max(0, spec.estimated_unbound_rows - len(combined_rows))
        with report.lock:
            optimizer.bind_batches += len(batch_keys)
            optimizer.bind_keys_shipped += keys_shipped
            optimizer.bind_rows_fetched += len(combined_rows)
            optimizer.bind_rows_avoided += avoided
            if combined_rows and avoided:
                optimizer.bind_bytes_saved += (
                    estimate_row_bytes(combined_rows[0]) * avoided
                )

        combined = Relation(schema, name=f"{request.binding}_bound")
        combined.rows = combined_rows
        total_keys = sum(len(values) for values in column_values)
        outcome = _FetchOutcome(
            relation=combined,
            request_text=(f"{request.request_text} /* bind {len(batch_keys)} "
                          f"batch(es), {total_keys} key(s) */"),
            cache_hit=all_cache_hits,
            frozen=True,
            fetch_seconds=fetch_seconds,
            wait_seconds=wait_seconds,
        )
        return self._stage(request, branch_index, outcome, first_use=any_first)

    # -- branch pipelines ----------------------------------------------------------

    def _build_branch(self, branch_index: int) -> Optional[Tuple[Iterator[Row], Schema]]:
        """Stage one branch's inputs and build its (streaming) pipeline.

        Returns None when the branch was degraded: one of its sources failed
        for good and the stream runs under ``on_source_error="partial"`` —
        the drop is recorded in the report's resilience block.  In ``"fail"``
        mode the same failure raises the context-rich terminal error.
        """
        branch: BranchPlan = self.plan.branches[branch_index]
        report = self.report

        staged: Dict[int, Relation] = {}
        # Bound requests derive their batched IN-list SQL from their driver's
        # staged rows, so they stage after every unbound request, ordered by
        # bind-chain depth (a driver may itself be bound).
        unbound = [(index, request) for index, request in enumerate(branch.requests)
                   if request.bind is None]
        bound = [(index, request) for index, request in enumerate(branch.requests)
                 if request.bind is not None]
        bound.sort(key=lambda pair: self._bind_depth(branch, pair[0]))
        for index, request in unbound + bound:
            try:
                if request.bind is None:
                    key = self._key(request, branch_index, index)
                    outcome = self._outcome(key)
                    relation, handle = self._stage(
                        request, branch_index, outcome,
                        first_use=key not in self._consumed_keys,
                    )
                    self._consumed_keys.add(key)
                else:
                    relation, handle = self._stage_bound(
                        branch_index, index, request, staged
                    )
            except _SourceFailure as failure:
                failed_request = self._distinct[failure.key]
                if self._partial:
                    report.resilience.record_degraded(
                        branch_index,
                        failed_request.wrapper_name,
                        failed_request.request_text,
                        failure.outcome.error,
                    )
                    # Degraded answers are always kept by the trace sampler.
                    self._span.flag("partial")
                    self._span.event(
                        "branch_degraded", branch=branch_index,
                        wrapper=failed_request.wrapper_name,
                    )
                    return None
                raise request_failed_error(
                    failed_request, failure.outcome.error
                ) from failure.outcome.error
            self._staged_handles.append(handle)
            with report.lock:
                report.staged_bytes += _relation_bytes(relation)
            staged[index] = relation

        def instrument(operator: PhysicalOperator) -> PhysicalOperator:
            stats = OperatorStats(
                branch=branch_index,
                operator=operator.operator_name,
                detail=operator._explain_details(),
            )
            with report.lock:
                report.operator_stats.append(stats)
            return _InstrumentedOperator(operator, stats)

        pipeline: PhysicalOperator = instrument(TableScan(staged[branch.initial_request]))
        unlimited = branch.select.limit is None and branch.fetch_limit is None
        for step in branch.join_steps:
            operator = instrument(
                _join(pipeline, staged[step.request_index], step, self.budget)
            )
            # An unlimited branch drains its joins completely, so the
            # instrumented row count is the true intermediate cardinality —
            # recorded into the feedback store when the stream exhausts.
            if step.feedback_key and unlimited:
                self._join_watchers.append((step, operator.stats))
            pipeline = operator
        if branch.post_join_conditions:
            pipeline = instrument(
                Filter(pipeline, conjoin(list(branch.post_join_conditions)))
            )

        operator = build_finalization(
            branch.select, pipeline,
            _SUBQUERY_PROCESSOR.subquery_executor(pipeline.schema),
            budget=self.budget, top_k=branch.fetch_limit, instrument=instrument,
        )
        return iter(operator), operator.schema

    def _ensure_first_branch(self) -> None:
        """Build the first *surviving* branch (partial mode skips dead ones)."""
        if self._first_branch is not None:
            return
        for branch_index in range(len(self.plan.branches)):
            built = self._build_branch(branch_index)
            if built is not None:
                self._first_branch = built
                self._first_branch_index = branch_index
                self._schema = built[1]
                return
        raise ExecutionError(
            f"all {len(self.plan.branches)} branches were degraded by source "
            "failures; no surviving branch can answer the statement "
            "(on_source_error='partial' requires at least one live source)"
        )

    # -- row production --------------------------------------------------------------

    def _generate(self) -> Iterator[Row]:
        deadline = self._deadline
        if deadline.bounded:
            deadline.check("streaming rows to the consumer")
        self._ensure_first_branch()
        rows_iter, _schema = self._first_branch
        base_arity = len(self._schema)
        union_distinct = len(self.plan.branches) > 1 and not self.plan.union_all
        seen = set() if union_distinct else None
        report = self.report
        first_row = True

        for branch_index in range(self._first_branch_index, len(self.plan.branches)):
            if branch_index > self._first_branch_index:
                built = self._build_branch(branch_index)
                if built is None:
                    continue  # degraded mid-stream: the answer flows on
                rows_iter, branch_schema = built
                if len(branch_schema) != base_arity:
                    raise SchemaError("UNION requires relations of the same arity")
            branch_count = 0
            for row in rows_iter:
                branch_count += 1
                if seen is not None:
                    key = tuple(row)
                    if key in seen:
                        continue
                    seen.add(key)
                with report.lock:
                    if first_row:
                        first_row = False
                        report.first_row_seconds = time.perf_counter() - self._started
                    report.rows_streamed += 1
                yield row
                # The consumer asked for the next row: it pays the deadline.
                if deadline.bounded:
                    deadline.check("streaming rows to the consumer")
            with report.lock:
                report.branch_rows.append(branch_count)

    @property
    def schema(self) -> Schema:
        """The result schema (stages the first branch's inputs if needed)."""
        self._ensure_first_branch()
        return self._schema

    # -- lifecycle ----------------------------------------------------------------------

    def _release(self) -> None:
        """Cancel what was never consumed, free resources, finish the report.

        Outstanding fetches that already completed are banked (cached,
        estimates updated) since their round trip was paid; queued ones are
        cancelled and counted in ``report.cancelled_fetches``.
        """
        cancelled = 0
        for key, future in self._futures.items():
            if key in self._finalized_keys:
                continue
            if future.cancel():
                cancelled += 1
            elif future.done():
                try:
                    outcome = future.result()
                except BaseException:
                    continue  # defensive: _fetch returns error outcomes
                self._outcomes[key] = outcome
                # Banking checks the fetch outcome: a completed-but-failed
                # fetch is finalized without touching cache or estimates.
                self._consume_outcome(key, outcome)
        if self._pool is not None:
            self._pool.shutdown(wait=False)

        # Close the row generator (and the first branch's operator pipeline,
        # which it references) *explicitly*: suspended Sort/Distinct/HashJoin
        # generators release their memory-budget reservations in ``finally``
        # blocks, and leaving that to garbage collection makes the budget
        # accounting below — and the "drained after close" invariant the
        # server's registries rely on — nondeterministic.
        _close_iterator(self._rows)
        if self._first_branch is not None:
            _close_iterator(self._first_branch[0])

        # A fully drained stream pulled every join to completion, so the
        # instrumented row counts are true intermediate cardinalities; an
        # abandoned stream's partial counts must never reach the optimizer.
        if self._exhausted and self._join_watchers:
            feedback = getattr(self.controller.catalog, "feedback", None)
            if feedback is not None:
                for step, stats in self._join_watchers:
                    planned = (step.estimated_rows
                               if step.estimated_rows > 0 else None)
                    feedback.record_join(
                        step.feedback_key, stats.rows_out, planned_rows=planned
                    )

        self.report.resilience.deadline_remaining_seconds = self._deadline.remaining()
        # Snapshot the helpers before taking the report lock so it never
        # nests inside (or around) theirs.
        temp_storage = self.controller.temp_store.statistics.snapshot()
        memory = self.budget.snapshot()
        report = self.report
        with report.lock:
            report.cancelled_fetches += cancelled
            report.max_in_flight = self._gauge.peak
            report.result_rows = report.rows_streamed
            report.elapsed_seconds = time.perf_counter() - self._started
            report.temp_storage = temp_storage
            report.peak_memory_bytes = memory["peak_bytes"]
            report.spill_count = memory["spill_count"]
            report.spilled_rows = memory["spilled_rows"]
            report.spilled_bytes = memory["spilled_bytes"]

        self._span.annotate(
            rows_streamed=report.rows_streamed,
            cancelled_fetches=report.cancelled_fetches,
            spill_count=report.spill_count,
            exhausted=self._exhausted,
        )
        self._span.finish()

        for handle in self._staged_handles:
            self.controller.temp_store.drop(handle)
        self._staged_handles = []

    def __del__(self):  # pragma: no cover - safety net for abandoned streams
        try:
            self.close()
        except Exception:
            pass
