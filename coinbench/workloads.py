"""The four workloads: set-up, measured loop, oracle checks and validity checks.

Each workload drives the unchanged ``repro`` package only through public
entry points: ``Federation.query`` (materialized, or streamed and pulled with
``FederationCursor.fetchmany``), ``AsyncMediationServer`` with
``odbc.connect(transport="native")`` connections, ``MemorySQLSource.load_sql``
plus ``Federation.invalidate_source_cache`` for writes, and
``Federation.statistics()`` for counters.

=============  ===========  =====================================================
workload       loop         why
=============  ===========  =====================================================
warm_repeat    closed, 1    32 repeated statements, far below the 128-entry plan
                            cache: no mediation, planning or source round trip
                            after warm-up; time goes to operator build/run.
adhoc_mediate  closed, 1    every statement distinct: parse, mediation and
                            planning on the blocking path; caches never hit.
bulk_stream    closed, 1    4 × 20,000-company sources, streamed cursors; every
                            4th read follows a write that invalidates its source.
served_mixed   open, 2      AsyncMediationServer + 2 pooled native connections at
                            three fixed offered rates; 85% warm / 10% ad-hoc /
                            5% writes.
=============  ===========  =====================================================
"""

from __future__ import annotations

import gc
import itertools
import random
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import fixtures as fx
from gen import ADHOC_CYCLE, Generator, Statement, bulk_reads
from measure import HostSpeed, median, quantile
from oracle import Oracle, rows_match
from spans import Recorder, summarize

#: Rounds of write-then-read freshness probes spread over the closed loop of
#: the workloads whose loop has no writes (``post_write_p50_ms``).  One
#: round probes every warm-pool statement, or one ad-hoc template cycle.
PROBE_ROUNDS = 8
#: Rows per ``fetchmany`` on streamed cursors.
STREAM_BATCH = 1000
#: ``served_mixed`` offered rates (statements/s), fixed once from the
#: program's capacity on the reference host when the benchmark was defined
#: (the mix saturates between 160 and 200/s), and the p99 latency limit
#: ``sustainable_rate`` is judged against.
SERVED_RATES = (30.0, 60.0, 90.0)
SERVED_P99_LIMIT_MS = 50.0
#: Each rate phase runs as slices separated by quiet gaps, where the host
#: speed is sampled without competing with the clients for the interpreter.
SERVED_SLICES_PER_PHASE = 4
SERVED_GAP_SECONDS = 0.25
SERVED_CYCLE = ("warm",) * 17 + ("adhoc",) * 2 + ("write",)


@dataclass(slots=True)
class Read:
    """One answered (or failed) read, as the client saw it."""

    statement: Statement
    latency: float
    first_row: float
    rows: int
    status: str  # ok | known | wrong | error
    #: When the read was submitted (open loop: due), on the perf counter.
    at: float = 0.0
    post_write: bool = False
    probe: bool = False
    traced: bool = False


@dataclass
class Book:
    """Outcome accounting for one run."""

    reads: List[Read] = field(default_factory=list)
    writes: int = 0
    write_errors: int = 0
    untraced: List[float] = field(default_factory=list)
    traced: List[float] = field(default_factory=list)
    invalid: List[str] = field(default_factory=list)

    def add(self, read: Read, traced: Optional[bool] = None) -> None:
        self.reads.append(read)
        if traced is not None:
            read.traced = traced
            (self.traced if traced else self.untraced).append(read.latency)

    def count(self, *statuses: str) -> int:
        return sum(1 for read in self.reads if read.status in statuses)

    @property
    def attempted(self) -> int:
        return len(self.reads) + self.writes

    @property
    def failed(self) -> int:
        return self.count("known", "wrong", "error") + self.write_errors


class Checker:
    """Compares answers with the oracle; prints every mismatch with its statement."""

    def __init__(self, dataset: fx.Dataset):
        self.oracle = Oracle(dataset)

    def status(self, statement: Statement, rows: Sequence[tuple],
               versions: Sequence[int]) -> str:
        for version in versions:
            if rows_match(rows, self.oracle.expected(statement, version), statement.ordered):
                return "ok"
        expected = self.oracle.expected(statement, versions[-1])
        known = statement.multi_branch_clause
        label = "KNOWN-DEFECT mismatch" if known else "MISMATCH"
        print(f"{label} [{statement.context}] {statement.sql}\n"
              f"    got {len(rows)} rows {list(rows)[:4]}\n"
              f"    expected {len(expected)} rows {list(expected)[:4]}", file=sys.stderr)
        return "known" if known else "wrong"


class Workload:
    """Base: set up several times, measure, check, validate."""

    name = ""
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats = 5

    def __init__(self, seed: int, seconds: float, trace: bool):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.recorder = Recorder() if trace else None
        self.book = Book()
        self.host = HostSpeed()
        #: Set-up times as measured, and scaled to the reference host.
        self.setup_raw: List[float] = []
        self.setup_times: List[float] = []
        self.stats_before: Dict = {}
        self.stats_after: Dict = {}
        #: Workload-specific figures for the run record and per-layer metrics.
        self.extra: Dict[str, object] = {}

    # -- run -------------------------------------------------------------------

    def run(self) -> None:
        state = None
        for _ in range(self.setup_repeats):
            if state is not None:
                self.teardown(state, final=False)
                state = None
                gc.collect()
            self.host.tick(3)
            started = time.perf_counter()
            state = self.setup()
            self.setup_raw.append(time.perf_counter() - started)
            self.setup_times.append(self.setup_raw[-1] * self.host.factor(started))
        if self.trace:
            self.instrument(state)
        self.stats_before = self.federation(state).statistics()
        # Objects that exist before the measured loop (the federations, the
        # oracle's data, discarded set-ups) are moved out of the cyclic
        # collector's reach, so its pauses scale with the loop's own work.
        gc.collect()
        gc.freeze()
        self.measure(state)
        self.stats_after = self.federation(state).statistics()
        self.teardown(state, final=True)

    def federation(self, state):
        return state["dataset"].federation

    def teardown(self, state, final: bool) -> None:
        temp = len(self.federation(state).engine.controller.temp_store.handles)
        if final and temp:
            self.book.invalid.append(f"{temp} temp-store handles left open")

    # -- tracing ---------------------------------------------------------------

    def instrument(self, state) -> None:
        """Wrap the public layer methods of this run's instances."""
        rec, fed = self.recorder, self.federation(state)
        rec.wrap(fed, "query", "federation.query")
        rec.wrap(fed.pipeline, "prepare", "pipeline.prepare")
        rec.wrap(fed.mediator, "_as_select", "sql.parse")
        rec.wrap(fed.mediator, "mediate", "mediation.mediate",
                 annotate=lambda result: {"branches": result.branch_count})
        rec.wrap(fed.engine, "plan_branches", "engine.plan_branches")
        rec.wrap(fed.engine, "execute", "engine.execute")
        rec.wrap(fed.engine, "execute_stream", "engine.execute_stream")
        rec.wrap(fed.transformer, "annotate", "answers.annotate")
        registry = fed.engine.catalog.wrappers
        for name in registry.names:
            wrapper = registry.get(name)
            rec.wrap(wrapper, "fetch", "wrapper.fetch")
            rec.wrap(wrapper, "query", "wrapper.query")

    # -- in-process reads ---------------------------------------------------------

    def read(self, state, statement: Statement, stream: bool = False,
             traced: bool = False) -> Tuple[Read, list]:
        fed = self.federation(state)
        rec = self.recorder
        root = rec.begin("stmt", key=statement.sql) if traced else None
        rows: list = []
        first = None
        started = time.perf_counter()
        try:
            if stream:
                cursor = fed.query(statement.sql, receiver_context=statement.context, stream=True)
                if traced:
                    rec.wrap(cursor, "fetchmany", "cursor.fetchmany")
                try:
                    while True:
                        batch = cursor.fetchmany(STREAM_BATCH)
                        if first is None:
                            first = time.perf_counter()
                        if not batch:
                            break
                        rows.extend(batch)
                finally:
                    cursor.close()
                state["budget_left"] = state.get("budget_left", 0) + cursor.stream.budget.used_bytes
            else:
                rows = fed.query(statement.sql, receiver_context=statement.context).relation.rows
            status = "pending"
        except Exception as exc:  # a failed statement is counted, not fatal
            print(f"ERROR [{statement.context}] {statement.sql}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            status = "error"
        ended = time.perf_counter()
        if root is not None:
            rec.end(root)
        first = first if first is not None else ended
        return Read(statement, ended - started, first - started, len(rows), status,
                    at=started), rows

    def closed_loop(self, state, next_statement: Callable[[], Statement],
                    checker: Checker, seconds: float, cycle: int, first: int = 0,
                    stream: bool = False, tick_every: Optional[int] = None,
                    before: Optional[Callable[[int, Statement], bool]] = None) -> int:
        """Run whole template cycles back to back for about ``seconds``.

        Statements are numbered from ``first``; returns the next number.  The
        host is ticked every ``tick_every`` statements (default: every
        cycle).  ``before(index, statement)`` may perform a write and returns
        True when it did, marking the read as the first after a write.  A
        traced run records spans for every other cycle, so
        ``obs.trace_overhead_ratio`` compares traced and untraced statements
        of the same mix within one process.
        """
        dataset = state["dataset"]
        started = time.perf_counter()
        for index in itertools.count(first):
            if index % cycle == 0 and time.perf_counter() - started >= seconds:
                return index
            if index % (tick_every or cycle) == 0:
                self.host.tick()
            statement = next_statement()
            wrote = before(index, statement) if before is not None else False
            traced = self.trace and (index // cycle) % 2 == 1
            if self.trace:
                self.recorder.on = traced
            read, rows = self.read(state, statement, stream=stream, traced=traced)
            if self.trace:
                self.recorder.on = False
            read.post_write = wrote
            if read.status == "pending":
                read.status = checker.status(statement, rows, [dataset.version])
            self.book.add(read, traced if self.trace else None)

    def freshness_probes(self, state, statements: Sequence[Statement], checker: Checker,
                         rng: random.Random) -> None:
        """Write to a source, then time the first read of it (``post_write``).

        Answers are checked after the last probe, so the oracle's work for
        each new data version does not interleave with the timed reads.
        """
        dataset = state["dataset"]
        answered = []
        self.host.tick()
        for statement in statements:
            # One row per probe keeps the sources' size (and so the loop's
            # cost) flat over the run's 8 rounds.
            self.write(dataset, statement.relations[0], rng, count=1)
            read, rows = self.read(state, statement)
            read.post_write = read.probe = True
            answered.append((read, rows, dataset.version))
        for read, rows, version in answered:
            if read.status == "pending":
                read.status = checker.status(read.statement, rows, [version])
            self.book.add(read)

    def write(self, dataset: fx.Dataset, relation: str, rng: random.Random,
              count: int = 10) -> None:
        try:
            fx.append_rows(dataset, relation, rng, count)
        except Exception as exc:
            print(f"ERROR write to {relation}: {type(exc).__name__}: {exc}", file=sys.stderr)
            self.book.write_errors += 1
        self.book.writes += 1


class WarmRepeat(Workload):
    name = "warm_repeat"

    def setup(self):
        dataset = fx.build_main(self.seed)
        checker = Checker(dataset)
        rng = random.Random(self.seed)
        pool = Generator(dataset, checker.oracle, rng).warm_pool()
        state = {"dataset": dataset, "checker": checker, "pool": pool, "rng": rng}
        for statement in pool:  # warm-up pass: fills every cache
            self.read(state, statement)
        return state

    def measure(self, state) -> None:
        """Probe rounds interleave with the loop, each followed by a re-warm.

        Spreading the rounds over the run keeps a slow second of the host
        from landing on all of them; the unrecorded re-warm pass re-plans
        what the round's writes invalidated, so the loop stays warm.
        """
        pool, checker = state["pool"], state["checker"]
        cycle = itertools.cycle(pool)
        index = 0
        for _ in range(PROBE_ROUNDS):
            index = self.closed_loop(state, lambda: next(cycle), checker,
                                     self.seconds * 0.9 / PROBE_ROUNDS, len(pool), index)
            self.freshness_probes(state, pool, checker, state["rng"])
            for statement in pool:
                self.read(state, statement)


class AdhocMediate(Workload):
    name = "adhoc_mediate"

    def setup(self):
        dataset = fx.build_main(self.seed)
        checker = Checker(dataset)
        rng = random.Random(self.seed)
        generator = Generator(dataset, checker.oracle, rng)
        stream = generator.adhoc()
        state = {"dataset": dataset, "checker": checker, "stream": stream, "rng": rng,
                 "known_defects": generator.known_defects()}
        for _ in range(20):  # warm-up pass: one template cycle
            self.read(state, next(stream))
        return state

    def measure(self, state) -> None:
        stream, checker = state["stream"], state["checker"]
        index = 0
        for _ in range(PROBE_ROUNDS):
            index = self.closed_loop(state, lambda: next(stream), checker,
                                     self.seconds * 0.9 / PROBE_ROUNDS, len(ADHOC_CYCLE), index)
            probes = [next(stream) for _ in range(len(ADHOC_CYCLE))]
            self.freshness_probes(state, probes, checker, state["rng"])
        self.check_known_defects(state)

    def check_known_defects(self, state) -> None:
        """Check the multi-branch ORDER BY/LIMIT and aggregate class, untimed.

        These reads are not operations of the workload: they are counted in
        the run record (``known_defect_checked``/``_mismatches``) and every
        mismatch is printed as ``KNOWN-DEFECT``.  Anything else that goes
        wrong with them (an error, a mismatch outside the class) is booked
        as a failed read.
        """
        checker, dataset = state["checker"], state["dataset"]
        mismatches = 0
        for statement in state["known_defects"]:
            read, rows = self.read(state, statement)
            if read.status == "pending":
                read.status = checker.status(statement, rows, [dataset.version])
            if read.status == "known":
                mismatches += 1
            elif read.status != "ok":
                self.book.add(read)
        self.extra["known_defect_checked"] = len(state["known_defects"])
        self.extra["known_defect_mismatches"] = mismatches


class BulkStream(Workload):
    name = "bulk_stream"

    def setup(self):
        dataset = fx.build_bulk(self.seed)
        checker = Checker(dataset)
        rng = random.Random(self.seed)
        reads = bulk_reads(dataset, rng)
        state = {"dataset": dataset, "checker": checker, "reads": reads, "rng": rng}
        for statement in reads:  # warm-up pass
            self.read(state, statement, stream=True)
        return state

    def measure(self, state) -> None:
        reads, checker, rng = state["reads"], state["checker"], state["rng"]
        cycle = itertools.cycle(reads)

        def before(index: int, statement: Statement) -> bool:
            if index % 4:
                return False
            self.write(state["dataset"], statement.relations[0], rng)
            return True

        self.closed_loop(state, lambda: next(cycle), checker, self.seconds, len(reads),
                         stream=True, tick_every=1, before=before)

    def teardown(self, state, final: bool) -> None:
        super().teardown(state, final)
        if final and state.get("budget_left"):
            self.book.invalid.append(f"{state['budget_left']} memory-budget bytes held after close")


class ServedMixed(Workload):
    """Open loop: two client threads pull one seeded arrival schedule."""

    name = "served_mixed"

    def setup(self):
        from repro.server import AsyncMediationServer, odbc
        from repro.server.server import MediationServer

        dataset = fx.build_main(self.seed)
        checker = Checker(dataset)
        rng = random.Random(self.seed)
        generator = Generator(dataset, checker.oracle, rng)
        pool_statements = generator.warm_pool()
        server = MediationServer(dataset.federation)
        aio = AsyncMediationServer(server).start()
        pool = odbc.ConnectionPool(
            lambda: odbc.connect(async_server=aio, transport="native", context="c_receiver"),
            size=2)
        connections = [pool.acquire() for _ in range(2)]
        state = {"dataset": dataset, "checker": checker, "rng": rng, "server": server,
                 "aio": aio, "pool": pool, "connections": connections,
                 "schedule": self.schedule(rng, generator, pool_statements)}
        for index, statement in enumerate(pool_statements):  # warm-up pass
            cursor = connections[index % 2].cursor()
            cursor.execute(statement.sql, context=statement.context).fetchall()
            cursor.close()
        return state

    @property
    def slice_seconds(self) -> float:
        return self.seconds / (len(SERVED_RATES) * SERVED_SLICES_PER_PHASE)

    def slice_start(self, index: int) -> float:
        """Schedule offset of the ``index``-th slice over all phases."""
        return index * (self.slice_seconds + SERVED_GAP_SECONDS)

    def schedule(self, rng: random.Random, generator: Generator,
                 pool: List[Statement]) -> List[Tuple[float, int, int, str, object]]:
        """(offset s, phase, slice, kind, statement or relation) per arrival.

        Arrivals are evenly spaced at each phase's rate: the seed picks what
        arrives, not when, so the queueing tail is the program's, not the
        arrival process's.
        """
        items = []
        adhoc = generator.adhoc()
        relations = sorted({statement.relations[0] for statement in pool})
        kinds: List[str] = []
        for phase, rate in enumerate(SERVED_RATES):
            for part in range(SERVED_SLICES_PER_PHASE):
                index = phase * SERVED_SLICES_PER_PHASE + part
                for slot in range(int(self.slice_seconds * rate)):
                    if not kinds:
                        kinds = list(SERVED_CYCLE)
                        rng.shuffle(kinds)
                    kind = kinds.pop()
                    payload = (rng.choice(pool) if kind == "warm" else
                               next(adhoc) if kind == "adhoc" else rng.choice(relations))
                    items.append((self.slice_start(index) + slot / rate, phase, index,
                                  kind, payload))
        return items

    def instrument(self, state) -> None:
        super().instrument(state)
        rec = self.recorder
        rec.wrap(state["server"], "handle", "server.handle",
                 key=lambda request, *a, **k: request.parameters.get("sql"))
        rec.wrap(state["server"].gateway, "run", "server.gateway")
        for connection in state["connections"]:
            rec.wrap(connection, "_call", "server.odbc",
                     key=lambda operation, **parameters: parameters.get("sql"))

    def measure(self, state) -> None:
        dataset, schedule = state["dataset"], state["schedule"]
        slices = len(SERVED_RATES) * SERVED_SLICES_PER_PHASE
        lock, write_lock = threading.Lock(), threading.Lock()
        cursor_at = [0]
        writes_begun = [dataset.version]
        records: List[Tuple] = []
        write_log: List[Tuple[float, str]] = []
        rec = self.recorder
        aio_before = state["aio"].snapshot()["requests"]["total"]
        started = time.perf_counter() + 0.05

        def client(connection) -> None:
            while True:
                with lock:
                    index = cursor_at[0]
                    cursor_at[0] += 1
                if index >= len(schedule):
                    return
                offset, phase, part, kind, payload = schedule[index]
                due = started + offset
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                if self.trace:
                    # Trace the second half of every rate phase only.
                    rec.on = part % SERVED_SLICES_PER_PHASE >= SERVED_SLICES_PER_PHASE // 2
                if kind == "write":
                    with write_lock:
                        writes_begun[0] += 1
                        self.write(dataset, payload, state["rng"])
                    write_log.append((time.perf_counter(), payload))
                    continue
                traced = self.trace and rec.on
                root = rec.begin("stmt", key=payload.sql) if traced else None
                version = dataset.version
                rows, error = [], None
                try:
                    cursor = connection.cursor()
                    cursor.execute(payload.sql, context=payload.context)
                    rows = cursor.fetchall()
                    cursor.close()
                except Exception as exc:  # sheds and errors count as failed
                    error = f"{type(exc).__name__}: {exc}"
                done = time.perf_counter()
                if root is not None:
                    rec.end(root)
                records.append((payload, due, sent, done, rows, version, writes_begun[0],
                                error, phase, offset - self.slice_start(part), traced))

        threads = [threading.Thread(target=client, args=(connection,), name=f"client-{i}")
                   for i, connection in enumerate(state["connections"])]
        self.host.tick(5)
        for thread in threads:
            thread.start()
        for index in range(1, slices):
            # Sample the host in the quiet gap before each later slice.
            gap = started + self.slice_start(index) - SERVED_GAP_SECONDS
            time.sleep(max(0.0, gap + SERVED_GAP_SECONDS / 3 - time.perf_counter()))
            self.host.tick(3)
        for thread in threads:
            thread.join(timeout=self.seconds + 120)
            if thread.is_alive():
                self.book.invalid.append(f"{thread.name} did not finish")
        if self.trace:
            rec.on = False
        self.host.tick(5)
        self.elapsed = time.perf_counter() - started - SERVED_GAP_SECONDS * (slices - 1)
        self.extra["aio_requests"] = state["aio"].snapshot()["requests"]["total"] - aio_before
        self.fold(state, records, write_log)

    def fold(self, state, records, write_log) -> None:
        """Check answers after the run (writes interleave, so versions vary)."""
        checker = state["checker"]
        lags, per_phase = [], {phase: [] for phase in range(len(SERVED_RATES))}
        tail_lag = {phase: 0.0 for phase in per_phase}
        pending_writes = sorted(write_log)
        for payload, due, sent, done, rows, v0, v1, error, phase, into_slice, traced in sorted(
                records, key=lambda r: r[2]):
            if error is not None:
                print(f"ERROR [{payload.context}] {payload.sql}: {error}", file=sys.stderr)
                status = "error"
            else:
                status = checker.status(payload, rows, list(range(v0, v1 + 1)))
            post_write = False
            for index, (written_at, relation) in enumerate(pending_writes):
                if written_at <= sent and relation in payload.relations:
                    post_write = True
                    del pending_writes[index]
                    break
            read = Read(payload, done - due, done - due, len(rows), status, at=due,
                        post_write=post_write)
            self.book.add(read, traced if self.trace else None)
            lags.append(sent - due)
            missed = status != "ok" or read.latency * 1000.0 > SERVED_P99_LIMIT_MS
            per_phase[phase].append((read.latency, missed))
            if into_slice >= 0.8 * self.slice_seconds:
                tail_lag[phase] = max(tail_lag[phase], sent - due)
        self.extra["lag_p99_ms"] = quantile(lags, 0.99) * 1000.0
        sustainable = 0.0
        for phase, rate in enumerate(SERVED_RATES):
            samples = per_phase[phase]
            misses = sum(1 for _, missed in samples if missed)
            if (samples and misses <= 0.01 * len(samples)
                    and tail_lag[phase] * 1000.0 <= SERVED_P99_LIMIT_MS):
                sustainable = rate
        self.extra["sustainable_rate"] = sustainable

    def teardown(self, state, final: bool) -> None:
        server, aio, pool = state["server"], state["aio"], state["pool"]
        for connection in state["connections"]:
            pool.release(connection)
        pool.close()
        drained = aio.shutdown(10.0)
        super().teardown(state, final)
        if not final:
            return
        self.federation_metrics = self.federation(state).observability.metrics
        snapshot, load = aio.snapshot(), server.snapshot()
        gateway = load["server_load"]
        self.extra["gateway"] = gateway
        checks = {
            "server drained": drained,
            "gateway idle": gateway["active"] == 0 and gateway["queued"] == 0
            and gateway["active_streams"] == 0,
            "no open cursors": load["open_cursors"] == 0,
            "no open sessions": snapshot["sessions"]["open"] == 0,
            "no aio connections": snapshot["connections"]["current"] == 0,
        }
        self.book.invalid.extend(name + " failed" for name, ok in checks.items() if not ok)


WORKLOADS = {cls.name: cls for cls in (WarmRepeat, AdhocMediate, BulkStream, ServedMixed)}


# -- metrics ---------------------------------------------------------------------


def end_to_end(workload: Workload) -> Dict[str, float]:
    """End-to-end metrics, every time scaled to the reference host.

    Each read's times are multiplied by the host-speed factor of the moment
    it ran (:class:`measure.HostSpeed`); throughput in a closed loop is per
    second of scaled statement time, in the open loop per second of wall
    clock (it follows the offered load).
    """
    book, host = workload.book, workload.host
    answered = [read for read in book.reads if read.status != "error"]
    scale = {id(read): host.factor(read.at) * 1000.0 for read in answered}
    main = [read for read in answered if not read.probe]
    latencies = [read.latency * scale[id(read)] for read in main]
    first_rows = [read.first_row * scale[id(read)] for read in main if read.rows]
    post_write = [read.latency * scale[id(read)] for read in answered if read.post_write]
    if isinstance(workload, ServedMixed):
        elapsed = workload.elapsed
        correct = book.count("ok")
        rows = sum(read.rows for read in answered)
    else:
        elapsed = sum(latencies) / 1000.0
        correct = sum(1 for read in main if read.status == "ok")
        rows = sum(read.rows for read in main)
    return {
        "setup_s": median(workload.setup_times),
        "stmt_per_s": correct / elapsed if elapsed else 0.0,
        "latency_p50_ms": quantile(latencies, 0.50),
        "first_row_p50_ms": quantile(first_rows, 0.50),
        "rows_per_s": rows / elapsed if elapsed else 0.0,
        "post_write_p50_ms": quantile(post_write, 0.50),
    }


def _delta(after: Dict, before: Dict, *path: str) -> float:
    for key in path:
        after, before = after.get(key, {}), before.get(key, {})
    return float((after or 0) - (before or 0))


def layer_metrics(workload: Workload) -> Dict[str, float]:
    """Every per-layer metric; 0 where the layer is not on the workload's path."""
    after, before = workload.stats_after, workload.stats_before
    book = workload.book
    statements = max(1, len(book.reads))
    totals = summarize(workload.recorder)
    traced = max(1, totals.statements)

    def d(*path):
        return _delta(after, before, *path)

    def ratio(hit, miss):
        return hit / (hit + miss) if hit + miss else 0.0

    mediated = [span.attrs.get("branches", 0) for span in workload.recorder.spans
                if span.name == "mediation.mediate"]
    traced_rows = sum(read.rows for read in book.reads if read.traced)
    execute_self = totals.self_time.get("engine.execute", 0.0)
    rows_returned = d("engine", "rows_returned")
    served = isinstance(workload, ServedMixed)
    gateway = workload.extra.get("gateway", {})
    transport = []
    if served:
        roots = {span.span_id: span for span in workload.recorder.spans if span.name == "stmt"}
        for statement_id, seconds in totals.server_query_seconds.items():
            root = roots.get(statement_id)
            if root is not None:
                transport.append((root.end - root.start - seconds) * 1000.0)
    queue_wait = None
    if served:
        histogram = workload.federation_metrics.get("gateway_queue_wait_seconds")
        queue_wait = histogram.quantile(0.5) if histogram is not None else None
        # The first histogram bucket interpolates 0..0.5 ms; never report
        # more than the largest wait the gateway saw.
        queue_wait = min(queue_wait or 0.0, gateway.get("max_queue_wait_seconds", 0.0))
    untraced, traced_lat = median(book.untraced), median(book.traced)
    return {
        # Untraced statements of the traced run: the tail without span cost.
        "latency_p99_ms": quantile(book.untraced, 0.99) * 1000.0,
        "sql.parse_us": totals.per_statement_us("sql"),
        "pipeline.prepare_us": totals.per_statement_us("pipeline"),
        "pipeline.plan_hit_ratio": ratio(d("pipeline", "plan_hits"), d("pipeline", "plan_misses")),
        "pipeline.mediation_hit_ratio": ratio(d("pipeline", "mediation_hits"),
                                              d("pipeline", "mediation_misses")),
        "pipeline.statement_hit_ratio": (d("pipeline", "statement_cache_hits")
                                         / max(1.0, d("pipeline", "prepares"))),
        "pipeline.plan_evictions_per_stmt": d("pipeline", "plan_cache", "evictions") / statements,
        "mediation.mediate_us": totals.per_statement_us("mediation"),
        "mediation.branches_per_stmt": sum(mediated) / len(mediated) if mediated else 0.0,
        "mediation.share": totals.share("mediation"),
        "engine.planner.plan_us": totals.per_statement_us("engine.planner"),
        "engine.planner.share": totals.share("engine.planner"),
        "engine.planner.feedback_replans": d("pipeline", "feedback_replans"),
        "engine.execute.self_us": totals.per_statement_us("engine.execute", inclusive=False),
        "engine.execute.share": totals.share("engine.execute"),
        "engine.execute.self_ns_per_row": execute_self / traced_rows * 1e9 if traced_rows else 0.0,
        "engine.execute.fetch_wait_us": totals.fetch_wait_seconds / traced * 1e6,
        "engine.execute.rows_per_stmt": sum(read.rows for read in book.reads) / statements,
        "engine.request_cache.hit_ratio": ratio(d("request_cache", "hits"),
                                                d("request_cache", "misses")),
        "engine.request_cache.dedup_hits_per_stmt": d("engine", "dedup_hits") / statements,
        "wrappers.fetch_us": totals.per_statement_us("wrappers"),
        "wrappers.round_trips_per_stmt": d("engine", "source_round_trips") / statements,
        "wrappers.rows_shipped_per_stmt": d("engine", "rows_transferred") / statements,
        "wrappers.rows_shipped_per_row_returned": (d("engine", "rows_transferred") / rows_returned
                                                   if rows_returned else 0.0),
        "wrappers.share": totals.share("wrappers"),
        "relational.peak_memory_bytes": float(after["engine"]["peak_memory_bytes"]),
        "relational.spill_count": d("engine", "spill_count"),
        "mediation.answers.annotate_us": totals.per_statement_us("mediation.answers"),
        "mediation.answers.share": totals.share("mediation.answers"),
        "server.gateway.queue_wait_p50_ms": (queue_wait or 0.0) * 1000.0,
        "server.gateway.queue_wait_max_ms": gateway.get("max_queue_wait_seconds", 0.0) * 1000.0,
        "server.gateway.shed_ratio": (gateway.get("shed", {}).get("total", 0)
                                      / max(1, gateway.get("arrived", 0))) if served else 0.0,
        "server.gateway.active_peak": float(gateway.get("peak_active", 0)),
        "server.transport.overhead_p50_ms": quantile(transport, 0.5),
        "server.transport.round_trips_per_stmt": (workload.extra.get("aio_requests", 0.0)
                                                  / max(1, len(book.reads))) if served else 0.0,
        "loadgen.lag_p99_ms": workload.extra.get("lag_p99_ms", 0.0),
        "obs.trace_overhead_ratio": traced_lat / untraced if untraced else 0.0,
        "obs.unattributed_share": (totals.unattributed_seconds / totals.root_seconds
                                   if totals.root_seconds else 0.0),
        "error_ratio": book.failed / max(1, book.attempted),
        "sustainable_rate": workload.extra.get("sustainable_rate", 0.0),
    }
