"""Physical operators: iterator-style building blocks for query execution.

The multi-database access engine composes these operators into execution
plans for the *local* part of a mediated query — the part that cannot be
pushed down to any single source (typically cross-source joins, final
projections and ordering).  The local SQL processor in
:mod:`repro.relational.query` uses the same operators so that source-side and
mediator-side execution share one code path.

Every operator exposes:

* ``schema`` — the output schema;
* ``__iter__`` — yields output rows (tuples);
* ``explain(indent)`` — a human-readable plan rendering;
* ``estimated_rows`` — a cheap cardinality guess used by the cost model.
"""

from __future__ import annotations

import heapq
from decimal import Decimal
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import EvaluationError, ExecutionError
from repro.relational.budget import MemoryBudget, SpillFile, estimate_row_bytes
from repro.relational.compile import (
    AGGREGATE_QUALIFIER,
    ExpressionCompiler,
    aggregate_slot_name,
)
from repro.relational.relation import Relation, Row
from repro.relational.schema import Attribute, Schema
from repro.relational.types import DataType, sort_key, value_key
from repro.sql.ast import FunctionCall, Node, Star


class PhysicalOperator:
    """Base class of all physical operators."""

    #: Short name used in EXPLAIN output.
    operator_name = "operator"

    @property
    def schema(self) -> Schema:
        raise NotImplementedError

    def __iter__(self) -> Iterator[Row]:
        raise NotImplementedError

    @property
    def children(self) -> Sequence["PhysicalOperator"]:
        return ()

    @property
    def estimated_rows(self) -> int:
        """A crude cardinality estimate (children's product by default)."""
        estimate = 1
        for child in self.children:
            estimate *= max(child.estimated_rows, 1)
        return estimate

    def explain(self, indent: int = 0) -> str:
        """Render this operator subtree as an indented plan."""
        line = "  " * indent + f"{self.operator_name}{self._explain_details()}"
        lines = [line]
        for child in self.children:
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def _explain_details(self) -> str:
        return ""

    def to_relation(self, name: Optional[str] = None) -> Relation:
        """Fully materialize the operator's output."""
        relation = Relation(self.schema, name=name)
        relation.rows = list(self)
        return relation


class TableScan(PhysicalOperator):
    """Scan a materialized relation, optionally re-qualifying its schema."""

    operator_name = "Scan"

    def __init__(self, relation: Relation, binding: Optional[str] = None):
        self.relation = relation
        self.binding = binding
        self._schema = relation.schema.with_qualifier(binding) if binding else relation.schema

    @property
    def schema(self) -> Schema:
        return self._schema

    def __iter__(self) -> Iterator[Row]:
        return iter(self.relation.rows)

    @property
    def estimated_rows(self) -> int:
        return len(self.relation)

    def _explain_details(self) -> str:
        label = self.relation.name or "<anonymous>"
        alias = f" AS {self.binding}" if self.binding and self.binding != label else ""
        return f"({label}{alias}, {len(self.relation)} rows)"


class Filter(PhysicalOperator):
    """Keep rows satisfying a SQL predicate (three-valued: NULL drops the row)."""

    operator_name = "Filter"

    def __init__(self, child: PhysicalOperator, condition: Node,
                 subquery_executor: Optional[Callable[[Node], Relation]] = None):
        self.child = child
        self.condition = condition
        self._predicate = ExpressionCompiler(child.schema, subquery_executor).predicate(condition)

    @property
    def schema(self) -> Schema:
        return self.child.schema

    @property
    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def __iter__(self) -> Iterator[Row]:
        predicate = self._predicate
        for row in self.child:
            if predicate(row) is True:
                yield row

    @property
    def estimated_rows(self) -> int:
        # Default filter selectivity of 1/3, floor of 1.
        return max(self.child.estimated_rows // 3, 1)

    def _explain_details(self) -> str:
        from repro.sql.printer import to_sql

        return f"({to_sql(self.condition)})"


class Project(PhysicalOperator):
    """Compute output expressions for every input row."""

    operator_name = "Project"

    def __init__(self, child: PhysicalOperator, expressions: Sequence[Node],
                 names: Sequence[str],
                 subquery_executor: Optional[Callable[[Node], Relation]] = None):
        if len(expressions) != len(names):
            raise ExecutionError("projection expressions and names must align")
        self.child = child
        self.expressions = list(expressions)
        self.names = list(names)
        self._project = ExpressionCompiler(child.schema, subquery_executor).projection(
            self.expressions
        )
        from repro.relational.eval import expression_type

        self._schema = Schema(
            Attribute(name=name, type=expression_type(expr, child.schema))
            for name, expr in zip(self.names, self.expressions)
        )

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def __iter__(self) -> Iterator[Row]:
        project = self._project
        for row in self.child:
            yield project(row)

    @property
    def estimated_rows(self) -> int:
        return self.child.estimated_rows

    def _explain_details(self) -> str:
        return f"({', '.join(self.names)})"


class Aggregate(PhysicalOperator):
    """GROUP BY with aggregates and HAVING, then the select list (blocking).

    Groups come out in first-occurrence order; with no GROUP BY the whole
    input is one group, even when empty (``COUNT(*)`` = 0).  HAVING and the
    output ``expressions`` are compiled once against the *aggregate row*: the
    group's first input row followed by one column per aggregate call (see
    :data:`~repro.relational.compile.AGGREGATE_QUALIFIER`), so a bare column
    reads the representative row and an aggregate call reads its value.
    """

    operator_name = "Aggregate"

    def __init__(self, child: PhysicalOperator, group_by: Sequence[Node],
                 calls: Sequence[FunctionCall], expressions: Sequence[Node],
                 names: Sequence[str], having: Optional[Node] = None,
                 subquery_executor: Optional[Callable[[Node], Relation]] = None):
        from repro.relational.eval import expression_type

        self.child = child
        self.group_by = list(group_by)
        self.calls = list(calls)
        self.having = having
        self.names = list(names)
        compiler = ExpressionCompiler(child.schema, subquery_executor)
        self._key_fns = [compiler.compile(expr) for expr in self.group_by]
        self._arg_fns = [
            compiler.compile(call.args[0])
            if call.args and not isinstance(call.args[0], Star) else None
            for call in self.calls
        ]
        aggregate_schema = child.schema.concat(Schema(
            Attribute(name=aggregate_slot_name(call),
                      type=expression_type(call, child.schema),
                      qualifier=AGGREGATE_QUALIFIER)
            for call in self.calls
        ))
        group_compiler = ExpressionCompiler(aggregate_schema, subquery_executor)
        self._having = group_compiler.predicate(having) if having is not None else None
        self._project = group_compiler.projection(expressions)
        self._schema = Schema(
            Attribute(name=name, type=expression_type(expr, child.schema))
            for name, expr in zip(self.names, expressions)
        )

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def __iter__(self) -> Iterator[Row]:
        key_fns = self._key_fns
        arg_fns = self._arg_fns
        # key -> [representative row, row count, per-call non-NULL values]
        groups: Dict[Tuple, list] = {}
        for row in self.child:
            key = tuple(value_key(fn(row)) for fn in key_fns)
            group = groups.get(key)
            if group is None:
                group = groups[key] = [row, 0, [None if fn is None else [] for fn in arg_fns]]
            group[1] += 1
            values = group[2]
            for index, fn in enumerate(arg_fns):
                if fn is not None:
                    value = fn(row)
                    if value is not None:
                        values[index].append(value)
        if not key_fns and not groups:
            groups[()] = [tuple([None] * len(self.child.schema)), 0,
                          [None if fn is None else [] for fn in arg_fns]]

        having = self._having
        project = self._project
        for representative, count, values in groups.values():
            row = representative + tuple(
                _fold_aggregate(call, count, call_values)
                for call, call_values in zip(self.calls, values)
            )
            if having is None or having(row) is True:
                yield project(row)

    def _explain_details(self) -> str:
        from repro.sql.printer import to_sql

        keys = ", ".join(to_sql(expr) for expr in self.group_by)
        return f"({keys}; {', '.join(self.names)})"


def _fold_aggregate(call: FunctionCall, count: int, values: Optional[List[Any]]) -> Any:
    """One aggregate's value over a group: ``count`` rows, of which ``values``
    are the argument's non-NULL values (None when the argument is ``*``)."""
    name = call.name.upper()
    if name == "COUNT" and (not call.args or isinstance(call.args[0], Star)):
        return count
    if not call.args:
        raise EvaluationError(f"aggregate {name} requires an argument")
    if values is None:
        raise EvaluationError("'*' is only valid inside COUNT(*) or a select list")
    if call.distinct:
        seen: List[Any] = []
        for value in values:
            if value not in seen:
                seen.append(value)
        values = seen
    if name == "COUNT":
        return len(values)
    if not values:
        return None
    if name == "SUM":
        return sum(values)
    if name == "AVG":
        return sum(values) / len(values)
    if name == "MIN":
        return min(values)
    if name == "MAX":
        return max(values)
    raise EvaluationError(f"unknown aggregate {name}")


class Trim(PhysicalOperator):
    """Keep the first ``width`` columns (drops hidden ORDER BY keys)."""

    operator_name = "Trim"

    def __init__(self, child: PhysicalOperator, width: int):
        self.child = child
        self.width = width
        self._schema = Schema(child.schema.attributes[:width])

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def __iter__(self) -> Iterator[Row]:
        width = self.width
        for row in self.child:
            yield row[:width]

    def _explain_details(self) -> str:
        return f"({self.width} columns)"


class CrossProduct(PhysicalOperator):
    """Cartesian product; the right input is materialized once."""

    operator_name = "CrossProduct"

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator):
        self.left = left
        self.right = right
        self._schema = left.schema.concat(right.schema)

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def children(self) -> Sequence[PhysicalOperator]:
        return (self.left, self.right)

    def __iter__(self) -> Iterator[Row]:
        right_rows = list(self.right)
        for left_row in self.left:
            for right_row in right_rows:
                yield left_row + right_row


class NestedLoopJoin(PhysicalOperator):
    """Theta join evaluated as a filtered cross product."""

    operator_name = "NestedLoopJoin"

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator, condition: Optional[Node],
                 subquery_executor: Optional[Callable[[Node], Relation]] = None):
        self.left = left
        self.right = right
        self.condition = condition
        self._schema = left.schema.concat(right.schema)
        self._predicate = (
            ExpressionCompiler(self._schema, subquery_executor).predicate(condition)
            if condition is not None else None
        )

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def children(self) -> Sequence[PhysicalOperator]:
        return (self.left, self.right)

    def __iter__(self) -> Iterator[Row]:
        right_rows = list(self.right)
        predicate = self._predicate
        if predicate is None:
            for left_row in self.left:
                for right_row in right_rows:
                    yield left_row + right_row
            return
        for left_row in self.left:
            for right_row in right_rows:
                combined = left_row + right_row
                if predicate(combined) is True:
                    yield combined

    @property
    def estimated_rows(self) -> int:
        estimate = self.left.estimated_rows * self.right.estimated_rows
        return max(estimate // 3, 1) if self.condition is not None else estimate

    def _explain_details(self) -> str:
        if self.condition is None:
            return ""
        from repro.sql.printer import to_sql

        return f"({to_sql(self.condition)})"


class HashJoin(PhysicalOperator):
    """Equi-join on one or more key expressions per side, with an optional
    residual filter.

    ``left_key``/``right_key`` accept a single expression (the historical
    signature) or an aligned sequence of expressions forming a composite key;
    the planner emits composite keys when a join step carries several
    equi-join conjuncts, so none of them degrade into per-pair residual
    evaluation."""

    operator_name = "HashJoin"

    #: Build-side partitions used by the spilled (Grace) fallback.
    SPILL_PARTITIONS = 32

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator,
                 left_key, right_key, residual: Optional[Node] = None,
                 subquery_executor: Optional[Callable[[Node], Relation]] = None,
                 budget: Optional[MemoryBudget] = None):
        self.left = left
        self.right = right
        self.budget = budget
        #: True once an iteration had to fall back to partitioned spilling.
        self.spilled = False
        self.left_keys: List[Node] = list(left_key) if not isinstance(left_key, Node) else [left_key]
        self.right_keys: List[Node] = list(right_key) if not isinstance(right_key, Node) else [right_key]
        if len(self.left_keys) != len(self.right_keys) or not self.left_keys:
            raise ExecutionError("hash join requires aligned, non-empty key lists")
        self.residual = residual
        self._schema = left.schema.concat(right.schema)
        left_compiler = ExpressionCompiler(left.schema, subquery_executor)
        right_compiler = ExpressionCompiler(right.schema, subquery_executor)
        self._left_key_fns = [left_compiler.compile(key) for key in self.left_keys]
        self._right_key_fns = [right_compiler.compile(key) for key in self.right_keys]
        self._residual_predicate = (
            ExpressionCompiler(self._schema, subquery_executor).predicate(residual)
            if residual is not None else None
        )

    # Backwards-compatible single-key views (used by explain and older callers).
    @property
    def left_key(self) -> Node:
        return self.left_keys[0]

    @property
    def right_key(self) -> Node:
        return self.right_keys[0]

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def children(self) -> Sequence[PhysicalOperator]:
        return (self.left, self.right)

    @staticmethod
    def _composite_key(fns, row) -> Optional[Tuple]:
        """The normalized bucket key of one row, or None when any part is NULL
        (SQL equality with NULL can never be true, so the row cannot match)."""
        parts = []
        for fn in fns:
            value = fn(row)
            if value is None:
                return None
            parts.append(_hash_key(value))
        return tuple(parts)

    def __iter__(self) -> Iterator[Row]:
        buckets: Dict[Any, List[Row]] = {}
        right_fns = self._right_key_fns
        budget = self.budget
        build_bytes = 0
        build_rows = 0
        build_spill: Optional[List[SpillFile]] = None
        try:
            for right_row in self.right:
                key = self._composite_key(right_fns, right_row)
                if key is None:
                    continue
                if build_spill is None and budget is not None:
                    nbytes = estimate_row_bytes(right_row)
                    if budget.try_reserve(nbytes):
                        build_bytes += nbytes
                    else:
                        # The build side outgrew the budget: switch to Grace
                        # partitioning — flush the buckets built so far to
                        # per-partition spill files and keep partitioning.
                        build_spill = [SpillFile("hashjoin-build-")
                                       for _ in range(self.SPILL_PARTITIONS)]
                        for built_key, built_rows in buckets.items():
                            partition = build_spill[hash(built_key) % self.SPILL_PARTITIONS]
                            for built_row in built_rows:
                                partition.append((built_key, built_row))
                        budget.record_spill(build_rows, build_bytes)
                        budget.release(build_bytes)
                        build_bytes = 0
                        buckets = {}
                        self.spilled = True
                if build_spill is not None:
                    build_spill[hash(key) % self.SPILL_PARTITIONS].append((key, right_row))
                else:
                    buckets.setdefault(key, []).append(right_row)
                    build_rows += 1

            residual_predicate = self._residual_predicate
            left_fns = self._left_key_fns
            if build_spill is None:
                empty: List[Row] = []
                for left_row in self.left:
                    key = self._composite_key(left_fns, left_row)
                    if key is None:
                        continue
                    for right_row in buckets.get(key, empty):
                        combined = left_row + right_row
                        if residual_predicate is None or residual_predicate(combined) is True:
                            yield combined
                return

            # Grace fallback: partition the (streamed-once) probe side by the
            # same hash, then join partition by partition.  Output order is
            # deterministic — partitions in index order, probe order within
            # each — but differs from the in-memory build's probe order.
            probe_spill = [SpillFile("hashjoin-probe-")
                           for _ in range(self.SPILL_PARTITIONS)]
            try:
                for left_row in self.left:
                    key = self._composite_key(left_fns, left_row)
                    if key is None:
                        continue
                    probe_spill[hash(key) % self.SPILL_PARTITIONS].append((key, left_row))
                for index in range(self.SPILL_PARTITIONS):
                    partition_buckets: Dict[Any, List[Row]] = {}
                    for key, right_row in build_spill[index].read():
                        partition_buckets.setdefault(key, []).append(right_row)
                    for key, left_row in probe_spill[index].read():
                        for right_row in partition_buckets.get(key, ()):
                            combined = left_row + right_row
                            if residual_predicate is None or residual_predicate(combined) is True:
                                yield combined
            finally:
                for spill in probe_spill:
                    spill.close()
        finally:
            if build_spill is not None:
                for spill in build_spill:
                    spill.close()
            if budget is not None and build_bytes:
                budget.release(build_bytes)

    @property
    def estimated_rows(self) -> int:
        return max(self.left.estimated_rows, self.right.estimated_rows)

    def _explain_details(self) -> str:
        from repro.sql.printer import to_sql

        keys = " AND ".join(
            f"{to_sql(lk)} = {to_sql(rk)}"
            for lk, rk in zip(self.left_keys, self.right_keys)
        )
        detail = f"({keys}"
        if self.residual is not None:
            detail += f", residual {to_sql(self.residual)}"
        return detail + ")"


def _hash_key(value: Any) -> Any:
    """Normalize join keys so 1, 1.0 and Decimal("1") hash to the same bucket."""
    if isinstance(value, bool):
        return ("b", value)
    if isinstance(value, (int, float)):
        return ("n", float(value))
    if isinstance(value, Decimal):
        return ("n", float(value))
    return ("s", value)


def _default_distinct_key(row: Row) -> Tuple:
    return tuple(_hash_key(value) if value is not None else None for value in row)


class Distinct(PhysicalOperator):
    """Remove duplicate rows, preserving first-occurrence order.

    ``key`` customizes the duplicate test (a callable mapping a row to a
    hashable, picklable key); the default normalizes numerics the same way the
    hash join does.  With a :class:`MemoryBudget`, a seen-set that outgrows
    the budget triggers an external two-phase dedup: seen keys and the
    remaining input are hash-partitioned to spill files, each partition is
    deduplicated independently, and survivors merge back **in original input
    order** — the spilled path yields exactly the rows, in exactly the order,
    of the in-memory path.
    """

    operator_name = "Distinct"

    #: Partition fan-out of the spilled dedup.
    SPILL_PARTITIONS = 32

    def __init__(self, child: PhysicalOperator,
                 budget: Optional[MemoryBudget] = None,
                 key: Optional[Callable[[Row], Tuple]] = None):
        self.child = child
        self.budget = budget
        self._key = key or _default_distinct_key
        #: True once an iteration had to fall back to partitioned spilling.
        self.spilled = False

    @property
    def schema(self) -> Schema:
        return self.child.schema

    @property
    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def __iter__(self) -> Iterator[Row]:
        key_fn = self._key
        budget = self.budget
        seen = set()
        seen_bytes = 0
        iterator = enumerate(iter(self.child))
        try:
            for sequence, row in iterator:
                key = key_fn(row)
                if key in seen:
                    continue
                nbytes = estimate_row_bytes(row)
                if budget is not None and not budget.try_reserve(nbytes):
                    # The spill path releases (and re-accounts) the seen-set
                    # itself; zero the local so the finally does not double-release.
                    spill_bytes, seen_bytes = seen_bytes, 0
                    yield from self._spill_remainder(
                        iterator, seen, spill_bytes, sequence, row, key
                    )
                    return
                seen.add(key)
                seen_bytes += nbytes
                yield row
        finally:
            # Runs on exhaustion *and* on early termination (a downstream
            # LIMIT closing this generator): the reservation never outlives
            # the operator.
            if budget is not None and seen_bytes:
                budget.release(seen_bytes)

    def _spill_remainder(self, iterator, seen, seen_bytes: int,
                         sequence: int, row: Row, key) -> Iterator[Row]:
        """External dedup of everything not yet emitted.

        Keys already emitted become suppression markers in their partitions
        (they sort before any row, being written first); remaining rows carry
        their input sequence number so the surviving first occurrences can be
        merged back into global input order.
        """
        budget = self.budget
        self.spilled = True
        partitions = [SpillFile("distinct-") for _ in range(self.SPILL_PARTITIONS)]
        survivors = [SpillFile("distinct-out-") for _ in range(self.SPILL_PARTITIONS)]
        try:
            for emitted_key in seen:
                partitions[hash(emitted_key) % self.SPILL_PARTITIONS].append(
                    (None, emitted_key)
                )
            budget.record_spill(len(seen), seen_bytes)
            budget.release(seen_bytes)
            seen.clear()

            partitions[hash(key) % self.SPILL_PARTITIONS].append((sequence, row, key))
            for later_sequence, later_row in iterator:
                later_key = self._key(later_row)
                partitions[hash(later_key) % self.SPILL_PARTITIONS].append(
                    (later_sequence, later_row, later_key)
                )

            # Phase 2: per-partition dedup (markers first, then rows in input
            # order); survivors stream out per partition, already
            # sequence-sorted because partition files preserve write order.
            for index in range(self.SPILL_PARTITIONS):
                local_seen = set()
                for item in partitions[index].read():
                    if item[0] is None:
                        local_seen.add(item[1])
                        continue
                    item_sequence, item_row, item_key = item
                    if item_key in local_seen:
                        continue
                    local_seen.add(item_key)
                    survivors[index].append((item_sequence, item_row))
                partitions[index].close()

            merged = heapq.merge(
                *[survivor.read() for survivor in survivors],
                key=lambda pair: pair[0],
            )
            for _sequence, survivor_row in merged:
                yield survivor_row
        finally:
            for spill in partitions:
                spill.close()
            for spill in survivors:
                spill.close()

    @property
    def estimated_rows(self) -> int:
        return self.child.estimated_rows


class _Descending:
    """Wraps a sort key so ascending comparisons produce descending order.

    ``sort_key`` values are totally ordered tuples, so inverting ``<`` is
    enough for ``list.sort``, ``heapq.merge`` and ``heapq.nsmallest``.
    """

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other: "_Descending") -> bool:
        return other.value < self.value

    def __le__(self, other: "_Descending") -> bool:
        return not self.value < other.value

    def __eq__(self, other) -> bool:
        return isinstance(other, _Descending) and self.value == other.value


class Sort(PhysicalOperator):
    """Sort on a list of (expression, ascending) keys.

    By default the input is buffered and sorted in memory (the historical
    behaviour).  Two extensions serve the streaming execution core:

    * ``budget`` — a shared :class:`MemoryBudget`; when buffering the input
      would exceed it, the buffered prefix is sorted and spilled as a run,
      and the final output is an external merge over the (sorted) runs.  The
      merged order is byte-identical to the in-memory sort, including
      stability: runs partition the input by arrival time and
      :func:`heapq.merge` is stable across its inputs.
    * ``limit`` — a top-k bound (LIMIT + OFFSET already combined by the
      caller): only the ``limit`` smallest rows are kept, in a bounded heap
      that never spills.

    ``key_functions`` overrides the compiled per-key functions — an aligned
    list of ``(row -> orderable, ascending)`` pairs — used by the SELECT
    finalizer to order by output positions instead of expressions.
    """

    operator_name = "Sort"

    #: Smallest buffer worth spilling as a run.  Without a floor, a budget
    #: pinned by *another* operator would degenerate into one run (one open
    #: temp file) per input row; with it, runs are at least
    #: ``min(this, limit/2)`` bytes, bounding open files to input/run size.
    MIN_SPILL_RUN_BYTES = 32 * 1024

    def __init__(self, child: PhysicalOperator, keys: Sequence[Tuple[Node, bool]],
                 subquery_executor: Optional[Callable[[Node], Relation]] = None,
                 budget: Optional[MemoryBudget] = None,
                 limit: Optional[int] = None,
                 key_functions: Optional[Sequence[Tuple[Callable[[Row], Any], bool]]] = None):
        self.child = child
        self.keys = list(keys)
        self.budget = budget
        self.limit = limit
        if key_functions is not None:
            self._key_fns = list(key_functions)
        else:
            compiler = ExpressionCompiler(child.schema, subquery_executor)
            self._key_fns = [
                (compiler.sort_key(expr), ascending) for expr, ascending in self.keys
            ]
        #: How many sorted runs the last iteration spilled (0 = in memory).
        self.spill_runs = 0

    @property
    def schema(self) -> Schema:
        return self.child.schema

    @property
    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def _composite_key(self) -> Callable[[Row], Any]:
        """One total-order key equivalent to the per-key stable sort cascade."""
        key_fns = self._key_fns
        if len(key_fns) == 1 and key_fns[0][1]:
            return key_fns[0][0]

        def composite(row: Row) -> Tuple:
            return tuple(
                fn(row) if ascending else _Descending(fn(row))
                for fn, ascending in key_fns
            )

        return composite

    def __iter__(self) -> Iterator[Row]:
        key = self._composite_key()
        budget = self.budget

        if self.limit is not None:
            # Top-k: nsmallest is stable (documented equivalent to
            # sorted(...)[:n]) and holds at most ``limit`` rows.
            rows = heapq.nsmallest(self.limit, self.child, key=key)
            held = sum(estimate_row_bytes(row) for row in rows)
            if budget is not None:
                budget.reserve(held)
            try:
                yield from rows
            finally:
                if budget is not None:
                    budget.release(held)
            return

        buffer: List[Row] = []
        buffer_bytes = 0
        runs: List[SpillFile] = []
        self.spill_runs = 0
        min_run_bytes = self.MIN_SPILL_RUN_BYTES
        if budget is not None and budget.limit_bytes is not None:
            min_run_bytes = min(min_run_bytes, max(1, budget.limit_bytes // 2))
        try:
            for row in self.child:
                nbytes = estimate_row_bytes(row)
                if budget is not None and not budget.try_reserve(nbytes):
                    if buffer_bytes >= min_run_bytes:
                        buffer.sort(key=key)
                        run = SpillFile("sort-run-")
                        run.extend(buffer)
                        runs.append(run)
                        self.spill_runs += 1
                        budget.record_spill(len(buffer), buffer_bytes)
                        budget.release(buffer_bytes)
                        buffer = []
                        buffer_bytes = 0
                    # The row must be held somewhere even when other operators
                    # occupy the whole budget (or the buffer is still below a
                    # useful run size).
                    budget.reserve(nbytes)
                buffer.append(row)
                buffer_bytes += nbytes

            buffer.sort(key=key)
            if not runs:
                yield from buffer
                return
            # Stable k-way merge: runs in spill order, the in-memory tail
            # last, mirrors one stable sort of the whole input.
            streams = [run.read() for run in runs]
            streams.append(iter(buffer))
            yield from heapq.merge(*streams, key=key)
        finally:
            for run in runs:
                run.close()
            if budget is not None and buffer_bytes:
                budget.release(buffer_bytes)

    @property
    def estimated_rows(self) -> int:
        if self.limit is not None:
            return min(self.child.estimated_rows, self.limit)
        return self.child.estimated_rows

    def _explain_details(self) -> str:
        from repro.sql.printer import to_sql

        parts = [f"{to_sql(expr)}{'' if asc else ' DESC'}" for expr, asc in self.keys]
        if self.limit is not None:
            parts.append(f"top {self.limit}")
        return f"({', '.join(parts)})"


class Limit(PhysicalOperator):
    """LIMIT/OFFSET."""

    operator_name = "Limit"

    def __init__(self, child: PhysicalOperator, count: Optional[int], offset: int = 0):
        self.child = child
        self.count = count
        self.offset = offset or 0

    @property
    def schema(self) -> Schema:
        return self.child.schema

    @property
    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def __iter__(self) -> Iterator[Row]:
        produced = 0
        skipped = 0
        for row in self.child:
            if skipped < self.offset:
                skipped += 1
                continue
            if self.count is not None and produced >= self.count:
                return
            produced += 1
            yield row

    @property
    def estimated_rows(self) -> int:
        # Rows skipped by OFFSET never reach the output.
        available = max(self.child.estimated_rows - self.offset, 0)
        if self.count is None:
            return available
        return min(available, self.count)

    def _explain_details(self) -> str:
        return f"({self.count}, offset {self.offset})"


class UnionAll(PhysicalOperator):
    """Concatenate the outputs of several children (schemas must align in arity)."""

    operator_name = "UnionAll"

    def __init__(self, inputs: Sequence[PhysicalOperator]):
        if not inputs:
            raise ExecutionError("UnionAll requires at least one input")
        arities = {len(child.schema) for child in inputs}
        if len(arities) != 1:
            raise ExecutionError("UNION inputs must have the same arity")
        self.inputs = list(inputs)

    @property
    def schema(self) -> Schema:
        return self.inputs[0].schema

    @property
    def children(self) -> Sequence[PhysicalOperator]:
        return tuple(self.inputs)

    def __iter__(self) -> Iterator[Row]:
        for child in self.inputs:
            yield from child

    @property
    def estimated_rows(self) -> int:
        return sum(child.estimated_rows for child in self.inputs)


class Materialize(PhysicalOperator):
    """Materialize a child once; later iterations replay the buffered rows.

    Used by the execution controller when an intermediate result feeds several
    consumers (and to model spooling into the engine's temporary storage).
    """

    operator_name = "Materialize"

    def __init__(self, child: PhysicalOperator):
        self.child = child
        self._buffer: Optional[List[Row]] = None

    @property
    def schema(self) -> Schema:
        return self.child.schema

    @property
    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def __iter__(self) -> Iterator[Row]:
        if self._buffer is None:
            self._buffer = list(self.child)
        return iter(self._buffer)

    @property
    def estimated_rows(self) -> int:
        if self._buffer is not None:
            return len(self._buffer)
        return self.child.estimated_rows
