"""A local SQL query processor over in-memory relations.

This module implements the SQL semantics used in two places:

* inside :class:`repro.sources.memory.MemorySQLSource`, the stand-in for the
  paper's Oracle databases — each source runs its own local processor over its
  own tables;
* inside the multi-database access engine, which uses the same processor for
  the "local operations (e.g. joins across sources)" the paper describes,
  executing them over wrapper results staged in temporary storage.

Supported: SELECT (DISTINCT) with expressions and aliases, FROM with
comma-joins, explicit INNER/LEFT/CROSS joins and derived tables, WHERE,
GROUP BY + aggregates (COUNT/SUM/AVG/MIN/MAX) with HAVING, ORDER BY,
LIMIT/OFFSET, UNION/UNION ALL, uncorrelated IN/EXISTS/scalar subqueries, and
the CREATE TABLE / INSERT statements used to load demo data.  Everything
after FROM/WHERE is the operator chain :mod:`repro.relational.finalize`
builds, the same one the streaming engine runs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import ExecutionError, SchemaError, SQLUnsupportedError
from repro.relational.compile import ExpressionCompiler
from repro.relational.finalize import build_finalization, commuting_limit
from repro.relational.operators import Filter, HashJoin, PhysicalOperator, TableScan
from repro.relational.relation import Relation, Row
from repro.relational.schema import Attribute, Schema
from repro.relational.types import DataType
from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    CreateTable,
    Insert,
    Join,
    Node,
    Select,
    Subquery,
    TableRef,
    Union,
    conjuncts,
)
from repro.sql.parser import DerivedTable, parse
from repro.sql.printer import to_sql


class QueryProcessor:
    """Executes parsed SQL statements against a table provider.

    ``resolver`` maps a table name (and optional source qualifier) to a
    :class:`Relation`; a plain mapping of names to relations also works via
    :meth:`over_tables`.
    """

    def __init__(self, resolver: Callable[[str, Optional[str]], Relation]):
        self._resolve_table = resolver

    # -- constructors -------------------------------------------------------

    @classmethod
    def over_tables(cls, tables: Mapping[str, Relation]) -> "QueryProcessor":
        """Build a processor over a case-insensitive name → relation mapping."""
        lowered = {name.lower(): relation for name, relation in tables.items()}

        def resolver(name: str, source: Optional[str]) -> Relation:
            try:
                return lowered[name.lower()]
            except KeyError as exc:
                raise ExecutionError(f"unknown table {name!r}") from exc

        return cls(resolver)

    # -- public API ---------------------------------------------------------

    def execute(self, statement) -> Relation:
        """Execute a Select or Union statement (or SQL text) and return a Relation."""
        if isinstance(statement, str):
            statement = parse(statement)
        if isinstance(statement, Select):
            return self._execute_select(statement)
        if isinstance(statement, Union):
            return self._execute_union(statement)
        raise SQLUnsupportedError(f"cannot execute statement of type {type(statement).__name__}")

    # -- UNION ---------------------------------------------------------------

    def _execute_union(self, statement: Union) -> Relation:
        results = [self._execute_select(select) for select in statement.selects]
        combined = results[0]
        for result in results[1:]:
            combined = combined.union(result, all=True)
        if not statement.all:
            combined = combined.distinct()
        # Column names come from the first branch, per SQL convention.
        return combined.rename(results[0].schema.names)

    # -- SELECT ---------------------------------------------------------------

    def _execute_select(self, select: Select, scopes: Tuple[Schema, ...] = ()) -> Relation:
        """Run one SELECT; ``scopes`` are the FROM schemas of the queries
        enclosing it when it is a subquery (innermost first)."""
        rows, schema = self._build_from(select)
        if scopes:
            _reject_correlation(select, schema, scopes)
        subqueries = self.subquery_executor(schema, scopes)
        source = Relation(schema, name="from", validate=False)
        source.rows = rows
        operator: PhysicalOperator = TableScan(source)
        if select.where is not None:
            operator = Filter(operator, select.where, subqueries)
        return build_finalization(
            select, operator, subqueries, top_k=commuting_limit(select)
        ).to_relation()

    # -- FROM clause -----------------------------------------------------------

    def _build_from(self, select: Select) -> Tuple[List[Row], Schema]:
        """Evaluate the FROM clause into (rows, schema) of the joined input."""
        if not select.tables:
            # SELECT without FROM: a single empty row lets literal expressions evaluate.
            return [()], Schema([])

        rows: Optional[List[Row]] = None
        schema: Optional[Schema] = None
        for table in select.tables:
            table_rows, table_schema = self._table_rows(table)
            if rows is None:
                rows, schema = table_rows, table_schema
            else:
                rows = [left + right for left in rows for right in table_rows]
                schema = schema.concat(table_schema)
        assert rows is not None and schema is not None
        return rows, schema

    def _table_rows(self, node: Node) -> Tuple[List[Row], Schema]:
        if isinstance(node, TableRef):
            relation = self._resolve_table(node.name, node.source)
            schema = relation.schema.with_qualifier(node.binding)
            return list(relation.rows), schema
        if isinstance(node, DerivedTable):
            relation = self._execute_select(node.query)
            schema = relation.schema.with_qualifier(node.alias)
            return list(relation.rows), schema
        if isinstance(node, Join):
            return self._join_rows(node)
        raise SQLUnsupportedError(f"unsupported FROM item {node!r}")

    def _join_rows(self, node: Join) -> Tuple[List[Row], Schema]:
        left_rows, left_schema = self._table_rows(node.left)
        right_rows, right_schema = self._table_rows(node.right)
        schema = left_schema.concat(right_schema)

        if node.kind == "INNER" and node.condition is not None:
            hashed = self._hash_join_rows(
                node.condition, left_rows, left_schema, right_rows, right_schema
            )
            if hashed is not None:
                return hashed, schema

        predicate = (
            ExpressionCompiler(schema, self.subquery_executor(schema)).predicate(node.condition)
            if node.condition is not None else None
        )

        if node.kind in ("INNER", "CROSS"):
            combined = []
            for left in left_rows:
                for right in right_rows:
                    row = left + right
                    if predicate is None or predicate(row) is True:
                        combined.append(row)
            return combined, schema

        if node.kind == "LEFT":
            combined = []
            null_right = tuple([None] * len(right_schema))
            for left in left_rows:
                matched = False
                for right in right_rows:
                    row = left + right
                    if predicate is None or predicate(row) is True:
                        combined.append(row)
                        matched = True
                if not matched:
                    combined.append(left + null_right)
            return combined, schema

        if node.kind == "RIGHT":
            combined = []
            null_left = tuple([None] * len(left_schema))
            for right in right_rows:
                matched = False
                for left in left_rows:
                    row = left + right
                    if predicate is None or predicate(row) is True:
                        combined.append(row)
                        matched = True
                if not matched:
                    combined.append(null_left + right)
            return combined, schema

        raise SQLUnsupportedError(f"unsupported join kind {node.kind!r}")

    def _hash_join_rows(self, condition: Node, left_rows: List[Row], left_schema: Schema,
                        right_rows: List[Row], right_schema: Schema) -> Optional[List[Row]]:
        """Evaluate an INNER join through a hash join when the condition has
        equi-join conjuncts; returns None when no conjunct qualifies (the
        caller falls back to the nested loop).

        The full ON condition is re-evaluated on every bucket match, so the
        hash buckets are purely a prefilter and the accepted rows are exactly
        the nested loop's.  Boolean key values force the nested-loop fallback:
        SQL equality coerces booleans against *any* number (``True = 2`` is
        true), which no bucket normalization can reproduce."""
        combined_schema = left_schema.concat(right_schema)

        def side_of(ref: ColumnRef) -> Optional[str]:
            # The ref must resolve on exactly one side, and unambiguously in
            # the combined schema (otherwise evaluation would raise anyway).
            if not combined_schema.has(ref.name, ref.table):
                return None
            in_left = left_schema.has(ref.name, ref.table)
            in_right = right_schema.has(ref.name, ref.table)
            if in_left and not in_right:
                return "left"
            if in_right and not in_left:
                return "right"
            return None

        left_keys: List[ColumnRef] = []
        right_keys: List[ColumnRef] = []
        for conjunct in conjuncts(condition):
            if (
                isinstance(conjunct, BinaryOp)
                and conjunct.op == "="
                and isinstance(conjunct.left, ColumnRef)
                and isinstance(conjunct.right, ColumnRef)
            ):
                first, second = side_of(conjunct.left), side_of(conjunct.right)
                if first == "left" and second == "right":
                    left_keys.append(conjunct.left)
                    right_keys.append(conjunct.right)
                elif first == "right" and second == "left":
                    left_keys.append(conjunct.right)
                    right_keys.append(conjunct.left)
        if not left_keys:
            return None

        left_positions = [left_schema.index_of(ref.name, ref.table) for ref in left_keys]
        right_positions = [right_schema.index_of(ref.name, ref.table) for ref in right_keys]
        if any(
            type(row[position]) is bool
            for rows, positions in ((left_rows, left_positions), (right_rows, right_positions))
            for row in rows
            for position in positions
        ):
            return None

        left_relation = Relation(left_schema, name="join_left", validate=False)
        left_relation.rows = list(left_rows)
        right_relation = Relation(right_schema, name="join_right", validate=False)
        right_relation.rows = list(right_rows)
        join = HashJoin(
            TableScan(left_relation), TableScan(right_relation),
            left_keys, right_keys, residual=condition,
            subquery_executor=self.subquery_executor(combined_schema),
        )
        return list(join)

    def subquery_executor(self, schema: Schema,
                          scopes: Tuple[Schema, ...] = ()) -> Callable[[Select], Relation]:
        """The executor for subqueries of a query whose FROM schema is ``schema``."""
        inner_scopes = (schema,) + scopes
        return lambda select: self._execute_select(select, inner_scopes)


def _reject_correlation(select: Select, schema: Schema, scopes: Tuple[Schema, ...]) -> None:
    """Raise SQLUnsupportedError for a subquery column that only an enclosing
    query can resolve; a column no scope knows is left to fail as unknown."""

    def references(node: Node):
        if isinstance(node, (Subquery, DerivedTable)):
            return
        if isinstance(node, ColumnRef):
            yield node
        for child in node.children():
            yield from references(child)

    clauses = list(select.items) + list(select.group_by)
    clauses += [clause for clause in (select.where, select.having) if clause is not None]
    for clause in clauses:
        for ref in references(clause):
            if not schema.has(ref.name, ref.table) and any(
                scope.has(ref.name, ref.table) for scope in scopes
            ):
                raise SQLUnsupportedError(
                    f"correlated subqueries are not supported: {to_sql(ref)} "
                    "refers to a column of the enclosing query"
                )


# ---------------------------------------------------------------------------
# A tiny updatable database: CREATE TABLE / INSERT / SELECT
# ---------------------------------------------------------------------------


class Database:
    """A named collection of relations with DDL/DML support.

    This is the storage behind :class:`repro.sources.memory.MemorySQLSource`
    and the engine's temporary store.  It intentionally supports only what the
    prototype needs: creating tables, bulk-inserting rows and querying.
    """

    def __init__(self, name: str = "db"):
        self.name = name
        self.tables: Dict[str, Relation] = {}

    # -- catalog ---------------------------------------------------------------

    def create_table(self, name: str, schema: Schema) -> Relation:
        key = name.lower()
        if key in self.tables:
            raise ExecutionError(f"table {name!r} already exists")
        relation = Relation(schema.with_qualifier(None), name=name)
        self.tables[key] = relation
        return relation

    def drop_table(self, name: str) -> None:
        self.tables.pop(name.lower(), None)

    def register(self, relation: Relation, name: Optional[str] = None) -> None:
        """Register an existing relation under a (new) name."""
        key = (name or relation.name or "").lower()
        if not key:
            raise ExecutionError("cannot register an unnamed relation")
        self.tables[key] = relation

    def table(self, name: str) -> Relation:
        try:
            return self.tables[name.lower()]
        except KeyError as exc:
            raise ExecutionError(f"unknown table {name!r} in database {self.name!r}") from exc

    def has_table(self, name: str) -> bool:
        return name.lower() in self.tables

    @property
    def table_names(self) -> List[str]:
        return [relation.name or key for key, relation in sorted(self.tables.items())]

    # -- statement execution -----------------------------------------------------

    def execute(self, statement) -> Relation:
        """Execute SQL text or a parsed statement; DML returns an empty relation."""
        if isinstance(statement, str):
            statement = parse(statement)
        if isinstance(statement, CreateTable):
            return self._execute_create(statement)
        if isinstance(statement, Insert):
            return self._execute_insert(statement)
        processor = QueryProcessor.over_tables(self.tables)
        return processor.execute(statement)

    def _execute_create(self, statement: CreateTable) -> Relation:
        schema = Schema(
            Attribute(name=column.name, type=DataType.from_name(column.type_name))
            for column in statement.columns
        )
        return self.create_table(statement.name, schema)

    def _execute_insert(self, statement: Insert) -> Relation:
        from repro.relational.eval import evaluate_literal_expression

        relation = self.table(statement.table)
        if statement.columns:
            # Guard the column list up front: a typo'd or extra column would
            # otherwise silently drop values into the void.
            known = {attribute.name.lower() for attribute in relation.schema}
            unknown = [name for name in statement.columns if name.lower() not in known]
            if unknown:
                raise SchemaError(
                    f"INSERT into {statement.table!r} names unknown column(s) "
                    f"{', '.join(repr(name) for name in unknown)}"
                )
            lowered_names = [name.lower() for name in statement.columns]
            if len(set(lowered_names)) != len(lowered_names):
                duplicates = sorted({
                    name for name in lowered_names if lowered_names.count(name) > 1
                })
                raise SchemaError(
                    f"INSERT into {statement.table!r} names column(s) "
                    f"{', '.join(repr(name) for name in duplicates)} more than once"
                )
        for row_number, row_exprs in enumerate(statement.rows, start=1):
            values = [evaluate_literal_expression(expr) for expr in row_exprs]
            if statement.columns:
                if len(values) != len(statement.columns):
                    raise SchemaError(
                        f"INSERT row {row_number} has {len(values)} value(s) "
                        f"for {len(statement.columns)} column(s)"
                    )
                lowered = {
                    name.lower(): value
                    for name, value in zip(statement.columns, values)
                }
                row = [lowered.get(attribute.name.lower()) for attribute in relation.schema]
            else:
                # Schema.validate_row rejects arity mismatches with a clear
                # SchemaError; nothing reaches the operators malformed.
                row = values
            relation.append(row)
        return Relation(relation.schema)
