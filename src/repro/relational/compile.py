"""Compilation of SQL AST expressions into Python closures.

The interpreted :class:`~repro.relational.eval.ExpressionEvaluator` re-walks
the AST for every row: each node costs an ``isinstance`` dispatch chain, an
``op.upper()`` call and a dict lookup before any real work happens.  On the
hot paths (filter predicates, projections, join keys, sort keys) that
per-row interpretation dominates execution time.

:class:`ExpressionCompiler` walks the AST **once** and produces a closure
``row -> value`` for each node:

* column references resolve to a position at compile time and become a plain
  ``row[i]`` access;
* ``AND``/``OR`` compile to short-circuiting closures with SQL three-valued
  semantics;
* subtrees containing no column references are *folded*: evaluated at most
  once (lazily, on first use, so error and empty-input behaviour match the
  interpreter) and replaced by a constant closure;
* literal LIKE patterns are compiled to a regex once;
* projections consisting solely of column references compile to a single
  ``operator.itemgetter`` call (tuple construction in C).

Semantics are identical to the interpreter by construction — every closure
mirrors one branch of :meth:`ExpressionEvaluator._eval` — and
``tests/relational/test_compile.py`` holds the two implementations to the
same answers (and the same errors) over mixed-type rows.  Uncorrelated
subqueries are executed at most once per compiled expression instead of once
per row; their results cannot differ because the dialect has no correlation.

Compiled closures are additionally **memoized** across operator instances: a
bounded LRU keyed by (entry point, expression AST, schema attributes) lets a
cached plan executed many times — the prepared-query warm path — reuse the
closures compiled on the first execution instead of re-walking the same
frozen AST per statement.  Expressions containing subqueries are never
memoized: their folded results are pinned to one evaluation context.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from operator import itemgetter
from typing import Any, Callable, Hashable, List, Optional, Sequence, Tuple

from repro.errors import EvaluationError
from repro.relational.eval import _SCALAR_FUNCTIONS, like_to_regex
from repro.relational.schema import Schema
from repro.relational.types import sql_compare, sql_equal, sort_key
from repro.sql.ast import (
    Between,
    BinaryOp,
    Case,
    ColumnRef,
    Exists,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    Node,
    Star,
    Subquery,
    UnaryOp,
    is_aggregate_call,
    walk,
)
from repro.sql.printer import to_sql

Row = Sequence[Any]
CompiledExpr = Callable[[Row], Any]

import operator as _operator

_DIRECT_COMPARISONS: dict = {
    "<": _operator.lt,
    "<=": _operator.le,
    ">": _operator.gt,
    ">=": _operator.ge,
}
_ARITHMETIC_OPS: dict = {
    "+": _operator.add,
    "-": _operator.sub,
    "*": _operator.mul,
    "/": _operator.truediv,
    "%": _operator.mod,
}


#: Qualifier of the columns :class:`~repro.relational.operators.Aggregate`
#: appends to its input schema: one per aggregate call, named by the call's
#: SQL text.  A compiled aggregate call reads its slot like a column.
AGGREGATE_QUALIFIER = "$aggregate"


def aggregate_slot_name(call: FunctionCall) -> str:
    """The column name holding ``call``'s value in an aggregate row."""
    return to_sql(call)


def _is_constant(node: Node) -> bool:
    """True when no descendant depends on the row (safe to fold)."""
    return not any(
        isinstance(n, (ColumnRef, Star, Subquery, Exists)) or is_aggregate_call(n)
        for n in walk(node)
    )


class _CompiledMemo:
    """Bounded, thread-safe LRU of compiled closures shared across operators.

    Keys use the **identity** of the expression nodes — cached plans are
    immutable, so re-executing one presents the same AST objects every time,
    and identity lookups skip re-hashing the whole tree per operator.  Each
    entry stores a strong reference to its nodes: while an entry lives, its
    ids cannot be recycled, and a lookup additionally verifies the stored
    nodes *are* the probe nodes, so an id reused after eviction can only
    miss.  Closures are pure functions of (expression, schema) — except when
    the expression contains a subquery, in which case the entry records
    "never memoize" (the closure folds the subquery's result for its own
    lifetime).
    """

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Tuple[tuple, Any]]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable, nodes: tuple) -> Tuple[bool, Any]:
        """Return (found, fn); ``fn`` None means "compile privately"."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return False, None
            stored_nodes, fn = entry
            if len(stored_nodes) != len(nodes) or any(
                stored is not probe for stored, probe in zip(stored_nodes, nodes)
            ):
                # id recycled after eviction of the original nodes.
                del self._entries[key]
                return False, None
            self._entries.move_to_end(key)
            return True, fn

    def put(self, key: Hashable, nodes: tuple, fn: Any) -> None:
        with self._lock:
            self._entries[key] = (nodes, fn)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


_MEMO = _CompiledMemo()


def clear_compiled_memo() -> None:
    """Drop every memoized closure (test isolation hook)."""
    _MEMO.clear()


def _fold(fn: CompiledExpr) -> CompiledExpr:
    """Memoize a row-independent closure; evaluation stays lazy so that
    errors surface on first *use*, exactly when the interpreter would raise."""
    cache: List[Any] = []

    def folded(row: Row) -> Any:
        if not cache:
            cache.append(fn(row))
        return cache[0]

    return folded


def _raising(error: Exception) -> CompiledExpr:
    """A closure deferring a compile-time failure to evaluation time (the
    interpreter only raises when an offending node is actually evaluated)."""

    def raise_(row: Row) -> Any:
        raise error

    return raise_


def _as_bool(value: Any) -> Optional[bool]:
    if value is None:
        return None
    return bool(value)


#: Node types whose compiled closures already return True/False/None, making
#: the predicate()'s bool-conversion wrapper a no-op worth skipping.
_BOOLEAN_BINARY_OPS = frozenset({"AND", "OR", "=", "<>", "<", "<=", ">", ">="})


def _returns_bool(node: Node) -> bool:
    if isinstance(node, BinaryOp):
        return node.op.upper() in _BOOLEAN_BINARY_OPS
    if isinstance(node, UnaryOp):
        return node.op.upper() == "NOT"
    return isinstance(node, (InList, Between, Like, IsNull, Exists))


class ExpressionCompiler:
    """Compiles expressions of a fixed schema into ``row -> value`` closures.

    Mirrors the public surface of :class:`ExpressionEvaluator`: ``compile``
    replaces ``evaluate`` (returning a closure instead of a value) and
    ``predicate`` wraps a compiled boolean expression in the three-valued
    True/False/None convention used by Filter and the join operators.
    """

    def __init__(self, schema: Schema,
                 subquery_executor: Optional[Callable[[Node], "object"]] = None):
        self.schema = schema
        self._subquery_executor = subquery_executor

    # -- memoization ---------------------------------------------------------

    def _memoized(self, kind: str, nodes: tuple, build: Callable[[], Any]) -> Any:
        """Build-or-recall a closure for ``nodes`` against this schema.

        Subquery-bearing expressions fold their subquery's result into the
        closure, so they are bound to this compiler's executor and lifetime
        — the memo records them as never-memoize and rebuilds each time.
        """
        key = (kind, tuple(map(id, nodes)), self.schema.memo_token)
        found, fn = _MEMO.get(key, nodes)
        if found:
            return fn if fn is not None else build()
        private = any(
            isinstance(n, (Subquery, Exists)) for root in nodes for n in walk(root)
        )
        fn = build()
        _MEMO.put(key, nodes, None if private else fn)
        return fn

    # -- public API ----------------------------------------------------------

    def compile(self, node: Node) -> CompiledExpr:
        return self._memoized("expr", (node,), lambda: self._compile_root(node))

    def _compile_root(self, node: Node) -> CompiledExpr:
        fn = self._compile(node)
        if _is_constant(node):
            fn = _fold(fn)
        return fn

    def predicate(self, node: Node) -> Callable[[Row], Optional[bool]]:
        return self._memoized("pred", (node,), lambda: self._predicate(node))

    def _predicate(self, node: Node) -> Callable[[Row], Optional[bool]]:
        fn = self.compile(node)
        if _returns_bool(node):
            # The compiled closure already yields True/False/None.
            return fn

        def check(row: Row) -> Optional[bool]:
            value = fn(row)
            if value is None:
                return None
            return bool(value)

        return check

    def projection(self, expressions: Sequence[Node]) -> Callable[[Row], tuple]:
        """Compile a list of output expressions into one ``row -> tuple``.

        All-column projections use :func:`operator.itemgetter`, which builds
        the output tuple without re-entering Python per column.
        """
        expressions = tuple(expressions)
        return self._memoized("proj", expressions,
                              lambda: self._projection(expressions))

    def _projection(self, expressions: Sequence[Node]) -> Callable[[Row], tuple]:
        if expressions and all(isinstance(expr, ColumnRef) for expr in expressions):
            try:
                positions = [
                    self.schema.index_of(expr.name, expr.table) for expr in expressions
                ]
            except Exception:
                positions = None
            if positions is not None:
                if len(positions) == 1:
                    index = positions[0]
                    return lambda row: (row[index],)
                return itemgetter(*positions)
        compiled = [self.compile(expr) for expr in expressions]
        # Small arities get dedicated closures; the generic fallback pays for
        # generator machinery on every row.
        if len(compiled) == 1:
            only = compiled[0]
            return lambda row: (only(row),)
        if len(compiled) == 2:
            first, second = compiled
            return lambda row: (first(row), second(row))
        if len(compiled) == 3:
            first, second, third = compiled
            return lambda row: (first(row), second(row), third(row))
        if len(compiled) == 4:
            first, second, third, fourth = compiled
            return lambda row: (first(row), second(row), third(row), fourth(row))
        return lambda row: tuple(fn(row) for fn in compiled)

    def sort_key(self, node: Node) -> Callable[[Row], tuple]:
        """Compile an ORDER BY expression to a total-order key function."""
        fn = self.compile(node)
        return lambda row: sort_key(fn(row))

    # -- dispatch -------------------------------------------------------------

    def _compile(self, node: Node) -> CompiledExpr:
        if isinstance(node, Literal):
            value = node.value
            return lambda row: value
        if isinstance(node, ColumnRef):
            try:
                index = self.schema.index_of(node.name, node.table)
            except Exception as exc:
                return _raising(exc)
            return lambda row: row[index]
        if isinstance(node, BinaryOp):
            return self._binary(node)
        if isinstance(node, UnaryOp):
            return self._unary(node)
        if isinstance(node, FunctionCall):
            return self._function(node)
        if isinstance(node, InList):
            return self._in_list(node)
        if isinstance(node, Between):
            return self._between(node)
        if isinstance(node, Like):
            return self._like(node)
        if isinstance(node, IsNull):
            operand = self.compile(node.expr)
            if node.negated:
                return lambda row: operand(row) is not None
            return lambda row: operand(row) is None
        if isinstance(node, Case):
            return self._case(node)
        if isinstance(node, Subquery):
            return self._scalar_subquery(node)
        if isinstance(node, Exists):
            return self._exists(node)
        if isinstance(node, Star):
            return _raising(
                EvaluationError("'*' is only valid inside COUNT(*) or a select list")
            )
        return _raising(EvaluationError(f"cannot evaluate expression {node!r}"))

    # -- operators -------------------------------------------------------------

    def _binary(self, node: BinaryOp) -> CompiledExpr:
        op = node.op.upper()

        if op == "AND":
            left, right = self.compile(node.left), self.compile(node.right)

            def and_(row: Row) -> Optional[bool]:
                lhs = left(row)
                if lhs is not None and not lhs:
                    return False
                rhs = right(row)
                if rhs is not None and not rhs:
                    return False
                if lhs is None or rhs is None:
                    return None
                return True

            return and_
        if op == "OR":
            left, right = self.compile(node.left), self.compile(node.right)

            def or_(row: Row) -> Optional[bool]:
                lhs = left(row)
                if lhs is not None and lhs:
                    return True
                rhs = right(row)
                if rhs is not None and rhs:
                    return True
                if lhs is None or rhs is None:
                    return None
                return False

            return or_

        left, right = self.compile(node.left), self.compile(node.right)

        if op == "=":
            if isinstance(node.right, Literal):
                return self._equal_const(left, node.right.value, negated=False)
            return lambda row: sql_equal(left(row), right(row))
        if op == "<>":
            if isinstance(node.right, Literal):
                return self._equal_const(left, node.right.value, negated=True)

            def not_equal(row: Row) -> Optional[bool]:
                equal = sql_equal(left(row), right(row))
                return None if equal is None else not equal

            return not_equal
        if op in ("<", "<=", ">", ">="):
            if (
                isinstance(node.right, Literal)
                and not isinstance(node.right.value, bool)
                and isinstance(node.right.value, (int, float))
            ):
                return self._compare_numeric_const(op, left, node.right.value)
            return self._comparison(op, left, right)
        if op in ("+", "-", "*", "/", "%"):
            if (
                isinstance(node.right, Literal)
                and not isinstance(node.right.value, bool)
                and isinstance(node.right.value, (int, float))
            ):
                return self._arithmetic_const(op, left, node.right.value)
            return self._arithmetic(op, left, right)
        if op == "||":

            def concat(row: Row) -> Any:
                lhs, rhs = left(row), right(row)
                if lhs is None or rhs is None:
                    return None
                return f"{lhs}{rhs}"

            return concat
        return _raising(EvaluationError(f"unsupported operator {node.op!r}"))

    @staticmethod
    def _comparison(op: str, left: CompiledExpr, right: CompiledExpr) -> CompiledExpr:
        direct = _DIRECT_COMPARISONS[op]

        def compare(row: Row) -> Optional[bool]:
            lhs, rhs = left(row), right(row)
            if lhs is None or rhs is None:
                return None
            # Plain numerics take the fast path, float-coerced exactly as
            # sql_compare would; everything else goes through the three-valued
            # comparator (strings, bools, type errors).
            if (type(lhs) is int or type(lhs) is float) and (
                type(rhs) is int or type(rhs) is float
            ):
                return direct(float(lhs), float(rhs))
            comparison = sql_compare(lhs, rhs)
            return None if comparison is None else direct(comparison, 0)

        return compare

    @staticmethod
    def _compare_numeric_const(op: str, left: CompiledExpr, constant) -> CompiledExpr:
        """``expr <op> numeric-literal``: the common filter shape."""
        direct = _DIRECT_COMPARISONS[op]
        coerced = float(constant)

        def compare(row: Row) -> Optional[bool]:
            value = left(row)
            if value is None:
                return None
            # Float coercion mirrors sql_compare (matters for ints >= 2**53).
            if type(value) is int or type(value) is float:
                return direct(float(value), coerced)
            comparison = sql_compare(value, constant)
            return None if comparison is None else direct(comparison, 0)

        return compare

    @staticmethod
    def _equal_const(left: CompiledExpr, constant, negated: bool) -> CompiledExpr:
        """``expr = literal`` / ``expr <> literal`` with a type-matched fast path."""
        if constant is None:
            # Still evaluate the operand: resolution/evaluation errors must
            # surface exactly as they would interpreted.
            def equal_null(row: Row) -> None:
                left(row)
                return None

            return equal_null
        if isinstance(constant, str):

            def equal_string(row: Row) -> Optional[bool]:
                value = left(row)
                if type(value) is str:
                    return (value != constant) if negated else (value == constant)
                if value is None:
                    return None
                equal = sql_equal(value, constant)
                return None if equal is None else (not equal if negated else equal)

            return equal_string
        if isinstance(constant, (int, float)) and not isinstance(constant, bool):
            coerced = float(constant)

            def equal_number(row: Row) -> Optional[bool]:
                value = left(row)
                # Float coercion mirrors sql_equal (matters for ints >= 2**53).
                if type(value) is int or type(value) is float:
                    return (float(value) != coerced) if negated else (float(value) == coerced)
                if value is None:
                    return None
                equal = sql_equal(value, constant)
                return None if equal is None else (not equal if negated else equal)

            return equal_number

        def equal(row: Row) -> Optional[bool]:
            result = sql_equal(left(row), constant)
            return None if result is None else (not result if negated else result)

        return equal

    @staticmethod
    def _arithmetic_const(op: str, left: CompiledExpr, constant) -> CompiledExpr:
        """``expr <op> numeric-literal`` (projection arithmetic, conversions)."""
        apply = _ARITHMETIC_OPS[op]
        divides = op in ("/", "%")

        def arith_const(row: Row) -> Any:
            value = left(row)
            if value is None:
                return None
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                if divides:
                    try:
                        return apply(value, constant)
                    except ZeroDivisionError:
                        return None
                return apply(value, constant)
            raise EvaluationError(f"arithmetic on non-numeric value {value!r}")

        return arith_const

    @staticmethod
    def _arithmetic(op: str, left: CompiledExpr, right: CompiledExpr) -> CompiledExpr:
        apply = _ARITHMETIC_OPS[op]
        divides = op in ("/", "%")

        def arith(row: Row) -> Any:
            lhs, rhs = left(row), right(row)
            if lhs is None or rhs is None:
                return None
            if not isinstance(lhs, (int, float)) or isinstance(lhs, bool):
                raise EvaluationError(f"arithmetic on non-numeric value {lhs!r}")
            if not isinstance(rhs, (int, float)) or isinstance(rhs, bool):
                raise EvaluationError(f"arithmetic on non-numeric value {rhs!r}")
            if divides:
                try:
                    return apply(lhs, rhs)
                except ZeroDivisionError:
                    return None
            return apply(lhs, rhs)

        return arith

    def _unary(self, node: UnaryOp) -> CompiledExpr:
        operand = self.compile(node.operand)
        if node.op.upper() == "NOT":

            def negate_bool(row: Row) -> Optional[bool]:
                value = _as_bool(operand(row))
                return None if value is None else not value

            return negate_bool
        if node.op == "-":

            def negate(row: Row) -> Any:
                value = operand(row)
                if value is None:
                    return None
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise EvaluationError(f"cannot negate {value!r}")
                return -value

            return negate
        return _raising(EvaluationError(f"unsupported unary operator {node.op!r}"))

    # -- functions and predicates ----------------------------------------------

    def _function(self, node: FunctionCall) -> CompiledExpr:
        if is_aggregate_call(node):
            slot = aggregate_slot_name(node)
            for index, attribute in enumerate(self.schema):
                if attribute.qualifier == AGGREGATE_QUALIFIER and attribute.name == slot:
                    return lambda row: row[index]
        name = node.name.upper()
        fn = _SCALAR_FUNCTIONS.get(name)
        if fn is None:
            return _raising(EvaluationError(
                f"unknown function {name!r} (aggregates are only valid with GROUP BY handling)"
            ))
        args = [self.compile(arg) for arg in node.args]

        def call(row: Row) -> Any:
            try:
                return fn(*[arg(row) for arg in args])
            except EvaluationError:
                raise
            except Exception as exc:  # pragma: no cover - defensive
                raise EvaluationError(f"error evaluating {name}: {exc}") from exc

        return call

    def _in_list(self, node: InList) -> CompiledExpr:
        value_fn = self.compile(node.expr)
        negated = node.negated

        if len(node.items) == 1 and isinstance(node.items[0], Subquery):
            subquery = node.items[0]

            def members_of(row: Row) -> List[Any]:
                relation = self._run_subquery(subquery)
                return [r[0] for r in relation.rows]

            members_fn: Callable[[Row], List[Any]] = _fold(members_of)
        else:
            item_fns = [self.compile(item) for item in node.items]
            members_fn = lambda row: [fn(row) for fn in item_fns]
            if all(_is_constant(item) for item in node.items):
                members_fn = _fold(members_fn)

        def in_list(row: Row) -> Optional[bool]:
            value = value_fn(row)
            members = members_fn(row)
            if value is None:
                return None
            saw_null = False
            for member in members:
                equal = sql_equal(value, member)
                if equal is True:
                    return False if negated else True
                if equal is None:
                    saw_null = True
            if saw_null:
                return None
            return True if negated else False

        return in_list

    def _between(self, node: Between) -> CompiledExpr:
        value_fn = self.compile(node.expr)
        low_fn = self.compile(node.low)
        high_fn = self.compile(node.high)
        negated = node.negated

        def between(row: Row) -> Optional[bool]:
            value, low, high = value_fn(row), low_fn(row), high_fn(row)
            low_cmp = sql_compare(value, low) if value is not None and low is not None else None
            high_cmp = sql_compare(value, high) if value is not None and high is not None else None
            if low_cmp is None or high_cmp is None:
                return None
            inside = low_cmp >= 0 and high_cmp <= 0
            return not inside if negated else inside

        return between

    def _like(self, node: Like) -> CompiledExpr:
        value_fn = self.compile(node.expr)
        negated = node.negated

        if isinstance(node.pattern, Literal):
            pattern = node.pattern.value
            regex = like_to_regex(str(pattern)) if pattern is not None else None

            def like_constant(row: Row) -> Optional[bool]:
                value = value_fn(row)
                if value is None or regex is None:
                    return None
                matched = bool(regex.match(str(value)))
                return not matched if negated else matched

            return like_constant

        pattern_fn = self.compile(node.pattern)
        cache: dict = {}

        def like(row: Row) -> Optional[bool]:
            value, pattern = value_fn(row), pattern_fn(row)
            if value is None or pattern is None:
                return None
            regex = cache.get(pattern)
            if regex is None:
                regex = like_to_regex(str(pattern))
                cache[pattern] = regex
            matched = bool(regex.match(str(value)))
            return not matched if negated else matched

        return like

    def _case(self, node: Case) -> CompiledExpr:
        branches = [
            (self.compile(condition), self.compile(value))
            for condition, value in node.whens
        ]
        default = self.compile(node.default) if node.default is not None else None

        def case(row: Row) -> Any:
            for condition, value in branches:
                if _as_bool(condition(row)) is True:
                    return value(row)
            if default is not None:
                return default(row)
            return None

        return case

    # -- subqueries ------------------------------------------------------------

    def _run_subquery(self, node: Subquery):
        if self._subquery_executor is None:
            raise EvaluationError("subqueries are not supported in this evaluation context")
        return self._subquery_executor(node.query)

    def _scalar_subquery(self, node: Subquery) -> CompiledExpr:
        def scalar(row: Row) -> Any:
            relation = self._run_subquery(node)
            if len(relation.rows) == 0:
                return None
            if len(relation.rows) > 1 or len(relation.schema) != 1:
                raise EvaluationError("scalar subquery must return a single value")
            return relation.rows[0][0]

        return _fold(scalar)

    def _exists(self, node: Exists) -> CompiledExpr:
        negated = node.negated

        def exists(row: Row) -> bool:
            relation = self._run_subquery(node.subquery)
            result = len(relation.rows) > 0
            return not result if negated else result

        return _fold(exists)


# ---------------------------------------------------------------------------
# Convenience wrappers
# ---------------------------------------------------------------------------


def compile_expression(node: Node, schema: Schema,
                       subquery_executor: Optional[Callable[[Node], "object"]] = None,
                       ) -> CompiledExpr:
    """Compile one expression against a schema."""
    return ExpressionCompiler(schema, subquery_executor).compile(node)


def compile_predicate(node: Node, schema: Schema,
                      subquery_executor: Optional[Callable[[Node], "object"]] = None,
                      ) -> Callable[[Row], Optional[bool]]:
    """Compile a row predicate returning True/False/None (SQL 3VL)."""
    return ExpressionCompiler(schema, subquery_executor).predicate(node)


def compile_projection(expressions: Sequence[Node], schema: Schema,
                       subquery_executor: Optional[Callable[[Node], "object"]] = None,
                       ) -> Callable[[Row], tuple]:
    """Compile a select list into a single ``row -> tuple`` closure."""
    return ExpressionCompiler(schema, subquery_executor).projection(expressions)
