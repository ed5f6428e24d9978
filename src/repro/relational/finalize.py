"""SELECT finalization as one chain of physical operators.

Everything a SELECT does after FROM/WHERE — grouping, aggregates and HAVING,
the select list, ORDER BY, DISTINCT and LIMIT/OFFSET — is built here, once,
for both users: the local SQL processor (every source's own processor) and
the streaming engine's branch pipelines.  The chain is

    Project | Aggregate  →  Sort  →  [Trim]  →  Distinct  →  Limit

ORDER BY keys are positions in the projected row.  A key that names an
output alias, a 1-based output position or a select-list expression reads
that output column; any other key (a source column outside the select list,
an aggregate, a constant) is projected as a *hidden* column after the select
list, and ``Trim`` drops the hidden columns once the rows are sorted.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import SchemaError
from repro.relational.budget import MemoryBudget
from repro.relational.compile import aggregate_slot_name
from repro.relational.operators import (
    Aggregate,
    Distinct,
    Limit,
    PhysicalOperator,
    Project,
    Sort,
    Trim,
)
from repro.relational.schema import Schema
from repro.relational.types import sort_key, value_key
from repro.sql.ast import (
    ColumnRef,
    FunctionCall,
    Literal,
    Node,
    Select,
    SelectItem,
    Star,
    Subquery,
    is_aggregate_call,
    item_names,
)


def expand_star_items(items: Sequence[SelectItem], schema: Schema) -> List[SelectItem]:
    """Expand ``*`` / ``t.*`` select items against the input schema."""
    expanded: List[SelectItem] = []
    for item in items:
        if isinstance(item.expr, Star):
            table = item.expr.table
            for attribute in schema:
                if table is None or (attribute.qualifier or "").lower() == table.lower():
                    expanded.append(
                        SelectItem(ColumnRef(name=attribute.name, table=attribute.qualifier))
                    )
            if not expanded:
                raise SchemaError(f"'*' expansion found no columns for {table!r}")
        else:
            expanded.append(item)
    return expanded


def _aggregates(node: Node) -> Iterator[FunctionCall]:
    """Aggregate calls under ``node``, outside subqueries (their own scope)
    and outside aggregate arguments (a nested aggregate is an error)."""
    if isinstance(node, (ColumnRef, Literal, Subquery)):
        return
    if is_aggregate_call(node):
        yield node
        return
    for child in node.children():
        yield from _aggregates(child)


def _aggregate_calls(nodes: Sequence[Optional[Node]]) -> List[FunctionCall]:
    """The distinct aggregate calls in ``nodes``, in first-appearance order."""
    found: dict = {}
    for node in nodes:
        if node is not None:
            for call in _aggregates(node):
                found.setdefault(aggregate_slot_name(call), call)
    return list(found.values())


def _is_grouped(select: Select) -> bool:
    """True when the SELECT aggregates: GROUP BY, HAVING, or an aggregate
    call in the select list or ORDER BY."""
    if select.group_by or select.having is not None:
        return True
    return any(
        next(_aggregates(item.expr), None) is not None
        for items in (select.items, select.order_by)
        for item in items
    )


def commuting_limit(select: Select) -> Optional[int]:
    """How many input rows, taken in final order, decide the SELECT's answer.

    LIMIT commutes with finalization only when nothing after it can change
    the row count: DISTINCT and grouping collapse rows after a bound would
    have cut them.  Returns ``LIMIT + OFFSET``, or None when it does not
    commute.  The planner pushes this bound to sources and the ORDER BY sort
    keeps only this many rows (top-k).
    """
    if select.limit is None or select.distinct or _is_grouped(select):
        return None
    return select.limit + (select.offset or 0)


def _distinct_key(row: Sequence[object]) -> Tuple:
    """The duplicate test of SELECT DISTINCT."""
    return tuple(value_key(value) for value in row)


def _identity(operator: PhysicalOperator) -> PhysicalOperator:
    return operator


def build_finalization(
    select: Select,
    child: PhysicalOperator,
    subquery_executor: Optional[Callable[[Node], object]] = None,
    budget: Optional[MemoryBudget] = None,
    top_k: Optional[int] = None,
    instrument: Callable[[PhysicalOperator], PhysicalOperator] = _identity,
) -> PhysicalOperator:
    """Finish ``select`` over ``child`` (its FROM/WHERE rows).

    ``top_k`` bounds the ORDER BY sort; pass :func:`commuting_limit` (or a
    plan's fetch limit derived from it).  ``budget`` is shared by Sort and
    Distinct; ``instrument`` wraps every operator built.
    """
    items = expand_star_items(select.items, child.schema)
    expressions = [item.expr for item in items]
    names = item_names(items)

    hidden: List[Node] = []
    sort_positions: List[Tuple[int, bool]] = []
    if select.order_by:
        alias_positions = {name.lower(): index for index, name in enumerate(names)}
        expression_positions: dict = {}
        for index, expr in enumerate(expressions):
            expression_positions.setdefault(expr, index)
    for order in select.order_by:
        expr = order.expr
        position: Optional[int] = None
        if isinstance(expr, ColumnRef) and expr.table is None:
            position = alias_positions.get(expr.name.lower())
        elif (isinstance(expr, Literal) and isinstance(expr.value, int)
                and not isinstance(expr.value, bool)
                and 1 <= expr.value <= len(expressions)):
            position = expr.value - 1
        if position is None:
            position = expression_positions.get(expr)
        if position is None:
            position = len(expressions) + len(hidden)
            hidden.append(expr)
        sort_positions.append((position, order.ascending))

    projected = expressions + hidden
    projected_names = names + [f"$order{index}" for index in range(len(hidden))]
    if _is_grouped(select):
        operator = Aggregate(
            child, select.group_by,
            _aggregate_calls(projected + [select.having]),
            projected, projected_names, select.having, subquery_executor,
        )
    else:
        operator = Project(child, projected, projected_names, subquery_executor)
    operator = instrument(operator)

    if sort_positions:
        operator = instrument(Sort(
            operator,
            [(order.expr, order.ascending) for order in select.order_by],
            key_functions=[
                (lambda row, position=position: sort_key(row[position]), ascending)
                for position, ascending in sort_positions
            ],
            budget=budget,
            limit=top_k,
        ))
    if hidden:
        operator = instrument(Trim(operator, len(expressions)))
    if select.distinct:
        operator = instrument(Distinct(operator, budget=budget, key=_distinct_key))
    if select.limit is not None or select.offset is not None:
        operator = instrument(Limit(operator, select.limit, select.offset or 0))
    return operator
