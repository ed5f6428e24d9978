"""Independent answer oracle: expected rows computed in plain Python.

The oracle reads only the benchmark's own record of the rows it loaded
(:class:`fixtures.Dataset`) and the published exchange-rate table, converts
each financial figure from its source's convention into the receiver's
(``value × source scale × published rate(source→receiver currency) ÷
receiver scale``), and evaluates each statement template directly.  It never calls
the mediator, the planner or the engine.

Answers are compared as multisets (or as sequences when the statement's
ORDER BY is total) with a relative float tolerance.
"""

from __future__ import annotations

import math
from collections import Counter, OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from fixtures import QUOTES, RECEIVERS, Dataset

REL_TOL = 1e-7
ABS_TOL = 1e-6
#: Rows the memo tables may hold; the least recently used entries go first,
#: so the benchmark's own memory stays flat however many statements a run
#: completes (it shares ``peak_rss_mb`` with the program).  Views are reused
#: by every statement over a relation; answers only by repeated statements.
MAX_VIEW_ROWS = 200_000
MAX_ANSWER_ROWS = 20_000

#: A converted row: (cname, revenue, expenses, raw currency).
View = Dict[str, Tuple[str, Optional[float], Optional[float], Optional[str]]]


def convert(value: Optional[float], currency: str, scale: int, context: str) -> Optional[float]:
    if value is None:
        return None
    to_currency, to_scale = RECEIVERS[context]
    rate = QUOTES[(currency, to_currency)]
    return value * scale * rate / to_scale


class _Memo:
    """An LRU of row lists bounded by the total number of rows held."""

    def __init__(self, max_rows: int):
        self.max_rows = max_rows
        self.rows = 0
        self.entries: "OrderedDict[tuple, List[Tuple]]" = OrderedDict()

    def get(self, key: tuple) -> Optional[List[Tuple]]:
        value = self.entries.get(key)
        if value is not None:
            self.entries.move_to_end(key)
        return value

    def put(self, key: tuple, value: List[Tuple]) -> None:
        self.entries[key] = value
        self.rows += len(value)
        while self.rows > self.max_rows and len(self.entries) > 1:
            _, evicted = self.entries.popitem(last=False)
            self.rows -= len(evicted)


class Oracle:
    """Expected answers for the statements of one dataset, memoized per version."""

    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        self._views = _Memo(MAX_VIEW_ROWS)
        self._answers = _Memo(MAX_ANSWER_ROWS)

    def view(self, relation: str, context: str, version: int) -> List[Tuple]:
        source_rows = self.dataset.rows_at(relation, version)
        key = (relation, context, len(source_rows))
        rows = self._views.get(key)
        if rows is None:
            table = self.dataset.tables[relation]
            rows = []
            for cname, revenue, expenses, currency in source_rows:
                row_currency = currency or table.fixed_currency
                scale = table.scale(row_currency)
                rows.append((cname,
                             convert(revenue, row_currency, scale, context),
                             convert(expenses, row_currency, scale, context),
                             currency))
            self._views.put(key, rows)
        return rows

    def index(self, relation: str, context: str, version: int) -> Dict[str, Tuple]:
        return {row[0]: row for row in self.view(relation, context, version)}

    def expected(self, statement, version: int) -> List[Tuple]:
        key = (statement.sql, statement.context, version)
        rows = self._answers.get(key)
        if rows is None:
            rows = EVALUATORS[statement.kind](self, statement, version)
            self._answers.put(key, rows)
        return rows


# -- template evaluators ----------------------------------------------------------
#
# Each mirrors the SQL its template in ``gen.py`` renders, over converted rows.


def _paper(oracle: Oracle, st, v: int) -> List[Tuple]:
    (threshold,) = st.params
    r2 = oracle.index("r2", st.context, v)
    out = []
    for cname, revenue, _, _ in oracle.view("r1", st.context, v):
        partner = r2.get(cname)
        if partner is None or not revenue > partner[2]:
            continue
        if threshold is None or revenue > threshold:
            out.append((cname, revenue))
    return out


def _filter(oracle: Oracle, st, v: int) -> List[Tuple]:
    relation, threshold = st.params
    return [(c, r) for c, r, _, _ in oracle.view(relation, st.context, v) if r > threshold]


def _pair(oracle: Oracle, st, v: int) -> List[Tuple]:
    left, right = st.params
    partner = oracle.index(right, st.context, v)
    return [(c, r) for c, r, _, _ in oracle.view(left, st.context, v)
            if c in partner and r > partner[c][2]]


def _join3(oracle: Oracle, st, v: int) -> List[Tuple]:
    a, b, c_rel, threshold = st.params
    bx, cx = oracle.index(b, st.context, v), oracle.index(c_rel, st.context, v)
    out = []
    for cname, revenue, _, _ in oracle.view(a, st.context, v):
        if cname in bx and cname in cx and revenue > cx[cname][2] and bx[cname][2] < threshold:
            out.append((cname, revenue, cx[cname][2]))
    return out


def _arith(oracle: Oracle, st, v: int) -> List[Tuple]:
    left, right, threshold = st.params
    partner = oracle.index(right, st.context, v)
    out = []
    for cname, revenue, _, _ in oracle.view(left, st.context, v):
        if cname in partner:
            margin = revenue - partner[cname][2]
            if margin > threshold:
                out.append((cname, margin))
    return out


def _agg(oracle: Oracle, st, v: int) -> List[Tuple]:
    left, right, threshold = st.params
    partner = oracle.index(right, st.context, v)
    groups: Dict[str, List[Tuple[float, float]]] = {}
    for cname, revenue, _, _ in oracle.view(left, st.context, v):
        if cname in partner and revenue > threshold:
            other = partner[cname]
            groups.setdefault(other[3], []).append((revenue, other[2]))
    return [(currency, len(pairs), sum(p[0] for p in pairs), max(p[1] for p in pairs))
            for currency, pairs in groups.items()]


def _agg_r1(oracle: Oracle, st, v: int) -> List[Tuple]:
    (threshold,) = st.params
    groups: Dict[str, List[float]] = {}
    for _, revenue, _, currency in oracle.view("r1", st.context, v):
        if revenue > threshold:
            groups.setdefault(currency, []).append(revenue)
    return [(currency, len(values), sum(values)) for currency, values in groups.items()]


def _total(oracle: Oracle, st, v: int) -> List[Tuple]:
    relation, threshold = st.params
    values = [r for _, r, _, _ in oracle.view(relation, st.context, v) if r > threshold]
    return [(len(values), sum(values) if values else None)]


def _topk(oracle: Oracle, st, v: int) -> List[Tuple]:
    relation, threshold, k = st.params
    rows = [(c, r) for c, r, _, _ in oracle.view(relation, st.context, v) if r > threshold]
    rows.sort(key=lambda row: (-row[1], row[0]))
    return rows[:k]


def _bulk_join(oracle: Oracle, st, v: int) -> List[Tuple]:
    left, right = st.params
    partner = oracle.index(right, st.context, v)
    return [(c, r, partner[c][2]) for c, r, _, _ in oracle.view(left, st.context, v)
            if c in partner and r > partner[c][2]]


def _bulk_scan(oracle: Oracle, st, v: int) -> List[Tuple]:
    relation, threshold = st.params
    return [(c, r) for c, r, e, _ in oracle.view(relation, st.context, v) if e > threshold]


def _bulk_agg(oracle: Oracle, st, v: int) -> List[Tuple]:
    relation, threshold = st.params
    rows = [(r, e) for _, r, e, _ in oracle.view(relation, st.context, v) if r > threshold]
    if not rows:
        return [(0, None, None)]
    return [(len(rows), sum(r for r, _ in rows), max(e for _, e in rows))]


EVALUATORS = {
    "paper": _paper, "filter": _filter, "pair": _pair, "join3": _join3,
    "arith": _arith, "agg": _agg, "agg_r1": _agg_r1, "total": _total, "topk": _topk,
    "bulk_join": _bulk_join, "bulk_scan": _bulk_scan, "bulk_agg": _bulk_agg,
}


# -- comparison -------------------------------------------------------------------


def _close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return a is b
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return a == b


def _rounded(row: Sequence) -> Tuple:
    return tuple(float(f"{value:.6g}") if isinstance(value, float) else value for value in row)


def _sort_key(row: Sequence) -> Tuple:
    return tuple((0, value) if isinstance(value, str) else (1, value if value is not None else -math.inf)
                 for value in row)


def rows_match(actual: Iterable[Sequence], expected: Sequence[Sequence], ordered: bool) -> bool:
    """True when ``actual`` equals ``expected`` up to float tolerance.

    Unordered answers are multisets.  For an ordered answer the rows must be
    the same multiset *and* appear in the expected order; rows whose sort
    keys differ only within the float tolerance may appear in either order.
    """
    actual = [tuple(row) for row in actual]
    expected = [tuple(row) for row in expected]
    if len(actual) != len(expected):
        return False
    if ordered:
        if actual == expected or _pairwise(actual, expected):
            return True
        # Near-ties may legitimately swap; fall through to the multiset check
        # and verify the order of the actual rows on its own.
        for before, after in zip(actual, actual[1:]):
            if after[1] > before[1] and not _close(after[1], before[1]):
                return False
    try:
        left, right = sorted(actual), sorted(expected)
        if left == right or _pairwise(left, right):
            return True
    except TypeError:  # NULL beside a number: use the slower paths below
        pass
    if Counter(map(_rounded, actual)) == Counter(map(_rounded, expected)):
        return True
    return _pairwise(sorted(actual, key=_sort_key), sorted(expected, key=_sort_key))


def _pairwise(left: Sequence[Sequence], right: Sequence[Sequence]) -> bool:
    return all(len(a) == len(e) and all(_close(x, y) for x, y in zip(a, e))
               for a, e in zip(left, right))
