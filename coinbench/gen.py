"""Seeded statement generators: the warm pool, the ad-hoc grammar, bulk reads.

The program under test receives only the SQL text and the receiver context
of each :class:`Statement`; ``kind`` and ``params`` are what the oracle
evaluates.  Constants are drawn between two adjacent data values (never on
one), at a seeded quantile of the values they compare against, so answer
sizes stay alike across seeds while the texts differ.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from fixtures import FIN_CONVENTIONS, RECEIVERS, Dataset, sources_for
from oracle import Oracle

PAPER_QUERY = ("SELECT r1.cname, r1.revenue FROM r1, r2 "
               "WHERE r1.cname = r2.cname AND r1.revenue > r2.expenses")
CONTEXTS = tuple(RECEIVERS)

#: Size of the warm pool; far below the plan/mediation cache capacity (128).
WARM_POOL_SIZE = 32
#: One ad-hoc cycle: the fixed share of each template per 20 statements.
#: ORDER BY/LIMIT and ungrouped aggregates run over single-branch sources
#: only; the multi-branch class is checked apart (:meth:`Generator.known_defects`).
ADHOC_CYCLE = (("pair",) * 6 + ("join3",) * 3 + ("arith",) * 3 + ("agg",) * 2
               + ("agg_r1", "total_fin", "paper", "topk_fin", "topk_fin", "filter_r1"))


@dataclass(frozen=True)
class Statement:
    sql: str
    context: str
    kind: str
    params: tuple
    relations: Tuple[str, ...]
    ordered: bool = False
    #: ORDER BY/LIMIT or an ungrouped aggregate over ``r1``, which mediates
    #: into several branches: the mediated union has no compound-level
    #: clause, so each branch orders, limits or aggregates on its own.
    multi_branch_clause: bool = False


def between(rng: random.Random, values: Sequence[float], low: float = 0.35,
            high: float = 0.65) -> float:
    """A constant strictly between two distinct adjacent values near a quantile."""
    ordered = sorted(values)
    start = int(len(ordered) * rng.uniform(low, high))
    for index in list(range(start, len(ordered) - 1)) + list(range(start - 1, -1, -1)):
        lo, hi = ordered[index], ordered[index + 1]
        if hi - lo > 1e-6 * max(abs(hi), 1.0):
            return lo + (hi - lo) * rng.uniform(0.25, 0.75)
    raise ValueError("no gap between values")


def _num(value: float) -> str:
    return repr(float(value))


class Generator:
    """Renders statements for one main-federation dataset."""

    def __init__(self, dataset: Dataset, oracle: Oracle, rng: random.Random):
        self.dataset = dataset
        self.oracle = oracle
        self.rng = rng

    def _col(self, relation: str, context: str, column: int) -> List[float]:
        return [row[column] for row in self.oracle.view(relation, context, 0)]

    def _fin(self, context: str, count: int) -> List[str]:
        return self.rng.sample(sources_for(context), count)

    def _conventions(self, context: str, *positions: int) -> List[str]:
        """One source per reporting convention, chosen by position.

        The warm pool fixes which conventions (and so which conversions) a
        statement involves; the seed picks among the sources sharing each.
        """
        allowed = sorted({FIN_CONVENTIONS[(int(r[3:]) - 1) % len(FIN_CONVENTIONS)]
                          for r in sources_for(context)}, key=FIN_CONVENTIONS.index)
        picked = []
        for position in positions:
            convention = allowed[position % len(allowed)]
            picked.append(self.rng.choice([
                r for r in sources_for(context)
                if FIN_CONVENTIONS[(int(r[3:]) - 1) % len(FIN_CONVENTIONS)] == convention]))
        return picked

    # -- templates -----------------------------------------------------------

    def paper(self, context: str, constrained: bool, low: float = 0.2,
              high: float = 0.5) -> Statement:
        threshold = None
        sql = PAPER_QUERY
        if constrained:
            threshold = between(self.rng, self._col("r1", context, 1), low, high)
            sql += f" AND r1.revenue > {_num(threshold)}"
        return Statement(sql, context, "paper", (threshold,), ("r1", "r2"))

    def filter(self, context: str, relation: Optional[str] = None,
               low: float = 0.35, high: float = 0.65) -> Statement:
        relation = relation or self._fin(context, 1)[0]
        threshold = between(self.rng, self._col(relation, context, 1), low, high)
        sql = (f"SELECT {relation}.cname, {relation}.revenue FROM {relation} "
               f"WHERE {relation}.revenue > {_num(threshold)}")
        return Statement(sql, context, "filter", (relation, threshold), (relation,))

    def pair(self, context: str, relations: Optional[List[str]] = None) -> Statement:
        a, b = relations or self._fin(context, 2)
        sql = (f"SELECT {a}.cname, {a}.revenue FROM {a}, {b} "
               f"WHERE {a}.cname = {b}.cname AND {a}.revenue > {b}.expenses")
        return Statement(sql, context, "pair", (a, b), (a, b))

    def join3(self, context: str) -> Statement:
        a, b, c = self._fin(context, 3)
        threshold = between(self.rng, self._col(b, context, 2), 0.6, 0.9)
        sql = (f"SELECT {a}.cname, {a}.revenue, {c}.expenses FROM {a}, {b}, {c} "
               f"WHERE {a}.cname = {b}.cname AND {b}.cname = {c}.cname "
               f"AND {a}.revenue > {c}.expenses AND {b}.expenses < {_num(threshold)}")
        return Statement(sql, context, "join3", (a, b, c, threshold), (a, b, c))

    def arith(self, context: str, relations: Optional[List[str]] = None,
              low: float = 0.35, high: float = 0.65) -> Statement:
        a, b = relations or self._fin(context, 2)
        right = self.oracle.index(b, context, 0)
        margins = [r - right[c][2] for c, r, _, _ in self.oracle.view(a, context, 0)]
        threshold = between(self.rng, margins, low, high)
        sql = (f"SELECT {a}.cname, {a}.revenue - {b}.expenses AS margin FROM {a}, {b} "
               f"WHERE {a}.cname = {b}.cname AND {a}.revenue - {b}.expenses > {_num(threshold)}")
        return Statement(sql, context, "arith", (a, b, threshold), (a, b))

    def agg(self, context: str) -> Statement:
        a, b = self._fin(context, 2)
        threshold = between(self.rng, self._col(a, context, 1), 0.2, 0.6)
        sql = (f"SELECT {b}.currency, COUNT(*) AS n, SUM({a}.revenue) AS total, "
               f"MAX({b}.expenses) AS top FROM {a}, {b} "
               f"WHERE {a}.cname = {b}.cname AND {a}.revenue > {_num(threshold)} "
               f"GROUP BY {b}.currency")
        return Statement(sql, context, "agg", (a, b, threshold), (a, b))

    def agg_r1(self, context: str) -> Statement:
        threshold = between(self.rng, self._col("r1", context, 1), 0.1, 0.5)
        sql = (f"SELECT r1.currency, COUNT(*) AS n, SUM(r1.revenue) AS total FROM r1 "
               f"WHERE r1.revenue > {_num(threshold)} GROUP BY r1.currency")
        return Statement(sql, context, "agg_r1", (threshold,), ("r1",))

    def total(self, context: str, relation: str) -> Statement:
        threshold = between(self.rng, self._col(relation, context, 1), 0.1, 0.5)
        sql = (f"SELECT COUNT(*) AS n, SUM({relation}.revenue) AS total FROM {relation} "
               f"WHERE {relation}.revenue > {_num(threshold)}")
        return Statement(sql, context, "total", (relation, threshold), (relation,),
                         multi_branch_clause=relation == "r1")

    def topk(self, context: str, relation: str) -> Statement:
        threshold = between(self.rng, self._col(relation, context, 1), 0.1, 0.4)
        k = self.rng.randint(1, 5)
        sql = (f"SELECT {relation}.cname, {relation}.revenue FROM {relation} "
               f"WHERE {relation}.revenue > {_num(threshold)} "
               f"ORDER BY {relation}.revenue DESC, {relation}.cname LIMIT {k}")
        return Statement(sql, context, "topk", (relation, threshold, k), (relation,),
                         ordered=True, multi_branch_clause=relation == "r1")

    # -- workloads -----------------------------------------------------------

    def warm_pool(self) -> List[Statement]:
        """32 repeated statements: the paper query family plus 16-source reads.

        The pool's shape is fixed — contexts, templates, the conventions each
        statement converts from, constants near the median — so its cost
        differs little across seeds; the seed picks sources, constants and
        data.
        """
        pool = [self.paper(context, False) for context in CONTEXTS]
        pool += [self.paper(context, True, 0.3, 0.4) for context in CONTEXTS]
        pool += [self.filter(context, "r1", 0.45, 0.55) for context in CONTEXTS[:2]]
        pool += [self.pair(CONTEXTS[i % 3], self._conventions(CONTEXTS[i % 3], i, i + 1))
                 for i in range(12)]
        pool += [self.filter(CONTEXTS[i % 3], self._conventions(CONTEXTS[i % 3], i)[0],
                             0.45, 0.55) for i in range(8)]
        pool += [self.arith(CONTEXTS[i % 3], self._conventions(CONTEXTS[i % 3], i + 2, i),
                            0.45, 0.55) for i in range(4)]
        assert len(pool) == WARM_POOL_SIZE
        self.rng.shuffle(pool)
        return pool

    def adhoc(self) -> Iterator[Statement]:
        """An endless stream of distinct statements in a fixed template mix."""
        seen = set()
        index = 0
        while True:
            cycle = list(ADHOC_CYCLE)
            self.rng.shuffle(cycle)
            for kind in cycle:
                context = CONTEXTS[index % len(CONTEXTS)]
                index += 1
                if kind == "topk_fin":
                    statement = self.topk(context, self._fin(context, 1)[0])
                elif kind == "total_fin":
                    statement = self.total(context, self._fin(context, 1)[0])
                elif kind == "filter_r1":
                    statement = self.filter(context, "r1")
                elif kind == "paper":
                    statement = self.paper(context, True)
                else:
                    statement = getattr(self, kind)(context)
                key = (statement.sql, statement.context)
                if key in seen:
                    continue
                seen.add(key)
                yield statement

    def known_defects(self) -> List[Statement]:
        """The multi-branch ORDER BY/LIMIT and ungrouped-aggregate class over ``r1``.

        The mediator returns wrong rows for it (one row per branch), so it is
        kept out of the measured mix, where every statement must succeed, and
        checked once per ``adhoc_mediate`` run instead.
        """
        return [statement for context in CONTEXTS
                for statement in (self.topk(context, "r1"), self.total(context, "r1"))]


def bulk_reads(dataset: Dataset, rng: random.Random) -> List[Statement]:
    """Twelve bulk reads (join, scan, aggregate per source), cycled in order."""
    relations = sorted(dataset.tables, key=lambda name: int(name[3:]))
    oracle = Oracle(dataset)
    reads = []
    for index, relation in enumerate(relations):
        partner = relations[(index + 1) % len(relations)]
        expenses = [row[2] for row in oracle.view(relation, "c_receiver", 0)]
        revenue = [row[1] for row in oracle.view(relation, "c_receiver", 0)]
        scan_at = between(rng, expenses, 0.0, 0.02)
        agg_at = between(rng, revenue, 0.4, 0.6)
        reads.append(Statement(
            f"SELECT {relation}.cname, {relation}.revenue, {partner}.expenses "
            f"FROM {relation}, {partner} WHERE {relation}.cname = {partner}.cname "
            f"AND {relation}.revenue > {partner}.expenses",
            "c_receiver", "bulk_join", (relation, partner), (relation, partner)))
        reads.append(Statement(
            f"SELECT {relation}.cname, {relation}.revenue FROM {relation} "
            f"WHERE {relation}.expenses > {_num(scan_at)}",
            "c_receiver", "bulk_scan", (relation, scan_at), (relation,)))
        reads.append(Statement(
            f"SELECT COUNT(*) AS n, SUM({relation}.revenue) AS total, "
            f"MAX({relation}.expenses) AS top FROM {relation} "
            f"WHERE {relation}.revenue > {_num(agg_at)}",
            "c_receiver", "bulk_agg", (relation, agg_at), (relation,)))
    return reads
