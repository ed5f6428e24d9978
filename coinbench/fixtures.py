"""Seeded federations and the benchmark's own record of the data it loaded.

Two federations are built from public constructors of ``repro``:

* ``main`` — the Figure-2 paper sources (``r1`` with per-row currency, so a
  financial column mediates into three branches; ``r2`` in USD; the exchange
  web wrapper ``r3``) plus sixteen single-convention financial sources
  ``fin1``..``fin16`` of 200 companies each.  Used by ``warm_repeat``,
  ``adhoc_mediate`` and ``served_mixed``.
* ``bulk`` — four financial sources of 20,000 companies each plus the
  exchange wrapper.  Used by ``bulk_stream``.

Every row handed to a source is also kept in a :class:`Dataset`, which is all
the oracle (``oracle.py``) reads: it never asks the mediator for anything.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.coin.context import Context
from repro.demo.datasets import financials_rows, ground_truth_usd
from repro.demo.scenarios import build_exchange_wrapper, build_paper_coin_system
from repro.federation import Federation
from repro.relational.relation import relation_from_rows
from repro.sources.exchange import DEFAULT_RATES, complete_rates
from repro.sources.memory import MemorySQLSource
from repro.wrappers.wrapper import RelationalWrapper

#: The rate table source rows are derived with (identity and inverse quotes
#: added), as ``financials_rows`` derives them.
RATES: Dict[Tuple[str, str], float] = complete_rates(DEFAULT_RATES)

#: The same quotes as the exchange web source publishes them (six decimals):
#: the "known rates" the oracle converts with.
QUOTES: Dict[Tuple[str, str], float] = {pair: float(f"{rate:.6f}") for pair, rate in RATES.items()}

#: Reporting conventions cycled over the ``fin`` sources (currency, scale).
FIN_CONVENTIONS = (("USD", 1), ("JPY", 1000), ("EUR", 1000000),
                   ("GBP", 1), ("SGD", 1000), ("KRW", 1000000))

#: Receiver contexts of the main federation: (currency, scale factor).
RECEIVERS: Dict[str, Tuple[str, int]] = {
    "c_receiver": ("USD", 1),
    "c_receiver_jpy": ("JPY", 1000),
    "c_receiver_eur": ("EUR", 1000),
}

#: Currencies with a direct published quote to and from every receiver
#: currency above.  Non-USD receivers only read sources in these currencies:
#: the exchange source has no GBP/SGD/KRW quote against JPY or EUR.
TRIANGLE = ("USD", "JPY", "EUR")

MAIN_SOURCES = 16
MAIN_COMPANIES = 200
PAPER_EXTRA_COMPANIES = 40
BULK_SOURCES = 4
BULK_COMPANIES = 20000


@dataclass
class Table:
    """The rows one relation holds, in its source's own convention.

    Rows are ``(cname, revenue, expenses, currency)``; ``r1`` has no
    expenses and ``r2`` no revenue or currency (``None``).  ``scale`` gives
    the scale factor per currency of the row.
    """

    name: str
    wrapper: str
    source: MemorySQLSource
    rows: List[Tuple] = field(default_factory=list)
    scale_by_currency: Dict[str, int] = field(default_factory=dict)
    fixed_currency: Optional[str] = None

    def scale(self, currency: str) -> int:
        return self.scale_by_currency.get(currency, 1)


@dataclass
class Dataset:
    """All rows loaded into one federation, plus the log of later writes."""

    federation: Federation
    tables: Dict[str, Table]
    companies: Dict[str, List[str]]
    #: Number of writes applied; answers are checked against a version.
    version: int = 0
    #: (version after the write, relation, rows appended) per write.
    writes: List[Tuple[int, str, List[Tuple]]] = field(default_factory=list)

    def rows_at(self, relation: str, version: int) -> List[Tuple]:
        """The relation's rows as they stood after ``version`` writes."""
        table = self.tables[relation]
        appended = sum(len(rows) for v, rel, rows in self.writes
                       if rel == relation and v > version)
        return table.rows[:len(table.rows) - appended]


def company_list(prefix: str, count: int) -> List[str]:
    return [f"{prefix}{index:05d}" for index in range(count)]


def _fin_context(index: int, currency: str, scale: int) -> Context:
    context = Context(f"c_fin{index}", f"fin{index}: {currency} at scale {scale}")
    context.declare_constant("companyFinancials", "currency", currency)
    context.declare_constant("companyFinancials", "scaleFactor", scale)
    return context


def _register_fin_sources(federation: Federation, system, tables: Dict[str, Table],
                          companies: List[str], count: int, seed: int) -> None:
    for index in range(1, count + 1):
        currency, scale = FIN_CONVENTIONS[(index - 1) % len(FIN_CONVENTIONS)]
        relation, source_name = f"fin{index}", f"finsource{index}"
        system.add_context(_fin_context(index, currency, scale))
        rows = financials_rows(companies, currency, scale, seed=seed + index * 101)
        source = MemorySQLSource(source_name, description=f"{currency}/{scale} financials")
        source.add_relation(relation_from_rows(
            relation,
            ["cname:string", "revenue:float", "expenses:float", "currency:string"],
            rows, qualifier=None,
        ))
        federation.register_wrapper(RelationalWrapper(source))
        system.elevations.elevate(source_name, relation, f"c_fin{index}", {
            "cname": "companyName",
            "revenue": "companyFinancials",
            "expenses": "companyFinancials",
            "currency": "currencyType",
        })
        tables[relation] = Table(relation, source_name, source, list(rows),
                                 {currency: scale}, fixed_currency=currency)


def build_main(seed: int) -> Dataset:
    """The paper federation (with seeded extra companies) plus 16 sources."""
    system = build_paper_coin_system()
    receiver = Context("c_receiver_eur", "Receiver: EUR, scale factor 1000")
    receiver.declare_constant("companyFinancials", "currency", "EUR")
    receiver.declare_constant("companyFinancials", "scaleFactor", 1000)
    system.add_context(receiver)
    federation = Federation(system, default_receiver_context="c_receiver", name="coinbench-main")

    rng = random.Random(seed * 7919 + 1)
    extra = company_list(f"P{seed % 1000:03d}-", PAPER_EXTRA_COMPANIES)
    r1_rows: List[Tuple] = [("IBM", 1_000_000.0, None, "USD"), ("NTT", 1_000_000.0, None, "JPY")]
    r2_rows: List[Tuple] = [("IBM", None, 1_500_000.0, None), ("NTT", None, 5_000_000.0, None)]
    for name in extra:
        currency = rng.choice(TRIANGLE)
        scale = 1000 if currency == "JPY" else 1
        revenue_usd = rng.randint(1, 500) * 100_000
        r1_rows.append((name, round(revenue_usd / RATES[(currency, "USD")] / scale, 4), None, currency))
        r2_rows.append((name, None, float(int(revenue_usd * rng.uniform(0.5, 1.5))), None))

    source1 = MemorySQLSource("source1", description="on-line database holding r1")
    source1.add_relation(relation_from_rows(
        "r1", ["cname:string", "revenue:float", "currency:string"],
        [(c, r, cur) for c, r, _, cur in r1_rows], qualifier=None))
    source2 = MemorySQLSource("source2", description="on-line database holding r2")
    source2.add_relation(relation_from_rows(
        "r2", ["cname:string", "expenses:float"],
        [(c, e) for c, _, e, _ in r2_rows], qualifier=None))
    federation.register_wrapper(RelationalWrapper(source1))
    federation.register_wrapper(RelationalWrapper(source2))
    tables = {
        "r1": Table("r1", "source1", source1, r1_rows, {"JPY": 1000}),
        "r2": Table("r2", "source2", source2, r2_rows, {}, fixed_currency="USD"),
    }
    fin_companies = company_list(f"F{seed % 1000:03d}-", MAIN_COMPANIES)
    _register_fin_sources(federation, system, tables, fin_companies, MAIN_SOURCES, seed)
    federation.register_wrapper(build_exchange_wrapper(), estimate_rows=False)
    system.validate()
    return Dataset(federation, tables, {"paper": ["IBM", "NTT"] + extra, "fin": fin_companies})


def build_bulk(seed: int) -> Dataset:
    """Four 20,000-company financial sources plus the exchange wrapper."""
    system = build_paper_coin_system()
    federation = Federation(system, default_receiver_context="c_receiver", name="coinbench-bulk")
    tables: Dict[str, Table] = {}
    companies = company_list(f"B{seed % 1000:03d}-", BULK_COMPANIES)
    _register_fin_sources(federation, system, tables, companies, BULK_SOURCES, seed)
    federation.register_wrapper(build_exchange_wrapper(), estimate_rows=False)
    system.validate()
    return Dataset(federation, tables, {"fin": companies})


def usd_truth(dataset: Dataset, relation: str, seed: int) -> Dict[str, Tuple[int, int]]:
    """The USD figures a ``fin`` relation's initial rows were derived from."""
    index = int(relation[3:])
    return ground_truth_usd(dataset.companies["fin"], seed=seed + index * 101)


def append_rows(dataset: Dataset, relation: str, rng: random.Random, count: int = 10) -> None:
    """Write: append ``count`` new companies to a source, then invalidate it.

    The rows go in through ``MemorySQLSource.load_sql`` and the federation
    is told through ``invalidate_source_cache``, as an operator would after
    an autonomous source changed.
    """
    table = dataset.tables[relation]
    rows: List[Tuple] = []
    statements: List[str] = []
    for offset in range(count):
        name = f"W{dataset.version + 1:05d}-{offset:02d}"
        currency = table.fixed_currency or rng.choice(TRIANGLE)
        scale = table.scale(currency)
        revenue_usd = rng.randint(1, 500) * 1_000_000
        expenses_usd = int(revenue_usd * rng.uniform(0.5, 1.5))
        revenue = round(revenue_usd / RATES[(currency, "USD")] / scale, 4)
        expenses = round(expenses_usd / RATES[(currency, "USD")] / scale, 4)
        if relation == "r1":
            rows.append((name, revenue, None, currency))
            statements.append(f"INSERT INTO r1 VALUES ('{name}', {revenue!r}, '{currency}')")
        elif relation == "r2":
            rows.append((name, None, float(expenses_usd), None))
            statements.append(f"INSERT INTO r2 VALUES ('{name}', {float(expenses_usd)!r})")
        else:
            rows.append((name, revenue, expenses, currency))
            statements.append(f"INSERT INTO {relation} VALUES "
                              f"('{name}', {revenue!r}, {expenses!r}, '{currency}')")
    table.source.load_sql(*statements)
    table.rows.extend(rows)
    dataset.version += 1
    dataset.writes.append((dataset.version, relation, rows))
    dataset.federation.invalidate_source_cache(wrapper=table.wrapper)


def sources_for(context: str) -> List[str]:
    """``fin`` relations a receiver context can read with direct quotes."""
    currency = RECEIVERS[context][0]
    return [f"fin{i}" for i in range(1, MAIN_SOURCES + 1)
            if currency == "USD" or FIN_CONVENTIONS[(i - 1) % 6][0] in TRIANGLE]

