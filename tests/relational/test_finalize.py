"""The one SELECT finalizer, held to stdlib sqlite3.

Every case runs through the local processor (``Database``) and through a
``Federation(mediate=False)`` eagerly, streamed, and streamed under a memory
budget small enough to spill.  Answers are compared with sqlite3 as
sequences when the ORDER BY is total, as multisets otherwise, and every
statement's memory budget must be back to 0 bytes once it finishes.
"""

import sqlite3

import pytest

from repro.coin.context import Context, ContextRegistry
from repro.coin.domain import build_financial_domain_model
from repro.coin.system import CoinSystem
from repro.errors import SchemaError, SQLUnsupportedError
from repro.federation import Federation
from repro.relational.query import Database
from repro.relational.types import sort_key
from repro.sources.memory import MemorySQLSource
from repro.wrappers.wrapper import RelationalWrapper

CREATE = "CREATE TABLE t (id integer, s varchar, a integer, b float)"


def _rows():
    rows = []
    for index in range(40):
        ident = (index * 17) % 40 + 1  # ids 1..40, not in insertion order
        a = None if ident % 11 == 0 else (ident * 13) % 17
        rows.append((ident, "wxyzw"[(ident * 3) % 5], a, (ident % 5) * 1.5))
    return rows


ROWS = _rows()


def _literal(value):
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return f"'{value}'"
    return repr(value)


INSERT = "INSERT INTO t VALUES " + ", ".join(
    "(" + ", ".join(_literal(value) for value in row) + ")" for row in ROWS
)

# (id, sql, ordered): ``ordered`` means the ORDER BY fixes the whole sequence.
CASES = [
    ("flat", "SELECT t.id, t.s, t.a FROM t WHERE t.a > 3", False),
    ("grouped",
     "SELECT t.s, COUNT(1) AS n, SUM(t.a) AS total, MIN(t.b) AS lo, AVG(t.a) AS mean "
     "FROM t GROUP BY t.s", False),
    ("having",
     "SELECT t.s, COUNT(t.a) AS n FROM t GROUP BY t.s HAVING SUM(t.a) > 50", False),
    ("ungrouped-aggregate", "SELECT COUNT(*), MAX(t.a) FROM t WHERE t.a > 100", False),
    ("order-alias", "SELECT t.id, t.a * 2 AS d FROM t ORDER BY d DESC, t.id", True),
    ("order-position", "SELECT t.s, t.id FROM t ORDER BY 1, 2 DESC", True),
    ("order-expression", "SELECT t.id, t.a + t.b AS x FROM t ORDER BY t.a + t.b, t.id", True),
    ("order-hidden-expression", "SELECT t.id FROM t ORDER BY t.b - t.id, t.id", True),
    ("order-hidden-column", "SELECT t.s FROM t ORDER BY t.id DESC", True),
    ("order-hidden-aggregate",
     "SELECT t.s, COUNT(*) AS n FROM t GROUP BY t.s ORDER BY MAX(t.id) DESC", True),
    ("grouped-order-alias",
     "SELECT t.s, COUNT(*) AS n FROM t GROUP BY t.s ORDER BY n DESC, t.s", True),
    ("distinct-hidden-key", "SELECT DISTINCT t.s FROM t ORDER BY t.id", False),
    ("distinct-limit", "SELECT DISTINCT t.s FROM t ORDER BY t.s LIMIT 2", True),
    ("limit-offset-topk",
     "SELECT t.id, t.a FROM t ORDER BY t.a DESC, t.id LIMIT 5 OFFSET 3", True),
    ("limit-hidden-key", "SELECT t.s FROM t ORDER BY t.a DESC, t.id LIMIT 4 OFFSET 1", True),
]


def _multiset(rows):
    return sorted((tuple(row) for row in rows), key=lambda row: [sort_key(v) for v in row])


def _assert_same(actual, expected, ordered):
    actual = [tuple(row) for row in actual]
    if ordered:
        assert actual == expected
    else:
        assert _multiset(actual) == _multiset(expected)


@pytest.fixture(scope="module")
def oracle():
    connection = sqlite3.connect(":memory:")
    connection.execute("CREATE TABLE t (id, s, a, b)")
    connection.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", ROWS)
    yield connection
    connection.close()


@pytest.fixture(scope="module")
def database():
    db = Database("finalize")
    db.execute(CREATE)
    db.execute(INSERT)
    return db


def _federation(memory_budget_bytes=None):
    contexts = ContextRegistry()
    contexts.register(Context("c_plain", "receiver without conventions"))
    system = CoinSystem(build_financial_domain_model(), contexts, name="finalize-test")
    federation = Federation(system, default_receiver_context="c_plain",
                            name="finalize-test", memory_budget_bytes=memory_budget_bytes)
    source = MemorySQLSource("db")
    source.load_sql(CREATE, INSERT)
    federation.register_wrapper(RelationalWrapper(source), estimate_rows=False)
    return federation


def _recording_streams(federation, monkeypatch):
    """Collect every ResultStream the federation opens."""
    controller = federation.engine.controller
    opened = []
    original = controller.execute_stream

    def execute_stream(*args, **kwargs):
        stream = original(*args, **kwargs)
        opened.append(stream)
        return stream

    monkeypatch.setattr(controller, "execute_stream", execute_stream)
    return opened


@pytest.mark.parametrize("sql, ordered", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_finalizer_matches_sqlite(sql, ordered, oracle, database, monkeypatch):
    expected = [tuple(row) for row in oracle.execute(sql).fetchall()]
    _assert_same(database.execute(sql).rows, expected, ordered)

    spills = 0
    for mode, budget in (("eager", None), ("streamed", None), ("spilled", 256)):
        federation = _federation(memory_budget_bytes=budget)
        opened = _recording_streams(federation, monkeypatch)
        if mode == "eager":
            rows = federation.query(sql, mediate=False).relation.rows
        else:
            cursor = federation.query(sql, mediate=False, stream=True)
            rows = []
            while True:
                batch = cursor.fetchmany(3)
                if not batch:
                    break
                rows.extend(batch)
        _assert_same(rows, expected, ordered)
        assert opened and all(stream.closed for stream in opened), mode
        assert [stream.budget.used_bytes for stream in opened] == [0] * len(opened), mode
        if mode == "spilled":
            spills = sum(stream.budget.spill_count for stream in opened)
    if ordered and "LIMIT" not in sql and "GROUP" not in sql:
        # A full ORDER BY over 40 rows cannot fit 256 bytes: the sort spilled.
        assert spills > 0


class TestOrderByLiterals:
    SQL = "SELECT t.id FROM t ORDER BY TRUE"

    def test_boolean_literal_is_a_constant_key_locally(self, database, oracle):
        expected = [row[0] for row in oracle.execute(self.SQL).fetchall()]
        assert expected == [row[0] for row in ROWS]  # sqlite keeps input order
        assert [row[0] for row in database.execute(self.SQL).rows] == expected

    def test_boolean_literal_is_a_constant_key_streamed(self):
        cursor = _federation().query(self.SQL, mediate=False, stream=True)
        assert [row[0] for row in cursor.fetchall()] == [row[0] for row in ROWS]

    def test_integer_literal_is_a_position(self, database):
        rows = database.execute("SELECT t.s, t.id FROM t ORDER BY 2").rows
        assert [row[1] for row in rows] == list(range(1, 41))


class TestAggregateOrderKeys:
    def test_aggregate_key_outside_the_select_list(self):
        rows = [(1, "x"), (2, "y"), (3, "x"), (5, "z"), (4, "y")]
        sql = "SELECT s, COUNT(*) AS n FROM t GROUP BY s ORDER BY MAX(a) DESC"
        lite = sqlite3.connect(":memory:")
        lite.execute("CREATE TABLE t (a, s)")
        lite.executemany("INSERT INTO t VALUES (?, ?)", rows)
        expected = lite.execute(sql).fetchall()
        lite.close()
        db = Database("agg")
        db.execute("CREATE TABLE t (a integer, s varchar)")
        db.execute("INSERT INTO t VALUES " + ", ".join(f"({a}, '{s}')" for a, s in rows))
        result = db.execute(sql)
        assert result.rows == expected == [("z", 1), ("y", 2), ("x", 2)]
        assert result.schema.names == ["s", "n"]

    def test_subquery_aggregates_do_not_group_the_outer_query(self, database, oracle):
        sql = "SELECT t.id, (SELECT MAX(u.id) FROM t u) AS top FROM t"
        expected = oracle.execute(sql).fetchall()
        assert len(expected) == len(ROWS)
        _assert_same(database.execute(sql).rows, expected, ordered=False)


class TestCorrelatedSubqueries:
    def test_outer_reference_is_rejected_by_name(self, database):
        with pytest.raises(SQLUnsupportedError, match=r"t\.a"):
            database.execute(
                "SELECT t.id FROM t WHERE EXISTS (SELECT u.a FROM t u WHERE u.a = t.a)"
            )

    def test_column_unknown_to_every_scope_stays_a_schema_error(self, database):
        with pytest.raises(SchemaError, match=r"t\.nope"):
            database.execute(
                "SELECT t.id FROM t WHERE EXISTS (SELECT u.a FROM t u WHERE u.a = t.nope)"
            )

    def test_uncorrelated_subquery_still_runs(self, database, oracle):
        sql = "SELECT t.id FROM t WHERE t.a IN (SELECT u.a FROM t u WHERE u.b > 4)"
        _assert_same(database.execute(sql).rows, oracle.execute(sql).fetchall(), False)


class TestDialect:
    """Deliberate deviations from sqlite, listed in DIALECT.md."""

    def test_integer_division_is_true_division(self, database):
        assert database.execute("SELECT 1 / 2").rows == [(0.5,)]

    def test_having_without_group_by_is_one_group(self, database):
        assert database.execute("SELECT t.id FROM t HAVING t.id > 0").rows == [ROWS[0][:1]]
        assert database.execute("SELECT t.id FROM t HAVING t.id > 99").rows == []

    def test_aggregate_order_key_makes_one_group(self, database):
        assert database.execute("SELECT COUNT(*) FROM t ORDER BY MAX(t.a)").rows == [(40,)]

    def test_out_of_range_position_is_a_constant_key(self, database):
        rows = database.execute("SELECT t.id FROM t ORDER BY 5").rows
        assert [row[0] for row in rows] == [row[0] for row in ROWS]

    def test_distinct_keeps_first_row_in_hidden_key_order(self, database):
        rows = database.execute("SELECT DISTINCT t.s FROM t ORDER BY t.id DESC").rows
        by_id = sorted(ROWS, reverse=True)
        first_seen = list(dict.fromkeys(row[1] for row in by_id))
        assert [row[0] for row in rows] == first_seen
