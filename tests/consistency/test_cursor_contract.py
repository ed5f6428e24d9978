"""One cursor contract for every result stream.

A live engine stream and the materialized stream a ``consistency="certain",
stream=True`` answer rides on share one consumer surface, so they must
behave identically: close callbacks run exactly once, a fetch after
``close()`` raises, an exhausted stream answers "no more rows", and
``to_relation()`` drains whatever is left.
"""

import pytest

from fedbuild import build_consistency_federation
from repro.consistency import PrimaryKey
from repro.errors import ExecutionError

QUERY = "SELECT accounts.owner, accounts.balance FROM accounts ORDER BY accounts.owner"


def _live(federation):
    return federation.engine.execute_stream(QUERY)


def _certain(federation):
    federation.register_constraint(
        PrimaryKey("accounts_pk", relation="accounts", columns=("id",))
    )
    cursor = federation.query(QUERY, mediate=False, consistency="certain",
                              stream=True)
    return cursor.stream


@pytest.fixture(params=[_live, _certain], ids=["live", "certain"])
def open_stream(request):
    return lambda: request.param(build_consistency_federation())


class TestCursorContract:
    def test_close_callbacks_run_exactly_once(self, open_stream):
        for finish in ("close", "exhaust"):
            stream = open_stream()
            calls = []
            stream.on_close(calls.append)
            stream.fetchone()
            if finish == "exhaust":
                stream.fetchall()
            stream.close()
            stream.close()
            assert len(calls) == 1 and calls[0] is stream.report, finish

    def test_fetch_after_close_raises(self, open_stream):
        stream = open_stream()
        assert stream.fetchone() is not None
        stream.close()
        for fetch in (stream.fetchone, stream.fetchall,
                      lambda: stream.fetchmany(2)):
            with pytest.raises(ExecutionError, match="closed"):
                fetch()

    def test_fetchone_after_exhaustion_returns_none(self, open_stream):
        stream = open_stream()
        assert stream.fetchall()
        assert stream.exhausted and stream.closed
        assert stream.fetchone() is None
        assert stream.fetchmany(3) == []

    def test_to_relation_drains_the_remaining_rows(self, open_stream):
        everything = open_stream().fetchall()
        stream = open_stream()
        head = stream.fetchmany(2)
        relation = stream.to_relation()
        assert len(head) == 2
        assert head + relation.rows == everything
        assert stream.exhausted and stream.closed
