"""Tests of the benchmark itself: generator, oracle, span accounting, output names.

Run from the repository root: ``python -m pytest -q coinbench/tests``.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import fixtures as fx  # noqa: E402
from gen import Generator, bulk_reads  # noqa: E402
from measure import REFERENCE_TICK_MS, HostSpeed  # noqa: E402
from oracle import Oracle, rows_match  # noqa: E402
from spans import Recorder, Span, attribute, summarize  # noqa: E402


def statements(seed: int, adhoc: int = 40):
    dataset = fx.build_main(seed)
    generator = Generator(dataset, Oracle(dataset), random.Random(seed))
    pool = generator.warm_pool()
    stream = list(itertools.islice(generator.adhoc(), adhoc))
    return [(s.sql, s.context) for s in pool], [(s.sql, s.context) for s in stream]


class TestGenerator:
    def test_same_seed_same_statements(self):
        assert statements(7) == statements(7)

    def test_seeds_differ(self):
        pool_a, adhoc_a = statements(7)
        pool_b, adhoc_b = statements(8)
        assert pool_a != pool_b
        assert adhoc_a != adhoc_b
        assert len(set(adhoc_a) & set(adhoc_b)) < len(adhoc_a) // 2

    def test_adhoc_statements_are_distinct(self):
        _, adhoc = statements(3, adhoc=200)
        assert len(set(adhoc)) == len(adhoc)

    def test_known_defect_class_is_checked_apart(self):
        dataset = fx.build_main(3)
        generator = Generator(dataset, Oracle(dataset), random.Random(3))
        mix = list(itertools.islice(generator.adhoc(), 200))
        assert not any(s.multi_branch_clause for s in mix)
        assert {s.kind for s in mix} >= {"topk", "total"}
        defects = generator.known_defects()
        assert len(defects) == 6 and all(s.multi_branch_clause for s in defects)

    def test_bulk_reads_are_seeded(self):
        first = [s.sql for s in bulk_reads(fx.build_bulk(5), random.Random(5))]
        again = [s.sql for s in bulk_reads(fx.build_bulk(5), random.Random(5))]
        assert first == again and len(first) == 12


class TestOracle:
    @pytest.fixture(scope="class")
    def main(self):
        dataset = fx.build_main(11)
        oracle = Oracle(dataset)
        pool = Generator(dataset, oracle, random.Random(11)).warm_pool()
        return dataset, oracle, pool

    def test_source_rows_recover_usd_ground_truth(self, main):
        dataset, _, _ = main
        for relation in ("fin1", "fin2", "fin6"):
            truth = fx.usd_truth(dataset, relation, 11)
            table = dataset.tables[relation]
            for cname, revenue, _, currency in table.rows[:20]:
                unit = table.scale(currency) * fx.RATES[(currency, "USD")]
                # Sources store four decimals of their own unit (e.g. EUR
                # millions), so the round trip is exact only to that digit.
                assert revenue * unit == pytest.approx(truth[cname][0], abs=1e-4 * unit)

    def test_oracle_agrees_with_the_paper_answer(self, main):
        dataset, oracle, pool = main
        paper = next(s for s in pool if s.kind == "paper" and s.params == (None,)
                     and s.context == "c_receiver")
        assert ("NTT", pytest.approx(9_600_000.0)) in oracle.expected(paper, 0)

    def test_mediated_answers_match(self, main):
        dataset, oracle, pool = main
        for statement in pool[:8]:
            answer = dataset.federation.query(statement.sql, receiver_context=statement.context)
            assert rows_match(answer.relation.rows, oracle.expected(statement, 0),
                              statement.ordered), statement.sql

    def test_planted_wrong_row_is_caught(self, main):
        _, oracle, pool = main
        statement = next(s for s in pool if s.kind == "pair")
        expected = list(oracle.expected(statement, 0))
        assert rows_match(list(reversed(expected)), expected, False)
        wrong_value = [expected[0][:1] + (expected[0][1] * 1.001,)] + expected[1:]
        assert not rows_match(wrong_value, expected, False)
        extra_row = expected + [("Planted", 1.0)]
        assert not rows_match(extra_row, expected, False)
        assert not rows_match(expected[1:], expected, False)

    def test_order_is_checked_when_total(self):
        expected = [("a", 3.0), ("b", 2.0), ("c", 1.0)]
        assert rows_match(expected, expected, True)
        assert not rows_match([("b", 2.0), ("a", 3.0), ("c", 1.0)], expected, True)

    def test_writes_are_versioned(self):
        dataset = fx.build_main(2)
        oracle = Oracle(dataset)
        statement = Generator(dataset, oracle, random.Random(2)).filter("c_receiver", "fin1")
        before = list(oracle.expected(statement, 0))
        fx.append_rows(dataset, "fin1", random.Random(0))
        after = oracle.expected(statement, 1)
        assert oracle.expected(statement, 0) == before
        assert len(after) >= len(before)
        answer = dataset.federation.query(statement.sql, receiver_context=statement.context)
        assert rows_match(answer.relation.rows, after, False)


def span(span_id, name, start, end, parent=None, thread=1):
    node = Span(span_id, name, start, thread, parent=parent, end=end)
    node.statement = parent.statement if parent is not None else span_id
    return node


class TestSpans:
    def test_self_times_sum_to_root(self):
        root = span(1, "stmt", 0.0, 10.0)
        query = span(2, "federation.query", 1.0, 9.0, root)
        execute = span(3, "engine.execute", 2.0, 8.0, query)
        # Two overlapping fetches on pool threads, one running past its parent.
        fetch_a = span(4, "wrapper.fetch", 3.0, 6.0, execute, thread=2)
        fetch_b = span(5, "wrapper.fetch", 4.0, 9.5, execute, thread=3)
        spans = [root, query, execute, fetch_a, fetch_b]
        owned = attribute(spans, root)
        assert sum(owned.values()) == pytest.approx(10.0)
        assert owned[1] == pytest.approx(1.0 + 0.5)  # before query, after fetch_b
        assert owned[3] == pytest.approx(1.0)  # 2..3 only: fetches cover 3..8
        assert owned[4] + owned[5] == pytest.approx(6.5)  # union of 3..9.5

    def test_recorder_adopts_pool_thread_spans(self):
        import threading

        times = iter(range(100))
        recorder = Recorder(clock=lambda: float(next(times)))
        recorder.on = True
        root = recorder.begin("stmt")
        execute = recorder.begin("engine.execute")

        def fetch():
            recorder.end(recorder.begin("wrapper.fetch"))

        thread = threading.Thread(target=fetch)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        recorder.end(execute)
        recorder.end(root)
        fetched = next(s for s in recorder.spans if s.name == "wrapper.fetch")
        assert fetched.parent is execute and fetched.statement == root.span_id
        totals = summarize(recorder)
        assert totals.statements == 1
        assert totals.self_time["wrappers"] + totals.self_time["engine.execute"] \
            + totals.unattributed_seconds == pytest.approx(totals.root_seconds)


def test_host_speed_scales_times_to_the_reference_host():
    host = HostSpeed()
    slow, quiet = 2 * REFERENCE_TICK_MS, REFERENCE_TICK_MS
    host.samples = [(float(t), slow) for t in range(10)] + [(float(t), quiet) for t in range(10, 20)]
    assert host.factor(2.5) == pytest.approx(0.5)  # a slow stretch halves its times
    assert host.factor(15.5) == pytest.approx(1.0)
    assert host.factor(99.0) == pytest.approx(1.0)  # past the end: the last ticks


def run_bench(workload: str, trace: int):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.4", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_declared(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    result = run_bench("warm_repeat", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
