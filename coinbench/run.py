"""Run one benchmark workload and print its result as the last stdout line.

Usage (from the repository root)::

    python3 coinbench/run.py --workload warm_repeat --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with spans recorded around the public layer methods and prints the
per-layer metrics (span export under ``.coinbench/``).  The last line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the host fingerprint and calibration.  Mismatches against the
oracle and errors are printed to stderr with their statements.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".coinbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"coinbench: the program's sources are missing ({source}/repro)", file=sys.stderr)
        return 2
    sys.path[:0] = [source, HERE]

    from measure import calibration_ms, host_fingerprint, peak_rss_mb, quantile
    from workloads import WORKLOADS, end_to_end, layer_metrics

    calibration = calibration_ms()
    workload = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    started = time.perf_counter()
    workload.run()
    wall = time.perf_counter() - started

    book = workload.book
    if args.trace:
        values = layer_metrics(workload)
        values["host.calibration_ms"] = calibration
        os.makedirs(OUT_DIR, exist_ok=True)
        workload.recorder.export(os.path.join(
            OUT_DIR, f"spans-{args.workload}-{args.seed}.json"))
        wanted = spec["per_layer"]
    else:
        values = end_to_end(workload)
        values["peak_rss_mb"] = peak_rss_mb()
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"coinbench: metrics not produced: {missing}", file=sys.stderr)
        return 3

    for reason in book.invalid:
        print(f"INVALID RUN: {reason}", file=sys.stderr)
    raw = [read.latency * 1000.0 for read in book.reads
           if read.status != "error" and not read.probe]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": host_fingerprint(), "calibration_ms": calibration,
        "wall_s": wall, "reads": len(book.reads), "writes": book.writes,
        "error_ratio": book.failed / max(1, book.attempted),
        # As measured, not scaled to the reference host:
        "raw_latency_p50_ms": quantile(raw, 0.50),
        "raw_latency_p99_ms": quantile(raw, 0.99),
        "latency_samples": len(raw),
        "raw_setup_s": workload.setup_raw,
        "host_ticks": len(workload.host.samples),
        "host_tick_median_ms": workload.host.median_tick_ms(),
        "post_write_samples": sum(1 for read in book.reads if read.post_write),
        "invalid": book.invalid, **{k: v for k, v in workload.extra.items()
                                    if isinstance(v, (int, float))},
    }
    print(json.dumps(record))
    result = {
        # Any mismatch, error or leak makes the run incorrect.  The known
        # multi-branch defect class is checked apart from the measured reads
        # (run record: ``known_defect_*``).
        "correct": book.failed == 0 and not book.invalid,
        "attempted": book.attempted,
        "failed": book.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
