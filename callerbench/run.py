"""Caller-view benchmark of the instruction selector.

Usage (from the repository root)::

    python3 callerbench/run.py --workload jit_stream --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
outside-in layer ledger instead, prints it, writes span dumps under
``.bench_out/callerbench/`` and prints the per-layer metrics.  The last
line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: name -> unit; every end-to-end metric is measured with tracing off.
END_TO_END = {
    "setup_s": "s",
    "nodes_per_s": "nodes/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

#: name -> unit; a layer a workload does not use reports 0.
PER_LAYER = {
    "label.ns_per_node": "ns/node",
    "label.cold_ns_per_node": "ns/node",
    "label.table_misses": "count",
    "label.states_created": "count",
    "label.hit_rate": "fraction",
    "cover.ns_per_node": "ns/node",
    "emit.ns_per_node": "ns/node",
    "emit.engine_ns_per_node": "ns/node",
    "actions.ns_per_node": "ns/node",
    "tape.compile_ns_per_node": "ns/node",
    "tape.replay_ns_per_node": "ns/node",
    "tape.compiled": "count",
    "tape.cache_hits": "count",
    "tape.hit_ratio": "fraction",
    "reduce.reductions_per_node": "count/node",
    "reduce.memo_hits_per_node": "count/node",
    "ir.node_count_ns_per_node": "ns/node",
    "selector.wall_ns_per_node": "ns/node",
    "selector.unattributed_ns_per_node": "ns/node",
    "selector.report_gap_frac": "fraction",
    "service.request_ms_p50": "ms",
    "service.request_ms_p99": "ms",
    "service.inprocess_ms_p50": "ms",
    "service.overhead_ms_p50": "ms",
    "service.pickle_us_per_request": "us",
    "service.payload_bytes": "bytes",
    "service.heartbeat_rtt_ms_p50": "ms",
    "service.batch_ms_p50": "ms",
    "service.batch_size_mean": "count",
    "service.queue_depth_high_water": "count",
    "service.retries": "count",
    "service.re_dispatches": "count",
    "service.shed": "count",
    "setup.grammar_parse_ms": "ms",
    "setup.first_batch_ms": "ms",
    "setup.eager_compile_ms": "ms",
    "setup.artifact_load_ms": "ms",
    "loadgen.lag_ms_p99": "ms",
    "trace.overhead_frac": "fraction",
    "error_frac": "fraction",
    "slo_miss_frac": "fraction",
    "input.nodes": "count",
}

WORKLOADS = ("jit_stream", "fresh_blocks", "dynamic_constraints", "service_clients")
OUT_DIR = ROOT / ".bench_out" / "callerbench"


def run_workload(workload: str, seed: int, seconds: float, trace: bool, **knobs) -> dict:
    """Run one workload and return the result object (the JSON line)."""
    if workload == "service_clients":
        from service import run_service

        summary, measured, notes = run_service(seed, seconds, trace, OUT_DIR, **knobs)
    else:
        from engine import run_engine

        summary, measured, notes = run_engine(workload, seed, seconds, trace, OUT_DIR, **knobs)
    for note in notes:
        print(note)
    attempted, failed = summary["attempted"], summary["failed"]
    if trace:
        measured = {
            **measured,
            "error_frac": failed / attempted,
            "input.nodes": summary["input_nodes"],
        }
        schema = PER_LAYER
    else:
        schema = END_TO_END
    metrics = {
        name: {"value": float(measured.get(name, 0.0)), "unit": unit}
        for name, unit in schema.items()
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src")]
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
