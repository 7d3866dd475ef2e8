#!/usr/bin/env python3
"""End-to-end benchmark of the SDM-PEB reproduction.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads (see ``spec.WORKLOADS`` and README.md): ``serve_small``,
``serve_default`` and ``opc_beside_predict`` drive the real ``repro
serve`` process from this single-threaded client; ``litho_flow`` runs
the offline rigorous flow.  Every output a run samples is checked
against an in-process reference.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1`` (a separate run
with benchmark-owned span wrappers).  Exit codes: 0 measured, 2 the
program is missing (no ``src/repro`` next to the benchmark), 3 the run
is invalid because the load generator lagged.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured length of the run (default: BENCHMARK.json's)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="cut every phase to about a second (self-tests)")
    parser.add_argument("--record", metavar="PATH", default=None,
                        help="also append a run record (workload, seed, cpu_count, "
                             "result) to this JSONL file, for compare.py")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a SIGTERM unwinds like an error, so the servers, the flow process and
    # the spinners this run started are stopped and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spec
    from flow import run_flow
    from keepbusy import cpus_kept_busy
    from workloads import run_opc, run_serve

    if args.workload not in spec.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(spec.WORKLOADS)}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec.DEFAULT_SECONDS
    scratch = ROOT / ".bench_e2e" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True)
    traced = bool(args.trace)
    try:
        with cpus_kept_busy():
            if args.workload == "litho_flow":
                outcome = run_flow(ROOT, scratch, args.seed, seconds, traced, args.smoke)
            elif args.workload == "opc_beside_predict":
                outcome = run_opc(ROOT, scratch, args.seed, seconds, traced, args.smoke)
            else:
                outcome = run_serve(args.workload, ROOT, scratch, args.seed, seconds, traced,
                                    args.smoke)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if outcome.lag_p99_ms > spec.MAX_LAG_P99_MS:
        print(f"invalid run: load-generator lag p99 {outcome.lag_p99_ms:.2f} ms exceeds "
              f"{spec.MAX_LAG_P99_MS} ms, so latency would measure the client; "
              "not reported", file=sys.stderr)
        return 3
    if traced:
        layers = dict(outcome.layers)
        layers["loadgen.lag_p99_ms"] = outcome.lag_p99_ms
        for name in ("latency_ms", "latency_tail_ms", "throughput_per_s"):
            layers[f"traced.{name}"] = outcome.e2e[name]
        metrics = {layer.metric.name: {"value": float(layers.get(layer.metric.name, 0.0)),
                                       "unit": layer.metric.unit}
                   for layer in spec.LAYERS}
    else:
        metrics = {m.name: {"value": float(outcome.e2e[m.name]), "unit": m.unit}
                   for m in spec.E2E}
    for name, metric in metrics.items():
        print(f"{name:<36} {metric['value']:>14.6g} {metric['unit']}")
    tail = spec.WORKLOADS[args.workload].tail_percentile
    print(f"diagnostic: latency p{tail:g} {outcome.e2e['latency_tail_ms']:.4g} ms")
    print(f"checked {outcome.checked} outputs, {outcome.wrong} wrong; "
          f"{outcome.failed} of {outcome.attempted} operations failed; "
          f"load-generator lag p99 {outcome.lag_p99_ms:.3f} ms")
    result = {"correct": outcome.wrong == 0 and outcome.checked > 0,
              "attempted": outcome.attempted, "failed": outcome.failed, "metrics": metrics}
    if args.record:
        record = {"workload": args.workload, "seed": args.seed, "seconds": seconds,
                  "trace": args.trace, "smoke": args.smoke, "cpu_count": os.cpu_count(),
                  "result": result}
        with open(args.record, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
