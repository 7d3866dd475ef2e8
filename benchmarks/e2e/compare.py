#!/usr/bin/env python3
"""Compare benchmark runs of a parent commit and a change, pair by pair.

    python3 benchmarks/e2e/compare.py --parent P.jsonl [...] --change C.jsonl [...]
        [--claim METRIC@WORKLOAD ...]

Inputs are run records written by ``run.py --record`` (one JSON object
per line), or a baseline file such as ``baseline-cpu2.json`` whose
``runs`` list holds the same records.  Traced runs are ignored.

One row per (end-to-end metric, workload), with each side's median and
quartiles.  The verdicts follow the benchmark's rules:

* ``gain`` (only for a ``--claim``): at least 10 pairs, the change wins
  at least 9 in 10 of them (ties count for neither side), and the
  medians differ by more than the parent's interquartile range;
* ``regression``: the change's median is worse than the parent's by more
  than the metric's bound from ``BENCHMARK.json``;
* ``unresolved``: either side's spread (IQR over median) exceeds the
  bound, unless every change run beats every parent run;
* ``same`` otherwise.  A claim that is not a gain reads ``not met``.

A workload whose failed share (failed over attempted, summed over its
runs) rose is a regression in its own row.  Exit status 1 on any
regression or unmet claim, and when records mix CPU counts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_records(paths: list[str]) -> list[dict]:
    records = []
    for path in paths:
        text = Path(path).read_text()
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            payload = None
        if isinstance(payload, dict) and "runs" in payload:
            records += payload["runs"]
        else:
            records += [json.loads(line) for line in text.splitlines() if line.strip()]
    return [r for r in records if not r.get("trace")]


def spread(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def pair_up(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """Pairs by seed where both sides ran it, otherwise in recorded order."""
    by_seed = {r["seed"]: r for r in change}
    if all(r["seed"] in by_seed for r in parent):
        return [(r, by_seed[r["seed"]]) for r in parent]
    return list(zip(parent, change))


def verdict(metric: dict, parent: list[float], change: list[float],
            pairs: list[tuple[float, float]], claimed: bool) -> str:
    lower = metric["better"] == "lower"
    sign = 1.0 if lower else -1.0
    p_q1, p_med, p_q3 = spread(parent)
    c_q1, c_med, c_q3 = spread(change)
    bound = metric["bound"]
    if claimed:
        wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
        gained = (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
                  and sign * (p_med - c_med) > (p_q3 - p_q1))
        return "gain" if gained else "not met"
    if sign * (c_med - p_med) > bound * abs(p_med):
        return "regression"
    noisy = any((q3 - q1) / abs(med) > bound
                for q1, med, q3 in ((p_q1, p_med, p_q3), (c_q1, c_med, c_q3)) if med)
    if noisy:
        beats = (max(change) < min(parent)) if lower else (min(change) > max(parent))
        return "better" if beats else "unresolved"
    return "same"


def compare(parent: list[dict], change: list[dict], metrics: list[dict],
            claims: set[tuple[str, str]]) -> tuple[list[list[str]], bool]:
    """Table rows and whether the change is acceptable."""
    cpus = {r.get("cpu_count") for r in parent + change}
    if len(cpus) > 1:
        raise ValueError(f"records mix cpu_count values {sorted(map(str, cpus))}")
    by_workload: dict[str, dict[str, list[dict]]] = defaultdict(lambda: defaultdict(list))
    for side, records in (("parent", parent), ("change", change)):
        for record in records:
            by_workload[record["workload"]][side].append(record)
    rows, ok = [], True
    for workload in sorted(by_workload):
        sides = by_workload[workload]
        if not sides["parent"] or not sides["change"]:
            continue
        pairs = pair_up(sides["parent"], sides["change"])
        for metric in metrics:
            name = metric["name"]
            p = [r["result"]["metrics"][name]["value"] for r in sides["parent"]]
            c = [r["result"]["metrics"][name]["value"] for r in sides["change"]]
            paired = [(a["result"]["metrics"][name]["value"],
                       b["result"]["metrics"][name]["value"]) for a, b in pairs]
            claimed = (name, workload) in claims
            result = verdict(metric, p, c, paired, claimed)
            ok &= result not in ("regression", "not met")
            p_q1, p_med, p_q3 = spread(p)
            c_q1, c_med, c_q3 = spread(c)
            rows.append([workload, name, f"{p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}]",
                         f"{c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}]",
                         f"{100.0 * (c_med - p_med) / p_med:+.1f}%" if p_med else "n/a",
                         f"{metric['bound']:.0%}", result])
        shares = [sum(r["result"]["failed"] for r in rs) / max(1, sum(r["result"]["attempted"]
                                                                        for r in rs))
                  for rs in (sides["parent"], sides["change"])]
        failed_verdict = "regression" if shares[1] > shares[0] else "same"
        ok &= failed_verdict == "same"
        rows.append([workload, "failed_share", f"{shares[0]:.4g}", f"{shares[1]:.4g}",
                     "", "+0", failed_verdict])
    return rows, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--claim", action="append", default=[], metavar="METRIC@WORKLOAD")
    parser.add_argument("--benchmark", default=str(HERE.parent.parent / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    metrics = json.loads(Path(args.benchmark).read_text())["end_to_end"]
    claims = set()
    for claim in args.claim:
        metric, _, workload = claim.partition("@")
        if metric not in {m["name"] for m in metrics} or not workload:
            parser.error(f"--claim {claim!r} must be METRIC@WORKLOAD with an end_to_end metric")
        claims.add((metric, workload))
    try:
        rows, ok = compare(load_records(args.parent), load_records(args.change), metrics,
                           claims)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    header = ["workload", "metric", "parent median [q1, q3]", "change median [q1, q3]",
              "delta", "bound", "verdict"]
    widths = [max(len(str(row[i])) for row in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
