"""Crawl benchmark: one command, three workloads, every metric checked.

Run from the repository root::

    python3 crawlbench/run.py --workload cold_sb --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` repeats the
untraced measurement, then runs one more op with every layer's entry
points wrapped, and prints the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See crawlbench/README.md
for the metric catalogue and why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cold_sb", "warm_sb", "campaign_bfs")


def _make_workload(name: str, work_root: Path, trace: bool):
    import workloads

    if name == "cold_sb":
        return workloads.ColdSB()
    if name == "warm_sb":
        return workloads.WarmSB()
    # Span wrappers cannot reach spawned workers, so a traced campaign
    # (and the untraced one its overhead is measured against) runs on
    # the serial backend; its report is byte-identical by contract.
    return workloads.CampaignBFS(work_root, serial=trace)


def measure(workload, seed: int, seconds: float):
    """Set up, then repeat the workload's op for ``seconds`` (and at
    least ``min_ops`` times).  Returns the set-up times, the ops, the
    failed requests of each op and the problems found.

    The op for input ``k`` is checked, and its outputs must equal those
    of the first op that had input ``k`` (or the workload's reference
    for it): any difference fails the op."""
    clock = time.perf_counter
    setup_s: list[float] = []

    def set_up() -> None:
        started = clock()
        workload.setup(seed)
        setup_s.append(clock() - started)

    if not workload.setup_per_op:
        for _ in range(workload.setups):
            set_up()
    problems = list(getattr(workload, "setup_problems", []))
    keys = workload.inputs(seed)
    ops, failed = [], []
    began = clock()
    while len(ops) < workload.min_ops or clock() - began < seconds:
        key = keys[len(ops) % len(keys)]
        if workload.setup_per_op:
            set_up()
        started = clock()
        raw = workload.execute(key)
        op, op_problems = workload.check(key, raw, clock() - started)
        op_problems += determinism_problems(workload, op)
        ops.append(op)
        failed.append(op.requests if op_problems else op.abandoned)
        problems += op_problems
    return setup_s, ops, failed, problems


def determinism_problems(workload, op) -> list[str]:
    reference = workload.references.setdefault(op.key, op)
    if reference.outputs() == op.outputs():
        return []
    return [f"input {op.key}: outputs {op.outputs()} differ from an earlier "
            f"run of the same input {reference.outputs()}"]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end_metrics(ops, setup_s, attempted: int, failed: int, keys):
    first = {}
    for op in ops:
        first.setdefault(op.key, op)
    distinct = [first[key] for key in keys]
    return {
        "pages_per_s": (statistics.median(o.requests / o.wall_s for o in ops), "1/s"),
        "targets_per_s": (statistics.median(o.targets / o.wall_s for o in ops), "1/s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "targets_found": (float(sum(o.targets for o in distinct)), "count"),
        "requests_to_90pct": (statistics.fmean(o.r90 for o in distinct), "%"),
        "ok_share": (1.0 - failed / attempted, "ratio"),
    }


def traced_op(workload, seed: int, key: int, untraced_s: float, spans_path: Path):
    """One more op of input ``key`` with every layer wrapped."""
    from tracer import Tracer, per_layer_metrics

    if workload.setup_per_op:
        workload.setup(seed)
    with Tracer() as tracer:
        started = time.perf_counter()
        raw = workload.execute(key)
        op_s = time.perf_counter() - started
    op, problems = workload.check(key, raw, op_s)
    problems += determinism_problems(workload, op)
    tracer.write_spans(spans_path)
    return op, problems, per_layer_metrics(tracer, op_s, untraced_s)


def print_report(name: str, ops, metrics: dict, problems: list[str]) -> None:
    print(f"workload {name}: {len(ops)} ops")
    for op in ops:
        print(f"  op input={op.key} wall_s={op.wall_s:.3f} requests={op.requests} "
              f"targets={op.targets} digest={op.digest[:12]}")
    width = max(len(metric) for metric in metrics)
    for metric, (value, unit) in sorted(metrics.items()):
        print(f"  {metric:<{width}}  {value:>16.6f}  {unit}")
    if "trace.op_s" in metrics:
        op_s = metrics["trace.op_s"][0]
        shares = sorted(
            ((value / op_s, metric[:-len(".self_s")])
             for metric, (value, _) in metrics.items() if metric.endswith(".self_s")),
            reverse=True,
        )
        print("  self time as a share of the traced op:")
        for share, layer in shares[:8]:
            print(f"    {layer:<{width}}  {100 * share:6.2f}%")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    out_dir = ROOT / ".crawlbench"
    out_dir.mkdir(exist_ok=True)

    workload = _make_workload(args.workload, out_dir, bool(args.trace))
    try:
        setup_s, ops, failed, problems = measure(workload, args.seed, args.seconds)
        attempted = sum(op.requests for op in ops)
        if args.trace:
            inputs = workload.inputs(args.seed)
            key = inputs[min(1, len(inputs) - 1)]
            untraced_s = statistics.median(op.wall_s for op in ops if op.key == key)
            op, trace_problems, metrics = traced_op(
                workload, args.seed, key, untraced_s,
                out_dir / f"spans-{args.workload}.csv.gz",
            )
            ops.append(op)
            attempted += op.requests
            failed.append(op.requests if trace_problems else op.abandoned)
            problems += trace_problems
        else:
            metrics = end_to_end_metrics(ops, setup_s, attempted, sum(failed),
                                         workload.inputs(args.seed))
    finally:
        _stop_resource_tracker()

    print_report(args.workload, ops, metrics, problems)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": sum(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _stop_resource_tracker() -> None:
    """Wait for the helper process that ``multiprocessing`` starts on
    first use, so no process outlives the run."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
