"""Benchmark of the fslab library: one command, three workloads.

    python3 benchmark/run.py --workload reduce-mixed --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; ``src`` is put on the import path,
so fslab need not be installed.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones of a traced run (spans go to ``benchmark/traces/``).  The
exit code is 1 when an output check fails, and 0 otherwise.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def process_age() -> float:
    """Seconds since the kernel started this process."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22, starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def setup() -> None:
    """Import the program and fill its one-time caches: the maximal volume v
    and the fixed rank-2 orthogonal flags with their contributing indices."""
    import fslab

    fslab.v_max()
    fslab.b4_so4_batch(np.array([0.3 + 0.4j]), np.array([-0.6 + 0.2j]))


def measure(ops, seconds: float):
    """Run whole rounds of ``ops`` until ``seconds`` have passed.

    Returns, per round, its duration and the latencies of the operations that
    returned; the number attempted and failed; and the first round's outputs
    (an exception in place of a failed operation's output).
    """
    clock = time.perf_counter
    rounds = []
    first = None
    attempted = failed = 0
    start = clock()
    while True:
        latencies = []
        outputs = []
        round_start = clock()
        for op in ops:
            t0 = clock()
            try:
                out = op()
            except Exception as exc:  # one failing operation must not end the run
                out = exc
            t1 = clock()
            if isinstance(out, Exception):
                failed += 1
            else:
                latencies.append(t1 - t0)
            if first is None:
                outputs.append(out)
        attempted += len(ops)
        now = clock()
        rounds.append((now - round_start, latencies))
        if first is None:
            first = outputs
        if now - start >= seconds:
            break
    return rounds, attempted, failed, first


def tail(ordered):
    """The highest percentile of sorted latencies with at least ten samples
    beyond it: (percentile, value)."""
    n = len(ordered)
    k = max(0, n - 11)
    return 100.0 * (k + 1) / n, ordered[k]


def per_layer_metrics(tracer, ops_done: int) -> dict:
    from tracer import LAYERS

    def per_op(x):
        return x / ops_done

    m = {}
    for layer in LAYERS:
        stats = tracer.layers[layer]
        prefix = layer.lstrip("_")  # a metric name starts with a letter
        m[f"{prefix}.calls"] = (per_op(stats["calls"]), "count/op")
        m[f"{prefix}.self_s"] = (per_op(stats["self_ns"] * 1e-9), "s/op")
    for layer in ("forms", "reduction"):
        m[f"{layer}.failed"] = (per_op(tracer.layers[layer]["failed"]), "count/op")
    witt = tracer.functions["forms.witt_complete"]
    m["forms.witt_complete.calls"] = (per_op(witt["calls"]), "count/op")
    m["forms.witt_complete.self_s"] = (per_op(witt["self_ns"] * 1e-9), "s/op")
    c = tracer.counters
    t_j = tracer.functions["flags.t_j"]["calls"]
    m["dilog.points"] = (per_op(c["dilog.points"]), "count/op")
    m["flags.t_j.calls"] = (per_op(t_j), "count/op")
    m["flags.t_j.useful_ratio"] = (c["flags.t_j.useful"] / t_j if t_j else 0.0, "ratio")
    m["flags.b4_rows"] = (per_op(c["flags.b4_rows"]), "count/op")
    m["norms.cocycle_rows"] = (per_op(c["norms.cocycle_rows"]), "count/op")
    m["seeding.draws"] = (per_op(c["_seeding.draws"]), "count/op")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("reduce-mixed", "sup-batch", "flag-cocycle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setup()
    setup_s = process_age()

    import workloads

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    work = workloads.WORKLOADS[args.workload](args.seed)

    if tracer is not None:
        tracer.enabled = True
    rounds, attempted, failed, first = measure(work.ops, args.seconds)
    if tracer is not None:
        tracer.enabled = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = work.check(first)
    unexpected = work.failures(first)
    for msg in problems:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    for msg in unexpected:
        print(f"UNEXPECTED FAILURE: {msg}", file=sys.stderr)

    elapsed = sum(duration for duration, _ in rounds)
    latencies = sorted(x for _, lat in rounds for x in lat)
    done = len(latencies)
    # Host contention comes and goes in phases of seconds to minutes, so run
    # means and medians move with the share of quiet time in a run.  The
    # value that 90 % of rounds reach does not: it is set by the contended
    # rounds, which every run has.
    ops_per_s = float(np.quantile([len(lat) / d for d, lat in rounds], 0.10))
    p50_ms = 1e3 * float(np.quantile([np.median(lat) for _, lat in rounds], 0.90))
    tail_pct, tail_s = tail(latencies)
    names = work.describe()
    print(f"{args.workload} seed {args.seed}: {attempted} operations attempted, {failed} failed, "
          f"{len(rounds)} rounds in {elapsed:.2f} s, trace {args.trace}")
    print(f"  {names['ops_per_s']} = {ops_per_s:.4f} ops/s reached by 90 % of rounds "
          f"(mean over the run {done / elapsed:.4f})")
    print(f"  {names['p50_ms']} = {p50_ms:.4f} ms median latency kept by 90 % of rounds "
          f"(median over the run {1e3 * latencies[done // 2]:.4f})")
    print(f"  {names['tail_ms']} = {1e3 * tail_s:.4f} ms (p{tail_pct:.2f} of {done} samples)")
    for key, value in getattr(work, "trial_rates", dict)().items():
        print(f"  {key} = {value:.1f} trials/s")

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ops_per_s": (ops_per_s, "1/s"),
            "p50_ms": (p50_ms, "ms"),
            "tail_ms": (1e3 * tail_s, "ms"),
        }
    else:
        metrics = per_layer_metrics(tracer, attempted)
        out_dir = HERE / "traces"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(path)
        print(f"  {len(tracer.spans)} of {tracer.spans_seen} spans written to {path.relative_to(HERE.parent)}")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
