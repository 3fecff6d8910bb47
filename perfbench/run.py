"""SPO-Join benchmark: end-to-end and per-layer metrics over three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload q3-dense-local --seed 1 --seconds 15 --trace 0

Workloads: ``q3-dense-local`` (core ``SPOJoin``), ``q3-sparse-parallel``
(``ParallelExecutor``, real worker process) and ``q1-cross-sim``
(simulated DSPE).  Inputs are generated from ``--seed`` before any timing.
Each run pushes the whole input through a fresh system in rounds until
``--seconds`` is spent, checks every round's per-tuple match sets against
a bench-owned reference join, and prints one JSON object as its last line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time on untraced rounds and half on rounds with the layer timers of
``benchlib.layers`` attached, reports the per-layer metrics, checks that
tracing left the results unchanged, and writes the spans as JSONL under
``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shlex
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
OUT_DIR = ROOT / ".perfbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "toy"),
        default="full",
        help="input size; 'toy' is for the benchmark's own smoke test",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def environment(args, argv) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "command": shlex.join([Path(sys.executable).name, *argv]),
    }


def peak_rss_mb() -> float:
    """Parent's peak RSS plus the largest finished child's (the worker)."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


def setup_seconds(workload: str, size: str) -> float:
    """Median set-up time over fresh interpreters."""
    values = []
    for __ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, size],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        values.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(values)


def median_tps(rounds, n: int) -> float:
    return statistics.median(n / r.seconds for r in rounds)


def batch_latencies(rounds) -> numpy.ndarray:
    """Each batch's latency, averaged over the rounds.

    Every round feeds the same batches in the same order, so batch ``i``
    is the same work in each of them.  The host runs in fast and slow
    phases of a second or so; pooling single samples made the median land
    in one phase or the other from run to run, while the mean over rounds
    moves only in proportion to the time spent in each.
    """
    return numpy.mean([r.latencies for r in rounds], axis=0)


def check(rounds, reference) -> int:
    """Tuples, summed over rounds, whose match set differs."""
    return sum(int(r.digest.differs(reference).sum()) for r in rounds)


def measure(workload, inputs, args):
    """``--trace 0``: the end-to-end metrics."""
    from benchlib.common import run_rounds
    from benchlib.reference import reference_digest

    rounds = run_rounds(
        workload, inputs, args.seconds, workload.min_rounds, clock=workload.clock, warmup=1
    )
    rss = peak_rss_mb()
    setup = setup_seconds(args.workload, args.size)
    reference = reference_digest(inputs.join_input)
    n = len(inputs)
    attempted = n * len(rounds)
    failed = check(rounds, reference)
    latencies = batch_latencies(rounds)
    metrics = {
        "throughput_tps": median_tps(rounds, n),
        "batch_latency_p50_ms": 1e3 * float(numpy.percentile(latencies, 50)),
        "batch_latency_p90_ms": 1e3 * float(numpy.percentile(latencies, 90)),
        "setup_s": setup,
        "peak_rss_mb": rss,
        "match_accuracy": 1.0 - failed / attempted,
    }
    notes = {
        "rounds": len(rounds),
        "tuples_per_round": n,
        "round_tps": [round(n / r.seconds, 1) for r in rounds],
        "batch_latency_samples": len(latencies),
        "batch_latency_rounds_averaged": len(rounds),
        "error_rate": failed / attempted,
    }
    return metrics, attempted, failed, notes


def measure_traced(workload, inputs, args, env):
    """``--trace 1``: untraced then traced rounds; the per-layer metrics.

    Every round here is timed on the wall clock, like the layer timers it
    is compared with.
    """
    from benchlib.common import run_rounds
    from benchlib.metrics import PER_LAYER
    from benchlib.reference import reference_digest
    from benchlib.tracing import Tracer, self_times

    half = args.seconds / 2.0
    plain = run_rounds(workload, inputs, half, min_rounds=1, warmup=1)
    tracer = Tracer()
    run_id = f"{args.workload}/seed{args.seed}"
    traced = run_rounds(workload, inputs, half, min_rounds=1, tracer=tracer, run_id=run_id)
    reference = reference_digest(inputs.join_input)
    n = len(inputs)
    attempted = n * (len(plain) + len(traced))
    failed = check(plain + traced, reference)
    # Observation must never change results: every traced round's digest
    # equals the untraced one.
    expected = plain[0].digest.hexdigest()
    unchanged = all(r.digest.hexdigest() == expected for r in plain + traced)

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for r in traced:
        for key, value in r.layers.items():
            metrics[key] += value / len(traced)
    spans_self = self_times(tracer.spans)
    if "core.process_many" in spans_self:
        metrics["core.materialise_s"] = spans_self["core.process_many"] / len(traced)
    timed = statistics.mean(r.seconds for r in traced)
    attributed = sum(metrics[key] for key in workload.attributed)
    metrics["trace.unattributed_share"] = 1.0 - attributed / timed
    metrics["trace.overhead_share"] = 1.0 - median_tps(traced, n) / median_tps(plain, n)
    metrics["trace.spans"] = len(tracer.spans) / len(traced)

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"
    tracer.write_jsonl(spans_path, {"env": env, "run": run_id})
    notes = {
        "untraced_rounds": len(plain),
        "traced_rounds": len(traced),
        "results_digest": expected,
        "traced_results_unchanged": unchanged,
        "error_rate": failed / attempted,
        "spans_jsonl": str(spans_path.relative_to(ROOT)),
    }
    if not unchanged:
        failed = attempted
    return metrics, attempted, failed, notes


def main(argv=None) -> int:
    argv = sys.argv if argv is None else argv
    args = parse_args(argv[1:])
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: program source src/repro not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from benchlib import WORKLOADS, load
    from benchlib.metrics import END_TO_END, PER_LAYER

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    env = environment(args, argv)
    print("env " + json.dumps(env), flush=True)
    workload = load(args.workload, args.size)
    started = time.perf_counter()
    inputs = workload.generate(args.seed)
    units = PER_LAYER if args.trace else END_TO_END
    try:
        if args.trace:
            metrics, attempted, failed, notes = measure_traced(workload, inputs, args, env)
        else:
            metrics, attempted, failed, notes = measure(workload, inputs, args)
    except Exception:
        # A run that raises has no correct output: every tuple fails.
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": len(inputs), "failed": len(inputs),
                          "metrics": {}}))
        return 1
    notes["wall_s"] = time.perf_counter() - started
    for name, value in metrics.items():
        print(f"{name:32s} {value:>16.6g} {units[name]}")
    print("notes " + json.dumps(notes), flush=True)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
