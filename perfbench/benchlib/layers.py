"""Wrappers that time the program's layers from outside, for traced runs.

Everything here attaches to public objects after construction: the
``SPOJoin.phase_hook``, the router factory on a ``Topology``, the
``route_targets`` method of one ``ParallelExecutor`` instance, and a
bench-owned subclass of ``ShardSPOJoinOperator`` installed as the joiner
factory (inherited by the workers through ``fork``).  No file of the
program is changed, and untraced runs use none of it.
"""

from __future__ import annotations

import functools
import os
import pickle
import time
from collections import defaultdict
from typing import Dict, List, Tuple

from repro.parallel import ShardSPOJoinOperator
from repro.parallel.wire import ShardBatch

from .tracing import Tracer

__all__ = [
    "CorePhases",
    "ParentIngress",
    "BenchShardOperator",
    "bench_joiner_factory",
    "WORKER_RECORD",
    "worker_totals",
    "wire_costs",
]

#: Record name the bench joiner ships its totals under; outside every
#: name ``RunResult.result_fingerprint`` hashes.
WORKER_RECORD = "perfbench_worker"


class CorePhases:
    """``SPOJoin.phase_hook`` target: per-category seconds and spans."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.seconds: Dict[str, float] = defaultdict(float)

    def __call__(self, category: str, seconds: float, **fields) -> None:
        self.seconds[category] += seconds
        self.tracer.add_closed(f"core.{category}", seconds)


class ParentIngress:
    """Times the parent-side router and ``route_targets`` of one run.

    Also keeps every payload routed to a worker PE, so the wire cost can
    be measured after the run without slowing it down.
    """

    def __init__(self, tracer: Tracer, topology, executor) -> None:
        self.tracer = tracer
        self.router_s = 0.0
        self.router_calls = 0
        self.route_targets_s = 0.0
        self.route_targets_calls = 0
        #: (payload, target count) per routing decision that fed workers.
        self.fed: List[Tuple[object, int]] = []
        remote = set(executor.remote_components)
        bolt = topology.bolts["router"]
        bolt.factory = self._router_factory(bolt.factory)
        original = executor.route_targets

        def route_targets(component, stream, payload):
            tracer.begin("parallel.route_targets")
            targets = original(component, stream, payload)
            self.route_targets_s += tracer.end()
            self.route_targets_calls += 1
            fed = sum(1 for comp, __ in targets if comp in remote)
            if fed:
                self.fed.append((payload, fed))
            return targets

        executor.route_targets = route_targets

    def _router_factory(self, factory):
        def build():
            router = factory()
            process, flush = router.process, router.flush

            def timed_process(payload, ctx):
                self.tracer.begin("parallel.router")
                process(payload, ctx)
                self.router_s += self.tracer.end()
                self.router_calls += 1

            def timed_flush(ctx):
                self.tracer.begin("parallel.router")
                flush(ctx)
                self.router_s += self.tracer.end()

            router.process = timed_process
            router.flush = timed_flush
            return router

        return build


class BenchShardOperator(ShardSPOJoinOperator):
    """Shard joiner that accounts its own busy, compute and snapshot time.

    Runs inside the worker process.  At end of stream (``flush``, whose
    records the worker still ships) it records its totals once under
    :data:`WORKER_RECORD`.
    """

    def setup(self, ctx) -> None:
        super().setup(ctx)
        self._born = time.perf_counter()
        self._busy = 0.0
        self._compute = 0.0
        self._record_build = 0.0
        self._snapshot = 0.0
        self._snapshot_bytes = 0
        #: Time spent sizing snapshots: bench work, not worker lifetime.
        self._sizing = 0.0
        join = self.join
        inner = join.process_shard_batch

        def process_shard_batch(*args):
            t0 = time.perf_counter()
            out = inner(*args)
            self._compute += time.perf_counter() - t0
            return out

        join.process_shard_batch = process_shard_batch

    def process(self, payload, ctx) -> None:
        t0 = time.perf_counter()
        compute_before = self._compute
        super().process(payload, ctx)
        spent = time.perf_counter() - t0
        self._busy += spent
        if isinstance(payload, ShardBatch):
            self._record_build += spent - (self._compute - compute_before)

    def snapshot_state(self):
        t0 = time.perf_counter()
        state = super().snapshot_state()
        spent = time.perf_counter() - t0
        self._busy += spent
        self._snapshot += spent
        # Size only; the supervisor pickles the checkpoint itself.
        self._snapshot_bytes += len(pickle.dumps(state, pickle.HIGHEST_PROTOCOL))
        self._sizing += time.perf_counter() - t0 - spent
        return state

    def flush(self, ctx) -> None:
        super().flush(ctx)
        ctx.record(
            WORKER_RECORD,
            {
                "pid": os.getpid(),
                "lifetime_s": time.perf_counter() - self._born,
                "sizing_s": self._sizing,
                "busy_s": self._busy,
                "shard_compute_s": self._compute,
                "record_build_s": self._record_build,
                "snapshot_s": self._snapshot,
                "snapshot_bytes": self._snapshot_bytes,
            },
        )


def bench_joiner_factory(query, window):
    """Joiner factory matching ``build_spo_sharded_topology``'s defaults."""
    return functools.partial(BenchShardOperator, query, window, sub_intervals=1)


def worker_totals(records) -> Dict[str, float]:
    """Sum the bench joiners' totals.

    Idle is per worker process: its longest-lived joiner's lifetime minus
    the busy and snapshot-sizing time of every joiner it hosts.
    """
    totals: Dict[str, float] = defaultdict(float)
    lifetimes: Dict[int, float] = {}
    spent: Dict[int, float] = defaultdict(float)
    for record in records:
        if record.name != WORKER_RECORD:
            continue
        p = record.payload
        for key in ("busy_s", "shard_compute_s", "record_build_s", "snapshot_s", "snapshot_bytes"):
            totals[key] += p[key]
        lifetimes[p["pid"]] = max(lifetimes.get(p["pid"], 0.0), p["lifetime_s"])
        spent[p["pid"]] += p["busy_s"] + p["sizing_s"]
    totals["idle_s"] = sum(lifetimes[pid] - spent[pid] for pid in lifetimes)
    return dict(totals)


def wire_costs(fed, records) -> Dict[str, float]:
    """Pickle every fed payload and returned record with its own reducers.

    Messages are framed as the supervisor frames them (``("msg", seq,
    component, pe_index, payload, origin_time)``); replies as the worker
    ships records.  Measured after the run, so the run itself is not
    slowed.
    """
    messages = 0
    size = 0
    encode = 0.0
    decode = 0.0
    for payload, targets in fed:
        frame = ("msg", 0, "joiner", 0, payload, 0.0)
        t0 = time.perf_counter()
        blob = pickle.dumps(frame, pickle.HIGHEST_PROTOCOL)
        t1 = time.perf_counter()
        pickle.loads(blob)
        t2 = time.perf_counter()
        messages += targets
        size += targets * len(blob)
        encode += targets * (t1 - t0)
        decode += targets * (t2 - t1)
    reply_bytes = 0
    for record in records:
        frame = ("joiner", 0, 0, record.name, record.payload, record.origin_time, record.marks)
        reply_bytes += len(pickle.dumps(frame, pickle.HIGHEST_PROTOCOL))
    return {
        "messages": messages,
        "bytes": size,
        "encode_s": encode,
        "decode_s": decode,
        "reply_bytes": reply_bytes,
    }
