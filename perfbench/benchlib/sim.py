"""``q1-cross-sim``: Q1 two-stream cross join on the simulated DSPE.

The paper's Figure 3 topology (``run_spo``) with one PO-Join PE, so its
results equal the local join.  The simulated engine's event loop and the
distributed operators (router, predicate, logical, permutation and
PO-Join PEs) carry the cost, and the cross join takes the two-stream
offset path.  Tuple-at-a-time; the engine pulls the spout (closed loop).
Host time is measured, not the engine's simulated clock.
"""

from __future__ import annotations

import time
from collections import defaultdict

from repro.core import WindowSpec
from repro.dspe.engine import Engine
from repro.dspe.router import RawTuple
from repro.joins import SPOConfig, run_spo
from repro.joins.spo import build_spo_topology
from repro.workloads import datacenter_streams, q1

from .common import Inputs, Round, gaps, paced
from .reference import Digest, JoinInput

SIZES = {
    "full": {"per_stream": 4_000, "window": (400, 100), "batch": 64},
    "toy": {"per_stream": 300, "window": (80, 20), "batch": 16},
}
#: Simulated seconds between input tuples.  Far above any tuple's service
#: time, so the engine runs each tuple to completion before it pulls the
#: next: a closed loop.  The datacenter streams' own arrival times (about
#: 0.5 ms apart, exponential) are close to the per-tuple service time, so
#: how much work fell between two spout pulls, and with it the batch
#: latency, depended on how fast the host happened to run.
SPACING = 1.0
#: Result records each input tuple yields: one from the logical PEs
#: (mutable tier), one from the PO-Join PE (immutable tier).
RESULT_RECORDS = ("mutable_result", "immutable_result")
#: PE components whose busy time is reported, by metric name.
BUSY = {
    "router": ("router",),
    "pred": ("pred_0", "pred_1"),
    "logical": ("logical",),
    "perm": ("perm",),
    "pojoin": ("pojoin",),
}


class Workload:
    name = "q1-cross-sim"
    min_rounds = 1
    #: Clock of the end-to-end timings.  The run is one single-threaded
    #: process, so its CPU clock is its service time without the time the
    #: host took the CPU away (steal, other tenants).
    clock = staticmethod(time.process_time)
    #: Per-layer times that together explain the timed region.
    attributed = tuple(f"sim.{metric}_busy_s" for metric in BUSY)

    def __init__(self, size: str = "full") -> None:
        cfg = SIZES[size]
        self.per_stream = cfg["per_stream"]
        self.batch = cfg["batch"]
        self.window = WindowSpec.count(*cfg["window"])
        self.query = q1()

    def _config(self):
        return SPOConfig(self.query, self.window, num_pojoin_pes=1)

    def setup(self):
        """Construct the configuration, topology and engine."""
        return Engine(build_spo_topology(iter(()), self._config()), num_nodes=2)

    def generate(self, seed: int) -> Inputs:
        raws = datacenter_streams(self.per_stream, seed=seed)
        join_input = JoinInput.from_query(
            self.query, [r.values for r in raws], [r.stream for r in raws], self.window
        )
        return Inputs(raws, join_input)

    def run_round(self, inputs: Inputs, tracer=None, clock=time.perf_counter) -> Round:
        events = [
            (i * SPACING, RawTuple(raw.stream, raw.values, i * SPACING))
            for i, raw in enumerate(inputs.items)
        ]
        marks = []
        config = self._config()
        if tracer is not None:
            tracer.begin("sim.run_spo")
        t0 = clock()
        result = run_spo(paced(events, self.batch, marks, clock), config)
        seconds = clock() - t0
        if tracer is not None:
            tracer.end()
        digest = Digest(len(inputs), expected_records=len(RESULT_RECORDS))
        for name in RESULT_RECORDS:
            records = result.records_named(name)
            digest.add_records(
                [r.payload["tid"] for r in records], [r.payload["matches"] for r in records]
            )
        layers = {}
        if tracer is not None:
            tracer.begin("result.fingerprint")
            result.result_fingerprint()
            fingerprint_s = tracer.end()
            busy = defaultdict(float)
            for pe in result.pes:
                for metric, components in BUSY.items():
                    if pe.component in components:
                        busy[metric] += pe.busy_time
            layers = {f"sim.{metric}_busy_s": busy[metric] for metric in BUSY}
            layers.update(
                {
                    "sim.engine_self_s": seconds - sum(busy.values()),
                    "sim.events": result.events_processed,
                    "sim.messages": sum(pe.processed for pe in result.pes),
                    "sim.wait_max_s": max((pe.wait_max for pe in result.pes), default=0.0),
                    "result.fingerprint_s": fingerprint_s,
                }
            )
        return Round(seconds, gaps(marks), digest, layers)
