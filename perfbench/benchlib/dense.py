"""``q3-dense-local``: Q3 self-join, independent fields, ``SPOJoin.process_many``.

About 700 matches per probe, so result materialisation and immutable
probing carry the cost; router, wire, supervisor and engine are not on
the path.  Driven by one caller in micro-batches (closed loop).
"""

from __future__ import annotations

import time

from repro.core import SPOJoin, WindowSpec
from repro.core.arena import ArenaSlice
from repro.workloads import as_stream_tuples, q3, self_stream

from .common import Inputs, Round
from .reference import Digest, JoinInput, pairs_to_arrays

SIZES = {
    "full": {"tuples": 10_240, "window": (4000, 1000), "batch": 64},
    "toy": {"tuples": 1_200, "window": (400, 100), "batch": 32},
}


class Workload:
    name = "q3-dense-local"
    #: At least this many rounds to average each batch over.
    min_rounds = 3
    #: Clock of the end-to-end timings: the process's CPU clock, as for
    #: ``q1-cross-sim`` (one process; numpy adds no threads here).
    clock = staticmethod(time.process_time)
    #: Per-layer times that together explain the timed region.
    attributed = (
        "core.mutable_probe_insert_s",
        "core.immutable_probe_s",
        "core.merge_s",
        "core.materialise_s",
    )

    def __init__(self, size: str = "full") -> None:
        cfg = SIZES[size]
        self.tuples = cfg["tuples"]
        self.batch = cfg["batch"]
        self.window = WindowSpec.count(*cfg["window"])
        self.query = q3()

    def setup(self):
        """Construct the join."""
        return SPOJoin(self.query, self.window)

    def generate(self, seed: int) -> Inputs:
        tuples = as_stream_tuples(self_stream(self.tuples, correlation=0.0, seed=seed))
        join_input = JoinInput.from_query(
            self.query,
            [t.values for t in tuples],
            [t.stream for t in tuples],
            self.window,
        )
        return Inputs(tuples, join_input)

    def run_round(self, inputs: Inputs, tracer=None, clock=time.perf_counter) -> Round:
        tuples = inputs.items
        chunks = [
            ArenaSlice.of(tuples[i : i + self.batch])
            for i in range(0, len(tuples), self.batch)
        ]
        join = self.setup()
        phases = None
        if tracer is not None:
            from .layers import CorePhases

            phases = CorePhases(tracer)
            join.phase_hook = phases
        digest = Digest(len(tuples))
        latencies = []
        for chunk in chunks:
            if tracer is None:
                t0 = clock()
                pairs = join.process_many(chunk)
                latencies.append(clock() - t0)
            else:
                tracer.begin("core.process_many")
                pairs = join.process_many(chunk)
                latencies.append(tracer.end())
            digest.add(*pairs_to_arrays(pairs))
        layers = {}
        if phases is not None:
            stats = join.stats
            layers = {
                "core.process_many_s": sum(latencies),
                "core.mutable_probe_insert_s": phases.seconds["mutable_probe_insert"],
                "core.immutable_probe_s": phases.seconds["immutable_probe"],
                "core.merge_s": phases.seconds["merge"],
                "core.merges": stats.merges,
                "core.pairs": stats.matches_emitted,
                "core.pairs_per_probe": stats.matches_emitted / max(1, stats.tuples_processed),
                "core.state_bits": join.memory_bits(),
            }
        return Round(sum(latencies), latencies, digest, layers)
