"""``q3-sparse-parallel``: Q3 self-join, correlated fields, ``ParallelExecutor``.

About one match per probe on ``build_spo_sharded_topology`` at a fixed 4
shards, 1 worker process and default supervision: the parent plus one
worker keep two processes busy.  Parent-side ingress (router stamping,
shard planning, ``route_targets``), the wire, queue back-pressure,
checkpoint shipping and the reduce step carry the cost; materialisation
carries almost none.  The spout is pulled by the executor (closed loop).
"""

from __future__ import annotations

import time

from repro.core import WindowSpec
from repro.dspe.router import RawTuple
from repro.joins import build_spo_sharded_topology
from repro.parallel import ParallelExecutor, reduce_sharded_result
from repro.workloads import q3, self_stream

from .common import Inputs, Round, gaps, paced
from .reference import Digest, JoinInput

SIZES = {
    "full": {"tuples": 40_000, "window": (4000, 1000), "batch": 256},
    "toy": {"tuples": 1_500, "window": (400, 100), "batch": 32},
}
SHARDS = 4
WORKERS = 1
CORRELATION = 0.998
RATE = 1000.0


class Workload:
    name = "q3-sparse-parallel"
    min_rounds = 1
    #: Clock of the end-to-end timings: wall time, because the work is
    #: split between this process and the worker.
    clock = staticmethod(time.perf_counter)
    #: Per-layer times that together explain the timed region.
    attributed = ("parallel.router_s", "parallel.route_targets_s", "reduce.partials_s")

    def __init__(self, size: str = "full") -> None:
        cfg = SIZES[size]
        self.tuples = cfg["tuples"]
        self.batch = cfg["batch"]
        self.window = WindowSpec.count(*cfg["window"])
        self.query = q3()

    def _executor(self, source):
        topology = build_spo_sharded_topology(
            source, self.query, self.window, SHARDS, batch_size=self.batch
        )
        return topology, ParallelExecutor(topology, num_workers=WORKERS)

    def setup(self):
        """Construct topology and executor, then start and stop the
        worker with an empty stream."""
        __, executor = self._executor(iter(()))
        executor.run()
        return executor

    def generate(self, seed: int) -> Inputs:
        raws = self_stream(self.tuples, correlation=CORRELATION, seed=seed)
        join_input = JoinInput.from_query(
            self.query, [r.values for r in raws], [r.stream for r in raws], self.window
        )
        return Inputs(raws, join_input)

    def run_round(self, inputs: Inputs, tracer=None, clock=time.perf_counter) -> Round:
        events = [
            (i / RATE, RawTuple(raw.stream, raw.values, i / RATE))
            for i, raw in enumerate(inputs.items)
        ]
        marks = []
        topology, executor = self._executor(paced(events, self.batch, marks, clock))
        ingress = None
        if tracer is not None:
            from .layers import ParentIngress, bench_joiner_factory

            ingress = ParentIngress(tracer, topology, executor)
            topology.bolts["joiner"].factory = bench_joiner_factory(self.query, self.window)
            tracer.begin("parallel.executor_run")
        t0 = clock()
        result = executor.run()
        remote_records = result.records
        if tracer is not None:
            run_s = tracer.end()
            tracer.begin("reduce.partials")
        reduce_sharded_result(result)
        seconds = clock() - t0
        if tracer is not None:
            reduce_s = tracer.end()
        digest = Digest(len(inputs), expected_records=1)
        results = result.records_named("result")
        digest.add_records(
            [r.payload["tid"] for r in results], [r.payload["matches"] for r in results]
        )
        layers = {}
        if ingress is not None:
            from .layers import wire_costs, worker_totals

            tracer.begin("result.fingerprint")
            result.result_fingerprint()
            fingerprint_s = tracer.end()
            sup = result.supervisor
            layers = {
                "parallel.router_s": ingress.router_s,
                "parallel.router_calls": ingress.router_calls,
                "parallel.route_targets_s": ingress.route_targets_s,
                "parallel.route_targets_calls": ingress.route_targets_calls,
                "parallel.parent_self_s": run_s - ingress.router_s - ingress.route_targets_s,
                "supervisor.checkpoints": sup.checkpoints,
                "supervisor.restarts": sup.restarts,
                "supervisor.replayed_items": sup.replayed_items,
                "reduce.partials_s": reduce_s,
                "result.fingerprint_s": fingerprint_s,
            }
            for key, value in worker_totals(remote_records).items():
                layers[f"worker.{key}"] = value
            partials = [r for r in remote_records if r.name == "partial_batch"]
            for key, value in wire_costs(ingress.fed, partials).items():
                layers[f"wire.{key}"] = value
        return Round(seconds, gaps(marks), digest, layers)
