"""Names and units of every metric the benchmark reports.

``END_TO_END`` is what a user of the join sees, measured with tracing
off; ``PER_LAYER`` comes from the traced run.  A layer a workload does
not run reports 0 there.
"""

from __future__ import annotations

__all__ = ["END_TO_END", "PER_LAYER"]

END_TO_END = {
    "throughput_tps": "1/s",
    "batch_latency_p50_ms": "ms",
    "batch_latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "match_accuracy": "ratio",
}

PER_LAYER = {
    # repro.core, via SPOJoin.phase_hook / stats / memory_bits()
    "core.process_many_s": "s",
    "core.mutable_probe_insert_s": "s",
    "core.immutable_probe_s": "s",
    "core.merge_s": "s",
    "core.merges": "count",
    "core.materialise_s": "s",
    "core.pairs": "count",
    "core.pairs_per_probe": "count",
    "core.state_bits": "bits",
    # repro.parallel, parent side
    "parallel.router_s": "s",
    "parallel.router_calls": "count",
    "parallel.route_targets_s": "s",
    "parallel.route_targets_calls": "count",
    "parallel.parent_self_s": "s",
    # parent <-> worker wire
    "wire.messages": "count",
    "wire.bytes": "bytes",
    "wire.encode_s": "s",
    "wire.decode_s": "s",
    "wire.reply_bytes": "bytes",
    # worker side
    "worker.busy_s": "s",
    "worker.shard_compute_s": "s",
    "worker.record_build_s": "s",
    "worker.idle_s": "s",
    "worker.snapshot_s": "s",
    "worker.snapshot_bytes": "bytes",
    # supervision and reduce
    "supervisor.checkpoints": "count",
    "supervisor.restarts": "count",
    "supervisor.replayed_items": "count",
    "reduce.partials_s": "s",
    # simulated DSPE + distributed operators
    "sim.router_busy_s": "s",
    "sim.pred_busy_s": "s",
    "sim.logical_busy_s": "s",
    "sim.perm_busy_s": "s",
    "sim.pojoin_busy_s": "s",
    "sim.engine_self_s": "s",
    "sim.events": "count",
    "sim.messages": "count",
    "sim.wait_max_s": "s",
    # verification, outside the timed region
    "result.fingerprint_s": "s",
    # the traced run itself
    "trace.overhead_share": "ratio",
    "trace.unattributed_share": "ratio",
    "trace.spans": "count",
}
