"""Checkpointing SPO-Join operator state (recovery support).

Stream processors pair at-least-once delivery with periodic operator
snapshots so a failed worker can resume from its last checkpoint instead
of an empty window.  :func:`checkpoint` captures everything a
:class:`~repro.core.spojoin.SPOJoin` needs to continue — the mutable
windows' tuples, every immutable batch's runs/permutation/offsets, and
the merge/expiry counters — as plain JSON-serializable data (no pickle),
and :func:`restore` rebuilds an operator that produces bit-for-bit the
same results for all future tuples.

The snapshot cost is O(window): the mutable side re-serializes its
tuples, the immutable side its (already flat) arrays.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..indexes.sorted_run import SortedRun
from .merge import MergeBatch, MergeSide
from .query import QuerySpec
from .spojoin import SPOJoin
from .tuples import StreamTuple
from .window import WindowKind, WindowSpec

__all__ = [
    "checkpoint",
    "restore",
    "batch_state",
    "batch_from_state",
    "component_tuples",
]

_FORMAT_VERSION = 1


def _side_state(side: MergeSide) -> Dict[str, Any]:
    return {
        "runs": [
            {"values": list(run.values), "tids": list(run.tids)}
            for run in side.runs
        ],
        "permutation": (
            list(side.permutation) if side.permutation is not None else None
        ),
        "tids": list(side.tids),
    }


def _side_from_state(state: Dict[str, Any]) -> MergeSide:
    runs = [SortedRun(r["values"], r["tids"]) for r in state["runs"]]
    return MergeSide(runs, state["permutation"], state["tids"])


def _batch_state(batch: MergeBatch) -> Dict[str, Any]:
    return {
        "batch_id": batch.batch_id,
        "left": _side_state(batch.left),
        "right": _side_state(batch.right) if batch.right is not None else None,
        "offsets": [
            {"pred": pred_idx, "direction": direction, "array": list(array)}
            for (pred_idx, direction), array in batch.offsets.items()
        ],
    }


def _batch_from_state(state: Dict[str, Any]) -> MergeBatch:
    offsets = {
        (entry["pred"], entry["direction"]): entry["array"]
        for entry in state["offsets"]
    }
    right = _side_from_state(state["right"]) if state["right"] else None
    return MergeBatch(
        state["batch_id"], _side_from_state(state["left"]), right, offsets
    )


def batch_state(batch: MergeBatch) -> Dict[str, Any]:
    """Serialize one immutable merge batch as plain picklable data.

    The unit of state migration: adaptive repartitioning ships whole
    merge intervals (filtered to the rows a shard owns) between shard
    PEs in this format, the same wire shape :func:`checkpoint` embeds
    per batch.
    """
    return _batch_state(batch)


def batch_from_state(state: Dict[str, Any]) -> MergeBatch:
    """Inverse of :func:`batch_state`."""
    return _batch_from_state(state)


def checkpoint(join: SPOJoin) -> Dict[str, Any]:
    """Snapshot an operator's complete state as plain data."""
    state: Dict[str, Any] = {
        "version": _FORMAT_VERSION,
        "window": {
            "kind": join.window.kind.value,
            "length": join.window.length,
            "slide": join.window.slide,
        },
        "sub_intervals": join.policy.sub_intervals,
        "evaluator": join.evaluator,
        "use_offsets": join.use_offsets,
        "bptree_order": join.bptree_order,
        "left_stream": join.left_stream,
        "right_stream": join.right_stream,
        "num_threads": join.num_threads,
        "backend": join.backend,
        "backend_options": dict(join.backend_options),
        "merge_counter": join._clock.count,
        "next_batch_id": join._next_batch_id,
        "next_merge_time": join._clock.next_time,
        "degraded": join.degraded,
        "deferred_merges": join.deferred_merges,
        "expired_batches": join.immutable.expired_batches,
        "mutable": {
            "left": component_tuples(join.mutable_left),
            "right": (
                component_tuples(join.mutable_right)
                if join.mutable_right is not None
                else None
            ),
        },
        "immutable": [
            _batch_state(batch.batch) for batch in join.immutable.batches
        ],
        "stats": {
            "tuples_processed": join.stats.tuples_processed,
            "matches_emitted": join.stats.matches_emitted,
            "merges": join.stats.merges,
            "expired_batches": join.stats.expired_batches,
            "mutable_matches": join.stats.mutable_matches,
            "immutable_matches": join.stats.immutable_matches,
            "degraded_tuples": join.stats.degraded_tuples,
            "deferred_merges": join.stats.deferred_merges,
        },
    }
    return state


def component_tuples(component) -> List[Dict[str, Any]]:
    """Serialize a mutable component's tuples in arrival order.

    Reads the component's columnar arena directly, so the snapshot holds
    the *exact* payload of every windowed tuple — all fields (including
    ones no predicate references, which the historical tree-based
    reconstruction had to zero-fill), stream names, and event times —
    still as plain JSON-serializable Python data.  Public because the
    sharded operator's checkpoint (:mod:`repro.parallel.spo_shard`)
    serializes its mutable window through the same path.
    """
    arena = component.arena
    tids = arena.tid_column().tolist()
    times = arena.event_time_column().tolist()
    num_fields = arena.num_fields or 0
    out = []
    for i, tid in enumerate(tids):
        values = (
            arena.fields[:num_fields, i].tolist() if num_fields else []
        )
        out.append(
            {
                "tid": tid,
                "values": values,
                "stream": arena.stream_of(i),
                "event_time": times[i],
            }
        )
    return out


def restore(
    query: QuerySpec, state: Dict[str, Any], batch_factory=None
) -> SPOJoin:
    """Rebuild an operator from a :func:`checkpoint` snapshot.

    ``batch_factory`` overrides the immutable representation; by default
    the snapshot's registered backend name is used (snapshots written
    before backends existed restore to the default ``"memory"``, as do
    snapshots of joins built with a custom, unregistered factory).
    """
    if state.get("version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {state.get('version')!r}"
        )
    window_state = state["window"]
    kind = WindowKind(window_state["kind"])
    window = WindowSpec(kind, window_state["length"], window_state["slide"])
    backend = state.get("backend", "memory")
    if backend == "custom" and batch_factory is None:
        backend = "memory"
    join = SPOJoin(
        query,
        window,
        sub_intervals=state["sub_intervals"],
        evaluator=state["evaluator"],
        use_offsets=state["use_offsets"],
        # Absent in version-1 snapshots written before the order was
        # serialized; those were all taken at the default.
        bptree_order=state.get("bptree_order", 64),
        left_stream=state["left_stream"],
        right_stream=state["right_stream"],
        num_threads=state["num_threads"],
        batch_factory=batch_factory,
        backend=None if batch_factory is not None else backend,
        backend_options=(
            None
            if batch_factory is not None
            else state.get("backend_options")
        ),
    )

    # Mutable windows: re-insert tuples in arrival order.
    for entry in state["mutable"]["left"]:
        join.mutable_left.insert(
            StreamTuple(
                entry["tid"],
                entry.get("stream", state["left_stream"]),
                entry["values"],
                entry.get("event_time", 0.0),
            )
        )
    if state["mutable"]["right"] is not None:
        assert join.mutable_right is not None
        for entry in state["mutable"]["right"]:
            join.mutable_right.insert(
                StreamTuple(
                    entry["tid"],
                    entry.get("stream", state["right_stream"]),
                    entry["values"],
                    entry.get("event_time", 0.0),
                )
            )

    # Immutable batches, in linked-list order.
    for batch_state in state["immutable"]:
        merge_batch = _batch_from_state(batch_state)
        join.immutable.append(join.batch_factory(query, merge_batch))
    join.immutable.expired_batches = state["expired_batches"]

    # Counters.
    join._clock.count = state["merge_counter"]
    join._next_batch_id = state["next_batch_id"]
    join._clock.next_time = state["next_merge_time"]
    # Absent in snapshots written before overload degradation existed;
    # those were all taken with degradation off.
    join.degraded = state.get("degraded", False)
    join.deferred_merges = state.get("deferred_merges", 0)
    stats = state["stats"]
    join.stats.tuples_processed = stats["tuples_processed"]
    join.stats.matches_emitted = stats["matches_emitted"]
    join.stats.merges = stats["merges"]
    join.stats.expired_batches = stats["expired_batches"]
    join.stats.mutable_matches = stats["mutable_matches"]
    join.stats.immutable_matches = stats["immutable_matches"]
    join.stats.degraded_tuples = stats.get("degraded_tuples", 0)
    join.stats.deferred_merges = stats.get("deferred_merges", 0)
    return join
