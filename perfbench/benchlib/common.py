"""Pieces every workload shares: sizes, per-round results, the round loop."""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .reference import Digest, JoinInput
from .tracing import Tracer

__all__ = ["Inputs", "Round", "paced", "gaps", "run_rounds"]


@dataclass
class Inputs:
    """Generated inputs: what the program receives, and the reference view."""

    items: list
    join_input: JoinInput

    def __len__(self) -> int:
        return len(self.join_input)


@dataclass
class Round:
    """One pass of a workload's whole input through a fresh system."""

    seconds: float
    latencies: List[float]
    digest: Digest
    layers: Dict[str, float] = field(default_factory=dict)


def paced(
    items, every: int, marks: List[float], clock: Callable[[], float] = time.perf_counter
):
    """Yield ``items``, stamping ``clock`` each time ``every`` of them have
    been handed out — the ingress batch clock of a closed loop."""
    for i, item in enumerate(items):
        if i % every == 0:
            marks.append(clock())
        yield item


def gaps(marks: List[float]) -> List[float]:
    return [b - a for a, b in zip(marks, marks[1:])]


def run_rounds(
    workload,
    inputs: Inputs,
    budget_s: float,
    min_rounds: int,
    tracer: Optional[Tracer] = None,
    run_id: str = "",
    clock: Callable[[], float] = time.perf_counter,
    warmup: int = 0,
) -> List[Round]:
    """Run fresh rounds until the budget would be overrun.

    ``warmup`` untraced rounds run first and are discarded, so lazy
    imports and first-call set-up in the program are done before timing;
    they count against the budget.  A new round starts only if the
    previous round's wall duration still fits in the budget, so a run
    lasts about ``budget_s``; at least ``min_rounds`` run regardless.
    Each round times itself on ``clock`` and starts from a collected
    heap, so no round pays for garbage the previous one left.
    """
    rounds: List[Round] = []
    start = time.perf_counter()
    for __ in range(warmup):
        gc.collect()
        workload.run_round(inputs)
    last = 0.0
    while len(rounds) < min_rounds or time.perf_counter() - start + last <= budget_s:
        gc.collect()
        began = time.perf_counter()
        if tracer is not None:
            tracer.run_id = f"{run_id}/round{len(rounds)}"
        rounds.append(workload.run_round(inputs, tracer, clock))
        last = time.perf_counter() - began
    return rounds
