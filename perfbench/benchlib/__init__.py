"""Benchmark library: workloads, reference join, tracing and layer timers.

Workload modules import the program, so they load lazily: the set-up
probe times the imports of exactly one workload.
"""

from __future__ import annotations

import importlib

__all__ = ["WORKLOADS", "load"]

#: Workload name -> module inside this package.
WORKLOADS = {
    "q3-dense-local": "dense",
    "q3-sparse-parallel": "sparse",
    "q1-cross-sim": "sim",
}


def load(name: str, size: str = "full"):
    """Import one workload's module and build the workload."""
    module = importlib.import_module(f".{WORKLOADS[name]}", __name__)
    return module.Workload(size)
