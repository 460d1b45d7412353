"""Planted costs for the sensitivity check.

A plant wraps one layer's public function so that every call first
busy-waits a fixed time. ``selftest.py`` runs the benchmark with and
without a plant and checks that the workload named for that layer moves
beyond its bound, that the layer's self time rises more than any other
layer's, and that the bypass workload stays within its bound.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Tuple


def _targets() -> Dict[str, Tuple[object, str, float]]:
    from repro.conformance import oracles
    from repro.core.srr import SRRScheduler
    from repro.net.eventq import CalendarQueue

    # name -> (owner, attribute, seconds per call)
    return {
        "eventq.pop": (CalendarQueue, "pop", 50e-6),
        "conformance.lag": (oracles, "check_fluid_lag", 25e-3),
        "sched.srr_dequeue": (SRRScheduler, "dequeue", 300e-6),
    }


PLANTS = ("eventq.pop", "conformance.lag", "sched.srr_dequeue")


def install_plant(name: str) -> None:
    """Wrap the named function with a fixed busy-wait per call."""
    owner, attr, cost = _targets()[name]
    original: Callable = getattr(owner, attr)
    clock = time.perf_counter

    def planted(*args, **kwargs):
        end = clock() + cost
        while clock() < end:
            pass
        return original(*args, **kwargs)

    setattr(owner, attr, planted)
