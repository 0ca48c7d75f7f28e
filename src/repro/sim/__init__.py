"""Discrete-event simulation substrate.

Replaces the NS2 simulator used in the paper's evaluation: an event
heap with a simulated clock (:mod:`~repro.sim.engine`), resettable and
periodic timers (:mod:`~repro.sim.timers`), named deterministic RNG
streams (:mod:`~repro.sim.rng`), and a trace bus for metrics and tests
(:mod:`~repro.sim.trace`).
"""

from .engine import Engine, Event, SimulationError
from .rng import RngRegistry, stable_hash32
from .timers import PeriodicTimer, Timer
from .trace import TraceBus, TraceRecord

__all__ = [
    "Engine",
    "Event",
    "SimulationError",
    "RngRegistry",
    "stable_hash32",
    "PeriodicTimer",
    "Timer",
    "TraceBus",
    "TraceRecord",
]
