"""Discrete-event simulation substrate.

Serving systems in this reproduction are event-driven processes over a
shared virtual clock: request arrivals and iteration completions are
events; schedulers react to events and schedule the next ones.  The core
is deliberately small — a heap-ordered event queue and a run loop — so
the serving logic above it stays readable.
"""

from repro.sim.engine import Simulator
from repro.sim.events import Event, EventQueue

__all__ = ["Event", "EventQueue", "Simulator"]
