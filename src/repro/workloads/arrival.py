"""Arrival processes.

The paper generates arrivals with a Poisson process (§7.1); a fixed-gap
process is provided for deterministic tests and overhead microbenches,
and an on/off modulated Poisson process (``BurstyArrivals``) for the
elastic-fleet experiments — production traffic is bursty, and burstiness
is exactly what a closed-loop control plane (autoscaling, work stealing)
exploits over route-once placement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PoissonArrivals:
    """Exponential inter-arrival gaps at ``rate`` requests/second."""

    rate: float

    def __post_init__(self) -> None:
        if not 0 < self.rate < math.inf:
            raise ValueError(
                f"arrival rate must be finite and positive, got {self.rate}"
            )

    def times(self, count: int, rng: np.random.Generator) -> list[float]:
        if count < 0:
            raise ValueError("count must be non-negative")
        gaps = rng.exponential(1.0 / self.rate, size=count)
        return np.cumsum(gaps).tolist()


@dataclass(frozen=True)
class BurstyArrivals:
    """On/off Markov-modulated Poisson arrivals averaging ``rate``.

    Each cycle of ``cycle_s`` seconds spends ``burst_fraction`` of its
    length in a burst phase whose instantaneous rate is ``burst_factor``
    times the off-phase rate; the two phase rates are scaled so the
    *mean* rate over a cycle equals ``rate``, which keeps bursty traces
    comparable to Poisson traces at the same nominal load.  Sampling is
    the standard piecewise-thinning construction: draw an exponential
    gap at the current phase's rate, and restart from the phase boundary
    whenever the gap crosses it.
    """

    rate: float
    burst_factor: float = 4.0
    burst_fraction: float = 0.25
    cycle_s: float = 20.0

    def __post_init__(self) -> None:
        if not 0 < self.rate < math.inf:
            raise ValueError(
                f"arrival rate must be finite and positive, got {self.rate}"
            )
        if self.burst_factor < 1.0:
            raise ValueError(f"burst_factor must be >= 1, got {self.burst_factor}")
        if not 0.0 < self.burst_fraction < 1.0:
            raise ValueError(
                f"burst_fraction must be in (0, 1), got {self.burst_fraction}"
            )
        if self.cycle_s <= 0:
            raise ValueError(f"cycle_s must be positive, got {self.cycle_s}")

    def phase_rates(self) -> tuple[float, float]:
        """(burst rate, off rate), mean-preserving for the cycle."""
        f, p = self.burst_factor, self.burst_fraction
        off = self.rate / (p * f + (1.0 - p))
        return off * f, off

    def _rate_at(self, t: float) -> float:
        burst_rate, off_rate = self.phase_rates()
        in_cycle = t % self.cycle_s
        return burst_rate if in_cycle < self.burst_fraction * self.cycle_s else off_rate

    def _next_boundary(self, t: float) -> float:
        cycle_start = (t // self.cycle_s) * self.cycle_s
        burst_end = cycle_start + self.burst_fraction * self.cycle_s
        if t < burst_end:
            return burst_end
        return cycle_start + self.cycle_s

    def times(self, count: int, rng: np.random.Generator) -> list[float]:
        if count < 0:
            raise ValueError("count must be non-negative")
        times: list[float] = []
        t = 0.0
        while len(times) < count:
            gap = rng.exponential(1.0 / self._rate_at(t))
            boundary = self._next_boundary(t)
            if t + gap >= boundary:
                t = boundary  # phase changed before the arrival: resample
                continue
            t += gap
            times.append(t)
        return times


@dataclass(frozen=True)
class UniformArrivals:
    """Deterministic fixed-gap arrivals at ``rate`` requests/second."""

    rate: float

    def __post_init__(self) -> None:
        if not 0 < self.rate < math.inf:
            raise ValueError(
                f"arrival rate must be finite and positive, got {self.rate}"
            )

    def times(self, count: int, rng: np.random.Generator | None = None) -> list[float]:
        gap = 1.0 / self.rate
        return [gap * (i + 1) for i in range(count)]
