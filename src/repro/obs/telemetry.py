"""Time-series telemetry: counters, gauges, histograms, and a registry.

Metrics are sampled on control ticks (or a standalone timer when no
:class:`~repro.fleet.control.FleetController` is running): each
:meth:`MetricsRegistry.sample` call appends ``(now, value)`` points to
per-metric series that stay queryable post-run and render as an ASCII
timeline in experiment reports.

Histograms use fixed bucket bounds so two histograms over the same
bounds merge by adding counts — merge is associative and commutative,
which is what lets per-replica histograms roll up into fleet totals in
any order.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

#: Default histogram bucket upper bounds (seconds-ish scale); the last
#: implicit bucket is +inf.
DEFAULT_BOUNDS = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)

_SPARK = "▁▂▃▄▅▆▇█"
# Characters per rendered sparkline; longer series are bucket-averaged.
SPARKLINE_WIDTH = 60


@dataclass
class Counter:
    """Monotonically increasing count."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


@dataclass
class Gauge:
    """Last-write-wins instantaneous value."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


@dataclass
class Histogram:
    """Fixed-bound bucketed distribution.

    ``counts[i]`` holds observations with ``value <= bounds[i]``; the
    final slot is the +inf overflow bucket, so ``len(counts) ==
    len(bounds) + 1``.
    """

    name: str
    bounds: tuple[float, ...] = DEFAULT_BOUNDS
    counts: list[int] = field(default_factory=list)
    total: float = 0.0

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)
        if len(self.counts) != len(self.bounds) + 1:
            raise ValueError(
                f"histogram {self.name!r}: {len(self.counts)} counts "
                f"for {len(self.bounds)} bounds"
            )

    @property
    def count(self) -> int:
        return sum(self.counts)

    @property
    def value(self) -> float:
        """Sampled series value: the running mean."""
        n = self.count
        return self.total / n if n else 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value

    def quantile(self, q: float) -> float:
        """Upper-bound estimate of the ``q``-quantile (0 <= q <= 1)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        n = self.count
        if n == 0:
            return 0.0
        rank = q * n
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank and c:
                return self.bounds[i] if i < len(self.bounds) else float("inf")
        return float("inf")


class MetricsRegistry:
    """Named metrics plus their sampled time series.

    ``series[name]`` is a list of ``(time, value)`` points appended by
    :meth:`sample`; instruments created after sampling has started just
    have shorter series.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self.series: dict[str, list[tuple[float, float]]] = {}
        self.sample_times: list[float] = []

    def _get(self, name: str, factory, kind):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
            self.series[name] = []
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, lambda: Counter(name), Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, lambda: Gauge(name), Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, lambda: Histogram(name), Histogram)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        return self._metrics.get(name)

    def histograms(self) -> dict[str, Histogram]:
        """The histogram-typed instruments by name, in name order."""
        return {
            name: self._metrics[name]
            for name in self.names()
            if isinstance(self._metrics[name], Histogram)
        }

    def sample(self, now: float) -> None:
        """Append every instrument's current value to its series."""
        self.sample_times.append(now)
        for name, metric in self._metrics.items():
            self.series[name].append((now, metric.value))

    # ------------------------------------------------------------------
    # Post-run rendering
    # ------------------------------------------------------------------

    def render_timeline(self) -> str:
        """ASCII sparkline timeline of every sampled series."""
        names = self.names()
        lines = []
        span = ""
        if self.sample_times:
            span = f"  [{self.sample_times[0]:.1f}s .. {self.sample_times[-1]:.1f}s]"
        lines.append(f"telemetry ({len(self.sample_times)} samples){span}")
        label_w = max((len(n) for n in names), default=0)
        for name in names:
            points = self.series.get(name, [])
            lines.append(
                f"  {name:<{label_w}}  {sparkline([v for _, v in points])}"
            )
        return "\n".join(lines)


def sparkline(values: list[float]) -> str:
    """Render values as a ``SPARKLINE_WIDTH``-wide unicode sparkline with
    min/max."""
    if not values:
        return "(no samples)"
    if len(values) > SPARKLINE_WIDTH:
        # Downsample by bucket-mean so bursts stay visible at any width.
        step = len(values) / SPARKLINE_WIDTH
        values = [
            sum(chunk) / len(chunk)
            for chunk in (
                values[int(i * step): max(int((i + 1) * step), int(i * step) + 1)]
                for i in range(SPARKLINE_WIDTH)
            )
        ]
    lo, hi = min(values), max(values)
    if hi <= lo:
        bar = _SPARK[0] * len(values)
    else:
        scale = (len(_SPARK) - 1) / (hi - lo)
        bar = "".join(_SPARK[int((v - lo) * scale)] for v in values)
    return f"{bar}  min={lo:.3g} max={hi:.3g}"
