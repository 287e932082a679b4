"""LoongServe reproduction: elastic sequence parallelism for long-context
LLM serving (SOSP 2024), rebuilt as a simulation + functional-engine stack.

Public API quick tour
---------------------

Serving (performance layer, discrete-event simulation)::

    from repro import default_config, LoongServeServer, make_trace, SHAREGPT

    server = LoongServeServer(default_config())
    result = server.run(make_trace(SHAREGPT, rate=10.0, num_requests=100))

Mechanisms (functional layer, numpy)::

    from repro.engine import (
        TransformerWeights, FunctionalInstance, striped_prefill,
        DistributedDecoder,
    )

Experiments::

    python -m repro.experiments figure10

See README.md for the architecture overview and the module layout.
"""

from repro.config import SchedulerConfig, SystemConfig, default_config
from repro.core.server import LoongServeServer
from repro.costmodel.latency import RooflineCostModel
from repro.metrics.latency import summarize_latency
from repro.metrics.slo import IdealLatencyModel, slo_report
from repro.types import Phase, Request, RequestState, ServeResult
from repro.workloads.datasets import LEVAL, LVEVAL, MIXED, SHAREGPT
from repro.workloads.trace_gen import clone_requests, make_trace

__version__ = "1.0.0"

__all__ = [
    "IdealLatencyModel",
    "LEVAL",
    "LVEVAL",
    "LoongServeServer",
    "MIXED",
    "Phase",
    "Request",
    "RequestState",
    "RooflineCostModel",
    "SHAREGPT",
    "SchedulerConfig",
    "ServeResult",
    "SystemConfig",
    "clone_requests",
    "default_config",
    "make_trace",
    "slo_report",
    "summarize_latency",
]
