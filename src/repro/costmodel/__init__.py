"""Performance cost models.

Two models live here, mirroring the paper's architecture:

* ``RooflineCostModel`` (latency.py) — the "hardware ground truth" the
  discrete-event simulator executes against.  It derives iteration times
  from FLOP counts, HBM bytes, and interconnect bytes on the published
  A800 testbed numbers.
* ``AnalyticalModel`` (analytical.py) — the paper's Eq. 7 quadratic model
  ``T = α + β·Σlen + γ·Σlen²``, fitted per parallelism strategy by least
  squares (fitting.py) over profiles stored in the SIB
  (``repro.core.sib``).  The global manager plans with this fitted
  model, exactly as in §5.5.
"""

from repro.costmodel.analytical import AnalyticalModel, StrategyCoefficients
from repro.costmodel.comm import CollectiveModel
from repro.costmodel.fitting import fit_quadratic
from repro.costmodel.latency import IterationCostModel, RooflineCostModel

__all__ = [
    "AnalyticalModel",
    "CollectiveModel",
    "IterationCostModel",
    "RooflineCostModel",
    "StrategyCoefficients",
    "fit_quadratic",
]
