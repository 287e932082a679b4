"""Synthetic dataset length distributions.

Published facts reproduced here (§7.1):

* **ShareGPT** — chat transcripts; sequence lengths 4 – 2.3K tokens;
  short inputs, comparatively long outputs (chatty decode phase — the
  workload that makes elastic scale-up matter in Figure 13).
* **L-Eval** — long-document QA/summarisation; 2.7K – 210.5K tokens;
  long inputs, short grounded answers.
* **LV-Eval** — the longest benchmark available at the time; 15.1K –
  497.3K tokens; very long inputs, short answers.
* **Mixed** — equal-probability mixture of the three.

Each distribution is a clipped lognormal over inputs and outputs, the
standard shape for LLM serving traces; parameters were chosen so medians
and tails sit inside the published ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LengthSpec:
    """Clipped lognormal over token counts."""

    log_mean: float
    log_sigma: float
    minimum: int
    maximum: int

    def sample(self, rng: np.random.Generator) -> int:
        value = rng.lognormal(self.log_mean, self.log_sigma)
        return int(min(max(value, self.minimum), self.maximum))


@dataclass(frozen=True)
class LengthDistribution:
    """Joint (input_len, output_len) sampler for one dataset."""

    name: str
    input_spec: LengthSpec
    output_spec: LengthSpec

    def sample(self, rng: np.random.Generator) -> tuple[int, int]:
        return self.input_spec.sample(rng), self.output_spec.sample(rng)


# ShareGPT prompts top out at ~2.3K tokens while the long-document
# datasets (L-Eval, LV-Eval) start at ~2.7K, so this threshold cleanly
# splits the Mixed workload into its short and long populations (used by
# length-aware fleet routing).
LONG_INPUT_THRESHOLD = 2_600

SHAREGPT = LengthDistribution(
    name="ShareGPT",
    input_spec=LengthSpec(log_mean=math.log(180.0), log_sigma=1.1, minimum=4, maximum=2300),
    output_spec=LengthSpec(log_mean=math.log(220.0), log_sigma=0.9, minimum=2, maximum=2000),
)

LEVAL = LengthDistribution(
    name="L-Eval",
    input_spec=LengthSpec(
        log_mean=math.log(12_000.0), log_sigma=1.0, minimum=2700, maximum=210_500
    ),
    output_spec=LengthSpec(log_mean=math.log(180.0), log_sigma=0.8, minimum=8, maximum=1200),
)

LVEVAL = LengthDistribution(
    name="LV-Eval",
    input_spec=LengthSpec(
        log_mean=math.log(60_000.0), log_sigma=0.9, minimum=15_100, maximum=497_300
    ),
    output_spec=LengthSpec(log_mean=math.log(120.0), log_sigma=0.7, minimum=8, maximum=600),
)


@dataclass(frozen=True)
class MixedDistribution:
    """Uniform mixture over component datasets (the paper's "Mixed")."""

    name: str
    components: tuple[LengthDistribution, ...]
    max_input_len: int | None = None

    def sample(self, rng: np.random.Generator) -> tuple[int, int]:
        component = self.components[int(rng.integers(len(self.components)))]
        input_len, output_len = component.sample(rng)
        if self.max_input_len is not None:
            input_len = min(input_len, self.max_input_len)
        return input_len, output_len


MIXED = MixedDistribution(name="Mixed", components=(SHAREGPT, LEVAL, LVEVAL))


@dataclass(frozen=True)
class ZipfMixed:
    """Zipf-skewed sampling over a pool of Mixed lengths (Figure 12).

    A pool of candidate (input, output) pairs is drawn from Mixed, sorted
    by total length ascending, and sampled with probability proportional
    to ``rank^-zipf``.  Larger ``zipf`` skews traffic toward short
    requests — the paper sweeps 1.0 / 1.2 / 1.4 and caps lengths at 200K
    so the replicated baseline can serve them at all.
    """

    name: str
    zipf: float
    pool_size: int = 512
    max_input_len: int = 200_000
    seed: int = 20_240_404

    def sample(self, rng: np.random.Generator) -> tuple[int, int]:
        pool = self._pool()
        ranks = np.arange(1, len(pool) + 1, dtype=float)
        weights = ranks**-self.zipf
        weights /= weights.sum()
        index = int(rng.choice(len(pool), p=weights))
        return pool[index]

    def _pool(self) -> list[tuple[int, int]]:
        rng = np.random.default_rng(self.seed)
        base = MixedDistribution(
            name="Mixed", components=(SHAREGPT, LEVAL, LVEVAL),
            max_input_len=self.max_input_len,
        )
        pool = [base.sample(rng) for _ in range(self.pool_size)]
        pool.sort(key=lambda pair: pair[0] + pair[1])
        return pool


DATASETS: dict[str, LengthDistribution | MixedDistribution] = {
    "sharegpt": SHAREGPT,
    "leval": LEVAL,
    "lveval": LVEVAL,
    "mixed": MIXED,
}
