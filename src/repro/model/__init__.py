"""Transformer model substrate: shapes and the per-token costs they imply.

The paper serves LWM-1M-Text, which reuses the Llama-2-7B architecture with
a 1M-token context window (§7.1).  ``ModelSpec`` encodes the architecture
so that every cost and capacity the scheduler reasons about is derived from
the real model shape rather than hard-coded constants; the roofline cost
model (``repro.costmodel.latency``) turns its per-token FLOP and byte
counts into iteration times.
"""

from repro.model.spec import (
    LLAMA2_13B,
    LLAMA2_70B,
    LWM_7B_1M,
    MIXTRAL_8X7B,
    AttentionKind,
    ModelSpec,
)

__all__ = [
    "AttentionKind",
    "LLAMA2_13B",
    "LLAMA2_70B",
    "LWM_7B_1M",
    "MIXTRAL_8X7B",
    "ModelSpec",
]
