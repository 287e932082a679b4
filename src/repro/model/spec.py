"""Model architecture specifications.

``ModelSpec`` captures exactly the shape parameters that drive serving
cost: hidden size, layer count, attention head layout (MHA/GQA/MQA — the
paper states ESP is compatible with all three, §6), FFN width, and context
window.  Derived properties give parameter counts, weight bytes, and KV
bytes per token; the 488 GB KV cache for a 1M-token request quoted in the
paper's introduction falls out of these numbers.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ModelSpec:
    """Static architecture description of a decoder-only transformer.

    Mixture-of-experts models (§8 notes LoongServe is compatible with
    MoE) set ``num_experts`` > 1: all experts' weights are stored, but
    only ``experts_per_token`` of them compute per token — weights grow,
    linear FLOPs don't.
    """

    name: str
    hidden_size: int
    num_layers: int
    num_heads: int
    num_kv_heads: int
    ffn_hidden_size: int
    vocab_size: int
    context_window: int
    dtype_bytes: int = 2
    num_experts: int = 1
    experts_per_token: int = 1

    def __post_init__(self) -> None:
        if self.hidden_size % self.num_heads != 0:
            raise ValueError(
                f"hidden_size {self.hidden_size} not divisible by num_heads {self.num_heads}"
            )
        if self.num_heads % self.num_kv_heads != 0:
            raise ValueError(
                f"num_heads {self.num_heads} not divisible by num_kv_heads {self.num_kv_heads}"
            )
        if self.dtype_bytes not in (1, 2, 4):
            raise ValueError(f"unsupported dtype width {self.dtype_bytes}")
        if self.num_experts < 1 or self.experts_per_token < 1:
            raise ValueError("expert counts must be >= 1")
        if self.experts_per_token > self.num_experts:
            raise ValueError(
                f"experts_per_token {self.experts_per_token} exceeds "
                f"num_experts {self.num_experts}"
            )

    @property
    def is_moe(self) -> bool:
        return self.num_experts > 1

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.num_heads

    @property
    def kv_hidden_size(self) -> int:
        """Width of the K (or V) projection output."""
        return self.num_kv_heads * self.head_dim

    @property
    def kv_bytes_per_token(self) -> int:
        """Bytes of KV cache one token occupies across all layers.

        K and V each store ``kv_hidden_size`` values per layer.  For the
        LWM/Llama-2-7B shape this is 2 * 32 * 4096 * 2 B = 512 KiB/token,
        which reproduces the paper's "488 GB for 1M tokens" (1e6 tokens *
        512 KiB = 488.3 GiB).
        """
        return 2 * self.num_layers * self.kv_hidden_size * self.dtype_bytes

    @property
    def param_count(self) -> int:
        """Total parameters (attention + all experts' FFNs + embeddings)."""
        h = self.hidden_size
        attn = h * h + 2 * h * self.kv_hidden_size + h * h  # Wq, Wk+Wv, Wo
        ffn = 3 * h * self.ffn_hidden_size * self.num_experts  # SwiGLU per expert
        router = h * self.num_experts if self.is_moe else 0
        per_layer = attn + ffn + router + 2 * h  # + two RMSNorm weights
        embeddings = self.vocab_size * h
        head = self.vocab_size * h
        return self.num_layers * per_layer + embeddings + head + h

    @property
    def weight_bytes(self) -> int:
        return self.param_count * self.dtype_bytes

    def flops_per_token_linear(self) -> float:
        """FLOPs per token in the length-independent (linear) layers.

        Projections, the *active* experts' FFNs, and the LM head: 2 FLOPs
        per parameter touched.  This is the β-coefficient workload in the
        paper's analytical model (Eq. 7).
        """
        h = self.hidden_size
        attn_proj = 2 * (h * h + 2 * h * self.kv_hidden_size + h * h)
        ffn = 2 * 3 * h * self.ffn_hidden_size * self.experts_per_token
        router = 2 * h * self.num_experts if self.is_moe else 0
        head = 2 * self.vocab_size * h / self.num_layers  # amortised per layer
        return self.num_layers * (attn_proj + ffn + router + head)

    def attention_flops(self, query_tokens: int, context_tokens: float) -> float:
        """FLOPs of the attention score+value computation.

        ``query_tokens`` queries attending to ``context_tokens`` keys:
        2 (QK^T) + 2 (PV) FLOPs per query-key pair per head dimension.
        This is the quadratic γ-coefficient workload of Eq. 7.
        """
        if query_tokens < 0 or context_tokens < 0:
            raise ValueError("token counts must be non-negative")
        per_layer = 4 * query_tokens * context_tokens * self.hidden_size
        return self.num_layers * per_layer


# LWM-1M-Text: the paper's evaluation model (§7.1).  Same architecture as
# Llama-2-7B: 32 layers, hidden 4096, 32 MHA heads, SwiGLU FFN 11008.
LWM_7B_1M = ModelSpec(
    name="LWM-1M-Text-7B",
    hidden_size=4096,
    num_layers=32,
    num_heads=32,
    num_kv_heads=32,
    ffn_hidden_size=11008,
    vocab_size=32000,
    context_window=1_000_000,
)

LLAMA2_13B = ModelSpec(
    name="Llama-2-13B",
    hidden_size=5120,
    num_layers=40,
    num_heads=40,
    num_kv_heads=40,
    ffn_hidden_size=13824,
    vocab_size=32000,
    context_window=4096,
)

LLAMA2_70B = ModelSpec(
    name="Llama-2-70B",
    hidden_size=8192,
    num_layers=80,
    num_heads=64,
    num_kv_heads=8,
    ffn_hidden_size=28672,
    vocab_size=32000,
    context_window=4096,
)

# Mixture-of-experts reference (the paper cites Mixtral's MoE as the §8
# compatibility target): 8 experts, 2 active per token, GQA attention.
MIXTRAL_8X7B = ModelSpec(
    name="Mixtral-8x7B",
    hidden_size=4096,
    num_layers=32,
    num_heads=32,
    num_kv_heads=8,
    ffn_hidden_size=14336,
    vocab_size=32000,
    context_window=32768,
    num_experts=8,
    experts_per_token=2,
)
