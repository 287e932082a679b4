"""Tests for mixture-of-experts model support (§8 compatibility)."""

import pytest

from repro.model.spec import LWM_7B_1M, MIXTRAL_8X7B, ModelSpec


class TestMoESpec:
    def test_mixtral_param_count(self):
        """Mixtral 8x7B holds ~47B parameters total."""
        assert 44e9 < MIXTRAL_8X7B.param_count < 50e9

    def test_dense_model_is_not_moe(self):
        assert not LWM_7B_1M.is_moe

    def test_moe_flops_track_active_experts(self):
        """FLOPs per token for Mixtral sit far below a dense 47B model's."""
        dense_equivalent = ModelSpec(
            name="dense-47b-ish",
            hidden_size=MIXTRAL_8X7B.hidden_size,
            num_layers=MIXTRAL_8X7B.num_layers,
            num_heads=MIXTRAL_8X7B.num_heads,
            num_kv_heads=MIXTRAL_8X7B.num_kv_heads,
            ffn_hidden_size=MIXTRAL_8X7B.ffn_hidden_size * 8,
            vocab_size=MIXTRAL_8X7B.vocab_size,
            context_window=MIXTRAL_8X7B.context_window,
        )
        assert (
            MIXTRAL_8X7B.flops_per_token_linear()
            < 0.4 * dense_equivalent.flops_per_token_linear()
        )

    def test_moe_kv_cache_matches_gqa(self):
        """MoE changes FFN weights, not the KV cache (§8: MoE reduces
        memory footprint relative to a dense model of equal quality)."""
        per_token = MIXTRAL_8X7B.kv_bytes_per_token
        expected = (
            2 * MIXTRAL_8X7B.num_layers
            * MIXTRAL_8X7B.num_kv_heads * MIXTRAL_8X7B.head_dim
            * MIXTRAL_8X7B.dtype_bytes
        )
        assert per_token == expected

    def test_rejects_more_active_than_total_experts(self):
        with pytest.raises(ValueError):
            ModelSpec(
                name="bad", hidden_size=64, num_layers=1, num_heads=4,
                num_kv_heads=4, ffn_hidden_size=128, vocab_size=100,
                context_window=128, num_experts=2, experts_per_token=3,
            )

    def test_rejects_zero_experts(self):
        with pytest.raises(ValueError):
            ModelSpec(
                name="bad", hidden_size=64, num_layers=1, num_heads=4,
                num_kv_heads=4, ffn_hidden_size=128, vocab_size=100,
                context_window=128, num_experts=0,
            )


class TestMoEServing:
    def test_moe_model_serves_end_to_end(self):
        """The whole stack (config, cost model, scheduler) accepts MoE."""
        from repro.config import default_config
        from repro.core.server import LoongServeServer
        from repro.workloads.datasets import SHAREGPT
        from repro.workloads.trace_gen import make_trace

        config = default_config(model=MIXTRAL_8X7B, tensor_parallel=2)
        server = LoongServeServer(config)
        trace = make_trace(SHAREGPT, rate=5.0, num_requests=10, seed=44)
        result = server.run(trace)
        assert len(result.finished_requests) == 10

    def test_moe_weights_shrink_kv_pool(self):
        """Holding attention fixed, the 8-expert weights leave fewer KV
        slots than a single-expert (dense) sibling."""
        from dataclasses import replace

        from repro.config import default_config

        dense_sibling = replace(
            MIXTRAL_8X7B, name="mixtral-dense-sibling",
            num_experts=1, experts_per_token=1,
        )
        dense = default_config(model=dense_sibling, tensor_parallel=2)
        moe = default_config(model=MIXTRAL_8X7B, tensor_parallel=2)
        assert moe.kv_slots_per_instance < dense.kv_slots_per_instance
