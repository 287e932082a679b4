"""Unit tests for the model substrate: shapes and per-token costs."""

import pytest

from repro.model.spec import LLAMA2_70B, LWM_7B_1M, AttentionKind, ModelSpec


class TestModelSpec:
    def test_lwm_is_llama2_7b_shape(self):
        assert LWM_7B_1M.hidden_size == 4096
        assert LWM_7B_1M.num_layers == 32
        assert LWM_7B_1M.head_dim == 128
        assert LWM_7B_1M.attention_kind == AttentionKind.MHA

    def test_param_count_close_to_7b(self):
        assert 6.5e9 < LWM_7B_1M.param_count < 7.0e9

    def test_paper_488gb_anchor(self):
        """1M tokens of KV cache is 488 GiB for the 7B model (§1)."""
        gib = LWM_7B_1M.kv_bytes_per_token * 1_000_000 / 2**30
        assert gib == pytest.approx(488.3, abs=0.5)

    def test_gqa_kv_smaller_than_mha(self):
        assert LLAMA2_70B.attention_kind == AttentionKind.GQA
        per_hidden_70b = LLAMA2_70B.kv_bytes_per_token / LLAMA2_70B.hidden_size
        per_hidden_7b = LWM_7B_1M.kv_bytes_per_token / LWM_7B_1M.hidden_size
        assert per_hidden_70b < per_hidden_7b

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ValueError):
            ModelSpec(
                name="bad", hidden_size=100, num_layers=1, num_heads=3,
                num_kv_heads=3, ffn_hidden_size=10, vocab_size=10,
                context_window=10,
            )

    def test_rejects_bad_kv_head_grouping(self):
        with pytest.raises(ValueError):
            ModelSpec(
                name="bad", hidden_size=128, num_layers=1, num_heads=8,
                num_kv_heads=3, ffn_hidden_size=10, vocab_size=10,
                context_window=10,
            )

    def test_attention_flops_quadratic(self):
        f1 = LWM_7B_1M.attention_flops(1000, 500)
        f2 = LWM_7B_1M.attention_flops(2000, 1000)
        assert f2 == pytest.approx(4 * f1)

