"""Tests for the roofline cost model and communication primitives.

Property-style tests assert the monotonicity and crossover behaviours the
paper's figures depend on, plus the published anchors.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.cluster.topology import Topology
from repro.costmodel.comm import CollectiveModel
from repro.costmodel.latency import RooflineCostModel
from repro.model.spec import LWM_7B_1M


@pytest.fixture(scope="module")
def cm() -> RooflineCostModel:
    return RooflineCostModel(cluster=Cluster.homogeneous(num_gpus=8), model=LWM_7B_1M)


@pytest.fixture(scope="module")
def coll() -> CollectiveModel:
    return CollectiveModel(cluster=Cluster.homogeneous(num_gpus=16, gpus_per_node=8))


class TestCollectives:
    def test_allreduce_zero_for_world_one(self, coll):
        assert coll.allreduce_time(1e9, 1, Topology(8, 8).nvlink) == 0.0

    def test_allreduce_grows_with_bytes(self, coll):
        link = Topology(8, 8).nvlink
        assert coll.allreduce_time(2e9, 4, link) > coll.allreduce_time(1e9, 4, link)

    def test_ring_pass_single_instance_free(self, coll):
        assert coll.ring_pass_time(1e9, [0], tensor_parallel=2) == 0.0

    def test_ring_pass_cross_node_slower(self, coll):
        intra = coll.ring_pass_time(1e9, [0, 1], tensor_parallel=2)
        inter = coll.ring_pass_time(1e9, [0, 4], tensor_parallel=2)
        assert inter > intra

    def test_migration_time_linear_in_bytes(self, coll):
        t1 = coll.migration_time(1e9, 0, 1, tensor_parallel=2)
        t2 = coll.migration_time(2e9, 0, 1, tensor_parallel=2)
        assert t2 > t1
        assert t2 < 2.1 * t1

    def test_zero_byte_migration_free(self, coll):
        assert coll.migration_time(0, 0, 1, tensor_parallel=2) == 0.0


class TestPrefillRoofline:
    def test_paper_100k_vs_1k_anchor(self, cm):
        """Figure 2: 100K-token prefill is ~two orders slower than 1K."""
        ratio = cm.prefill_time([100_000], 4, 2) / cm.prefill_time([1_000], 4, 2)
        assert 50 < ratio < 400

    def test_more_instances_faster_for_long_prompts(self, cm):
        t1 = cm.prefill_time([100_000], 1, 2)
        t4 = cm.prefill_time([100_000], 4, 2)
        assert t4 < t1

    def test_short_prompts_do_not_scale(self, cm):
        """Figure 2 top-left: tiny batches gain little from more GPUs."""
        t1 = cm.prefill_time([10] * 16, instances=1, tensor_parallel=2)
        t4 = cm.prefill_time([10] * 16, instances=1, tensor_parallel=8)
        assert t4 > 0.5 * t1  # nowhere near 4x

    def test_sp_competitive_with_tp(self, cm):
        """Figure 3: SP4TP2 matches or beats SP1TP8 on the paper's grid."""
        for bs, length in [(512, 1_000), (16, 50_000), (1, 500_000)]:
            tp8 = cm.prefill_time([length] * bs, 1, 8)
            sp4 = cm.prefill_time([length] * bs, 4, 2)
            assert sp4 <= tp8 * 1.05

    def test_empty_batch_zero(self, cm):
        assert cm.prefill_time([], 4, 2) == 0.0

    @given(length=st.integers(min_value=16, max_value=400_000))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_length(self, cm, length):
        assert cm.prefill_time([length + 1024], 4, 2) > cm.prefill_time([length], 4, 2)

    @given(bs=st.integers(min_value=1, max_value=64))
    @settings(max_examples=20, deadline=None)
    def test_monotone_in_batch_size(self, cm, bs):
        t_small = cm.prefill_time([512] * bs, 4, 2)
        t_large = cm.prefill_time([512] * (bs + 1), 4, 2)
        assert t_large > t_small


class TestDecodeRoofline:
    def test_decode_floor_is_weight_read(self, cm):
        floor = cm.decode_step_lower_bound(tensor_parallel=2)
        assert cm.decode_time([100], 1, 2) >= floor

    def test_long_context_decode_scales_with_instances(self, cm):
        """Figure 2 bottom: decode gains from DoP only at long context."""
        t1 = cm.decode_time([200_000], 1, 2)
        t4 = cm.decode_time([200_000], 4, 2)
        assert t4 < t1
        short1 = cm.decode_time([100], 1, 2)
        short4 = cm.decode_time([100], 4, 2)
        assert short4 > 0.9 * short1  # no real gain, some overhead

    def test_multi_master_helps_large_batch(self, cm):
        """Figure 14b: masters split linear work at large batch sizes."""
        t1 = cm.decode_time([10] * 1024, 4, 2, num_masters=1)
        t4 = cm.decode_time([10] * 1024, 4, 2, num_masters=4)
        assert t1 / t4 > 1.5

    def test_multi_master_harmless_small_batch(self, cm):
        """Figure 14b: scale-up overhead stays small for tiny batches."""
        t1 = cm.decode_time([200_000], 4, 2, num_masters=1)
        t4 = cm.decode_time([200_000], 4, 2, num_masters=4)
        assert abs(t4 - t1) / t1 < 0.10

    def test_empty_batch_zero(self, cm):
        assert cm.decode_time([], 4, 2) == 0.0

    @given(bs=st.integers(min_value=1, max_value=256))
    @settings(max_examples=20, deadline=None)
    def test_monotone_in_batch(self, cm, bs):
        assert cm.decode_time([500] * (bs + 1), 2, 2) > cm.decode_time([500] * bs, 2, 2)


def reference_decode_time(cm, context_lens, instances, tensor_parallel, num_masters=1):
    """The per-request decode price (``decode_time`` before it priced from
    the context total), kept as the exact reference."""
    insts = list(range(instances)) if isinstance(instances, int) else list(instances)
    if not context_lens:
        return 0.0
    sp = max(1, len(insts))
    tp = tensor_parallel
    masters = max(1, min(num_masters, sp))
    gpu = cm.cluster.gpu
    m = cm.model
    bs = len(context_lens)

    linear_flops = m.flops_per_token_linear() * bs
    attn_flops = sum(m.attention_flops(1, c + 1) for c in context_lens)
    linear_compute = linear_flops / (masters * tp * gpu.sustained_flops)
    attn_compute = attn_flops / (sp * tp * gpu.sustained_flops)

    kv_bytes = sum(c + 1 for c in context_lens) * m.kv_bytes_per_token
    weight_time = (m.weight_bytes / tp) / gpu.sustained_bandwidth
    kv_time = (kv_bytes / (sp * tp)) / gpu.sustained_bandwidth
    roofline = max(linear_compute + attn_compute, weight_time + kv_time)

    coll = cm.collectives
    act_bytes = bs / masters * m.hidden_size * m.dtype_bytes
    tp_comm = m.num_layers * 2 * coll.tp_allreduce_time(act_bytes, tp) if tp > 1 else 0.0

    sp_comm = 0.0
    if sp > 1:
        query_bytes = bs * m.hidden_size * m.dtype_bytes * (sp - 1) / sp
        per_layer = coll.query_exchange_time(query_bytes, query_bytes, insts, tp)
        sp_comm = m.num_layers * per_layer
        sp_comm = max(sp_comm * (1 - cm.decode_overlap), sp_comm - attn_compute)
        sp_comm += m.num_layers * cm.layer_sync_overhead

    seq_overhead = cm.per_seq_overhead * bs / masters
    return roofline + tp_comm + sp_comm + seq_overhead + cm.iteration_overhead


@st.composite
def decode_shapes(draw):
    """Contexts, a group of 1-8 instances (on a 32-GPU, 4-node cluster,
    so groups may span nodes), TP, and masters 1..sp."""
    tp = draw(st.sampled_from([1, 2, 4]))
    num_instances = 32 // tp
    group = draw(
        st.lists(st.integers(0, num_instances - 1), min_size=1, max_size=8, unique=True)
    )
    contexts = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=64))
    masters = draw(st.integers(1, len(group)))
    return contexts, sorted(group), tp, masters


class TestDecodePricing:
    """``decode_time`` and ``decode_pricer`` price from the context total
    with per-shape cached terms; both must equal the per-request formula
    to the last bit."""

    @pytest.fixture(scope="class")
    def cm32(self) -> RooflineCostModel:
        return RooflineCostModel(
            cluster=Cluster.homogeneous(num_gpus=32, gpus_per_node=8), model=LWM_7B_1M
        )

    @given(shape=decode_shapes())
    @settings(max_examples=300, deadline=None)
    def test_equals_per_request_reference(self, cm32, shape):
        contexts, group, tp, masters = shape
        expected = reference_decode_time(cm32, contexts, group, tp, masters)
        for instances in (group, tuple(group)):
            priced = cm32.decode_time(contexts, instances, tp, num_masters=masters)
            assert priced == expected
        # The per-shape pricer a decode window calls, on Σ(context + 1).
        price = cm32.decode_pricer(len(contexts), group, tp, masters)
        assert price(sum(contexts) + len(contexts)) == expected

    def test_cross_node_group_matches_reference(self, cm32):
        """A group spanning nodes exchanges queries over InfiniBand."""
        for group in ([0, 1], [3, 4]):  # TP 2: four instances per node
            contexts = [123_456, 7, 999_999]
            assert cm32.decode_time(contexts, group, 2, num_masters=2) == (
                reference_decode_time(cm32, contexts, group, 2, 2)
            )
        nvlink = cm32.decode_time([500] * 4, [0, 1], 2)
        assert nvlink < cm32.decode_time([500] * 4, [3, 4], 2)

    def test_int_instances_match_reference(self, cm32):
        for sp in (1, 2, 4, 8):
            contexts = [10_000 * sp + i for i in range(sp + 3)]
            assert cm32.decode_time(contexts, sp, 2, num_masters=sp) == (
                reference_decode_time(cm32, contexts, sp, 2, sp)
            )

    def test_repricing_a_shape_after_others_is_unchanged(self):
        """Shapes that differ in one key field each (batch size, TP,
        masters, a same-size group over other links) must not share a
        cache entry, and contexts must never be served from one."""
        cm = RooflineCostModel(cluster=Cluster.homogeneous(num_gpus=32), model=LWM_7B_1M)
        shapes = [
            ([4_096, 77], [0, 1, 2], 2, 2), ([4_096, 77], [0, 1, 2], 2, 1),
            ([4_096, 77, 5], [0, 1, 2], 2, 2), ([4_096, 77], [2, 3, 4], 2, 2),
            ([4_096, 77], [0, 1, 2], 4, 2), ([4_096, 77], [0, 1, 2], 1, 2),
            ([900_000, 1], [0, 1, 2], 2, 2), ([1_000] * 64, list(range(8)), 4, 8),
        ]
        expected = [reference_decode_time(cm, *shape) for shape in shapes]
        assert len(set(expected)) == len(expected)
        first = [cm.decode_time(c, g, tp, num_masters=m) for c, g, tp, m in shapes]
        assert first == expected
        # Re-price in reverse, after every other shape is cached.
        again = [
            cm.decode_time(c, g, tp, num_masters=m) for c, g, tp, m in reversed(shapes)
        ]
        assert again[::-1] == expected


class TestFusedIteration:
    def test_pure_prefill_equals_prefill(self, cm):
        fused = cm.fused_iteration_time([(5_000, 0)], [], [0, 1], 2)
        plain = cm.prefill_time([5_000], [0, 1], 2)
        assert fused == pytest.approx(plain)

    def test_chunked_prefill_total_attention_preserved(self, cm):
        """Chunks re-read weights each iteration -> fused total exceeds
        the single whole-prompt iteration (SplitFuse's inefficiency)."""
        whole = cm.prefill_time([32_768], 1, 8)
        chunks = sum(
            cm.fused_iteration_time([(2_048, i * 2_048)], [], 1, 8)
            for i in range(16)
        )
        assert chunks > whole

    def test_fused_decode_slower_than_pure_decode(self, cm):
        pure = cm.decode_time([1_000] * 8, 1, 8)
        fused = cm.fused_iteration_time([(2_048, 0)], [1_000] * 8, 1, 8)
        assert fused > pure

    def test_migration_time_positive(self, cm):
        assert cm.migration_time(10_000, 0, 1, 2) > 0.0
