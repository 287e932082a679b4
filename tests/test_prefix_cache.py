"""Unit tests for the radix prefix-KV cache (repro.sessions.prefix_cache)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvcache.tiers import TieredKVStore, common_prefix_len
from repro.kvcache.unified import UnifiedKVPool
from repro.sessions.prefix_cache import PrefixKVCache
from repro.types import Request


def make_pool(num_instances=2, slots=1_000):
    return UnifiedKVPool.create(num_instances=num_instances, slots_per_instance=slots)


def finished_request(request_id, tokens, output_len=5, pool=None, cache=None, now=0.0):
    """Simulate a finished request donating its KV: ``tokens`` is the full
    sequence (prompt + output); the pool holds all but the last token."""
    prompt = tokens[:-output_len]
    request = Request(
        request_id=request_id,
        input_len=len(prompt),
        output_len=output_len,
        token_ids=tuple(prompt),
    )
    request.generated = output_len
    pool.place(request_id, {0: len(tokens) - 1})
    cache.adopt_finished(request, tuple(tokens), now=now)
    return request


class TestInsertAndMatch:
    def test_empty_cache_matches_nothing(self):
        cache = PrefixKVCache(make_pool())
        assert cache.peek_match((1, 2, 3)) == 0
        assert cache.peek_match(None) == 0
        assert cache.resident_tokens == 0

    def test_adopt_then_match(self):
        pool = make_pool()
        cache = PrefixKVCache(pool)
        finished_request(1, list(range(20)), pool=pool, cache=cache)
        # All 19 resident tokens (the final output token's KV never
        # existed) are now cached, owned by the tree, not the request.
        assert cache.resident_tokens == 19
        assert pool.tokens_of(1) == 0
        assert pool.total_used == 19
        assert cache.peek_match(tuple(range(20))) == 19
        assert cache.peek_match(tuple(range(10))) == 10
        assert cache.peek_match((99, 98)) == 0

    def test_chained_turns_extend_the_tree(self):
        pool = make_pool()
        cache = PrefixKVCache(pool)
        turn0 = list(range(20))
        finished_request(1, turn0, pool=pool, cache=cache, now=1.0)
        # Turn 1's prompt extends turn 0's full sequence.
        turn1 = turn0 + [100, 101, 102, 103, 104] + [200, 201, 202, 203, 204]
        request = Request(
            request_id=2, input_len=25, output_len=5,
            token_ids=tuple(turn1[:25]),
        )
        matched = cache.match_and_lock(request, now=2.0)
        assert matched == 19  # everything resident from turn 0
        request.cached_prefix_len = matched
        # Prefill allocates the suffix + first token; decode appends all
        # but the final output token (whose KV is never materialised).
        pool.place(2, {0: request.kv_demand})
        request.generated = 5
        pool.extend(2, 0, 3)
        cache.adopt_finished(request, tuple(turn1), now=3.0)
        assert cache.resident_tokens == 29  # 19 + uncached 10
        assert cache.peek_match(tuple(turn1)) == 29
        assert pool.total_used == 29

    def test_diverging_sessions_split_extents(self):
        pool = make_pool()
        cache = PrefixKVCache(pool)
        shared = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        finished_request(1, shared + [11, 12, 13, 14, 15], pool=pool, cache=cache)
        # Second sequence shares the first 8 tokens then diverges.
        other = shared[:8] + [77, 78, 79, 80, 81, 82]
        finished_request(2, other, pool=pool, cache=cache)
        assert cache.peek_match(tuple(shared + [11, 12])) == 12
        # The helper hands the cache 13 slots; beyond the 8 shared tokens
        # only 6 sequence tokens remain uncovered, so 6 are adopted and
        # the surplus duplicate slots are freed.
        assert cache.peek_match(tuple(other)) == len(other)
        assert cache.resident_tokens == 20
        assert pool.total_used == 20


class TestLocking:
    def test_locked_extents_survive_eviction(self):
        pool = make_pool()
        cache = PrefixKVCache(pool)
        finished_request(1, list(range(100, 130)), pool=pool, cache=cache, now=1.0)
        request = Request(
            request_id=2, input_len=29, output_len=2,
            token_ids=tuple(range(100, 129)),
        )
        matched = cache.match_and_lock(request, now=2.0)
        assert matched == 28  # capped at input_len - 1
        # Locking split the extent at the match boundary: only the
        # unpinned 1-token remainder may be evicted.
        assert cache.evict(10_000) == 1
        assert cache.resident_tokens == 28
        cache.release(2)
        assert cache.evict(10_000) == 28
        assert cache.resident_tokens == 0

    def test_match_caps_at_input_len_minus_one(self):
        pool = make_pool()
        cache = PrefixKVCache(pool)
        tokens = list(range(40))
        finished_request(1, tokens, pool=pool, cache=cache)
        # A request whose whole prompt is resident still prefills >= 1 token.
        request = Request(
            request_id=2, input_len=10, output_len=2, token_ids=tuple(tokens[:10])
        )
        assert cache.match_and_lock(request, now=1.0) == 9

    def test_release_is_idempotent(self):
        cache = PrefixKVCache(make_pool())
        cache.release(123)  # no lock held: no-op
        cache.release(123)


class TestEviction:
    def test_lru_leaf_goes_first(self):
        pool = make_pool()
        cache = PrefixKVCache(pool)
        finished_request(1, [1, 2, 3, 4, 5, 6], pool=pool, cache=cache, now=1.0)
        finished_request(2, [9, 8, 7, 6, 5, 4], pool=pool, cache=cache, now=5.0)
        freed = cache.evict(1)
        assert freed == 5  # whole extent of the older sequence
        assert cache.peek_match((1, 2, 3)) == 0
        assert cache.peek_match((9, 8, 7)) == 3
        assert cache.stats.evicted_tokens == 5

    def test_eviction_frees_pool_slots(self):
        pool = make_pool()
        cache = PrefixKVCache(pool)
        finished_request(1, list(range(50)), pool=pool, cache=cache)
        before = pool.total_free
        cache.evict(10)
        assert pool.total_free == before + 49

    def test_instance_filtered_eviction(self):
        pool = make_pool(num_instances=2)
        cache = PrefixKVCache(pool)
        request = Request(
            request_id=1, input_len=10, output_len=5, token_ids=tuple(range(10))
        )
        request.generated = 5
        pool.place(1, {1: 14})  # resident entirely on instance 1
        cache.adopt_finished(request, tuple(range(15)), now=0.0)
        assert cache.evict(5, instance_ids=[0]) == 0  # nothing lives there
        assert cache.evict(5, instance_ids=[1]) == 14

    def test_parent_becomes_evictable_after_leaf(self):
        pool = make_pool()
        cache = PrefixKVCache(pool)
        base = [1, 2, 3, 4, 5, 6, 7, 8]
        finished_request(1, base + [11, 12, 13], pool=pool, cache=cache, now=1.0)
        finished_request(2, base[:6] + [21, 22, 23, 24], pool=pool, cache=cache, now=2.0)
        # Tree: shared prefix node + two leaves; full eviction drains all.
        assert cache.evict(10_000) == cache.stats.evicted_tokens
        assert cache.resident_tokens == 0
        assert pool.total_used == 0


class TestCapacityBudget:
    def test_unbounded_by_default(self):
        pool = make_pool()
        cache = PrefixKVCache(pool)
        for rid in range(5):
            tokens = [rid * 1000 + t for t in range(40)]
            finished_request(rid, tokens, pool=pool, cache=cache, now=float(rid))
        assert cache.resident_tokens == 5 * 39


class TestStats:
    def test_note_prefill_accounting(self):
        cache = PrefixKVCache(make_pool())
        hit = Request(request_id=1, input_len=100, output_len=4)
        hit.cached_prefix_len = 60
        miss = Request(request_id=2, input_len=50, output_len=4)
        cache.note_prefill(hit)
        cache.note_prefill(miss)
        stats = cache.stats
        assert (stats.lookups, stats.hits, stats.misses) == (2, 1, 1)
        assert stats.hit_tokens == 60
        assert stats.miss_tokens == (100 - 60) + 50

    def test_as_dict_is_mergeable(self):
        cache = PrefixKVCache(make_pool())
        d = cache.stats.as_dict()
        assert set(d) == {
            "lookups", "hits", "misses", "hit_tokens", "miss_tokens",
            "inserted_tokens", "evicted_tokens",
            "imported_tokens", "exported_tokens",
        }
        assert all(v == 0 for v in d.values())


def reference_prefix_len(a, b):
    """Token-by-token longest common prefix (the matcher's reference)."""
    k = 0
    while k < min(len(a), len(b)) and a[k] == b[k]:
        k += 1
    return k


# A 3-symbol alphabet makes imported sequences share prefixes and part
# mid-edge, so imports split existing extents and queries stop inside one.
SEQUENCES = st.lists(st.integers(0, 2), min_size=1, max_size=40).map(tuple)


class TestMatchingProperty:
    @settings(max_examples=200)
    @given(
        imported=st.lists(SEQUENCES, min_size=1, max_size=8),
        queries=st.lists(SEQUENCES, max_size=8),
    )
    def test_match_is_longest_common_prefix(self, imported, queries):
        cache = PrefixKVCache(make_pool(slots=1_000))  # roomy: nothing evicts
        # Whole lines offloaded at start 0: the store drops lines that are
        # prefixes of others, which never hold the longest match alone.
        store = TieredKVStore()
        for now, seq in enumerate(imported):
            cache.import_prefix(seq, now=float(now))
            store.offload(seq, 0, now=float(now))
        assert cache.stats.evicted_tokens == 0
        store.check_invariants()
        for query in imported + queries:
            expected = max(reference_prefix_len(query, seq) for seq in imported)
            assert cache.peek_match(query) == expected
            assert store.probe(query, 0) == expected
            assert max(common_prefix_len(query, seq) for seq in imported) == expected

    @pytest.mark.parametrize("mismatch", [0, 1, 2, 511, 4_095, 4_096, 9_999])
    def test_helper_finds_a_single_mismatch_in_long_tuples(self, mismatch):
        base = (7,) * 10_000
        other = base[:mismatch] + (8,) + base[mismatch + 1:]
        assert common_prefix_len(base, other) == mismatch
        assert common_prefix_len(other, base) == mismatch
        assert common_prefix_len(base, base[:mismatch]) == mismatch
        assert common_prefix_len((), base) == 0
