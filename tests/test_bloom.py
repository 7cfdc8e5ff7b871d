"""Unit tests for the counting Bloom filter."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bloom import CountingBloomFilter


def test_add_then_contains():
    bloom = CountingBloomFilter(n_counters=1024)
    bloom.add("pair-1")
    assert bloom.contains("pair-1")
    assert "pair-1" in bloom


def test_remove_clears_membership():
    bloom = CountingBloomFilter(n_counters=1024)
    bloom.add("pair-1")
    bloom.remove("pair-1")
    assert not bloom.contains("pair-1")
    assert len(bloom) == 0


def test_counting_supports_double_insert():
    bloom = CountingBloomFilter(n_counters=1024)
    bloom.add("x")
    bloom.add("x")
    bloom.remove("x")
    assert bloom.contains("x")  # one insertion remains
    bloom.remove("x")
    assert not bloom.contains("x")


def test_remove_of_absent_key_is_noop():
    bloom = CountingBloomFilter(n_counters=1024)
    bloom.add("a")
    bloom.remove("never-added-key-with-no-collisions-hopefully")
    # 'a' must survive unless its counters collide, which is unlikely at
    # this load; check the filter is still internally consistent.
    assert len(bloom) <= 1


def test_no_false_negatives():
    bloom = CountingBloomFilter(n_counters=4096)
    keys = [f"pair-{i}" for i in range(500)]
    for k in keys:
        bloom.add(k)
    assert all(bloom.contains(k) for k in keys)


def test_false_positive_rate_at_paper_sizing():
    """A 20 KB (bit-array) filter, 2 hashes, 20K pairs -> < 5% FP
    (section 4.2).  One counter models each bit position."""
    bloom = CountingBloomFilter(n_counters=20 * 1024 * 8, n_hashes=2)
    for i in range(20_000):
        bloom.add(f"vm-pair-{i}")
    probes = [f"absent-{i}" for i in range(5_000)]
    fp = sum(1 for p in probes if bloom.contains(p)) / len(probes)
    assert fp < 0.10  # empirical margin over the analytic 5%
    assert bloom.false_positive_rate() < 0.07


def test_analytic_fp_estimate_zero_when_empty():
    bloom = CountingBloomFilter(n_counters=64)
    assert bloom.false_positive_rate() == 0.0


def test_clear():
    bloom = CountingBloomFilter(n_counters=256)
    bloom.add("a")
    bloom.clear()
    assert not bloom.contains("a")
    assert len(bloom) == 0


def test_different_seeds_hash_differently():
    b1 = CountingBloomFilter(n_counters=64, seed=1)
    b2 = CountingBloomFilter(n_counters=64, seed=2)
    assert b1._indices("key") != b2._indices("key")


def test_invalid_sizes_rejected():
    with pytest.raises(ValueError):
        CountingBloomFilter(n_counters=0)
    with pytest.raises(ValueError):
        CountingBloomFilter(n_hashes=0)


def test_each_hash_reads_its_own_digest_chunk():
    # The 16-byte digest holds four disjoint 32-bit hashes.  (Offsets
    # were once taken mod 12, so hash 3 silently repeated hash 0.)
    import hashlib

    bloom = CountingBloomFilter(n_counters=1 << 32, n_hashes=4, seed=9)
    digest = hashlib.blake2b(b"vm1->vm2", digest_size=16,
                             salt=(9).to_bytes(8, "little")).digest()
    assert bloom._indices("vm1->vm2") == [
        int.from_bytes(digest[o:o + 4], "little") for o in (0, 4, 8, 12)]
    at_2_20 = CountingBloomFilter(n_counters=1 << 20, n_hashes=4)._indices("vm1->vm2")
    assert at_2_20[:3] == [402073, 940240, 611367]  # k <= 3: unchanged
    assert len(set(at_2_20)) == 4


def test_more_hashes_than_the_digest_holds_rejected():
    with pytest.raises(ValueError, match="at most 4"):
        CountingBloomFilter(n_hashes=5)


def test_two_hash_indices_are_pinned():
    # Every committed digest runs k = 2; these are the parent's values.
    pinned = {
        "vm1->vm2": ([402073, 940240], [113648, 138131]),
        "vm3->vm0": ([868856, 642213], [49884, 17004]),
        "10.0.0.1->10.0.3.7": ([179444, 531839], [75206, 115017]),
    }
    for key, (at_2_20, paper_sized) in pinned.items():
        assert CountingBloomFilter(n_counters=1 << 20)._indices(key) == at_2_20
        assert CountingBloomFilter(n_counters=20 * 1024 * 8,
                                   seed=5)._indices(key) == paper_sized


@settings(max_examples=30)
@given(st.sets(st.text(min_size=1, max_size=20), min_size=1, max_size=100))
def test_membership_invariant(keys):
    """Every inserted key is always found (no false negatives)."""
    bloom = CountingBloomFilter(n_counters=8192)
    for k in keys:
        bloom.add(k)
    assert all(bloom.contains(k) for k in keys)


@settings(max_examples=30)
@given(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=40))
def test_add_remove_sequences_keep_counters_nonnegative(ops):
    bloom = CountingBloomFilter(n_counters=64)
    live = {"a": 0, "b": 0, "c": 0, "d": 0}
    for key in ops:
        if live[key] % 2 == 0:
            bloom.add(key)
        else:
            bloom.remove(key)
        live[key] += 1
    assert all(c >= 0 for c in bloom._counters)
