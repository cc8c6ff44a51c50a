"""Standard Bloom filter: invariants, closed forms, sizing, serialization."""

import math
import struct
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from learnedbloom.bloom import (
    MAX_K,
    BloomFilter,
    FilterParams,
    expected_fill_ratio,
    expected_fpp,
    params_for_target,
)
from learnedbloom.errors import FilterFormatError, ParameterError


def distinct_u64(rng, n):
    keys = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
    assert np.unique(keys).size == n
    return keys


class TestConstruction:
    def test_new_filter_is_all_zero(self):
        f = BloomFilter(8, 2, seed=1)
        assert f.popcount == 0
        assert f.inserted_count == 0
        assert f.fill_ratio == 0.0

    @pytest.mark.parametrize("m,k", [(0, 2), (2, 0), (0, 0), (-1, 3)])
    def test_rejects_degenerate_sizes(self, m, k):
        with pytest.raises(ParameterError):
            BloomFilter(m, k, seed=1)
        with pytest.raises(ParameterError):
            FilterParams(m=m, k=k)

    def test_empty_filter_answers_false(self):
        f = BloomFilter(10000, 7, seed=42)
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 1 << 64, size=100, dtype=np.uint64)
        assert not f.contains_many(keys).any()
        assert not f.contains(2**64 - 1)

    def test_unallocatable_bit_array_is_a_parameter_error(self):
        # numpy refuses a 2^59-byte array at once, so nothing is allocated
        with pytest.raises(ParameterError, match="too large"):
            BloomFilter(2**62, 3, seed=0)

    def test_unallocatable_insert_scratch_is_a_parameter_error(self, monkeypatch):
        # numpy refusing insert_many's m-byte unpacked copy, without allocating it
        f = BloomFilter(1000, 3, seed=4)
        f.insert_many([1, 2, 3])
        before = f.to_bytes()

        def refuse(*args, **kwargs):
            raise MemoryError("unable to allocate")

        monkeypatch.setattr(np, "unpackbits", refuse)
        with pytest.raises(ParameterError, match="m=1000"):
            f.insert_many([4, 5])
        assert f.to_bytes() == before

    def test_filter_params_target_range(self):
        with pytest.raises(ParameterError):
            FilterParams(m=8, k=1, target_fpp=1.5)
        assert FilterParams(m=8, k=1, target_fpp=0.5).target_fpp == 0.5


class TestInsertContains:
    def test_insert_then_contains(self):
        f = BloomFilter(64, 3, seed=7)
        f.insert(12345)
        assert f.contains(12345)

    def test_double_insert_is_idempotent_on_bits(self):
        f = BloomFilter(64, 3, seed=7)
        f.insert(2**63 + 5)
        once = f.to_bytes()
        f.insert(2**63 + 5)
        twice = f.to_bytes()
        # inserted_count differs in the header; the bit arrays must match
        assert once[32:] == twice[32:]
        assert f.inserted_count == 2

    def test_python_and_numpy_int_keys_agree(self):
        f = BloomFilter(512, 4, seed=3)
        f.insert(1500)
        assert f.contains(np.uint64(1500)) and f.contains(np.int16(1500))
        g = BloomFilter(512, 4, seed=3)
        g.insert(np.int64(1500))
        assert f.to_bytes() == g.to_bytes()
        with pytest.raises(ParameterError):
            f.contains((1500).to_bytes(8, "little"))  # the old byte encoding of 1500

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(11)
        keys = distinct_u64(rng, 300)
        f = BloomFilter(1024, 5, seed=9)
        f.insert_many(keys[:150])
        g = BloomFilter(1024, 5, seed=9)
        for k in keys[:150]:
            g.insert(int(k))
        assert f.to_bytes() == g.to_bytes()
        batch = f.contains_many(keys)
        scalar = np.array([f.contains(int(k)) for k in keys])
        assert np.array_equal(batch, scalar)

    def test_contains_many_on_byte_keys(self):
        f = BloomFilter(256, 3, seed=1)
        for batch in ([b"abc", b"zzzz-not-there"], [1500, b"abc"], np.array([b"abc"])):
            with pytest.raises(ParameterError):
                f.contains_many(batch)

    def test_fill_ratio_exact_arithmetic(self):
        f = BloomFilter(8, 1, seed=5)
        key = 0
        while f.popcount < 4:
            f.insert(key)
            key += 1
            assert key < 10_000
        assert f.fill_ratio == 0.5
        while f.popcount < 8:
            f.insert(key)
            key += 1
            assert key < 10_000
        assert f.fill_ratio == 1.0


@settings(max_examples=60, deadline=None)
@given(
    keys=st.lists(st.integers(0, 2**64 - 1), max_size=40),
    m=st.integers(1, 512),
    k=st.integers(1, 8),
    seed=st.integers(0, 2**64 - 1),
)
def test_no_false_negatives_property(keys, m, k, seed):
    f = BloomFilter(m, k, seed)
    for key in keys:
        f.insert(key)
    assert all(f.contains(key) for key in keys)


@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(st.integers(0, 2**64 - 1), max_size=30),
    seed=st.integers(0, 2**64 - 1),
)
def test_popcount_never_decreases(keys, seed):
    f = BloomFilter(128, 3, seed)
    last = 0
    for key in keys:
        f.insert(key)
        assert f.popcount >= last
        last = f.popcount


KEYS = st.lists(
    st.one_of(st.integers(0, 2**64 - 1), st.integers(0, 2**63 - 1).map(np.int64)), max_size=40
)
SHAPES = {"m": st.integers(1, 5000), "k": st.integers(1, 64), "seed": st.integers(0, 2**64 - 1)}


@settings(max_examples=80, deadline=None)
@given(keys=KEYS, **SHAPES)
def test_insert_many_sets_the_bits_of_a_per_key_insert_loop(keys, m, k, seed):
    batch = BloomFilter(m, k, seed)
    batch.insert_many(keys)
    loop = BloomFilter(m, k, seed)
    for key in keys:
        loop.insert(key)
    assert batch.to_bytes() == loop.to_bytes()


@settings(max_examples=80, deadline=None)
@given(keys=KEYS, others=KEYS, **SHAPES)
def test_contains_many_answers_as_contains_does(keys, others, m, k, seed):
    f = BloomFilter(m, k, seed)
    f.insert_many(keys)
    queries = keys + others
    expected = [f.contains(key) for key in queries]
    assert f.contains_many(queries).tolist() == expected
    assert all(expected[: len(keys)])


@settings(max_examples=80, deadline=None)
@given(keys=KEYS, **SHAPES)
def test_popcount_counts_the_stored_bits(keys, m, k, seed):
    f = BloomFilter(m, k, seed)
    f.insert_many(keys)
    stored = np.frombuffer(f.to_bytes()[32:], dtype=np.uint8)
    assert f.popcount == int(np.unpackbits(stored, count=m, bitorder="little").sum())


def _contains_many_peak_bytes(k: int) -> int:
    rng = np.random.default_rng(k)
    members = rng.integers(0, 1 << 64, size=100_000, dtype=np.uint64)
    f = BloomFilter(2_000_000, k, seed=k)
    f.insert_many(members)
    queries = np.concatenate([members, rng.integers(0, 1 << 64, size=100_000, dtype=np.uint64)])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        f.contains_many(queries)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_contains_many_temporaries_do_not_grow_with_k():
    # 200k keys, half members: an n*k position matrix would make k=32 ~16x k=2.
    assert _contains_many_peak_bytes(32) <= 2 * _contains_many_peak_bytes(2)


def test_determinism_same_inputs_bit_identical():
    rng = np.random.default_rng(2)
    keys = distinct_u64(rng, 200)
    a = BloomFilter(4096, 6, seed=77)
    b = BloomFilter(4096, 6, seed=77)
    a.insert_many(keys)
    b.insert_many(keys)
    assert a.to_bytes() == b.to_bytes()
    assert a == b
    c = BloomFilter(4096, 6, seed=78)
    c.insert_many(keys)
    assert c.to_bytes() != a.to_bytes()


class TestClosedForms:
    def test_expected_fill_ratio_trivial_points(self):
        assert expected_fill_ratio(0, 100, 3) == 0.0
        assert expected_fill_ratio(1, 1, 1) == 1.0

    def test_expected_fill_ratio_matches_rational_oracle(self):
        # independent oracle: exact rational arithmetic on (1 - 1/m)^(k n)
        exact = 1 - Fraction(9999, 10000) ** 7000
        assert float(exact) == pytest.approx(0.5034320775488136, abs=1e-15)
        got = expected_fill_ratio(1000, 10000, 7)
        assert got == pytest.approx(float(exact), abs=1e-12)
        # the e^(-kn/m) approximation sits close by but is not identical
        approx = 1 - math.exp(-0.7)
        assert approx == pytest.approx(0.5034146962085905, abs=1e-15)
        assert 0 < got - approx < 2e-5

    def test_expected_fpp(self):
        assert expected_fpp(0, 100, 3) == 0.0
        assert expected_fpp(1, 1, 1) == 1.0
        exact = float((1 - Fraction(9999, 10000) ** 7000) ** 7)
        assert exact == pytest.approx(0.008195702596768733, abs=1e-15)
        assert expected_fpp(1000, 10000, 7) == pytest.approx(exact, rel=1e-10)

    def test_rejects_zero_bits(self):
        with pytest.raises(ParameterError):
            expected_fill_ratio(10, 0, 3)
        with pytest.raises(ParameterError):
            expected_fpp(10, 0, 3)


class TestSizing:
    def test_known_point(self):
        params = params_for_target(1000, 0.01)
        assert (params.m, params.k) == (9586, 7)
        assert params.target_fpp == 0.01

    def test_bits_per_element_at_two_ten_thousandths(self):
        params = params_for_target(500, 0.0002)
        # formula oracle: log2(1/eps) / ln 2 = 17.7274, plus <= 1/500 from ceil
        assert params.m / 500 == pytest.approx(math.log2(5000) / math.log(2), abs=1 / 500)
        assert params.m / 500 == pytest.approx(17.728, abs=1e-9)

    @pytest.mark.parametrize("bad", [1.0, 0.0, -0.1, 2.0])
    def test_rejects_bad_target(self, bad):
        with pytest.raises(ParameterError):
            params_for_target(1000, bad)

    def test_rejects_zero_keys(self):
        with pytest.raises(ParameterError):
            params_for_target(0, 0.01)

    @pytest.mark.parametrize("n", [1, 10, 500, 1000, 20000])
    @pytest.mark.parametrize("eps", [0.3, 0.05, 0.01, 0.001, 0.0002])
    def test_sized_filter_meets_target(self, n, eps):
        params = params_for_target(n, eps)
        assert expected_fpp(n, params.m, params.k) <= 1.1 * eps


class TestMonteCarlo:
    def test_fill_ratio_concentrates(self):
        # 1000 distinct keys into (m=10000, k=7): fill within 0.02 of the
        # expectation ~0.5034 for at least 95 of 100 seeds.
        expected = expected_fill_ratio(1000, 10000, 7)
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed + 1000)
            f = BloomFilter(10000, 7, seed=seed)
            f.insert_many(distinct_u64(rng, 1000))
            if abs(f.fill_ratio - expected) < 0.02:
                hits += 1
        assert hits >= 95

    def test_false_positive_fraction_tracks_fill_power_k(self):
        rng = np.random.default_rng(123)
        inserted = distinct_u64(rng, 1000)
        f = BloomFilter(10000, 7, seed=99)
        f.insert_many(inserted)
        fresh = rng.integers(0, 1 << 64, size=100_000, dtype=np.uint64)
        fresh = fresh[~np.isin(fresh, inserted)]
        rate = float(f.contains_many(fresh).mean())
        p = f.fill_ratio**f.k
        stderr = math.sqrt(p * (1 - p) / fresh.size)
        assert abs(rate - p) <= 3 * stderr


class TestSerialization:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(6)
        f = BloomFilter(1000, 4, seed=13)
        f.insert_many(distinct_u64(rng, 123))
        blob = f.to_bytes()
        g = BloomFilter.from_bytes(blob)
        assert g == f
        assert g.to_bytes() == blob
        assert (g.m, g.k, g.seed, g.inserted_count) == (1000, 4, 13, 123)

    def test_round_trip_preserves_answers(self):
        f = BloomFilter(333, 5, seed=21)
        for key in (0, 1, 2**64 - 1, 7):
            f.insert(key)
        g = BloomFilter.from_bytes(f.to_bytes())
        for key in (0, 1, 2**64 - 1, 7, 123_456_789):
            assert g.contains(key) == f.contains(key)

    def test_set_padding_bits_load_cleared(self):
        f = BloomFilter(13, 2, seed=4)
        f.insert_many([1, 2, 3])
        clean = f.to_bytes()
        assert len(clean) == 32 + 2 and clean[-1] & 0xE0 == 0
        dirty = bytearray(clean)
        dirty[-1] |= 0xE0  # bits 13, 14 and 15: past m, padding only
        loaded = BloomFilter.from_bytes(bytes(dirty))
        assert loaded == BloomFilter.from_bytes(clean)
        assert loaded.popcount == f.popcount
        assert loaded.to_bytes() == clean

    def test_bad_magic_rejected(self):
        blob = bytearray(BloomFilter(64, 2, seed=0).to_bytes())
        blob[:4] = b"NOPE"
        with pytest.raises(FilterFormatError):
            BloomFilter.from_bytes(bytes(blob))

    def test_truncated_rejected(self):
        blob = BloomFilter(64, 2, seed=0).to_bytes()
        with pytest.raises(FilterFormatError):
            BloomFilter.from_bytes(blob[:10])
        with pytest.raises(FilterFormatError):
            BloomFilter.from_bytes(blob[:-2])

    def test_header_k_above_the_bound_rejected(self):
        # 33 bytes: an 8-bit filter whose header claims 2^31 hashes.  It must
        # fail to load; a probe on it would build a 2^31-entry position list.
        blob = struct.pack("<4sQIQQ", b"LBF1", 8, 1 << 31, 0, 0) + b"\x00"
        assert len(blob) == 33
        with pytest.raises(FilterFormatError, match="above the limit"):
            BloomFilter.from_bytes(blob)
        edge = struct.pack("<4sQIQQ", b"LBF1", 8, MAX_K, 0, 0) + b"\x00"
        assert BloomFilter.from_bytes(edge).k == MAX_K
        with pytest.raises(ParameterError):
            FilterParams(m=8, k=MAX_K + 1)

    def test_smallest_accepted_target_sizes_k_under_the_bound(self):
        target = 1.0 / sys.float_info.max
        while math.isinf(1.0 / target):
            target = math.nextafter(target, 1.0)
        for n in (1, 2, 7, 1000):
            assert params_for_target(n, target).k <= MAX_K
        with pytest.raises(ParameterError, match="too small"):
            params_for_target(1, math.nextafter(target, 0.0))
        with pytest.raises(ParameterError):
            params_for_target(1000, 1e-310)
