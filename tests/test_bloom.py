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

from learnedbloom import bloom
from learnedbloom.bloom import (
    _BLOCK,
    MAX_K,
    BloomFilter,
    FilterParams,
    expected_fill_ratio,
    expected_fpp,
    params_for_target,
)
from learnedbloom.errors import FilterFormatError, ParameterError
from learnedbloom.hashing import hash_pair, hash_pair_batch
from learnedbloom.learned import LearnedBloomFilter
from learnedbloom.scorers import IntervalScorer


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

    def test_unallocatable_packed_insert_copy_is_a_parameter_error(self, monkeypatch):
        # numpy refusing the packed side's working copy of the bits
        monkeypatch.setattr(bloom, "_UNPACK_LIMIT", 0)
        f = BloomFilter(1000, 3, seed=4)
        f.insert_many([1, 2, 3])
        before = f.to_bytes()

        def refuse(*args, **kwargs):
            raise MemoryError("unable to allocate")

        monkeypatch.setattr(np, "copy", refuse)
        with pytest.raises(ParameterError, match="m=1000"):
            f.insert_many([4, 5])
        assert f.to_bytes() == before


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
# The second m branch reaches 2^24 bits, a 2 MB packed array: large remainders
# through the batch kernels themselves.
SHAPES = {
    "m": st.one_of(st.integers(1, 5000), st.integers(5001, 1 << 24)),
    "k": st.integers(1, 64),
    "seed": st.integers(0, 2**64 - 1),
}
U64 = st.integers(0, 2**64 - 1)
# Divisors in [1, 2^63), with 1, 2, each power of two and its neighbours, and 2^63 - 1.
DIVISORS = st.one_of(
    st.integers(1, 2**63 - 1),
    st.integers(1, 62).flatmap(lambda e: st.sampled_from([2**e - 1, 2**e, 2**e + 1])),
    st.just(2**63 - 1),
)


@settings(max_examples=300, deadline=None)
@given(acc=st.lists(U64, max_size=100), m=DIVISORS)
def test_remainder_is_acc_mod_m_for_every_uint64(acc, m):
    acc = np.array([0, 2**64 - 1, *acc], dtype=np.uint64)
    before, m = acc.copy(), np.uint64(m)
    out = np.empty_like(acc)
    assert bloom._remainder(acc, m, out=out) is out
    assert out.tolist() == (before % m).tolist()
    assert np.array_equal(acc, before)  # the next round adds a step to acc


@settings(max_examples=80, deadline=None)
@given(key=U64, **SHAPES)
def test_insert_sets_the_double_hashing_positions(key, m, k, seed):
    # Kirsch-Mitzenmacher: probe i lands on bit (h1 + i*h2) mod 2^64 mod m.
    h1, h2 = hash_pair(key, seed)
    f = BloomFilter(m, k, seed)
    f.insert(key)
    stored = np.frombuffer(f.to_bytes()[32:], dtype=np.uint8)
    set_bits = np.flatnonzero(np.unpackbits(stored, count=m, bitorder="little"))
    assert set_bits.tolist() == sorted({(h1 + i * h2) % 2**64 % m for i in range(k)})


@settings(max_examples=80, deadline=None)
@given(keys=KEYS, **SHAPES)
def test_insert_many_sets_the_bits_of_a_per_key_insert_loop(keys, m, k, seed):
    batch = BloomFilter(m, k, seed)
    batch.insert_many(keys)
    loop = BloomFilter(m, k, seed)
    for key in keys:
        loop.insert(key)
    assert batch.to_bytes() == loop.to_bytes()


def _refuse_unpacking(*args, **kwargs):
    raise AssertionError("the packed path unpacked the bits")


@settings(max_examples=150, deadline=None)
@given(
    held=st.lists(U64, max_size=30),
    keys=st.lists(U64, max_size=60),
    repeats=st.integers(0, 60),
    m=st.integers(1, 4096),
    k=st.integers(1, 40),
    seed=U64,
)
def test_packed_insert_many_sets_the_bits_of_a_per_key_insert_loop(held, keys, repeats, m, k, seed):
    # m up to 4096 bits puts many of a round's positions in one byte, so the retry passes run
    batch = keys + keys[:repeats]  # repeated keys write the same bits in one round
    loop = BloomFilter(m, k, seed)
    for key in held + batch:
        loop.insert(key)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bloom, "_UNPACK_LIMIT", 0)
        patch.setattr(np, "unpackbits", _refuse_unpacking)
        f = BloomFilter(m, k, seed)
        f.insert_many(held)  # a batch into a filter that already holds keys
        f.insert_many(batch)
    assert f.to_bytes() == loop.to_bytes()


def test_one_round_setting_all_eight_bits_of_a_byte_takes_eight_passes(monkeypatch):
    # k = 1, m = 8: eight keys whose one probe hits each bit of the only byte once
    by_bit = {}
    for key in range(1000):
        by_bit.setdefault(hash_pair(key, 3)[0] % 8, key)
    keys = [by_bit[bit] for bit in range(8)]
    passes = []
    flatnonzero = np.flatnonzero

    def counted(*args, **kwargs):
        passes.append(1)
        return flatnonzero(*args, **kwargs)

    monkeypatch.setattr(bloom, "_UNPACK_LIMIT", 0)
    monkeypatch.setattr(np, "flatnonzero", counted)
    f = BloomFilter(8, 1, seed=3)
    f.insert_many(keys)
    # each pass ends by finding its losers, and settles one bit: the last writer's
    assert len(passes) == 8
    assert f.to_bytes()[32:] == b"\xff"


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


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _contains_many_peak_bytes(k: int) -> int:
    rng = np.random.default_rng(k)
    members = rng.integers(0, 1 << 64, size=100_000, dtype=np.uint64)
    f = BloomFilter(2_000_000, k, seed=k)
    f.insert_many(members)
    queries = np.concatenate([members, rng.integers(0, 1 << 64, size=100_000, dtype=np.uint64)])
    return _peak_bytes(lambda: f.contains_many(queries))


def test_contains_many_temporaries_do_not_grow_with_k():
    # 200k keys, half members: an n*k position matrix would make k=32 ~16x k=2.
    assert _contains_many_peak_bytes(32) <= 2 * _contains_many_peak_bytes(2)


@pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
def test_batches_across_block_boundaries_match_the_scalar_paths(n):
    keys = np.random.default_rng(n).integers(0, 1 << 63, size=n, dtype=np.int64)
    every, half = BloomFilter(8 * n, 5, seed=n), BloomFilter(8 * n, 5, seed=n)
    for i, key in enumerate(keys.tolist()):
        every.insert(key)
        if i < n // 2:
            half.insert(key)
    expected = [half.contains(key) for key in keys.tolist()]
    assert any(expected[n // 2 :]) and not all(expected)  # false positives and misses
    forms = {"uint64": keys.astype(np.uint64), "int64": keys, "list": keys.tolist()}
    for form, batch in forms.items():
        f = BloomFilter(8 * n, 5, seed=n)
        f.insert_many(batch)
        assert f.to_bytes() == every.to_bytes(), form
        assert half.contains_many(batch).tolist() == expected, form


@pytest.mark.parametrize("k", [1, 2, 7, 20, 64])
@pytest.mark.parametrize("member_share, shuffled", [
    pytest.param(0.0, True, id="0.0"),
    pytest.param(0.5, True, id="0.5"),
    pytest.param(1.0, True, id="1.0"),
    pytest.param(0.5, False, id="0.5-members-first"),
])
def test_compacting_the_survivors_keeps_the_scalar_answers(k, member_share, shuffled, monkeypatch):
    # 64-key blocks, the last one a single key: non-members die over the rounds, so blocks
    # are compacted at different rounds or never, and members survive every round.  With
    # members first, one batch holds blocks of members, never compacted and written as a
    # slice, and blocks of non-members, written through their survivors' index.
    monkeypatch.setattr(bloom, "_BLOCK", 64)
    members = np.random.default_rng(k).integers(0, 1 << 64, size=500, dtype=np.uint64)
    f = BloomFilter(math.ceil(500 * k / math.log(2)), k, seed=k)  # about half full
    f.insert_many(members)
    n = 5 * 64 + 1
    taken = round(n * member_share)
    rng = np.random.default_rng(100 + k)
    queries = np.concatenate([members[:taken], rng.integers(0, 1 << 64, size=n - taken, dtype=np.uint64)])
    if shuffled:
        rng.shuffle(queries)
    expected = [f.contains(key) for key in queries.tolist()]
    assert f.contains_many(queries).tolist() == expected
    assert sum(expected) >= taken


@pytest.mark.parametrize("k", [1, 7, 64])
@pytest.mark.parametrize("fill", [0x00, 0xFF], ids=["empty", "every-bit-set"])
def test_a_filter_where_every_key_dies_at_once_or_never(k, fill, monkeypatch):
    monkeypatch.setattr(bloom, "_BLOCK", 64)
    m = 1000
    header = BloomFilter(m, k, seed=3).to_bytes()[:32]
    f = BloomFilter.from_bytes(header + bytes([fill]) * ((m + 7) // 8))
    queries = np.random.default_rng(k).integers(0, 1 << 64, size=2 * 64 + 1, dtype=np.uint64)
    assert f.contains_many(queries).tolist() == [bool(fill)] * queries.size
    assert [f.contains(key) for key in queries.tolist()] == [bool(fill)] * queries.size


def _bad_key_after_the_first_block(bad, form=list):
    keys = list(range(_BLOCK + 10))
    keys[_BLOCK + 5] = bad
    return form(keys)


@pytest.mark.parametrize(
    "batch",
    [
        _bad_key_after_the_first_block(-1),
        _bad_key_after_the_first_block(2**64),
        _bad_key_after_the_first_block(-1, lambda keys: np.array(keys, dtype=np.int64)),
    ],
    ids=["list-negative", "list-2^64", "int64-negative"],
)
def test_a_bad_key_past_the_first_block_changes_nothing(batch, monkeypatch):
    f = BloomFilter(10_000, 4, seed=8)
    f.insert_many(range(100))
    before = (f.to_bytes(), f.inserted_count)
    hashed = []
    monkeypatch.setattr(bloom, "hash_pair_batch", lambda *args: hashed.append(args))
    for method in (f.insert_many, f.contains_many):
        with pytest.raises(ParameterError):
            method(batch)
    assert hashed == []  # nothing hashed, so nothing probed or set
    assert (f.to_bytes(), f.inserted_count) == before


def test_batch_temporaries_do_not_grow_with_the_batch():
    # Per-block uint64 temporaries are _BLOCK * 8 bytes each; a whole-batch
    # temporary of 10^6 keys would be 8 MB, over the bounds by far.
    n, m = 1_000_000, 2_000_000
    keys = np.random.default_rng(5).integers(0, 1 << 64, size=n, dtype=np.uint64)
    f = BloomFilter(m, 3, seed=5)
    assert _peak_bytes(lambda: f.insert_many(keys)) <= m + m // 8 + 16 * _BLOCK * 8
    assert _peak_bytes(lambda: f.contains_many(keys)) <= n + 16 * _BLOCK * 8


def test_a_large_filter_inserts_without_an_unpacked_copy():
    # past _UNPACK_LIMIT: a working copy of the 1.2 MB packed array and per-block
    # temporaries, where the m-byte unpacked copy alone would be 9.6 MB
    m = 9_585_059
    keys = np.random.default_rng(6).integers(0, 1 << 64, size=1_000_000, dtype=np.uint64)
    f = BloomFilter(m, 7, seed=6)
    assert m > bloom._UNPACK_LIMIT
    assert _peak_bytes(lambda: f.insert_many(keys)) < 3_000_000


@pytest.mark.parametrize("writeable", [False, True])
def test_batch_paths_never_write_the_callers_keys(writeable):
    keys = np.random.default_rng(4).integers(0, 1 << 64, size=_BLOCK + 7, dtype=np.uint64)
    before = keys.copy()
    keys.flags.writeable = writeable
    h1, h2 = hash_pair_batch(keys, 4)
    assert not np.shares_memory(keys, h1) and not np.shares_memory(keys, h2)
    f = BloomFilter(8 * keys.size, 3, seed=4)
    f.insert_many(keys)
    assert f.contains_many(keys).all()
    half = IntervalScorer([(0, 2**63 - 1)], inside_score=1.0, outside_score=0.0)
    lbf = LearnedBloomFilter.build(keys, half, 0.5, 0.01, seed=4)
    assert lbf.classify_many(keys)[1].all()
    assert np.array_equal(keys, before)


def test_one_public_call_per_batch(monkeypatch):
    # The benchmark's tracer wraps the public methods: a call per block would split a batch.
    calls = []
    for name in ("insert_many", "contains_many"):
        method = getattr(BloomFilter, name)

        def counted(self, keys, method=method, name=name):
            calls.append(name)
            return method(self, keys)

        monkeypatch.setattr(BloomFilter, name, counted)
    keys = np.arange(3 * _BLOCK, dtype=np.uint64)
    f = BloomFilter(10 * keys.size, 3, seed=2)
    f.insert_many(keys)
    assert f.contains_many(keys).all()
    assert calls == ["insert_many", "contains_many"]
    calls.clear()
    cold = IntervalScorer([(2**63, 2**64 - 1)], inside_score=1.0, outside_score=0.0)
    lbf = LearnedBloomFilter.build(keys, cold, 0.5, 0.01, seed=2)  # every key goes to the backup
    assert lbf.classify_many(keys)[1].all()
    assert calls == ["insert_many", "contains_many"]


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

    @pytest.mark.parametrize("n, k, message", [(-1, 3, "n must be >= 0"), (10, 0, "k must be >= 1")])
    def test_rejects_negative_keys_and_no_hashes(self, n, k, message):
        with pytest.raises(ParameterError, match=message):
            expected_fill_ratio(n, 100, k)


class TestSizing:
    def test_known_point(self):
        params = params_for_target(1000, 0.01)
        assert (params.m, params.k) == (9586, 7)

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


def test_the_seed_is_read_only():
    # the scalar probes hold the seed's mixed base, so a new seed would leave it stale
    f = BloomFilter(1000, 3, seed=5)
    with pytest.raises(AttributeError):
        f.seed = 6
    assert f.seed == 5


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

    @pytest.mark.parametrize("m, k", [(0, 2), (8, 0)])
    def test_header_declaring_an_empty_filter_rejected(self, m, k):
        blob = struct.pack("<4sQIQQ", b"LBF1", m, k, 0, 0) + b"\x00" * ((m + 7) // 8)
        with pytest.raises(FilterFormatError, match="header declares an empty filter"):
            BloomFilter.from_bytes(blob)

    def test_header_k_above_the_bound_rejected(self):
        # 33 bytes: an 8-bit filter whose header claims 2^31 hashes.  It must
        # fail to load; a probe on it could take 2^31 rounds.
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
