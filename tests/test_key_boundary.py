"""Scalar and batch paths agree: the same answers and the same exceptions for every key batch.

A key is an integer in [0, 2^64).  Each batch path is checked against a loop
over its scalar counterpart, on integer keys and on rejected ones (integers out
of range, floats, bools, byte strings, strings and None), in lists and numpy arrays.
No batch path may go key by key through a scalar path.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from learnedbloom.bloom import BloomFilter, FilterParams
from learnedbloom.errors import ParameterError
from learnedbloom.evaluation import evaluate
from learnedbloom.learned import LearnedBloomFilter
from learnedbloom.scorers import (
    IntervalScorer,
    LogisticScorer,
    TrainingSet,
    train_logistic,
)

U64 = 2**64
SCORERS = {
    "interval": IntervalScorer(
        ((1000, 2000), (2**63, 2**63 + 2**40)), inside_score=0.9, outside_score=0.1
    ),
    "int-norm": LogisticScorer(weights=(3.0,), bias=-1.5, feature_map=f"int-norm:{U64 - 1}"),
    "int-centered": LogisticScorer(weights=(2.5,), bias=-0.5, feature_map="int-centered:1000000"),
    "byte-ngram": LogisticScorer(
        weights=tuple(np.random.default_rng(3).normal(size=16)),
        bias=0.1,
        feature_map="byte-ngram:16",
    ),
}
PREFILL = (0, 1, 1500, 2**63, U64 - 1, 0x3030303030303030)

valid_ints = st.integers(0, U64 - 1)
bad_ints = st.one_of(st.integers(max_value=-1), st.integers(min_value=U64))
floats = st.one_of(
    st.floats(allow_nan=False),
    st.integers(0, 2**53).map(float),
    st.integers(0, 2**53).map(np.float64),
)
byte_keys = st.one_of(
    st.binary(max_size=12),
    st.binary(min_size=8, max_size=8),
    st.binary(max_size=12).map(bytearray),
)
bools = st.one_of(st.booleans(), st.booleans().map(np.bool_))
any_key = st.one_of(
    valid_ints, bad_ints, floats, bools, byte_keys, st.text(max_size=3), st.none()
)
batches = st.one_of(
    st.lists(valid_ints, min_size=1, max_size=8),
    st.lists(st.one_of(valid_ints, byte_keys), min_size=1, max_size=8),
    st.lists(st.one_of(valid_ints, bad_ints), min_size=1, max_size=8),
    st.lists(any_key, min_size=1, max_size=8),
    st.sampled_from([np.int8, np.int64, np.uint8, np.uint64]).flatmap(
        lambda dtype: hnp.arrays(dtype, st.integers(1, 8))
    ),
    hnp.arrays(np.float64, st.integers(1, 8), elements=st.floats(0, 1e6)),
    hnp.arrays(np.bool_, st.integers(1, 8)),
)


def outcome(fn):
    """fn()'s result as a numpy array, or the type of the exception it raised."""
    try:
        return np.asarray(fn())
    except Exception as exc:  # the exception type is the outcome under test
        return type(exc)


def assert_same(batch_outcome, scalar_outcome):
    if isinstance(batch_outcome, type) or isinstance(scalar_outcome, type):
        assert batch_outcome is scalar_outcome
    else:
        assert batch_outcome.dtype == scalar_outcome.dtype
        assert np.array_equal(batch_outcome, scalar_outcome)


def filled_filter() -> BloomFilter:
    filt = BloomFilter(64, 2, seed=1)
    for key in PREFILL:
        filt.insert(key)
    return filt


def learned_filter(scorer) -> LearnedBloomFilter:
    return LearnedBloomFilter.build(list(PREFILL), scorer, 0.5, FilterParams(64, 2), seed=2)


@settings(max_examples=150, deadline=None)
@given(batch=batches)
def test_bloom_insert_many_matches_insert(batch):
    def batch_path():
        filt = BloomFilter(512, 3, seed=4)
        filt.insert_many(batch)
        return np.frombuffer(filt.to_bytes(), dtype=np.uint8)

    def scalar_path():
        filt = BloomFilter(512, 3, seed=4)
        for key in batch:
            filt.insert(key)
        return np.frombuffer(filt.to_bytes(), dtype=np.uint8)

    assert_same(outcome(batch_path), outcome(scalar_path))


@settings(max_examples=150, deadline=None)
@given(batch=batches)
def test_bloom_contains_many_matches_contains(batch):
    filt = filled_filter()
    assert_same(
        outcome(lambda: filt.contains_many(batch)),
        outcome(lambda: [filt.contains(key) for key in batch]),
    )


@pytest.mark.parametrize("name", sorted(SCORERS))
@settings(max_examples=60, deadline=None)
@given(batch=batches)
def test_score_batch_matches_score(name, batch):
    scorer = SCORERS[name]
    assert_same(
        outcome(lambda: scorer.score_batch(batch)),
        outcome(lambda: np.array([scorer.score(key) for key in batch], dtype=np.float64)),
    )


@pytest.mark.parametrize("name", sorted(SCORERS))
@settings(max_examples=40, deadline=None)
@given(batch=batches, tau=st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0]))
def test_learned_build_matches_scalar_partition(name, batch, tau):
    scorer = SCORERS[name]

    def batch_path():
        lbf = LearnedBloomFilter.build(batch, scorer, tau, FilterParams(256, 3), seed=5)
        return [lbf.key_count, lbf.below_threshold_count, lbf.backup.to_bytes()]

    def scalar_path():
        backup = BloomFilter(256, 3, seed=5)
        for key in batch:
            if scorer.score(key) < tau:
                backup.insert(key)
        return [len(batch), backup.inserted_count, backup.to_bytes()]

    b, s = outcome(batch_path), outcome(scalar_path)
    if isinstance(b, type) or isinstance(s, type):
        assert b is s
    else:
        assert b.tolist() == s.tolist()


@pytest.mark.parametrize("name", sorted(SCORERS))
@settings(max_examples=40, deadline=None)
@given(batch=batches)
def test_learned_contains_many_matches_contains(name, batch):
    lbf = learned_filter(SCORERS[name])
    assert_same(
        outcome(lambda: lbf.contains_many(batch)),
        outcome(lambda: [lbf.contains(key) for key in batch]),
    )


@settings(max_examples=100, deadline=None)
@given(batch=batches, learned=st.booleans())
def test_empirical_fpr_matches_contains(batch, learned):
    filt = learned_filter(SCORERS["int-norm"]) if learned else filled_filter()
    assert_same(
        outcome(lambda: evaluate(filt, batch).empirical_fpr),
        outcome(lambda: sum(filt.contains(key) for key in batch) / len(batch)),
    )


class TestPinnedDisagreements:
    """Inputs on which the batch and scalar paths once gave different answers."""

    def test_negative_int64_array_is_rejected_like_insert(self):
        with pytest.raises(ParameterError):
            BloomFilter(64, 2, seed=1).insert(-1)
        with pytest.raises(ParameterError):
            BloomFilter(64, 2, seed=1).insert_many(np.array([-1], dtype=np.int64))

    def test_float_list_is_rejected_like_contains(self):
        with pytest.raises(ParameterError):
            BloomFilter(64, 2, seed=1).contains(1.7)
        with pytest.raises(ParameterError):
            BloomFilter(64, 2, seed=1).insert_many([1.7])

    def test_mixed_magnitude_list_is_not_rounded_through_float64(self):
        filt = BloomFilter(1 << 12, 4, seed=2)
        filt.insert(2**63)
        assert not filt.contains(1) and not filt.contains(2**63 + 1)
        assert evaluate(filt, [1, 2**63 + 1]).empirical_fpr == 0.0
        scorer = SCORERS["int-norm"]
        assert scorer.score_batch([1, 2**63]).tolist() == [scorer.score(1), scorer.score(2**63)]

    def test_byte_keys_are_rejected_at_every_entry_point(self):
        bloom = filled_filter()
        lbf = learned_filter(SCORERS["interval"])
        scalar = [bloom.insert, bloom.contains, lbf.insert, lbf.contains]
        scalar += [scorer.score for scorer in SCORERS.values()]
        batch = [
            BloomFilter(64, 2, seed=1).insert_many,
            bloom.contains_many,
            lambda keys: LearnedBloomFilter.build(
                keys, SCORERS["interval"], 0.5, FilterParams(64, 2), seed=2
            ),
            lbf.contains_many,
            lambda keys: evaluate(bloom, keys).empirical_fpr,
            lambda keys: evaluate(lbf, keys).empirical_fpr,
            lambda keys: TrainingSet(keys, [3]),
            lambda keys: TrainingSet([3], keys),
            *(scorer.score_batch for scorer in SCORERS.values()),
        ]
        before = (bloom.to_bytes(), lbf.to_bytes())
        for key in (b"12345678", b"ab\x00\x00", b"", bytearray(b"\x05")):
            batches = ([key], [5, key], np.array([5, key], dtype=object))
            for call, arg in [(f, key) for f in scalar] + [(f, b) for f in batch for b in batches]:
                with pytest.raises(ParameterError):
                    call(arg)
        assert (bloom.to_bytes(), lbf.to_bytes()) == before

    def test_python_and_numpy_bools_are_both_rejected(self):
        bloom = filled_filter()
        before = bloom.to_bytes()
        scalar = [bloom.insert, bloom.contains] + [s.score for s in SCORERS.values()]
        batch = [bloom.insert_many, bloom.contains_many, lambda keys: TrainingSet(keys, [3])]
        batch += [s.score_batch for s in SCORERS.values()]
        for key in (True, False, np.bool_(True)):
            for call, arg in [(f, key) for f in scalar] + [(f, [5, key]) for f in batch]:
                with pytest.raises(ParameterError):
                    call(arg)
        assert bloom.to_bytes() == before

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64,
                                       np.uint8, np.uint16, np.uint32, np.uint64])  # fmt: skip
    def test_a_0d_integer_array_is_one_key_not_a_batch(self, dtype):
        bloom = filled_filter()
        lbf = learned_filter(SCORERS["interval"])
        before = (bloom.to_bytes(), lbf.to_bytes())
        key = np.array(5, dtype=dtype)
        scalar = [bloom.insert, bloom.contains, lbf.insert, lbf.contains]
        batch = [
            BloomFilter(64, 2, seed=1).insert_many,
            bloom.contains_many,
            lbf.contains_many,
            lbf.classify_many,
            lambda keys: evaluate(bloom, keys),
            lambda keys: TrainingSet(keys, [3]),
            *(scorer.score_batch for scorer in SCORERS.values()),
        ]
        for call in scalar:
            with pytest.raises(ParameterError):
                call(key)
        for call in batch:
            with pytest.raises(ParameterError, match="expected a batch of keys, got one ndarray"):
                call(key)
        assert (bloom.to_bytes(), lbf.to_bytes()) == before

    def test_int_norm_key_at_the_threshold(self):
        scorer = LogisticScorer(weights=(3.0,), bias=-1.5, feature_map=f"int-norm:{U64 - 1}")
        key = 1601451729539952256
        lbf = LearnedBloomFilter.build([0], scorer, scorer.score(key), FilterParams(64, 2), seed=0)
        assert lbf.contains(key)
        assert lbf.contains_many([key]).tolist() == [True]

    def test_byte_ngram_rows_do_not_depend_on_the_batch(self):
        scorer = SCORERS["byte-ngram"]
        keys = np.random.default_rng(8).integers(0, U64, size=2000, dtype=np.uint64)
        full = scorer.score_batch(keys)
        singles = [scorer.score_batch(keys[i : i + 1])[0] for i in range(keys.size)]
        assert full.tolist() == singles
        assert full.tolist() == [scorer.score(int(k)) for k in keys]


def test_no_batch_path_goes_key_by_key(monkeypatch):
    """With every scalar key path made to raise, every batch path still runs."""

    def scalar_path(*args, **kwargs):
        raise AssertionError("a batch path went key by key")

    for name, module in list(sys.modules.items()):
        if name.startswith("learnedbloom"):
            for attr in ("_key", "hash_pair"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, scalar_path)
    monkeypatch.setattr(IntervalScorer, "score", scalar_path)
    monkeypatch.setattr(LogisticScorer, "score", scalar_path)  # every feature map's one-key path

    rng = np.random.default_rng(12)
    members = rng.integers(0, U64, size=300, dtype=np.uint64)
    queries = rng.integers(0, U64, size=300, dtype=np.uint64)
    for keys, others in ((members, queries), (members.tolist(), queries.tolist())):
        bloom = BloomFilter(4096, 3, seed=1)
        bloom.insert_many(keys)
        assert bloom.contains_many(keys).all()
        evaluate(bloom, others)
        data = TrainingSet(keys, others)
        for name, scorer in SCORERS.items():
            scorer.score_batch(others)
            lbf = LearnedBloomFilter.build(keys, scorer, 0.5, 0.01, seed=2)
            assert lbf.classify_many(keys)[1].all()
            evaluate(lbf, others)
            if name != "interval":
                train_logistic(data, scorer.feature_map, epochs=2, learning_rate=0.1)
