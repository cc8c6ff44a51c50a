"""Scorers, feature maps, the loss, and the trainer."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from learnedbloom.errors import FilterFormatError, ParameterError
from learnedbloom.scorers import (
    IntervalScorer,
    LogisticScorer,
    TrainingSet,
    feature_map,
    log_loss,
    log_loss_gradient,
    scorer_from_text,
    scorer_to_text,
    train_logistic,
)

ROOT = Path(__file__).resolve().parent.parent
HOT = IntervalScorer(((1000, 2000),), inside_score=0.5, outside_score=0.0)


class TestIntervalScorer:
    def test_inside_and_outside(self):
        assert HOT.score(1500) == 0.5
        assert HOT.score(5000) == 0.0

    def test_closed_boundaries(self):
        assert HOT.score(1000) == 0.5
        assert HOT.score(2000) == 0.5
        assert HOT.score(999) == 0.0
        assert HOT.score(2001) == 0.0

    def test_bytes_key_decodes_little_endian(self):
        assert HOT.score((1500).to_bytes(8, "little")) == 0.5
        # long byte keys decode to huge integers, necessarily outside
        assert HOT.score(b"\xff" * 16) == 0.0

    def test_batch_matches_scalar(self):
        keys = np.array([0, 999, 1000, 1500, 2000, 2001, 10**6], dtype=np.uint64)
        batch = HOT.score_batch(keys)
        assert np.array_equal(batch, [HOT.score(int(k)) for k in keys])

    def test_multiple_intervals(self):
        s = IntervalScorer(((0, 5), (10, 15)), inside_score=0.9, outside_score=0.1)
        assert s.score(3) == 0.9
        assert s.score(7) == 0.1
        assert s.score(12) == 0.9

    @pytest.mark.parametrize(
        "intervals",
        [((10, 5),), ((0, 10), (5, 20)), ((10, 20), (0, 5))],
    )
    def test_rejects_bad_intervals(self, intervals):
        with pytest.raises(ParameterError):
            IntervalScorer(intervals, inside_score=0.5, outside_score=0.0)

    def test_rejects_bad_scores(self):
        with pytest.raises(ParameterError):
            IntervalScorer(((0, 1),), inside_score=0.2, outside_score=0.5)
        with pytest.raises(ParameterError):
            IntervalScorer(((0, 1),), inside_score=1.2, outside_score=0.0)

    def test_size_bits(self):
        assert HOT.size_bits() == 256
        assert IntervalScorer((), 0.5, 0.0).size_bits() == 128
        three = IntervalScorer(((0, 1), (3, 4), (6, 7)), 0.5, 0.0)
        assert three.size_bits() == 3 * 128 + 128


class TestLogisticScorer:
    def test_zero_weights_score_half(self):
        s = LogisticScorer(weights=(0.0,), bias=0.0, feature_map="int-norm:1000")
        assert s.score(0) == 0.5
        assert s.score(999) == 0.5
        assert s.score(b"\x01\x02") == 0.5

    def test_batch_matches_scalar(self):
        s = LogisticScorer(weights=(2.5,), bias=-1.0, feature_map="int-centered:1000")
        keys = np.array([0, 250, 500, 750, 1000], dtype=np.uint64)
        batch = s.score_batch(keys)
        scalar = [s.score(int(k)) for k in keys]
        assert np.allclose(batch, scalar, atol=1e-15)

    def test_int_and_bytes_encodings_agree(self):
        s = LogisticScorer(weights=(2.5,), bias=-1.0, feature_map="int-norm:1000")
        assert s.score(750) == s.score((750).to_bytes(8, "little"))

    def test_weight_dim_must_match_feature_map(self):
        with pytest.raises(ParameterError):
            LogisticScorer(weights=(1.0, 2.0), bias=0.0, feature_map="int-norm:10")

    def test_rejects_non_finite(self):
        with pytest.raises(ParameterError):
            LogisticScorer(weights=(math.inf,), bias=0.0, feature_map="int-norm:10")

    def test_size_bits(self):
        s = LogisticScorer(weights=(0.0,) * 10, bias=0.0, feature_map="byte-ngram:10")
        assert s.size_bits() == 10 * 64 + 64 == 704


@settings(max_examples=80, deadline=None)
@given(
    lo=st.integers(0, 10**6),
    width=st.integers(0, 10**6),
    inside=st.floats(0.01, 1.0),
    frac=st.floats(0.0, 0.99),
    key=st.integers(0, 2**64 - 1),
)
def test_interval_scores_stay_in_unit_range(lo, width, inside, frac, key):
    s = IntervalScorer(((lo, lo + width),), inside, outside_score=inside * frac * 0.99)
    assert 0.0 <= s.score(key) <= 1.0


@settings(max_examples=50, deadline=None)
@given(
    weights=st.lists(st.floats(-50, 50), min_size=1, max_size=1),
    bias=st.floats(-50, 50),
    key=st.integers(0, 2**32),
)
def test_logistic_scores_stay_in_unit_range(weights, bias, key):
    s = LogisticScorer(weights=tuple(weights), bias=bias, feature_map="int-norm:1000")
    assert 0.0 <= s.score(key) <= 1.0


class TestFeatureMaps:
    def test_int_norm(self):
        fm = feature_map("int-norm:1000")
        assert fm.dim == 1
        assert fm.transform_one(500)[0] == 0.5
        assert np.array_equal(fm.transform([0, 1000]), [[0.0], [1.0]])

    def test_int_centered(self):
        fm = feature_map("int-centered:1000")
        assert fm.transform_one(0)[0] == -1.0
        assert fm.transform_one(1000)[0] == 1.0
        assert fm.transform_one(500)[0] == 0.0

    def test_byte_ngram_deterministic(self):
        fm = feature_map("byte-ngram:16")
        assert fm.dim == 16
        a = fm.transform_one(b"hello world")
        b = fm.transform_one(b"hello world")
        assert np.array_equal(a, b)
        assert a.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("name", ["int-norm", "nope:3", "int-norm:x", "byte-ngram:0"])
    def test_bad_names_rejected(self, name):
        with pytest.raises(ParameterError):
            feature_map(name)


def stacked_rows(fm, keys):
    """The batch's feature matrix from ``transform_one``, the specification, key by key."""
    return np.array([fm.transform_one(k) for k in keys]).reshape(len(keys), fm.dim)


uint64_batches = st.one_of(
    st.sampled_from([np.uint64, np.dtype(">u8")]).flatmap(
        lambda dtype: hnp.arrays(dtype, st.integers(0, 40))
    ),
    hnp.arrays(np.int64, st.integers(0, 40), elements=st.integers(0, 2**63 - 1)),
    st.lists(st.integers(0, 2**64 - 1), max_size=40),
)


class TestByteNgramTable:
    """A uint64 batch reads the bigram table; its rows equal ``transform_one``'s bit for bit."""

    @pytest.mark.parametrize("buckets", [1, 3, 16, 65_537])
    def test_every_pair_bucket_matches_the_scalar_hash(self, buckets):
        fm = feature_map(f"byte-ngram:{buckets}")
        expected = [fm._bucket(pair.to_bytes(2, "little")) for pair in range(1 << 16)]
        assert fm._pair_buckets.tolist() == expected

    @settings(max_examples=150, deadline=None)
    @given(buckets=st.integers(1, 300), keys=uint64_batches)
    def test_batch_rows_equal_scalar_rows(self, buckets, keys):
        fm = feature_map(f"byte-ngram:{buckets}")
        got = fm.transform(keys)
        assert got.dtype == np.float64
        assert np.array_equal(got, stacked_rows(fm, [int(k) for k in keys]))

    def test_empty_batch(self):
        fm = feature_map("byte-ngram:5")
        for keys in ([], np.array([], dtype=np.uint64)):
            assert fm.transform(keys).shape == (0, 5)

    def test_mixed_int_and_bytes_batch_agrees_key_by_key(self):
        fm = feature_map("byte-ngram:16")
        keys = [0, b"hello world", 2**64 - 1, b"", b"a", 258, b"ab\x00\x00"]
        assert np.array_equal(fm.transform(keys), stacked_rows(fm, keys))
        ints = np.array([0, 2**64 - 1, 258], dtype=np.uint64)
        assert np.array_equal(fm.transform(ints), fm.transform(keys)[[0, 2, 5]])

    def test_table_is_built_only_by_byte_ngram_batches(self):
        code = (
            "import numpy as np, learnedbloom\n"
            "from learnedbloom.scorers import TrainingSet, _pair_digests, train_logistic\n"
            "data = TrainingSet([5, 6, 7], [70, 80])\n"
            "scorer = train_logistic(data, 'int-centered:100', epochs=3, learning_rate=0.1)\n"
            "scorer.score_batch(np.arange(100, dtype=np.uint64))\n"
            "print(_pair_digests.cache_info().currsize)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0"]


class TestTrainingSet:
    def test_requires_positives(self):
        with pytest.raises(ParameterError):
            TrainingSet(positives=(), negatives=(1, 2))

    def test_requires_disjoint(self):
        with pytest.raises(ParameterError):
            TrainingSet(positives=(1, 2), negatives=(2, 3))

    def test_mixed_encodings_compared_canonically(self):
        with pytest.raises(ParameterError):
            TrainingSet(positives=(5,), negatives=((5).to_bytes(8, "little"),))

    def test_len(self):
        assert len(TrainingSet(positives=(1,), negatives=(2, 3))) == 3


class TestLogLoss:
    def test_perfect_classifier_near_zero(self):
        scorer = IntervalScorer(((0, 9),), inside_score=1.0, outside_score=0.0)
        data = TrainingSet(positives=tuple(range(10)), negatives=tuple(range(100, 120)))
        assert log_loss(scorer, data) <= len(data) * 1e-8

    def test_constant_half(self):
        scorer = LogisticScorer(weights=(0.0,), bias=0.0, feature_map="int-norm:100")
        data = TrainingSet(positives=tuple(range(7)), negatives=tuple(range(50, 61)))
        assert log_loss(scorer, data) == pytest.approx(18 * math.log(2), rel=1e-12)

    def test_single_positive_quarter_score(self):
        scorer = IntervalScorer(((0, 10),), inside_score=0.25, outside_score=0.0)
        data = TrainingSet(positives=(5,), negatives=())
        assert log_loss(scorer, data) == pytest.approx(-math.log(0.25), rel=1e-12)
        assert log_loss(scorer, data) == pytest.approx(1.3862943611198906, rel=1e-12)


class TestTrainer:
    def test_zero_epochs_gives_constant_half(self):
        data = TrainingSet(positives=(10, 20), negatives=(90, 80))
        scorer = train_logistic(data, "int-norm:100", epochs=0, learning_rate=0.1)
        assert scorer.weights == (0.0,)
        assert scorer.bias == 0.0
        assert scorer.score(37) == 0.5

    def test_separable_data_reaches_margin(self):
        # positives at feature +1, negatives at feature -1
        data = TrainingSet(positives=(100,) * 25, negatives=(0,) * 25)
        scorer = train_logistic(data, "int-centered:100", epochs=500, learning_rate=0.5)
        assert all(scorer.score(k) >= 0.9 for k in data.positives)
        assert all(scorer.score(k) <= 0.1 for k in data.negatives)

    def test_symmetric_data_stays_near_half(self):
        keys = tuple(range(0, 100, 7))
        data = TrainingSet(positives=keys, negatives=keys, check_disjoint=False)
        scorer = train_logistic(data, "int-centered:100", epochs=200, learning_rate=0.3)
        for key in keys:
            assert abs(scorer.score(key) - 0.5) <= 0.05

    def test_loss_non_increasing_with_backtracking(self):
        rng = np.random.default_rng(31)
        pos = tuple(int(x) for x in rng.integers(0, 500, size=40))
        neg = tuple(int(x) for x in rng.integers(500, 1000, size=40))
        for lr in (0.05, 0.5, 1e6):  # absurd steps must still descend
            trace = []
            train_logistic(
                TrainingSet(pos, neg), "int-norm:1000", epochs=60, learning_rate=lr,
                loss_trace=trace,
            )
            assert len(trace) == 61
            assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_deterministic(self):
        data = TrainingSet(positives=(1, 2, 3), negatives=(7, 8, 9))
        a = train_logistic(data, "int-norm:10", epochs=50, learning_rate=0.2)
        b = train_logistic(data, "int-norm:10", epochs=50, learning_rate=0.2)
        assert a.weights == b.weights
        assert a.bias == b.bias

    def test_rejects_bad_hyperparameters(self):
        data = TrainingSet(positives=(1,), negatives=(2,))
        with pytest.raises(ParameterError):
            train_logistic(data, "int-norm:10", epochs=-1, learning_rate=0.1)
        with pytest.raises(ParameterError):
            train_logistic(data, "int-norm:10", epochs=1, learning_rate=0.0)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(404)
        fm = feature_map("byte-ngram:6")
        pos = tuple(bytes(rng.integers(0, 256, size=10, dtype=np.uint8)) for _ in range(8))
        neg = tuple(bytes(rng.integers(0, 256, size=10, dtype=np.uint8)) for _ in range(8))
        data = TrainingSet(pos, neg)
        w = rng.normal(size=6)
        b = float(rng.normal())
        grad_w, grad_b = log_loss_gradient(w, b, fm, data)

        def loss_at(weights, bias):
            scorer = LogisticScorer(tuple(weights), bias, "byte-ngram:6")
            return log_loss(scorer, data)

        h = 1e-6
        for i in range(6):
            bumped = w.copy()
            bumped[i] += h
            dropped = w.copy()
            dropped[i] -= h
            numeric = (loss_at(bumped, b) - loss_at(dropped, b)) / (2 * h)
            assert abs(grad_w[i] - numeric) <= 1e-4 * max(1.0, abs(numeric))
        numeric_b = (loss_at(w, b + h) - loss_at(w, b - h)) / (2 * h)
        assert abs(grad_b - numeric_b) <= 1e-4 * max(1.0, abs(numeric_b))


class TestSerialization:
    def test_interval_round_trip(self):
        blob = scorer_to_text(HOT)
        back = scorer_from_text(blob)
        assert back == HOT

    def test_logistic_round_trip_is_exact(self):
        s = LogisticScorer(
            weights=(0.1, -2.5e-17, 3.0), bias=math.pi, feature_map="byte-ngram:3"
        )
        back = scorer_from_text(scorer_to_text(s))
        assert back.weights == s.weights  # hex floats: no decimal rounding
        assert back.bias == s.bias
        assert back.feature_map == s.feature_map

    @settings(max_examples=60, deadline=None)
    @given(w=st.floats(allow_nan=False, allow_infinity=False, width=64))
    def test_hex_floats_round_trip_exactly(self, w):
        s = LogisticScorer(weights=(w,), bias=-w, feature_map="int-norm:10")
        back = scorer_from_text(scorer_to_text(s))
        assert back.weights[0] == w
        assert back.bias == -w

    def test_unknown_kind_rejected(self):
        with pytest.raises(FilterFormatError):
            scorer_from_text('{"kind": "mystery"}')
        with pytest.raises(FilterFormatError):
            scorer_from_text("not json")
        with pytest.raises(FilterFormatError):
            scorer_from_text('["a", "list"]')
