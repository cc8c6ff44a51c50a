"""Scorers, feature maps, the loss, and the trainer."""

import dataclasses
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from learnedbloom import scorers
from learnedbloom.errors import FilterFormatError, ParameterError, TrainingError
from learnedbloom.scorers import (
    IntervalScorer,
    LogisticScorer,
    TrainingSet,
    _clamped_xent,
    _sigmoid,
    feature_map,
    log_loss,
    scorer_from_text,
    scorer_to_text,
    train_logistic,
)
from support import log_loss_gradient, run_python

HOT = IntervalScorer(((1000, 2000),), inside_score=0.5, outside_score=0.0)


def _spans(data, cuts):
    """Sorted disjoint closed intervals, one per pair of neighbouring cuts: ``[lo, lo]`` or
    ``[lo, next - 1]``; a cut of 2^64 can only close the last one, at key 2^64 - 1."""
    cuts = sorted(cuts)
    return [(lo, data.draw(st.sampled_from([lo, hi - 1]))) for lo, hi in zip(cuts, cuts[1:])]


def _interval_record(intervals: str) -> str:
    return ('{"inside_score": "0x1p-1", "intervals": %s, "kind": "interval", '
            '"outside_score": "0x0.0p+0"}' % intervals)


class TestIntervalScorer:
    def test_inside_and_outside(self):
        assert HOT.score(1500) == 0.5
        assert HOT.score(5000) == 0.0

    def test_closed_boundaries(self):
        assert HOT.score(1000) == 0.5
        assert HOT.score(2000) == 0.5
        assert HOT.score(999) == 0.0
        assert HOT.score(2001) == 0.0

    def test_bytes_key_is_rejected(self):
        for key in ((1500).to_bytes(8, "little"), b"\xff" * 16, bytearray(b"\x01")):
            with pytest.raises(ParameterError):
                HOT.score(key)
            with pytest.raises(ParameterError):
                HOT.score_batch([1500, key])

    def test_batch_matches_scalar(self):
        keys = np.array([0, 999, 1000, 1500, 2000, 2001, 10**6], dtype=np.uint64)
        batch = HOT.score_batch(keys)
        assert np.array_equal(batch, [HOT.score(int(k)) for k in keys])

    def test_multiple_intervals(self):
        s = IntervalScorer(((0, 5), (10, 15)), inside_score=0.9, outside_score=0.1)
        assert s.score(3) == 0.9
        assert s.score(7) == 0.1
        assert s.score(12) == 0.9

    @pytest.mark.parametrize("lo, hi", [(5, 5), (10, 3), (-1, 4), (0, 2**64 + 1)])
    def test_count_at_least_rejects_an_invalid_range(self, lo, hi):
        scorer = IntervalScorer(((0, 10),), inside_score=0.5, outside_score=0.0)
        with pytest.raises(ParameterError, match=re.escape(f"invalid range [{lo}, {hi})")):
            scorer.count_at_least(0.5, lo, hi)

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

    @pytest.mark.parametrize("bounds", [(-1, 3), (0, 2**64), (2**64, 2**64 + 5), (-10, -2)])
    def test_bounds_outside_the_key_range_are_rejected(self, bounds):
        with pytest.raises(ParameterError, match=r"pairs of keys: integer key -?\d+ outside"):
            IntervalScorer((bounds,), 0.5, 0.0)
        with pytest.raises(FilterFormatError, match="outside the 64-bit range"):
            scorer_from_text(_interval_record(json.dumps([list(bounds)])))

    @pytest.mark.parametrize(
        "intervals",
        ['[["1", "5"]]', "[[true, 3]]", "[[1, false]]", "[[7.9, 10]]", "[[1, 5.0]]", "[[1e3, 2e3]]",
         "[[1]]", "[[1, 2, 3]]", "[[0, 1], []]", "[1, 2]", '"ab"', "{}", '""'],
    )  # fmt: skip
    def test_a_record_bound_that_is_not_an_integer_key_is_rejected(self, intervals):
        with pytest.raises(FilterFormatError, match="malformed scorer record"):
            scorer_from_text(_interval_record(intervals))

    @pytest.mark.parametrize("intervals", [((1, 2, 3),), ((1,),), ((0, 1), ())])
    def test_a_pair_whose_length_is_not_two_is_rejected(self, intervals):
        with pytest.raises(ParameterError, match=r"intervals are \(lo, hi\) pairs of keys"):
            IntervalScorer(intervals, 0.5, 0.0)

    @pytest.mark.parametrize("sizes", [(0, 12), (18, 40)])  # past 16 intervals the batch searches
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_score_batch_equals_score_bit_for_bit(self, sizes, data):
        # bounds are keys, dense near both ends of [0, 2^64); all may lie above key 0
        low = data.draw(st.sampled_from([0, 1]))
        ends = st.one_of(
            st.integers(low, 2**64), st.integers(low, 3), st.integers(2**64 - 3, 2**64)
        )
        cuts = data.draw(st.lists(ends, min_size=sizes[0], max_size=sizes[1], unique=True))
        spans = _spans(data, cuts)
        s = IntervalScorer(spans, inside_score=0.75, outside_score=0.25)
        bounds = [b + d for span in spans for b in span for d in (-1, 0, 1)]
        keys = [k for k in bounds if 0 <= k < 2**64] + [0, 2**64 - 1]
        keys += data.draw(st.lists(st.integers(0, 2**64 - 1), max_size=20))
        assert s.score_batch(keys).tolist() == [s.score(k) for k in keys]
        assert s.score_batch(np.array(keys, dtype=np.uint64)).tolist() == [s.score(k) for k in keys]

    def test_holds_its_bounds_once_as_read_only_uint64_arrays(self):
        s = IntervalScorer([(0, 5), (10, 2**64 - 1)], 0.9, 0.1)
        assert set(vars(s)) == {"_lo", "_hi", "inside_score", "outside_score"}
        assert [s._lo.tolist(), s._hi.tolist()] == [[0, 10], [5, 2**64 - 1]]
        for held in (s._lo, s._hi):
            assert held.dtype == np.uint64 and not held.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.inside_score = 1.0

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
        assert s.score(2**64 - 1) == 0.5

    def test_batch_matches_scalar(self):
        s = LogisticScorer(weights=(2.5,), bias=-1.0, feature_map="int-centered:1000")
        keys = np.array([0, 250, 500, 750, 1000], dtype=np.uint64)
        batch = s.score_batch(keys)
        scalar = [s.score(int(k)) for k in keys]
        assert np.allclose(batch, scalar, atol=1e-15)

    def test_numpy_int_keys_score_as_python_ints(self):
        s = LogisticScorer(weights=(2.5,), bias=-1.0, feature_map="int-norm:1000")
        assert s.score(750) == s.score(np.uint64(750)) == s.score(np.int16(750))
        with pytest.raises(ParameterError):
            s.score((750).to_bytes(8, "little"))  # the old byte encoding of 750

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


uint64_batches = st.one_of(
    st.sampled_from([np.uint64, np.dtype(">u8")]).flatmap(
        lambda dtype: hnp.arrays(dtype, st.integers(0, 40))
    ),
    hnp.arrays(np.int64, st.integers(0, 40), elements=st.integers(0, 2**63 - 1)),
    st.lists(st.integers(0, 2**64 - 1), max_size=40),
)


class TestFeatureMaps:
    def test_int_norm(self):
        fm = feature_map("int-norm:1000")
        assert fm.dim == 1
        assert fm.encode([0, 500, 1000]).tolist() == [0.0, 0.5, 1.0]

    def test_int_centered(self):
        fm = feature_map("int-centered:1000")
        assert fm.encode([0, 1000, 500]).tolist() == [-1.0, 1.0, 0.0]

    def test_byte_ngram_deterministic(self):
        fm = feature_map("byte-ngram:16")
        assert fm.dim == 16
        key = int.from_bytes(b"hello wo", "little")
        a = fm.encode([key])
        assert a.shape == (7, 1)  # every key has seven bigrams
        assert np.array_equal(a, fm.encode([key]))
        pairs = (b"he", b"el", b"ll", b"lo", b"o ", b" w", b"wo")
        assert a[:, 0].tolist() == [fm._bucket(pair) for pair in pairs]

    @pytest.mark.parametrize(
        "name", ["int-norm", "nope:3", "int-norm:x", "byte-ngram:0", "int-norm:1" + "0" * 400]
    )
    def test_bad_names_rejected(self, name):
        with pytest.raises(ParameterError):
            feature_map(name)

    @pytest.mark.parametrize(
        "name",
        ["int-norm:1000", f"int-norm:{2**64 - 1}", "int-centered:1000000"]
        + ["byte-ngram:1", "byte-ngram:16", "byte-ngram:300"],
    )
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), keys=uint64_batches)
    def test_score_batch_equals_score_bit_for_bit(self, name, data, keys):
        dim = feature_map(name).dim
        weights = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim))
        s = LogisticScorer(tuple(weights), data.draw(st.floats(-1e3, 1e3)), name)
        got = s.score_batch(keys)
        assert got.dtype == np.float64
        assert got.tolist() == [s.score(k) for k in keys]
        assert s.rank_batch(keys).tolist() == [s.rank(k) for k in keys]  # the logits

    @pytest.mark.parametrize(
        "logit, weight, bias, key",  # int-norm:1's logit is key * weight + bias
        [
            (0.0, 1.0, 0.0, 0),
            (-0.0, -1.0, -0.0, 0),
            (math.inf, 1e300, 0.0, 2**64 - 1),
            (-math.inf, -1e300, 0.0, 2**64 - 1),
            (1e308, 1e308, 0.0, 1),
            (-1e308, -1e308, 0.0, 1),
            (5e-324, 5e-324, 0.0, 1),
            (-5e-324, -5e-324, 0.0, 1),
            (-745.0, 1.0, -745.0, 0),  # e^-745 is the smallest subnormal
        ],
    )
    def test_score_equals_score_batch_at_edge_logits(self, logit, weight, bias, key):
        s = LogisticScorer((weight,), bias, "int-norm:1")
        z = s._fm.logit_one(key, s._w, s.bias)
        assert (z, math.copysign(1.0, z)) == (logit, math.copysign(1.0, logit))
        keys = [key, 0, 1, 2, 2**64 - 1]
        assert s.score_batch(keys).tolist() == [s.score(k) for k in keys]
        assert s.score(key) == _sigmoid(np.array([logit]))[0]


def _ulp_step(z: float, steps: int) -> float:
    """The double ``steps`` places above ``z`` in the order of the doubles."""
    return scorers._double(scorers._ordinal(z) + steps)


class TestThresholdRule:
    """A key is at or above tau iff its rank reaches cut(tau); for a logistic scorer the
    logit against z_tau, which IEEE arithmetic alone derives from tau."""

    def test_an_interval_scorer_ranks_by_score_and_cuts_at_tau(self):
        keys = [0, 1000, 1500, 2000, 2001, 2**64 - 1]
        assert HOT.rank_batch(keys).tolist() == [HOT.rank(k) for k in keys] == [HOT.score(k) for k in keys]
        assert HOT.cut(0.25) == 0.25 and math.isnan(HOT.cut(math.nan))

    @pytest.mark.parametrize("tau, cut", [(0.0, -math.inf), (-0.5, -math.inf), (-math.inf, -math.inf),
                                          (1.0 + 2**-52, math.nan), (2.0, math.nan), (math.nan, math.nan)])
    def test_every_logit_or_none_is_at_or_above(self, tau, cut):
        got = scorers.logit_cut(tau)
        assert got == cut or math.isnan(got) and math.isnan(cut)

    def test_cuts_are_pinned(self):
        # the same doubles on every machine and numpy: no libm or SIMD function derives them
        pinned = {0.5: "-0x1.0000000000000p-54", 1.0: "0x1.25e4f7b2737fbp+5",
                  0.1: "-0x1.193ea7aad030ap+1", 0.9: "0x1.193ea7aad030cp+1",
                  2**-60: "-0x1.4cb5ecf0a9650p+5", 1e-300: "-0x1.5963447f87fb5p+9"}  # fmt: skip
        assert {tau: scorers.logit_cut(tau).hex() for tau in pinned} == pinned

    def test_the_reference_sigmoid_at_its_edges(self):
        ref = scorers._sigmoid_ref
        assert (ref(-math.inf), ref(-746.0), ref(0.0), ref(-0.0), ref(math.inf)) == (0.0, 0.0, 0.5, 0.5, 1.0)
        assert 0.0 < ref(-745.0) == _sigmoid(np.array([-745.0]))[0]

    @settings(max_examples=300, deadline=None)
    @given(z=st.floats(-800.0, 800.0) | st.sampled_from([-math.inf, math.inf]))
    def test_the_reference_sigmoid_lies_within_3_ulp_of_the_sigmoid(self, z):
        got, want = scorers._sigmoid_ref(z), _sigmoid(np.array([z]))[0]
        assert abs(got - want) <= 3 * math.ulp(want)

    @settings(max_examples=300, deadline=None)
    @given(tau=st.floats(0.0, 1.0, exclude_min=True) | st.floats(-40.0, 40.0).map(
        lambda z: float(_sigmoid(np.array([z]))[0])).filter(lambda t: t > 0.0))
    def test_the_cut_is_where_the_bisection_crosses_tau(self, tau):
        cut = scorers.logit_cut(tau)
        assert scorers._sigmoid_ref(cut) >= tau > scorers._sigmoid_ref(_ulp_step(cut, -1))

    @settings(max_examples=300, deadline=None)
    @given(
        tau=st.floats(0.0, 1.0) | st.floats(-40.0, 40.0).map(lambda z: float(_sigmoid(np.array([z]))[0])),
        steps=st.integers(-64, 64),
    )
    def test_the_rule_differs_from_the_score_only_within_2_ulp_of_tau(self, tau, steps):
        cut = scorers.logit_cut(tau)
        z = _ulp_step(cut, steps) if math.isfinite(cut) else steps * 1.0
        score = _sigmoid(np.array([z]))[0]
        if (z >= cut) != (score >= tau):
            assert abs(score - tau) <= 2 * max(math.ulp(score), math.ulp(tau))

    def test_the_rule_and_the_score_do_differ_at_some_ties(self):
        # the property above is not vacuous: next to the cut the two rules part somewhere
        rng = np.random.default_rng(41)
        parted = 0
        for tau in _sigmoid(rng.uniform(-10.0, 10.0, 200)):
            cut = scorers.logit_cut(float(tau))
            z = np.array([_ulp_step(cut, step) for step in range(-8, 8)])
            parted += int(np.count_nonzero((z >= cut) != (_sigmoid(z) >= tau)))
        assert parted > 0

    @pytest.mark.parametrize("tau", [0.0, 2**-60, 0.5, 1.0])
    def test_infinite_logits_keep_their_scores_side(self, tau):
        cut = scorers.logit_cut(tau)
        for z in (-math.inf, math.inf):
            assert (z >= cut) == (_sigmoid(np.array([z]))[0] >= tau)

    def test_a_logistic_scorer_ranks_by_logit(self):
        s = LogisticScorer((37.0,), -1.3, "int-centered:1000000")
        keys = np.arange(0, 1_000_001, 997, dtype=np.uint64)
        z = s.rank_batch(keys)
        assert z.tolist() == s._fm.logit(s._fm.encode(keys), s._w, s.bias).tolist()
        assert s.score_batch(keys).tolist() == _sigmoid(z).tolist()
        assert s.cut(0.3) == scorers.logit_cut(0.3)


class TestByteNgramTable:
    """A batch reads the bigram table; its buckets equal the scalar hash's key by key."""

    @pytest.mark.parametrize("buckets", [1, 3, 16, 65_537])
    def test_every_pair_bucket_matches_the_scalar_hash(self, buckets):
        fm = feature_map(f"byte-ngram:{buckets}")
        expected = [fm._bucket(pair.to_bytes(2, "little")) for pair in range(1 << 16)]
        assert fm._pair_buckets.tolist() == expected

    @settings(max_examples=150, deadline=None)
    @given(buckets=st.integers(1, 300), keys=uint64_batches)
    def test_batch_buckets_equal_the_scalar_hash(self, buckets, keys):
        fm = feature_map(f"byte-ngram:{buckets}")
        expected = []
        for key in keys:
            data = int(key).to_bytes(8, "little")
            expected.append([fm._bucket(data[i : i + 2]) for i in range(7)])
        assert fm.encode(keys).T.tolist() == expected

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), buckets=st.integers(1, 300), keys=uint64_batches)
    def test_logit_adds_the_held_weights_in_bigram_order(self, data, buckets, keys):
        weights = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=buckets, max_size=buckets))
        bias = data.draw(st.floats(-1e3, 1e3))
        s = LogisticScorer(tuple(weights), bias, f"byte-ngram:{buckets}")
        logits = []
        for key in keys:
            data_bytes = int(key).to_bytes(8, "little")
            held = [weights[s._fm._bucket(data_bytes[i : i + 2])] / 7 for i in range(7)]
            z = held[0]
            for term in held[1:]:
                z += term
            logits.append(z + bias)
        assert s.score_batch(keys).tolist() == _sigmoid(np.array(logits)).tolist()

    def test_empty_batch(self):
        s = LogisticScorer(tuple(range(5)), 0.5, "byte-ngram:5")
        for keys in ([], np.array([], dtype=np.uint64)):
            assert s._fm.encode(keys).shape == (7, 0)
            got = s.score_batch(keys)
            assert got.dtype == np.float64 and got.shape == (0,)

    def test_mixed_int_and_bytes_batch_agrees_key_by_key(self):
        s = LogisticScorer(tuple(np.linspace(-2, 2, 16)), 0.1, "byte-ngram:16")
        for key in (b"hello world", b"", b"ab\x00\x00", bytearray(b"12345678")):
            with pytest.raises(ParameterError):
                s.score_batch([0, 2**64 - 1, key, 258])
            with pytest.raises(ParameterError):
                s.score(key)
        ints = [0, 2**64 - 1, 258, np.uint64(7), np.int8(3)]
        assert s.score_batch(ints).tolist() == [s.score(k) for k in ints]

    def test_score_batch_peak_memory_is_bounded_by_the_batch(self):
        # an n x D feature matrix at n = 20k, D = 200k would take 32 GB
        n, buckets = 20_000, 200_000
        s = LogisticScorer(tuple(np.linspace(-1, 1, buckets)), 0.0, f"byte-ngram:{buckets}")
        keys = np.random.default_rng(9).integers(0, 2**64, size=n, dtype=np.uint64)
        s.score_batch(keys[:1])  # builds the bucket table once, O(65,536)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            s.score_batch(keys)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 4 * (n * 7 * 8) + 8 * buckets

    def test_table_is_built_only_by_byte_ngram_batches(self):
        code = (
            "import numpy as np, learnedbloom\n"
            "from learnedbloom.scorers import TrainingSet, _pair_digests, train_logistic\n"
            "data = TrainingSet([5, 6, 7], [70, 80])\n"
            "scorer = train_logistic(data, 'int-centered:100', epochs=3, learning_rate=0.1)\n"
            "scorer.score_batch(np.arange(100, dtype=np.uint64))\n"
            "print(_pair_digests.cache_info().currsize)\n"
        )
        assert run_python(code).split() == ["0"]


class TestTrainingSet:
    def test_requires_positives(self):
        with pytest.raises(ParameterError):
            TrainingSet(positives=(), negatives=(1, 2))

    def test_requires_disjoint(self):
        with pytest.raises(ParameterError):
            TrainingSet(positives=(1, 2), negatives=(2, 3))

    def test_mixed_encodings_compared_canonically(self):
        with pytest.raises(ParameterError):
            TrainingSet(positives=(5,), negatives=(np.uint64(5),))
        with pytest.raises(ParameterError):
            TrainingSet(positives=np.array([7, 5], dtype=np.int8), negatives=[2**64 - 1, 5])

    def test_holds_read_only_uint64_arrays(self):
        pos = np.array([3, 1], dtype=np.uint64)
        data = TrainingSet(positives=pos, negatives=[2, 4])
        for held, expected in ((data.positives, [3, 1]), (data.negatives, [2, 4])):
            assert held.dtype == np.uint64 and held.tolist() == expected
            assert not held.flags.writeable
        assert pos.flags.writeable  # the caller's array is copied, not frozen

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


def _two_pass_train(data, name, epochs, learning_rate, loss_trace):
    """The trainer's loop as a readable reference: a logit pass for each candidate's loss and
    another for the gradient at the accepted point.  The record, or the ``TrainingError``'s repr."""
    fm = feature_map(name)
    codes = fm.encode(np.concatenate([data.positives, data.negatives]))
    n_pos = data.positives.size

    def probabilities(w, b):
        return _sigmoid(fm.logit(codes, fm.held(w), b))

    def loss_at(w, b):
        p = probabilities(w, b)
        return _clamped_xent(p[:n_pos], p[n_pos:])

    w, b = np.zeros(fm.dim, dtype=np.float64), 0.0
    loss = loss_at(w, b)
    loss_trace.append(loss)
    for epoch in range(epochs):
        residual = probabilities(w, b)
        residual[:n_pos] -= 1.0
        grad_w, grad_b = fm.gradient(codes, residual), float(residual.sum())
        if not (np.all(np.isfinite(grad_w)) and math.isfinite(grad_b) and math.isfinite(loss)):
            return repr(TrainingError(f"non-finite loss or gradient at epoch {epoch}"))
        step = learning_rate
        while step > 1e-30:
            with np.errstate(over="ignore"):
                cand_w, cand_b = w - step * grad_w, b - step * grad_b
            if not (np.all(np.isfinite(cand_w)) and math.isfinite(cand_b)):
                step *= 0.5  # past the float range: halved before it is scored
                continue
            cand_loss = loss_at(cand_w, cand_b)
            if math.isfinite(cand_loss) and cand_loss <= loss:
                w, b, loss = cand_w, cand_b, cand_loss
                break
            step *= 0.5
        loss_trace.append(loss)
    return LogisticScorer(tuple(float(v) for v in w), b, fm.name).to_record()


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
        # each negative sits one key above a positive, so no line separates them
        positives = tuple(range(0, 100, 7))
        data = TrainingSet(positives=positives, negatives=tuple(k + 1 for k in positives))
        scorer = train_logistic(data, "int-centered:100", epochs=200, learning_rate=0.3)
        for key in (*data.positives, *data.negatives):
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

    def test_training_does_not_depend_on_the_blas_thread_count(self):
        # 20,000 keys: enough that a BLAS dot splits its sum between two threads
        code = (
            "import json, numpy as np\n"
            "from learnedbloom.scorers import TrainingSet, train_logistic\n"
            "keys = np.random.default_rng(11).choice(1 << 20, size=20_000, replace=False)\n"
            "data = TrainingSet(keys[:10_000] // 2, keys[10_000:] // 2 + (1 << 19))\n"
            "scorer = train_logistic(data, 'int-centered:1048576', epochs=100, learning_rate=1e-3)\n"
            "print(json.dumps(scorer.to_record(), sort_keys=True))\n"
        )
        records = [json.loads(run_python(code, OPENBLAS_NUM_THREADS=threads)) for threads in ("1", "2")]
        assert records[0] == records[1]

    def test_rejects_bad_hyperparameters(self):
        data = TrainingSet(positives=(1,), negatives=(2,))
        with pytest.raises(ParameterError):
            train_logistic(data, "int-norm:10", epochs=-1, learning_rate=0.1)
        for rate in (0.0, -1.0, math.nan, math.inf):  # an infinite step never halves below 1e-30
            with pytest.raises(ParameterError, match="learning_rate must be positive and finite"):
                train_logistic(data, "int-norm:10", epochs=1, learning_rate=rate)

    @pytest.mark.parametrize("name", ["int-centered:100", "byte-ngram:8"])
    def test_each_visited_point_costs_one_logit_pass(self, monkeypatch, name):
        # at this rate no step is halved: the start point and one point per epoch
        passes = []
        for cls in (scorers._Affine, scorers._ByteNgram):
            def counted(self, *args, _logit=cls.logit):
                passes.append(self.name)
                return _logit(self, *args)

            monkeypatch.setattr(cls, "logit", counted)
        data = TrainingSet(positives=(60, 70, 80, 90), negatives=(10, 20, 30, 40))
        train_logistic(data, name, epochs=10, learning_rate=0.01)
        assert passes == [name] * 11

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.one_of(
            st.builds("int-norm:{}".format, st.integers(1, 2**64)),
            st.builds("int-centered:{}".format, st.integers(1, 2**64)),
            st.builds("byte-ngram:{}".format, st.integers(1, 12)),
        ),
        keys=st.lists(st.integers(0, 2**64 - 1), min_size=2, max_size=24, unique=True),
        n_pos=st.integers(1, 23),
        epochs=st.integers(0, 40),
        rate=st.floats(-3, 6).map(lambda e: 10.0**e),  # log-uniform over [1e-3, 1e6]
    )
    def test_matches_the_two_pass_reference_loop(self, name, keys, n_pos, epochs, rate):
        n_pos = min(n_pos, len(keys) - 1)
        data = TrainingSet(positives=keys[:n_pos], negatives=keys[n_pos:])
        trace, expected_trace = [], []
        expected = _two_pass_train(data, name, epochs, rate, expected_trace)
        try:
            got = train_logistic(data, name, epochs, rate, loss_trace=trace).to_record()
        except TrainingError as exc:
            got = repr(exc)
        assert (got, trace) == (expected, expected_trace)

    @pytest.mark.parametrize("name", ["int-norm:1000000", "int-centered:1000000", "byte-ngram:16"])
    def test_the_largest_rates_halve_past_the_float_range_without_a_warning(self, name):
        # at 1e308 a first step overflows: each epoch halves about 1,000 times
        data = TrainingSet(range(1000, 1500), range(5000, 5500))
        trace, expected_trace = [], []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = train_logistic(data, name, 5, 1e308, loss_trace=trace).to_record()
            expected = _two_pass_train(data, name, 5, 1e308, expected_trace)
        assert (got, trace) == (expected, expected_trace)
        assert trace == sorted(trace, reverse=True) and trace[-1] < trace[0]

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(404)
        fm = feature_map("byte-ngram:6")
        pos = rng.integers(0, 2**64, size=8, dtype=np.uint64)
        neg = rng.integers(0, 2**64, size=8, dtype=np.uint64)
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

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_interval_record_round_trips(self, data):
        # 0 to 40 intervals, bounds anywhere in [0, 2^64)
        spans = _spans(data, data.draw(st.lists(st.integers(0, 2**64), max_size=41, unique=True)))
        inside = data.draw(st.floats(0.0, 1.0, exclude_min=True))
        s = IntervalScorer(spans, inside, data.draw(st.floats(0.0, inside, exclude_max=True)))
        text = scorer_to_text(s)
        back = scorer_from_text(text)
        assert back == s
        assert scorer_to_text(back) == text
        assert json.loads(text)["intervals"] == [list(span) for span in spans]

    def test_a_large_record_loads_in_bounded_memory(self):
        # one interval is two 8-byte bounds; its JSON pair of Python ints is several times that
        n = 10**5
        starts = range(2**40, 2**40 + 4 * n, 4)
        text = scorer_to_text(IntervalScorer([(a, a + 2) for a in starts], 0.5, 0.0))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            json.loads(text)
            json_peak = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            s = scorer_from_text(text)
            held, peak = (v - base for v in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert s.size_bits() == 128 * n + 128
        assert peak <= json_peak + 64 * n
        assert held <= 16 * n + 64 * 1024

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

    @pytest.mark.parametrize("name", ["5", "true", "null", '["int-norm:10"]', "{}"])
    def test_a_feature_map_name_that_is_not_a_string_is_rejected(self, name):
        record = ('{"bias": "0x0.0p+0", "feature_map": %s, "kind": "logistic", '
                  '"weights": ["0x1p+0"]}')
        with pytest.raises(FilterFormatError, match="feature map name must be a string"):
            scorer_from_text(record % name)

    def test_unknown_kind_rejected(self):
        with pytest.raises(FilterFormatError):
            scorer_from_text('{"kind": "mystery"}')
        with pytest.raises(FilterFormatError):
            scorer_from_text("not json")
        with pytest.raises(FilterFormatError):
            scorer_from_text('["a", "list"]')
