"""Tests for the synthetic data substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    Batch,
    BatchIterator,
    PairBatchIterator,
    Prefetcher,
    SyntheticCorpus,
    SyntheticPairCorpus,
    TokenBudgetBatcher,
    Vocab,
    ZipfSampler,
    pad_batch,
)
from repro.data.tokenizer import count_tokens


class TestVocab:
    def test_basic(self):
        v = Vocab(100)
        assert v.num_words == 96
        assert v.word_id(0) == 4
        assert v.word_id(95) == 99

    def test_word_id_range(self):
        v = Vocab(10)
        with pytest.raises(ValueError):
            v.word_id(6)

    def test_too_small(self):
        with pytest.raises(ValueError):
            Vocab(4)

    def test_duplicate_specials_rejected(self):
        with pytest.raises(ValueError):
            Vocab(10, pad_id=0, bos_id=0)


class TestZipfSampler:
    def test_support_bounds(self):
        s = ZipfSampler(50)
        draws = s.sample(np.random.default_rng(0), 10_000)
        assert draws.min() >= 0 and draws.max() < 50

    def test_head_heavier_than_tail(self):
        s = ZipfSampler(1000, exponent=1.2)
        draws = s.sample(np.random.default_rng(0), 50_000)
        head = (draws < 10).mean()
        tail = (draws >= 500).mean()
        assert head > 5 * tail

    def test_probs_normalized_and_monotone(self):
        s = ZipfSampler(100)
        assert s.probs.sum() == pytest.approx(1.0)
        assert np.all(np.diff(s.probs) <= 0)

    def test_expected_distinct_bounds(self):
        s = ZipfSampler(100)
        e = s.expected_distinct(1000)
        assert 0 < e <= 100
        # More draws never reduce distinct count.
        assert s.expected_distinct(2000) >= e

    def test_expected_distinct_matches_empirical(self):
        s = ZipfSampler(200, exponent=1.1)
        rng = np.random.default_rng(1)
        emp = np.mean(
            [len(np.unique(s.sample(rng, 300))) for _ in range(50)]
        )
        assert s.expected_distinct(300) == pytest.approx(emp, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfSampler(0)
        with pytest.raises(ValueError):
            ZipfSampler(10, exponent=0)


class TestCorpus:
    def test_sentence_structure(self):
        v = Vocab(100)
        c = SyntheticCorpus(v, min_len=5, max_len=10, seed=0)
        s = c.sentence()
        assert s[0] == v.bos_id and s[-1] == v.eos_id
        assert 7 <= len(s) <= 12
        body = s[1:-1]
        assert body.min() >= Vocab.NUM_SPECIAL and body.max() < v.size

    def test_deterministic_given_seed(self):
        v = Vocab(100)
        a = SyntheticCorpus(v, seed=3).sentences(5)
        b = SyntheticCorpus(v, seed=3).sentences(5)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            SyntheticCorpus(Vocab(10), min_len=5, max_len=4)

    def test_pair_corpus_lengths_correlated(self):
        v = Vocab(100)
        pc = SyntheticPairCorpus(v, v, min_len=10, max_len=20, length_ratio=2.0, seed=0)
        src, tgt = pc.pair()
        assert len(tgt) - 2 == pytest.approx((len(src) - 2) * 2.0, abs=1)


class TestPadBatch:
    def test_pads_to_longest(self):
        ids, lengths = pad_batch([np.array([1, 2]), np.array([3, 4, 5])], pad_id=0)
        assert ids.shape == (2, 3)
        assert ids[0].tolist() == [1, 2, 0]
        assert lengths.tolist() == [2, 3]

    def test_truncates_to_max_len(self):
        ids, lengths = pad_batch([np.array([1, 2, 3, 4])], pad_id=0, max_len=2)
        assert ids.shape == (1, 2)
        assert lengths.tolist() == [2]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            pad_batch([], pad_id=0)
        with pytest.raises(ValueError):
            pad_batch([np.array([], dtype=np.int64)], pad_id=0)
        with pytest.raises(ValueError):
            pad_batch([np.array([1])], pad_id=0, max_len=0)

    def test_count_tokens(self):
        ids = np.array([[1, 2, 0], [3, 0, 0]])
        assert count_tokens(ids, pad_id=0) == 3


class TestBatchIterators:
    def test_lm_batch_shapes(self):
        v = Vocab(200)
        it = BatchIterator(SyntheticCorpus(v, seed=0), batch_size=4)
        b = next(iter(it))
        assert isinstance(b, Batch)
        assert b.batch_size == 4
        assert b.inputs.shape == b.targets.shape
        # LM targets are inputs shifted by one.
        assert np.array_equal(b.inputs[:, 1:], b.targets[:, :-1])

    def test_lm_token_ids_exclude_pad(self):
        v = Vocab(200)
        b = next(iter(BatchIterator(SyntheticCorpus(v, min_len=2, max_len=30, seed=1), 8)))
        assert v.pad_id not in b.token_ids["embedding"]

    def test_pair_batch(self):
        v = Vocab(150)
        it = PairBatchIterator(SyntheticPairCorpus(v, v, seed=0), batch_size=3)
        b = next(iter(it))
        assert b.batch_size == 3
        assert set(b.token_ids) == {"encoder_embedding", "decoder_embedding"}
        assert b.num_tokens > 0

    def test_token_budget_batcher_respects_budget(self):
        v = Vocab(150)
        it = TokenBudgetBatcher(
            SyntheticPairCorpus(v, v, min_len=5, max_len=15, seed=0), max_tokens=200
        )
        for _ in range(5):
            b = next(it)
            # Padded source footprint never exceeds the budget (beyond one sentence).
            assert b.inputs.size <= 200 or b.batch_size == 1

    def test_batch_size_validation(self):
        v = Vocab(100)
        with pytest.raises(ValueError):
            BatchIterator(SyntheticCorpus(v), batch_size=0)
        with pytest.raises(ValueError):
            TokenBudgetBatcher(SyntheticPairCorpus(v, v), max_tokens=0)


class TestPrefetcher:
    def test_peek_matches_next(self):
        v = Vocab(100)
        pf = Prefetcher(BatchIterator(SyntheticCorpus(v, seed=0), 2))
        peeked = pf.peek()
        got = next(pf)
        assert peeked is got
        assert pf.peek() is not got

    def test_exhaustion(self):
        batches = [
            Batch(np.zeros((1, 2), dtype=int), np.zeros((1, 2), dtype=int), 2)
            for _ in range(2)
        ]
        pf = Prefetcher(iter(batches))
        assert next(pf) is batches[0]
        assert pf.peek() is batches[1]
        assert next(pf) is batches[1]
        assert pf.peek() is None
        with pytest.raises(StopIteration):
            next(pf)

    @given(n=st.integers(0, 10))
    @settings(max_examples=20, deadline=None)
    def test_prefetcher_preserves_order(self, n):
        batches = [
            Batch(np.full((1, 1), i), np.full((1, 1), i), 1) for i in range(n)
        ]
        out = list(Prefetcher(iter(batches)))
        assert [b.inputs[0, 0] for b in out] == list(range(n))


class TestBatchOverlapStatistics:
    """Consecutive batches share frequent tokens — the property Algorithm 1
    exploits: the prior part is a strict, non-trivial subset."""

    def test_overlap_nontrivial(self):
        v = Vocab(5000)
        it = BatchIterator(SyntheticCorpus(v, min_len=10, max_len=30, seed=0), 64)
        a = next(it).token_ids["embedding"]
        b = next(it).token_ids["embedding"]
        inter = np.intersect1d(a, b)
        assert 0 < len(inter) < len(a)

    def test_larger_vocab_lower_overlap_fraction(self):
        def overlap_frac(vocab_size):
            v = Vocab(vocab_size)
            it = BatchIterator(SyntheticCorpus(v, min_len=10, max_len=30, seed=0), 32)
            a = next(it).token_ids["embedding"]
            b = next(it).token_ids["embedding"]
            return len(np.intersect1d(a, b)) / len(a)

        assert overlap_frac(100_000) < overlap_frac(1_000)


class TestZipfMixtureSampler:
    def test_head_mass_respected(self):
        from repro.data.zipf import ZipfMixtureSampler

        s = ZipfMixtureSampler(10_000, head_size=50, head_mass=0.4)
        draws = s.sample(np.random.default_rng(0), 50_000)
        head_frac = (draws < 50).mean()
        assert head_frac == pytest.approx(0.4, abs=0.02)

    def test_probs_normalized(self):
        from repro.data.zipf import ZipfMixtureSampler

        s = ZipfMixtureSampler(1000, head_size=10, head_mass=0.3)
        assert s.probs.sum() == pytest.approx(1.0)

    def test_validation(self):
        from repro.data.zipf import ZipfMixtureSampler

        with pytest.raises(ValueError):
            ZipfMixtureSampler(100, head_size=100, head_mass=0.4)
        with pytest.raises(ValueError):
            ZipfMixtureSampler(100, head_size=10, head_mass=0.0)
        with pytest.raises(ValueError):
            ZipfMixtureSampler(100, head_size=10, head_mass=1.0)

    def test_flatter_tail_than_plain_zipf(self):
        from repro.data.zipf import ZipfMixtureSampler

        plain = ZipfSampler(10_000, exponent=1.1)
        mix = ZipfMixtureSampler(10_000, head_size=100, head_mass=0.4,
                                 tail_exponent=0.3)
        # Beyond the head, the mixture's tail decays more slowly.
        ratio_plain = plain.probs[200] / plain.probs[2000]
        ratio_mix = mix.probs[200] / mix.probs[2000]
        assert ratio_mix < ratio_plain


class TestCorpusRecurrence:
    def test_recurrence_raises_batch_overlap(self):
        v = Vocab(50_000)

        def overlap(recurrence):
            c = SyntheticCorpus(v, min_len=10, max_len=20, zipf_exponent=0.5,
                                recurrence=recurrence, buffer_size=2000, seed=0)
            it = BatchIterator(c, 32)
            for _ in range(10):  # warm the buffer
                next(it)
            a = next(it).token_ids["embedding"]
            b = next(it).token_ids["embedding"]
            return len(np.intersect1d(a, b)) / len(a)

        assert overlap(0.5) > overlap(0.0) + 0.1

    def test_recurrence_validation(self):
        with pytest.raises(ValueError):
            SyntheticCorpus(Vocab(100), recurrence=1.0)
        with pytest.raises(ValueError):
            SyntheticCorpus(Vocab(100), recurrence=0.5, buffer_size=0)

    def test_zero_recurrence_has_no_buffer_cost(self):
        c = SyntheticCorpus(Vocab(100), recurrence=0.0, seed=0)
        c.sentences(5)
        assert len(c._recent) == 0
