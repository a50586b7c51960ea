"""Tests for the Trainer's data sources: determinism, epoch coverage,
length bucketing, and resumable RNG state."""

import numpy as np
import pytest

from repro.train import PaddedExampleSource, TokenStreamSource
from repro.utils.rng import derive_rng


def make_rows(n=40, width=9, vocab=50):
    rng = derive_rng(0, "tests/train/rows")
    return rng.integers(0, vocab, size=(n, width)).astype(np.int64)


def make_examples(n=17, max_len=30):
    rng = derive_rng(0, "tests/train/examples")
    out = []
    for _ in range(n):
        length = int(rng.integers(3, max_len))
        ids = rng.integers(1, 40, size=length).astype(np.int64)
        targets = ids.copy()
        targets[: length // 2] = -100
        out.append((ids, targets))
    return out


class TestTokenStreamSource:
    def test_batch_shapes_and_shift(self):
        src = TokenStreamSource(make_rows(width=9), batch_size=5, seed=1)
        batch = src.next_batch()
        assert batch.ids.shape == (5, 8)
        assert batch.targets.shape == (5, 8)
        assert batch.n_tokens == 40

    def test_deterministic_given_seed(self):
        a = TokenStreamSource(make_rows(), 4, seed=3)
        b = TokenStreamSource(make_rows(), 4, seed=3)
        for _ in range(5):
            np.testing.assert_array_equal(a.next_batch().ids, b.next_batch().ids)

    def test_state_roundtrip_resumes_stream(self):
        src = TokenStreamSource(make_rows(), 4, seed=3)
        for _ in range(3):
            src.next_batch()
        state = src.state_dict()
        expected = [src.next_batch().ids for _ in range(4)]
        fresh = TokenStreamSource(make_rows(), 4, seed=3)
        fresh.load_state_dict(state)
        for exp in expected:
            np.testing.assert_array_equal(fresh.next_batch().ids, exp)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenStreamSource(np.zeros((0, 5), dtype=np.int64), 4)
        with pytest.raises(ValueError):
            TokenStreamSource(make_rows(), 0)
        with pytest.raises(ValueError):
            TokenStreamSource(make_rows(), 4).load_state_dict({"kind": "examples"})


class TestPaddedExampleSource:
    def test_epoch_covers_every_example_once(self):
        examples = make_examples(n=17)
        src = PaddedExampleSource(examples, batch_size=4, seed=0)
        assert src.steps_per_epoch == 5
        seen = 0
        for _ in range(src.steps_per_epoch):
            seen += src.next_batch().ids.shape[0]
        assert seen == 17
        assert src.epoch == 1

    def test_bucketing_reduces_padding(self):
        examples = make_examples(n=32, max_len=60)
        total = sum(len(ids) for ids, _ in examples)
        src = PaddedExampleSource(examples, batch_size=4, seed=0)
        bucketed = sum(src.next_batch().n_tokens for _ in range(src.steps_per_epoch))

        def shuffled_then_padded(seed):
            # Shuffle every example, slice into batches, pad each batch
            # to its longest row.
            order = derive_rng(seed, "tests/train/shuffle").permutation(len(examples))
            lengths = [len(examples[i][0]) for i in order]
            return sum(len(chunk) * max(chunk)
                       for chunk in (lengths[i : i + 4] for i in range(0, 32, 4)))

        assert bucketed >= total
        assert all(bucketed < shuffled_then_padded(seed) for seed in range(5))

    def test_bucketed_batches_are_length_sorted_groups(self):
        examples = make_examples(n=24, max_len=50)
        src = PaddedExampleSource(examples, batch_size=6, seed=0)
        widths = [src.next_batch().ids.shape[1] for _ in range(src.steps_per_epoch)]
        # Each batch pads to its own longest member; the multiset of
        # widths must equal the sorted-group maxima regardless of the
        # epoch shuffle's batch order.
        lengths = sorted((len(ids) for ids, _ in examples), reverse=True)
        expected = [max(lengths[i : i + 6]) for i in range(0, len(lengths), 6)]
        assert sorted(widths) == sorted(expected)

    def test_padding_and_target_masking(self):
        examples = make_examples(n=8)  # real ids are all >= 1
        src = PaddedExampleSource(examples, batch_size=8, pad_id=0, seed=0)
        batch = src.next_batch()
        lengths = {len(ids) for ids, _ in examples}
        assert batch.ids.shape[1] == max(lengths)
        assert (batch.targets[batch.ids == 0] == -100).all()
        assert batch.n_supervised > 0

    def test_partial_bucket_never_mixes_extremes(self):
        # Regression: with len(examples) % batch_size != 0, the short
        # bucket used to shift later batches across bucket boundaries
        # (a batch could pad the shortest row out to the longest).
        rng = derive_rng(1, "tests/train/partial")
        examples = []
        for length in range(20, 10, -1):  # 10 examples, batch 4
            ids = rng.integers(1, 40, size=length).astype(np.int64)
            examples.append((ids, ids.copy()))
        src = PaddedExampleSource(examples, batch_size=4, seed=0)
        expected_groups = {(20, 19, 18, 17), (16, 15, 14, 13), (12, 11)}
        for _ in range(3):  # several epochs, several shuffles
            groups = set()
            for _ in range(src.steps_per_epoch):
                batch = src.next_batch()
                lengths = tuple(
                    int((row != 0).sum()) for row in batch.ids
                )
                groups.add(lengths)
            assert groups == expected_groups

    def test_custom_ignore_index_travels_with_batch(self):
        examples = make_examples(n=6)
        examples = [(ids, np.where(t == -100, -1, t)) for ids, t in examples]
        src = PaddedExampleSource(examples, batch_size=6, ignore_index=-1, seed=0)
        batch = src.next_batch()
        assert batch.ignore_index == -1
        assert (batch.targets[batch.ids == 0] == -1).all()
        assert batch.n_supervised == sum((t != -1).sum() for _, t in examples)

    def test_state_roundtrip_mid_epoch(self):
        examples = make_examples(n=17)
        src = PaddedExampleSource(examples, batch_size=4, seed=5)
        for _ in range(2):  # stop mid-epoch
            src.next_batch()
        state = src.state_dict()
        expected = [src.next_batch().ids for _ in range(7)]  # crosses epochs
        fresh = PaddedExampleSource(examples, batch_size=4, seed=5)
        fresh.load_state_dict(state)
        for exp in expected:
            np.testing.assert_array_equal(fresh.next_batch().ids, exp)

    def test_epochs_reshuffle(self):
        examples = make_examples(n=16)
        src = PaddedExampleSource(examples, batch_size=2, seed=0)
        first = [src.next_batch().ids.tobytes() for _ in range(8)]
        second = [src.next_batch().ids.tobytes() for _ in range(8)]
        assert sorted(first) == sorted(second)  # same batches...
        assert first != second  # ...in a reshuffled order

    def test_validation(self):
        with pytest.raises(ValueError):
            PaddedExampleSource([], 4)
        with pytest.raises(ValueError):
            PaddedExampleSource(make_examples(2), 0)
