"""Tests for the gradient-compression extension (DGC-style top-k)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import TopKCompressor
from repro.nn.parameter import Parameter
from repro.optim import SGD


class TestTopK:
    def test_selects_largest_magnitudes(self):
        c = TopKCompressor(ratio=0.25)
        grad = np.array([0.1, -5.0, 0.2, 3.0])
        idx, vals = c.compress(grad)
        assert set(idx.tolist()) == {1}
        assert vals[0] == -5.0

    def test_residual_accumulates_and_releases(self):
        c = TopKCompressor(ratio=0.5)
        grad = np.array([1.0, 10.0])
        idx1, _ = c.compress(grad)
        assert idx1.tolist() == [1]
        assert c.residual_norm == pytest.approx(1.0)
        # The skipped coordinate builds up and eventually wins.
        idx2, vals2 = c.compress(np.array([1.0, 0.1]))
        assert idx2.tolist() == [0]
        assert vals2[0] == pytest.approx(2.0)  # 1.0 residual + 1.0 new

    def test_error_feedback_preserves_total_gradient(self):
        """Sum of everything sent + final residual == sum of all grads."""
        rng = np.random.default_rng(0)
        c = TopKCompressor(ratio=0.1)
        total_sent = np.zeros(50)
        total_grad = np.zeros(50)
        for _ in range(20):
            g = rng.normal(size=50)
            total_grad += g
            idx, vals = c.compress(g)
            total_sent += c.decompress(idx, vals, (50,))
        residual = c._residual
        np.testing.assert_allclose(total_sent + residual, total_grad, atol=1e-9)

    def test_shape_change_rejected(self):
        c = TopKCompressor(ratio=0.5)
        c.compress(np.ones(4))
        with pytest.raises(ValueError):
            c.compress(np.ones(5))

    def test_validation(self):
        with pytest.raises(ValueError):
            TopKCompressor(ratio=0.0)
        with pytest.raises(ValueError):
            TopKCompressor(ratio=1.5)
        with pytest.raises(ValueError):
            TopKCompressor(min_k=0)

    def test_compressed_bytes(self):
        c = TopKCompressor(ratio=0.01)
        assert c.compressed_bytes(10_000) == 100 * 16

    def test_sgd_with_error_feedback_converges(self):
        """Quadratic toy problem: compressed SGD still reaches the optimum."""
        rng = np.random.default_rng(1)
        target = rng.normal(size=20)
        p = Parameter(np.zeros(20), name="w")
        opt = SGD([p], lr=0.2)
        c = TopKCompressor(ratio=0.2)
        for _ in range(300):
            grad = p.data - target
            idx, vals = c.compress(grad)
            p.grad = c.decompress(idx, vals, (20,))
            opt.step()
            p.zero_grad()
        np.testing.assert_allclose(p.data, target, atol=1e-2)

    @given(
        n=st.integers(2, 60),
        ratio=st.floats(0.05, 1.0),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_topk_properties(self, n, ratio, seed):
        rng = np.random.default_rng(seed)
        c = TopKCompressor(ratio=ratio)
        grad = rng.normal(size=n)
        idx, vals = c.compress(grad)
        k = max(1, int(round(ratio * n)))
        assert len(idx) == min(k, n)
        assert len(np.unique(idx)) == len(idx)
        # Sent values + residual reconstruct the gradient exactly.
        np.testing.assert_allclose(
            c.decompress(idx, vals, (n,)) + c._residual, grad, atol=1e-12
        )


class TestRealTrainerDGC:
    """DGC integrated into the real trainer: converges, saves bytes."""

    def test_training_converges_with_compression(self):
        from repro.engine.trainer_real import RealTrainer
        from repro.models import GNMT8

        cfg = GNMT8.tiny()
        r = RealTrainer(
            cfg, strategy="embrace", world_size=2, steps=12, lr=5e-3,
            seed=0, dgc_ratio=0.1,
        ).train()
        assert np.mean(r.losses[-3:]) < np.mean(r.losses[:3])

    def test_compression_reduces_dense_bytes(self):
        from repro.engine.trainer_real import RealTrainer
        from repro.models import GNMT8

        cfg = GNMT8.tiny()
        kw = dict(strategy="allgather", world_size=2, steps=3, seed=0)
        dense = RealTrainer(cfg, **kw).train()
        compressed = RealTrainer(cfg, dgc_ratio=0.05, **kw).train()
        assert compressed.comm_bytes < dense.comm_bytes

    def test_ratio_validation(self):
        from repro.engine.trainer_real import RealTrainer
        from repro.models import LM

        with pytest.raises(ValueError):
            RealTrainer(LM.tiny(), dgc_ratio=0.0)
        with pytest.raises(ValueError):
            RealTrainer(LM.tiny(), dgc_ratio=1.5)


class TestDGCAccumulation:
    """The trainer's one-pass decode-and-sum: bincount over the rank-
    order concatenated selections replaces a dense zeros scratch plus
    one np.add.at per rank.  np.bincount accumulates sequentially in
    array order, so the result is bit-identical to the old loop — and
    the final cast keeps float32 gradients float32 instead of silently
    promoting them through the float64 accumulator."""

    @staticmethod
    def _gathered(dtype):
        rng = np.random.default_rng(0)
        return [
            (
                rng.integers(0, 50, size=20).astype(np.int64),
                rng.normal(size=20).astype(dtype),
            )
            for _ in range(3)
        ]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_equal_to_per_rank_add_at_and_keeps_dtype(self, dtype):
        gathered = self._gathered(dtype)
        size, world = 50, 3
        all_idx = np.concatenate([g for g, _ in gathered])
        all_vals = np.concatenate([v for _, v in gathered])
        total = np.bincount(all_idx, weights=all_vals, minlength=size)
        new = (total / world).astype(dtype, copy=False)
        ref = np.zeros(size)  # the old float64 scratch
        for idx, vals in gathered:
            np.add.at(ref, idx, vals)
        assert new.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(new, (ref / world).astype(dtype))

    def test_trainer_dgc_overlap_matches_sync(self):
        """End-to-end: the DGC dense path through the scheduler facade
        is bit-identical between overlapped and inline execution."""
        from repro.engine.trainer_real import RealTrainer
        from repro.models import GNMT8

        kw = dict(strategy="allgather", world_size=2, steps=3, seed=1,
                  dgc_ratio=0.2)
        sync = RealTrainer(GNMT8.tiny(), overlap=False, **kw).train()
        over = RealTrainer(GNMT8.tiny(), overlap=True, **kw).train()
        assert sync.losses == over.losses
        for key in sync.state:
            np.testing.assert_array_equal(sync.state[key], over.state[key],
                                          err_msg=key)
