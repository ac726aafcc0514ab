"""Finite-difference gradient verification for every nn layer.

These are the ground-truth correctness tests for the framework that
replaces PyTorch autograd: analytic backward == numerical gradient.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F

RNG = np.random.default_rng(12345)
EPS = 1e-6


def numerical_grad(f, x, eps=EPS):
    """Central-difference gradient of scalar f at array x."""
    x = x.astype(np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        hi = f(x)
        x[idx] = orig - eps
        lo = f(x)
        x[idx] = orig
        grad[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return grad


def check_input_grad(module_fn, x, out_weight, atol=1e-6):
    """Analytic input grad vs numerical for loss = sum(out * out_weight)."""
    def loss_of(xv):
        return float((module_fn(xv) * out_weight).sum())

    out = module_fn(x)
    module, analytic = module_fn.__self__, None  # type: ignore[attr-defined]
    analytic = module.backward(out_weight)
    num = numerical_grad(loss_of, x.copy())
    np.testing.assert_allclose(analytic, num, atol=atol, rtol=1e-4)
    return out


def check_param_grads(module, forward, x, out_weight, atol=1e-6):
    """Analytic parameter grads vs numerical for each dense parameter."""
    module.zero_grad()
    forward(x)
    module.backward(out_weight)
    for name, p in module.named_parameters():
        if p.sparse_grad:
            continue
        analytic = p.grad
        assert analytic is not None, f"{name} got no gradient"

        def loss_of(pv, p=p):
            saved = p.data
            p.data = pv
            out = forward(x)
            p.data = saved
            return float((out * out_weight).sum())

        num = numerical_grad(loss_of, p.data.copy())
        np.testing.assert_allclose(analytic, num, atol=atol, rtol=1e-4, err_msg=name)


# --------------------------------------------------------------------- #
# Functional primitives
# --------------------------------------------------------------------- #
class TestFunctional:
    @pytest.mark.parametrize(
        "fwd,bwd,use_out",
        [
            (F.relu, F.relu_backward, False),
            (F.gelu, F.gelu_backward, False),
            (F.sigmoid, F.sigmoid_backward, True),
            (F.tanh, F.tanh_backward, True),
        ],
    )
    def test_activations(self, fwd, bwd, use_out):
        x = RNG.normal(size=(4, 5))
        w = RNG.normal(size=(4, 5))
        out = fwd(x)
        analytic = bwd(w, out if use_out else x)
        num = numerical_grad(lambda v: float((fwd(v) * w).sum()), x.copy())
        np.testing.assert_allclose(analytic, num, atol=1e-5, rtol=1e-4)

    def test_softmax_backward(self):
        x = RNG.normal(size=(3, 6))
        w = RNG.normal(size=(3, 6))
        out = F.softmax(x)
        analytic = F.softmax_backward(w, out)
        num = numerical_grad(lambda v: float((F.softmax(v) * w).sum()), x.copy())
        np.testing.assert_allclose(analytic, num, atol=1e-6, rtol=1e-4)

    def test_softmax_rows_sum_to_one(self):
        x = RNG.normal(size=(5, 7)) * 50
        assert np.allclose(F.softmax(x).sum(axis=-1), 1.0)

    def test_sigmoid_stable_at_extremes(self):
        out = F.sigmoid(np.array([-1e4, 1e4]))
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(1.0, abs=1e-12)

    def test_cross_entropy_grad(self):
        logits = RNG.normal(size=(6, 5))
        targets = RNG.integers(0, 5, size=6)
        _, grad, n = F.cross_entropy(logits, targets)
        assert n == 6
        num = numerical_grad(
            lambda v: F.cross_entropy(v, targets)[0], logits.copy()
        )
        np.testing.assert_allclose(grad, num, atol=1e-6, rtol=1e-4)

    def test_cross_entropy_ignore_index(self):
        logits = RNG.normal(size=(4, 3))
        targets = np.array([0, 2, 1, 2])
        loss_all, _, _ = F.cross_entropy(logits, targets)
        loss_ig, grad_ig, n = F.cross_entropy(logits, targets, ignore_index=2)
        assert n == 2
        assert loss_ig != pytest.approx(loss_all)
        # Ignored rows carry zero gradient.
        assert np.all(grad_ig[targets == 2] == 0.0)

    def test_cross_entropy_all_ignored(self):
        logits = RNG.normal(size=(2, 3))
        loss, grad, n = F.cross_entropy(logits, np.array([1, 1]), ignore_index=1)
        assert loss == 0.0 and n == 0 and np.all(grad == 0)

    def test_cross_entropy_shape_mismatch(self):
        with pytest.raises(ValueError):
            F.cross_entropy(RNG.normal(size=(3, 4)), np.zeros(2, dtype=int))


# --------------------------------------------------------------------- #
# Layers: input gradients
# --------------------------------------------------------------------- #
class TestLayerInputGrads:
    def test_linear(self):
        layer = nn.Linear(4, 3, rng=RNG)
        x = RNG.normal(size=(5, 4))
        w = RNG.normal(size=(5, 3))
        out = layer(x)
        analytic = layer.backward(w)
        num = numerical_grad(lambda v: float((layer(v) * w).sum()), x.copy())
        np.testing.assert_allclose(analytic, num, atol=1e-6, rtol=1e-4)

    def test_layernorm(self):
        layer = nn.LayerNorm(6)
        x = RNG.normal(size=(3, 6))
        w = RNG.normal(size=(3, 6))
        layer(x)
        analytic = layer.backward(w)
        num = numerical_grad(lambda v: float((layer(v) * w).sum()), x.copy())
        np.testing.assert_allclose(analytic, num, atol=1e-5, rtol=1e-3)

    def test_feedforward(self):
        layer = nn.FeedForward(4, 8, activation="gelu", rng=RNG)
        x = RNG.normal(size=(2, 4))
        w = RNG.normal(size=(2, 4))
        layer(x)
        analytic = layer.backward(w)
        num = numerical_grad(lambda v: float((layer(v) * w).sum()), x.copy())
        np.testing.assert_allclose(analytic, num, atol=1e-5, rtol=1e-3)

    def test_self_attention(self):
        layer = nn.MultiHeadAttention(8, 2, rng=RNG)
        x = RNG.normal(size=(2, 3, 8))
        w = RNG.normal(size=(2, 3, 8))
        layer(x)
        analytic = layer.backward(w)
        num = numerical_grad(lambda v: float((layer(v) * w).sum()), x.copy())
        np.testing.assert_allclose(analytic, num, atol=1e-5, rtol=1e-3)

    def test_causal_attention(self):
        layer = nn.MultiHeadAttention(8, 2, rng=RNG)
        x = RNG.normal(size=(1, 4, 8))
        w = RNG.normal(size=(1, 4, 8))
        layer(x, causal=True)
        analytic = layer.backward(w)
        num = numerical_grad(
            lambda v: float((layer(v, causal=True) * w).sum()), x.copy()
        )
        np.testing.assert_allclose(analytic, num, atol=1e-5, rtol=1e-3)

    def test_cross_attention_both_grads(self):
        layer = nn.MultiHeadAttention(8, 2, rng=RNG)
        q = RNG.normal(size=(1, 2, 8))
        kv = RNG.normal(size=(1, 3, 8))
        w = RNG.normal(size=(1, 2, 8))
        layer(q, kv_in=kv)
        gq, gkv = layer.backward(w)
        num_q = numerical_grad(
            lambda v: float((layer(v, kv_in=kv) * w).sum()), q.copy()
        )
        num_kv = numerical_grad(
            lambda v: float((layer(q, kv_in=v) * w).sum()), kv.copy()
        )
        np.testing.assert_allclose(gq, num_q, atol=1e-5, rtol=1e-3)
        np.testing.assert_allclose(gkv, num_kv, atol=1e-5, rtol=1e-3)

    def test_transformer_encoder_layer(self):
        layer = nn.TransformerLayer(8, 2, 16, rng=RNG)
        x = RNG.normal(size=(1, 3, 8))
        w = RNG.normal(size=(1, 3, 8))
        layer(x)
        analytic = layer.backward(w)
        num = numerical_grad(lambda v: float((layer(v) * w).sum()), x.copy())
        np.testing.assert_allclose(analytic, num, atol=1e-5, rtol=1e-3)

    def test_transformer_decoder_layer(self):
        layer = nn.TransformerLayer(8, 2, 16, cross_attention=True, rng=RNG)
        x = RNG.normal(size=(1, 2, 8))
        mem = RNG.normal(size=(1, 3, 8))
        w = RNG.normal(size=(1, 2, 8))
        layer(x, memory=mem, causal=True)
        gx, gmem = layer.backward(w)
        num_x = numerical_grad(
            lambda v: float((layer(v, memory=mem, causal=True) * w).sum()), x.copy()
        )
        num_mem = numerical_grad(
            lambda v: float((layer(x, memory=v, causal=True) * w).sum()), mem.copy()
        )
        np.testing.assert_allclose(gx, num_x, atol=1e-5, rtol=1e-3)
        np.testing.assert_allclose(gmem, num_mem, atol=1e-5, rtol=1e-3)

    def test_lstm_input_grad(self):
        layer = nn.LSTM(3, 4, num_layers=2, rng=RNG)
        x = RNG.normal(size=(2, 3, 3))
        w = RNG.normal(size=(2, 3, 4))
        layer(x)
        analytic = layer.backward(w)
        num = numerical_grad(lambda v: float((layer(v) * w).sum()), x.copy())
        np.testing.assert_allclose(analytic, num, atol=1e-5, rtol=1e-3)


# --------------------------------------------------------------------- #
# Layers: parameter gradients
# --------------------------------------------------------------------- #
class TestLayerParamGrads:
    @pytest.mark.parametrize(
        "make,shape",
        [
            (lambda: nn.Linear(3, 4, rng=RNG), (2, 3)),
            (lambda: nn.LayerNorm(5), (3, 5)),
            (lambda: nn.FeedForward(3, 6, rng=RNG), (2, 3)),
        ],
    )
    def test_simple_layers(self, make, shape):
        layer = make()
        x = RNG.normal(size=shape)
        out = layer(x)
        w = RNG.normal(size=out.shape)
        check_param_grads(layer, lambda v: layer(v), x, w)

    def test_attention_params(self):
        layer = nn.MultiHeadAttention(4, 2, rng=RNG)
        x = RNG.normal(size=(1, 3, 4))
        w = RNG.normal(size=(1, 3, 4))
        check_param_grads(layer, lambda v: layer(v), x, w, atol=1e-5)

    def test_lstm_params(self):
        layer = nn.LSTM(2, 3, rng=RNG)
        x = RNG.normal(size=(2, 3, 2))
        w = RNG.normal(size=(2, 3, 3))
        check_param_grads(layer, lambda v: layer(v), x, w, atol=1e-5)


# --------------------------------------------------------------------- #
# Embedding sparse gradient
# --------------------------------------------------------------------- #
class TestEmbeddingGrads:
    def test_sparse_grad_matches_dense_scatter(self):
        emb = nn.Embedding(10, 4, rng=RNG)
        ids = np.array([[1, 3, 1], [0, 3, 9]])
        out = emb(ids)
        assert out.shape == (2, 3, 4)
        grad_out = RNG.normal(size=out.shape)
        emb.backward(grad_out)
        g = emb.weight.grad
        assert g is not None and not g.coalesced
        # Uncoalesced: one row per looked-up token.
        assert g.nnz_rows == 6
        dense = np.zeros((10, 4))
        for b in range(2):
            for t in range(3):
                dense[ids[b, t]] += grad_out[b, t]
        np.testing.assert_allclose(g.to_dense(), dense)

    def test_padding_idx_excluded(self):
        emb = nn.Embedding(10, 4, padding_idx=0, rng=RNG)
        assert np.all(emb.weight.data[0] == 0.0)
        ids = np.array([0, 1, 0, 2])
        out = emb(ids)
        emb.backward(np.ones_like(out))
        g = emb.weight.grad
        assert 0 not in g.indices

    def test_out_of_range_ids(self):
        emb = nn.Embedding(5, 2, rng=RNG)
        with pytest.raises(ValueError):
            emb(np.array([5]))

    def test_grad_accumulates_across_calls(self):
        emb = nn.Embedding(5, 2, rng=RNG)
        for _ in range(2):
            out = emb(np.array([1]))
            emb.backward(np.ones_like(out))
        assert emb.weight.grad.nnz_rows == 2
        assert emb.weight.grad.coalesce().values[0].tolist() == [2.0, 2.0]


# --------------------------------------------------------------------- #
# Module plumbing
# --------------------------------------------------------------------- #
class TestModulePlumbing:
    def _model(self):
        class Toy(nn.Module):
            def __init__(self):
                super().__init__()
                self.emb = nn.Embedding(10, 4, rng=RNG)
                self.fc = nn.Linear(4, 2, rng=RNG)

            def forward(self, ids):
                h = self.emb(ids)
                out = self.fc(h)

                def back(grad):
                    self.emb.backward(self.fc.backward(grad))
                    return None

                self._back = back
                return out

        return Toy()

    def test_named_parameters(self):
        m = self._model()
        names = dict(m.named_parameters())
        assert "emb.weight" in names and "fc.weight" in names and "fc.bias" in names

    def test_dense_sparse_partition(self):
        m = self._model()
        assert len(m.sparse_parameters()) == 1
        assert len(m.dense_parameters()) == 2
        assert m.num_parameters() == 10 * 4 + 4 * 2 + 2

    def test_zero_grad(self):
        m = self._model()
        out = m(np.array([1, 2]))
        m.backward(np.ones_like(out))
        assert m.emb.weight.grad is not None
        m.zero_grad()
        assert all(p.grad is None for p in m.parameters())

    def test_state_dict_roundtrip(self):
        m1, m2 = self._model(), self._model()
        m2.fc.weight.data += 1.0
        m2.load_state_dict(m1.state_dict())
        np.testing.assert_array_equal(m1.fc.weight.data, m2.fc.weight.data)

    def test_state_dict_mismatch(self):
        m = self._model()
        state = m.state_dict()
        state["extra"] = np.zeros(1)
        with pytest.raises(KeyError):
            m.load_state_dict(state)

    def test_backward_without_forward(self):
        m = self._model()
        with pytest.raises(RuntimeError):
            m.backward(np.zeros((1, 2)))

    def test_train_eval_propagates(self):
        seq = nn.Sequential(nn.Linear(3, 3, rng=RNG), nn.Linear(3, 3, rng=RNG))
        seq.eval()
        assert not seq.layers[0].training

    def test_sequential_chains_backward(self):
        seq = nn.Sequential(nn.Linear(3, 4, rng=RNG), nn.Linear(4, 2, rng=RNG))
        x = RNG.normal(size=(2, 3))
        w = RNG.normal(size=(2, 2))
        seq(x)
        analytic = seq.backward(w)
        num = numerical_grad(lambda v: float((seq(v) * w).sum()), x.copy())
        np.testing.assert_allclose(analytic, num, atol=1e-6, rtol=1e-4)


class TestCrossEntropyLossModule:
    def test_token_count_and_backward(self):
        loss_fn = nn.CrossEntropyLoss(ignore_index=0)
        logits = RNG.normal(size=(2, 3, 5))
        targets = np.array([[1, 0, 2], [3, 4, 0]])
        loss = loss_fn(logits, targets)
        assert loss_fn.last_token_count == 4
        grad = loss_fn.backward()
        assert grad.shape == logits.shape
        with pytest.raises(RuntimeError):
            loss_fn.backward()


class TestBahdanauAttention:
    def test_shapes(self):
        attn = nn.BahdanauAttention(dec_dim=5, enc_dim=4, attn_dim=6, rng=RNG)
        q = RNG.normal(size=(2, 3, 5))
        mem = RNG.normal(size=(2, 7, 4))
        ctx = attn(q, mem)
        assert ctx.shape == (2, 3, 4)

    def test_attention_weights_convex(self):
        """Contexts are convex combinations of memory rows."""
        attn = nn.BahdanauAttention(3, 3, 4, rng=RNG)
        mem = np.ones((1, 5, 3)) * 2.0
        ctx = attn(RNG.normal(size=(1, 2, 3)), mem)
        np.testing.assert_allclose(ctx, 2.0)

    def test_input_grads_match_numerical(self):
        attn = nn.BahdanauAttention(3, 4, 5, rng=RNG)
        q = RNG.normal(size=(1, 2, 3))
        mem = RNG.normal(size=(1, 3, 4))
        w = RNG.normal(size=(1, 2, 4))
        attn(q, mem)
        gq, gmem = attn.backward(w)
        num_q = numerical_grad(lambda v: float((attn(v, mem) * w).sum()), q.copy())
        num_mem = numerical_grad(lambda v: float((attn(q, v) * w).sum()), mem.copy())
        np.testing.assert_allclose(gq, num_q, atol=1e-6, rtol=1e-4)
        np.testing.assert_allclose(gmem, num_mem, atol=1e-6, rtol=1e-4)

    def test_param_grads_match_numerical(self):
        attn = nn.BahdanauAttention(3, 3, 4, rng=RNG)
        q = RNG.normal(size=(1, 2, 3))
        mem = RNG.normal(size=(1, 3, 3))
        w = RNG.normal(size=(1, 2, 3))
        attn.zero_grad()
        attn(q, mem)
        attn.backward(w)
        for name, p in attn.named_parameters():
            analytic = p.grad

            def loss_of(pv, p=p):
                saved = p.data
                p.data = pv
                out = attn(q, mem)
                p.data = saved
                return float((out * w).sum())

            num = numerical_grad(loss_of, p.data.copy())
            np.testing.assert_allclose(analytic, num, atol=1e-6, rtol=1e-4,
                                       err_msg=name)

    def test_validation(self):
        with pytest.raises(ValueError):
            nn.BahdanauAttention(0, 3, 4)
        attn = nn.BahdanauAttention(3, 3, 4)
        with pytest.raises(ValueError):
            attn(np.ones((2, 3)), np.ones((1, 2, 3)))
