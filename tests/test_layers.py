import json

import numpy as np
import pytest

from framepath import autodiff as ad
from framepath.autodiff import backward, fresh_tape, grad_check, no_grad, tensor
from framepath.layers import (
    BiLstm,
    Embedding,
    LayerNorm,
    Linear,
    LstmDirection,
    ParamStore,
)


def store(seed=0):
    return ParamStore(np.random.default_rng(seed))


def params(s):
    return [e.tensor for _, e in s.entries()]


class TestParamStore:
    def test_paths_ordered_and_unique(self):
        s = store()
        s.zeros("a", (2,))
        s.zeros("b.w", (2, 2))
        assert [p for p, _ in s.entries()] == ["a", "b.w"]
        with pytest.raises(ValueError, match="duplicate"):
            s.zeros("a", (3,))

    def test_prefix_selection(self):
        s = store()
        ta = s.zeros("enc.a", (1,))
        tb = s.zeros("enc.b", (1,))
        tc = s.zeros("head.c", (1,))
        # entries keep registration order under any path-prefix filter
        assert [e.tensor for p, e in s.entries()
                if p.startswith("enc.")] == [ta, tb]
        assert params(s) == [ta, tb, tc]

    def test_groups(self):
        s = store()
        s.glorot("u0", 3, 3, group="bilinear")
        s.glorot("w", 3, 3)
        groups = {path: e.group for path, e in s.entries()}
        assert groups == {"u0": "bilinear", "w": None}

    def test_decay_flags(self):
        s = store()
        s.glorot("w", 3, 3)
        s.zeros("b", (3,))
        s.embedding("emb", 5, 4)
        flags = {path: e.decay for path, e in s.entries()}
        assert flags == {"w": True, "b": False, "emb": False}

    def test_state_roundtrip_through_json_is_exact(self):
        s = store(3)
        s.glorot("w", 7, 5)
        s.embedding("e", 11, 3)
        state = json.loads(json.dumps(s.state()))
        s2 = store(99)  # different init, then overwritten by load
        s2.glorot("w", 7, 5)
        s2.embedding("e", 11, 3)
        s2.load_state(state)
        assert np.array_equal(s2["w"].data, s["w"].data)
        assert np.array_equal(s2["e"].data, s["e"].data)

    def test_load_state_rejects_mismatch(self):
        s = store()
        s.zeros("a", (2,))
        with pytest.raises(ValueError, match="parameter mismatch"):
            s.load_state({})
        with pytest.raises(ValueError, match="shape"):
            s.load_state({"a": {"shape": [3], "values": [0, 0, 0]}})

    def test_glorot_limits(self):
        s = store(1)
        w = s.glorot("w", 100, 50)
        limit = np.sqrt(6.0 / 150)
        assert np.abs(w.data).max() <= limit
        assert np.abs(w.data).max() > 0.8 * limit  # actually fills the range


class TestSimpleLayers:
    def test_embedding_lookup(self):
        s = store()
        emb = Embedding(s, "emb", 6, 3)
        out = emb([4, 0, 4])
        assert out.shape == (3, 3)
        assert np.array_equal(out.data[0], out.data[2])

    def test_embedding_grad_accumulates_on_repeats(self):
        s = store()
        emb = Embedding(s, "emb", 6, 3)
        with fresh_tape():
            backward(ad.sum_all(emb([2, 2])))
        assert np.allclose(emb.table.grad[2], 2.0)
        assert np.allclose(emb.table.grad[0], 0.0)

    def test_linear_vector_and_matrix_agree(self):
        # a one-row matrix stands for a vector
        s = store(2)
        lin = Linear(s, "lin", 4, 3)
        x = np.random.default_rng(0).normal(size=(5, 4))
        with fresh_tape(), no_grad():
            batched = lin(tensor(x)).data
            rows = np.concatenate([lin(tensor(x[i:i + 1])).data
                                   for i in range(5)])
        assert np.allclose(batched, rows, atol=1e-12)

    def test_layer_norm_params_registered(self):
        s = store()
        ln = LayerNorm(s, "ln", 4)
        assert np.array_equal(ln.gain.data, np.ones(4))
        assert {"ln.gain", "ln.bias"} <= {p for p, _ in s.entries()}


class TestLstm:
    def test_single_step_matches_hand_computation(self):
        s = store(5)
        cell = LstmDirection(s, "dir", 2, 3)
        x = np.random.default_rng(1).normal(size=(1, 2))
        with fresh_tape(), no_grad():
            h = cell(tensor(x)).data[0]
        gates = x[0] @ cell.wx.data + cell.b.data

        def sig(v):
            return 1 / (1 + np.exp(-v))

        i, f, g, o = gates[0:3], gates[3:6], gates[6:9], gates[9:12]
        c = sig(i) * np.tanh(g)  # initial cell state is zero
        want = sig(o) * np.tanh(c)
        assert np.allclose(h, want, atol=1e-12)

    def test_forget_bias_initialized_to_one(self):
        s = store()
        cell = LstmDirection(s, "dir", 2, 4)
        assert np.array_equal(cell.b.data[4:8], np.ones(4))
        assert np.array_equal(cell.b.data[:4], np.zeros(4))
        assert np.array_equal(cell.b.data[8:], np.zeros(8))

    def test_direction_gradients(self):
        s = store(7)
        cell = LstmDirection(s, "dir", 2, 2)
        x = tensor(np.random.default_rng(2).normal(size=(3, 2)))
        max_rel, report = grad_check(
            lambda: ad.sum_all(ad.tanh(cell(x))), params(s))
        assert max_rel < 1e-5, report[0]

    def test_bilstm_shape_and_gradients(self):
        s = store(9)
        net = BiLstm(s, "lstm", 3, 2, layers=2)
        assert net.out_dim == 4
        x = tensor(np.random.default_rng(3).normal(size=(4, 3)))
        with fresh_tape(), no_grad():
            assert net(x).shape == (4, 4)
        max_rel, report = grad_check(lambda: ad.sum_all(net(x)), params(s))
        assert max_rel < 1e-5, report[0]

    def test_backward_half_sees_future(self):
        # Perturbing the last input must change the backward features of
        # the first position, and must not change its forward features.
        s = store(11)
        net = BiLstm(s, "lstm", 2, 3)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 2))
        x2 = x.copy()
        x2[-1] += 1.0
        with fresh_tape(), no_grad():
            a = net(tensor(x)).data
            b = net(tensor(x2)).data
        assert np.array_equal(a[0, :3], b[0, :3])      # forward half
        assert not np.allclose(a[0, 3:], b[0, 3:])     # backward half

    def test_packed_batch_matches_one_call_per_sequence(self):
        s = store(17)
        net = BiLstm(s, "lstm", 3, 2, layers=2)
        lengths = [4, 1, 3]
        x = np.random.default_rng(6).normal(size=(8, 3))
        with fresh_tape(), no_grad():
            packed = net(tensor(x), lengths).data
            ends = np.cumsum(lengths)
            single = [net(tensor(x[end - m:end])).data
                      for m, end in zip(lengths, ends)]
        np.testing.assert_allclose(packed, np.vstack(single), rtol=0,
                                   atol=1e-12)

    def test_deterministic_across_calls(self):
        s = store(13)
        net = BiLstm(s, "lstm", 2, 2)
        x = tensor(np.random.default_rng(5).normal(size=(4, 2)))
        with fresh_tape(), no_grad():
            a = net(x).data
            b = net(x).data
        assert np.array_equal(a, b)
