import base64
import json
from collections import Counter

import numpy as np
import pytest

from framepath import autodiff as ad
from framepath.autodiff import backward, fresh_tape, grad_check, no_grad, tensor
from framepath.layers import (
    BiLstm,
    CheckpointMismatch,
    Embedding,
    LayerNorm,
    Linear,
    LstmDirection,
    ParamStore,
    decode_state,
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
        s2 = ParamStore(np.random.default_rng(99), decode_state(state))
        s2.glorot("w", 7, 5)  # takes the saved values, draws nothing
        s2.embedding("e", 11, 3)
        assert np.array_equal(s2["w"].data, s["w"].data)
        assert np.array_equal(s2["e"].data, s["e"].data)

    def test_state_roundtrip_is_bit_exact_at_the_float64_extremes(self):
        s = store()
        extremes = np.array([-0.0, 5e-324, 1.7976931348623157e308,
                             -1.7976931348623157e308])
        s.add("a", extremes.reshape(2, 2))
        state = json.loads(json.dumps(s.state()))
        assert isinstance(state["a"]["values"], str)
        s2 = ParamStore(np.random.default_rng(0), decode_state(state))
        s2.zeros("a", (2, 2))
        assert s2["a"].data.tobytes() == extremes.tobytes()  # keeps -0.0
        assert s2["a"].data.flags.writeable

    def test_state_values_are_little_endian_float64_bytes(self):
        s = store()
        s.add("w", np.arange(6.0).reshape(2, 3))
        raw = base64.b64decode(s.state()["w"]["values"])
        assert raw == np.arange(6.0).astype("<f8").tobytes()

    def test_build_rejects_a_missing_or_reshaped_parameter(self):
        saved = {"a": np.zeros(3)}
        builds = {
            "zeros": lambda s, path: s.zeros(path, (2,)),
            "add": lambda s, path: s.add(path, np.ones(2)),
            "glorot": lambda s, path: s.glorot(path, 1, 2),
            "embedding": lambda s, path: s.embedding(path, 1, 2),
        }
        for name, build in builds.items():
            s = ParamStore(np.random.default_rng(0), saved)
            with pytest.raises(CheckpointMismatch, match="^b: shape missing"):
                build(s, "b")
            with pytest.raises(CheckpointMismatch,
                               match=r"^a: shape \(3,\) does not match"):
                build(s, "a")
            assert not list(s.entries()), name

    def test_decode_state_rejects_malformed_entries(self):
        def decode(rec):
            return decode_state({"a": rec})

        with pytest.raises(ValueError, match="not an object of parameters"):
            decode_state([{"shape": [2], "values": [0, 0]}])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="^a: non-finite"):
                decode({"shape": [2], "values": [0, bad]})
            packed = base64.b64encode(np.array([0.0, bad]).tobytes())
            with pytest.raises(ValueError, match="^a: non-finite"):
                decode({"shape": [2], "values": packed.decode("ascii")})
        two = base64.b64encode(np.zeros(2).tobytes()).decode("ascii")
        malformed = [
            [[0], [0]],             # nested
            [0],                    # one value short
            [0, 0, 0],              # one value long
            ["a", 0],               # not numbers
            [True, 0],
            [None, 0],
            [10**400, 0],           # beyond float64
            5,                      # neither a list nor a string
            {"0": 0},
            two[:-4],               # one value short
            two + base64.b64encode(bytes(8)).decode("ascii"),
            two[:-1],               # padding dropped
            two[:3] + "!" + two[3:],  # not in the alphabet
            two[:3] + "\n" + two[3:],
            "é" + two,              # not ASCII
        ]
        for values in malformed:
            with pytest.raises(ValueError, match="^a: "):
                decode({"shape": [2], "values": values})
        for rec in ({"shape": [2]}, {"values": two}, [2], None):
            with pytest.raises(ValueError, match="^a: "):
                decode(rec)
        for shape in ([2.0], [True, 2], [-2], ["2"], [[2]], 2, "2", None,
                      [2**40, 2**40]):
            with pytest.raises(ValueError, match="^a: "):
                decode({"shape": shape, "values": two})
        assert np.array_equal(decode({"shape": [2], "values": two})["a"],
                              np.zeros(2))

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
        net = BiLstm(s, "lstm", 2, 3)
        fwd = net.layers[0][0]
        x = np.random.default_rng(1).normal(size=(1, 2))
        with fresh_tape(), no_grad():
            h = net(tensor(x)).data[0, :3]  # forward half
        gates = x[0] @ fwd.wx.data + fwd.b.data

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
        # Through the forward half of a one-layer BiLstm, only the
        # forward direction's parameters get a gradient.
        s = store(7)
        net = BiLstm(s, "lstm", 2, 2)
        x = tensor(np.random.default_rng(2).normal(size=(3, 2)))
        forward_half = tensor(np.repeat([[1.0, 1.0, 0.0, 0.0]], 3, axis=0))
        max_rel, report = grad_check(
            lambda: ad.sum_all(ad.mul(ad.tanh(net(x)), forward_half)),
            params(s))
        assert max_rel < 1e-5, report[0]
        assert all(p.startswith("lstm.l0.fwd.")
                   for p, _, analytic, _, _ in report if analytic != 0.0)

    def test_one_recurrence_op_per_layer(self):
        # Each layer records its two input projections and one op that
        # steps both directions together.
        s = store(3)
        net = BiLstm(s, "lstm", 3, 2, layers=3)
        x = tensor(np.random.default_rng(8).normal(size=(5, 3)))
        with fresh_tape():
            net(x, [2, 3])
            ops = Counter(vjp.__qualname__.split(".")[0]
                          for _, vjp in ad._tape().records)
        assert ops == {"matmul": 6, "bilstm_layer": 3}

    def test_layers_share_one_packed_layout(self, monkeypatch):
        built = []
        init = ad.Packed.__init__

        def counting(packed, *args):
            built.append(args)
            init(packed, *args)

        monkeypatch.setattr(ad.Packed, "__init__", counting)
        net = BiLstm(store(3), "lstm", 3, 2, layers=3)
        with fresh_tape():
            net(tensor(np.random.default_rng(8).normal(size=(5, 3))), [2, 3])
        assert built == [(5, [2, 3])]

    def test_bilstm_shape_and_gradients(self):
        s = store(9)
        net = BiLstm(s, "lstm", 3, 2, layers=2)
        x = tensor(np.random.default_rng(3).normal(size=(4, 3)))
        with fresh_tape(), no_grad():
            assert net(x).shape == (4, 2 * 2)  # width 2 * hidden
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
