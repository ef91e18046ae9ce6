import base64
import json
import weakref
from collections import Counter

import numpy as np
import pytest

from framepath import autodiff as ad
from framepath import training
from framepath.autodiff import backward, fresh_tape, grad_check, no_grad, tensor
from framepath.layers import (
    BiLstm,
    Embedding,
    LayerNorm,
    Linear,
    LstmDirection,
    ParamStore,
    decode_state,
)
from framepath.model import FrameParser
from framepath.training import AdamState, adam_step, train

from test_model import make_model, make_sentence


def store(seed=0):
    return ParamStore(np.random.default_rng(seed))


def params(s):
    return [e.tensor for _, e in s.entries()]


class TestParamStore:
    def test_paths_ordered_and_unique(self):
        s = store()
        s.add("a", (2,), decay=False)
        s.add("b.w", (2, 2), decay=False)
        assert [p for p, _ in s.entries()] == ["a", "b.w"]
        with pytest.raises(ValueError, match="duplicate"):
            s.add("a", (3,), decay=False)

    def test_prefix_selection(self):
        s = store()
        ta = s.add("enc.a", (1,), decay=False)
        tb = s.add("enc.b", (1,), decay=False)
        tc = s.add("head.c", (1,), decay=False)
        # entries keep registration order under any path-prefix filter
        assert [e.tensor for p, e in s.entries()
                if p.startswith("enc.")] == [ta, tb]
        assert params(s) == [ta, tb, tc]

    def test_l2_coefficients(self):
        s = store()
        s.glorot("u0", 3, 3, l2=0.5)
        s.add("t", (2, 2), l2=1e-4)
        s.glorot("w", 3, 3)
        s.add("b", (3,), decay=False)
        coeffs = {path: e.l2 for path, e in s.entries()}
        assert coeffs == {"u0": 0.5, "t": 1e-4, "w": 0.0, "b": 0.0}

    def test_decay_flags(self):
        s = store()
        s.glorot("w", 3, 3)
        s.add("b", (3,), decay=False)
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
        s.add("a", (2, 2), lambda rng, shape: extremes.reshape(shape))
        state = json.loads(json.dumps(s.state()))
        assert isinstance(state["a"]["values"], str)
        s2 = ParamStore(np.random.default_rng(0), decode_state(state))
        s2.add("a", (2, 2), decay=False)
        assert s2["a"].data.tobytes() == extremes.tobytes()  # keeps -0.0
        assert s2["a"].data.flags.writeable

    def test_state_values_are_little_endian_float64_bytes(self):
        s = store()
        s.add("w", (2, 3), lambda rng, shape: np.arange(6.0).reshape(shape))
        raw = base64.b64decode(s.state()["w"]["values"])
        assert raw == np.arange(6.0).astype("<f8").tobytes()

    def test_build_rejects_a_missing_or_reshaped_parameter(self):
        saved = {"a": np.zeros(3)}
        builds = {
            "add": lambda s, path: s.add(path, (2,), decay=False),
            "add drawn": lambda s, path: s.add(
                path, (2,), lambda rng, shape: rng.normal(size=shape)),
            "glorot": lambda s, path: s.glorot(path, 1, 2),
            "embedding": lambda s, path: s.embedding(path, 1, 2),
        }
        for name, build in builds.items():
            s = ParamStore(np.random.default_rng(0), saved)
            with pytest.raises(ValueError, match="^b: shape missing"):
                build(s, "b")
            with pytest.raises(ValueError,
                               match=r"^a: shape \(3,\) does not match"):
                build(s, "a")
            assert not list(s.entries()), name

    def test_decode_state_rejects_malformed_entries(self):
        def decode(rec):
            return decode_state({"a": rec})

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

    def test_linear_records_one_affine_op(self):
        s = store(2)
        lin = Linear(s, "lin", 4, 3)
        x = tensor(np.random.default_rng(0).normal(size=(5, 4)))
        with fresh_tape():
            y = lin(x)
            [(out, vjp)] = ad._tape().records
        assert out is y and vjp.__qualname__.startswith("affine.")
        assert np.array_equal(y.data, x.data @ lin.w.data + lin.b.data)

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
        # Each layer records one op that projects its input rows and
        # steps both directions together.
        s = store(3)
        net = BiLstm(s, "lstm", 3, 2, layers=3)
        x = tensor(np.random.default_rng(8).normal(size=(5, 3)))
        with fresh_tape():
            net(x, [2, 3])
            ops = Counter(vjp.__qualname__.split(".")[0]
                          for _, vjp in ad._tape().records)
        assert ops == {"bilstm_layer": 3}

    def test_layers_share_one_packed_layout(self, monkeypatch):
        built = []
        init = ad.Packed.__init__

        def counting(packed, *args):
            built.append(args)
            init(packed, *args)

        monkeypatch.setattr(ad.Packed, "__init__", counting)
        ad._layouts.cache_clear()  # one build per distinct lengths
        net = BiLstm(store(3), "lstm", 3, 2, layers=3)
        x = tensor(np.random.default_rng(8).normal(size=(5, 3)))
        with fresh_tape():
            net(x, [2, 3])
            net(x, (2, 3))
        assert built == [(5, (2, 3))]

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


PARTS = ("wx", "wh", "b")
RNG = np.random.default_rng(2024)


def address(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


def shared_arrays(net: BiLstm) -> list[np.ndarray]:
    """Each layer's wx, wh and b arrays of both directions, in order,
    checked to be the (2, ...) array its fwd tensor views at [0] and its
    bwd tensor at [1]."""
    out = []
    for fwd, bwd in net.layers:
        for part in PARTS:
            one, other = getattr(fwd, part).data, getattr(bwd, part).data
            both = one.base
            assert both is not None and other.base is both, part
            assert both.shape == (2,) + one.shape, part
            assert address(one) == address(both), part
            assert address(other) == address(both) + one.nbytes, part
            out.append(both)
    return out


def by_copies(net: BiLstm, x, lengths=None) -> np.ndarray:
    """net's output from free-standing copies of its tensors' values."""
    out = x
    packed = ad.packed(len(x.data), lengths)
    for fwd, bwd in net.layers:
        out = ad.bilstm_layer(out, *(
            tuple(tensor(getattr(d, part).data.copy()) for part in PARTS)
            for d in (fwd, bwd)), packed)
    return out.data


def stacked_args(monkeypatch) -> list:
    """The stacked argument of every ad.bilstm_layer call from here on."""
    seen = []
    op = ad.bilstm_layer

    def recording(x, fwd, bwd, packed, stacked=None):
        seen.append(stacked)
        return op(x, fwd, bwd, packed, stacked)

    monkeypatch.setattr(ad, "bilstm_layer", recording)
    return seen


class TestStackedDirections:
    """A BiLstm layer keeps its two directions' wx, wh and b as one
    (2, ...) array each, and its six store tensors view them."""

    def test_six_tensors_view_three_arrays_per_layer(self, monkeypatch):
        s = store(21)
        net = BiLstm(s, "lstm", 3, 2, layers=2)
        arrays = shared_arrays(net)
        assert len({id(a) for a in arrays}) == 6
        for k, (fwd, bwd) in enumerate(net.layers):
            for name, direction in (("fwd", fwd), ("bwd", bwd)):
                for part in PARTS:
                    assert (s[f"lstm.l{k}.{name}.{part}"]
                            is getattr(direction, part))
        # paths, shapes, draws and checkpoint bytes: the per-direction ones
        plain = store(21)
        for k, width in enumerate((3, 4)):
            for name in ("fwd", "bwd"):
                LstmDirection(plain, f"lstm.l{k}.{name}", width, 2)
        assert s.state() == plain.state()
        # the op is handed the arrays themselves
        seen = stacked_args(monkeypatch)
        with fresh_tape(), no_grad():
            net(tensor(RNG.normal(size=(5, 3))), [2, 3])
        assert all(a is b for a, b in zip(
            [a for layer in seen for a in layer], arrays, strict=True))

    def test_adam_and_grad_check_reach_the_shared_arrays(self):
        s = store(22)
        net = BiLstm(s, "lstm", 3, 2, layers=2)
        x = tensor(RNG.normal(size=(5, 3)))
        arrays = shared_arrays(net)
        before = [a.copy() for a in arrays]
        with fresh_tape():
            backward(ad.sum_all(net(x, [2, 3])))
        adam_step(AdamState(lr=0.1), list(s.entries()))
        assert all(a is b for a, b in zip(shared_arrays(net), arrays))
        assert not any(np.array_equal(a, b) for a, b in zip(arrays, before))
        matches = []

        def f():
            out = net(x, [2, 3])
            matches.append(np.array_equal(out.data, by_copies(net, x,
                                                              [2, 3])))
            return ad.sum_all(out)

        max_rel, report = grad_check(f, params(s), max_checks=30)
        assert max_rel < 1e-5, report[0]
        assert len(matches) > 30 and all(matches)

    def test_best_epoch_restore_and_checkpoint_reach_them(self, monkeypatch,
                                                          tmp_path):
        # A scripted dev metric peaks at epoch 2 of 4, so train() ends by
        # copying epoch 2's values back into every parameter.
        seen = []

        def scripted(model, dev, task):
            seen.append({p: e.tensor.data.copy()
                         for p, e in model.store.entries()})
            return [0.1, 0.5, 0.3, 0.2][len(seen) - 1]

        monkeypatch.setattr(training, "dev_metric", scripted)
        model, sent = make_model(max_epochs=4, task="joint")
        lstms = (model.lstm_a, model.lstm_b)
        arrays = [shared_arrays(lstm) for lstm in lstms]
        train(model, [sent, make_sentence()], [sent])
        for lstm, held in zip(lstms, arrays):
            assert all(a is b for a, b in zip(shared_arrays(lstm), held))
            for k, (fwd, bwd) in enumerate(lstm.layers):
                for j, part in enumerate(PARTS):
                    want = [seen[1][getattr(d, part).name] for d in (fwd, bwd)]
                    assert np.array_equal(held[3 * k + j], want)
        path = str(tmp_path / "model.json")
        model.save(path)
        loaded = FrameParser.load(path)
        assert loaded.store.state() == model.store.state()
        for lstm, again in zip(lstms, (loaded.lstm_a, loaded.lstm_b)):
            shared_arrays(again)
            x = tensor(RNG.normal(size=(4, lstm.layers[0][0].wx.shape[0])))
            with fresh_tape(), no_grad():
                assert np.array_equal(again(x).data, lstm(x).data)

    def test_a_layer_built_over_saved_arrays_frees_them(self):
        # Over a checkpoint's decoded arrays, each layer keeps only its
        # stacked copies: the store lets go of the per-direction arrays.
        first = store(26)
        BiLstm(first, "lstm", 3, 2, layers=2)
        saved = decode_state(first.state())
        freed = [weakref.ref(a) for a in saved.values()]
        s = ParamStore(np.random.default_rng(0), saved)
        net = BiLstm(s, "lstm", 3, 2, layers=2)
        del saved
        assert [r() for r in freed] == [None] * 12
        shared_arrays(net)
        assert s.state() == first.state()

    def test_rebound_tensors_get_copies_with_the_same_bits(self, monkeypatch):
        s = store(24)
        net = BiLstm(s, "lstm", 3, 2, layers=2)
        x = ad.param(RNG.normal(size=(5, 3)), name="x")
        w = tensor(RNG.normal(size=(5, 4)))
        seen = stacked_args(monkeypatch)

        def run():
            ad.zero_grads([x, *params(s)])
            with fresh_tape():
                out = net(x, [2, 3])
                backward(ad.sum_all(ad.mul(out, w)))
            return [out.data, x.grad] + [t.grad for t in params(s)]

        shared = run()
        for t in params(s):
            t.data = t.data.copy()
        copied = run()
        assert [a is None for a in seen] == [False] * 2 + [True] * 2
        for a, b in zip(shared, copied, strict=True):
            assert np.array_equal(a, b)

    def test_rebound_values_are_read(self):
        # One layer's fwd wx rebound to new values, and its bwd wh to
        # fwd's (the two directions tied): the op reads both.
        net = BiLstm(store(25), "lstm", 3, 2, layers=2)
        x = tensor(RNG.normal(size=(5, 3)))
        with fresh_tape(), no_grad():
            before = net(x, [2, 3]).data
        fwd, bwd = net.layers[1]
        fwd.wx.data = 0.5 * fwd.wx.data
        bwd.wh.data = fwd.wh.data
        with fresh_tape(), no_grad():
            got = net(x, [2, 3]).data
            assert np.array_equal(got, by_copies(net, x, [2, 3]))
        assert not np.array_equal(got[:, :2], before[:, :2])
        assert not np.array_equal(got[:, 2:], before[:, 2:])
