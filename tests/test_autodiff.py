import threading

import numpy as np
import pytest

from framepath import autodiff as ad
from framepath.autodiff import (
    GradCheckFailure,
    Tensor,
    backward,
    fresh_tape,
    grad_check,
    no_grad,
    param,
    tape_length,
    tensor,
)

RNG = np.random.default_rng(1234)


def randp(*shape, name=""):
    return param(RNG.normal(size=shape), name=name)


def check(f, params, tol=1e-6):
    max_rel, report = grad_check(f, params)
    assert max_rel < tol, f"worst entry: {report[0]}"


class TestLinearAlgebraGrads:
    def test_matmul(self):
        a, b = randp(3, 4, name="a"), randp(4, 2, name="b")
        check(lambda: ad.sum_all(ad.matmul(a, b)), [a, b])

    def test_dot(self):
        x, y = randp(6), randp(6)
        check(lambda: ad.dot(x, y), [x, y])

    def test_bilinear_rows(self):
        # rows pair x's rows with y's, repeats included, so both sides
        # accumulate gradients from several output rows
        x, y = randp(3, 4, name="x"), randp(5, 2, name="y")
        us = [randp(4, 2, name=f"u{k}") for k in range(3)]
        x_rows, y_rows = [0, 0, 2, 1, 2], [4, 1, 1, 0, 3]
        with fresh_tape(), no_grad():
            out = ad.bilinear_rows(x, us, y, x_rows, y_rows).data
        for r, (i, j) in enumerate(zip(x_rows, y_rows)):
            for k, u in enumerate(us):
                assert abs(out[r, k] - x.data[i] @ u.data @ y.data[j]) < 1e-12
        w = tensor(RNG.normal(size=(5, 3)))
        check(lambda: ad.sum_all(ad.mul(
            ad.bilinear_rows(x, us, y, x_rows, y_rows), w)), [x, y, *us])

    def test_dot_grad_is_other_vector(self):
        x, y = randp(4), randp(4)
        with fresh_tape():
            backward(ad.dot(x, y))
            assert np.array_equal(x.grad, y.data)
            assert np.array_equal(y.grad, x.data)


class TestPointwiseGrads:
    def test_add_sub_mul(self):
        a, b = randp(3, 3), randp(3, 3)
        check(lambda: ad.sum_all(ad.add(a, b)), [a, b])
        check(lambda: ad.sum_all(ad.sub(a, b)), [a, b])
        check(lambda: ad.sum_all(ad.mul(a, b)), [a, b])

    def test_mul_scalar(self):
        a = randp(5)
        check(lambda: ad.sum_all(ad.mul_scalar(a, -2.5)), [a])

    def test_add_rowvec(self):
        m, v = randp(4, 3), randp(3)
        check(lambda: ad.sum_all(ad.tanh(ad.add_rowvec(m, v))), [m, v])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            ad.add(randp(3), randp(4))


class TestShapeGrads:
    def test_concat(self):
        xs = [randp(2), randp(3), randp(1)]
        check(lambda: ad.dot(ad.concat(xs), ad.concat(xs)), xs)

    def test_concat_cols(self):
        ms = [randp(3, 2), randp(3, 4)]
        check(lambda: ad.sum_all(ad.tanh(ad.concat_cols(ms))), ms)

    def test_row_and_row_select(self):
        m = randp(5, 3)
        check(lambda: ad.sum_all(ad.mul(ad.row_select(m, [2]),
                                        ad.row_select(m, [2]))), [m])
        # Repeated indices must accumulate, not overwrite.
        check(lambda: ad.sum_all(ad.tanh(ad.row_select(m, [1, 1, 4]))), [m])


class TestScatterRows:
    """The backward scatters are one np.bincount that must add exactly
    what np.add.at adds, in the same order."""

    @staticmethod
    def add_at(rows, values, n):
        out = np.zeros((n, values.shape[1]))
        np.add.at(out, rows, values)
        return out

    @staticmethod
    def assert_bitwise(got, want):
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_matches_add_at_bit_for_bit(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n, dim = int(rng.integers(1, 9)), int(rng.integers(1, 5))
            rows = rng.integers(0, n, size=int(rng.integers(1, 40)))
            values = rng.normal(size=(len(rows), dim)) * 10.0 ** rng.integers(
                -5, 6, size=(len(rows), dim))
            self.assert_bitwise(ad.scatter_rows(rows, values, n),
                                self.add_at(rows, values, n))

    def test_repeats_signed_zeros_and_huge_values(self):
        # Order matters here: 1e300 - 1e300 + 1.0 is 1.0, while adding the
        # 1.0 first loses it; -0.0 onto an untouched cell stays +0.0.
        rows = np.array([2, 0, 2, 0, 2, 1, 1, 3], dtype=np.intp)
        values = np.array([[1e300, -0.0], [-0.0, 1.0], [-1e300, 1e300],
                           [-0.0, -1e300], [1.0, -1e300], [1e300, 1e300],
                           [1e300, -0.0], [-0.0, -0.0]])
        got = ad.scatter_rows(rows, values, 5)
        self.assert_bitwise(got, self.add_at(rows, values, 5))
        assert got[2, 0] == 1.0 and got[1, 0] == 2e300
        assert not np.signbit(got[3]).any() and not got[4].any()

    def test_empty_index(self):
        rows = np.zeros(0, dtype=np.intp)
        self.assert_bitwise(ad.scatter_rows(rows, np.zeros((0, 3)), 4),
                            np.zeros((4, 3)))

    def test_sum_row_groups_backward_skips_pad_cells(self):
        rng = np.random.default_rng(22)
        m = param(rng.normal(size=(6, 3)), name="m")
        groups = [[5, 0, 5], [], [2], [0, 1, 2, 3, 4], [4, 4]]
        idx = ad.pad_groups(groups)
        assert (idx == -1).sum() == 25 - sum(map(len, groups))
        g = rng.normal(size=(len(groups), 3)) * 1e300
        g[1] = -0.0
        with fresh_tape():
            out = ad.sum_row_groups(m, idx)
            backward(ad.sum_all(ad.mul(out, tensor(g))))
        want = np.zeros((7, 3))
        np.add.at(want, idx, g[:, None, :])  # pads land on row -1
        self.assert_bitwise(m.grad, want[:6])

    def test_bilinear_rows_backward_matches_add_at(self):
        rng = np.random.default_rng(23)
        x, y = param(rng.normal(size=(3, 4))), param(rng.normal(size=(5, 2)))
        us = [param(rng.normal(size=(4, 2))) for _ in range(3)]
        x_rows, y_rows = [0, 0, 2, 2, 2, 0], [4, 1, 1, 0, 4, 4]
        g = rng.normal(size=(6, 3))
        with fresh_tape():
            out = ad.bilinear_rows(x, us, y, x_rows, y_rows)
            backward(ad.sum_all(ad.mul(out, tensor(g))))
        w = np.stack([x.data @ u.data for u in us], axis=1)
        gw = np.zeros_like(w)
        np.add.at(gw, x_rows, g[:, :, None] * y.data[y_rows][:, None, :])
        gy = np.zeros_like(y.data)
        np.add.at(gy, y_rows, np.einsum("rk,rkq->rq", g, w[x_rows]))
        self.assert_bitwise(y.grad, gy)
        self.assert_bitwise(us[1].grad, x.data.T @ gw[:, 1])


class TestNonlinearGrads:
    def test_relu(self):
        # Values bounded away from the kink at zero.
        x = param(np.array([-2.0, -0.5, 0.4, 1.7, 3.0]))
        check(lambda: ad.dot(ad.relu(x), ad.relu(x)), [x])

    def test_leaky_relu(self):
        x = param(np.array([-2.0, -0.5, 0.4, 1.7]))
        check(lambda: ad.sum_all(ad.leaky_relu(x, 0.01)), [x])
        with fresh_tape():
            backward(ad.sum_all(ad.leaky_relu(x, 0.01)))
            assert np.allclose(x.grad, [0.01, 0.01, 1.0, 1.0])

    def test_tanh_sigmoid(self):
        x = randp(6)
        check(lambda: ad.dot(ad.tanh(x), ad.tanh(x)), [x])

    def test_layer_norm_matrix(self):
        x, gain, bias = randp(4, 6), randp(6), randp(6)
        check(lambda: ad.sum_all(ad.tanh(ad.layer_norm(x, gain, bias))),
              [x, gain, bias])

    def test_layer_norm_output_is_normalized(self):
        x = randp(5, 8)
        ones, zeros = tensor(np.ones(8)), tensor(np.zeros(8))
        with fresh_tape(), no_grad():
            y = ad.layer_norm(x, ones, zeros).data
        assert np.allclose(y.mean(axis=1), 0.0, atol=1e-12)
        assert np.allclose(y.var(axis=1), 1.0, atol=1e-4)

    def test_log_softmax(self):
        x = randp(5)
        w = tensor(RNG.normal(size=5))
        check(lambda: ad.dot(ad.log_softmax(x), w), [x])
        with fresh_tape(), no_grad():
            y = ad.log_softmax(x).data
        assert np.isclose(np.exp(y).sum(), 1.0)


class TestDropout:
    def test_identity_at_rate_zero(self):
        x = randp(5)
        assert ad.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_grad_follows_mask(self):
        x = randp(200)
        y = ad.dropout(x, 0.5, np.random.default_rng(42))
        mask = y.data / np.where(x.data == 0, 1, x.data)
        with fresh_tape():
            y2 = ad.dropout(x, 0.5, np.random.default_rng(42))
            backward(ad.sum_all(y2))
        assert np.array_equal(y.data, y2.data)  # seeded: same mask
        kept = y2.data != 0
        assert np.allclose(x.grad[kept], 2.0)
        assert np.all(x.grad[~kept] == 0.0)
        del mask

    def test_inverted_scaling_preserves_mean(self):
        x = param(np.ones(20000))
        y = ad.dropout(x, 0.3, np.random.default_rng(7))
        assert abs(y.data.mean() - 1.0) < 0.02

    def test_nondeterministic_function_rejected(self):
        x = randp(4)
        rng = np.random.default_rng(3)
        with pytest.raises(GradCheckFailure, match="not deterministic"):
            grad_check(lambda: ad.sum_all(ad.dropout(x, 0.5, rng)), [x])


class TestTapeMechanics:
    def test_backward_clears_tape(self):
        with fresh_tape():
            x = randp(3)
            backward(ad.dot(x, x))
            assert tape_length() == 0

    def test_backward_requires_scalar(self):
        with fresh_tape():
            x = randp(3)
            y = ad.mul_scalar(x, 2.0)
            with pytest.raises(ValueError, match="scalar"):
                backward(y)

    def test_shared_input_accumulates(self):
        x = param(np.array([3.0, -1.0]))
        with fresh_tape():
            backward(ad.dot(x, x))
        assert np.allclose(x.grad, 2 * x.data)

    def test_grad_accumulates_across_backwards_until_zeroed(self):
        x = param(np.array([1.0, 2.0]))
        c = tensor(np.array([5.0, 7.0]))
        with fresh_tape():
            backward(ad.dot(x, c))
            backward(ad.dot(x, c))
        assert np.allclose(x.grad, 2 * c.data)
        ad.zero_grads([x])
        assert x.grad is None

    def test_constants_never_get_grads(self):
        c = tensor(np.ones(3))
        x = randp(3)
        with fresh_tape():
            backward(ad.dot(x, c))
        assert c.grad is None
        assert x.grad is not None

    def test_no_grad_records_nothing(self):
        x = randp(3)
        with fresh_tape():
            with no_grad():
                y = ad.dot(x, x)
            assert tape_length() == 0
            assert not y.needs_grad

    def test_fresh_tape_isolation(self):
        x = randp(3)
        with fresh_tape():
            ad.dot(x, x)
            before = tape_length()
            with fresh_tape():
                ad.dot(x, x)
            assert tape_length() == before

    def test_ops_on_constants_skip_tape(self):
        a, b = tensor(np.ones(3)), tensor(np.ones(3))
        with fresh_tape():
            ad.dot(a, b)
            assert tape_length() == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_forward_raises(self):
        x = tensor(np.array([1e308]))
        with pytest.raises(FloatingPointError, match="mul_scalar"):
            ad.mul_scalar(x, 1e10)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_check_survives_an_overflowing_sum(self):
        # The fast path sums the array; an overflow there must fall back
        # to the elementwise test instead of rejecting finite entries.
        big = np.array([1e308, 1e308])
        assert ad._check(big, "op") is big

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("values", [[np.inf, -np.inf], [np.nan, 1.0]])
    def test_check_names_the_op(self, values):
        with pytest.raises(FloatingPointError, match="by some_op"):
            ad._check(np.array(values), "some_op")

    def test_threads_have_independent_tapes(self):
        results = {}

        def work(key, scale):
            x = param(np.full(4, scale))
            with fresh_tape():
                backward(ad.dot(x, x))
            results[key] = x.grad.copy()

        threads = [threading.Thread(target=work, args=(k, float(k + 1)))
                   for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for k in range(4):
            assert np.allclose(results[k], 2.0 * (k + 1))


class TestLstmSequence:
    def test_gradients(self):
        xw = randp(4, 12, name="xw")
        wh = randp(3, 12, name="wh")
        b = randp(12, name="b")
        w = tensor(RNG.normal(size=(4, 3)))
        check(lambda: ad.sum_all(ad.mul(ad.lstm_sequence(xw, wh, b), w)),
              [xw, wh, b], tol=1e-5)

    def test_length_one(self):
        xw = randp(1, 8, name="xw")
        wh = randp(2, 8, name="wh")
        b = randp(8, name="b")
        check(lambda: ad.sum_all(ad.lstm_sequence(xw, wh, b)), [xw, wh, b],
              tol=1e-5)

    def test_forward_matches_stepwise_reference(self):
        # The gate-by-gate textbook recurrence; the fused pass applies the
        # same elementwise formulas, so the states agree bit for bit.
        xw, wh, b = randp(6, 12), randp(3, 12), randp(12)
        h, c = np.zeros(3), np.zeros(3)
        want = []
        for t in range(6):
            raw = xw.data[t] + h @ wh.data + b.data
            i = 1.0 / (1.0 + np.exp(-raw[:3]))
            f = 1.0 / (1.0 + np.exp(-raw[3:6]))
            g = np.tanh(raw[6:9])
            o = 1.0 / (1.0 + np.exp(-raw[9:]))
            c = f * c + i * g
            h = o * np.tanh(c)
            want.append(h)
        with fresh_tape(), no_grad():
            got = ad.lstm_sequence(xw, wh, b).data
        assert np.array_equal(got, np.array(want))

    def test_zero_inputs_give_zero_states(self):
        # With xw = b = 0 the cell gate tanh(0) = 0 keeps c, and hence h,
        # at exactly zero for every step.
        xw = tensor(np.zeros((5, 8)))
        wh = randp(2, 8)
        b = tensor(np.zeros(8))
        with fresh_tape(), no_grad():
            assert np.array_equal(ad.lstm_sequence(xw, wh, b).data,
                                  np.zeros((5, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="wh shape"):
            ad.lstm_sequence(randp(3, 8), randp(3, 8), randp(8))

    def test_lengths_must_pack_every_row(self):
        with pytest.raises(ValueError, match="lengths"):
            ad.lstm_sequence(randp(5, 8), randp(2, 8), randp(8), [2, 2])

    def test_reverse_runs_right_to_left(self):
        xw, wh, b = randp(5, 8), randp(2, 8), randp(8)
        with fresh_tape(), no_grad():
            got = ad.lstm_sequence(xw, wh, b, reverse=True).data
            want = ad.lstm_sequence(tensor(xw.data[::-1]), wh, b).data
        assert np.array_equal(got, want[::-1])

    @pytest.mark.parametrize("reverse", [False, True])
    def test_packed_matches_one_call_per_sequence(self, reverse):
        # Unsorted mixed lengths, one of them 1: each sequence gets what
        # its own call gives, in outputs and in all three gradients.
        lengths = [3, 1, 5, 2, 5]
        n = sum(lengths)
        xw, wh, b = randp(n, 12), randp(3, 12), randp(12)
        weight = RNG.normal(size=(n, 3))

        def run(x, lens, w):
            ad.zero_grads([x, wh, b])
            with fresh_tape():
                out = ad.lstm_sequence(x, wh, b, lens, reverse)
                backward(ad.sum_all(ad.mul(out, tensor(w))))
            return out.data, x.grad, wh.grad, b.grad

        packed = run(xw, lengths, weight)
        outs, d_xw, d_wh, d_b = [], [], 0.0, 0.0
        lo = 0
        for m in lengths:
            out, g_x, g_wh, g_b = run(param(xw.data[lo:lo + m]), None,
                                      weight[lo:lo + m])
            outs.append(out)
            d_xw.append(g_x)
            d_wh, d_b = d_wh + g_wh, d_b + g_b
            lo += m
        want = (np.vstack(outs), np.vstack(d_xw), d_wh, d_b)
        for got, expected in zip(packed, want):
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_packed_gradients(self, reverse):
        xw = randp(7, 12, name="xw")
        wh = randp(3, 12, name="wh")
        b = randp(12, name="b")
        w = tensor(RNG.normal(size=(7, 3)))
        check(lambda: ad.sum_all(ad.mul(
            ad.lstm_sequence(xw, wh, b, [2, 4, 1], reverse), w)),
            [xw, wh, b], tol=1e-5)


class TestComposite:
    def test_two_layer_network(self):
        # Small inputs keep tanh off its saturated tails, where gradients
        # shrink toward zero and relative error loses meaning.
        w1, b1 = randp(4, 6, name="w1"), randp(4, 1, name="b1")
        w2, b2 = randp(4, 1, name="w2"), randp(1, name="b2")
        x = tensor(0.3 * RNG.normal(size=(6, 1)))

        def loss():
            h = ad.tanh(ad.add(ad.matmul(w1, x), b1))  # (4, 1) column
            return ad.add(ad.sum_all(ad.mul(w2, h)), ad.sum_all(b2))

        check(loss, [w1, b1, w2, b2], tol=1e-4)

    def test_grad_check_leaves_params_clean(self):
        x = randp(3)
        grad_check(lambda: ad.dot(x, x), [x])
        assert x.grad is None
