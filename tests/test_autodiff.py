import threading
import tracemalloc
import types
import weakref

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
from framepath.config import Config
from framepath.corpus import build_vocab
from framepath.model import FrameParser
from framepath.synth import generate

from helpers import add_sq_norms_reference, bilstm_backward_reference

RNG = np.random.default_rng(1234)


def randp(*shape, name=""):
    return param(RNG.normal(size=shape), name=name)


def check(f, params, tol=1e-6):
    max_rel, report = grad_check(f, params)
    assert max_rel < tol, f"worst entry: {report[0]}"


class TestLinearAlgebraGrads:
    def test_affine(self):
        x, w, b = randp(3, 4, name="x"), randp(4, 2, name="w"), randp(2)
        with fresh_tape(), no_grad():
            out = ad.affine(x, w, b).data
        assert np.array_equal(out, x.data @ w.data + b.data)
        y = tensor(RNG.normal(size=(3, 2)))
        check(lambda: ad.sum_all(ad.mul(ad.affine(x, w, b), y)), [x, w, b])

    def test_dot(self):
        x, y = randp(6), randp(6)
        check(lambda: ad.dot(x, y), [x, y])

    def test_bilinear_rows(self):
        # output row r pairs x's row x_rows[r], repeats included, so x
        # accumulates gradients from several output rows, with y's row r
        x, y = randp(3, 4, name="x"), randp(5, 2, name="y")
        us = [randp(4, 2, name=f"u{k}") for k in range(3)]
        x_rows = [0, 0, 2, 1, 2]
        with fresh_tape(), no_grad():
            out = ad.bilinear_rows(x, us, y, x_rows).data
        for r, i in enumerate(x_rows):
            for k, u in enumerate(us):
                assert abs(out[r, k] - x.data[i] @ u.data @ y.data[r]) < 1e-12
        w = tensor(RNG.normal(size=(5, 3)))
        check(lambda: ad.sum_all(ad.mul(
            ad.bilinear_rows(x, us, y, x_rows), w)), [x, y, *us])

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

    def test_add_sq_norms(self):
        v, a, b = randp(3), randp(2, 3), randp(4)
        check(lambda: ad.add_sq_norms(ad.sum_all(v), [(a, 0.3), (b, 2.5)]),
              [v, a, b])

    def test_add_sq_norms_equals_separate_ops(self):
        # Value and every gradient bit for bit, with a tensor that also
        # feeds x and one that is penalized twice.
        a, b, w = randp(3, 3), randp(5), randp(3, 3)
        terms = [(a, 1e-4), (b, 0.7), (a, 2.5)]
        got = []
        for f in (ad.add_sq_norms, add_sq_norms_reference):
            ad.zero_grads([a, b, w])
            with fresh_tape():
                loss = f(ad.sum_all(ad.mul(a, w)), terms)
                backward(loss)
            got.append((loss.data.tobytes(), a.grad.tobytes(),
                        b.grad.tobytes(), w.grad.tobytes()))
        assert got[0] == got[1]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_add_sq_norms_overflow_names_the_op(self):
        x = tensor(np.array(0.0))
        with pytest.raises(FloatingPointError, match="by add_sq_norms$"):
            ad.add_sq_norms(x, [(tensor(np.array([1.0, 1e200])), 1.0)])

    def test_affine_bias_broadcasts_over_rows(self):
        # One record holds the whole map; no pre-bias product is taped.
        x, w, b = randp(4, 3), randp(3, 3), randp(3)
        with fresh_tape():
            out = ad.affine(x, w, b).data
            assert tape_length() == 1
        assert np.array_equal(out, x.data @ w.data + b.data[None, :])
        check(lambda: ad.sum_all(ad.tanh(ad.affine(x, w, b))), [x, w, b])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            ad.add(randp(3), randp(4))


class TestShapeGrads:
    def test_concat(self):
        xs = [randp(2), randp(3), randp(1)]
        check(lambda: ad.dot(ad.concat(xs), ad.concat(xs)), xs)

    def test_concat_cols(self):
        ms = [randp(3, 2), randp(3, 4)]
        check(lambda: ad.sum_all(ad.tanh(ad.concat(ms, axis=1))), ms)

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
        x, y = param(rng.normal(size=(3, 4))), param(rng.normal(size=(6, 2)))
        us = [param(rng.normal(size=(4, 2))) for _ in range(3)]
        x_rows = [0, 0, 2, 2, 2, 0]
        g = rng.normal(size=(6, 3))
        with fresh_tape():
            out = ad.bilinear_rows(x, us, y, x_rows)
            backward(ad.sum_all(ad.mul(out, tensor(g))))
        w = np.stack([x.data @ u.data for u in us], axis=1)
        gw = np.zeros_like(w)
        np.add.at(gw, x_rows, g[:, :, None] * y.data[:, None, :])
        self.assert_bitwise(y.grad, np.einsum("rk,rkq->rq", g, w[x_rows]))
        self.assert_bitwise(us[1].grad, x.data.T @ gw[:, 1])

    def test_bilinear_rows_gradients_match_a_per_label_reference(self):
        # Each label's rows of w take their own scatter, in row order, and
        # x's gradient adds the labels' products in label order, as sum()
        # does.  Labels 0 and 1 give products of 1e16 that cancel
        # exactly, so adding them in another order rounds away the small
        # products of labels 2 and 3.
        rng = np.random.default_rng(24)
        x, y = param(rng.normal(size=(4, 3))), param(rng.normal(size=(9, 5)))
        big = rng.normal(size=(3, 5)) * 1e16
        us = [param(big), param(-big)] + [param(rng.normal(size=(3, 5)))
                                         for _ in range(2)]
        x_rows = np.array([0, 0, 0, 1, 3, 3, 3, 3, 3])
        g = rng.normal(size=(9, 4))
        g[:, 1] = g[:, 0]
        with fresh_tape():
            out = ad.bilinear_rows(x, us, y, x_rows)
            backward(ad.sum_all(ad.mul(out, tensor(g))))
        w = np.stack([x.data @ u.data for u in us], axis=1)
        gws = []
        for k in range(len(us)):
            gw = np.zeros((4, 5))
            np.add.at(gw, x_rows, g[:, k, None] * y.data)
            gws.append(gw)
        self.assert_bitwise(x.grad, sum(gw @ u.data.T
                                        for gw, u in zip(gws, us)))
        for gw, u in zip(gws, us):
            self.assert_bitwise(u.grad, x.data.T @ gw)
        self.assert_bitwise(y.grad, np.einsum("rk,rkq->rq", g, w[x_rows]))

    def test_bilinear_rows_backward_scatters_one_label_at_a_time(self):
        # At the argument head's train-long shape (767 rows, 3 labels,
        # width 64), with y constant so only the scatter runs, the
        # backward adds less than one (rows, labels * width) product:
        # scattered whole, that product, its keys and its source came
        # to 2.1 products.
        rng = np.random.default_rng(25)
        m, k, q, r = 31, 3, 64, 767
        x = param(rng.normal(size=(m, q)))
        us = [param(rng.normal(size=(q, q))) for _ in range(k)]
        y = tensor(rng.normal(size=(r, q)))
        x_rows = np.sort(rng.integers(0, m, size=r))
        with fresh_tape():
            ad.bilinear_rows(x, us, y, x_rows)
            (_, vjp), = ad._tape().records
            ad._tape().records.clear()
            assert traced_peak(vjp, rng.normal(size=(r, k))) < r * k * q * 8


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

    def test_layer_norm_equals_mean_var_expression(self):
        # Bit for bit, on rows of mixed scale and a constant row.
        data = RNG.normal(size=(15, 32)) * np.logspace(-3, 3, 15)[:, None]
        data[4] = 2.5
        gain, bias = RNG.normal(size=32), RNG.normal(size=32)
        with fresh_tape(), no_grad():
            got = ad.layer_norm(tensor(data), tensor(gain), tensor(bias))
        mu = data.mean(axis=1, keepdims=True)
        var = data.var(axis=1, keepdims=True)
        want = (data - mu) * (1.0 / np.sqrt(var + 1e-5)) * gain + bias
        assert np.array_equal(got.data, want)

    def test_log_softmax_of_no_columns(self):
        # A model without frames scores its targets over no frames.
        x = param(np.zeros((0, 0)))
        with fresh_tape():
            out = ad.log_softmax(x)
            backward(ad.sum_all(out))
        assert out.shape == (0, 0) and x.grad.shape == (0, 0)

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
            y = ad.mul(x, tensor(np.full(3, 2.0)))
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

    def test_a_constant_root_drains_the_tape_and_takes_no_gradient(self):
        x = randp(3)
        c = tensor(np.asarray(2.0))
        with fresh_tape():
            ad.tanh(x)
            backward(c)
            assert tape_length() == 0
        assert c.grad is None and x.grad is None
        with pytest.raises(ValueError, match="takes no gradient"):
            c.grad = np.ones(())
        c.grad = None  # as zero_grads does

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
        with pytest.raises(FloatingPointError, match="by mul$"):
            ad.mul(x, tensor(np.array([1e10])))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_check_survives_an_overflowing_sum(self):
        # The fast path sums the array; an overflow there must fall back
        # to the elementwise test instead of rejecting finite entries.
        big = np.array([1e308, 1e308])
        assert ad._check(big, "op") is big

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("big", [
        np.full((2, 3), 1e308), np.full((4, 4), -1e308)[::2, 1::2]],
        ids=["2-d", "strided"])
    def test_check_survives_an_overflowing_sum_of_any_layout(self, big):
        assert ad._check(big, "op") is big

    @pytest.mark.parametrize("empty", [np.zeros(0), np.zeros((0, 3)),
                                       np.zeros((3, 0))])
    def test_check_passes_empty_arrays(self, empty):
        assert ad._check(empty, "op") is empty

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("layout", ["0-d", "1-d", "2-d", "strided"])
    def test_check_rejects_a_non_finite_entry(self, bad, layout):
        if layout == "0-d":
            arr = np.array(bad)
        elif layout == "1-d":
            arr = np.array([1.0, bad, 2.0])
        else:
            arr = np.ones((4, 6))
            arr[1, 2] = bad
            if layout == "strided":
                # only the entries the view holds count
                assert ad._check(arr[:, 1::2], "op").base is arr
                arr = arr[:, ::2]
        with pytest.raises(FloatingPointError, match="by op$"):
            ad._check(arr, "op")

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


def lstm_reference(xw, wh, b, lengths):
    """The gate-by-gate textbook recurrence, left to right from zero
    states, stepping every sequence of a zero-padded (step, sequence)
    batch at once: (n, H) hidden states in xw's row order."""
    hidden = wh.shape[0]
    first = np.cumsum(lengths) - lengths
    x = np.zeros((max(lengths), len(lengths), 4 * hidden))
    for j, (lo, m) in enumerate(zip(first, lengths)):
        x[:m, j] = xw[lo:lo + m]
    h = c = np.zeros((len(lengths), hidden))
    states = []
    for raw_x in x:
        raw = raw_x + h @ wh + b
        i = 1.0 / (1.0 + np.exp(-raw[:, :hidden]))
        f = 1.0 / (1.0 + np.exp(-raw[:, hidden:2 * hidden]))
        g = np.tanh(raw[:, 2 * hidden:3 * hidden])
        o = 1.0 / (1.0 + np.exp(-raw[:, 3 * hidden:]))
        c = f * c + i * g
        h = o * np.tanh(c)
        states.append(h)
    return np.vstack([np.array(states)[:m, j] for j, m in enumerate(lengths)])


def reverse_each(rows, lengths):
    """rows with each sequence's rows in reverse order."""
    ends = np.cumsum(lengths)
    return np.vstack([rows[end - m:end][::-1] for m, end in zip(lengths, ends)])


def traced_peak(vjp, g):
    """Peak bytes a vjp allocates while it runs on gradient g."""
    tracemalloc.start()
    try:
        vjp(g)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def closure(vjp):
    """A vjp's free variables, by name."""
    return dict(zip(vjp.__code__.co_freevars,
                    (cell.cell_contents for cell in vjp.__closure__)))


def directions(n, hidden, width=3):
    """Random (n, width) input rows x and forward and backward (wx, wh,
    b), as [x, fwd, bwd]."""
    return [randp(n, width, name="x")] + [
        tuple(randp(*shape, name=f"{d}.{part}") for part, shape in
              (("wx", (width, 4 * hidden)), ("wh", (hidden, 4 * hidden)),
               ("b", (4 * hidden,))))
        for d in ("fwd", "bwd")]


class TestPacked:
    def test_cells_sort_sequences_longest_first(self):
        packed = ad.packed(6, [2, 3, 1])
        assert packed.order.tolist() == [1, 0, 2]
        assert packed.running == (3, 2, 1, 0)
        assert packed.step.tolist() == [0, 1, 0, 1, 2, 0]
        assert packed.col.tolist() == [1, 1, 0, 0, 0, 2]
        assert packed.chain.tolist() == [0, 0, 1, 1, 1, 2]
        assert [a.tolist() for a in packed.last] == [[2, 1, 0], [0, 1, 2]]

    def test_block_round_trip(self):
        rows = RNG.normal(size=(6, 4))
        packed = ad.packed(6, [2, 3, 1])
        block = packed.to_block(rows)
        assert block.shape == (3, 3, 4)
        assert np.array_equal(block[2, 1:], np.zeros((2, 4)))  # padding
        assert np.array_equal(packed.from_block(block), rows)

    @pytest.mark.parametrize("lengths", [[2, 2], [3, 0, 2], []])
    def test_lengths_must_pack_every_row(self, lengths):
        with pytest.raises(ValueError):
            ad.packed(5, lengths)

    @pytest.mark.parametrize("n, lengths, message", [
        (5, [2, 2], r"lengths \[2, 2\] do not pack 5 rows"),
        (5, (2, 2), r"lengths \[2, 2\] do not pack 5 rows"),
        (5, np.array([2, 2]), r"lengths \[2, 2\] do not pack 5 rows"),
        (5, [], r"lengths \[\] do not pack 5 rows"),
        (5, [3, 0, 2], "empty sequence"),
        (0, [], "empty sequence"),
        (0, None, "empty sequence")])
    def test_invalid_lengths_are_not_kept(self, n, lengths, message):
        ad._layouts.cache_clear()
        for _ in range(2):  # a failed build is not kept, so it raises again
            with pytest.raises(ValueError, match=message):
                ad.packed(n, lengths)
        assert ad._layouts.cache_info().currsize == 0

    def test_equal_lengths_share_one_layout(self):
        ad._layouts.cache_clear()
        layout = ad.packed(6, [2, 3, 1])
        assert ad.packed(6, (2, 3, 1)) is layout
        assert ad.packed(6, np.diff([0, 2, 5, 6])) is layout
        assert ad.packed(6, np.array([2, 3, 1], dtype=np.int32)) is layout
        assert ad.packed(4, None) is ad.packed(4, [4])
        assert ad.packed(6, [3, 2, 1]) is not layout  # order matters
        assert ad._layouts.cache_info().currsize == 3

    def test_lengths_must_be_integers(self):
        with pytest.raises(TypeError):
            ad.packed(5, [2.0, 3.0])

    def test_index_arrays_are_read_only(self):
        layout = ad.packed(6, [2, 3, 1])
        steps, cells = layout.mirrored
        arrays = [layout.order, layout.col, layout.step, layout.chain,
                  *layout.last, steps, *cells]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 7
        assert layout.mirrored is layout.mirrored  # worked out once
        assert isinstance(layout.lengths, tuple)
        assert isinstance(layout.running, tuple)

    def test_eviction_past_the_bound_is_safe(self):
        ad._layouts.cache_clear()
        first = ad.packed(6, [2, 3, 1])
        steps = first.step.tolist()
        bound = ad._layouts.cache_info().maxsize
        assert bound == 64
        held = [ad.packed(k, None) for k in range(1, bound + 2)]
        assert ad._layouts.cache_info().currsize == bound
        # The evicted layout stays whole for whoever holds it, and a new
        # build of the same lengths equals it.
        again = ad.packed(6, [2, 3, 1])
        assert again is not first
        assert first.step.tolist() == steps
        for a, b in ((first.col, again.col), (first.step, again.step),
                     (first.order, again.order)):
            assert np.array_equal(a, b)
        assert [len(p.step) for p in held] == list(range(1, bound + 2))


class TestLstmSequence:
    """ad.bilstm_layer: both directions of a layer, input projections
    included, in one op."""

    def test_forward_matches_stepwise_reference(self):
        # The fused pass applies the textbook formulas elementwise to the
        # same x @ wx products, so the forward half equals the loop bit
        # for bit, and the backward half equals the loop run on each
        # sequence's reversed rows.
        for lengths in (None, [1], [3, 1, 5, 2, 5]):
            n = 6 if lengths is None else sum(lengths)
            x, fwd, bwd = directions(n, 3)
            with fresh_tape(), no_grad():
                got = ad.bilstm_layer(x, fwd, bwd, ad.packed(n, lengths)).data
            lengths = lengths or [n]
            want_f = lstm_reference(x.data @ fwd[0].data, fwd[1].data,
                                    fwd[2].data, lengths)
            want_b = reverse_each(lstm_reference(
                reverse_each(x.data @ bwd[0].data, lengths), bwd[1].data,
                bwd[2].data, lengths), lengths)
            assert np.array_equal(got[:, :3], want_f), lengths
            assert np.array_equal(got[:, 3:], want_b), lengths

    def test_reverse_runs_right_to_left(self):
        # The backward half is the forward half of a layer given each
        # sequence's rows reversed.
        lengths = [2, 4, 1]
        x, fwd, bwd = directions(7, 2)
        flipped = tensor(reverse_each(x.data, lengths))
        packed = ad.packed(7, lengths)
        with fresh_tape(), no_grad():
            got = ad.bilstm_layer(x, fwd, bwd, packed).data
            want = ad.bilstm_layer(flipped, bwd, fwd, packed).data
        assert np.array_equal(got[:, 2:], reverse_each(want[:, :2], lengths))

    def test_gradients(self):
        x, fwd, bwd = directions(4, 3)
        w = tensor(RNG.normal(size=(4, 6)))
        check(lambda: ad.sum_all(ad.mul(
            ad.bilstm_layer(x, fwd, bwd, ad.packed(4, None)), w)),
              [x, *fwd, *bwd], tol=1e-5)

    def test_length_one(self):
        x, fwd, bwd = directions(1, 2)
        packed = ad.packed(1, None)
        check(lambda: ad.sum_all(ad.bilstm_layer(x, fwd, bwd, packed)),
              [x, *fwd, *bwd], tol=1e-5)

    def test_packed_gradients_both_halves(self):
        x, fwd, bwd = directions(7, 3)
        w = tensor(RNG.normal(size=(7, 6)))
        packed = ad.packed(7, [2, 4, 1])
        check(lambda: ad.sum_all(ad.mul(
            ad.bilstm_layer(x, fwd, bwd, packed), w)), [x, *fwd, *bwd],
              tol=1e-5)

    @pytest.mark.parametrize("backward_half", [False, True])
    def test_packed_gradients(self, backward_half):
        # A loss that reads one direction's half of the output: that
        # direction's gradients and the input's pass the check through
        # the packed recurrence, and the other direction's, which the
        # stacked steps must keep apart, are exactly zero.
        x, fwd, bwd = directions(7, 3)
        weight = RNG.normal(size=(7, 6))
        unread = slice(0, 3) if backward_half else slice(3, 6)
        weight[:, unread] = 0.0
        w = tensor(weight)
        packed = ad.packed(7, [2, 4, 1])
        check(lambda: ad.sum_all(ad.mul(
            ad.bilstm_layer(x, fwd, bwd, packed), w)), [x, *fwd, *bwd],
              tol=1e-5)
        with fresh_tape():
            backward(ad.sum_all(ad.mul(
                ad.bilstm_layer(x, fwd, bwd, packed), w)))
            read, unread = (bwd, fwd) if backward_half else (fwd, bwd)
            for t in (x, *read):
                assert np.all(np.any(t.grad, axis=-1)), t.name
            for t in unread:
                assert not np.any(t.grad), t.name

    def test_zero_inputs_give_zero_states(self):
        # With x = b = 0 every projection is zero, and the cell gate
        # tanh(0) = 0 keeps c, and hence h, at exactly zero for every
        # step in both directions.
        x = tensor(np.zeros((5, 3)))
        zeros = (randp(3, 8), randp(2, 8), tensor(np.zeros(8)))
        with fresh_tape(), no_grad():
            out = ad.bilstm_layer(x, zeros, zeros, ad.packed(5, [3, 2])).data
        assert np.array_equal(out, np.zeros((5, 4)))

    @pytest.mark.parametrize("reversed_order", [False, True])
    def test_packed_matches_one_call_per_sequence(self, reversed_order):
        # Unsorted mixed lengths, one of them 1, given in either order so
        # the tied longest two and the short ones land in other columns:
        # each sequence gets what its own call gives, in outputs and in
        # the gradients of x and of all six parameters.  A product over
        # several running rows may round differently from one over a
        # single row, hence the tolerance.
        lengths = [5, 2, 5, 1, 3] if reversed_order else [3, 1, 5, 2, 5]
        n = sum(lengths)
        x, fwd, bwd = directions(n, 3)
        weight = RNG.normal(size=(n, 6))
        shared = [*fwd, *bwd]

        def run(rows, lens):
            x_rows = param(x.data[rows])
            ad.zero_grads(shared)
            with fresh_tape():
                out = ad.bilstm_layer(x_rows, fwd, bwd,
                                      ad.packed(len(x_rows.data), lens))
                backward(ad.sum_all(ad.mul(out, tensor(weight[rows]))))
            return [out.data, x_rows.grad] + [t.grad for t in shared]

        packed = run(slice(None), lengths)
        ends = np.cumsum(lengths)
        singles = [run(slice(end - m, end), None)
                   for m, end in zip(lengths, ends)]
        want = [np.vstack(parts) for parts in zip(*(s[:2] for s in singles))]
        want += [sum(s[k] for s in singles) for k in range(2, 8)]
        for got, expected in zip(packed, want, strict=True):
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("lengths", [None, [1], [3, 1, 5, 2, 5],
                                         [4, 4, 2, 2]])
    def test_backward_matches_block_per_factor_reference(self, lengths):
        # Writing the factors over the gates, reading the states back
        # from the output and taking the input products one direction
        # at a time keep every bit of the gradients.
        n = 6 if lengths is None else sum(lengths)
        x, fwd, bwd = directions(n, 3, width=4)
        grad_h = RNG.normal(size=(n, 6))
        grad_h[::2] = -0.0
        packed = ad.packed(n, lengths)
        with fresh_tape():
            out = ad.bilstm_layer(x, fwd, bwd, packed)
            (_, vjp), = ad._tape().records
            held = closure(vjp)
            want = bilstm_backward_reference(
                x.data, fwd, bwd, packed, held["gates"].copy(),
                held["cs"].copy(), out.data, grad_h)
            backward(ad.sum_all(ad.mul(out, tensor(grad_h))))
        for t, expected in zip((x, *fwd, *bwd), want, strict=True):
            assert np.array_equal(t.grad.view(np.uint64),
                                  expected.view(np.uint64)), t.name

    def test_shape_mismatch_rejected(self):
        for wrong in (1, 2):  # either direction
            args = directions(3, 2)
            wx, _, b = args[wrong]
            args[wrong] = (wx, randp(3, 8), b)
            with pytest.raises(ValueError, match="wh shape"):
                ad.bilstm_layer(*args, ad.packed(3, None))

    def test_lengths_must_pack_every_row(self):
        x, fwd, bwd = directions(5, 2)
        with pytest.raises(ValueError, match="lengths"):
            ad.bilstm_layer(x, fwd, bwd, ad.packed(4, [2, 2]))


class TestComposite:
    def test_two_layer_network(self):
        # Small inputs keep tanh off its saturated tails, where gradients
        # shrink toward zero and relative error loses meaning.
        w1, b1 = randp(6, 4, name="w1"), randp(4, name="b1")
        w2, b2 = randp(4, 1, name="w2"), randp(1, name="b2")
        x = tensor(0.3 * RNG.normal(size=(1, 6)))

        def loss():
            h = ad.tanh(ad.affine(x, w1, b1))  # (1, 4) row
            return ad.sum_all(ad.affine(h, w2, b2))

        check(loss, [w1, b1, w2, b2], tol=1e-4)

    def test_grad_check_leaves_params_clean(self):
        x = randp(3)
        grad_check(lambda: ad.dot(x, x), [x])
        assert x.grad is None


def tiny_model():
    """A small joint model and its prepared training sentences."""
    sentences, ontology = generate(2, 6)
    model = FrameParser(
        Config(token_dim=6, pos_dim=2, gcn_emb_dim=4, gcn_dim=4,
               lstm_hidden=4, lu_dim=3, frame_dim=3, fi_hidden1=5,
               fi_hidden2=4, ai_pr_dim=4, ai_pb_dim=4, ac_dim=4),
        build_vocab(sentences, ontology), ontology)
    return model, [model.prepare(s) for s in sentences]


def held_tensors(values):
    """The Tensors among values, looking through containers and plain
    objects' attributes (not through arrays, types or modules)."""
    found, seen, todo = [], set(), list(values)
    while todo:
        v = todo.pop()
        if id(v) in seen or isinstance(v, (np.ndarray, type,
                                           types.ModuleType)):
            continue
        seen.add(id(v))
        if isinstance(v, Tensor):
            found.append(v)
        elif isinstance(v, (tuple, list, set, frozenset)):
            todo.extend(v)
        elif isinstance(v, dict):
            todo.extend(v.values())
        elif hasattr(v, "__dict__"):
            todo.extend(vars(v).values())
    return found


class TestTapeLifetime:
    def test_only_leaves_keep_grads_after_a_model_backward(self):
        model, preps = tiny_model()
        with fresh_tape():
            loss = model.loss(preps, "joint", train=True)
            produced = [slot for slot, _ in ad._tape().records]
            backward(loss)
            assert tape_length() == 0
        assert any(slot is loss.slot for slot in produced)
        assert all(slot.grad is None for slot in produced)
        for path, entry in model.store.entries():
            assert entry.tensor.grad is not None, path

    def test_tape_drains_as_backward_runs(self):
        # A probe recorded first runs its vjp last, when every record
        # after it has been dropped, and so has its own.
        x = randp(3)
        seen = []
        with fresh_tape():
            probe = ad._record(Tensor(x.data.copy()), (x,),
                               lambda g: seen.append(tape_length()))
            backward(ad.sum_all(ad.tanh(ad.mul(probe,
                                               tensor(np.full(3, 2.0))))))
        assert seen == [0]

    def test_bilstm_backward_does_not_hold_its_input_block(self):
        # Nor either input projection: no value the closure holds has
        # the (n, 4H) shape of x @ wx.
        x, fwd, bwd = directions(5, 2)
        with fresh_tape():
            ad.bilstm_layer(x, fwd, bwd, ad.packed(5, [3, 2]))
            _, vjp = ad._tape().records[-1]
        free = closure(vjp)
        assert "gates" in free  # what it does keep is visible here
        assert "xs" not in free
        assert "hs" not in free  # the states come back from the output
        held = list(free.values())
        assert any(v is x.data for v in held)  # x's array, not x
        assert not held_tensors(held)
        assert not [v for v in held if getattr(v, "shape", None) == (5, 8)]

    def test_bilstm_backward_works_inside_its_gates_block(self):
        # At a train-long backbone-B shape (26 sequences of 15-35 steps,
        # H = 32, input width 96) one backward adds less than twice the
        # (2, step, sequence, 4H) gates block it holds: its factors are
        # written over that block.  With each factor its own block it
        # added 4.0 blocks.
        rng = np.random.default_rng(26)
        lengths = rng.integers(15, 36, size=26)
        n, h, width = int(lengths.sum()), 32, 96
        x = param(rng.normal(size=(n, width)))
        fwd, bwd = (tuple(param(rng.normal(size=shape) * 0.3) for shape in
                          ((width, 4 * h), (h, 4 * h), (4 * h,)))
                    for _ in range(2))
        packed = ad.packed(n, lengths)
        with fresh_tape():
            ad.bilstm_layer(x, fwd, bwd, packed)
            (_, vjp), = ad._tape().records
            ad._tape().records.clear()
            block = closure(vjp)["gates"].nbytes
            assert block == 2 * packed.steps * 26 * 4 * h * 8
            assert traced_peak(vjp, rng.normal(size=(n, 2 * h))) < 2 * block

    def test_a_value_no_vjp_reads_is_freed_in_the_forward_pass(self):
        # tanh's backward reads its output, so the sum it takes dies with
        # the caller's tensor; affine's reads its input, which lives on.
        x, w, b = randp(4, 3), randp(3, 2), randp(2)

        def loss(drop):
            s = ad.add(x, x)
            freed = weakref.ref(s.data)
            t = ad.tanh(s)
            if drop:
                del s
                assert freed() is None
            u = ad.add(t, t)
            kept = weakref.ref(u.data)
            y = ad.affine(u, w, b)
            if drop:
                del u
                assert kept() is not None
            return ad.sum_all(ad.tanh(y))

        grads = []
        for drop in (False, True):
            with fresh_tape():
                backward(loss(drop))
            grads.append([p.grad.tobytes() for p in (x, w, b)])
            ad.zero_grads([x, w, b])
        assert grads[0] == grads[1]

    def test_no_record_of_a_joint_step_holds_a_tensor(self):
        # Each record holds its output's slot and a vjp whose closure
        # holds input slots and arrays: a tensor there would pin every
        # value it holds until backward.
        model, preps = tiny_model()
        with fresh_tape():
            model.batch_losses(preps, train=True)
            records = list(ad._tape().records)
        ops = {vjp.__qualname__.split(".<locals>")[0] for _, vjp in records}
        assert {"affine", "bilstm_layer", "bilinear_rows", "sum_row_groups",
                "LinearChainCrf.log_partition",
                "LinearChainCrf.gold_score"} <= ops
        for slot, vjp in records:
            cells = [cell.cell_contents for cell in vjp.__closure__ or ()]
            assert not held_tensors([slot, *cells]), vjp.__qualname__
