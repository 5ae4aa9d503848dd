import numpy as np
import pytest

from basts import autodiff as ad
from basts.autodiff import Adam, GraphError, ShapeError, Tape, Tensor, backward


class TestForwardOps:
    def test_softmax_symmetry(self):
        y = ad.row_softmax(Tensor([0.0, 0.0]))
        assert np.allclose(y.data, [0.5, 0.5])

    def test_matmul_identity(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        y = ad.matmul(Tensor(np.eye(2)), x)
        assert np.array_equal(y.data, x.data)

    def test_sigmoid_value(self):
        y = ad.sigmoid(Tensor([0.5]))
        assert abs(y.data[0] - 1.0 / (1.0 + np.exp(-0.5))) < 1e-15
        assert abs(y.data[0] - 0.6224593312018546) < 1e-12

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(5, 9)))
        y = ad.row_softmax(x)
        assert np.all(np.abs(y.data.sum(axis=1) - 1.0) <= 1e-12)
        assert np.all((y.data > 0) & (y.data < 1))

    def test_shape_error_reports_both_shapes(self):
        with pytest.raises(ShapeError) as err:
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
        assert "(2, 3)" in str(err.value)

    def test_concat_and_slice_roundtrip(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        b = Tensor(np.arange(4.0).reshape(2, 2))
        joined = ad.concat([a, b], axis=1)
        assert np.array_equal(ad.col_slice(joined, 3, 5).data, b.data)

    def test_embedding_lookup(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        assert np.array_equal(ad.embedding_lookup(table, 2).data, [6.0, 7.0, 8.0])
        assert np.array_equal(
            ad.embedding_lookup(table, [1, 1, 0]).data,
            [[3.0, 4.0, 5.0], [3.0, 4.0, 5.0], [0.0, 1.0, 2.0]],
        )


class TestBackward:
    def test_grad_of_sum_is_ones(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        with Tape() as tape:
            loss = ad.sum_(x)
            backward(tape, loss)
        assert np.array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_grad_of_square_sum(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            loss = ad.sum_(ad.mul(x, x))
            backward(tape, loss)
        assert np.array_equal(x.grad, [2.0, 4.0])

    def test_accumulation_is_linear(self):
        x = Tensor([1.0, -2.0, 0.5], requires_grad=True)

        def f_sum(t):
            return ad.add(ad.sum_(ad.mul(t, t)), ad.sum_(ad.sigmoid(t)))

        with Tape() as tape:
            backward(tape, f_sum(x))
        combined = x.grad.copy()

        x.zero_grad()
        with Tape() as tape:
            backward(tape, ad.sum_(ad.mul(x, x)))
        part1 = x.grad.copy()
        x.zero_grad()
        with Tape() as tape:
            backward(tape, ad.sum_(ad.sigmoid(x)))
        part2 = x.grad.copy()
        assert np.allclose(combined, part1 + part2, atol=1e-15)

    def test_two_layer_mlp_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        w1 = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w2 = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        x = Tensor(rng.normal(size=3))

        def loss_wrt(param):
            def f(_):
                h = ad.tanh(ad.matmul(w1, x))
                out = ad.sigmoid(ad.matmul(w2, h))
                return ad.sum_(ad.mul(out, out))
            return f

        for p in (w1, w2):
            report = ad.grad_check(loss_wrt(p), p)
            assert report.passed, report

    def test_backward_requires_scalar_on_tape(self):
        x = Tensor([1.0], requires_grad=True)
        with Tape() as tape:
            y = ad.mul(x, x)
        with pytest.raises(GraphError):
            backward(tape, Tensor(1.0))
        with pytest.raises(GraphError):
            backward(Tape(), y)

    def test_single_backward_per_tape(self):
        x = Tensor([1.0], requires_grad=True)
        with Tape() as tape:
            loss = ad.sum_(ad.mul(x, x))
        backward(tape, loss)
        with pytest.raises(GraphError):
            backward(tape, loss)

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(3)
            x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
            with Tape() as tape:
                loss = ad.sum_(ad.row_softmax(ad.matmul(x, ad.transpose(x))))
                backward(tape, loss)
            return loss.data.copy(), x.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert np.array_equal(l1, l2)
        assert np.array_equal(g1, g2)


class TestCompositeGradients:
    def test_layer_norm_finite_differences(self):
        rng = np.random.default_rng(23)
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        gain = Tensor(rng.normal(size=5), requires_grad=True)
        bias = Tensor(rng.normal(size=5), requires_grad=True)

        def f(_):
            return ad.sum_(ad.mul(ad.layer_norm(x, gain, bias), ad.layer_norm(x, gain, bias)))

        for p in (x, gain, bias):
            report = ad.grad_check(f, p)
            assert report.passed, report

    def test_cross_entropy_uniform_is_log_vocab(self):
        logits = Tensor(np.zeros((4, 11)), requires_grad=True)
        loss = ad.cross_entropy_logits(logits, [1, 5, 0, 10])
        assert abs(loss.item() - np.log(11)) < 1e-12

    def test_cross_entropy_finite_differences(self):
        rng = np.random.default_rng(5)
        logits = Tensor(rng.normal(size=(4, 7)), requires_grad=True)
        targets = [2, 0, 6, 3]

        def f(t):
            return ad.cross_entropy_logits(t, targets)

        report = ad.grad_check(f, logits)
        assert report.passed, report

    def test_row_softmax_mask_blocks_gradient(self):
        x = Tensor(np.array([[1.0, 2.0, 3.0]]), requires_grad=True)
        mask = np.array([[0.0, -np.inf, 0.0]])
        with Tape() as tape:
            y = ad.row_softmax(x, mask)
            backward(tape, ad.sum_(ad.mul(y, y)))
        assert y.data[0, 1] == 0.0
        assert x.grad[0, 1] == 0.0


class TestSegmentSum:
    def test_sums_rows_into_their_segments(self):
        x = Tensor(np.arange(8.0).reshape(4, 2))
        y = ad.segment_sum(x, [2, 0, 2, 0], 4)
        assert np.array_equal(y.data, [[8.0, 10.0], [0.0, 0.0], [4.0, 6.0], [0.0, 0.0]])

    def test_grad_check_with_repeated_and_unused_ids(self):
        rng = np.random.default_rng(17)
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        weights = Tensor(rng.normal(size=(4, 3)))

        def f(t):
            # ids 1 and 3 repeat, id 2 is unused
            return ad.sum_(ad.mul(ad.segment_sum(t, [3, 1, 0, 1, 3], 4), weights))

        report = ad.grad_check(f, x)
        assert report.passed, report

    def test_one_id_per_row(self):
        x = Tensor(np.zeros((3, 2)))
        with pytest.raises(ShapeError):
            ad.segment_sum(x, [0, 1], 2)
        with pytest.raises(ShapeError):
            ad.segment_sum(x, [0, 1, 1, 0], 2)

    @pytest.mark.parametrize("bad_id", [-1, 2, 7])
    def test_ids_outside_range_are_rejected(self, bad_id):
        x = Tensor(np.zeros((3, 2)))
        with pytest.raises(ShapeError):
            ad.segment_sum(x, [0, bad_id, 1], 2)


class TestGradCheckUtility:
    def test_sum_has_zero_error(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        report = ad.grad_check(lambda t: ad.sum_(t), x)
        assert report.passed
        assert report.max_rel_error < 1e-9

    def test_detects_wrong_gradient(self):
        # sabotage: report gradient of 2x for f(x) = sum(x)
        x = Tensor([1.0, 2.0], requires_grad=True)
        report = ad.grad_check(lambda t: ad.scalar_mul(ad.sum_(ad.mul(t, t)), 0.5), x)
        assert report.passed  # sanity: correct composite op passes
        bad = ad.grad_check(lambda t: ad.sum_(t), x, h=1e-5, tol=1e-12)
        assert not (bad.max_rel_error > 1e-6)  # sum is exact; tol governs pass


class TestAdam:
    def test_quadratic_converges(self):
        x = Tensor([5.0, -3.0], requires_grad=True)
        opt = Adam([x], lr=0.1)
        for _ in range(300):
            with Tape() as tape:
                loss = ad.sum_(ad.mul(x, x))
                backward(tape, loss)
            opt.step()
            opt.zero_grad()
        assert np.all(np.abs(x.data) < 1e-3)

    def test_rejects_bad_learning_rate(self):
        with pytest.raises(ValueError):
            Adam([Tensor([1.0], requires_grad=True)], lr=0.0)
