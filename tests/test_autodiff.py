import inspect
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basts import autodiff as ad
from basts.autodiff import Adam, GraphError, NaNError, ShapeError, Tape, Tensor, backward
from basts.frontend import AstNode
from basts.splitter import SplitAst
from basts.syntax_encoder import TreeLstmParams, encode_trees
from oracles import (
    allowed_block,
    attention_per_head,
    attention_reference,
    col_slice,
    grad_check,
    layer_norm_reference,
    row_softmax,
    segment_sum,
    tanh,
)


class TestForwardOps:
    def test_softmax_symmetry(self):
        y = row_softmax(Tensor([0.0, 0.0]))
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
        y = row_softmax(x)
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
        assert np.array_equal(col_slice(joined, 3, 5).data, b.data)

    def test_embedding_lookup(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        assert np.array_equal(
            ad.embedding_lookup(table, [1, 1, 0]).data,
            [[3.0, 4.0, 5.0], [3.0, 4.0, 5.0], [0.0, 1.0, 2.0]],
        )

    @pytest.mark.parametrize("indices", [2, [[1], [2]]])
    def test_embedding_lookup_rejects_non_1d_indices(self, indices):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        with pytest.raises(ShapeError):
            ad.embedding_lookup(table, indices)

    @pytest.mark.parametrize("indices", [[-1], [4], [0, 2, -3]])
    def test_embedding_lookup_rejects_indices_outside_table(self, indices):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        with pytest.raises(ShapeError):
            ad.embedding_lookup(table, indices)

    def test_empty_lookup_backprops_zero_gradient(self):
        table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        with Tape() as tape:
            rows = ad.embedding_lookup(table, [])
            assert rows.shape == (0, 3)
            loss = ad.add(ad.sum_(rows), ad.sum_(ad.embedding_lookup(table, [1])))
            backward(tape, loss)
        assert np.array_equal(table.grad, [[0, 0, 0], [1, 1, 1], [0, 0, 0], [0, 0, 0]])


def _zeros(*shape):
    return Tensor(np.zeros(shape))


class TestShapeErrors:
    @pytest.mark.parametrize("op, message", [
        (lambda: ad.matmul(_zeros(2, 3, 4), _zeros(4, 2)),
         "matmul needs 2D@2D, 2D@1D or 1D@2D, got (2, 3, 4) @ (4, 2)"),
        (lambda: ad.matmul(_zeros(3), _zeros(3)),
         "matmul needs 2D@2D, 2D@1D or 1D@2D, got (3,) @ (3,)"),
        (lambda: ad.mul(_zeros(2, 3), _zeros(3, 2)), "mul shapes differ: (2, 3) vs (3, 2)"),
        (lambda: ad.add_rowvec(_zeros(2, 3), _zeros(2)), "add_rowvec shapes differ: (2, 3) vs (2,)"),
        (lambda: ad.add_rowvec(_zeros(3), _zeros(3)), "add_rowvec shapes differ: (3,) vs (3,)"),
        (lambda: ad.attention(_zeros(2, 4), _zeros(2, 4, 1), _zeros(2, 4), 1, [(2, 2)]),
         "attention expects matrices, got (2, 4), (2, 4, 1), (2, 4)"),
        (lambda: ad.embedding_lookup(_zeros(4), [1]), "embedding table must be 2D, got (4,)"),
        (lambda: ad.embedding_lookup(_zeros(4, 3, 2), [1]),
         "embedding table must be 2D, got (4, 3, 2)"),
        (lambda: ad.layer_norm(_zeros(2, 3), _zeros(2), _zeros(3)),
         "layer_norm shapes differ: (2, 3), (2,), (3,)"),
        (lambda: ad.layer_norm(_zeros(3), _zeros(3), _zeros(3)),
         "layer_norm shapes differ: (3,), (3,), (3,)"),
        (lambda: ad.cross_entropy_logits(_zeros(2, 5), [1, 2, 3]),
         "cross entropy shapes differ: (2, 5) vs (3,)"),
        (lambda: ad.cross_entropy_logits(_zeros(5), [1]),
         "cross entropy shapes differ: (5,) vs (1,)"),
    ], ids=["matmul 3-D", "matmul 1-D@1-D", "mul", "add_rowvec width", "add_rowvec vector",
            "attention", "embedding vector table", "embedding 3-D table",
            "layer_norm gain", "layer_norm vector", "cross entropy targets",
            "cross entropy vector"])
    def test_exact_message(self, op, message):
        with pytest.raises(ShapeError) as err:
            op()
        assert str(err.value) == message

    def test_backward_of_a_non_scalar_loss(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = ad.mul(x, x)
        with pytest.raises(GraphError, match=r"^loss must be scalar, got shape \(2,\)$"):
            backward(tape, y)
        assert x.grad is None and not tape.used


class TestNonFiniteGate:
    @pytest.mark.parametrize("held", [None, 0.5], ids=["no grads", "held grads"])
    def test_a_nan_in_one_leaf_gradient_writes_no_grad(self, held):
        # relu hides the NaN input from the loss and from b's gradient, not from w's
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        for leaf in (w, b):
            leaf.grad = None if held is None else np.full(leaf.shape, held)
        before = [None if leaf.grad is None else leaf.grad.copy() for leaf in (w, b)]
        x = Tensor(np.full((4, 3), np.nan))
        with Tape() as tape:
            loss = ad.sum_(ad.relu(ad.add_rowvec(ad.matmul(x, w), b)))
            assert loss.item() == 0.0
            with pytest.raises(NaNError) as err:
                backward(tape, loss)
        assert str(err.value) == "non-finite gradient of a leaf of shape (3, 2)"
        for leaf, old in zip((w, b), before):
            assert (leaf.grad is None) if old is None else np.array_equal(leaf.grad, old)

    def test_an_infinite_loss_with_finite_gradients_raises(self):
        # a target logit at -inf: the loss is inf, yet the logits' gradient
        # is finite, so only the loss check stops the step
        logits = Tensor([[0.0, -np.inf]], requires_grad=True)
        with Tape() as tape:
            loss = ad.cross_entropy_logits(logits, [1])
        (grad,) = loss.node.backward_fn(np.float64(1.0))
        assert np.array_equal(grad, [[1.0, -1.0]])
        with pytest.raises(NaNError, match="^non-finite loss inf$"):
            backward(tape, loss)
        assert logits.grad is None


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
                h = tanh(ad.matmul(w1, x))
                out = ad.sigmoid(ad.matmul(w2, h))
                return ad.sum_(ad.mul(out, out))
            return f

        for p in (w1, w2):
            report = grad_check(loss_wrt(p), p)
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
                loss = ad.sum_(row_softmax(ad.matmul(x, Tensor(x.data.T))))
                backward(tape, loss)
            return loss.data.copy(), x.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert np.array_equal(l1, l2)
        assert np.array_equal(g1, g2)


def _tree_fold(_):
    """`encode_trees` over two small trees; its inputs are the parameters."""
    root = AstNode("A", children=[AstNode("B"), AstNode("A", children=[AstNode("B")])])
    params = TreeLstmParams.init({"<UNK>": 0, "A": 1, "B": 2}, 4, np.random.default_rng(1))
    return encode_trees([SplitAst(0, root), SplitAst(1, AstNode("B"))], params)


# one call of every public op and of the tree fold; `produced(*shape)` is a
# tensor that an op made on the recording tape, so a closure that kept an
# input tensor would keep an op output
OP_CALLS = {
    "matmul": lambda p: ad.matmul(p(3, 4), p(4, 2)),
    "matmul-vector": lambda p: ad.matmul(p(3, 4), p(4)),
    "add": lambda p: ad.add(p(3, 4), p(3, 4)),
    "add-0d-left": lambda p: ad.add(p(), p(3, 4)),
    "add-0d-right": lambda p: ad.add(p(3, 4), p()),
    "mul": lambda p: ad.mul(p(3, 4), p(3, 4)),
    "scalar_mul": lambda p: ad.scalar_mul(p(3, 4), 0.5),
    "add_rowvec": lambda p: ad.add_rowvec(p(3, 4), p(4)),
    "sigmoid": lambda p: ad.sigmoid(p(3, 4)),
    "relu": lambda p: ad.relu(p(3, 4)),
    "log": lambda p: ad.log(p(3, 4), floor=0.1),
    "attention": lambda p: ad.attention(p(5, 4), p(6, 4), p(6, 4), 2, [(2, 2), (3, 4)]),
    "attention-causal": lambda p: ad.attention(p(5, 4), p(5, 4), p(5, 4), 2, [(2, 2), (3, 3)],
                                               causal=True),
    "concat": lambda p: ad.concat([p(2, 4), p(3, 4)]),
    "concat-columns": lambda p: ad.concat([p(3, 2), p(3, 4)], axis=1),
    "sum_": lambda p: ad.sum_(p(3, 4)),
    "embedding_lookup": lambda p: ad.embedding_lookup(p(5, 4), [1, 4, 1]),
    "layer_norm": lambda p: ad.layer_norm(p(3, 4), p(4), p(4)),
    "cross_entropy_logits": lambda p: ad.cross_entropy_logits(p(3, 5), [0, 4, 2]),
    "encode_trees": _tree_fold,
}


def _captured(fn):
    """Every object a function's closure reaches through closures of nested
    functions and items of lists and tuples."""
    found, stack = [], [fn]
    while stack:
        obj = stack.pop()
        if any(obj is seen for seen in found):
            continue
        if inspect.isfunction(obj):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        found.append(obj)
    return found


class TestTapeKeeps:
    """A node keeps its producers and leaves, and a backward only what it reads."""

    def test_op_calls_cover_every_public_op(self):
        public = {name for name, f in vars(ad).items()
                  if inspect.isfunction(f) and not name.startswith("_")
                  and f.__module__ == ad.__name__ and f.__annotations__.get("return") == "Tensor"}
        assert public | {"encode_trees"} == {name.split("-")[0] for name in OP_CALLS}

    @pytest.mark.parametrize("name", OP_CALLS)
    def test_no_backward_closure_holds_an_op_output(self, name):
        rng = np.random.default_rng(0)

        def produced(*shape):
            leaf = Tensor(rng.uniform(0.5, 1.5, size=shape), requires_grad=True)
            return ad.scalar_mul(leaf, 1.0)

        with Tape() as tape:
            OP_CALLS[name](produced)
        held = [obj for node in tape.nodes for obj in _captured(node.backward_fn)
                if isinstance(obj, Tensor) and obj.node is not None]
        assert held == []

    @pytest.mark.parametrize("producer", ["add", "add_rowvec", "concat", "matmul"])
    def test_an_output_no_backward_saves_is_freed_while_its_tape_lives(self, producer):
        rng = np.random.default_rng(4)
        m = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        v = Tensor(rng.normal(size=3), requires_grad=True)
        make = {"add": lambda: ad.add(m, m), "add_rowvec": lambda: ad.add_rowvec(m, v),
                "concat": lambda: ad.concat([m, m]), "matmul": lambda: ad.matmul(m, m)}[producer]

        def grads(keep):
            m.zero_grad(), v.zero_grad()
            with Tape() as tape:
                out = make()
                dropped = weakref.ref(out)
                loss = ad.sum_(ad.relu(out))  # relu saves its mask, not its input
                if not keep:
                    del out
                assert (dropped() is None) is not keep
                backward(tape, loss)
            return m.grad, v.grad

        assert all(np.array_equal(a, b) for a, b in zip(grads(False), grads(True)))

    @pytest.mark.parametrize("requires_grad", [False, True])
    def test_an_outer_tapes_output_is_a_leaf_on_an_inner_tape(self, requires_grad):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        with Tape() as outer:
            y = ad.scalar_mul(x, 2.0)
            y.requires_grad = requires_grad
            with Tape() as inner:
                z = ad.sum_(ad.mul(y, y))
            assert inner.nodes[0].inputs == (y, y)
            backward(inner, z)
            # the inner backward ends at y, which has a grad only if it asks for one
            assert x.grad is None
            assert (y.grad is not None) is requires_grad
            if requires_grad:
                assert np.array_equal(y.grad, 2.0 * y.data)
            backward(outer, ad.sum_(y))
        assert np.array_equal(x.grad, [2.0, 2.0, 2.0])

    @pytest.mark.parametrize("source", ["leaf", "op output"])
    def test_consumers_add_gradients_in_reverse_tape_order(self, source):
        x = Tensor(np.ones(2), requires_grad=True)
        weights = [np.array([1.0, 3.0]), np.array([1e16, 1e16]), np.array([-1e16, -1e16])]
        with Tape() as tape:
            y = x if source == "leaf" else ad.scalar_mul(x, 1.0)
            parts = [ad.sum_(ad.mul(y, Tensor(w))) for w in weights]
            backward(tape, ad.add(ad.add(parts[0], parts[1]), parts[2]))
        # each consumer's gradient is its weight; the last consumer's comes first
        w0, w1, w2 = weights
        assert np.array_equal(x.grad, (w2 + w1) + w0)
        assert not np.array_equal(x.grad, (w0 + w1) + w2)  # so the order shows

    @pytest.mark.parametrize("untracked", [0, 1])
    def test_an_untracked_input_gets_no_gradient(self, untracked):
        pair = [Tensor([1.0, 2.0]), Tensor([3.0, -4.0])]
        tracked = pair[1 - untracked]
        tracked.requires_grad = True
        with Tape() as tape:
            loss = ad.sum_(ad.mul(*pair))
            kept = tape.nodes[0].inputs
            assert kept[untracked] is None and kept[1 - untracked] is tracked
            backward(tape, loss)
        assert pair[untracked].grad is None
        assert np.array_equal(tracked.grad, pair[untracked].data)


class TestCompositeGradients:
    def test_layer_norm_finite_differences(self):
        rng = np.random.default_rng(23)
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        gain = Tensor(rng.normal(size=5), requires_grad=True)
        bias = Tensor(rng.normal(size=5), requires_grad=True)

        def f(_):
            return ad.sum_(ad.mul(ad.layer_norm(x, gain, bias), ad.layer_norm(x, gain, bias)))

        for p in (x, gain, bias):
            report = grad_check(f, p)
            assert report.passed, report

    def test_embedding_lookup_repeated_indices_finite_differences(self):
        rng = np.random.default_rng(19)
        table = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        weights = Tensor(rng.normal(size=(6, 3)))

        def f(t):
            # rows 1 and 4 repeat, row 2 is never read
            return ad.sum_(ad.mul(tanh(ad.embedding_lookup(t, [1, 4, 0, 1, 4, 1])), weights))

        report = grad_check(f, table)
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

        report = grad_check(f, logits)
        assert report.passed, report

    def test_row_softmax_mask_blocks_gradient(self):
        x = Tensor(np.array([[1.0, 2.0, 3.0]]), requires_grad=True)
        mask = np.array([[0.0, -np.inf, 0.0]])
        with Tape() as tape:
            y = row_softmax(x, mask)
            backward(tape, ad.sum_(ad.mul(y, y)))
        assert y.data[0, 1] == 0.0
        assert x.grad[0, 1] == 0.0


def _masks(n, m, kind):
    """The oracles' additive [n, m] block of a sequence: none, causal (n == m),
    or padding, whose last two keys no query sees."""
    allowed = allowed_block(n, m, causal=kind == "causal")
    if kind == "padding":
        allowed[:, m - 2:] = False
    return np.where(allowed, 0.0, -np.inf)


def _layout(q_lengths, k_lengths, kinds):
    """`attention`'s lengths and causal flag for packed sequences of these kinds.

    A padding sequence's last two keys are packed as a sequence of their
    own, which has no queries, so no query sees them. The causal flag is
    one per call, so causal sequences are not packed with others.
    """
    causal = kinds[0] == "causal"
    assert all((kind == "causal") == causal for kind in kinds)
    lengths = []
    for n, m, kind in zip(q_lengths, k_lengths, kinds):
        lengths += [(n, m - 2), (0, 2)] if kind == "padding" else [(n, m)]
    return lengths, causal


def _attention_grads(fn, q, k, v, weights, *args):
    """Output and (dq, dk, dv) of sum(fn(q, k, v, *args) * weights)."""
    for t in (q, k, v):
        t.zero_grad()
    with Tape() as tape:
        out = fn(q, k, v, *args)
        backward(tape, ad.sum_(ad.mul(out, weights)))
    grads = [t.grad.copy() for t in (q, k, v)]
    for t in (q, k, v):
        t.zero_grad()
    return out.data, grads


class TestAttention:
    CASES = [  # heads, query rows, key rows, kind
        (1, 5, 5, "none"),
        (2, 5, 5, "causal"),
        (4, 6, 6, "causal"),
        (1, 3, 7, "padding"),
        (2, 4, 6, "padding"),
        (4, 7, 3, "none"),
    ]

    def _inputs(self, n, m, size=8, seed=0):
        rng = np.random.default_rng(seed)
        q = Tensor(rng.normal(size=(n, size)), requires_grad=True)
        k = Tensor(rng.normal(size=(m, size)), requires_grad=True)
        v = Tensor(rng.normal(size=(m, size)), requires_grad=True)
        return q, k, v, Tensor(rng.normal(size=(n, size)))

    @pytest.mark.parametrize("heads,n,m,kind", CASES)
    def test_matches_per_head_oracle(self, heads, n, m, kind):
        q, k, v, weights = self._inputs(n, m, seed=heads * 10 + n)
        out, grads = _attention_grads(ad.attention, q, k, v, weights, heads,
                                      *_layout([n], [m], [kind]))
        ref, ref_grads = _attention_grads(attention_per_head, q, k, v, weights, heads,
                                          _masks(n, m, kind))
        assert np.max(np.abs(out - ref)) <= 1e-12
        for g, r in zip(grads, ref_grads):
            assert np.max(np.abs(g - r)) <= 1e-10 * np.max(np.abs(r))

    @pytest.mark.parametrize("heads,n,m,kind", CASES)
    def test_grad_check_q_k_v(self, heads, n, m, kind):
        q, k, v, weights = self._inputs(n, m, seed=heads + n + m)
        lengths, causal = _layout([n], [m], [kind])

        def f(_):
            return ad.sum_(ad.mul(ad.attention(q, k, v, heads, lengths, causal), weights))

        for target in (q, k, v):
            report = grad_check(f, target)
            assert report.passed, report

    def test_masked_key_has_weight_exactly_zero(self):
        q, k, v, _ = self._inputs(4, 6)
        lengths = [(4, 4), (0, 2)]  # keys 4 and 5 are a sequence without queries
        base = ad.attention(q, k, v, 2, lengths).data
        v.data[4:] += 1e3
        k.data[5] -= 7.0
        assert np.array_equal(ad.attention(q, k, v, 2, lengths).data, base)

    def test_masked_key_gets_no_gradient(self):
        q, k, v, weights = self._inputs(4, 6)
        _, (_, dk, dv) = _attention_grads(ad.attention, q, k, v, weights, 2,
                                          [(4, 4), (0, 2)])
        assert not dk[4:].any() and not dv[4:].any()

    def test_only_a_causal_call_adds_a_mask(self, monkeypatch):
        q, k, v, _ = self._inputs(4, 4)
        built = []

        def counting_causal(s, causal=ad._causal):
            built.append(s)
            return causal(s)

        monkeypatch.setattr(ad, "_causal", counting_causal)
        ad.attention(q, k, v, 2, [(1, 1), (3, 3)])
        assert built == []
        ad.attention(q, k, v, 2, [(1, 1), (3, 3)], causal=True)
        assert built == [1, 3]

    # a sequence's (query rows, key rows) is the shape of its block of the scores
    @pytest.mark.parametrize("shape", [(3, 2), (2, 2)])
    def test_mask_shape_must_be_queries_by_keys(self, shape):
        q, k, v, _ = self._inputs(2, 3)
        with pytest.raises(ShapeError, match="cover"):
            ad.attention(q, k, v, 2, [shape])

    @pytest.mark.parametrize("heads", [0, 3, 16])
    def test_head_count_must_split_the_width(self, heads):
        q, k, v, _ = self._inputs(2, 2)
        with pytest.raises(ShapeError):
            ad.attention(q, k, v, heads, [(2, 2)])

    def test_k_and_v_rows_must_match(self):
        q, k, _, _ = self._inputs(2, 3)
        _, _, v, _ = self._inputs(2, 4)
        with pytest.raises(ShapeError):
            ad.attention(q, k, v, 2, [(2, 3)])

    def test_widths_must_match(self):
        q, _, _, _ = self._inputs(2, 3)
        _, k, v, _ = self._inputs(2, 3, size=6)
        with pytest.raises(ShapeError):
            ad.attention(q, k, v, 2, [(2, 3)])


def _packed(q_lengths, k_lengths, size=8, seed=0):
    """Random packed q, k, v, output weights and (q, k) row offsets.

    The offsets are for the tests' own slicing; `autodiff.attention` counts
    each sequence's rows from its lengths.
    """
    q_off, k_off = np.cumsum([0] + q_lengths), np.cumsum([0] + k_lengths)
    rng = np.random.default_rng(seed)
    q, k, v = (Tensor(rng.normal(size=(rows, size)), requires_grad=True)
               for rows in (q_off[-1], k_off[-1], k_off[-1]))
    weights = Tensor(rng.normal(size=(q_off[-1], size)))
    return q, k, v, weights, (q_off, k_off)


class TestSegmentedAttention:
    """Packed rows: each sequence's queries see only its own keys, in one op."""

    CASES = [  # heads, query rows, key rows and kind of each sequence
        (2, [3, 1, 5], [4, 6, 2], ["none", "padding", "none"]),
        (4, [4, 2], [4, 2], ["causal", "causal"]),
        (1, [2, 0, 3], [3, 2, 3], ["padding", "none", "none"]),
    ]

    @pytest.mark.parametrize("heads,q_lengths,k_lengths,kinds", CASES)
    def test_bit_equal_to_separate_one_segment_calls(self, heads, q_lengths, k_lengths,
                                                    kinds):
        q, k, v, weights, (q_off, k_off) = _packed(q_lengths, k_lengths)
        out, grads = _attention_grads(ad.attention, q, k, v, weights, heads,
                                      *_layout(q_lengths, k_lengths, kinds))
        for b, (n, m, kind) in enumerate(zip(q_lengths, k_lengths, kinds)):
            qs, ks = slice(q_off[b], q_off[b + 1]), slice(k_off[b], k_off[b + 1])
            parts = [Tensor(t.data[s], requires_grad=True)
                     for t, s in ((q, qs), (k, ks), (v, ks))]
            ref, ref_grads = _attention_grads(ad.attention, *parts, Tensor(weights.data[qs]),
                                              heads, *_layout([n], [m], [kind]))
            assert np.array_equal(out[qs], ref)
            for g, r, s in zip(grads, ref_grads, (qs, ks, ks)):
                assert np.array_equal(g[s], r)

    @pytest.mark.parametrize("heads,q_lengths,k_lengths,kinds", CASES)
    def test_grad_check_q_k_v(self, heads, q_lengths, k_lengths, kinds):
        q, k, v, weights, _ = _packed(q_lengths, k_lengths, seed=3)
        lengths, causal = _layout(q_lengths, k_lengths, kinds)

        def f(_):
            out = ad.attention(q, k, v, heads, lengths, causal)
            return ad.sum_(ad.mul(out, weights))

        for target in (q, k, v):
            report = grad_check(f, target)
            assert report.passed, report

    # 5 query and 5 key rows; each case gives the row offsets where its sequences end
    @pytest.mark.parametrize("q_off,k_off", [
        ([0, 2, 4], [0, 3, 5]),  # the sequences cover too few query rows
        ([0, 2, 6], [0, 3, 5]),  # too many query rows
        ([0, 2, 5], [0, 3, 4]),  # too few key rows
        ([0, 2, 5], [0, 3, 6]),  # too many key rows
        ([0], [0]),  # no sequence at all
        ([0, 2, 5, 6], [0, 3, 5, 6]),  # one sequence too many
    ])
    def test_segments_must_tile_the_rows(self, q_off, k_off):
        q, k, v, _, _ = _packed([2, 3], [3, 2])
        lengths = [(q_off[b + 1] - q_off[b], k_off[b + 1] - k_off[b])
                   for b in range(len(q_off) - 1)]
        with pytest.raises(ShapeError, match=f"cover {q_off[-1]} query and "
                                             f"{k_off[-1]} key rows, not 5 and 5"):
            ad.attention(q, k, v, 2, lengths)

    def test_mask_block_must_match_its_segment(self):
        q, k, v, _, _ = _packed([2, 3], [3, 2])
        with pytest.raises(ShapeError, match="cover 5 query and 6 key rows"):
            ad.attention(q, k, v, 2, [(2, 3), (3, 3)])

    # 5 query and 5 key rows, as above
    @pytest.mark.parametrize("lengths,causal,fault", [
        ([(2, 3), (3, 0)], False, "sequence 1 cannot have 3 query and 0 key rows"),
        ([(3, 3), (-1, 1), (3, 1)], False, "sequence 1 cannot have -1 query and 1 key rows"),
        ([(2, 6), (3, -1)], False, "sequence 1 cannot have 3 query and -1 key rows"),
        ([(2, 3), (3, 2)], True, "sequence 0 cannot have 2 query and 3 key rows when causal"),
    ])
    def test_malformed_lengths_name_the_sequence(self, lengths, causal, fault):
        q, k, v, _, _ = _packed([2, 3], [3, 2])
        with pytest.raises(ShapeError, match=f"^attention {fault}$"):
            ad.attention(q, k, v, 2, lengths, causal)

    @pytest.mark.parametrize("entry,shown", [((3,), r"\(3,\)"), ((1, 2, 3), r"\(1, 2, 3\)"),
                                             (5, "5")],
                             ids=["one count", "three counts", "bare int"])
    def test_a_sequence_that_is_not_a_pair_is_named(self, entry, shown):
        q, k, v, _, _ = _packed([2, 3], [3, 2])
        with pytest.raises(ShapeError, match=f"^attention sequence 1 must be a pair of "
                                             f"row counts, got {shown}$"):
            ad.attention(q, k, v, 2, [(2, 3), entry])


# packed sequences: each one's query rows (0 and 1 included) and key rows
_SEQUENCES = st.lists(st.tuples(st.integers(0, 5), st.integers(1, 6)),
                      min_size=1, max_size=4)


class TestBitIdentity:
    """`attention` and `layer_norm` equal their pre-in-place forms bit for bit."""

    # 300 draws of 1 to 4 sequences; about 2 s
    @settings(max_examples=300)
    @given(heads=st.sampled_from([1, 2, 4]), width=st.integers(1, 3),
           sequences=_SEQUENCES, causal=st.booleans(),
           magnitude=st.integers(-3, 3), seed=st.integers(0, 2**32 - 1))
    def test_attention_matches_reference(self, heads, width, sequences, causal, magnitude,
                                         seed):
        if causal:  # a causal sequence is square
            sequences = [(n, n) for n, _ in sequences]
        q_lengths, k_lengths = (list(column) for column in zip(*sequences))
        q, k, v, weights, _ = _packed(q_lengths, k_lengths, size=heads * width, seed=seed)
        q.data *= 10.0 ** magnitude
        blocks = [_masks(n, m, "causal" if causal else "none") for n, m in sequences]
        out, grads = _attention_grads(ad.attention, q, k, v, weights, heads, sequences,
                                      causal)
        ref, ref_grads = _attention_grads(attention_reference, q, k, v, weights, heads,
                                          blocks)
        assert np.array_equal(out, ref)
        for g, r in zip(grads, ref_grads):
            assert np.array_equal(g, r)

    # 300 draws; about 1 s
    @settings(max_examples=300)
    @given(rows=st.integers(1, 7), width=st.integers(1, 70),
           magnitude=st.integers(-3, 3), seed=st.integers(0, 2**32 - 1))
    def test_layer_norm_matches_reference(self, rows, width, magnitude, seed):
        rng = np.random.default_rng(seed)
        x, gain, bias = (Tensor(rng.normal(size=shape) * 10.0 ** magnitude,
                                requires_grad=True)
                         for shape in ((rows, width), (width,), (width,)))
        weights = Tensor(rng.normal(size=(rows, width)))
        results = []
        for fn in (ad.layer_norm, layer_norm_reference):
            with Tape() as tape:
                out = fn(x, gain, bias)
                backward(tape, ad.sum_(ad.mul(out, weights)))
            results.append([out.data] + [t.grad for t in (x, gain, bias)])
            for t in (x, gain, bias):
                t.zero_grad()
        for got, want in zip(*results):
            assert np.array_equal(got, want)


class TestScatterRows:
    """The `np.bincount` scatter behind `embedding_lookup` and the oracles' `segment_sum`."""

    @pytest.mark.parametrize("tail", [(), (5,), (3, 4)])
    def test_bit_equal_to_add_at(self, tail):
        rng = np.random.default_rng(23)
        n = 9
        # ids repeat, and ids 7 and 8 are never drawn
        ids = rng.integers(0, 7, size=60).astype(np.intp)
        rows = rng.normal(size=(60,) + tail) * 10.0 ** rng.integers(-8, 8, size=(60,) + tail)
        want = np.zeros((n,) + tail)
        np.add.at(want, ids, rows)
        got = ad._scatter_rows(ids, rows, n)
        assert got.dtype == np.float64
        assert np.array_equal(got, want)
        assert not got[7:].any()

    @pytest.mark.parametrize("tail", [(), (3,), (2, 2)])
    def test_empty_input_gives_float_zeros(self, tail):
        got = ad._scatter_rows(np.zeros(0, dtype=np.intp), np.zeros((0,) + tail), 4)
        assert got.dtype == np.float64 and got.shape == (4,) + tail
        assert not got.any()


class TestSegmentSum:
    def test_sums_rows_into_their_segments(self):
        x = Tensor(np.arange(8.0).reshape(4, 2))
        y = segment_sum(x, [2, 0, 2, 0], 4)
        assert np.array_equal(y.data, [[8.0, 10.0], [0.0, 0.0], [4.0, 6.0], [0.0, 0.0]])

    def test_rows_add_in_their_order(self):
        # 1e16 + 1 rounds back to 1e16, so only the row order gives 0.0 here
        x = Tensor([[1e16], [1.0], [-1e16], [1.0]])
        y = segment_sum(x, [0, 0, 0, 1], 2)
        assert y.data[0, 0] == ((1e16 + 1.0) - 1e16) == 0.0
        assert y.data[1, 0] == 1.0

    def test_grad_check_3d_rows(self):
        rng = np.random.default_rng(29)
        x = Tensor(rng.normal(size=(6, 2, 3)), requires_grad=True)
        weights = Tensor(rng.normal(size=(4, 2, 3)))

        def f(t):
            return ad.sum_(ad.mul(segment_sum(t, [2, 0, 2, 3, 0, 2], 4), weights))

        report = grad_check(f, x)
        assert report.passed, report

    def test_grad_check_with_repeated_and_unused_ids(self):
        rng = np.random.default_rng(17)
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        weights = Tensor(rng.normal(size=(4, 3)))

        def f(t):
            # ids 1 and 3 repeat, id 2 is unused
            return ad.sum_(ad.mul(segment_sum(t, [3, 1, 0, 1, 3], 4), weights))

        report = grad_check(f, x)
        assert report.passed, report

    def test_one_id_per_row(self):
        x = Tensor(np.zeros((3, 2)))
        with pytest.raises(ShapeError):
            segment_sum(x, [0, 1], 2)
        with pytest.raises(ShapeError):
            segment_sum(x, [0, 1, 1, 0], 2)

    @pytest.mark.parametrize("bad_id", [-1, 2, 7])
    def test_ids_outside_range_are_rejected(self, bad_id):
        x = Tensor(np.zeros((3, 2)))
        with pytest.raises(ShapeError):
            segment_sum(x, [0, bad_id, 1], 2)


class TestAddScalarTensor:
    def test_zero_d_operand_broadcasts(self):
        v = Tensor(np.array([1.0, -2.0, 0.5]))
        b = Tensor(np.array(3.0))
        assert np.array_equal(ad.add(v, b).data, [4.0, 1.0, 3.5])
        assert np.array_equal(ad.add(b, v).data, [4.0, 1.0, 3.5])

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_grad_check_both_operands(self, side):
        rng = np.random.default_rng(23)
        m = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(np.array(0.4), requires_grad=True)
        weights = Tensor(rng.normal(size=(2, 3)))

        def f(_):
            total = ad.add(m, b) if side == "right" else ad.add(b, m)
            return ad.sum_(ad.mul(tanh(total), weights))

        for target in (m, b):
            report = grad_check(f, target)
            assert report.passed, report

    def test_other_shape_mismatches_still_raise(self):
        with pytest.raises(ShapeError):
            ad.add(Tensor(np.zeros(3)), Tensor(np.zeros(1)))


class TestGradCheckUtility:
    def test_sum_has_zero_error(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        report = grad_check(lambda t: ad.sum_(t), x)
        assert report.passed
        assert report.max_rel_error < 1e-9

    def test_detects_wrong_gradient(self):
        # sabotage: report gradient of 2x for f(x) = sum(x)
        x = Tensor([1.0, 2.0], requires_grad=True)
        report = grad_check(lambda t: ad.scalar_mul(ad.sum_(ad.mul(t, t)), 0.5), x)
        assert report.passed  # sanity: correct composite op passes
        bad = grad_check(lambda t: ad.sum_(t), x, h=1e-5, tol=1e-12)
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

    def test_steps_equal_the_textbook_update_bit_for_bit(self):
        """beta1 0.9, beta2 0.999 and eps 1e-8, in this operation order."""
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        data, m, v = x.data.copy(), np.zeros((3, 2)), np.zeros((3, 2))
        opt = Adam([x], lr=0.05)
        for t in range(1, 6):
            g = rng.normal(size=(3, 2))
            x.grad = g.copy()
            opt.step()
            m = m * 0.9 + (1.0 - 0.9) * g
            v = v * 0.999 + (1.0 - 0.999) * (g * g)
            data -= 0.05 * (m / (1.0 - 0.9 ** t)) / (np.sqrt(v / (1.0 - 0.999 ** t)) + 1e-8)
            assert np.array_equal(x.data, data)

    def test_rejects_bad_learning_rate(self):
        with pytest.raises(ValueError):
            Adam([Tensor([1.0], requires_grad=True)], lr=0.0)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_rejects_non_finite_learning_rate(self, lr):
        with pytest.raises(ValueError):
            Adam([Tensor([1.0], requires_grad=True)], lr=lr)
