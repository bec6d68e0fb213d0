"""Network tests: loop-based forward oracle, finite-difference gradients,
a hand-rolled Adam simulation, distribution-head statistics and the
allocator limits."""

import ctypes
import math
import os
import platform
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import special, stats

import dagmarl
from dagmarl.nn import (AdamState, BetaHead, CategoricalHead,
                        CheckpointMismatch, DenseNet, DimensionMismatch,
                        NonFiniteGradient, NonFiniteInput, NonFiniteParams,
                        ShapeMismatch,
                        adam_step, beta_shapes, beta_stats, betaln,
                        categorical_stats, digamma, frozen_action,
                        keep_freed_heap, sample_and_logprob, trigamma)
from helpers import (biases, n_params, padded_rows, parameters,
                     reference_categorical_stats, reference_sample_and_logprob,
                     weights)


def forward_oracle(net, x):
    """Plain triple-loop evaluation, no matrix ops.  Weights are stored
    (fan_out, fan_in)."""
    h = list(np.atleast_2d(x)[0])
    last = len(weights(net)) - 1
    for layer, (w, b) in enumerate(zip(weights(net), biases(net))):
        out = []
        for j in range(w.shape[0]):
            acc = b[j]
            for i in range(w.shape[1]):
                acc += h[i] * w[j, i]
            out.append(acc)
        if layer < last:
            out = [max(v, 0.0) for v in out]
        h = out
    return np.array(h)


def away_from_relu_kink(net, x, margin=1e-3):
    """True when no hidden preactivation sits near 0, where the true
    gradient jumps and finite differences are meaningless."""
    h = np.atleast_2d(np.asarray(x, dtype=float))
    for l, (w, b) in enumerate(zip(weights(net), biases(net))):
        z = h @ w.T + b
        if l < len(weights(net)) - 1:
            if np.any(np.abs(z) < margin):
                return False
            h = np.maximum(z, 0.0)
    return True


def numeric_grads(net, x, out_grad, h=1e-5):
    """Central finite differences of sum(out * out_grad) wrt every param."""
    grads = []
    for w, b in zip(weights(net), biases(net)):
        gw = np.zeros_like(w)
        gb = np.zeros_like(b)
        for arr, g in ((w, gw), (b, gb)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                old = arr[idx]
                arr[idx] = old + h
                hi = float(np.sum(net.forward(x) * out_grad))
                arr[idx] = old - h
                lo = float(np.sum(net.forward(x) * out_grad))
                arr[idx] = old
                g[idx] = (hi - lo) / (2.0 * h)
        grads.append((gw, gb))
    return grads


class TestForward:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            dims = [int(rng.integers(1, 5)) for _ in range(rng.integers(2, 5))]
            net = DenseNet(dims, np.random.default_rng(rng.integers(10 ** 6)))
            x = rng.standard_normal(dims[0])
            np.testing.assert_allclose(net.forward(x), forward_oracle(net, x),
                                       rtol=0, atol=1e-12)

    def test_identity_single_layer(self):
        net = DenseNet([3, 3])
        weights(net)[0][:] = np.eye(3)
        x = np.array([0.3, -1.2, 7.0])
        np.testing.assert_array_equal(net.forward(x), x)

    def test_batch_rows_independent(self):
        net = DenseNet([2, 4, 3], np.random.default_rng(1))
        xs = np.random.default_rng(2).standard_normal((5, 2))
        batched = net.forward(xs)
        for row, x in zip(batched, xs):
            # batched GEMM may reorder float summation vs the single row
            np.testing.assert_allclose(row, net.forward(x), rtol=0,
                                       atol=1e-12)

    def test_rejects_bad_input(self):
        net = DenseNet([2, 3], np.random.default_rng(0))
        with pytest.raises(DimensionMismatch):
            net.forward(np.zeros(5))
        with pytest.raises(NonFiniteInput):
            net.forward(np.array([1.0, np.nan]))

    def test_init_bounds(self):
        net = DenseNet([10, 20], np.random.default_rng(3))
        limit = math.sqrt(6.0 / 30.0)
        assert np.all(np.abs(weights(net)[0]) <= limit)
        assert np.all(biases(net)[0] == 0.0)


class TestBackward:
    def test_finite_difference_batch(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(20):
            dims = [int(rng.integers(1, 5)) for _ in range(rng.integers(2, 5))]
            net = DenseNet(dims, np.random.default_rng(rng.integers(10 ** 6)))
            batch = int(rng.integers(1, 4))
            x = rng.standard_normal((batch, dims[0]))
            while not away_from_relu_kink(net, x):
                x = rng.standard_normal((batch, dims[0]))
            out_grad = rng.standard_normal((batch, dims[-1]))
            out, cache = net.forward_cached(x)
            analytic = net.layer_views(net.backward(cache, out_grad))
            numeric = numeric_grads(net, x, out_grad)
            for (aw, ab), (nw, nb) in zip(analytic, numeric):
                for a, n in ((aw, nw), (ab, nb)):
                    scale = np.maximum(np.abs(n), 1.0)
                    worst = max(worst, float(np.max(np.abs(a - n) / scale)))
        assert worst <= 1e-6

    def test_grad_shapes_match_params(self):
        net = DenseNet([3, 5, 2], np.random.default_rng(7))
        out, cache = net.forward_cached(np.ones((4, 3)))
        grads = net.layer_views(net.backward(cache, np.ones((4, 2))))
        for w, b, (gw, gb) in zip(weights(net), biases(net), grads):
            assert gw.shape == w.shape and gb.shape == b.shape

    def test_rejects_wrong_grad_shape(self):
        net = DenseNet([3, 2], np.random.default_rng(7))
        out, cache = net.forward_cached(np.ones((4, 3)))
        with pytest.raises(ShapeMismatch):
            net.backward(cache, np.ones((4, 5)))


def adam_scalar_oracle(grad_fn, w0, lr, steps, beta1=0.9, beta2=0.999,
                       eps=1e-8):
    w, m, v = w0, 0.0, 0.0
    history = [w]
    for t in range(1, steps + 1):
        g = grad_fn(w)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mh = m / (1 - beta1 ** t)
        vh = v / (1 - beta2 ** t)
        w -= lr * mh / (math.sqrt(vh) + eps)
        history.append(w)
    return history


def adam_reference(params, grads, ms, vs, t, lr, beta1=0.9, beta2=0.999,
                   eps=1e-8):
    """Per-tensor Adam in the textbook op order, one array at a time."""
    for p, g, m, v in zip(params, grads, ms, vs):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


class TestAdam:
    def test_zero_grad_keeps_params(self):
        net = DenseNet([2, 3], np.random.default_rng(1))
        before = [p.copy() for p in parameters(net)]
        state = AdamState(net, learning_rate=0.1)
        zero = np.zeros_like(net.flat)
        adam_step(state, net.flat, zero)
        for p0, p1 in zip(before, parameters(net)):
            np.testing.assert_array_equal(p0, p1)

    def test_zero_lr_keeps_params(self):
        net = DenseNet([2, 3], np.random.default_rng(1))
        before = [p.copy() for p in parameters(net)]
        state = AdamState(net, learning_rate=0.0)
        grads = np.ones_like(net.flat)
        adam_step(state, net.flat, grads)
        for p0, p1 in zip(before, parameters(net)):
            np.testing.assert_array_equal(p0, p1)

    def test_matches_scalar_simulation_on_square(self):
        # minimize f(w) = w^2 from w = 1 with lr = 0.1
        net = DenseNet([1, 1])
        w, b = weights(net)[0], biases(net)[0]
        w[0, 0] = 1.0
        state = AdamState(net, learning_rate=0.1)
        trace = [float(w[0, 0])]
        for _ in range(100):
            g = 2.0 * w[0, 0]
            adam_step(state, net.flat, np.array([g, 0.0]))  # (dW, db)
            trace.append(float(w[0, 0]))
        oracle = adam_scalar_oracle(lambda x: 2.0 * x, 1.0, 0.1, 100)
        np.testing.assert_allclose(trace, oracle, rtol=0, atol=1e-15)
        # Adam overshoots zero near the end, so require decay of the
        # envelope rather than strict monotonicity of |w|
        assert abs(trace[-1]) < 0.05 < abs(trace[0])
        assert max(abs(x) for x in trace[80:]) < max(abs(x) for x in trace[:20])

    def test_first_step_size_is_lr(self):
        # with bias correction the very first Adam step is exactly lr
        net = DenseNet([1, 1])
        w = weights(net)[0]
        w[0, 0] = 5.0
        state = AdamState(net, learning_rate=0.1)
        adam_step(state, net.flat, np.array([4.0, 0.0]))  # (dW, db)
        assert abs(w[0, 0] - (5.0 - 0.1 * (1.0 - 1e-8 / (2.0 + 1e-8)))) < 1e-9


    def test_fused_step_matches_per_tensor_reference(self):
        net = DenseNet([7, 256, 256, 3], np.random.default_rng(5))
        ref_params = [p.copy() for p in parameters(net)]
        ref_m = [np.zeros_like(p) for p in ref_params]
        ref_v = [np.zeros_like(p) for p in ref_params]
        state = AdamState(net, learning_rate=1e-3)
        rng = np.random.default_rng(6)
        for t in range(1, 201):
            grad = rng.standard_normal(net.flat.size)
            adam_step(state, net.flat, grad)
            grads = [g for pair in net.layer_views(grad) for g in pair]
            adam_reference(ref_params, grads, ref_m, ref_v, t, 1e-3)
        for fused, ref in zip(parameters(net), ref_params):
            np.testing.assert_array_equal(fused, ref)
        np.testing.assert_array_equal(
            state.m, np.concatenate([m.ravel() for m in ref_m]))
        np.testing.assert_array_equal(
            state.v, np.concatenate([v.ravel() for v in ref_v]))

    def test_rejects_bad_gradients(self):
        net = DenseNet([2, 3], np.random.default_rng(1))
        state = AdamState(net, learning_rate=0.1)
        before = net.flat.copy()
        with pytest.raises(ShapeMismatch):
            adam_step(state, net.flat, np.zeros(net.flat.size + 1))
        bad = np.zeros_like(net.flat)
        bad[-1] = np.nan
        with pytest.raises(NonFiniteGradient):
            adam_step(state, net.flat, bad)
        assert state.step == 0
        np.testing.assert_array_equal(net.flat, before)


class TestFlatParameters:
    def test_parameters_are_views_into_flat(self):
        net = DenseNet([4, 6, 5, 2], np.random.default_rng(3))
        for p in parameters(net):
            assert np.shares_memory(p, net.flat)
        loaded, _ = DenseNet.from_bytes(net.to_bytes())
        for p in parameters(loaded):
            assert np.shares_memory(p, loaded.flat)
        other = DenseNet([4, 6, 5, 2], np.random.default_rng(4))
        other.flat[...] = net.flat
        for p in parameters(other):
            assert np.shares_memory(p, other.flat)
        np.testing.assert_array_equal(other.flat, net.flat)

    def test_layout_is_row_major_per_layer(self):
        net = DenseNet([3, 4, 2], np.random.default_rng(8))
        np.testing.assert_array_equal(
            net.flat, np.concatenate([p.ravel() for p in parameters(net)]))
        assert n_params(net) == net.flat.size == 3 * 4 + 4 + 4 * 2 + 2


class TestStack:
    @pytest.mark.parametrize("rows", [1, 7, 300])
    def test_members_match_their_own_nets_bit_for_bit(self, rows):
        nets, alone = ([DenseNet([5, 16, 16, 3], np.random.default_rng(k))
                        for k in range(3)] for _ in range(2))
        stack = DenseNet.stack(nets)
        assert stack.flat.shape == (3, nets[0].flat.size)
        data = np.random.default_rng(rows)
        x = data.standard_normal((3, rows, 5))
        g = data.standard_normal((3, rows, 3))
        y, cache = stack.forward_cached(x)
        grad = stack.backward(cache, g)
        for k, (net, own) in enumerate(zip(nets, alone)):
            # each member is now row k of the stack, and acts as its own
            # net did, one row or a batch at a time
            assert np.shares_memory(net.flat, stack.flat[k])
            assert (net.flat == own.flat).all()
            own_y, own_cache = own.forward_cached(x[k])
            assert (y[k] == own_y).all()
            assert (grad[k] == own.backward(own_cache, g[k])).all()
            assert (net.forward(x[k]) == own_y).all()
            assert all((net.forward(row) == own.forward(row)).all()
                       for row in x[k])
        stack.flat[1, 0] += 1.0
        assert nets[1].flat[0] == stack.flat[1, 0] != alone[1].flat[0]
        with pytest.raises(DimensionMismatch):
            stack.forward(x[0])


class TestCategoricalHead:
    def test_uniform_sampling_frequencies(self):
        head = CategoricalHead((4,))
        rng = np.random.default_rng(9)
        counts = np.zeros(4)
        n = 8000
        for _ in range(n):
            (action,), _ = sample_and_logprob(head, np.zeros((1, 4)), [rng])
            counts[action] += 1
        p = 0.25
        sigma = math.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) < 3 * sigma)

    def test_logp_and_entropy_uniform(self):
        head = CategoricalHead((5,))
        (action,), (logp,) = sample_and_logprob(head, np.zeros((1, 5)),
                                                [np.random.default_rng(0)])
        assert abs(logp - math.log(0.2)) < 1e-12
        _, ent, _, _ = categorical_stats(head, np.zeros((1, 5)),
                                         np.array([[action]]))
        assert abs(ent[0] - math.log(5.0)) < 1e-12

    def test_frozen_is_argmax(self):
        head = CategoricalHead((3,))
        assert frozen_action(head, np.array([[0.1, 2.0, -1.0]])).tolist() == [1]

    def test_stats_gradients_finite_difference(self):
        rng = np.random.default_rng(4)
        cases = ((CategoricalHead((4,)), np.array([[0], [3], [2]])),
                 (CategoricalHead((2, 3, 4)),
                  np.array([[1, 0, 3], [0, 2, 0], [1, 1, 2]])))
        for head, actions in cases:
            logits = rng.standard_normal((3, head.param_dim))
            logp, ent, dlogp, dent = categorical_stats(head, logits, actions)
            h = 1e-6
            for r in range(3):
                for c in range(head.param_dim):
                    bumped = logits.copy()
                    bumped[r, c] += h
                    lp_hi, ent_hi, _, _ = categorical_stats(head, bumped,
                                                            actions)
                    bumped[r, c] -= 2 * h
                    lp_lo, ent_lo, _, _ = categorical_stats(head, bumped,
                                                            actions)
                    assert abs((lp_hi[r] - lp_lo[r]) / (2 * h)
                               - dlogp[r, c]) < 1e-6
                    assert abs((ent_hi[r] - ent_lo[r]) / (2 * h)
                               - dent[r, c]) < 1e-6

    def test_segments_match_single_heads(self):
        sizes = (2, 3, 4)
        head = CategoricalHead(sizes)
        assert head.bounds == ((0, 2), (2, 5), (5, 9))
        singles = [CategoricalHead((k,)) for k in sizes]
        data = np.random.default_rng(13)
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(50):
            # the segments' rows all draw from one generator, in order
            params = data.standard_normal(head.param_dim)
            rows = padded_rows(head, params)
            action, logp = sample_and_logprob(head, rows, [rng] * 3)
            for k, (single, (lo, hi)) in enumerate(zip(singles, head.bounds)):
                own = params[None, lo:hi]
                (a,), (lp,) = sample_and_logprob(single, own, [ref_rng])
                assert a == action[k] and lp == logp[k]
                assert frozen_action(single, own)[0] == frozen_action(
                    head, rows)[k]

        logits = data.standard_normal((7, head.param_dim))
        actions = np.stack([data.integers(k, size=7) for k in sizes], axis=1)
        logp, ent, dlogp, dent = categorical_stats(head, logits, actions)
        parts = [categorical_stats(single, logits[:, lo:hi],
                                   actions[:, [k]])
                 for k, (single, (lo, hi)) in enumerate(zip(singles,
                                                            head.bounds))]
        np.testing.assert_array_equal(
            logp, 0.0 + parts[0][0] + parts[1][0] + parts[2][0])
        np.testing.assert_array_equal(
            ent, 0.0 + parts[0][1] + parts[1][1] + parts[2][1])
        np.testing.assert_array_equal(
            dlogp, np.concatenate([part[2] for part in parts], axis=1))
        np.testing.assert_array_equal(
            dent, np.concatenate([part[3] for part in parts], axis=1))

    # NumPy sums fewer than 8 values in order and 8 or more pairwise, so
    # segment sizes on both sides of 8, and a multi-segment head
    HEADS = [CategoricalHead(s) for s in
             ((2,), (5,), (7,), (8,), (9,), (33,), (3, 9, 8, 5, 1, 16))]

    @pytest.mark.parametrize("head", HEADS, ids=lambda h: str(h.sizes))
    def test_sampler_is_bit_identical_to_reference(self, head):
        # one head's segments, drawn from its one generator: the action and
        # the log-probs added from 0.0, left to right
        data = np.random.default_rng(17)
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        for scale in (0.1, 1.0, 30.0):
            for _ in range(200):
                params = scale * data.standard_normal(head.param_dim)
                action, logps = sample_and_logprob(
                    head, padded_rows(head, params), [rng] * len(head.sizes))
                logp = 0.0
                for lp in logps.tolist():
                    logp += lp
                assert (tuple(action.tolist()), logp) == \
                    reference_sample_and_logprob(head, params, ref_rng)

    # the padded rows of a step's followers: a micro DAG's mixed sizes,
    # logistics, factory, prey, and single sizes on both sides of 8
    ROW_HEADS = [CategoricalHead(s) for s in
                 ((3, 9, 8, 5, 1, 16), (3, 3, 5, 5, 5), (3, 2, 2, 4),
                  (9, 9, 9, 9), (7, 7), (8, 8, 8), (9,), (5, 9, 5))]

    @staticmethod
    def assert_rows_draw_as_alone(head, draws=150):
        """Each row, drawn from its own generator, gets the bits of its
        segment drawn alone by the reference from a twin generator."""
        data = np.random.default_rng(len(head.sizes))
        rngs = [np.random.default_rng(r) for r in range(len(head.sizes))]
        twins = [np.random.default_rng(r) for r in range(len(head.sizes))]
        singles = [CategoricalHead((size,)) for size in head.sizes]
        for scale in (0.1, 1.0, 10.0, 100.0):
            for _ in range(draws):
                params = scale * data.standard_normal(head.param_dim)
                actions, logps = sample_and_logprob(
                    head, padded_rows(head, params), rngs)
                for r, (single, (lo, hi)) in enumerate(zip(singles,
                                                           head.bounds)):
                    (a,), lp = reference_sample_and_logprob(
                        single, params[lo:hi], twins[r])
                    assert actions[r] == a and logps[r] == lp, (scale, r)

    @pytest.mark.parametrize("head", ROW_HEADS, ids=lambda h: str(h.sizes))
    def test_padded_rows_draw_bit_for_bit_as_alone(self, head):
        # each row in one block, and a block narrower than 8 or of rows of
        # one size: the narrow rows share one, the wider one per size
        sizes = np.array(head.sizes)
        seen = np.zeros(len(sizes), dtype=int)
        for rows, width, _, _ in head.blocks:
            seen[rows] += 1
            assert width == sizes[rows].max()
            assert width < 8 or (sizes[rows] == width).all()
        assert (seen == 1).all()
        assert len(head.blocks) == (sizes.min() < 8) + len(
            set(sizes[sizes >= 8].tolist()))
        self.assert_rows_draw_as_alone(head)

    def test_a_five_wide_row_padded_to_nine_would_not_draw_as_alone(self):
        head = CategoricalHead((5, 9))
        assert [width for _, width, _, _ in head.blocks] == [5, 9]
        # both rows in one 9-wide block: the padding the blocks rule out
        object.__setattr__(head, "blocks", ((slice(0, 2), 9, np.arange(2),
                                             np.array([4, 8])),))
        with pytest.raises(AssertionError):
            self.assert_rows_draw_as_alone(head)

    def test_only_real_logits_must_be_finite(self):
        head = CategoricalHead((2, 5, 3))
        rows = padded_rows(head, np.zeros(head.param_dim))
        rngs = [np.random.default_rng(0)] * 3
        # the padding is -inf, and never checked
        assert np.isneginf(rows[~head.real]).all()
        sample_and_logprob(head, rows, rngs)
        frozen_action(head, rows)
        for bad in (np.nan, np.inf, -np.inf):
            for cell in ((0, 1), (1, 4), (2, 0)):
                poisoned = rows.copy()
                poisoned[cell] = bad
                with pytest.raises(NonFiniteParams):
                    sample_and_logprob(head, poisoned, rngs)
                with pytest.raises(NonFiniteParams):
                    frozen_action(head, poisoned)

    @pytest.mark.parametrize("head", HEADS, ids=lambda h: str(h.sizes))
    @pytest.mark.parametrize("rows", (1, 12, 300))
    def test_stats_are_bit_identical_to_reference(self, head, rows):
        data = np.random.default_rng(rows)
        logits = 3.0 * data.standard_normal((rows, head.param_dim))
        actions = np.stack([data.integers(k, size=rows) for k in head.sizes],
                           axis=1)
        got = categorical_stats(head, logits, actions)
        want = reference_categorical_stats(head, logits, actions)
        for ours, reference in zip(got, want):
            assert ours.shape == reference.shape
            assert (ours == reference).all()

    def test_rejects_bad_segments(self):
        for sizes in ((), (3, 0)):
            with pytest.raises(DimensionMismatch):
                CategoricalHead(sizes)
        for shape in ((4,), (2, 2), (3, 3), (2, 4)):
            with pytest.raises(DimensionMismatch):
                sample_and_logprob(CategoricalHead((2, 3)), np.zeros(shape),
                                   [np.random.default_rng(0)] * 2)
            with pytest.raises(DimensionMismatch):
                frozen_action(CategoricalHead((2, 3)), np.zeros(shape))


class TestBetaHead:
    def test_density_frozen_example(self):
        # Beta(2, 2) density at 0.5 is 1.5
        head = BetaHead(1)
        raw = np.full(2, math.log(math.e - 1.0))  # softplus -> 1, shapes -> 2
        alpha, beta = beta_shapes(head, raw)
        np.testing.assert_allclose(alpha, [2.0], atol=1e-12)
        np.testing.assert_allclose(beta, [2.0], atol=1e-12)
        logp, ent, _, _ = beta_stats(head, raw[None, :],
                                     np.array([[0.5]]))
        assert abs(math.exp(logp[0]) - 1.5) < 1e-12

    def test_entropy_matches_scipy(self):
        head = BetaHead(1)
        raw = np.array([0.3, -0.8])
        alpha, beta = beta_shapes(head, raw)
        _, ent, _, _ = beta_stats(head, raw[None, :], np.array([[0.4]]))
        assert abs(ent[0] - stats.beta(alpha[0], beta[0]).entropy()) < 1e-10

    def test_sial_mean_three_sigma(self):
        head = BetaHead(1)
        raw = np.full(2, math.log(math.e - 1.0))  # Beta(2, 2)
        rng = np.random.default_rng(21)
        n = 4000
        xs = np.array([sample_and_logprob(head, raw[None], [rng])[0][0, 0]
                       for _ in range(n)])
        se = math.sqrt(0.05 / n)  # var of Beta(2,2) is 0.05
        assert abs(xs.mean() - 0.5) < 3 * se
        assert np.all((xs > 0.0) & (xs < 1.0))

    def test_frozen_is_mean(self):
        head = BetaHead(2)
        raw = np.array([0.5, -0.3, 0.1, 0.9])
        alpha, beta = beta_shapes(head, raw)
        np.testing.assert_allclose(frozen_action(head, raw[None])[0],
                                   alpha / (alpha + beta), atol=1e-12)

    def test_stats_gradients_finite_difference(self):
        head = BetaHead(2)
        rng = np.random.default_rng(8)
        raw = rng.standard_normal((2, 4))
        actions = np.array([[0.3, 0.7], [0.9, 0.2]])
        logp, ent, dlogp, dent = beta_stats(head, raw, actions)
        h = 1e-6
        for r in range(2):
            for c in range(4):
                bumped = raw.copy()
                bumped[r, c] += h
                lp_hi, ent_hi, _, _ = beta_stats(head, bumped, actions)
                bumped[r, c] -= 2 * h
                lp_lo, ent_lo, _, _ = beta_stats(head, bumped, actions)
                assert abs((lp_hi[r] - lp_lo[r]) / (2 * h) - dlogp[r, c]) < 1e-5
                assert abs((ent_hi[r] - ent_lo[r]) / (2 * h) - dent[r, c]) < 1e-5

    def test_shapes_stay_at_least_one(self):
        head = BetaHead(3)
        alpha, beta = beta_shapes(head, np.full(6, -40.0))
        assert np.all(alpha >= 1.0) and np.all(beta >= 1.0)
        alpha, beta = beta_shapes(head, np.full(6, -5.0))
        assert np.all(alpha > 1.0) and np.all(beta > 1.0)


@pytest.mark.parametrize("head", [CategoricalHead((3, 3, 3, 5)), BetaHead(2)],
                         ids=["categorical", "beta"])
def test_frozen_rows_are_each_rows_own(head):
    data = np.random.default_rng(3)
    if isinstance(head, CategoricalHead):
        singles = [CategoricalHead((size,)) for size in head.sizes]
        rows = padded_rows(head, data.standard_normal(head.param_dim))
        # ties go to the first index: a row of zeros, and a two-way tie
        rows[1, :3] = 0.0
        rows[3, :2] = 7.0
    else:
        singles = [head] * 6
        rows = data.standard_normal((6, head.param_dim))
    acted = frozen_action(head, rows)
    assert len(acted) == len(rows)
    for single, row, action in zip(singles, rows, acted):
        own = row[None, :single.param_dim]
        np.testing.assert_array_equal(action, frozen_action(single, own)[0])
    if isinstance(head, CategoricalHead):
        assert acted.dtype == int
        assert acted[1] == 0 and acted[3] == 0


class TestSpecialFunctions:
    """The Beta head's special functions over shapes from 1 to 1e6, to within
    1e-13 of the reference, absolute below 1 and relative above."""

    @staticmethod
    def assert_close(ours, reference):
        err = np.abs(ours - reference) / np.maximum(1.0, np.abs(reference))
        assert err.max() <= 1e-13, err.max()

    @staticmethod
    def log_grid(points):
        grid = np.logspace(0.0, 6.0, points)
        assert grid[0] == 1.0
        return grid

    def test_digamma_and_trigamma_match_scipy(self):
        x = self.log_grid(2401)
        self.assert_close(digamma(x), special.digamma(x))
        self.assert_close(trigamma(x), special.polygamma(1, x))

    def test_betaln_matches_high_precision_reference(self):
        # The reference is mpmath at 30 digits, not SciPy: where one shape
        # is far larger than the other, SciPy's own betaln is off by up to
        # 1.6e-10 relative on this grid (a = 749894, b = 1), above the bound.
        a, b = np.meshgrid(self.log_grid(49), self.log_grid(49))
        with mpmath.workdps(30):
            reference = np.array([float(mpmath.log(mpmath.beta(u, v)))
                                  for u, v in zip(a.flat, b.flat)])
        self.assert_close(betaln(a, b).ravel(), reference)
        np.testing.assert_array_equal(betaln(a, b), betaln(b, a))

    def test_scalars_and_shapes(self):
        assert digamma(1.0) == pytest.approx(-np.euler_gamma, abs=1e-15)
        assert trigamma(1.0) == pytest.approx(math.pi ** 2 / 6, abs=1e-15)
        assert betaln(1.0, 1.0) == pytest.approx(0.0, abs=1e-14)
        x = 1.0 + np.arange(6.0).reshape(2, 3)
        assert digamma(x).shape == trigamma(x).shape == (2, 3)
        assert betaln(x, 2.0).shape == (2, 3)


class TestCheckpoint:
    def test_round_trip_bitwise(self):
        net = DenseNet([4, 8, 3], np.random.default_rng(17))
        blob = net.to_bytes()
        loaded, offset = DenseNet.from_bytes(blob)
        assert offset == len(blob)
        for p0, p1 in zip(parameters(net), parameters(loaded)):
            np.testing.assert_array_equal(p0, p1)

    def test_concatenated_records(self):
        a = DenseNet([2, 3], np.random.default_rng(1))
        b = DenseNet([3, 1], np.random.default_rng(2))
        blob = a.to_bytes() + b.to_bytes()
        a2, off = DenseNet.from_bytes(blob)
        b2, off = DenseNet.from_bytes(blob, off)
        assert off == len(blob)
        np.testing.assert_array_equal(weights(b)[0], weights(b2)[0])

    def test_corrupt_magic(self):
        blob = bytearray(DenseNet([2, 2], np.random.default_rng(0)).to_bytes())
        blob[0] = ord(b"X")
        with pytest.raises(CheckpointMismatch):
            DenseNet.from_bytes(bytes(blob))

    def test_bad_version(self):
        blob = bytearray(DenseNet([2, 2], np.random.default_rng(0)).to_bytes())
        blob[4] = 99
        with pytest.raises(CheckpointMismatch):
            DenseNet.from_bytes(bytes(blob))

    def test_truncated(self):
        blob = DenseNet([2, 2], np.random.default_rng(0)).to_bytes()
        with pytest.raises(CheckpointMismatch):
            DenseNet.from_bytes(blob[:-3])

    def test_truncated_block_fails_before_allocating(self):
        # a bare header claiming 2048-wide layers: about 4.2M parameters
        blob = struct.pack("<4sHHI4I", b"DGNT", 1, 0, 4, 1, 2048, 2048, 1)
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointMismatch, match="parameter block"):
                DenseNet.from_bytes(blob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("dims", ((), (2048,), (3, 0, 2), (2048, 0)),
                             ids=("no-dims", "one-dim", "zero-hidden",
                                  "zero-output"))
    def test_bad_dims_fail_before_allocating(self, dims):
        # a header whose dims describe no net, followed by some payload
        blob = struct.pack(f"<4sHHI{len(dims)}I", b"DGNT", 1, 0, len(dims),
                           *dims) + bytes(64)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                DenseNet.from_bytes(blob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_dgnt_v1_layout(self):
        # header, dims, then each tensor as little-endian float64 in
        # (W0, b0, W1, b1, ...) order, W row-major (fan_out, fan_in)
        net = DenseNet([5, 7, 3], np.random.default_rng(12))
        want = struct.pack("<4sHHI", b"DGNT", 1, 0, 3)
        want += struct.pack("<3I", 5, 7, 3)
        for w, b in zip(weights(net), biases(net)):
            want += np.ascontiguousarray(w, dtype="<f8").tobytes()
            want += np.ascontiguousarray(b, dtype="<f8").tobytes()
        assert net.to_bytes() == want


# -- allocator limits ----------------------------------------------------------

# 30 steps of a 256-wide net on 256 rows after one warm-up step; prints the
# minor page faults the 30 steps took
_FAULT_PROBE = """
import resource, sys
import numpy as np
from dagmarl.nn import AdamState, DenseNet, adam_step, keep_freed_heap
if sys.argv[1] == "keep":
    keep_freed_heap()
rng = np.random.default_rng(0)
net = DenseNet((9, 256, 256, 4), rng)
adam = AdamState(net, 1e-3)
x = rng.standard_normal((256, 9))
g = rng.standard_normal((256, 4))

def step():
    _, cache = net.forward_cached(x)
    adam_step(adam, net.flat, net.backward(cache, g))

step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(30):
    step()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _probe_faults(mode):
    env = dict(os.environ,
               PYTHONPATH=str(Path(dagmarl.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", _FAULT_PROBE, mode],
                         env=env, capture_output=True, text=True, check=True,
                         timeout=120)
    return int(out.stdout)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the limits are glibc mallopt parameters")
def test_kept_heap_stops_update_page_faults():
    plain = _probe_faults("plain")
    kept = _probe_faults("keep")
    assert kept < 0.1 * plain, (kept, plain)


def test_keep_freed_heap_is_a_no_op_off_linux(monkeypatch):
    def no_library(*args):
        raise AssertionError("loaded a C library")

    monkeypatch.setattr(sys, "platform", "darwin")
    monkeypatch.setattr(ctypes, "CDLL", no_library)
    keep_freed_heap()
