import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdcheck import assert_grads_close, central_diff_grads, dense_grads, embed_mlp_grads

from hubopt import nn, pricing, scheduler
from hubopt.nn import (
    Adam,
    CheckpointError,
    DenseNet,
    EmbeddingTable,
    EmbedMlp,
    NonFiniteGradientError,
    fit_embed_mlp,
    load_weights,
    mse_loss,
    nll_loss,
    save_weights,
)


class TestForward:
    def test_matches_naive_recompute(self):
        rng = np.random.default_rng(7)
        for acts in (["identity"], ["relu", "sigmoid"], ["relu", "relu", "softmax"]):
            sizes = [4] + [5] * (len(acts) - 1) + [3]
            net = DenseNet(sizes, acts, rng)
            x = rng.normal(size=(6, 4))
            got, _ = net.forward(x)
            assert got.tobytes() == reference_forward(net, x)[-1].tobytes()

    def test_softmax_rows_are_distributions(self):
        rng = np.random.default_rng(8)
        net = DenseNet([5, 4], ["softmax"], rng)
        out, _ = net.forward(rng.normal(size=(40, 5), scale=5.0))
        assert np.all(out > 0.0)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)

    def test_shape_validation(self):
        net = DenseNet([4, 2], ["identity"], np.random.default_rng(0))
        with pytest.raises(ValueError):
            net.forward(np.zeros((3, 5)))

    def test_bad_activation_rejected(self):
        with pytest.raises(ValueError):
            DenseNet([2, 2], ["tanhh"], np.random.default_rng(0))


class TestLosses:
    def test_mse_value_and_grad(self):
        value, grad = mse_loss(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
        assert value == pytest.approx(2.5)
        assert np.allclose(grad, [1.0, 2.0])

    def test_nll_value_and_grad(self):
        probs = np.array([[0.5, 0.5], [0.25, 0.75]])
        value, grad = nll_loss(probs, np.array([0, 1]))
        assert value == pytest.approx(-(math.log(0.5) + math.log(0.75)) / 2)
        assert grad[0, 0] == pytest.approx(-1.0 / (2 * 0.5))
        assert grad[0, 1] == 0.0
        assert grad[1, 1] == pytest.approx(-1.0 / (2 * 0.75))


class TestGradients:
    @pytest.mark.parametrize("act", nn.ACTIVATIONS)
    def test_dense_mse_grad(self, act):
        rng = np.random.default_rng(nn.ACTIVATIONS.index(act))
        out_dim = 3 if act == "softmax" else 2
        net = DenseNet([4, 5, out_dim], ["relu", act], rng)
        x = rng.normal(size=(7, 4))
        target = rng.uniform(0.1, 0.9, size=(7, out_dim))
        assert_grads_close(*dense_grads(net, x, mse_loss, target))

    def test_softmax_nll_grad(self):
        rng = np.random.default_rng(21)
        net = DenseNet([3, 6, 4], ["sigmoid", "softmax"], rng)
        x = rng.normal(size=(5, 3))
        assert_grads_close(*dense_grads(net, x, nll_loss, rng.integers(0, 4, size=5)))

    def test_input_gradient(self):
        rng = np.random.default_rng(22)
        net = DenseNet([4, 3], ["sigmoid"], rng)
        x = rng.normal(size=(2, 4))
        target = rng.uniform(size=(2, 3))

        def f():
            out, _ = net.forward(x)
            return mse_loss(out, target)[0]

        out, cache = net.forward(x)
        _, grad_out = mse_loss(out, target)
        _, grad_x = net.backward(cache, grad_out)
        numeric = central_diff_grads(f, [x])
        assert_grads_close([grad_x], numeric)

    def test_skipped_input_gradient_keeps_the_parameter_gradients(self):
        rng = np.random.default_rng(24)
        net = DenseNet([4, 5, 3], ["relu", "softmax"], rng)
        _, cache = net.forward(rng.normal(size=(6, 4)))
        grad_out = rng.normal(size=(6, 3))
        want = [g.copy() for g in net.backward(cache, grad_out)[0]]
        grads, grad_x = net.backward(cache, grad_out, input_grad=False)
        assert grad_x is None
        assert [g.tobytes() for g in grads] == [g.tobytes() for g in want]

    def test_embed_mlp_grad(self):
        rng = np.random.default_rng(23)
        model = EmbedMlp(n_stations=5, n_slots=6, embed_dim=3, hidden=(4,), seed=3)
        stations = rng.integers(0, 5, size=8)
        slots = rng.integers(0, 6, size=8)
        target = rng.uniform(0.1, 0.9, size=8)
        assert_grads_close(*embed_mlp_grads(model, stations, slots, target))


class TestEmbeddingTable:
    def test_out_of_range_lookup(self):
        table = EmbeddingTable(4, 2, np.random.default_rng(0))
        with pytest.raises(IndexError):
            table.lookup(np.array([0, 4]))

    def test_duplicate_indices_accumulate(self):
        table = EmbeddingTable(3, 2, np.random.default_rng(0))
        g = table.grad(np.array([1, 1, 2]), np.ones((3, 2)))
        assert np.allclose(g[1], [2.0, 2.0])
        assert np.allclose(g[2], [1.0, 1.0])
        assert np.allclose(g[0], 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        vocab=st.integers(1, 6),
        dim=st.integers(1, 4),
        data=st.data(),
    )
    def test_grad_equals_add_at_into_zeros(self, vocab, dim, data):
        table = EmbeddingTable(vocab, dim, np.random.default_rng(0))
        for _ in range(2):  # the second batch overwrites the first
            idx = data.draw(st.lists(st.integers(0, vocab - 1), max_size=12))
            idx = np.array(idx + [vocab - 1], dtype=np.int64)
            values = st.one_of(st.just(-0.0), st.just(0.0), finite)
            rows = np.array(
                data.draw(st.lists(values, min_size=idx.size * dim, max_size=idx.size * dim))
            ).reshape(idx.size, dim)
            rows[data.draw(st.integers(0, idx.size - 1))] = -0.0
            want = np.zeros((vocab, dim))
            np.add.at(want, idx, rows)
            got = table.grad(idx, rows)
            assert got is table.table_grad
            assert got.tobytes() == want.tobytes()


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        p = np.array([1.0])
        adam = Adam([p], lr=0.01)
        adam.step([p], [np.array([1.0])])
        assert p[0] == pytest.approx(1.0 - 0.01, abs=1e-9)

    def test_zero_grad_no_decay_is_noop(self):
        p = np.array([2.0, -3.0])
        adam = Adam([p], lr=0.1, weight_decay=0.0)
        adam.step([p], [np.zeros(2)])
        assert np.allclose(p, [2.0, -3.0])

    def test_decoupled_decay_shrinks_params(self):
        p = np.array([2.0])
        adam = Adam([p], lr=0.1, weight_decay=0.5)
        adam.step([p], [np.zeros(1)])
        assert p[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)

    def test_non_finite_gradient_rejected(self):
        p = np.array([1.0])
        adam = Adam([p], lr=0.1)
        with pytest.raises(NonFiniteGradientError):
            adam.step([p], [np.array([np.nan])])
        assert p[0] == 1.0
        assert adam.t == 0

    def test_descends_a_quadratic(self):
        p = np.array([5.0])
        adam = Adam([p], lr=0.1)
        for _ in range(300):
            adam.step([p], [2.0 * p])
        assert abs(p[0]) < 0.1


def reference_adam(params, grads_per_step, lr, weight_decay, beta1=0.9, beta2=0.999, eps=1e-8):
    """Array-by-array Adam, as the optimizer was written before the flat buffer."""
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grads_per_step, start=1):
        bc1 = 1.0 - beta1**t
        bc2 = 1.0 - beta2**t
        for p, g, mi, vi in zip(params, grads, m, v):
            mi *= beta1
            mi += (1.0 - beta1) * g
            vi *= beta2
            vi += (1.0 - beta2) * (g * g)
            update = (mi / bc1) / (np.sqrt(vi / bc2) + eps)
            if weight_decay:
                update = update + weight_decay * p
            p -= lr * update
    return m, v


def tiled(shapes, values):
    """Views of one flat buffer holding values, one per shape, in order."""
    flat = np.array(values, dtype=np.float64)
    views, at = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        views.append(flat[at : at + size].reshape(shape))
        at += size
    return flat, views


shape_lists = st.lists(
    st.lists(st.integers(1, 4), min_size=1, max_size=2).map(tuple), min_size=1, max_size=5
)
finite = st.floats(-1e3, 1e3, allow_nan=False)


class TestFusedAdam:
    @settings(max_examples=200, deadline=None)
    @given(
        shapes=shape_lists,
        data=st.data(),
        steps=st.integers(1, 5),
        weight_decay=st.sampled_from([0.0, 1e-4, 0.3]),
    )
    def test_equals_array_by_array_reference(self, shapes, data, steps, weight_decay):
        total = sum(int(np.prod(s)) for s in shapes)
        values = data.draw(st.lists(finite, min_size=total, max_size=total))
        flat, params = tiled(shapes, values)
        ref_params = [p.copy() for p in params]
        grads_per_step = [
            tiled(shapes, data.draw(st.lists(finite, min_size=total, max_size=total)))[1]
            for _ in range(steps)
        ]
        # the step uses the gradient buffer as scratch, so the reference gets copies
        ref_grads = [[g.copy() for g in grads] for grads in grads_per_step]
        adam = Adam(params, lr=0.01, weight_decay=weight_decay)
        for grads in grads_per_step:
            adam.step(params, grads)
        ref_m, ref_v = reference_adam(ref_params, ref_grads, 0.01, weight_decay)
        assert flat.tobytes() == np.concatenate([p.ravel() for p in ref_params]).tobytes()
        assert adam.m.tobytes() == np.concatenate([m.ravel() for m in ref_m]).tobytes()
        assert adam.v.tobytes() == np.concatenate([v.ravel() for v in ref_v]).tobytes()
        assert adam.t == steps

    def test_equals_the_reference_past_the_first_bias_correction(self):
        # (1 - beta1**t) rounds to 1.0 after about 350 steps
        rng = np.random.default_rng(5)
        shapes = [(3, 2), (2,), (4,)]
        flat, params = tiled(shapes, rng.normal(size=12))
        ref_params = [p.copy() for p in params]
        adam = Adam(params, lr=0.01, weight_decay=1e-4)
        ref_grads = []
        for _ in range(400):
            _, grads = tiled(shapes, rng.normal(size=12))
            ref_grads.append([g.copy() for g in grads])
            adam.step(params, grads)
        ref_m, ref_v = reference_adam(ref_params, ref_grads, 0.01, 1e-4)
        assert 1.0 - nn.ADAM_BETA1**adam.t == 1.0
        assert flat.tobytes() == np.concatenate([p.ravel() for p in ref_params]).tobytes()
        assert adam.m.tobytes() == np.concatenate([m.ravel() for m in ref_m]).tobytes()
        assert adam.v.tobytes() == np.concatenate([v.ravel() for v in ref_v]).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        shapes=shape_lists,
        data=st.data(),
        bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    )
    def test_non_finite_gradient_changes_nothing(self, shapes, data, bad):
        total = sum(int(np.prod(s)) for s in shapes)
        flat, params = tiled(shapes, np.linspace(-1.0, 1.0, total))
        adam = Adam(params, lr=0.01, weight_decay=0.1)
        adam.step(params, tiled(shapes, np.full(total, 0.5))[1])
        state = (flat.tobytes(), adam.m.tobytes(), adam.v.tobytes(), adam.t)
        grad_flat, grads = tiled(shapes, np.ones(total))
        i = data.draw(st.integers(0, len(params) - 1))
        grads[i].flat[data.draw(st.integers(0, grads[i].size - 1))] = bad
        rejected = grad_flat.tobytes()
        with pytest.raises(NonFiniteGradientError, match=f"parameter {i} with shape"):
            adam.step(params, grads)
        assert (flat.tobytes(), adam.m.tobytes(), adam.v.tobytes(), adam.t) == state
        assert grad_flat.tobytes() == rejected

    def test_params_must_tile_one_buffer(self):
        flat, (a, b) = tiled([(2,), (3,)], np.arange(5.0))
        with pytest.raises(ValueError, match="tile"):
            Adam([b, a])
        with pytest.raises(ValueError, match="tile"):
            Adam([np.zeros(2), np.zeros(3)])
        with pytest.raises(ValueError, match="tile"):
            Adam([flat[:2], flat[3:]])
        with pytest.raises(ValueError, match="tile"):
            Adam([np.zeros((3, 2)).T])

    def test_gradients_must_tile_one_buffer(self):
        flat, params = tiled([(2,), (2,)], np.arange(4.0))
        adam = Adam(params)
        grad_flat, (ga, gb) = tiled([(2,), (2,)], np.ones(4))
        wide = np.ones(5)
        for grads in (
            [np.ones(2), np.ones(2)],  # two buffers
            [gb, ga],  # one buffer, out of order
            [wide[:2], wide[3:]],  # a gap
            [np.ones((2, 2)).T[0], np.ones(2)],  # not contiguous
        ):
            with pytest.raises(ValueError, match="tile"):
                adam.step(params, grads)
        _, wrong = tiled([(1, 2), (2,)], np.ones(4))
        with pytest.raises(ValueError, match="shape"):
            adam.step(params, wrong)
        assert flat.tobytes() == np.arange(4.0).tobytes()
        assert (adam.m.any(), adam.v.any(), adam.t) == (False, False, 0)
        adam.step(params, [ga, gb])
        assert adam.t == 1

    def test_rejected_model_step_changes_nothing(self):
        model = pricing.PricingModel(n_stations=5, n_slots=6, embed_dim=3, hidden=(4,), seed=2)
        stations, slots = np.array([0, 4, 4]), np.array([5, 1, 0])
        params = model.params()
        adam = Adam(params, lr=0.05, weight_decay=0.1)
        strata, g, cache = model.forward(stations, slots)
        adam.step(params, model.backward(cache, np.ones_like(strata), np.ones_like(g)))
        state = (model.flat.tobytes(), adam.m.tobytes(), adam.v.tobytes(), adam.t)
        strata, g, cache = model.forward(stations, slots)
        grads = model.backward(cache, np.ones_like(strata), np.ones_like(g))
        grads[-1][0] = np.inf
        with pytest.raises(NonFiniteGradientError, match=f"parameter {len(grads) - 1} "):
            adam.step(params, grads)
        assert (model.flat.tobytes(), adam.m.tobytes(), adam.v.tobytes(), adam.t) == state

    def test_step_needs_the_constructed_params(self):
        _, params = tiled([(2,), (3,)], np.arange(5.0))
        adam = Adam(params)
        with pytest.raises(ValueError):
            adam.step([params[0], params[1].copy()], [np.ones(2), np.ones(3)])
        with pytest.raises(ValueError):
            adam.step(params[:1], [np.ones(2)])


def small_models():
    return [
        EmbedMlp(n_stations=5, n_slots=6, embed_dim=3, hidden=(4, 2), seed=1),
        pricing.PricingModel(n_stations=5, n_slots=6, embed_dim=3, hidden=(4,), seed=2),
        scheduler.PolicyBundle(state_dim=6, hidden=(5, 4), seed=3),
    ]


def model_output(model):
    if isinstance(model, scheduler.PolicyBundle):
        probs, values, _ = model.forward(np.linspace(-1.0, 1.0, 12).reshape(2, 6))
        return np.concatenate([probs.ravel(), values])
    out = model.forward(np.array([0, 4, 2]), np.array([5, 1, 0]))
    return np.concatenate([np.ravel(x) for x in out[:-1]])


def reference_act_forward(tag, z):
    if tag == "relu":
        return np.maximum(z, 0.0)
    if tag == "sigmoid":
        return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))
    if tag == "softmax":
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)
    return z


def reference_act_backward(tag, out, grad_out):
    if tag == "relu":
        return grad_out * (out > 0.0)
    if tag == "sigmoid":
        return grad_out * out * (1.0 - out)
    if tag == "softmax":
        return out * (grad_out - (grad_out * out).sum(axis=1, keepdims=True))
    return grad_out


def reference_forward(net, x):
    """Every layer's input and the output of a DenseNet, in fresh arrays: a @ w + b."""
    acts = [x]
    for w, b, tag in zip(net.weights, net.biases, net.activations):
        acts.append(reference_act_forward(tag, acts[-1] @ w + b))
    return acts


def reference_dense_backward(net, acts, grad_out):
    """(param grads, input grad) of a DenseNet in fresh arrays: x_in.T @ grad_z."""
    grads = [None] * (2 * len(net.weights))
    grad_a = grad_out
    for i in reversed(range(len(net.weights))):
        grad_z = reference_act_backward(net.activations[i], acts[i + 1], grad_a)
        grads[2 * i] = acts[i].T @ grad_z
        grads[2 * i + 1] = grad_z.sum(axis=0)
        grad_a = grad_z @ net.weights[i].T
    return grads, grad_a


def reference_embedding_grad(table, idx, rows):
    g = np.zeros_like(table.table)
    np.add.at(g, idx, rows)
    return g


def reference_backward(model, inputs, upstream):
    """(outputs, gradients aligned with params()) of model, recomputed in
    fresh arrays; upstream holds one gradient per model output."""
    if isinstance(model, scheduler.PolicyBundle):
        trunk = reference_forward(model.trunk, inputs)
        actor = reference_forward(model.actor, trunk[-1])
        critic = reference_forward(model.critic, trunk[-1])
        g_actor, grad_h_a = reference_dense_backward(model.actor, actor, upstream[0])
        g_critic, grad_h_c = reference_dense_backward(model.critic, critic, upstream[1][:, None])
        g_trunk, _ = reference_dense_backward(model.trunk, trunk, grad_h_a + grad_h_c)
        return (actor[-1], critic[-1][:, 0]), g_trunk + g_actor + g_critic
    stations, slots = inputs
    d = model.embed_dim
    x = np.concatenate([model.emb_station.table[stations], model.emb_slot.table[slots]], axis=1)
    if isinstance(model, EmbedMlp):
        net = reference_forward(model.net, x)
        g_layers, grad_x = reference_dense_backward(model.net, net, upstream[0][:, None])
        outs = (net[-1][:, 0],)
    else:
        trunk = reference_forward(model.trunk, x)
        strata = reference_forward(model.head_strata, trunk[-1])
        prop = reference_forward(model.head_propensity, trunk[-1])
        g_strata, grad_h_a = reference_dense_backward(model.head_strata, strata, upstream[0])
        g_prop, grad_h_b = reference_dense_backward(
            model.head_propensity, prop, upstream[1][:, None]
        )
        g_trunk, grad_x = reference_dense_backward(model.trunk, trunk, grad_h_a + grad_h_b)
        outs, g_layers = (strata[-1], prop[-1][:, 0]), g_trunk + g_strata + g_prop
    g_emb = [
        reference_embedding_grad(model.emb_station, stations, grad_x[:, :d]),
        reference_embedding_grad(model.emb_slot, slots, grad_x[:, d:]),
    ]
    return outs, g_emb + g_layers


class TestGradientBuffer:
    @settings(max_examples=60, deadline=None)
    @given(index=st.integers(0, 2), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
    def test_backward_writes_the_reference_gradients_into_the_buffer(self, index, seed, n):
        model = small_models()[index]
        rng = np.random.default_rng(seed)
        for _ in range(2):  # the second backward overwrites the first
            if isinstance(model, scheduler.PolicyBundle):
                inputs = rng.normal(size=(n, model.state_dim))
                probs, values, cache = model.forward(inputs)
                outs = (probs, values)
            else:
                inputs = (rng.integers(0, 5, size=n), rng.integers(0, 6, size=n))
                *outs, cache = model.forward(*inputs)
            upstream = [rng.normal(size=o.shape) for o in outs]
            grads = model.backward(cache, *upstream)
            want_outs, want_grads = reference_backward(model, inputs, upstream)
            assert [o.tobytes() for o in outs] == [o.tobytes() for o in want_outs]
            assert [g.tobytes() for g in grads] == [g.tobytes() for g in want_grads]
            assert all(g is view for g, view in zip(grads, model.grads()))
            assert all(np.shares_memory(g, model.grad) for g in grads)
            assert model.grad.tobytes() == b"".join(g.tobytes() for g in want_grads)


class TestFlatModules:
    @pytest.mark.parametrize("index", range(3))
    def test_params_are_views_of_one_buffer(self, tmp_path, index):
        model = small_models()[index]
        path = str(tmp_path / "m.json")
        model.save(path)
        for m in (model, type(model).from_checkpoint(path)):
            params = m.params()
            assert all(np.shares_memory(p, m.flat) for p in params)
            assert sum(p.size for p in params) == m.flat.size
            assert m.flat.tobytes() == b"".join(p.tobytes() for p in params)
            # the optimizer finds the same buffer the model owns
            assert np.shares_memory(Adam(params).flat, m.flat)
            grads = m.grads()
            assert [g.shape for g in grads] == [p.shape for p in params]
            assert all(np.shares_memory(g, m.grad) for g in grads)
            assert sum(g.size for g in grads) == m.grad.size == m.flat.size

    @pytest.mark.parametrize("index", range(3))
    def test_forward_sees_an_adam_step(self, tmp_path, index):
        model = small_models()[index]
        before = model_output(model)
        params = model.params()
        model.grad[:] = 1.0
        Adam(params, lr=0.05).step(params, model.grads())
        after = model_output(model)
        assert not np.array_equal(before, after)
        path = str(tmp_path / "m.json")
        model.save(path)
        np.testing.assert_array_equal(model_output(type(model).from_checkpoint(path)), after)


FIT = {"epochs": 2, "batch_size": 64, "lr": 0.01, "weight_decay": 1e-4}


def mse_to(targets):
    """fit_embed_mlp's loss: the batch's mean squared error against targets."""
    return lambda idx, pred: mse_loss(pred, targets[idx])


class TestDeterminism:
    def test_same_seed_same_init(self):
        a = EmbedMlp(n_stations=6, n_slots=24, seed=9)
        b = EmbedMlp(n_stations=6, n_slots=24, seed=9)
        for pa, pb in zip(a.params(), b.params()):
            assert np.array_equal(pa, pb)

    def test_same_seed_same_training_run(self):
        rng = np.random.default_rng(4)
        stations = rng.integers(0, 6, size=200)
        slots = rng.integers(0, 24, size=200)
        targets = rng.uniform(size=200)
        runs = []
        for _ in range(2):
            model = EmbedMlp(n_stations=6, n_slots=24, embed_dim=4, hidden=(8,), seed=5)
            hist = fit_embed_mlp(
                model, stations, slots, mse_to(targets), rng=np.random.default_rng(5), **FIT
            )
            runs.append((hist, [p.copy() for p in model.params()]))
        assert runs[0][0] == runs[1][0]
        for pa, pb in zip(runs[0][1], runs[1][1]):
            assert np.array_equal(pa, pb)

    def test_fit_learns_separable_targets(self):
        stations = np.repeat(np.arange(4), 24)
        slots = np.tile(np.arange(24), 4)
        targets = (slots >= 12).astype(float)
        model = EmbedMlp(n_stations=4, n_slots=24, embed_dim=8, hidden=(16,), seed=1)
        fit = FIT | {"epochs": 40, "rng": np.random.default_rng(1)}
        hist = fit_embed_mlp(model, stations, slots, mse_to(targets), **fit)
        assert hist[-1] < hist[0] * 0.2
        pred = model.predict(stations, slots)
        assert np.mean((pred > 0.5) == (targets > 0.5)) > 0.95


class TestCheckpoints:
    def test_round_trip_exact(self, tmp_path):
        model = EmbedMlp(n_stations=7, n_slots=24, embed_dim=4, hidden=(8, 4), seed=2)
        path = str(tmp_path / "m.weights.json")
        model.save(path)
        loaded = EmbedMlp.from_checkpoint(path)
        for pa, pb in zip(model.params(), loaded.params()):
            assert np.array_equal(pa, pb)

    def test_truncated_file(self, tmp_path):
        model = EmbedMlp(n_stations=3, n_slots=4, embed_dim=2, hidden=(3,), seed=0)
        path = str(tmp_path / "m.weights.json")
        model.save(path)
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_weights(path)

    def test_corrupted_payload(self, tmp_path):
        path = str(tmp_path / "m.weights.json")
        save_weights(path, {"a": np.arange(4.0)}, {"kind": "blob"})
        text = open(path).read()
        # flip one base64 character inside the array payload
        idx = text.index('"data": "') + len('"data": "') + 3
        ch = "B" if text[idx] != "B" else "C"
        with open(path, "w") as fh:
            fh.write(text[:idx] + ch + text[idx + 1 :])
        with pytest.raises(CheckpointError, match="checksum"):
            load_weights(path)

    def test_version_mismatch(self, tmp_path):
        import json

        path = str(tmp_path / "m.weights.json")
        save_weights(path, {"a": np.arange(2.0)}, {})
        doc = json.load(open(path))
        doc["version"] = 99
        json.dump(doc, open(path, "w"))
        with pytest.raises(CheckpointError, match="version"):
            load_weights(path)

    def test_wrong_architecture_names_layer(self, tmp_path):
        model = EmbedMlp(n_stations=3, n_slots=4, embed_dim=2, hidden=(3,), seed=0)
        path = str(tmp_path / "m.weights.json")
        model.save(path)
        # another seed, so a partial load of the embeddings would show
        other = EmbedMlp(n_stations=3, n_slots=4, embed_dim=2, hidden=(5,), seed=1)
        arrays, _ = load_weights(path)
        before = other.flat.copy()
        with pytest.raises(CheckpointError, match="net.w0"):
            other.load_state(arrays)
        np.testing.assert_array_equal(other.flat, before)

    def test_wrong_kind(self, tmp_path):
        path = str(tmp_path / "m.weights.json")
        save_weights(path, {"a": np.arange(2.0)}, {"kind": "something_else"})
        with pytest.raises(CheckpointError, match="kind|expected"):
            EmbedMlp.from_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_weights(str(tmp_path / "absent.json"))

    def test_failed_write_keeps_the_earlier_checkpoint(self, tmp_path, monkeypatch):
        path = str(tmp_path / "m.weights.json")
        save_weights(path, {"a": np.arange(3.0)}, {"kind": "blob"})
        earlier = open(path, "rb").read()

        def dump_half(doc, fh):
            fh.write(json.dumps(doc)[:40])
            raise OSError("disk full")

        monkeypatch.setattr(nn.json, "dump", dump_half)
        with pytest.raises(OSError, match="disk full"):
            save_weights(path, {"a": np.arange(5.0)}, {"kind": "blob"})
        assert open(path, "rb").read() == earlier
        assert os.listdir(tmp_path) == ["m.weights.json"]


B = nn.PREDICT_ROWS


def price_model(cls, seed):
    """A model of the price workload's shape (352 stations, embed 16, hidden
    64/32) with parameters drawn wide enough that the last bits of most
    rows' products reach the outputs."""
    model = cls(n_stations=352, n_slots=24, embed_dim=16, hidden=(64, 32), seed=None)
    model.flat[...] = np.random.default_rng(seed).normal(scale=0.3, size=model.flat.size)
    return model


PRICE_MODELS = [price_model(EmbedMlp, 1), price_model(pricing.PricingModel, 2)]


def random_rows(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 352, size=n), rng.integers(0, 24, size=n)


class TestBlockedPredict:
    def check_equals_whole_forward(self, model, n):
        stations, slots = random_rows(n, seed=n)
        *whole, _ = model.forward(stations, slots)
        got = model.predict(stations, slots)
        got = got if isinstance(got, tuple) else (got,)
        assert len(got) == len(whole)
        for g, w in zip(got, whole):
            assert g.shape == w.shape and g.dtype == w.dtype and g.tobytes() == w.tobytes()

    def test_block_size_is_a_multiple_of_64(self):
        assert B > 0 and B % 64 == 0

    @pytest.mark.parametrize("n", [0, 1, 2, 63, B - 1, B, B + 1, B + 2, 2 * B + 1])
    @pytest.mark.parametrize("model", PRICE_MODELS, ids=["embed_mlp", "pricing"])
    def test_equals_one_whole_forward_bit_for_bit(self, model, n):
        self.check_equals_whole_forward(model, n)

    @settings(max_examples=30, deadline=None)
    @given(index=st.integers(0, 1), n=st.integers(0, 3 * B + 2))
    def test_drawn_sizes_equal_one_whole_forward(self, index, n):
        self.check_equals_whole_forward(PRICE_MODELS[index], n)

    @pytest.mark.parametrize(
        "n,sizes",
        [(0, [0]), (1, [1]), (B, [B]), (B + 1, [B + 1]), (B + 2, [B, 2]), (2 * B + 1, [B, B + 1])],
    )
    def test_blocks_of_b_rows_fold_a_one_row_tail(self, monkeypatch, n, sizes):
        seen = []

        def recorded(self, stations, slots, _forward=EmbedMlp.forward):
            seen.append(len(stations))
            return _forward(self, stations, slots)

        monkeypatch.setattr(EmbedMlp, "forward", recorded)
        assert PRICE_MODELS[0].predict(*random_rows(n)).shape == (n,)
        assert seen == sizes

    def test_empty_rows_give_empty_outputs_of_each_head(self):
        strata, prop = PRICE_MODELS[1].predict(*random_rows(0))
        assert strata.shape == (0, 3) and prop.shape == (0,)
