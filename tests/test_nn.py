import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdcheck import assert_grads_close, central_diff_grads

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


def naive_dense_forward(net, x):
    """Straight-line pure-python recomputation of DenseNet.forward."""
    rows = []
    for row in x:
        a = [float(v) for v in row]
        for w, b, tag in zip(net.weights, net.biases, net.activations):
            z = []
            for j in range(w.shape[1]):
                s = float(b[j])
                for i in range(w.shape[0]):
                    s += a[i] * float(w[i, j])
                z.append(s)
            if tag == "relu":
                a = [max(v, 0.0) for v in z]
            elif tag == "sigmoid":
                a = [1.0 / (1.0 + math.exp(-v)) for v in z]
            elif tag == "softmax":
                m = max(z)
                e = [math.exp(v - m) for v in z]
                s = sum(e)
                a = [v / s for v in e]
            else:
                a = z
        rows.append(a)
    return np.array(rows)


class TestForward:
    def test_matches_naive_recompute(self):
        rng = np.random.default_rng(7)
        for acts in (["identity"], ["relu", "sigmoid"], ["relu", "relu", "softmax"]):
            sizes = [4] + [5] * (len(acts) - 1) + [3]
            net = DenseNet(sizes, acts, rng)
            x = rng.normal(size=(6, 4))
            got, _ = net.forward(x)
            want = naive_dense_forward(net, x)
            assert np.allclose(got, want, atol=1e-12)

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
    @pytest.mark.parametrize("act", ["identity", "relu", "sigmoid", "softmax"])
    def test_dense_mse_grad(self, act):
        rng = np.random.default_rng(hash(act) % 2**32)
        out_dim = 3 if act == "softmax" else 2
        net = DenseNet([4, 5, out_dim], ["relu", act], rng)
        x = rng.normal(size=(7, 4))
        target = rng.uniform(0.1, 0.9, size=(7, out_dim))

        def f():
            out, _ = net.forward(x)
            return mse_loss(out, target)[0]

        out, cache = net.forward(x)
        _, grad_out = mse_loss(out, target)
        analytic, _ = net.backward(cache, grad_out)
        numeric = central_diff_grads(f, net.params())
        assert_grads_close(analytic, numeric)

    def test_softmax_nll_grad(self):
        rng = np.random.default_rng(21)
        net = DenseNet([3, 6, 4], ["sigmoid", "softmax"], rng)
        x = rng.normal(size=(5, 3))
        labels = rng.integers(0, 4, size=5)

        def f():
            out, _ = net.forward(x)
            return nll_loss(out, labels)[0]

        out, cache = net.forward(x)
        _, grad_out = nll_loss(out, labels)
        analytic, _ = net.backward(cache, grad_out)
        numeric = central_diff_grads(f, net.params())
        assert_grads_close(analytic, numeric)

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

    def test_embed_mlp_grad(self):
        rng = np.random.default_rng(23)
        model = EmbedMlp(n_stations=5, n_slots=6, embed_dim=3, hidden=(4,), seed=3)
        stations = rng.integers(0, 5, size=8)
        slots = rng.integers(0, 6, size=8)
        target = rng.uniform(0.1, 0.9, size=8)

        def f():
            pred, _ = model.forward(stations, slots)
            return mse_loss(pred, target)[0]

        pred, cache = model.forward(stations, slots)
        _, grad = mse_loss(pred, target)
        analytic = model.backward(cache, grad)
        numeric = central_diff_grads(f, model.params())
        assert_grads_close(analytic, numeric)


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
            [
                np.array(data.draw(st.lists(finite, min_size=p.size, max_size=p.size))).reshape(
                    p.shape
                )
                for p in params
            ]
            for _ in range(steps)
        ]
        adam = Adam(params, lr=0.01, weight_decay=weight_decay)
        for grads in grads_per_step:
            adam.step(params, grads)
        ref_m, ref_v = reference_adam(ref_params, grads_per_step, 0.01, weight_decay)
        assert flat.tobytes() == np.concatenate([p.ravel() for p in ref_params]).tobytes()
        assert adam.m.tobytes() == np.concatenate([m.ravel() for m in ref_m]).tobytes()
        assert adam.v.tobytes() == np.concatenate([v.ravel() for v in ref_v]).tobytes()
        assert adam.t == steps

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
        adam.step(params, [np.full(p.shape, 0.5) for p in params])
        state = (flat.tobytes(), adam.m.tobytes(), adam.v.tobytes(), adam.t)
        grads = [np.ones(p.shape) for p in params]
        i = data.draw(st.integers(0, len(params) - 1))
        grads[i].flat[data.draw(st.integers(0, grads[i].size - 1))] = bad
        with pytest.raises(NonFiniteGradientError, match=f"parameter {i} with shape"):
            adam.step(params, grads)
        assert (flat.tobytes(), adam.m.tobytes(), adam.v.tobytes(), adam.t) == state

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

    @pytest.mark.parametrize("index", range(3))
    def test_forward_sees_an_adam_step(self, tmp_path, index):
        model = small_models()[index]
        before = model_output(model)
        params = model.params()
        Adam(params, lr=0.05).step(params, [np.ones(p.shape) for p in params])
        after = model_output(model)
        assert not np.array_equal(before, after)
        path = str(tmp_path / "m.json")
        model.save(path)
        np.testing.assert_array_equal(model_output(type(model).from_checkpoint(path)), after)


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
                model, stations, slots, targets, epochs=2, seed=5
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
        hist = fit_embed_mlp(
            model, stations, slots, targets, epochs=40, lr=0.01, seed=1
        )
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
