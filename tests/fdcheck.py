"""Central finite-difference gradient checking shared by unit and acceptance tests.

Each *_grads checker takes a model and its batch, and returns the analytic
parameter gradients with their central differences, for max_rel_err or
assert_grads_close to compare.
"""

import numpy as np

from hubopt import nn, pricing, scheduler

FD_STEP = 1e-5
REL_TOL = 1e-4


def central_diff_grads(f, params, h=FD_STEP):
    """Numerical gradient of scalar f() wrt each array in params (edited in place)."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            i = it.multi_index
            orig = p[i]
            p[i] = orig + h
            up = f()
            p[i] = orig - h
            down = f()
            p[i] = orig
            g[i] = (up - down) / (2.0 * h)
            it.iternext()
        grads.append(g)
    return grads


def max_rel_err(analytic, numeric):
    """Worst elementwise relative error with a small-denominator floor."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def assert_grads_close(analytic, numeric, tol=REL_TOL):
    err = max_rel_err(analytic, numeric)
    assert err <= tol, f"gradient mismatch: max relative error {err:.3e} > {tol:.0e}"


def dense_grads(net, x, loss, target):
    """A DenseNet's gradients of loss(net(x), target); loss is nn.mse_loss or nn.nll_loss."""

    def f():
        out, _ = net.forward(x)
        return loss(out, target)[0]

    out, cache = net.forward(x)
    analytic, _ = net.backward(cache, loss(out, target)[1])
    return analytic, central_diff_grads(f, net.params())


def embed_mlp_grads(model, stations, slots, target):
    """An EmbedMlp's gradients of its mean squared error against target."""

    def f():
        pred, _ = model.forward(stations, slots)
        return nn.mse_loss(pred, target)[0]

    pred, cache = model.forward(stations, slots)
    analytic = model.backward(cache, nn.mse_loss(pred, target)[1])
    return analytic, central_diff_grads(f, model.params())


def pricing_loss_grads(model, stations, slots, treated, charged):
    """A PricingModel's gradients of the cfmtl loss total."""

    def f():
        probs, g, _ = model.forward(stations, slots)
        return pricing.cfmtl_loss_parts(probs, g, treated, charged)[0].total

    probs, g, cache = model.forward(stations, slots)
    _, grad_strata, grad_g = pricing.cfmtl_loss_parts(probs, g, treated, charged)
    analytic = model.backward(cache, grad_strata, grad_g)
    return analytic, central_diff_grads(f, model.params())


def ppo_objective_grads(bundle, batch, cfg):
    """A PolicyBundle's gradients of scheduler.total_loss on a ppo_batch."""
    loss = lambda: scheduler.total_loss(bundle, *batch, cfg)
    analytic = [g.copy() for g in loss()[1]]  # each later call's backward overwrites the views
    return analytic, central_diff_grads(lambda: loss()[0], bundle.params())
