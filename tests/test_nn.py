"""MLP forward/backward, Adam, and the finite-difference oracle."""

import numpy as np
import pytest

from dsrm_hrl.agent import ManagerPolicy, ValueNet
from dsrm_hrl.config import DsrmConfig
from dsrm_hrl.diffusion import Denoiser
from dsrm_hrl.nn import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, Adam, Flat, Mlp, ShapeError,
                         gradient_check)


def ones(shapes):
    """Gradients of all ones laid out as shapes."""
    grads = Flat.over(shapes)
    grads.vector[...] = 1.0
    return grads


def quadratic_loss(target):
    def loss_fn(y):
        resid = y - target
        return float(np.sum(resid ** 2)), 2.0 * resid
    return loss_fn


def test_forward_shapes_single_and_batch():
    mlp = Mlp([4, 8, 3], rng=np.random.default_rng(0))
    y, acts = mlp.forward(np.zeros((1, 4)))
    assert y.shape == (1, 3) and [a.shape for a in acts] == [(1, 4), (1, 8), (1, 3)]
    yb, actsb = mlp.forward(np.zeros((7, 4)))
    assert yb.shape == (7, 3) and [a.shape for a in actsb] == [(7, 4), (7, 8), (7, 3)]
    assert np.allclose(yb[0], y[0])


@pytest.mark.parametrize("shape", [(4,), (2, 1, 4), (3, 5)])
def test_forward_takes_only_rows_of_the_input_width(shape):
    with pytest.raises(ShapeError):
        Mlp([4, 8, 3], rng=np.random.default_rng(0)).forward(np.zeros(shape))


def _matrix_vector_reference(mlp, x, dy):
    """The output, activations and gradients of one input vector x, layer by
    layer as matrix-vector products W.dot(h) and outer products."""
    acts = [x]
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        h = w.dot(acts[-1]) + b
        acts.append(h if i == mlp.n_layers - 1 else np.tanh(h))
    grads, d = {}, dy
    for i in reversed(range(mlp.n_layers)):
        if i != mlp.n_layers - 1:
            d = mlp.weights[i + 1].T.dot(d) * (1.0 - acts[i + 1] * acts[i + 1])
        grads[f"W{i}"], grads[f"b{i}"] = np.outer(d, acts[i]), d
    return acts, grads


@pytest.mark.parametrize("net", ["manager", "value", "denoiser"])
@pytest.mark.parametrize("cfg", ["default", "fast"])
def test_one_row_forward_and_backward_equal_matrix_vector_products(net, cfg):
    """A one-row batch runs the same arithmetic as W.dot on the vector, bit
    for bit, on the shapes of the repo's three networks under the default
    config and FAST_CFG, at inputs scaled from 1e-3 to 1e3."""
    d, hidden = (16, (64, 64)) if cfg == "default" else (8, (16,))
    rng = np.random.default_rng(["manager", "value", "denoiser"].index(net))
    mlp = {"manager": lambda: ManagerPolicy(d, hidden=hidden, rng=rng).net,
           "value": lambda: ValueNet(d, hidden=hidden, rng=rng).net,
           "denoiser": lambda: Denoiser(
               DsrmConfig() if cfg == "default" else DsrmConfig(hidden=hidden, time_dim=4),
               d, rng=rng).net}[net]()
    for b in mlp.biases:
        b[:] = 0.3 * rng.standard_normal(b.shape)
    for scale in np.logspace(-3, 3, 20):
        x = scale * rng.standard_normal(mlp.layer_sizes[0])
        dy = rng.standard_normal(mlp.layer_sizes[-1])
        ref_acts, ref_grads = _matrix_vector_reference(mlp, x, dy)
        y, acts = mlp.forward(x[None])
        assert np.array_equal(y[0], ref_acts[-1])
        assert all(np.array_equal(a[0], r) for a, r in zip(acts, ref_acts))
        grads = mlp.backward(acts, dy[None])
        assert all(np.array_equal(grads[k], ref_grads[k]) for k in ref_grads)


def test_parameters_round_trip():
    mlp = Mlp([3, 5, 2], rng=np.random.default_rng(1))
    params = {k: v.copy() for k, v in mlp.parameters().items()}
    other = Mlp([3, 5, 2], rng=np.random.default_rng(99))
    other.parameters().assign(params)
    x = np.random.default_rng(2).standard_normal((1, 3))
    assert np.array_equal(other.forward(x)[0], mlp.forward(x)[0])


def test_set_parameters_rejects_bad_shape():
    mlp = Mlp([3, 5, 2], rng=np.random.default_rng(1))
    params = dict(mlp.parameters())
    params["W0"] = np.zeros((2, 2))
    with pytest.raises(ShapeError):
        mlp.parameters().assign(params)


@pytest.mark.parametrize("fault,name", [("missing", "b0"), ("unexpected", "W9"),
                                        ("wrong shape", "W1")])
def test_assign_names_the_first_bad_tensor_and_changes_nothing(fault, name):
    mlp = Mlp([3, 5, 2], rng=np.random.default_rng(1))
    before = mlp.parameters().vector.copy()
    values = {k: np.zeros_like(v) for k, v in mlp.parameters().items()}
    if fault == "missing":
        del values[name]
    elif fault == "unexpected":
        values[name] = np.zeros(2)
    else:
        values[name] = np.zeros((5, 2))
    with pytest.raises(ShapeError, match=name):
        mlp.parameters().assign(values)
    assert np.array_equal(mlp.parameters().vector, before)


def test_backward_rejects_bad_dy_shape():
    mlp = Mlp([3, 5, 2], rng=np.random.default_rng(1))
    _, acts = mlp.forward(np.zeros((1, 3)))
    with pytest.raises(ShapeError):
        mlp.backward(acts, np.zeros((1, 5)))


# "-tanh" in the ids names the hidden activation, the only one Mlp has.
@pytest.mark.parametrize("seed", [0, 1, 2], ids=lambda s: f"{s}-tanh")
def test_gradient_check_against_finite_differences(seed):
    rng = np.random.default_rng(seed)
    mlp = Mlp([5, 8, 8, 3], rng=rng)
    x = rng.standard_normal(5) * 0.5
    target = rng.standard_normal(3)
    assert gradient_check(mlp, quadratic_loss(target), x) < 1e-4


def test_batch_gradient_matches_sum_of_singles():
    rng = np.random.default_rng(3)
    mlp = Mlp([4, 6, 2], rng=rng)
    xs = rng.standard_normal((5, 4))
    dys = rng.standard_normal((5, 2))
    _, cache = mlp.forward(xs)
    batch_grads = mlp.backward(cache, dys)
    summed = {k: np.zeros_like(v) for k, v in batch_grads.items()}
    for x, dy in zip(xs, dys):
        _, acts = mlp.forward(x[None])
        g = mlp.backward(acts, dy[None])
        for k in summed:
            summed[k] += g[k]
    for k in summed:
        assert np.allclose(batch_grads[k], summed[k], atol=1e-12)


def test_adam_first_step_hand_case():
    # With g=1 everywhere, bias correction makes m_hat = v_hat = 1 at t=1,
    # so the first update is exactly lr / (1 + eps).
    params = Flat.over({"w": (2,)}, np.array([1.0, -2.0]))
    opt = Adam(params, lr=0.1)
    opt.step(Flat.over({"w": (2,)}, np.ones(2)))
    expected = 1.0 - 0.1 / (1.0 + ADAM_EPS)
    assert np.allclose(params["w"], [expected, expected - 3.0], atol=1e-12)


def test_adam_skips_nonfinite_gradients():
    shapes = {"w": (1,), "u": (1,)}
    params = Flat.over(shapes, np.array([1.0, 1.0]))
    opt = Adam(params, lr=0.1)
    opt.step(Flat.over(shapes, np.array([np.nan, 1.0])))
    assert params["w"][0] == 1.0      # skipped
    assert params["u"][0] != 1.0      # updated
    assert opt.skipped == 1


def test_adam_rejects_shape_mismatch():
    opt = Adam(Flat.over({"w": (3,)}), lr=1e-3)
    with pytest.raises(ShapeError):
        opt.step(Flat.over({"w": (2,)}))


@pytest.mark.parametrize("fault", ["wrong shape", "missing"])
def test_adam_checks_every_gradient_before_stepping(fault):
    """A bad b1 gradient (the last tensor) is rejected before W0, b0 or W1
    move: parameters, moments and step_count stay as they were."""
    mlp = Mlp([4, 3, 2], rng=np.random.default_rng(0))
    opt = Adam(mlp.parameters(), lr=0.1)
    shapes = dict(mlp.parameters().layout)
    opt.step(ones(shapes))
    before = [{k: a.copy() for k, a in d.items()} for d in (mlp.parameters(), opt.m, opt.v)]
    if fault == "missing":
        del shapes["b1"]
    else:
        shapes["b1"] = (3,)
    with pytest.raises(ShapeError, match="b1"):
        opt.step(ones(shapes))
    assert opt.step_count == 1
    for d, ref in zip((mlp.parameters(), opt.m, opt.v), before):
        for k in ref:
            assert np.array_equal(d[k], ref[k]), k


def test_adam_converges_on_quadratic():
    rng = np.random.default_rng(4)
    target = rng.standard_normal(6)
    params, grads = Flat.over({"w": (6,)}), Flat.over({"w": (6,)})
    opt = Adam(params, lr=0.05)
    for _ in range(500):
        grads["w"][...] = 2.0 * (params["w"] - target)
        opt.step(grads)
    assert np.allclose(params["w"], target, atol=1e-3)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("batch", [1, 2, 7, 64])
def test_forward_rows_equals_single_vector_forward(seed, batch):
    """Every row of forward_rows is the one-row forward's output for that
    row, bit for bit: random widths 1-128, 1-3 hidden layers, non-zero
    biases, inputs scaled from 1e-3 to 1e3."""
    rng = np.random.default_rng([seed, batch])
    sizes = [int(n) for n in rng.integers(1, 129, rng.integers(3, 6))]
    mlp = Mlp(sizes, rng=rng)
    for b in mlp.biases:
        b[:] = rng.standard_normal(b.shape)
    x = rng.standard_normal((batch, sizes[0])) * np.logspace(-3, 3, batch)[:, None]
    rows = mlp.forward_rows(x)
    assert rows.shape == (batch, sizes[-1])
    for xi, yi in zip(x, rows):
        assert np.array_equal(mlp.forward(xi[None])[0][0], yi)


# -- Adam over one vector against the per-tensor Adam it replaced -------------

class PerTensorAdam:
    """The earlier Adam, verbatim: the same operations, one tensor at a time."""

    def __init__(self, params, lr=1e-3):
        self.lr = lr
        self.step_count = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self._tmp = {k: np.empty_like(v) for k, v in params.items()}
        self.skipped = 0

    def step(self, params, grads):
        self.step_count += 1
        t = self.step_count
        for key, p in params.items():
            g = grads[key]
            if g.shape != p.shape:
                raise ShapeError(f"gradient shape mismatch for {key}")
            if not np.isfinite(g).all():
                self.skipped += 1
                continue
            # In place: ((1 - b2) * g) * g, (lr * m_hat) / (sqrt(v_hat) + eps).
            m, v, tmp = self.m[key], self.v[key], self._tmp[key]
            m *= ADAM_BETA1
            m += np.multiply(g, 1 - ADAM_BETA1, tmp)
            v *= ADAM_BETA2
            v += np.multiply(np.multiply(g, 1 - ADAM_BETA2, tmp), g, tmp)
            np.sqrt(np.divide(v, 1 - ADAM_BETA2 ** t, tmp), tmp)
            tmp += ADAM_EPS
            step = m / (1 - ADAM_BETA1 ** t)
            step *= self.lr
            p -= np.divide(step, tmp, step)


MODELS = {
    "denoiser": lambda rng: Denoiser(DsrmConfig(), 16, rng=rng).net,
    "manager": lambda rng: ManagerPolicy(16, hidden=(64, 64), rng=rng),
    "value": lambda rng: ValueNet(16, hidden=(64, 64), rng=rng).net,
}


@pytest.mark.parametrize("model", sorted(MODELS))
def test_flat_adam_matches_per_tensor_adam(model):
    """50 steps on each model's own parameter vector, with gradients of
    scales 1e-6 to 10 laid out as one vector too; at step 17 one tensor's
    gradient (the fourth tensor's) holds a NaN. Parameters, moments and
    skipped match bit for bit."""
    net, ref = MODELS[model](np.random.default_rng(3)), MODELS[model](np.random.default_rng(3))
    params = net.parameters()
    assert isinstance(params, Flat) and params is net.parameters()
    ref_params = {k: v.copy() for k, v in ref.parameters().items()}
    shapes = {k: v.shape for k, v in params.items()}
    opt, ref_opt = Adam(params, lr=3e-3), PerTensorAdam(ref_params, lr=3e-3)
    rng = np.random.default_rng(4)
    for step in range(50):
        grads = Flat.over(shapes, rng.standard_normal(params.vector.size))
        for g in grads.values():
            g *= 10.0 ** rng.integers(-6, 2)
        if step == 17:
            grads[list(shapes)[3]][-1] = np.nan
        ref_grads = {k: g.copy() for k, g in grads.items()}
        opt.step(grads)
        ref_opt.step(ref_params, ref_grads)
        assert opt.skipped == ref_opt.skipped == (step >= 17)
        for k in shapes:
            assert np.array_equal(net.parameters()[k], ref_params[k]), (step, k)
            assert np.array_equal(opt.m[k], ref_opt.m[k]), (step, k)
            assert np.array_equal(opt.v[k], ref_opt.v[k]), (step, k)


@pytest.mark.parametrize("change", ["add", "replace", "drop", "reorder"])
def test_a_flat_keeps_its_layout(change):
    """A Flat cannot be re-keyed: adding, replacing, dropping or reordering a
    name fails and leaves its names and views as they were. Adam rejects
    gradients laid out with that change, or for another model, before
    anything moves."""
    mlp = Mlp([3, 4, 2], rng=np.random.default_rng(0))
    params = mlp.parameters()
    names, views = list(params), list(params.values())
    shapes = dict(params.layout)
    with pytest.raises((TypeError, AttributeError)):
        if change == "add":
            params["log_std"] = np.zeros(2)
        elif change == "replace":
            params["W0"] = params["W0"].copy()
        elif change == "drop":
            del params["b1"]
        else:
            params["W0"] = params.pop("W0")
    assert list(params) == names
    assert all(a is b for a, b in zip(params.values(), views))
    if change == "add":
        shapes["log_std"] = (2,)
    elif change == "replace":
        shapes["W0"] = (3, 4)
    elif change == "drop":
        del shapes["b1"]
    else:
        shapes["W0"] = shapes.pop("W0")
    opt = Adam(params, lr=0.1)
    before = params.vector.copy()
    other = Mlp([3, 5, 2], rng=np.random.default_rng(1))
    _, acts = other.forward(np.ones((1, 3)))
    named = {"add": "log_std", "replace": "W0", "drop": "b1", "reorder": "order"}[change]
    for grads, match in ((ones(shapes), named), (other.backward(acts, np.ones((1, 2))), "W0")):
        with pytest.raises(ShapeError, match=match):
            opt.step(grads)
    assert np.array_equal(params.vector, before) and opt.step_count == 0


def test_models_keep_parameters_and_gradients_in_one_vector():
    """Each model's parameters() are one Flat, views of its one vector, and
    its gradients come laid out the same way, so Adam binds to that vector."""
    rng = np.random.default_rng(5)
    x = rng.standard_normal((7, 16))
    policy = ManagerPolicy(16, hidden=(64, 64), rng=rng)
    value = ValueNet(16, hidden=(64, 64), rng=rng)
    means, cache = policy.net.forward(x)
    pairs = [(policy.parameters(), policy.gradients(cache, means, means + 1.0, np.ones(7), 0.1))]
    _, cache = value.net.forward(x)
    pairs.append((value.net.parameters(), value.net.backward(cache, np.ones((7, 1)))))
    for params, grads in pairs:
        assert isinstance(grads, Flat) and grads.layout == params.layout
        assert grads.vector.size == params.vector.size
        assert all(np.shares_memory(a, params.vector) for a in params.values())
    assert policy.parameters() is policy.parameters()
    assert policy.parameters()["log_std"] is policy.log_std
    assert list(policy.parameters())[-1] == "log_std"
