"""MLP forward/backward, Adam, and the finite-difference oracle."""

import numpy as np
import pytest

from dsrm_hrl.nn import ADAM_EPS, Adam, Mlp, ShapeError, gradient_check


def quadratic_loss(target):
    def loss_fn(y):
        resid = y - target
        return float(np.sum(resid ** 2)), 2.0 * resid
    return loss_fn


def test_forward_shapes_single_and_batch():
    mlp = Mlp([4, 8, 3], rng=np.random.default_rng(0))
    y, cache = mlp.forward(np.zeros(4))
    assert y.shape == (3,) and cache["single"]
    yb, cacheb = mlp.forward(np.zeros((7, 4)))
    assert yb.shape == (7, 3) and not cacheb["single"]
    assert np.allclose(yb[0], y)


def test_parameters_round_trip():
    mlp = Mlp([3, 5, 2], rng=np.random.default_rng(1))
    params = {k: v.copy() for k, v in mlp.parameters().items()}
    other = Mlp([3, 5, 2], rng=np.random.default_rng(99))
    other.set_parameters(params)
    x = np.random.default_rng(2).standard_normal(3)
    assert np.array_equal(other.forward(x)[0], mlp.forward(x)[0])


def test_set_parameters_rejects_bad_shape():
    mlp = Mlp([3, 5, 2], rng=np.random.default_rng(1))
    params = mlp.parameters()
    params["W0"] = np.zeros((2, 2))
    with pytest.raises(ShapeError):
        mlp.set_parameters(params)


def test_backward_rejects_bad_dy_shape():
    mlp = Mlp([3, 5, 2], rng=np.random.default_rng(1))
    _, cache = mlp.forward(np.zeros(3))
    with pytest.raises(ShapeError):
        mlp.backward(cache, np.zeros(5))


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
        _, c = mlp.forward(x)
        g = mlp.backward(c, dy)
        for k in summed:
            summed[k] += g[k]
    for k in summed:
        assert np.allclose(batch_grads[k], summed[k], atol=1e-12)


def test_adam_first_step_hand_case():
    # With g=1 everywhere, bias correction makes m_hat = v_hat = 1 at t=1,
    # so the first update is exactly lr / (1 + eps).
    params = {"w": np.array([1.0, -2.0])}
    opt = Adam(params, lr=0.1)
    opt.step(params, {"w": np.ones(2)})
    expected = 1.0 - 0.1 / (1.0 + ADAM_EPS)
    assert np.allclose(params["w"], [expected, expected - 3.0], atol=1e-12)


def test_adam_skips_nonfinite_gradients():
    params = {"w": np.array([1.0]), "u": np.array([1.0])}
    opt = Adam(params, lr=0.1)
    opt.step(params, {"w": np.array([np.nan]), "u": np.array([1.0])})
    assert params["w"][0] == 1.0      # skipped
    assert params["u"][0] != 1.0      # updated
    assert opt.skipped == 1


def test_adam_rejects_shape_mismatch():
    params = {"w": np.zeros(3)}
    opt = Adam(params)
    with pytest.raises(ShapeError):
        opt.step(params, {"w": np.zeros(2)})


def test_adam_converges_on_quadratic():
    rng = np.random.default_rng(4)
    target = rng.standard_normal(6)
    params = {"w": np.zeros(6)}
    opt = Adam(params, lr=0.05)
    for _ in range(500):
        g = 2.0 * (params["w"] - target)
        opt.step(params, {"w": g})
    assert np.allclose(params["w"], target, atol=1e-3)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("batch", [1, 2, 7, 64])
def test_forward_rows_equals_single_vector_forward(seed, batch):
    """Every row of forward_rows is the single-vector forward's output for
    that row, bit for bit: random widths 1-128, 1-3 hidden layers, non-zero
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
        assert np.array_equal(mlp.forward(xi)[0], yi)
