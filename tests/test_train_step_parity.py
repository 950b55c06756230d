"""The lean training step against the code it replaced.

The manager's shaped rewards read one gini() call per episode over the
prefix counts of the items it served, and the MLP forward, backward and
Adam step reuse their own buffers and activations. These tests compare
each Gini with gini() of the whole count vector, and run the earlier
network math, kept here verbatim, side by side with the package's; every
Gini, output, cache entry, gradient, moment and parameter must match bit
for bit.
NumPy promises none of the network equalities (a single-vector `W.dot(h)` against
a one-row matmul, in-place against allocating ufuncs), so these tests pin
them."""

import numpy as np
import pytest

from dsrm_hrl import agent as agent_mod
from dsrm_hrl.agent import Agent
from dsrm_hrl.config import EnvConfig, HrlConfig
from dsrm_hrl.env import RecEnv
from dsrm_hrl.metrics import gini
from dsrm_hrl.nn import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, Adam, Flat, Mlp, ShapeError


# -- the earlier network math, verbatim --------------------------------------

def old_forward(mlp, x):
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    xb = x[None, :] if single else x
    if xb.shape[1] != mlp.layer_sizes[0]:
        raise ShapeError(
            f"input width {xb.shape[1]} != first layer size {mlp.layer_sizes[0]}"
        )
    acts = [xb]
    pre = []
    h = xb
    for i in range(mlp.n_layers):
        z = h @ mlp.weights[i].T + mlp.biases[i]
        pre.append(z)
        h = z if i == mlp.n_layers - 1 else np.tanh(z)
        acts.append(h)
    y = acts[-1][0] if single else acts[-1]
    return y, {"acts": acts, "pre": pre, "single": single}


def old_backward(mlp, cache, dy):
    dy = np.asarray(dy, dtype=np.float64)
    single = cache["single"]
    d = dy[None, :] if single else dy
    acts, pre = cache["acts"], cache["pre"]
    if d.shape != acts[-1].shape:
        raise ShapeError("dy shape does not match forward output")
    grads = {}
    for i in reversed(range(mlp.n_layers)):
        if i != mlp.n_layers - 1:
            t = np.tanh(pre[i])
            d = d * (1.0 - t * t)
        grads[f"W{i}"] = d.T @ acts[i]
        grads[f"b{i}"] = d.sum(axis=0)
        d = d @ mlp.weights[i]
    dx = d[0] if single else d
    return grads, dx


class OldAdam:
    def __init__(self, params, lr=1e-3):
        self.lr = lr
        self.step_count = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.skipped = 0

    def step(self, params, grads):
        self.step_count += 1
        t = self.step_count
        for key, p in params.items():
            g = grads[key]
            if g.shape != p.shape:
                raise ShapeError(f"gradient shape mismatch for {key}")
            if not np.all(np.isfinite(g)):
                self.skipped += 1
                continue
            m = self.m[key]
            v = self.v[key]
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1 - ADAM_BETA2) * g * g
            m_hat = m / (1 - ADAM_BETA1 ** t)
            v_hat = v / (1 - ADAM_BETA2 ** t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# -- episode Gini --------------------------------------------------------------

def full_count_ginis(slates, n_items):
    """gini() of the episode's whole n-item count vector after each slate."""
    counts = np.zeros(n_items)
    ginis = []
    for slate in slates:
        counts[slate] += 1
        ginis.append(gini(counts))
    return ginis


# (n_items, slate_k, max_len): FAST_CFG's env, then the default env at 500
# and at 5000 items.
GINI_ENVS = [(40, 3, 6), (500, 5, 30), (5000, 5, 30)]


@pytest.mark.parametrize("n_items,slate_k,max_len", GINI_ENVS)
def test_episode_gini_matches_gini_over_training_episodes(monkeypatch, n_items,
                                                         slate_k, max_len):
    """200 real training episodes on one shared catalog: each episode's one
    gini() call gives gini() of the episode's whole count vector after
    every step."""
    calls = []

    def checked(counts, n_items=None):
        calls.append(gini(counts, n_items=n_items))
        return calls[-1]

    monkeypatch.setattr(agent_mod, "gini", checked)
    env = RecEnv(EnvConfig(d=8, n_items=n_items, slate_k=slate_k, max_len=max_len,
                           seed=3))
    agent = Agent(HrlConfig(hidden=(16,), variant="HRL-RAW"), 8, seed=3)
    rng = np.random.default_rng(4)
    lengths, repeats = [], 0
    for i in range(200):
        outcome, _ = agent.run_episode(env, 900 + i, rng, train=True)
        assert len(calls) == i + 1
        assert list(calls[-1]) == full_count_ginis(outcome.slates, n_items)
        lengths.append(outcome.length)
        repeats = max(repeats, np.bincount(outcome.slates.ravel()).max())
    assert max(lengths) == max_len
    # Items served in several steps of one episode.
    assert repeats >= 2


@pytest.mark.parametrize("n_items,slate_k,max_len", GINI_ENVS)
def test_episode_gini_matches_gini_on_hot_pools(n_items, slate_k, max_len):
    """Synthetic episodes whose slates come from a small pool, so counts run
    up to max_len and many items share each count: gini() of the prefix
    counts over the pool, with n_items, equals gini() of the whole count
    vector after every step."""
    rng = np.random.default_rng(n_items)
    # Episode 0 serves its pool of slate_k items in all max_len steps.
    for episode in range(200):
        pool = rng.choice(n_items, size=slate_k + episode % (2 * slate_k + 1),
                          replace=False)
        length = max_len if episode % 3 == 0 else int(rng.integers(1, max_len + 1))
        slates = np.array([rng.choice(pool, size=slate_k, replace=False)
                           for _ in range(length)])
        prefix = np.cumsum(np.any(slates[:, :, None] == pool, axis=1), axis=0)
        assert list(gini(prefix, n_items=n_items)) == full_count_ginis(slates, n_items)
        assert gini(np.zeros_like(prefix), n_items=n_items).tolist() == [0.0] * length
        if len(pool) == slate_k:  # every pool item in every step
            assert prefix[-1].max() == length


# -- network math --------------------------------------------------------------

NETS = [[16, 64, 64, 2], [16, 64, 64, 1], [8, 16, 2], [5, 3]]


def make_net(sizes, seed):
    rng = np.random.default_rng(seed)
    mlp = Mlp(sizes, rng=rng)
    for b in mlp.biases:
        b[:] = 0.3 * rng.standard_normal(b.shape)
    return mlp


def assert_caches_equal(acts, ref):
    assert len(acts) == len(ref["acts"])
    for a, r in zip(acts, ref["acts"]):
        assert a.shape == r.shape
        assert np.array_equal(a, r)


@pytest.mark.parametrize("sizes", NETS)
def test_forward_and_backward_match_old_on_single_vectors(sizes):
    mlp = make_net(sizes, 1)
    rng = np.random.default_rng(2)
    for scale in (0.1, 1.0, 5.0):
        for _ in range(100):
            x = scale * rng.standard_normal(sizes[0])
            y, acts = mlp.forward(x[None])
            ref_y, ref_cache = old_forward(mlp, x)
            assert y[0].shape == ref_y.shape and np.array_equal(y[0], ref_y)
            assert_caches_equal(acts, ref_cache)
            dy = rng.standard_normal(sizes[-1])
            grads = mlp.backward(acts, dy[None])
            ref_grads, _ = old_backward(mlp, ref_cache, dy)
            assert grads.keys() == ref_grads.keys()
            for k in grads:
                assert np.array_equal(grads[k], ref_grads[k]), k


@pytest.mark.parametrize("sizes", NETS)
@pytest.mark.parametrize("batch", [1, 7, 64])
def test_forward_and_backward_match_old_on_batches(sizes, batch):
    mlp = make_net(sizes, 3)
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.standard_normal((batch, sizes[0]))
        y, acts = mlp.forward(x)
        ref_y, ref_cache = old_forward(mlp, x)
        assert np.array_equal(y, ref_y)
        assert_caches_equal(acts, ref_cache)
        dy = rng.standard_normal((batch, sizes[-1]))
        dy_before = dy.copy()
        grads = mlp.backward(acts, dy)
        ref_grads, _ = old_backward(mlp, ref_cache, dy)
        assert grads.keys() == ref_grads.keys()
        for k in ref_grads:
            assert np.array_equal(grads[k], ref_grads[k]), k
        assert np.array_equal(dy, dy_before)  # the caller's dy is not written


def test_forward_leaves_input_unchanged():
    mlp = make_net([5, 3], 5)
    x = np.random.default_rng(6).standard_normal((1, 5))
    before = x.copy()
    y, _ = mlp.forward(x)
    assert np.array_equal(x, before)
    assert not np.shares_memory(y, x)


def test_adam_matches_old_over_steps_with_non_finite_gradients():
    mlp, ref = make_net([16, 64, 64, 2], 7), make_net([16, 64, 64, 2], 7)
    shapes = {**dict(mlp.parameters().layout), "log_std": (2,)}
    params = Flat.over(shapes)
    params.assign({**mlp.parameters(), "log_std": np.zeros(2)})
    ref_params = {**ref.parameters(), "log_std": np.zeros(2)}
    opt, ref_opt = Adam(params, lr=3e-3), OldAdam(ref_params, lr=3e-3)
    rng = np.random.default_rng(8)
    for step in range(60):
        grads = {k: 10.0 ** rng.integers(-6, 2) * rng.standard_normal(v.shape)
                 for k, v in params.items()}
        if step in (5, 20):
            grads["W1"][3, 4] = np.nan
        if step == 33:
            grads["b0"][0] = -np.inf
        if step == 40:
            grads["log_std"][1] = np.inf
        flat_grads = Flat.over(shapes)
        flat_grads.assign(grads)
        opt.step(flat_grads)
        ref_opt.step(ref_params, grads)
        assert opt.skipped == ref_opt.skipped
        for k in params:
            assert np.array_equal(params[k], ref_params[k]), (step, k)
            assert np.array_equal(opt.m[k], ref_opt.m[k]), (step, k)
            assert np.array_equal(opt.v[k], ref_opt.v[k]), (step, k)
    assert opt.skipped == 4
