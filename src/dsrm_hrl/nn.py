"""Minimal feed-forward network machinery: parameter store, forward pass,
closed-form backward pass, Adam, and a finite-difference gradient check.

All math is float64. There is no autodiff graph: the architectures used in
this repo are small fixed MLPs, and correctness is enforced by the
finite-difference oracle rather than by a framework.
"""

from __future__ import annotations

import numpy as np

# Adam's moment decays and denominator floor.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class ShapeError(ValueError):
    pass


class Mlp:
    """Fully-connected net, tanh hidden layers, identity output.

    Weights W[l] have shape (n_out, n_in); forward accepts a single vector
    (n_in,) or a batch (B, n_in).
    """

    def __init__(self, layer_sizes, rng=None):
        if len(layer_sizes) < 2:
            raise ShapeError("need at least input and output layer sizes")
        if any(s < 1 for s in layer_sizes):
            raise ShapeError(f"layer sizes must be positive: {layer_sizes}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.layer_sizes = list(layer_sizes)
        self.weights = []
        self.biases = []
        for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            # Xavier-style scale for tanh.
            self.weights.append(rng.standard_normal((n_out, n_in)) * np.sqrt(1.0 / n_in))
            self.biases.append(np.zeros(n_out))

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def parameters(self) -> dict[str, np.ndarray]:
        params = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            params[f"W{i}"] = w
            params[f"b{i}"] = b
        return params

    def set_parameters(self, params: dict[str, np.ndarray]):
        for i in range(self.n_layers):
            w, b = params[f"W{i}"], params[f"b{i}"]
            if w.shape != self.weights[i].shape or b.shape != self.biases[i].shape:
                raise ShapeError(f"parameter shape mismatch at layer {i}")
            self.weights[i] = np.asarray(w, dtype=np.float64)
            self.biases[i] = np.asarray(b, dtype=np.float64)

    def forward(self, x):
        """Returns (y, cache); cache holds every layer's (B, n) activations
        for backward ((1, n) views for a single vector (n_in,))."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        if x.shape[-1] != self.layer_sizes[0]:
            raise ShapeError(
                f"input width {x.shape[-1]} != first layer size {self.layer_sizes[0]}"
            )
        acts = [x]
        h = x
        last = self.n_layers - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = w.dot(h) if single else h @ w.T
            h += b
            if i != last:
                np.tanh(h, h)
            acts.append(h)
        if single:
            acts = [a[None, :] for a in acts]
        return h, {"acts": acts, "single": single}

    def forward_rows(self, x):
        """Outputs for a batch (B, n_in), each row bit for bit forward's for
        that row: one matrix-vector product per row (x @ W.T sums otherwise)."""
        h = np.asarray(x, dtype=np.float64)[:, :, None]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = np.matmul(w, h)
            h += b[:, None]
            if i != self.n_layers - 1:
                np.tanh(h, h)
        return h[:, :, 0]

    def backward(self, cache, dy):
        """Gradients of a scalar loss given dL/dy: parameter names mapped to
        arrays of matching shape."""
        dy = np.asarray(dy, dtype=np.float64)
        d = dy[None, :] if cache["single"] else dy
        acts = cache["acts"]
        if d.shape != acts[-1].shape:
            raise ShapeError("dy shape does not match forward output")
        grads = {}
        for i in reversed(range(self.n_layers)):
            if i != self.n_layers - 1:
                t = acts[i + 1]  # tanh of this layer's pre-activation
                d = d @ self.weights[i + 1]
                d *= 1.0 - t * t  # d is fresh: the product with the layer above
            grads[f"W{i}"] = d.T @ acts[i]
            grads[f"b{i}"] = d.sum(axis=0)
        return grads


class Adam:
    """Bias-corrected Adam over a named-parameter dict. Updates in place;
    non-finite gradients skip the update for that tensor and are counted."""

    def __init__(self, params: dict[str, np.ndarray], lr=1e-3):
        self.lr = lr
        self.step_count = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self._tmp = {k: np.empty_like(v) for k, v in params.items()}
        self.skipped = 0

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
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


def gradient_check(mlp: Mlp, loss_fn, x, h=1e-5) -> float:
    """Worst relative error between analytic and central-difference
    gradients over all parameters. loss_fn(y) -> (loss, dL/dy)."""
    y, cache = mlp.forward(x)
    _, dy = loss_fn(y)
    grads = mlp.backward(cache, dy)
    params = mlp.parameters()
    worst = 0.0
    for key, p in params.items():
        flat = p.reshape(-1)
        gflat = grads[key].reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            lp, _ = loss_fn(mlp.forward(x)[0])
            flat[idx] = orig - h
            lm, _ = loss_fn(mlp.forward(x)[0])
            flat[idx] = orig
            numeric = (lp - lm) / (2 * h)
            analytic = gflat[idx]
            denom = max(abs(numeric), abs(analytic), 1e-8)
            err = abs(numeric - analytic) / denom
            if abs(numeric) < 1e-10 and abs(analytic) < 1e-10:
                err = 0.0
            worst = max(worst, err)
    return worst
