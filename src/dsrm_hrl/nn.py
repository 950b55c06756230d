"""Minimal feed-forward network machinery: parameter store, forward pass,
closed-form backward pass, Adam, and a finite-difference gradient check.

All math is float64. There is no autodiff graph: the architectures used in
this repo are small fixed MLPs, and correctness is enforced by the
finite-difference oracle rather than by a framework.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

import numpy as np

# Adam's moment decays and denominator floor.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class ShapeError(ValueError):
    pass


class Flat(Mapping):
    """Named float64 arrays that are consecutive views, in key order, of one
    vector: a model's parameters or their gradients. Only Flat.over makes
    one, and as a mapping it is read-only: no name can be added, dropped or
    replaced, so its views tile its vector for as long as it lives. layout
    is its (name, shape) pairs in that order."""

    @classmethod
    def over(cls, shapes: dict, vector: np.ndarray | None = None) -> "Flat":
        """Views of the given shapes laid out over vector (zeros if None)."""
        sizes = [math.prod(shape) for shape in shapes.values()]
        vector = np.zeros(sum(sizes)) if vector is None else vector
        if vector.shape != (sum(sizes),):
            raise ShapeError(f"a vector of shape {vector.shape} for {sum(sizes)} values")
        flat = object.__new__(cls)
        flat.vector, flat.layout, flat._views = vector, tuple(shapes.items()), {}
        end = 0
        for (name, shape), size in zip(shapes.items(), sizes):
            view = vector[end:end + size]
            flat._views[name] = view if len(shape) == 1 else view.reshape(shape)
            end += size
        return flat

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __iter__(self):
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)

    def assign(self, values: Mapping):
        """Copies values[name] into each array, after checking that values
        holds exactly these names and shapes."""
        check_layout(self, values)
        for name, a in self._views.items():
            a[...] = values[name]


def check_layout(expected: Mapping, tensors: Mapping):
    """Raises ShapeError naming the first of expected's names that tensors
    lacks or holds in another shape, or else the first name of tensors that
    expected lacks."""
    for name, a in expected.items():
        if name not in tensors:
            raise ShapeError(f"missing tensor {name}")
        if np.shape(tensors[name]) != a.shape:
            raise ShapeError(f"tensor {name} has shape {np.shape(tensors[name])}, not {a.shape}")
    for name in tensors:
        if name not in expected:
            raise ShapeError(f"unexpected tensor {name}")


def layer_shapes(layer_sizes) -> dict[str, tuple]:
    """An Mlp's parameter names and shapes, in the order of its vector."""
    shapes = {}
    for i, (n_in, n_out) in enumerate(zip(layer_sizes[:-1], layer_sizes[1:])):
        shapes[f"W{i}"], shapes[f"b{i}"] = (n_out, n_in), (n_out,)
    return shapes


class Mlp:
    """Fully-connected net, tanh hidden layers, identity output.

    Weights W[l] have shape (n_out, n_in); forward takes a batch (B, n_in),
    one input being one row, run as W.dot(x). The weights and biases are
    views of one vector in layer_shapes order: the net's own, or a given one.
    """

    def __init__(self, layer_sizes, rng, vector=None):
        if len(layer_sizes) < 2:
            raise ShapeError("need at least input and output layer sizes")
        if any(s < 1 for s in layer_sizes):
            raise ShapeError(f"layer sizes must be positive: {layer_sizes}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.layer_sizes = list(layer_sizes)
        self._shapes = layer_shapes(layer_sizes)
        self._params = Flat.over(self._shapes, vector)
        arrays = list(self._params.values())
        self.weights, self.biases = arrays[0::2], arrays[1::2]
        for w, b in zip(self.weights, self.biases):
            # Xavier-style scale for tanh.
            w[...] = rng.standard_normal(w.shape) * np.sqrt(1.0 / w.shape[1])
            b[...] = 0.0

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def parameters(self) -> Flat:
        return self._params

    def forward(self, x):
        """Returns (y, acts) for a batch x (B, n_in): acts is every layer's
        (B, n) activations, x first and y last, for backward."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.layer_sizes[0]:
            raise ShapeError(f"input of shape {x.shape}, not (B, {self.layer_sizes[0]})")
        acts = [x]
        h = x
        last = self.n_layers - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h.dot(w.T)  # the same product as h @ w.T, with less dispatch
            h += b
            if i != last:
                np.tanh(h, h)
            acts.append(h)
        return h, acts

    def forward_rows(self, x):
        """Outputs for a batch (B, n_in), each row bit for bit forward's on
        that row alone: one matrix-vector product per row (x @ W.T sums otherwise)."""
        h = np.asarray(x, dtype=np.float64)[:, :, None]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = np.matmul(w, h)
            h += b[:, None]
            if i != self.n_layers - 1:
                np.tanh(h, h)
        return h[:, :, 0]

    def backward(self, acts, dy, out=None):
        """Gradients of a scalar loss given dL/dy of the forward that made acts,
        as a Flat over out (a vector of the parameters' size) or a new vector."""
        d = np.asarray(dy, dtype=np.float64)
        if d.shape != acts[-1].shape:
            raise ShapeError("dy shape does not match forward output")
        grads = Flat.over(self._shapes, np.empty(self._params.vector.size)
                          if out is None else out)
        arrays = list(grads.values())
        for i in reversed(range(self.n_layers)):
            if i != self.n_layers - 1:
                t = acts[i + 1]  # tanh of this layer's pre-activation
                d = d @ self.weights[i + 1]
                d *= 1.0 - t * t  # d is fresh: the product with the layer above
            np.matmul(d.T, acts[i], out=arrays[2 * i])
            d.sum(axis=0, out=arrays[2 * i + 1])
        return grads


class Adam:
    """Bias-corrected Adam bound to one model's parameters, a Flat, updated
    in place: each operation is one NumPy call over the Flat's whole vector.
    A tensor whose gradient is not finite keeps its parameters and moments,
    and counts once in skipped."""

    def __init__(self, params: Flat, lr):
        self.lr = lr
        self.step_count = 0
        self.skipped = 0
        self._params = params
        self.m, self.v = Flat.over(dict(params.layout)), Flat.over(dict(params.layout))
        self._tmp, self._step = np.empty(params.vector.size), np.empty(params.vector.size)

    def step(self, grads: Flat):
        """One update from gradients laid out as the parameters are."""
        if grads.layout != self._params.layout:
            check_layout(self._params, grads)
            raise ShapeError("gradients in another order than the parameters")
        p, g = self._params.vector, grads.vector
        self.step_count += 1
        t = self.step_count
        m, v, tmp, step = self.m.vector, self.v.vector, self._tmp, self._step
        kept = []
        if not np.isfinite(g).all():  # a tensor with a bad gradient is put back
            bad = [name for name, a in grads.items() if not np.isfinite(a).all()]
            self.skipped += len(bad)
            kept = [(x[name], x[name].copy())
                    for name in bad for x in (self._params, self.m, self.v)]
            g = np.nan_to_num(g, nan=0.0, posinf=0.0, neginf=0.0)
        # In place: ((1 - b2) * g) * g, (lr * m_hat) / (sqrt(v_hat) + eps).
        m *= ADAM_BETA1
        m += np.multiply(g, 1 - ADAM_BETA1, tmp)
        v *= ADAM_BETA2
        v += np.multiply(np.multiply(g, 1 - ADAM_BETA2, tmp), g, tmp)
        np.sqrt(np.divide(v, 1 - ADAM_BETA2 ** t, tmp), tmp)
        tmp += ADAM_EPS
        np.divide(m, 1 - ADAM_BETA1 ** t, step)
        step *= self.lr
        p -= np.divide(step, tmp, step)
        for view, saved in kept:
            view[...] = saved


def gradient_check(mlp: Mlp, loss_fn, x, h=1e-5) -> float:
    """Worst relative error between analytic and central-difference
    gradients over all parameters at one input vector x, run as one row.
    loss_fn(y) -> (loss, dL/dy) for the output vector y."""
    x = np.asarray(x, dtype=np.float64)[None]
    y, acts = mlp.forward(x)
    _, dy = loss_fn(y[0])
    grads = mlp.backward(acts, dy[None])
    params = mlp.parameters()
    worst = 0.0
    for key, p in params.items():
        flat = p.reshape(-1)
        gflat = grads[key].reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            lp, _ = loss_fn(mlp.forward(x)[0][0])
            flat[idx] = orig - h
            lm, _ = loss_fn(mlp.forward(x)[0][0])
            flat[idx] = orig
            numeric = (lp - lm) / (2 * h)
            analytic = gflat[idx]
            denom = max(abs(numeric), abs(analytic), 1e-8)
            err = abs(numeric - analytic) / denom
            if abs(numeric) < 1e-10 and abs(analytic) < 1e-10:
                err = 0.0
            worst = max(worst, err)
    return worst
