"""Minimal feed-forward network machinery: parameter store, forward pass,
closed-form backward pass, Adam, and a finite-difference gradient check.

All math is float64. There is no autodiff graph: the architectures used in
this repo are small fixed MLPs, and correctness is enforced by the
finite-difference oracle rather than by a framework.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

# Adam's moment decays and denominator floor.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class ShapeError(ValueError):
    pass


class Flat(dict):
    """Named float64 arrays that are consecutive views, in key order, of one
    vector: a model's parameters or their gradients. Adam updates all of a
    Flat with one NumPy call per operation."""

    def __init__(self, views: dict, vector: np.ndarray):
        """views: arrays that are consecutive views of vector, in key order,
        as Flat.over lays them out (or another Flat's)."""
        super().__init__(views)
        self.vector = vector
        self._names, self._views = tuple(self), tuple(self.values())

    @classmethod
    def over(cls, shapes: dict, vector: np.ndarray | None = None) -> "Flat":
        """Views of the given shapes laid out over vector (zeros if None)."""
        sizes = [math.prod(shape) for shape in shapes.values()]
        vector = np.zeros(sum(sizes)) if vector is None else vector
        if vector.shape != (sum(sizes),):
            raise ShapeError(f"a vector of shape {vector.shape} for {sum(sizes)} values")
        views, end = {}, 0
        for (name, shape), size in zip(shapes.items(), sizes):
            view = vector[end:end + size]
            views[name] = view if len(shape) == 1 else view.reshape(shape)
            end += size
        return cls(views, vector)

    def tiles(self, names: tuple) -> bool:
        """Whether this still holds its views under names, in order: no key
        added, dropped, reordered or replaced."""
        return (tuple(self) == names == self._names
                and all(map(operator.is_, self.values(), self._views)))

    def assign(self, values: dict):
        """Copies values[name] into each array, after checking every shape."""
        for name, a in self.items():
            if np.shape(values[name]) != a.shape:
                raise ShapeError(f"parameter shape mismatch at {name}")
        for name, a in self.items():
            a[...] = values[name]


def layer_shapes(layer_sizes) -> dict[str, tuple]:
    """An Mlp's parameter names and shapes, in the order of its vector."""
    shapes = {}
    for i, (n_in, n_out) in enumerate(zip(layer_sizes[:-1], layer_sizes[1:])):
        shapes[f"W{i}"], shapes[f"b{i}"] = (n_out, n_in), (n_out,)
    return shapes


class Mlp:
    """Fully-connected net, tanh hidden layers, identity output.

    Weights W[l] have shape (n_out, n_in); forward accepts a single vector
    (n_in,) or a batch (B, n_in). The weights and biases are views of one
    vector in layer_shapes order: the net's own, or a given one.
    """

    def __init__(self, layer_sizes, rng=None, vector=None):
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
        return Flat(self._params, self._params.vector)

    def set_parameters(self, params: dict[str, np.ndarray]):
        self._params.assign(params)

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

    def backward(self, cache, dy, out=None):
        """Gradients of a scalar loss given dL/dy, as a Flat over out (a
        vector of the parameters' size) or over a new vector."""
        dy = np.asarray(dy, dtype=np.float64)
        d = dy[None, :] if cache["single"] else dy
        acts = cache["acts"]
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
    """Bias-corrected Adam over named parameters, updated in place. Each
    operation is one NumPy call over all the parameters as one vector: a
    Flat's own vector, or else a copy gathered from the arrays and scattered
    back. A tensor whose gradient is not finite keeps its parameters and
    moments, and counts once in skipped."""

    def __init__(self, params: dict[str, np.ndarray], lr=1e-3):
        self.lr = lr
        self.step_count = 0
        self.skipped = 0
        shapes = {k: np.shape(v) for k, v in params.items()}
        self._names = tuple(shapes)
        self.m, self.v = Flat.over(shapes), Flat.over(shapes)
        sizes = [v.size for v in self.m.values()]
        self._slices = [slice(end - size, end)
                        for size, end in zip(sizes, itertools.accumulate(sizes))]
        self._tmp, self._step = np.empty(sum(sizes)), np.empty(sum(sizes))

    def _vector(self, tensors) -> np.ndarray:
        if isinstance(tensors, Flat) and tensors.tiles(self._names):
            return tensors.vector
        return np.concatenate([np.ravel(tensors[k]) for k in self._names])

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        if tuple(params) != self._names:
            raise ShapeError(f"parameters {tuple(params)} are not {self._names}")
        for key, p in params.items():
            g = grads.get(key)
            if g is None:
                raise ShapeError(f"no gradient for {key}")
            if not g.shape == p.shape == self.m[key].shape:
                raise ShapeError(f"gradient shape mismatch for {key}")
        p, g = self._vector(params), self._vector(grads)
        self.step_count += 1
        t = self.step_count
        m, v, tmp, step = self.m.vector, self.v.vector, self._tmp, self._step
        kept = []
        if not np.isfinite(g).all():
            bad = [s for s in self._slices if not np.isfinite(g[s]).all()]
            self.skipped += len(bad)
            g = g.copy()
            for s in bad:
                g[s] = 0.0
                kept.append((s, p[s].copy(), m[s].copy(), v[s].copy()))
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
        for s, p_s, m_s, v_s in kept:
            p[s], m[s], v[s] = p_s, m_s, v_s
        if p is not getattr(params, "vector", None):  # gathered: scatter back
            for key, s in zip(self._names, self._slices):
                params[key][...] = p[s].reshape(self.m[key].shape)


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
