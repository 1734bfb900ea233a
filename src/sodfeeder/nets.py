"""Minimal dense networks with manual backprop, and Adam.

Everything is float64 numpy so that analytic gradients can be checked tightly
against central finite differences.  A net's parameters are one flat vector
with per-layer views into it, which Adam updates in place as a whole.
"""

from __future__ import annotations

import numpy as np


def orthogonal(rng, shape, gain):
    a = rng.standard_normal(shape)
    q, r = np.linalg.qr(a if shape[0] >= shape[1] else a.T)
    q = q * np.sign(np.diag(r))
    if shape[0] < shape[1]:
        q = q.T
    return gain * q[:shape[0], :shape[1]]


def _views(flat, sizes):
    """(W, b): tuples of the per-layer reshape views into ``flat``."""
    W, b, k = [], [], 0
    for n_in, n_out in zip(sizes, sizes[1:]):
        W.append(flat[k:k + n_in * n_out].reshape(n_in, n_out))
        b.append(flat[k + n_in * n_out:k + (n_in + 1) * n_out])
        k += (n_in + 1) * n_out
    return tuple(W), tuple(b)


class MLP:
    """Fully connected net: tanh hidden layers, linear output.

    ``flat`` holds every parameter in the order W[0], b[0], W[1], ...; the
    tuples ``W`` and ``b`` hold views into it, written in place, never
    rebound.  A copied or unpickled net rebuilds them over its own ``flat``.
    """

    def __init__(self, sizes, rng, out_gain=1.0):
        self.sizes = list(sizes)
        self.flat = np.zeros(sum((n_in + 1) * n_out for n_in, n_out
                                 in zip(sizes, sizes[1:])))
        self.W, self.b = _views(self.flat, self.sizes)
        for i, w in enumerate(self.W):
            gain = out_gain if i == len(self.W) - 1 else np.sqrt(2.0)
            w[...] = orthogonal(rng, w.shape, gain)

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.W, self.b = _views(self.flat, self.sizes)

    def forward(self, x):
        """Returns (output, cache) for ``x``, a float array of shape
        (batch, n_in); the output has shape (batch, n_out)."""
        acts = [x]
        h = x
        for i in range(len(self.W) - 1):
            h = h @ self.W[i]
            h += self.b[i]
            np.tanh(h, out=h)
            acts.append(h)
        out = h @ self.W[-1]
        out += self.b[-1]
        if not np.isfinite(out).all():
            raise FloatingPointError("non-finite values in forward pass")
        return out, acts

    def backward(self, acts, dout):
        """Gradient of a scalar loss given d(loss)/d(output), as one vector
        laid out like ``flat``; each hidden activation ``a`` in ``acts``
        becomes ``1 - a**2`` in place."""
        grad = np.empty_like(self.flat)
        grad_W, grad_b = _views(grad, self.sizes)
        dh = dout
        for i in range(len(self.W) - 1, -1, -1):
            np.matmul(acts[i].T, dh, out=grad_W[i])
            dh.sum(axis=0, out=grad_b[i])
            if i > 0:
                dh = dh @ self.W[i].T
                dh *= np.subtract(1.0, np.square(acts[i], out=acts[i]),
                                  out=acts[i])
        return grad

    def flat_params(self):
        return self.flat.copy()


class Adam:
    """Adam over one parameter vector, updated in place by ``step``, whose
    intermediates go to two scratch vectors.  Each elementwise operation
    keeps the operand order of per-array Adam: equal results bit for bit."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.scratch = np.empty((2, *params.shape))

    def step(self, grad):
        self.t += 1
        a, b = self.scratch
        self.m *= self.beta1
        self.m += np.multiply(1 - self.beta1, grad, out=a)
        self.v *= self.beta2
        self.v += np.multiply(np.multiply(1 - self.beta2, grad, out=a), grad,
                              out=a)
        mhat = np.divide(self.m, 1 - self.beta1 ** self.t, out=a)
        vhat = np.divide(self.v, 1 - self.beta2 ** self.t, out=b)
        self.params -= np.divide(np.multiply(self.lr, mhat, out=a),
                                 np.add(np.sqrt(vhat, out=b), self.eps, out=b),
                                 out=a)


def softmax_and_log(logits):
    """Row-wise probabilities and log-probabilities, from one shared pass."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=-1, keepdims=True)
    return e / total, z - np.log(total)
