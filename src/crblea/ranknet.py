"""Contrastive ranking network over upper-level decision vectors.

Two weight-sharing subnets score a pair of candidates; the sigmoid of the
score difference estimates the probability that the first candidate beats the
second.  The subnet routes its input through a quasi-residual mapping layer
sized like the lower-level decision vector (emulating the reaction mapping
from upper to lower solutions) before two hidden layers.

Training is full-batch Adam on binary cross-entropy over all ordered pairs of
an evaluated solution pool.  Scoring a whole population uses a fixed zero
reference for the second branch, which induces a total preorder (no
pairwise-comparison cycles are possible).
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractViolationError, TrainingDivergenceError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class NetConfig:
    q: Optional[int] = None  # hidden width; None -> max(8, m + n + 3)
    epochs: int = 200
    lr: float = 0.1
    init_mode: str = "fresh"  # "fresh" re-initializes weights at each retraining
    psi_relu: bool = True  # ReLU after the mapping layer (linear otherwise)

    def width_for(self, m, n):
        # A narrow net keeps the parameter count (and hence the pool size
        # needed before the first training) small, so the ranking phase can
        # start while the population is still informative.
        return self.q if self.q is not None else max(8, m + n + 3)


class Normalizer:
    """Min-max map of a box onto the unit cube (inputs to the network)."""

    def __init__(self, bounds):
        bounds = np.asarray(bounds, dtype=float)
        self.low = bounds[:, 0]
        self.width = bounds[:, 1] - bounds[:, 0]

    def __call__(self, x):
        return (np.asarray(x, dtype=float) - self.low) / self.width


_PARAM_NAMES = ("W_psi", "b_psi", "W1", "b1", "W2", "b2", "w3", "b3")


class RankNetParams:
    """Weights, Adam state, and the retraining counter of the subnet."""

    def __init__(self, m, n, q, weights, psi_relu=True, generation_id=0):
        self.m = m
        self.n = n
        self.q = q
        self.psi_relu = psi_relu
        self.generation_id = generation_id
        for name in _PARAM_NAMES:
            setattr(self, name, weights[name])
        self.adam_m = {k: np.zeros_like(weights[k]) for k in _PARAM_NAMES}
        self.adam_v = {k: np.zeros_like(weights[k]) for k in _PARAM_NAMES}
        self.adam_t = 0
        self.loss_curve = []

    @classmethod
    def init(cls, m, n, q, rng, psi_relu=True, generation_id=0):
        def glorot(fan_out, fan_in):
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-limit, limit, size=(fan_out, fan_in))

        weights = {
            "W_psi": glorot(n, m),
            "b_psi": np.zeros(n),
            "W1": glorot(q, m + n),
            "b1": np.zeros(q),
            "W2": glorot(q, q),
            "b2": np.zeros(q),
            "w3": glorot(1, q)[0],
            "b3": np.zeros(1),
        }
        return cls(m, n, q, weights, psi_relu=psi_relu, generation_id=generation_id)

    @property
    def param_count(self):
        return sum(getattr(self, k).size for k in _PARAM_NAMES)

    def weights_dict(self):
        return {k: getattr(self, k) for k in _PARAM_NAMES}

    def copy(self):
        weights = {k: getattr(self, k).copy() for k in _PARAM_NAMES}
        dup = RankNetParams(self.m, self.n, self.q, weights, psi_relu=self.psi_relu,
                            generation_id=self.generation_id)
        dup.adam_m = {k: v.copy() for k, v in self.adam_m.items()}
        dup.adam_v = {k: v.copy() for k, v in self.adam_v.items()}
        dup.adam_t = self.adam_t
        return dup


def scale_init_to_batch(params: RankNetParams, X, rng):
    """Rescale fresh weights so every pre-activation is centered and unit-scale
    on the given batch of normalized inputs.

    Late-stage solution pools concentrate in a region far smaller than the
    unit cube; under plain Glorot initialization all ReLU boundaries then fall
    outside the data and the net starts (and tends to stay) in an affine
    regime that cannot rank points surrounding an optimum.  Centering each
    layer on the batch and jittering the biases puts the nonlinearities back
    inside the data cloud.  Modifies ``params`` in place and returns it.
    """
    X = np.asarray(X, dtype=float)

    def center(W, b, inputs):
        A = inputs @ W.T + b
        s = A.std(axis=0)
        s[s == 0] = 1.0
        W /= s[:, None]
        return -(inputs @ W.T).mean(axis=0)

    params.b_psi = center(params.W_psi, params.b_psi, X)
    A0 = X @ params.W_psi.T + params.b_psi
    H0 = np.maximum(A0, 0.0) if params.psi_relu else A0
    Z = np.concatenate([X, H0], axis=1)
    params.b1 = center(params.W1, params.b1, Z) + rng.normal(0.0, 0.3, params.b1.shape)
    H1 = np.maximum(Z @ params.W1.T + params.b1, 0.0)
    params.b2 = center(params.W2, params.b2, H1) + rng.normal(0.0, 0.3, params.b2.shape)
    return params


@dataclass
class PairDataset:
    """All ordered pairs drawn from one solution pool (size N(N-1))."""

    xa: np.ndarray  # (B, m)
    xb: np.ndarray  # (B, m)
    labels: np.ndarray  # (B,)
    source_pool_size: int = 0

    def __len__(self):
        return len(self.labels)


def _forward_cached(params, X):
    A0 = X @ params.W_psi.T + params.b_psi
    H0 = np.maximum(A0, 0.0) if params.psi_relu else A0
    Z = np.concatenate([X, H0], axis=1)
    A1 = Z @ params.W1.T + params.b1
    H1 = np.maximum(A1, 0.0)
    A2 = H1 @ params.W2.T + params.b2
    H2 = np.maximum(A2, 0.0)
    S = H2 @ params.w3 + params.b3[0]
    return S, (X, A0, Z, A1, H1, A2, H2)


def _backward(params, cache, dS):
    X, A0, Z, A1, H1, A2, H2 = cache
    g = {}
    g["w3"] = H2.T @ dS
    g["b3"] = np.array([dS.sum()])
    dA2 = dS[:, None] * params.w3 * (A2 > 0)
    g["W2"] = dA2.T @ H1
    g["b2"] = dA2.sum(axis=0)
    dA1 = (dA2 @ params.W2) * (A1 > 0)
    g["W1"] = dA1.T @ Z
    g["b1"] = dA1.sum(axis=0)
    dH0 = dA1 @ params.W1[:, params.m:]
    dA0 = dH0 * (A0 > 0) if params.psi_relu else dH0
    g["W_psi"] = dA0.T @ X
    g["b_psi"] = dA0.sum(axis=0)
    return g


def subnet_batch(params, X):
    """Subnet scores for a batch of normalized inputs (B, m) -> (B,)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != params.m:
        raise ContractViolationError(f"input shape {X.shape} incompatible with m={params.m}")
    return _forward_cached(params, X)[0]


def subnet_forward(params, x):
    """Score one normalized input vector."""
    return float(subnet_batch(params, np.asarray(x, dtype=float)[None, :])[0])


def _sigmoid(t):
    e = np.exp(-np.abs(t))  # in (0, 1]: cannot overflow for either sign of t
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


def pair_forward(params, x_i, x_j):
    """Probability that ``x_i`` beats ``x_j`` (both normalized)."""
    return float(_sigmoid(np.array(subnet_forward(params, x_i) - subnet_forward(params, x_j))))


def ranking_score(params, x):
    """Reference-based score: compare against a virtual candidate scoring 0."""
    return float(_sigmoid(np.array(subnet_forward(params, x))))


def ranking_scores(params, X):
    return _sigmoid(subnet_batch(params, X))


def pdp(pool, normalizer) -> PairDataset:
    """Paired data preparation: all ordered pairs of an evaluated pool.

    For each unordered pair {i, j}, the label of [x_i, x_j] is
    (sgn(F_j - F_i) + 1) / 2 and the reversed pair gets the complement, so a
    pool of N solutions yields exactly N(N-1) samples.
    """
    N = len(pool)
    if N < 2:
        raise ContractViolationError("pairing needs a pool of at least 2")
    F = []
    for ind in pool:
        if ind.F is None:
            raise ContractViolationError("pool member has no upper objective value")
        F.append(ind.F)
    X = np.array([normalizer(ind.x_u) for ind in pool])
    xa, xb, labels = [], [], []
    for i in range(N):
        for j in range(i + 1, N):
            l = float(np.sign(F[j] - F[i]))
            xa.append(X[i]); xb.append(X[j]); labels.append((l + 1.0) / 2.0)
            xa.append(X[j]); xb.append(X[i]); labels.append((-l + 1.0) / 2.0)
    return PairDataset(np.array(xa), np.array(xb), np.array(labels), source_pool_size=N)


def pair_loss_and_grads(params, dataset: PairDataset):
    """Mean BCE over the pair batch and its analytic parameter gradients."""
    Sa, cache_a = _forward_cached(params, dataset.xa)
    Sb, cache_b = _forward_cached(params, dataset.xb)
    d = Sa - Sb
    labels = dataset.labels
    # softplus(+-d) = log1p(exp(-|d|)) + max(+-d, 0); the log term is shared
    log_term = np.log1p(np.exp(-np.abs(d)))
    loss = float(np.mean(labels * (log_term + np.maximum(-d, 0.0))
                         + (1.0 - labels) * (log_term + np.maximum(d, 0.0))))
    dd = (_sigmoid(d) - labels) / len(labels)
    grads_a = _backward(params, cache_a, dd)
    grads_b = _backward(params, cache_b, -dd)
    return loss, {k: grads_a[k] + grads_b[k] for k in grads_a}


def train(params: RankNetParams, dataset: PairDataset, epochs=200, lr=0.1,
          stop_eps=1e-5, stop_patience=20) -> RankNetParams:
    """Full-batch Adam on the pair dataset; returns updated parameters.

    Stops early once the best loss has not improved by ``stop_eps`` for
    ``stop_patience`` epochs.  A non-finite loss raises
    TrainingDivergenceError (callers keep the previous parameters).
    """
    if len(dataset) == 0:
        raise ContractViolationError("cannot train on an empty dataset")
    out = params.copy()
    out.loss_curve = []
    best_loss = math.inf
    since_improvement = 0
    for _ in range(epochs):
        loss, grads = pair_loss_and_grads(out, dataset)
        if not math.isfinite(loss):
            raise TrainingDivergenceError(f"non-finite training loss {loss!r}")
        out.loss_curve.append(loss)
        if loss < best_loss - stop_eps:
            best_loss = loss
            since_improvement = 0
        else:
            since_improvement += 1
            if since_improvement >= stop_patience:
                break
        out.adam_t += 1
        t = out.adam_t
        for k in _PARAM_NAMES:
            m = out.adam_m[k] = ADAM_BETA1 * out.adam_m[k] + (1 - ADAM_BETA1) * grads[k]
            v = out.adam_v[k] = ADAM_BETA2 * out.adam_v[k] + (1 - ADAM_BETA2) * grads[k] ** 2
            m_hat = m / (1 - ADAM_BETA1**t)
            v_hat = v / (1 - ADAM_BETA2**t)
            setattr(out, k, getattr(out, k) - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS))
    final_loss, _ = pair_loss_and_grads(out, dataset)
    if not math.isfinite(final_loss):
        raise TrainingDivergenceError(f"non-finite training loss {final_loss!r}")
    out.loss_curve.append(final_loss)
    out.generation_id += 1
    return out


def pool_trigger_size(params: RankNetParams) -> int:
    """Smallest pool size N with N(N-1) pairs covering 10x the parameter count."""
    target = 10 * params.param_count
    n = max(2, math.ceil((1.0 + math.sqrt(1.0 + 4.0 * target)) / 2.0))
    while n * (n - 1) < target:
        n += 1
    while n > 2 and (n - 1) * (n - 2) >= target:
        n -= 1
    return n


def model_accuracy(params, dataset: PairDataset):
    """Fraction of non-tie pairs ranked correctly; None if every pair ties."""
    mask = dataset.labels != 0.5
    if not np.any(mask):
        return None
    d = subnet_batch(params, dataset.xa[mask]) - subnet_batch(params, dataset.xb[mask])
    y = _sigmoid(d)
    labels = dataset.labels[mask]
    correct = ((y > 0.5) & (labels == 1.0)) | ((y < 0.5) & (labels == 0.0))
    return float(np.mean(correct))
