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

from .errors import ConfigurationError, ContractViolationError, TrainingDivergenceError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class NetConfig:
    q: Optional[int] = None  # hidden width; None -> max(8, m + n + 3)
    epochs: int = 200
    lr: float = 0.1
    psi_relu: bool = True  # ReLU after the mapping layer (linear otherwise)

    def validate(self):
        if self.q is not None and self.q < 1:
            raise ConfigurationError("net.q: must be >= 1 or null")
        if self.epochs < 1:
            raise ConfigurationError("net.epochs: must be >= 1")
        if not self.lr > 0.0:
            raise ConfigurationError("net.lr: must be positive")
        return self

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

    @classmethod
    def fit(cls, X):
        """Map the bounding box of the rows of ``X`` onto the unit cube; an
        axis on which every row agrees keeps unit width."""
        X = np.asarray(X, dtype=float)
        low, high = X.min(axis=0), X.max(axis=0)
        return cls(np.stack([low, np.where(high > low, high, low + 1.0)], axis=1))

    def __call__(self, x):
        return (np.asarray(x, dtype=float) - self.low) / self.width


_PARAM_NAMES = ("W_psi", "b_psi", "W1", "b1", "W2", "b2", "w3", "b3")


class RankNetParams:
    """Weights and the retraining counter of the subnet.

    ``normalizer`` is the map from upper points to the network's inputs that
    the weights were trained under (None when the caller feeds normalized
    inputs itself).
    """

    def __init__(self, m, n, q, weights, psi_relu=True, generation_id=0, normalizer=None):
        self.m = m
        self.n = n
        self.q = q
        self.psi_relu = psi_relu
        self.generation_id = generation_id
        for name in _PARAM_NAMES:
            setattr(self, name, weights[name])
        self.loss_curve = []
        self.normalizer = normalizer

    @classmethod
    def init(cls, m, n, q, rng, psi_relu=True, generation_id=0, normalizer=None):
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
        return cls(m, n, q, weights, psi_relu=psi_relu, generation_id=generation_id,
                   normalizer=normalizer)

    @property
    def param_count(self):
        return sum(getattr(self, k).size for k in _PARAM_NAMES)

    def copy(self):
        weights = {k: getattr(self, k).copy() for k in _PARAM_NAMES}
        return RankNetParams(self.m, self.n, self.q, weights, psi_relu=self.psi_relu,
                             generation_id=self.generation_id, normalizer=self.normalizer)


def scale_init_to_batch(params: RankNetParams, X, rng):
    """Rescale fresh weights so every pre-activation is centered and unit-scale
    on the given batch of normalized inputs.

    Under plain Glorot initialization many ReLU boundaries fall outside the
    data, and the net starts (and tends to stay) in a nearly affine regime
    that cannot rank points surrounding an optimum.  Centering each layer on
    the batch and jittering the biases puts the nonlinearities inside the
    data cloud.  This still pays after the pool's bounding box is mapped onto
    the unit cube: mean model accuracy over six seeds was 0.82 (SMD1) and
    0.81 (SMD5) with it, 0.72 and 0.72 without.  Modifies ``params`` in place
    and returns it.
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
    """Gradients of every weight array, flattened and joined in
    ``_PARAM_NAMES`` order (the layout of ``_flatten``)."""
    X, A0, Z, A1, H1, A2, H2 = cache
    dA2 = dS[:, None] * params.w3 * (A2 > 0)
    dA1 = (dA2 @ params.W2) * (A1 > 0)
    dH0 = dA1 @ params.W1[:, params.m:]
    dA0 = dH0 * (A0 > 0) if params.psi_relu else dH0
    return np.concatenate([
        (dA0.T @ X).ravel(), dA0.sum(axis=0),
        (dA1.T @ Z).ravel(), dA1.sum(axis=0),
        (dA2.T @ H1).ravel(), dA2.sum(axis=0),
        H2.T @ dS, [dS.sum()],
    ])


def _slices(params):
    """``(name, slice, shape)`` of every weight array in the flat layout."""
    out, start = [], 0
    for k in _PARAM_NAMES:
        shape = getattr(params, k).shape
        size = math.prod(shape)
        out.append((k, slice(start, start + size), shape))
        start += size
    return out


def _flatten(params):
    """Copy the weights of ``params`` into one vector and rebind each weight
    attribute to its view of that vector; returns the vector."""
    layout = _slices(params)
    theta = np.concatenate([getattr(params, k).ravel() for k in _PARAM_NAMES])
    for k, sl, shape in layout:
        setattr(params, k, theta[sl].reshape(shape))
    return theta


def subnet_batch(params, X):
    """Subnet scores for a batch of normalized inputs (B, m) -> (B,)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != params.m:
        raise ContractViolationError(f"input shape {X.shape} incompatible with m={params.m}")
    return _forward_cached(params, X)[0]


def subnet_forward(params, x):
    """Score one normalized input vector."""
    return float(subnet_batch(params, np.asarray(x, dtype=float)[None, :])[0])


def _sigmoid(t, e=None):
    """Logistic function of ``t``; ``e`` is exp(-|t|) if the caller has it."""
    if e is None:
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
    if any(ind.F is None for ind in pool):
        raise ContractViolationError("pool member has no upper objective value")
    F = np.array([ind.F for ind in pool], dtype=float)
    X = np.array([normalizer(ind.x_u) for ind in pool])
    # pair {i, j} (i < j, row-major) gives [x_i, x_j] and then [x_j, x_i]
    i, j = np.triu_indices(N, 1)
    l = np.sign(F[j] - F[i])
    labels = np.stack([(l + 1.0) / 2.0, (-l + 1.0) / 2.0], axis=1).ravel()
    return PairDataset(X[np.stack([i, j], axis=1).ravel()], X[np.stack([j, i], axis=1).ravel()],
                       labels)


def _distinct_rows(dataset: PairDataset):
    """The distinct input rows of a pair batch and, per pair, the row indices
    of its two members."""
    B = len(dataset)
    X, inverse = np.unique(np.concatenate([dataset.xa, dataset.xb]), axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    return X, inverse[:B], inverse[B:]


def _loss_and_grads(params, X, ia, ib, labels):
    S, cache = _forward_cached(params, X)
    d = S.take(ia) - S.take(ib)
    # softplus(+-d) = log1p(e) + max(+-d, 0) and sigmoid(d) share
    # e = exp(-|d|); add.reduce / B is np.mean without its wrapper
    e = np.exp(-np.abs(d))
    log_term = np.log1p(e)
    loss = float(np.add.reduce(labels * (log_term + np.maximum(-d, 0.0))
                               + (1.0 - labels) * (log_term + np.maximum(d, 0.0))) / len(labels))
    dd = (_sigmoid(d, e) - labels) / len(labels)
    dS = np.bincount(ia, dd, len(X)) - np.bincount(ib, dd, len(X))
    return loss, _backward(params, cache, dS)


def pair_loss_and_grads(params, dataset: PairDataset):
    """Mean BCE over the pair batch and its analytic parameter gradients.

    A pool of N points gives N(N-1) pairs, so the subnet runs once per
    distinct point; pair terms gather those scores and scatter their
    gradients back.  The gradients come as a dict keyed by weight name.
    """
    loss, grads = _loss_and_grads(params, *_distinct_rows(dataset), dataset.labels)
    return loss, {k: grads[sl].reshape(shape) for k, sl, shape in _slices(params)}


def train(params: RankNetParams, dataset: PairDataset, epochs=200, lr=0.1,
          stop_eps=1e-5, stop_patience=20) -> RankNetParams:
    """Full-batch Adam on the pair dataset; returns updated parameters.

    The Adam moments start at zero on every call.  Stops early once the best
    loss has not improved by ``stop_eps`` for ``stop_patience`` epochs.  A
    non-finite loss raises TrainingDivergenceError (callers keep the previous
    parameters).
    """
    if len(dataset) == 0:
        raise ContractViolationError("cannot train on an empty dataset")
    rows = _distinct_rows(dataset)
    out = params.copy()
    theta = _flatten(out)  # Adam updates every weight array at once
    adam_m = np.zeros_like(theta)
    adam_v = np.zeros_like(theta)
    best_loss = math.inf
    since_improvement = 0
    for t in range(1, epochs + 1):
        loss, grads = _loss_and_grads(out, *rows, dataset.labels)
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
        adam_m = ADAM_BETA1 * adam_m + (1 - ADAM_BETA1) * grads
        adam_v = ADAM_BETA2 * adam_v + (1 - ADAM_BETA2) * grads**2
        m_hat = adam_m / (1 - ADAM_BETA1**t)
        v_hat = adam_v / (1 - ADAM_BETA2**t)
        theta -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    final_loss, _ = _loss_and_grads(out, *rows, dataset.labels)
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
