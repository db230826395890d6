"""Ranking network: pairing, forward/backward, training, trigger sizing."""

import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

from crblea import (
    ContractViolationError,
    NetConfig,
    Normalizer,
    RankNetParams,
    TrainingDivergenceError,
    UpperIndividual,
    model_accuracy,
    pair_forward,
    pdp,
    pool_trigger_size,
    ranking_scores,
    train,
)
from crblea import ranknet
from crblea.ranknet import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    PairDataset,
    scale_init_to_batch,
    subnet_batch,
    _PARAM_NAMES,
    _layout,
    _loss_and_grads,
)


def make_pool(F_values, rng=None, m=2):
    rng = rng or np.random.default_rng(0)
    return [
        UpperIndividual(x_u=rng.uniform(0, 1, m), x_l_star=np.zeros(m),
                        F=float(F), f_star=0.0)
        for F in F_values
    ]


def fresh_params(m=2, n=3, q=4, seed=0):
    return RankNetParams.init(m, n, q, np.random.default_rng(seed))


class TestNetConfig:
    def test_default_width(self):
        assert NetConfig().width_for(2, 3) == 8
        assert NetConfig().width_for(7, 7) == 17


def test_normalizer_maps_box_to_unit_cube():
    norm = Normalizer(np.array([[-5.0, 10.0], [0.0, 2.0]]))
    assert np.allclose(norm([-5.0, 0.0]), [0.0, 0.0])
    assert np.allclose(norm([10.0, 2.0]), [1.0, 1.0])
    assert np.allclose(norm([2.5, 1.0]), [0.5, 0.5])


def test_normalizer_fit_maps_bounding_box_to_unit_cube():
    X = np.array([[1.0, 3.0], [1.5, 3.0], [1.25, 3.0]])
    norm = Normalizer.fit(X)
    assert np.allclose(norm(X[0]), [0.0, 0.0]) and np.allclose(norm(X[1]), [1.0, 0.0])
    assert np.allclose(norm([1.25, 4.0]), [0.5, 1.0])  # a flat axis keeps unit width


def test_normalizer_refuses_points_of_another_width():
    # a (B, 1) batch would otherwise broadcast across both axes
    for X in (np.zeros((3, 1)), np.zeros((3, 3)), np.zeros(3), 0.5):
        with pytest.raises(ContractViolationError):
            Normalizer(np.tile([0.0, 1.0], (2, 1)))(X)
        with pytest.raises(ContractViolationError):
            ranking_scores(fresh_params(), X)


def test_default_map_leaves_points_bitwise_unchanged():
    params = fresh_params()
    X = np.random.default_rng(15).normal(size=(50, 2)) * np.logspace(-300, 300, 50)[:, None]
    X[0] = [-0.0, 0.0]
    assert params.normalizer is not None and params.copy().normalizer is params.normalizer
    assert params.normalizer(X).tobytes() == X.tobytes()


def test_every_entry_point_maps_upper_points_through_the_networks_own_map():
    # a network with a map scores, pairs, trains and initializes on upper
    # points exactly as its unmapped twin does on the mapped points
    norm = Normalizer(np.array([[-5.0, 10.0], [0.0, 2.0]]))
    rng = np.random.default_rng(16)
    pool = make_pool(rng.normal(size=9), rng=rng)
    for ind in pool:
        ind.x_u = ind.x_u * [15.0, 2.0] + [-5.0, 0.0]
    ds = pdp(pool)
    mapped = PairDataset(norm(ds.X), ds.ia, ds.ib, ds.labels)
    params = RankNetParams.init(2, 3, 6, np.random.default_rng(17), normalizer=norm)
    twin = RankNetParams(2, 3, 6, params.theta.copy())
    scale_init_to_batch(params, ds.X[ds.ia], np.random.default_rng(18))
    scale_init_to_batch(twin, mapped.X[mapped.ia], np.random.default_rng(18))
    assert np.array_equal(params.theta, twin.theta)
    assert np.array_equal(ranking_scores(params, ds.X), ranking_scores(twin, mapped.X))
    assert pair_forward(params, *ds.X[:2]) == pair_forward(twin, *mapped.X[:2])
    assert model_accuracy(params, ds) == model_accuracy(twin, mapped)
    assert train(params, ds).loss_curve == train(twin, mapped).loss_curve


def pair_loop_loss(params, pool):
    """Mean BCE over every ordered pair of ``pool``, each pair scored on its
    own."""
    terms = []
    for i, a in enumerate(pool):
        for j, b in enumerate(pool):
            if i != j:
                label = (np.sign(b.F - a.F) + 1.0) / 2.0
                p = pair_forward(params, a.x_u, b.x_u)
                terms.append(-(label * np.log(p) + (1.0 - label) * np.log(1.0 - p)))
    return np.mean(terms)


def test_pair_loss_matches_per_pair_evaluation():
    # The loss runs the subnet once per distinct pool point; it must equal the
    # mean BCE over every pair scored on its own.
    params = fresh_params()
    pool = make_pool(np.random.default_rng(1).normal(size=7))
    ds = pdp(pool)
    loss, _ = _loss_and_grads(params, params.normalizer(ds.X), ds)
    assert loss == pytest.approx(pair_loop_loss(params, pool), rel=1e-12)


def test_duplicate_points_share_one_row():
    rng = np.random.default_rng(12)
    pool = make_pool(rng.integers(0, 3, 9), rng=rng)  # ties included
    for k, src in ((4, 0), (7, 0), (8, 2)):
        pool[k].x_u = pool[src].x_u.copy()
    N = len(pool)
    ds = pdp(pool)
    rows = np.array([ind.x_u for ind in pool])
    assert len(ds.X) == N - 3 and len(ds) == N * (N - 1)
    # np.unique's row order: the order in which training sums the gradients
    assert np.array_equal(ds.X, np.unique(rows, axis=0))

    params = fresh_params(seed=13)
    loss, grads = _loss_and_grads(params, params.normalizer(ds.X), ds)
    assert loss == pytest.approx(pair_loop_loss(params, pool), rel=1e-12)
    # the same pairs over one row per pool member, duplicates kept apart
    i, j = np.nonzero(~np.eye(N, dtype=bool))
    F = np.array([ind.F for ind in pool])
    copies = PairDataset(rows, i, j, (np.sign(F[j] - F[i]) + 1.0) / 2.0)
    copy_loss, copy_grads = _loss_and_grads(params, params.normalizer(rows), copies)
    assert copy_loss == pytest.approx(loss, rel=1e-12)
    assert np.allclose(grads, copy_grads, rtol=1e-10, atol=1e-15)


class TestPdp:
    def test_sample_count_is_n_times_n_minus_1(self):
        for N in (2, 5, 9):
            ds = pdp(make_pool(range(N)))
            assert len(ds) == N * (N - 1)

    def test_labels_and_complements(self):
        ds = pdp(make_pool([1.0, 3.0]))
        # first ordered pair: F_j - F_i = 2 > 0 -> label 1; reverse -> 0
        assert ds.labels.tolist() == [1.0, 0.0]
        assert ds.ia[0] == ds.ib[1] and ds.ib[0] == ds.ia[1]

    def test_tie_label(self):
        ds = pdp(make_pool([2.0, 2.0]))
        assert ds.labels.tolist() == [0.5, 0.5]

    def test_pool_too_small(self):
        with pytest.raises(ContractViolationError):
            pdp(make_pool([1.0]))

    @pytest.mark.parametrize("N", [2, 3, 8, 25])
    def test_matches_the_pairwise_loop(self, N):
        rng = np.random.default_rng(N)
        pool = make_pool(rng.integers(0, 4, N), rng=rng)  # ties included
        xa, xb, labels = [], [], []
        for i in range(N):
            for j in range(i + 1, N):
                l = float(np.sign(pool[j].F - pool[i].F))
                xa += [pool[i].x_u, pool[j].x_u]
                xb += [pool[j].x_u, pool[i].x_u]
                labels += [(l + 1.0) / 2.0, (-l + 1.0) / 2.0]
        ds = pdp(pool)
        assert np.array_equal(ds.X[ds.ia], np.array(xa))
        assert np.array_equal(ds.X[ds.ib], np.array(xb))
        assert np.array_equal(ds.labels, np.array(labels))

    def test_unevaluated_member(self):
        pool = make_pool([1.0, 2.0])
        pool[0].F = None
        with pytest.raises(ContractViolationError):
            pdp(pool)


class TestPairForward:
    def test_self_comparison_exactly_half(self):
        params = fresh_params()
        x = np.random.default_rng(1).uniform(0, 1, 2)
        assert pair_forward(params, x, x) == 0.5

    def test_antisymmetry(self):
        params = fresh_params(seed=2)
        rng = np.random.default_rng(3)
        for _ in range(20):
            xi, xj = rng.uniform(0, 1, (2, 2))
            assert abs(pair_forward(params, xi, xj) + pair_forward(params, xj, xi) - 1.0) <= 1e-12

    def test_reference_score_consistency(self):
        params = fresh_params(seed=4)
        rng = np.random.default_rng(5)
        for _ in range(20):
            xi, xj = rng.uniform(0, 1, (2, 2))
            wins = pair_forward(params, xi, xj) > 0.5
            s_i, s_j = ranking_scores(params, [xi, xj])
            assert (s_i > s_j) == wins

    def test_batch_matches_singles(self):
        params = fresh_params(seed=6)
        X = np.random.default_rng(7).uniform(0, 1, (6, 2))
        batch = ranking_scores(params, X)
        singles = [ranking_scores(params, x[None, :])[0] for x in X]
        assert np.allclose(batch, singles)

    def test_input_shape_checked(self):
        with pytest.raises(ContractViolationError):
            subnet_batch(fresh_params(), np.zeros((3, 5)))


def numeric_gradients(params, dataset, eps=1e-6):
    # central differences on each entry of theta, which every weight array views
    X = params.normalizer(dataset.X)
    theta = params.theta
    grads = np.zeros_like(theta)
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + eps
        lp, _ = _loss_and_grads(params, X, dataset)
        theta[i] = orig - eps
        lm, _ = _loss_and_grads(params, X, dataset)
        theta[i] = orig
        grads[i] = (lp - lm) / (2 * eps)
    return grads


def gradient_relative_error(seed, psi_relu=True, m=2, n=2, q=3, batch=6):
    rng = np.random.default_rng(seed)
    params = RankNetParams.init(m, n, q, rng, psi_relu=psi_relu)
    # jitter every parameter (biases start at zero, which parks whole ReLU
    # rows exactly on the kink where no gradient check can succeed)
    for name in _PARAM_NAMES:
        arr = getattr(params, name)
        arr += rng.normal(0.0, 0.1, arr.shape)
    X = rng.uniform(0, 1, (batch, m))
    ia, ib = rng.integers(0, batch, (2, batch))
    labels = rng.choice([0.0, 0.5, 1.0], size=batch)
    ds = PairDataset(X, ia, ib, labels)
    _, a = _loss_and_grads(params, params.normalizer(X), ds)
    nmr = numeric_gradients(params, ds)
    # compare whole gradient vectors: per-block normalization misreads
    # finite-difference noise on identically-zero blocks (dead ReLU rows)
    # as large relative error
    return np.max(np.abs(a - nmr)) / max(np.max(np.abs(a)), np.max(np.abs(nmr)), 1e-8)


@pytest.mark.parametrize("psi_relu", [True, False])  # False: a linear mapping layer
def test_gradients_match_finite_differences(psi_relu):
    for seed in range(3):
        assert gradient_relative_error(seed, psi_relu) <= 1e-4


def softplus(t):
    return math.log1p(math.exp(-abs(t))) + max(t, 0.0)


def test_loss_at_zero_and_saturated_score_gaps():
    # S = 1250 relu(relu(x0)) on [0.2, 0.3], [0.2, 0.9] and [1.0, 0.5]: pair
    # gaps of exactly 0 and of +-1000, where exp(-|d|) underflows to 0.  The
    # loss must be the softplus closed form, sigmoid(d) exactly 0.5, 1 or 0,
    # and every gradient entry finite
    params = RankNetParams.init(2, 2, 2, np.random.default_rng(0))
    params.theta[:] = 0.0
    params.W1[0, 0] = params.W2[0, 0] = 1.0
    params.w3[0] = 1250.0
    X = np.array([[0.2, 0.3], [0.2, 0.9], [1.0, 0.5]])
    assert subnet_batch(params, X).tolist() == [250.0, 250.0, 1250.0]
    ia = np.array([0, 1, 2, 2, 0, 1, 2, 0])
    ib = np.array([1, 0, 0, 1, 2, 2, 0, 2])
    labels = np.array([1.0, 0.5, 1.0, 0.0, 0.0, 1.0, 0.5, 0.5])
    d = [0.0, 0.0, 1000.0, 1000.0, -1000.0, -1000.0, 1000.0, -1000.0]
    sigmoid = {0.0: 0.5, 1000.0: 1.0, -1000.0: 0.0}
    loss, grads = _loss_and_grads(params, X, PairDataset(X, ia, ib, labels))

    expected = np.mean([l * softplus(-t) + (1.0 - l) * softplus(t) for l, t in zip(labels, d)])
    assert math.isfinite(loss) and loss == pytest.approx(expected, rel=1e-12)
    assert np.all(np.isfinite(grads))
    # dS/dw3[0] = x0 and dS/dW2[0, 0] = dS/dW1[0, 0] = 1250 x0, dS/dW1[0, 1]
    # = 1250 x1; every other weight moves no score or every score alike
    g = (np.array([sigmoid[t] for t in d]) - labels) / len(labels)
    dx0, dx1 = (g @ (X[ia] - X[ib])).tolist()
    ref = RankNetParams(2, 2, 2, np.zeros_like(params.theta))
    ref.w3[0] = dx0
    ref.W2[0, 0] = ref.W1[0, 0] = 1250.0 * dx0
    ref.W1[0, 1] = 1250.0 * dx1
    assert np.allclose(grads, ref.theta, rtol=1e-12, atol=1e-12)


def test_training_separable_data():
    # F increases with the first coordinate: a cleanly learnable ranking
    rng = np.random.default_rng(8)
    pool = [UpperIndividual(x_u=x, x_l_star=np.zeros(2), F=float(x[0]), f_star=0.0)
            for x in rng.uniform(0, 1, (12, 2))]
    ds = pdp(pool)
    params = RankNetParams.init(2, 3, 8, rng)
    scale_init_to_batch(params, ds.X[ds.ia], rng)
    trained = train(params, ds)
    assert trained.loss_curve[-1] < trained.loss_curve[0]
    assert model_accuracy(trained, ds) >= 0.95
    assert trained.generation_id == params.generation_id + 1


def test_train_equals_adam_on_each_weight_array(monkeypatch):
    # train() runs Adam over one flat vector of all weights; it must give
    # what Adam run on each weight array separately gives
    rng = np.random.default_rng(4)
    ds = pdp(make_pool(rng.normal(size=9), rng=rng))
    params = RankNetParams.init(2, 3, 6, rng)
    scale_init_to_batch(params, ds.X[ds.ia], rng)
    epochs, lr = 30, 0.1
    monkeypatch.setattr(ranknet, "TRAIN_EPOCHS", epochs)
    monkeypatch.setattr(ranknet, "TRAIN_PATIENCE", epochs + 1)  # no early stop
    monkeypatch.setattr(ranknet, "ADAM_LR", lr)
    ref = params.copy()
    X = ref.normalizer(ds.X)
    m = {k: np.zeros_like(getattr(ref, k)) for k in _PARAM_NAMES}
    v = {k: np.zeros_like(getattr(ref, k)) for k in _PARAM_NAMES}
    curve = []
    for t in range(1, epochs + 1):
        loss, flat = _loss_and_grads(ref, X, ds)
        grads = {k: flat[sl].reshape(shape) for k, sl, shape in _layout(2, 3, 6)}
        curve.append(loss)
        for k in _PARAM_NAMES:
            m[k] = ADAM_BETA1 * m[k] + (1 - ADAM_BETA1) * grads[k]
            v[k] = ADAM_BETA2 * v[k] + (1 - ADAM_BETA2) * grads[k] ** 2
            m_hat = m[k] / (1 - ADAM_BETA1**t)
            v_hat = v[k] / (1 - ADAM_BETA2**t)
            setattr(ref, k, getattr(ref, k) - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS))
    curve.append(_loss_and_grads(ref, X, ds)[0])

    trained = train(params, ds)
    assert trained.loss_curve == curve
    for k in _PARAM_NAMES:
        assert np.array_equal(getattr(trained, k), getattr(ref, k))


def test_train_bits_pinned():
    # A 40-point pool with six duplicate points and F ties, set up as
    # crframework.retrain sets up a training event; the sha1s of the loss
    # curve and of the trained weights pin the arithmetic of every recorded
    # training bit for bit, so a rewrite of the loss or of the Adam step
    # must keep each element's operations in their order.
    rng = np.random.default_rng(40)
    X = rng.uniform(-5.0, 10.0, (40, 2))
    X[34:] = X[[0, 3, 3, 7, 11, 20]]
    F = np.round((X[:, 0] - 1.0) ** 2 + X[:, 1], 0)
    pool = [UpperIndividual(x_u=x, x_l_star=np.zeros(3), F=float(f), f_star=0.0)
            for x, f in zip(X, F)]
    params = RankNetParams.init(2, 3, 8, rng, normalizer=Normalizer.fit(X))
    ds = pdp(pool)
    assert (len(ds.X), len(np.unique(F))) == (34, 24)
    scale_init_to_batch(params, ds.X[ds.ia], rng)
    trained = train(params, ds)
    assert len(trained.loss_curve) == 163  # the early stop fired
    weights = np.concatenate([getattr(trained, k).ravel() for k in _PARAM_NAMES])
    assert (hashlib.sha1(np.array(trained.loss_curve).tobytes()).hexdigest()
            == "e52c190a0560cb500f4374743e35fe3e6e4d00d4")
    assert hashlib.sha1(weights.tobytes()).hexdigest() == "d4536156f11ef707ada42a925733fe1698c841d6"


def assert_flat_layout(params):
    # every named weight is a view of theta, and theta is the named weights
    # joined in _PARAM_NAMES order
    for k in _PARAM_NAMES:
        assert np.shares_memory(getattr(params, k), params.theta), k
    joined = np.concatenate([getattr(params, k).ravel() for k in _PARAM_NAMES])
    assert np.array_equal(params.theta, joined)


def test_weights_stay_views_of_one_flat_vector():
    rng = np.random.default_rng(12)
    ds = pdp(make_pool(rng.normal(size=8), rng=rng))
    params = RankNetParams.init(2, 3, 4, rng)
    assert_flat_layout(params)
    copy = params.copy()
    assert_flat_layout(copy)
    assert not np.shares_memory(copy.theta, params.theta)
    assert np.array_equal(copy.theta, params.theta)
    scale_init_to_batch(params, ds.X[ds.ia], rng)
    assert_flat_layout(params)
    trained = train(params, ds)
    assert_flat_layout(trained)
    assert not np.shares_memory(trained.theta, params.theta)


def test_training_empty_dataset():
    with pytest.raises(ContractViolationError):
        empty = np.zeros(0, dtype=int)
        train(fresh_params(), PairDataset(np.zeros((0, 2)), empty, empty, np.zeros(0)))


def test_training_divergence_raises():
    ds = PairDataset(np.array([[np.inf, np.inf], [0.0, 0.0]]), np.array([0, 1]), np.array([1, 0]),
                     np.array([1.0, 0.0]))
    with np.errstate(invalid="ignore"), pytest.raises(TrainingDivergenceError):
        train(fresh_params(), ds)


def test_training_divergence_after_the_last_step_raises(monkeypatch):
    # one epoch: the loss before the step is finite, the step at this lr
    # overflows the weights, and the final loss is not
    ds = pdp(make_pool(range(6)))
    monkeypatch.setattr(ranknet, "TRAIN_EPOCHS", 1)
    monkeypatch.setattr(ranknet, "ADAM_LR", 1e300)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingDivergenceError):
        train(fresh_params(), ds)


def test_train_does_not_mutate_input_params():
    rng = np.random.default_rng(9)
    params = fresh_params(seed=9)
    before = {k: getattr(params, k).copy() for k in _PARAM_NAMES}
    ds = pdp(make_pool(range(6), rng=rng))
    train(params, ds)
    for k in _PARAM_NAMES:
        assert np.array_equal(before[k], getattr(params, k))


class TestPoolTrigger:
    @pytest.mark.parametrize("param_count,expected", [(9, 10), (10, 11)])
    def test_boundary_cases(self, param_count, expected):
        stub = SimpleNamespace(param_count=param_count)
        assert pool_trigger_size(stub) == expected

    def test_minimality_property(self):
        for count in (1, 5, 37, 120, 500):
            n = pool_trigger_size(SimpleNamespace(param_count=count))
            assert n * (n - 1) >= 10 * count
            assert n == 2 or (n - 1) * (n - 2) < 10 * count

    def test_real_parameter_count(self):
        params = fresh_params(m=2, n=3, q=8)
        # psi: 3*2+3, W1: 8*5+8, W2: 8*8+8, w3: 8+1
        assert params.param_count == 9 + 48 + 72 + 9


class TestModelAccuracy:
    def test_perfect_and_inverted(self):
        rng = np.random.default_rng(10)
        pool = [UpperIndividual(x_u=x, x_l_star=np.zeros(2), F=float(x[0]), f_star=0.0)
                for x in rng.uniform(0, 1, (8, 2))]
        ds = pdp(pool)
        params = RankNetParams.init(2, 3, 8, rng)
        scale_init_to_batch(params, ds.X[ds.ia], rng)
        trained = train(params, ds)
        acc = model_accuracy(trained, ds)
        assert acc >= 0.95
        # swapping branch inputs inverts every verdict
        flipped = PairDataset(ds.X, ds.ib, ds.ia, ds.labels)
        assert model_accuracy(trained, flipped) == pytest.approx(1.0 - acc)

    def test_matches_the_pairwise_loop(self):
        rng = np.random.default_rng(14)
        pool = [UpperIndividual(x_u=x, x_l_star=np.zeros(2), F=float(round(4 * x[0])), f_star=0.0)
                for x in rng.uniform(0, 1, (10, 2))]  # F ties included
        pool[9].x_u = pool[0].x_u.copy()  # one point with two values: its pairs tie
        pool[9].F = pool[0].F + 1.0
        ds = pdp(pool)
        params = RankNetParams.init(2, 3, 8, rng)
        scale_init_to_batch(params, ds.X[ds.ia], rng)
        trained = train(params, ds)
        correct = total = 0
        for a in pool:
            for b in pool:
                if a is not b and a.F != b.F:
                    p = pair_forward(trained, a.x_u, b.x_u)
                    correct += bool(p > 0.5) if a.F < b.F else bool(p < 0.5)
                    total += 1
        assert model_accuracy(trained, ds) == correct / total

    def test_all_ties_returns_none(self):
        ds = pdp(make_pool([1.0, 1.0, 1.0]))
        assert model_accuracy(fresh_params(), ds) is None


def test_scale_init_centers_preactivations():
    rng = np.random.default_rng(11)
    # a tight off-center cluster, the regime the rescaling exists for
    X = 0.4 + 0.01 * rng.standard_normal((40, 2))
    params = RankNetParams.init(2, 3, 6, rng)
    scale_init_to_batch(params, X, rng)
    A0 = X @ params.W_psi.T + params.b_psi
    assert np.allclose(A0.mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(A0.std(axis=0), 1.0, atol=1e-6)
