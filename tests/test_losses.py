import math

import numpy as np
import pytest

from rrsitr.errors import ConfigError
from rrsitr.losses import (adaptive_margins, hardest_negatives, infonce_per_pair,
                           robust_triplet_loss, triplet_hinges)


def test_infonce_identity_2x2():
    S = np.eye(2)
    l = infonce_per_pair(S, tau=1.0)
    expected = -2.0 * math.log(math.e / (math.e + 1.0))  # 0.62652...
    assert np.allclose(l, expected, atol=1e-5)
    assert l[0] == pytest.approx(0.6265233750364456, abs=1e-12)


def test_infonce_uniform_matrix():
    S = np.full((2, 2), 0.37)
    l = infonce_per_pair(S, tau=1.0)
    assert np.allclose(l, 2.0 * math.log(2.0), atol=1e-12)
    S5 = np.full((5, 5), -1.2)
    assert np.allclose(infonce_per_pair(S5, tau=0.5), 2.0 * math.log(5.0), atol=1e-12)


def test_infonce_saturates_with_separation():
    prev = None
    for s in (2.0, 5.0, 20.0, 80.0):
        l = infonce_per_pair(np.array([[s, 0.0], [0.0, s]]), tau=1.0)
        if prev is not None:
            assert l[0] < prev
        prev = l[0]
    assert prev < 1e-30


def test_infonce_row_col_shift_invariance():
    # adding a constant to a row shifts only the i2t term; to a column only t2i
    rng = np.random.default_rng(0)
    S = rng.normal(size=(4, 4))
    tau = 0.3

    def parts(S):
        z = S / tau
        lr = np.array([z[j, j] - np.log(np.exp(z[j, :] - z[j].max()).sum()) - z[j].max()
                       for j in range(4)])
        lc = np.array([z[j, j] - np.log(np.exp(z[:, j] - z[:, j].max()).sum()) - z[:, j].max()
                       for j in range(4)])
        return -lr, -lc

    lr0, lc0 = parts(S)
    S_row = S.copy()
    S_row[2, :] += 5.0 * tau
    lr1, lc1 = parts(S_row)
    assert np.allclose(lr1, lr0, atol=1e-9)
    S_col = S.copy()
    S_col[:, 1] -= 3.0 * tau
    lr2, lc2 = parts(S_col)
    assert np.allclose(lc2, lc0, atol=1e-9)
    assert np.allclose(infonce_per_pair(S, tau), lr0 + lc0, atol=1e-12)


def test_infonce_stability_at_tiny_tau():
    S = np.array([[0.99, -0.3], [-0.5, 0.7]])
    l = infonce_per_pair(S, tau=1e-3)
    assert np.all(np.isfinite(l)) and np.all(l >= 0)


def test_infonce_errors():
    with pytest.raises(ConfigError):
        infonce_per_pair(np.eye(2), tau=0.0)
    with pytest.raises(ConfigError):
        infonce_per_pair(np.ones((1, 1)), tau=1.0)


def test_hardest_negatives_basic():
    Sg = np.array([[0.9, 0.2], [0.1, 0.8]])
    ht, hi = hardest_negatives(Sg)
    assert ht.tolist() == [1, 0]
    assert hi.tolist() == [1, 0]


def test_hardest_negatives_tie_break_lowest_index():
    Sg = np.array([[0.5, 0.3, 0.3],
                   [0.3, 0.5, 0.3],
                   [0.4, 0.4, 0.5]])
    ht, hi = hardest_negatives(Sg)
    assert ht[0] == 1 and ht[2] == 0
    assert hi[2] == 0


def test_hardest_negatives_never_self():
    rng = np.random.default_rng(1)
    for _ in range(50):
        b = int(rng.integers(2, 8))
        Sg = rng.normal(size=(b, b))
        Sg[np.arange(b), np.arange(b)] = -100.0  # diagonal minimal
        ht, hi = hardest_negatives(Sg)
        assert np.all(ht != np.arange(b))
        assert np.all(hi != np.arange(b))


def test_adaptive_margins_floor_and_growth():
    Sg = np.array([[0.8, 0.2], [0.1, 0.9]])  # positives beat negatives
    ht, hi = hardest_negatives(Sg)
    mu, zeta = adaptive_margins(Sg, ht, hi, sigma=0.6)
    assert np.allclose(mu, 0.6, atol=1e-12)
    assert np.allclose(zeta, 0.6, atol=1e-12)

    Sg2 = np.array([[0.2, 0.5], [0.4, 0.7]])  # anchor 0 trails its hardest negative
    ht2, hi2 = hardest_negatives(Sg2)
    mu2, _ = adaptive_margins(Sg2, ht2, hi2, sigma=0.6)
    assert mu2[0] == pytest.approx(0.6 * (1 + 0.3), abs=1e-12)  # 0.78


def test_adaptive_margin_boundary_equal():
    Sg = np.array([[0.5, 0.5], [0.1, 0.5]])
    ht, hi = hardest_negatives(Sg)
    mu, zeta = adaptive_margins(Sg, ht, hi, sigma=0.6)
    assert mu[0] == pytest.approx(0.6, abs=1e-12)


def test_adaptive_margin_sigma_validation():
    with pytest.raises(ConfigError):
        adaptive_margins(np.eye(2), np.array([1, 0]), np.array([1, 0]), sigma=0.0)


def test_rtl_hand_value():
    # anchor 0: pos=0.2, hard neg=0.5 -> margin 0.78, hinge 0.78-0.2+0.5=1.08
    Sg = np.array([[0.2, 0.5], [0.4, 0.7]])
    res = robust_triplet_loss(Sg, sigma=0.6)
    h_i2t_0 = res.mu_hat[0] - 0.2 + 0.5
    assert h_i2t_0 == pytest.approx(1.08, abs=1e-12)


def test_rtl_zero_on_perfect_separation():
    Sg = -np.ones((3, 3)) + 2.0 * np.eye(3)  # pos 1, negs -1
    res = robust_triplet_loss(Sg, sigma=0.6)
    assert res.loss == 0.0
    assert np.allclose(res.mu_hat, 0.6)


def _rtl_oracle(Sg, sigma):
    """Scalar recomputation over both directions."""
    b = Sg.shape[0]
    total = 0.0
    for i in range(b):
        negs_t = [Sg[i, j] for j in range(b) if j != i]
        negs_v = [Sg[j, i] for j in range(b) if j != i]
        s_t = max(negs_t)
        s_v = max(negs_v)
        mu = sigma * (1 + max(0.0, s_t - Sg[i, i]))
        zeta = sigma * (1 + max(0.0, s_v - Sg[i, i]))
        total += max(0.0, mu - Sg[i, i] + s_t) + max(0.0, zeta - Sg[i, i] + s_v)
    return total / b


def test_rtl_matches_scalar_oracle():
    rng = np.random.default_rng(5)
    for _ in range(30):
        b = int(rng.integers(2, 7))
        Sg = rng.uniform(-1, 1, size=(b, b))
        res = robust_triplet_loss(Sg, sigma=0.6)
        assert res.loss == pytest.approx(_rtl_oracle(Sg, 0.6), abs=1e-12)


def test_rtl_margins_at_least_sigma():
    rng = np.random.default_rng(6)
    for _ in range(100):
        Sg = rng.uniform(-1, 1, size=(5, 5))
        res = robust_triplet_loss(Sg, sigma=0.6)
        assert np.all(res.mu_hat >= 0.6 - 1e-15)
        assert np.all(res.zeta_hat >= 0.6 - 1e-15)
        assert np.all(res.hard_txt_idx != np.arange(5))
        assert np.all(res.hard_img_idx != np.arange(5))


def test_rtl_monotone_in_hard_negative():
    rng = np.random.default_rng(8)
    for _ in range(50):
        Sg = rng.uniform(-1, 1, size=(4, 4))
        res = robust_triplet_loss(Sg, sigma=0.6)
        i = int(rng.integers(0, 4))
        j = int(res.hard_txt_idx[i])
        Sg2 = Sg.copy()
        Sg2[i, j] += rng.uniform(0.01, 0.5)
        res2 = robust_triplet_loss(Sg2, sigma=0.6)
        assert res2.loss >= res.loss - 1e-12


def test_rtl_fixed_margin_and_mask():
    rng = np.random.default_rng(9)
    Sg = rng.uniform(-1, 1, size=(6, 6))
    fixed = robust_triplet_loss(Sg, sigma=0.6, adaptive=False)
    assert np.allclose(fixed.mu_hat, 0.6)
    adaptive = robust_triplet_loss(Sg, sigma=0.6)
    assert adaptive.loss >= fixed.loss - 1e-12
    mask = np.zeros(6, dtype=bool)
    masked = robust_triplet_loss(Sg, sigma=0.6, include=mask)
    assert masked.loss == 0.0


def test_triplet_hinges_at_frozen_margins():
    rng = np.random.default_rng(11)
    Sg = rng.uniform(-1, 1, size=(6, 6))
    mask = np.array([True, False, True, True, False, True])
    res = robust_triplet_loss(Sg, sigma=0.6, include=mask)
    h1, h2 = triplet_hinges(Sg, res, mask)
    assert float((h1 + h2).sum() / 6) == res.loss
    assert np.all(h1[~mask] == 0.0) and np.all(h2[~mask] == 0.0)
    # the hinges move with Sg while the margins and negatives stay as mined
    Sg2 = Sg + 0.01 * rng.normal(size=Sg.shape)
    h1b, _ = triplet_hinges(Sg2, res)
    rows = np.arange(6)
    want = np.maximum(0.0, res.mu_hat - Sg2[rows, rows] + Sg2[rows, res.hard_txt_idx])
    assert np.array_equal(h1b, want)


def _loss_grad_fd_check(loss_fn, S0, h=1e-5, tol=1e-6):
    """Compare the analytic gradient the trainer uses against central
    differences of the loss w.r.t. individual similarity entries."""
    from rrsitr.losses import _infonce_pass

    b = S0.shape[0]
    c = np.full(b, 1.0 / b)
    G = _infonce_pass([S0], 0.2)[1](c)[0]
    rng = np.random.default_rng(0)
    for _ in range(30):
        i, j = rng.integers(0, b, size=2)
        Sp = S0.copy(); Sp[i, j] += h
        Sm = S0.copy(); Sm[i, j] -= h
        fd = (loss_fn(Sp) - loss_fn(Sm)) / (2 * h)
        rel = abs(G[i, j] - fd) / max(abs(G[i, j]), abs(fd), 1e-6)
        assert rel < tol, (i, j, G[i, j], fd)


def test_infonce_gradient_vs_finite_differences():
    rng = np.random.default_rng(10)
    S0 = rng.uniform(-1, 1, size=(5, 5))
    _loss_grad_fd_check(lambda S: infonce_per_pair(S, 0.2).mean(), S0)
