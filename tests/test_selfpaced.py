import math

import numpy as np
import pytest

from rrsitr.data import NoiseSpec, batch_iter, generate_synthetic, inject_noise
from rrsitr.errors import ConfigError, NumericError
from rrsitr.selfpaced import (BUCKET_AMBIGUOUS, BUCKET_CLEAN, BUCKET_NOISY,
                              compute_weights, optimal_weight)
from rrsitr.trainer import Hyper, batch_objective, init_heads


def regularizer(w, gamma: float, l):
    """Self-paced penalty R(w, gamma) = -(2/pi)*gamma*(w*arccos(w) - sqrt(1 - w^2))
    when l < gamma, else 0; its minimizer over w in [0, 1] of w*l + R(w, gamma)
    is cos(pi/2 * l/gamma). The oracle of the closed-form weights."""
    if gamma <= 0:
        raise ConfigError(f"gamma must be > 0, got {gamma}")
    w = np.asarray(w, dtype=np.float64)
    if np.any(w < 0.0) or np.any(w > 1.0):
        raise NumericError(f"weights must lie in [0, 1], got {w}")
    r = -(2.0 / np.pi) * gamma * (w * np.arccos(w) - np.sqrt(1.0 - w ** 2))
    out = np.where(np.asarray(l, dtype=np.float64) < gamma, r, 0.0)
    return float(out) if out.ndim == 0 else out


def _batch(size=10):
    ds = generate_synthetic(40, 4, 10, 3, 2, intra_class_spread=1.0, seed=0)
    ds = inject_noise(ds, NoiseSpec(rho=0.4, seed=1))
    return next(batch_iter(ds, size, epoch_seed=0)), init_heads(ds.dim, seed=1)


def _hyper(**kw):
    return Hyper(**{"batch_size": 10, "gamma1": 2.0, "gamma2": 9.0, **kw})


def test_partition_paper_defaults():
    part = compute_weights(np.array([2.0, 10.0, 20.0]), gamma1=5.0, gamma2=18.0)[0]
    assert part.clean_idx.tolist() == [0]
    assert part.ambiguous_idx.tolist() == [1]
    assert part.noisy_idx.tolist() == [2]


def test_partition_boundaries():
    part = compute_weights(np.array([5.0, 18.0]), gamma1=5.0, gamma2=18.0)[0]
    assert part.ambiguous_idx.tolist() == [0]  # l == gamma1 is ambiguous
    assert part.noisy_idx.tolist() == [1]      # l == gamma2 is noisy


def test_partition_covers_and_disjoint():
    rng = np.random.default_rng(0)
    for _ in range(20):
        l = rng.uniform(0, 30, size=50)
        part = compute_weights(l, 5.0, 18.0)[0]
        all_idx = np.concatenate([part.clean_idx, part.ambiguous_idx, part.noisy_idx])
        assert sorted(all_idx.tolist()) == list(range(50))
        codes = part.bucket_codes(50)
        assert np.all(codes[part.clean_idx] == BUCKET_CLEAN)
        assert np.all(codes[part.ambiguous_idx] == BUCKET_AMBIGUOUS)
        assert np.all(codes[part.noisy_idx] == BUCKET_NOISY)


def test_partition_empty_noisy():
    part = compute_weights(np.array([1.0, 2.0]), 5.0, 18.0)[0]
    assert len(part.noisy_idx) == 0


def test_partition_gamma_order_enforced():
    with pytest.raises(ConfigError):
        compute_weights(np.array([1.0]), 5.0, 5.0)
    with pytest.raises(ConfigError):
        compute_weights(np.array([1.0]), 0.0, 5.0)


def test_regularizer_endpoints():
    assert regularizer(1.0, 5.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert regularizer(0.0, 5.0, 1.0) == pytest.approx(10.0 / math.pi, abs=1e-12)
    # second branch: l >= gamma gives 0 regardless of w
    assert regularizer(0.3, 5.0, 5.0) == 0.0
    assert regularizer(0.3, 5.0, 99.0) == 0.0


def test_regularizer_domain():
    with pytest.raises(NumericError):
        regularizer(1.2, 5.0, 1.0)
    with pytest.raises(NumericError):
        regularizer(-0.1, 5.0, 1.0)
    with pytest.raises(ConfigError):
        regularizer(0.5, 0.0, 1.0)


def test_optimal_weight_values():
    assert optimal_weight(0.0, 5.0) == pytest.approx(1.0, abs=1e-15)
    assert optimal_weight(2.5, 5.0) == pytest.approx(math.cos(math.pi / 4), abs=1e-15)
    assert optimal_weight(5.0, 5.0) == 0.0
    assert optimal_weight(7.0, 5.0) == 0.0
    with pytest.raises(ConfigError):
        optimal_weight(1.0, 0.0)


def test_optimal_weight_monotone_and_continuous_at_gamma():
    gamma = 7.0
    ls = np.linspace(0.0, gamma - 1e-9, 500)
    w = optimal_weight(ls, gamma)
    assert np.all(np.diff(w) < 0)
    assert w[-1] < 1e-8  # limit 0 as l -> gamma


def optimal_weight_oracle(l: float, gamma: float, grid_steps: int = 100_000) -> float:
    """Grid minimizer of w*l + R(w, gamma) over w in [0, 1]."""
    if l >= gamma:
        return 0.0
    grid = np.linspace(0.0, 1.0, grid_steps + 1)
    objective = grid * l + regularizer(grid, gamma, l)
    return float(grid[int(np.argmin(objective))])


def test_oracle_matches_closed_form():
    rng = np.random.default_rng(1)
    for _ in range(25):
        gamma = float(rng.uniform(0.5, 20.0))
        l = float(rng.uniform(0.0, gamma * 0.999))
        got = optimal_weight_oracle(l, gamma, grid_steps=100_000)
        want = optimal_weight(l, gamma)
        assert abs(got - want) <= 2.0 / 100_000
    assert optimal_weight_oracle(3.0, 3.0) == 0.0
    assert optimal_weight_oracle(0.0, 3.0) == pytest.approx(1.0)


def test_weighted_spl_loss_empty_bucket():
    # no pair below gamma1: L_S1 sums over an empty clean bucket
    l = np.array([7.0, 8.0])
    _, weights = compute_weights(l, 5.0, 18.0)
    assert weights.spl_losses(l)[0] == 0.0
    assert np.all(weights.w1 == 0.0) and np.all(weights.r1 == 0.0)


def test_weighted_spl_loss_hand_value():
    # single clean pair, l=2.5, gamma=5, b=1
    l = np.array([2.5])
    w_star = math.cos(math.pi / 4)
    r = -(2 / math.pi) * 5.0 * (w_star * math.acos(w_star) - math.sqrt(1 - w_star ** 2))
    expected = w_star * 2.5 + r
    _, weights = compute_weights(l, 5.0, 18.0)
    assert weights.spl_losses(l) == (pytest.approx(expected, abs=1e-12), 0.0)


def test_weighted_spl_loss_zero_weights_pure_regularizer():
    # hard_to_easy gives w = 1 - cos(0) = 0 at l = 0, leaving R(0, gamma) = 2*gamma/pi
    l = np.zeros(3)
    _, weights = compute_weights(l, 5.0, 18.0, weighting="hard_to_easy")
    assert np.all(weights.w1 == 0.0)
    assert weights.spl_losses(l)[0] == pytest.approx(3 * (10.0 / math.pi) / 3, abs=1e-12)


def test_weighted_spl_loss_normalizes_by_full_batch():
    l = np.array([2.0, 2.0, 30.0, 30.0])
    _, weights = compute_weights(l, 5.0, 18.0)
    w = math.cos(math.pi / 2 * 2.0 / 5.0)
    per_pair = w * 2.0 + regularizer(w, 5.0, 2.0)
    assert weights.spl_losses(l)[0] == pytest.approx(2 * per_pair / 4, abs=1e-12)


def test_weighted_spl_loss_mismatch():
    # a plan frozen for one batch cannot weight a batch of another size
    batch, heads = _batch(10)
    plan = batch_objective(heads, batch, _hyper()).plan
    smaller, _ = _batch(8)
    with pytest.raises(ConfigError):
        batch_objective(heads, smaller, _hyper(), plan=plan)


def test_compute_weights_bucket_rules():
    l = np.array([1.0, 7.0, 25.0])
    part, weights = compute_weights(l, 5.0, 18.0)
    assert weights.w[0] == pytest.approx(math.cos(math.pi / 2 * 1.0 / 5.0))
    assert weights.w[1] == pytest.approx(math.cos(math.pi / 2 * 7.0 / 18.0))
    assert weights.w[2] == 0.0
    assert np.all(weights.w >= 0) and np.all(weights.w <= 1)


def test_compute_weights_variants():
    l = np.array([1.0, 7.0, 25.0, 2.0])
    _, spl = compute_weights(l, 5.0, 18.0)
    _, over_all = compute_weights(l, 5.0, 18.0, sum_over_all=True)
    # L_S2 also covers the clean pairs, at their gamma2 weight
    assert over_all.w2[0] == pytest.approx(math.cos(math.pi / 2 * 1.0 / 18.0))
    assert spl.w2[0] == 0.0 and np.array_equal(over_all.w, spl.w)
    part, merged = compute_weights(l, 5.0, 18.0, merge_ambiguous=True, sum_over_all=True)
    assert part.noisy_idx.tolist() == [1, 2] and np.all(merged.w2 == 0.0)
    _, uniform = compute_weights(l, 5.0, 18.0, weighting="uniform")
    assert np.all(uniform.w1 == 1.0) and uniform.spl_losses(l) == (l.mean(), 0.0)
    with pytest.raises(ConfigError):
        compute_weights(l, 5.0, 18.0, weighting="random")  # needs an RNG
    with pytest.raises(ConfigError):
        compute_weights(l, 5.0, 18.0, weighting="bogus")


def test_assemble_objective_composition():
    batch, heads = _batch()
    state = batch_objective(heads, batch, _hyper())
    L_S1, L_S2 = state.weights.spl_losses(state.l_total)
    assert (state.parts.L_S1, state.parts.L_S2) == (L_S1, L_S2)
    assert state.parts.L_soft == state.rtl.loss > 0.0
    assert state.loss == pytest.approx(L_S1 + 0.8 * L_S2 + 0.9 * state.rtl.loss, abs=1e-12)


def test_assemble_objective_degenerate_lambdas():
    batch, heads = _batch()
    state = batch_objective(heads, batch, _hyper(lambda1=0.0, lambda2=0.0))
    assert state.parts.L_S2 > 0.0 and state.rtl is None
    assert state.loss == pytest.approx(state.parts.L_S1, abs=1e-12)


def test_assemble_objective_all_noisy():
    l = np.array([30.0, 40.0])
    part, weights = compute_weights(l, 5.0, 18.0)
    assert weights.spl_losses(l) == (0.0, 0.0)
    assert np.all(weights.w == 0.0)
    # tiny gammas force the whole batch into the noisy bucket; only L_soft is left
    batch, heads = _batch()
    state = batch_objective(heads, batch, _hyper(gamma1=1e-6, gamma2=2e-6))
    assert len(state.partition.noisy_idx) == 10
    assert state.loss == pytest.approx(0.9 * state.parts.L_soft, abs=1e-12)


def test_noisy_pairs_contribute_nothing():
    rng = np.random.default_rng(2)
    l = np.concatenate([rng.uniform(0, 4, 5), rng.uniform(19, 40, 5)])
    _, weights = compute_weights(l, 5.0, 18.0)
    # dropping the noisy pairs entirely (but keeping b) leaves the value unchanged
    l2 = l.copy()
    l2[5:] = 99.0
    _, weights2 = compute_weights(l2, 5.0, 18.0)
    assert weights.spl_losses(l) == pytest.approx(weights2.spl_losses(l2), abs=1e-12)


def test_spl_gradient_coefficient_property():
    # with weights frozen, d(L_S1)/d(l_i) = w_i / b for clean pairs
    l = np.array([1.0, 3.0, 7.0, 30.0])
    part, weights = compute_weights(l, 5.0, 18.0)
    b = len(l)
    h = 1e-6
    for i in part.clean_idx:
        lp = l.copy(); lp[i] += h
        lm = l.copy(); lm[i] -= h
        up = weights.spl_losses(lp)[0]
        dn = weights.spl_losses(lm)[0]
        fd = (up - dn) / (2 * h)
        assert fd == pytest.approx(weights.w[i] / b, abs=1e-8)
