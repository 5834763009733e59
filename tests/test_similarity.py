import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrsitr import similarity
from rrsitr.errors import ConfigError, NumericError
from rrsitr.similarity import (GRAM_BLOCK, _direct_kernel, _gram_chosen, _gram_kernel,
                               _packed_triangle, fused_similarity, global_similarity,
                               local_similarity, local_similarity_units)


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def test_global_identical_vectors():
    v = np.array([[1.0, 0.0], [0.0, 1.0]])
    S = global_similarity(v, v)
    assert S[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert S[1, 1] == pytest.approx(1.0, abs=1e-12)


def test_global_orthogonal():
    S = global_similarity(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
    assert S[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_global_hand_value():
    S = global_similarity(np.array([[1.0, 0.0]]),
                          np.array([[math.sqrt(2) / 2, math.sqrt(2) / 2]]))
    assert S[0, 0] == pytest.approx(math.sqrt(2) / 2, abs=1e-12)


def test_global_scale_invariant():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 7))
    b = rng.normal(size=(6, 7))
    S1 = global_similarity(a, b)
    S2 = global_similarity(a * 13.5, b * 0.002)
    assert np.allclose(S1, S2, atol=1e-12)


def test_global_zero_norm_raises():
    a = np.zeros((2, 3))
    a[0, 0] = 1.0
    with pytest.raises(NumericError):
        global_similarity(a, np.ones((2, 3)))


def test_local_all_ones():
    # every local cosine is 1 -> normalized Frobenius is exactly 1
    a = np.tile(_unit([1.0, 2.0, 3.0]), (2, 3, 1))
    S = local_similarity(a, a[:1])
    assert np.allclose(S, 1.0, atol=1e-12)


def test_local_all_orthogonal():
    a = np.zeros((1, 2, 4)); a[0, :, 0] = 1.0
    b = np.zeros((1, 2, 4)); b[0, :, 1] = 1.0
    S = local_similarity(a, b)
    assert S[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_local_identity_cosine_matrix():
    # M = [[1,0],[0,1]] -> sqrt(2)/sqrt(4)
    a = np.zeros((1, 2, 4)); a[0, 0, 0] = 1.0; a[0, 1, 1] = 1.0
    S = local_similarity(a, a)
    assert S[0, 0] == pytest.approx(math.sqrt(2) / 2, abs=1e-12)


def _local_oracle(a, b):
    """Scalar triple-loop recomputation of the normalized Frobenius aggregate."""
    na, d1, _ = a.shape
    nb, d2, _ = b.shape
    out = np.zeros((na, nb))
    for i in range(na):
        for j in range(nb):
            acc = 0.0
            for p in range(d1):
                for q in range(d2):
                    u = a[i, p] / np.linalg.norm(a[i, p])
                    v = b[j, q] / np.linalg.norm(b[j, q])
                    acc += float(u @ v) ** 2
            out[i, j] = math.sqrt(acc) / math.sqrt(d1 * d2)
    return out


def test_local_matches_scalar_oracle():
    rng = np.random.default_rng(42)
    shapes = [(rng.integers(2, 5), rng.integers(1, 4)) for _ in range(5)] + [(4, 4)]
    for b, d in shapes:
        a = rng.normal(size=(b, d, 5))
        t = rng.normal(size=(b, d, 5))
        got = local_similarity(a, t)
        want = _local_oracle(a, t)
        assert np.max(np.abs(got - want)) < 1e-10
    assert _gram_chosen(4, 4, 5)  # the last shape runs the Gram kernel


def test_local_blocking_bit_identical(monkeypatch):
    # without grad the direct kernel takes DIRECT_BLOCK_BYTES / (8*d1*m*d2) image rows at a time
    rng = np.random.default_rng(1)
    a = rng.normal(size=(13, 3, 6))
    b = rng.normal(size=(9, 2, 6))
    assert not _gram_chosen(3, 2, 6)  # the chunking is the direct kernel's
    by_rows = {}
    for rows in (13, 1, 2, 5):
        monkeypatch.setattr(similarity, "DIRECT_BLOCK_BYTES", rows * 8 * 3 * 9 * 2)
        by_rows[rows] = local_similarity(a, b)
    for rows in (1, 2, 5):
        assert np.array_equal(by_rows[rows], by_rows[13])


def test_local_role_swap_symmetry():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(4, 3, 5))
    b = rng.normal(size=(6, 2, 5))
    assert np.allclose(local_similarity(a, b), local_similarity(b, a).T, atol=1e-12)


def _unit_rows(x):
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def _unit_blocks(rng, n, d, dim):
    return _unit_rows(rng.normal(size=(n, d, dim)))


@pytest.mark.parametrize("n,m,d1,d2,dim", [(100, 100, 8, 8, 32),     # desk batch, one strip
                                           (6, 5, 36, 16, 256),     # small paper-like
                                           (7, 5, 12, 12, 70),      # ragged strips 32+32+6
                                           (100, 100, 36, 16, 256),  # paper batch
                                           (9, 7, 2, 1, 1),         # a 1 x 1 square strip
                                           (9, 7, 9, 8, 33),        # strips 32+1
                                           (9, 7, 12, 12, 64)])     # strips 32+32
def test_local_kernels_agree_forward_and_backward(n, m, d1, d2, dim):
    assert _gram_chosen(d1, d2, dim)
    assert GRAM_BLOCK == 32  # the comments above count strips of 32
    rng = np.random.default_rng(7)
    A, B = _unit_blocks(rng, n, d1, dim), _unit_blocks(rng, m, d2, dim)
    W = rng.normal(size=(n, m))
    norms_g, back_g = _gram_kernel(A, B, grad=True)
    norms_d, back_d = _direct_kernel(A, B, grad=True)
    assert np.max(np.abs(norms_g - norms_d)) <= 1e-12
    for got, want in zip(back_g(W), back_d(W)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12


def test_local_dispatch_by_shape(monkeypatch):
    assert _gram_chosen(8, 8, 32)       # desk shape
    assert _gram_chosen(36, 16, 256)    # paper shape
    assert _gram_chosen(36, 32, 256)
    # small locals at large dim: the direct kernel does less work
    assert not _gram_chosen(8, 8, 128)
    assert not _gram_chosen(8, 8, 256)
    assert not _gram_chosen(36, 16, 512)
    assert not _gram_chosen(36, 12, 256)
    # neither the batch size nor grad enters: paper batches above 108 pairs
    # and the 300-pair held-out set run the Gram kernel, with grad or without
    ran = []

    def spy(name):
        def kernel(A, B, grad):
            ran.append(name)
            return np.ones((len(A), len(B))), None
        return kernel

    for name in ("_gram_kernel", "_direct_kernel"):
        monkeypatch.setattr(similarity, name, spy(name))
    for n, grad in ((100, True), (128, True), (300, True), (300, False), (2000, False)):
        local_similarity_units(np.zeros((n, 36, 256)), np.zeros((n, 16, 256)), grad)
    assert ran == ["_gram_kernel"] * 5


def test_local_paper_b128_traced_peak():
    # forward plus backward at (128, 36x16, 256): the Gram kernel's strips, not
    # the direct kernel's (128*36, 128*16) intermediate and its temporary
    rng = np.random.default_rng(5)
    A, B = _unit_blocks(rng, 128, 36, 256), _unit_blocks(rng, 128, 16, 256)
    W = rng.normal(size=(128, 128))
    tracemalloc.start()
    try:
        _, backward = local_similarity_units(A, B)
        backward(W)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 130 * 2**20, peak / 2**20


GRAM_NEAR_ZERO_TOL = 1e-7  # |Sl_gram - Sl_direct| where rounding leaves sqrt(eps)-sized terms


def test_local_gram_orthogonal_blocks_finite():
    # image blocks span half of a rotated basis, text blocks the other half, so
    # P_A . P_B cancels to about +-1e-17 and its sqrt would be NaN unclamped;
    # half the texts are nudged to near-orthogonal
    for n, d1, d2, dim in [(8, 4, 4, 6),            # one strip
                           (8, 10, 10, 40),         # ragged strips 32+8
                           (100, 36, 16, 256)]:     # paper batch
        rng = np.random.default_rng(3)
        assert _gram_chosen(d1, d2, dim)
        Q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        a = rng.normal(size=(n, d1, dim // 2)) @ Q[:, :dim // 2].T
        b = rng.normal(size=(n, d2, dim // 2)) @ Q[:, dim // 2:].T
        b[n // 2:] += 1e-9 * rng.normal(size=b[n // 2:].shape)
        S = local_similarity(a, b)
        assert np.all(np.isfinite(S)) and np.all(S >= 0.0)
        A, B = _unit_rows(a), _unit_rows(b)
        direct, _ = _direct_kernel(A, B, grad=False)
        assert np.max(np.abs(S - direct / np.sqrt(d1 * d2))) <= GRAM_NEAR_ZERO_TOL
        Sl, backward = local_similarity_units(A, B)
        assert np.array_equal(Sl, S)
        dA, dB = backward(np.ones((n, n)))
        assert np.all(np.isfinite(dA)) and np.all(np.isfinite(dB))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 5), st.integers(1, 5),
       st.integers(1, 72), st.integers(0, 2**32 - 1))
def test_local_kernels_property(n, m, d1, d2, dim, seed):
    rng = np.random.default_rng(seed)
    A, B = _unit_blocks(rng, n, d1, dim), _unit_blocks(rng, m, d2, dim)
    scale = np.sqrt(d1 * d2)
    S_gram = _gram_kernel(A, B, grad=False)[0] / scale
    S_direct = _direct_kernel(A, B, grad=False)[0] / scale
    # the Gram form is exact to rounding in Sl^2; its sqrt magnifies that near 0
    assert np.max(np.abs(S_gram ** 2 - S_direct ** 2)) <= 1e-12
    assert np.max(np.abs(S_gram - S_direct)) <= GRAM_NEAR_ZERO_TOL
    S = local_similarity(A, B)
    assert np.all(S >= 0.0) and np.all(S <= 1.0 + 1e-12)
    p, q = rng.permutation(n), rng.permutation(m)
    assert np.allclose(local_similarity(A[p], B[q]), S[p][:, q], rtol=0.0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7), st.integers(1, 7), st.integers(1, 6), st.integers(1, 6),
       st.integers(1, 72), st.integers(0, 2**32 - 1))
def test_gram_kernel_grad_and_no_grad_sl_bit_identical(n, m, d1, d2, dim, seed):
    # dims 1-72 take one to three strips, the last one square and packed
    rng = np.random.default_rng(seed)
    A, B = _unit_blocks(rng, n, d1, dim), _unit_blocks(rng, m, d2, dim)
    with_grad = _gram_kernel(A, B, grad=True)[0]
    assert np.array_equal(_gram_kernel(A, B, grad=False)[0], with_grad)


@pytest.mark.parametrize("dim,d", [(6, 4), (20, 7), (32, 8), (40, 9), (70, 12)])
def test_gram_kernel_gradient_matches_finite_differences(dim, d):
    # d*d >= 2*dim: the Gram kernel, in one square strip up to dim 32, then
    # in strips of 32 + 8 and 32 + 32 + 6
    n, m = 5, 4
    assert _gram_chosen(d, d, dim) and GRAM_BLOCK == 32
    rng = np.random.default_rng(dim)
    A, B = _unit_blocks(rng, n, d, dim), _unit_blocks(rng, m, d, dim)
    G = rng.normal(size=(n, m))
    _, backward = local_similarity_units(A, B)
    grads = backward(G)
    h, worst = 1e-5, 0.0
    for X, dX in zip((A, B), grads):
        for idx in [tuple(rng.integers(0, s) for s in X.shape) for _ in range(12)]:
            orig = X[idx]
            X[idx] = orig + h
            fp = float((local_similarity_units(A, B, grad=False)[0] * G).sum())
            X[idx] = orig - h
            fm = float((local_similarity_units(A, B, grad=False)[0] * G).sum())
            X[idx] = orig
            fd = (fp - fm) / (2 * h)
            worst = max(worst, abs(dX[idx] - fd) / max(abs(dX[idx]), abs(fd), 1e-6))
    assert worst < 1e-6, worst


@pytest.mark.parametrize("d1,d2,dim,kernel", [(4, 3, 9, "direct"), (4, 4, 6, "square"),
                                              (9, 9, 40, "strip"), (12, 12, 70, "strip")])
def test_backward_writes_into_out(d1, d2, dim, kernel):
    # "square": the Gram kernel in one square strip; "strip": in several
    assert _gram_chosen(d1, d2, dim) == (kernel != "direct")
    assert kernel == "direct" or (dim <= GRAM_BLOCK) == (kernel == "square")
    rng = np.random.default_rng(4)
    A, B = _unit_blocks(rng, 6, d1, dim), _unit_blocks(rng, 5, d2, dim)
    W = rng.normal(size=(6, 5))
    _, backward = local_similarity_units(A, B)
    out = (np.empty_like(A), np.empty_like(B))
    got = backward(W, out=out)
    for x, y, fresh in zip(out, got, backward(W)):
        assert np.shares_memory(x, y)
        assert np.array_equal(x, fresh)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.data())
def test_packed_triangle_full_index_maps_to_min_max_slot(w, data):
    upper, double, full = _packed_triangle(w)
    assert len(upper) == w * (w + 1) // 2
    p = data.draw(st.integers(0, w - 1))
    q = data.draw(st.integers(0, w - 1))
    slot = full[p * w + q]
    assert upper[slot] == min(p, q) * w + max(p, q)
    assert double[slot] == (1.0 if p == q else 2.0)


def test_fused_identity_cases():
    rng = np.random.default_rng(3)
    Sg = rng.normal(size=(4, 4))
    Sl = rng.random(size=(4, 4))
    assert np.array_equal(fused_similarity(Sg, Sl, 1.0), Sg)
    assert np.array_equal(fused_similarity(Sg, Sl, 0.0), Sl)


def test_fused_hand_value():
    Sf = fused_similarity(np.array([[0.5]]), np.array([[0.3]]), alpha=0.9)
    assert Sf[0, 0] == pytest.approx(0.48, abs=1e-12)


def test_fused_errors():
    with pytest.raises(ConfigError):
        fused_similarity(np.zeros((2, 2)), np.zeros((3, 3)), 0.5)
    with pytest.raises(ConfigError):
        fused_similarity(np.zeros((2, 2)), np.zeros((2, 2)), 1.5)
