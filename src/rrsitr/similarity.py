"""Global (cosine), local (normalized-Frobenius aggregate), and fused similarity."""
from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericError

NORM_EPS = 1e-12  # guard against division by zero without disturbing unit rows
DIRECT_BLOCK_BYTES = 64e6  # budget for the direct kernel's (rows*d1, m*d2) intermediate


def _unit_rows(x: np.ndarray, what: str) -> np.ndarray:
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    if np.any(norms == 0.0):
        raise NumericError(f"zero-norm row in {what}")
    return x / np.maximum(norms, NORM_EPS)


def global_similarity(img_globals: np.ndarray, txt_globals: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity matrix: out[i, j] = cos(img_i, txt_j)."""
    u = _unit_rows(np.asarray(img_globals, dtype=np.float64), "img_globals")
    v = _unit_rows(np.asarray(txt_globals, dtype=np.float64), "txt_globals")
    return u @ v.T


def local_similarity(img_locals: np.ndarray, txt_locals: np.ndarray,
                     aggregation: str = "frobenius",
                     block_rows: int | None = None) -> np.ndarray:
    """Aggregate local-feature similarity for every (image, text) pair.

    For pair (i, j) the d1 x d2 matrix of local cosines M = A_i B_j^T is
    reduced to a single score ||M||_F / sqrt(d1*d2), which lies in [0, 1].
    Note the Frobenius norm discards the sign of individual local cosines.

    Two kernels compute it, chosen from the input shape alone. The direct
    kernel forms every M. The Gram kernel uses the identity
    ||A_i B_j^T||_F^2 = <A_i^T A_i, B_j^T B_j>_F, so all pairs take one
    (n, dim^2) @ (dim^2, m) matmul. The Gram kernel runs when its Grams,
    8*(n+m)*dim^2 bytes, are no larger than the direct kernel's intermediate,
    min(8*n*m*d1*d2, 64e6) bytes. The two agree to rounding, except that near
    Sl = 0 the Gram form's cancelled sum leaves an error of order sqrt(eps).

    block_rows applies to the direct kernel only. It bounds peak memory by
    processing image rows in chunks; the result is bit-identical for any
    chunking (each output entry sums its own terms in a fixed order).
    """
    if aggregation != "frobenius":
        raise ConfigError(f"unknown aggregation {aggregation!r}")
    a = np.asarray(img_locals, dtype=np.float64)
    b = np.asarray(txt_locals, dtype=np.float64)
    if a.ndim != 3 or b.ndim != 3 or a.shape[2] != b.shape[2]:
        raise ConfigError("local blocks must be (n, d1, dim) and (m, d2, dim)")
    au = _unit_rows(a, "img_locals")
    bu = _unit_rows(b, "txt_locals")
    return _local(au, bu, block_rows, grad=False)[0]


def local_similarity_units(A: np.ndarray, B: np.ndarray):
    """Sl for unit-row blocks A (n, d1, dim) and B (m, d2, dim), and its backward.

    Returns (Sl, backward). backward(Gl) maps dLoss/dSl, shaped (n, m), to
    (dA, dB) shaped like A and B. The kernel is chosen as in local_similarity.
    """
    return _local(A, B, None, grad=True)


def _gram_chosen(n: int, m: int, d1: int, d2: int, dim: int) -> bool:
    """Gram kernel when its Grams take no more memory than the direct kernel's
    bounded intermediate, so the choice never raises peak memory."""
    return 8 * (n + m) * dim * dim <= min(8 * n * m * d1 * d2, DIRECT_BLOCK_BYTES)


def _local(A: np.ndarray, B: np.ndarray, block_rows, grad: bool):
    n, d1, dim = A.shape
    m, d2, _ = B.shape
    scale = np.sqrt(d1 * d2)
    if _gram_chosen(n, m, d1, d2, dim):
        norms, kernel_backward = _gram_kernel(A, B)
    else:
        norms, kernel_backward = _direct_kernel(A, B, block_rows, grad)

    def backward(Gl: np.ndarray):
        # Sl = ||M||_F / scale: dM = Gl * M / (||M||_F * scale)
        return kernel_backward(Gl / (np.maximum(norms, NORM_EPS) * scale))

    return norms / scale, backward


def _gram_kernel(A: np.ndarray, B: np.ndarray):
    """||A_i B_j^T||_F for all pairs from the Grams A_i^T A_i and B_j^T B_j, and a
    backward mapping W = dLoss/d||M||_F / ||M||_F to (dA, dB)."""
    n, _, dim = A.shape
    m = B.shape[0]
    PA = np.matmul(A.transpose(0, 2, 1), A).reshape(n, dim * dim)
    PB = np.matmul(B.transpose(0, 2, 1), B).reshape(m, dim * dim)
    # the cancelled sum of a (near-)orthogonal pair can round below zero
    norms = np.sqrt(np.maximum(PA @ PB.T, 0.0))

    def backward(W: np.ndarray):
        # d||M||^2/dA_i = 2 A_i sum_j W_ij B_j^T B_j; the 2 cancels d sqrt's 1/2
        KA = (W @ PB).reshape(n, dim, dim)
        KB = (W.T @ PA).reshape(m, dim, dim)
        return np.matmul(A, KA), np.matmul(B, KB)

    return norms, backward


def _direct_kernel(A: np.ndarray, B: np.ndarray, block_rows, grad: bool):
    """As _gram_kernel, from every M. With grad the intermediate is kept whole
    for the backward; without it, it is formed in chunks of block_rows rows
    and no backward is returned."""
    n, d1, dim = A.shape
    m, d2, _ = B.shape
    au = A.reshape(n * d1, dim)
    bu = B.reshape(m * d2, dim)
    if grad:
        block_rows = n
    elif block_rows is None:
        block_rows = max(1, int(DIRECT_BLOCK_BYTES / (8 * d1 * m * d2)))
    norms = np.empty((n, m), dtype=np.float64)
    for start in range(0, n, block_rows):
        stop = min(start + block_rows, n)
        g = au[start * d1:stop * d1] @ bu.T                   # (chunk*d1, m*d2)
        sq = (g * g).reshape(stop - start, d1, m, d2)
        norms[start:stop] = np.sqrt(sq.sum(axis=(1, 3)))

    def backward(W: np.ndarray):
        dg = (g.reshape(n, d1, m, d2) * W[:, None, :, None]).reshape(n * d1, m * d2)
        return (dg @ bu).reshape(A.shape), (dg.T @ au).reshape(B.shape)

    return norms, (backward if grad else None)


def fused_similarity(Sg: np.ndarray, Sl: np.ndarray, alpha: float) -> np.ndarray:
    """Elementwise fusion alpha*Sg + (1-alpha)*Sl."""
    Sg = np.asarray(Sg, dtype=np.float64)
    Sl = np.asarray(Sl, dtype=np.float64)
    if Sg.shape != Sl.shape:
        raise ConfigError(f"shape mismatch: Sg {Sg.shape} vs Sl {Sl.shape}")
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must be in [0, 1], got {alpha}")
    return alpha * Sg + (1.0 - alpha) * Sl

