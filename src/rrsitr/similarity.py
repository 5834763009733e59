"""Global (cosine), local (normalized-Frobenius aggregate), and fused similarity."""
from __future__ import annotations

import functools
from typing import Tuple

import numpy as np

from . import pool
from .data import _row_chunks
from .errors import ConfigError, NumericError

NORM_EPS = 1e-12  # guard against division by zero without disturbing unit rows
GRAM_BLOCK = 32  # rows per strip of the blocked Gram kernel


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


def local_similarity(img_locals: np.ndarray, txt_locals: np.ndarray) -> np.ndarray:
    """Aggregate local-feature similarity for every (image, text) pair, from
    blocks (n, d1, dim) and (m, d2, dim) whose rows are renormalized first;
    local_similarity_units computes it from unit rows."""
    a = np.asarray(img_locals, dtype=np.float64)
    b = np.asarray(txt_locals, dtype=np.float64)
    if a.ndim != 3 or b.ndim != 3 or a.shape[2] != b.shape[2]:
        raise ConfigError("local blocks must be (n, d1, dim) and (m, d2, dim)")
    return local_similarity_units(_unit_rows(a, "img_locals"), _unit_rows(b, "txt_locals"),
                                  grad=False)[0]


def local_similarity_units(A: np.ndarray, B: np.ndarray, grad: bool = True):
    """Sl for unit-row blocks A (n, d1, dim) and B (m, d2, dim), and its backward.

    For pair (i, j) the d1 x d2 matrix of local cosines M = A_i B_j^T is
    reduced to a single score ||M||_F / sqrt(d1*d2), which lies in [0, 1].
    Note the Frobenius norm discards the sign of individual local cosines.

    One of two kernels computes it, chosen from the local shape alone
    (_gram_chosen), with or without grad. The direct kernel forms every M,
    d1*d2*dim multiply-adds per pair, and holds all of them in every call, an
    (n*d1, m*d2) intermediate. The Gram kernel uses the identity
    ||A_i B_j^T||_F^2 = <A_i^T A_i, B_j^T B_j>_F over the Grams' upper block
    triangle, one strip of GRAM_BLOCK rows at a time, each adding one matmul
    over all pairs: about dim^2/2 multiply-adds per pair. It keeps only A, B
    and the norms for the backward, which forms the strips again. The two
    agree to rounding, except that near Sl = 0 the Gram form's cancelled sum
    leaves an error of order sqrt(eps).

    The Gram kernel runs its tasks on the worker pool above
    pool.PARALLEL_WORK (pool's docstring gives its calls), and Sl and its
    backward have the same bits at every pool size. The direct kernel runs
    on the calling thread.

    Returns (Sl, backward). backward(Gl) maps dLoss/dSl, shaped (n, m), to
    (dA, dB) shaped like A and B; backward(Gl, out=(dA, dB)) writes them into
    the given C-contiguous arrays. The rows are taken as given, not
    renormalized. With grad=False nothing is kept for a backward and backward
    is None.
    """
    n, d1, dim = A.shape
    m, d2, _ = B.shape
    scale = np.sqrt(d1 * d2)
    if _gram_chosen(d1, d2, dim):
        norms, kernel_backward = _gram_kernel(A, B)
    else:
        norms, kernel_backward = _direct_kernel(A, B, grad)

    if not grad:
        return np.divide(norms, scale, out=norms), None

    def backward(Gl: np.ndarray, out=None):
        # Sl = ||M||_F / scale: dM = Gl * M / (||M||_F * scale)
        return kernel_backward(Gl / (np.maximum(norms, NORM_EPS) * scale), out)

    return norms / scale, backward


def _gram_chosen(d1: int, d2: int, dim: int) -> bool:
    """Gram kernel when it does less arithmetic: 2*dim <= d1*d2.

    Per pair the direct kernel does d1*d2*dim multiply-adds and the blocked
    Gram kernel about dim^2/2, plus every item's Gram strips, formed once in
    the forward and again in the backward, and small batched matmuls.
    Neither n, m nor grad enters. The direct kernel holds 2*n*d1*m*d2 values
    (its intermediate and a temporary) in every call. The Gram kernel holds
    no strips between forward and backward. Its forward holds one strip per
    item per task running and every strip's (n, m) part. Its backward holds
    one side's K products, n*dim^2/2 or m*dim^2/2 values, plus one strip of
    the other side per task running. So by these counts, with n = m, the
    Gram kernel holds less wherever it is picked and n > dim/8.
    """
    return 2 * dim <= d1 * d2


@functools.lru_cache(maxsize=None)
def _packed_triangle(w: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index maps of a symmetric w x w block's packed upper triangle, its
    w(w+1)/2 entries (p, q) with p <= q in row-major order.

    upper[k] is slot k's row-major flat index p*w + q in the full block;
    double[k] is 1 on the diagonal and 2 off it, so that a packed inner
    product weighted by it equals the full one; full[p*w + q] is the slot of
    (min(p, q), max(p, q)), so taking full from packed rows rebuilds the block.
    """
    upper = np.flatnonzero(np.tri(w, dtype=bool).T)
    p, q = np.divmod(upper, w)
    double = np.where(p == q, 1.0, 2.0)
    full = np.empty((w, w), dtype=np.intp)
    full[p, q] = full[q, p] = np.arange(len(upper))
    return upper, double, full.reshape(-1)


def _gram_kernel(A: np.ndarray, B: np.ndarray):
    """||A_i B_j^T||_F for all pairs from the Grams A_i^T A_i and B_j^T B_j, and
    a backward mapping W = dLoss/d||M||_F / ||M||_F to (dA, dB).

    The Grams are symmetric, so only their upper block triangle is formed, in
    strips of GRAM_BLOCK rows: strip s:e holds rows s:e, columns s: of every
    Gram (_gram_strip). Entries right of a strip's diagonal block stand for
    their mirror images too and are doubled on the A side, so the strips'
    inner products sum to <A_i^T A_i, B_j^T B_j>_F. The last strip is the
    square diagonal block, the whole Gram when dim <= GRAM_BLOCK: it is packed
    to its upper triangle, w(w+1)/2 of its w^2 entries, with the off-diagonal
    ones weighted by _packed_triangle's `double` on the A side.

    Nothing but A, B and the norms is kept for the backward: each of its K
    products forms the other side's strip again, undoubled (_strip_k), and
    gathers the packed last strip's K back to full through _packed_triangle's
    `full` map. The forward adds the strips' parts in strip order here, and
    each _strips_backward task adds every strip into its rows in strip order;
    pool's docstring lists the calls, and a side's K products are dropped
    before the other side's are formed. Above pool.PARALLEL_WORK (about
    dim^2/2 multiply-adds per pair) the calls run on the worker pool, below it
    in order on the calling thread. A task's calls and operands do not depend
    on the thread that runs it, and no 2-D GEMM is split by rows, so the
    result has the same bits at every pool size.
    """
    n, _, dim = A.shape
    m = B.shape[0]
    on_pool = pool.parallel(n * m * dim * dim // 2)
    strips = [(s, min(s + GRAM_BLOCK, dim)) for s in range(0, dim, GRAM_BLOCK)]

    def strip(s, e):
        PA = _flat_strip(A, s, e)
        if e < dim:
            PA.reshape(n, e - s, dim - s)[:, :, e - s:] *= 2.0
        else:
            PA *= _packed_triangle(e - s)[1]
        return PA @ _flat_strip(B, s, e).T

    sq, *rest = pool.run(strip, strips, on_pool)
    for part in rest:
        sq += part
    norms = _clamped_sqrt(sq)

    def backward(W: np.ndarray, out=None):
        # d||M||^2/dA_i = 2 A_i sum_j W_ij B_j^T B_j; the 2 cancels d sqrt's 1/2
        dA, dB = (np.empty(A.shape), np.empty(B.shape)) if out is None else out
        for X, dX, WY in ((A, dA, (W, B)), (B, dB, (W.T, A))):
            Ks = pool.run(_strip_k, [WY + se for se in strips], on_pool)
            pool.run(_strips_backward, [(X[r0:r1], [K[r0:r1] for K in Ks], strips, dX[r0:r1])
                                        for r0, r1 in _row_chunks(X.shape)], on_pool)
            del Ks
        return dA, dB

    return norms, backward


def _strip_k(W: np.ndarray, Y: np.ndarray, s: int, e: int):
    """One side's K for strip s:e, W @ the other side's strip, formed here from
    its items Y (an A-side K takes W and B, a B-side K takes W^T and A),
    shaped for _strip_backward: (items, e-s, dim-s) or, for the packed last
    strip, gathered back to (items, e-s, e-s)."""
    K = W @ _flat_strip(Y, s, e)
    dim = Y.shape[2]
    if e < dim:
        return K.reshape(len(K), e - s, dim - s)
    return K.take(_packed_triangle(e - s)[2], axis=1).reshape(len(K), e - s, e - s)


def _flat_strip(X: np.ndarray, s: int, e: int) -> np.ndarray:
    """_gram_strip(X, s, e) flattened to (items, (e-s)*(dim-s)), or for the
    last strip packed to its upper triangle, (items, w(w+1)/2)."""
    P = _gram_strip(X, s, e).reshape(len(X), -1)
    return P if e < X.shape[2] else P.take(_packed_triangle(e - s)[0], axis=1)


def _gram_strip(X: np.ndarray, s: int, e: int) -> np.ndarray:
    """Rows s:e, columns s: of every item's Gram X_i^T X_i, (items, e-s, dim-s).
    For the whole Gram (s = 0, e = dim) one operand is a copy: on two views of
    one buffer matmul runs a per-item syrk, several times slower than the copy
    and a gemm together."""
    whole = s == 0 and e == X.shape[2]
    return np.matmul(X[:, :, s:e].transpose(0, 2, 1), X.copy() if whole else X[:, :, s:])


def _clamped_sqrt(sq: np.ndarray) -> np.ndarray:
    """sqrt of squared norms in place; the cancelled sum of a (near-)orthogonal
    pair can round below zero, so it is clamped at zero first."""
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq, out=sq)


def _strips_backward(X: np.ndarray, Ks, strips, dX):
    """Every strip's _strip_backward for items X into dX, in strip order."""
    for K, (s, e) in zip(Ks, strips):
        _strip_backward(X, K, s, e, dX)


def _strip_backward(X: np.ndarray, K: np.ndarray, s: int, e: int, dX):
    """Add X_i K_i to dX for the rows s:e, columns s: strip K of symmetric K_i:
    the strip acts on columns s: and its mirror image on columns s:e. The first
    strip (s = 0) covers every column and overwrites dX."""
    if s == 0:
        np.matmul(X[:, :, s:e], K, out=dX)
    else:
        dX[:, :, s:] += np.matmul(X[:, :, s:e], K)
    if e < X.shape[2]:
        dX[:, :, s:e] += np.matmul(X[:, :, e:], K[:, :, e - s:].transpose(0, 2, 1))


def _direct_kernel(A: np.ndarray, B: np.ndarray, grad: bool):
    """As _gram_kernel, from every M: one (n*d1, m*d2) product, which is kept
    for the backward only with grad. The forward is the same function of the
    inputs with or without grad."""
    n, d1, dim = A.shape
    m, d2, _ = B.shape
    au = A.reshape(n * d1, dim)
    bu = B.reshape(m * d2, dim)
    g = au @ bu.T
    norms = np.sqrt((g * g).reshape(n, d1, m, d2).sum(axis=(1, 3)))

    def backward(W: np.ndarray, out=None):
        dA, dB = (None, None) if out is None else (o.reshape(-1, dim) for o in out)
        dg = (g.reshape(n, d1, m, d2) * W[:, None, :, None]).reshape(n * d1, m * d2)
        return (np.matmul(dg, bu, out=dA).reshape(A.shape),
                np.matmul(dg.T, au, out=dB).reshape(B.shape))

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

