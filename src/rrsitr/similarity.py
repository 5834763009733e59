"""Global (cosine), local (normalized-Frobenius aggregate), and fused similarity."""
from __future__ import annotations

import functools
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigError, NumericError

NORM_EPS = 1e-12  # guard against division by zero without disturbing unit rows
DIRECT_BLOCK_BYTES = 64e6  # budget for the direct kernel's (rows*d1, m*d2) intermediate
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

    Two kernels compute it, chosen from the input shape alone (_gram_chosen).
    The direct kernel forms every M, d1*d2*dim multiply-adds per pair. The
    Gram kernel uses the identity ||A_i B_j^T||_F^2 = <A_i^T A_i, B_j^T B_j>_F.
    The Grams are symmetric, so it forms only their upper block triangle, in
    strips of GRAM_BLOCK rows, and each strip adds one matmul over all pairs:
    about dim^2/2 multiply-adds per pair. The last strip is a square block,
    the whole Gram when dim <= GRAM_BLOCK, and its product takes only the
    block's upper triangle. It runs when 2*dim <= d1*d2 and the
    Grams it holds at once fit in DIRECT_BLOCK_BYTES. The two agree to
    rounding, except that near Sl = 0 the Gram form's cancelled sum leaves an
    error of order sqrt(eps).

    Returns (Sl, backward). backward(Gl) maps dLoss/dSl, shaped (n, m), to
    (dA, dB) shaped like A and B; backward(Gl, out=(dA, dB)) writes them into
    the given C-contiguous arrays. The rows are taken as given, not
    renormalized. With grad=False nothing is kept for a backward and backward
    is None.
    """
    n, d1, dim = A.shape
    m, d2, _ = B.shape
    scale = np.sqrt(d1 * d2)
    if _gram_chosen(n, m, d1, d2, dim, grad):
        norms, kernel_backward = _gram_kernel(A, B, grad)
    else:
        norms, kernel_backward = _direct_kernel(A, B, grad)

    if not grad:
        return np.divide(norms, scale, out=norms), None

    def backward(Gl: np.ndarray, out=None):
        # Sl = ||M||_F / scale: dM = Gl * M / (||M||_F * scale)
        return kernel_backward(Gl / (np.maximum(norms, NORM_EPS) * scale), out)

    return norms / scale, backward


def _gram_chosen(n: int, m: int, d1: int, d2: int, dim: int, grad: bool) -> bool:
    """Gram kernel when it does less arithmetic and its Grams fit the memory budget.

    Per pair the direct kernel does d1*d2*dim multiply-adds and the blocked
    Gram kernel about dim^2/2; the Gram side also forms every item's Gram and
    runs small batched matmuls, so it is taken only when 2*dim <= d1*d2. The
    Gram strips it holds at once, the first one without grad or all of them
    with grad, must fit in DIRECT_BLOCK_BYTES, the bound on the direct
    kernel's intermediate.
    """
    if 2 * dim > d1 * d2:
        return False
    strips = [(min(s + GRAM_BLOCK, dim) - s) * (dim - s) for s in range(0, dim, GRAM_BLOCK)]
    held = sum(strips) if grad else strips[0]
    return 8 * (n + m) * held <= DIRECT_BLOCK_BYTES


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


def _grams(X: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Every item's Gram X_i^T X_i, (items, dim, dim). One operand is a copy:
    on two views of one buffer matmul runs a per-item syrk, several times
    slower than the copy and a gemm together."""
    return np.matmul(X.transpose(0, 2, 1), X.copy(), out=out)


def _gram_kernel(A: np.ndarray, B: np.ndarray, grad: bool):
    """||A_i B_j^T||_F for all pairs from the Grams A_i^T A_i and B_j^T B_j, and
    (with grad) a backward mapping W = dLoss/d||M||_F / ||M||_F to (dA, dB).

    The Grams are symmetric, so only their upper triangle is multiplied. When
    dim <= GRAM_BLOCK, _square_gram_kernel forms whole Grams; above it,
    _strip_gram_kernel forms them in strips of GRAM_BLOCK rows.
    """
    kernel = _square_gram_kernel if A.shape[2] <= GRAM_BLOCK else _strip_gram_kernel
    return kernel(A, B, grad)


def _strip_gram_kernel(A: np.ndarray, B: np.ndarray, grad: bool):
    """_gram_kernel on the upper block triangle of the Grams, formed in strips
    of GRAM_BLOCK rows: strip s:e holds rows s:e, columns s: of every Gram. Its
    entries right of the diagonal block stand for their mirror images too and
    are doubled on the A side, so the strips' inner products sum to
    <A_i^T A_i, B_j^T B_j>_F. The last strip is a square symmetric block: its
    product takes the block's packed upper triangle, w(w+1)/2 of its w^2
    entries, with the off-diagonal ones doubled on the A side. The backward
    works on the full strips.
    """
    n, _, dim = A.shape
    m = B.shape[0]
    kept = []
    for s in range(0, dim, GRAM_BLOCK):
        e = min(s + GRAM_BLOCK, dim)
        # Without grad, the square last strip of both sides shares one
        # allocation, for the reason _square_gram_kernel gives. With grad every
        # strip is kept for the backward, so one shared strip is never that
        # large a share.
        P = np.empty((n + m, e - s, dim - s)) if e == dim and not grad else None
        PA = np.matmul(A[:, :, s:e].transpose(0, 2, 1), A[:, :, s:],
                       out=None if P is None else P[:n])   # (n, e-s, dim-s)
        PB = np.matmul(B[:, :, s:e].transpose(0, 2, 1), B[:, :, s:],
                       out=None if P is None else P[n:])
        del P
        PA[:, :, e - s:] *= 2.0
        if grad:
            kept.append((s, e, PA, PB))
        if e == dim:
            # the last strip is a square symmetric block: multiply only its upper
            # triangle, off-diagonal entries doubled on the A side; rebinding
            # frees each full strip that kept does not hold
            upper, double, _ = _packed_triangle(e - s)
            PA = PA.reshape(n, -1).take(upper, axis=1)
            PA *= double
            PB = PB.reshape(m, -1).take(upper, axis=1)
        part = PA.reshape(n, -1) @ PB.reshape(m, -1).T
        if s == 0:
            sq = part
        else:
            sq += part
    norms = _clamped_sqrt(sq)

    def backward(W: np.ndarray, out=None):
        # d||M||^2/dA_i = 2 A_i sum_j W_ij B_j^T B_j; the 2 cancels d sqrt's 1/2
        dA, dB = (None, None) if out is None else out
        for s, e, PA, PB in kept:
            KA = (W @ PB.reshape(m, -1)).reshape(n, e - s, dim - s)
            KB = (W.T @ PA.reshape(n, -1)).reshape(m, e - s, dim - s)
            KB[:, :, e - s:] *= 0.5   # undo the doubling (exact)
            dA = _strip_backward(A, KA, s, e, dA)
            dB = _strip_backward(B, KB, s, e, dB)
        return dA, dB

    return norms, (backward if grad else None)


def _square_gram_kernel(A: np.ndarray, B: np.ndarray, grad: bool):
    """_gram_kernel for dim <= GRAM_BLOCK: the strip kernel's one square
    strip, the whole Gram, with the same sums on fewer and contiguous operands.

    Both passes work on the packed triangles PA and PB; the forward doubles
    PA's off-diagonal entries, the backward keeps PA as it is. The backward's
    K products W PB and W^T PA take the packed columns, half the full Grams'
    width, and a gather through the `full` map rebuilds each K_i before it is
    applied. The forward is the same function of the inputs with or without
    grad.
    """
    n, _, w = A.shape
    m = B.shape[0]
    upper, double, full = _packed_triangle(w)
    # Without grad both sides' Grams share one allocation, at desk shapes the
    # largest a forward call makes. Freeing it raises glibc's dynamic mmap
    # threshold to its size and the heap-trim threshold to twice that, so
    # repeated evaluations reuse heap pages instead of faulting in fresh ones
    # after each trim.
    P = None if grad else np.empty((n + m, w, w))
    PA = _grams(A, None if P is None else P[:n]).reshape(n, -1).take(upper, axis=1)
    PB = _grams(B, None if P is None else P[n:]).reshape(m, -1).take(upper, axis=1)
    del P
    if not grad:
        PA *= double
        return _clamped_sqrt(PA @ PB.T), None
    norms = _clamped_sqrt((PA * double) @ PB.T)

    def backward(W: np.ndarray, out=None):
        dA, dB = (None, None) if out is None else out
        KA = (W @ PB).take(full, axis=1).reshape(n, w, w)
        KB = (W.T @ PA).take(full, axis=1).reshape(m, w, w)
        return np.matmul(A, KA, out=dA), np.matmul(B, KB, out=dB)

    return norms, backward


def _clamped_sqrt(sq: np.ndarray) -> np.ndarray:
    """sqrt of squared norms in place; the cancelled sum of a (near-)orthogonal
    pair can round below zero, so it is clamped at zero first."""
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq, out=sq)


def _strip_backward(X: np.ndarray, K: np.ndarray, s: int, e: int, dX):
    """Add X_i K_i to dX for the rows s:e, columns s: strip K of symmetric K_i:
    the strip acts on columns s: and its mirror image on columns s:e. The first
    strip (s = 0) covers every column and starts dX (a new array if None)."""
    if s == 0:
        dX = np.matmul(X[:, :, s:e], K, out=dX)
    else:
        dX[:, :, s:] += np.matmul(X[:, :, s:e], K)
    if e < X.shape[2]:
        dX[:, :, s:e] += np.matmul(X[:, :, e:], K[:, :, e - s:].transpose(0, 2, 1))
    return dX


def _direct_kernel(A: np.ndarray, B: np.ndarray, grad: bool):
    """As _gram_kernel, from every M. With grad the intermediate is kept whole
    for the backward; without it, it is formed in chunks of image rows that
    fit DIRECT_BLOCK_BYTES and no backward is returned. The result is
    bit-identical for any chunking: each entry sums its own terms in a fixed
    order."""
    n, d1, dim = A.shape
    m, d2, _ = B.shape
    au = A.reshape(n * d1, dim)
    bu = B.reshape(m * d2, dim)
    block_rows = n if grad else max(1, int(DIRECT_BLOCK_BYTES / (8 * d1 * m * d2)))
    norms = np.empty((n, m), dtype=np.float64)
    for start in range(0, n, block_rows):
        stop = min(start + block_rows, n)
        g = au[start * d1:stop * d1] @ bu.T                   # (chunk*d1, m*d2)
        sq = (g * g).reshape(stop - start, d1, m, d2)
        norms[start:stop] = np.sqrt(sq.sum(axis=(1, 3)))

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

