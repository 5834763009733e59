"""Retrieval metrics over fused similarities and noisy-pair detection metrics."""
from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import Dataset, _chunk_rows, _row_chunks
from .errors import ConfigError, DataError, NumericError
from .selfpaced import BUCKET_NAMES, BUCKET_NOISY
from .trainer import project


@dataclass(frozen=True)
class RetrievalReport:
    """R@k percentages for both directions plus their mean."""

    i2t_r1: float
    i2t_r5: float
    i2t_r10: float
    t2i_r1: float
    t2i_r5: float
    t2i_r10: float
    mr: float

    def to_dict(self) -> dict:
        return asdict(self)

    def to_csv_row(self) -> str:
        return ",".join(f"{getattr(self, f.name):.4f}" for f in fields(self))


RetrievalReport.CSV_HEADER = ",".join(f.name for f in fields(RetrievalReport))


@dataclass(frozen=True)
class DetectionReport:
    """Noisy-bucket membership treated as a prediction of y=0."""

    precision: float
    recall: float
    f1: float
    purity: dict                    # bucket name -> fraction with the intended label
    no_ground_truth_noise: bool

    def to_dict(self) -> dict:
        return asdict(self)


def recall_at_k(S: np.ndarray, ground_truth_idx: np.ndarray, k: int) -> float:
    """Percentage of queries whose ground-truth item ranks in the top k.

    Rows of S are queries, columns the gallery. Ties rank by ascending column
    index, so results are deterministic.
    """
    S = np.asarray(S, dtype=np.float64)
    nq, ng = S.shape
    gt = np.asarray(ground_truth_idx)
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if k > ng:
        raise ConfigError(f"k={k} exceeds gallery size {ng}")
    if nq == 0:
        raise ConfigError("recall needs at least one query")
    if (gt.shape != (nq,) or not np.issubdtype(gt.dtype, np.integer)
            or gt.min() < 0 or gt.max() >= ng):
        raise ConfigError("ground_truth_idx must hold one valid gallery index per query")
    return _recall(_ranks(S, gt, axis=1), k)


def _ranks(S: np.ndarray, gt: np.ndarray, axis: int) -> np.ndarray:
    """1-based rank of each query's ground-truth item, as a stable descending
    sort gives it: 1 + #better + #equal with a lower gallery index.

    axis is the gallery axis of S: axis=1 ranks along rows (queries are rows),
    axis=0 along columns, so no transposed copy is made. One pass counts the
    better items; one finds the queries tied with another item, and only those
    count their ties."""
    q = np.arange(len(gt))
    ref = np.expand_dims(S[q, gt] if axis == 1 else S[gt, q], axis)
    ranks = 1 + np.count_nonzero(S > ref, axis=axis)
    equal = S == ref
    tied = np.flatnonzero(np.count_nonzero(equal, axis=axis) > 1)
    if tied.size:
        before = (np.expand_dims(np.arange(S.shape[axis]), 1 - axis)
                  < np.expand_dims(gt[tied], axis))
        ranks[tied] += np.count_nonzero(np.take(equal, tied, axis=1 - axis) & before, axis=axis)
    return ranks


def _recall(ranks: np.ndarray, k: int) -> float:
    return float((ranks <= k).mean() * 100.0)


def _report_from_ranks(i2t: np.ndarray, t2i: np.ndarray) -> RetrievalReport:
    vals = [_recall(ranks, k) for ranks in (i2t, t2i) for k in (1, 5, 10)]
    return RetrievalReport(*vals, mr=float(np.mean(vals)))


def check_test_set(test_dataset: Dataset, dim: int | None = None,
                   name: str = "test set") -> None:
    """Refuse a set evaluate would refuse: DataError if it holds noisy pairs
    (y=0), ConfigError if it has fewer than 10 pairs or, with dim given, rows
    of another dim than the heads'. Callers can check a set before training
    the heads that evaluate it."""
    if np.any(test_dataset.y == 0):
        raise DataError(f"evaluation requires a clean {name} (all y=1)")
    if test_dataset.n_pairs < 10:
        raise ConfigError(f"{name} must have at least 10 pairs for R@10, "
                          f"got {test_dataset.n_pairs}")
    if dim is not None and test_dataset.dim != dim:
        raise ConfigError(f"{name} has dim {test_dataset.dim}, the training set {dim}")


# delta: bounds the rounding of a computed Sl and of its bounds, of the fused
# sum and of the cutoff; evaluate derives it
_SL_SLACK = 1e-9


def evaluate(heads, test_dataset: Dataset, hyper) -> RetrievalReport:
    """Project the test set, rank by the fused similarity, report recalls.

    The test set must be clean (all y=1); ranking uses the fused score
    F = alpha*Sg + (1-alpha)*Sl with hyper.alpha. A checkpoint does not record
    the alpha its heads were trained with, so pass that value: another alpha
    ranks by another fusion and reports another mR without any error.
    The rows go through trainer.project, the projection the trainer uses;
    heads whose projection is not finite raise NumericError, since every
    comparison with NaN is false and would rank every item first. evaluate
    runs on the calling thread alone, the projection too: split over the
    worker pool, that one short stretch ran at one to two cores' speed from
    call to call whenever another process ran on the host (two workers
    on 2 vCPUs beside one busy process, 300 pairs at dim 256 and 36x16
    locals: median 47 ms, interquartile range 19 ms; on one thread 60 and
    1.2 ms), so evaluate's time tracked the host's load.

    Only the pairs that can change a rank get an Sl. With c = 1 - alpha,
    S_ij = alpha * (Uig_i . Utg_j), and F = S + c*Sl computed in floating
    point is >= S, because c*Sl >= 0 and rounding is monotone. S is one
    canonical product per pair (_sg_pairs: the 1-D dot Uig[i] @ Utg[j]),
    so equal rows give equal S whatever else is computed with them. Each
    ground truth's ref = F_ii is scored in full with it, and
    cut = ref - (c + delta + epsilon). The n x n S is never formed: per block
    of image rows, the block's S_gemm = alpha * Uig Utg^T goes into one
    reused buffer, and the pairs with S_gemm_ij >= cut_i or S_gemm_ij >=
    cut_j are kept: two comparisons, one |= and one flatnonzero over the
    block, and every later step runs on the kept pairs alone (2-5 % of all
    pairs at alpha 0.9 with trained heads). A kept pair's S is its
    S_gemm, except where S_gemm lies within epsilon of ref_i or ref_j, where
    it is taken from _sg_pairs.
    For query row i, a kept item with S_ij > ref_i ranks above the match
    whatever its Sl, one with S_ij < cut_i (or not kept) ranks below it, and
    every other off-diagonal pair is a candidate; the same test runs down
    the columns for the text-to-image ranks.

    Most candidates are decided from two bounds on Sl with no score. With
    a_i and b_j the row means of the local blocks A_i and B_j, E_i = A_i -
    1 a_i^T and F_j = B_j - 1 b_j^T, the split of A_i B_j^T into
    (a.b) 1 1^T, 1 (F_j a)^T, E_i b 1^T and E_i F_j^T is orthogonal, so
    Sl^2 = (a.b)^2 + |F_j a|^2/d2 + |E_i b|^2/d1 + |E_i F_j^T|^2/(d1 d2).
    Hence lo = |a.b| <= Sl, and Sl^2 <= hi^2 = (a.b)^2 + sF |a|^2/d2 +
    sE |b|^2/d1 + min(e sF/d2, f sE/d1), where sE >= sigma_max(E_i)^2 is
    the Gershgorin row-sum bound of E_i E_i^T capped by its trace, e =
    |E_i|_F^2/d1, and sF, f are the same for F_j (_item_bounds). The dots
    a.b come from one GEMM of the row means per block, written over that
    block's buffer once its kept pairs are read (_kept_pairs). A candidate
    ranks above its match if S + c*lo > ref + delta and below it if
    S + c*hi < ref - delta; the rest are scored, and ties count an item only
    when its index is lower, as _ranks does. Every decision keeps a margin
    of delta, so ties and near-ties are always scored.

    Every scored pair, ground truths and candidates alike, takes its S from
    _sg_pairs and its Sl from the same operations in the same order
    (_sum_squares, then _fuse): one (d2 x dim)(dim x d1) product per pair,
    batched over a stack of pairs, so a pair's score does not depend on
    which other pairs share the call, and equal rows score equally. Test
    sets that repeat an image once per caption, as RSITMD's does, tie
    exactly where a pairwise oracle ties, whatever tiles the BLAS uses for
    the GEMM. The candidates go in windows (_score_windows): each pair's A_i
    and B_j are gathered into buffers made once per call, and each window is
    one stacked product and one _sum_squares.

    delta = _SL_SLACK, epsilon = 2(dim + 3)u, u = 2^-53. Unit rows are
    unit to within (dim/2 + 2)u, so |x||y| <= 1 + (dim + 5)u for a pair.
    A dot of x and y computed in any order, with or without fused
    multiply-adds, is within gamma_dim * sum_k |x_k y_k| <= gamma_dim |x||y|
    of the exact x.y, gamma_dim = dim*u/(1 - dim*u); that is at most
    (dim + 1)u while dim < 1e7. The GEMM's dot and _sg_pairs' therefore
    differ by at most 2(dim + 1)u, and scaling each by alpha <= 1 and
    rounding adds at most u|S| <= 1.01u to each: |S_gemm - S| <= 2(dim + 3)u
    = epsilon. (epsilon is representable, so the computed |S_gemm - ref|
    <= epsilon holds exactly when the exact one does.) A kept pair's S is
    then its canonical value or within epsilon of it and more than epsilon
    from ref_i and ref_j, so S > ref decides as the canonical S does.

    Each computed local cosine is at most 1 + (2*dim + 5)u in magnitude; the
    sum of d1*d2 squares, the sqrt and the division by sqrt(d1*d2) bring the
    computed Sl to at most 1 + (2*dim + d1*d2 + 8)u, below 1 + delta/2 while
    2*dim + d1*d2 < 4e6, and to within (2*dim + d1*d2 + 8)u of the exact Sl
    of the computed rows. A pair not kept has S_gemm below cut, so its
    canonical S is below ref - c - delta. Rounding c*Sl, S + c*Sl and the
    cutoff's three operations adds at most 8u in absolute terms, so its F
    lies below ref by at least delta/2 - 8u > 0. The slack is absolute
    rather than a factor of c, so the test stays exact as alpha tends to 1,
    where c*delta falls below the rounding of the sum.

    The bounds hold exactly for the computed rows, unit or not, and their
    rounding stays inside delta/2. The computed means (a matmul with 1/d)
    are within (d + 2)u of the exact means of the rows, so the computed a.b,
    and lo, are within (dim + d1 + d2 + 6)u of the exact ones. Each of |a|^2,
    e and sigma/d is at most 1 up to rounding (the trace caps sigma), and
    each is computed from sums of d^2 products of entries at most 1, within
    (4*dim + 5*d + 28)u; so the computed hi^2 falls short of the exact one by
    at most 64(dim + d1 + d2 + 8)u. The delta added to hi^2 before the root
    covers that while dim + d1 + d2 < 1e5 (without it, the root of a rounded
    hi^2 near 0 would be off by sqrt of its error, far beyond delta), so the
    computed hi is at least the exact bound less 2u. With the error of the
    computed Sl above, lo <= Sl + delta/2 and Sl <= hi + delta/2 hold for the
    computed values, and rounding S + c*lo, S + c*hi and ref +- delta adds at
    most 9u: a pair decided above or below, whose S may be S_gemm, has a
    canonical F on that side of ref by at least delta/2 - 16u - epsilon, which
    is > 0 while dim < 2e6.

    Sl is the direct form sqrt(sum of squared cosines) / sqrt(d1*d2); the
    ranks are exact for it. The trainer's Gram form differs from it only by
    rounding. Besides the projected rows, evaluate holds O(n) arrays (ref,
    cut, the ranks, the item bounds and the text row means b, n * dim
    doubles) and, per block of S, two boolean masks, the block's image row
    means and 16 bytes per kept pair. One budget bounds every streamed loop:
    each takes its bounds from data._row_chunks, so the block of S (an image
    row's n doubles an item, in one buffer reused for the block's dots), a
    chunk of kept pairs (about 80 bytes a pair), the rows _sg_pairs gathers,
    the item Grams of _item_bounds and the window buffers ((d1 + d2) * dim +
    d1 * d2 doubles a pair) each hold at most data._CHUNK_BYTES, or one item.
    At alpha = 0 every off-diagonal pair is a candidate, and the bounds
    leave about 4 % of them to score: at desk shapes (n = 1000, dim 32, 8x8
    locals, trained heads, one BLAS thread) about 0.10 s, where scoring every
    candidate took 0.6 s.
    """
    check_test_set(test_dataset)
    n = test_dataset.n_pairs
    projected = project(heads, test_dataset, parallel=False)
    if not all(np.isfinite(r).all() for _, r in projected):
        raise NumericError("the heads project the test set to non-finite values")
    (Uig, _), (Uil, _), (Utg, _), (Utl, _) = projected
    A = Uil.reshape(n, test_dataset.d1, -1)
    B = Utl.reshape(n, test_dataset.d2, -1)
    scale = np.sqrt(A.shape[1] * B.shape[1])
    alpha, c = hyper.alpha, 1.0 - hyper.alpha
    eps = 2 * (Uig.shape[1] + 3) * 2.0 ** -53     # epsilon, derived in the docstring

    diag = np.arange(n)
    ref = _fuse(_sg_pairs(Uig, Utg, diag, diag, alpha),
                _sum_squares(np.matmul(B, A.transpose(0, 2, 1))), c, scale)
    cut = ref - (c + _SL_SLACK + eps)
    image, text = _item_bounds(A), _item_bounds(B)
    windows = None                    # the scoring windows' buffers, made on first use
    i2t = np.ones(n, dtype=np.intp)
    t2i = np.ones(n, dtype=np.intp)
    for I, J, s, dot in _kept_pairs(Uig, Utg, alpha, cut, A, _row_means(B)):
        ref_i, ref_j = ref[I], ref[J]
        # S_gemm within epsilon of a ref: the canonical S decides S > ref
        near = np.flatnonzero((np.abs(s - ref_i) <= eps) | (np.abs(s - ref_j) <= eps))
        if len(near):
            s[near] = _sg_pairs(Uig, Utg, I[near], J[near], alpha)
        lo, hi = _sl_bounds(image, text, I, J, dot)
        lo *= c
        lo += s
        hi *= c
        hi += s
        # a kept pair is a candidate of query i, of query j, or ranks above
        # the match from S alone
        up_i, up_j = s > ref_i, s > ref_j
        cand_i = (s >= cut[I]) & ~up_i
        cand_j = (s >= cut[J]) & ~up_j
        up_i |= cand_i & (lo > ref_i + _SL_SLACK)
        up_j |= cand_j & (lo > ref_j + _SL_SLACK)
        i2t += np.bincount(I[up_i], minlength=n)
        t2i += np.bincount(J[up_j], minlength=n)
        open_i = cand_i & ~up_i & (hi >= ref_i - _SL_SLACK)
        open_j = cand_j & ~up_j & (hi >= ref_j - _SL_SLACK)
        scored = np.flatnonzero(open_i | open_j)
        if not len(scored):
            continue
        I, J = I[scored], J[scored]
        if windows is None:
            windows = _window_buffers(A.shape[1], B.shape[1], A.shape[2])
        F = _score_windows(A, B, I, J, windows)
        _fuse(_sg_pairs(Uig, Utg, I, J, alpha), F, c, scale)
        i2t += np.bincount(I[open_i[scored] & _above(F, ref_i[scored], J < I)], minlength=n)
        t2i += np.bincount(J[open_j[scored] & _above(F, ref_j[scored], I < J)], minlength=n)
    return _report_from_ranks(i2t, t2i)


def _sg_pairs(X: np.ndarray, Y: np.ndarray, I: np.ndarray, J: np.ndarray,
              alpha: float) -> np.ndarray:
    """alpha * (X[I[k]] . Y[J[k]]) for each k, each dot with the bits of the
    1-D dot X[i] @ Y[j]: one (1 x dim)(dim x 1) product per pair, so a pair's
    value depends on its two rows alone. The rows are gathered a row chunk
    at a time."""
    out = np.empty((len(I), 1, 1))
    for k0, k1 in _row_chunks((len(I), 2, X.shape[1])):
        np.matmul(X[I[k0:k1], None, :], Y[J[k0:k1], :, None], out=out[k0:k1])
    out *= alpha
    return out.reshape(-1)


def _kept_pairs(Uig: np.ndarray, Utg: np.ndarray, alpha: float, cut: np.ndarray,
                A: np.ndarray, b: np.ndarray):
    """Per block of image rows, the off-diagonal pairs whose
    S_gemm_ij = alpha * Uig_i . Utg_j, taken from one GEMM per block, is
    >= cut_i or >= cut_j, as (I, J, S_gemm_IJ, a_I . b_J) in row chunks of
    kept pairs, a being the row means of the image local blocks A and b
    those of the text ones. The blocks are the row chunks of S, each formed
    in one buffer sized to the largest, which takes the block's dots once
    its pairs are found; the image means are made per block."""
    n = len(Uig)
    buf = np.empty(min(n, _chunk_rows(n)) * n)
    for r0, r1 in _row_chunks((n, n)):
        Sr = np.matmul(Uig[r0:r1], Utg.T, out=buf[:(r1 - r0) * n].reshape(r1 - r0, n))
        Sr *= alpha
        kept = Sr >= cut[r0:r1, None]
        kept |= Sr >= cut
        np.fill_diagonal(kept[:, r0:], False)
        flat = np.flatnonzero(kept)
        del kept                      # before the window buffers are made
        s = Sr.reshape(-1)[flat]
        dots = np.matmul(_row_means(A[r0:r1]), b.T, out=Sr).reshape(-1)
        # about 80 bytes (10 doubles) a kept pair are held while it is decided
        for k0, k1 in _row_chunks((len(flat), 10)):
            chunk = flat[k0:k1]
            I, J = np.divmod(chunk, n)
            I += r0
            yield I, J, s[k0:k1], dots[chunk]


def _row_means(X: np.ndarray) -> np.ndarray:
    """Each item's row mean, (n, dim), of a block X of local rows, (n, d, dim)."""
    return np.matmul(np.full(X.shape[1], 1.0 / X.shape[1]), X)


def _item_bounds(X: np.ndarray) -> tuple:
    """Per item of a block X of local rows, (n, d, dim), with E = X_i - 1 x^T
    for its row mean x: |x|^2, sigma/d and e = |E|_F^2/d, where
    sigma >= sigma_max(E)^2 is the largest absolute row sum of E E^T, capped
    by its trace |E|_F^2. E E^T is the double centring of the Gram X_i X_i^T,
    so no centred copy of X is made; items go in row chunks of Grams."""
    n, d, dim = X.shape
    w = np.full(d, 1.0 / d)
    sq, sig, e = np.empty(n), np.empty(n), np.empty(n)
    for k0, k1 in _row_chunks((n, d, d)):
        x = X[k0:k1]
        G = np.matmul(x, x.transpose(0, 2, 1))
        r = np.matmul(G, w)           # the Gram's row means
        g = np.matmul(r, w, out=sq[k0:k1])    # |x|^2, the mean of its entries
        G -= r[:, :, None]
        G -= r[:, None, :]
        G += g[:, None, None]
        np.einsum("ikk->i", G, out=e[k0:k1])
        np.abs(G, out=G)
        np.minimum(np.matmul(G, np.ones(d)).max(axis=1), e[k0:k1], out=sig[k0:k1])
    sig /= d
    e /= d
    return sq, sig, e


def _sl_bounds(image: tuple, text: tuple, I: np.ndarray, J: np.ndarray,
               dot: np.ndarray) -> tuple:
    """lo = |a.b| and hi (evaluate's bounds on Sl, with delta added to hi^2
    before the root) for the pairs (I[k], J[k]), whose row means' dots a.b
    are dot (overwritten)."""
    a_sq, a_sig, a_e = image
    b_sq, b_sig, b_e = text
    sig_a, sig_b = a_sig[I], b_sig[J]
    hi = np.minimum(a_e[I] * sig_b, b_e[J] * sig_a)
    hi += sig_b * a_sq[I]
    hi += sig_a * b_sq[J]
    hi += _SL_SLACK
    lo = np.abs(dot)
    dot *= dot
    hi += dot
    return lo, np.sqrt(hi, out=hi)


def _window_buffers(d1: int, d2: int, dim: int) -> tuple:
    """The gathered image blocks, text blocks and products of one window of
    pairs, (d1 + d2) * dim + d1 * d2 doubles a pair, sized to the largest row
    chunk of pairs."""
    w = _chunk_rows(d1 * dim + d2 * dim + d2 * d1)
    return np.empty((w, d1, dim)), np.empty((w, d2, dim)), np.empty((w, d2, d1))


def _score_windows(A: np.ndarray, B: np.ndarray, I: np.ndarray, J: np.ndarray,
                   buffers: tuple) -> np.ndarray:
    """F[k] = the sum of squared local cosines of pair (I[k], J[k]), a window
    of pairs (a row chunk of them) at a time: each pair's A_i and B_j are
    gathered into the window's buffers and the window is one stacked
    product. Every pair gets its own (d2 x dim)(dim x d1) product, so F[k]
    does not depend on the other pairs or on the window size."""
    Ab, Bb, Mb = buffers
    F = np.empty(len(I))
    for lo, hi in _row_chunks((len(I), Ab[0].size + Bb[0].size + Mb[0].size)):
        a, b, M = Ab[:hi - lo], Bb[:hi - lo], Mb[:hi - lo]
        # out= with the default mode="raise" would copy through a temporary
        np.take(A, I[lo:hi], axis=0, out=a, mode="clip")
        np.take(B, J[lo:hi], axis=0, out=b, mode="clip")
        _sum_squares(np.matmul(b, a.transpose(0, 2, 1), out=M), out=F[lo:hi])
    return F


def _sum_squares(M: np.ndarray, out=None) -> np.ndarray:
    """Each pair's sum of squared local cosines, from its (k, d2, d1) block M,
    squared in place and reduced contiguously."""
    M *= M
    return np.add.reduce(M.reshape(len(M), -1), axis=1, out=out)


def _fuse(s: np.ndarray, sum_sq: np.ndarray, c: float, scale: float) -> np.ndarray:
    """s + c*Sl from each pair's sum of squared local cosines, in place."""
    np.sqrt(sum_sq, out=sum_sq)
    sum_sq /= scale
    sum_sq *= c
    sum_sq += s
    return sum_sq


def _above(F: np.ndarray, ref: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Scored candidates that rank above the query's match: a higher score,
    or an equal one at a lower index."""
    return (F > ref) | ((F == ref) & lower)


def detection_metrics(codes: np.ndarray, y: np.ndarray) -> DetectionReport:
    """Precision/recall/F1 of the noisy bucket against ground-truth y=0.

    `codes` is the final per-pair bucket assignment, one selfpaced bucket
    code a pair (Partition.bucket_codes gives them). Empty predictions get
    precision 1; with no ground-truth noise the report is flagged and 0/0
    ratios become 1.
    """
    y, codes = np.asarray(y), np.asarray(codes)
    if codes.shape != y.shape:
        raise ValueError(f"bucket/label length mismatch: {codes.shape} vs {y.shape}")

    predicted = codes == BUCKET_NOISY
    actual = y == 0
    tp = int(np.sum(predicted & actual))
    fp = int(np.sum(predicted & ~actual))
    fn = int(np.sum(~predicted & actual))
    precision = tp / (tp + fp) if (tp + fp) > 0 else 1.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 1.0
    f1 = (2 * precision * recall / (precision + recall)) if (precision + recall) > 0 else 0.0

    purity = {}
    for code, name in enumerate(BUCKET_NAMES):
        members = codes == code
        if members.any():
            target = actual if code == BUCKET_NOISY else ~actual
            purity[name] = float((members & target).sum() / members.sum())
        else:
            purity[name] = 1.0
    return DetectionReport(precision=precision, recall=recall, f1=f1, purity=purity,
                           no_ground_truth_noise=not actual.any())
