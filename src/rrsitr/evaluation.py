"""Retrieval metrics over fused similarities and noisy-pair detection metrics."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .data import Dataset
from .errors import ConfigError, DataError, NumericError
from .selfpaced import BUCKET_NOISY, Partition
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

    CSV_HEADER = "i2t_r1,i2t_r5,i2t_r10,t2i_r1,t2i_r5,t2i_r10,mr"

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in
                ("i2t_r1", "i2t_r5", "i2t_r10", "t2i_r1", "t2i_r5", "t2i_r10", "mr")}

    def to_csv_row(self) -> str:
        return ",".join(f"{getattr(self, k):.4f}" for k in
                        ("i2t_r1", "i2t_r5", "i2t_r10", "t2i_r1", "t2i_r5", "t2i_r10", "mr"))


@dataclass(frozen=True)
class DetectionReport:
    """Noisy-bucket membership treated as a prediction of y=0."""

    precision: float
    recall: float
    f1: float
    purity: dict                    # bucket name -> fraction with the intended label
    no_ground_truth_noise: bool

    def to_dict(self) -> dict:
        return {"precision": self.precision, "recall": self.recall, "f1": self.f1,
                "purity": self.purity, "no_ground_truth_noise": self.no_ground_truth_noise}


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


def _report_from_similarity(Sf: np.ndarray) -> RetrievalReport:
    """Image-to-text recalls rank each row of Sf, text-to-image each column."""
    gt = np.arange(Sf.shape[0])
    return _report_from_ranks(_ranks(Sf, gt, axis=1), _ranks(Sf, gt, axis=0))


def _report_from_ranks(i2t: np.ndarray, t2i: np.ndarray) -> RetrievalReport:
    vals = [_recall(ranks, k) for ranks in (i2t, t2i) for k in (1, 5, 10)]
    return RetrievalReport(*vals, mr=float(np.mean(vals)))


# bounds both the excess of a computed Sl over 1 and the rounding of the fused
# sum and of the cutoff; evaluate derives it
_SL_SLACK = 1e-9
# candidate pairs scored and tallied at once, at most: bounds the candidate
# arrays (about 40 bytes a pair) when most pairs are candidates, at small alpha
_BLOCK_PAIRS = 1 << 18


def evaluate(heads, test_dataset: Dataset, hyper) -> RetrievalReport:
    """Project the test set, rank by the fused similarity, report recalls.

    The test set must be clean (all y=1); ranking uses the fused score
    F = alpha*Sg + (1-alpha)*Sl with hyper.alpha. A checkpoint does not record
    the alpha its heads were trained with, so pass that value: another alpha
    ranks by another fusion and reports another mR without any error.
    The rows go through trainer.project, the projection the trainer uses;
    heads whose projection is not finite raise NumericError, since every
    comparison with NaN is false and would rank every item first.

    Only the pairs that can change a rank get an Sl. With c = 1 - alpha,
    S = alpha * Uig Utg^T is formed once; F = S + c*Sl computed in floating
    point is >= S, because c*Sl >= 0 and rounding is monotone. Each ground
    truth's ref = F_ii is scored in full. For query row i, an item with
    S_ij > ref_i ranks above the match whatever its Sl, and one with
    S_ij < ref_i - (c + delta) ranks below it; every other off-diagonal pair
    is a candidate, and the same test runs down the columns for the
    text-to-image ranks. The union of candidates is scored once, and ties
    count an item only when its index is lower, as _ranks does.

    Every pair, ground truths and candidates alike, is scored by the same
    operations in the same order (_sum_squares, then _fuse): one
    (d2 x dim)(dim x d1) product per pair, batched over a stack of pairs, so
    a pair's score does not depend on which other pairs share the call, and
    equal rows score equally. Test sets that repeat an image once per caption,
    as RSITMD's does, tie exactly where a pairwise oracle ties.

    delta = _SL_SLACK. Unit rows are unit to within (dim/2 + 2)u, u = 2^-53,
    so each computed local cosine is at most 1 + (2*dim + 5)u in magnitude; the
    sum of d1*d2 squares, the sqrt and the division by sqrt(d1*d2) bring the
    computed Sl to at most 1 + (2*dim + d1*d2 + 8)u, below 1 + delta/2 while
    2*dim + d1*d2 < 4e6. Rounding c*Sl, S + c*Sl and the cutoff's two
    operations adds at most 7u in absolute terms, so S_ij below the cutoff
    leaves F_ij below ref_i by at least delta/2 - 7u > 0. The slack is
    absolute rather than a factor of c, so the test stays exact as alpha
    tends to 1, where c*delta falls below the rounding of the sum.

    Sl is the direct form sqrt(sum of squared cosines) / sqrt(d1*d2); the
    ranks are exact for it. The trainer's Gram form differs from it only by
    rounding. Besides S, evaluate holds boolean masks over S and, per block
    of image rows, the arrays of at most _BLOCK_PAIRS candidates; the gather
    of one row's candidate texts copies at most all of the text local rows.
    At alpha = 0 every off-diagonal pair is a candidate, and the cost is the
    direct form's over all n^2 pairs, one small product each: at desk shapes
    (n = 1000, dim 32, 8x8 locals, one BLAS thread) about 0.6 s, where the
    Gram form takes 0.05 s.
    """
    if np.any(test_dataset.y == 0):
        raise DataError("evaluation requires a clean test set (all y=1)")
    n = test_dataset.n_pairs
    if n < 10:
        raise ConfigError(f"test set must have at least 10 pairs for R@10, got {n}")
    projected = project(heads, test_dataset)
    if not all(np.isfinite(r).all() for _, r in projected):
        raise NumericError("the heads project the test set to non-finite values")
    (Uig, _), (Uil, _), (Utg, _), (Utl, _) = projected
    A = Uil.reshape(n, test_dataset.d1, -1)
    B = Utl.reshape(n, test_dataset.d2, -1)
    scale = np.sqrt(A.shape[1] * B.shape[1])
    c = 1.0 - hyper.alpha

    S = Uig @ Utg.T
    S *= hyper.alpha
    ref = _fuse(S.diagonal(), _sum_squares(np.matmul(B, A.transpose(0, 2, 1))), c, scale)
    cut = ref - (c + _SL_SLACK)
    i2t = 1 + np.count_nonzero(S > ref[:, None], axis=1)
    t2i = 1 + np.count_nonzero(S > ref, axis=0)
    step = max(1, _BLOCK_PAIRS // n)
    for r0 in range(0, n, step):
        rows = slice(r0, r0 + step)
        Sr = S[rows]
        cand = (Sr >= cut[rows, None]) & (Sr <= ref[rows, None])
        cand |= (Sr >= cut) & (Sr <= ref)
        np.fill_diagonal(cand[:, r0:], False)
        flat = np.flatnonzero(cand)
        I, J = np.divmod(flat, n)
        # I is sorted: each image row's candidates are one run, scored against A_i
        F = np.empty(len(flat))
        lo = 0
        for i, hi in enumerate(np.cumsum(np.bincount(I, minlength=len(Sr))).tolist(), r0):
            if hi > lo:
                _sum_squares(np.matmul(B.take(J[lo:hi], axis=0), A[i].T), out=F[lo:hi])
            lo = hi
        I += r0
        s = Sr.reshape(-1)[flat]
        _fuse(s, F, c, scale)
        i2t += np.bincount(I[_above(s, F, ref[I], J < I)], minlength=n)
        t2i += np.bincount(J[_above(s, F, ref[J], I < J)], minlength=n)
    return _report_from_ranks(i2t, t2i)


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


def _above(s: np.ndarray, F: np.ndarray, ref: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Candidates that rank above the query's match and were not counted from
    S alone (s > ref): a higher score, or an equal one at a lower index."""
    return (s <= ref) & ((F > ref) | ((F == ref) & lower))


def detection_metrics(buckets: Union[np.ndarray, Partition], y: np.ndarray) -> DetectionReport:
    """Precision/recall/F1 of the noisy bucket against ground-truth y=0.

    `buckets` is the final per-pair bucket assignment (codes 0/1/2) or a
    Partition over the same index range. Empty predictions get precision 1;
    with no ground-truth noise the report is flagged and 0/0 ratios become 1.
    """
    y = np.asarray(y)
    if isinstance(buckets, Partition):
        codes = buckets.bucket_codes(len(y))
    else:
        codes = np.asarray(buckets)
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
    for code, name, want_noisy in ((0, "clean", False), (1, "ambiguous", False), (2, "noisy", True)):
        members = codes == code
        if members.any():
            target = actual if want_noisy else ~actual
            purity[name] = float((members & target).sum() / members.sum())
        else:
            purity[name] = 1.0
    return DetectionReport(precision=precision, recall=recall, f1=f1, purity=purity,
                           no_ground_truth_noise=not actual.any())
