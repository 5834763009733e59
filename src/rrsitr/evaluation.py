"""Retrieval metrics over fused similarities and noisy-pair detection metrics."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .data import Dataset
from .errors import ConfigError, DataError
from .selfpaced import BUCKET_NOISY, Partition
from .similarity import local_similarity_units
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
    vals = [_recall(ranks, k) for ranks in (_ranks(Sf, gt, axis=1), _ranks(Sf, gt, axis=0))
            for k in (1, 5, 10)]
    return RetrievalReport(*vals, mr=float(np.mean(vals)))


def evaluate(heads, test_dataset: Dataset, hyper) -> RetrievalReport:
    """Project the test set, fuse global and local similarity, report recalls.

    The test set must be clean (all y=1); ranking uses alpha-fused similarity
    with hyper.alpha. A checkpoint does not record the alpha its heads were
    trained with, so pass that value: another alpha ranks by another fusion
    and reports another mR without any error.
    The rows go through trainer.project, the projection the trainer uses, and
    are scored as the trainer scores them: Sg = Uig Utg^T and Sl from
    local_similarity_units, forward only.
    """
    if np.any(test_dataset.y == 0):
        raise DataError("evaluation requires a clean test set (all y=1)")
    n = test_dataset.n_pairs
    if n < 10:
        raise ConfigError(f"test set must have at least 10 pairs for R@10, got {n}")
    Uig, Uil, Utg, Utl = (U for U, _ in project(heads, test_dataset))
    # Sl first, so Sf does not coexist with the local kernel's intermediates
    Sl, _ = local_similarity_units(Uil.reshape(n, test_dataset.d1, -1),
                                   Utl.reshape(n, test_dataset.d2, -1), grad=False)
    Sf = Uig @ Utg.T
    # alpha*Sg + (1-alpha)*Sl in place, the same bits as fused_similarity
    Sf *= hyper.alpha
    Sl *= 1.0 - hyper.alpha
    Sf += Sl
    return _report_from_similarity(Sf)


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
