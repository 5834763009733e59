import numpy as np
import pytest

from rrsitr.data import NoiseSpec, generate_synthetic, inject_noise
from rrsitr.errors import ConfigError, DataError
from rrsitr.evaluation import (DetectionReport, RetrievalReport, _report_from_similarity,
                               detection_metrics, evaluate, recall_at_k)
from rrsitr.selfpaced import partition
from rrsitr.trainer import Hyper, init_heads


def _sort_oracle(S, gt, k):
    """Full stable sort by descending similarity, ties by ascending index."""
    hits = 0
    for q in range(S.shape[0]):
        order = sorted(range(S.shape[1]), key=lambda j: (-S[q, j], j))
        if gt[q] in order[:k]:
            hits += 1
    return hits / S.shape[0] * 100.0


def test_recall_diagonal_dominant():
    S = np.eye(4) + 0.01
    assert recall_at_k(S, np.arange(4), 1) == 100.0


def test_recall_k_equals_gallery():
    rng = np.random.default_rng(0)
    S = rng.normal(size=(6, 6))
    assert recall_at_k(S, np.arange(6), 6) == 100.0


def test_recall_hand_example():
    S = np.array([[0.9, 0.8, 0.1],
                  [0.2, 0.3, 0.9],
                  [0.5, 0.4, 0.6]])
    got = recall_at_k(S, np.arange(3), 1)
    assert got == pytest.approx(200.0 / 3.0, abs=1e-10)  # queries 0 and 2 hit


def test_recall_matches_sort_oracle():
    rng = np.random.default_rng(1)
    for _ in range(50):
        nq = int(rng.integers(1, 15))
        ng = int(rng.integers(2, 15))
        S = np.round(rng.normal(size=(nq, ng)), 1)  # rounding forces ties
        gt = rng.integers(0, ng, size=nq)
        k = int(rng.integers(1, ng + 1))
        assert recall_at_k(S, gt, k) == _sort_oracle(S, gt, k)


def test_report_matches_recall_calls_and_sort_oracle():
    # one rank pass per direction gives what six recall_at_k calls and a full sort give
    rng = np.random.default_rng(6)
    for n, step in [(12, 0.5), (25, 0.1), (40, 0.1), (40, 0.5)]:
        S = np.round(rng.normal(size=(n, n)) / step) * step  # ties in rows and columns
        d = np.diag(S)
        assert ((S == d[:, None]).sum(axis=1) > 1).any()   # a query row tied with its item
        assert ((S == d[None, :]).sum(axis=0) > 1).any()   # and a query column
        gt = np.arange(n)
        report = _report_from_similarity(S)
        got = [report.i2t_r1, report.i2t_r5, report.i2t_r10,
               report.t2i_r1, report.t2i_r5, report.t2i_r10]
        calls = [recall_at_k(Q, gt, k) for Q in (S, S.T) for k in (1, 5, 10)]
        oracle = [_sort_oracle(Q, gt, k) for Q in (S, S.T) for k in (1, 5, 10)]
        assert got == calls == oracle
        assert report.mr == float(np.mean(oracle))


def test_recall_monotone_in_k():
    rng = np.random.default_rng(2)
    S = rng.normal(size=(10, 12))
    gt = rng.integers(0, 12, size=10)
    vals = [recall_at_k(S, gt, k) for k in range(1, 13)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_recall_errors():
    S = np.zeros((2, 3))
    with pytest.raises(ConfigError):
        recall_at_k(S, np.zeros(2, dtype=int), 4)
    with pytest.raises(ConfigError):
        recall_at_k(S, np.zeros(2, dtype=int), 0)
    with pytest.raises(ConfigError):
        recall_at_k(S, np.array([0, 5]), 1)
    with pytest.raises(ConfigError):  # no queries
        recall_at_k(np.zeros((0, 3)), np.zeros(0, dtype=int), 1)
    with pytest.raises(ConfigError):  # indices must be integers
        recall_at_k(np.zeros((3, 3)), np.array([0.0, 1.5, 2.0]), 1)


def test_evaluate_perfect_separation():
    # orthogonal pairs: the diagonal wins every ranking
    from rrsitr.data import Dataset
    n, dim = 16, 16
    eye = np.eye(dim)
    ds = Dataset(
        image_global=eye.copy(),
        image_local=eye[:, None, :].repeat(2, axis=1).copy(),
        text_global=eye.copy(),
        text_local=eye[:, None, :].repeat(2, axis=1).copy(),
        y=np.ones(n, dtype=np.uint8),
    )
    heads = init_heads(dim, seed=1, noise_std=0.0)  # exact identity heads
    report = evaluate(heads, ds, Hyper())
    assert report.mr == pytest.approx(100.0, abs=1e-9)
    assert report.i2t_r1 == 100.0


def test_evaluate_rejects_noisy_test_set():
    ds = generate_synthetic(20, 4, 8, 2, 2, intra_class_spread=0.3, seed=0)
    noised = inject_noise(ds, NoiseSpec(rho=0.5, seed=1))
    with pytest.raises(DataError):
        evaluate(init_heads(8), noised, Hyper())


def test_evaluate_mr_is_mean_of_six():
    ds = generate_synthetic(50, 5, 8, 2, 2, intra_class_spread=1.5, seed=3)
    report = evaluate(init_heads(8, seed=2), ds, Hyper())
    six = [report.i2t_r1, report.i2t_r5, report.i2t_r10,
           report.t2i_r1, report.t2i_r5, report.t2i_r10]
    assert report.mr == pytest.approx(np.mean(six), abs=1e-12)
    assert report.i2t_r1 <= report.i2t_r5 <= report.i2t_r10


def test_evaluate_random_baseline():
    # random heads on structureless data: E[R@1] ~ 100/ng
    rng = np.random.default_rng(4)
    hits = []
    for trial in range(120):
        S = rng.normal(size=(20, 20))
        hits.append(recall_at_k(S, np.arange(20), 1))
    mean_r1 = float(np.mean(hits))
    assert abs(mean_r1 - 100.0 / 20) < 2.0


def test_evaluate_alpha_changes_report():
    ds = generate_synthetic(40, 4, 8, 3, 3, intra_class_spread=2.0, seed=5)
    heads = init_heads(8, seed=6, noise_std=0.3)
    r_global = evaluate(heads, ds, Hyper(alpha=1.0))
    r_local = evaluate(heads, ds, Hyper(alpha=0.0))
    assert r_global.to_dict() != r_local.to_dict()


def test_detection_perfect():
    y = np.array([1, 1, 0, 0, 1])
    buckets = np.array([0, 1, 2, 2, 0])
    rep = detection_metrics(buckets, y)
    assert rep.precision == 1.0 and rep.recall == 1.0 and rep.f1 == 1.0
    assert rep.purity == {"clean": 1.0, "ambiguous": 1.0, "noisy": 1.0}
    assert not rep.no_ground_truth_noise


def test_detection_empty_prediction_convention():
    y = np.array([1, 0, 0])
    buckets = np.array([0, 0, 1])  # nothing predicted noisy
    rep = detection_metrics(buckets, y)
    assert rep.precision == 1.0
    assert rep.recall == 0.0
    assert rep.f1 == 0.0


def test_detection_no_ground_truth_noise():
    y = np.ones(4, dtype=int)
    rep = detection_metrics(np.array([0, 0, 1, 2]), y)
    assert rep.no_ground_truth_noise
    assert rep.recall == 1.0  # vacuous


def test_detection_accepts_partition():
    l = np.array([1.0, 10.0, 25.0])
    part = partition(l, 5.0, 18.0)
    y = np.array([1, 1, 0])
    rep = detection_metrics(part, y)
    assert rep.precision == 1.0 and rep.recall == 1.0


def test_detection_length_mismatch():
    with pytest.raises(ValueError):
        detection_metrics(np.array([0, 1]), np.array([1, 1, 0]))


def test_report_serialization():
    rep = RetrievalReport(1, 2, 3, 4, 5, 6, mr=3.5)
    assert rep.to_dict()["mr"] == 3.5
    row = rep.to_csv_row()
    assert row.split(",")[0] == "1.0000"
    assert RetrievalReport.CSV_HEADER.count(",") == row.count(",")
    det = DetectionReport(1.0, 0.5, 0.66, {"clean": 1.0}, False)
    assert det.to_dict()["recall"] == 0.5