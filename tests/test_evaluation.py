import numpy as np
import pytest

from rrsitr.data import Dataset, NoiseSpec, generate_synthetic, inject_noise
from rrsitr import evaluation
from rrsitr.errors import ConfigError, DataError, NumericError
from rrsitr.evaluation import (DetectionReport, RetrievalReport, _ranks,
                               _report_from_similarity, detection_metrics, evaluate,
                               recall_at_k)
from rrsitr.selfpaced import partition
from rrsitr.trainer import Hyper, init_heads, project


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


def test_evaluate_projects_chunks_as_one_block(monkeypatch):
    # project takes a float32 test set through row chunks; each chunk's rows
    # and norms come out as the trainer's whole float64 blocks give them,
    # whatever the budget
    from rrsitr import data
    from rrsitr.data import PairBatch
    from rrsitr.trainer import forward, project
    blocks = ("image_global", "image_local", "text_global", "text_local")
    ds = generate_synthetic(53, 4, 16, 3, 5, intra_class_spread=0.5, seed=8)
    wide = Dataset(*(getattr(ds, k).astype(np.float64) for k in blocks), y=ds.y)
    heads = init_heads(16, seed=2, noise_std=0.3)
    whole = forward(heads, PairBatch(np.arange(53), *(getattr(wide, k) for k in blocks), y=ds.y))
    want = [getattr(whole, k).reshape(-1, 16) for k in blocks]
    want_norms = [r for _, r in project(heads, wide)]
    reports = set()
    for budget in (40 * 16 * 8, 100 * 16 * 8, 4 << 20):  # chunks of >= 40 rows, or whole
        monkeypatch.setattr(data, "_CHUNK_BYTES", budget)
        for (got, r), ref, ref_r in zip(project(heads, ds), want, want_norms):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
            assert r.shape == ref_r.shape and r.tobytes() == ref_r.tobytes()
        reports.add(tuple(evaluate(heads, ds, Hyper()).to_dict().values()))
    assert len(reports) == 1


def test_evaluate_alpha_changes_report():
    ds = generate_synthetic(40, 4, 8, 3, 3, intra_class_spread=2.0, seed=5)
    heads = init_heads(8, seed=6, noise_std=0.3)
    r_global = evaluate(heads, ds, Hyper(alpha=1.0))
    r_local = evaluate(heads, ds, Hyper(alpha=0.0))
    assert r_global.to_dict() != r_local.to_dict()


def _pairwise_fused(heads, ds, alpha):
    """Oracle: alpha*Sg + (1-alpha)*Sl built pair by pair from the projected
    unit rows, with Sl in the direct form."""
    (Uig, _), (Uil, _), (Utg, _), (Utl, _) = project(heads, ds)
    n = ds.n_pairs
    A, B = Uil.reshape(n, ds.d1, -1), Utl.reshape(n, ds.d2, -1)
    F = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            M = A[i] @ B[j].T
            Sl = np.sqrt((M * M).sum()) / np.sqrt(ds.d1 * ds.d2)
            F[i, j] = alpha * (Uig[i] @ Utg[j]) + (1.0 - alpha) * Sl
    return F


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.9, 1.0])
@pytest.mark.parametrize("n,dim,d1,d2", [(10, 8, 3, 5), (37, 32, 4, 2), (60, 40, 2, 6),
                                         (23, 48, 5, 3)])
def test_evaluate_matches_pairwise_oracle(alpha, n, dim, d1, d2):
    ds = generate_synthetic(n, 4, dim, d1, d2, intra_class_spread=0.8, seed=n + dim)
    heads = init_heads(dim, seed=d1, noise_std=0.3)
    want = _report_from_similarity(_pairwise_fused(heads, ds, alpha))
    assert evaluate(heads, ds, Hyper(alpha=alpha)) == want


def _signed_basis(rng, shape, dim):
    rows = np.zeros(shape + (dim,))
    np.put_along_axis(rows, rng.integers(0, dim, size=shape + (1,)),
                      rng.choice([-1.0, 1.0], size=shape + (1,)), axis=-1)
    return rows


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.9])
@pytest.mark.parametrize("block_pairs", [None, 70])
@pytest.mark.parametrize("n,dim,d1,d2,seed", [(40, 32, 8, 8, 0), (30, 16, 1, 1, 4)])
def test_evaluate_duplicate_rows_tie_as_the_oracle_does(alpha, block_pairs, n, dim, d1, d2,
                                                         seed, monkeypatch):
    # each image once per caption, as in RSITMD, and a few repeated captions,
    # with generic values: equal rows must score exactly equal wherever the
    # pair is scored, so that the index rule orders them as in the oracle.
    # (One GEMM over a row's gathered candidate texts rounds some pairs
    # otherwise than the per-pair products do, and fails these cases.)
    if block_pairs is not None:        # several row blocks, the last one short
        monkeypatch.setattr(evaluation, "_BLOCK_PAIRS", block_pairs)
    ds, heads, F = _repeated_images(alpha, n, dim, d1, d2, seed)
    assert evaluate(heads, ds, Hyper(alpha=alpha)) == _report_from_similarity(F)


def _repeated_images(alpha, n, dim, d1, d2, seed):
    """A test set with each image once per caption and three repeated
    captions, heads, and its pairwise fused scores, which tie with the match
    in a query row and in a query column."""
    images = generate_synthetic(n // 5, 4, dim, d1, d2, intra_class_spread=0.8, seed=seed)
    texts = generate_synthetic(n, 4, dim, d1, d2, intra_class_spread=0.8, seed=seed + 1)
    rep = np.repeat(np.arange(n // 5), 5)
    tg, tl = texts.text_global.copy(), texts.text_local.copy()
    tg[[9, 20, 27]], tl[[9, 20, 27]] = tg[[3, 13, 26]], tl[[3, 13, 26]]
    ds = Dataset(images.image_global[rep], images.image_local[rep], tg, tl,
                 y=np.ones(n, dtype=np.uint8))
    heads = init_heads(dim, seed=seed + 2, noise_std=0.3)
    F = _pairwise_fused(heads, ds, alpha)
    d = np.diag(F)
    assert ((F == d[:, None]).sum(axis=1) > 1).any()       # a query row tied with its match
    assert ((F == d[None, :]).sum(axis=0) > 1).any()       # and a query column
    return ds, heads, F


def test_evaluate_exact_ties_in_both_directions():
    # rows of signed standard-basis vectors and identity heads: every cosine is
    # -1, 0 or 1 exactly, so scores tie exactly and only the index rule orders them
    rng = np.random.default_rng(11)
    n, dim, d1, d2 = 40, 3, 2, 3
    ds = Dataset(_signed_basis(rng, (n,), dim), _signed_basis(rng, (n, d1), dim),
                 _signed_basis(rng, (n,), dim), _signed_basis(rng, (n, d2), dim),
                 y=np.ones(n, dtype=np.uint8))
    heads = init_heads(dim, noise_std=0.0)
    for alpha in (0.0, 0.3, 0.9, 1.0):
        F = _pairwise_fused(heads, ds, alpha)
        d = np.diag(F)
        assert ((F == d[:, None]).sum(axis=1) > 1).any()   # a query row tied with its match
        assert ((F == d[None, :]).sum(axis=0) > 1).any()   # and a query column
        assert evaluate(heads, ds, Hyper(alpha=alpha)) == _report_from_similarity(F)


def test_evaluate_pairs_planted_at_the_bounds():
    # alpha 1/2, d1 = d2 = 1, dim 2, identity heads: every row below projects
    # to itself, Sg is the first coordinate of the text row when the image row
    # is (1, 0), and Sl is |cosine| of the two local rows.
    # Query 6 scores ref = 0.5*1 + 0.5*0 = 0.5; the cutoff is ref - (0.5 + delta).
    n, q = 12, 6
    cut = 0.5 - (0.5 + evaluation._SL_SLACK)
    e0, e1, low = np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([-1.0, 0.0])
    ig, il, tg, tl = ([low] * n, [e1] * n, [low] * n, [e1] * n)
    ig[q], il[q], tg[q], tl[q] = e0, e1, e0, e0
    for at, (g, l) in {2: (e0, e0),      # S == ref, Sl 0: a tie at a lower index ranks above
                       9: (e0, e0),      # the same tie at a higher index does not
                       4: (e0, e1),      # S == ref, Sl 1: above
                       7: ((2 * cut, 1.0), e1),                      # S == cut
                       8: ((2 * np.nextafter(cut, 1), 1.0), e1),     # one ulp inside
                       10: ((2 * np.nextafter(cut, -1), 1.0), e1),   # one ulp outside
                       # one ulp below ref - (1 - alpha): S + 0.5 rounds up to
                       # ref, a tie at a lower index, which a cutoff without
                       # delta's slack would prune as ranking below
                       3: ((2 * np.nextafter(0.0, -1), 1.0), e1),
                       }.items():
        tg[at], tl[at] = np.asarray(g), l            # texts in query 6's row
        ig[at], il[at] = np.asarray(g), l[::-1]      # and images in its column
    ds = Dataset(np.array(ig), np.array(il)[:, None], np.array(tg), np.array(tl)[:, None],
                 y=np.ones(n, dtype=np.uint8))
    heads = init_heads(2, noise_std=0.0)
    F = _pairwise_fused(heads, ds, 0.5)
    assert F[q, q] == 0.5 and F[q, 7] == cut + 0.5 < 0.5 and F[7, q] == cut + 0.5
    assert F[q, 3] == F[3, q] == 0.5
    gt = np.arange(n)
    assert _ranks(F, gt, axis=1)[q] == 4 and _ranks(F, gt, axis=0)[q] == 4
    assert evaluate(heads, ds, Hyper(alpha=0.5)) == _report_from_similarity(F)


def test_evaluate_never_calls_the_dense_local_kernel(monkeypatch):
    from rrsitr import similarity

    def refuse(*args, **kwargs):
        raise AssertionError("evaluate called a dense Sl kernel")
    for name in ("local_similarity_units", "_gram_kernel", "_direct_kernel"):
        monkeypatch.setattr(similarity, name, refuse)
    ds = generate_synthetic(50, 4, 16, 3, 4, intra_class_spread=0.8, seed=9)
    heads = init_heads(16, seed=4, noise_std=0.3)
    for alpha in (0.0, 0.9):
        want = _report_from_similarity(_pairwise_fused(heads, ds, alpha))
        assert evaluate(heads, ds, Hyper(alpha=alpha)) == want


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("block", ["W_img", "b_img", "W_txt", "b_txt"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_evaluate_rejects_non_finite_heads(block, value):
    # comparisons with NaN are false, so such heads used to rank every item first
    ds = generate_synthetic(20, 4, 8, 2, 2, intra_class_spread=0.3, seed=0)
    heads = init_heads(8, seed=1)
    getattr(heads, block)[3] = value
    with pytest.raises(NumericError, match="non-finite"):
        evaluate(heads, ds, Hyper())


def test_windows_give_the_rows_bits_across_window_edges():
    # runs of w - 28, 60 and 45 pairs in the default window of w pairs: the
    # second image row straddles the first window edge and the last window
    # holds 77
    ds = generate_synthetic(60, 4, 32, 8, 8, intra_class_spread=0.8, seed=12)
    _, (Uil, _), _, (Utl, _) = project(init_heads(32, seed=3, noise_std=0.3), ds)
    A, B = Uil.reshape(60, 8, 32), Utl.reshape(60, 8, 32)
    buffers = evaluation._window_buffers(8, 8, 32)
    w = len(buffers[0])
    I = np.repeat([4, 17, 59], [w - 28, 60, 45])
    J = np.random.default_rng(5).integers(0, 60, len(I))
    assert w > 77 and I[w - 1] == I[w]
    rows, windows = np.empty(len(I)), np.empty(len(I))
    evaluation._score_rows(A, B, I, J, rows)
    evaluation._score_windows(A, B, I, J, windows, buffers)
    assert windows.tobytes() == rows.tobytes()


def _scores_by_path(heads, ds, alpha, path, **knobs):
    """evaluate's report and every block's candidate scores, on the path
    forced, with the module constants in knobs set."""
    scores = []
    with pytest.MonkeyPatch.context() as m:
        for name, value in knobs.items():
            m.setattr(evaluation, name, value)
        for name in ("_score_rows", "_score_windows"):
            def record(*args, _score=getattr(evaluation, name)):
                _score(*args)
                scores.append(args[4].copy())
            m.setattr(evaluation, name, record)
        m.setattr(evaluation, "_windowed", lambda *args: path == "windows")
        return evaluate(heads, ds, Hyper(alpha=alpha)), scores


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.9, 1.0])
def test_evaluate_windows_and_rows_score_the_same_bits(alpha):
    # repeated images tie exactly, so there are candidates even at alpha 1;
    # windows of 8 pairs over blocks of three image rows (_BLOCK_PAIRS) put
    # rows across window edges and end blocks in part-full windows
    ds, heads, oracle = _repeated_images(alpha, 40, 32, 8, 8, seed=7)
    knobs = {"_WINDOW_BYTES": 8 * 8 * (8 * 32 + 8 * 32 + 8 * 8), "_BLOCK_PAIRS": 120}
    rows_report, rows = _scores_by_path(heads, ds, alpha, "rows", **knobs)
    windows_report, windows = _scores_by_path(heads, ds, alpha, "windows", **knobs)
    assert windows and [F.tobytes() for F in windows] == [F.tobytes() for F in rows]
    assert any(len(F) % 8 for F in windows)
    assert windows_report == rows_report == _report_from_similarity(oracle)


def test_window_rule_picks_windows_at_desk_and_rows_at_paper_shape():
    assert evaluation._windowed(8, 32)         # desk: 2 KiB image blocks
    assert not evaluation._windowed(36, 256)   # paper: 72 KiB image blocks


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