import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrsitr.data import Dataset, NoiseSpec, generate_synthetic, inject_noise
from rrsitr import evaluation
from rrsitr.errors import ConfigError, DataError, NumericError
from rrsitr.evaluation import (DetectionReport, RetrievalReport, _ranks, _report_from_ranks,
                               detection_metrics, evaluate, recall_at_k)
from rrsitr.selfpaced import compute_weights
from rrsitr.trainer import Hyper, init_heads, project


def _sort_oracle(S, gt, k):
    """Full stable sort by descending similarity, ties by ascending index."""
    hits = 0
    for q in range(S.shape[0]):
        order = sorted(range(S.shape[1]), key=lambda j: (-S[q, j], j))
        if gt[q] in order[:k]:
            hits += 1
    return hits / S.shape[0] * 100.0


def _report_from_similarity(Sf):
    """Oracle: image-to-text recalls rank each row of a dense fused
    similarity Sf, text-to-image each column."""
    gt = np.arange(Sf.shape[0])
    return _report_from_ranks(_ranks(Sf, gt, axis=1), _ranks(Sf, gt, axis=0))


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


@pytest.mark.parametrize("alpha", [0.0, 0.05, 0.3, 0.5, 0.9, 0.95, 1.0])
@pytest.mark.parametrize("n,dim,d1,d2", [(10, 8, 3, 5), (37, 32, 4, 2), (60, 40, 2, 6),
                                         (23, 48, 5, 3), (30, 256, 36, 16)])
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


@pytest.mark.parametrize("alpha", [0.0, 0.05, 0.3, 0.5, 0.9, 0.95])
@pytest.mark.parametrize("block_pairs", [None, 70])
@pytest.mark.parametrize("n,dim,d1,d2,seed", [(40, 32, 8, 8, 0), (30, 16, 1, 1, 4),
                                              (30, 256, 36, 16, 5)])
def test_evaluate_duplicate_rows_tie_as_the_oracle_does(alpha, block_pairs, n, dim, d1, d2,
                                                         seed, monkeypatch):
    # each image once per caption, as in RSITMD, and a few repeated captions,
    # with generic values: equal rows must score exactly equal wherever the
    # pair is scored, so that the index rule orders them as in the oracle.
    # (One GEMM over a row's gathered candidate texts rounds some pairs
    # otherwise than the per-pair products do, and fails these cases.)
    if block_pairs is not None:        # several row blocks, the last one short,
        monkeypatch.setattr(evaluation, "_BLOCK_PAIRS", block_pairs)
        monkeypatch.setattr(evaluation, "_KEPT_PAIRS", 16)   # cut into chunks of pairs
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


def _dense_fused_parts(heads, ds):
    """Oracle parts one image row at a time: G[i, j] = Uig[i] @ Utg[j], each a
    1-D dot, and the direct-form Sl from one (d1 x dim)(dim x d2) product per
    pair, so equal rows give equal entries. alpha*G + (1-alpha)*Sl is then
    _pairwise_fused's F up to the sum order of Sl's squares."""
    (Uig, _), (Uil, _), (Utg, _), (Utl, _) = project(heads, ds)
    n = ds.n_pairs
    A, B = Uil.reshape(n, ds.d1, -1), Utl.reshape(n, ds.d2, -1)
    G, Sl = np.empty((n, n)), np.empty((n, n))
    Bt = B.transpose(0, 2, 1)
    for i in range(n):
        G[i] = np.matmul(Uig[i][None, None, :], Utg[:, :, None])[:, 0, 0]
        M = np.matmul(A[i], Bt)
        Sl[i] = np.sqrt(np.add.reduce((M * M).reshape(n, -1), axis=1)) / np.sqrt(ds.d1 * ds.d2)
    return G, Sl


@pytest.mark.parametrize("n", [500, 1005])
def test_evaluate_ties_exactly_across_row_blocks_and_gemm_tiles(n):
    # each image once per caption (groups of 5 rows) and repeated captions,
    # with generic values. Equal rows must get equal S wherever they fall:
    # split by a row block of S (7 rows a block) or by the GEMM's tiles,
    # whose edge tiles can round equal rows differently (with one thread,
    # OpenBLAS's whole GEMM does so for this set's rows 490-494 at n = 500
    # and 995-999 at n = 1005)
    images = generate_synthetic(n // 5, 4, 32, 8, 8, intra_class_spread=0.8, seed=n)
    texts = generate_synthetic(n, 4, 32, 8, 8, intra_class_spread=0.8, seed=n + 1)
    rep = np.repeat(np.arange(n // 5), 5)
    tg, tl = texts.text_global.copy(), texts.text_local.copy()
    copies, sources = [6, 13, 262, 493, n - 3, n - 1], [1, 12, 258, 490, 491, n - 5]
    tg[copies], tl[copies] = tg[sources], tl[sources]
    ds = Dataset(images.image_global[rep], images.image_local[rep], tg, tl,
                 y=np.ones(n, dtype=np.uint8))
    heads = init_heads(32, seed=3, noise_std=0.3)
    G, Sl = _dense_fused_parts(heads, ds)
    for alpha in (0.0, 0.3, 0.9, 1.0):
        F = alpha * G + (1.0 - alpha) * Sl
        d = np.diag(F)
        assert ((F == d[:, None]).sum(axis=1) > 1).any()       # a query row tied with its match
        assert ((F == d[None, :]).sum(axis=0) > 1).any()       # and a query column
        want = _report_from_similarity(F)
        for block_pairs in (None, 7 * n):
            with pytest.MonkeyPatch.context() as m:
                if block_pairs is not None:
                    m.setattr(evaluation, "_BLOCK_PAIRS", block_pairs)
                assert evaluate(heads, ds, Hyper(alpha=alpha)) == want, (alpha, block_pairs)


@settings(max_examples=60, deadline=None)
@given(st.integers(10, 40), st.integers(2, 40), st.integers(1, 4), st.integers(1, 4),
       st.sampled_from([0.0, 0.05, 0.3, 0.5, 0.9, 0.95, 1.0]), st.integers(1, 8),
       st.integers(0, 2**32 - 1))
def test_evaluate_with_planted_duplicates_equals_pairwise_oracle(n, dim, d1, d2, alpha,
                                                                 block_rows, seed):
    # random sets where some images and some captions repeat other rows, in
    # row blocks of block_rows rows: evaluate reports what the oracle ranks
    rng = np.random.default_rng(seed)
    rep_img = rng.integers(0, max(2, n // 2), size=n)
    rep_txt = np.where(rng.random(n) < 0.3, rng.integers(0, n, size=n), np.arange(n))
    ig, il = _unit_rows(rng, (n,), dim)[rep_img], _unit_rows(rng, (n, d1), dim)[rep_img]
    tg, tl = _unit_rows(rng, (n,), dim)[rep_txt], _unit_rows(rng, (n, d2), dim)[rep_txt]
    ds = Dataset(ig, il, tg, tl, y=np.ones(n, dtype=np.uint8))
    heads = init_heads(dim, seed=seed % 1000, noise_std=0.3)
    want = _report_from_similarity(_pairwise_fused(heads, ds, alpha))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(evaluation, "_BLOCK_PAIRS", block_rows * n)
        assert evaluate(heads, ds, Hyper(alpha=alpha)) == want


def test_evaluate_memory_is_rows_plus_one_block():
    # tracemalloc peak at desk shape, n = 3000: the projected rows (13.2 MiB)
    # and little else; an n x n float64 S alone would be 68.7 MiB
    import tracemalloc
    ds = generate_synthetic(3000, 20, 32, 8, 8, intra_class_spread=0.3, seed=3)
    heads = init_heads(32, seed=1)
    projected = 8 * ds.n_pairs * (2 + ds.d1 + ds.d2) * ds.dim
    evaluate(heads, ds, Hyper())
    tracemalloc.start()
    try:
        evaluate(heads, ds, Hyper())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * projected, peak / projected


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


def _scored_pairs(heads, ds, alpha):
    """evaluate's report and the (image, text) pairs it scored beyond the
    ground truths."""
    report, calls = _scoring_calls(heads, ds, alpha)
    return report, {(i, j) for I, J, _ in calls for i, j in zip(I.tolist(), J.tolist())}


def _scoring_calls(heads, ds, alpha, **knobs):
    """evaluate's report and the (I, J, F) of each _score_windows call, with
    the module constants in knobs set."""
    calls, score = [], evaluation._score_windows

    def record(A, B, I, J, buffers):
        F = score(A, B, I, J, buffers)
        calls.append((I.copy(), J.copy(), F.copy()))
        return F
    with pytest.MonkeyPatch.context() as m:
        for name, value in knobs.items():
            m.setattr(evaluation, name, value)
        m.setattr(evaluation, "_score_windows", record)
        return evaluate(heads, ds, Hyper(alpha=alpha)), calls


def test_evaluate_decides_pairs_planted_at_the_bound_margins():
    # alpha 1/2, d1 = d2 = 1, dim 2, identity heads, as in the test above:
    # query 6's ref is 0.5, and a planted item j has global row (x, 1), so
    # S = x/2 exactly, in query 6's row and, mirrored, in its column. The
    # above test S + c*lo > ref + delta and the below test
    # S + c*hi < ref - delta are met one ulp outside their margins, where the
    # pair is not scored, and missed exactly at them, where it is.
    n, q, delta = 12, 6, evaluation._SL_SLACK
    theta = np.arccos(np.sqrt(1 - 5 * delta))     # hi = sqrt(cos^2 + delta) ~ 1 - 2 delta
    e0, e1, low = np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([-1.0, 0.0])
    tilted = np.array([np.sin(theta), np.cos(theta)])
    locals_ = {2: e1, 4: e1, 8: tilted, 10: tilted}    # Sl 1 at 2 and 4, cos(theta) at 8, 10

    def dataset(x):
        ig, il, tg, tl = [low] * n, [e1] * n, [low] * n, [e1] * n
        ig[q], il[q], tg[q], tl[q] = e0, e1, e0, e0
        for at, l in locals_.items():
            g = np.array([x.get(at, 0.0), 1.0])
            tg[at], tl[at] = g, l             # texts in query 6's row
            ig[at], il[at] = g, l[::-1]       # and images in its column
        return Dataset(np.array(ig), np.array(il)[:, None], np.array(tg),
                       np.array(tl)[:, None], y=np.ones(n, dtype=np.uint8))

    heads = init_heads(2, noise_std=0.0)
    _, (Uil, _), _, (Utl, _) = project(heads, dataset({}))
    image = evaluation._item_bounds(Uil.reshape(n, 1, 2))
    text = evaluation._item_bounds(Utl.reshape(n, 1, 2))
    dot = np.array([Uil[q] @ Utl[8]])
    _, hi = evaluation._sl_bounds(image, text, np.array([q]), np.array([8]), dot)
    half_hi = 0.5 * hi[0]
    above, below = 0.5 + delta, 0.5 - delta        # ref +- delta as evaluate rounds them
    s = {2: above - 0.5,                            # S + c*lo == ref + delta: scored
         4: np.nextafter(above, 1) - 0.5,           # one ulp above it: decided above
         8: below - half_hi,                        # S + c*hi == ref - delta: scored
         10: np.nextafter(below, 0) - half_hi}      # one ulp below it: decided below
    assert all(abs(v) < 5e-9 for v in s.values())   # (x, 1) stays a unit row
    assert s[4] + 0.5 > above and s[2] + 0.5 == above
    assert s[8] + half_hi == below and s[10] + half_hi < below
    ds = dataset({at: 2 * v for at, v in s.items()})
    F = _pairwise_fused(heads, ds, 0.5)
    assert F[q, q] == 0.5 and all(F[q, at] == F[at, q] for at in s)
    assert F[q, 2] > 0.5 and F[q, 4] > 0.5 and F[q, 8] < 0.5 and F[q, 10] < 0.5
    report, scored = _scored_pairs(heads, ds, 0.5)
    assert report == _report_from_similarity(F)
    for at, is_scored in {2: True, 4: False, 8: True, 10: False}.items():
        assert ((q, at) in scored, (at, q) in scored) == (is_scored, is_scored), at


def _unit_rows(rng, shape, dim):
    rows = rng.normal(size=shape + (dim,))
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.integers(2, 64),
       st.sampled_from(["generic", "identical", "near_orthogonal", "near_parallel"]),
       st.integers(0, 2**32 - 1))
def test_sl_bounds_hold_for_computed_sl(d1, d2, dim, kind, seed):
    # lo - delta/2 <= Sl <= hi + delta/2 for the computed Sl, lo and hi of one
    # pair of unit local blocks. Identical rows make E = F = 0 (lo = hi up to
    # the delta under the root); orthogonal blocks make Sl about 0, where
    # the root would magnify the rounding of hi^2 without that delta.
    rng = np.random.default_rng(seed)
    if kind == "generic":
        A, B = _unit_rows(rng, (1, d1), dim), _unit_rows(rng, (1, d2), dim)
    elif kind == "identical":
        A = np.repeat(_unit_rows(rng, (1, 1), dim), d1, axis=1)
        B = np.repeat(_unit_rows(rng, (1, 1), dim), d2, axis=1)
    else:
        # rows near one direction, or near orthogonal to the other side's
        base = _unit_rows(rng, (1, 1), dim)
        A = _unit_rows(rng, (1, 1), dim) * 1e-7 + base
        A = np.repeat(A, d1, axis=1) + 1e-9 * rng.normal(size=(1, d1, dim))
        A /= np.linalg.norm(A, axis=-1, keepdims=True)
        B = base + 1e-9 * rng.normal(size=(1, d2, dim))
        if kind == "near_orthogonal":
            B = rng.normal(size=(1, d2, dim))
            B -= (B @ base[0, 0])[..., None] * base[0, 0]
            B += 1e-9 * rng.normal(size=(1, d2, dim))
        B /= np.linalg.norm(B, axis=-1, keepdims=True)
    image, text = evaluation._item_bounds(A), evaluation._item_bounds(B)
    dot = evaluation._row_means(A) @ evaluation._row_means(B).T
    lo, hi = evaluation._sl_bounds(image, text, np.array([0]), np.array([0]), dot[0])
    sl = np.sqrt(evaluation._sum_squares(np.matmul(B, A.transpose(0, 2, 1)))) / np.sqrt(d1 * d2)
    half = evaluation._SL_SLACK / 2
    assert lo[0] - half <= sl[0] <= hi[0] + half
    if kind == "identical":
        assert hi[0] - lo[0] <= np.sqrt(evaluation._SL_SLACK)


def test_bounds_leave_fewer_pairs_to_score_than_candidates():
    # desk shape (dim 32, 8x8 locals) at alpha 0.9: the candidates are the
    # off-diagonal pairs with cut <= S <= ref in a row or a column
    ds = generate_synthetic(300, 20, 32, 8, 8, intra_class_spread=0.3, seed=3)
    heads = init_heads(32, seed=1, noise_std=0.3)
    F = _pairwise_fused(heads, ds, 0.9)
    (Uig, _), _, (Utg, _), _ = project(heads, ds)
    S = 0.9 * (Uig @ Utg.T)
    ref = np.diag(F)
    cut = ref - (0.1 + evaluation._SL_SLACK)
    cand = ((S >= cut[:, None]) & (S <= ref[:, None])) | ((S >= cut) & (S <= ref))
    np.fill_diagonal(cand, False)
    report, scored = _scored_pairs(heads, ds, 0.9)
    assert report == _report_from_similarity(F)
    assert scored <= set(zip(*np.nonzero(cand)))
    assert 0 < 3 * len(scored) < cand.sum()


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


def _stacked_sum_squares(A, B, I, J):
    """Each pair's sum of squared local cosines from one stacked product over
    all the pairs (I[k], J[k]) at once."""
    return evaluation._sum_squares(np.matmul(B[J], A[I].transpose(0, 2, 1)))


def test_window_scores_equal_one_stacked_product_across_window_edges():
    # runs of w - 28, 60 and 45 pairs in the default window of w pairs: the
    # second image row straddles the first window edge and the last window
    # is part full
    ds = generate_synthetic(60, 4, 32, 8, 8, intra_class_spread=0.8, seed=12)
    _, (Uil, _), _, (Utl, _) = project(init_heads(32, seed=3, noise_std=0.3), ds)
    A, B = Uil.reshape(60, 8, 32), Utl.reshape(60, 8, 32)
    buffers = evaluation._window_buffers(8, 8, 32)
    w = len(buffers[0])
    I = np.repeat([4, 17, 59], [w - 28, 60, 45])
    J = np.random.default_rng(5).integers(0, 60, len(I))
    assert I[w - 1] == I[w] and len(I) % w
    F = evaluation._score_windows(A, B, I, J, buffers)
    assert F.tobytes() == _stacked_sum_squares(A, B, I, J).tobytes()


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.9, 1.0])
@pytest.mark.parametrize("n,dim,d1,d2", [(40, 32, 8, 8), (30, 256, 36, 16)])
def test_evaluate_window_scores_equal_one_stacked_product(alpha, n, dim, d1, d2):
    # repeated images tie exactly, so there are candidates even at alpha 1;
    # windows of 3 and of 8 pairs over blocks of three image rows
    # (_BLOCK_PAIRS) put rows across window edges and end blocks in part-full
    # windows; every score has the bits of one product over all scored pairs
    ds, heads, oracle = _repeated_images(alpha, n, dim, d1, d2, seed=7)
    _, (Uil, _), _, (Utl, _) = project(heads, ds)
    A, B = Uil.reshape(n, d1, dim), Utl.reshape(n, d2, dim)
    pair_bytes = 8 * (d1 * dim + d2 * dim + d2 * d1)
    for window in (3, 8):
        report, calls = _scoring_calls(heads, ds, alpha, _WINDOW_BYTES=window * pair_bytes,
                                       _BLOCK_PAIRS=3 * n)
        assert report == _report_from_similarity(oracle)
        I, J, F = (np.concatenate(parts) for parts in zip(*calls))
        assert F.tobytes() == _stacked_sum_squares(A, B, I, J).tobytes()
        assert any(len(F) % window for _, _, F in calls)


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
    part = compute_weights(l, 5.0, 18.0)[0]
    y = np.array([1, 1, 0])
    rep = detection_metrics(part, y)
    assert rep.precision == 1.0 and rep.recall == 1.0


def test_detection_length_mismatch():
    with pytest.raises(ValueError):
        detection_metrics(np.array([0, 1]), np.array([1, 1, 0]))


def test_report_serialization():
    # ablate's results.csv header and the eval JSON's key order are pinned
    rep = RetrievalReport(1, 2, 3, 4, 5, 6, mr=3.5)
    header = "i2t_r1,i2t_r5,i2t_r10,t2i_r1,t2i_r5,t2i_r10,mr"
    assert RetrievalReport.CSV_HEADER == header
    assert list(rep.to_dict()) == header.split(",") and rep.to_dict()["mr"] == 3.5
    assert rep.to_csv_row() == "1.0000,2.0000,3.0000,4.0000,5.0000,6.0000,3.5000"
    det = DetectionReport(1.0, 0.5, 0.66, {"clean": 1.0}, False)
    assert det.to_dict() == {"precision": 1.0, "recall": 0.5, "f1": 0.66,
                             "purity": {"clean": 1.0}, "no_ground_truth_noise": False}