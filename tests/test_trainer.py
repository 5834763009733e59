import numpy as np
import pytest

from rrsitr.data import NoiseSpec, batch_iter, generate_synthetic, inject_noise
from rrsitr.errors import ConfigError, FormatError, NumericError
from rrsitr.selfpaced import BUCKET_NOISY, compute_weights
from rrsitr.similarity import _gram_chosen
from rrsitr.trainer import (VARIANTS, Adam, Hyper, ProjectionHeads, batch_objective,
                            clip_gradients, forward, gradients, init_heads, load_heads,
                            lr_at, resolve_variant, save_heads, train)


def _small_problem(seed=0, rho=0.4, n=40, dim=10, d1=3, d2=2):
    ds = generate_synthetic(n, 4, dim, d1, d2, intra_class_spread=1.0, seed=seed)
    return inject_noise(ds, NoiseSpec(rho=rho, seed=seed + 1))


def _hyper(**kw):
    base = dict(batch_size=10, gamma1=2.0, gamma2=9.0, epochs=3, warmup_steps=5,
                lr=1e-2, seed=0)
    base.update(kw)
    return Hyper(**base)


# ---------------------------------------------------------------------------
# forward

def test_forward_identity_heads_keep_unit_input():
    ds = _small_problem(rho=0.0)
    batch = next(batch_iter(ds, 10, epoch_seed=0))
    heads = ProjectionHeads(np.eye(ds.dim), np.zeros(ds.dim),
                            np.eye(ds.dim), np.zeros(ds.dim))
    out = forward(heads, batch)
    assert np.allclose(out.image_global, batch.image_global, atol=1e-9)
    assert np.allclose(out.text_local, batch.text_local, atol=1e-9)


def test_forward_scale_invariance():
    ds = _small_problem()
    batch = next(batch_iter(ds, 10, epoch_seed=0))
    heads = init_heads(ds.dim, seed=3, noise_std=0.2)
    out1 = forward(heads, batch)
    scaled = ProjectionHeads(heads.W_img * 4.2, heads.b_img * 4.2,
                             heads.W_txt * 4.2, heads.b_txt * 4.2)
    out2 = forward(scaled, batch)
    assert np.allclose(out1.image_global, out2.image_global, atol=1e-12)
    assert np.allclose(out1.text_global, out2.text_global, atol=1e-12)


def test_forward_shapes_and_unit_norm():
    ds = _small_problem(dim=8)
    batch = next(batch_iter(ds, 10, epoch_seed=0))
    heads = init_heads(8, dim_out=6, seed=1)
    out = forward(heads, batch)
    assert out.image_global.shape == (10, 6)
    assert out.image_local.shape == (10, 3, 6)
    assert np.allclose(np.linalg.norm(out.image_global, axis=1), 1.0, atol=1e-9)
    assert np.allclose(np.linalg.norm(out.text_local, axis=2), 1.0, atol=1e-9)


def test_forward_dim_mismatch():
    ds = _small_problem(dim=8)
    batch = next(batch_iter(ds, 10, epoch_seed=0))
    with pytest.raises(ConfigError):
        forward(init_heads(12), batch)


# ---------------------------------------------------------------------------
# gradients vs central finite differences

def _fd_check(heads, batch, hyper, variant, n_coords=15, h=1e-5, tol=1e-6, rng_seed=0):
    wrng = np.random.default_rng(123)
    grads, state = gradients(heads, batch, hyper, variant, weight_rng=wrng)
    plan = state.plan
    rng = np.random.default_rng(rng_seed)
    worst = 0.0
    for name, P in heads.params().items():
        flat = P.ravel()
        for k in rng.choice(flat.size, size=min(n_coords, flat.size), replace=False):
            orig = flat[k]
            flat[k] = orig + h
            fp = batch_objective(heads, batch, hyper, variant, plan=plan).loss
            flat[k] = orig - h
            fm = batch_objective(heads, batch, hyper, variant, plan=plan).loss
            flat[k] = orig
            fd = (fp - fm) / (2 * h)
            an = grads[name].ravel()[k]
            worst = max(worst, abs(an - fd) / max(abs(an), abs(fd), 1e-6))
    assert worst < tol, worst
    return state


# the default shape runs the direct Sl kernel, dim=6 with 4x4 locals the Gram
# kernel in one strip, dim=40 with 9x9 locals the Gram kernel in strips of 32 and 8;
# the last strip is square: 2 x 2 at dim=2 (generate_synthetic needs dim >= 2),
# 1 x 1 at dim=33, 32 x 32 at dim=64. At the default shape the two objective
# flags run too: rtl_noisy_only freezes its anchor mask in the plan's RtlResult
@pytest.mark.parametrize("variant,shape,gram,flags", [
    *(pytest.param(v, {}, False, {}, id=v) for v in sorted(VARIANTS)),
    *(pytest.param(v, {}, False, {flag: True}, id=f"{v}-{flag}")
      for flag in ("rtl_noisy_only", "spl_sum_over_all") for v in sorted(VARIANTS)),
    *(pytest.param(v, dict(dim=6, d1=4, d2=4), True, {}, id=f"{v}-gram")
      for v in sorted(VARIANTS)),
    *(pytest.param(v, dict(dim=40, d1=9, d2=9), True, {}, id=f"{v}-gram-strips")
      for v in sorted(VARIANTS)),
    *(pytest.param(v, shape, True, {}, id=f"{v}-gram-dim{shape['dim']}")
      for shape in (dict(dim=2, d1=2, d2=2), dict(dim=33, d1=9, d2=8),
                    dict(dim=64, d1=12, d2=12))
      for v in sorted(VARIANTS)),
])
def test_gradients_match_finite_differences(variant, shape, gram, flags):
    ds = _small_problem(**shape)
    hyper = _hyper(**flags)
    batch = next(batch_iter(ds, 10, epoch_seed=2))
    assert _gram_chosen(ds.d1, ds.d2, ds.dim) == gram
    heads = init_heads(ds.dim, seed=5, noise_std=0.05)
    state = _fd_check(heads, batch, hyper, VARIANTS[variant])
    assert np.isfinite(state.loss)
    spec, plan = VARIANTS[variant], state.plan
    if plan.rtl is not None and hyper.rtl_noisy_only:
        noisy = plan.partition.bucket_codes(10) == BUCKET_NOISY
        assert plan.rtl.include.tolist() == noisy.tolist() and 0 < noisy.sum() < 10
        assert state.parts.L_soft > 0.0
    elif plan.rtl is not None:
        assert plan.rtl.include is None
    if hyper.spl_sum_over_all and spec.weighting == "spl" and not spec.merge_ambiguous:
        assert np.all(plan.weights.w2[plan.partition.clean_idx] > 0)


@pytest.mark.parametrize("b,dim,d1,d2", [
    pytest.param(100, 32, 8, 8, id="desk"),
    pytest.param(100, 256, 36, 16, id="paper"),
    pytest.param(120, 256, 36, 16, id="paper-b120"),
    pytest.param(128, 256, 36, 16, id="paper-b128"),
])
def test_value_only_objective_matches_gradients(b, dim, d1, d2):
    # batch_objective keeps no Sl backward state, but it runs the same kernel
    # as gradients at every batch size, so the loss and the per-pair local
    # InfoNCE losses are bit-identical
    ds = inject_noise(generate_synthetic(b, 20, dim, d1, d2, intra_class_spread=0.2, seed=1),
                      NoiseSpec(rho=0.4, seed=2))
    hyper = _hyper(batch_size=b)
    batch = next(batch_iter(ds, b, epoch_seed=0))
    heads = init_heads(dim, seed=3, noise_std=0.05)
    value = batch_objective(heads, batch, hyper)
    state = gradients(heads, batch, hyper)[1]
    assert value.loss == state.loss
    assert value.l_l.tobytes() == state.l_l.tobytes()


def test_gradients_survive_training_steps():
    # guards against stale-weight bugs in the alternation
    ds = _small_problem()
    hyper = _hyper(epochs=1)
    heads = init_heads(ds.dim, seed=0)
    opt = Adam(heads, weight_decay=0.0)
    batches = list(batch_iter(ds, 10, epoch_seed=0))
    for step in range(10):
        grads, _ = gradients(heads, batches[step % len(batches)], hyper)
        opt.step(grads, 1e-2)
    _fd_check(heads, batches[0], hyper, VARIANTS["full"])


def test_gradients_reduce_to_plain_infonce():
    # uniform weights, lambdas off: gradient of mean per-pair InfoNCE
    ds = _small_problem(rho=0.0)
    hyper = _hyper(lambda1=0.0, lambda2=0.0)
    batch = next(batch_iter(ds, 10, epoch_seed=1))
    heads = init_heads(ds.dim, seed=2, noise_std=0.05)
    grads, state = gradients(heads, batch, hyper, VARIANTS["no_spl"])

    # independent reference: differentiate mean InfoNCE directly by softmax identities
    from rrsitr.similarity import local_similarity_units
    from rrsitr.trainer import _renorm_backward, project

    (Uig, rig), (Uil, ril), (Utg, _), (Utl, _) = project(heads, batch)
    b, d1, d2 = batch.size, batch.image_local.shape[1], batch.text_local.shape[1]
    tau = hyper.tau

    def ref_grad_S(S):
        z = S / tau
        er = np.exp(z - z.max(axis=1, keepdims=True))
        P_row = er / er.sum(axis=1, keepdims=True)
        ec = np.exp(z - z.max(axis=0, keepdims=True))
        P_col = ec / ec.sum(axis=0, keepdims=True)
        G = (P_row + P_col) / b
        G[np.arange(b), np.arange(b)] -= 2.0 / b
        return G / tau

    Sg = Uig @ Utg.T
    Sl, local_backward = local_similarity_units(Uil.reshape(b, d1, -1), Utl.reshape(b, d2, -1))
    Gg = ref_grad_S(Sg)
    Gl = ref_grad_S(Sl)
    dUig = Gg @ Utg
    dUil = local_backward(Gl)[0].reshape(Uil.shape)
    dZig = _renorm_backward(dUig, Uig, rig)
    dZil = _renorm_backward(dUil, Uil, ril)
    want_W_img = dZig.T @ batch.image_global + dZil.T @ batch.image_local.reshape(b * d1, -1)
    assert np.allclose(grads["W_img"], want_W_img, atol=1e-12)


def test_gradients_zero_for_all_noisy_without_rtl():
    ds = _small_problem(rho=1.0)
    # tiny gammas force everything into the noisy bucket
    hyper = _hyper(gamma1=1e-6, gamma2=2e-6, lambda2=0.0)
    batch = next(batch_iter(ds, 10, epoch_seed=0))
    heads = init_heads(ds.dim, seed=1)
    grads, state = gradients(heads, batch, hyper)
    assert len(state.plan.partition.noisy_idx) == 10
    assert state.loss == 0.0
    for g in grads.values():
        assert np.allclose(g, 0.0, atol=1e-15)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_frozen_plan_reproduces_loss(variant):
    # the frozen-plan path that the finite-difference check descends gives the
    # same value as a fresh plan at unchanged parameters
    ds = _small_problem()
    hyper = _hyper()
    batch = next(batch_iter(ds, 10, epoch_seed=2))
    heads = init_heads(ds.dim, seed=5, noise_std=0.05)
    v = VARIANTS[variant]
    s = batch_objective(heads, batch, hyper, v, weight_rng=np.random.default_rng(123))
    assert batch_objective(heads, batch, hyper, v, plan=s.plan).loss == s.loss


def test_objective_rtl_full_batch_vs_noisy_only():
    ds = _small_problem(rho=0.5)
    batch = next(batch_iter(ds, 10, epoch_seed=0))
    heads = init_heads(ds.dim, seed=1)
    full = batch_objective(heads, batch, _hyper())
    restricted = batch_objective(heads, batch, _hyper(rtl_noisy_only=True))
    assert restricted.parts.L_soft <= full.parts.L_soft + 1e-12


# ---------------------------------------------------------------------------
# schedule / optimizer

def test_lr_schedule_shape():
    hyper = Hyper(lr=7e-6, warmup_steps=200)
    total = 1000
    assert lr_at(0, total, hyper) == 0.0
    assert lr_at(100, total, hyper) == pytest.approx(3.5e-6)
    assert lr_at(200, total, hyper) == pytest.approx(7e-6)
    assert lr_at(600, total, hyper) == pytest.approx(3.5e-6, rel=1e-12)  # cosine midpoint
    assert lr_at(total, total, hyper) == pytest.approx(0.0, abs=1e-18)
    # monotone decay after warmup
    vals = [lr_at(s, total, hyper) for s in range(200, 1001)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_lr_schedule_no_warmup():
    hyper = Hyper(lr=1e-3, warmup_steps=0)
    assert lr_at(0, 10, hyper) == pytest.approx(1e-3)


def test_clip_gradients():
    grads = {"a": np.full(4, 10.0), "b": np.full(9, 10.0)}
    norm = clip_gradients(grads, max_norm=5.0)
    assert norm == pytest.approx(np.sqrt(13 * 100.0))
    post = np.sqrt(sum((g ** 2).sum() for g in grads.values()))
    assert post <= 5.0 + 1e-9
    small = {"a": np.array([0.1])}
    clip_gradients(small, 5.0)
    assert small["a"][0] == 0.1  # untouched below the threshold


# ---------------------------------------------------------------------------
# training loop

def _adam_reference(params, m, v, grads, t, lr, weight_decay):
    # the per-parameter AdamW update the flat-buffer Adam must reproduce
    bc1, bc2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
    for k, p in params.items():
        g = grads[k]
        m[k] = 0.9 * m[k] + (1 - 0.9) * g
        v[k] = 0.999 * v[k] + (1 - 0.999) * (g * g)
        p -= lr * ((m[k] / bc1) / (np.sqrt(v[k] / bc2) + 1e-8))
        if weight_decay > 0 and k.startswith("W"):
            p -= lr * weight_decay * p


def test_adam_and_clip_match_per_parameter_updates_bit_for_bit():
    ds = _small_problem()
    hyper = _hyper()
    heads = init_heads(ds.dim, seed=1, noise_std=0.05)
    held = heads.params()  # taken before Adam exists; must stay the live arrays
    ref = heads.copy().params()
    m = {k: np.zeros_like(p) for k, p in ref.items()}
    v = {k: np.zeros_like(p) for k, p in ref.items()}
    opt = Adam(heads, weight_decay=0.7)
    for t, batch in enumerate(batch_iter(ds, 10, epoch_seed=3), start=1):
        grads, _ = gradients(heads, batch, hyper)
        want = {k: g.copy() for k, g in grads.items()}
        max_norm = 0.5 * np.sqrt(sum(float((g * g).sum()) for g in want.values()))
        want_norm = np.sqrt(sum(float((g * g).sum()) for g in want.values()))
        for g in want.values():
            g *= max_norm / want_norm
        assert clip_gradients(grads, max_norm) == want_norm  # clips: norm > max_norm
        for k in want:
            assert grads[k].tobytes() == want[k].tobytes(), k
        opt.step(grads, 1e-2)
        _adam_reference(ref, m, v, want, t, 1e-2, 0.7)
        for k, p in heads.params().items():
            assert p is held[k], k
            assert p.tobytes() == ref[k].tobytes(), (t, k)
            assert opt.m[k].tobytes() == m[k].tobytes(), (t, k)
            assert opt.v[k].tobytes() == v[k].tobytes(), (t, k)


def test_train_zero_epochs_returns_init():
    ds = _small_problem()
    hyper = _hyper(epochs=0)
    heads, log = train(ds, hyper)
    want = init_heads(ds.dim, seed=hyper.seed)
    assert np.array_equal(heads.W_img, want.W_img)
    assert log.records == []


def test_train_deterministic():
    ds = _small_problem()
    hyper = _hyper(epochs=2)
    h1, log1 = train(ds, hyper)
    h2, log2 = train(ds, hyper)
    for k in h1.params():
        assert np.array_equal(h1.params()[k], h2.params()[k])
    assert [r.loss_overall for r in log1.records] == [r.loss_overall for r in log2.records]
    assert [r.n_noisy for r in log1.records] == [r.n_noisy for r in log2.records]


def test_train_descends():
    ds = _small_problem(n=80, rho=0.2)
    hyper = _hyper(epochs=10, warmup_steps=4, lr=5e-3)
    heads, log = train(ds, hyper)
    assert log.records[-1].loss_overall < log.records[0].loss_overall


def test_train_records_and_trace():
    ds = _small_problem(n=30)
    hyper = _hyper(epochs=3, batch_size=10)
    heads, log = train(ds, hyper, trace_epochs=[1, 3])
    assert [r.epoch for r in log.records] == [1, 2, 3]
    assert sorted(log.traces) == [1, 3]
    trace = log.traces[3]
    assert np.array_equal(trace.pair_id, np.arange(30))
    assert log.final_trace.epoch == 3
    assert np.all((trace.w >= 0) & (trace.w <= 1))
    assert set(np.unique(trace.bucket)) <= {0, 1, 2}
    rec = log.records[0]
    assert rec.n_clean + rec.n_ambiguous + rec.n_noisy == 30
    assert sum(rec.weight_hist) == 30


def test_train_validation_checkpoint_selection():
    train_ds = _small_problem(n=60, rho=0.6)
    val_ds = generate_synthetic(30, 4, 10, 3, 2, intra_class_spread=1.0, seed=99)
    hyper = _hyper(epochs=4, lr=5e-3)
    heads, log = train(train_ds, hyper, val_dataset=val_ds)
    assert log.best_epoch is not None
    mrs = [r.val_mr for r in log.records]
    assert all(m is not None for m in mrs)
    best = max(range(len(mrs)), key=lambda i: (mrs[i], -i)) + 1
    assert log.best_epoch == best


def _widened(ds):
    """The same dataset with float64 blocks, as a caller may build it."""
    from rrsitr.data import Dataset
    return Dataset(*(getattr(ds, k).astype(np.float64) for k in
                     ("image_global", "image_local", "text_global", "text_local")),
                   y=ds.y, class_id=ds.class_id)


@pytest.mark.parametrize("dim,d1,d2", [(32, 8, 8), (10, 3, 2)], ids=["gram", "direct"])
def test_float64_dataset_trains_and_evaluates_identically(dim, d1, d2):
    from rrsitr.evaluation import evaluate
    ds = _small_problem(n=60, dim=dim, d1=d1, d2=d2)
    val = generate_synthetic(30, 4, dim, d1, d2, intra_class_spread=1.0, seed=99)
    assert ds.image_local.dtype == np.float32
    hyper = _hyper(epochs=2)
    runs = [train(d, hyper, val_dataset=v, trace_epochs=[1, 2])
            for d, v in ((ds, val), (_widened(ds), _widened(val)))]
    (h32, log32), (h64, log64) = runs
    for k in h32.params():
        assert h32.params()[k].tobytes() == h64.params()[k].tobytes(), k
    strip = [{k: v for k, v in r.to_dict().items() if k != "wall_clock_sec"}
             for r in log32.records]
    assert strip == [{k: v for k, v in r.to_dict().items() if k != "wall_clock_sec"}
                     for r in log64.records]
    for e in (1, 2):
        assert log32.traces[e].l_total.tobytes() == log64.traces[e].l_total.tobytes()
        assert log32.traces[e].w.tobytes() == log64.traces[e].w.tobytes()
    assert evaluate(h32, val, hyper) == evaluate(h32, _widened(val), hyper)


def test_train_divergence_reports_context():
    # runaway decoupled weight decay flips and amplifies W until it overflows
    ds = _small_problem()
    hyper = _hyper(lr=1.0, weight_decay=1e100, epochs=2, warmup_steps=0)
    with pytest.raises(NumericError, match="epoch"):
        with np.errstate(all="ignore"):
            train(ds, hyper)


def test_train_pace_schedule_flag():
    # after epoch 1 of 4 the noisy threshold sits a quarter of the way from
    # gamma1 to gamma2; at gamma2 itself the same losses fall in other buckets
    ds = _small_problem(n=30)
    hyper = _hyper(epochs=1, pace_epochs=4)
    trace = train(ds, hyper)[1].final_trace
    paced = hyper.gamma1 + (hyper.gamma2 - hyper.gamma1) / 4
    for gamma2, same in ((paced, True), (hyper.gamma2, False)):
        part, _ = compute_weights(trace.l_total, hyper.gamma1, gamma2)
        assert np.array_equal(part.bucket_codes(len(trace.l_total)), trace.bucket) == same


# ---------------------------------------------------------------------------
# ablation variants

def test_ablate_full_equals_train():
    ds = _small_problem(n=30)
    hyper = _hyper(epochs=2)
    h1, _ = train(ds, hyper)
    h2, _ = train(ds, hyper, variant="full")
    assert np.array_equal(h1.W_img, h2.W_img)


def test_ablate_unknown_variant():
    ds = _small_problem(n=30)
    with pytest.raises(ConfigError):
        train(ds, _hyper(), variant="bogus")


def test_variant_aliases():
    assert resolve_variant("#2") is VARIANTS["no_spl"]
    assert resolve_variant("#8") is VARIANTS["fixed_margin_rtl"]
    assert resolve_variant("full") is VARIANTS["full"]


def test_no_spl_logs_unit_weights():
    ds = _small_problem(n=30)
    _, log = train(ds, _hyper(epochs=2), variant="no_spl")
    for trace in [log.final_trace]:
        assert np.all(trace.w == 1.0)


def test_fixed_margin_differs_only_in_margins():
    ds = _small_problem()
    hyper = _hyper()
    batch = next(batch_iter(ds, 10, epoch_seed=0))
    heads = init_heads(ds.dim, seed=4)
    full = batch_objective(heads, batch, hyper, VARIANTS["full"])
    fixed = batch_objective(heads, batch, hyper, VARIANTS["fixed_margin_rtl"])
    assert np.array_equal(full.plan.rtl.hard_txt_idx, fixed.plan.rtl.hard_txt_idx)
    assert np.array_equal(full.plan.rtl.hard_img_idx, fixed.plan.rtl.hard_img_idx)
    assert np.all(fixed.plan.rtl.mu_hat == hyper.sigma)
    assert np.all(full.plan.rtl.mu_hat >= hyper.sigma - 1e-15)
    assert np.allclose(full.l_total, fixed.l_total)  # contrastive side identical


def test_fixed_margin_trains_byte_identically_to_full():
    """`fixed_margin_rtl` and `full` train to the same bytes at the desk shape.

    The adaptive margin is mu = sigma * (1 + max(0, neg - pos)), and likewise
    zeta. Case neg <= pos: mu = sigma, so the two hinges are the same number.
    Case neg > pos: both margins are >= sigma > 0, so mu - pos + neg and
    sigma - pos + neg are both > 0 and the hinge is active under either
    margin. The margins are frozen in the plan, so the gradient sees only which
    hinges are active, and that set is the same; the partition and weights
    come from the InfoNCE losses alone. Only the logged hinge values (loss_soft,
    loss_overall, mean_margin) may differ.
    """
    ds = inject_noise(generate_synthetic(300, 20, 32, 8, 8, intra_class_spread=0.3, seed=3),
                      NoiseSpec(rho=0.4, seed=4))
    hyper = Hyper(epochs=2, batch_size=100, warmup_steps=2, seed=5)
    assert _gram_chosen(8, 8, 32)
    runs = {v: train(ds, hyper, variant=v) for v in ("full", "fixed_margin_rtl")}
    (h_full, log_full), (h_fixed, log_fixed) = runs.values()
    for k in h_full.params():
        assert h_full.params()[k].tobytes() == h_fixed.params()[k].tobytes(), k
    for name in ("pair_id", "y", "l_total", "w", "bucket"):
        assert (getattr(log_full.final_trace, name).tobytes()
                == getattr(log_fixed.final_trace, name).tobytes()), name
    assert [r.grad_norm for r in log_full.records] == [r.grad_norm for r in log_fixed.records]


def test_hard_to_easy_reverses_ordering():
    ds = _small_problem()
    hyper = _hyper()
    batch = next(batch_iter(ds, 10, epoch_seed=0))
    heads = init_heads(ds.dim, seed=4)
    spl = batch_objective(heads, batch, hyper, VARIANTS["full"])
    rev = batch_objective(heads, batch, hyper, VARIANTS["spl_hard_to_easy"])
    part = spl.plan.partition
    for bucket, gamma in ((part.clean_idx, hyper.gamma1), (part.ambiguous_idx, hyper.gamma2)):
        for i in bucket:
            assert rev.plan.weights.w[i] == pytest.approx(1.0 - spl.plan.weights.w[i], abs=1e-12)
    assert np.all(rev.plan.weights.w[part.noisy_idx] == 0.0)


def test_random_weights_in_range_and_seeded():
    ds = _small_problem(n=30)
    hyper = _hyper(epochs=2)
    _, log1 = train(ds, hyper, variant="spl_random_weights")
    _, log2 = train(ds, hyper, variant="spl_random_weights")
    assert np.array_equal(log1.final_trace.w, log2.final_trace.w)
    assert np.all((log1.final_trace.w >= 0) & (log1.final_trace.w <= 1))
    assert len(np.unique(log1.final_trace.w)) > 20


def test_no_ambiguous_merges_into_noisy():
    ds = _small_problem()
    hyper = _hyper()
    batch = next(batch_iter(ds, 10, epoch_seed=0))
    heads = init_heads(ds.dim, seed=4)
    merged = batch_objective(heads, batch, hyper, VARIANTS["spl_no_ambiguous"])
    assert len(merged.plan.partition.ambiguous_idx) == 0
    base = batch_objective(heads, batch, hyper, VARIANTS["full"])
    want_noisy = sorted(np.concatenate([base.plan.partition.ambiguous_idx,
                                        base.plan.partition.noisy_idx]).tolist())
    assert merged.plan.partition.noisy_idx.tolist() == want_noisy
    assert merged.parts.L_S2 == 0.0


def test_no_local_ignores_local_loss():
    ds = _small_problem()
    hyper = _hyper()
    batch = next(batch_iter(ds, 10, epoch_seed=0))
    heads = init_heads(ds.dim, seed=4)
    no_local = batch_objective(heads, batch, hyper, VARIANTS["no_local"])
    base = batch_objective(heads, batch, hyper, VARIANTS["full"])
    assert np.allclose(no_local.l_total, base.l_g)
    assert no_local.l_l is None


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_roundtrip(tmp_path):
    heads = init_heads(8, dim_out=6, seed=3, noise_std=0.3)
    path = str(tmp_path / "h.rrsp")
    save_heads(heads, path)
    back = load_heads(path)
    for k in heads.params():
        assert np.array_equal(heads.params()[k], back.params()[k])


def test_checkpoint_bad_magic(tmp_path):
    path = str(tmp_path / "bad.rrsp")
    with open(path, "wb") as f:
        f.write(b"XXXX" + b"\x00" * 20)
    with pytest.raises(FormatError):
        load_heads(path)


@pytest.mark.parametrize("dim_in,dim_out,seed,sha", [
    (8, 6, 3, "e0e199eeeb05cfd2d657ca4527b6d60c184c9bc1184b798f9c1aa72acdb4b67a"),
    (32, 32, 0, "a2cd844c62266c1b92024b4d6d0c826251f7293e5e084e9bf7985788952fb77c"),
])
def test_checkpoint_bytes_pinned(tmp_path, dim_in, dim_out, seed, sha):
    # sha256 of save_heads(init_heads(...)), taken before the section reader
    # read regular files and pipes in one loop; a load rewrites the same bytes
    import hashlib
    path, again = str(tmp_path / "p.rrsp"), str(tmp_path / "q.rrsp")
    save_heads(init_heads(dim_in, dim_out=dim_out, seed=seed), path)
    with open(path, "rb") as f:
        assert hashlib.sha256(f.read()).hexdigest() == sha
    save_heads(load_heads(path), again)
    with open(again, "rb") as f:
        assert hashlib.sha256(f.read()).hexdigest() == sha


def test_checkpoint_truncated(tmp_path):
    heads = init_heads(6, seed=0)
    path = str(tmp_path / "t.rrsp")
    save_heads(heads, path)
    blob = open(path, "rb").read()
    with open(path, "wb") as f:
        f.write(blob[:40])
    with pytest.raises(FormatError):
        load_heads(path)


def test_checkpoint_trailing_bytes(tmp_path):
    path = str(tmp_path / "h.rrsp")
    save_heads(init_heads(6, seed=0), path)
    with open(path, "ab") as f:
        f.write(b"\x00" * 8)
    with pytest.raises(FormatError, match="trailing bytes"):
        load_heads(path)


def test_hyper_validation():
    with pytest.raises(ConfigError):
        Hyper(tau=0.0)
    with pytest.raises(ConfigError):
        Hyper(gamma1=5.0, gamma2=5.0)
    with pytest.raises(ConfigError):
        Hyper(alpha=1.2)
    with pytest.raises(ConfigError):
        Hyper(batch_size=1)
    with pytest.raises(ConfigError):
        Hyper(lr=0.0)
