"""Trainable projection heads over precomputed embeddings, the objective
L = L_S1 + lambda1*L_S2 + lambda2*L_soft with its analytic gradients, Adam with a
warmup+cosine schedule, and the alternating training loop.

Embedding rows become unit projections in one place, `_project_modalities`,
which the objective calls; `project`, which `forward` and
`evaluation.evaluate` call, gives its rows block by block. The objective is
built in one place, `_objective`: projection, Sg and Sl, per-pair InfoNCE
losses, the frozen plan (partition and weights from
`selfpaced.compute_weights`, margins, negatives and anchors from
`losses.robust_triplet_loss`), the value, and the backward. A frozen plan
and a given one share the rest, one `triplet_hinges` call included. Per step
the plan is frozen from the current losses and one gradient step is taken on
the resulting objective; gamma2 is read from `Hyper` alone (under
`pace_epochs`, `train` builds each epoch's). Everything is float64 and
deterministic per seed.
"""
from __future__ import annotations

import struct
import time
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from . import pool, selfpaced
from .data import _BLOCKS, Dataset, PairBatch, SectionReader, _row_chunks, batch_iter
from .errors import ConfigError, FormatError, NumericError
from .losses import RtlResult, _infonce_pass, robust_triplet_loss, triplet_hinges
from .selfpaced import BUCKET_NOISY, Partition, SplWeights
from .similarity import NORM_EPS, local_similarity_units

RRSP_MAGIC = b"RRSP"
RRSP_VERSION = 1
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# the fewest outputs of a projection chunk. At one BLAS thread a projection
# GEMM of one row, or of up to about 1200 outputs (rows * dim_out) at dim_in >=
# 32, takes another kernel than the whole block's and can round differently
_MIN_CHUNK_OUTPUTS = 2048
# the fewest output rows of a weight-gradient piece. Every piece repacks all of
# its head's embedding rows: at the paper batch (3700 and 1700 rows, dim 256,
# one BLAS thread) pieces of 32 and 64 output rows took 1.64x the time of one
# product per head, and pieces of 128 rows 1.10x. A piece of one or two rows
# can also round differently from the same rows of the whole product (numpy
# or the BLAS takes another kernel for it).
_MIN_PIECE_ROWS = 128


@dataclass
class Hyper:
    """All scalar knobs in one validated record.

    lr defaults to a desk-scale value; the published fine-tuning rate (7e-6)
    only makes sense for large pretrained encoders.
    """

    tau: float = 0.07
    gamma1: float = 5.0
    gamma2: float = 18.0
    sigma: float = 0.6
    lambda1: float = 0.8
    lambda2: float = 0.9
    alpha: float = 0.9
    lr: float = 1e-3
    weight_decay: float = 0.7
    warmup_steps: int = 200
    max_grad_norm: float = 50.0
    epochs: int = 50
    batch_size: int = 100
    seed: int = 0
    # optional behavior flags (defaults follow the main method)
    rtl_noisy_only: bool = False      # restrict triplet loss to the noisy bucket
    pace_epochs: int = 0              # >0: grow gamma2 linearly over this many epochs
    spl_sum_over_all: bool = False    # L_S2 sums over all pairs below gamma2, not just ambiguous

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float" and not np.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.tau <= 0:
            raise ConfigError(f"tau must be > 0, got {self.tau}")
        if not (0 < self.gamma1 < self.gamma2):
            raise ConfigError(f"need 0 < gamma1 < gamma2, got {self.gamma1}, {self.gamma2}")
        if self.sigma <= 0:
            raise ConfigError(f"sigma must be > 0, got {self.sigma}")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ConfigError("lambda1 and lambda2 must be >= 0")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0")
        if self.warmup_steps < 0:
            raise ConfigError("warmup_steps must be >= 0")
        if self.max_grad_norm <= 0:
            raise ConfigError("max_grad_norm must be > 0")
        if self.epochs < 0 or self.pace_epochs < 0:
            raise ConfigError("epochs and pace_epochs must be >= 0")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")


@dataclass
class ProjectionHeads:
    """Affine maps (one per modality) applied to every global and local row,
    followed by renormalization to unit length."""

    W_img: np.ndarray
    b_img: np.ndarray
    W_txt: np.ndarray
    b_txt: np.ndarray

    @property
    def dim_in(self) -> int:
        return self.W_img.shape[1]

    @property
    def dim_out(self) -> int:
        return self.W_img.shape[0]

    def copy(self) -> "ProjectionHeads":
        return ProjectionHeads(self.W_img.copy(), self.b_img.copy(),
                               self.W_txt.copy(), self.b_txt.copy())

    def params(self) -> Dict[str, np.ndarray]:
        return {"W_img": self.W_img, "b_img": self.b_img,
                "W_txt": self.W_txt, "b_txt": self.b_txt}


def init_heads(dim_in: int, dim_out: Optional[int] = None, seed: int = 0,
               noise_std: float = 0.01) -> ProjectionHeads:
    """Identity-padded init plus small Gaussian noise; biases start at zero."""
    if dim_out is None:
        dim_out = dim_in
    rng = np.random.default_rng(seed)
    def w():
        return np.eye(dim_out, dim_in) + noise_std * rng.normal(size=(dim_out, dim_in))
    return ProjectionHeads(W_img=w(), b_img=np.zeros(dim_out),
                           W_txt=w(), b_txt=np.zeros(dim_out))


# ---------------------------------------------------------------------------
# ablation variants

@dataclass(frozen=True)
class VariantSpec:
    use_local: bool = True
    weighting: str = "spl"          # spl | uniform | hard_to_easy | random
    merge_ambiguous: bool = False   # single threshold gamma1; rest is noisy
    use_rtl: bool = True
    adaptive_margin: bool = True


VARIANTS: Dict[str, VariantSpec] = {
    "full": VariantSpec(),
    "no_local": VariantSpec(use_local=False),
    "no_spl": VariantSpec(weighting="uniform"),
    "no_rtl": VariantSpec(use_rtl=False),
    "none_of_three": VariantSpec(use_local=False, weighting="uniform", use_rtl=False),
    "spl_hard_to_easy": VariantSpec(weighting="hard_to_easy"),
    "spl_random_weights": VariantSpec(weighting="random"),
    "spl_no_ambiguous": VariantSpec(merge_ambiguous=True),
    "fixed_margin_rtl": VariantSpec(adaptive_margin=False),
}
_VARIANT_ALIASES = {f"#{k}": name for k, name in enumerate(
    ["no_local", "no_spl", "no_rtl", "none_of_three", "spl_hard_to_easy",
     "spl_random_weights", "spl_no_ambiguous", "fixed_margin_rtl"], start=1)}


def resolve_variant(name: str) -> VariantSpec:
    key = _VARIANT_ALIASES.get(name, name)
    if key not in VARIANTS:
        raise ConfigError(f"unknown variant {name!r}; choose from "
                          f"{sorted(VARIANTS) + sorted(_VARIANT_ALIASES)}")
    return VARIANTS[key]


# ---------------------------------------------------------------------------
# forward pass

def project(heads: ProjectionHeads, rows,
            parallel: bool = True) -> List[Tuple[np.ndarray, np.ndarray]]:
    """The one projection of embedding rows through the heads, for training
    batches and evaluation sets alike.

    rows holds the four embedding blocks (a PairBatch or a Dataset). For each
    block, in data._BLOCKS order, returns (U, r): its float64 unit rows
    flattened to (rows, dout) and their norms before normalisation, (rows, 1).
    Each modality's two blocks are views into one buffer, global rows first
    (_project_modalities). With parallel false it runs on the calling thread
    at any size; the rows have the same bits either way.
    """
    out = []
    for U, r, n_global in _project_modalities(heads, rows, parallel):
        out += [(U[:n_global], r[:n_global]), (U[n_global:], r[n_global:])]
    return out


def _project_modalities(heads: ProjectionHeads, rows,
                        parallel: bool = True) -> List[Tuple[np.ndarray, np.ndarray, int]]:
    """(U, r, n_global) per modality, image then text: the unit rows of its
    global block and then of its local block in one (rows, dout) buffer U, their
    norms before normalisation r, (rows, 1), and the global block's row count.

    Every block is projected in the row chunks of data._row_chunks, none of
    fewer than _MIN_CHUNK_OUTPUTS outputs (or two rows). Each chunk is one
    task (_project_rows): one GEMM into its part of U, a float32 chunk
    through a float64 upcast of its own, so no float64 copy of a whole
    float32 block is made, then the bias, norms and division over those rows.
    At batch sizes below about data._CHUNK_BYTES per block (the desk shape)
    that is one chunk per block; at the paper batch (100 pairs, 36 + 16
    locals, dim 256) it is 14 chunks. Every row comes out as a whole-block
    projection gives it.

    All chunks of both modalities are one call. Above pool.PARALLEL_WORK
    multiply-adds, unless parallel is false, it runs on the worker pool;
    otherwise its tasks run in order on the calling thread. Either way each
    chunk is the same GEMM on the same operands, and the rest is row by row,
    so the rows have the same bits at every pool size.
    """
    dim = rows.image_global.shape[1]
    if dim != heads.dim_in:
        raise ConfigError(f"dataset dim {dim} does not match heads dim_in {heads.dim_in}")
    on_pool = parallel and pool.parallel(
        sum(getattr(rows, name).size for name in _BLOCKS) * heads.dim_out)
    min_rows = max(2, -(-_MIN_CHUNK_OUTPUTS // heads.dim_out))
    out, tasks = [], []
    for W, b, names in ((heads.W_img, heads.b_img, _BLOCKS[:2]),
                        (heads.W_txt, heads.b_txt, _BLOCKS[2:])):
        X_global, X_local = (getattr(rows, name).reshape(-1, dim) for name in names)
        U = np.empty((len(X_global) + len(X_local), heads.dim_out))
        r = np.empty((len(U), 1))
        for X, at in ((X_global, 0), (X_local, len(X_global))):
            tasks += [(X[r0:r1], W, b, U[at + r0:at + r1], r[at + r0:at + r1])
                      for r0, r1 in _row_chunks(X.shape, min_rows)]
        out.append((U, r, len(X_global)))
    list(pool.run(_project_rows, tasks, on_pool))
    return out


def _project_rows(X: np.ndarray, W: np.ndarray, b: np.ndarray, out: np.ndarray,
                  norm: np.ndarray):
    """out = X @ W.T + b, then its rows divided by their norms, which go to
    norm. A float32 X is upcast first, into a buffer of its own that is freed
    before the normalisation."""
    np.matmul(X if X.dtype == np.float64 else X.astype(np.float64, order="C"), W.T, out=out)
    _unit_rows_in_place(out, norm, b)


def _unit_rows_in_place(Z: np.ndarray, norm: np.ndarray, b: np.ndarray):
    """Z += b, then the rows of Z divided by their norms, which go to norm."""
    Z += b
    # the reduction np.linalg.norm runs, without its copy of Z
    np.sqrt(np.add.reduce(Z * Z, axis=1, keepdims=True), out=norm)
    Z /= np.maximum(norm, NORM_EPS, out=norm)


def forward(heads: ProjectionHeads, batch: PairBatch) -> PairBatch:
    """Apply both heads to all four embedding blocks and renormalize."""
    blocks = [U.reshape(getattr(batch, name).shape[:-1] + (-1,))
              for name, (U, _) in zip(_BLOCKS, project(heads, batch))]
    return PairBatch(batch.indices, *blocks, y=batch.y)


# ---------------------------------------------------------------------------
# the objective: value and analytic gradients

@dataclass(frozen=True)
class FrozenPlan:
    """Everything held constant during the parameter-update step: the partition,
    the per-pair weights (w1/r1, w2/r2 enter L_S1/L_S2), and in rtl the triplet
    margins, the mined negatives and the anchors they apply to (None when the
    triplet term is off); _objective forms L_soft from rtl by triplet_hinges."""

    partition: Partition
    weights: SplWeights
    rtl: Optional[RtlResult]


@dataclass(frozen=True)
class ObjectiveParts:
    L_S1: float
    L_S2: float
    L_soft: float


@dataclass
class BatchState:
    """Result of one objective evaluation at the current parameters."""

    loss: float
    parts: ObjectiveParts
    l_total: np.ndarray
    l_g: np.ndarray
    l_l: Optional[np.ndarray]
    plan: FrozenPlan


def _renorm_backward(dU: np.ndarray, U: np.ndarray, r: np.ndarray) -> np.ndarray:
    """U = Z / r with r = max(||Z||, eps): dZ = (dU - (dU . U) U) / r, formed in
    dU's memory with one temporary. Each row's result depends on that row
    alone, so a block gives the same bits whole or in row chunks."""
    t = dU * U
    np.multiply(np.add.reduce(t, axis=1, keepdims=True), U, out=t)
    dU -= t
    dU /= r
    return dU


def _flat_views(flat: np.ndarray, like: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Views into flat with the keys and shapes of like, laid out in its order."""
    views, start = {}, 0
    for k, p in like.items():
        views[k] = flat[start:start + p.size].reshape(p.shape)
        start += p.size
    return views


def _objective(heads: ProjectionHeads, batch: PairBatch, hyper: Hyper,
               variant: VariantSpec, weight_rng: Optional[np.random.Generator],
               plan: Optional[FrozenPlan], grad: bool
               ) -> Tuple[Optional[Dict[str, np.ndarray]], BatchState]:
    """Per-pair losses, the plan (frozen from them unless given), the objective
    value and, if grad, its analytic gradients w.r.t. all head parameters.

    Each modality's global and local unit rows share one buffer, so the
    renormalisation backward runs over one (rows, dout) block per modality.
    The per-pair InfoNCE of Sg and Sl is one pass over their stack, whose kept
    softmax terms give its backward.

    After Sl's backward the gradient takes two calls of tasks, both on the
    worker pool above pool.PARALLEL_WORK and in order on the calling thread
    below it: the renormalisation backward over the data._row_chunks of both
    modalities' blocks (row-local, so exact), then both heads' (dW, db) in
    pieces of output rows (_weight_grads). At the desk batch each list has
    one task per modality.
    """
    (Ui, ri, b), (Ut, rt, _) = modalities = _project_modalities(heads, batch)
    d1, d2 = batch.image_local.shape[1], batch.text_local.shape[1]
    Uig, Utg = Ui[:b], Ut[:b]
    Sg = Uig @ Utg.T
    layers = [Sg]
    if variant.use_local:
        Sl, local_backward = local_similarity_units(Ui[b:].reshape(b, d1, -1),
                                                    Ut[b:].reshape(b, d2, -1), grad)
        layers.append(Sl)
    l, infonce_grad = _infonce_pass(layers, hyper.tau)
    l_g, l_l = l[0], (l[1] if variant.use_local else None)
    l_total = l_g + l_l if variant.use_local else l_g.copy()

    if plan is None:
        part, weights = selfpaced.compute_weights(
            l_total, hyper.gamma1, hyper.gamma2, variant.weighting, variant.merge_ambiguous,
            hyper.spl_sum_over_all, weight_rng)
        rtl = None
        if variant.use_rtl and hyper.lambda2 > 0:
            mask = part.bucket_codes(b) == BUCKET_NOISY if hyper.rtl_noisy_only else None
            rtl = robust_triplet_loss(Sg, hyper.sigma, variant.adaptive_margin, mask)
        plan = FrozenPlan(part, weights, rtl)
    elif len(plan.weights.w) != b:
        raise ConfigError(f"plan was frozen for {len(plan.weights.w)} pairs, batch has {b}")

    L_S1, L_S2 = plan.weights.spl_losses(l_total)
    L_soft = 0.0
    if plan.rtl is not None:
        h1, h2 = triplet_hinges(Sg, plan.rtl)
        L_soft = float((h1 + h2).sum() / b)
    total = L_S1 + hyper.lambda1 * L_S2 + hyper.lambda2 * L_soft
    if not np.isfinite(total):
        raise NumericError(
            f"non-finite objective: L_S1={L_S1}, L_S2={L_S2}, L_soft={L_soft}")
    state = BatchState(loss=total, parts=ObjectiveParts(L_S1, L_S2, L_soft),
                       l_total=l_total, l_g=l_g, l_l=l_l, plan=plan)
    if not grad:
        return None, state

    # d(total)/d(l_i): weights frozen
    c = (plan.weights.w1 + hyper.lambda1 * plan.weights.w2) / b
    G = infonce_grad(c)

    # global similarity gradient: contrastive part + triplet hinges
    Gg = G[0]
    if plan.rtl is not None:
        a1 = (h1 > 0).astype(np.float64)
        a2 = (h2 > 0).astype(np.float64)
        coef = hyper.lambda2 / b
        rows = np.arange(b)
        Gg[rows, plan.rtl.hard_txt_idx] += coef * a1
        Gg[plan.rtl.hard_img_idx, rows] += coef * a2
        Gg.reshape(-1)[::b + 1] -= coef * (a1 + a2)   # the diagonal, in place

    dUi, dUt = np.empty_like(Ui), np.empty_like(Ut)
    np.matmul(Gg, Utg, out=dUi[:b])
    np.matmul(Gg.T, Uig, out=dUt[:b])
    if variant.use_local:
        local_backward(G[1], out=(dUi[b:].reshape(b, d1, -1), dUt[b:].reshape(b, d2, -1)))
    else:
        dUi[b:] = 0.0
        dUt[b:] = 0.0

    # the renormalisation backward by row chunks, then each head's (dW, db) by
    # pieces of output rows (_weight_grads): two calls, on the pool above
    # pool.PARALLEL_WORK
    on_pool = pool.parallel((Ui.size + Ut.size) * heads.dim_in)
    list(pool.run(_renorm_backward, [(dU[r0:r1], U[r0:r1], r[r0:r1])
                                     for dU, (U, r, _) in zip((dUi, dUt), modalities)
                                     for r0, r1 in _row_chunks(U.shape)], on_pool))
    grads, pieces = {}, []
    for side, dZ, names in zip(("img", "txt"), (dUi, dUt), (_BLOCKS[:2], _BLOCKS[2:])):
        X_global, X_local = (getattr(batch, name) for name in names)
        X_local = X_local.reshape(len(dZ) - b, -1)
        gW = grads["W_" + side] = np.empty((heads.dim_out, heads.dim_in))
        gb = grads["b_" + side] = np.empty(heads.dim_out)
        pieces += [(dZ[:, o0:o1], X_global, X_local, gW[o0:o1], gb[o0:o1])
                   for o0, o1 in _row_chunks((heads.dim_out, len(dZ)), _MIN_PIECE_ROWS)]
    list(pool.run(_weight_grads, pieces, on_pool))
    return grads, state


def _weight_grads(dZ, X_global, X_local, gW, gb):
    """Output rows o0:o1 of one head's (dW, db), written into gW and gb, from
    the columns o0:o1 of dLoss/dZ (global rows first) and the embedding rows
    projected, X_local flattened to (rows, dim_in). Each output element sums
    over the rows in the order the whole product does.

    A head's pieces are the data._row_chunks of dZ's columns, none under
    _MIN_PIECE_ROWS rows: a head whose dZ is within data._CHUNK_BYTES is one
    piece, and a larger one is cut into as many near-equal pieces as the
    budget asks, at most dout // _MIN_PIECE_ROWS. At the paper batch (3700
    and 1700 rows, dout 256) that is two pieces of 128 rows per head, four
    tasks of which the two image pieces come first, so two workers each take
    one image and one text piece; at the desk batch it is one piece per head.
    The pieces come from the shapes alone, so the serial and the pool path
    run the same products."""
    b = len(X_global)
    np.matmul(dZ[:b].T, X_global, out=gW)
    gW += dZ[b:].T @ X_local
    np.sum(dZ[:b], axis=0, out=gb)
    gb += dZ[b:].sum(axis=0)


def batch_objective(heads: ProjectionHeads, batch: PairBatch, hyper: Hyper,
                    variant: VariantSpec = VARIANTS["full"],
                    weight_rng: Optional[np.random.Generator] = None,
                    plan: Optional[FrozenPlan] = None) -> BatchState:
    """Objective value at the current parameters. With plan (a BatchState.plan)
    the weights, partition, margins, negatives and anchors stay frozen: that is the
    function a gradient step descends, and what finite-difference checks perturb."""
    return _objective(heads, batch, hyper, variant, weight_rng, plan, grad=False)[1]


def gradients(heads: ProjectionHeads, batch: PairBatch, hyper: Hyper,
              variant: VariantSpec = VARIANTS["full"],
              weight_rng: Optional[np.random.Generator] = None
              ) -> Tuple[Dict[str, np.ndarray], BatchState]:
    """Analytic gradients of the objective w.r.t. all head parameters.

    Weights, margins, mined negatives, and the partition are treated as
    constants (they are recomputed from the current parameters, then frozen).
    """
    return _objective(heads, batch, hyper, variant, weight_rng, None, grad=True)


def clip_gradients(grads: Dict[str, np.ndarray], max_norm: float) -> float:
    """In-place global-norm clipping; returns the pre-clip norm."""
    total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


def lr_at(step: int, total_steps: int, hyper: Hyper) -> float:
    """Linear warmup from 0 to lr, then cosine decay to 0 at the final step."""
    if step < 0:
        raise ConfigError("step must be >= 0")
    if hyper.warmup_steps > 0 and step < hyper.warmup_steps:
        return hyper.lr * step / hyper.warmup_steps
    span = max(total_steps - hyper.warmup_steps, 1)
    progress = min((step - hyper.warmup_steps) / span, 1.0)
    return hyper.lr * 0.5 * (1.0 + np.cos(np.pi * progress))


class Adam:
    """AdamW-style optimizer: decoupled weight decay on the W matrices only.

    The first and second moments are each one flat buffer holding the four
    parameters in params() order (m and v are dicts of views into them), so a
    step forms every update in a handful of whole-buffer operations. Each
    element's update is the same arithmetic as a per-parameter update.
    """

    def __init__(self, heads: ProjectionHeads, weight_decay: float = 0.0):
        self.heads = heads
        self.weight_decay = weight_decay
        self.t = 0
        params = heads.params()
        self._m = np.zeros(sum(p.size for p in params.values()))
        self._v = np.zeros_like(self._m)
        self.m = _flat_views(self._m, params)
        self.v = _flat_views(self._v, params)

    def step(self, grads: Dict[str, np.ndarray], lr: float) -> None:
        self.t += 1
        params = self.heads.params()
        g = np.concatenate([np.ravel(grads[k]) for k in params])
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        self._m *= ADAM_BETA1
        self._m += (1 - ADAM_BETA1) * g
        self._v *= ADAM_BETA2
        g2 = g * g
        g2 *= 1 - ADAM_BETA2
        self._v += g2
        # lr * update, update = (m / bc1) / (sqrt(v / bc2) + eps), in g2's memory
        np.divide(self._v, bc2, out=g2)
        np.sqrt(g2, out=g2)
        g2 += ADAM_EPS
        np.divide(self._m / bc1, g2, out=g2)
        g2 *= lr
        for (k, param), step in zip(params.items(), _flat_views(g2, params).values()):
            param -= step
            if self.weight_decay > 0 and k.startswith("W"):
                param -= lr * self.weight_decay * param


# ---------------------------------------------------------------------------
# training loop and logs

@dataclass
class EpochRecord:
    epoch: int
    loss_overall: float
    loss_s1: float
    loss_s2: float
    loss_soft: float
    n_clean: int
    n_ambiguous: int
    n_noisy: int
    mean_weight: float
    mean_weight_true: Optional[float]    # y=1 pairs
    mean_weight_false: Optional[float]   # y=0 pairs
    weight_hist: List[int]               # 10 uniform bins over [0, 1]
    mean_margin: Optional[float]
    grad_norm: float
    lr: float
    val_mr: Optional[float]
    wall_clock_sec: float

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class EpochTrace:
    """Per-pair snapshot of one epoch: loss, weight, and bucket for every pair seen."""

    epoch: int
    pair_id: np.ndarray
    y: np.ndarray
    l_total: np.ndarray
    w: np.ndarray
    bucket: np.ndarray  # 0 clean, 1 ambiguous, 2 noisy

    def to_csv(self, path: str) -> None:
        with open(path, "w") as f:
            f.write("epoch,pair_id,y,l_total,w,bucket\n")
            for i in range(len(self.pair_id)):
                f.write(f"{self.epoch},{self.pair_id[i]},{self.y[i]},"
                        f"{self.l_total[i]:.10g},{self.w[i]:.10g},{self.bucket[i]}\n")


@dataclass
class TrainLog:
    records: List[EpochRecord] = field(default_factory=list)
    traces: Dict[int, EpochTrace] = field(default_factory=dict)
    final_trace: Optional[EpochTrace] = None
    best_epoch: Optional[int] = None
    variant: str = "full"

    def to_jsonl(self, path: str) -> None:
        import json
        with open(path, "w") as f:
            for rec in self.records:
                f.write(json.dumps(rec.to_dict()) + "\n")


def _mean_or_none(values: np.ndarray, mask: np.ndarray) -> Optional[float]:
    return float(values[mask].mean()) if mask.any() else None


def train(dataset: Dataset, hyper: Hyper, val_dataset: Optional[Dataset] = None,
          variant: str = "full", trace_epochs: Iterable[int] = (),
          ) -> Tuple[ProjectionHeads, TrainLog]:
    """Alternating optimization: closed-form weights, then one Adam step per batch.

    Deterministic for fixed (dataset, hyper, seed). If val_dataset is given the
    returned heads are the best-validation-mR checkpoint, otherwise the final
    parameters. The final epoch's per-pair trace is always retained.
    """
    from .evaluation import evaluate  # local import to avoid a module cycle

    vspec = resolve_variant(variant)
    heads = init_heads(dataset.dim, seed=hyper.seed)
    log = TrainLog(variant=variant)
    if hyper.epochs == 0:
        return heads, log

    n = dataset.n_pairs
    bs = hyper.batch_size
    rem = n % bs
    steps_per_epoch = n // bs + (1 if rem >= 2 else 0)
    if steps_per_epoch == 0:
        raise ConfigError(f"dataset of {n} pairs yields no batch of size >= 2")
    total_steps = hyper.epochs * steps_per_epoch

    opt = Adam(heads, weight_decay=hyper.weight_decay)
    weight_rng = np.random.default_rng((hyper.seed, 0x5EED))
    trace_wanted = set(int(e) for e in trace_epochs)
    best_mr = -np.inf
    best_heads = heads.copy()
    step = 0

    for epoch in range(1, hyper.epochs + 1):
        t0 = time.perf_counter()
        epoch_hyper = hyper
        if hyper.pace_epochs > 0:
            frac = min(1.0, epoch / hyper.pace_epochs)
            g2 = hyper.gamma1 + (hyper.gamma2 - hyper.gamma1) * frac
            epoch_hyper = replace(hyper, gamma2=g2)

        sums = np.zeros(4)  # loss, s1, s2, soft
        margin_sum, margin_n = 0.0, 0
        grad_norm_sum = 0.0
        n_batches = 0
        ep_ids, ep_y, ep_l, ep_w, ep_bucket = [], [], [], [], []

        for batch in batch_iter(dataset, bs, epoch_seed=hyper.seed * 1_000_003 + epoch):
            try:
                grads, state = gradients(heads, batch, epoch_hyper, vspec, weight_rng)
            except NumericError as e:
                raise NumericError(
                    f"training diverged at epoch {epoch} step {step}: {e}") from e
            grad_norm_sum += clip_gradients(grads, hyper.max_grad_norm)
            cur_lr = lr_at(step, total_steps, hyper)
            opt.step(grads, cur_lr)
            step += 1
            n_batches += 1

            sums += (state.loss, state.parts.L_S1, state.parts.L_S2, state.parts.L_soft)
            plan = state.plan
            if plan.rtl is not None:
                margin_sum += float(plan.rtl.mu_hat.sum() + plan.rtl.zeta_hat.sum())
                margin_n += 2 * batch.size
            ep_ids.append(batch.indices)
            ep_y.append(batch.y)
            ep_l.append(state.l_total)
            ep_w.append(plan.weights.w)
            ep_bucket.append(plan.partition.bucket_codes(batch.size))

        ids = np.concatenate(ep_ids)
        order = np.argsort(ids, kind="stable")
        trace = EpochTrace(epoch=epoch,
                           pair_id=ids[order],
                           y=np.concatenate(ep_y)[order],
                           l_total=np.concatenate(ep_l)[order],
                           w=np.concatenate(ep_w)[order],
                           bucket=np.concatenate(ep_bucket)[order])
        if epoch in trace_wanted:
            log.traces[epoch] = trace
        log.final_trace = trace

        val_mr = None
        if val_dataset is not None:
            val_mr = evaluate(heads, val_dataset, hyper).mr
            if val_mr > best_mr:
                best_mr = val_mr
                best_heads = heads.copy()
                log.best_epoch = epoch

        w_all = trace.w
        y_all = trace.y
        counts = np.bincount(trace.bucket, minlength=3)
        log.records.append(EpochRecord(
            epoch=epoch,
            loss_overall=float(sums[0] / n_batches),
            loss_s1=float(sums[1] / n_batches),
            loss_s2=float(sums[2] / n_batches),
            loss_soft=float(sums[3] / n_batches),
            n_clean=int(counts[0]),
            n_ambiguous=int(counts[1]),
            n_noisy=int(counts[2]),
            mean_weight=float(w_all.mean()),
            mean_weight_true=_mean_or_none(w_all, y_all == 1),
            mean_weight_false=_mean_or_none(w_all, y_all == 0),
            weight_hist=np.histogram(w_all, bins=10, range=(0.0, 1.0))[0].tolist(),
            mean_margin=(margin_sum / margin_n) if margin_n else None,
            grad_norm=float(grad_norm_sum / n_batches),
            lr=float(lr_at(step - 1, total_steps, hyper)),
            val_mr=val_mr,
            wall_clock_sec=time.perf_counter() - t0,
        ))

    if val_dataset is not None:
        return best_heads, log
    return heads, log


# ---------------------------------------------------------------------------
# checkpoints

def save_heads(heads: ProjectionHeads, path: str) -> None:
    """RRSP binary: header then float64 blocks W_img, b_img, W_txt, b_txt."""
    with open(path, "wb") as f:
        f.write(RRSP_MAGIC)
        f.write(struct.pack("<3I", RRSP_VERSION, heads.dim_out, heads.dim_in))
        for arr in (heads.W_img, heads.b_img, heads.W_txt, heads.b_txt):
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_heads(path: str) -> ProjectionHeads:
    """Read an RRSP checkpoint through data.SectionReader, so a regular file
    too short for the dims in its header fails before any block is allocated.
    A block holding NaN or inf is refused: such heads would rank every item
    first and report a perfect score."""
    with open(path, "rb") as f:
        r = SectionReader(f)
        magic = r.raw(4, "magic")
        if magic != RRSP_MAGIC:
            raise FormatError(f"bad magic {magic!r} at byte offset 0, expected {RRSP_MAGIC!r}")
        version, dout, din = struct.unpack("<3I", r.raw(12, "header"))
        if version != RRSP_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        if dout < 1 or din < 1:
            raise FormatError(f"invalid checkpoint dims {dout}x{din}")
        blocks = {}
        for name, shape in (("W_img", (dout, din)), ("b_img", (dout,)),
                            ("W_txt", (dout, din)), ("b_txt", (dout,))):
            blocks[name] = r.array(shape, "<f8", name)
            if not np.isfinite(blocks[name]).all():
                raise FormatError(f"non-finite value in checkpoint block {name!r}")
        r.expect_eof()
    return ProjectionHeads(**blocks)
