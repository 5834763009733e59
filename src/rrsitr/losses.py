"""Symmetric InfoNCE contrastive losses and the adaptive-margin robust triplet loss."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class RtlResult:
    """The robust triplet loss's plan: the mined negatives, the margins, and
    the anchors they apply to. triplet_hinges forms the loss from it."""

    mu_hat: np.ndarray        # (b,) image->text soft margins
    zeta_hat: np.ndarray      # (b,) text->image soft margins
    hard_txt_idx: np.ndarray  # (b,) hardest text negative per image anchor
    hard_img_idx: np.ndarray  # (b,) hardest image negative per text anchor
    include: Optional[np.ndarray] = None   # (b,) boolean anchor mask, None for all


def infonce_per_pair(S: np.ndarray, tau: float) -> np.ndarray:
    """Per-pair symmetric InfoNCE: l[j] = -(log p_row[j,j] + log p_col[j,j]).

    p_row/p_col are softmax over S/tau along rows (image->text) and columns
    (text->image); the mean of l over the batch is the usual batch loss.
    """
    if tau <= 0:
        raise ConfigError(f"tau must be > 0, got {tau}")
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape[0] < 2:
        raise ConfigError(f"S must be square with b >= 2, got shape {S.shape}")
    return _infonce_pass([S], tau)[0][0]


def _infonce_pass(layers, tau: float):
    """Per-pair symmetric InfoNCE of each square similarity matrix in layers,
    in one pass over their (k, b, b) stack, and its backward.

    Returns (l, grad). l is (k, b): l[i] holds layers[i]'s per-pair losses.
    grad(c) is the (k, b, b) stack of the gradients of sum_j c_j * l[i, j]
    w.r.t. layers[i], for per-pair weights c of shape (b,); it may be called
    once. The forward keeps the row and column softmax numerators
    exp(z - max) and their sums, so the backward only divides them: each
    probability is the one a fresh softmax gives.
    """
    k, b = len(layers), layers[0].shape[0]
    z = np.empty((k, b, b))
    for zi, S in zip(z, layers):
        np.divide(S, tau, out=zi)
    diag = z.reshape(k, b * b)[:, ::b + 1].copy()   # z[:, j, j], before z is reused
    rmax = z.max(axis=2, keepdims=True)
    cmax = z.max(axis=1, keepdims=True)
    er = np.subtract(z, rmax)
    np.exp(er, out=er)
    ec = np.exp(np.subtract(z, cmax, out=z), out=z)
    rsum = er.sum(axis=2, keepdims=True)
    csum = ec.sum(axis=1, keepdims=True)
    # log p_row[j, j] = (z[j, j] - rmax[j]) - log rsum[j], likewise by column
    l = -(((diag - rmax[:, :, 0]) - np.log(rsum[:, :, 0]))
          + ((diag - cmax[:, 0, :]) - np.log(csum[:, 0, :])))

    def grad(c: np.ndarray) -> np.ndarray:
        # p_row * c_i + p_col * c_j, formed in the kept numerators' memory:
        # grad is called at most once
        G = np.divide(er, rsum, out=er)
        G *= c[:, None]
        P = np.divide(ec, csum, out=ec)
        P *= c
        G += P
        G.reshape(k, b * b)[:, ::b + 1] -= 2.0 * c   # the diagonal, in place
        G /= tau
        return G

    return l, grad


def hardest_negatives(Sg: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Most-similar non-matching text per image and image per text.

    hard_txt_idx[i] = argmax_{j != i} Sg[i, j]; hard_img_idx[i] = argmax_{j != i} Sg[j, i].
    Ties break toward the lowest index (np.argmax convention).
    """
    Sg = np.asarray(Sg, dtype=np.float64)
    b = Sg.shape[0]
    if b < 2:
        raise ConfigError("need b >= 2 to mine negatives")
    masked = Sg.copy()
    np.fill_diagonal(masked, -np.inf)
    return masked.argmax(axis=1), masked.argmax(axis=0)


def adaptive_margins(Sg: np.ndarray, hard_txt_idx: np.ndarray, hard_img_idx: np.ndarray,
                     sigma: float) -> Tuple[np.ndarray, np.ndarray]:
    """Soft margins sigma*(1 + max(0, hardest_negative - positive)) per direction."""
    if sigma <= 0:
        raise ConfigError(f"sigma must be > 0, got {sigma}")
    b = Sg.shape[0]
    rows = np.arange(b)
    pos = Sg[rows, rows]
    mu_hat = sigma * (1.0 + np.maximum(0.0, Sg[rows, hard_txt_idx] - pos))
    zeta_hat = sigma * (1.0 + np.maximum(0.0, Sg[hard_img_idx, rows] - pos))
    return mu_hat, zeta_hat


def triplet_hinges(Sg: np.ndarray, rtl: RtlResult) -> Tuple[np.ndarray, np.ndarray]:
    """Per-anchor hinges of Sg at the margins, negatives and anchors frozen in rtl.

    h1_i = [mu_i - pos_i + Sg[i, hard_txt_i]]_+, h2_i = [zeta_i - pos_i + Sg[hard_img_i, i]]_+;
    anchors outside rtl.include contribute zero. Sg may differ from the matrix
    rtl was mined from: the hinges move with it while the plan stays as mined.
    """
    rows = np.arange(Sg.shape[0])
    pos = Sg[rows, rows]
    h1 = np.maximum(0.0, rtl.mu_hat - pos + Sg[rows, rtl.hard_txt_idx])
    h2 = np.maximum(0.0, rtl.zeta_hat - pos + Sg[rtl.hard_img_idx, rows])
    if rtl.include is not None:
        h1 = h1 * rtl.include
        h2 = h2 * rtl.include
    return h1, h2


def robust_triplet_loss(Sg: np.ndarray, sigma: float, adaptive: bool = True,
                        include: Optional[np.ndarray] = None) -> RtlResult:
    """The soft margins, hardest in-batch negatives and anchors of the hinge loss

    loss = (1/b) * sum_i [mu_i - pos_i + hard_txt_i]_+ + [zeta_i - pos_i + hard_img_i]_+,

    whose per-anchor hinges triplet_hinges(Sg, result) forms; the sum is
    always normalized by the full batch size. With adaptive=False the margins
    are the constant sigma. `include` is an optional boolean mask restricting
    which anchors contribute; the result keeps it.
    """
    Sg = np.asarray(Sg, dtype=np.float64)
    b = Sg.shape[0]
    if b < 2:
        raise ConfigError("need b >= 2")
    ht, hi = hardest_negatives(Sg)
    if adaptive:
        mu_hat, zeta_hat = adaptive_margins(Sg, ht, hi, sigma)
    else:
        if sigma <= 0:
            raise ConfigError(f"sigma must be > 0, got {sigma}")
        mu_hat = np.full(b, sigma)
        zeta_hat = np.full(b, sigma)
    if include is not None:
        include = np.asarray(include, dtype=bool)
        if include.shape != (b,):
            raise ConfigError("include mask must be (b,)")
    return RtlResult(mu_hat=mu_hat, zeta_hat=zeta_hat, hard_txt_idx=ht, hard_img_idx=hi,
                     include=include)
