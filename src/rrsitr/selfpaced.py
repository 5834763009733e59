"""Loss-based clean/ambiguous/noisy partition, the self-paced regularizer with its
closed-form optimal weights, and the per-pair weighting of the two self-paced terms
L_S1 (clean bucket) and L_S2 (ambiguous bucket) of the training objective."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigError

BUCKET_CLEAN = 0
BUCKET_AMBIGUOUS = 1
BUCKET_NOISY = 2
BUCKET_NAMES = ("clean", "ambiguous", "noisy")


@dataclass(frozen=True)
class Partition:
    """Disjoint index sets by per-pair loss against the two pace thresholds."""

    clean_idx: np.ndarray
    ambiguous_idx: np.ndarray
    noisy_idx: np.ndarray

    def bucket_codes(self, b: int) -> np.ndarray:
        codes = np.empty(b, dtype=np.int8)
        codes[self.clean_idx] = BUCKET_CLEAN
        codes[self.ambiguous_idx] = BUCKET_AMBIGUOUS
        codes[self.noisy_idx] = BUCKET_NOISY
        return codes


@dataclass(frozen=True)
class SplWeights:
    """Per-pair importance weights and the coefficients of the self-paced
    terms: L_S1 = (1/b) sum_i w1_i*l_i + r1_i and L_S2 likewise with w2, r2
    (both zero outside the term's scope)."""

    w: np.ndarray           # (b,) in [0, 1]; 0 for the noisy bucket
    w1: np.ndarray
    r1: np.ndarray          # regularizer values R(w1_i, gamma1), constants
    w2: np.ndarray
    r2: np.ndarray

    def spl_losses(self, l_total: np.ndarray) -> Tuple[float, float]:
        """(L_S1, L_S2) at per-pair losses l_total with these weights held fixed."""
        b = len(l_total)
        return (float((self.w1 * l_total + self.r1).sum() / b),
                float((self.w2 * l_total + self.r2).sum() / b))


def _check_gammas(gamma1: float, gamma2: float) -> None:
    if not (0 < gamma1 < gamma2):
        raise ConfigError(f"need 0 < gamma1 < gamma2, got gamma1={gamma1}, gamma2={gamma2}")


def _bucket_masks(l: np.ndarray, gamma1: float, gamma2: float):
    """Boolean (clean, ambiguous, noisy) masks: l < gamma1 clean,
    gamma1 <= l < gamma2 ambiguous, l >= gamma2 noisy."""
    _check_gammas(gamma1, gamma2)
    return l < gamma1, (l >= gamma1) & (l < gamma2), l >= gamma2


def _regularizer_values(w: np.ndarray, gamma: float) -> np.ndarray:
    """The self-paced penalty R(w, gamma) = -(2/pi)*gamma*(w*arccos(w) - sqrt(1 - w^2))
    at weights w in [0, 1], whatever l is; R applies where l < gamma, and the
    minimizer over w of w*l + R(w, gamma) there is optimal_weight."""
    return -(2.0 / np.pi) * gamma * (w * np.arccos(w) - np.sqrt(1.0 - w ** 2))


def optimal_weight(l, gamma: float) -> np.ndarray | float:
    """Closed-form minimizer of w*l + R(w, gamma): cos(pi/2 * l/gamma) for l < gamma, else 0."""
    if gamma <= 0:
        raise ConfigError(f"gamma must be > 0, got {gamma}")
    l_arr = np.asarray(l, dtype=np.float64)
    out = np.where(l_arr < gamma, np.cos(0.5 * np.pi * l_arr / gamma), 0.0)
    return float(out) if out.ndim == 0 else out


def compute_weights(l_total: np.ndarray, gamma1: float, gamma2: float,
                    weighting: str = "spl", merge_ambiguous: bool = False,
                    sum_over_all: bool = False, rng: Optional[np.random.Generator] = None
                    ) -> Tuple[Partition, SplWeights]:
    """Partition the batch and assign each pair its weight.

    spl: clean pairs get the closed-form weight under gamma1, ambiguous pairs
    under gamma2, noisy pairs w=0. hard_to_easy uses 1 - that weight below each
    threshold; uniform gives every pair w1=1 and no regularizer; random draws
    w1 ~ U[0, 1) from rng. merge_ambiguous moves the ambiguous bucket into the
    noisy one; sum_over_all lets L_S2 cover every pair below gamma2.
    """
    l = np.asarray(l_total, dtype=np.float64)
    b = len(l)
    clean, ambiguous, noisy = _bucket_masks(l, gamma1, gamma2)
    if merge_ambiguous:
        ambiguous, noisy = np.zeros(b, dtype=bool), ambiguous | noisy
    part = Partition(*(np.flatnonzero(mask) for mask in (clean, ambiguous, noisy)))
    zeros = np.zeros(b)
    if weighting == "uniform":
        w = w1 = np.ones(b)
        r1 = w2 = r2 = zeros
    elif weighting == "random":
        if rng is None:
            raise ConfigError("random weighting needs an RNG")
        w = w1 = rng.uniform(size=b)
        r1 = w2 = r2 = zeros
    elif weighting in ("spl", "hard_to_easy"):
        # The clean bucket is l < gamma1 and the L_S2 scope lies below gamma2,
        # so each term's weights and penalties need no second threshold test;
        # clipping to [0, 1] keeps _regularizer_values inside its domain.
        wc = np.asarray(optimal_weight(l, gamma1))
        wa = np.asarray(optimal_weight(l, gamma2))
        if weighting == "hard_to_easy":
            wc = np.where(clean, 1.0 - wc, 0.0)
            wa = np.where(l < gamma2, 1.0 - wa, 0.0)
        w1 = wc
        r1 = np.where(clean, _regularizer_values(np.clip(w1, 0, 1), gamma1), 0.0)
        scope2 = (l < gamma2) if sum_over_all and not merge_ambiguous else ambiguous
        w2 = np.where(scope2, wa, 0.0)
        r2 = np.where(scope2, _regularizer_values(np.clip(w2, 0, 1), gamma2), 0.0)
        w = np.where(clean, w1, np.where(ambiguous, wa, 0.0))
    else:
        raise ConfigError(f"unknown weighting {weighting!r}")
    return part, SplWeights(w=w, w1=w1, r1=r1, w2=w2, r2=r2)
