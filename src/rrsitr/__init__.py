"""Robust image-text retrieval under noisy correspondence, at desk scale.

Self-paced sample weighting with a closed-form solution, loss-based
clean/ambiguous/noisy partitioning, an adaptive-margin robust triplet loss,
and a deterministic float64 trainer over synthetic or precomputed paired
embeddings.

Import the submodules (rrsitr.data, rrsitr.trainer, ...) directly. The
package itself loads nothing, so `rrsitr --threads` can cap the BLAS pool
before numpy starts it.
"""

__version__ = "0.1.0"
