"""Robust image-text retrieval under noisy correspondence, at desk scale.

Self-paced sample weighting with a closed-form solution, loss-based
clean/ambiguous/noisy partitioning, an adaptive-margin robust triplet loss,
and a deterministic float64 trainer over synthetic or precomputed paired
embeddings.

Import the submodules (rrsitr.data, rrsitr.trainer, ...) directly. The
package itself loads nothing, so the rrsitr command can pin BLAS to one thread
before numpy starts it. The cores are used by rrsitr.pool's worker threads
instead, whose count `rrsitr --threads` sets; every output has the same bits
at any count.
"""

__version__ = "0.1.0"
