"""Robust image-text retrieval under noisy correspondence, at desk scale.

Self-paced sample weighting with a closed-form solution, loss-based
clean/ambiguous/noisy partitioning, an adaptive-margin robust triplet loss,
and a deterministic float64 trainer over synthetic or precomputed paired
embeddings.
"""

from .data import (Dataset, NoiseSpec, PairBatch, batch_iter, generate_synthetic,
                   inject_noise, read_dataset, write_dataset)
from .errors import (ConfigError, DataError, FormatError, NumericError, RrsitrError)
from .evaluation import (DetectionReport, RetrievalReport, detection_metrics,
                         evaluate, recall_at_k)
from .losses import (RtlResult, adaptive_margins, hardest_negatives, infonce_per_pair,
                     robust_triplet_loss, triplet_hinges)
from .selfpaced import (Partition, SplWeights, compute_weights, optimal_weight,
                        optimal_weight_oracle, partition, regularizer)
from .similarity import fused_similarity, global_similarity, local_similarity
from .trainer import (Adam, Hyper, ProjectionHeads, TrainLog, VARIANTS, batch_objective,
                      forward, gradients, init_heads, load_heads, lr_at,
                      save_heads, train)

__version__ = "0.1.0"
