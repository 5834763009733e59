"""Digests of the program's outputs on small fixed worlds, pinned in
golden_digests.json beside this file and compared by test_golden.py.

A training case trains heads on a noised world and digests:
- heads: the trained heads' float64 bytes;
- records: every EpochRecord except wall_clock_sec;
- trace: the final epoch's per-pair trace;
- reports: the evaluate report on the clean held-out set at the run's alpha,
  at alpha 0 and at alpha 1.
The cases are the nine variants under four settings (default,
rtl_noisy_only, pace_epochs, spl_sum_over_all), then the full method at one
shape of each Sl kernel, where batch_objective and gradients are also
digested on one batch. The full/gram/chunked case trains the Gram shape again
under a data._CHUNK_BYTES of CHUNKED_BYTES and weight-gradient pieces of at
least CHUNKED_PIECE_ROWS rows, where every task list of a training step cuts
each local block into two or more chunks or pieces, on the serial path too;
its digests were computed by a tree that formed every training projection and
weight gradient as one whole-block product, and equal full/gram's. One more
case digests three Adam steps. Floats go to JSON by repr and arrays by their
bytes, so a digest moves with any bit of any float64.

BLAS runs at one thread, so each GEMM sums in one order. --workers sets the
worker pool's size (rrsitr.pool), and --force-parallel sets its work
threshold to 0, so that every call that can run on the pool does, even at
these small shapes; the digests must not move with either. Run it as

    PYTHONPATH=src python tests/golden.py            # print the digests as JSON
    PYTHONPATH=src python tests/golden.py --workers 2 --force-parallel
    PYTHONPATH=src python tests/golden.py --write    # rewrite golden_digests.json
"""
import os

# BLAS reads its thread count when numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402

import numpy as np  # noqa: E402

from rrsitr import data, pool, trainer  # noqa: E402
from rrsitr.cli import _blas  # noqa: E402
from rrsitr.data import NoiseSpec, batch_iter, generate_synthetic, inject_noise  # noqa: E402
from rrsitr.evaluation import evaluate  # noqa: E402
from rrsitr.similarity import _gram_chosen  # noqa: E402
from rrsitr.trainer import (VARIANTS, Adam, Hyper, batch_objective,  # noqa: E402
                            gradients, init_heads, train)

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_digests.json")
SETTINGS = {"default": {}, "rtl_noisy_only": {"rtl_noisy_only": True},
            "pace_epochs": {"pace_epochs": 3}, "spl_sum_over_all": {"spl_sum_over_all": True}}
# (n_train, dim, d1, d2) of the one shape per Sl kernel; the Gram one spans
# two strips (dim > GRAM_BLOCK)
KERNEL_SHAPES = {"direct": (120, 64, 4, 4), "gram": (120, 40, 10, 8)}
# at the Gram shape these cut the training step's local blocks into 4 row
# chunks each, its (440, 40) and (360, 40) unit rows into 5 and 4, the weight
# gradients into 5 and 4 pieces and each Sl backward strip into 4 + 4 chunks
CHUNKED_BYTES, CHUNKED_PIECE_ROWS = 32 << 10, 8


def _sha(*parts) -> str:
    """sha256 of arrays (dtype, shape and bytes) and JSON-able values."""
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(f"{p.dtype.str}{p.shape}".encode())
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(json.dumps(p, sort_keys=True).encode())
    return h.hexdigest()


def _world(n_train: int, dim: int, d1: int, d2: int):
    """A noised training set (rho 0.4) and a clean held-out set of a quarter
    its size, from one generated world."""
    n_test = n_train // 4
    ds = generate_synthetic(n_train + n_test, 8, dim, d1, d2, intra_class_spread=0.3, seed=1)
    noised = inject_noise(ds.subset(np.arange(n_train)), NoiseSpec(rho=0.4, seed=2))
    return noised, ds.subset(np.arange(n_train, n_train + n_test))


def _train_case(noised, test, hyper: Hyper, variant: str) -> dict:
    heads, log = train(noised, hyper, val_dataset=test, variant=variant)
    records = [{k: v for k, v in r.to_dict().items() if k != "wall_clock_sec"}
               for r in log.records]
    t = log.final_trace
    reports = [evaluate(heads, test, replace(hyper, alpha=a)).to_dict()
               for a in (hyper.alpha, 0.0, 1.0)]
    return {"heads": _sha(*heads.params().values()), "records": _sha(records),
            "trace": _sha(t.pair_id, t.y, t.l_total, t.w, t.bucket), "reports": _sha(reports)}


def _objective_cases(noised, kernel: str) -> dict:
    heads = init_heads(noised.dim, seed=3, noise_std=0.1)
    batch, hyper = next(batch_iter(noised, 40, epoch_seed=0)), Hyper()
    state = batch_objective(heads, batch, hyper)
    grads, gstate = gradients(heads, batch, hyper)
    return {
        f"objective/{kernel}": {"value": _sha([state.loss, *vars(state.parts).values()]),
                                "losses": _sha(state.l_g, state.l_l)},
        f"gradients/{kernel}": {"value": _sha([gstate.loss, *vars(gstate.parts).values()]),
                                "grads": _sha(*(grads[k] for k in sorted(grads)))},
    }


def _adam_case() -> dict:
    # gradients down to 1e-12, where sqrt(v) falls below eps and eps enters
    # the update's bits; trained gradients are too large for that
    heads = init_heads(8, seed=4)
    opt = Adam(heads, weight_decay=0.7)
    rng = np.random.default_rng(5)
    for _ in range(3):
        opt.step({k: rng.normal(size=p.shape) * 10.0 ** rng.integers(-12, 1, size=p.shape)
                  for k, p in heads.params().items()}, lr=1e-3)
    return {"heads": _sha(*heads.params().values())}


def digests() -> dict:
    cases = {}
    hyper = Hyper(epochs=3, batch_size=40, warmup_steps=5, seed=11)
    noised, test = _world(240, 16, 4, 3)
    for variant in VARIANTS:
        for setting, knobs in SETTINGS.items():
            cases[f"{variant}/{setting}"] = _train_case(noised, test, replace(hyper, **knobs),
                                                        variant)
    for kernel, (n, dim, d1, d2) in KERNEL_SHAPES.items():
        assert _gram_chosen(d1, d2, dim) == (kernel == "gram"), kernel
        noised, test = _world(n, dim, d1, d2)
        cases[f"full/{kernel}"] = _train_case(noised, test, replace(hyper, epochs=2), "full")
        cases.update(_objective_cases(noised, kernel))
    budgets = data._CHUNK_BYTES, trainer._MIN_PIECE_ROWS
    data._CHUNK_BYTES, trainer._MIN_PIECE_ROWS = CHUNKED_BYTES, CHUNKED_PIECE_ROWS
    try:
        cases["full/gram/chunked"] = _train_case(noised, test, replace(hyper, epochs=2), "full")
    finally:
        data._CHUNK_BYTES, trainer._MIN_PIECE_ROWS = budgets
    cases["adam"] = _adam_case()
    return {"numpy": np.__version__, "blas": _blas(), "cases": cases}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="digest the program's outputs")
    parser.add_argument("--workers", type=int, help="worker pool size (default: every core)")
    parser.add_argument("--force-parallel", action="store_true",
                        help="run every call that can use the pool on it, whatever its size")
    parser.add_argument("--write", action="store_true", help="rewrite golden_digests.json")
    args = parser.parse_args()
    pool.set_workers(args.workers)
    if args.force_parallel:
        pool.PARALLEL_WORK = 0
    doc = digests()
    if args.write:
        with open(PATH, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    else:
        json.dump(doc, sys.stdout)
