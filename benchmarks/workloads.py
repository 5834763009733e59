"""Workload shapes, input generation from a seed, and the program calls shared by
the untraced and the traced runs.

Every workload generates one synthetic world from its seed: a noisy training set
(rho of the texts shuffled) and a clean held-out set of the same world. Both
are written as RRSE files and read back, so the program sees only those files'
contents. The eval workload also trains and saves a checkpoint during set-up.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, replace
from time import perf_counter
from typing import List, Optional, Tuple

import numpy as np

from rrsitr import cli
from rrsitr.data import (Dataset, NoiseSpec, batch_iter, generate_synthetic, inject_noise,
                         read_dataset, write_dataset)
from rrsitr.evaluation import detection_metrics, evaluate
from rrsitr.trainer import (VARIANTS, Adam, Hyper, ProjectionHeads, TrainLog, clip_gradients,
                            gradients, init_heads, lr_at, save_heads, train)

from timing import Recorder

SETUP_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    body: str            # "train": the timed body is trainer.train; "cli_eval": `rrsitr eval`
    n_train: int         # noisy training pairs
    n_held: int          # clean held-out pairs (validation or test set)
    dim: int
    d1: int
    d2: int
    batch: int
    epochs: int          # of the timed train, or of the checkpoint train for cli_eval
    validate: bool       # train evaluates the held-out set every epoch
    spread: float        # generator intra-class spread, chosen so mr stays well below 100
    rho: float = 0.4
    classes: int = 20
    warmup: int = 10

    def hyper(self, seed: int) -> Hyper:
        return Hyper(epochs=self.epochs, batch_size=self.batch, seed=seed,
                     warmup_steps=self.warmup)

    @property
    def steps_per_epoch(self) -> int:
        return self.n_train // self.batch + (1 if self.n_train % self.batch >= 2 else 0)

    @property
    def pairs_per_epoch(self) -> int:
        return min(self.n_train, self.steps_per_epoch * self.batch)

    def shape(self) -> str:
        return (f"n_train={self.n_train} n_held={self.n_held} dim={self.dim} d1={self.d1} "
                f"d2={self.d2} batch={self.batch} epochs={self.epochs} rho={self.rho} "
                f"spread={self.spread} validate={self.validate}")


WORKLOADS = {
    # Sl forward/backward dominate the step and per-epoch validation is ~40 % of
    # the run: where a Gram-form Sl or a cheaper evaluate must show.
    "train_desk": Workload("train_desk", "train", n_train=2000, n_held=500, dim=32, d1=8,
                           d2=8, batch=100, epochs=3, validate=True, spread=0.3),
    # Paper-like shape: the direct Sl kernel beats the Gram form here and evaluate
    # is off the timed path, so a change tuned for desk shapes that costs this shows.
    "train_paper": Workload("train_paper", "train", n_train=1000, n_held=300, dim=256,
                            d1=36, d2=16, batch=100, epochs=1, validate=False, spread=0.1),
    # Retrieval at n x n with no backward: puts cli, read_dataset, load_heads,
    # evaluate and recall_at_k on the timed path.
    "eval_desk": Workload("eval_desk", "cli_eval", n_train=2000, n_held=1000, dim=32, d1=8,
                          d2=8, batch=100, epochs=2, validate=False, spread=0.3),
}


def make_world(w: Workload, seed: int, rec: Recorder) -> Tuple[Dataset, Dataset]:
    """Noisy training set and clean held-out set drawn from one generated world."""
    with rec.span("data.generate_synthetic_s"):
        world = generate_synthetic(w.n_train + w.n_held, w.classes, w.dim, w.d1, w.d2,
                                   w.spread, seed)
    clean_train = world.subset(np.arange(w.n_train))
    held = world.subset(np.arange(w.n_train, w.n_train + w.n_held))
    with rec.span("data.inject_noise_s"):
        noisy = inject_noise(clean_train, NoiseSpec(rho=w.rho, seed=seed))
    return noisy, held


@dataclass
class Inputs:
    train: Dataset
    held: Dataset
    train_path: str
    held_path: str
    ckpt_path: Optional[str] = None
    ckpt_log: Optional[TrainLog] = None   # log of the checkpoint train (cli_eval only)
    ckpt_train_s: Optional[float] = None


def setup(w: Workload, seed: int, workdir: str, rec: Recorder,
          traced: bool = False) -> Inputs:
    """Generate, inject, write and read back the RRSE files; for cli_eval also
    train and save the checkpoint (replayed with spans when traced)."""
    noisy, held = make_world(w, seed, rec)
    train_path = os.path.join(workdir, "train.rrse")
    held_path = os.path.join(workdir, "held.rrse")
    with rec.span("data.write_dataset_s"):
        write_dataset(noisy, train_path)
        write_dataset(held, held_path)
    with rec.span("data.read_dataset_s"):
        inputs = Inputs(read_dataset(train_path), read_dataset(held_path), train_path, held_path)
    if w.body == "cli_eval":
        hyper = w.hyper(seed)
        t0 = perf_counter()
        if traced:
            heads, _ = driven_train(inputs.train, hyper, rec)
        else:
            heads, inputs.ckpt_log = train(inputs.train, hyper)
        inputs.ckpt_train_s = perf_counter() - t0
        inputs.ckpt_path = os.path.join(workdir, "heads.rrsp")
        with rec.span("trainer.save_heads_ms"):
            save_heads(heads, inputs.ckpt_path)
    return inputs


def driven_train(train_set: Dataset, hyper: Hyper, rec: Recorder,
                 val: Optional[Dataset] = None
                 ) -> Tuple[ProjectionHeads, List[Tuple[np.ndarray, np.ndarray]]]:
    """Replay trainer.train's steps from outside, with a span around each call.

    Mirrors train's seeds and order (batch_iter, gradients, clip_gradients,
    lr_at, Adam.step, then evaluate per epoch when val is given). Returns the
    final heads and the last epoch's (pair ids, l_total) per batch, which the
    caller compares with train's own final trace to prove the replay is exact.
    """
    heads = init_heads(train_set.dim, seed=hyper.seed)
    opt = Adam(heads, weight_decay=hyper.weight_decay)
    n, bs = train_set.n_pairs, hyper.batch_size
    total_steps = hyper.epochs * (n // bs + (1 if n % bs >= 2 else 0))
    weight_rng = np.random.default_rng((hyper.seed, 0x5EED))
    step = 0
    last_epoch = []
    for epoch in range(1, hyper.epochs + 1):
        batches = batch_iter(train_set, bs, epoch_seed=hyper.seed * 1_000_003 + epoch)
        gather = 0.0
        last_epoch = []
        while True:
            t0 = perf_counter()
            batch = next(batches, None)
            gather += perf_counter() - t0
            if batch is None:
                break
            with rec.span("trainer.step_ms"):
                with rec.span("trainer.gradients_ms"):
                    grads, state = gradients(heads, batch, hyper, VARIANTS["full"], weight_rng)
                with rec.span("trainer.clip_gradients_ms"):
                    clip_gradients(grads, hyper.max_grad_norm)
                lr = lr_at(step, total_steps, hyper)
                with rec.span("trainer.adam_step_ms"):
                    opt.step(grads, lr)
            step += 1
            last_epoch.append((batch.indices, state.l_total))
        rec.add("data.batch_iter_ms", gather)
        if val is not None:
            with rec.span("evaluation.evaluate_s"):
                evaluate(heads, val, hyper)
    return heads, last_epoch


def sorted_l_total(last_epoch: List[Tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    ids = np.concatenate([i for i, _ in last_epoch])
    return np.concatenate([l for _, l in last_epoch])[np.argsort(ids, kind="stable")]


def check_log(log: TrainLog, w: Workload) -> List[str]:
    """Finite losses in every epoch record, bucket counts covering the pairs seen."""
    problems = []
    if len(log.records) != w.epochs:
        problems.append(f"{len(log.records)} epoch records, expected {w.epochs}")
    for rec in log.records:
        losses = (rec.loss_overall, rec.loss_s1, rec.loss_s2, rec.loss_soft)
        if not all(np.isfinite(losses)):
            problems.append(f"epoch {rec.epoch}: non-finite loss {losses}")
        seen = rec.n_clean + rec.n_ambiguous + rec.n_noisy
        if seen != w.pairs_per_epoch:
            problems.append(f"epoch {rec.epoch}: buckets sum to {seen}, "
                            f"expected {w.pairs_per_epoch}")
    if log.final_trace is None or len(log.final_trace.bucket) != w.pairs_per_epoch:
        problems.append("final trace missing or incomplete")
    return problems


def noisy_f1(log: TrainLog) -> float:
    return detection_metrics(log.final_trace.bucket, log.final_trace.y).f1


def check_mr(mr: float) -> List[str]:
    return [] if 0.0 <= mr <= 100.0 else [f"mr {mr} outside [0, 100]"]


def cli_eval(inputs: Inputs, out_path: str) -> Tuple[int, str]:
    """`rrsitr eval` in process on the checkpoint and held-out set; returns the
    exit code and captured stdout."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        rc = cli.main(["eval", "--checkpoint", inputs.ckpt_path, "--data", inputs.held_path,
                       "-o", out_path, "--threads", "1"])
    return rc, captured.getvalue()


def read_eval_report(rc: int, stdout: str, out_path: str) -> Tuple[Optional[float], List[str]]:
    """mr from the eval JSON file, checked against what the CLI printed."""
    if rc != 0:
        return None, [f"rrsitr eval exited {rc}"]
    try:
        with open(out_path) as f:
            report = json.load(f)
        printed = json.loads(stdout.split("\n", 1)[1])
    except (OSError, ValueError, IndexError) as e:
        return None, [f"eval JSON does not parse: {e!r}"]
    if printed != report:
        return None, ["printed report differs from the written one"]
    mr = report.get("mr")
    if not isinstance(mr, float):
        return None, [f"eval JSON has no float mr: {report}"]
    return mr, check_mr(mr)


def tiny(w: Workload) -> Workload:
    """The same workload at a shape small enough for a smoke test."""
    return replace(w, n_train=60, n_held=20, dim=8, d1=2, d2=2, batch=20, classes=4,
                   epochs=min(w.epochs, 2))
