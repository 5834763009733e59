"""Traced run: per-layer metrics from spans that the benchmark's own code puts
around calls into the public functions of each rrsitr module.

The trainer computes Sl with a private copy of the kernel
(trainer._local_similarity_from_units); its cost is measured through the public
twin similarity.local_similarity at the same shape.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, replace
from time import perf_counter
from typing import Dict, Tuple

import numpy as np

from rrsitr.data import PairBatch, batch_iter, read_dataset
from rrsitr.evaluation import detection_metrics, evaluate, recall_at_k
from rrsitr.losses import infonce_per_pair, robust_triplet_loss
from rrsitr.selfpaced import compute_weights
from rrsitr.similarity import fused_similarity, global_similarity, local_similarity
from rrsitr.trainer import (Hyper, ProjectionHeads, batch_objective, forward, gradients,
                            init_heads, load_heads, save_heads, train)

from endtoend import MIN_REPEATS, Ops, same_as_first
from timing import Recorder
from workloads import (SETUP_REPEATS, Workload, check_log, cli_eval, driven_train,
                       make_world, read_eval_report, setup, sorted_l_total)

NOTE = ("trainer computes Sl in a private copy (_local_similarity_from_units); "
        "similarity.local_similarity_* is measured through the public twin at the same shape")

# Which end-to-end metric each layer metric should move, and on which workloads.
PREDICTIONS = {
    "similarity.local_similarity_ms / local_gflop / local_intermediate_mb":
        "train_pairs_per_s on train_desk and train_paper; eval_queries_per_s and "
        "peak_rss_mb on eval_desk",
    "similarity.global_similarity_ms, losses.*, selfpaced.compute_weights_ms":
        "no end-to-end move (<0.3 ms per batch); they guard mr and noisy_f1",
    "trainer.forward_ms": "train_pairs_per_s on train_paper",
    "trainer.batch_objective_ms / gradients_ms / backward_ms":
        "train_pairs_per_s on train_desk and train_paper",
    "trainer.clip_gradients_ms / adam_step_ms / step_ms":
        "train_pairs_per_s on train_desk and train_paper",
    "data.batch_iter_ms": "train_pairs_per_s on train_paper",
    "data.generate_synthetic_s / inject_noise_s / write_dataset_s / read_dataset_s / "
    "rrse_bytes, trainer.save_heads_ms / load_heads_ms": "setup_s",
    "evaluation.evaluate_s / recall_at_k_ms":
        "eval_queries_per_s on eval_desk; train_pairs_per_s on train_desk",
    "evaluation.detection_metrics_ms, cli.eval_s": "wall_s on eval_desk",
}

# Layers repeated at all cores in a child process (reported only).
THREADED = ("similarity.local_similarity_ms.batch", "similarity.local_similarity_ms.eval",
            "similarity.global_similarity_ms", "trainer.forward_ms",
            "trainer.batch_objective_ms", "trainer.gradients_ms", "trainer.backward_ms",
            "trainer.clip_gradients_ms", "trainer.adam_step_ms", "trainer.step_ms")


def _until(seconds: float, minimum: int):
    """Yield 0, 1, 2, ... until at least `minimum` items and `seconds` have passed."""
    start, i = perf_counter(), 0
    while i < minimum or perf_counter() - start < seconds:
        yield i
        i += 1


def _whole(ds) -> PairBatch:
    return PairBatch(np.arange(ds.n_pairs), ds.image_global, ds.image_local,
                     ds.text_global, ds.text_local, ds.y)


def layer_pass(train_set, heads: ProjectionHeads, hyper: Hyper, rec: Recorder,
               epoch_seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Time each layer of one epoch's batches at fixed heads; returns the epoch's
    bucket codes and labels for detection_metrics."""
    buckets, ys = [], []
    for batch in batch_iter(train_set, hyper.batch_size, epoch_seed):
        with rec.span("trainer.forward_ms"):
            proj = forward(heads, batch)
        with rec.span("similarity.local_similarity_ms.batch"):
            Sl = local_similarity(proj.image_local, proj.text_local)
        with rec.span("similarity.global_similarity_ms"):
            Sg = global_similarity(proj.image_global, proj.text_global)
        with rec.span("losses.infonce_per_pair_ms"):
            l_total = infonce_per_pair(Sg, hyper.tau)
        with rec.span("losses.infonce_per_pair_ms"):
            l_total = l_total + infonce_per_pair(Sl, hyper.tau)
        with rec.span("losses.robust_triplet_loss_ms"):
            robust_triplet_loss(Sg, hyper.sigma)
        with rec.span("selfpaced.compute_weights_ms"):
            part, _ = compute_weights(l_total, hyper.gamma1, hyper.gamma2)
        t0 = perf_counter()
        batch_objective(heads, batch, hyper)
        t1 = perf_counter()
        gradients(heads, batch, hyper)
        t2 = perf_counter()
        rec.add("trainer.batch_objective_ms", t1 - t0)
        rec.add("trainer.backward_ms", (t2 - t1) - (t1 - t0))  # self time of gradients
        buckets.append(part.bucket_codes(batch.size))
        ys.append(batch.y)
    return np.concatenate(buckets), np.concatenate(ys)


def _traced_mb(fn, *args) -> float:
    """Peak bytes numpy allocates during fn(*args), beyond its result, in MB."""
    tracemalloc.start()
    try:
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - out.nbytes) / 1e6


def _gflop(w: Workload, n: int) -> float:
    """Direct-form local similarity: the (n*d1, dim) @ (dim, n*d2) product."""
    return 2.0 * n * w.d1 * n * w.d2 * w.dim / 1e9


def run_traced(w: Workload, seed: int, seconds: float, workdir: str, script: str):
    """Per-layer duration samples (seconds), computed values and the op counts.

    trace.overhead_frac compares the timed body with its replay from outside
    under spans: driven_train for train, and read_dataset + load_heads +
    evaluate for cli_eval (which also leaves out the CLI's own work).
    """
    rec, side, ops = Recorder(), Recorder(), Ops()
    hyper = w.hyper(seed)
    for _ in range(SETUP_REPEATS):
        inputs = setup(w, seed, workdir, rec, traced=True)
    computed = {"data.rrse_bytes": float(os.path.getsize(inputs.train_path)
                                         + os.path.getsize(inputs.held_path))}

    # untraced body and its replay with spans, alternating
    untraced, replayed = [], []
    out_path = os.path.join(workdir, "eval.json")
    ref = []
    heads = None
    for _ in _until(0.35 * seconds, MIN_REPEATS):
        if w.body == "train":
            def body():
                t0 = perf_counter()
                _, log = train(inputs.train, hyper, val_dataset=inputs.held if w.validate else None)
                untraced.append(perf_counter() - t0)
                t0 = perf_counter()
                replay_heads, last = driven_train(inputs.train, hyper, rec,
                                                  inputs.held if w.validate else None)
                replayed.append(perf_counter() - t0)
                problems = check_log(log, w) + same_as_first(ref, log.final_trace.l_total.tobytes())
                if not np.array_equal(sorted_l_total(last), log.final_trace.l_total):
                    problems.append("replayed steps differ from train's final trace")
                return replay_heads, problems
            result = ops.run("train + replay", body)
        else:
            def body():
                t0 = perf_counter()
                rc, stdout = cli_eval(inputs, out_path)
                wall = perf_counter() - t0
                untraced.append(wall)
                rec.add("cli.eval_s", wall)
                cli_mr, problems = read_eval_report(rc, stdout, out_path)
                t0 = perf_counter()
                with side.span("read"):
                    held = read_dataset(inputs.held_path)
                with side.span("load"):
                    loaded = load_heads(inputs.ckpt_path)
                with rec.span("evaluation.evaluate_s"):
                    mr = evaluate(loaded, held, Hyper()).mr
                replayed.append(perf_counter() - t0)
                if not problems and mr != cli_mr:
                    problems.append(f"CLI mr {cli_mr} != evaluate() mr {mr}")
                return loaded, problems or same_as_first(ref, mr)
            result = ops.run("rrsitr eval + replay", body)
        heads = result if result is not None else heads
    if heads is None:
        return {}, computed, ops

    for i in _until(0.2 * seconds, 1):
        codes, ys = layer_pass(inputs.train, heads, hyper, rec, seed * 1_000_003 + 1 + i)

    held = _whole(inputs.held)
    proj = forward(heads, held)
    for _ in _until(0.1 * seconds, 3):
        with rec.span("similarity.local_similarity_ms.eval"):
            Sl = local_similarity(proj.image_local, proj.text_local)
    Sf = fused_similarity(global_similarity(proj.image_global, proj.text_global), Sl,
                          hyper.alpha)
    gt = np.arange(w.n_held)
    for S in (Sf, Sf.T):
        for k in (1, 5, 10):
            with rec.span("evaluation.recall_at_k_ms"):
                recall_at_k(S, gt, k)
    for _ in range(MIN_REPEATS):
        with rec.span("evaluation.evaluate_s"):
            evaluate(heads, inputs.held, hyper)
    for _ in range(20):
        with rec.span("evaluation.detection_metrics_ms"):
            detection_metrics(codes, ys)
    inputs.ckpt_path = os.path.join(workdir, "traced.rrsp")
    for _ in range(5):
        with rec.span("trainer.save_heads_ms"):
            save_heads(heads, inputs.ckpt_path)
        with rec.span("trainer.load_heads_ms"):
            load_heads(inputs.ckpt_path)
    if w.body == "train":
        for _ in range(MIN_REPEATS):
            def eval_once():
                with rec.span("cli.eval_s"):
                    rc, stdout = cli_eval(inputs, out_path)
                return read_eval_report(rc, stdout, out_path)
            ops.run("rrsitr eval", eval_once)

    batch = next(batch_iter(inputs.train, hyper.batch_size, epoch_seed=seed))
    small = forward(heads, batch)
    computed.update({
        "similarity.local_gflop.batch": _gflop(w, batch.size),
        "similarity.local_gflop.eval": _gflop(w, w.n_held),
        "similarity.local_intermediate_mb.batch":
            _traced_mb(local_similarity, small.image_local, small.text_local),
        "similarity.local_intermediate_mb.eval":
            _traced_mb(local_similarity, proj.image_local, proj.text_local),
        "trace.overhead_frac": np.median(replayed) / np.median(untraced) - 1.0,
    })
    if w.body == "train":
        accounted = (rec.median("trainer.step_ms") * w.steps_per_epoch
                     + rec.median("data.batch_iter_ms")) * w.epochs
        if w.validate:
            accounted += rec.median("evaluation.evaluate_s") * w.epochs
    else:
        accounted = (side.median("read") + side.median("load")
                     + rec.median("evaluation.evaluate_s"))
    computed["trace.unaccounted_frac"] = 1.0 - accounted / np.median(untraced)

    threaded = ops.run("all-core child", lambda: _run_child(w, seed, 0.2 * seconds, script))
    if threaded is not None:
        computed["threads_all.n_threads"] = float(threaded["n_threads"])
        for name, values in threaded["samples"].items():
            rec.samples["threads_all." + name] = values
    return rec.samples, computed, ops


def all_cores() -> int:
    return len(os.sched_getaffinity(0))


def _run_child(w: Workload, seed: int, seconds: float, script: str):
    """Repeat the similarity and trainer layers at every core's BLAS thread in
    a child process, where the thread count is set before numpy loads."""
    cmd = [sys.executable, script, "--threads-child", json.dumps(asdict(w)),
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        return None, [f"child exited {proc.returncode}: {proc.stderr[-2000:]}"]
    return json.loads(proc.stdout.strip().splitlines()[-1]), []


def threads_child(w: Workload, seed: int, seconds: float) -> Dict:
    """The similarity and trainer layer timings, one epoch's steps at this
    process's BLAS thread count."""
    rec = Recorder()
    train_set, held = make_world(w, seed, Recorder())
    hyper = replace(w.hyper(seed), epochs=1)
    warm = next(batch_iter(train_set, hyper.batch_size, epoch_seed=seed))
    for _ in range(3):  # start the BLAS thread pool before timing
        gradients(init_heads(w.dim, seed=seed), warm, hyper)
    heads, _ = driven_train(train_set, hyper, rec)
    for i in _until(seconds, 1):
        layer_pass(train_set, heads, hyper, rec, seed + i)
    proj = forward(heads, _whole(held))
    for _ in _until(0.0, 3):
        with rec.span("similarity.local_similarity_ms.eval"):
            local_similarity(proj.image_local, proj.text_local)
    return {"n_threads": all_cores(), "samples": {k: rec.samples[k] for k in THREADED}}
