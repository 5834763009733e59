"""Untraced run: set-up several times, then repeat the workload's timed body for
the run length, checking every output. Reports the end-to-end metrics."""
from __future__ import annotations

import os
import resource
import statistics
import sys
import traceback
from time import perf_counter
from typing import Dict, List

from rrsitr.evaluation import evaluate
from rrsitr.trainer import Hyper, load_heads, train

from timing import Recorder
from workloads import (SETUP_REPEATS, Inputs, Workload, check_log, check_mr, cli_eval,
                       noisy_f1, read_eval_report, setup)

MIN_REPEATS = 2


class Ops:
    """Attempted and failed operation counts; a failure is a raised error, a
    non-zero exit or a failed output check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str, problems: List[str]) -> None:
        self.failed += 1
        print(f"FAILED {what}: " + "; ".join(problems), file=sys.stderr)

    def run(self, what: str, fn):
        """Call fn() -> (value, problems); count it, return value or None on failure."""
        self.attempted += 1
        try:
            value, problems = fn()
        except Exception:  # a raised error is a failed operation, not the end of the run
            self.fail(what, [traceback.format_exc()])
            return None
        if problems:
            self.fail(what, problems)
            return None
        return value


def same_as_first(ref: list, outcome) -> List[str]:
    """Same-seed repeats in one process must agree bit for bit."""
    if not ref:
        ref.append(outcome)
        return []
    return [] if outcome == ref[0] else [f"repeat gave {outcome}, first gave {ref[0]}"]


def run_untraced(w: Workload, seed: int, seconds: float, workdir: str):
    """For cli_eval the checkpoint train is repeated between the eval calls too,
    so that its train_pairs_per_s is sampled over the whole run."""
    ops = Ops()
    hyper = w.hyper(seed)
    setup_walls, ckpt_walls, ckpt_ref = [], [], []

    def check_ckpt(log, wall):
        f1 = noisy_f1(log)
        return wall, check_log(log, w) + same_as_first(ckpt_ref, f1)

    inputs: Inputs = None
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        inputs = setup(w, seed, workdir, Recorder())
        setup_walls.append(perf_counter() - t0)
        if w.body == "cli_eval":
            ckpt_walls.append(ops.run("checkpoint train", lambda: check_ckpt(
                inputs.ckpt_log, inputs.ckpt_train_s)))

    def ckpt_once():
        t0 = perf_counter()
        _, log = train(inputs.train, hyper)
        return check_ckpt(log, perf_counter() - t0)

    ref = []

    def train_once():
        t0 = perf_counter()
        heads, log = train(inputs.train, hyper, val_dataset=inputs.held if w.validate else None)
        wall = perf_counter() - t0
        t0 = perf_counter()
        mr = evaluate(heads, inputs.held, hyper).mr
        eval_wall = perf_counter() - t0
        f1 = noisy_f1(log)
        problems = check_log(log, w) + check_mr(mr) + same_as_first(ref, (mr, f1))
        return (wall, eval_wall, mr, f1), problems

    out_path = os.path.join(workdir, "eval.json")

    def eval_once():
        t0 = perf_counter()
        rc, stdout = cli_eval(inputs, out_path)
        wall = perf_counter() - t0
        mr, problems = read_eval_report(rc, stdout, out_path)
        return (wall, mr), problems or same_as_first(ref, mr)

    start = perf_counter()
    results = []
    while len(results) < MIN_REPEATS or perf_counter() - start < seconds:
        if w.body == "train":
            r = ops.run("train", train_once)
        else:
            r = ops.run("rrsitr eval", eval_once)
            ckpt_walls.append(ops.run("checkpoint train", ckpt_once))
        if r is not None:
            results.append(r)

    if w.body == "cli_eval" and ref:
        def cross_check():
            # the CLI (default flags) must report what evaluate() gives in process
            mr = evaluate(load_heads(inputs.ckpt_path), inputs.held, Hyper()).mr
            return mr, [] if mr == ref[0] else [f"CLI mr {ref[0]} != evaluate() mr {mr}"]
        ops.run("eval cross-check", cross_check)
    ckpt_walls = [t for t in ckpt_walls if t is not None]
    if not results or (w.body == "cli_eval" and not ckpt_walls):
        return {}, ops, len(results)

    wall = statistics.median(r[0] for r in results)
    metrics: Dict[str, float] = {
        "wall_s": wall,
        "setup_s": statistics.median(setup_walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if w.body == "train":
        metrics["train_pairs_per_s"] = w.pairs_per_epoch * w.epochs / wall
        metrics["eval_queries_per_s"] = 2 * w.n_held / statistics.median(r[1] for r in results)
        metrics["mr"], metrics["noisy_f1"] = results[0][2], results[0][3]
    else:
        metrics["train_pairs_per_s"] = (w.pairs_per_epoch * w.epochs
                                        / statistics.median(ckpt_walls))
        metrics["eval_queries_per_s"] = 2 * w.n_held / wall
        metrics["mr"], metrics["noisy_f1"] = results[0][1], ckpt_ref[0]
    return metrics, ops, len(results)
