#!/usr/bin/env python3
"""rrsitr benchmark: one workload per process, BLAS pinned to one thread.

    python3 benchmarks/run.py --workload train_desk --seed 1 --seconds 30 --trace 0

--trace 0 measures the workload untraced and reports the end-to-end metrics
named in BENCHMARK.json; --trace 1 makes the traced run and reports the
per-layer metrics. Inputs are generated from --seed. The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
Scratch files go to .bench_work/ in the checkout and are removed on exit.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

from timing import p90

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SCALE = {"ms": 1e3, "s": 1.0}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="train_desk, train_paper or eval_desk")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="run length to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads-child", metavar="WORKLOAD_JSON", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.workload is None and args.threads_child is None:
        p.error("--workload is required")
    return args


def load_program() -> None:
    """Import rrsitr from the checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import rrsitr
    if not Path(rrsitr.__file__).resolve().is_relative_to(src):
        raise ImportError(f"rrsitr was imported from {rrsitr.__file__}, not from {src}")


def metric_value(name: str, unit: str, samples, computed):
    """A declared metric from the computed values, or the median, p90 or count
    of the duration samples (seconds) it names."""
    if name in computed:
        return float(computed[name])
    if name.endswith(".n") and samples.get(name[:-2]):
        return len(samples[name[:-2]])
    if name.endswith(".p90") and samples.get(name[:-4]):
        return p90(samples[name[:-4]]) * SCALE[unit]
    if samples.get(name):
        return statistics.median(samples[name]) * SCALE[unit]
    return None


def run(w, seed: int, seconds: float, trace: bool, workdir: str, declared) -> dict:
    """Measure one workload; `declared` is BENCHMARK.json's end_to_end list for
    an untraced run and its per_layer list for a traced one."""
    from endtoend import run_untraced
    from layers import NOTE, PREDICTIONS, run_traced

    print(f"workload {w.name} seed {seed}: {w.shape()}")
    if trace:
        samples, computed, ops = run_traced(w, seed, seconds, workdir, str(BENCH / "run.py"))
        print(f"note: {NOTE}")
        for layer, moves in PREDICTIONS.items():
            print(f"predicts: {layer} -> {moves}")
    else:
        computed, ops, repeats = run_untraced(w, seed, seconds, workdir)
        samples = {}
        print(f"timed body repeated {repeats} times; times are medians")
    metrics, missing = {}, []
    for m in declared:
        value = metric_value(m["name"], m["unit"], samples, computed)
        if value is None:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<52} {value:>14.6g} {m['unit']}")
    print(f"  {'error_rate':<52} {ops.failed / max(ops.attempted, 1):>14.6g} "
          f"({ops.failed} of {ops.attempted} operations failed)")
    if missing:
        print(f"missing metrics: {', '.join(missing)}", file=sys.stderr)
    return {"correct": ops.failed == 0 and not missing, "attempted": ops.attempted,
            "failed": ops.failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = len(os.sched_getaffinity(0)) if args.threads_child else 1
    for var in BLAS_THREAD_VARS:  # before numpy loads its BLAS pool
        os.environ[var] = str(threads)
    try:
        load_program()
        with open(ROOT / "BENCHMARK.json") as f:
            spec = json.load(f)
    except (ImportError, OSError, ValueError) as e:
        print(f"error: cannot load rrsitr from src/ or BENCHMARK.json: {e}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Workload

    if args.threads_child:
        from layers import threads_child
        w = Workload(**json.loads(args.threads_child))
        print(json.dumps(threads_child(w, args.seed, args.seconds)))
        return 0
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                     str(workdir), spec["per_layer" if args.trace else "end_to_end"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
