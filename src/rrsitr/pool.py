"""One process-wide pool of worker threads for independent numpy tasks.

numpy releases the interpreter lock inside BLAS calls and large elementwise
loops, so tasks that each make their own matmuls run on as many cores as the
pool has threads. The pool changes only the OS thread that makes a call:
callers hand it tasks that make the same calls, on the same operands, shapes
and strides, as their serial loops, and they combine the results in a fixed
order on their own thread. So every output has the same bits at any pool size.

Tasks run on the pool only when their caller's parallel(work) holds: the
work, in multiply-adds counted from its shapes, is above PARALLEL_WORK and
the pool has more than one worker. trainer._objective decides once for the
training step, similarity._gram_kernel once for the Sl kernel. Otherwise
the tasks run in order on the calling thread and the pool is never made.
run returns the list of results either way. Tasks must not call run
themselves. The pool has at most cores() workers: more threads than cores
would only take turns.

Each call returns only when its slowest task has finished, so a call site
cuts its work into tasks of near-equal size, several per worker, and a step
makes few calls. A Gram-kernel training step makes 8 calls at every dim: one
for the projection, where each row chunk of each block is projected and
normalised (trainer._project_modalities); one for the Sl forward, a task per
strip, and four for its backward, two per side: the side's K products, a
task per strip, then its row-chunk backward over every strip
(similarity._gram_kernel); then one for the renormalisation backward in row
chunks, and one for both heads' weight gradients in pieces of output rows
(trainer._objective). The task lists come from the shapes and
data._CHUNK_BYTES alone, and the serial path runs the same lists in order.

The pool is for a BLAS that runs at one thread, as the rrsitr command pins it
before numpy loads. A BLAS left at several threads already uses the cores, and
pool threads calling it at once contend with its own threads (a paper-shape
train() at two BLAS threads took 1.16x as long with two workers as with one,
on 2 vCPUs), so the pool's default size is then 1.
"""
from __future__ import annotations

import os
import threading
from typing import Callable, List, Optional

# multiply-adds above which a call is split into tasks; a desk-shape step
# (b = 100, dim 32, 8x8 locals) stays below it
PARALLEL_WORK = 1 << 26
# the variables OpenBLAS, MKL and OpenMP read their thread counts from at load
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

_workers: Optional[int] = None     # None: the default of workers()
_executor = None                   # a ThreadPoolExecutor of workers() - 1 threads
_lock = threading.Lock()           # guards _workers and _executor


def cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:            # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def workers() -> int:
    """The pool size: set_workers' count or by default, where the thread
    variables that are set all read 1, cores(); otherwise 1."""
    if _workers is not None:
        return _workers
    counts = [os.environ[v] for v in BLAS_THREAD_VARS if os.environ.get(v)]
    if not counts or any(c != "1" for c in counts):
        return 1
    return cores()


def set_workers(n: Optional[int]) -> Optional[int]:
    """Set the pool size to n, at most cores() (None: the default), and return
    the previous setting. A running pool of another size is shut down; the
    next parallel call makes a new one."""
    global _workers, _executor
    if n is not None and n < 1:
        raise ValueError(f"worker count must be >= 1, got {n}")
    with _lock:
        size, previous, _workers = workers(), _workers, None if n is None else min(n, cores())
        if _executor is not None and workers() != size:
            _executor.shutdown()
            _executor = None
    return previous


def parallel(work: int) -> bool:
    """Whether a call of this many multiply-adds runs on the pool."""
    return work > PARALLEL_WORK and workers() > 1


def run(fn: Callable, args: List[tuple], on_pool: bool) -> list:
    """The list of fn(*a) for each a in args, in args' order; every task has
    run when it returns.

    With on_pool false the tasks run in args' order on the calling thread.
    With on_pool true the calling thread and up to workers() - 1 pool
    threads (no more than args has tasks beside the caller's) take the tasks
    in args' order, one at a time, and the call returns once every task taken
    has finished. After a task raises no further task is taken, and the error
    of the first failed task in args' order re-raises here, so no task is
    still running when an error propagates.
    """
    if not on_pool:
        return [fn(*a) for a in args]
    from concurrent.futures import ThreadPoolExecutor, wait

    global _executor
    with _lock:
        size = workers() - 1
        if _executor is None and size:
            _executor = ThreadPoolExecutor(size, thread_name_prefix="rrsitr")
        executor = _executor
    helpers = min(size, len(args) - 1)
    tasks = enumerate(args)
    results, errors = {}, {}
    taking = threading.Lock()

    def take_tasks():
        while True:
            with taking:
                if errors:
                    return
                try:
                    i, a = next(tasks)
                except StopIteration:
                    return
            try:
                results[i] = fn(*a)
            except BaseException as e:   # recorded, and re-raised by the caller
                errors[i] = e

    futures = []
    try:
        for _ in range(helpers):
            futures.append(executor.submit(take_tasks))
        take_tasks()
    finally:
        wait(futures)
    for f in futures:
        f.result()
    if errors:
        raise errors[min(errors)]
    return [results[i] for i in range(len(results))]


def _forget_pool() -> None:
    # a forked child has none of its parent's threads
    global _executor, _lock
    _executor, _lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)
