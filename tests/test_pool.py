import os
import sys
import threading
import time

import numpy as np
import pytest

from rrsitr import data, pool, trainer
from rrsitr.data import NoiseSpec, batch_iter, generate_synthetic, inject_noise
from rrsitr.similarity import _gram_chosen, local_similarity_units
from rrsitr.trainer import Hyper, gradients, init_heads, project


@pytest.fixture
def workers(monkeypatch):
    """Set the pool size for one test and restore the previous setting. The
    host is taken to have 8 cores, so a test can size the pool past this
    host's and keep the threads it asks for."""
    monkeypatch.setattr(pool, "cores", lambda: 8)
    previous = []

    def set_to(n):
        previous.append(pool.set_workers(n))

    yield set_to
    if previous:
        pool.set_workers(previous[0])


def test_parallel_path_needs_more_work_than_the_threshold_and_two_workers(workers):
    workers(2)
    assert not pool.parallel(pool.PARALLEL_WORK)
    assert pool.parallel(pool.PARALLEL_WORK + 1)
    workers(1)
    assert not pool.parallel(pool.PARALLEL_WORK + 1)


def test_default_size_is_every_core_only_under_a_one_thread_blas(workers, monkeypatch):
    # a BLAS at several threads already uses the cores: the pool then stays at one
    workers(None)
    for var in pool.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    assert pool.workers() == 1
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert pool.workers() == pool.cores() == 8
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    assert pool.workers() == 1
    workers(3)
    assert pool.workers() == 3


def test_size_is_capped_at_the_cores_and_starts_no_thread():
    running = threading.active_count()
    previous = pool.set_workers(10 ** 5)
    try:
        assert pool.workers() == len(os.sched_getaffinity(0))
        assert threading.active_count() == running
    finally:
        pool.set_workers(previous)


def test_a_call_wakes_no_more_helpers_than_it_has_tasks(workers):
    workers(1)
    workers(8)      # a new pool, which has started no thread yet
    running = threading.active_count()
    assert list(pool.run(lambda i: i, [(0,), (1,)], True)) == [0, 1]
    assert threading.active_count() <= running + 1


def test_error_in_a_task_propagates_after_every_sibling_finished(workers):
    # task 0 raises while task 1 runs on another thread: the error reaches the
    # caller only after task 1 has written its slot, no task taken is still
    # running, and none starts afterwards
    workers(3)
    buf = np.zeros(8)
    started, finished = set(), set()
    sibling_running = threading.Event()

    def task(i):
        started.add(i)
        if i == 0:
            assert sibling_running.wait(timeout=10)
            raise ValueError("task 0")
        sibling_running.set()
        time.sleep(0.05)
        buf[i] = i
        finished.add(i)

    with pytest.raises(ValueError, match="task 0"):
        pool.run(task, [(i,) for i in range(8)], True)
    after_raise = buf.copy()
    assert 1 in finished and started == finished | {0}
    time.sleep(0.1)
    assert np.array_equal(buf, after_raise) and started == finished | {0}


def test_first_failing_task_in_order_is_the_one_raised(workers):
    workers(2)

    def task(i):
        if i == 1:
            time.sleep(0.05)   # fails last in time, first in order
        if i > 0:
            raise ValueError(f"task {i}")
        return i

    with pytest.raises(ValueError, match="task 1"):
        pool.run(task, [(i,) for i in range(4)], True)


def test_evaluate_runs_nothing_on_the_pool(workers, monkeypatch):
    # a training step's projection splits into pool tasks at this size;
    # evaluate's stays on the calling thread at any size
    from rrsitr.evaluation import evaluate

    world = generate_synthetic(40, 4, 16, 6, 4, 0.3, seed=5)
    heads = init_heads(16, seed=2, noise_std=0.1)
    monkeypatch.setattr(pool, "PARALLEL_WORK", 0)
    workers(2)
    on_pool = []
    run = pool.run
    monkeypatch.setattr(pool, "run", lambda fn, args, on: on_pool.append(on) or run(fn, args, on))
    project(heads, world)
    assert on_pool and all(on_pool)
    on_pool.clear()
    evaluate(heads, world, Hyper())
    assert on_pool and not any(on_pool)


def test_results_come_in_argument_order(workers):
    workers(3)
    got = pool.run(lambda i: (time.sleep(0.01 * (5 - i)), i)[1], [(i,) for i in range(6)], True)
    assert list(got) == list(range(6))


@pytest.mark.parametrize("budget", ["default", "small"])
def test_more_workers_than_cores_give_the_serial_bits(workers, monkeypatch, budget):
    # every pool-capable call of a training step and of project split into
    # tasks on more threads than there are cores, under frequent thread
    # switches: each output must keep the serial loop's bits. The small
    # budgets cut every local block at this shape into several tasks.
    if budget == "small":
        monkeypatch.setattr(data, "_CHUNK_BYTES", 32 << 10)
        monkeypatch.setattr(trainer, "_MIN_PIECE_ROWS", 8)
    world = generate_synthetic(140, 4, 40, 10, 8, 0.3, seed=5)   # Gram kernel, two strips
    train = inject_noise(world.subset(np.arange(100)), NoiseSpec(rho=0.4, seed=6))
    batch = next(batch_iter(train, 50, epoch_seed=1))
    heads = init_heads(40, seed=2, noise_std=0.1)
    A = np.ascontiguousarray(project(heads, world)[1][0]).reshape(140, 10, 40)
    B = np.ascontiguousarray(project(heads, world)[3][0]).reshape(140, 8, 40)
    G = np.random.default_rng(3).normal(size=(140, 140))

    def outputs():
        Sl, backward = local_similarity_units(A, B)
        grads, state = gradients(heads, batch, Hyper())
        return [Sl, *backward(G), *grads.values(), state.l_total,
                *(a for pair in project(heads, world) for a in pair)]

    workers(1)
    serial = outputs()
    monkeypatch.setattr(pool, "PARALLEL_WORK", 0)
    tasks = {}     # task counts of each pool call, by task function
    run = pool.run

    def counted(fn, args, on_pool):
        tasks.setdefault(fn.__name__, []).append(len(args))
        return run(fn, args, on_pool)

    monkeypatch.setattr(pool, "run", counted)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers(8)
        for _ in range(3):
            got = outputs()
            assert all(np.array_equal(x, y) for x, y in zip(serial, got))
    finally:
        sys.setswitchinterval(interval)
    if budget == "small":
        # projection, renormalisation, weight gradients and each side's Sl
        # backward over both strips, in item chunks
        for name in ("_project_rows", "_renorm_backward", "_weight_grads", "_strips_backward"):
            assert min(tasks[name]) >= 2 and max(tasks[name]) >= 8, (name, tasks[name])
        # a side's K products: one task per strip
        assert set(tasks["_strip_k"]) == {2}, tasks["_strip_k"]


@pytest.mark.parametrize("n, dim, d1, d2", [(24, 72, 12, 12), (8, 256, 36, 16)])
def test_a_gram_step_makes_eight_pool_calls_at_any_strip_count(workers, monkeypatch,
                                                                  n, dim, d1, d2):
    # three strips and eight: the projection, the Sl forward, two calls per
    # side of its backward, the renormalisation backward and the weight
    # gradients, each once
    assert _gram_chosen(d1, d2, dim)
    world = generate_synthetic(n, 4, dim, d1, d2, 0.3, seed=5)
    batch = next(batch_iter(world, n, epoch_seed=1))
    monkeypatch.setattr(pool, "PARALLEL_WORK", 0)
    workers(2)
    on_pool = []
    run = pool.run
    monkeypatch.setattr(pool, "run", lambda fn, args, on: on_pool.append(on) or run(fn, args, on))
    gradients(init_heads(dim, seed=2, noise_std=0.1), batch, Hyper())
    assert len(on_pool) == 8 and all(on_pool), on_pool
