"""Tests for the process pool's BLAS thread budget.

Each pool worker runs ``max(1, cores // workers)`` OpenBLAS threads (never
more than the parent had) and the parent holds the same lane while the
pool is open.  Whatever ends the pool — ``close``, a rebuild after a
crash, the demotion to threads — the parent gets its own count back, and
local replay of a worker slice never touches it.  Every test skips when
NumPy's BLAS is not OpenBLAS.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.experiments.persistence import _record_to_dict
from repro.experiments.reporting import format_execution_report
from repro.fl import parallel
from repro.fl.model_store import InProcessModelStore, SharedMemoryModelStore
from repro.fl.parallel import (
    ProcessPoolRoundExecutor,
    SequentialExecutor,
    make_executor,
)
from repro.nn import blas
from tests.fl.test_parallel import (
    build_defended_sim,
    make_world,
    run_and_snapshot,
    shm_leftovers,
)

needs_openblas = pytest.mark.skipif(
    blas.get_blas_threads() is None, reason="NumPy's BLAS is not OpenBLAS"
)


@pytest.fixture
def two_cores(monkeypatch):
    """Two cores and a 2-thread parent on any host: a 2-worker pool's
    lane is then 1 thread, so capping and restoring are both visible."""
    monkeypatch.setattr(blas, "available_cores", lambda: 2)
    before = blas.set_blas_threads(2)
    yield
    blas.set_blas_threads(before)


def _baseline():
    return run_and_snapshot(
        build_defended_sim(SequentialExecutor(), store=InProcessModelStore())
    )


def _bound_pool(workers: int = 2) -> ProcessPoolRoundExecutor:
    executor = ProcessPoolRoundExecutor(workers)
    model, _, _, _ = make_world()
    executor.bind(template=model)
    return executor


def _worker_threads(executor: ProcessPoolRoundExecutor) -> set[int]:
    pool = executor._ensure_pool()
    futures = [pool.submit(blas.get_blas_threads) for _ in range(4)]
    return {future.result() for future in futures}


def _thread_count() -> int:
    return len(os.listdir("/proc/self/task"))


class TestHelper:
    def test_setting_the_current_count_calls_nothing(self, monkeypatch):
        calls: list[int] = []
        monkeypatch.setattr(blas, "_openblas", lambda: (lambda: 3, calls.append))
        assert blas.set_blas_threads(3) == 3
        assert calls == []
        assert blas.set_blas_threads(1) == 3
        assert calls == [1]

    @needs_openblas
    def test_set_returns_previous_and_get_reads_back(self):
        before = blas.get_blas_threads()
        try:
            assert blas.set_blas_threads(1) == before
            assert blas.get_blas_threads() == 1
        finally:
            blas.set_blas_threads(before)

    @needs_openblas
    @pytest.mark.parametrize(
        "cores, workers, lane", [(2, 2, 1), (2, 4, 1), (1, 2, 1), (8, 2, 2)]
    )
    def test_lane_is_core_share_capped_by_current(
        self, two_cores, monkeypatch, cores, workers, lane
    ):
        # (8, 2): four cores per worker, but the parent runs only 2
        # threads (a lower OPENBLAS_NUM_THREADS) -- the lane keeps to 2.
        monkeypatch.setattr(blas, "available_cores", lambda: cores)
        assert blas.lane_threads(workers) == lane


@needs_openblas
class TestPoolBudget:
    def test_worker_runs_its_share_of_the_cores(self):
        before = blas.get_blas_threads()
        workers = 2
        expected = min(before, max(1, blas.available_cores() // workers))
        executor = _bound_pool(workers)
        try:
            assert _worker_threads(executor) == {expected}
            assert blas.get_blas_threads() == expected
        finally:
            executor.close()
        assert blas.get_blas_threads() == before

    def test_parent_capped_while_open_and_restored_by_close(self, two_cores):
        executor = _bound_pool()
        try:
            assert _worker_threads(executor) == {1}
            assert blas.get_blas_threads() == 1
            assert executor.blas_threads == {
                "parent": 1, "per_worker": 1, "nproc": 2, "workers": 2,
            }
        finally:
            executor.close()
        assert blas.get_blas_threads() == 2
        assert executor.blas_threads == {}

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task"
    )
    def test_worker_that_inherits_its_lane_starts_no_blas_thread(
        self, two_cores
    ):
        # The parent is capped before the workers fork, so they inherit
        # their 1-thread lane; re-setting it would restart OpenBLAS's
        # thread pool in each worker and leave an idle thread spinning.
        with _bound_pool() as executor:
            pool = executor._ensure_pool()
            counts = {pool.submit(_thread_count).result() for _ in range(4)}
        assert counts == {1}

    def test_overlapping_pools_close_in_any_order(self, two_cores):
        first, second = _bound_pool(), _bound_pool(4)
        try:
            assert _worker_threads(first) == _worker_threads(second) == {1}
            first.close()
            assert blas.get_blas_threads() == 1  # second still open
        finally:
            first.close()
            second.close()
        assert blas.get_blas_threads() == 2

    def test_rebuilt_pool_keeps_lane_and_close_restores(self, two_cores):
        base_flat, base_records = _baseline()
        store = SharedMemoryModelStore()
        with store, make_executor(
            2, store=store, faults="crash@1.train;crash@2.validate"
        ) as executor:
            sim = build_defended_sim(executor, store=store)
            flat, records = run_and_snapshot(sim)
            assert executor.resilience.pool_rebuilds >= 2
            assert _worker_threads(executor) == {1}
            assert blas.get_blas_threads() == 1
        assert blas.get_blas_threads() == 2
        np.testing.assert_array_equal(base_flat, flat)
        assert base_records == records
        assert shm_leftovers(store) == []

    def test_demotion_to_threads_restores_parent(self, two_cores):
        base_flat, base_records = _baseline()
        store = SharedMemoryModelStore()
        with store, make_executor(
            2, store=store, faults="crash@1.train"
        ) as executor:
            executor.bind_faults(max_pool_rebuilds=0)
            sim = build_defended_sim(executor, store=store)
            flat, records = run_and_snapshot(sim)
            assert executor._demoted is not None
            # The thread engine runs in the parent, with its own threads.
            assert blas.get_blas_threads() == 2
            assert executor.blas_threads == {}
        assert blas.get_blas_threads() == 2
        np.testing.assert_array_equal(base_flat, flat)
        assert base_records == records
        budgets = [r.blas_threads for r in sim.history]
        assert budgets[0]["per_worker"] == 1 and budgets[-1] == {}

    def test_local_replay_is_budget_neutral(self, two_cores, monkeypatch):
        """Straggler replay rebinds the parent's worker globals through
        ``_init_worker``; the parent's thread count must not move, and the
        replayed slice must still be bit-identical."""
        base_flat, base_records = _baseline()
        seen: list[tuple[int, int]] = []
        bind = parallel._bind_local_worker

        def watched_bind(executor):
            before = blas.get_blas_threads()
            bind(executor)
            seen.append((before, blas.get_blas_threads()))

        monkeypatch.setattr(parallel, "_bind_local_worker", watched_bind)
        store = SharedMemoryModelStore()
        with store, make_executor(
            2, store=store, faults="delay@3.train.0=1.5", task_deadline_s=0.5
        ) as executor:
            flat, records = run_and_snapshot(
                build_defended_sim(executor, store=store)
            )
            assert executor.resilience.straggler_reassignments >= 1
        assert seen and all(before == after == 1 for before, after in seen)
        np.testing.assert_array_equal(base_flat, flat)
        assert base_records == records
        assert shm_leftovers(store) == []

    def test_bind_local_worker_leaves_uncapped_parent_alone(
        self, two_cores, monkeypatch
    ):
        # No pool open: the parent runs 2 threads, and rebinding its
        # worker globals for replay must not apply the 1-thread lane.
        monkeypatch.setattr(parallel, "_W_LOCAL_OWNER", None)
        with _bound_pool() as executor:
            parallel._bind_local_worker(executor)
            assert blas.get_blas_threads() == 2


@needs_openblas
class TestObservability:
    def test_records_and_report_show_the_budget(self, two_cores):
        with make_executor(2, mode="pipelined", pipeline_depth=0) as executor:
            sim = build_defended_sim(executor, store=InProcessModelStore())
            records = sim.run(3)
        budget = {"parent": 1, "per_worker": 1, "nproc": 2, "workers": 2}
        assert all(r.blas_threads == budget for r in records)
        assert _record_to_dict(records[0])["blas_threads"] == budget
        report = format_execution_report(records)
        assert (
            "engine: BLAS threads: parent 1, per worker 1 (nproc 2, workers 2)"
            in report.splitlines()
        )

    def test_in_process_engines_hold_no_budget(self):
        for executor in (SequentialExecutor(), make_executor(2, engine="thread")):
            with executor:
                sim = build_defended_sim(executor, store=InProcessModelStore())
                records = sim.run(2)
            assert all(r.blas_threads == {} for r in records)
            assert "BLAS" not in format_execution_report(records)
            assert "blas_threads" not in _record_to_dict(records[0])


class TestWithoutOpenBlas:
    def test_helper_is_a_noop_and_pool_still_runs(self, monkeypatch):
        monkeypatch.setattr(blas, "_openblas", lambda: None)
        assert blas.get_blas_threads() is None
        assert blas.set_blas_threads(1) is None
        assert blas.lane_threads(2) is None
        blas.hold_cap(0, 1)
        assert blas._caps == {}
        blas.release_cap(0)
        base_flat, base_records = _baseline()
        store = SharedMemoryModelStore()
        with store, make_executor(2, store=store) as executor:
            flat, records = run_and_snapshot(
                build_defended_sim(executor, store=store)
            )
            assert executor.blas_threads == {}
        np.testing.assert_array_equal(base_flat, flat)
        assert base_records == records
