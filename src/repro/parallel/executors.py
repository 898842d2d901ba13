"""Executor abstraction: serial, thread-pool and process-pool backends.

Two dispatch surfaces serve the scheduler:

* :meth:`Executor.map` — "run these independent thunks, give me their
  results", used by the legacy per-wavefront barrier mode; and
* :meth:`Executor.submit` — one task, one future, used by the
  dependency-driven scheduler, which keeps its own ready-count
  bookkeeping and resubmission budget (the injected-crash decision is
  drawn by the caller, one per submission, preserving the deterministic
  draw order of :meth:`~repro.faults.FaultInjector.crash_schedule`).

Tasks are picklable descriptions for the process backend, or plain
closures for the serial/thread backends; ``needs_pickling`` tells the
scheduler whether results cross an address-space boundary (which is what
decides whether the shared-memory estimate plane pays off).

All backends share one recovery contract (exercised by
``tests/test_executor_recovery.py``): a task lost to a crashed worker —
whether injected by :mod:`repro.faults` or a real dead process taking its
pool down — is detected and resubmitted, up to ``max_resubmits`` rounds,
after which :class:`~repro.errors.WorkerCrashError` propagates.  Tasks
must therefore be idempotent, which the solver's pure node updates are.
Any exception other than a crash propagates unchanged.
"""

from __future__ import annotations

import abc
import concurrent.futures
import os
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import resource_tracker
from typing import Callable, Sequence, TypeVar

from repro import obs
from repro.errors import WorkerCrashError
from repro.faults.injector import current_injector

T = TypeVar("T")
R = TypeVar("R")


def _call_with_faults(fn: Callable[[T], R], item: T, crash: bool, mode: str) -> R:
    """Worker-side shim: optionally die before running the real task."""
    if crash:
        if mode == "kill":
            os._exit(113)  # hard death: the process pool loses this worker
        raise WorkerCrashError("injected worker crash")
    return fn(item)


class Executor(abc.ABC):
    """Minimal executor interface used by the tree scheduler.

    ``max_resubmits`` bounds how many recovery rounds :meth:`map` runs
    when tasks are lost to crashed workers.

    **Steal protocol.** ``n_workers`` is the backend's genuine
    concurrency; the placement-aware scheduler
    (:mod:`repro.parallel.placement`) mirrors it as logical lanes — one
    ready queue and at most one inflight task per lane — so packing and
    stealing operate scheduler-side, backend-agnostically.  Backends
    never see a "steal": a stolen node is simply submitted from a
    different lane, still as a self-contained (or shared-memory-handle)
    task.  That is what keeps stealing safe on the process backend —
    only O(1) handles cross the pickle boundary — and bit-identical
    everywhere, since a node's batches run in order inside one task no
    matter which lane submits it.
    """

    max_resubmits: int = 3

    #: True when tasks/results cross an address-space boundary (pickled).
    needs_pickling: bool = False

    #: Genuine backend concurrency; pool backends set it per instance.
    #: The placement layer packs onto exactly this many lanes.
    n_workers: int = 1

    @abc.abstractmethod
    def submit(
        self, fn: Callable[[T], R], item: T, crash: bool = False
    ) -> "concurrent.futures.Future[R]":
        """Submit one task; the returned future resolves to ``fn(item)``.

        ``crash`` is an injected-crash decision drawn by the caller (one
        per submission); the worker-side shim applies it.  Crash failures
        surface as :class:`~repro.errors.WorkerCrashError` (or
        ``BrokenProcessPool`` for a hard-killed process worker) on the
        future; the caller owns resubmission.
        """

    def recover(self) -> None:
        """Restore the backend after a broken-pool failure (no-op by default)."""

    @abc.abstractmethod
    def _dispatch(
        self, fn: Callable[[T], R], tasks: list[tuple[int, T, bool]]
    ) -> tuple[dict[int, R], list[int]]:
        """Run ``(index, item, crash_flag)`` tasks once.

        Returns ``(results by index, indices lost to crashes)``.  Non-crash
        exceptions must propagate.
        """

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Apply ``fn`` to every item, possibly concurrently; order preserved.

        Crashed tasks (injected or real) are resubmitted in bounded rounds;
        an active :class:`~repro.faults.FaultInjector` draws one crash
        decision per item, in submission order, so the fault schedule is
        deterministic for a given seed.
        """
        injector = current_injector()
        n = len(items)
        crash = injector.crash_schedule(n) if injector is not None else [False] * n
        results: dict[int, R] = {}
        todo = list(range(n))
        rounds = 0
        while todo:
            with obs.span(
                "executor.dispatch",
                cat="executor",
                backend=type(self).__name__,
                tasks=len(todo),
                round=rounds,
            ):
                done, failed = self._dispatch(
                    fn, [(i, items[i], crash[i]) for i in todo]
                )
            results.update(done)
            for i in todo:
                crash[i] = False  # a resubmitted task is not re-poisoned
            if failed:
                rounds += 1
                obs.inc("executor.tasks_resubmitted", len(failed))
                obs.instant(
                    "executor.resubmit",
                    cat="executor",
                    tasks=len(failed),
                    round=rounds,
                )
                if rounds > self.max_resubmits:
                    raise WorkerCrashError(
                        f"{len(failed)} tasks still lost to worker crashes "
                        f"after {self.max_resubmits} resubmission rounds"
                    )
            todo = sorted(failed)
        return [results[i] for i in range(n)]

    def close(self) -> None:
        """Release executor resources (no-op by default)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(Executor):
    """Executes tasks inline; the reference behaviour all backends must match."""

    def submit(self, fn, item, crash=False):
        future: concurrent.futures.Future = concurrent.futures.Future()
        try:
            future.set_result(_call_with_faults(fn, item, crash, "raise"))
        except BaseException as exc:
            future.set_exception(exc)
        return future

    def _dispatch(self, fn, tasks):
        results: dict[int, object] = {}
        failed: list[int] = []
        for i, item, crash in tasks:
            try:
                results[i] = _call_with_faults(fn, item, crash, "raise")
            except WorkerCrashError:
                failed.append(i)
        return results, failed


class ThreadExecutor(Executor):
    """Thread-pool backend.

    NumPy's BLAS kernels drop the GIL, so the solver's dominant ``m-m`` /
    ``sys`` work genuinely overlaps across subtrees on a multi-core host;
    pure-Python bookkeeping serializes on the GIL (the repro-band caveat).
    Injected crashes always take the soft (exception) form — a hard exit
    would kill the whole interpreter.
    """

    def __init__(self, n_workers: int, max_resubmits: int = 3):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self.max_resubmits = max_resubmits
        self._pool = concurrent.futures.ThreadPoolExecutor(max_workers=n_workers)

    def submit(self, fn, item, crash=False):
        return self._pool.submit(_call_with_faults, fn, item, crash, "raise")

    def _dispatch(self, fn, tasks):
        futures = {
            self._pool.submit(_call_with_faults, fn, item, crash, "raise"): i
            for i, item, crash in tasks
        }
        results: dict[int, object] = {}
        failed: list[int] = []
        for future, i in futures.items():
            try:
                results[i] = future.result()
            except WorkerCrashError:
                failed.append(i)
        return results, failed

    def close(self) -> None:
        self._pool.shutdown(wait=True)


class ProcessExecutor(Executor):
    """Process-pool backend: true parallelism, pickled task boundaries.

    ``fn`` and the items must be picklable (the scheduler ships module-level
    functions plus plain data).  Worker start-up is expensive; this backend
    pays off only for long subtree solves.

    A worker that dies mid-task (``os._exit``, OOM-kill, injected
    ``crash_mode="kill"`` fault) breaks the whole ``concurrent.futures``
    pool; :meth:`_dispatch` detects that, rebuilds the pool, and reports
    every unfinished task for resubmission.
    """

    needs_pickling = True

    def __init__(self, n_workers: int, max_resubmits: int = 3):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self.max_resubmits = max_resubmits
        self._pool = self._new_pool()

    def _new_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        # Workers fork lazily on submit and inherit the parent's resource
        # tracker only if it already runs; a worker forked before it would
        # start a private tracker that unlinks every shared-memory segment
        # the worker attached when it exits (see repro.parallel.shm).
        resource_tracker.ensure_running()
        return concurrent.futures.ProcessPoolExecutor(max_workers=self.n_workers)

    def submit(self, fn, item, crash=False):
        injector = current_injector()
        mode = injector.config.crash_mode if injector is not None else "raise"
        return self._pool.submit(_call_with_faults, fn, item, crash, mode)

    def recover(self) -> None:
        """Replace a broken pool; queued segments/tasks are the caller's to resubmit."""
        obs.inc("executor.pool_rebuilds")
        obs.instant(
            "executor.pool_rebuild", cat="executor", workers=self.n_workers
        )
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = self._new_pool()

    def _dispatch(self, fn, tasks):
        injector = current_injector()
        mode = injector.config.crash_mode if injector is not None else "raise"
        futures = {
            self._pool.submit(_call_with_faults, fn, item, crash, mode): i
            for i, item, crash in tasks
        }
        results: dict[int, object] = {}
        failed: list[int] = []
        broken = False
        for future, i in futures.items():
            try:
                results[i] = future.result()
            except WorkerCrashError:
                failed.append(i)
            except BrokenProcessPool:
                failed.append(i)
                broken = True
        if broken:
            self.recover()
        return results, failed

    def close(self) -> None:
        self._pool.shutdown(wait=True)
