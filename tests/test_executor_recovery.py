"""Worker-crash recovery contract, exercised through the one dispatch loop.

Crash recovery lives in
:meth:`~repro.parallel.scheduler.ParallelHierarchicalSolver.run_cycle`:
a node task lost to a crashed worker — injected soft crash, injected hard
kill, or a real dead process — is resubmitted within the executor's
``max_resubmits`` budget, a broken process pool is rebuilt through
:meth:`~repro.parallel.executors.Executor.recover`, and the cycle's
posterior stays bitwise equal to the serial solver's on every backend.
Exhausting the budget raises :class:`~repro.errors.WorkerCrashError`
naming the node.

The executors themselves only report a loss: the failed future carries
``WorkerCrashError`` or ``BrokenProcessPool``, and ``recover()`` hands
back a working pool.
"""

import concurrent.futures
import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro import obs
from repro.core.hier_solver import HierarchicalSolver
from repro.core.hierarchy import assign_constraints
from repro.errors import WorkerCrashError
from repro.faults import FaultConfig, FaultInjector, fault_injection
from repro.parallel import ParallelHierarchicalSolver
from repro.parallel.executors import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
)

BACKENDS = ["serial", "thread", "process"]


# Module-level so the process backend can pickle them.
def double(x):
    return 2 * x


def always_crash(x):
    raise WorkerCrashError(f"task {x} always crashes")


def die_once(token_path):
    """Hard-kill the worker process the first time it sees ``token_path``."""
    if not os.path.exists(token_path):
        with open(token_path, "w") as fh:
            fh.write("died")
        os._exit(1)
    return "survived"


def die_once_then_run(args):
    """Run ``fn(item)``, after hard-killing the first worker to get here."""
    token_path, fn, item = args
    die_once(token_path)
    return fn(item)


@pytest.fixture(params=BACKENDS)
def executor(request):
    if request.param == "serial":
        ex = SerialExecutor()
    elif request.param == "thread":
        ex = ThreadExecutor(n_workers=2)
    else:
        ex = ProcessExecutor(n_workers=2)
    yield ex
    ex.close()


@pytest.fixture
def helix2_serial(helix2_problem):
    return HierarchicalSolver(helix2_problem.hierarchy, batch_size=16).run_cycle(
        helix2_problem.initial_estimate(0)
    )


def _cycle(problem, executor):
    return ParallelHierarchicalSolver(
        problem.hierarchy, batch_size=16, executor=executor
    ).run_cycle(problem.initial_estimate(0))


def _assert_bitwise(result, reference):
    assert np.array_equal(result.estimate.mean, reference.estimate.mean)
    assert np.array_equal(result.estimate.covariance, reference.estimate.covariance)


def _counters(registry):
    return registry.snapshot()["counters"]


class TestRecoveryContract:
    """Parametrized over all backends: same inputs, same guarantees."""

    def test_no_injector_runs_clean(self, executor, helix2_problem, helix2_serial):
        registry = obs.MetricsRegistry()
        with obs.metrics_scope(registry):
            result = _cycle(helix2_problem, executor)
        _assert_bitwise(result, helix2_serial)
        assert _counters(registry).get("executor.tasks_resubmitted", 0) == 0

    def test_every_task_crashing_once_is_absorbed(
        self, executor, helix2_problem, helix2_serial
    ):
        """crash_p=1.0: each node dies on first submission, succeeds on resubmit."""
        inj = FaultInjector(FaultConfig(crash_p=1.0, seed=0))
        with fault_injection(inj):
            result = _cycle(helix2_problem, executor)
        _assert_bitwise(result, helix2_serial)
        # every node was actually poisoned, and a resubmit draws nothing
        n_nodes = len(helix2_problem.hierarchy.nodes)
        assert inj.injected["crash"] == inj.draws["crash"] == n_nodes

    def test_partial_crashes_preserve_order(
        self, executor, helix2_problem, helix2_serial
    ):
        inj = FaultInjector(FaultConfig(crash_p=0.5, seed=3))
        with fault_injection(inj):
            result = _cycle(helix2_problem, executor)
        _assert_bitwise(result, helix2_serial)
        assert 0 < inj.injected["crash"] < len(helix2_problem.hierarchy.nodes)

    def test_resubmit_budget_exhaustion_raises(self, executor, helix2_problem):
        """Every task the real backend runs crashes: the loop gives up
        after ``max_resubmits`` rounds and names the node."""
        lost = _CrashEveryTask(executor, max_resubmits=2)
        with pytest.raises(WorkerCrashError) as err:
            _cycle(helix2_problem, lost)
        msg = str(err.value)
        assert "after 2 resubmission rounds" in msg
        nid = int(msg.split()[1])
        assert helix2_problem.hierarchy.node(nid).is_leaf
        assert lost.submitted.count(nid) == 3  # the original + two rounds


class _CrashEveryTask(Executor):
    """A real backend that runs ``always_crash`` in place of every task."""

    def __init__(self, inner: Executor, max_resubmits: int):
        self.inner = inner
        self.max_resubmits = max_resubmits
        self.submitted: list[int] = []

    def submit(self, fn, item, crash=False):
        self.submitted.append(item.nid)
        return self.inner.submit(always_crash, item.nid, crash)


class TestProcessPoolHardDeath:
    def test_real_worker_kill_is_detected_and_resubmitted(
        self, tmp_path, helix2_problem, helix2_serial
    ):
        """A worker that os._exit()s breaks the pool; the loop rebuilds it
        and resubmits the lost tasks, which then succeed."""
        token = str(tmp_path / "died.token")
        registry = obs.MetricsRegistry()
        with _KillFirstTask(token) as ex, obs.metrics_scope(registry):
            result = _cycle(helix2_problem, ex)
        assert os.path.exists(token)  # the kill really happened
        _assert_bitwise(result, helix2_serial)
        assert _counters(registry)["executor.pool_rebuilds"] >= 1

    def test_injected_kill_mode_breaks_and_recovers_pool(self, two_group_problem):
        """crash_mode='kill' makes injected crashes hard-exit the worker."""
        coords, constraints, hierarchy, estimate = two_group_problem
        assign_constraints(hierarchy, constraints)
        serial = HierarchicalSolver(hierarchy, batch_size=4).run_cycle(estimate)
        inj = FaultInjector(FaultConfig(crash_p=1.0, seed=0, crash_mode="kill"))
        registry = obs.MetricsRegistry()
        with ProcessExecutor(n_workers=2) as ex, fault_injection(inj), \
                obs.metrics_scope(registry):
            result = ParallelHierarchicalSolver(
                hierarchy, batch_size=4, executor=ex
            ).run_cycle(estimate)
        _assert_bitwise(result, serial)
        assert inj.injected["crash"] == len(hierarchy.nodes)
        assert _counters(registry)["executor.pool_rebuilds"] >= 1

    def test_thread_backend_never_hard_kills(self, helix2_problem, helix2_serial):
        """Thread backend downgrades kill-mode faults to soft crashes
        (a hard exit would take down the whole interpreter)."""
        inj = FaultInjector(FaultConfig(crash_p=1.0, seed=0, crash_mode="kill"))
        with ThreadExecutor(n_workers=2) as ex, fault_injection(inj):
            result = _cycle(helix2_problem, ex)
        _assert_bitwise(result, helix2_serial)
        assert inj.injected["crash"] == len(helix2_problem.hierarchy.nodes)


class _KillFirstTask(ProcessExecutor):
    """One-worker pool whose first task to start hard-kills its worker."""

    def __init__(self, token_path: str):
        super().__init__(n_workers=1)
        self.token_path = token_path

    def submit(self, fn, item, crash=False):
        return super().submit(die_once_then_run, (self.token_path, fn, item), crash)


class TestExecutorSurface:
    """``submit`` reports a loss on the future; ``recover`` rebuilds."""

    def test_failed_future_carries_worker_crash_error(self, executor):
        assert executor.submit(double, 4).result() == 8
        injected = executor.submit(double, 4, crash=True)
        assert isinstance(injected.exception(), WorkerCrashError)
        crashed = executor.submit(always_crash, 4)
        assert isinstance(crashed.exception(), WorkerCrashError)

    def test_dead_worker_breaks_the_pool_until_recover(self, tmp_path):
        token = str(tmp_path / "died.token")
        with ProcessExecutor(n_workers=1) as ex:
            future = ex.submit(die_once, token)
            assert isinstance(future.exception(), BrokenProcessPool)
            with pytest.raises(BrokenProcessPool):
                ex.submit(double, 1)  # the submit-time face of the same break
            ex.recover()
            assert ex.submit(die_once, token).result() == "survived"
            assert ex.submit(double, 3).result() == 6


# ------------------------------------------------ the loop's crash branches
class _LostForever(Executor):
    """Every task comes back lost to a worker crash, without running."""

    def __init__(self, max_resubmits: int, guard: int = 500):
        self.max_resubmits = max_resubmits
        self.guard = guard
        self.submitted: list[int] = []

    def submit(self, fn, item, crash=False):
        self.submitted.append(item.nid)
        assert len(self.submitted) < self.guard, "the resubmit budget never ran out"
        future: concurrent.futures.Future = concurrent.futures.Future()
        future.set_exception(WorkerCrashError("worker lost"))
        return future


class _BrokenAtFirstSubmit(SerialExecutor):
    """Inline executor whose first ``submit`` finds the pool broken."""

    def __init__(self):
        self.submits = 0
        self.recovers = 0

    def submit(self, fn, item, crash=False):
        self.submits += 1
        if self.submits == 1:
            raise BrokenProcessPool("a worker died between wait rounds")
        return super().submit(fn, item, crash)

    def recover(self):
        self.recovers += 1


class TestSchedulerCrashPaths:
    def test_budget_exhaustion_names_the_node(self, helix2_problem):
        lost = _LostForever(max_resubmits=3)
        registry = obs.MetricsRegistry()
        with pytest.raises(
            WorkerCrashError, match=r"^node \d+ still lost .* after 3 resubmission"
        ) as err, obs.metrics_scope(registry):
            _cycle(helix2_problem, lost)
        nid = int(str(err.value).split()[1])
        assert lost.submitted.count(nid) == 4  # the original + three rounds
        # no parent is ever submitted: no child ever finished
        leaves = {n.nid for n in helix2_problem.hierarchy.leaves()}
        assert set(lost.submitted) <= leaves
        assert _counters(registry)["executor.tasks_resubmitted"] >= 4

    def test_submit_time_broken_pool_retries_once(
        self, helix2_problem, helix2_serial
    ):
        """A pool found broken at submit time: rebuild once, submit the
        same task again, spend no resubmit round and draw no second
        crash decision for it."""
        ex = _BrokenAtFirstSubmit()
        # Draws are counted but (at this rate) never inject.
        inj = FaultInjector(FaultConfig(crash_p=1e-12, seed=0))
        registry = obs.MetricsRegistry()
        with fault_injection(inj), obs.metrics_scope(registry):
            result = _cycle(helix2_problem, ex)
        n_nodes = len(helix2_problem.hierarchy.nodes)
        assert ex.recovers == 1
        assert ex.submits == n_nodes + 1
        assert inj.draws["crash"] == n_nodes
        assert _counters(registry).get("executor.tasks_resubmitted", 0) == 0
        _assert_bitwise(result, helix2_serial)
