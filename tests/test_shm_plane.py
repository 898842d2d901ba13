"""Shared-memory estimate plane: lifetime, wire size and crash recovery.

The acceptance bar for the comms layer: with a pickling backend, the
per-node task payload is O(handle) bytes instead of O(n²); segments are
owned (created and unlinked) solely by the dispatching process; and the
plane survives the process pool being torn down and rebuilt mid-cycle,
so a resubmitted task re-reads its intact prior.
"""

import glob
import json
import os
import pickle
import subprocess
import sys
import textwrap
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.core.hier_solver import HierarchicalSolver
from repro.core.hierarchy import assign_constraints
from repro.core.state import StructureEstimate
from repro.core.update import UpdateOptions
from repro.faults import FaultConfig, FaultInjector, fault_injection
from repro.parallel import (
    ParallelHierarchicalSolver,
    ProcessExecutor,
    SerialExecutor,
    SharedEstimatePlane,
)
from repro.parallel.scheduler import _NodeTask
from repro.parallel.shm import read_prior, write_posterior


@pytest.fixture
def assigned(two_group_problem):
    """(hierarchy, estimate) with constraints assigned to the tree."""
    _, constraints, hierarchy, estimate = two_group_problem
    assign_constraints(hierarchy, constraints)
    return hierarchy, estimate


def _estimate(rng, n_atoms):
    a = rng.normal(0, 1, (3 * n_atoms, 3 * n_atoms))
    return StructureEstimate(
        rng.normal(0, 1, 3 * n_atoms), a @ a.T / (3 * n_atoms) + np.eye(3 * n_atoms)
    )


def _shm_entries():
    return set(glob.glob("/dev/shm/psm_*"))


# ------------------------------------------------------------------ lifetime
class TestPlaneLifetime:
    def test_prior_roundtrip(self, rng):
        est = _estimate(rng, 5)
        with SharedEstimatePlane() as plane:
            handle = plane.put_prior(est)
            got = read_prior(handle)
            assert np.array_equal(got.mean, est.mean)
            assert np.array_equal(got.covariance, est.covariance)

    def test_posterior_roundtrip(self, rng):
        prior, post = _estimate(rng, 4), _estimate(rng, 4)
        with SharedEstimatePlane() as plane:
            handle = plane.put_prior(prior)
            write_posterior(handle, post)
            got = plane.read_posterior(handle)
            assert np.array_equal(got.mean, post.mean)
            assert np.array_equal(got.covariance, post.covariance)
            # the prior slot is untouched by posterior writes
            again = read_prior(handle)
            assert np.array_equal(again.mean, prior.mean)

    def test_posterior_dim_mismatch_rejected(self, rng):
        with SharedEstimatePlane() as plane:
            handle = plane.put_prior(_estimate(rng, 3))
            with pytest.raises(ValueError, match="state dim"):
                write_posterior(handle, _estimate(rng, 4))

    def test_resubmitted_write_overwrites_cleanly(self, rng):
        """Crash recovery rewrites the posterior slot; last write wins."""
        first, second = _estimate(rng, 3), _estimate(rng, 3)
        with SharedEstimatePlane() as plane:
            handle = plane.put_prior(first)
            write_posterior(handle, first)
            write_posterior(handle, second)
            got = plane.read_posterior(handle)
            assert np.array_equal(got.covariance, second.covariance)

    def test_release_is_idempotent(self, rng):
        plane = SharedEstimatePlane()
        handle = plane.put_prior(_estimate(rng, 2))
        assert len(plane) == 1
        plane.release(handle)
        plane.release(handle)  # second release is a no-op
        assert len(plane) == 0
        plane.close()

    def test_close_is_idempotent_and_releases_all(self, rng):
        before = _shm_entries()
        plane = SharedEstimatePlane()
        for _ in range(3):
            plane.put_prior(_estimate(rng, 2))
        assert plane.nbytes() == 3 * 8 * (2 * 6 + 2 * 36)
        plane.close()
        plane.close()
        assert len(plane) == 0 and plane.nbytes() == 0
        assert _shm_entries() == before

    def test_cycle_leaves_no_segments_behind(self, assigned):
        hierarchy, estimate = assigned
        before = _shm_entries()
        with ProcessExecutor(2) as ex:
            solver = ParallelHierarchicalSolver(
                hierarchy, batch_size=8, executor=ex
            )
            solver.run_cycle(estimate)
        assert _shm_entries() == before


# ------------------------------------------------------------------ wire size
class TestWireSize:
    def test_handle_pickles_small(self, rng):
        with SharedEstimatePlane() as plane:
            handle = plane.put_prior(_estimate(rng, 170))  # helix4 scale, n=510
            assert len(pickle.dumps(handle)) < 256

    def test_task_payload_is_o_handle_not_o_n_squared(self, rng):
        """The pickled task must not scale with the covariance size."""
        est = _estimate(rng, 86)  # n=258: covariance alone is 532 KB
        dense = _NodeTask(
            nid=0,
            prior=est,
            constraints=[],
            column_map=np.arange(86),
            batch_size=16,
            options=UpdateOptions(),
        )
        with SharedEstimatePlane() as plane:
            slim = _NodeTask(
                nid=0,
                prior=None,
                constraints=[],
                column_map=np.arange(86),
                batch_size=16,
                options=UpdateOptions(),
                prior_handle=plane.put_prior(est),
            )
            n = est.mean.shape[0]
            assert len(pickle.dumps(dense)) > 8 * n * n
            assert len(pickle.dumps(slim)) < 4096

    def test_plane_active_for_process_backend_by_default(self, assigned):
        hierarchy, _ = assigned
        with ProcessExecutor(2) as ex:
            solver = ParallelHierarchicalSolver(
                hierarchy, batch_size=8, executor=ex
            )
            assert solver._use_shared_memory()
        assert not ParallelHierarchicalSolver(
            hierarchy, executor=SerialExecutor()
        )._use_shared_memory()

    def test_segment_metrics_balance(self, assigned):
        """Every created segment is released by cycle end (obs counters)."""
        hierarchy, estimate = assigned
        registry = obs.MetricsRegistry()
        solver = ParallelHierarchicalSolver(
            hierarchy,
            batch_size=8,
            executor=SerialExecutor(),
            shared_memory=True,  # force the plane even inline
        )
        with obs.metrics_scope(registry):
            result = solver.run_cycle(estimate)
        counters = registry.snapshot()["counters"]
        assert counters["shm.segments_created"] == 3  # two leaves + root
        assert counters["shm.segments_created"] == counters["shm.segments_released"]
        assert counters["shm.bytes_allocated"] > 0
        # and the forced plane changes nothing numerically
        plain = HierarchicalSolver(hierarchy, batch_size=8).run_cycle(estimate)
        assert np.array_equal(result.estimate.mean, plain.estimate.mean)
        assert np.array_equal(result.estimate.covariance, plain.estimate.covariance)


# ------------------------------------------------------------- crash recovery
class TestCrashRecoveryWithPlane:
    def test_soft_crashes_absorbed(self, assigned):
        """crash_p=1.0 raise-mode: every node dies once, then succeeds."""
        hierarchy, estimate = assigned
        serial = HierarchicalSolver(hierarchy, batch_size=8).run_cycle(estimate)
        inj = FaultInjector(FaultConfig(crash_p=1.0, seed=0))
        registry = obs.MetricsRegistry()
        with ProcessExecutor(2) as ex:
            solver = ParallelHierarchicalSolver(
                hierarchy, batch_size=8, executor=ex
            )
            with fault_injection(inj), obs.metrics_scope(registry):
                result = solver.run_cycle(estimate)
        assert np.array_equal(result.estimate.mean, serial.estimate.mean)
        assert np.array_equal(result.estimate.covariance, serial.estimate.covariance)
        counters = registry.snapshot()["counters"]
        assert counters["executor.tasks_resubmitted"] >= 3
        assert counters["shm.segments_created"] == counters["shm.segments_released"]

    def test_plane_survives_pool_rebuild(self, assigned):
        """Hard-kill mode breaks the pool; rebuilt workers re-read intact
        priors from the same named segments and the solve completes."""
        hierarchy, estimate = assigned
        serial = HierarchicalSolver(hierarchy, batch_size=8).run_cycle(estimate)
        before = _shm_entries()
        inj = FaultInjector(FaultConfig(crash_p=0.5, crash_mode="kill", seed=7))
        registry = obs.MetricsRegistry()
        with ProcessExecutor(2) as ex:
            solver = ParallelHierarchicalSolver(
                hierarchy, batch_size=8, executor=ex
            )
            with fault_injection(inj), obs.metrics_scope(registry):
                result = solver.run_cycle(estimate)
        assert np.array_equal(result.estimate.mean, serial.estimate.mean)
        assert np.array_equal(result.estimate.covariance, serial.estimate.covariance)
        counters = registry.snapshot()["counters"]
        if counters.get("executor.pool_rebuilds", 0):
            # the rebuild path actually ran and still balanced the books
            assert counters["shm.segments_created"] == counters[
                "shm.segments_released"
            ]
        assert _shm_entries() == before


# Runs in a fresh interpreter so no resource tracker is running before the
# pool forks.  The pool is warmed before the session exists, as a client
# that starts its workers early does.  The pinned segments are untracked
# before exit so they outlive the script and the test can inspect them.
_WARM_POOL_SCRIPT = textwrap.dedent(
    """
    import json
    from multiprocessing import resource_tracker

    import repro.core
    from repro.core.session import SolveSession
    from repro.molecules.rna import build_helix
    from repro.parallel.executors import ProcessExecutor

    problem = build_helix(1)
    executor = ProcessExecutor(2)
    for future in [executor.submit(abs, 0) for _ in range(2)]:
        future.result()
    session = SolveSession(problem.hierarchy, problem.constraints, executor=executor)
    session.solve(problem.initial_estimate(0), max_cycles=1, tol=0.0)
    plane = session._plane
    names = [plane.pinned_name(n.nid) for n in session.hierarchy.nodes
             if plane.has_pinned(n.nid)]
    executor.close()  # every worker exits here
    for name in names:
        resource_tracker.unregister("/" + name, "shared_memory")
    print(json.dumps(names))
    """
)


class TestResourceTracker:
    def test_pinned_segments_survive_worker_exit(self):
        """Workers forked before any segment exists share the parent's tracker.

        A worker with a private tracker has every segment it attached
        unlinked when it exits, and its tracker warns about each one.
        ``subprocess.run`` returns only once every holder of the stderr
        pipe, worker trackers included, has exited, so both checks see
        the trackers' final state.
        """
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _WARM_POOL_SCRIPT],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        names = json.loads(proc.stdout.strip().splitlines()[-1])
        survivors = [n for n in names if os.path.exists(f"/dev/shm/{n}")]
        for name in survivors:
            shared_memory.SharedMemory(name=name).unlink()
        assert names and survivors == names
        assert "resource_tracker" not in proc.stderr
