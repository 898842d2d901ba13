"""One valid triangle inside a batch chain, one mirror when it leaves.

The fast tier's downdate maintains the upper triangle of a C-ordered
covariance only, and every kernel between two downdates reads only that
triangle.  These tests pin the invariant from both sides: poisoning the
other triangle between two chained batches changes nothing, and every
posterior that leaves ``apply_batch`` or a node's batch chain is
exactly symmetric, on every backend, after at most one mirror per node.
"""

import numpy as np
import pytest

from repro.constraints import (
    DistanceConstraint,
    LinearConstraint,
    PositionConstraint,
)
from repro.constraints.batch import ConstraintBatch, make_batches
from repro.core.flat import FlatSolver
from repro.core.hier_solver import HierarchicalSolver
from repro.core.state import StructureEstimate
from repro.core.update import UpdateOptions, apply_batch
from repro.linalg import recording
from repro.linalg.counters import OpCategory
from repro.parallel import (
    ParallelHierarchicalSolver,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
)
from repro.parallel.scheduler import _NodeTask, _run_node_task

EXECUTORS = {
    "serial": SerialExecutor,
    "thread": lambda: ThreadExecutor(2),
    "process": lambda: ProcessExecutor(2),
}


def _spd(rng, n):
    a = rng.normal(0, 1, (n, n))
    return a @ a.T / n + np.eye(n)


def _problem(rng, p, atoms_per_batch):
    """``p`` atoms; two batches whose constraints touch ``atoms_per_batch``."""
    coords = rng.normal(0, 2, (p, 3))
    estimate = StructureEstimate(
        (coords + rng.normal(0, 0.3, coords.shape)).ravel(), _spd(rng, 3 * p)
    )
    batches = []
    for start in (0, p - atoms_per_batch):
        atoms = list(range(start, start + atoms_per_batch))
        cons = [PositionConstraint(atoms[0], coords[atoms[0]], 0.05)]
        for i, j in zip(atoms, atoms[1:]):
            d = float(np.linalg.norm(coords[i] - coords[j]))
            cons.append(DistanceConstraint(i, j, d, 0.05))
        batches.append(ConstraintBatch(tuple(cons)))
    return estimate, batches


def _is_mirror(event):
    """The completion mirror, booked under ``m-m`` beside the dsyrk."""
    return event.op == "mirror"


def _cht_kernel(events, n):
    """Which kernel formed the ``n``-row ``C·Hᵗ``: symm or gather_cht."""
    kinds = {
        e.op
        for e in events
        if e.op in ("symm", "gather_cht") and e.shape[0] == n
    }
    assert len(kinds) == 1
    return kinds.pop()


def _chain(estimate, batches, options, poison):
    """Run two chained batches, optionally NaN-filling the lower triangle between."""
    mid = apply_batch(estimate, batches[0], options=options, complete=False)
    if poison:
        mid.covariance[np.tril_indices(mid.dim, -1)] = np.nan
    with recording() as rec:
        out = apply_batch(
            mid, batches[1], options=options, consume_estimate=True
        )
    return out, rec.events


class TestUnmaintainedTriangleIsNeverRead:
    @pytest.mark.parametrize(
        "p, atoms_per_batch, branch",
        [(6, 6, "symm"), (40, 4, "gather_cht")],
    )
    @pytest.mark.parametrize("local_iterations", [1, 2])
    def test_poisoned_lower_triangle_changes_nothing(
        self, rng, p, atoms_per_batch, branch, local_iterations
    ):
        estimate, batches = _problem(rng, p, atoms_per_batch)
        opts = UpdateOptions(local_iterations=local_iterations)
        clean, events = _chain(estimate, batches, opts, poison=False)
        poisoned, _ = _chain(estimate, batches, opts, poison=True)
        assert _cht_kernel(events, 3 * p) == branch
        assert sum(_is_mirror(e) for e in events) == 1
        assert np.array_equal(clean.mean, poisoned.mean)
        assert np.array_equal(clean.covariance, poisoned.covariance)
        assert (poisoned.covariance == poisoned.covariance.T).all()

    @pytest.mark.parametrize(
        "p, atoms_per_batch, branch, other",
        [(6, 6, "symm", "gather_cht"), (40, 4, "gather_cht", "symm")],
    )
    def test_cht_kernels_carry_distinct_op_names(
        self, rng, p, atoms_per_batch, branch, other
    ):
        """Both ``C·Hᵗ`` kernels book under ``d-s``; ``op`` tells them apart."""
        estimate, batches = _problem(rng, p, atoms_per_batch)
        _, events = _chain(estimate, batches, UpdateOptions(), poison=False)
        ops = {e.op for e in events if e.category == OpCategory.DENSE_SPARSE}
        assert branch in ops and other not in ops
        assert all(e.category == OpCategory.MATMAT for e in events if _is_mirror(e))

    def test_standalone_call_is_a_chain_of_one(self, rng):
        estimate, batches = _problem(rng, 40, 4)
        out = apply_batch(estimate, batches[0])
        assert (out.covariance == out.covariance.T).all()

    def test_unfinished_posterior_keeps_only_the_upper_triangle(self, rng):
        estimate, batches = _problem(rng, 6, 6)
        out = apply_batch(estimate, batches[0], complete=False)
        lower = np.tril_indices(out.dim, -1)
        # The other triangle still holds the prior's values.
        assert np.array_equal(out.covariance[lower], estimate.covariance[lower])


class TestQuarantinedLastBatch:
    """A chain that ends on a skipped batch still completes its intermediate."""

    @staticmethod
    def _failing_tail(rng):
        estimate, batches = _problem(rng, 12, 6)
        constraints = [c for b in batches for c in b.constraints]
        bad = LinearConstraint((0,), np.eye(3)[:1], np.zeros(1), np.ones(1))
        bad.variance[:] = -1e6  # S cannot be factored at any retry level
        return estimate, constraints + [bad]

    def test_flat_solver(self, rng):
        estimate, constraints = self._failing_tail(rng)
        res = FlatSolver(
            constraints, batch_size=4, options=UpdateOptions(max_retries=1)
        ).run_cycle(estimate)
        assert [q.n_rows for q in res.quarantined] == [1]
        assert make_batches(constraints, 4)[-1].constraints == (constraints[-1],)
        c = res.estimate.covariance
        assert not np.array_equal(c, estimate.covariance)
        assert (c == c.T).all()

    def test_worker_task(self, rng):
        estimate, constraints = self._failing_tail(rng)
        task = _NodeTask(
            nid=0,
            prior=estimate,
            constraints=constraints,
            column_map=np.arange(estimate.n_atoms),
            batch_size=4,
            options=UpdateOptions(max_retries=1),
        )
        result = _run_node_task(task)
        assert [q.n_rows for q in result.quarantined] == [1]
        c = result.posterior.covariance
        assert not np.array_equal(c, estimate.covariance)
        assert (c == c.T).all()


class _Collect:
    """A posterior cache that keeps every node posterior a pass stores."""

    def __init__(self):
        self.stored: dict[int, StructureEstimate] = {}

    def load(self, nid):
        return self.stored[nid]

    def store(self, nid, estimate):
        self.stored[nid] = estimate


def _mirrors_per_node(records):
    return {r.nid: sum(_is_mirror(e) for e in r.events) for r in records}


class TestOneMirrorPerNode:
    @pytest.mark.parametrize("backend", sorted(EXECUTORS))
    def test_every_node_posterior_exactly_symmetric(self, helix2_problem, backend):
        cache = _Collect()
        with EXECUTORS[backend]() as ex:
            solver = ParallelHierarchicalSolver(
                helix2_problem.hierarchy, batch_size=16, executor=ex
            )
            result = solver.run_cycle(helix2_problem.initial_estimate(0), cache=cache)
        assert set(cache.stored) == {n.nid for n in helix2_problem.hierarchy.nodes}
        for est in cache.stored.values():
            assert (est.covariance == est.covariance.T).all()
        c = result.estimate.covariance
        assert (c == c.T).all()

    @pytest.mark.parametrize("backend", sorted(EXECUTORS))
    def test_warm_cycle_mirrors_once_per_node(self, helix2_problem, backend):
        hierarchy = helix2_problem.hierarchy
        with EXECUTORS[backend]() as ex:
            solver = ParallelHierarchicalSolver(hierarchy, batch_size=16, executor=ex)
            est = solver.run_cycle(helix2_problem.initial_estimate(0)).estimate
            warm = solver.run_cycle(est)
        counts = _mirrors_per_node(warm.records)
        expected = {n.nid: int(bool(n.constraints)) for n in hierarchy.nodes}
        assert counts == expected
        batches = sum(r.n_batches for r in warm.records)
        assert sum(counts.values()) < batches

    def test_serial_solver_mirrors_once_per_node(self, helix2_problem):
        hierarchy = helix2_problem.hierarchy
        solver = HierarchicalSolver(hierarchy, batch_size=16)
        est = solver.run_cycle(helix2_problem.initial_estimate(0)).estimate
        warm = solver.run_cycle(est)
        assert _mirrors_per_node(warm.records) == {
            n.nid: int(bool(n.constraints)) for n in hierarchy.nodes
        }

    def test_flat_solver_mirrors_once_per_cycle(self, rng):
        estimate, batches = _problem(rng, 12, 6)
        constraints = [c for b in batches for c in b.constraints]
        with recording() as rec:
            res = FlatSolver(constraints, batch_size=4).run_cycle(estimate)
        assert len(make_batches(constraints, 4)) > 1
        assert sum(_is_mirror(e) for e in rec.events) == 1
        c = res.estimate.covariance
        assert (c == c.T).all()

    @pytest.mark.parametrize(
        "options",
        [UpdateOptions(joseph=True), UpdateOptions(kernel_impl="reference")],
        ids=["joseph", "reference"],
    )
    def test_full_matrix_paths_are_not_mirrored(self, helix2_problem, options):
        solver = HierarchicalSolver(helix2_problem.hierarchy, 16, options=options)
        res = solver.run_cycle(helix2_problem.initial_estimate(0))
        assert not any(_is_mirror(e) for e in res.recorder.events)
        c = res.estimate.covariance
        assert (c == c.T).all()
