"""Shared-memory estimate plane for cross-process node dispatch.

The process backend used to pickle every node prior (an n-vector plus an
n×n covariance) into the task and the full posterior back out — O(n²)
bytes per node per direction, every wavefront.  The estimate plane moves
those arrays through ``multiprocessing.shared_memory`` instead: the
dispatching process writes the prior into a named segment and ships only
an :class:`EstimateHandle` (a name and a dimension — O(bytes), not
O(n²)); the worker attaches by name, reads the prior, and writes the
posterior into a pre-allocated slot of the *same* segment; the parent
copies the posterior out and releases the segment.

Segment layout (all float64)::

    [ prior mean (n) | prior cov (n×n) | posterior mean (n) | posterior cov (n×n) ]

Lifetime rules
--------------
* Segments are created **and** unlinked only by the owning
  :class:`SharedEstimatePlane` in the dispatching process.  Workers
  attach and detach; they never unlink.  This is what lets the plane
  survive the executor's pool-rebuild crash recovery: a rebuilt pool's
  fresh workers attach to the same named segments, and a resubmitted
  task re-reads its intact prior (the prior slot is never written after
  creation; the posterior slot is fully overwritten on every attempt).
* Resource-tracker registrations (which attach performs too on this
  Python) are left to coalesce in the tracker's set cache and are
  cleared exactly once by the owner's ``unlink`` — see :func:`_attach`
  for why no manual untracking happens.  This needs the workers to share
  the dispatching process's tracker, which they do only if it was
  running when they forked: :class:`~repro.parallel.executors.ProcessExecutor`
  starts it before creating (or rebuilding) its pool.  A worker forked
  without it starts a private tracker, which unlinks every segment the
  worker ever attached — pinned posteriors included — when it exits.
* :meth:`SharedEstimatePlane.release` and :meth:`close` are idempotent,
  so crash-recovery paths may release defensively; ``close`` runs in the
  scheduler's ``finally`` so no cycle outcome leaks segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro import obs
from repro.core.state import StructureEstimate

__all__ = [
    "EstimateHandle",
    "SharedEstimatePlane",
    "read_prior",
    "write_posterior",
]


@dataclass(frozen=True)
class EstimateHandle:
    """Picklable reference to one node's estimate segment.

    ``name`` is the OS-level shared-memory name; ``n_state`` the state
    dimension (enough to reconstruct the full layout).  Pickling a handle
    costs O(len(name)) bytes regardless of the state dimension.
    """

    name: str
    n_state: int


def _segment_size(n: int) -> int:
    return 8 * (2 * n + 2 * n * n)


def _mean_view(buf: memoryview, n: int, slot: int) -> np.ndarray:
    """Mean view for slot 0 (prior) or 1 (posterior)."""
    offset = 0 if slot == 0 else 8 * (n + n * n)
    return np.frombuffer(buf, dtype=np.float64, count=n, offset=offset)


def _cov_view(buf: memoryview, n: int, slot: int) -> np.ndarray:
    """Covariance view for slot 0 (prior) or 1 (posterior)."""
    offset = 8 * n if slot == 0 else 8 * (2 * n + n * n)
    return np.frombuffer(buf, dtype=np.float64, count=n * n, offset=offset).reshape(
        n, n
    )


def _attach(handle: EstimateHandle) -> shared_memory.SharedMemory:
    """Worker-side attach; segment ownership stays with the parent.

    On this Python, attaching registers the name with the resource
    tracker just like creating does.  The pool's forked workers share
    the parent's tracker (:class:`~repro.parallel.executors.ProcessExecutor`
    starts it before they fork), whose cache is a *set*: the duplicate
    registrations coalesce, and the single ``unregister`` issued by the
    owning plane's ``unlink`` clears the name exactly once (tracker-pipe
    writes are ordered, and every worker registration precedes the
    parent's unlink because the parent only unlinks after the worker's
    result arrives).  Unbalanced manual unregisters would instead race
    another attach and spill ``KeyError`` noise from the tracker — so no
    untracking happens here, and any segment that survives a hard crash
    of the dispatching process is unlinked by the tracker at shutdown.
    """
    return shared_memory.SharedMemory(name=handle.name)


def read_prior(handle: EstimateHandle) -> StructureEstimate:
    """Copy the prior estimate out of ``handle``'s segment (worker side)."""
    shm = _attach(handle)
    try:
        n = handle.n_state
        mean = _mean_view(shm.buf, n, 0).copy()
        cov = _cov_view(shm.buf, n, 0).copy()
    finally:
        # Every array above is a fresh copy; nothing references the
        # mapping, so the close is legal even on the error path.
        shm.close()
    return StructureEstimate(mean, cov)


def write_posterior(handle: EstimateHandle, estimate: StructureEstimate) -> None:
    """Write ``estimate`` into ``handle``'s posterior slot (worker side).

    The slot is fully overwritten, so a resubmitted task (crash recovery)
    simply replaces whatever a lost attempt may have left behind.
    """
    n = handle.n_state
    if estimate.mean.shape != (n,):
        raise ValueError(
            f"posterior has state dim {estimate.mean.shape[0]}, segment holds {n}"
        )
    shm = _attach(handle)
    mean = cov = None
    try:
        mean = _mean_view(shm.buf, n, 1)
        cov = _cov_view(shm.buf, n, 1)
        mean[:] = estimate.mean
        cov[:, :] = estimate.covariance
    finally:
        del mean, cov  # the mapping cannot close while views are exported
        shm.close()


class SharedEstimatePlane:
    """Owner of the per-node estimate segments in the dispatching process.

    Beyond the per-task transient segments, the plane supports *pinned*
    per-node posterior segments for incremental re-solves (see
    :mod:`repro.core.session`): instead of releasing a completed node's
    segment, :meth:`promote` retains it under the node id with the
    plane's current *generation* tag.  A later re-solve reads clean
    subtrees' posteriors straight out of their pinned segments
    (:meth:`pinned_posterior`) rather than re-shipping them, and replaces
    a dirty node's pin with the newly computed segment.  Generations are
    bumped once per re-solve, so a segment's tag records which re-solve
    last wrote it — the session's tests use this to prove clean subtrees
    were physically reused.
    """

    def __init__(self) -> None:
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._dims: dict[str, int] = {}
        self._pinned: dict[int, str] = {}  # nid -> segment name
        self._pin_generation: dict[int, int] = {}
        self.generation = 0

    def __len__(self) -> int:
        return len(self._segments)

    def nbytes(self) -> int:
        """Total bytes currently held in live segments."""
        return sum(s.size for s in self._segments.values())

    # ------------------------------------------------------------- pinning
    def bump_generation(self) -> int:
        """Advance the generation tag applied to subsequent pins."""
        self.generation += 1
        return self.generation

    def promote(self, handle: EstimateHandle, nid: int) -> None:
        """Pin ``handle``'s segment as node ``nid``'s posterior segment.

        The segment stays alive across re-solves (it is exempt from
        :meth:`release`) until a newer segment is promoted for the same
        node or the plane is closed.  The displaced pin, if any, is
        destroyed.
        """
        if handle.name not in self._segments:
            raise KeyError(f"segment {handle.name} is not owned by this plane")
        previous = self._pinned.get(nid)
        self._pinned[nid] = handle.name
        self._pin_generation[nid] = self.generation
        if previous is not None and previous != handle.name:
            self._destroy(previous)
        obs.inc("shm.segments_pinned")

    def pin_posterior(self, nid: int, estimate: StructureEstimate) -> None:
        """Pin a posterior for ``nid`` by copying it into a fresh segment.

        Used when the posterior was computed host-side (e.g. a serial
        fallback pass) but the session keeps its cache on the plane.
        """
        n = estimate.mean.shape[0]
        shm = shared_memory.SharedMemory(create=True, size=_segment_size(n))
        self._segments[shm.name] = shm
        self._dims[shm.name] = n
        _mean_view(shm.buf, n, 1)[:] = estimate.mean
        _cov_view(shm.buf, n, 1)[:, :] = estimate.covariance
        obs.inc("shm.segments_created")
        obs.inc("shm.bytes_allocated", shm.size)
        self.promote(EstimateHandle(name=shm.name, n_state=n), nid)

    def has_pinned(self, nid: int) -> bool:
        return nid in self._pinned

    def pinned_posterior(self, nid: int) -> StructureEstimate:
        """Copy node ``nid``'s posterior out of its pinned segment."""
        name = self._pinned.get(nid)
        if name is None:
            raise KeyError(f"no pinned segment for node {nid}")
        shm = self._segments[name]
        n = self._dims[name]
        obs.inc("shm.segments_reused")
        return StructureEstimate(
            _mean_view(shm.buf, n, 1).copy(), _cov_view(shm.buf, n, 1).copy()
        )

    def pinned_generation(self, nid: int) -> int:
        """Generation tag of node ``nid``'s pinned segment."""
        return self._pin_generation[nid]

    def pinned_name(self, nid: int) -> str:
        """OS-level segment name pinned for ``nid`` (for lifetime checks)."""
        return self._pinned[nid]

    def unpin(self, nid: int) -> None:
        """Drop and destroy node ``nid``'s pinned segment (idempotent)."""
        name = self._pinned.pop(nid, None)
        self._pin_generation.pop(nid, None)
        if name is not None:
            self._destroy(name)

    def put_prior(self, estimate: StructureEstimate) -> EstimateHandle:
        """Allocate a segment, write ``estimate`` as its prior, return a handle."""
        n = estimate.mean.shape[0]
        shm = shared_memory.SharedMemory(create=True, size=_segment_size(n))
        self._segments[shm.name] = shm
        self._dims[shm.name] = n
        _mean_view(shm.buf, n, 0)[:] = estimate.mean
        _cov_view(shm.buf, n, 0)[:, :] = estimate.covariance
        obs.inc("shm.segments_created")
        obs.inc("shm.bytes_allocated", shm.size)
        return EstimateHandle(name=shm.name, n_state=n)

    def read_posterior(self, handle: EstimateHandle) -> StructureEstimate:
        """Copy the posterior out of ``handle``'s segment (parent side)."""
        shm = self._segments[handle.name]
        n = self._dims[handle.name]
        return StructureEstimate(
            _mean_view(shm.buf, n, 1).copy(), _cov_view(shm.buf, n, 1).copy()
        )

    def release(self, handle: EstimateHandle) -> None:
        """Destroy ``handle``'s segment; safe to call more than once.

        Pinned segments are exempt: a release racing a promote (both run
        in the dispatching process's ingest path) must never tear down a
        segment the session cache still references.
        """
        if handle.name in self._pinned.values():
            return
        self._destroy(handle.name)

    def _destroy(self, name: str) -> None:
        shm = self._segments.pop(name, None)
        self._dims.pop(name, None)
        if shm is None:
            return
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        obs.inc("shm.segments_released")

    def close(self) -> None:
        """Release every live segment, pinned included (idempotent)."""
        self._pinned.clear()
        self._pin_generation.clear()
        for name in list(self._segments):
            self._destroy(name)

    def close_transient(self) -> None:
        """Release every segment that is not pinned (end of one pass)."""
        pinned = set(self._pinned.values())
        for name in list(self._segments):
            if name not in pinned:
                self._destroy(name)

    def __enter__(self) -> "SharedEstimatePlane":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
