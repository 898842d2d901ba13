"""Per-thread reusable buffer arena for the fast update path.

The fast measurement-update kernels (:mod:`repro.linalg.fast`) operate in
place on Fortran-ordered buffers so the BLAS level-3 routines can write
their output without intermediate copies.  Allocating those buffers per
batch would put an O(n·m) — and, naively, O(n²) — allocation on the hot
path for every constraint batch; the :class:`Workspace` arena instead
hands out buffers keyed by ``(name, shape)`` and reuses them across the
batches (and local relinearization iterations) of a node solve.

Aliasing rules
--------------
* A workspace buffer is valid until the next :meth:`Workspace.take` with
  the same key; callers must never let a buffer escape into a returned
  object (e.g. a posterior :class:`~repro.core.state.StructureEstimate`)
  — results that outlive the call must be freshly allocated.
* Buffers are per-thread (:func:`get_workspace` hands each thread its
  own arena), so the thread-pool executor's concurrent node solves never
  share a buffer.  Worker processes get their own arena per process.
* Contents are *not* zeroed on reuse; callers overwrite fully.

Besides scratch buffers the arena also looks up the compiled
:class:`~repro.constraints.plan.BatchPlan` sparsity plans of the
production (``"fast"``) kernel tier (:meth:`Workspace.plan_for`), keyed
by constraint identity so they survive cycles, local iterations and warm
session re-solves.  Unlike the buffers, plans are read-only once built,
so one cache serves every thread of the process: a node solved on a
different thread than last cycle still hits, and the thread backend
holds one copy of each plan rather than one per thread.  The cache holds
its constraints only weakly: a plan is dropped as soon as any constraint
it was built from is collected, so an edit frees exactly the plans that
contained a replaced constraint and a dropped problem frees all of its
plans.
"""

from __future__ import annotations

import threading
import weakref
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.constraints.batch import ConstraintBatch
    from repro.constraints.plan import BatchPlan

__all__ = ["Workspace", "get_workspace"]


class Workspace:
    """Arena of reusable float64 scratch buffers keyed by name and shape.

    Buffers are Fortran-ordered by default, matching what the BLAS
    wrappers in :mod:`repro.linalg.fast` need to work in place.
    """

    def __init__(self) -> None:
        self._buffers: dict[tuple, np.ndarray] = {}
        self.hits = 0
        self.misses = 0
        self.plan_hits = 0
        self.plan_builds = 0

    def take(
        self, name: str, shape: tuple[int, ...], order: str = "F"
    ) -> np.ndarray:
        """Return a reusable uninitialized buffer for ``(name, shape)``.

        The same key returns the same array on every call until a
        different shape is requested under that name (the arena keeps one
        buffer per distinct key, so alternating shapes both stay cached).
        """
        key = (name, shape, order)
        buf = self._buffers.get(key)
        if buf is None:
            buf = np.empty(shape, dtype=np.float64, order=order)
            self._buffers[key] = buf
            self.misses += 1
        else:
            self.hits += 1
        return buf

    def plan_for(
        self,
        batch: "ConstraintBatch",
        atom_to_column: np.ndarray | None = None,
        n_columns: int | None = None,
    ) -> "BatchPlan":
        """The cached :class:`BatchPlan` for ``batch``, built on first miss.

        The key is the tuple of the batch's constraint *identities* plus
        the local column slots its atoms map to (and the Jacobian width):
        the hierarchical solvers rebuild ``ConstraintBatch`` wrappers every
        cycle but keep the underlying constraint objects, so plans hit
        across cycles, local iterations and warm ``SolveSession.resolve()``
        re-solves; a session edit replaces constraint objects and thereby
        misses exactly the plans that contained one.

        An entry lives exactly as long as all of its constraints: it holds
        them through weak references whose callback drops the entry when
        any one is collected, on whichever thread that happens (a single
        ``dict.pop`` under the GIL).  The callback runs before the dead
        object's memory can be reused, so a cached key can never alias a
        recycled ``id()``.  The cache is shared by every thread's arena;
        ``plan_hits`` / ``plan_builds`` count this arena's lookups.
        """
        from repro import obs  # deferred: keep arena importable standalone
        from repro.constraints.plan import BatchPlan  # deferred: import cycle

        if atom_to_column is None:
            slot_key = None
        else:
            slot_key = atom_to_column[batch.atoms()].tobytes()
        key = (
            tuple(map(id, batch.constraints)),
            None if n_columns is None else int(n_columns),
            slot_key,
        )
        entry = _PLANS.get(key)
        if entry is not None:
            self.plan_hits += 1
            obs.inc("plan.cache_hits")
            return entry[0]
        plan = BatchPlan(batch, atom_to_column, n_columns)
        self.plan_builds += 1
        obs.inc("plan.cache_builds")

        def drop(_ref, key=key):
            _PLANS.pop(key, None)

        # Two threads missing on the same key both build; the later store
        # wins and the earlier entry's weak references die with it.
        _PLANS[key] = (plan, [weakref.ref(c, drop) for c in batch.constraints])
        return plan

    def plan_count(self) -> int:
        """Number of batch plans currently cached (process-wide)."""
        return len(_PLANS)

    def nbytes(self) -> int:
        """Total bytes currently held by the arena's scratch buffers."""
        return sum(b.nbytes for b in self._buffers.values())

    def clear(self) -> None:
        """Drop this arena's buffers and every cached batch plan."""
        self._buffers.clear()
        _PLANS.clear()


_LOCAL = threading.local()
#: The process-wide plan cache: key -> (plan, weak references to the
#: plan's constraints).  Every access is a single dict operation.
_PLANS: dict[tuple, tuple["BatchPlan", list]] = {}


def get_workspace() -> Workspace:
    """The calling thread's workspace arena (created on first use)."""
    ws = getattr(_LOCAL, "workspace", None)
    if ws is None:
        ws = Workspace()
        _LOCAL.workspace = ws
    return ws
