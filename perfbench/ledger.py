"""Traced-run instrumentation: in-memory spans around layer calls, and the ledger.

Nothing here reaches into the program.  A :class:`Probe` installs thin
wrappers on public functions and methods of the layers (``repro.io``,
``repro.core.session``, ``repro.core.update``, ``repro.constraints``,
``repro.parallel`` and ``repro.parallel.shm``) in the benchmark's own
process, records one span per wrapped call, and reads what every cycle
already returns: the ``NodeSolveRecord`` list and the ``repro.linalg``
Recorder events, which workers ship home across the process boundary.
``repro.obs.tracing`` is never activated, so the program's own spans
stay off.

Wrappers record only while :attr:`Probe.active` is set.  The workloads
clear it on every other timed operation, so one traced run measures both
sides of ``obs.trace_overhead_pct``.  Wrappers that run in another
process (forked pool workers inherit them) call straight through.
"""

from __future__ import annotations

import itertools
import json
import os
import pickle
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro import io as rio
from repro.constraints.plan import BatchPlan
from repro.core import hier_solver, update
from repro.core.session import SolveSession
from repro.linalg.counters import CATEGORY_ORDER, current_recorder
from repro.linalg.workspace import Workspace
from repro.parallel import scheduler
from repro.parallel.shm import SharedEstimatePlane

CATEGORIES = tuple(c.value for c in CATEGORY_ORDER)

#: Ledger rows in the order they are printed; their self times add up to
#: each operation's wall time, the residual included.
LEDGER_LAYERS = ("session", "hier_solver", "parallel", "update", "constraints", "linalg")


class Probe:
    """Span log plus the wrappers that feed it.

    A span is ``(name, start, end, span_id, parent_id, tid, attrs)`` with
    times in seconds since the probe was created.  Spans opened on a
    thread with no open span of its own (a pool worker thread) take the
    running cycle's span as parent.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.active = True
        self.t0 = time.perf_counter()
        self.spans: list[tuple] = []
        self.overhead_s = 0.0
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.cycle_span: int | None = None
        #: Calls counted whether or not spans are on (BatchPlan cache use).
        self.plan_lookups = 0
        self.plan_builds = 0

    # ------------------------------------------------------------ spans
    def _recording(self) -> bool:
        return self.active and os.getpid() == self.pid

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        """Record ``name`` around the block; yields the attrs dict (or None)."""
        if not self._recording():
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else self.cycle_span
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            attrs["run_id"] = self.run_id
            row = (name, start - self.t0, end - self.t0, sid, parent,
                   threading.get_ident(), attrs)
            with self._lock:
                self.spans.append(row)
                self.overhead_s += time.perf_counter() - end

    def open_span(self) -> int | None:
        """Id of the innermost span open on the calling thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    # ---------------------------------------------------------- patching
    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _spanning(self, name: str, **fixed):
        def make(original):
            def wrapper(*args, **kwargs):
                with self.span(name, **fixed):
                    return original(*args, **kwargs)
            return wrapper
        return make

    def install(self) -> None:
        """Wrap the layer entry points the ledger reads."""
        probe = self
        self._patch(rio, "load_problem", self._spanning("io.load"))
        self._patch(rio, "save_estimate", self._spanning("io.save"))
        self._patch(SolveSession, "__init__", self._spanning("session.init"))
        for edit in ("add_constraints", "update_constraints", "remove_constraints"):
            self._patch(SolveSession, edit, self._spanning("session.edit", call=edit))
        self._patch(SolveSession, "resolve", self._spanning("session.resolve"))

        def kernel_tagged(name):
            """Span that also records the node tag and the kernel time inside it."""
            def make(original):
                def wrapper(*args, **kwargs):
                    if not probe._recording():
                        return original(*args, **kwargs)
                    rec = current_recorder()
                    n0 = len(rec.events) if rec is not None else 0
                    with probe.span(name) as attrs:
                        out = original(*args, **kwargs)
                        if rec is not None:
                            attrs["nid"] = rec.tag if isinstance(rec.tag, int) else -1
                            attrs["kernel_s"] = sum(e.seconds for e in rec.events[n0:])
                    return out
                return wrapper
            return make

        for module in (hier_solver, scheduler):
            self._patch(module, "apply_batch", kernel_tagged("update.apply_batch"))
        self._patch(update, "assemble_batch", kernel_tagged("constraints.assemble"))
        self._patch(BatchPlan, "assemble", kernel_tagged("constraints.assemble"))
        self._patch(BatchPlan, "__init__", kernel_tagged("constraints.plan_build"))

        def make_plan_for(original):
            def plan_for(ws, *args, **kwargs):
                if os.getpid() == probe.pid:
                    builds = ws.plan_builds
                    out = original(ws, *args, **kwargs)
                    with probe._lock:
                        probe.plan_lookups += 1
                        probe.plan_builds += ws.plan_builds - builds
                    return out
                return original(ws, *args, **kwargs)
            return plan_for

        self._patch(Workspace, "plan_for", make_plan_for)

        def shm_span(name):
            def make(original):
                def wrapper(plane, arg):
                    with probe.span(name) as attrs:
                        est = original(plane, arg)
                        if attrs is not None:
                            moved = arg if name == "shm.put_prior" else est
                            attrs["bytes"] = int(moved.mean.nbytes + moved.covariance.nbytes)
                    return est
                return wrapper
            return make

        self._patch(SharedEstimatePlane, "put_prior", shm_span("shm.put_prior"))
        self._patch(SharedEstimatePlane, "read_posterior", shm_span("shm.read_posterior"))

    def watch_executor(self, executor) -> None:
        """Wrap one executor's ``submit``: count, time and size each task."""
        probe = self
        pickles = executor.needs_pickling

        def make(original):
            def submit(fn, item, crash=False):
                if not probe._recording():
                    return original(fn, item, crash=crash)
                with probe.span("parallel.submit") as attrs:
                    future = original(fn, item, crash=crash)
                # Sized after the span closes: the extra pickling is tracer
                # cost, not dispatch cost.
                t = time.perf_counter()
                attrs["bytes"] = len(pickle.dumps(item)) if pickles else 0
                with probe._lock:
                    probe.overhead_s += time.perf_counter() - t
                return future
            return submit

        self._patch(executor, "submit", make)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------ export
    def write_jsonl(self, path: Path) -> Path:
        """Spans as a ``repro.obs`` spans-JSONL log (``python -m repro.obs.validate``)."""
        rows = [{"type": "meta", "obs_overhead_seconds": self.overhead_s,
                 "run_id": self.run_id}]
        for name, start, end, sid, parent, tid, attrs in sorted(
            self.spans, key=lambda r: (r[1], -r[2])
        ):
            rows.append({
                "type": "span", "name": name, "cat": name.split(".")[0],
                "start": start, "end": end, "dur": end - start, "span_id": sid,
                "parent_id": parent, "pid": self.pid, "tid": tid % (1 << 31),
                "attrs": {k: v for k, v in attrs.items()},
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
        return path


# ------------------------------------------------------------------ ledger
def critical_path(hierarchy, seconds: dict[int, float]) -> list[int]:
    """Node ids on the heaviest leaf→root chain among the nodes that ran."""
    best: dict[int, tuple[float, list[int]]] = {}
    for node in hierarchy.post_order():
        if node.nid not in seconds:
            continue
        below = [best[c.nid] for c in node.children if c.nid in best]
        cost, chain = max(below, key=lambda b: b[0]) if below else (0.0, [])
        best[node.nid] = (cost + seconds[node.nid], chain + [node.nid])
    root = hierarchy.root.nid
    return best[root][1] if root in best else []


class OpLedger:
    """Per-operation layer figures of the traced operations of one run."""

    def __init__(self, workers: int, backend: str):
        self.workers = workers
        self.backend = backend
        self.rows: list[dict[str, float]] = []

    def add(self, op_wall: float, cycle_wall: float, result, hierarchy,
            spans: list[tuple], extra: dict | None = None) -> None:
        """Fold one traced operation: one cycle plus the spans it produced."""
        recs = result.records
        node_s = {r.nid: r.seconds for r in recs}
        row: dict[str, float] = defaultdict(float)
        for r in recs:
            for e in r.events:
                cat = e.category.value
                row[f"linalg.{cat}.s"] += e.seconds
                row[f"linalg.{cat}.flop"] += e.flops
                row[f"linalg.{cat}.bytes"] += e.bytes
        row["update.batches"] = sum(r.n_batches for r in recs)
        kernel_total = sum(e.seconds for r in recs for e in r.events)
        row["update.orchestration_s"] = sum(node_s.values()) - kernel_total
        by_name: dict[str, list[tuple]] = defaultdict(list)
        for s in spans:
            by_name[s[0]].append(s)

        def total(name, key=None, nids=None):
            out = 0.0
            for s in by_name.get(name, ()):
                if nids is not None and s[6].get("nid") not in nids:
                    continue
                out += s[6].get(key, 0.0) if key else s[2] - s[1]
            return out

        parallel = self.backend != "serial"
        cp = critical_path(hierarchy, node_s) if parallel else list(node_s)
        cp_set = set(cp)
        cp_node = sum(node_s[n] for n in cp)
        cp_kernel = sum(e.seconds for r in recs if r.nid in cp_set for e in r.events)
        visible = self.backend != "process"  # apply_batch runs in our process
        batch_s = total("update.apply_batch", nids=cp_set)
        asm_names = ("constraints.assemble", "constraints.plan_build")
        asm_s = sum(total(n, nids=cp_set) for n in asm_names)
        asm_kernel = sum(total(n, "kernel_s", nids=cp_set) for n in asm_names)
        row["constraints.assemble_s"] = total("constraints.assemble")
        row["constraints.plan_build_s"] = total("constraints.plan_build")
        row["solver.glue_s"] = 0.0 if parallel else cycle_wall - cp_node
        if parallel:
            submits = by_name.get("parallel.submit", ())
            row["parallel.submits"] = len(submits)
            row["parallel.submit_s"] = total("parallel.submit")
            row["parallel.task_bytes"] = (
                sum(s[6]["bytes"] for s in submits) / len(submits) if submits else 0.0
            )
            row["parallel.submit_useful_ratio"] = len(recs) / len(submits) if submits else 0.0
            row["parallel.busy_s"] = sum(node_s.values())
            row["parallel.wait_s"] = cycle_wall - cp_node
            row["parallel.occupancy"] = row["parallel.busy_s"] / (cycle_wall * self.workers)
        row["shm.put_prior_s"] = total("shm.put_prior")
        row["shm.read_posterior_s"] = total("shm.read_posterior")
        row["shm.bytes"] = total("shm.put_prior", "bytes") + total("shm.read_posterior", "bytes")
        # The ledger: self times that add up to the operation's wall time.
        linalg = cp_kernel - asm_kernel
        constraints = asm_s
        if visible:
            update_self = batch_s - linalg - constraints
            residual = cp_node - batch_s
        else:
            update_self = cp_node - linalg
            residual = 0.0
        ledger = {
            "session": op_wall - cycle_wall,
            "hier_solver": row["solver.glue_s"],
            "parallel": cycle_wall - cp_node if parallel else 0.0,
            "update": update_self,
            "constraints": constraints,
            "linalg": linalg,
        }
        for layer, value in ledger.items():
            row[f"ledger.{layer}.self_s"] = value
        row["ledger.residual_s"] = residual
        row["op_wall_s"] = op_wall
        if extra:
            row.update(extra)
        self.rows.append(dict(row))

    def mean(self, key: str) -> float:
        vals = [r.get(key, 0.0) for r in self.rows]
        return float(np.mean(vals)) if vals else 0.0


# ----------------------------------------------------------- metric table
def _per_layer_table() -> list[tuple[str, str, str]]:
    rows = [
        ("io.load_s", "s", "lower"), ("io.save_s", "s", "lower"),
        ("session.init_s", "s", "lower"), ("session.edit_s", "s", "lower"),
        ("session.dirty_nodes", "count", "lower"), ("session.cache_hits", "count", "higher"),
        ("update.batches", "count", "lower"), ("update.orchestration_s", "s", "lower"),
        ("update.retries", "count", "lower"), ("update.quarantined", "count", "lower"),
        ("solver.glue_s", "s", "lower"),
        ("constraints.plan_builds", "count", "lower"),
        ("constraints.plan_hit_ratio", "ratio", "higher"),
        ("constraints.plan_build_s", "s", "lower"), ("constraints.assemble_s", "s", "lower"),
    ]
    for cat in CATEGORIES:
        rows += [(f"linalg.{cat}.s", "s", "lower"), (f"linalg.{cat}.flop", "flop", "lower"),
                 (f"linalg.{cat}.bytes", "B", "lower")]
    rows += [
        ("parallel.pool_start_s", "s", "lower"), ("parallel.submit_rtt_ms", "ms", "lower"),
        ("parallel.submits", "count", "lower"),
        ("parallel.submit_useful_ratio", "ratio", "higher"),
        ("parallel.submit_s", "s", "lower"), ("parallel.task_bytes", "B", "lower"),
        ("parallel.busy_s", "s", "lower"), ("parallel.wait_s", "s", "lower"),
        ("parallel.occupancy", "ratio", "higher"),
        ("shm.put_prior_s", "s", "lower"), ("shm.read_posterior_s", "s", "lower"),
        ("shm.bytes", "B", "lower"),
        ("obs.trace_overhead_pct", "%", "lower"),
    ]
    rows += [(f"ledger.{layer}.self_s", "s", "lower") for layer in LEDGER_LAYERS]
    rows += [("ledger.residual_s", "s", "lower"), ("rmsd_A", "A", "lower"),
             ("host.kernel_ms", "ms", "lower")]
    return rows


#: (name, unit, better) of every per-layer metric a traced run reports.
PER_LAYER = _per_layer_table()

#: Per-layer metrics that are means over the traced timed operations.
OP_MEANS = (
    ["session.edit_s", "session.dirty_nodes", "session.cache_hits", "update.batches",
     "update.orchestration_s", "solver.glue_s", "constraints.plan_builds",
     "constraints.plan_build_s", "constraints.assemble_s"]
    + [f"linalg.{cat}.{kind}" for cat in CATEGORIES for kind in ("s", "flop", "bytes")]
    + ["parallel.submits", "parallel.submit_useful_ratio", "parallel.submit_s",
       "parallel.task_bytes", "parallel.busy_s", "parallel.wait_s", "parallel.occupancy",
       "shm.put_prior_s", "shm.read_posterior_s", "shm.bytes"]
    + [f"ledger.{layer}.self_s" for layer in LEDGER_LAYERS] + ["ledger.residual_s"]
)
