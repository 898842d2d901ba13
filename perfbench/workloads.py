"""The three benchmark workloads: inputs from a seed, timed operations, checks.

Each workload drives the library the way the CLI does: the problem is
saved to and loaded from ``.npz``, the ``repro.obs`` flight recorder is
active around the solve (as ``repro solve`` keeps it), tracer and metrics
registry stay off, and every option the workload does not name keeps
its library/CLI default.  ``README.md`` in this directory says why each
workload exists and what every metric means.
"""

from __future__ import annotations

import ctypes
import json
import multiprocessing
import os
import platform
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro.core  # noqa: F401  - must import before repro.molecules
from repro import io as rio
from repro import obs
from repro.constraints.distance import DistanceConstraint
from repro.core.estimator import StructureEstimator
from repro.core.hier_solver import HierarchicalSolver
from repro.core.session import SolveSession
from repro.core.update import UpdateOptions
from repro.molecules.ribosome import build_ribo30s
from repro.molecules.rna import build_helix
from repro.molecules.superpose import superposed_rmsd
from repro.parallel.executors import ProcessExecutor, ThreadExecutor
from repro.parallel.scheduler import ParallelHierarchicalSolver

import hostspeed
import ledger

WORKERS = 2
BATCH_SIZE = 16  # the CLI and library default
#: Set-ups before the timed loop; setup_s is the median of these and of
#: the one that precedes each cold solve in the loop.
SETUP_REPEATS = 8
#: An output rmsd may exceed the seed code's value for the same seed by
#: this share before the run counts it as a failure.  A seed the table
#: lacks is held to the largest recorded value plus RMSD_UNSEEN_RTOL: the
#: rmsd of these unconverged solves spreads widely over seeds.
RMSD_RTOL = 0.01
RMSD_UNSEEN_RTOL = 0.25
REFERENCE = Path(__file__).with_name("reference_rmsd.json")
TAIL_LADDER = (0.5, 0.75, 0.9, 0.95, 0.99)
RTT_SAMPLES = 20


@dataclass(frozen=True)
class Size:
    """One scale of a workload: generator argument and loop lengths."""

    arg: int             # helix base pairs, or ribosome pseudo-atoms
    cycles: int          # cycles per cold solve (per bootstrap on helix-edits)
    min_ops: int         # keep measuring past --seconds until this many operations
    round_ops: int = 0   # helix-edits: edits per session before a fresh set-up


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    backend: str  # "serial" | "process" | "thread"
    sizes: dict

    @property
    def edits(self) -> bool:
        return self.name == "helix-edits"

    @property
    def host_scaled(self) -> bool:
        """Whether timings are scaled by the host-speed kernel (see hostspeed.py).

        Not on the process backend: there the time goes to large BLAS
        calls and dispatch across two worker processes, which the kernel
        does not follow, whether timed in the client or in both workers
        (scaling widened the run-to-run spread instead of narrowing it).
        """
        return self.backend != "process"

    def generate(self, seed: int, scale: str):
        arg = self.sizes[scale].arg
        if self.backend == "process":
            return build_ribo30s(seed, total_atoms=arg)
        return build_helix(arg)

    def generator_call(self, seed: int, scale: str) -> str:
        arg = self.sizes[scale].arg
        if self.backend == "process":
            return f"build_ribo30s({seed}, total_atoms={arg})"
        return f"build_helix({arg})"

    def tail_q(self, scale: str) -> float | None:
        """Highest ladder percentile with >= 10 samples beyond it at ``min_ops``.

        Fixed per workload, so the tail names the same percentile on every
        run and commit.
        """
        n = self.sizes[scale].min_ops
        fits = [q for q in TAIL_LADDER if _beyond(n, q) >= 10]
        return max(fits) if fits else None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "helix-serial",
            "many small nodes make assembly and Python orchestration a large "
            "share of each cycle; repro.parallel is bypassed, so a dispatch "
            "change must read 'no change' here",
            "serial",
            {"full": Size(8, 6, 25), "tiny": Size(1, 2, 0)},
        ),
        Workload(
            "ribosome-process",
            "the root's rank-m downdate (m-m) and the process dispatch path "
            "(task pickling, shm, worker-side plan caches) dominate",
            "process",
            {"full": Size(900, 5, 12), "tiny": Size(560, 2, 0)},
        ),
        Workload(
            "helix-edits",
            "closed-loop edits with dirty-path resolve() on the thread backend: "
            "cache-invalidating writes beside warm reads of ~4.5 of 31 nodes",
            "thread",
            {"full": Size(4, 4, 100, round_ops=25), "tiny": Size(1, 2, 3, round_ops=3)},
        ),
    )
}


# ------------------------------------------------------------------ checks
def estimate_problem(estimate) -> str | None:
    """Why a posterior is unusable, or None: finite mean/covariance, symmetric C."""
    c = estimate.covariance
    if not (np.all(np.isfinite(estimate.mean)) and np.all(np.isfinite(c))):
        return "non-finite posterior"
    if not np.array_equal(c, c.T):
        return "asymmetric covariance"
    return None


def rmsd_limit(workload: "Workload", seed: int, scale: str) -> tuple[float | None, str]:
    """Largest acceptable output rmsd, from the seed code's recorded values.

    None when no table matches this workload's size and cycle count.
    """
    if not REFERENCE.is_file():
        return None, ""
    entry = json.loads(REFERENCE.read_text()).get(workload.name, {}).get(scale, {})
    size = workload.sizes[scale]
    table = entry.get("rmsd_A", {})
    if entry.get("arg") != size.arg or entry.get("cycles") != size.cycles or not table:
        return None, ""
    if str(seed) in table:
        ref = float(table[str(seed)])
        return ref * (1 + RMSD_RTOL), f"seed code's {ref:.6f} A for this seed + {RMSD_RTOL:.0%}"
    seeds = sorted(int(k) for k in table)
    ref = max(float(v) for v in table.values())
    return (ref * (1 + RMSD_UNSEEN_RTOL),
            f"seed code's largest, {ref:.6f} A over seeds {seeds[0]}-{seeds[-1]}, "
            f"+ {RMSD_UNSEEN_RTOL:.0%}")


# ------------------------------------------------------------ environment
def _openblas_call(names: tuple[str, ...], restype):
    """Call the first of ``names`` the loaded OpenBLAS exports, or None."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = restype
                return fn()
    return None


def blas_threads() -> int:
    """Threads OpenBLAS uses in the calling process (-1 if unknown)."""
    n = _openblas_call(("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"), ctypes.c_int)
    return -1 if n is None else int(n)


def _noop(_=None) -> int:
    return os.getpid()


def environment(workload: Workload, seed: int, scale: str, problem, executor) -> dict:
    """The host, library and workload facts every report carries."""
    config = _openblas_call(("scipy_openblas_get_config64_", "openblas_get_config64_",
                             "openblas_get_config"), ctypes.c_char_p)
    if executor is None:
        workers_threads = []
    elif executor.needs_pickling:
        seen = dict(executor.submit(_worker_blas, None).result() for _ in range(4 * WORKERS))
        workers_threads = [seen[pid] for pid in sorted(seen)]
    else:
        workers_threads = [blas_threads()]  # threads share the parent's BLAS pool
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": (config.decode() if config else "unknown"),
        "blas_threads": {"parent": blas_threads(), "workers": workers_threads},
        "blas_env": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ},
        "kernel_impl": UpdateOptions().kernel_impl,
        "batch_size": BATCH_SIZE,
        "backend": workload.backend,
        "workers": WORKERS if workload.backend != "serial" else 1,
        "seed": seed,
        "workload": {
            "name": workload.name,
            "generator": workload.generator_call(seed, scale),
            "atoms": problem.n_atoms,
            "state_dim": problem.state_dim,
            "nodes": len(problem.hierarchy.nodes),
            "rows": problem.n_constraint_rows,
            "cycles_per_solve": workload.sizes[scale].cycles,
        },
    }


def _worker_blas(_=None) -> tuple[int, int]:
    return os.getpid(), blas_threads()


def _vm_hwm_mb(pid) -> float:
    """Peak resident set of ``pid`` ("self" for this process), in MB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


# ------------------------------------------------------------------ the tap
@dataclass
class Call:
    t0: float
    t1: float
    problem: str | None
    retries: int
    quarantined: int


class CycleTap:
    """Wraps both solvers' ``run_cycle``: times every call and checks its output.

    Check time is kept apart (``check_s``) so it can be taken out of the
    timed figures.  ``hook`` (the runner) decides before each cycle
    whether it is traced, and is told after it.
    """

    def __init__(self, probe: "ledger.Probe | None"):
        self.probe = probe
        self.calls: list[Call] = []
        self.check_s = 0.0
        self.hook = None
        self.corrupt_next = False
        self._saved: list[tuple[type, object]] = []

    def install(self) -> None:
        for cls in (HierarchicalSolver, ParallelHierarchicalSolver):
            self._saved.append((cls, cls.run_cycle))
            cls.run_cycle = self._wrap(cls.run_cycle)

    def restore(self) -> None:
        for cls, original in self._saved:
            cls.run_cycle = original
        self._saved.clear()

    def _wrap(self, original):
        tap = self

        def run_cycle(solver, *args, **kwargs):
            probe, hook = tap.probe, tap.hook
            if hook is not None:
                hook.before_cycle()
            traced = probe is not None and probe.active
            mark = len(probe.spans) if traced else 0
            with probe.span("solver.cycle") if traced else nullcontext():
                if traced:
                    probe.cycle_span = probe.open_span()
                t0 = time.perf_counter()
                result = original(solver, *args, **kwargs)
                t1 = time.perf_counter()
            if traced:
                probe.cycle_span = None
            c0 = time.perf_counter()
            if tap.corrupt_next:
                tap.corrupt_next = False
                result.estimate.covariance[0, -1] += 1e-3
            problem = estimate_problem(result.estimate)
            if problem is None and result.quarantined:
                problem = f"{len(result.quarantined)} batches quarantined"
            call = Call(t0, t1, problem, len(result.retries), len(result.quarantined))
            tap.calls.append(call)
            tap.check_s += time.perf_counter() - c0
            if hook is not None:
                hook.after_cycle(solver, result, call, probe.spans[mark:] if traced else None)
            return result

        return run_cycle


# ------------------------------------------------------------------ running
@dataclass
class Context:
    """One set-up: what ``repro solve`` or a session holds after start-up."""

    problem: object
    executor: object = None
    estimator: StructureEstimator | None = None
    session: SolveSession | None = None

    def solve(self, initial, cycles: int):
        if self.estimator is not None:
            return self.estimator.solve(initial, max_cycles=cycles, tol=0.0).estimate
        return self.session.solve(initial, max_cycles=cycles, tol=0.0).estimate

    def peak_rss_mb(self) -> float:
        """Peak RSS of this process plus each live worker process."""
        pids = ["self"] + [p.pid for p in multiprocessing.active_children()]
        return sum(_vm_hwm_mb(p) for p in pids)

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
        if self.executor is not None:
            self.executor.close()


@dataclass
class RunResult:
    """Everything one run measured, before it is printed."""

    env: dict = field(default_factory=dict)
    end_to_end: dict = field(default_factory=dict)   # name -> (value, unit, detail)
    per_layer: dict = field(default_factory=dict)    # name -> (value, unit)
    ledger: dict = field(default_factory=dict)       # layer -> mean self seconds
    notes: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    spans_path: Path | None = None

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)

    def note(self, ok: bool, what: str) -> None:
        line = ("ok: " if ok else "FAILED: ") + what
        if line not in self.notes:
            self.notes.append(line)
        if not ok:
            self.fail(what)


def _beyond(n: int, q: float) -> float:
    """Samples expected above the ``q`` quantile of ``n`` (rounded against float noise)."""
    return round(n * (1.0 - q), 6)


def tail(samples: list[float], q: float | None) -> tuple[float, str]:
    """(value, label) of the tail percentile; p50 when no percentile has 10 beyond."""
    if q is None or _beyond(len(samples), q) < 10:
        return (statistics.median(samples),
                f"p50, n={len(samples)}: no percentile has 10 samples beyond it")
    value = float(np.percentile(samples, 100 * q))
    beyond = sum(1 for s in samples if s > value)
    return value, f"p{round(100 * q)}, n={len(samples)}, {beyond} beyond"


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class Runner:
    """One benchmark run of one workload.

    Traced runs alternate traced and untraced timed operations; the cold
    cycle of each solve and everything outside the timed operations stay
    traced.
    """

    def __init__(self, workload: Workload, seed: int, seconds: float, traced: bool,
                 scale: str = "full", out_dir: Path | None = None,
                 corrupt: str | None = None):
        self.w = workload
        self.size = workload.sizes[scale]
        self.scale = scale
        self.seed = seed
        self.seconds = float(seconds)
        self.corrupt = corrupt
        self.out = (out_dir or Path.cwd() / ".perfbench") / f"{workload.name}-{seed}"
        self.probe = ledger.Probe(f"{workload.name}:{seed}:{os.getpid()}") if traced else None
        self.tap = CycleTap(self.probe)
        self.result = RunResult()
        self.oplog = ledger.OpLedger(WORKERS, workload.backend)
        self.clock = hostspeed.HostClock()
        # Timed operations, set-ups and cold solves as (start, end, raw seconds).
        self.ops: list[tuple[float, float, float]] = []
        self.traced_ops: list[float] = []
        self.plain_ops: list[float] = []
        self.setups: list[tuple[float, float, float]] = []
        self.pool_starts: list[float] = []
        self.solves: list[tuple[float, float, float]] = []
        self.rtt_ms: list[float] = []
        self.peak_rss = 0.0
        self.rmsd = 0.0
        self._cycle_k = -1  # cycle index within the running cold solve; -1: not solving
        self._plan_mark = (0, 0)
        self.rng = np.random.default_rng([seed, 1])  # the edit sequence

    # ------------------------------------------------------------ cycle hook
    def before_cycle(self) -> None:
        if self._cycle_k < 0:
            return
        if self._cycle_k > 0:  # inside the timed solve; the set-up's sample precedes cycle 0
            self.clock.sample()
        if self.probe is not None:
            warm_op = self._cycle_k > 0 and not self.w.edits
            self.probe.active = not warm_op or len(self.ops) % 2 == 0
            self._plan_mark = (self.probe.plan_lookups, self.probe.plan_builds)

    def after_cycle(self, solver, result, call: Call, spans) -> None:
        if self._cycle_k < 0:
            return
        k, self._cycle_k = self._cycle_k, self._cycle_k + 1
        if self.probe is not None:
            self.probe.active = True
        if k == 0 or self.w.edits:
            return
        wall = call.t1 - call.t0
        self.ops.append((call.t0, call.t1, wall))
        if self.probe is None:
            return
        if spans is None:
            self.plain_ops.append(wall)
            return
        self.traced_ops.append(wall)
        self.oplog.add(wall, wall, result, solver.hierarchy,
                       [s for s in spans if s[0] != "solver.cycle"], self._plan_counts())

    def _plan_counts(self) -> dict:
        lookups = self.probe.plan_lookups - self._plan_mark[0]
        builds = self.probe.plan_builds - self._plan_mark[1]
        return {"constraints.plan_builds": float(builds),
                "constraints.plan_lookups": float(lookups)}

    # ----------------------------------------------------------------- phases
    def setup(self, path: Path) -> Context:
        """load_problem, executor start with workers spawned, solver/session construction."""
        t0 = time.perf_counter()
        problem = rio.load_problem(path)
        executor = None
        if self.w.backend != "serial":
            p0 = time.perf_counter()
            executor = (ProcessExecutor if self.w.backend == "process"
                        else ThreadExecutor)(WORKERS)
            for future in [executor.submit(_noop, None) for _ in range(WORKERS)]:
                future.result()
            self.pool_starts.append(time.perf_counter() - p0)
        ctx = Context(problem, executor)
        if self.w.backend == "serial":
            # Plain `repro solve`: the saved hierarchy and the serial solver.
            ctx.estimator = StructureEstimator(
                problem.n_atoms, problem.constraints, decomposition=problem.hierarchy,
                batch_size=BATCH_SIZE, options=UpdateOptions(),
            )
        else:
            ctx.session = SolveSession(problem.hierarchy, problem.constraints,
                                       batch_size=BATCH_SIZE, executor=executor)
        t1 = time.perf_counter()
        self.setups.append((t0, t1, t1 - t0))
        if self.probe is not None and executor is not None:
            self.probe.watch_executor(executor)
        return ctx

    def cold_solve(self, ctx: Context) -> None:
        """One cold solve of ``cycles`` cycles, then save_estimate; checks the file."""
        n0, chk0, cal0 = len(self.tap.calls), self.tap.check_s, self.clock.spent
        initial = ctx.problem.initial_estimate(self.seed)
        out = self.out / "estimate.npz"
        self._cycle_k = 0
        if self.corrupt == "posterior":
            self.tap.corrupt_next = True
        try:
            with obs.flight_recording(obs.FlightRecorder()):
                estimate = ctx.solve(initial, self.size.cycles)
            rio.save_estimate(out, estimate)
            t_end = time.perf_counter()
        except Exception:  # noqa: BLE001 - a cycle that raises is a failed operation
            traceback.print_exc(file=sys.stderr)
            self.result.attempted += len(self.tap.calls) - n0 + 1
            self.result.fail("cold solve raised")
            return
        finally:
            self._cycle_k = -1
        calls = self.tap.calls[n0:]
        self.result.attempted += len(calls)
        for k, call in enumerate(calls):
            if call.problem is not None:
                self.result.fail(f"cycle {k}: {call.problem}")
        self.solves.append((calls[0].t0, t_end, t_end - calls[0].t0
                            - (self.tap.check_s - chk0) - (self.clock.spent - cal0)))
        saved = rio.load_estimate(out)
        problem = estimate_problem(saved)
        self.result.note(problem is None, f"saved estimate {problem or 'finite and symmetric'}")
        self.rmsd = superposed_rmsd(saved.coords, ctx.problem.true_coords)
        limit, source = rmsd_limit(self.w, self.seed, self.scale)
        self.result.note(limit is not None and self.rmsd <= limit,
                         f"rmsd {self.rmsd:.6f} A <= {limit:.6f} A ({source})"
                         if limit is not None else "no recorded seed-code rmsd for this size")

    def measure_rtt(self, executor) -> None:
        for _ in range(RTT_SAMPLES):
            t0 = time.perf_counter()
            executor.submit(_noop, None).result()
            self.rtt_ms.append(1e3 * (time.perf_counter() - t0))

    def edit_loop(self, ctx: Context) -> None:
        """Closed loop: one client, next edit only after the last resolve() returns."""
        session, truth, rng = ctx.session, ctx.problem.true_coords, self.rng
        leaves = [n for n in session.hierarchy.nodes if n.is_leaf and len(n.atoms) >= 2]
        distances = [cid for cid, c in session.constraints.items()
                     if isinstance(c, DistanceConstraint)]
        added: list[int] = []

        def measured(i: int, j: int, sigma2: float) -> float:
            d = float(np.linalg.norm(truth[i] - truth[j]))
            return max(1e-3, d + float(rng.normal(0.0, np.sqrt(sigma2))))

        def edit(kind: int) -> None:
            # Rotating add / update / remove keeps the constraint count bounded.
            if kind == 0:
                leaf = leaves[rng.integers(len(leaves))]
                i, j = (int(a) for a in rng.choice(leaf.atoms, 2, replace=False))
                added.extend(session.add_constraints(
                    [DistanceConstraint(i, j, measured(i, j, 0.01), 0.01)]))
            elif kind == 1:
                cid = distances[rng.integers(len(distances))]
                c = session.constraints[cid]
                session.update_constraints({cid: DistanceConstraint(
                    c.i, c.j, measured(c.i, c.j, c.sigma2), c.sigma2)})
            else:
                session.remove_constraints([added.pop(0)])

        probe, last, k = self.probe, None, 0
        with obs.flight_recording(obs.FlightRecorder()):
            while k < self.size.round_ops:
                self.clock.sample()
                traced = probe is not None and k % 2 == 0
                if probe is not None:
                    probe.active = traced
                    self._plan_mark = (probe.plan_lookups, probe.plan_builds)
                mark = len(probe.spans) if traced else 0
                n_calls, chk0 = len(self.tap.calls), self.tap.check_s
                self.result.attempted += 1
                try:
                    with probe.span("op.edit", kind=k % 3) if traced else nullcontext():
                        t0 = time.perf_counter()
                        edit(k % 3)
                        t_edit = time.perf_counter()
                        last = session.resolve()
                        t1 = time.perf_counter()
                except Exception:  # noqa: BLE001 - an edit that raises is a failed operation
                    traceback.print_exc(file=sys.stderr)
                    self.result.fail(f"edit {k} raised")
                    k += 1
                    continue
                finally:
                    if probe is not None:
                        probe.active = True
                k += 1
                cycles = self.tap.calls[n_calls:]
                problem = cycles[-1].problem if cycles else "no cycle ran"
                if problem is not None:
                    self.result.fail(f"edit {k - 1}: {problem}")
                wall = (t1 - t0) - (self.tap.check_s - chk0)
                self.ops.append((t0, t1, wall))
                if probe is None:
                    continue
                if not traced:
                    self.plain_ops.append(wall)
                    continue
                self.traced_ops.append(wall)
                spans = probe.spans[mark:-1]
                cycle = next(s for s in spans if s[0] == "solver.cycle")
                extra = self._plan_counts()
                extra.update({"session.edit_s": t_edit - t0,
                              "session.dirty_nodes": float(last.n_dirty),
                              "session.cache_hits": float(last.cache_hits)})
                self.oplog.add(wall, cycle[2] - cycle[1], last, session.hierarchy,
                               [s for s in spans if s is not cycle], extra)
        self.clock.sample()
        if last is None:
            return
        # Warm == cold: the last dirty-path resolve must equal a full pass.
        mean, cov = last.estimate.mean.copy(), last.estimate.covariance.copy()
        if self.corrupt == "dirty-full":
            mean[0] = np.nextafter(mean[0], np.inf)
        full = session.resolve(scope="full")
        self.result.note(
            np.array_equal(mean, full.estimate.mean)
            and np.array_equal(cov, full.estimate.covariance),
            "last dirty-path resolve() bitwise equal to resolve(scope='full')")

    # ------------------------------------------------------------------- run
    def run(self) -> RunResult:
        self.out.mkdir(parents=True, exist_ok=True)
        problem = self.w.generate(self.seed, self.scale)
        path = self.out / "problem.npz"
        rio.save_problem(path, problem)
        if self.probe is not None:
            self.probe.install()
        self.tap.hook = self
        self.tap.install()
        try:
            self._run_solves(path, problem)
        finally:
            self.tap.restore()
            if self.probe is not None:
                self.probe.restore()
        self._summarize()
        return self.result

    def _first_setup(self, ctx: Context, problem) -> None:
        self.result.env = environment(self.w, self.seed, self.scale, problem, ctx.executor)
        if self.probe is not None and ctx.executor is not None:
            self.measure_rtt(ctx.executor)

    def _run_solves(self, path: Path, problem) -> None:
        """Repeated `repro solve` invocations: set-up, cold solve, save.

        On helix-edits each invocation is a session: set-up, bootstrap
        solve, then ``round_ops`` edits, so every metric samples the
        whole run rather than its start.
        """
        for _ in range(SETUP_REPEATS):
            self.clock.sample()
            self.setup(path).close()
        deadline = time.perf_counter() + self.seconds
        while True:
            self.clock.sample()
            ctx = self.setup(path)
            try:
                self.clock.sample()
                if not self.result.env:
                    self._first_setup(ctx, problem)
                self.cold_solve(ctx)
                self.clock.sample()
                if self.w.edits and ctx.session.estimate is not None:
                    self.edit_loop(ctx)
                self.peak_rss = max(self.peak_rss, ctx.peak_rss_mb())
            finally:
                ctx.close()
            if time.perf_counter() >= deadline and (
                len(self.ops) >= self.size.min_ops or self.result.failed
            ):
                break

    # ---------------------------------------------------------------- report
    def _summarize(self) -> None:
        r, size = self.result, self.size
        op = "edit + resolve()" if self.w.edits else "warm full cycle"

        def scaled(samples, unit: float = 1.0) -> list[float]:
            if not self.w.host_scaled:
                return [unit * raw for _, _, raw in samples]
            return [unit * raw * self.clock.scale(t0, t1) for t0, t1, raw in samples]

        def raw(samples, unit: float = 1.0) -> str:
            return f"raw median {_median([unit * x for _, _, x in samples]):.6f}"

        ops_ms = scaled(self.ops, 1e3) or [0.0]
        tail_ms, tail_label = tail(ops_ms, self.w.tail_q(self.scale))
        raw_tail, _ = tail([1e3 * x for _, _, x in self.ops] or [0.0], self.w.tail_q(self.scale))
        r.end_to_end = {
            "setup_s": (_median(scaled(self.setups)), "s",
                        f"median of {len(self.setups)} set-ups; {raw(self.setups)}"),
            "solve_s": (_median(scaled(self.solves)), "s",
                        f"median of {len(self.solves)} cold solves of {size.cycles} cycles "
                        f"incl. save_estimate; {raw(self.solves)}"),
            "op_ms.p50": (_median(ops_ms), "ms",
                          f"{op}, n={len(self.ops)}; {raw(self.ops, 1e3)}"),
            "op_ms.tail": (tail_ms, "ms", f"{op}, {tail_label}; raw {raw_tail:.6f}"),
            "peak_rss_mb": (self.peak_rss, "MB", "this process + its worker processes"),
        }
        r.notes.insert(0, f"rmsd_A = {self.rmsd:.6f} A (final estimate vs generator truth)")
        r.notes.insert(1, f"error_rate = {r.failed / max(1, r.attempted):.6f} ratio "
                          f"({r.failed} failed of {r.attempted} operations)")
        r.notes.insert(2, f"host kernel = {self.clock.median_ms():.3f} ms median of "
                          f"{len(self.clock.ms)} samples; " + (
                              f"timings above are scaled to {hostspeed.REFERENCE_MS:g} ms"
                              if self.w.host_scaled else "timings above are not scaled")
                          + " (see hostspeed.py)")
        if self.probe is not None:
            self._per_layer()

    def _per_layer(self) -> None:
        probe, log, r = self.probe, self.oplog, self.result

        def span_median(name: str) -> float:
            return _median([s[2] - s[1] for s in probe.spans if s[0] == name])

        values = {key: log.mean(key) for key in ledger.OP_MEANS}
        lookups = sum(row.get("constraints.plan_lookups", 0.0) for row in log.rows)
        builds = sum(row.get("constraints.plan_builds", 0.0) for row in log.rows)
        values.update({
            "io.load_s": span_median("io.load"),
            "io.save_s": span_median("io.save"),
            "session.init_s": span_median("session.init"),
            "update.retries": float(sum(c.retries for c in self.tap.calls)),
            "update.quarantined": float(sum(c.quarantined for c in self.tap.calls)),
            "constraints.plan_hit_ratio": (lookups - builds) / lookups if lookups else 0.0,
            "parallel.pool_start_s": _median(self.pool_starts),
            "parallel.submit_rtt_ms": _median(self.rtt_ms),
            "obs.trace_overhead_pct": (
                100.0 * (_median(self.traced_ops) / _median(self.plain_ops) - 1.0)
                if self.traced_ops and self.plain_ops else 0.0
            ),
            "rmsd_A": self.rmsd,
            "host.kernel_ms": self.clock.median_ms(),
        })
        r.per_layer = {name: (float(values[name]), unit) for name, unit, _ in ledger.PER_LAYER}
        r.ledger = {layer: log.mean(f"ledger.{layer}.self_s") for layer in ledger.LEDGER_LAYERS}
        r.ledger["residual"] = log.mean("ledger.residual_s")
        r.ledger["op wall"] = log.mean("op_wall_s")
        r.spans_path = probe.write_jsonl(self.out / "spans.jsonl")
