"""Hot-path benchmark: kernel tiers across executor backends.

Times one warm hierarchical cycle (after one untimed warm-up cycle) on
the two paper workloads (helix, length 4,
n=510 root state; synthetic 30S ribosome, ~900 atoms) for every
combination of kernel tier (the ``reference`` oracle / the production
``fast`` tier) and executor backend (serial / thread / process), reporting
wall seconds, seconds per scalar constraint row, and the dispatching
process's peak traced allocations (``tracemalloc`` is process-wide:
thread-backend workers are included, process-backend workers are not).
``--split-out`` additionally records one warm serial helix cycle per tier
under a counters recorder and writes the assembly ("vec") vs kernel time
split.

Standalone — no pytest-benchmark required::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --out BENCH_hotpath.json

CI runs the quick form and gates on regression against the committed
baseline plus the production-over-reference floor::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick \
        --out /tmp/bench.json --check-against BENCH_hotpath.json \
        --min-reference-speedup 1.5 --split-out /tmp/assembly_split.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

from repro.core.flat import FlatSolver
from repro.core.update import UpdateOptions
from repro.molecules.ribosome import build_ribo30s
from repro.molecules.rna import build_helix
from repro.obs.regress import check_metric, hotpath_metric
from repro.parallel import (
    ParallelHierarchicalSolver,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
)

PROBLEMS = {
    "helix": lambda seed: build_helix(4),  # helix geometry is deterministic
    "ribosome": lambda seed: build_ribo30s(seed=seed),
}
BACKENDS = ("serial", "thread", "process")
IMPLS = ("reference", "fast")


def _make_executor(backend: str, workers: int):
    if backend == "serial":
        return SerialExecutor()
    if backend == "thread":
        return ThreadExecutor(workers)
    return ProcessExecutor(workers)


def _bench_one(
    problem,
    backend: str,
    impl: str,
    repeats: int,
    workers: int,
    seed: int = 0,
    placement: str = "none",
) -> dict:
    estimate = problem.initial_estimate(seed)
    options = UpdateOptions(kernel_impl=impl)
    with _make_executor(backend, workers) as executor:
        solver = ParallelHierarchicalSolver(
            problem.hierarchy,
            batch_size=16,
            options=options,
            executor=executor,
            placement=None if placement == "none" else placement,
        )
        solver.run_cycle(estimate)  # warm-up: pool start, plan builds, buffers
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            solver.run_cycle(estimate)
            best = min(best, time.perf_counter() - t0)
        tracemalloc.start()
        solver.run_cycle(estimate)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    rows = solver.n_constraint_rows
    return {
        "backend": backend,
        "kernel_impl": impl,
        "placement": placement,
        "seconds": best,
        "seconds_per_row": best / rows,
        "n_constraint_rows": rows,
        "peak_alloc_bytes": peak,
    }


def _bench_flat(problem, impl: str, repeats: int, seed: int = 0) -> dict:
    """Flat (single-node) solve: every batch at the full state dimension.

    This is the regime the symmetric kernels target — the helix form runs
    all 3232 constraint rows against the 510-dim state, so the ≥1.5×
    fast-over-reference criterion is read off this entry rather than the
    hierarchical cycle (whose many small leaf solves dilute the ratio).
    """
    estimate = problem.initial_estimate(seed)
    solver = FlatSolver(problem.constraints, 16, UpdateOptions(kernel_impl=impl))
    rows = solver.n_constraint_rows

    def solve():
        solver.run_cycle(estimate)

    solve()  # warm-up: plan builds, workspace buffers
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        solve()
        best = min(best, time.perf_counter() - t0)
    tracemalloc.start()
    solve()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "backend": "flat",
        "kernel_impl": impl,
        "n_state": estimate.mean.shape[0],
        "seconds": best,
        "seconds_per_row": best / rows,
        "n_constraint_rows": rows,
        "peak_alloc_bytes": peak,
    }


def run_suite(
    problems, backends, repeats: int, workers: int, seed: int = 0,
    placement: str = "none", impls=IMPLS,
) -> dict:
    results: dict[str, list[dict]] = {}
    for pname in problems:
        problem = PROBLEMS[pname](seed)
        problem.assign()
        entries = []
        if pname == "helix":
            # Flat solve at the full 510-dim state: the n >= 300 regime
            # the symmetric kernels are built for (see _bench_flat).
            for impl in impls:
                entry = _bench_flat(problem, impl, repeats, seed)
                entries.append(entry)
                print(
                    f"{pname:9s} {'flat':8s} {impl:10s} "
                    f"{entry['seconds']:8.3f}s  "
                    f"{entry['seconds_per_row'] * 1e6:8.2f} us/row  "
                    f"peak {entry['peak_alloc_bytes'] / 1e6:7.1f} MB",
                    flush=True,
                )
        for backend in backends:
            for impl in impls:
                entry = _bench_one(
                    problem, backend, impl, repeats, workers, seed, placement
                )
                entries.append(entry)
                print(
                    f"{pname:9s} {backend:8s} {impl:10s} "
                    f"{entry['seconds']:8.3f}s  "
                    f"{entry['seconds_per_row'] * 1e6:8.2f} us/row  "
                    f"peak {entry['peak_alloc_bytes'] / 1e6:7.1f} MB",
                    flush=True,
                )
        results[pname] = entries
    return results


def _ratio_table(results: dict, slow_impl: str, fast_impl: str) -> dict:
    """Wall-time ratio slow/fast per problem/backend, where both ran."""
    out: dict[str, dict[str, float]] = {}
    for pname, entries in results.items():
        by_key = {(e["backend"], e["kernel_impl"]): e["seconds"] for e in entries}
        table = {
            backend: by_key[(backend, slow_impl)] / by_key[(backend, fast_impl)]
            for backend in {e["backend"] for e in entries}
            if (backend, slow_impl) in by_key and (backend, fast_impl) in by_key
        }
        if table:
            out[pname] = table
    return out


def _check_regression(report: dict, baseline_path: str, max_ratio: float) -> int:
    """Gate on the helix/serial/fast seconds_per_row figure.

    Delegates pass/fail to :func:`repro.obs.regress.check_metric` — the
    same judgment ``repro obs regress`` applies — so the CI gate and the
    local CLI cannot disagree about what counts as a regression.
    ``hotpath_metric`` reads old baselines' ``seconds_per_constraint``
    key as an alias, so committed baselines need no rewrite.
    """
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    current, ref = hotpath_metric(report), hotpath_metric(baseline)
    check = check_metric(
        "hotpath.helix.serial.fast.seconds_per_row",
        [current],
        limit=ref * max_ratio,
        direction="higher-is-worse",
        baseline=ref,
    )
    print(
        f"perf gate: helix serial fast {current * 1e6:.2f} us/row vs "
        f"baseline {ref * 1e6:.2f} us/row "
        f"(ratio {current / ref:.2f}, limit {max_ratio:.1f})"
    )
    if not check["ok"]:
        print("perf gate FAILED: seconds_per_row regressed", file=sys.stderr)
        return 1
    return 0


def _check_reference_speedup(report: dict, min_speedup: float) -> int:
    """Gate the production tier: fast must beat reference on helix/serial.

    Reads both entries out of the *fresh* report (same machine, same run),
    so the floor is a tier-vs-tier comparison rather than a noisy
    cross-machine one.
    """
    entries = report["results"].get("helix", [])
    by_key = {(e["backend"], e["kernel_impl"]): e["seconds"] for e in entries}
    ref = by_key.get(("serial", "reference"))
    fast = by_key.get(("serial", "fast"))
    if ref is None or fast is None:
        print(
            "tier gate SKIPPED: need both reference and fast helix/serial entries",
            file=sys.stderr,
        )
        return 1
    speedup = ref / fast
    print(
        f"tier gate: helix serial reference {ref:.3f}s / fast {fast:.3f}s "
        f"= {speedup:.2f}x (floor {min_speedup:.2f}x)"
    )
    if speedup < min_speedup:
        print(
            f"tier gate FAILED: {speedup:.2f}x < required {min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


def _assembly_split(seed: int, impls) -> dict:
    """Assembly ("vec") vs kernel seconds per tier, from the op counters.

    Runs one recorded warm serial helix cycle per tier; every instrumented
    kernel flows through :func:`repro.linalg.counters.emit`, so the
    category totals partition the instrumented time exactly: ``vec``
    covers batch assembly (the reference tier's scalar loop, the fast
    tier's planned assembly and plan builds), the rest is linear-algebra kernel time.
    """
    from repro.linalg import Recorder, recording

    problem = PROBLEMS["helix"](seed)
    problem.assign()
    estimate = problem.initial_estimate(seed)
    split: dict[str, dict] = {}
    for impl in impls:
        solver = ParallelHierarchicalSolver(
            problem.hierarchy,
            batch_size=16,
            options=UpdateOptions(kernel_impl=impl),
            executor=SerialExecutor(),
        )
        solver.run_cycle(estimate)  # warm-up: the split is of a warm cycle
        rec = Recorder()
        with recording(rec):
            solver.run_cycle(estimate)
        by_cat = {
            str(cat): secs for cat, secs in rec.seconds_by_category().items()
        }
        assembly = by_cat.get("vec", 0.0)
        kernels = sum(s for c, s in by_cat.items() if c != "vec")
        split[impl] = {
            "seconds_by_category": by_cat,
            "assembly_seconds": assembly,
            "kernel_seconds": kernels,
            "assembly_fraction": assembly / max(assembly + kernels, 1e-30),
        }
        print(
            f"split     {impl:10s} assembly {assembly * 1e3:7.2f} ms  "
            f"kernels {kernels * 1e3:7.2f} ms  "
            f"({100 * split[impl]['assembly_fraction']:.1f}% assembly)",
            flush=True,
        )
    return split


def _export_obs(obs_dir: str, seed: int) -> None:
    """Record one traced helix/serial/fast cycle and drop obs artifacts.

    The benchmark loops themselves stay uninstrumented (tracing costs a
    few percent); this extra cycle exists so every benchmark run leaves a
    trace behind that ``repro obs doctor`` and Perfetto can open.
    """
    from repro import obs

    out = Path(obs_dir)
    out.mkdir(parents=True, exist_ok=True)
    problem = PROBLEMS["helix"](seed)
    problem.assign()
    estimate = problem.initial_estimate(seed)
    tracer, registry = obs.Tracer(), obs.MetricsRegistry()
    # Metrics outside tracing: the tracing() exit publishes the tracer's
    # self-cost gauge (obs.overhead_seconds) into the metrics scope.
    with SerialExecutor() as executor, obs.metrics_scope(registry), obs.tracing(
        tracer
    ):
        solver = ParallelHierarchicalSolver(
            problem.hierarchy,
            batch_size=16,
            options=UpdateOptions(kernel_impl="fast"),
            executor=executor,
        )
        solver.run_cycle(estimate)
    obs.write_chrome_trace(tracer, out / "hotpath_helix.trace.json")
    obs.write_spans_jsonl(tracer, out / "hotpath_helix.spans.jsonl")
    obs.write_metrics_json(
        registry,
        out / "hotpath_helix.metrics.json",
        extra={"benchmark": "hotpath", "workload": "helix", "seed": seed},
    )
    plan = obs.plan_report(tracer, workers=[1, 2, 4, 8, 16], seed=seed)
    with open(out / "hotpath_helix.plan.json", "w", encoding="utf-8") as fh:
        json.dump(plan, fh, indent=2)
        fh.write("\n")
    print(f"wrote obs artifacts to {out}")


def _environment(snapshotter=None, wall_seconds: float | None = None) -> dict:
    """Host + live-plane self-cost block stamped into the report.

    With ``--heartbeat`` the snapshotter's own seconds are recorded and
    gated at <1% of the suite's wall time — the live plane must stay
    effectively free on the benchmark path.
    """
    import platform

    env = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }
    if snapshotter is not None and wall_seconds:
        env["snapshotter"] = {
            "beats": snapshotter.beats,
            "overhead_seconds": snapshotter.overhead_seconds,
            "wall_seconds": wall_seconds,
            "overhead_pct": 100.0 * snapshotter.overhead_seconds / wall_seconds,
        }
    return env


def _check_snapshotter_overhead(env: dict) -> int:
    stats = env.get("snapshotter")
    if not stats:
        return 0
    pct = stats["overhead_pct"]
    print(
        f"snapshotter overhead: {stats['overhead_seconds'] * 1e3:.2f} ms over "
        f"{stats['wall_seconds']:.2f}s wall ({pct:.3f}%, {stats['beats']} beats)"
    )
    if pct >= 1.0:
        print(
            f"live-plane gate FAILED: snapshotter cost {pct:.2f}% >= 1% of wall",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="BENCH_hotpath.json")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--workers", type=int, default=4)
    ap.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for molecule generation and the perturbed starting estimate",
    )
    ap.add_argument(
        "--problems", nargs="+", choices=sorted(PROBLEMS), default=sorted(PROBLEMS)
    )
    ap.add_argument("--backends", nargs="+", choices=BACKENDS, default=list(BACKENDS))
    ap.add_argument(
        "--kernel-impl",
        nargs="+",
        choices=IMPLS,
        default=list(IMPLS),
        dest="impls",
        help="kernel tiers to benchmark (default: both)",
    )
    ap.add_argument(
        "--quick",
        action="store_true",
        help="helix + serial backend only, one repeat (the CI perf smoke)",
    )
    ap.add_argument(
        "--check-against",
        metavar="BASELINE",
        help="compare against a committed BENCH_hotpath.json; non-zero exit on regression",
    )
    ap.add_argument(
        "--max-regression",
        type=float,
        default=2.0,
        help="fail when helix serial fast us/row exceeds baseline x this ratio",
    )
    ap.add_argument(
        "--min-reference-speedup",
        type=float,
        default=None,
        metavar="RATIO",
        help="fail unless the fast tier beats the reference tier by at least "
        "RATIO on the helix serial run of this report (CI uses 1.5)",
    )
    ap.add_argument(
        "--split-out",
        metavar="PATH",
        default=None,
        help="also record one serial helix cycle per tier and write the "
        "assembly-vs-kernel time split (op-category seconds) to PATH",
    )
    ap.add_argument(
        "--obs-dir",
        default=os.environ.get("REPRO_BENCH_OBS_DIR") or None,
        metavar="DIR",
        help="also record one traced helix cycle and write obs artifacts "
        "(trace JSON, spans JSONL, metrics) into DIR; defaults to "
        "$REPRO_BENCH_OBS_DIR when set",
    )
    ap.add_argument(
        "--placement",
        choices=("none", "model"),
        default="none",
        help="route dependency dispatch through cost-packed lane queues "
        "with work-stealing (see benchmarks/bench_placement.py for the "
        "dedicated before/after comparison)",
    )
    ap.add_argument(
        "--heartbeat",
        default=None,
        metavar="PATH[:SECS]",
        help="stream live metrics snapshots to this heartbeat JSONL while "
        "the suite runs ('repro obs top' renders it); the snapshotter's "
        "own cost lands in the report's environment block and is gated "
        "at <1%% of wall",
    )
    args = ap.parse_args(argv)

    problems = ["helix"] if args.quick else args.problems
    backends = ["serial"] if args.quick else args.backends
    repeats = 1 if args.quick else args.repeats

    import contextlib

    snapshotter = None
    wall0 = time.perf_counter()
    with contextlib.ExitStack() as live:
        if args.heartbeat:
            from repro import obs

            path, period = obs.parse_heartbeat_spec(args.heartbeat)
            registry = obs.MetricsRegistry()
            live.enter_context(obs.metrics_scope(registry))
            snapshotter = live.enter_context(
                obs.TelemetrySnapshotter(registry, path, period=period)
            )
        results = run_suite(
            problems,
            backends,
            repeats,
            args.workers,
            args.seed,
            args.placement,
            impls=args.impls,
        )
    wall_seconds = time.perf_counter() - wall0
    if args.obs_dir:
        _export_obs(args.obs_dir, args.seed)
    report = {
        "workloads": {
            "helix": "build_helix(4): 170 atoms, 510 state dims",
            "ribosome": "build_ribo30s(): ~900 atoms, 2700 state dims",
        },
        "quick": args.quick,
        "repeats": repeats,
        "workers": args.workers,
        "seed": args.seed,
        "placement": args.placement,
        "kernel_impls": list(args.impls),
        "environment": _environment(snapshotter, wall_seconds),
        "results": results,
        "fast_over_reference_speedup": _ratio_table(results, "reference", "fast"),
    }
    if args.split_out:
        split = _assembly_split(args.seed, args.impls)
        report["assembly_split"] = split
        with open(args.split_out, "w") as fh:
            json.dump(split, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.split_out}")
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")

    rc = 0
    if args.check_against:
        rc |= _check_regression(report, args.check_against, args.max_regression)
    if args.min_reference_speedup is not None:
        rc |= _check_reference_speedup(report, args.min_reference_speedup)
    rc |= _check_snapshotter_overhead(report["environment"])
    return rc


if __name__ == "__main__":
    sys.exit(main())
