"""Placement benchmark: dispatch headroom with and without cost packing.

Runs one traced hierarchical cycle per (problem, backend) cell twice —
first-come dependency dispatch (``placement=none``) and cost-packed
lane queues with work-stealing (``placement=model``) — and reads each
trace's *headroom* (perfect speedup minus achieved speedup, the
doctor's imbalance figure) off :func:`repro.obs.analysis.doctor_report`.
The report records both modes side by side plus steal counters, so the
committed baseline documents the before/after the placement layer buys.

Standalone — no pytest-benchmark required::

    PYTHONPATH=src python benchmarks/bench_placement.py --out BENCH_placement.json

CI runs the quick form and gates placed headroom against the committed
no-placement baseline::

    PYTHONPATH=src python benchmarks/bench_placement.py --quick \
        --out /tmp/bench.json --check-against BENCH_placement.json
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.update import UpdateOptions
from repro.molecules.ribosome import build_ribo30s
from repro.molecules.rna import build_helix
from repro.obs.regress import check_metric
from repro.parallel import (
    ParallelHierarchicalSolver,
    ProcessExecutor,
    ThreadExecutor,
)

PROBLEMS = {
    "helix": lambda seed: build_helix(4),  # helix geometry is deterministic
    "ribosome": lambda seed: build_ribo30s(seed=seed),
}
BACKENDS = ("thread", "process")  # serial has no lanes to balance


def _make_executor(backend: str, workers: int):
    if backend == "thread":
        return ThreadExecutor(workers)
    return ProcessExecutor(workers)


def _traced_headroom(
    problem, backend: str, workers: int, placement: str, repeats: int, seed: int
) -> dict:
    """Best-of-``repeats`` headroom for one dispatch mode.

    Each repeat is a fresh traced cycle; the minimum headroom is kept
    (same best-of convention as the wall-clock benchmarks — scheduling
    noise only ever inflates the figure).
    """
    from repro import obs
    from repro.obs import analysis

    estimate = problem.initial_estimate(seed)
    best = None
    for _ in range(repeats):
        tracer, registry = obs.Tracer(), obs.MetricsRegistry()
        with _make_executor(backend, workers) as executor, obs.metrics_scope(
            registry
        ), obs.tracing(tracer):
            ParallelHierarchicalSolver(
                problem.hierarchy,
                batch_size=16,
                options=UpdateOptions(kernel_impl="fast"),
                executor=executor,
                placement=None if placement == "none" else placement,
            ).run_cycle(estimate)
        doc = analysis.doctor_report(tracer, hierarchy=problem.hierarchy)
        cp = doc["passes"][0]["critical_path"]
        counters = registry.snapshot()["counters"]
        entry = {
            "placement": placement,
            "headroom": float(cp["headroom"]),
            "achieved_speedup": float(cp["achieved_speedup"]),
            "perfect_speedup": float(cp["perfect_speedup"]),
            "steals": int(counters.get("sched.steals", 0)),
            "steal_misses": int(counters.get("sched.steal_misses", 0)),
        }
        if best is None or entry["headroom"] < best["headroom"]:
            best = entry
    return best


def run_suite(problems, backends, repeats: int, workers: int, seed: int) -> dict:
    results: dict[str, list[dict]] = {}
    for pname in problems:
        problem = PROBLEMS[pname](seed)
        problem.assign()
        entries = []
        for backend in backends:
            cell = {"backend": backend, "workers": workers}
            for placement in ("none", "model"):
                cell[placement] = _traced_headroom(
                    problem, backend, workers, placement, repeats, seed
                )
            cell["headroom_shrink"] = (
                cell["none"]["headroom"] - cell["model"]["headroom"]
            )
            entries.append(cell)
            print(
                f"{pname:9s} {backend:8s} "
                f"headroom none {cell['none']['headroom']:6.3f} -> "
                f"model {cell['model']['headroom']:6.3f}  "
                f"(shrink {cell['headroom_shrink']:+.3f}, "
                f"steals {cell['model']['steals']})",
                flush=True,
            )
        results[pname] = entries
    return results


def _gate(report: dict, baseline_path: str, max_ratio: float) -> int:
    """Gate placed headroom against the committed no-placement figure.

    The claim under test: cost-packed, work-stealing dispatch leaves *at
    most* the imbalance first-come dispatch left on the baseline host
    (times ``max_ratio`` of scheduling-noise slack).  Judged by
    :func:`repro.obs.regress.check_metric`, the same verdict ``repro obs
    regress`` applies.
    """
    with open(baseline_path) as fh:
        baseline = json.load(fh)

    def _cell(doc):
        entries = doc["results"].get("helix") or next(iter(doc["results"].values()))
        return next(
            (e for e in entries if e["backend"] == "thread"), entries[0]
        )

    current = _cell(report)["model"]["headroom"]
    ref = _cell(baseline)["none"]["headroom"]
    check = check_metric(
        "placement.helix.thread.model.headroom",
        [current],
        limit=ref * max_ratio,
        direction="higher-is-worse",
        baseline=ref,
    )
    print(
        f"placement gate: helix thread placed headroom {current:.3f} vs "
        f"baseline no-placement {ref:.3f} (limit {ref * max_ratio:.3f})"
    )
    if not check["ok"]:
        print(
            "placement gate FAILED: placed dispatch left more imbalance "
            "than first-come dispatch did on the baseline host",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="BENCH_placement.json")
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
        "--quick",
        action="store_true",
        help="helix + thread backend only, 2 repeats (the CI perf smoke)",
    )
    ap.add_argument(
        "--check-against",
        metavar="BASELINE",
        help="compare against a committed BENCH_placement.json; non-zero "
        "exit when placed headroom exceeds the baseline's no-placement headroom",
    )
    ap.add_argument(
        "--max-regression",
        type=float,
        default=1.5,
        help="scheduling-noise slack: fail when placed headroom exceeds "
        "the baseline no-placement headroom x this ratio",
    )
    args = ap.parse_args(argv)

    problems = ["helix"] if args.quick else args.problems
    backends = ["thread"] if args.quick else args.backends
    repeats = 2 if args.quick else args.repeats

    results = run_suite(problems, backends, repeats, args.workers, args.seed)
    report = {
        "workloads": {
            "helix": "build_helix(4): 170 atoms, 510 state dims",
            "ribosome": "build_ribo30s(): ~900 atoms, 2700 state dims",
        },
        "metric": "headroom = perfect_speedup - achieved_speedup (doctor)",
        "quick": args.quick,
        "repeats": repeats,
        "workers": args.workers,
        "seed": args.seed,
        "results": results,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")

    if args.check_against:
        return _gate(report, args.check_against, args.max_regression)
    return 0


if __name__ == "__main__":
    sys.exit(main())
