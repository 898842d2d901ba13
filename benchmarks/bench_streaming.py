"""Streaming constraint-arrival benchmark: incremental vs full re-solve.

Simulates the NMR acquisition setting: a session bootstraps on a partial
constraint set, then batches of new measurements arrive over time and
each arrival is folded in with an incremental dirty-path
``SolveSession.resolve()``.  For every arrival the report records the
RMSD to ground truth (does more data actually improve the structure?),
the incremental re-solve time, and the full-pass reference time — the
headline figures are constraint-row throughput of the incremental path
and its speedup over re-solving in full at every arrival.

Scenarios come from the ``repro.scenarios`` fuzzer (seed-addressed, so
every figure is reproducible), spanning the topology families rather
than one hand-built workload.

Standalone — no pytest-benchmark required::

    PYTHONPATH=src python benchmarks/bench_streaming.py --out BENCH_streaming.json

Quick CI form::

    PYTHONPATH=src python benchmarks/bench_streaming.py --quick
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.core.session import SolveSession
from repro.molecules.superpose import superposed_rmsd
from repro.scenarios import build_scenario, spec_from_seed
from dataclasses import replace


def run_stream(scenario) -> dict:
    """One streaming run: per-arrival incremental vs full timings."""
    true_coords = scenario.problem.true_coords
    incremental = SolveSession(
        scenario.fresh_hierarchy(),
        scenario.problem.constraints,
        batch_size=scenario.spec.batch_size,
        options=scenario.options,
    )
    shadow = SolveSession(
        scenario.fresh_hierarchy(),
        scenario.problem.constraints,
        batch_size=scenario.spec.batch_size,
        options=scenario.options,
    )
    arrivals = []
    try:
        incremental.solve(scenario.initial_estimate(), max_cycles=3, tol=1e-8)
        shadow.solve(scenario.initial_estimate(), max_cycles=3, tol=1e-8)
        rmsd0 = superposed_rmsd(incremental.estimate.coords, true_coords)
        for k, batch in enumerate(scenario.arrivals):
            t0 = time.perf_counter()
            incremental.add_constraints(batch)
            result = incremental.resolve(scope="dirty")
            t_inc = time.perf_counter() - t0
            t0 = time.perf_counter()
            shadow.add_constraints(batch)
            reference = shadow.resolve(scope="full")
            t_full = time.perf_counter() - t0
            identical = bool(
                np.array_equal(result.estimate.mean, reference.estimate.mean)
            )
            arrivals.append(
                {
                    "arrival": k,
                    "rows": int(sum(c.dimension for c in batch)),
                    "seconds_incremental": t_inc,
                    "seconds_full": t_full,
                    "dirty_nodes": result.n_dirty,
                    "total_nodes": len(incremental.hierarchy.nodes),
                    "rmsd": superposed_rmsd(
                        result.estimate.coords, true_coords
                    ),
                    "bit_identical_to_full": identical,
                }
            )
    finally:
        incremental.close()
        shadow.close()
    rows = sum(a["rows"] for a in arrivals)
    t_inc = sum(a["seconds_incremental"] for a in arrivals)
    t_full = sum(a["seconds_full"] for a in arrivals)
    return {
        "scenario": scenario.name,
        "seed": scenario.seed,
        "topology": scenario.spec.topology,
        "n_atoms": scenario.spec.n_atoms,
        "n_arrivals": len(arrivals),
        "rmsd_initial": rmsd0,
        "rmsd_final": arrivals[-1]["rmsd"] if arrivals else rmsd0,
        "rows_per_second_incremental": rows / max(1e-12, t_inc),
        "speedup_vs_full_resolve": t_full / max(1e-12, t_inc),
        "bit_identical_to_full": all(
            a["bit_identical_to_full"] for a in arrivals
        ),
        "arrivals": arrivals,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--scenarios", type=int, default=8, help="fuzz seeds per run"
    )
    ap.add_argument(
        "--arrivals", type=int, default=6, help="arrival batches per scenario"
    )
    ap.add_argument("--quick", action="store_true", help="3 scenarios only")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    n = 3 if args.quick else args.scenarios
    results = []
    for k in range(n):
        spec = replace(
            spec_from_seed(args.seed + k),
            faults=None,  # timing run: no injected faults
            n_arrivals=args.arrivals,
        )
        doc = run_stream(build_scenario(spec))
        results.append(doc)
        print(
            f"{doc['scenario']:<24} rmsd {doc['rmsd_initial']:.3f} -> "
            f"{doc['rmsd_final']:.3f}  "
            f"{doc['rows_per_second_incremental']:8.0f} rows/s  "
            f"{doc['speedup_vs_full_resolve']:5.2f}x vs full  "
            f"{'bit-identical' if doc['bit_identical_to_full'] else 'DIVERGED'}"
        )
    ok = all(r["bit_identical_to_full"] for r in results)
    report = {
        "benchmark": "streaming",
        "seed": args.seed,
        "ok": ok,
        "results": results,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
    if not ok:
        print("ERROR: incremental stream diverged from full re-solves")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
