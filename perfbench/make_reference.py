"""Record the program's output rmsd per workload and seed in ``reference_rmsd.json``.

The benchmark fails a run whose final rmsd exceeds the recorded value
for its seed by more than ``workloads.RMSD_RTOL`` (or, for a seed not in
the table, the largest recorded value), so a speed change cannot trade
accuracy away.  Run it once, from the repository root, on the commit
the benchmark was defined on::

    python3 perfbench/make_reference.py --seeds 0-49 --workload helix-serial
    python3 perfbench/make_reference.py --seeds 0-9 --scale tiny

Solves run on the serial solver: serial, thread and process backends
give bitwise-identical estimates, so the values hold for every backend.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from run import _import_program


def reference(workloads, workload, seed: int, scale: str) -> float:
    from repro import io as rio
    from repro.core.session import SolveSession
    from repro.molecules.superpose import superposed_rmsd

    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        path = Path(tmp) / "problem.npz"
        rio.save_problem(path, workload.generate(seed, scale))
        problem = rio.load_problem(path)
    ctx = workloads.Context(problem)
    if workload.backend == "serial":
        ctx.estimator = workloads.StructureEstimator(
            problem.n_atoms, problem.constraints, decomposition=problem.hierarchy)
    else:
        ctx.session = SolveSession(problem.hierarchy, problem.constraints)
    estimate = ctx.solve(problem.initial_estimate(seed), workload.sizes[scale].cycles)
    return superposed_rmsd(estimate.coords, problem.true_coords)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-49", help="inclusive range, e.g. 0-49")
    parser.add_argument("--workload", action="append", help="default: all")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    workloads = _import_program()
    table = json.loads(workloads.REFERENCE.read_text()) if workloads.REFERENCE.is_file() else {}
    for name in args.workload or list(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        size = workload.sizes[args.scale]
        entry = {"arg": size.arg, "cycles": size.cycles, "rmsd_A": {}}
        for seed in range(lo, hi + 1):
            entry["rmsd_A"][str(seed)] = reference(workloads, workload, seed, args.scale)
            print(f"{name} {args.scale} seed {seed}: {entry['rmsd_A'][str(seed)]!r}", flush=True)
        table.setdefault(name, {})[args.scale] = entry
        workloads.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
