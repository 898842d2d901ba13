"""Repository benchmark: one run of one workload, end to end or traced.

Run from the repository root::

    python3 perfbench/run.py --workload helix-serial --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation
beyond one timer per cycle; ``--trace 1`` is a separate traced run that
reports the per-layer metrics and writes its spans to
``.perfbench/<workload>-<seed>/spans.jsonl`` (``python -m
repro.obs.validate`` accepts the file).  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every output check passed, 1 when one failed, 2 when the
program under test cannot be imported.  ``README.md`` documents the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: One BLAS thread per process, set before numpy loads: the client and the
#: two pool workers then fit the host's cores, and a run times the program
#: rather than BLAS threads spinning against each other for them.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _import_program():
    """Put the checkout's ``src`` and this directory on the path; import the workloads."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        raise SystemExit(2)
    os.environ.update(BLAS_ENV)
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    return workloads


def _stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker process, so no child outlives the run."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None and getattr(tracker, "_pid", None) is not None:
        stop()


def report(result, workload, traced: bool) -> dict:
    """Print the human-readable report; return the final JSON object."""
    print(f"# workload {workload.name}: {workload.why}")
    print("# environment " + json.dumps(result.env, sort_keys=True))
    print("# end to end" + (" (traced run: timings include tracing)" if traced else ""))
    for name, (value, unit, detail) in result.end_to_end.items():
        print(f"  {name:<16} {value:14.6f} {unit:<6} {detail}")
    for note in result.notes:
        print(f"  {note}")
    for failure in result.failures:
        print(f"  failure: {failure}")
    if traced:
        print("# per layer (means per traced operation unless noted in README.md)")
        for name, (value, unit) in result.per_layer.items():
            print(f"  {name:<30} {value:16.6f} {unit}")
        wall = result.ledger.get("op wall", 0.0) or 1.0
        print("# ledger: self time per traced operation (adds up to the op wall)")
        for layer, value in result.ledger.items():
            print(f"  {layer:<12} {value:12.6f} s  {100.0 * value / wall:6.1f}%")
        print(f"# spans written to {result.spans_path}")
        metrics = result.per_layer
    else:
        metrics = {k: (v, u) for k, (v, u, _) in result.end_to_end.items()}
    return {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="least time the timed loop runs; it also runs on to the "
                        "workload's minimum operation count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="'tiny' shrinks every workload for the benchmark's own tests")
    args = parser.parse_args(argv)
    workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    try:
        result = workloads.Runner(workload, args.seed, args.seconds, bool(args.trace),
                                  scale=args.scale).run()
    finally:
        _stop_resource_tracker()
    final = report(result, workload, bool(args.trace))
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
