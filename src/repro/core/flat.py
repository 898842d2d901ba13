"""The flat (non-hierarchical) solver — the paper's baseline.

One cycle treats the whole molecule as a single state vector and applies
every constraint batch in sequence with the Figure 1 update.  Complexity
per scalar constraint is O(n²) in the full state dimension, which is what
the hierarchical decomposition beats (Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.constraints.base import Constraint
from repro.constraints.batch import make_batches
from repro.core.state import StructureEstimate
from repro.core.update import (
    UpdateOptions,
    apply_batch,
    complete_posterior,
    quarantine_record,
)
from repro.errors import BatchUpdateError
from repro.faults.report import QuarantineRecord, RetryReport
from repro.linalg.counters import Recorder, current_recorder, recording
from repro.util.timer import Timer


@dataclass(frozen=True)
class FlatCycleResult:
    """Outcome of one flat cycle: posterior, timing and event recorder."""

    estimate: StructureEstimate
    seconds: float
    recorder: Recorder
    n_constraint_rows: int
    quarantined: tuple[QuarantineRecord, ...] = ()
    retries: tuple[RetryReport, ...] = ()

    @property
    def seconds_per_constraint(self) -> float:
        return self.seconds / max(1, self.n_constraint_rows)


class FlatSolver:
    """Applies all constraints to the global estimate in fixed-size batches.

    Parameters
    ----------
    constraints:
        Constraint set, applied in the given order.
    batch_size:
        Target scalar rows per observation vector (the paper's ``m``).
    options:
        Per-batch update options.
    """

    def __init__(
        self,
        constraints: Sequence[Constraint],
        batch_size: int = 16,
        options: UpdateOptions = UpdateOptions(),
    ):
        self.constraints = list(constraints)
        self.batch_size = int(batch_size)
        self.options = options
        self.batches = make_batches(self.constraints, self.batch_size)
        self.n_constraint_rows = sum(b.dimension for b in self.batches)

    def run_cycle(
        self, estimate: StructureEstimate, options: UpdateOptions | None = None
    ) -> FlatCycleResult:
        """One complete cycle over the constraint set (paper's measured unit).

        ``options`` overrides the solver's defaults for this cycle only
        (used by the annealing schedule).
        """
        opts = options if options is not None else self.options
        outer = current_recorder()
        rec = outer if outer is not None else Recorder()
        quarantined: list[QuarantineRecord] = []
        retries: list[RetryReport] = []
        timer = Timer()
        with obs.span(
            "cycle",
            cat="solve",
            solver="flat",
            rows=self.n_constraint_rows,
            n_batches=len(self.batches),
        ), recording(rec):
            with timer:
                current = estimate
                # ``produced`` marks ``current`` as this loop's own
                # intermediate (never the caller's estimate), letting
                # apply_batch recycle its covariance buffer in place.
                # Intermediates keep one triangle; the last batch
                # completes the posterior inside its own call.
                produced = False
                last = len(self.batches) - 1
                with rec.tagged("flat"):
                    for step, batch in enumerate(self.batches):
                        try:
                            current = apply_batch(
                                current, batch, None, opts, retry_log=retries,
                                step=step, consume_estimate=produced,
                                complete=step == last,
                            )
                            produced = True
                        except BatchUpdateError as exc:
                            quarantined.append(quarantine_record("flat", batch, exc))
                            if step == last and produced:
                                complete_posterior(current, opts)
        obs.inc("solve.cycles")
        obs.observe_latency("cycle.seconds", timer.elapsed)
        return FlatCycleResult(
            current,
            timer.elapsed,
            rec,
            self.n_constraint_rows,
            quarantined=tuple(quarantined),
            retries=tuple(retries),
        )

    def solve(
        self,
        estimate: StructureEstimate,
        max_cycles: int = 50,
        tol: float = 1e-6,
        gauge_invariant: bool = False,
        anneal: tuple[float, float] | None = None,
    ) -> "ConvergenceReport":
        """Iterate cycles to convergence (delegates to :mod:`convergence`).

        ``anneal=(start, decay)`` inflates all measurement variances by
        ``max(1, start · decay^cycle)`` — see
        :func:`repro.core.convergence.annealing_schedule`.
        """
        from dataclasses import replace

        from repro.core.convergence import solve_with_annealing

        quarantine: list[QuarantineRecord] = []
        retries: list[RetryReport] = []

        def runner(est: StructureEstimate, scale: float) -> StructureEstimate:
            result = self.run_cycle(
                est, replace(self.options, noise_scale=self.options.noise_scale * scale)
            )
            quarantine.extend(result.quarantined)
            retries.extend(result.retries)
            return result.estimate

        report = solve_with_annealing(
            runner,
            estimate,
            max_cycles,
            tol,
            gauge_invariant=gauge_invariant,
            anneal=anneal,
        )
        report.quarantine = quarantine
        report.retries = retries
        return report
