"""Tests for cost-model-driven placement and work-stealing dispatch.

Covers: HEFT packing against closed-form optimal makespans (LPT on
independent tasks, chains that cannot parallelize), plan determinism
and assignment validity, Equation-1 cost prediction with measured
overrides (blend_measured's median-ratio rescale), placement config
coercion and error cases, bitwise identity of packed + stolen runs
against the serial solver on every backend (with a misprediction
profile that provokes real steals), the measured-cost feedback loop
across cycles, ``placement_feedback`` from traces and plan.json, the
planner's exported ``assignment`` block and its validator, the
doctor's placement/headroom/worst-lane surfacing, the regress
environment block, and the CLI flag plumbing.
"""

import argparse
import concurrent.futures
import json

import numpy as np
import pytest

from repro import obs
from repro.cli import _make_placement
from repro.core.hier_solver import HierarchicalSolver
from repro.core.hierarchy import assign_constraints
from repro.core.workmodel import analytic_work_model, blend_measured
from repro.errors import PlacementError
from repro.obs import analysis
from repro.obs.validate import validate_plan_json
from repro.parallel import (
    ParallelHierarchicalSolver,
    ProcessExecutor,
    ThreadExecutor,
)
from repro.parallel.placement import (
    PlacementConfig,
    coerce_placement,
    hierarchy_edges,
    placement_feedback,
    plan_placement,
    predicted_costs,
)


def _independent(costs):
    return {nid: -1 for nid in costs}


class TestPacking:
    def test_lpt_closed_form(self):
        # 3+2 / 3+2 is the optimal split; list scheduling finds it.
        costs = {0: 3.0, 1: 3.0, 2: 2.0, 3: 2.0}
        plan = plan_placement(costs, _independent(costs), 2)
        assert plan.predicted_makespan == pytest.approx(5.0)
        assert sorted(plan.lane_loads) == pytest.approx([5.0, 5.0])

    def test_single_worker_is_sum(self):
        costs = {0: 1.0, 1: 2.0, 2: 4.0}
        plan = plan_placement(costs, _independent(costs), 1)
        assert plan.predicted_makespan == pytest.approx(7.0)
        assert plan.lane_loads == pytest.approx((7.0,))

    def test_chain_cannot_parallelize(self):
        costs = {0: 1.0, 1: 2.0, 2: 3.0}
        edges = {0: 1, 1: 2, 2: -1}  # leaf -> mid -> root
        plan = plan_placement(costs, edges, 4)
        assert plan.predicted_makespan == pytest.approx(6.0)

    def test_assignment_covers_all_nodes(self):
        costs = {nid: float(nid + 1) for nid in range(7)}
        plan = plan_placement(costs, _independent(costs), 3)
        assert set(plan.assignment) == set(costs)
        assert all(0 <= lane < 3 for lane in plan.assignment.values())
        assert sum(plan.lane_loads) == pytest.approx(sum(costs.values()))

    def test_deterministic(self):
        costs = {nid: float((nid * 7) % 5 + 1) for nid in range(20)}
        a = plan_placement(costs, _independent(costs), 4)
        b = plan_placement(costs, _independent(costs), 4)
        assert a.assignment == b.assignment
        assert a.predicted_makespan == b.predicted_makespan

    def test_rank_decreases_toward_leaves(self):
        costs = {0: 1.0, 1: 1.0, 2: 1.0}
        edges = {0: 2, 1: 2, 2: -1}
        plan = plan_placement(costs, edges, 2)
        # upward rank = own cost + chain to root: leaves outrank the root
        assert plan.rank[0] > plan.rank[2]
        assert plan.rank[1] > plan.rank[2]

    def test_invalid_policy(self):
        with pytest.raises(PlacementError):
            plan_placement({0: 1.0}, {0: -1}, 2, policy="greedy")

    def test_invalid_workers(self):
        with pytest.raises(PlacementError):
            plan_placement({0: 1.0}, {0: -1}, 0)


class TestPredictedCosts:
    def test_all_nodes_priced(self, two_group_problem):
        _, constraints, hierarchy, _ = two_group_problem
        assign_constraints(hierarchy, constraints)
        costs = predicted_costs(hierarchy, batch_size=4)
        assert set(costs) == {n.nid for n in hierarchy.nodes}
        assert all(c >= 0.0 for c in costs.values())

    def test_overrides_win_verbatim(self, two_group_problem):
        _, constraints, hierarchy, _ = two_group_problem
        assign_constraints(hierarchy, constraints)
        nid = hierarchy.nodes[0].nid
        costs = predicted_costs(hierarchy, 4, overrides={nid: 123.0})
        assert costs[nid] == pytest.approx(123.0)

    def test_blend_measured_median_rescale(self):
        predicted = {1: 2.0, 2: 4.0, 3: 8.0}
        costs, scale = blend_measured(predicted, {1: 1.0, 2: 2.0})
        assert scale == pytest.approx(0.5)
        assert costs[1] == pytest.approx(1.0)  # measured verbatim
        assert costs[2] == pytest.approx(2.0)
        assert costs[3] == pytest.approx(4.0)  # rescaled prediction

    def test_blend_without_overlap_keeps_scale_one(self):
        costs, scale = blend_measured({1: 2.0}, {9: 5.0})
        assert scale == pytest.approx(1.0)
        assert costs[1] == pytest.approx(2.0)


class TestConfig:
    def test_coerce_none(self):
        assert coerce_placement(None) is None
        assert coerce_placement("none") is None

    def test_coerce_policy_name(self):
        cfg = coerce_placement("model")
        assert isinstance(cfg, PlacementConfig) and cfg.policy == "model"

    def test_coerce_passthrough(self):
        cfg = PlacementConfig(steal=False)
        assert coerce_placement(cfg) is cfg

    def test_coerce_rejects_garbage(self):
        with pytest.raises(PlacementError):
            coerce_placement(3.14)

    def test_bad_policy_rejected(self):
        with pytest.raises(PlacementError):
            PlacementConfig(policy="rain-dance")

    def test_overrides_coerced_to_numbers(self):
        cfg = PlacementConfig(cost_overrides={"3": "0.5"})
        assert cfg.cost_overrides == {3: 0.5}


class TestHierarchyEdges:
    def test_full_tree(self, two_group_problem):
        _, _, hierarchy, _ = two_group_problem
        edges = hierarchy_edges(hierarchy)
        root = hierarchy.root.nid
        assert edges[root] == -1
        for node in hierarchy.nodes:
            if node.parent is not None:
                assert edges[node.nid] == node.parent.nid

    def test_restricted_set_reroots(self, two_group_problem):
        _, _, hierarchy, _ = two_group_problem
        leaf = hierarchy.leaves()[0]
        edges = hierarchy_edges(hierarchy, nids=[leaf.nid])
        assert edges == {leaf.nid: -1}


class _LockstepThreadExecutor(ThreadExecutor):
    """Thread backend whose completion order the test scripts.

    Each task runs on a pool thread, but ``submit`` returns only once it
    has finished.  Every ``wait`` round of the scheduler then sees all
    inflight tasks complete together and re-dispatches the lanes in
    index order, so a lane whose own queue has drained (the one packed
    with the heavy-predicted leaf) steals from a peer that still has
    queued work, whatever the host's thread timing.
    """

    def submit(self, fn, item, crash=False):
        future = super().submit(fn, item, crash)
        concurrent.futures.wait([future])
        return future


class TestBitIdentity:
    """Packed + stolen dispatch must equal the serial solver bitwise."""

    @pytest.fixture()
    def skewed(self, helix2_problem):
        # Wildly wrong predictions: one leaf claimed a million times
        # heavier than everything else.  HEFT piles the rest onto other
        # lanes; when the "heavy" lane finishes instantly it must steal.
        h = helix2_problem.hierarchy
        overrides = {n.nid: 1e-6 for n in h.nodes}
        overrides[h.leaves()[0].nid] = 1.0
        return PlacementConfig(cost_overrides=overrides)

    def _placed(self, problem, executor, placement):
        registry = obs.MetricsRegistry()
        with obs.metrics_scope(registry):
            res = ParallelHierarchicalSolver(
                problem.hierarchy,
                batch_size=16,
                executor=executor,
                placement=placement,
            ).run_cycle(problem.initial_estimate(0))
        return res, registry.snapshot()["counters"]

    def test_thread_backend_with_steals(self, helix2_problem, skewed):
        serial = HierarchicalSolver(
            helix2_problem.hierarchy, batch_size=16
        ).run_cycle(helix2_problem.initial_estimate(0))
        with _LockstepThreadExecutor(4) as ex:
            placed, counters = self._placed(helix2_problem, ex, skewed)
        assert np.array_equal(serial.estimate.mean, placed.estimate.mean)
        assert np.array_equal(
            serial.estimate.covariance, placed.estimate.covariance
        )
        assert counters.get("sched.steals", 0) >= 1
        assert counters.get("sched.placement.model", 0) == 1

    def test_process_backend(self, helix2_problem, skewed):
        serial = HierarchicalSolver(
            helix2_problem.hierarchy, batch_size=16
        ).run_cycle(helix2_problem.initial_estimate(0))
        with ProcessExecutor(2) as ex:
            placed, _ = self._placed(helix2_problem, ex, skewed)
        assert np.array_equal(serial.estimate.mean, placed.estimate.mean)
        assert np.array_equal(
            serial.estimate.covariance, placed.estimate.covariance
        )

    def test_serial_executor_no_steals(self, helix2_problem, skewed):
        serial = HierarchicalSolver(
            helix2_problem.hierarchy, batch_size=16
        ).run_cycle(helix2_problem.initial_estimate(0))
        placed, counters = self._placed(helix2_problem, None, skewed)
        assert np.array_equal(serial.estimate.mean, placed.estimate.mean)
        assert counters.get("sched.steals", 0) == 0

    def test_steal_disabled_still_identical(self, helix2_problem, skewed):
        skewed.steal = False
        serial = HierarchicalSolver(
            helix2_problem.hierarchy, batch_size=16
        ).run_cycle(helix2_problem.initial_estimate(0))
        with ThreadExecutor(4) as ex:
            placed, counters = self._placed(helix2_problem, ex, skewed)
        assert np.array_equal(serial.estimate.mean, placed.estimate.mean)
        assert counters.get("sched.steals", 0) == 0


class TestFeedbackLoop:
    def test_measured_costs_recorded(self, helix2_problem):
        solver = ParallelHierarchicalSolver(
            helix2_problem.hierarchy, batch_size=16, placement="model"
        )
        solver.run_cycle(helix2_problem.initial_estimate(0))
        nids = {n.nid for n in helix2_problem.hierarchy.nodes}
        assert set(solver.measured_costs) == nids
        assert all(s >= 0.0 for s in solver.measured_costs.values())
        assert solver.last_placement is not None
        assert set(solver.last_placement.assignment) == nids

    def test_second_cycle_repacks_from_measurements(self, helix2_problem):
        solver = ParallelHierarchicalSolver(
            helix2_problem.hierarchy, batch_size=16, placement="model"
        )
        first = solver.run_cycle(helix2_problem.initial_estimate(0))
        plan1 = solver.last_placement
        second = solver.run_cycle(first.estimate)
        plan2 = solver.last_placement
        assert plan2 is not plan1
        # the repack priced nodes from the measured first cycle
        measured = {n.nid: solver.measured_costs[n.nid]
                    for n in helix2_problem.hierarchy.nodes}
        assert any(
            plan2.costs[nid] != plan1.costs[nid] for nid in measured
        ) or plan2.costs == measured
        assert second.estimate is not None


class TestPlacementFeedback:
    def test_from_plan_json(self, tmp_path):
        doc = {
            "plan_version": 1,
            "assignment": {
                "workers": 2,
                "policy": "heft",
                "makespan_seconds": 2.0,
                "nodes": [
                    {"nid": 0, "worker": 0, "start": 0.0, "finish": 1.5,
                     "seconds": 1.5, "rank": 2.0},
                    {"nid": 1, "worker": 1, "start": 0.0, "finish": 0.0,
                     "seconds": 0.0, "rank": 1.0},
                ],
            },
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc))
        fb = placement_feedback(path)
        assert fb == {0: 1.5}  # zero-second rows dropped

    def test_plan_without_assignment_rejected(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"plan_version": 1}))
        with pytest.raises(PlacementError, match="assignment"):
            placement_feedback(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(PlacementError, match="not found"):
            placement_feedback(tmp_path / "nope.json")

    def test_from_trace(self, helix2_problem, tmp_path):
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            ParallelHierarchicalSolver(
                helix2_problem.hierarchy, batch_size=16
            ).run_cycle(helix2_problem.initial_estimate(0))
        trace = tmp_path / "run.spans.jsonl"
        obs.write_spans_jsonl(tracer, trace)
        fb = placement_feedback(trace)
        assert fb and all(sec > 0.0 for sec in fb.values())
        assert set(fb) <= {n.nid for n in helix2_problem.hierarchy.nodes}

    def test_garbage_trace_rejected(self, tmp_path):
        path = tmp_path / "junk.spans.jsonl"
        path.write_text("not json\n")
        with pytest.raises(PlacementError):
            placement_feedback(path)


class TestPlanAssignmentExport:
    @pytest.fixture()
    def helix_trace(self, helix2_problem, tmp_path):
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            ParallelHierarchicalSolver(
                helix2_problem.hierarchy, batch_size=16
            ).run_cycle(helix2_problem.initial_estimate(0))
        return tracer

    def test_block_present_and_valid(self, helix_trace, helix2_problem):
        plan = obs.plan_report(
            helix_trace, workers=[1, 2], seed=0, assignment_workers=2
        )
        assert validate_plan_json(plan) == []
        block = plan["assignment"]
        assert block["workers"] == 2 and block["policy"] == "heft"
        nids = {row["nid"] for row in block["nodes"]}
        assert nids == {n.nid for n in helix2_problem.hierarchy.nodes}
        assert block["makespan_seconds"] > 0.0

    def test_block_absent_by_default(self, helix_trace):
        plan = obs.plan_report(helix_trace, workers=[1, 2], seed=0)
        assert "assignment" not in plan
        assert validate_plan_json(plan) == []

    def test_validator_flags_corrupt_block(self, helix_trace):
        plan = obs.plan_report(
            helix_trace, workers=[1, 2], seed=0, assignment_workers=2
        )
        plan["assignment"]["nodes"][0]["worker"] = 99
        problems = validate_plan_json(plan)
        assert any("worker" in p for p in problems)

    def test_exported_block_feeds_placement(self, helix_trace, tmp_path):
        plan = obs.plan_report(
            helix_trace, workers=[1, 2], seed=0, assignment_workers=2
        )
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        fb = placement_feedback(path)
        assert fb and all(sec > 0.0 for sec in fb.values())


class TestDoctorSurfacing:
    @pytest.fixture()
    def placed_trace(self, helix2_problem):
        tracer = obs.Tracer()
        with ThreadExecutor(2) as ex, obs.tracing(tracer):
            ParallelHierarchicalSolver(
                helix2_problem.hierarchy,
                batch_size=16,
                executor=ex,
                placement="model",
            ).run_cycle(helix2_problem.initial_estimate(0))
        return tracer

    def test_pass_records_placement_policy(self, placed_trace, helix2_problem):
        report = analysis.doctor_report(
            placed_trace, hierarchy=helix2_problem.hierarchy
        )
        assert report["passes"][0]["placement"] == "model"

    def test_headroom_reported(self, placed_trace, helix2_problem):
        report = analysis.doctor_report(
            placed_trace, hierarchy=helix2_problem.hierarchy
        )
        cp = report["passes"][0]["critical_path"]
        assert cp["headroom"] >= 0.0
        assert cp["headroom"] == pytest.approx(
            max(0.0, cp["perfect_speedup"] - cp["achieved_speedup"])
        )

    def test_worst_lane_names_heaviest_subtree(self, placed_trace, helix2_problem):
        report = analysis.doctor_report(
            placed_trace, hierarchy=helix2_problem.hierarchy
        )
        wl = report["passes"][0]["utilization"]["worst_lane"]
        assert wl["busy_seconds"] > 0.0
        heavy = wl["heaviest"]
        assert heavy["nid"] in {n.nid for n in helix2_problem.hierarchy.nodes}
        assert heavy["measured_seconds"] > 0.0
        # Equation-1 attrs are on the spans, so a prediction is attached
        assert heavy["predicted_seconds"] is None or heavy["predicted_seconds"] > 0.0
        text = analysis.format_doctor_report(report)
        assert "placement=model" in text

    def test_plain_trace_reads_placement_none(self, helix2_problem):
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            ParallelHierarchicalSolver(
                helix2_problem.hierarchy, batch_size=16
            ).run_cycle(helix2_problem.initial_estimate(0))
        report = analysis.doctor_report(
            tracer, hierarchy=helix2_problem.hierarchy
        )
        assert report["passes"][0]["placement"] == "none"


class TestRegressEnvironment:
    def test_placement_and_steals_recorded(self, tmp_path):
        from repro.obs import regress

        report = regress.run_regress(repeats=1, placement="model")
        env = report["environment"]
        assert env["placement_policy"] == "model"
        assert env["sched_steals"] >= 0
        assert env["sched_steal_misses"] >= 0

    def test_default_placement_none(self):
        from repro.obs import regress

        report = regress.run_regress(repeats=1)
        assert report["environment"]["placement_policy"] == "none"
        assert report["environment"]["sched_steals"] == 0


class TestCliPlumbing:
    def _ns(self, **kw):
        return argparse.Namespace(
            placement=kw.get("placement", "none"),
            placement_from=kw.get("placement_from"),
        )

    def test_none_by_default(self):
        assert _make_placement(self._ns()) is None

    def test_model_flag(self):
        cfg = _make_placement(self._ns(placement="model"))
        assert isinstance(cfg, PlacementConfig)
        assert cfg.cost_overrides == {}

    def test_placement_from_implies_model(self, tmp_path):
        doc = {
            "plan_version": 1,
            "assignment": {
                "workers": 1, "policy": "heft", "makespan_seconds": 1.0,
                "nodes": [{"nid": 0, "worker": 0, "start": 0.0,
                           "finish": 1.0, "seconds": 1.0, "rank": 1.0}],
            },
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc))
        cfg = _make_placement(self._ns(placement_from=str(path)))
        assert cfg is not None and cfg.policy == "model"
        assert cfg.cost_overrides == {0: 1.0}

    def test_bad_feedback_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit):
            _make_placement(
                self._ns(placement_from=str(tmp_path / "missing.json"))
            )


class TestSessionPlacement:
    def test_session_solver_persists_measurements(self, helix2_problem):
        from repro.core.session import SolveSession

        with ThreadExecutor(2) as ex:
            session = SolveSession(
                helix2_problem.hierarchy,
                helix2_problem.constraints,
                batch_size=16,
                executor=ex,
                placement="model",
            )
            session.solve(helix2_problem.initial_estimate(0), max_cycles=2, tol=0.0)
            solver = session.solver
            assert solver.placement is not None
            assert solver.measured_costs
