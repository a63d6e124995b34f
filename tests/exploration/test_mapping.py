"""Mapping exploration: enumeration, exhaustive search, improvement loop."""

import pytest

from repro.errors import ExplorationError, MappingError
from repro.exploration import (
    enumerate_assignments,
    exhaustive_search,
    improvement_loop,
)
from repro.mapping import MappingModel

from tests.conftest import build_pingpong, build_two_cpu_platform


def factory():
    return build_pingpong(), build_two_cpu_platform()


class TestEnumeration:
    def test_two_groups_two_cpus(self):
        app, platform = factory()
        assignments = enumerate_assignments(app, platform)
        assert len(assignments) == 4
        assert {"g1": "cpu1", "g2": "cpu2"} in assignments
        assert {"g1": "cpu2", "g2": "cpu2"} in assignments

    def test_type_restriction_shrinks_domain(self, tutwlan_system):
        application, platform, _ = tutwlan_system
        assignments = enumerate_assignments(application, platform)
        # group4 is hardware: runs on accelerator1 or any general CPU (4);
        # groups 1-3 are general: 3 CPUs each => 3^3 * 4
        assert len(assignments) == 27 * 4
        for assignment in assignments:
            assert assignment["group4"] in {
                "accelerator1", "processor1", "processor2", "processor3"
            }
            assert assignment["group1"] != "accelerator1"


class TestExhaustiveSearch:
    def test_candidates_sorted_by_cost(self):
        candidates = exhaustive_search(factory, duration_us=5_000)
        costs = [c.cost for c in candidates]
        assert costs == sorted(costs)
        assert len(candidates) == 4

    def test_colocated_beats_split_on_bus_bytes(self):
        candidates = exhaustive_search(factory, duration_us=5_000)
        best = candidates[0]
        # the cheapest design co-locates both groups (zero bus traffic)
        assert best.assignment["g1"] == best.assignment["g2"]
        assert best.result.bus_bytes == 0
        worst = candidates[-1]
        assert worst.result.bus_bytes > 0

    def test_limit_caps_evaluations(self):
        candidates = exhaustive_search(factory, duration_us=2_000, limit=2)
        assert len(candidates) == 2


class TestImprovementLoop:
    def test_improves_split_initial_design(self):
        history = improvement_loop(
            factory,
            {"g1": "cpu1", "g2": "cpu2"},
            duration_us=5_000,
        )
        assert len(history) >= 2
        assert history[-1].cost < history[0].cost
        # the accepted move co-located the communicating groups
        final = history[-1].assignment
        assert final["g1"] == final["g2"]

    def test_already_good_design_stays(self):
        history = improvement_loop(
            factory,
            {"g1": "cpu1", "g2": "cpu1"},
            duration_us=5_000,
        )
        assert history[0].assignment == {"g1": "cpu1", "g2": "cpu1"}
        # no move can beat zero bus traffic
        assert history[-1].assignment["g1"] == history[-1].assignment["g2"]

    def test_history_costs_monotonic(self):
        history = improvement_loop(
            factory, {"g1": "cpu1", "g2": "cpu2"}, duration_us=5_000
        )
        costs = [candidate.cost for candidate in history]
        assert costs == sorted(costs, reverse=True)

    def test_an_initial_assignment_that_cannot_run_raises(self):
        from repro.cases.tutwlan import PAPER_MAPPING

        with pytest.raises(MappingError, match="cannot run on 'accelerator1'"):
            improvement_loop(
                "repro.cases.tutwlan:exploration_factory",
                {**PAPER_MAPPING, "group1": "accelerator1"},
                duration_us=2_000,
            )

    def test_a_move_that_cannot_run_ends_the_loop(self, monkeypatch):
        from repro.cases.tutwlan import PAPER_MAPPING
        from repro.exploration import mapping

        monkeypatch.setattr(
            mapping,
            "_best_colocation_move",
            lambda candidate, assignment: ("group1", "accelerator1"),
        )
        history = improvement_loop(
            "repro.cases.tutwlan:exploration_factory",
            dict(PAPER_MAPPING),
            duration_us=2_000,
        )
        assert [candidate.assignment for candidate in history] == [PAPER_MAPPING]

    def test_an_illegal_move_runs_no_engine(self, monkeypatch):
        from repro.cases.tutwlan import PAPER_MAPPING
        from repro.exploration import mapping

        monkeypatch.setattr(
            mapping,
            "_best_colocation_move",
            lambda candidate, assignment: ("group1", "accelerator1"),
        )
        runs = []
        improvement_loop(
            "repro.cases.tutwlan:exploration_factory",
            dict(PAPER_MAPPING),
            duration_us=2_000,
            runs_out=runs,
        )
        # the initial design's run only: the move is rejected before dispatch
        assert [run.candidates_submitted for run in runs] == [1]
        assert not runs[0].failures

    def test_a_move_that_fails_otherwise_raises(self, monkeypatch):
        from repro.cases.tutwlan import PAPER_MAPPING
        from repro.errors import SimulationError
        from repro.exploration import engine, mapping

        move = ("group1", "processor2")
        evaluate = engine.evaluate_spec

        def evaluate_or_fail(spec, checkpointer=None):
            if spec.mapping_dict[move[0]] == move[1]:
                raise SimulationError("the trial broke")
            return evaluate(spec, checkpointer=checkpointer)

        monkeypatch.setattr(engine, "evaluate_spec", evaluate_or_fail)
        monkeypatch.setattr(
            mapping, "_best_colocation_move", lambda candidate, assignment: move
        )
        assert PAPER_MAPPING[move[0]] != move[1]
        with pytest.raises(ExplorationError, match="SimulationError: the trial broke"):
            improvement_loop(
                "repro.cases.tutwlan:exploration_factory",
                dict(PAPER_MAPPING),
                duration_us=2_000,
            )


class TestEvaluation:
    def test_evaluate_metrics(self):
        from repro.exploration import evaluate

        app, platform = factory()
        mapping = MappingModel(app, platform)
        mapping.map("g1", "cpu1")
        mapping.map("g2", "cpu2")
        result = evaluate(app, platform, mapping, duration_us=5_000)
        assert result.bus_signals > 0
        assert result.bus_bytes > 0
        assert 0 < result.max_pe_utilization <= 1.0
        assert result.mean_latency_ps > 0
        assert result.dropped_signals == 0
        assert result.group_cycles["g1"] > 0
