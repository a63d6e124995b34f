"""Grouping strategies and the communication-minimising merge."""

import json
import os
import subprocess
import sys

import pytest

from repro.exploration import (
    communication_minimizing_grouping,
    external_traffic,
    per_process_grouping,
    round_robin_grouping,
    single_group_grouping,
)
from repro.profiling import ProcessGroupInfo, analyze
from repro.simulation import LogWriter, parse_log


def synthetic_profiling():
    """Traffic where p1<->p2 and p3<->p4 are hot pairs; p5 is quiet."""
    info = ProcessGroupInfo()
    info.process_to_group = {f"p{i}": f"g_p{i}" for i in range(1, 6)}
    info.group_names = sorted(set(info.process_to_group.values()))
    writer = LogWriter()
    flows = [
        ("p1", "p2", 100),
        ("p2", "p1", 80),
        ("p3", "p4", 60),
        ("p4", "p3", 50),
        ("p1", "p3", 2),
        ("p5", "p1", 1),
    ]
    for sender, receiver, count in flows:
        for _ in range(count):
            writer.signal(
                time_ps=0, signal="s", sender=sender, receiver=receiver,
                bytes=4, latency_ps=0, transport="local",
            )
    writer.finish(1)
    return analyze(parse_log(writer.render()), info)


PROCESS_TYPES = {f"p{i}": "general" for i in range(1, 6)}


class TestBasicStrategies:
    def test_per_process(self):
        assignment = per_process_grouping(PROCESS_TYPES, PROCESS_TYPES)
        assert len(set(assignment.values())) == 5

    def test_single_group_splits_hardware(self):
        types = dict(PROCESS_TYPES, p5="hardware")
        assignment = single_group_grouping(types, types)
        assert assignment["p5"] == "g_hw"
        assert len({assignment[f"p{i}"] for i in range(1, 5)}) == 1

    def test_round_robin_deterministic(self):
        first = round_robin_grouping(PROCESS_TYPES, PROCESS_TYPES, 3, seed=7)
        second = round_robin_grouping(PROCESS_TYPES, PROCESS_TYPES, 3, seed=7)
        assert first == second

    def test_round_robin_does_not_change_with_string_hashing(self):
        """``PYTHONHASHSEED`` changes ``hash(str)``; the grouping must not."""
        snippet = (
            "import json\n"
            "from repro.exploration import round_robin_grouping\n"
            "types = {f'p{i}': 'general' for i in range(1, 8)}\n"
            "print(json.dumps(round_robin_grouping(types, types, 4, seed=2)))\n"
        )
        outputs = set()
        for hash_seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True,
                text=True,
                check=True,
                env=env,
            )
            outputs.add(proc.stdout)
        assert len(outputs) == 1
        types = {f"p{i}": "general" for i in range(1, 8)}
        in_process = round_robin_grouping(types, types, 4, seed=2)
        assert json.loads(outputs.pop()) == in_process

    def test_round_robin_respects_group_count(self):
        assignment = round_robin_grouping(PROCESS_TYPES, PROCESS_TYPES, 2)
        assert len(set(assignment.values())) <= 2


class TestCommunicationMinimizing:
    def test_hot_pairs_merged(self):
        data = synthetic_profiling()
        assignment = communication_minimizing_grouping(data, PROCESS_TYPES, 3)
        assert assignment["p1"] == assignment["p2"]
        assert assignment["p3"] == assignment["p4"]
        assert len(set(assignment.values())) == 3

    def test_hardware_kept_separate(self):
        data = synthetic_profiling()
        types = dict(PROCESS_TYPES, p2="hardware")
        assignment = communication_minimizing_grouping(data, types, 3)
        # p2 is hardware: cannot merge with p1 despite hot traffic
        assert assignment["p1"] != assignment["p2"]

    def test_beats_round_robin_on_external_traffic(self):
        data = synthetic_profiling()
        optimised = communication_minimizing_grouping(data, PROCESS_TYPES, 3)
        arbitrary = round_robin_grouping(PROCESS_TYPES, PROCESS_TYPES, 3, seed=3)
        assert external_traffic(optimised, data) <= external_traffic(arbitrary, data)

    def test_group_count_one_internalises_everything(self):
        data = synthetic_profiling()
        assignment = communication_minimizing_grouping(data, PROCESS_TYPES, 1)
        assert len(set(assignment.values())) == 1
        assert external_traffic(assignment, data) == 0


class TestEmptyProcessList:
    """Every strategy must degrade gracefully to an empty assignment."""

    def test_per_process_empty(self):
        assert per_process_grouping([], {}) == {}

    def test_single_group_empty(self):
        assert single_group_grouping([], {}) == {}

    def test_round_robin_empty(self):
        assert round_robin_grouping([], {}, 3) == {}

    def test_communication_minimizing_empty(self):
        data = synthetic_profiling()
        assert communication_minimizing_grouping(data, {}, 2) == {}

    def test_external_traffic_empty_assignment(self):
        assert external_traffic({}, synthetic_profiling()) == 0


class TestAllHardware:
    """Hardware-only models: nothing may land in a software group."""

    HW_TYPES = {f"p{i}": "hardware" for i in range(1, 4)}

    def test_single_group_all_hardware(self):
        assignment = single_group_grouping(self.HW_TYPES, self.HW_TYPES)
        assert set(assignment.values()) == {"g_hw"}

    def test_round_robin_all_hardware(self):
        assignment = round_robin_grouping(self.HW_TYPES, self.HW_TYPES, 2)
        assert set(assignment.values()) == {"g_hw"}

    def test_communication_minimizing_all_hardware_merges(self):
        # same-kind clusters may merge, so the greedy loop still reaches
        # the requested count even when every process is hardware
        data = synthetic_profiling()
        types = {f"p{i}": "hardware" for i in range(1, 6)}
        assignment = communication_minimizing_grouping(data, types, 2)
        assert len(set(assignment.values())) == 2

    def test_mixed_kinds_never_share_a_group(self):
        data = synthetic_profiling()
        types = dict(
            {f"p{i}": "hardware" for i in range(1, 3)},
            **{f"p{i}": "general" for i in range(3, 6)},
        )
        assignment = communication_minimizing_grouping(data, types, 2)
        hw_groups = {assignment[p] for p, k in types.items() if k == "hardware"}
        sw_groups = {assignment[p] for p, k in types.items() if k == "general"}
        assert not hw_groups & sw_groups


class TestGroupCountEdges:
    def test_requested_count_above_process_count(self):
        data = synthetic_profiling()
        assignment = communication_minimizing_grouping(data, PROCESS_TYPES, 99)
        # nothing merges: one group per process
        assert len(set(assignment.values())) == 5

    def test_round_robin_single_group(self):
        assignment = round_robin_grouping(PROCESS_TYPES, PROCESS_TYPES, 1)
        assert len(set(assignment.values())) == 1


class TestExternalTraffic:
    def test_counts_only_cross_group(self):
        data = synthetic_profiling()
        same = {f"p{i}": "g" for i in range(1, 6)}
        assert external_traffic(same, data) == 0
        split = dict(same, p2="other")
        assert external_traffic(split, data) == 180  # p1->p2 plus p2->p1

    def test_unassigned_endpoints_ignored(self):
        data = synthetic_profiling()
        partial = {"p1": "a", "p2": "a"}
        assert external_traffic(partial, data) == 0


class TestTutmacGrouping:
    def test_recovers_paper_like_grouping(self, tutmac_app, tutmac_reference_result):
        """Greedy merging on real TUTMAC profiling data keeps the paper's
        heavy pipelines intact."""
        from repro.profiling import profile_run

        data = profile_run(tutmac_reference_result, tutmac_app)
        types = {
            name: process.process_type()
            for name, process in tutmac_app.processes.items()
            if not process.is_environment
        }
        assignment = communication_minimizing_grouping(data, types, 4)
        # the hottest flows must stay internal: msduRec->frag (500/s) and
        # frag->rca (2500/s) dominate, so they end up merged
        assert assignment["msduRec"] == assignment["frag"]
        # crc is hardware: always its own group
        crc_group = assignment["crc"]
        assert [p for p, g in assignment.items() if g == crc_group] == ["crc"]
        # the result does not exceed the requested group count
        assert len(set(assignment.values())) <= 4
