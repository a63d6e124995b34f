"""RTOS scheduling policies in the system simulation."""

import json

import pytest

from repro.application import ApplicationModel
from repro.checkpoint.state import canonical_json, state_hash
from repro.mapping import MappingModel
from repro.platform import PlatformModel, standard_library
from repro.simulation import SystemSimulation
from repro.uml import Port


POLICIES = ("priority", "fifo", "round-robin")


def build_three_worker_app():
    """One source floods three workers of different priority on one PE."""
    app = ApplicationModel("RtosApp")
    app.signal("job", [("n", "Int32")])
    worker = app.component("Worker")
    worker.add_port(Port("inp", provided=["job"]))
    machine = app.behavior(worker)
    machine.variable("done", 0)
    machine.variable("i", 0)
    machine.state("s", initial=True)
    machine.on_signal(
        "s", "s", "job", params=["n"],
        effect="i = 0; while (i < 30) { i = i + 1; } done = done + 1;",
        internal=True,
    )
    source = app.component("Source")
    for port in ("out_a", "out_b", "out_c"):
        source.add_port(Port(port, required=["job"]))
    machine2 = app.behavior(source)
    machine2.state(
        "s", initial=True,
        entry=(
            "send job(1) via out_a; send job(2) via out_b; send job(3) via out_c;"
            "send job(4) via out_a; send job(5) via out_b; send job(6) via out_c;"
        ),
    )
    app.process(app.top, "w_a", worker, priority=0)
    app.process(app.top, "w_b", worker, priority=5)
    app.process(app.top, "w_c", worker, priority=9)
    app.process(app.top, "src", source)
    app.connect(app.top, ("src", "out_a"), ("w_a", "inp"))
    app.connect(app.top, ("src", "out_b"), ("w_b", "inp"))
    app.connect(app.top, ("src", "out_c"), ("w_c", "inp"))
    app.group("g")
    for name in ("w_a", "w_b", "w_c", "src"):
        app.assign(name, "g")
    return app


RUN_US = 10_000


def policy_simulation(policy, dispatch_overhead=0, tick=0):
    """The three-worker system on one PE under ``policy``, not yet run."""
    app = build_three_worker_app()
    platform = PlatformModel("OneCpu", standard_library())
    platform.instantiate("cpu1", "NiosCPU")
    if policy is not None:
        platform.configure_rtos(
            "cpu1",
            scheduling=policy,
            dispatch_overhead_cycles=dispatch_overhead,
            tick_period_us=tick,
        )
    mapping = MappingModel(app, platform)
    mapping.map("g", "cpu1")
    return SystemSimulation(app, platform, mapping)


def run_with_policy(policy, dispatch_overhead=0, tick=0):
    result = policy_simulation(policy, dispatch_overhead, tick).run(RUN_US)
    jobs = [
        r.process for r in result.log.exec_records
        if r.trigger == "job"
    ]
    return jobs, result


class TestPolicies:
    def test_priority_policy_orders_by_priority(self):
        jobs, _ = run_with_policy("priority")
        # all six jobs pending when the PE frees up: all w_c first, then w_b
        assert jobs == ["w_c", "w_c", "w_b", "w_b", "w_a", "w_a"]

    def test_fifo_policy_orders_by_arrival(self):
        jobs, _ = run_with_policy("fifo")
        assert jobs == ["w_a", "w_b", "w_c", "w_a", "w_b", "w_c"]

    def test_round_robin_rotates_fairly(self):
        jobs, _ = run_with_policy("round-robin")
        # rotation over process names: each worker served once per cycle
        assert jobs[:3] != ["w_c", "w_c", "w_b"]
        assert sorted(jobs[:3]) == ["w_a", "w_b", "w_c"]
        assert sorted(jobs[3:]) == ["w_a", "w_b", "w_c"]

    def test_default_is_priority(self):
        with_default, _ = run_with_policy(None)
        with_priority, _ = run_with_policy("priority")
        assert with_default == with_priority


@pytest.mark.parametrize("policy", POLICIES)
class TestSnapshots:
    """Every policy's ready queue survives a snapshot at any event."""

    def snapshots(self, policy):
        simulation = policy_simulation(policy)
        states = []
        simulation.kernel.after_event = lambda: states.append(
            json.loads(canonical_json(simulation.state_dict()))
        )
        log = simulation.run(RUN_US).writer.render()
        return states, log

    def test_ready_queues_are_snapshotted_in_arrival_order(self, policy):
        states, _ = self.snapshots(policy)
        queued = 0
        for state in states:
            ready = state["runtimes"]["cpu1"]["ready"]
            queued += bool(ready)
            sequences = [seq for seq, _priority, _activation in ready]
            assert sequences == sorted(sequences)
        assert (len(states), queued) == (20, 17)

    def test_every_snapshot_resumes_to_the_uninterrupted_log(self, policy):
        states, log = self.snapshots(policy)
        for state in states:
            resumed = policy_simulation(policy)
            resumed.load_state_dict(state)
            assert state_hash(resumed.state_dict()) == state_hash(state)
            assert resumed.run(RUN_US).writer.render() == log


class TestOverheadAccounting:
    def test_dispatch_overhead_charged_per_step(self):
        _, without = run_with_policy("priority", dispatch_overhead=0)
        _, with_overhead = run_with_policy("priority", dispatch_overhead=200)
        free = without.log.cycles_by_process()
        taxed = with_overhead.log.cycles_by_process()
        step_count = sum(
            1 for r in with_overhead.log.exec_records if r.process == "w_a"
        )
        assert taxed["w_a"] == free["w_a"] + 200 * step_count

    def test_overhead_extends_busy_time(self):
        _, without = run_with_policy("priority", dispatch_overhead=0)
        _, with_overhead = run_with_policy("priority", dispatch_overhead=500)
        assert with_overhead.pe_busy_ps["cpu1"] > without.pe_busy_ps["cpu1"]


class TestTickResolution:
    def build_timer_app(self):
        app = ApplicationModel("TickApp")
        app.signal("noop")
        comp = app.component("C")
        machine = app.behavior(comp)
        machine.variable("fires", 0)
        machine.state("s", initial=True, entry="set_timer(t, 130);")
        machine.on_timer(
            "s", "s", "t", effect="fires = fires + 1;", internal=True
        )
        app.process(app.top, "p1", comp)
        app.group("g")
        app.assign("p1", "g")
        return app

    def run_timer(self, tick):
        app = self.build_timer_app()
        platform = PlatformModel("OneCpu", standard_library())
        platform.instantiate("cpu1", "NiosCPU")
        if tick:
            platform.configure_rtos("cpu1", tick_period_us=tick)
        mapping = MappingModel(app, platform)
        mapping.map("g", "cpu1")
        result = SystemSimulation(app, platform, mapping).run(1_000)
        fires = [
            r for r in result.log.exec_records if r.trigger == "timer:t"
        ]
        return fires[0].time_ps if fires else None

    def test_tickless_timer_fires_exactly(self):
        fired_at = self.run_timer(tick=0)
        assert fired_at is not None
        assert fired_at == pytest.approx(130 * 1_000_000, abs=2_000_000)

    def test_tick_rounds_timer_up(self):
        # 130 us timer on a 100 us tick fires at the 200 us tick boundary
        tickless = self.run_timer(tick=0)
        ticked = self.run_timer(tick=100)
        assert ticked > tickless
        assert ticked >= 200 * 1_000_000
