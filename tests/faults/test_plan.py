"""Unit tests of the fault plan and injector: PRNG, rates, windows,
accounting."""

import pytest

from repro.errors import SimulationError
from repro.faults import (
    BUS_CORRUPT,
    BUS_DROP,
    FaultInjector,
    FaultPlan,
    FaultRng,
    FaultStats,
    PEWindow,
    PE_CRASH,
    PE_STALL,
    SIGNAL_DROP,
    SIGNAL_DUP,
)


class TestFaultRng:
    def test_same_seed_same_sequence(self):
        a = FaultRng(42)
        b = FaultRng(42)
        seq_a = [a.uniform("site", t * 1000) for t in range(50)]
        seq_b = [b.uniform("site", t * 1000) for t in range(50)]
        assert seq_a == seq_b

    def test_different_seeds_diverge(self):
        a = FaultRng(1)
        b = FaultRng(2)
        assert [a.uniform("s", 0) for _ in range(8)] != [
            b.uniform("s", 0) for _ in range(8)
        ]

    def test_different_sites_diverge(self):
        rng = FaultRng(7)
        assert rng.uniform("alpha", 0) != rng.uniform("beta", 0)

    def test_uniform_range(self):
        rng = FaultRng(3)
        draws = [rng.uniform("u", t) for t in range(200)]
        assert all(0.0 <= d < 1.0 for d in draws)

    def test_randint_range_and_validation(self):
        rng = FaultRng(5)
        draws = [rng.randint("r", t, 16) for t in range(200)]
        assert all(0 <= d < 16 for d in draws)
        with pytest.raises(SimulationError):
            rng.randint("r", 0, 0)

    def test_counter_advances_per_draw(self):
        # repeated draws at the same (site, time) must not repeat
        rng = FaultRng(9)
        draws = {rng.uniform("same", 1234) for _ in range(32)}
        assert len(draws) == 32


class TestPEWindow:
    def test_covers_half_open(self):
        window = PEWindow("cpu", 100, 200)
        assert not window.covers(99)
        assert window.covers(100)
        assert window.covers(199)
        assert not window.covers(200)

    def test_validation(self):
        with pytest.raises(SimulationError):
            PEWindow("cpu", 100, 100)
        with pytest.raises(SimulationError):
            PEWindow("cpu", 0, 10, kind="meltdown")
        with pytest.raises(SimulationError):
            PEWindow("cpu", 0, 10, kind=PE_STALL, stall_factor=0)
        # a factor of 1 stretches nothing, so it would count phantom stalls
        with pytest.raises(SimulationError, match="stall_factor must be >= 2"):
            PEWindow("cpu", 0, 10, kind=PE_STALL, stall_factor=1)


class TestFaultPlanEnablement:
    def test_all_zero_plan_disabled(self):
        assert not FaultPlan(seed=1).enabled

    def test_any_rate_enables(self):
        assert FaultPlan(seed=1, bus_corrupt_rate=0.1).enabled
        assert FaultPlan(seed=1, bus_drop_rate=0.1).enabled
        assert FaultPlan(seed=1, signal_drop_rate=0.1).enabled
        assert FaultPlan(seed=1, signal_dup_rate=0.1).enabled

    def test_windows_enable(self):
        plan = FaultPlan(seed=1, pe_windows=[PEWindow("cpu", 0, 100)])
        assert plan.enabled

    def test_rate_validation(self):
        with pytest.raises(SimulationError):
            FaultPlan(seed=1, bus_corrupt_rate=1.5)
        with pytest.raises(SimulationError):
            FaultPlan(seed=1, bus_drop_rate=-0.1)


def injector(**kwargs) -> FaultInjector:
    """A fresh run's injector for a seed-1 plan with ``kwargs``."""
    return FaultInjector(FaultPlan(seed=1, **kwargs))


class TestBusFaults:
    def test_rate_one_always_corrupts(self):
        faults = injector(bus_corrupt_rate=1.0)
        kind, args = faults.apply_bus_fault("pdu", (5, 10), "a", "b", 1000)
        assert kind == BUS_CORRUPT
        assert args != (5, 10)
        # exactly one bit of the identity flipped, payload untouched
        assert bin(args[0] ^ 5).count("1") == 1
        assert args[1] == 10

    def test_rate_zero_never_injects(self):
        faults = injector(bus_corrupt_rate=0.0, bus_drop_rate=0.0,
                          signal_dup_rate=0.5)
        for t in range(100):
            kind, args = faults.apply_bus_fault("pdu", (t,), "a", "b", t)
            assert kind is None
            assert args == (t,)

    def test_drop_precedes_corrupt(self):
        faults = injector(bus_corrupt_rate=1.0, bus_drop_rate=1.0)
        kind, _ = faults.apply_bus_fault("pdu", (1,), "a", "b", 0)
        assert kind == BUS_DROP

    def test_signal_restriction(self):
        faults = injector(bus_corrupt_rate=1.0, corruptible_signals={"pdu"})
        kind, _ = faults.apply_bus_fault("other", (1,), "a", "b", 0)
        assert kind is None
        kind, _ = faults.apply_bus_fault("pdu", (1,), "a", "b", 0)
        assert kind == BUS_CORRUPT

    def test_deterministic_across_instances(self):
        def outcomes(seed):
            faults = FaultInjector(
                FaultPlan(seed=seed, bus_corrupt_rate=0.3, bus_drop_rate=0.1)
            )
            return [
                faults.apply_bus_fault("pdu", (t,), "a", "b", t * 500)
                for t in range(200)
            ]

        assert outcomes(77) == outcomes(77)
        assert outcomes(77) != outcomes(78)


class TestDispatchFaults:
    def test_drop_and_dup(self):
        faults = injector(signal_drop_rate=1.0)
        assert faults.apply_dispatch_fault("s", (1,), "p", "q", 0) == SIGNAL_DROP
        faults = injector(signal_dup_rate=1.0)
        assert faults.apply_dispatch_fault("s", (1,), "p", "q", 0) == SIGNAL_DUP

    def test_none_when_disabled(self):
        faults = injector(bus_corrupt_rate=0.5)
        assert faults.apply_dispatch_fault("s", (1,), "p", "q", 0) is None


class TestPEWindows:
    def test_crash_window(self):
        faults = injector(pe_windows=[PEWindow("cpu1", 100, 200, kind=PE_CRASH)])
        assert faults.pe_crashed("cpu1", 150)
        assert not faults.pe_crashed("cpu1", 250)
        assert not faults.pe_crashed("cpu2", 150)
        assert faults.stats.count(PE_CRASH) == 1

    def test_stall_window_scales_duration(self):
        faults = injector(
            pe_windows=[PEWindow("cpu1", 0, 1000, kind=PE_STALL, stall_factor=3)],
        )
        assert faults.stall_duration_ps("cpu1", 500, 100) == 300
        assert faults.stall_duration_ps("cpu1", 2000, 100) == 100
        assert faults.stall_duration_ps("cpu2", 500, 100) == 100


class TestAccounting:
    def test_protected_loss_then_recovery(self):
        faults = injector(bus_corrupt_rate=1.0, protected_signals={"pdu"})
        faults.apply_bus_fault("pdu", (9,), "a", "b", 0)
        assert faults.stats.detected == 1
        assert faults.pending_losses == 1
        faults.note_delivery("pdu", (9,))
        assert faults.stats.recovered == 1
        assert faults.pending_losses == 0
        assert faults.stats.residual == 0

    def test_repeated_loss_counts_multiplicity(self):
        # original AND retransmission lost: one clean delivery repairs both
        faults = injector(bus_drop_rate=1.0, protected_signals={"pdu"})
        faults.apply_bus_fault("pdu", (9,), "a", "b", 0)
        faults.apply_bus_fault("pdu", (9,), "a", "b", 1000)
        assert faults.stats.detected == 2
        assert faults.pending_losses == 2
        faults.note_delivery("pdu", (9,))
        assert faults.stats.recovered == 2
        assert faults.stats.residual == 0

    def test_unprotected_loss_not_detected(self):
        faults = injector(bus_drop_rate=1.0)
        faults.apply_bus_fault("pdu", (9,), "a", "b", 0)
        assert faults.stats.injected == 1
        assert faults.stats.detected == 0

    def test_unrelated_delivery_is_not_recovery(self):
        faults = injector(bus_drop_rate=1.0, protected_signals={"pdu"})
        faults.apply_bus_fault("pdu", (9,), "a", "b", 0)
        faults.note_delivery("pdu", (10,))
        faults.note_delivery("other", (9,))
        assert faults.stats.recovered == 0
        assert faults.pending_losses == 1

    def test_stats_meta_roundtrip(self):
        stats = FaultStats(seed=11)
        stats.note_injected(BUS_CORRUPT)
        stats.note_injected(BUS_CORRUPT)
        stats.note_injected(BUS_DROP)
        stats.detected = 3
        stats.recovered = 2
        meta = stats.as_meta()
        assert meta["fault_seed"] == "11"
        assert meta["fault_injected"] == "3"
        assert meta["fault_detected"] == "3"
        assert meta["fault_recovered"] == "2"
        assert meta["fault_residual"] == "1"
        assert meta["fault_kinds"] == "bus-corrupt:2,bus-drop:1"
        assert FaultStats.from_meta(meta) == stats
        assert FaultStats.from_meta({"application": "Tutmac"}) is None
