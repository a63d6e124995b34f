"""Cost model: what a run-to-completion step costs on a processing element.

The paper's parameterised platform models "are used to perform a high-level
hardware/software co-simulation.  In that case, the execution of application
processes is guided with the properties of the platform components"
(Section 3.2).  This module is that guidance: it turns interpreter work
counts into PE cycles using the PE spec's per-process-type costs.

Timer durations in the action language are in **microseconds** (protocol
time), independent of any PE clock.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.platform.components import ProcessingElementSpec
from repro.simulation.kernel import PS_PER_US, cycles_to_ps
from repro.tutprofile.tags import ComponentType, ProcessType

#: Fixed cycles charged per transition dispatch (state bookkeeping).
TRANSITION_BASE_STATEMENTS = 2
#: Statement-equivalents charged per evaluated (possibly failing) guard.
GUARD_STATEMENTS = 1

#: The PE spec used for reference ("workstation") simulation runs: a fast
#: general-purpose processor, the paper's "simulations on the workstation
#: processor" setting for Table 4.  Context switching is free because the
#: paper's profiling instruments application functions only — scheduler
#: overhead of the host OS is not attributed to any process group.
WORKSTATION_SPEC = ProcessingElementSpec(
    name="Workstation",
    component_type=ComponentType.GENERAL,
    frequency_hz=2_000_000_000,
    cycles_per_statement={
        ProcessType.GENERAL: 8,
        ProcessType.DSP: 8,
        ProcessType.HARDWARE: 8,
    },
    context_switch_cycles=0,
    signal_dispatch_cycles=8,
    area_mm2=0.0,
    power_mw=0.0,
    internal_memory_bytes=1 << 30,
)


class StepCost(NamedTuple):
    """Cycles and wall time of one run-to-completion step."""

    cycles: int
    duration_ps: int


class CostModel:
    """Computes step costs for one PE."""

    def __init__(self, spec: ProcessingElementSpec) -> None:
        self.spec = spec

    def step_cost(
        self,
        process_type: str,
        statements: int,
        guards_evaluated: int,
        sends: int,
        context_switch: bool,
    ) -> StepCost:
        """Cost of a step that executed ``statements`` action statements,
        evaluated ``guards_evaluated`` guards and produced ``sends`` signals."""
        work = (
            TRANSITION_BASE_STATEMENTS
            + statements
            + GUARD_STATEMENTS * guards_evaluated
        )
        cycles = work * self.spec.statement_cycles(process_type)
        cycles += sends * self.spec.signal_dispatch_cycles
        if context_switch:
            cycles += self.spec.context_switch_cycles
        return StepCost(cycles, cycles_to_ps(cycles, self.spec.frequency_hz))

    def receive_cost_cycles(self) -> int:
        """Cycles the receiving PE spends taking a signal off its wrapper."""
        return self.spec.signal_dispatch_cycles


def timer_duration_ps(microseconds: int) -> int:
    """Convert an action-language timer duration to kernel time."""
    return microseconds * PS_PER_US
